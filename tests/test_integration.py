import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factlaw import (
    AmbiguousStream,
    BudgetExhausted,
    ComplexifiedEvent,
    HiddenForm,
    InconsistentReplicas,
    IntegrationConfig,
    IntegrationResult,
    Measure,
    PaintingSpec,
    complexified_phenomenon,
    end_to_end_check,
    expected_cover_time,
    factual_space_from_painting,
    form_digest,
    generate_hidden_form,
    generate_painting,
    hidden_form_from_painting,
    integrate,
    label_histogram,
    label_projection,
    run_frequency_experiment,
)
from oracles import (
    chi_square_quantile_df2,
    chi_square_statistic,
    cover_time_by_chain,
    cover_times,
)

from conftest import REFERENCE_SPEC

B = "B"
BLANK = (B, B, B, B)


def blank_event(label, r_prime=1):
    return ComplexifiedEvent(label, r_prime, BLANK)


TRIVIAL_FORM = HiddenForm(1, 1, 10, (blank_event(1),))


# --- complexified events and hidden forms -----------------------------------


def test_event_validation_and_fungibility():
    with pytest.raises(ValueError):
        ComplexifiedEvent(1, 1, (B, B, B))
    with pytest.raises(ValueError):
        ComplexifiedEvent(0, 1, BLANK)
    with pytest.raises(ValueError):
        ComplexifiedEvent(1, 0, BLANK)
    # Replica copies of the same cell are indistinguishable values.
    assert blank_event(2, 7) == blank_event(2, 7)
    assert hash(blank_event(2, 7)) == hash(blank_event(2, 7))
    assert blank_event(2, 7) != blank_event(2, 8)


def test_hidden_form_from_painting_carries_structure_over(reference_painting):
    form = hidden_form_from_painting(reference_painting, seed=3)
    assert (form.width, form.height) == (10, 10)
    assert form.label_counts == label_histogram(reference_painting)
    assert form.s_prime == 600  # ten times the largest label count
    for tile in reference_painting.tiles:
        cell = form.cell_at(*tile.coords)
        assert cell.label_r == tile.approx_colour
        assert cell.edge_sigs == tile.edge_sigs
    assert form.normalized_histogram() == {
        1: Fraction(3, 5),
        2: Fraction(3, 10),
        3: Fraction(1, 10),
    }


def test_complexification_space_guardrail(reference_painting):
    with pytest.raises(ValueError):
        hidden_form_from_painting(reference_painting, s_prime=599)
    roomy = hidden_form_from_painting(reference_painting, s_prime=1000, seed=1)
    assert roomy.s_prime == 1000


def test_indices_are_unique_within_each_label_cloud(reference_painting):
    form = hidden_form_from_painting(reference_painting, seed=5)
    by_label = {}
    for cell in form.cells:
        by_label.setdefault(cell.label_r, []).append(cell.complexification_r_prime)
    for indices in by_label.values():
        assert len(indices) == len(set(indices))
        assert all(1 <= rp <= form.s_prime for rp in indices)


def test_hidden_form_rejects_repeating_indices():
    cells = (
        ComplexifiedEvent(1, 5, (B, "e", B, B)),
        ComplexifiedEvent(1, 5, (B, B, B, "e")),
    )
    with pytest.raises(ValueError):
        HiddenForm(2, 1, 20, cells)


def test_hidden_form_rejects_label_gaps_and_bad_coverage():
    with pytest.raises(ValueError):
        HiddenForm(1, 1, 10, (blank_event(3),))
    with pytest.raises(ValueError):
        HiddenForm(2, 1, 10, (blank_event(1),))
    with pytest.raises(ValueError, match="extents must be positive"):
        HiddenForm(0, 0, 10, ())


def test_hidden_form_doc_round_trip(reference_form):
    doc = reference_form.to_doc()
    assert HiddenForm.from_doc(doc) == reference_form
    assert form_digest(HiddenForm.from_doc(doc)) == form_digest(reference_form)


def test_hidden_form_from_doc_places_cells_by_coordinates(reference_form):
    doc = reference_form.to_doc()
    shuffled = dict(doc, cells=doc["cells"][::-1])
    assert HiddenForm.from_doc(shuffled) == reference_form
    cells = doc["cells"]
    repeated = dict(doc, cells=[cells[0], dict(cells[1], x=1)] + cells[2:])
    with pytest.raises(ValueError, match="exactly once"):
        HiddenForm.from_doc(repeated)
    missing = dict(doc, cells=cells[:-1])
    with pytest.raises(ValueError, match="expected 100 cells, got 99"):
        HiddenForm.from_doc(missing)


def test_generate_hidden_form_is_deterministic():
    spec = PaintingSpec(4, 2, 3, {1: 4, 2: 3, 3: 1}, seed=12)
    assert generate_hidden_form(spec) == generate_hidden_form(spec)


# --- the complexified stream ------------------------------------------------


def test_stream_is_deterministic_and_emits_form_events(reference_form):
    first = list(itertools.islice(complexified_phenomenon(reference_form, 8), 200))
    second = list(itertools.islice(complexified_phenomenon(reference_form, 8), 200))
    assert first == second
    assert set(first) <= set(reference_form.cells)


def test_label_projection_matches_form_counts(reference_form):
    ph = label_projection(reference_form, seed=2)
    assert ph.universe.elements == (1, 2, 3)
    assert ph.weights == (60, 30, 10)
    assert ph.provenance == f"hidden_form:{form_digest(reference_form)}"


def test_label_projection_passes_goodness_of_fit(reference_form):
    # The bare-label shadow of the stream must look like the form's
    # histogram; Pearson's statistic stays under the 99.9% quantile.
    n = 30_000
    table = run_frequency_experiment(label_projection(reference_form, seed=6), n)
    stat = chi_square_statistic(
        table.counts, reference_form.normalized_histogram(), n
    )
    threshold = chi_square_quantile_df2(0.999)
    assert abs(threshold - 13.815510557964272) < 1e-12
    assert stat < threshold


# --- integration ------------------------------------------------------------


def test_integrate_trivial_form():
    stream = complexified_phenomenon(TRIVIAL_FORM, seed=0)
    result = integrate(stream)
    assert result.n_phi_total == 1
    assert result.law.atom_probs == {1: Fraction(1)}
    assert result.events_consumed == 3  # one event per confirmation replica
    assert result.completion_log == ((0, 1), (1, 2), (2, 3))


def test_integrate_small_form_recovers_exact_law():
    form = generate_hidden_form(PaintingSpec(4, 2, 3, {1: 4, 2: 3, 3: 1}, seed=12))
    result = integrate(complexified_phenomenon(form, seed=5))
    assert result.n_phi_total == 8
    assert result.law.atom_probs == {
        1: Fraction(1, 2),
        2: Fraction(3, 8),
        3: Fraction(1, 8),
    }


def test_integrate_reference_form_exactly(reference_form, reference_painting):
    result = integrate(complexified_phenomenon(reference_form, seed=1))
    assert result.n_phi_total == 100
    assert result.per_label == {1: 60, 2: 30, 3: 10}
    assert result.total_labels == 100
    # Each (label, index) pair occurs exactly once per replica.
    assert set(result.per_pair_counts.values()) == {1}
    assert len(result.per_pair_counts) == 100
    assert result.law.atom_probs == {
        1: Fraction(3, 5),
        2: Fraction(3, 10),
        3: Fraction(1, 10),
    }
    # The inverse direction lands on the forward direction's law.
    space = factual_space_from_painting(reference_painting)
    assert result.law.atom_probs == space.law.atom_probs


def test_integrate_bookkeeping_is_consistent(reference_form):
    result = integrate(complexified_phenomenon(reference_form, seed=1))
    assert result.replicas_used_for_confirmation == 3
    assert result.events_consumed >= 3 * 100
    draws = [d for _, d in result.completion_log]
    assert draws == sorted(draws)
    assert draws[-1] == result.events_consumed
    doc = result.to_doc()
    assert doc["law"] == {"1": "3/5", "2": "3/10", "3": "1/10"}
    assert doc["law_decimal"]["1"] == 0.6


def test_integration_is_seed_independent(reference_form):
    laws = set()
    consumed = set()
    for seed in range(10):
        result = integrate(complexified_phenomenon(reference_form, seed=seed))
        laws.add(tuple(sorted(result.law.atom_probs.items())))
        consumed.add(result.events_consumed)
    assert len(laws) == 1  # the law never depends on the draw order
    assert len(consumed) > 1  # though the effort does


@pytest.mark.parametrize(
    "seed, events, log",
    [
        (0, 810, ((0, 601), (1, 711), (2, 810))),
        (1, 854, ((0, 636), (1, 795), (2, 854))),
        (2, 728, ((0, 394), (1, 593), (2, 728))),
    ],
    ids=("seed0", "seed1", "seed2"),
)
def test_integration_interleaving_is_pinned(reference_form, seed, events, log):
    # With-replacement streams repeat events, so attachment and bridge-merge
    # order decide which duplicates join which replica and when each closes.
    result = integrate(complexified_phenomenon(reference_form, seed))
    assert result.events_consumed == events
    assert result.completion_log == log


def test_integrate_respects_event_budget(reference_form):
    stream = complexified_phenomenon(reference_form, seed=1)
    with pytest.raises(BudgetExhausted):
        integrate(stream, IntegrationConfig(max_events=50))


def test_integrate_reports_exhausted_finite_stream(reference_form):
    finite = itertools.islice(complexified_phenomenon(reference_form, seed=1), 120)
    with pytest.raises(BudgetExhausted):
        integrate(finite)


def test_never_completing_stream_exhausts_budget():
    # One dangling signature per event: every event opens a fresh replica
    # that can never close.
    dangling = itertools.repeat(ComplexifiedEvent(1, 1, (B, "e1", B, B)))
    with pytest.raises(BudgetExhausted):
        integrate(dangling, IntegrationConfig(max_events=25))


def test_corrupt_stream_fails_replica_confirmation():
    stream = iter([blank_event(1), blank_event(2)])
    with pytest.raises(InconsistentReplicas):
        integrate(stream, IntegrationConfig(confirmation_replicas=2))


def test_single_replica_skips_confirmation():
    stream = iter([blank_event(1), blank_event(2)])
    result = integrate(stream, IntegrationConfig(confirmation_replicas=1))
    assert result.law.atom_probs == {1: Fraction(1)}
    assert result.events_consumed == 1


def test_ambiguous_stream_is_rejected():
    # Build a hook shape whose last event matches an open slot by one edge
    # but clashes with a second neighbour of that slot.
    events = [
        ComplexifiedEvent(1, 1, (B, "x", B, B)),          # (0,0)
        ComplexifiedEvent(1, 2, ("q", "y", B, "x")),      # (1,0)
        ComplexifiedEvent(1, 3, ("z", B, B, "y")),        # (2,0)
        ComplexifiedEvent(1, 4, (B, B, "z", "x2")),       # (2,1)
        ComplexifiedEvent(1, 5, (B, "x2", "w", B)),       # clashes at (1,1)
    ]
    with pytest.raises(AmbiguousStream) as caught:
        integrate(iter(events), IntegrationConfig(confirmation_replicas=1))
    assert str(caught.value) == (
        "event 5: piece does not fit its matched slot;"
        " integration needs unique edge signatures"
    )


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(confirmation_replicas=0)
    with pytest.raises(ValueError):
        IntegrationConfig(max_events=0)


def test_integration_result_invariants():
    with pytest.raises(ValueError):
        IntegrationResult(
            n_phi_total=2,
            per_pair_counts={(1, 1): 1},
            per_label={1: 1},
            total_labels=2,
            law=Measure({1: Fraction(1)}),
            replicas_used_for_confirmation=1,
            events_consumed=1,
            completion_log=((0, 1),),
        )


# --- end to end -------------------------------------------------------------


def test_end_to_end_check_on_reference_form(reference_form):
    report = end_to_end_check(reference_form, n_freq=20_000, seed=99)
    assert report.law.atom_probs == {
        1: Fraction(3, 5),
        2: Fraction(3, 10),
        3: Fraction(1, 10),
    }
    assert report.frequency_table.n_draws == 20_000
    assert report.sup_distance <= Fraction(1, 100)
    doc = report.to_doc()
    assert doc["law"] == {"1": "3/5", "2": "3/10", "3": "1/10"}
    assert doc["n_draws"] == 20_000


def test_end_to_end_check_is_deterministic(reference_form):
    a = end_to_end_check(reference_form, n_freq=5_000, seed=4)
    b = end_to_end_check(reference_form, n_freq=5_000, seed=4)
    assert a.to_doc() == b.to_doc()


def test_end_to_end_trivial_form_has_zero_distance():
    report = end_to_end_check(TRIVIAL_FORM, n_freq=100, seed=0)
    assert report.sup_distance == 0
    assert report.law.atom_probs == {1: Fraction(1)}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_integration_recovers_any_small_form(seed):
    spec = PaintingSpec(3, 3, 2, {1: 6, 2: 3}, seed=seed)
    form = generate_hidden_form(spec)
    result = integrate(
        complexified_phenomenon(form, seed=seed),
        IntegrationConfig(confirmation_replicas=2),
    )
    assert result.law.atom_probs == {1: Fraction(2, 3), 2: Fraction(1, 3)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31), st.integers(1, 4))
def test_replicas_complete_at_the_cover_times_of_the_stream(width, height, seed, k):
    # No replica can close before every cell has been drawn once more than
    # for the previous one; greedy assembly closes each at that very event,
    # so any change that delays a completion fails here.
    cells = width * height
    if cells == 1:
        form = TRIVIAL_FORM
    else:
        rng = random.Random(seed)
        q = rng.randint(1, min(4, cells - 1))
        counts = {j: 1 for j in range(1, q + 1)}
        for _ in range(cells - q):
            counts[rng.randint(1, q)] += 1
        form = generate_hidden_form(PaintingSpec(width, height, q, counts, seed=seed))
    result = integrate(
        complexified_phenomenon(form, seed), IntegrationConfig(confirmation_replicas=k)
    )
    expected = cover_times(complexified_phenomenon(form, seed), cells, k)
    assert [draw for _, draw in result.completion_log] == expected
    assert result.events_consumed == expected[-1]


def test_expected_cover_time_equals_the_markov_chain():
    # Inclusion-exclusion against first-step analysis, exact to the last
    # digit; k = 1 is the coupon collector's N * H_N.
    for n_cells in range(1, 13):
        harmonic = sum(Fraction(1, i) for i in range(1, n_cells + 1))
        assert expected_cover_time(n_cells, 1) == n_cells * harmonic
        for k in range(1, 5):
            assert expected_cover_time(n_cells, k) == cover_time_by_chain(n_cells, k)


def test_expected_cover_time_rejects_empty_arguments():
    for n_cells, k in ((0, 1), (1, 0), (-3, 2)):
        with pytest.raises(ValueError):
            expected_cover_time(n_cells, k)
