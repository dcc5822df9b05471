import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from factlaw import (
    AMBIGUOUS_EDGES,
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
    generate_hidden_form,
    generate_painting,
    hidden_form_from_painting,
    integrate,
    label_histogram,
    label_projection,
    run_frequency_experiment,
)
from factlaw.integration import _Replicas
from factlaw.painting import scanline_layout
from oracles import (
    chi_square_quantile_df2,
    chi_square_statistic,
    cover_time_by_chain,
    cover_times,
    reference_stream,
)

from conftest import REFERENCE_SPEC, assert_open_counts_are_recounted

B = "B"
BLANK = (B, B, B, B)


def blank_event(label, r_prime=1):
    return ComplexifiedEvent(label, r_prime, BLANK)


TRIVIAL_FORM = HiddenForm(1, 1, 10, (1,), (1,), (BLANK,))


# --- complexified events and hidden forms -----------------------------------


def test_event_validation_and_fungibility():
    with pytest.raises(ValueError):
        ComplexifiedEvent(1, 1, (B, B, B))
    with pytest.raises(ValueError):
        ComplexifiedEvent(0, 1, BLANK)
    with pytest.raises(ValueError):
        ComplexifiedEvent(1, 0, BLANK)
    with pytest.raises(ValueError, match="must be ints"):
        ComplexifiedEvent("1", 1, BLANK)
    # Replica copies of the same cell are indistinguishable values.
    assert blank_event(2, 7) == blank_event(2, 7)
    assert hash(blank_event(2, 7)) == hash(blank_event(2, 7))
    assert blank_event(2, 7) != blank_event(2, 8)
    # The hash is the one a dataclass hash of the three fields gives, so
    # every dict and set of events keeps its order.
    event = ComplexifiedEvent(3, 9, ["n", "e", B, B])
    assert hash(event) == hash((3, 9, ("n", "e", B, B)))
    assert [f.name for f in dataclasses.fields(event)] == [
        "label_r", "complexification_r_prime", "edge_sigs"
    ]


def test_hidden_form_from_painting_carries_structure_over(reference_painting):
    form = hidden_form_from_painting(reference_painting, seed=3)
    assert (form.width, form.height) == (10, 10)
    assert form.label_counts == label_histogram(reference_painting)
    assert form.s_prime == 600  # ten times the largest label count
    for tile, cell in zip(reference_painting.tiles, form.cells):
        assert cell.label_r == tile.approx_colour
        assert cell.edge_sigs == tile.edge_sigs
    assert form.normalized_histogram() == {
        1: Fraction(3, 5),
        2: Fraction(3, 10),
        3: Fraction(1, 10),
    }


def test_complexification_space_guardrail(reference_form):
    with pytest.raises(ValueError, match="at least 10 x"):
        dataclasses.replace(reference_form, s_prime=599)
    roomy = dataclasses.replace(reference_form, s_prime=1000)
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
    edges = ((B, "e", B, B), (B, B, B, "e"))
    with pytest.raises(ValueError, match="^complexification index 5 repeats within"):
        HiddenForm(2, 1, 20, (1, 1), (5, 5), edges)


def test_hidden_form_rejects_label_gaps_and_bad_coverage():
    with pytest.raises(ValueError):
        HiddenForm(1, 1, 10, (3,), (1,), (BLANK,))
    with pytest.raises(ValueError):
        HiddenForm(2, 1, 10, (1,), (1,), (BLANK,))
    with pytest.raises(ValueError, match="extents must be positive"):
        HiddenForm(0, 0, 10, (), (), ())


STRIP_EDGES = ((B, "e", B, B), (B, B, B, "e"))
# name -> (refused call, the whole message)
REFUSALS = {
    "form-rp-0": (
        lambda: HiddenForm(2, 1, 20, (1, 1), (0, 2), STRIP_EDGES),
        "labels and complexification indices start at 1",
    ),
    "form-rp-above-s-prime": (
        lambda: HiddenForm(2, 1, 20, (1, 1), (1, 21), STRIP_EDGES),
        "r_prime 21 outside 1..20",
    ),
    "result-totals-disagree": (
        lambda: IntegrationResult(
            n_phi_total=3, per_pair_counts={(1, 1): 2}, per_label={1: 2},
            total_labels=2, law=Measure({1: Fraction(1)}),
            replicas_used_for_confirmation=1, events_consumed=2,
            completion_log=((0, 2),),
        ),
        "every cell carries exactly one label, so totals must agree",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_their_fault(call, message):
    HiddenForm(2, 1, 20, (1, 1), (1, 2), STRIP_EDGES)  # the strip itself holds
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_hidden_form_doc_round_trip(reference_form):
    doc = reference_form.to_doc()
    assert set(doc) == {"width", "height", "s_prime", "labels", "rp", "edges"}
    cell = reference_form.cells[0]
    first = [doc[key][0] for key in ("labels", "rp", "edges")]
    assert first == [cell.label_r, cell.complexification_r_prime, list(cell.edge_sigs)]
    assert HiddenForm.from_doc(doc) == reference_form
    assert HiddenForm.from_doc(doc).to_doc() == doc
    with pytest.raises(ValueError, match="^expected 100 rp, got 99$"):
        HiddenForm.from_doc(dict(doc, rp=doc["rp"][:-1]))


def test_hidden_form_builds_the_events_its_constructor_would(reference_form):
    # The form builds its events from the checked columns without the
    # event constructor; each must equal, and hash like, the one it builds.
    form = HiddenForm.from_doc(reference_form.to_doc())
    assert form == reference_form
    assert form.label_counts == reference_form.label_counts
    for event, label, rp, sigs in zip(form.cells, form.labels, form.rp, form.edges):
        built = ComplexifiedEvent(label, rp, sigs)
        assert event == built and hash(event) == hash(built)
        assert vars(event) == vars(built)


def test_hidden_form_shares_the_painting_columns(reference_painting):
    form = hidden_form_from_painting(reference_painting, seed=3)
    assert form.labels is reference_painting.labels
    assert form.edges is reference_painting.edges


@pytest.mark.skipif(sys.version_info < (3, 11), reason="every instance has a dict before 3.11")
def test_a_form_built_first_gives_its_events_no_dict_each():
    # In a fresh interpreter the form's events are the first made past the
    # one its import builds, so they show how bulk-made events are stored.
    code = (
        "import gc\n"
        "from factlaw import PaintingSpec, generate_hidden_form\n"
        "form = generate_hidden_form(PaintingSpec(8, 8, 2, {1: 40, 2: 24}, seed=1))\n"
        "print(sum(type(r) is dict for e in form.cells for r in gc.get_referents(e)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_generate_hidden_form_is_deterministic():
    spec = PaintingSpec(4, 2, 3, {1: 4, 2: 3, 3: 1}, seed=12)
    assert generate_hidden_form(spec) == generate_hidden_form(spec)


# --- the complexified stream ------------------------------------------------


def test_stream_is_deterministic_and_emits_form_events(reference_form):
    first = list(itertools.islice(complexified_phenomenon(reference_form, 8), 200))
    second = list(itertools.islice(complexified_phenomenon(reference_form, 8), 200))
    assert first == second
    assert set(first) <= set(reference_form.cells)


@pytest.mark.parametrize(
    "n_cells", [1, 2, 3, 4, 5, 255, 256, 257, 576, 1023, 1024, 1025]
)
def test_stream_draws_what_randrange_draws(n_cells):
    # The stream reads 1,024 words per getrandbits call and skips the
    # words whose top bits point past the last cell; a randrange loop must
    # see the same cells.  3,000 events cross at least two chunk boundaries
    # at every size here, since at most 1,024 words of a chunk are kept.
    if n_cells == 1:
        form = TRIVIAL_FORM
    else:
        spec = PaintingSpec(n_cells, 1, 1, {1: n_cells}, seed=n_cells)
        form = generate_hidden_form(spec)
    for seed in (0, 1, 29, 2**40 + 3):
        stream = complexified_phenomenon(form, seed)
        expected = reference_stream(form.cells, seed, 3_000)
        assert list(itertools.islice(stream, 3_000)) == expected


def test_label_projection_matches_form_counts(reference_form):
    ph = label_projection(reference_form, seed=2)
    assert ph.universe.elements == (1, 2, 3)
    assert ph.weights == (60, 30, 10)


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
    # With-replacement streams repeat events; replica j closes once every
    # cell has been drawn j times.
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
    # The first event closes a 1 x 1 replica; a second distinct event can
    # join no confirmation replica of it.
    stream = iter([blank_event(1), blank_event(2)])
    with pytest.raises(
        InconsistentReplicas,
        match="^event 2: a new event after event 1 closed replica 1,",
    ):
        integrate(stream, IntegrationConfig(confirmation_replicas=2))


@pytest.mark.parametrize("k", [1, 3])
def test_a_blank_stray_closes_no_replica_of_its_own(k):
    # A stray 1 x 1 event second in a 4 x 4 form's stream: it joins the one
    # nascent replica, which closes only once every cell has arrived, and
    # then tiles no single board.  A replica of the stray alone would have
    # given the law {2: 1} at k = 1.
    form = generate_hidden_form(PaintingSpec(4, 4, 2, {1: 8, 2: 8}, seed=1))
    events = list(itertools.islice(complexified_phenomenon(form, 0), 2000))
    events.insert(1, ComplexifiedEvent(2, 99, BLANK))
    with pytest.raises(
        AmbiguousStream, match="^event 63: closes a replica that tiles no single"
    ):
        integrate(iter(events), IntegrationConfig(confirmation_replicas=k))


def test_single_replica_skips_confirmation():
    stream = iter([blank_event(1), blank_event(2)])
    result = integrate(stream, IntegrationConfig(confirmation_replicas=1))
    assert result.law.atom_probs == {1: Fraction(1)}
    assert result.events_consumed == 1


def test_ambiguous_stream_is_rejected():
    # Build a hook shape whose fifth event matches an open slot by one edge
    # but clashes with a second neighbour of that slot; the sixth shuts the
    # last open sides, and the replica tiles no board.
    events = [
        ComplexifiedEvent(1, 1, (B, "x", B, B)),          # (0,0)
        ComplexifiedEvent(1, 2, ("q", "y", B, "x")),      # (1,0)
        ComplexifiedEvent(1, 3, ("z", B, B, "y")),        # (2,0)
        ComplexifiedEvent(1, 4, (B, B, "z", "x2")),       # (2,1)
        ComplexifiedEvent(1, 5, (B, "x2", "w", B)),       # clashes at (1,1)
        ComplexifiedEvent(1, 6, ("w", B, "q", B)),
    ]
    one = IntegrationConfig(confirmation_replicas=1)
    with pytest.raises(BudgetExhausted):
        integrate(iter(events[:5]), one)
    with pytest.raises(AmbiguousStream) as caught:
        integrate(iter(events), one)
    assert str(caught.value) == (
        "event 6: closes a replica that tiles no single board;"
        " integration needs unique edge signatures"
    )


def test_merge_seam_clash_is_rejected():
    # Event 4 matches event 3 on its E side and event 1 on its S side, which
    # puts event 2 under event 3, whose S signature it does not show; event
    # 5 shuts the last open sides, and the replica tiles no board.
    events = [
        ComplexifiedEvent(1, 1, ("v0", "h0", B, B)),
        ComplexifiedEvent(1, 2, ("v1", B, B, "h0")),
        ComplexifiedEvent(1, 3, (B, B, "v9", "h1")),
        ComplexifiedEvent(1, 4, (B, "h1", "v0", B)),
        ComplexifiedEvent(1, 5, ("v9", B, "v1", B)),
    ]
    one = IntegrationConfig(confirmation_replicas=1)
    with pytest.raises(BudgetExhausted):
        integrate(iter(events[:4]), one)
    with pytest.raises(AmbiguousStream) as caught:
        integrate(iter(events), one)
    assert str(caught.value) == (
        "event 5: closes a replica that tiles no single board;"
        " integration needs unique edge signatures"
    )


def test_closed_partner_cycle_that_no_grid_holds_is_refused():
    # The first two events match each other on both their N and S sides,
    # like a two-cell torus: once both arrive no side is open, yet no grid
    # holds them, so the closure is refused before anything is counted.
    events = [
        ComplexifiedEvent(1, 1, ("s1", B, "s0", B)),
        ComplexifiedEvent(1, 2, ("s0", B, "s1", B)),
        ComplexifiedEvent(2, 1, BLANK),
    ]
    with pytest.raises(AmbiguousStream) as caught:
        integrate(iter(events), IntegrationConfig(confirmation_replicas=1))
    assert str(caught.value) == (
        "event 2: closes a replica that tiles no single board;"
        " integration needs unique edge signatures"
    )


def test_stream_that_repeats_a_signature_is_refused():
    # The middle cell of this strip shows a001 on both its W and E sides, so
    # it repeats the E pair of the left cell and the W pair of the right one.
    form = generate_hidden_form(
        PaintingSpec(3, 1, 2, {1: 1, 2: 2}, AMBIGUOUS_EDGES, 5)
    )
    one = IntegrationConfig(confirmation_replicas=1)
    refused = wrong = 0
    for seed in range(300):
        try:
            result = integrate(complexified_phenomenon(form, seed), one)
        except AmbiguousStream:
            refused += 1
        else:
            wrong += result.law.atom_probs != form.normalized_histogram()
    # The other 100 streams close a 2-cell board from the end cells before
    # the middle one is drawn: no stream check can see that cell.
    assert (refused, wrong) == (200, 100)
    # The middle cell matches itself across its E and W sides: drawn
    # first, it closes a one-cell torus; drawn after an end cell, it
    # repeats that cell's pair.
    with pytest.raises(AmbiguousStream) as caught:
        integrate(complexified_phenomenon(form, 0), one)
    assert str(caught.value) == (
        "event 1: closes a replica that tiles no single board;"
        " integration needs unique edge signatures"
    )
    with pytest.raises(AmbiguousStream) as caught:
        integrate(complexified_phenomenon(form, 4), one)
    assert str(caught.value) == (
        "event 2: E signature a001 was first shown by event 1;"
        " integration needs unique edge signatures"
    )


def test_end_to_end_check_refuses_a_form_with_a_repeated_signature():
    # Without the form check, 20 of these root seeds give a wrong law.
    form = generate_hidden_form(
        PaintingSpec(3, 1, 2, {1: 1, 2: 2}, AMBIGUOUS_EDGES, 5)
    )
    for seed in range(300):
        with pytest.raises(AmbiguousStream) as caught:
            end_to_end_check(form, n_freq=10, seed=seed)
        assert str(caught.value) == (
            "signature 'a001' is on 4 sides; integration needs unique edge"
            " signatures"
        )


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(confirmation_replicas=0)
    with pytest.raises(ValueError):
        IntegrationConfig(max_events=0)
    with pytest.raises(ValueError, match="must be ints"):
        IntegrationConfig(confirmation_replicas=2.5)
    with pytest.raises(ValueError, match="must be ints"):
        IntegrationConfig(max_events=10.5)


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


def random_form(width, height, seed):
    """A unique-edge form of the given extents with 1-4 random labels."""
    cells = width * height
    if cells == 1:
        return TRIVIAL_FORM
    rng = random.Random(seed)
    q = rng.randint(1, min(4, cells - 1))
    counts = {j: 1 for j in range(1, q + 1)}
    for _ in range(cells - q):
        counts[rng.randint(1, q)] += 1
    return generate_hidden_form(PaintingSpec(width, height, q, counts, seed=seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31), st.integers(1, 4))
def test_replicas_complete_at_the_cover_times_of_the_stream(width, height, seed, k):
    # No replica can close before every cell has been drawn once more than
    # for the previous one; integration closes each at that very event, so
    # any change that delays a completion fails here.
    form = random_form(width, height, seed)
    result = integrate(
        complexified_phenomenon(form, seed), IntegrationConfig(confirmation_replicas=k)
    )
    expected = cover_times(complexified_phenomenon(form, seed), width * height, k)
    assert [draw for _, draw in result.completion_log] == expected
    assert result.events_consumed == expected[-1]


def retouched(event, edges):
    return dataclasses.replace(event, edge_sigs=tuple(edges))


def half_turn(cells, rng):
    i = rng.randrange(len(cells))
    n, e, s, w = cells[i].edge_sigs
    return {cells[i]: retouched(cells[i], (s, w, n, e))}


def swap_two_sides(cells, rng):
    i = rng.randrange(len(cells))
    edges = list(cells[i].edge_sigs)
    a, b = rng.sample(range(4), 2)
    edges[a], edges[b] = edges[b], edges[a]
    return {cells[i]: retouched(cells[i], edges)}


def swap_side(cells, i, j, side):
    first, second = list(cells[i].edge_sigs), list(cells[j].edge_sigs)
    first[side], second[side] = second[side], first[side]
    return {cells[i]: retouched(cells[i], first), cells[j]: retouched(cells[j], second)}


def swap_side_between_cells(cells, rng):
    i, j = rng.sample(range(len(cells)), 2)
    return swap_side(cells, i, j, rng.randrange(4))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(2, 5),
    st.integers(0, 2**31),
    st.integers(1, 4),
    st.sampled_from(
        [half_turn, swap_two_sides, swap_side_between_cells, "interleave", "stray"]
    ),
)
# A stray event that shares its (label, index) pair with a form event.
@example(4, 3, 93965, 1, "stray")
def test_every_law_is_certified_by_the_scanline_search(
    width, height, seed, k, tampering
):
    # Integration either refuses a tampered stream, or the distinct events
    # it counted tile one board on their own, as the border game's
    # exhaustive search proves.
    form = random_form(width, height, seed)
    rng = random.Random(seed)
    events = list(itertools.islice(complexified_phenomenon(form, seed), 2000))
    other = random_form(width, height, seed + 1)
    strays = list(itertools.islice(complexified_phenomenon(other, seed), 2000))
    if tampering == "interleave":
        events = [e for pair in zip(events, strays) for e in pair]
    elif tampering == "stray":
        for stray in strays[:3]:
            events.insert(rng.randrange(len(events) + 1), stray)
    else:
        swap = tampering(form.cells, rng)
        events = [swap.get(event, event) for event in events]
    try:
        result = integrate(iter(events), IntegrationConfig(confirmation_replicas=k))
    except (AmbiguousStream, BudgetExhausted, InconsistentReplicas):
        return
    # The counted events are those that joined the replica.
    replicas = _Replicas(k)
    replicas.consume(events[: result.events_consumed], result.events_consumed)
    counted = replicas.events
    width, height, _, _ = scanline_layout([event.edge_sigs for event in counted])
    assert width * height == len(counted)
    assert len(counted) == result.n_phi_total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_each_distinct_event_joins_once(reference_form, k, monkeypatch):
    joined = {}
    join = _Replicas._join

    def counting_join(self, event, number):
        joined[event] = joined.get(event, 0) + 1
        return join(self, event, number)

    monkeypatch.setattr(_Replicas, "_join", counting_join)
    result = integrate(
        complexified_phenomenon(reference_form, k),
        IntegrationConfig(confirmation_replicas=k),
    )
    # Later copies only raise counts, however many replicas are awaited.
    assert joined == dict.fromkeys(reference_form.cells, 1)
    expected = cover_times(complexified_phenomenon(reference_form, k), 100, k)
    assert result.events_consumed == expected[-1]


def swapped_stream(form, seed):
    # Cells 44 and 45 trade their N signatures: no pair repeats, but the
    # two cells meet the wrong partners, and the replica that closes tiles
    # no board.
    swap = swap_side(form.cells, 44, 45, 0)
    return (swap.get(event, event) for event in complexified_phenomenon(form, seed))


@pytest.mark.parametrize(
    "stream, clash",
    [
        (complexified_phenomenon, None),
        (swapped_stream, "event 629: closes a replica that tiles no single board"),
    ],
    ids=("unique", "swapped"),
)
def test_groups_stay_consistent_after_every_event(reference_form, stream, clash):
    replicas = _Replicas(3)
    try:
        for event in stream(reference_form, 8):
            replicas.consume((event,), 10_000)
            assert_open_counts_are_recounted(replicas)
            if len(replicas.completed) == 3:
                break
    except AmbiguousStream as exc:
        assert str(exc).startswith(f"{clash};")
    else:
        assert clash is None


def unique_form_documents():
    docs = []
    for side in range(2, 25):
        cells = side * side
        counts = {1: cells * 6 // 10, 2: cells * 3 // 10}
        counts[3] = cells - counts[1] - counts[2]
        for seed in (1, 2):
            form = generate_hidden_form(PaintingSpec(side, side, 3, counts, seed=seed))
            for k in range(1, 5):
                result = integrate(
                    complexified_phenomenon(form, seed),
                    IntegrationConfig(confirmation_replicas=k),
                )
                docs.append([side, seed, k, result.to_doc()])
    return docs


# Captured while integrate still placed every copy of every event.
UNIQUE_FORM_DIGEST = "bbd6a0d221ec1dbb271c8ecb9caffd3f97802e178e609ef5f748e1fc29c2de06"


def test_integrate_documents_on_unique_forms_are_pinned():
    # Square forms of sides 2-24, two seeds each, k = 1..4: the law,
    # events_consumed and completion_log of every document.
    text = json.dumps(unique_form_documents(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == UNIQUE_FORM_DIGEST


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
