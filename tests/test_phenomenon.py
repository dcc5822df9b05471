import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factlaw import (
    DivergenceReport,
    FactualSpace,
    ForeignElement,
    FrequencyTable,
    Measure,
    RandomPhenomenon,
    Universe,
    UniverseMismatch,
    compare_law,
    composition_rank,
    count_statistical_structures,
    factual_space_from_painting,
    generate_algebra,
    probabilise_painting,
    run_frequency_experiment,
)


def coin(weights=(1, 1), seed=0):
    return RandomPhenomenon(
        "weighted-draw", Universe(tuple(range(1, len(weights) + 1))), weights, seed
    )


# --- samplers ---------------------------------------------------------------


def test_sample_is_reproducible_and_seed_overridable():
    ph = coin(seed=5)
    assert ph.sample(50) == ph.sample(50)
    assert ph.sample(50) != ph.sample(50, seed=6)


def test_sampler_draws_only_universe_labels():
    ph = coin((1, 2, 3), seed=2)
    assert set(ph.sample(500)) == {1, 2, 3}


def test_zero_weight_label_is_never_drawn():
    ph = RandomPhenomenon("weighted-draw", Universe(("x", "y")), (7, 0), seed=3)
    assert set(ph.sample(1000)) == {"x"}
    assert ph.underlying_law()["y"] == 0


def test_underlying_law_is_exact():
    law = coin((6, 3, 1)).underlying_law()
    assert law[1] == Fraction(3, 5)
    assert law[2] == Fraction(3, 10)
    assert law[3] == Fraction(1, 10)


def test_sampler_rejects_bad_parameters():
    u = Universe((1, 2))
    with pytest.raises(ValueError):
        RandomPhenomenon("weighted-draw", u, (1,))
    with pytest.raises(ValueError):
        RandomPhenomenon("weighted-draw", u, (1, -1))
    with pytest.raises(ValueError):
        RandomPhenomenon("weighted-draw", u, (0, 0))
    with pytest.raises(ValueError):
        coin().sample(-1)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=5).filter(lambda w: sum(w) > 0),
    st.integers(0, 2**31),
)
def test_sampler_frequencies_track_the_law(weights, seed):
    ph = coin(tuple(weights), seed=seed)
    law = ph.underlying_law()
    table = run_frequency_experiment(ph, 10_000)
    report = compare_law(table, law)
    # 10 000 draws put every label within 0.05 of its probability with
    # overwhelming margin (sigma <= 0.005 per label).
    assert report.sup_distance <= Fraction(1, 20)


# --- frequency tables -------------------------------------------------------


def test_frequency_experiment_counts_match_history():
    ph = coin((3, 1), seed=11)
    table = run_frequency_experiment(ph, 60)
    assert table.n_draws == 60
    draws = ph.sample(60)
    for label in (1, 2):
        assert table.counts[label] == draws.count(label)


def test_empty_experiment_has_zero_frequencies():
    table = run_frequency_experiment(coin(), 0)
    assert table.counts == {1: 0, 2: 0}
    assert table.relative_frequency(1) == 0
    with pytest.raises(ValueError):
        run_frequency_experiment(coin(), -1)


def test_frequency_table_invariants():
    with pytest.raises(ValueError):
        FrequencyTable(3, {1: 2, 2: 2})
    with pytest.raises(ValueError):
        FrequencyTable(2, {1: -1, 2: 3})
    with pytest.raises(UniverseMismatch):
        FrequencyTable(1, {1: 1}).relative_frequency(2)


def test_frequency_table_from_draws():
    u = Universe((1, 2, 3))
    table = FrequencyTable.from_draws([1, 3, 1, 1, 2], u)
    assert table.n_draws == 5
    assert table.counts == {1: 3, 2: 1, 3: 1}
    assert table.relative_frequency(1) == Fraction(3, 5)
    assert table.structure_index == composition_rank((3, 1, 1))
    assert 0 <= table.structure_index < count_statistical_structures(5, 3)
    with pytest.raises(ForeignElement):
        FrequencyTable.from_draws([1, 9], u)
    with pytest.raises(ValueError):
        FrequencyTable(3, {1: 1, 2: 1})  # counts do not sum to n_draws


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(1, 5), st.integers(0, 2**31))
def test_random_draws_have_consistent_tables(n, q, seed):
    rng = random.Random(seed)
    u = Universe(tuple(range(1, q + 1)))
    draws = [rng.randint(1, q) for _ in range(n)]
    table = FrequencyTable.from_draws(draws, u)
    assert sum(table.counts.values()) == n
    assert 0 <= table.structure_index < count_statistical_structures(n, q)


# --- paintings as phenomena -------------------------------------------------


def test_probabilise_painting_weights_are_the_histogram(reference_painting):
    ph = probabilise_painting(reference_painting, seed=13)
    assert ph.procedure_id == "uniform-tile-draw"
    assert ph.universe.elements == (1, 2, 3)
    assert ph.weights == (60, 30, 10)
    assert ph.provenance.startswith("painting:")
    law = ph.underlying_law()
    assert law[1] == Fraction(3, 5)
    assert law[2] == Fraction(3, 10)
    assert law[3] == Fraction(1, 10)


def test_probabilise_painting_provenance_tracks_content(reference_painting):
    other = probabilise_painting(reference_painting, seed=99)
    assert other.provenance == probabilise_painting(reference_painting).provenance


def test_painting_law_holds_at_large_n(reference_painting):
    ph = probabilise_painting(reference_painting, seed=20260823)
    table = run_frequency_experiment(ph, 100_000)
    report = compare_law(table, ph.underlying_law())
    assert report.sup_distance <= Fraction(1, 100)


# --- factual spaces ---------------------------------------------------------


def test_factual_space_from_painting(reference_painting):
    space = factual_space_from_painting(reference_painting)
    assert space.universe.elements == (1, 2, 3)
    assert space.law[1] == Fraction(3, 5)
    assert len(space.algebra.events) == 8
    ph = probabilise_painting(reference_painting)
    assert ph.underlying_law().atom_probs == space.law.atom_probs


def test_factual_space_with_custom_generators(reference_painting):
    space = factual_space_from_painting(reference_painting, [{1, 2}])
    assert space.algebra.events == frozenset(
        {frozenset(), frozenset({1, 2}), frozenset({1, 2, 3})}
    )


def test_factual_space_rejects_invalid_law():
    universe = Universe((1, 2))
    algebra = generate_algebra(universe, [{1}])
    with pytest.raises(ValueError):
        FactualSpace(universe, algebra, Measure({1: Fraction(1, 2)}))
    with pytest.raises(ValueError):
        FactualSpace(
            universe, algebra, Measure({1: Fraction(1, 2), 2: Fraction(1, 4)})
        )


# --- divergence reports -----------------------------------------------------


def test_compare_law_is_exact_on_matching_table():
    law = Measure({1: Fraction(3, 5), 2: Fraction(2, 5)})
    table = FrequencyTable(10, {1: 6, 2: 4})
    report = compare_law(table, law)
    assert report.sup_distance == 0
    assert report.total_variation == 0
    assert report.per_label == {1: Fraction(0), 2: Fraction(0)}


def test_compare_law_on_empty_table_reports_the_law_itself():
    law = Measure({1: Fraction(3, 5), 2: Fraction(2, 5)})
    report = compare_law(FrequencyTable(0, {1: 0, 2: 0}), law)
    assert report.sup_distance == Fraction(3, 5)
    assert report.total_variation == Fraction(1, 2)


def test_compare_law_total_variation_halves_the_sum():
    law = Measure({1: Fraction(1, 2), 2: Fraction(1, 2)})
    table = FrequencyTable(4, {1: 3, 2: 1})
    report = compare_law(table, law)
    assert report.per_label == {1: Fraction(1, 4), 2: Fraction(1, 4)}
    assert report.sup_distance == Fraction(1, 4)
    assert report.total_variation == Fraction(1, 4)
    doc = report.to_doc()
    assert doc["sup_distance"] == "1/4"
    assert doc["total_variation_decimal"] == 0.25


def test_compare_law_universe_mismatch():
    law = Measure({1: Fraction(1)})
    with pytest.raises(UniverseMismatch):
        compare_law(FrequencyTable(1, {2: 1}), law)


def test_divergence_report_is_a_value():
    report = DivergenceReport(Fraction(1, 4), Fraction(1, 8), {1: Fraction(1, 4)})
    assert report.per_label[1] == Fraction(1, 4)
