import hashlib
import math
import random
import struct
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import frequency_table_from_draws, reference_draws

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


@pytest.mark.parametrize("n", [2.5, "2.5", "x", None, True, -1], ids=repr)
def test_draw_counts_are_read_by_the_integer_rule(n):
    ph = coin((1, 2), seed=4)
    with pytest.raises(ValueError):
        ph.sample(n)
    with pytest.raises(ValueError):
        ph.tally(n)
    with pytest.raises(ValueError):
        run_frequency_experiment(ph, n)


def test_draw_counts_accept_integral_floats_and_numeric_strings():
    ph = coin((1, 2), seed=4)
    assert ph.sample("3") == ph.sample(3.0) == ph.sample(3)
    assert ph.tally("3") == ph.tally(3)
    assert run_frequency_experiment(ph, 3.0).n_draws == 3


@pytest.mark.parametrize(
    "weights",
    [(2.5, 1), (True, 1), (1, float("inf")), ("x", 1), (10**400, 1), (2**1023, 2**1023)],
    ids=["fractional", "bool", "infinite", "text", "10**400", "2**1024"],
)
def test_sampler_rejects_non_integer_weights_and_totals_beyond_float(weights):
    with pytest.raises(ValueError):
        RandomPhenomenon("weighted-draw", Universe((1, 2)), weights)


def test_sampler_reads_weights_by_the_integer_rule():
    ph = coin((2.0, "3"))
    assert ph.weights == (2, 3)
    assert all(type(w) is int for w in ph.weights)
    # the largest total that still converts to a finite float
    biggest = RandomPhenomenon(
        "weighted-draw", Universe(("x",)), (int(sys.float_info.max),), seed=1
    )
    assert biggest.sample(3) == ["x", "x", "x"]


# --- the draw rule ----------------------------------------------------------


def test_sample_draws_are_pinned():
    # Captured from the per-draw rule before the threshold sampler replaced it.
    draws = coin((6, 3, 1), seed=5).sample(10_000)
    assert (
        hashlib.sha256(bytes(draws)).hexdigest()
        == "b012bc63dde83b9ebaef9e29d203d6bd2bbd34b589a86ff82804479122807648"
    )


CHUNK_EDGES = (4_095, 4_096, 4_097, 3 * 4_096 + 5)  # draws are read 4,096 at a time


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 2**80)),
            min_size=1,
            max_size=6,
        ),
        # Many labels put cuts in most top-byte buckets and some next-byte
        # ones, so both the second row and the exact float settle draws.
        st.lists(st.integers(0, 1_000), min_size=1, max_size=300),
    ).filter(lambda w: sum(w) > 0),
    st.one_of(st.integers(0, 300), st.sampled_from(CHUNK_EDGES)),
    st.integers(0, 2**32),
)
def test_sample_equals_the_per_draw_rule(weights, n, seed):
    labels = tuple(range(len(weights)))
    ph = RandomPhenomenon("weighted-draw", Universe(labels), tuple(weights), seed)
    assert ph.sample(n) == reference_draws(labels, weights, n, seed)


def tallied(labels, draws) -> dict:
    counts = Counter(draws)
    return {label: counts[label] for label in labels}


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 2**80)),
            min_size=1,
            max_size=6,
        ),
        # Many labels leave many runs and many top bytes that hold a cut, so
        # the run count and the settling of cut draws both carry weight.
        st.lists(st.integers(0, 1_000), min_size=1, max_size=300),
    ).filter(lambda w: sum(w) > 0),
    st.sampled_from((0, 1) + CHUNK_EDGES),
    st.integers(0, 2**32),
)
def test_tally_counts_the_per_draw_rule(weights, n, seed):
    labels = tuple(range(len(weights)))
    ph = RandomPhenomenon("weighted-draw", Universe(labels), tuple(weights), seed)
    counts = ph.tally(n)
    assert list(counts) == list(labels)
    assert counts == tallied(labels, reference_draws(labels, weights, n, seed))


@pytest.mark.parametrize(
    "weights", [(5,), (1,) * 128, (1,) * 256], ids=["q=1", "q=128", "q=256"]
)
def test_tally_when_no_top_byte_holds_a_cut(weights):
    # One label owns every top byte; or 128 or 256 labels of even weight own
    # two top bytes or one each.  No top byte holds a cut, and at q = 256 no
    # byte value is left to mark one, so every run number is a label's.
    labels = tuple(range(len(weights)))
    ph = RandomPhenomenon("weighted-draw", Universe(labels), weights, seed=9)
    for n in (0, 1, 4_097):
        draws = reference_draws(labels, weights, n, 9)
        assert ph.sample(n) == draws
        assert ph.tally(n) == tallied(labels, draws)


@pytest.mark.parametrize("q", [8, 9, 17])
def test_tally_at_the_edges_of_a_run_group(q):
    # tally counts runs in groups of eight, one one-hot bit each: 8 runs
    # fill one group, 9 and 17 open a group for one run.  4,097 draws end
    # in a chunk of one draw, whose int has no bytes past the first.
    labels = tuple(range(q))
    weights = (1,) * q
    ph = RandomPhenomenon("weighted-draw", Universe(labels), weights, seed=4)
    assert len(ph._run_labels) == q
    for n in (1, 4_097):
        assert ph.tally(n) == tallied(labels, reference_draws(labels, weights, n, 4))


def least_float_reaching(running: int, total: int) -> float:
    """The least float x >= 0 with ``running <= x * total``, by bisection
    over the bit patterns of the floats in [0, 2], which sort like their values.
    """

    def value(b: int) -> float:
        return struct.unpack("<d", struct.pack("<q", b))[0]

    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 2.0))[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if running <= value(mid) * total:
            hi = mid
        else:
            lo = mid + 1
    return value(lo)


@pytest.mark.parametrize(
    "total",
    [10, 20, 2**53 + 1, 10**17 + 7, 10**300],
    ids=["10", "20", "2**53+1", "10**17+7", "10**300"],
)
def test_sample_matches_the_per_draw_rule_at_every_cut(monkeypatch, total):
    third, seventh = total // 3, total // 7 + 1
    weights = (0, third, 0, seventh, total - third - seventh)
    labels = tuple("abcde")
    xs, running = [], 0
    for w in weights:
        running += w
        # random() returns m / 2**53 for an int m, so the only values it can
        # return near a cut are m = ceil(cut * 2**53) and its two neighbours.
        m = math.ceil(least_float_reaching(running, total) * 2**53)
        xs += [k / 2**53 for k in (m - 1, m, m + 1) if 0 <= k < 2**53]

    def words_of(x):
        # The two Mersenne Twister words random() reads for x: the top 27
        # and the next 26 bits of its 53, over junk bits it drops.
        m = int(x * 2**53)
        return (m >> 26) << 5 | 0b10101 | ((m & (2**26 - 1)) << 6 | 0b110011) << 32

    class Scripted:  # a random.Random that yields xs, by random() or by getrandbits()
        def __init__(self, seed=None):
            self.random = iter(xs).__next__
            self.xs = iter(xs)

        def getrandbits(self, k):
            words = [words_of(next(self.xs)) for _ in range(k // 64)]
            return sum(w << 64 * i for i, w in enumerate(words))

    monkeypatch.setattr(random, "Random", Scripted)
    ph = RandomPhenomenon("weighted-draw", Universe(labels), weights)
    draws = ph.sample(len(xs))
    assert draws == reference_draws(labels, weights, len(xs), seed=0)
    assert set(draws) == {"b", "d", "e"}
    assert ph.tally(len(xs)) == tallied(labels, draws)


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


@pytest.mark.parametrize("weights", [(3, 1), (1,) * 300], ids=["q=2", "q=300"])
def test_frequency_experiment_tallies_the_sampled_draws(weights):
    ph = coin(weights, seed=17)
    for n in (0, 5, 12_293):
        assert run_frequency_experiment(ph, n) == frequency_table_from_draws(
            ph.sample(n), ph.universe
        )


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
    table = frequency_table_from_draws([1, 3, 1, 1, 2], u)
    assert table.n_draws == 5
    assert table.counts == {1: 3, 2: 1, 3: 1}
    assert table.relative_frequency(1) == Fraction(3, 5)
    with pytest.raises(ForeignElement):
        frequency_table_from_draws([1, 9], u)
    with pytest.raises(ValueError):
        FrequencyTable(3, {1: 1, 2: 1})  # counts do not sum to n_draws


def test_from_draws_names_the_first_foreign_draw_and_keeps_universe_order():
    u = Universe((3, 1, 2))
    with pytest.raises(ForeignElement) as info:
        frequency_table_from_draws([1, "first", 2, "later", "later", "later"], u)
    assert info.value.args == ("first",)
    table = frequency_table_from_draws([2, 2, 3], u)
    assert list(table.counts.items()) == [(3, 1), (1, 0), (2, 2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(1, 5), st.integers(0, 2**31))
def test_random_draws_have_consistent_tables(n, q, seed):
    rng = random.Random(seed)
    u = Universe(tuple(range(1, q + 1)))
    draws = [rng.randint(1, q) for _ in range(n)]
    table = frequency_table_from_draws(draws, u)
    assert sum(table.counts.values()) == n


# --- paintings as phenomena -------------------------------------------------


def test_probabilise_painting_weights_are_the_histogram(reference_painting):
    ph = probabilise_painting(reference_painting, seed=13)
    assert ph.procedure_id == "uniform-tile-draw"
    assert ph.universe.elements == (1, 2, 3)
    assert ph.weights == (60, 30, 10)
    law = ph.underlying_law()
    assert law[1] == Fraction(3, 5)
    assert law[2] == Fraction(3, 10)
    assert law[3] == Fraction(1, 10)


def test_painting_law_holds_at_large_n(reference_painting):
    ph = probabilise_painting(reference_painting, seed=20260823)
    table = run_frequency_experiment(ph, 100_000)
    report = compare_law(table, ph.underlying_law())
    assert report.sup_distance <= Fraction(1, 100)


# --- factual spaces ---------------------------------------------------------


def test_factual_space_from_painting(reference_painting):
    space = factual_space_from_painting(reference_painting)
    assert space.algebra.universe.elements == (1, 2, 3)
    assert space.law[1] == Fraction(3, 5)
    assert len(space.algebra) == 8 and len(space.algebra.events) == 8
    ph = probabilise_painting(reference_painting)
    assert ph.underlying_law().atom_probs == space.law.atom_probs


def test_factual_space_rejects_invalid_law():
    universe = Universe((1, 2))
    algebra = generate_algebra(universe, [{1}])
    with pytest.raises(ValueError):
        FactualSpace(algebra, Measure({1: Fraction(1, 2)}))
    with pytest.raises(ValueError):
        FactualSpace(algebra, Measure({1: Fraction(1, 2), 2: Fraction(1, 4)}))


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
