import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factlaw import (
    EventAlgebra,
    ForeignElement,
    Measure,
    NotReached,
    RandomPhenomenon,
    Universe,
    event_probability,
    find_N0,
    generate_algebra,
    meta_probability,
    validate_measure,
)
from oracles import (
    binomial_window_probability,
    binomial_window_probability_naive,
    closed_by_pairs,
    closure_by_fixpoint,
    closure_by_lattice,
    measure_report_by_fractions,
)


def test_oracle_agrees_with_naive_summation():
    # Trust in the fast oracle itself comes from the slow one.
    for n, p, c, eps in [
        (40, Fraction(1, 2), Fraction(1, 2), Fraction(1, 20)),
        (25, Fraction(3, 10), Fraction(3, 10), Fraction(1, 10)),
        (30, Fraction(2, 7), Fraction(1, 2), Fraction(1, 5)),
        (12, Fraction(1), Fraction(1), Fraction(1, 100)),
        (12, Fraction(0), Fraction(0), Fraction(1, 100)),
    ]:
        fast = binomial_window_probability(n, p, c, eps)
        slow = binomial_window_probability_naive(n, p, c, eps)
        assert fast == slow


# --- universes and algebras -------------------------------------------------


def test_universe_invariants():
    u = Universe((1, 2, 3))
    assert len(u) == 3 and 2 in u and 9 not in u
    with pytest.raises(ValueError):
        Universe(())
    with pytest.raises(ValueError):
        Universe((1, 1, 2))


def test_minimal_algebra():
    u = Universe((1, 2, 3))
    alg = generate_algebra(u)
    assert alg.events == frozenset({frozenset(), frozenset({1, 2, 3})})


def test_two_singleton_generators():
    u = Universe((1, 2, 3))
    alg = generate_algebra(u, [{1}, {2}])
    assert alg.events == frozenset(
        {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({1, 2, 3}),
        }
    )


def test_all_singletons_of_three():
    u = Universe((1, 2, 3))
    alg = generate_algebra(u, [{1}, {2}, {3}])
    assert len(alg.events) == 8


def test_algebra_rejects_foreign_generators_and_validates_closure():
    u = Universe((1, 2))
    with pytest.raises(ForeignElement):
        generate_algebra(u, [{3}])
    # A chain is closed even without complements: its blocks {1} and {1, 2}
    # are nested, so it counts 3 events, not 2^2.
    chain = frozenset({frozenset(), frozenset({1}), frozenset({1, 2})})
    alg = generate_algebra(u, chain)
    assert len(alg) == alg.count() == 3 and alg.events == chain
    assert EventAlgebra(u, alg.blocks) == alg
    # The chain itself is no family of blocks: the empty event is no block.
    with pytest.raises(ValueError):
        EventAlgebra(u, chain)
    with pytest.raises(ValueError):  # a block leaving the universe
        EventAlgebra(u, {frozenset({1, 3}), frozenset({1, 2})})


def test_complement_closure_is_opt_in():
    u = Universe((1, 2, 3))
    plain = generate_algebra(u, [{1}])
    assert {2, 3} not in plain and len(plain) == 3
    with_comp = generate_algebra(u, [{1}, {2, 3}])
    assert {2, 3} in with_comp and len(with_comp) == 4


def test_disjoint_nested_families_are_counted_one_family_at_a_time():
    # 40 pairs {2i} inside {2i, 2i+1}: each pair gives 3 choices, so 3^40
    # events.  Counted as one walk over all 80 blocks this takes about 2^40
    # steps; counted per family of overlapping blocks it is instant.
    k = 40
    gens = [g for i in range(k) for g in ({2 * i}, {2 * i, 2 * i + 1})]
    alg = generate_algebra(Universe(tuple(range(2 * k))), gens)
    start = time.perf_counter()
    assert alg.count() == 3**k
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_matches_both_oracles(data):
    size = data.draw(st.integers(1, 6), label="universe size")
    elements = tuple(range(1, size + 1))
    u = Universe(elements)
    n_gens = data.draw(st.integers(0, 3), label="generator count")
    gens = [
        frozenset(data.draw(st.sets(st.sampled_from(elements)), label=f"gen{i}"))
        for i in range(n_gens)
    ]
    alg = generate_algebra(u, gens)
    oracle = closure_by_lattice(elements, gens)
    assert alg.events == oracle
    assert alg.events == closure_by_fixpoint(elements, gens)
    assert_counts_and_holds(alg, elements, oracle)
    # Fixed point: re-closing with the algebra's own events changes nothing.
    assert generate_algebra(u, list(alg.events)).events == alg.events


def assert_counts_and_holds(alg, elements, oracle):
    # The count and the membership test agree with the listed oracle closure
    # on every subset of the universe.
    assert len(alg) == len(oracle)
    for size in range(len(elements) + 1):
        for subset in map(frozenset, itertools.combinations(elements, size)):
            assert (subset in alg) == (subset in oracle)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_complement_closure_matches_fixpoint_oracle(data):
    size = data.draw(st.integers(1, 5), label="universe size")
    elements = tuple(range(1, size + 1))
    gens = [
        frozenset(data.draw(st.sets(st.sampled_from(elements)), label=f"gen{i}"))
        for i in range(data.draw(st.integers(0, 2), label="gen count"))
    ]
    full = frozenset(elements)
    alg = generate_algebra(Universe(elements), gens + [full - g for g in gens])
    oracle = closure_by_fixpoint(elements, gens, include_complements=True)
    assert alg.events == oracle
    assert_counts_and_holds(alg, elements, oracle)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_verdict_matches_the_pairwise_oracle(data):
    # Any family over a universe of at most four elements that holds the
    # empty event and the universe: its closure adds nothing exactly when
    # it is closed.
    size = data.draw(st.integers(1, 4), label="universe size")
    elements = tuple(range(1, size + 1))
    subsets = st.frozensets(st.sampled_from(elements))
    family = data.draw(st.frozensets(subsets), label="family")
    family |= {frozenset(), frozenset(elements)}
    closed = len(generate_algebra(Universe(elements), family)) == len(family)
    assert closed == closed_by_pairs(family)


# --- measures ---------------------------------------------------------------


THREE_ATOMS = Measure({"a": Fraction(3, 5), "b": Fraction(3, 10), "c": Fraction(1, 10)})


def test_event_probabilities():
    u = Universe(("a", "b", "c"))
    assert event_probability(THREE_ATOMS, set()) == 0
    assert event_probability(THREE_ATOMS, {"a", "b", "c"}) == 1
    assert event_probability(THREE_ATOMS, {"a", "c"}) == Fraction(7, 10)
    with pytest.raises(ForeignElement):
        event_probability(THREE_ATOMS, {"z"})
    assert u  # silence unused warnings in older linters


def test_measure_from_counts_is_counts_over_their_total():
    law = Measure.from_counts({"c": 6, "a": 0, "b": 4})
    assert law.atom_probs == {"c": Fraction(3, 5), "a": 0, "b": Fraction(2, 5)}
    assert law.labels == ("c", "a", "b")  # order kept, zero count kept
    with pytest.raises(ValueError):
        Measure.from_counts({"a": 2, "b": -1})
    with pytest.raises(ValueError):
        Measure.from_counts({"a": 0, "b": 0})


def test_validate_measure_passes_on_clean_space():
    u = Universe(("a", "b", "c"))
    alg = generate_algebra(u, [{"a"}, {"b"}, {"c"}])
    report = validate_measure(THREE_ATOMS, alg)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "universe_match",
        "range",
        "norm",
        "subadditivity",
        "equality_iff_disjoint",
    ]


def test_validate_measure_reports_norm_failure():
    broken = Measure({"a": Fraction(3, 5), "b": Fraction(3, 10)})  # sums to 9/10
    alg = generate_algebra(Universe(("a", "b")), [{"a"}])
    report = validate_measure(broken, alg)
    assert not report.passed
    assert not report.check("norm").passed
    assert report.check("range").passed


def test_validate_measure_reports_range_failure():
    broken = Measure({"a": Fraction(3, 2), "b": Fraction(-1, 2)})
    alg = generate_algebra(Universe(("a", "b")), [{"a"}])
    report = validate_measure(broken, alg)
    assert not report.check("range").passed


def test_additivity_on_disjoint_events_is_exact():
    alg = generate_algebra(
        Universe(("a", "b", "c")), [{"a"}, {"b"}, {"c"}]
    )
    events = sorted(alg.events, key=lambda e: (len(e), sorted(e)))
    for a in events:
        for b in events:
            if not a & b:
                assert event_probability(THREE_ATOMS, a | b) == event_probability(
                    THREE_ATOMS, a
                ) + event_probability(THREE_ATOMS, b)


def test_equality_iff_disjoint_skipped_with_zero_atoms():
    alg = generate_algebra(Universe(("a", "b")), [{"a"}, {"b"}])
    for atoms, cause in [
        ({"a": Fraction(1), "b": Fraction(0)}, "zero"),
        ({"a": Fraction(3, 2), "b": Fraction(-1, 2)}, "negative"),
    ]:
        iff = validate_measure(Measure(atoms), alg).check("equality_iff_disjoint")
        assert iff.passed  # the iff check is marked skipped, not failed
        assert iff.detail == (
            f"skipped: {cause}-weight atoms make the criterion undecidable"
        )


def test_validate_measure_flags_universe_mismatch():
    alg = generate_algebra(Universe(("a", "b")), [{"a"}])
    report = validate_measure(THREE_ATOMS, alg)
    assert not report.passed
    assert not report.check("universe_match").passed


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validate_measure_matches_fraction_oracle(data):
    # Zero, negative, above-one and unnormalised weights, and now and then a
    # label the algebra's universe lacks, over generated algebras.
    size = data.draw(st.integers(1, 5), label="universe size")
    elements = tuple(range(1, size + 1))
    gens = [
        frozenset(data.draw(st.sets(st.sampled_from(elements)), label=f"gen{i}"))
        for i in range(data.draw(st.integers(0, 3), label="generator count"))
    ]
    algebra = generate_algebra(Universe(elements), gens)
    if data.draw(st.booleans(), label="a probability law"):
        counts = data.draw(
            st.lists(st.integers(0, 9), min_size=size, max_size=size)
            .filter(any),
            label="counts",
        )
        weights = [Fraction(c, sum(counts)) for c in counts]
    else:
        weights = data.draw(
            st.lists(
                st.fractions(-2, 2, max_denominator=12), min_size=size, max_size=size
            ),
            label="weights",
        )
    atoms = dict(zip(elements, weights))
    if data.draw(st.integers(0, 9), label="mismatch") == 0:
        atoms[size + 1] = Fraction(0)
    report = validate_measure(Measure(atoms), algebra)
    assert report.to_doc() == measure_report_by_fractions(
        atoms, elements, algebra.events
    )


# --- meta-probability and the N0 search -------------------------------------


def test_meta_probability_matches_binomial_oracle(fair_coin):
    # Window probability for a fair two-label draw at N=10^4, eps=1/50.
    oracle = binomial_window_probability(
        10_000, Fraction(1, 2), Fraction(1, 2), Fraction(1, 50)
    )
    assert abs(float(oracle) - 0.99994) < 1e-4
    estimate = meta_probability(
        fair_coin, 1, Fraction(1, 2), Fraction(1, 50), 10_000, 200, seed=42
    )
    assert abs(estimate - float(oracle)) <= 0.01
    assert estimate >= 0.999


def test_meta_probability_degenerate_phenomenon():
    constant = RandomPhenomenon("weighted-draw", Universe((1,)), (1,), seed=0)
    assert meta_probability(constant, 1, 1, Fraction(1, 100), 50, 20, seed=1) == 1.0


def test_meta_probability_wrong_center_is_near_zero(fair_coin):
    # Center shifted by five epsilons; the oracle probability is ~4e-58.
    oracle = binomial_window_probability(
        10_000, Fraction(1, 2), Fraction(3, 5), Fraction(1, 50)
    )
    assert float(oracle) < 1e-50
    estimate = meta_probability(
        fair_coin, 1, Fraction(3, 5), Fraction(1, 50), 10_000, 100, seed=7
    )
    assert estimate == 0.0


def test_meta_probability_monotone_trend_against_oracle(fair_coin):
    # The window probability grows with N; the Monte Carlo estimates track
    # the oracle within 3 sigma of their own Bernoulli noise.
    eps = Fraction(1, 20)
    lo_oracle = binomial_window_probability(64, Fraction(1, 2), Fraction(1, 2), eps)
    hi_oracle = binomial_window_probability(256, Fraction(1, 2), Fraction(1, 2), eps)
    assert hi_oracle > lo_oracle
    m = 300
    for n, oracle in [(64, lo_oracle), (256, hi_oracle)]:
        estimate = meta_probability(
            fair_coin, 1, Fraction(1, 2), eps, n, m, seed=13
        )
        sigma = math.sqrt(float(oracle) * (1 - float(oracle)) / m)
        assert abs(estimate - float(oracle)) <= 3 * sigma + 1e-12


@pytest.mark.parametrize("scale", [1, 2])
def test_meta_probability_and_find_n0_are_pinned(scale):
    # Fixed-seed results of the frequency experiments: a change in how the
    # draws are made or counted that moves any of them shows up here.  The
    # weights doubled describe the same law, and doubling is exact in binary
    # floating point, so both spellings must give the very same draws.
    weights = tuple(scale * w for w in (6, 3, 1))
    ph = RandomPhenomenon("weighted-draw", Universe((1, 2, 3)), weights)
    eps = Fraction(1, 100)
    assert [
        meta_probability(ph, 1, Fraction(3, 5), eps, 1000, 30, seed)
        for seed in (5, 18)
    ] == [14 / 30, 12 / 30]
    assert [
        find_N0(ph, 3, Fraction(1, 10), Fraction(1, 25), 0.1, 30, seed)
        for seed in (5, 17)
    ] == [256, 64]


@pytest.mark.parametrize("start", [16, 5])
def test_lln_functions_draw_their_budget_through_sample(monkeypatch, start):
    # The benchmark's tracer counts draws only where ``sample`` lists them,
    # and its find-n0 check counts repetitions * (2 * n0 - start) of them:
    # every rung of the doubling ladder draws its n once per repetition.
    drawn = []
    sample = RandomPhenomenon.sample

    def counted(self, n, seed=None):
        draws = sample(self, n, seed)
        drawn.append(len(draws))
        return draws

    monkeypatch.setattr(RandomPhenomenon, "sample", counted)
    ph = RandomPhenomenon("weighted-draw", Universe((1, 2, 3)), (6, 3, 1))
    meta_probability(ph, 1, Fraction(3, 5), Fraction(1, 100), 1000, 30, seed=5)
    assert sum(drawn) == 30 * 1000
    drawn.clear()
    n0 = find_N0(ph, 3, Fraction(1, 10), Fraction(1, 25), 0.1, 30, seed=5, start=start)
    assert n0 > start
    assert sum(drawn) == 30 * (2 * n0 - start)


def test_meta_probability_validates_inputs(fair_coin):
    with pytest.raises(ForeignElement):
        meta_probability(fair_coin, 9, Fraction(1, 2), Fraction(1, 50), 10, 5, seed=0)
    with pytest.raises(ValueError):
        meta_probability(fair_coin, 1, Fraction(1, 2), 0, 10, 5, seed=0)
    with pytest.raises(ValueError):
        meta_probability(fair_coin, 1, Fraction(1, 2), Fraction(1, 2), 0, 5, seed=0)
    # Counts and seeds are read as integers: 2.5 repetitions is not a
    # TypeError from range, and a seed of None or 2.5 is not hashed as text.
    half = Fraction(1, 2)
    for n_draws, repetitions, seed in [
        (10, 2.5, 0), (10.5, 5, 0), (True, 5, 0), (10, 5, None), (10, 5, 2.5)
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            meta_probability(fair_coin, 1, half, half, n_draws, repetitions, seed)
    for repetitions, seed, start, cap in [
        (2.5, 0, 16, 64), (5, None, 16, 64), (5, 2.5, 16, 64),
        (5, 0, 16.5, 64), (5, 0, 16, "many"),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            find_N0(fair_coin, 1, half, half, 0.1, repetitions, seed,
                    start=start, cap=cap)


def test_find_n0_certifies_within_chebyshev_bound(fair_coin):
    # Chebyshev: N >= p(1-p) / (eps^2 delta) = 500, so doubling from 16
    # must certify by 512.  The binomial oracle pins the exact rung: the
    # window probability first clears 0.95 at N=128.
    eps, delta = Fraction(1, 10), 0.05
    rung_probs = {
        n: float(
            binomial_window_probability(n, Fraction(1, 2), Fraction(1, 2), eps)
        )
        for n in (16, 32, 64, 128)
    }
    assert rung_probs[64] < 0.95 < rung_probs[128]
    n0 = find_N0(fair_coin, 1, Fraction(1, 2), eps, delta, 200, seed=43)
    assert n0 <= 512
    assert n0 == 128


def test_find_n0_vacuous_epsilon_returns_first_rung(fair_coin):
    assert find_N0(fair_coin, 1, Fraction(1, 2), 1, 0.05, 20, seed=1) == 16


def test_find_n0_wrong_target_never_certifies(fair_coin):
    with pytest.raises(NotReached):
        find_N0(
            fair_coin,
            1,
            Fraction(4, 5),  # off by 0.3
            Fraction(1, 20),
            0.05,
            20,
            seed=2,
            cap=2**12,
        )


def test_find_n0_validates_delta(fair_coin):
    with pytest.raises(ValueError):
        find_N0(fair_coin, 1, Fraction(1, 2), Fraction(1, 10), 0, 10, seed=0)
    with pytest.raises(ValueError):
        find_N0(fair_coin, 1, Fraction(1, 2), Fraction(1, 10), 1, 10, seed=0)
