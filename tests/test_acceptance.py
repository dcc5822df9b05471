"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints exactly one pass/fail line (straight to the real stdout,
past pytest's capture) and then asserts, so the printed verdict and the
pytest verdict always agree.  Tolerances and time budgets are part of the
checks themselves.
"""

import random
import time
from fractions import Fraction

import pytest

from factlaw import (
    FragmentPool,
    IntegrationConfig,
    Measure,
    PaintingSpec,
    RandomPhenomenon,
    Universe,
    complexified_phenomenon,
    compare_law,
    end_to_end_check,
    find_N0,
    generate_algebra,
    generate_hidden_form,
    generate_painting,
    integrate,
    label_histogram,
    meta_probability,
    painting_to_doc,
    probabilise_painting,
    run_frequency_experiment,
    solve_by_borders,
    solve_by_location,
    validate_measure,
)
from factlaw.painting import row_major_positions
from oracles import (
    binomial_window_probability,
    closure_by_fixpoint,
)

from conftest import REFERENCE_SPEC

REFERENCE_PAINTING = generate_painting(REFERENCE_SPEC)
REFERENCE_FORM = generate_hidden_form(REFERENCE_SPEC)


@pytest.fixture()
def conclude(capfd):
    """Print one visible pass/fail line per criterion, then assert it."""

    def _conclude(number, name, ok, detail, elapsed, budget):
        within_time = elapsed < budget
        verdict = "pass" if (ok and within_time) else "FAIL"
        with capfd.disabled():
            print(
                f"acceptance {number}/8 [{verdict}] {name}: {detail}"
                f" ({elapsed:.2f}s of {budget:.0f}s budget)",
                flush=True,
            )
        assert ok, f"{name}: {detail}"
        assert within_time, f"{name}: took {elapsed:.2f}s, budget {budget}s"

    return _conclude


def random_spec(rng, min_side, max_side, max_q):
    width = rng.randint(min_side, max_side)
    height = rng.randint(min_side, max_side)
    cells = width * height
    q = rng.randint(1, min(max_q, cells - 1))
    counts = {j: 1 for j in range(1, q + 1)}
    for _ in range(cells - q):
        counts[rng.randint(1, q)] += 1
    return PaintingSpec(width, height, q, counts, seed=rng.getrandbits(32))


def adjacency_graph(grid):
    """Undirected co-bordity edges between cell occupants of a coords->id map."""
    edges = set()
    for (x, y), here in grid.items():
        for nx, ny in ((x + 1, y), (x, y + 1)):
            there = grid.get((nx, ny))
            if there is not None:
                edges.add(frozenset((here, there)))
    return edges


def test_1_location_game_certainty(conclude):
    start = time.perf_counter()
    failures = []
    for seed in range(20):
        pool = FragmentPool.from_painting(REFERENCE_PAINTING, "location", seed=seed)
        report = solve_by_location(pool)
        if not (
            report.placements == 100
            and report.trials == 100
            and report.completed_replicas == 1
        ):
            failures.append(seed)
    elapsed = time.perf_counter() - start
    conclude(
        1,
        "location game places 100 fragments with certainty",
        not failures,
        f"{20 - len(failures)}/20 seeds at exactly 100 placements, 0 failed trials",
        elapsed,
        1.0,
    )


def test_2_border_game_fidelity(conclude):
    start = time.perf_counter()
    rng = random.Random(20260823)
    mismatches = 0
    for _ in range(50):
        spec = random_spec(rng, 2, 12, 6)
        painting = generate_painting(spec)
        pool = FragmentPool.from_painting(
            painting, "border", seed=rng.getrandbits(32)
        )
        (board,) = solve_by_borders(pool).boards
        doc = painting_to_doc(painting)
        positions = row_major_positions(doc["width"], doc["height"])
        source_grid = dict(zip(positions, doc["forms"]))
        recovered_grid = {
            pos: piece.payload.points["colour_form"]
            for pos, piece in board.cells.items()
        }
        label_of = {t.colour_form_id: t.approx_colour for t in painting.tiles}
        recovered_histogram = {}
        for form_id in recovered_grid.values():
            label = label_of[form_id]
            recovered_histogram[label] = recovered_histogram.get(label, 0) + 1
        if not (
            adjacency_graph(recovered_grid) == adjacency_graph(source_grid)
            and recovered_histogram == label_histogram(painting)
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    conclude(
        2,
        "border game rebuilds adjacency and histogram exactly",
        mismatches == 0,
        f"{50 - mismatches}/50 fuzzed paintings reconstructed faithfully",
        elapsed,
        30.0,
    )


def test_3_multi_replica_intermingling(conclude):
    start = time.perf_counter()
    structural_failures = 0
    late_finishers = 0
    for seed in range(20):
        pool = FragmentPool.from_painting(
            REFERENCE_PAINTING, "border", replicas=10, seed=seed
        )
        report = solve_by_borders(pool)
        if not (report.completed_replicas == 10 and report.placements == 1000):
            structural_failures += 1
            continue
        last_draw = report.completion_order[-1][1]
        if last_draw > 900:
            late_finishers += 1
    elapsed = time.perf_counter() - start
    conclude(
        3,
        "ten intermingled replicas all complete",
        structural_failures == 0 and late_finishers >= 15,
        f"20/20 seeds reached 10 boards at 1000 placements;"
        f" last completion past draw 900 in {late_finishers}/20 seeds"
        f" (threshold 15)",
        elapsed,
        5.0,
    )


def test_4_frequency_convergence(conclude):
    start = time.perf_counter()
    law = Measure({1: Fraction(3, 5), 2: Fraction(3, 10), 3: Fraction(1, 10)})
    hits = 0
    for seed in range(20):
        phenomenon = probabilise_painting(REFERENCE_PAINTING, seed=seed)
        table = run_frequency_experiment(phenomenon, 100_000)
        if compare_law(table, law).sup_distance <= Fraction(1, 100):
            hits += 1
    elapsed = time.perf_counter() - start
    conclude(
        4,
        "draw frequencies converge to the 60/30/10 law",
        hits >= 19,
        f"sup-distance <= 0.01 at N=100000 in {hits}/20 seeds (threshold 19)",
        elapsed,
        5.0,
    )


def test_5_lln_meta_probability(conclude):
    start = time.perf_counter()
    fair = RandomPhenomenon("weighted-draw", Universe((1, 2)), (1, 1), seed=0)
    oracle = float(
        binomial_window_probability(
            10_000, Fraction(1, 2), Fraction(1, 2), Fraction(1, 50)
        )
    )
    estimate = meta_probability(
        fair, 1, Fraction(1, 2), Fraction(1, 50), 10_000, 200, seed=5
    )
    n0 = find_N0(
        fair, 1, Fraction(1, 2), Fraction(1, 10), 0.05, 200, seed=6
    )
    elapsed = time.perf_counter() - start
    conclude(
        5,
        "meta-probability matches the exact window oracle",
        abs(estimate - oracle) <= 0.01 and n0 <= 512,
        f"estimate {estimate:.5f} vs oracle {oracle:.5f} (+/-0.01);"
        f" certified N0={n0} (<=512)",
        elapsed,
        10.0,
    )


def test_6_measure_and_algebra_axioms(conclude):
    start = time.perf_counter()
    rng = random.Random(42)
    bad_measures = 0
    bad_closures = 0
    measure_trials = 0
    closure_trials = 0
    for size in range(1, 6):
        elements = tuple(range(1, size + 1))
        universe = Universe(elements)
        singleton_algebra = generate_algebra(universe, [{e} for e in elements])
        for _ in range(30):
            measure_trials += 1
            weights = [rng.randint(1, 20) for _ in elements]
            total = sum(weights)
            measure = Measure(
                {e: Fraction(w, total) for e, w in zip(elements, weights)}
            )
            report = validate_measure(measure, singleton_algebra)
            exact_norm = sum(measure.atom_probs.values()) == 1
            if not (report.passed and exact_norm):
                bad_measures += 1
        for _ in range(40):
            closure_trials += 1
            generators = [
                frozenset(e for e in elements if rng.random() < 0.5)
                for _ in range(rng.randint(0, 3))
            ]
            include = rng.random() < 0.5
            complements = [frozenset(elements) - g for g in generators]
            ours = generate_algebra(
                universe, generators + (complements if include else [])
            ).events
            oracle = closure_by_fixpoint(
                elements, generators, include_complements=include
            )
            if ours != oracle:
                bad_closures += 1
    elapsed = time.perf_counter() - start
    conclude(
        6,
        "measure axioms and algebra closure hold exactly",
        bad_measures == 0 and bad_closures == 0,
        f"{measure_trials} randomized measures validated and"
        f" {closure_trials} closures equal the fixed-point oracle,"
        f" universes of size 1..5",
        elapsed,
        10.0,
    )


def test_7_semantic_integration_exactness(conclude):
    start = time.perf_counter()
    rng = random.Random(71)
    failures = 0
    for _ in range(50):
        spec = random_spec(rng, 2, 6, 4)
        form = generate_hidden_form(spec)
        result = integrate(
            complexified_phenomenon(form, seed=rng.getrandbits(32)),
            IntegrationConfig(confirmation_replicas=3),
        )
        law_ok = result.law.atom_probs == form.normalized_histogram()
        pair_sums = {}
        for (label, _), count in result.per_pair_counts.items():
            pair_sums[label] = pair_sums.get(label, 0) + count
        counts_ok = (
            pair_sums == result.per_label
            and sum(result.per_label.values()) == result.total_labels
            and result.total_labels == result.n_phi_total
            and result.n_phi_total == spec.width * spec.height
        )
        if not (law_ok and counts_ok and result.replicas_used_for_confirmation == 3):
            failures += 1
    elapsed = time.perf_counter() - start
    conclude(
        7,
        "integration recovers the exact law with agreeing replicas",
        failures == 0,
        f"{50 - failures}/50 fuzzed hidden forms integrated to exact"
        " rational laws with consistent counts",
        elapsed,
        60.0,
    )


def test_8_end_to_end_coherence(conclude):
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        report = end_to_end_check(REFERENCE_FORM, n_freq=100_000, seed=seed)
        if report.sup_distance <= Fraction(1, 100):
            hits += 1
    elapsed = time.perf_counter() - start
    conclude(
        8,
        "independent frequencies track the integrated law",
        hits >= 19,
        f"sup-distance <= 0.01 at N=100000 in {hits}/20 seeds (threshold 19)",
        elapsed,
        10.0,
    )
