"""Independent oracles the tests check the library against.

Everything here is computed by a different route than the implementation
under test: exact binomial tail sums for frequency-window probabilities, a
closed-form lattice construction for union/intersection closures, Fraction
sums for every event pair of a measure, explicit enumeration for composition
counts, the closed-form chi-square quantile for two degrees of freedom, a
plain per-event counter for the cover times that bound integration, and the
per-draw scale-and-bisect rule that label sampling must reproduce.
Keeping these in the test tree (and dumb on purpose) is what makes the
dual-route checks meaningful.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import ceil, comb, floor, log


def binomial_window_probability(
    n: int, p: Fraction, center: Fraction, epsilon: Fraction
) -> Fraction:
    """P(|X/n - center| <= epsilon) for X ~ Binomial(n, p), exactly.

    Sums the binomial terms for k in [ceil((center-eps)*n),
    floor((center+eps)*n)] with incremental integer arithmetic, so it stays
    fast for n around 10^4 while remaining exact.
    """
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    c = b - a
    lo = Fraction(center) - Fraction(epsilon)
    hi = Fraction(center) + Fraction(epsilon)
    kmin = max(0, ceil(lo * n))
    kmax = min(n, floor(hi * n))
    if kmin > kmax:
        return Fraction(0)
    if a == 0:
        return Fraction(1) if kmin == 0 else Fraction(0)
    if c == 0:
        return Fraction(1) if kmax == n else Fraction(0)
    # term_k = C(n,k) a^k c^(n-k); carry a^k c^(kmax-k) and divide by b^n last
    term = comb(n, kmin) * a**kmin * c ** (kmax - kmin)
    total = term
    for k in range(kmin, kmax):
        term = term * (n - k) * a // ((k + 1) * c)
        total += term
    return Fraction(total * c ** (n - kmax), b**n)


def binomial_window_probability_naive(
    n: int, p: Fraction, center: Fraction, epsilon: Fraction
) -> Fraction:
    """Same quantity by direct summation; slow, used to cross-check the fast one."""
    p = Fraction(p)
    total = Fraction(0)
    for k in range(n + 1):
        if abs(Fraction(k, n) - center) <= epsilon:
            total += comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


def closure_by_lattice(
    universe: tuple, generators: list[frozenset]
) -> frozenset[frozenset]:
    """Union/intersection closure via the distributive-lattice normal form.

    Every member of the closure of a finite family is a union of
    intersections of generators; so: take all intersections of non-empty
    generator subsets (plus the full set for the empty intersection), then
    all unions of subsets of those (the empty union giving the empty set).
    """
    full = frozenset(universe)
    gens = [frozenset(g) for g in generators]
    intersections = {full}
    for size in range(1, len(gens) + 1):
        for subset in combinations(gens, size):
            meet = full
            for g in subset:
                meet = meet & g
            intersections.add(meet)
    inter_list = list(intersections)
    closed = {frozenset()}
    for size in range(1, len(inter_list) + 1):
        for subset in combinations(inter_list, size):
            join = frozenset()
            for g in subset:
                join = join | g
            closed.add(join)
    closed.add(full)
    return frozenset(closed)


def closure_by_fixpoint(
    universe: tuple,
    generators: list[frozenset],
    include_complements: bool = False,
) -> frozenset[frozenset]:
    """Plain fixed-point closure; handles the opt-in complement case too."""
    full = frozenset(universe)
    family = {full, frozenset()} | {frozenset(g) for g in generators}
    while True:
        additions = set()
        members = list(family)
        for i, a in enumerate(members):
            for b in members[i:]:
                for candidate in (a | b, a & b):
                    if candidate not in family:
                        additions.add(candidate)
            if include_complements and (full - a) not in family:
                additions.add(full - a)
        if not additions:
            return frozenset(family)
        family |= additions


def measure_report_by_fractions(
    atom_probs: dict, universe: tuple, events: frozenset
) -> dict:
    """The measure-axiom report document, re-summing Fractions for every pair.

    Same checks, event order and detail strings as the library's
    ``validate_measure(...).to_doc()``, computed the slow direct way: every
    ordered pair (A, B) sums p(A), p(B) and p(A|B) from the atom weights.
    """
    probs = {k: Fraction(v) for k, v in atom_probs.items()}
    checks = []
    missing = [e for e in universe if e not in probs]
    extra = [e for e in probs if e not in universe]
    aligned = not missing and not extra
    mismatch = "" if aligned else f"missing={missing!r} extra={extra!r}"
    checks.append(("universe_match", aligned, mismatch))
    bad = {k: p for k, p in probs.items() if p < 0 or p > 1}
    checks.append(("range", not bad, f"out of [0,1]: {bad!r}" if bad else ""))
    total = sum(probs.values(), Fraction(0))
    checks.append(("norm", total == 1, "" if total == 1 else f"atoms sum to {total}"))
    if not aligned:
        checks.append(("subadditivity", False, "skipped: universe mismatch"))
        checks.append(("equality_iff_disjoint", False, "skipped: universe mismatch"))
    else:

        def p(event):
            return sum((probs[x] for x in event), Fraction(0))

        sub = (True, "")
        iff = (True, "")
        all_positive = all(v > 0 for v in probs.values())
        ordered = sorted(events, key=lambda e: (len(e), sorted(e, key=repr)))
        for a in ordered:
            for b in ordered:
                pa, pb, pu = p(a), p(b), p(a | b)
                names = f"A={sorted(a, key=repr)} B={sorted(b, key=repr)}"
                if pu > pa + pb:
                    sub = (False, f"p(A|B)={pu} > {pa + pb} for {names}")
                if all_positive and (pu == pa + pb) != (not (a & b)):
                    iff = (False, f"equality/disjointness mismatch for {names}")
        checks.append(("subadditivity",) + sub)
        if not all_positive:
            iff = (True, "skipped: zero-weight atoms make the criterion undecidable")
        checks.append(("equality_iff_disjoint",) + iff)
    return {
        "passed": all(passed for _, passed, _ in checks),
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
    }


def enumerate_compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0 terms."""
    if parts == 1:
        return [(total,)]
    result = []
    for first in range(total + 1):
        for rest in enumerate_compositions(total - first, parts - 1):
            result.append((first,) + rest)
    return result


def composition_rank_by_steps(counts) -> int:
    """Lexicographic rank of a count vector, one binomial per unit of count.

    Each entry ``c`` adds the vectors that share the prefix and hold
    ``0..c-1`` there, one binomial per value: the reference route for
    ``prob.composition_rank``, linear in the total.
    """
    rank = 0
    remaining = sum(counts)
    parts = len(counts)
    for i, c in enumerate(counts[:-1]):
        slots = parts - i - 1
        for v in range(c):
            rank += comb(remaining - v + slots - 1, slots - 1)
        remaining -= c
    return rank


def cover_times(stream, n_cells: int, k: int) -> list[int]:
    """The first event index (counting from 1) at which every one of
    ``n_cells`` distinct events has been seen at least 1, ..., ``k`` times.

    A plain counter over event values, with no geometry: the earliest a
    ``k``-replica integration of a form whose cells emit distinct events can
    close each replica.  Stops reading once all ``k`` times are known.
    """
    seen: dict = {}
    reached = [0] * (k + 1)  # reached[j]: distinct events seen at least j times
    times: list[int] = []
    for index, event in enumerate(stream, start=1):
        count = seen.get(event, 0) + 1
        seen[event] = count
        if count <= k:
            reached[count] += 1
            if reached[count] == n_cells:
                times.append(index)
                if count == k:
                    break
    return times


def reference_draws(labels, weights, n: int, seed: int) -> list:
    """``n`` weighted draws by the per-draw rule: scale each ``random()`` of
    ``random.Random(seed)`` by the total weight and bisect the running sums.
    """
    rng = random.Random(seed)
    cum: list[int] = []
    total = 0
    for w in weights:
        total += w
        cum.append(total)
    rnd = rng.random
    return [labels[bisect_right(cum, rnd() * total)] for _ in repeat(None, n)]


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def chi_square_quantile_df2(confidence: float) -> float:
    """Exact quantile of the chi-square distribution with 2 degrees of freedom."""
    return -2.0 * log(1.0 - confidence)


def chi_square_statistic(counts: dict, probs: dict, n: int) -> float:
    """Pearson statistic sum (observed - expected)^2 / expected."""
    stat = 0.0
    for label, p in probs.items():
        expected = float(p) * n
        observed = counts.get(label, 0)
        stat += (observed - expected) ** 2 / expected
    return stat
