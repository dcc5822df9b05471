"""Independent oracles the tests check the library against.

Everything here is computed by a different route than the implementation
under test: exact binomial tail sums for frequency-window probabilities, a
closed-form lattice construction for union/intersection closures, a
pair-by-pair closure check for families of events, Fraction
sums for every event pair of a measure, the closed-form chi-square quantile
for two degrees of freedom, a plain per-event counter for the cover times
that bound integration, a first-step Markov chain for their mean, the
per-draw scale-and-bisect rule that label sampling must reproduce, the
per-event ``randrange`` loop that the complexified stream must reproduce,
a per-draw tally that frequency experiments must agree with, the
scan-line search as it stood before the kinds were counted and chained
(per-kind index lists, candidate lists and cursors), and the
``Random.shuffle`` call that a pool's bulk draw order must reproduce.
Keeping these in the test tree (and dumb on purpose) is what makes the
dual-route checks meaningful.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, repeat
from math import ceil, comb, floor, log
from typing import Sequence

from factlaw import ForeignElement, FrequencyTable, UnsolvablePool
from factlaw.painting import BOUNDARY, E, N, S, W
from factlaw.seeding import derive_seed

_NO_ASSEMBLY = "no consistent assembly found"


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


def closed_by_pairs(events: frozenset[frozenset]) -> bool:
    """Whether a family is closed under union and intersection, checking
    ``a | b`` and ``a & b`` for every unordered pair of its members."""
    ordered = list(events)
    return all(
        a | b in events and a & b in events
        for i, a in enumerate(ordered)
        for b in ordered[i:]
    )


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
            cause = "negative" if any(v < 0 for v in probs.values()) else "zero"
            iff = (
                True, f"skipped: {cause}-weight atoms make the criterion undecidable"
            )
        checks.append(("equality_iff_disjoint",) + iff)
    return {
        "passed": all(passed for _, passed, _ in checks),
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
    }


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


def cover_time_by_chain(n_cells: int, k: int) -> Fraction:
    """The mean of the ``k``-th cover time by first-step analysis of a
    Markov chain, with no inclusion-exclusion.

    The state counts the cells seen 0, 1, ..., ``k - 1`` times (cells seen
    ``k`` times are done).  A draw hits a cell seen ``i`` times with
    probability ``a_i / N`` and moves it up one level, or hits a done cell
    and leaves the state as it is, so ``E(a) = (N + sum_i a_i E(a_i')) /
    sum_i a_i``, and ``E`` is 0 once every cell is done.
    """
    memo: dict[tuple[int, ...], Fraction] = {}

    def mean(state: tuple[int, ...]) -> Fraction:
        if state in memo:
            return memo[state]
        live = sum(state)
        if live == 0:
            return Fraction(0)
        total = Fraction(n_cells)
        for i, cells in enumerate(state):
            if cells:
                step = list(state)
                step[i] -= 1
                if i + 1 < k:
                    step[i + 1] += 1
                total += cells * mean(tuple(step))
        memo[state] = total / live
        return memo[state]

    return mean((n_cells,) + (0,) * (k - 1))


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


def reference_stream(cells, seed: int, n: int) -> list:
    """The first ``n`` events of a uniform cell stream: one
    ``randrange(len(cells))`` of ``random.Random(seed)`` per event.
    """
    rng = random.Random(seed)
    return [cells[rng.randrange(len(cells))] for _ in repeat(None, n)]


def reference_scanline_layout(
    sigs: Sequence[tuple[str, str, str, str]], trial_budget: int | None = None
) -> tuple[int, int, list[int], int]:
    """Lay pieces out on full boards from their (N, E, S, W) edge tuples
    alone: fill every cell of every board in raster order, backtracking on
    one stack.

    The boundary marks fix the layout: each board has one piece with
    boundary S and W edges, ``width`` pieces with a boundary S edge and
    ``height`` with a boundary W edge.  Cells are filled row by row from
    the bottom-left corner, board after board.  A cell takes a piece whose
    W and S edges equal its left and lower neighbours' E and N edges (the
    boundary mark on the left column and bottom row), and whose E and N
    edges are the boundary mark exactly on the right column and top row.
    Pieces with equal edge tuples are interchangeable, so one per tuple is
    tried; with unique signatures no cell has a second, so trials equal
    pieces.  The search numbers the distinct edge tuples (kinds) in the
    order they first appear and files each kind once, under its W and S
    edges and whether its E and N edges are boundary marks.  A cell keeps
    the shared list of candidate kinds for its position and a cursor into
    it, so resuming a cell after a backtrack tries the kinds after its last
    choice.  Backtracking crosses board boundaries, so an exhausted stack
    proves that no layout exists.  Raises :class:`UnsolvablePool` with
    "no consistent assembly found" when none exists, and with "trial budget
    N exhausted" when ``trial_budget`` runs out first; the default, 100 000
    plus the number of pieces, suffices whenever no backtracking is needed.

    Returns ``(width, height, placed, trials)``: ``placed`` holds the index
    into ``sigs`` of the piece on each cell, board after board, each board
    in the order of :func:`row_major_positions`; ``trials`` counts the
    pieces tried.  Interchangeable pieces go out in index order.
    """
    budget = trial_budget if trial_budget is not None else 100_000 + len(sigs)
    boards = sum(e[S] == BOUNDARY and e[W] == BOUNDARY for e in sigs)
    bottom = sum(e[S] == BOUNDARY for e in sigs)
    left = sum(e[W] == BOUNDARY for e in sigs)
    if not boards or bottom % boards or left % boards:
        raise UnsolvablePool(_NO_ASSEMBLY)
    width, height = bottom // boards, left // boards
    cells = boards * width * height
    if cells != len(sigs):
        raise UnsolvablePool(_NO_ASSEMBLY)

    # Indices of the pieces sharing each edge tuple, in index order; the
    # search knows each distinct tuple by its index here, its kind.
    groups: dict[tuple, list[int]] = {}
    for index, edges in enumerate(sigs):
        groups.setdefault(edges, []).append(index)
    stock = [len(group) for group in groups.values()]
    east = [edges[E] for edges in groups]
    north = [edges[N] for edges in groups]
    candidates: dict[tuple[str, str, bool, bool], list[int]] = {}
    for kind, edges in enumerate(groups):
        key = (edges[W], edges[S], edges[E] == BOUNDARY, edges[N] == BOUNDARY)
        candidates.setdefault(key, []).append(kind)

    area = width * height
    chosen: list[int] = []  # the kind set on each filled cell
    tried: list[Sequence[int]] = []  # each filled cell's candidates ...
    cursors: list[int] = []  # ... and the index of its chosen one
    options = candidates.get((BOUNDARY, BOUNDARY, width == 1, height == 1), ())
    at = 0
    trials = 0
    while True:
        while at < len(options) and not stock[options[at]]:
            at += 1
        if at == len(options):
            if not chosen:
                raise UnsolvablePool(_NO_ASSEMBLY)
            stock[chosen.pop()] += 1
            options, at = tried.pop(), cursors.pop() + 1
            continue
        trials += 1
        if trials > budget:
            raise UnsolvablePool(f"trial budget {budget} exhausted")
        kind = options[at]
        stock[kind] -= 1
        chosen.append(kind)
        cell = len(chosen)
        if cell == cells:
            break
        tried.append(options)
        cursors.append(at)
        place = cell % area  # the cell's index on its board
        x = place % width
        west = east[kind] if x else BOUNDARY
        south = north[chosen[cell - width]] if place >= width else BOUNDARY
        options = candidates.get(
            (west, south, x == width - 1, place >= area - width), ()
        )
        at = 0

    supply = [iter(group) for group in groups.values()]
    return width, height, [next(supply[kind]) for kind in chosen], trials


def reference_draw_order(cells: int, replicas: int, seed: int) -> list[int]:
    """A pool's draw order by ``Random.shuffle`` itself: ``replicas``
    copies of ``range(cells)`` shuffled by the pool's derived seed."""
    order = list(range(cells)) * replicas
    random.Random(derive_seed(seed, "draw-order")).shuffle(order)
    return order


def frequency_table_from_draws(draws, universe) -> FrequencyTable:
    """Tally ``draws`` over ``universe`` one draw at a time, zero-filled in
    universe order; the first draw outside the universe raises
    :class:`~factlaw.prob.ForeignElement` naming it.
    """
    counts = dict.fromkeys(universe, 0)
    for label in draws:
        if label not in counts:
            raise ForeignElement(label)
        counts[label] += 1
    return FrequencyTable(len(draws), counts)


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
