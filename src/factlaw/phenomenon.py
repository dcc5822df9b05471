"""Random phenomena as seeded samplers, and the draw-with-replacement game.

Probabilisation turns an integrated painting into a random phenomenon: draw
a tile uniformly at random, put it back, and emit only its approximate
colour label — coordinates and colour-form stay silent.  Long draw runs
produce frequency tables whose relative frequencies approach the exact
per-label ratios of the painting; those ratios, packaged with an event
algebra, form the painting's factual probability space.

The law-of-large-numbers experiments, :func:`meta_probability` and
:func:`find_N0`, repeat frequency experiments on a phenomenon.  Their
results, estimates of meta-probabilities, are floats; laws and tallies
stay exact.

A sampler's draws are a fixed function of its weights and seed.  Draw i
takes the i-th ``random()`` value x of ``random.Random(seed)`` and emits
the label whose running weight sum first exceeds ``fl(x * total)``, the
float product rounded as Python rounds it.  That product is monotone in x,
so the rule is a threshold rule: label j is passed over exactly when x is
at least ``cut_j``, the least float with ``running_j <= fl(cut_j * total)``.
Each cut is found once, by stepping from ``running_j / total`` to its
neighbouring floats until the comparison flips; Python compares an int with
a float exactly, so the cuts reproduce the per-draw rule with no rounding
slack.

The draws are not made one ``random()`` at a time.  ``sample`` reads the
words in bulk, one ``getrandbits(64 * k)`` per chunk of k <= 4,096 draws,
and settles each draw by byte tables built once beside the cuts.  The top
byte of x picks its label from a 256-entry row, unless a cut lies strictly
inside that byte's interval; then the next byte picks from that interval's
own 256-entry row; and only where a cut lies inside the 16-bit interval
too is x rebuilt from its eight bytes and bisected over the cuts.  This
rests on two facts of CPython's ``random``: ``random()`` is
``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53`` for its next two 32-bit
words w0 and w1, and ``getrandbits(64 * k)`` holds the same 2k words in
the same order, least significant first.  The tests compare ``sample``
with the ``random()`` loop of ``tests/oracles.py::reference_draws``, and
CI runs them under Python 3.10 to 3.13, so a change to either fact fails
there.  :func:`factlaw.integration.complexified_phenomenon` reads its
words the same way and rests on the second fact and a third: for
``n < 2**32``, ``randrange(n)`` takes one 32-bit word w per try and
returns the first ``w >> (32 - n.bit_length())`` below n; its tests
compare it with ``tests/oracles.py::reference_stream``.  The draw order
of a fragment pool, :func:`factlaw.puzzle._draw_order`, rests on the same
rule and a fourth fact: ``shuffle`` swaps ``x[i]`` with
``x[_randbelow(i + 1)]`` for ``i`` from ``len(x) - 1`` down to 1, and
``_randbelow(n)`` is the per-word rule of ``randrange(n)``.  Its tests
compare it with ``Random.shuffle`` itself, in
``tests/oracles.py::reference_draw_order``.

``tally`` counts the same draws per label and lists none; frequency
experiments use it.  A run is the span of whole top bytes that give one
label, and ``sample`` lists a chunk's labels through each top byte's run
number.  ``tally`` counts the runs instead, branch-free, in groups of
eight: one ``bytes.translate`` maps each top byte of run 8g + b to the
byte ``1 << b`` and every other byte to 0, ``int.from_bytes`` reads the
chunk as one int, and each run is the ``bit_count`` of its lane, that int
masked by bit b of every byte.  On a 2-core VM under Python 3.11, over
chunks never counted before, that costs about 3 ns per draw at q = 3 and
0.7 ns per run per draw with many runs, where one ``bytes.count`` per run
cost about 9.5 ns and 0.45-0.65 ns: its byte loop mispredicts its branch
where a run is common.  Only the draws whose top byte holds a cut are
settled one by one, by the same code as ``sample``.  There are at most q
runs, so the count is cheap where few labels are drawn, as in every
workload (q <= 3).  Where a hundred are, most top bytes hold a cut, and
counting costs more than listing: 170-250 ns a draw against 105-120 for
``sample`` at q = 100 with random weights.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .painting import Painting, label_histogram
from .prob import (
    EventAlgebra,
    ForeignElement,
    Measure,
    Universe,
    generate_algebra,
    validate_measure,
)
from .seeding import derive_seed
from .serialize import fraction_to_str, read_collection, read_int


class UniverseMismatch(Exception):
    """A frequency table and a law disagree about the label set."""


class NotReached(RuntimeError):
    """The doubling search hit its cap before meeting the target confidence."""


def _cut(running: int, total: int, scale: float) -> float:
    """The least float ``c`` with ``running <= c * scale``, ``scale = float(total)``.

    ``running / total`` is within a few ulps of it; the steps settle the
    rounding of the product exactly.
    """
    c = running / total
    while c * scale < running:
        c = math.nextafter(c, math.inf)
    below = math.nextafter(c, -math.inf)
    while running <= below * scale:
        c, below = below, math.nextafter(below, -math.inf)
    return c


_CHUNK = 4096  # draws per getrandbits call: 32 KiB of words, so peak memory stays flat
_EXACT = object()  # a table entry whose interval holds a cut strictly inside
# Bit b of every byte of a full chunk, for b in 0..7: the lanes of one run
# of a group of eight, once the run numbers are translated to one-hot bytes.
_LANES = tuple(int.from_bytes(bytes([1 << b]) * _CHUNK, "little") for b in range(8))


def _row(labels: Sequence, cuts: Sequence[float], base: int, scale: int) -> tuple:
    """The labels of the 256 intervals ``[(base + i) / scale, (base + i + 1) / scale)``.

    An interval with no cut strictly inside it gets the one label every x
    in it draws; an interval that holds a cut gets :data:`_EXACT`.  The row
    walks only the cuts inside its span, whose scaled values ``cut * scale``
    are exact, since ``scale`` is a power of two.
    """
    row: list = []
    j = bisect_right(cuts, base / scale)
    for k in range(j, bisect_left(cuts, (base + 256) / scale)):
        t = cuts[k] * scale
        i = int(t) - base
        row += [labels[j]] * (i - len(row))
        if t != int(t) and len(row) == i:
            row.append(_EXACT)
        j = k + 1
    row += [labels[j]] * (256 - len(row))
    return tuple(row)


@dataclass(frozen=True)
class RandomPhenomenon:
    """A reproducible sampling procedure paired with its outcome universe.

    The sampler draws universe elements with replacement according to the
    integer ``weights`` (one per universe element, in universe order), via a
    deterministic stream derived from ``seed``.  Each weight is read by
    :func:`~factlaw.serialize.read_int`, and the total must convert to a
    finite float, since the draw rule scales by it.  ``seed`` is read by
    ``read_int`` too, so no sampler draws from OS entropy.  Instances are
    plain frozen values; ``procedure_id`` is a non-empty ``str``.
    """

    procedure_id: str
    universe: Universe
    weights: tuple[int, ...]
    seed: int = 0
    _cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # The byte tables: a second row per top byte that holds a cut (else
    # None), the labels of the runs, each top byte's run number, or
    # len(_run_labels) for a byte that holds a cut, and per group of eight
    # runs, the group's labels beside the table that maps each top byte of
    # run 8g + b to the byte 1 << b, and every other top byte to 0.
    _rows: tuple = field(init=False, repr=False, compare=False)
    _run_labels: tuple = field(init=False, repr=False, compare=False)
    _runs: bytes = field(init=False, repr=False, compare=False)
    _one_hot: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.procedure_id, str) or not self.procedure_id:
            raise ValueError(f"procedure_id must be a non-empty str, got {self.procedure_id!r}")
        if not isinstance(self.universe, Universe):
            raise ValueError(f"universe must be a Universe, got {self.universe!r}")
        object.__setattr__(self, "seed", read_int(self.seed, "seed"))
        weights = tuple(read_int(w, "weight") for w in read_collection(tuple, self.weights))
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(self.universe):
            raise ValueError("need exactly one weight per universe element")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = sum(weights)
        if total == 0:
            raise ValueError("total weight must be positive")
        try:
            scale = float(total)
        except OverflowError:
            raise ValueError(
                f"total weight {total} does not convert to a finite float"
            ) from None
        cuts, running = [], 0
        for w in weights:
            running += w
            cuts.append(_cut(running, total, scale))
        labels = self.universe.elements
        top = _row(labels, cuts, 0, 256)
        object.__setattr__(self, "_cuts", tuple(cuts))
        object.__setattr__(self, "_rows", tuple(
            _row(labels, cuts, 256 * b, 65536) if label is _EXACT else None
            for b, label in enumerate(top)
        ))
        # A label's whole top bytes are consecutive, so each label owns at
        # most one run; with 256 runs no byte is left to hold a cut.
        run_labels = tuple(dict.fromkeys(label for label in top if label is not _EXACT))
        number = {label: r for r, label in enumerate(run_labels)}
        object.__setattr__(self, "_run_labels", run_labels)
        runs = bytes(len(run_labels) if label is _EXACT else number[label] for label in top)
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_one_hot", tuple(
            (run_labels[g : g + 8], bytes(
                1 << (r - g) if g <= r < min(g + 8, len(run_labels)) else 0 for r in runs
            ))
            for g in range(0, len(run_labels), 8)
        ))

    def sample(self, n: int, seed: int | None = None) -> list:
        """``n`` draws; an explicit ``seed`` overrides the stored one.

        Draw i is ``labels[bisect_right(cuts, x)]`` for the i-th
        ``random()`` value x, which equals the per-draw rule
        ``labels[bisect_right(running_sums, x * total)]`` exactly (see the
        module docstring).  The words are read in bulk, one
        ``getrandbits`` call per chunk of at most 4,096 draws, in the order
        ``random()`` reads them, and each draw is settled by the byte
        tables: its top byte; where that byte's interval holds a cut, its
        next byte; where that one holds a cut too, its float, rebuilt from
        its eight bytes by ``random()``'s 53-bit formula.  The tests hold
        this to the ``random()`` loop under Python 3.10 to 3.13.  ``n`` and
        an explicit ``seed`` are read by :func:`~factlaw.serialize.read_int`.
        """
        by_run = self._run_labels + (_EXACT,)
        draws: list = []
        for words, tops, runs in self._chunks(n, seed):
            chunk = [by_run[r] for r in runs]
            self._settle_cuts(words, tops, runs, chunk)
            draws += chunk
        return draws

    def tally(self, n: int, seed: int | None = None) -> dict:
        """The counts of the draws ``sample(n, seed)`` lists, without listing them.

        Returns one count per universe label, in universe order, zero for a
        label never drawn.  Each chunk is counted branch-free, per group of
        eight runs: its top bytes are translated to one-hot bytes, read as
        one int, and each run counted by the ``bit_count`` of its lane.
        Only the draws whose top byte holds a cut are settled one by one
        (see the module docstring).  ``n`` and an explicit ``seed`` are
        read by :func:`~factlaw.serialize.read_int`.
        """
        per_label: Counter = Counter()
        for words, tops, runs in self._chunks(n, seed):
            for labels, table in self._one_hot:
                v = int.from_bytes(tops.translate(table), "little")
                for label, lanes in zip(labels, _LANES):
                    per_label[label] += (v & lanes).bit_count()
            settled: dict = {}
            self._settle_cuts(words, tops, runs, settled)
            per_label.update(settled.values())
        return {label: per_label[label] for label in self.universe.elements}

    def _chunks(self, n: int, seed: int | None):
        """``(words, tops, runs)`` per chunk of at most 4,096 draws of the stream.

        ``words`` holds the chunk's 64-bit words, draw i's w0 and w1 in
        bytes 8i..8i+3 and 8i+4..8i+7; ``tops`` holds each draw's top byte
        and ``runs`` that byte's run number.
        """
        n = read_int(n, "n")
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = random.Random(self.seed if seed is None else read_int(seed, "seed"))
        for done in range(0, n, _CHUNK):
            k = min(_CHUNK, n - done)
            words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
            tops = words[3::8]
            yield words, tops, tops.translate(self._runs)

    def _settle_cuts(self, words: bytes, tops: bytes, runs: bytes, sink) -> None:
        """Set ``sink[i]`` to draw i's label for each draw of a chunk whose
        top byte holds a cut.

        The draw's next byte picks its label from that top byte's second
        row; where that interval holds a cut too, its float is rebuilt from
        its eight bytes by ``random()``'s 53-bit formula and bisected over
        the cuts.
        """
        cut = len(self._run_labels)
        if cut == 256:  # every top byte is a run of its own
            return
        find = runs.find
        i = find(cut)
        if i < 0:
            return
        labels, cuts, rows = self.universe.elements, self._cuts, self._rows
        nexts = words[2::8]
        while i >= 0:
            label = rows[tops[i]][nexts[i]]
            if label is _EXACT:
                v = int.from_bytes(words[8 * i : 8 * i + 8], "little")
                x = ((v & 0xFFFFFFFF) >> 5 << 26 | v >> 38) / 2**53
                label = labels[bisect_right(cuts, x)]
            sink[i] = label
            i = find(cut, i + 1)

    def underlying_law(self) -> Measure:
        """The exact distribution the sampler realizes (not an estimate)."""
        return Measure.from_counts(dict(zip(self.universe.elements, self.weights)))


@dataclass(frozen=True)
class FrequencyTable:
    """The tally of a finite draw run: one count per label, summing to ``n_draws``."""

    n_draws: int
    counts: Mapping[Any, int]

    def __post_init__(self) -> None:
        if type(self.n_draws) is not int:
            raise ValueError(f"n_draws must be an int, got {self.n_draws!r}")
        counts = read_collection(dict, self.counts)
        object.__setattr__(self, "counts", counts)
        if any(type(c) is not int or c < 0 for c in counts.values()):
            raise ValueError("counts must be non-negative ints")
        if sum(counts.values()) != self.n_draws:
            raise ValueError("counts must sum to n_draws")

    def relative_frequency(self, label) -> Fraction:
        if label not in self.counts:
            raise UniverseMismatch(f"label {label!r} not tracked by this table")
        if self.n_draws == 0:
            return Fraction(0)
        return Fraction(self.counts[label], self.n_draws)


def probabilise_painting(painting: Painting, seed: int = 0) -> RandomPhenomenon:
    """Turn a painting into the draw-with-replacement label phenomenon.

    The universe is the label set 1..q; each draw picks a uniformly random
    tile and emits only its approximate-colour label, which makes the label
    weights exactly the painting's per-label tile counts.
    """
    histogram = label_histogram(painting)
    universe = Universe(tuple(range(1, painting.palette_q + 1)))
    weights = tuple(histogram[j] for j in universe.elements)
    return RandomPhenomenon(
        procedure_id="uniform-tile-draw",
        universe=universe,
        weights=weights,
        seed=seed,
    )


def run_frequency_experiment(
    phenomenon: RandomPhenomenon, n_draws: int
) -> FrequencyTable:
    """Tabulate ``n_draws`` draws: one count for every universe label.

    The counts are those of ``phenomenon.sample(n_draws)``, taken by
    :meth:`RandomPhenomenon.tally`, which lists no draw.
    """
    n_draws = read_int(n_draws, "n_draws")
    return FrequencyTable(n_draws, phenomenon.tally(n_draws))


# --- long-run frequency experiments -----------------------------------------


def _read_fraction(value: Any, what: str) -> Fraction:
    """``Fraction(value)``, with any refusal raised as a ``ValueError`` naming ``what``."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{what} must be an exact number, got {value!r}") from None


def meta_probability(
    phenomenon: RandomPhenomenon,
    label: Any,
    target: Fraction | float | str,
    epsilon: Fraction | float | str,
    n_draws: int,
    repetitions: int,
    seed: int,
) -> float:
    """Estimate how often an N-draw relative frequency hugs its target.

    Runs ``repetitions`` independent frequency experiments of ``n_draws``
    draws each and returns the proportion whose relative frequency of
    ``label`` lies within ``epsilon`` of ``target``.  Each repetition r uses
    the child seed ``derive_seed(seed, r)``, so each repetition is a fixed
    function of ``seed`` and ``r`` alone.  ``n_draws``, ``repetitions`` and
    ``seed`` are read by :func:`~factlaw.serialize.read_int`.  A ``label``
    outside the universe raises :class:`~factlaw.prob.ForeignElement`.
    """
    n_draws = read_int(n_draws, "n_draws")
    repetitions = read_int(repetitions, "repetitions")
    seed = read_int(seed, "seed")
    if label not in phenomenon.universe:
        raise ForeignElement(label)
    if n_draws < 1 or repetitions < 1:
        raise ValueError("n_draws and repetitions must be positive")
    target_f = _read_fraction(target, "target")
    epsilon_f = _read_fraction(epsilon, "epsilon")
    if epsilon_f <= 0:
        raise ValueError("epsilon must be positive")
    # A repetition's count c lands in the window when |c / n - t| <= e, for
    # t = tn / td and e = en / ed; in integers, |c * td - tn * n| * ed <=
    # en * n * td.  Its draws come from ``sample``, which lists them.
    td, ed = target_f.denominator, epsilon_f.denominator
    centre = target_f.numerator * n_draws
    bound = epsilon_f.numerator * n_draws * td
    hits = sum(
        abs(phenomenon.sample(n_draws, derive_seed(seed, r)).count(label) * td - centre)
        * ed <= bound
        for r in range(repetitions)
    )
    return hits / repetitions


def find_N0(
    phenomenon: RandomPhenomenon,
    label: Any,
    target: Fraction | float | str,
    epsilon: Fraction | float | str,
    delta: float,
    repetitions: int,
    seed: int,
    *,
    start: int = 16,
    cap: int = 2**20,
) -> int:
    """Smallest tested draw count whose window meta-probability reaches 1 - delta.

    Doubles ``n_draws`` starting from ``start``; every rung of the ladder
    gets its own derived seed.  ``repetitions``, ``seed``, ``start`` and
    ``cap`` are read by :func:`~factlaw.serialize.read_int`.  Raises
    :class:`NotReached` (carrying the cap and the last estimate) if the cap
    is exceeded.
    """
    repetitions = read_int(repetitions, "repetitions")
    seed = read_int(seed, "seed")
    start = read_int(start, "start")
    cap = read_int(cap, "cap")
    try:
        inside = 0 < delta < 1
    except TypeError:  # "0.1", None: not a number
        inside = False
    if not inside:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta!r}")
    if start < 1 or cap < start:
        raise ValueError("need 1 <= start <= cap")
    n_draws = start
    step = 0
    last = 0.0
    while n_draws <= cap:
        last = meta_probability(
            phenomenon,
            label,
            target,
            epsilon,
            n_draws,
            repetitions,
            derive_seed(seed, f"rung{step}"),
        )
        if last >= 1 - delta:
            return n_draws
        n_draws *= 2
        step += 1
    raise NotReached(
        f"no draw count up to {cap} reached confidence {1 - delta}"
        f" (last estimate {last})"
    )


@dataclass(frozen=True)
class FactualSpace:
    """A concrete probability space read off an integrated object by counting;
    its universe is ``algebra.universe``."""

    algebra: EventAlgebra
    law: Measure

    def __post_init__(self) -> None:
        if not isinstance(self.algebra, EventAlgebra) or not isinstance(self.law, Measure):
            raise ValueError("need an EventAlgebra and a Measure")
        report = validate_measure(self.law, self.algebra)
        if not report.passed:
            failed = [c.name for c in report.checks if not c.passed]
            raise ValueError(f"law fails measure validation: {failed}")


def factual_space_from_painting(painting: Painting) -> FactualSpace:
    """The painting's factual probability space: law = tile counts / total.

    The algebra is the union/intersection closure of the singleton label
    events: q blocks, whose 2^q events are counted, never listed.
    """
    histogram = label_histogram(painting)
    universe = Universe(tuple(histogram))
    algebra = generate_algebra(universe, [{j} for j in universe.elements])
    return FactualSpace(algebra, Measure.from_counts(histogram))


@dataclass(frozen=True)
class DivergenceReport:
    """Distances between an empirical frequency table and an exact law."""

    sup_distance: Fraction
    total_variation: Fraction
    per_label: Mapping[Any, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_label", dict(self.per_label))

    def to_doc(self) -> dict[str, Any]:
        return {
            "sup_distance": fraction_to_str(self.sup_distance),
            "sup_distance_decimal": float(self.sup_distance),
            "total_variation": fraction_to_str(self.total_variation),
            "total_variation_decimal": float(self.total_variation),
            "per_label": {
                str(label): fraction_to_str(d) for label, d in self.per_label.items()
            },
        }


def compare_law(table: FrequencyTable, law: Measure) -> DivergenceReport:
    """Per-label |frequency - probability| gaps, their sup, and total variation.

    No thresholding happens here; callers decide what distance is close
    enough.  Raises :class:`UniverseMismatch` when the label sets differ.
    """
    if set(table.counts) != set(law.atom_probs):
        raise UniverseMismatch(
            f"table labels {sorted(table.counts, key=repr)} vs law labels"
            f" {sorted(law.atom_probs, key=repr)}"
        )
    per_label = {
        label: abs(table.relative_frequency(label) - law[label])
        for label in table.counts
    }
    sup = max(per_label.values())
    tv = sum(per_label.values(), Fraction(0)) / 2
    return DivergenceReport(sup, tv, per_label)
