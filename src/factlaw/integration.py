"""Semantic integration: recover a factual law from complexified events.

The forward direction (probabilisation) hides an integrated form behind a
stream of label draws.  This module walks the inverse direction: each draw
is *complexified* — enriched with a globally registered complexification
index and four edge signatures.  The :class:`HiddenForm` is the painting's
own grid seen through that complexified view: its cells are the
:class:`ComplexifiedEvent` values, row-major like the painting's tiles, and
the stream emits them as they are.  Its file is a painting's with other
columns: ``s_prime``, then ``labels``, ``rp`` and ``edges``, written and
read by the painting module's one grid codec.  :func:`integrate`, waiting
for ``k`` replicas, adds each distinct complexified event once, on its
first copy, to one nascent replica of the form: a set of events, with no
positions, and a count of the sides still waiting for a partner.  Later
copies are only counted.  When no side waits, the scan-line search the
border game uses lays the events out once, and they must tile exactly one
board; the ``j``-th replica closes once each event has been drawn ``j``
times.  Once enough replicas complete, per-label counting on the events
yields the law exactly, as rationals, with no appeal to limits: the time
ordering of the stream leaves no trace in the result.

The stream reads its random words in bulk, 1,024 per ``getrandbits`` call,
as :class:`~factlaw.phenomenon.RandomPhenomenon` does, and emits the events
a ``randrange`` loop would.  The integrator files the signatures events
show in one dict per side, so the per-event lookups build no keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Any, Iterable, Iterator, Mapping

from .painting import (
    BOUNDARY,
    OPPOSITE,
    Painting,
    PaintingSpec,
    UnsolvablePool,
    check_edge_coherence,
    check_grid,
    edge_tuple,
    generate_painting,
    grid_from_doc,
    grid_to_doc,
    interior_signature_multiset,
    label_histogram,
    scanline_layout,
)
from .phenomenon import (
    DivergenceReport,
    FrequencyTable,
    RandomPhenomenon,
    compare_law,
    run_frequency_experiment,
)
from .prob import Measure, Universe
from .seeding import derive_seed, word_chunk
from .serialize import read_int


class BudgetExhausted(RuntimeError):
    """max_events was consumed, or the stream ended, before enough replicas
    completed.  So ends a tampered stream whose replica never closes, since
    some side never meets its partner (see :func:`integrate`); the CLI
    refuses the form of such a stream first."""


class InconsistentReplicas(RuntimeError):
    """A new distinct event arrived after the first replica closed, so the
    confirmation replicas cannot match it: the stream is corrupt."""


class AmbiguousStream(RuntimeError):
    """Edges repeat: a form carries an interior signature on more than two
    sides, a new event showed a side and signature that an earlier event
    already showed, or the events of a replica that an event closed do not
    tile exactly one board.

    Refusing the stream is the true verdict: on an ambiguous form, a smaller
    rectangle can tile from the events seen so far before every cell has
    been drawn, so geometry alone cannot certify that the form is complete.
    """


@dataclass(frozen=True)
class ComplexifiedEvent:
    """A label event enriched until puzzle assembly becomes possible.

    ``label_r`` is the basin label the realization reached;
    ``complexification_r_prime`` is the globally registered index that keeps
    same-label events apart; ``edge_sigs`` carry the co-bordity structure.
    An event is hashed once, at construction, to the value a dataclass hash
    of its three fields gives, so dict and set order stay as they were.
    """

    label_r: int
    complexification_r_prime: int
    edge_sigs: tuple[str, str, str, str]

    def __post_init__(self) -> None:
        sigs = edge_tuple(self.edge_sigs)
        if sigs is not self.edge_sigs:  # a frozen field write costs ~100 ns
            object.__setattr__(self, "edge_sigs", sigs)
        label, index = self.label_r, self.complexification_r_prime
        if type(label) is not int or type(index) is not int:
            raise ValueError("labels and complexification indices must be ints")
        if label < 1 or index < 1:
            raise ValueError("labels and complexification indices start at 1")
        object.__setattr__(self, "_hash", hash((label, index, sigs)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class HiddenForm:
    """The integrated form the integrator never sees directly.

    A painting-shaped grid whose cells are the :class:`ComplexifiedEvent`
    each cell emits (label, complexification index, edge signatures),
    stored row-major from (1, 1) like a painting's columns: the cell at
    ``(x, y)`` is ``cells[(y - 1) * width + (x - 1)]``.  Unlike a
    painting, the form keeps one event object per cell, since its stream
    hands out those very objects.  Within the cloud of
    any one label, every complexification index is distinct; the index
    space ``s_prime`` must be at least ten times the largest label count,
    which operationalizes "complexification indices are drawn from a vastly
    larger space".
    """

    width: int
    height: int
    s_prime: int
    cells: tuple[ComplexifiedEvent, ...]

    def __post_init__(self) -> None:
        cells = self.cells
        check_grid(self.width, self.height, cells, ComplexifiedEvent, "cells")
        if type(self.s_prime) is not int:
            raise ValueError(f"s_prime must be an int, got {self.s_prime!r}")
        labels = sorted({c.label_r for c in cells})
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("labels must be exactly 1..s with every value present")
        counts = self.label_counts
        if self.s_prime < 10 * max(counts.values()):
            raise ValueError(
                "s_prime must be at least 10 x the largest label count"
            )
        per_label: dict[int, set[int]] = {}
        for c in cells:
            r_prime = c.complexification_r_prime
            if not 1 <= r_prime <= self.s_prime:
                raise ValueError(f"r_prime {r_prime} outside 1..{self.s_prime}")
            seen = per_label.setdefault(c.label_r, set())
            if r_prime in seen:
                raise ValueError(
                    f"complexification index {r_prime} repeats within"
                    f" label {c.label_r}'s cloud"
                )
            seen.add(r_prime)
        check_edge_coherence(self.width, self.height, [c.edge_sigs for c in cells])

    @property
    def label_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for c in self.cells:
            counts[c.label_r] = counts.get(c.label_r, 0) + 1
        return counts

    def normalized_histogram(self) -> dict[int, Fraction]:
        """The exact law a correct integration must recover."""
        return Measure.from_counts(dict(sorted(self.label_counts.items()))).atom_probs

    def to_doc(self) -> dict[str, Any]:
        """The grid file of the form: ``labels``, ``rp`` and ``edges``
        columns after ``s_prime``, as :func:`~factlaw.painting.grid_to_doc`
        writes them."""
        cells = self.cells
        columns = {
            "labels": [c.label_r for c in cells],
            "rp": [c.complexification_r_prime for c in cells],
        }
        size = ("s_prime", self.s_prime)
        edges = [c.edge_sigs for c in cells]
        return grid_to_doc(self.width, self.height, size, columns, edges)

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "HiddenForm":
        """Inverse of :meth:`to_doc`, by :func:`~factlaw.painting.grid_from_doc`."""
        width, height, s_prime, columns = grid_from_doc(
            doc, "s_prime", ("labels", "rp")
        )
        return cls(width, height, s_prime, tuple(map(_event_from_doc, *columns)))


def _event_from_doc(label: Any, rp: Any, edges: list) -> ComplexifiedEvent:
    return ComplexifiedEvent(
        read_int(label, "cell label"), read_int(rp, "cell rp"), edges
    )


def hidden_form_from_painting(painting: Painting, seed: int = 0) -> HiddenForm:
    """Assign complexification indices to a painting's tiles.

    The index space ``s_prime`` is the guardrail minimum, ten times the
    largest label count.  Indices are sampled without replacement within
    each label cloud from 1..s_prime, so the within-cloud uniqueness
    invariant holds by construction.
    """
    histogram = label_histogram(painting)
    s_prime = 10 * max(histogram.values())
    rng = random.Random(derive_seed(seed, "complexification"))
    index_pool = {
        j: rng.sample(range(1, s_prime + 1), k=histogram[j]) for j in histogram
    }
    used = {j: iter(pool) for j, pool in index_pool.items()}
    cells = tuple(
        ComplexifiedEvent(label, next(used[label]), edges)
        for label, edges in zip(painting.labels, painting.edges)
    )
    return HiddenForm(painting.width, painting.height, s_prime, cells)


def generate_hidden_form(spec: PaintingSpec) -> HiddenForm:
    painting = generate_painting(spec)
    return hidden_form_from_painting(painting, seed=derive_seed(spec.seed, "form"))


# --- the phenomenon side ----------------------------------------------------


def complexified_phenomenon(form: HiddenForm, seed: int = 0) -> Iterator[ComplexifiedEvent]:
    """Endless stream: pick a uniformly random cell and emit its stored event.

    Replica copies of a cell are the same frozen value, so the stream hands
    out the form's own events; no coordinates travel with them.  The
    events are those of a loop of ``cells[rng.randrange(len(cells))]`` on
    ``rng = random.Random(seed)``, but the words are read in bulk: one
    ``getrandbits(32 * 1024)`` per chunk, unpacked little-endian into 1,024
    32-bit words.  Each word ``w`` picks the cell
    ``w >> (32 - n.bit_length())`` of ``n`` cells, and a value ``>= n`` is
    skipped.  The CPython facts that make this exactly the ``randrange``
    loop for ``n < 2**32`` are in :mod:`factlaw.phenomenon`'s docstring.
    ``seed`` is read by :func:`~factlaw.serialize.read_int` at the call,
    before the first draw.
    """
    return _cell_stream(form.cells, read_int(seed, "seed"))


def _cell_stream(cells: tuple, seed: int) -> Iterator[ComplexifiedEvent]:
    rng = random.Random(seed)
    n = len(cells)
    shift = 32 - n.bit_length()
    while True:
        for word in word_chunk(rng):
            i = word >> shift
            if i < n:
                yield cells[i]


def label_projection(form: HiddenForm, seed: int = 0) -> RandomPhenomenon:
    """The bare-label shadow of the complexified stream, as a phenomenon."""
    counts = form.label_counts
    universe = Universe(tuple(sorted(counts)))
    return RandomPhenomenon(
        procedure_id="uniform-cell-draw",
        universe=universe,
        weights=tuple(counts[r] for r in universe.elements),
        seed=seed,
    )


# --- the integration side ---------------------------------------------------


@dataclass(frozen=True)
class IntegrationConfig:
    max_events: int = 1_000_000
    confirmation_replicas: int = 3

    def __post_init__(self) -> None:
        if not (type(self.max_events) is type(self.confirmation_replicas) is int):
            raise ValueError("max_events and confirmation_replicas must be ints")
        if self.confirmation_replicas < 1:
            raise ValueError("need at least one confirmation replica")
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass(frozen=True)
class IntegrationResult:
    """Counts and the recovered law, read off completed replicas.

    ``n_phi_total`` is the tile count of a completed replica;
    ``per_pair_counts`` counts each realized (label, complexification
    index) pair; ``per_label`` counts bare labels after the complexification
    index is dropped; ``total_labels`` is their grand total.  The law is
    ``per_label / total_labels`` as exact rationals.
    """

    n_phi_total: int
    per_pair_counts: Mapping[tuple[int, int], int]
    per_label: Mapping[int, int]
    total_labels: int
    law: Measure
    replicas_used_for_confirmation: int
    events_consumed: int
    completion_log: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_pair_counts", dict(self.per_pair_counts))
        object.__setattr__(self, "per_label", dict(self.per_label))
        if sum(self.per_label.values()) != self.total_labels:
            raise ValueError("per-label counts must sum to total_labels")
        if self.total_labels != self.n_phi_total:
            raise ValueError(
                "every cell carries exactly one label, so totals must agree"
            )

    def to_doc(self) -> dict[str, Any]:
        return {
            "n_phi_total": self.n_phi_total,
            "per_label": {str(r): n for r, n in sorted(self.per_label.items())},
            "pair_count": len(self.per_pair_counts),
            "total_labels": self.total_labels,
            "law": self.law.to_doc(),
            "law_decimal": {
                str(r): float(p) for r, p in sorted(self.law.atom_probs.items())
            },
            "replicas_used_for_confirmation": self.replicas_used_for_confirmation,
            "events_consumed": self.events_consumed,
            "completion_log": [list(entry) for entry in self.completion_log],
        }


class _Replicas:
    """The one nascent replica of a stream, waiting for ``k`` copies to close.

    ``ids`` maps each distinct event to its id, its index in ``events`` and
    ``copies``; an event gets one on its first copy.  ``shown`` holds one
    dict per side, N, E, S, W, that maps each non-boundary signature shown
    on that side to the number and the event that first showed it, so no
    lookup builds a ``(side, signature)`` key.  ``open`` counts the
    non-boundary sides of the joined events whose partner has not arrived,
    and ``drawn[j]``, for ``j < k``, the events drawn more than ``j``
    times.  ``completed`` lists the number of the event that closed each
    replica, in order.
    """

    def __init__(self, k: int):
        self.k = k
        self.ids: dict[ComplexifiedEvent, int] = {}
        self.events: list[ComplexifiedEvent] = []
        self.copies: list[int] = []
        self.shown: tuple[dict[str, tuple[int, ComplexifiedEvent]], ...] = (
            {}, {}, {}, {}
        )
        self.open = 0
        self.drawn = [0] * k
        self.completed: list[int] = []

    def add(self, event: ComplexifiedEvent, number: int) -> None:
        """Count the ``number``-th event of the stream: a new event joins
        the replica, one of its next ``k - 1`` copies raises ``drawn``, and
        a later copy does nothing.

        Replica ``j + 1`` closes when no side waits for a partner and
        ``drawn[j]`` reaches the number of events, after replica ``j``
        has."""
        i = self.ids.get(event)
        if i is None:
            for side, (sig, shown) in enumerate(zip(event.edge_sigs, self.shown)):
                if sig == BOUNDARY:
                    continue
                first, _ = shown.setdefault(sig, (number, event))
                if first != number:
                    raise AmbiguousStream(
                        f"event {number}: {'NESW'[side]} signature {sig}"
                        f" was first shown by event {first}; integration"
                        " needs unique edge signatures"
                    )
            self._join(event, number)
            return
        copies = self.copies[i]
        if copies == self.k:
            return
        self.copies[i] = copies + 1
        self.drawn[copies] += 1
        if not self.open and self.drawn[copies] == len(self.events):
            self.completed.append(number)

    def _join(self, event: ComplexifiedEvent, number: int) -> None:
        """Add a new event to the replica and shut each of its sides whose
        partner, the event that shows its signature on the facing side, has
        arrived.  When no side is left open, the first replica closes once
        the scan-line search lays the events out as exactly one full board;
        otherwise the event raises :class:`AmbiguousStream`.  A new event
        after that closure raises :class:`InconsistentReplicas`."""
        if self.completed:
            raise InconsistentReplicas(
                f"event {number}: a new event after event {self.completed[0]}"
                " closed replica 1, so the confirmation replicas cannot match"
            )
        self.ids[event] = len(self.events)
        self.events.append(event)
        self.copies.append(1)
        self.drawn[0] += 1
        shown = self.shown
        still_open = self.open + 4 - event.edge_sigs.count(BOUNDARY)
        for d, sig in enumerate(event.edge_sigs):
            if sig == BOUNDARY:
                continue
            _, partner = shown[OPPOSITE[d]].get(sig, (0, None))
            if partner is not None:
                # A pair shuts two sides; an event that is its own partner
                # meets this pair once from each side.
                still_open -= 1 if partner is event else 2
        self.open = still_open
        if still_open:
            return
        events = self.events
        try:
            width, height, _, _ = scanline_layout([e.edge_sigs for e in events])
        except UnsolvablePool:
            width = height = 0
        if width * height != len(events):
            raise AmbiguousStream(
                f"event {number}: closes a replica that tiles no single board;"
                " integration needs unique edge signatures"
            )
        self.completed.append(number)


def _counts(
    events: list[ComplexifiedEvent],
) -> tuple[int, dict[tuple[int, int], int], dict[int, int]]:
    pair_counts: dict[tuple[int, int], int] = {}
    label_counts: dict[int, int] = {}
    for event in events:
        pair = (event.label_r, event.complexification_r_prime)
        pair_counts[pair] = pair_counts.get(pair, 0) + 1
        label_counts[event.label_r] = label_counts.get(event.label_r, 0) + 1
    return len(events), pair_counts, label_counts


def check_integrable(form: HiddenForm) -> None:
    """Refuse a form on which an interior signature lies on more than one
    seam: there integration can close a smaller board and report a wrong
    law.  Raises :class:`AmbiguousStream` naming the first such signature."""
    counts = interior_signature_multiset(cell.edge_sigs for cell in form.cells)
    for sig, count in counts.items():
        if count > 2:
            raise AmbiguousStream(
                f"signature {sig!r} is on {count} sides; integration needs"
                " unique edge signatures"
            )


def integrate(
    stream: Iterable[ComplexifiedEvent],
    config: IntegrationConfig | None = None,
) -> IntegrationResult:
    """Join the stream's events into replicas of one form until enough
    close; count out the law.

    Each distinct event joins one nascent replica once, on its first copy;
    later copies are only counted.  A side of an event is shut once its
    partner, the event that shows its signature on the facing side, has
    joined.  With ``k = config.confirmation_replicas``, replica ``j``
    closes at the event by which no non-boundary side waits for a partner
    and every event has been drawn ``j`` times.  At the first closure the
    scan-line search (:func:`factlaw.painting.scanline_layout`) lays the
    events out once; unless they tile exactly one full board,
    :class:`AmbiguousStream` names the closing event.  It also names a new
    event that shows a non-boundary signature on the side where an earlier
    distinct event showed it.  A new distinct event after the first
    closure raises :class:`InconsistentReplicas`, since no confirmation
    replica can match it.  Consumes events until ``k`` replicas are
    complete, raising :class:`BudgetExhausted` if ``max_events`` (default
    1,000,000) or the stream's end comes first: so ends a tampered stream
    whose replica never closes, for example one with two sides of a cell
    swapped, or with a stray event whose side no event faces.  The CLI
    never sees one: :func:`check_integrable` and :class:`HiddenForm`'s
    coherence check refuse its form first.  Both ``max_events`` and
    ``events_consumed`` count every drawn event.  The joined events are
    counted once, for the law.  The result is exact: no frequencies, no
    limits, just counting on the reconstructed form.

    On a form whose cells emit distinct events, the replica's ``j``-th copy
    closes at the first event by which every cell has been drawn ``j``
    times: events consumed follow the ``k``-th cover time of the cells
    ("double Dixie cup" waiting time, Newman & Shepp 1960), whose mean
    :func:`expected_cover_time` gives exactly.  On a stream from one form
    no new event follows the first closure, so the confirmation replicas
    guard only against corrupt or mixed streams.

    Precondition: the stream comes from a form that passes
    :func:`check_integrable`, one whose interior signatures each lie on one
    seam.  The repeated-signature check cannot catch every form that breaks
    it: a smaller board can close, with a wrong law and no clash, before the
    cell that shares a signature is ever drawn.  On the strip
    ``PaintingSpec(3, 1, 2, {1: 1, 2: 2}, AMBIGUOUS_EDGES, 5)`` at ``k`` = 1,
    200 of stream seeds 0-299 are refused and the other 100 give a wrong
    law.  So :func:`end_to_end_check` and the ``integrate`` and
    ``end-to-end`` commands call :func:`check_integrable` on the form first.
    """
    if config is None:
        config = IntegrationConfig()
    needed = config.confirmation_replicas
    replicas = _Replicas(needed)
    events = 0
    for event in stream:
        if events >= config.max_events:
            raise BudgetExhausted(
                f"{config.max_events} events consumed,"
                f" {len(replicas.completed)} of {needed} replicas complete"
            )
        events += 1
        replicas.add(event, events)
        if len(replicas.completed) >= needed:
            break
    else:
        raise BudgetExhausted(
            f"stream ended with {len(replicas.completed)} of {needed}"
            " replicas complete"
        )
    n_total, pair_counts, label_counts = _counts(replicas.events)
    per_label = dict(sorted(label_counts.items()))
    return IntegrationResult(
        n_phi_total=n_total,
        per_pair_counts=pair_counts,
        per_label=per_label,
        total_labels=sum(per_label.values()),
        law=Measure.from_counts(per_label),
        replicas_used_for_confirmation=needed,
        events_consumed=events,
        completion_log=tuple(enumerate(replicas.completed)),
    )


def expected_cover_time(n_cells: int, k: int) -> Fraction:
    """The exact mean number of uniform draws from ``n_cells`` cells until
    every cell has been drawn ``k`` times: the mean events a ``k``-replica
    :func:`integrate` consumes on a form whose cells emit distinct events.

    Inclusion-exclusion over the cells still short of ``k`` draws, in the
    Poissonized form of Newman & Shepp (1960), with ``S(t) = sum_{i<k}
    t**i / i!``::

        E = N * sum_{j=1..N} (-1)**(j+1) * C(N, j) * int_0^inf (S(t) e**-t)**j dt

    and ``int_0^inf t**m e**(-j t) dt = m! / j**(m+1)``.  ``S`` is kept as
    the integer polynomial ``(k-1)! * S``, so each term is one fraction.
    The cost grows faster than ``N**2``: at ``k`` = 3, 0.02 s for ``N`` =
    100 and 13 s for ``N`` = 576 on a 2-core VM, most of it in adding the
    fractions.
    """
    if n_cells < 1 or k < 1:
        raise ValueError("need at least one cell and k >= 1")
    scale = factorial(k - 1)
    base = [scale // factorial(i) for i in range(k)]
    factorials = [1]
    for m in range(1, n_cells * (k - 1) + 1):
        factorials.append(factorials[-1] * m)
    power = [1]  # coefficients of ((k-1)! * S)**j, lowest degree first
    total = Fraction(0)
    for j in range(1, n_cells + 1):
        product = [0] * (len(power) + k - 1)
        for m, c in enumerate(power):
            for i, b in enumerate(base):
                product[m + i] += c * b
        power = product
        integral = 0  # sum of c_m * m! * j**(degree - m), by Horner's rule
        for m, c in enumerate(power):
            integral = integral * j + c * factorials[m]
        term = Fraction(comb(n_cells, j) * integral, j ** len(power) * scale**j)
        total += term if j % 2 else -term
    return n_cells * total


@dataclass(frozen=True)
class ComparisonReport:
    """Integrated law vs an independent frequency run on the label shadow."""

    law: Measure
    frequency_table: FrequencyTable
    divergence: DivergenceReport
    events_consumed: int

    @property
    def sup_distance(self) -> Fraction:
        return self.divergence.sup_distance

    def to_doc(self) -> dict[str, Any]:
        return {
            "law": self.law.to_doc(),
            "frequencies": {
                str(r): self.frequency_table.counts[r]
                for r in sorted(self.frequency_table.counts)
            },
            "n_draws": self.frequency_table.n_draws,
            "events_consumed": self.events_consumed,
            "divergence": self.divergence.to_doc(),
        }


def end_to_end_check(
    form: HiddenForm,
    n_freq: int,
    seed: int = 0,
    config: IntegrationConfig | None = None,
) -> ComparisonReport:
    """Integrate the law, then test it against an independent frequency run.

    The form must pass :func:`check_integrable`, else
    :class:`AmbiguousStream`.  The two runs use seeds derived from ``seed``
    with distinct tags, so the frequency experiment shares no randomness
    with the integration stream.
    """
    check_integrable(form)
    result = integrate(
        complexified_phenomenon(form, derive_seed(seed, "integration")), config
    )
    projection = label_projection(form, derive_seed(seed, "frequencies"))
    table = run_frequency_experiment(projection, n_freq)
    divergence = compare_law(table, result.law)
    return ComparisonReport(result.law, table, divergence, result.events_consumed)
