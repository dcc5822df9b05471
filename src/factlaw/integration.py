"""Semantic integration: recover a factual law from complexified events.

The forward direction (probabilisation) hides an integrated form behind a
stream of label draws.  This module walks the inverse direction: each draw
is *complexified* — enriched with a globally registered complexification
index and four edge signatures.  The :class:`HiddenForm` is the painting's
own grid seen through that complexified view: its cells are the
:class:`ComplexifiedEvent` values, row-major like the painting's tiles, and
the stream emits them as they are.  :func:`integrate`, waiting for ``k``
replicas, feeds the first ``k`` copies of each complexified event, one
piece per copy, straight into the puzzle module's
:class:`~factlaw.puzzle.BorderAssembler`, whose open patches are the
nascent replicas and whose closed boards are the completed ones.  Once
enough replicas complete, per-label counting on a completed replica yields
the law exactly, as rationals, with no appeal to limits: the time ordering
of the stream leaves no trace in the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Any, Iterable, Iterator, Mapping

from .painting import (
    BOUNDARY,
    Painting,
    PaintingSpec,
    check_edge_coherence,
    edges_from_doc,
    edges_to_doc,
    generate_painting,
    label_histogram,
    place_row_major,
)
from .phenomenon import (
    DivergenceReport,
    FrequencyTable,
    RandomPhenomenon,
    compare_law,
    run_frequency_experiment,
)
from .prob import Measure, Universe
from .puzzle import Board, BorderAssembler, InconsistentSignatures, Piece
from .seeding import derive_seed
from .serialize import read_int, sha256_of_doc


class BudgetExhausted(RuntimeError):
    """max_events was consumed before enough replicas completed."""


class InconsistentReplicas(RuntimeError):
    """Completed replicas disagree on counts — the stream is corrupt."""


class AmbiguousStream(RuntimeError):
    """Edges repeat: a new event showed a side and signature that an earlier
    event already showed, or an event clashed with the slot it matched.

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
    """

    label_r: int
    complexification_r_prime: int
    edge_sigs: tuple[str, str, str, str]

    def __post_init__(self) -> None:
        sigs = tuple(self.edge_sigs)
        if len(sigs) != 4:
            raise ValueError("edge_sigs must have exactly four entries (N, E, S, W)")
        object.__setattr__(self, "edge_sigs", sigs)
        if self.label_r < 1 or self.complexification_r_prime < 1:
            raise ValueError("labels and complexification indices start at 1")


@dataclass(frozen=True)
class HiddenForm:
    """The integrated form the integrator never sees directly.

    A painting-shaped grid whose cells are the :class:`ComplexifiedEvent`
    each cell emits (label, complexification index, edge signatures),
    stored row-major from (1, 1) like :attr:`Painting.tiles`: the cell at
    ``(x, y)`` is ``cells[(y - 1) * width + (x - 1)]``.  Within the cloud of
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
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if self.width < 1 or self.height < 1:
            raise ValueError("grid extents must be positive")
        if len(cells) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} cells, got {len(cells)}"
            )
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

    def cell_at(self, x: int, y: int) -> ComplexifiedEvent:
        return self.cells[(y - 1) * self.width + (x - 1)]

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
        return {
            "width": self.width,
            "height": self.height,
            "s_prime": self.s_prime,
            "cells": [
                {
                    "x": i % self.width + 1,
                    "y": i // self.width + 1,
                    "label": c.label_r,
                    "rp": c.complexification_r_prime,
                    "edges": edges_to_doc(c.edge_sigs),
                }
                for i, c in enumerate(self.cells)
            ],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "HiddenForm":
        width = read_int(doc["width"], "width")
        height = read_int(doc["height"], "height")
        placed = (
            (
                (read_int(e["x"], "cell x"), read_int(e["y"], "cell y")),
                ComplexifiedEvent(
                    read_int(e["label"], "cell label"),
                    read_int(e["rp"], "cell rp"),
                    edges_from_doc(e["edges"]),
                ),
            )
            for e in doc["cells"]
        )
        cells = place_row_major(width, height, placed, "cells")
        return cls(width, height, read_int(doc["s_prime"], "s_prime"), cells)


def form_digest(form: HiddenForm) -> str:
    return sha256_of_doc(form.to_doc())[:12]


def hidden_form_from_painting(
    painting: Painting, s_prime: int | None = None, seed: int = 0
) -> HiddenForm:
    """Assign complexification indices to a painting's tiles.

    Indices are sampled without replacement within each label cloud from
    1..s_prime, so the within-cloud uniqueness invariant holds by
    construction.  ``s_prime`` defaults to the guardrail minimum, ten times
    the largest label count.
    """
    histogram = label_histogram(painting)
    minimum = 10 * max(histogram.values())
    if s_prime is None:
        s_prime = minimum
    if s_prime < minimum:
        raise ValueError(f"s_prime must be at least {minimum}")
    rng = random.Random(derive_seed(seed, "complexification"))
    index_pool = {
        j: rng.sample(range(1, s_prime + 1), k=histogram[j]) for j in histogram
    }
    used = {j: iter(pool) for j, pool in index_pool.items()}
    cells = tuple(
        ComplexifiedEvent(t.approx_colour, next(used[t.approx_colour]), t.edge_sigs)
        for t in painting.tiles
    )
    return HiddenForm(painting.width, painting.height, s_prime, cells)


def generate_hidden_form(spec: PaintingSpec) -> HiddenForm:
    painting = generate_painting(spec)
    return hidden_form_from_painting(painting, seed=derive_seed(spec.seed, "form"))


# --- the phenomenon side ----------------------------------------------------


def complexified_phenomenon(form: HiddenForm, seed: int = 0) -> Iterator[ComplexifiedEvent]:
    """Endless stream: pick a uniformly random cell and emit its stored event.

    Replica copies of a cell are the same frozen value, so the stream hands
    out the form's own events; no coordinates travel with them.
    """
    rng = random.Random(seed)
    cells = form.cells
    while True:
        yield cells[rng.randrange(len(cells))]


def label_projection(form: HiddenForm, seed: int = 0) -> RandomPhenomenon:
    """The bare-label shadow of the complexified stream, as a phenomenon."""
    counts = form.label_counts
    universe = Universe(tuple(sorted(counts)))
    return RandomPhenomenon(
        procedure_id="uniform-cell-draw",
        universe=universe,
        weights=tuple(counts[r] for r in universe.elements),
        seed=seed,
        provenance=f"hidden_form:{form_digest(form)}",
    )


# --- the integration side ---------------------------------------------------


@dataclass(frozen=True)
class IntegrationConfig:
    max_events: int = 1_000_000
    confirmation_replicas: int = 3

    def __post_init__(self) -> None:
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


def _board_counts(board: Board) -> tuple[int, dict[tuple[int, int], int], dict[int, int]]:
    pair_counts: dict[tuple[int, int], int] = {}
    label_counts: dict[int, int] = {}
    for piece in board.cells.values():
        event: ComplexifiedEvent = piece.payload
        pair = (event.label_r, event.complexification_r_prime)
        pair_counts[pair] = pair_counts.get(pair, 0) + 1
        label_counts[event.label_r] = label_counts.get(event.label_r, 0) + 1
    return len(board.cells), pair_counts, label_counts


def integrate(
    stream: Iterable[ComplexifiedEvent],
    config: IntegrationConfig | None = None,
) -> IntegrationResult:
    """Assemble the stream until enough replicas complete; count out the law.

    With ``k = config.confirmation_replicas``, the first ``k`` copies of
    each distinct event go to one border assembler: a copy attaches to the
    oldest replica that wants one of its signatures, opens a fresh replica
    otherwise, and may bridge replicas into one.  Later copies are counted
    but not placed.  A new event that shows a non-boundary signature on the
    side where an earlier distinct event showed it, or whose signatures
    clash with its matched slot, raises :class:`AmbiguousStream` naming the
    event.  Consumes events until ``k`` replicas are complete (raising
    :class:`BudgetExhausted` if ``max_events`` arrives first).  Both
    ``max_events`` and ``events_consumed`` count every drawn event, placed
    or not.  The first completed replica supplies the counts; the remaining
    confirmation replicas must agree exactly, else
    :class:`InconsistentReplicas`.  The result is exact: no frequencies,
    no limits, just counting on the reconstructed form.

    On a form whose cells emit distinct events, the ``j``-th replica closes
    at the first event by which every cell has been drawn ``j`` times, the
    earliest it can: events consumed follow the ``k``-th cover time of the
    cells ("double Dixie cup" waiting time, Newman & Shepp 1960), whose
    mean :func:`expected_cover_time` gives exactly.  On a stream from one
    form the replicas agree by construction, so the confirmation replicas
    guard only against corrupt or mixed streams.

    So a copy beyond the ``k``-th cannot change the first ``k`` completions
    on such a form: the stream without those copies holds the same first
    ``k`` copies of each cell at the same draws, so its cover times up to
    ``k`` are the same, and with them the completions, ``events_consumed``
    and ``completion_log``.  The argument rests on the closing rule above
    holding for any order of draws; the tests check it on uniform streams
    and, by a digest of unique-form documents taken while every copy was
    still placed, on the filtered ones.

    Precondition: the stream comes from a form whose interior signatures
    each lie on one seam.  The repeated-signature check cannot catch every
    form that breaks it: a smaller board can close, with a wrong law and no
    clash, before the cell that shares a signature is ever drawn.  On the
    strip ``PaintingSpec(3, 1, 2, {1: 1, 2: 2}, AMBIGUOUS_EDGES, 5)`` at
    ``k`` = 1, 200 of stream seeds 0-299 are refused and the other 100 give
    a wrong law.  So the ``integrate`` and ``end-to-end`` commands check the
    form itself as well.
    """
    if config is None:
        config = IntegrationConfig()
    assembler = BorderAssembler()
    needed = config.confirmation_replicas
    copies: dict[ComplexifiedEvent, int] = {}
    first_shown: dict[tuple[int, str], int] = {}
    events = 0
    for event in stream:
        if events >= config.max_events:
            raise BudgetExhausted(
                f"{config.max_events} events consumed,"
                f" {len(assembler.completed)} of {needed} replicas complete"
            )
        events += 1
        placed = copies.get(event, 0)
        if placed == needed:
            continue
        copies[event] = placed + 1
        if not placed:
            for side, sig in enumerate(event.edge_sigs):
                if sig == BOUNDARY:
                    continue
                first = first_shown.setdefault((side, sig), events)
                if first != events:
                    raise AmbiguousStream(
                        f"event {events}: {'NESW'[side]} signature {sig}"
                        f" was first shown by event {first}; integration"
                        " needs unique edge signatures"
                    )
        try:
            assembler.add(Piece(event, event.edge_sigs), events)
        except InconsistentSignatures as exc:
            raise AmbiguousStream(
                f"event {events}: {exc}; integration needs"
                " unique edge signatures"
            ) from exc
        if len(assembler.completed) >= needed:
            break
    else:
        raise BudgetExhausted(
            f"stream ended with {len(assembler.completed)} of {needed}"
            " replicas complete"
        )
    finished = assembler.completed_boards()
    reference, _ = finished[0]
    n_total, pair_counts, label_counts = _board_counts(reference)
    for board, _ in finished[1:]:
        other = _board_counts(board)
        if other != (n_total, pair_counts, label_counts):
            raise InconsistentReplicas(
                "confirmation replicas disagree on counts"
            )
    per_label = dict(sorted(label_counts.items()))
    return IntegrationResult(
        n_phi_total=n_total,
        per_pair_counts=pair_counts,
        per_label=per_label,
        total_labels=sum(per_label.values()),
        law=Measure.from_counts(per_label),
        replicas_used_for_confirmation=needed,
        events_consumed=events,
        completion_log=tuple(enumerate(draw for _, draw in finished)),
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

    The two runs use seeds derived from ``seed`` with distinct tags, so the
    frequency experiment shares no randomness with the integration stream.
    """
    result = integrate(
        complexified_phenomenon(form, derive_seed(seed, "integration")), config
    )
    projection = label_projection(form, derive_seed(seed, "frequencies"))
    table = run_frequency_experiment(projection, n_freq)
    divergence = compare_law(table, result.law)
    return ComparisonReport(result.law, table, divergence, result.events_consumed)
