"""Finite probability spaces with exact rational arithmetic.

Everything here is finite and exact: universes are finite tuples of labels,
event algebras are held as their blocks, never as a listed family, and
measures assign :class:`fractions.Fraction` weights to atoms.  Nothing here
draws at random; the experiments that do live beside their sampler, in
:mod:`factlaw.phenomenon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .serialize import fraction_to_str, read_collection

Label = Hashable


class ForeignElement(KeyError):
    """An event, a draw or a label names an element outside the universe."""


@dataclass(frozen=True)
class Universe:
    """A finite, duplicate-free tuple of outcome labels."""

    elements: tuple[Label, ...]

    def __post_init__(self) -> None:
        elements = read_collection(tuple, self.elements)
        if not elements:
            raise ValueError("universe must be non-empty")
        if len(read_collection(set, elements)) != len(elements):
            raise ValueError("universe has duplicate elements")
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element: object) -> bool:
        return element in self.elements


def _blocks(full: frozenset, family: Iterable[frozenset]) -> set[frozenset]:
    """The blocks of ``family`` inside ``full``: the block of an element x
    is ``full`` intersected with every member that holds x."""
    block = dict.fromkeys(full, full)
    for member in family:
        for x in member:
            block[x] &= member
    return set(block.values())


def _count_unions(blocks: list[frozenset]) -> int:
    """The number of distinct unions of ``blocks``: each misses the largest
    block left or holds it and every block inside it (memo and stack, no recursion)."""
    order = sorted(blocks, key=len, reverse=True)
    smallest = {x: i for i, block in enumerate(order) for x in block}  # smaller ones last
    inside = [sum(1 << j for j in {smallest[x] for x in block}) for block in order]
    every = (1 << len(order)) - 1
    memo, stack = {0: 1}, [every]
    while stack:
        left = stack[-1]
        top = (left & -left).bit_length() - 1  # the largest block left
        miss, hold = left & ~(1 << top), left & ~inside[top]
        todo = [k for k in {miss, hold} if k not in memo]
        stack += todo
        if not todo:
            memo[stack.pop()] = memo[miss] + memo[hold]
    return memo[every]


@dataclass(frozen=True)
class EventAlgebra:
    """A family of events over a universe, closed under union and intersection.

    Such a family is every union of its blocks, the smallest event around
    each element (Birkhoff, "Rings of sets", 1937), so only the blocks are
    stored.  ``event in algebra`` tests that the event is the union of the
    blocks inside it; :meth:`count` counts the events, :attr:`events` lists
    them.  Blocks that are not their own family's blocks raise ``ValueError``.
    """

    universe: Universe
    blocks: frozenset[frozenset]

    def __post_init__(self) -> None:
        try:
            blocks = frozenset(map(frozenset, self.blocks))
            own = _blocks(frozenset(self.universe.elements), blocks) == blocks
        except (AttributeError, TypeError, KeyError):  # no Universe, no sets, a foreign element
            own = False
        if not own:
            raise ValueError("blocks must be the blocks of their own family over a Universe")
        object.__setattr__(self, "blocks", blocks)

    def count(self) -> int:
        """The number of distinct unions of the blocks.

        Blocks that share no element are unrelated, so the blocks split into
        the components linked by overlap, and the count is the product of
        the components' counts (see :func:`_count_unions`).
        """
        root = {x: x for x in self.universe.elements}

        def find(x: Label) -> Label:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for block in self.blocks:
            first, *rest = map(find, block)
            for r in rest:
                root[r] = first
        components: dict[Label, list[frozenset]] = {}
        for block in self.blocks:
            components.setdefault(find(next(iter(block))), []).append(block)
        return math.prod(map(_count_unions, components.values()))

    def __len__(self) -> int:
        return self.count()

    def __contains__(self, event: object) -> bool:
        event = frozenset(event)  # type: ignore[arg-type]
        return event == frozenset().union(*(b for b in self.blocks if b <= event))

    @property
    def events(self) -> frozenset[frozenset]:
        """Every event, listed: :meth:`count` of them."""
        events = {frozenset()}
        for block in self.blocks:
            events |= {event | block for event in events}
        return frozenset(events)


def generate_algebra(
    universe: Universe, generators: Iterable[Iterable[Label]] = ()
) -> EventAlgebra:
    """Close ``generators`` under union and intersection over ``universe``.

    The result always contains the full universe and the empty event.  Pass
    each generator's complement too for the Boolean algebra they span.  Only
    the generators' blocks are built (see :class:`EventAlgebra`).
    """
    full = frozenset(universe.elements)
    family = [frozenset(gen) for gen in generators]
    for event in family:
        if not event <= full:
            raise ForeignElement(f"generator {sorted(event, key=repr)} leaves the universe")
    return EventAlgebra(universe, _blocks(full, family))


@dataclass(frozen=True)
class Measure:
    """Exact atom weights over a universe.

    The constructor only coerces weights to :class:`Fraction`; whether the
    weights actually form a probability law (range and normalization) is the
    job of :func:`validate_measure`, so that broken measures can be built on
    purpose and reported on.
    """

    atom_probs: Mapping[Label, Fraction]

    def __post_init__(self) -> None:
        coerced = {
            k: read_collection(Fraction, v)
            for k, v in read_collection(dict, self.atom_probs).items()
        }
        if not coerced:
            raise ValueError("measure needs at least one atom")
        object.__setattr__(self, "atom_probs", coerced)

    @classmethod
    def from_counts(cls, counts: Mapping[Label, int]) -> "Measure":
        """The law read off counts: each count over their total.

        The package's one count-to-law rule: every law read off counts goes
        through it.  Atoms keep the order of ``counts``, and a zero count
        stays as a 0-weight atom.  Raises ``ValueError`` on a count that is
        not an int (a bool is not one), a negative count or a zero total.
        """
        if any(type(n) is not int or n < 0 for n in counts.values()):
            raise ValueError("counts must be non-negative ints")
        total = sum(counts.values())
        if total == 0:
            raise ValueError("counts must have a positive total")
        return cls({label: Fraction(n, total) for label, n in counts.items()})

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(self.atom_probs)

    @property
    def total(self) -> Fraction:
        return sum(self.atom_probs.values(), Fraction(0))

    def __getitem__(self, label: Label) -> Fraction:
        try:
            return self.atom_probs[label]
        except KeyError:
            raise ForeignElement(label) from None

    def to_doc(self) -> dict:
        return {
            str(label): fraction_to_str(p)
            for label, p in self.atom_probs.items()
        }


def event_probability(measure: Measure, event: Iterable[Label]) -> Fraction:
    """Exact probability of ``event`` as the sum of its atom weights."""
    total = Fraction(0)
    for element in frozenset(event):
        total += measure[element]
    return total


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the measure axioms checked over a concrete algebra."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_doc(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def validate_measure(measure: Measure, algebra: EventAlgebra) -> ValidationReport:
    """Check the probability axioms for ``measure`` over ``algebra``.

    Four checks are reported: value range, normalization over the universe,
    subadditivity ``p(A or B) <= p(A) + p(B)`` for every ordered pair of
    events, and the sharper rule that equality holds exactly for disjoint
    pairs.  The equality-iff-disjoint check is decidable only when every
    atom has strictly positive weight; with zero- or negative-weight atoms
    present it is recorded as skipped (passed, with a note naming negative
    atoms if there are any, else zero ones) rather than guessed at.

    Atom weights add, so ``p(A|B) = p(A) + p(B) - p(A&B)``.  Subadditivity
    then fails for a pair exactly when ``p(A&B) < 0``, which needs a
    negative atom.  ``A&B`` is an event, so the last failing pair in event
    order is the universe and the last negative event: only then are the
    events listed, and scanned once.  With every atom positive,
    ``p(A&B) = 0`` exactly on disjoint pairs, so equality-iff-disjoint
    holds without a scan, and a measure with no negative atom visits no
    event.
    """
    checks: list[CheckResult] = []

    missing = [e for e in algebra.universe if e not in measure.atom_probs]
    extra = [e for e in measure.labels if e not in algebra.universe]
    aligned = not missing and not extra
    checks.append(
        CheckResult(
            "universe_match",
            aligned,
            "" if aligned else f"missing={missing!r} extra={extra!r}",
        )
    )

    bad_range = {
        k: p for k, p in measure.atom_probs.items() if p < 0 or p > 1
    }
    checks.append(
        CheckResult(
            "range",
            not bad_range,
            "" if not bad_range else f"out of [0,1]: {bad_range!r}",
        )
    )

    total = measure.total
    checks.append(
        CheckResult(
            "norm",
            total == 1,
            "" if total == 1 else f"atoms sum to {total}",
        )
    )

    if not aligned:
        checks.append(
            CheckResult("subadditivity", False, "skipped: universe mismatch")
        )
        checks.append(
            CheckResult("equality_iff_disjoint", False, "skipped: universe mismatch")
        )
        return ValidationReport(tuple(checks))

    sub_detail = ""
    if any(p < 0 for p in measure.atom_probs.values()):
        negative = [e for e in algebra.events if event_probability(measure, e) < 0]
        if negative:
            b = max(negative, key=lambda e: (len(e), sorted(e, key=repr)))
            sub_detail = (
                f"p(A|B)={total} > {total + event_probability(measure, b)}"
                f" for A={sorted(algebra.universe, key=repr)} B={sorted(b, key=repr)}"
            )
    checks.append(CheckResult("subadditivity", not sub_detail, sub_detail))
    if all(p > 0 for p in measure.atom_probs.values()):
        checks.append(CheckResult("equality_iff_disjoint", True))
    else:
        negative = any(p < 0 for p in measure.atom_probs.values())
        cause = "negative" if negative else "zero"
        checks.append(
            CheckResult(
                "equality_iff_disjoint",
                True,
                f"skipped: {cause}-weight atoms make the criterion undecidable",
            )
        )
    return ValidationReport(tuple(checks))
