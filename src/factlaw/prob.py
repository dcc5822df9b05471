"""Finite probability spaces with exact rational arithmetic.

Everything here is finite and exact: universes are finite tuples of labels,
event algebras are explicit families of subsets validated for closure, and
measures assign :class:`fractions.Fraction` weights to atoms.  Floats only
appear at the very edge, as estimates of meta-probabilities obtained by
repeating frequency experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Protocol

from .seeding import derive_seed
from .serialize import fraction_to_str

Label = Hashable


class ForeignElement(KeyError):
    """An event mentions an element outside the measure's universe."""


class UnknownLabel(KeyError):
    """A label was requested that the sampler's universe does not contain."""


class NotReached(RuntimeError):
    """The doubling search hit its cap before meeting the target confidence."""


@dataclass(frozen=True)
class Universe:
    """A finite, duplicate-free tuple of outcome labels."""

    elements: tuple[Label, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("universe must be non-empty")
        if len(set(elements)) != len(elements):
            raise ValueError("universe has duplicate elements")
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element: object) -> bool:
        return element in self.elements


@dataclass(frozen=True)
class EventAlgebra:
    """A family of events over a universe, closed under union and intersection.

    The family always contains the full universe and the empty event.
    Closure (and membership of every event in the powerset) is validated at
    construction, once per unordered pair; universes here are small, so the
    quadratic check is cheap.
    """

    universe: Universe
    events: frozenset[frozenset]

    def __post_init__(self) -> None:
        events = frozenset(frozenset(e) for e in self.events)
        object.__setattr__(self, "events", events)
        full = frozenset(self.universe.elements)
        if full not in events or frozenset() not in events:
            raise ValueError("algebra must contain the universe and the empty event")
        for event in events:
            if not event <= full:
                raise ValueError(f"event {sorted(event, key=repr)} leaves the universe")
        ordered = list(events)
        for i, a in enumerate(ordered):
            for b in ordered[i:]:
                if a | b not in events or a & b not in events:
                    raise ValueError("algebra is not closed under union/intersection")

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event: object) -> bool:
        return frozenset(event) in self.events  # type: ignore[arg-type]


def generate_algebra(
    universe: Universe,
    generators: Iterable[Iterable[Label]] = (),
    *,
    include_complements: bool = False,
) -> EventAlgebra:
    """Close ``generators`` under union and intersection over ``universe``.

    The result always contains the full universe and the empty event.
    Complement closure is opt-in: with ``include_complements`` the closure
    also absorbs set differences from the full universe.
    """
    full = frozenset(universe.elements)
    events: set[frozenset] = {full, frozenset()}
    for gen in generators:
        event = frozenset(gen)
        if not event <= full:
            raise ForeignElement(
                f"generator {sorted(event, key=repr)} leaves the universe"
            )
        events.add(event)
    # Semi-naive closure: pairs of events known before a round were combined
    # in an earlier round, so each round only pairs its new events with all.
    fresh = set(events)
    while fresh:
        known = list(events)
        found: set[frozenset] = set()
        for a in fresh:
            found.update(a | b for b in known)
            found.update(a & b for b in known)
            if include_complements:
                found.add(full - a)
        fresh = found - events
        events |= fresh
    return EventAlgebra(universe, frozenset(events))


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
        coerced = {k: Fraction(v) for k, v in self.atom_probs.items()}
        if not coerced:
            raise ValueError("measure needs at least one atom")
        object.__setattr__(self, "atom_probs", coerced)

    @classmethod
    def from_counts(cls, counts: Mapping[Label, int]) -> "Measure":
        """The law read off counts: each count over their total.

        The package's one count-to-law rule: every law read off counts goes
        through it.  Atoms keep the order of ``counts``, and a zero count
        stays as a 0-weight atom.  Raises ``ValueError`` on a negative count
        or a zero total.
        """
        if any(n < 0 for n in counts.values()):
            raise ValueError("counts must be non-negative")
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
    atom has strictly positive weight; with zero-weight atoms present it is
    recorded as skipped (passed, with a note) rather than guessed at.

    The pair checks count in integers: every atom weight is put over the
    atoms' common denominator, one pass of E·|U| integer sums gives each of
    the E events its numerator, and each of the E² ordered pairs is then
    two dictionary lookups and integer compares.  A failing pair's detail
    names the last failing pair in event order.
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

    all_positive = all(p > 0 for p in measure.atom_probs.values())
    den = math.lcm(*(p.denominator for p in measure.atom_probs.values()))
    # Events become bit masks over the universe and carry integer numerators.
    bit = {label: 1 << i for i, label in enumerate(algebra.universe)}
    events = sorted(algebra.events, key=lambda e: (len(e), sorted(e, key=repr)))
    masks = [sum(bit[label] for label in event) for event in events]
    num = {
        label: p.numerator * (den // p.denominator)
        for label, p in measure.atom_probs.items()
    }
    weight = {
        mask: sum(num[label] for label in event)
        for mask, event in zip(masks, events)
    }
    sub_pair = iff_pair = None
    for a in masks:
        wa = weight[a]
        for b in masks:
            union = weight[a | b]
            both = wa + weight[b]
            if union > both:
                sub_pair = a, b
            if all_positive and (union == both) == bool(a & b):
                iff_pair = a, b

    event_of = dict(zip(masks, events))

    def named(pair: tuple[int, int]) -> str:
        a, b = (sorted(event_of[mask], key=repr) for mask in pair)
        return f"A={a} B={b}"

    sub_detail = iff_detail = ""
    if sub_pair is not None:
        a, b = sub_pair
        sub_detail = (
            f"p(A|B)={Fraction(weight[a | b], den)}"
            f" > {Fraction(weight[a] + weight[b], den)} for {named(sub_pair)}"
        )
    if iff_pair is not None:
        iff_detail = f"equality/disjointness mismatch for {named(iff_pair)}"
    checks.append(CheckResult("subadditivity", sub_pair is None, sub_detail))
    if all_positive:
        checks.append(
            CheckResult("equality_iff_disjoint", iff_pair is None, iff_detail)
        )
    else:
        checks.append(
            CheckResult(
                "equality_iff_disjoint",
                True,
                "skipped: zero-weight atoms make the criterion undecidable",
            )
        )
    return ValidationReport(tuple(checks))


# --- long-run frequency machinery ------------------------------------------


class LabelSampler(Protocol):
    """What the frequency experiments need from a random phenomenon."""

    @property
    def universe(self) -> Universe: ...

    def sample(self, n: int, seed: int | None = None) -> list: ...


def _window_success(
    sampler: LabelSampler,
    label: Label,
    target: Fraction,
    epsilon: Fraction,
    n_draws: int,
    seed: int,
) -> bool:
    """One repetition: does the relative frequency land within the window?"""
    count = sampler.sample(n_draws, seed=seed).count(label)
    return abs(Fraction(count, n_draws) - target) <= epsilon


def meta_probability(
    sampler: LabelSampler,
    label: Label,
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
    function of ``seed`` and ``r`` alone.
    """
    if label not in sampler.universe:
        raise UnknownLabel(label)
    if n_draws < 1 or repetitions < 1:
        raise ValueError("n_draws and repetitions must be positive")
    target_f = Fraction(target)
    epsilon_f = Fraction(epsilon)
    if epsilon_f <= 0:
        raise ValueError("epsilon must be positive")
    hits = sum(
        1
        for r in range(repetitions)
        if _window_success(
            sampler, label, target_f, epsilon_f, n_draws, derive_seed(seed, r)
        )
    )
    return hits / repetitions


def find_N0(
    sampler: LabelSampler,
    label: Label,
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
    gets its own derived seed.  Raises :class:`NotReached` (carrying the cap
    and the last estimate) if the cap is exceeded.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    if start < 1 or cap < start:
        raise ValueError("need 1 <= start <= cap")
    n_draws = start
    step = 0
    last = 0.0
    while n_draws <= cap:
        last = meta_probability(
            sampler,
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
