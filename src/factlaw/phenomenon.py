"""Random phenomena as seeded samplers, and the draw-with-replacement game.

Probabilisation turns an integrated painting into a random phenomenon: draw
a tile uniformly at random, put it back, and emit only its approximate
colour label — coordinates and colour-form stay silent.  Long draw runs
produce frequency tables whose relative frequencies approach the exact
per-label ratios of the painting; those ratios, packaged with an event
algebra, form the painting's factual probability space.

A sampler's draws are a fixed function of its weights and seed.  Draw i
takes the i-th ``random()`` value x of ``random.Random(seed)`` and emits
the label whose running weight sum first exceeds ``fl(x * total)``, the
float product rounded as Python rounds it.  That product is monotone in x,
so the rule is a threshold rule: label j is passed over exactly when x is
at least ``cut_j``, the least float with ``running_j <= fl(cut_j * total)``.
Each cut is found once, by stepping from ``running_j / total`` to its
neighbouring floats until the comparison flips; Python compares an int with
a float exactly, so the cuts reproduce the per-draw rule with no rounding
slack, and a draw costs one bisection over the cuts.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat, starmap
from typing import Any, Mapping, Sequence

from .painting import Painting, label_histogram, painting_digest
from .prob import (
    EventAlgebra,
    ForeignElement,
    Measure,
    Universe,
    composition_rank,
    generate_algebra,
    validate_measure,
)
from .serialize import fraction_to_str, read_int


class UniverseMismatch(Exception):
    """A frequency table and a law disagree about the label set."""


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


@dataclass(frozen=True)
class RandomPhenomenon:
    """A reproducible sampling procedure paired with its outcome universe.

    The sampler draws universe elements with replacement according to the
    integer ``weights`` (one per universe element, in universe order), via a
    deterministic stream derived from ``seed``.  Each weight is read by
    :func:`~factlaw.serialize.read_int`, and the total must convert to a
    finite float, since the draw rule scales by it.  Instances are plain
    frozen values.
    """

    procedure_id: str
    universe: Universe
    weights: tuple[int, ...]
    seed: int = 0
    provenance: str = "none"
    _cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = tuple(read_int(w, "weight") for w in self.weights)
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
        object.__setattr__(self, "_cuts", tuple(cuts))

    def sample(self, n: int, seed: int | None = None) -> list:
        """``n`` draws; an explicit ``seed`` overrides the stored one.

        Draw i is ``labels[bisect_right(cuts, x)]`` for the i-th
        ``random()`` value x, which equals the per-draw rule
        ``labels[bisect_right(running_sums, x * total)]`` exactly (see the
        module docstring): one ``random()`` per draw, the same stream.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = random.Random(self.seed if seed is None else seed)
        labels, cuts = self.universe.elements, self._cuts
        return [
            labels[bisect_right(cuts, x)] for x in starmap(rng.random, repeat((), n))
        ]

    def underlying_law(self) -> Measure:
        """The exact distribution the sampler realizes (not an estimate)."""
        return Measure.from_counts(dict(zip(self.universe.elements, self.weights)))


@dataclass(frozen=True)
class FrequencyTable:
    """The tally of a finite draw run: one count per label, summing to ``n_draws``.

    The counts in table order form the run's statistical structure, the
    count vector it realized; :attr:`structure_index` names it by its rank
    among all count vectors of the same total.
    """

    n_draws: int
    counts: Mapping[Any, int]

    def __post_init__(self) -> None:
        counts = dict(self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts.values()):
            raise ValueError("counts must be non-negative")
        if sum(counts.values()) != self.n_draws:
            raise ValueError("counts must sum to n_draws")

    @classmethod
    def from_draws(cls, draws: Sequence, universe: Universe) -> "FrequencyTable":
        """Tally ``draws`` over ``universe``, zero-filled in universe order.

        Raises :class:`~factlaw.prob.ForeignElement` naming the first draw
        outside the universe.
        """
        counts = dict.fromkeys(universe, 0)
        for label, count in Counter(draws).items():  # first-seen order
            if label not in counts:
                raise ForeignElement(label)
            counts[label] = count
        return cls(len(draws), counts)

    @property
    def structure_index(self) -> int:
        """Lexicographic rank of the count vector among all with this total.

        Computed on each read, with two binomials per label.
        """
        return composition_rank(tuple(self.counts.values()))

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
        provenance=f"painting:{painting_digest(painting)}",
    )


def run_frequency_experiment(
    phenomenon: RandomPhenomenon, n_draws: int
) -> FrequencyTable:
    """Run ``n_draws`` draws and tabulate counts for every universe label."""
    return FrequencyTable.from_draws(phenomenon.sample(n_draws), phenomenon.universe)


@dataclass(frozen=True)
class FactualSpace:
    """A concrete probability space read off an integrated object by counting."""

    universe: Universe
    algebra: EventAlgebra
    law: Measure

    def __post_init__(self) -> None:
        report = validate_measure(self.law, self.algebra)
        if not report.passed:
            failed = [c.name for c in report.checks if not c.passed]
            raise ValueError(f"law fails measure validation: {failed}")


def factual_space_from_painting(
    painting: Painting,
    algebra_generators=None,
) -> FactualSpace:
    """The painting's factual probability space: law = tile counts / total.

    The algebra is generated from ``algebra_generators`` (default: all
    singleton label events) by union/intersection closure.
    """
    histogram = label_histogram(painting)
    universe = Universe(tuple(histogram))
    if algebra_generators is None:
        algebra_generators = [{j} for j in universe.elements]
    algebra = generate_algebra(universe, algebra_generators)
    return FactualSpace(universe, algebra, Measure.from_counts(histogram))


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
