"""Finite qualification views and relativized descriptions.

A *view* is a finite semantic filter: a bundle of aspects, each carrying a
finite set of admissible values, optionally completed by a grid frame that
locates entities in the plane.  A *description* is what an examination
through a view yields for one entity produced by one generator: a point
cloud mapping aspect ids to value ids, plus grid coordinates, an (x, y) pair
of ints, when a frame is present.  Nothing else is accepted as coordinates.

Views are blind to everything they do not contain.  Applying a view to an
entity keeps exactly those aspect/value pairs the view can express; if the
entity answers no aspect at all, the pairing generator/entity/view has no
mutual existence and :class:`NoMutualExistence` is raised.  A grid frame on
its own does not establish mutual existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping


class NoMutualExistence(Exception):
    """The examined entity answers no aspect of the view."""


class EmptyKeepSet(ValueError):
    """A view restriction would retain no aspects."""


class UnknownAspect(KeyError):
    """An aspect id was requested that the view does not contain."""


@dataclass(frozen=True)
class AspectView:
    """One semantic axis: an aspect id and its finite, ordered value set."""

    aspect_id: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.aspect_id, str) or not self.aspect_id:
            raise ValueError(
                f"aspect_id must be a non-empty str, got {self.aspect_id!r}"
            )
        try:
            values = tuple(self.values)
        except TypeError:
            values = ()
        if not values:
            raise ValueError(f"aspect {self.aspect_id!r} needs at least one value")
        if not all(isinstance(value, str) for value in values):
            raise ValueError(f"aspect {self.aspect_id!r} values must be strs")
        if len(set(values)) != len(values):
            raise ValueError(f"aspect {self.aspect_id!r} has duplicate values")
        object.__setattr__(self, "values", values)

    def admits(self, value: str) -> bool:
        return value in self.values


@dataclass(frozen=True)
class View:
    """A finite bundle of aspects, optionally with a spatial grid frame.

    ``grid_dims``, a (width, height) pair of positive ints, is the grid
    frame; ``None`` means the view has none.
    """

    aspects: tuple[AspectView, ...]
    grid_dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        # Aspects form a set; store them sorted by id so equal views compare
        # equal regardless of construction order.
        try:
            aspects = tuple(self.aspects)
        except TypeError:
            aspects = ()
        if not aspects:
            raise ValueError("a view needs at least one aspect")
        if not all(isinstance(a, AspectView) for a in aspects):
            raise ValueError(f"a view's aspects must be AspectViews, got {aspects!r}")
        aspects = tuple(sorted(aspects, key=lambda a: a.aspect_id))
        ids = [a.aspect_id for a in aspects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate aspect ids in view")
        object.__setattr__(self, "aspects", aspects)
        dims = self.grid_dims
        if dims is not None and not (_is_int_pair(dims) and min(dims) >= 1):
            raise ValueError(f"grid_dims must be a pair of positive ints, got {dims!r}")

    @property
    def has_grid_frame(self) -> bool:
        return self.grid_dims is not None

    @property
    def aspect_ids(self) -> tuple[str, ...]:
        return tuple(a.aspect_id for a in self.aspects)

    def aspect(self, aspect_id: str) -> AspectView:
        for a in self.aspects:
            if a.aspect_id == aspect_id:
                return a
        raise UnknownAspect(aspect_id)

    def __contains__(self, aspect_id: object) -> bool:
        return any(a.aspect_id == aspect_id for a in self.aspects)


def _is_int_pair(value: Any) -> bool:
    """Whether ``value`` is a tuple of exactly two ints (booleans are not)."""
    return type(value) is tuple and len(value) == 2 and (
        type(value[0]) is type(value[1]) is int
    )


@dataclass(frozen=True)
class Description:
    """The outcome of examining one entity of one generator through a view.

    ``points`` maps aspect ids to the value each aspect yielded; aspects the
    entity did not answer are simply absent.  ``grid_coords``, an (x, y)
    pair of ints, is set only when the producing view carried a grid frame.
    """

    generator_id: str
    entity_id: str
    points: Mapping[str, str]
    grid_coords: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        generator, entity = self.generator_id, self.entity_id
        if not (isinstance(generator, str) and generator) or not (
            isinstance(entity, str) and entity
        ):
            raise ValueError("generator_id and entity_id must be non-empty strs")
        try:
            object.__setattr__(self, "points", dict(self.points))
        except (TypeError, ValueError):
            raise ValueError(f"points must be a mapping, got {self.points!r}") from None
        coords = self.grid_coords
        if coords is not None and not _is_int_pair(coords):
            raise ValueError(f"grid_coords must be a pair of ints, got {coords!r}")


def apply_view(view: View, entity: Description) -> Description:
    """Re-examine ``entity`` through ``view``, keeping only what it can express.

    An aspect answers when the entity carries it *and* the carried value is
    among the view's admissible values; anything else is invisible to the
    filter.  Grid coordinates survive only if ``view`` has a grid frame.
    Raises :class:`NoMutualExistence` when no aspect answers: coordinates
    alone never establish mutual existence.
    """
    kept: dict[str, str] = {}
    for aspect in view.aspects:
        value = entity.points.get(aspect.aspect_id)
        if value is not None and aspect.admits(value):
            kept[aspect.aspect_id] = value
    if not kept:
        raise NoMutualExistence(
            f"entity {entity.entity_id!r} answers no aspect of the view"
        )
    coords = entity.grid_coords if view.has_grid_frame else None
    return Description(entity.generator_id, entity.entity_id, kept, coords)


def restrict_view(view: View, keep: Iterable[str]) -> View:
    """Return the sub-view of ``view`` retaining exactly the aspects in ``keep``.

    Aspect order is inherited from ``view``, and the grid frame is dropped.
    Raises :class:`EmptyKeepSet` for an empty keep set and
    :class:`UnknownAspect` for ids the view does not contain.
    """
    keep_set = set(keep)
    if not keep_set:
        raise EmptyKeepSet("view restriction must keep at least one aspect")
    missing = keep_set - set(view.aspect_ids)
    if missing:
        raise UnknownAspect(sorted(missing)[0])
    aspects = tuple(a for a in view.aspects if a.aspect_id in keep_set)
    return View(aspects)

