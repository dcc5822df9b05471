"""The three reconstruction games: by location, by borders, multi-replica.

A fragment is a painting's tile seen through one game's view, a
:class:`Description`: each game's view is its fragment format.  A pool
holds the fragments shuffled once, and each game reads them in that order
and places them on boards.  The games run on columns, not on objects: a
pool keeps its draw order as indices into its source cells, beside each
cell's coordinates or edge tuple, and a game's report is its layouts,
``AssemblyReport(placements, trials, width, height, layouts, pool)``: each
board as the draw indices of its pieces, row-major from (1, 1) like the
painting's columns.  A pool that :meth:`FragmentPool.from_painting` builds
reads the painting's columns directly, so a game on a painting builds no
object per cell: the pool's ``fragments`` are built when first read, and
the report's ``boards`` each time they are read.  In the location game
every fragment carries its coordinates, so placement is certain.  In the
border game coordinates are filtered out and only edge signatures guide
assembly: one scan-line search rebuilds the whole pool cell by cell,
backtracking where signatures repeat.  With several replicas of the
painting mixed into one pool, boards close only near the end of the
stream.  The search, :func:`factlaw.painting.scanline_layout`, is shared
with semantic integration, and the seam rule that checks a painting
(:func:`factlaw.painting.check_edge_coherence`) checks a finished board.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Mapping

from .painting import (
    Painting,
    check_edge_coherence,
    check_grid,
    check_grid_size,
    edge_tuple,
    row_major_positions,
    scanline_layout,
)
from .seeding import WORDS, derive_seed, word_chunk
from .serialize import read_collection, read_int

# The fragment format: the generator every fragment names, and the aspects
# the border game's view keeps (the colour form and the N, E, S, W edges).
GENERATOR_ID = "tile-extraction"
ASPECT_COLOUR_FORM = "colour_form"
ASPECT_EDGES = ("edge_n", "edge_e", "edge_s", "edge_w")


def _is_int_pair(value: Any) -> bool:
    """Whether ``value`` is a tuple of exactly two ints (booleans are not)."""
    return type(value) is tuple and len(value) == 2 and (
        type(value[0]) is type(value[1]) is int
    )


@dataclass(frozen=True)
class Description:
    """A fragment: one tile as one game's view keeps it.

    ``generator_id`` is :data:`GENERATOR_ID` and ``entity_id`` the tile's
    colour-form id.  A location fragment keeps the tile's place alone: empty
    ``points`` and ``grid_coords``, an (x, y) pair of ints.  A border
    fragment keeps no coordinates (``grid_coords`` is ``None``); its
    ``points`` map :data:`ASPECT_COLOUR_FORM` to the colour-form id and each
    of :data:`ASPECT_EDGES` to the tile's N, E, S or W edge signature.  The
    probability game keeps less still, the bare label, which
    :func:`factlaw.phenomenon.probabilise_painting` draws.  ``points`` is
    copied into a fresh dict, and coordinates that are not an int pair are
    refused.
    """

    generator_id: str
    entity_id: str
    points: Mapping[str, str]
    grid_coords: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        ids = (self.generator_id, self.entity_id)
        if not all(isinstance(name, str) and name for name in ids):
            raise ValueError("generator_id and entity_id must be non-empty strs")
        try:
            object.__setattr__(self, "points", dict(self.points))
        except (TypeError, ValueError):
            raise ValueError(f"points must be a mapping, got {self.points!r}") from None
        coords = self.grid_coords
        if coords is not None and not _is_int_pair(coords):
            raise ValueError(f"grid_coords must be a pair of ints, got {coords!r}")


class DuplicateCoordinates(Exception):
    """Two located fragments claim the same cell — corrupted pool."""


class InconsistentSignatures(Exception):
    """Signatures contradict: :meth:`Board.validate_edges` found a board
    that breaks the seam rule or mixes edged and edge-less pieces."""


@dataclass(frozen=True)
class Piece:
    """A placeable fragment: an opaque payload plus optional (N,E,S,W) edges."""

    payload: Any
    edges: tuple[str, str, str, str] | None = None

    def __post_init__(self) -> None:
        if self.edges is not None:
            edges = edge_tuple(self.edges)
            if edges is not self.edges:  # a frozen field write costs ~100 ns
                object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class Board:
    """A finished board: ``pieces`` fill a ``width`` x ``height`` grid
    row-major from (1, 1), like a painting's columns, so
    the piece at ``(x, y)`` is ``pieces[(y - 1) * width + (x - 1)]``."""

    width: int
    height: int
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        check_grid(self.width, self.height, self.pieces, Piece, "pieces")

    @property
    def cells(self) -> dict[tuple[int, int], Piece]:
        """A fresh ``(x, y) -> piece`` map of the board."""
        return dict(zip(row_major_positions(self.width, self.height), self.pieces))

    def validate_edges(self) -> None:
        """Check the board by the seam rule
        (:func:`factlaw.painting.check_edge_coherence`); a failed check or a
        mix of pieces with and without edges raises
        :class:`InconsistentSignatures`.  Edge-less pieces, as the location
        game places them, carry nothing to check."""
        edges = [piece.edges for piece in self.pieces]
        if edges.count(None) == len(edges):
            return
        if None in edges:
            raise InconsistentSignatures("pieces with and without edges")
        try:
            check_edge_coherence(self.width, self.height, edges)
        except ValueError as exc:
            raise InconsistentSignatures(str(exc)) from None


@dataclass(frozen=True)
class AssemblyReport:
    """What an assembly run did: counts, interleaving, finished boards.

    A report is its layouts: each finished ``width`` x ``height`` board as
    the draw indices into ``pool`` of its pieces, row-major, in the order
    the boards closed; a board closes with its last draw, whose 1-based
    index ``completion_order`` pairs with the board's.  ``boards`` builds
    the :class:`Board` objects each time it is read, each piece with the
    edge tuple its fragment carries, if any.  A field of the wrong kind, a
    layout that does not fill the grid, or more placements than trials
    raise ``ValueError``; the draws themselves are not checked.
    """

    placements: int
    trials: int
    width: int
    height: int
    layouts: tuple[tuple[int, ...], ...]
    pool: FragmentPool

    def __post_init__(self) -> None:
        counts = (self.placements, self.trials, self.width, self.height)
        if not all(type(count) is int for count in counts):
            raise ValueError(f"counts and extents must be ints, got {counts!r}")
        if not isinstance(self.pool, FragmentPool):
            raise ValueError(f"pool must be a FragmentPool, got {self.pool!r}")
        layouts = self.layouts
        if type(layouts) is not tuple or not all(type(draws) is tuple for draws in layouts):
            raise ValueError("layouts must be a tuple of tuples")
        for layout in layouts:
            check_grid_size(self.width, self.height, len(layout), "draws")
        if self.placements > self.trials:
            raise ValueError("placements cannot exceed trials")

    @property
    def completed_replicas(self) -> int:
        return len(self.layouts)

    @property
    def completion_order(self) -> tuple[tuple[int, int], ...]:
        return tuple((index, max(layout) + 1) for index, layout in enumerate(self.layouts))

    @property
    def boards(self) -> tuple[Board, ...]:
        pool = self.pool
        fragments, order, edges = pool.fragments, pool._order, pool._edges
        return tuple(
            Board(self.width, self.height, tuple(
                Piece(fragments[draw], None if edges is None else edges[order[draw]])
                for draw in layout
            ))
            for layout in self.layouts
        )

    def to_doc(self) -> dict[str, Any]:
        return {
            "placements": self.placements,
            "trials": self.trials,
            "completed_replicas": self.completed_replicas,
            "completion_order": [list(entry) for entry in self.completion_order],
            "board_sizes": [
                {"width": self.width, "height": self.height, "pieces": len(layout)}
                for layout in self.layouts
            ],
        }


@dataclass(frozen=True)
class FragmentPool:
    """The ballot box for the no-replacement games: an immutable tuple of
    fragments, shuffled once by ``seed``.  A fragment that is not a
    :class:`Description`, or a seed that is not an integer, raises
    ``ValueError``.

    Each game reads the pool in that shuffled order, as columns: the draw
    order, a list of indices into the pool's source cells, and each source
    cell's coordinates and edge tuple.  A pool built from fragments reads
    each of them once into those columns, its source cells in the order
    given, and keeps them, shuffled, as ``fragments``.  A pool that
    :meth:`from_painting` builds takes its columns from the painting's and
    builds ``fragments``, one :class:`Description` per cell that every
    replica shares, only when they are first read; its coordinates are
    the row-major positions of the painting's grid, which the location
    game lays a full board out by.
    """

    fragments: tuple[Description, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        described = read_collection(list, self.fragments)
        if not all(isinstance(fragment, Description) for fragment in described):
            raise ValueError("a pool holds Descriptions only")
        seed = read_int(self.seed, "pool seed")
        order = _draw_order(len(described), 1, seed)
        _set_fields(
            self,
            fragments=tuple(map(described.__getitem__, order)),
            seed=seed,
            _order=order,
            _coords=[fragment.grid_coords for fragment in described],
            _edges=list(map(_edges_or_none, described)),
            _grid=None,
        )

    @classmethod
    def from_painting(
        cls, painting: Painting, mode: str, replicas: int = 1, seed: int = 0
    ) -> "FragmentPool":
        """Pool ``replicas`` copies of the painting's cells as the game's
        view describes them: ``location`` keeps a tile's row-major
        coordinates alone, ``border`` its colour-form id and edge signatures
        without coordinates.  The draw order is that of a pool built from
        one :class:`Description` per tile and replica.  Any other ``mode``,
        or ``replicas`` that is not an int of at least 1, raises
        ``ValueError``."""
        if mode not in ("location", "border"):
            raise ValueError(f"mode must be 'location' or 'border', got {mode!r}")
        if type(replicas) is not int or replicas < 1:
            raise ValueError(f"replicas must be an int of at least 1, got {replicas!r}")
        seed = read_int(seed, "pool seed")
        located = mode == "location"
        grid = (painting.width, painting.height)
        return _set_fields(
            object.__new__(cls),
            seed=seed,
            _order=_draw_order(len(painting.forms), replicas, seed),
            _coords=row_major_positions(*grid) if located else None,
            _edges=None if located else painting.edges,
            _forms=painting.forms,
            _grid=grid,
        )

    def __getattr__(self, name: str) -> Any:
        # Only a pool built from a painting lacks ``fragments`` until they
        # are first read.
        if name != "fragments" or "_forms" not in self.__dict__:
            raise AttributeError(name)
        forms, coords = self._forms, self._coords
        if coords is not None:
            described = [
                Description(GENERATOR_ID, form, {}, position)
                for form, position in zip(forms, coords)
            ]
        else:
            described = [
                Description(GENERATOR_ID, form, {
                    ASPECT_COLOUR_FORM: form, **dict(zip(ASPECT_EDGES, edges))
                })
                for form, edges in zip(forms, self._edges)
            ]
        _set_fields(self, fragments=tuple(map(described.__getitem__, self._order)))
        return self.fragments

    def __len__(self) -> int:
        return len(self._order)


def _set_fields(obj: Any, **fields: Any) -> Any:
    """Set ``fields`` on the frozen ``obj`` as its constructor would; return it."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _draw_order(cells: int, replicas: int, seed: int) -> list[int]:
    """The source cell of each draw: ``replicas`` copies of ``range(cells)``
    shuffled as ``random.Random(derive_seed(seed, "draw-order")).shuffle``
    shuffles them.  A shuffle's swaps depend on the length alone, so this
    is the order in which a list of the cells' fragments shuffles.

    The words are read in bulk (:func:`~factlaw.seeding.word_chunk`), up
    to 1,024 at a time and at most twice as many as the swaps still to
    make, not by one ``shuffle`` call.
    For ``i`` from the last index down to 1, ``shuffle`` swaps item ``i``
    with item ``w >> shift`` of the first next word ``w`` for which that is
    at most ``i``, where ``shift`` is ``32 - (i + 1).bit_length()``; so the
    shift grows by one each time ``i + 1`` falls below a power of two.
    These are the CPython facts in :mod:`factlaw.phenomenon`'s docstring.
    They hold below 2**32 draws, and a longer order raises ``ValueError``
    before any list is built.
    """
    draws = cells * replicas
    if draws >= 1 << 32:
        raise ValueError(f"a pool holds fewer than 2**32 draws, got {draws}")
    order = list(range(cells)) * replicas
    if draws < 2:
        return order
    rng = random.Random(derive_seed(seed, "draw-order"))
    i = draws - 1
    shift = 32 - draws.bit_length()
    least = (1 << (31 - shift)) - 1  # the least i of this shift
    while True:
        # At most twice the swaps left: a small pool reads few words.
        for word in word_chunk(rng, min(2 * i, WORDS)):
            j = word >> shift
            if j <= i:
                order[i], order[j] = order[j], order[i]
                i -= 1
                if i < least:
                    if not i:
                        return order
                    shift += 1
                    least >>= 1


_edge_points = itemgetter(*ASPECT_EDGES)


def _edges_of(fragment: Description) -> tuple[str, str, str, str]:
    """The fragment's edge tuple; ``ValueError`` unless its points hold four
    edge signatures that :func:`~factlaw.painting.edge_tuple` accepts."""
    try:
        return edge_tuple(_edge_points(fragment.points))
    except KeyError:
        raise ValueError("fragment carries no edge signatures") from None


def _edges_or_none(fragment: Description) -> tuple[str, str, str, str] | None:
    try:
        return _edges_of(fragment)
    except ValueError:
        return None


# --- the games --------------------------------------------------------------


def solve_by_location(pool: FragmentPool) -> AssemblyReport:
    """Place located fragments with certainty: one slot per fragment.

    The fragments are read in the pool's shuffled order, and each lands
    directly on its own coordinates, so placements equal trials and no
    search happens.  Fragments that cover every cell from (1, 1) to their
    largest x and y complete one board; any others complete none and leave
    no board.  Two fragments claiming one cell, as in a pool of two
    replicas, mean the pool is corrupt (:class:`DuplicateCoordinates`).
    """
    order, coords = pool._order, pool._coords
    if not order:
        raise ValueError("empty pool")
    if coords is None:
        raise ValueError("fragment carries no coordinates")
    # Coordinates -> draw index.  A draw without coordinates leaves a None
    # key, and a cell drawn twice fewer keys than draws; then the draws are
    # read again, one by one, to refuse the first of them.
    cells = dict(zip(map(coords.__getitem__, order), range(len(order))))
    if None in cells or len(cells) != len(order):
        seen = set()
        for pos in map(coords.__getitem__, order):
            if pos is None:
                raise ValueError("fragment carries no coordinates")
            if pos in seen:
                raise DuplicateCoordinates(pos)
            seen.add(pos)
    count = len(cells)
    xs, ys = zip(*cells)
    width, height = max(xs), max(ys)
    # Distinct cells fill the width x height grid from (1, 1) exactly when
    # none lies left of or below it and there are width * height of them;
    # testing that first keeps far-off coordinates from spanning a huge grid.
    layouts = ()
    if width * height == count and min(xs) >= 1 and min(ys) >= 1:
        if pool._grid != (width, height):  # a painting's pool holds its grid's
            coords = row_major_positions(width, height)  # positions already
        layouts = (tuple(map(cells.__getitem__, coords)),)
    return AssemblyReport(count, count, width, height, layouts, pool)


def solve_by_borders(
    pool: FragmentPool, *, trial_budget: int | None = None
) -> AssemblyReport:
    """Assemble fragments by edge-signature attraction alone.

    Every pool goes to the scan-line search
    (:func:`factlaw.painting.scanline_layout`), bounded by
    ``trial_budget``, ``None`` or an int of at least 1.  A pool is solved
    whenever its pieces tile full, seam-consistent boards, even boards of
    different paintings.  Raises :class:`~factlaw.painting.UnsolvablePool`
    when no assembly exists or the trial budget runs out.

    Identical pieces go out in draw order and a board closes with the
    last-drawn of its pieces, so on replicas of one painting board ``j``
    closes at the ``j``-th cover time of the draws.  Boards are listed in
    the order they close.
    """
    order, coords, edges = pool._order, pool._coords, pool._edges
    if not order:
        raise ValueError("empty pool")
    if coords is not None and coords.count(None) != len(coords):
        raise ValueError("border-game fragments must not carry coordinates")
    if edges is None or None in edges:
        for fragment in pool.fragments:  # raises at the first one refused
            _edges_of(fragment)
    sigs = list(map(edges.__getitem__, order))
    width, height, placed, trials = scanline_layout(sigs, trial_budget)
    area, placed = width * height, tuple(placed)
    layouts = [placed[first:first + area] for first in range(0, len(placed), area)]
    layouts.sort(key=max)
    return AssemblyReport(len(placed), trials, width, height, tuple(layouts), pool)
