"""The three reconstruction games: by location, by borders, multi-replica.

A fragment is a painting's tile seen through one game's view, a
:class:`Description`, and :meth:`FragmentPool.from_painting` is the one
place a tile becomes one: each game's view is its fragment format.  A
pool holds the fragments shuffled once, and each game reads them in that
order and places them on boards.  A board is a full grid of pieces stored
row-major from (1, 1), like :attr:`factlaw.painting.Painting.tiles`.  In
the location game every fragment carries its coordinates, so placement is
certain.  In the border game coordinates are filtered out and only edge
signatures guide assembly: one scan-line search rebuilds the whole pool
cell by cell, backtracking where signatures repeat.  With several replicas
of the painting mixed into one pool, boards close only near the end of the
stream.  The search is the painting module's
:func:`factlaw.painting.scanline_layout`, which semantic integration
shares, and the seam rule that checks a painting
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
    edge_tuple,
    row_major_positions,
    scanline_layout,
)
from .seeding import derive_seed
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
    row-major from (1, 1), like :attr:`factlaw.painting.Painting.tiles`, so
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

    ``completion_order`` lists ``(board_index, draw_index)`` pairs in the
    order boards closed; ``board_index`` indexes into ``boards`` and
    ``draw_index`` is 1-based into the draw stream.
    """

    placements: int
    trials: int
    completed_replicas: int
    completion_order: tuple[tuple[int, int], ...]
    boards: tuple[Board, ...]

    def __post_init__(self) -> None:
        if self.placements > self.trials:
            raise ValueError("placements cannot exceed trials")
        if self.completed_replicas != len(self.completion_order):
            raise ValueError("completion log disagrees with completed count")

    def to_doc(self) -> dict[str, Any]:
        return {
            "placements": self.placements,
            "trials": self.trials,
            "completed_replicas": self.completed_replicas,
            "completion_order": [list(entry) for entry in self.completion_order],
            "board_sizes": [
                {"width": b.width, "height": b.height, "pieces": len(b.pieces)}
                for b in self.boards
            ],
        }


@dataclass(frozen=True)
class FragmentPool:
    """The ballot box for the no-replacement games: an immutable tuple of
    fragments, shuffled once by ``seed``.  A fragment that is not a
    :class:`Description`, or a seed that is not an integer, raises
    ``ValueError``.

    Each game reads ``fragments`` in that shuffled order.  For pools built
    from a painting :meth:`from_painting` describes each tile once and every
    replica shares that frozen fragment.
    """

    fragments: tuple[Description, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        order = read_collection(list, self.fragments)
        if not all(isinstance(fragment, Description) for fragment in order):
            raise ValueError("a pool holds Descriptions only")
        seed = read_int(self.seed, "pool seed")
        random.Random(derive_seed(seed, "draw-order")).shuffle(order)
        object.__setattr__(self, "fragments", tuple(order))
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_painting(
        cls, painting: Painting, mode: str, replicas: int = 1, seed: int = 0
    ) -> "FragmentPool":
        """Describe each of ``painting.tiles`` through the game's view and
        pool ``replicas`` copies: ``location`` keeps a tile's row-major
        coordinates alone, ``border`` its colour-form id and edge signatures
        without coordinates.  Any other ``mode``, or ``replicas`` that is
        not an int of at least 1, raises ``ValueError``."""
        if mode not in ("location", "border"):
            raise ValueError(f"mode must be 'location' or 'border', got {mode!r}")
        if type(replicas) is not int or replicas < 1:
            raise ValueError(f"replicas must be an int of at least 1, got {replicas!r}")
        tiles = painting.tiles
        if mode == "location":
            positions = row_major_positions(painting.width, painting.height)
            described = [
                Description(GENERATOR_ID, tile.colour_form_id, {}, coords)
                for tile, coords in zip(tiles, positions)
            ]
        else:
            # A dict display is about twice as fast as building the points
            # from ASPECT_EDGES in a loop or with dict(zip(...)).
            edge_n, edge_e, edge_s, edge_w = ASPECT_EDGES
            described = []
            for tile in tiles:
                form = tile.colour_form_id
                north, east, south, west = tile.edge_sigs
                points = {
                    ASPECT_COLOUR_FORM: form,
                    edge_n: north,
                    edge_e: east,
                    edge_s: south,
                    edge_w: west,
                }
                described.append(Description(GENERATOR_ID, form, points))
        return cls(described * replicas, seed=seed)

    def __len__(self) -> int:
        return len(self.fragments)


_edge_points = itemgetter(*ASPECT_EDGES)


def _edges_of(fragment: Description) -> tuple[str, str, str, str]:
    try:
        return _edge_points(fragment.points)
    except KeyError:
        raise ValueError("fragment carries no edge signatures") from None


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
    cells: dict[tuple[int, int], Piece] = {}
    for fragment in pool.fragments:
        pos = fragment.grid_coords
        if pos is None:
            raise ValueError("fragment carries no coordinates")
        if pos in cells:
            raise DuplicateCoordinates(pos)
        cells[pos] = Piece(fragment, None)
    count = len(cells)
    if not count:
        raise ValueError("empty pool")
    width = max(x for x, _ in cells)
    height = max(y for _, y in cells)
    # Only a width x height area can be full; testing it first keeps far-off
    # coordinates from spanning a huge grid.
    positions = row_major_positions(width, height) if width * height == count else []
    if not positions or any(pos not in cells for pos in positions):
        return AssemblyReport(count, count, 0, (), ())
    board = Board(width, height, tuple(cells[pos] for pos in positions))
    return AssemblyReport(count, count, 1, ((0, count),), (board,))


def solve_by_borders(
    pool: FragmentPool, *, trial_budget: int | None = None
) -> AssemblyReport:
    """Assemble fragments by edge-signature attraction alone.

    Every pool goes to the scan-line search
    (:func:`factlaw.painting.scanline_layout`), bounded by
    ``trial_budget``.  A pool is solved whenever its pieces tile full,
    seam-consistent boards, even boards of different paintings.  Raises
    :class:`~factlaw.painting.UnsolvablePool` when no assembly exists or the
    trial budget runs out.

    Identical pieces go out in draw order and a board closes with the
    last-drawn of its pieces, so on replicas of one painting board ``j``
    closes at the ``j``-th cover time of the draws.  Boards are listed in
    the order they close.
    """
    draws = pool.fragments
    if not draws:
        raise ValueError("empty pool")
    for fragment in draws:
        if fragment.grid_coords is not None:
            raise ValueError("border-game fragments must not carry coordinates")
    sigs = [_edges_of(fragment) for fragment in draws]
    width, height, placed, trials = scanline_layout(sigs, trial_budget)
    area = width * height
    finished = []
    for first in range(0, len(placed), area):
        board_placed = placed[first:first + area]
        pieces = tuple(Piece(draws[index], sigs[index]) for index in board_placed)
        finished.append((max(board_placed) + 1, Board(width, height, pieces)))
    finished.sort(key=itemgetter(0))
    return AssemblyReport(
        placements=len(placed),
        trials=trials,
        completed_replicas=len(finished),
        completion_order=tuple(
            (index, draw_index) for index, (draw_index, _) in enumerate(finished)
        ),
        boards=tuple(board for _, board in finished),
    )
