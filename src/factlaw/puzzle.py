"""The three reconstruction games: by location, by borders, multi-replica.

A pool holds the fragments shuffled once, and each game reads them in that
order and places them on boards.  In the location game every fragment
carries its coordinates, so placement is certain.  In the border game
coordinates are filtered out and only edge signatures guide assembly: one
scan-line search rebuilds the whole pool cell by cell, backtracking where
signatures repeat.  With several replicas of the painting mixed into one
pool, boards close only near the end of the stream.  The painting module's
seam rule (:func:`factlaw.painting.fits`) decides whether neighbouring
pieces agree, here and in the semantic-integration module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Sequence

from .painting import (
    ASPECT_EDGES,
    BOUNDARY,
    E,
    N,
    S,
    W,
    Painting,
    fits,
    row_major_positions,
    tile_description,
)
from .seeding import derive_seed
from .views import Description

_DELTAS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N, E, S, W


class DuplicateCoordinates(Exception):
    """Two located fragments claim the same cell — corrupted pool."""


class UnsolvablePool(Exception):
    """No assembly of the pool exists, or the named trial budget ran out.

    The border game's one verdict on a pool it cannot rebuild.
    """


_NO_ASSEMBLY = "no consistent assembly found"


class InconsistentSignatures(Exception):
    """Signatures contradict: :meth:`Board.validate_edges` found a board
    with a mismatched seam."""


@dataclass(frozen=True)
class Piece:
    """A placeable fragment: an opaque payload plus optional (N,E,S,W) edges."""

    payload: Any
    edges: tuple[str, str, str, str] | None = None


@dataclass(frozen=True)
class Board:
    """A finished or frozen arrangement of pieces on integer grid cells.

    The board copies ``cells`` and computes its bounding box ``bbox``, as
    (min x, max x, min y, max y), once; ``width``, ``height``,
    :meth:`is_full_rectangle` and ``to_doc`` read it.
    """

    cells: dict[tuple[int, int], Piece]
    bbox: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = dict(self.cells)
        if not cells:
            raise ValueError("a board holds at least one piece")
        object.__setattr__(self, "cells", cells)
        xs, ys = zip(*cells)
        object.__setattr__(self, "bbox", (min(xs), max(xs), min(ys), max(ys)))

    @property
    def width(self) -> int:
        x0, x1, _, _ = self.bbox
        return x1 - x0 + 1

    @property
    def height(self) -> int:
        _, _, y0, y1 = self.bbox
        return y1 - y0 + 1

    def is_full_rectangle(self) -> bool:
        return len(self.cells) == self.width * self.height

    def validate_edges(self) -> None:
        """Full post-hoc scan: every adjacent pair shares equal signatures."""
        for (x, y), piece in self.cells.items():
            if piece.edges is None:
                continue
            around = [self.cells.get((x + dx, y + dy)) for dx, dy in _DELTAS]
            if not fits(piece.edges, [None if p is None else p.edges for p in around]):
                raise InconsistentSignatures(f"seam mismatch at {(x, y)}")

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
                {"width": b.width, "height": b.height, "pieces": len(b.cells)}
                for b in self.boards
            ],
        }


@dataclass(frozen=True)
class FragmentPool:
    """The ballot box for the no-replacement games: an immutable tuple of
    fragments, shuffled once by ``seed``.

    Each game reads ``fragments`` in that shuffled order.  For pools built
    from a painting :meth:`from_painting` describes each tile once and every
    replica shares that frozen description.
    """

    fragments: tuple[Description, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        order = list(self.fragments)
        random.Random(derive_seed(self.seed, "draw-order")).shuffle(order)
        object.__setattr__(self, "fragments", tuple(order))

    @classmethod
    def from_painting(
        cls, painting: Painting, mode: str, replicas: int = 1, seed: int = 0
    ) -> "FragmentPool":
        """Describe each of ``painting.tiles`` at its row-major position
        through the mode's view (``location`` for the location game,
        ``colour_form`` for the border game) and pool ``replicas`` copies."""
        selector = {"location": "location", "border": "colour_form"}[mode]
        positions = row_major_positions(painting.width, painting.height)
        described = [
            tile_description(tile, coords, selector)
            for tile, coords in zip(painting.tiles, positions)
        ]
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
    search happens.  Two fragments claiming one cell, as in a pool of two
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
    board = Board(cells)
    complete = board.is_full_rectangle()
    return AssemblyReport(
        placements=count,
        trials=count,
        completed_replicas=1 if complete else 0,
        completion_order=((0, count),) if complete else (),
        boards=(board,),
    )


def solve_by_borders(
    pool: FragmentPool, *, trial_budget: int | None = None
) -> AssemblyReport:
    """Assemble fragments by edge-signature attraction alone.

    Every pool goes to the scan-line search (:func:`_solve_scanline`),
    bounded by ``trial_budget``.  A pool is solved whenever its pieces tile
    full, seam-consistent boards, even boards of different paintings.
    Raises :class:`UnsolvablePool` when no assembly exists or the trial
    budget runs out.
    """
    draws = pool.fragments
    if not draws:
        raise ValueError("empty pool")
    for fragment in draws:
        if fragment.grid_coords is not None:
            raise ValueError("border-game fragments must not carry coordinates")
    return _solve_scanline(draws, [_edges_of(f) for f in draws], trial_budget)


def _solve_scanline(
    draws: Sequence[Description],
    sigs: Sequence[tuple[str, str, str, str]],
    trial_budget: int | None,
) -> AssemblyReport:
    """Fill every cell of every board in raster order, backtracking on one stack.

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
    order they are first drawn and files each kind once, under its W and S
    edges and whether its E and N edges are boundary marks.  A cell keeps
    the shared list of candidate kinds for its position and a cursor into
    it, so resuming a cell after a backtrack tries the kinds after its last
    choice.  Backtracking crosses board boundaries, so an exhausted stack
    proves that no assembly exists.  Raises :class:`UnsolvablePool` with
    "no consistent assembly found" when none exists, and with "trial budget
    N exhausted" when ``trial_budget`` runs out first; the default, 100 000
    plus the number of pieces, suffices whenever no backtracking is needed.
    Identical pieces go out in draw order, so on replicas of one painting
    board ``j`` closes at the ``j``-th cover time of the draws.
    """
    budget = trial_budget if trial_budget is not None else 100_000 + len(draws)
    boards = sum(e[S] == BOUNDARY and e[W] == BOUNDARY for e in sigs)
    bottom = sum(e[S] == BOUNDARY for e in sigs)
    left = sum(e[W] == BOUNDARY for e in sigs)
    if not boards or bottom % boards or left % boards:
        raise UnsolvablePool(_NO_ASSEMBLY)
    width, height = bottom // boards, left // boards
    cells = boards * width * height
    if cells != len(draws):
        raise UnsolvablePool(_NO_ASSEMBLY)

    # Draw indices of the pieces sharing each edge tuple, in draw order; the
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
    positions = row_major_positions(width, height)
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
        x, y = positions[cell % area]
        west = east[kind] if x > 1 else BOUNDARY
        south = north[chosen[cell - width]] if y > 1 else BOUNDARY
        options = candidates.get((west, south, x == width, y == height), ())
        at = 0

    # Hand out interchangeable pieces in draw order; a board closes with
    # the last-drawn of its pieces.
    supply = [iter(group) for group in groups.values()]
    finished = []
    for first in range(0, cells, area):
        placed = [next(supply[kind]) for kind in chosen[first:first + area]]
        board = Board(dict(zip(
            positions, [Piece(draws[index], sigs[index]) for index in placed]
        )))
        finished.append((board, max(placed) + 1))
    finished.sort(key=lambda entry: entry[1])
    return AssemblyReport(
        placements=cells,
        trials=trials,
        completed_replicas=len(finished),
        completion_order=tuple(
            (index, draw_index) for index, (_, draw_index) in enumerate(finished)
        ),
        boards=tuple(board for board, _ in finished),
    )
