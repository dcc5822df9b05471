"""The three reconstruction games: by location, by borders, multi-replica.

A pool holds the fragments shuffled once, and each game reads them in that
order and places them on boards.  In the location game every fragment
carries its coordinates, so placement is certain.  In the border game
coordinates are filtered out and only edge signatures guide assembly: one
scan-line search rebuilds the whole pool cell by cell, backtracking where
signatures repeat.  With several replicas of the painting mixed into one
pool, boards close only near the end of the stream.  The search is the
painting module's :func:`factlaw.painting.scanline_layout`, which semantic
integration shares, and the seam rule that checks a painting
(:func:`factlaw.painting.check_edge_coherence`) checks a finished board.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Sequence

from .painting import (
    ASPECT_EDGES,
    Painting,
    check_edge_coherence,
    check_grid_size,
    row_major_positions,
    scanline_layout,
    tile_description,
)
from .seeding import derive_seed
from .views import Description


class DuplicateCoordinates(Exception):
    """Two located fragments claim the same cell — corrupted pool."""


class InconsistentSignatures(Exception):
    """Signatures contradict: :meth:`Board.validate_edges` found a board
    that breaks the seam rule, has a hole or mixes edged and edge-less pieces."""


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
        """Check the board as one full grid, row-major from its bounding
        box's corner, by the seam rule
        (:func:`factlaw.painting.check_edge_coherence`); a failed check, a
        hole or a mix of pieces with and without edges raises
        :class:`InconsistentSignatures`.  Edge-less pieces, as the location
        game places them, carry nothing to check."""
        cells = sorted(self.cells.items(), key=lambda cell: cell[0][::-1])  # by (y, x)
        edges = [piece.edges for _, piece in cells]
        if edges.count(None) == len(edges):
            return
        if None in edges:
            raise InconsistentSignatures("pieces with and without edges")
        try:
            check_grid_size(self.width, self.height, len(edges), "pieces")
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
    Raises :class:`~factlaw.painting.UnsolvablePool` when no assembly
    exists or the trial budget runs out.
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
    """Rebuild the boards of ``draws``, whose edge tuples are ``sigs``, with
    :func:`factlaw.painting.scanline_layout`, which raises
    :class:`~factlaw.painting.UnsolvablePool` when it cannot.

    Identical pieces go out in draw order and a board closes with the
    last-drawn of its pieces, so on replicas of one painting board ``j``
    closes at the ``j``-th cover time of the draws.  Boards are listed in
    the order they close.
    """
    width, height, placed, trials = scanline_layout(sigs, trial_budget)
    positions = row_major_positions(width, height)
    area = width * height
    finished = []
    for first in range(0, len(placed), area):
        board_placed = placed[first:first + area]
        board = Board(dict(zip(
            positions, [Piece(draws[index], sigs[index]) for index in board_placed]
        )))
        finished.append((board, max(board_placed) + 1))
    finished.sort(key=lambda entry: entry[1])
    return AssemblyReport(
        placements=len(placed),
        trials=trials,
        completed_replicas=len(finished),
        completion_order=tuple(
            (index, draw_index) for index, (_, draw_index) in enumerate(finished)
        ),
        boards=tuple(board for board, _ in finished),
    )
