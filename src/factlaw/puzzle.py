"""The three reconstruction games: by location, by borders, multi-replica.

Fragments are drawn one at a time from a shuffled pool and placed on boards.
In the location game every fragment carries its coordinates, so placement is
certain.  In the border game coordinates are filtered out and only edge
signatures guide assembly: one scan-line search rebuilds the whole pool
cell by cell, backtracking where signatures repeat.  With several replicas
of the painting mixed into one pool, boards close only near the end of the
stream.

The online border-matching engine (:class:`BorderAssembler`) serves the
semantic-integration module, which feeds it complexified events one at a
time; bridging events trigger rigid-translation merges of partial boards.
Inside it a cell ``(x, y)`` is the single int ``x * 2**32 + y``:
neighbours are one addition away, and while ``|y| < 2**31``, which a
patch's connectedness guarantees, int order is ``(x, y)`` order, so every
tie-break picks the same cell.  A finished patch becomes a :class:`Board`
on ``(x, y)`` cells again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from .painting import (
    ASPECT_EDGES,
    BOUNDARY,
    Painting,
    describe_tile,
)
from .seeding import derive_seed
from .views import Description

N, E, S, W = 0, 1, 2, 3
_DELTAS = ((0, 1), (1, 0), (0, -1), (-1, 0))
_OPPOSITE = (S, W, N, E)


class DuplicateCoordinates(Exception):
    """Two located fragments claim the same cell — corrupted pool."""


class UnsolvablePool(Exception):
    """No assembly of the pool exists, or the named trial budget ran out.

    The border game's one verdict on a pool it cannot rebuild.
    """


class InconsistentSignatures(Exception):
    """Signatures contradict: the pieces met so far fit no assembly.

    :class:`BorderAssembler` raises it at the first clash it meets, naming
    only its kind; callers prefix the draw or event that met it.
    :meth:`Board.validate_edges` raises it for a board with a mismatched
    seam.
    """


@dataclass(frozen=True)
class Piece:
    """A placeable fragment: an opaque payload plus optional (N,E,S,W) edges."""

    payload: Any
    edges: tuple[str, str, str, str] | None = None


@dataclass(frozen=True)
class Board:
    """A finished or frozen arrangement of pieces on integer grid cells."""

    cells: dict[tuple[int, int], Piece]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", dict(self.cells))
        if not self.cells:
            raise ValueError("a board holds at least one piece")

    @property
    def bbox(self) -> tuple[int, int, int, int]:
        xs = [x for x, _ in self.cells]
        ys = [y for _, y in self.cells]
        return min(xs), max(xs), min(ys), max(ys)

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

    def canonical(self) -> "Board":
        """Translate so the minimum occupied cell sits at (1, 1)."""
        x0, _, y0, _ = self.bbox
        if (x0, y0) == (1, 1):
            return self
        return Board({(x - x0 + 1, y - y0 + 1): p for (x, y), p in self.cells.items()})

    def validate_edges(self) -> None:
        """Full post-hoc scan: every adjacent pair shares equal signatures."""
        for (x, y), piece in self.cells.items():
            if piece.edges is not None and not _fits(
                piece, [self.cells.get((x + dx, y + dy)) for dx, dy in _DELTAS]
            ):
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


@dataclass
class FragmentPool:
    """The ballot box for the no-replacement games.

    Fragments are shuffled once by ``seed``; :meth:`draw` hands them out
    without replacement.  For pools built from a painting the fragment count
    starts at ``replicas * width * height``.
    """

    fragments: list[Description]
    replica_count: int = 1
    seed: int = 0
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise ValueError("replica_count must be at least 1")
        order = list(self.fragments)
        random.Random(derive_seed(self.seed, "draw-order")).shuffle(order)
        self.fragments = order

    @classmethod
    def from_painting(
        cls, painting: Painting, mode: str, replicas: int = 1, seed: int = 0
    ) -> "FragmentPool":
        selector = {"location": "location", "border": "colour_form"}[mode]
        fragments = [
            describe_tile(painting, tile.coords, selector)
            for _ in range(replicas)
            for tile in painting.tiles
        ]
        return cls(fragments, replica_count=replicas, seed=seed)

    def __len__(self) -> int:
        return len(self.fragments) - self._cursor

    def draw(self) -> Description:
        if self._cursor >= len(self.fragments):
            raise IndexError("pool is empty")
        fragment = self.fragments[self._cursor]
        self._cursor += 1
        return fragment

    def draw_all(self) -> list[Description]:
        remaining = self.fragments[self._cursor:]
        self._cursor = len(self.fragments)
        return remaining


def _edges_of(fragment: Description) -> tuple[str, str, str, str]:
    try:
        return tuple(fragment.points[a] for a in ASPECT_EDGES)  # type: ignore[return-value]
    except KeyError:
        raise ValueError("fragment carries no edge signatures") from None


class _Patch:
    """One nascent board during assembly (mutable working state).

    ``cells`` maps integer cell keys (see :class:`BorderAssembler`) to
    pieces.  ``slots`` is the patch's ledger of open slots: each empty cell
    that a placed neighbour demands, with the ``req_index`` keys it is filed
    under (one per demanding neighbour).  The patch is complete once the
    ledger is empty and its cells fill their bounding box.
    """

    __slots__ = ("patch_id", "cells", "slots")

    def __init__(self, patch_id: int):
        self.patch_id = patch_id
        self.cells: dict[int, Piece] = {}
        self.slots: dict[int, list[tuple[int, str]]] = {}


def _fits(piece: Piece, neighbours: Sequence[Piece | None]) -> bool:
    """The seam rule: each present neighbour, in N, E, S, W order, shows
    ``piece`` the same non-boundary signature across their shared side."""
    for d, neighbour in enumerate(neighbours):
        if neighbour is not None:
            mine = piece.edges[d]  # type: ignore[index]
            if mine != neighbour.edges[_OPPOSITE[d]] or mine == BOUNDARY:  # type: ignore[index]
                return False
    return True


# A cell (x, y) of the assembler is the int ``x * _X + y``, for |y| < _Y_LIMIT.
_X = 1 << 32
_Y_LIMIT = 1 << 31
_STEPS = (1, _X, -1, -_X)  # N, E, S, W


def _board(cells: dict[int, Piece]) -> Board:
    """The board of integer-keyed ``cells``, back on ``(x, y)`` cells."""
    decoded = {}
    for pos, piece in cells.items():
        x, y = divmod(pos + _Y_LIMIT, _X)
        decoded[x, y - _Y_LIMIT] = piece
    return Board(decoded)


class BorderAssembler:
    """Greedy border-matching assembly with merge-on-bridge.

    A cell ``(x, y)`` is stored as the single int ``x * 2**32 + y``: its
    N/S neighbours are ``pos ± 1``, its E/W neighbours ``pos ± 2**32``, and
    a translation is one int added to every cell.  While ``|y| < 2**31``,
    int order is the lexicographic order of ``(x, y)`` tuples, so every
    ``min`` and ``sorted`` over cells chooses as it would over tuples.  The
    bound always holds: a patch is connected and holds its origin, the
    first piece placed in its frame, so ``|y|`` stays below its piece
    count, and in a seam-consistent board below the painting's height.
    Cells turn back into ``(x, y)`` only when a finished patch becomes a
    :class:`Board`.

    Maintains an index from (required side, signature) to open slots
    ``(patch_id, cell)``; each patch's slot ledger lists, per open cell, the
    index keys it is filed under, so closing a slot touches only its own
    keys.  A new piece attaches to the oldest matching slot, the minimum
    ``(patch_id, cell)`` among the buckets its signatures name, else opens
    a new patch.  Then each open side of the new piece, as :meth:`_place`
    filed it, merges in, by rigid translation, the patch of the first
    foreign slot, in ``(patch_id, cell)`` order, that demands its signature
    and whose patch does not overlap (overlapping cells are fungible
    duplicates of other replicas).  So each placed piece costs one walk of
    its sides and no sort of its candidates.  One merge per side suffices:
    any other such slot would put its patch's piece on the cell that merge
    has just filled.  Cells that a merge moves are not bridged from again
    (see :meth:`_bridge_from`).

    A merge moves the smaller patch into the larger, so each cell moves
    O(log n) times.  The merged patch keeps the host's id.  Drawn pieces
    and merged patches alike enter a patch through :meth:`_place`.
    ``placements`` counts drawn pieces, ``merges`` the merges made and
    ``cells_moved`` the cells those merges moved.

    A signature contradiction, at a matched slot or along a merge seam,
    raises :class:`InconsistentSignatures` naming only its kind.
    """

    def __init__(self) -> None:
        self.patches: dict[int, _Patch] = {}
        self.req_index: dict[tuple[int, str], set[tuple[int, int]]] = {}
        self.completed: list[tuple[_Patch, int]] = []
        self.placements = 0
        self.merges = 0
        self.cells_moved = 0
        self.next_patch_id = 0

    # -- placement and merging ----------------------------------------------

    def _close(self, patch: _Patch, cell: int) -> None:
        """Withdraw the open slot at ``cell`` from the ledger and the index;
        empty index buckets are deleted."""
        slot = (patch.patch_id, cell)
        for key in patch.slots.pop(cell, ()):
            slots = self.req_index[key]
            slots.remove(slot)
            if not slots:
                del self.req_index[key]

    def _place(
        self, patch: _Patch, cells: dict[int, Piece], clash: str
    ) -> list[tuple[int, str]]:
        """Put ``cells`` into ``patch``: the only way a cell enters a patch.

        Every cell must fit the patch as it stands, else
        :class:`InconsistentSignatures` (``clash``) is raised before any
        state changes.  Then the cells fill their slots in sorted order of
        their keys ``x * 2**32 + y``, which is ``(x, y)`` order while
        ``|y| < 2**31``, and each open side they face becomes a slot.
        Returns the ``(side, signature)`` pairs filed, cell by cell in
        sorted order: for one placed cell, exactly its open sides in N, E,
        S, W order.  No completion check, no bridging.
        """
        have, ledger, patch_id = patch.cells, patch.slots, patch.patch_id
        north, east, south, west = _STEPS
        for pos, piece in cells.items():
            if not _fits(piece, (have.get(pos + north), have.get(pos + east),
                                 have.get(pos + south), have.get(pos + west))):
                raise InconsistentSignatures(clash)
        placed = sorted(cells)
        for pos in placed:
            if pos in ledger:
                self._close(patch, pos)
            have[pos] = cells[pos]
        index = self.req_index
        filed = []
        for pos in placed:
            for d, sig in enumerate(cells[pos].edges):  # type: ignore[arg-type]
                target = pos + _STEPS[d]
                if sig == BOUNDARY or target in have:
                    continue
                key = (_OPPOSITE[d], sig)
                index.setdefault(key, set()).add((patch_id, target))
                ledger.setdefault(target, []).append(key)
                filed.append((d, sig))
        return filed

    def _try_merge(self, host: _Patch, guest: _Patch, offset: int) -> int | None:
        """Merge ``guest``, whose cell ``c`` sits at ``c + offset`` in the
        host, into ``host``; None if refused, else how the host's stored
        cells moved (``0`` unless the host was the one moved).  An offset is
        one int, ``dx * 2**32 + dy``, and adding it is exact; the cells it
        yields belong to the merged patch, so they keep ``|y| < 2**31`` and
        with it the ``(x, y)`` order of their keys.

        The smaller patch's cells move into the larger patch (the guest's on
        a tie); the overlap and seam checks scan the smaller one, which the
        symmetric seam rule allows.  The shifted cells are built and checked
        for overlap in one pass: refused when a moved cell overlaps the
        other patch (fungible duplicate content from another replica).  A
        mismatched seam raises :class:`InconsistentSignatures` (``merge seam
        mismatch``) from :meth:`_place`.  The merged patch is ``host``, with
        its id: when the host moved, it takes over the guest's cells and
        ledger, re-keyed to the host's id.
        """
        if len(guest.cells) <= len(host.cells):
            small, big, shift = guest, host, offset
        else:
            small, big, shift = host, guest, -offset
        occupied = big.cells
        shifted = {}
        for pos, piece in small.cells.items():
            pos += shift
            if pos in occupied:
                return None
            shifted[pos] = piece
        self._place(big, shifted, "merge seam mismatch")
        for cell in list(small.slots):
            self._close(small, cell)
        del self.patches[guest.patch_id]
        self.merges += 1
        self.cells_moved += len(shifted)
        if big is host:
            return 0
        for cell, keys in guest.slots.items():
            for key in keys:
                slots = self.req_index[key]
                slots.remove((guest.patch_id, cell))
                slots.add((host.patch_id, cell))
        host.cells, host.slots = guest.cells, guest.slots
        return shift

    def _bridge_from(
        self, patch: _Patch, pos: int, sides: list[tuple[int, str]]
    ) -> None:
        """Merge into ``patch`` the patches that its new piece at ``pos``
        bridges to: on each of its open ``sides``, as :meth:`_place` filed
        them, the first foreign patch that does not overlap.  A side whose
        signature no slot demands is passed over at once.

        Only the new piece is bridged from; cells that merges move are not,
        as they would find nothing.  A moved cell gains no open side, so
        every pair of an open side and a matching foreign slot was tried
        when the later of their two pieces was placed.  A merge refused then
        was refused for overlap, or passed over after a merge on the same
        side filled the cell its patch needed, and overlap only grows as
        patches merge.  When a merge moves the host's cells, ``pos`` follows
        them.
        """
        for d, sig in sides:
            # A foreign slot demanding edge[d] == sig can be aligned so that
            # this piece fills it.
            demanding = self.req_index.get((d, sig))
            if demanding is None:
                continue
            if pos + _STEPS[d] in patch.cells:
                continue  # an earlier side's merge filled this one
            for patch_id, slot in sorted(demanding):
                if patch_id == patch.patch_id:
                    continue
                moved = self._try_merge(patch, self.patches[patch_id], pos - slot)
                if moved is not None:
                    pos += moved
                    break

    # -- public API ----------------------------------------------------------

    def add(self, piece: Piece, draw_index: int) -> None:
        """Greedy step: attach to the oldest matching open slot, the least
        minimum of the requirement buckets its signatures name, else seed a
        new patch; bridge from the open sides :meth:`_place` filed for the
        piece (from a new seed this finds nothing: no slot demands its
        signatures), then close the patch if complete.  No bucket is keyed
        by the boundary mark, so a boundary side names none."""
        get = self.req_index.get
        slot = None
        for key in enumerate(piece.edges):  # type: ignore[arg-type]
            bucket = get(key)
            if bucket is not None:
                least = min(bucket)
                if slot is None or least < slot:
                    slot = least
        if slot is not None:
            patch_id, pos = slot
            patch = self.patches[patch_id]
        else:
            patch, pos = _Patch(self.next_patch_id), 0
            self.next_patch_id += 1
            self.patches[patch.patch_id] = patch
        sides = self._place(patch, {pos: piece}, "piece does not fit its matched slot")
        self._bridge_from(patch, pos, sides)
        self.placements += 1
        if not patch.slots and _board(patch.cells).is_full_rectangle():
            del self.patches[patch.patch_id]
            self.completed.append((patch, draw_index))

    def completed_boards(self) -> list[tuple[Board, int]]:
        """Canonicalized finished boards with their completing draw index."""
        return [
            (_board(patch.cells).canonical(), draw_index)
            for patch, draw_index in self.completed
        ]


# --- the games --------------------------------------------------------------


def solve_by_location(pool: FragmentPool) -> AssemblyReport:
    """Place located fragments with certainty: one slot per fragment.

    Every fragment lands directly on its coordinates, so placements equal
    trials and no search happens.  Two fragments claiming one cell mean the
    pool is corrupt (:class:`DuplicateCoordinates`).
    """
    if pool.replica_count != 1:
        raise ValueError("the location game is a single-replica game")
    cells: dict[tuple[int, int], Piece] = {}
    count = 0
    while len(pool):
        fragment = pool.draw()
        coords = fragment.grid_coords
        if coords is None:
            raise ValueError("fragment carries no coordinates")
        pos = (coords[0], coords[1])
        if pos in cells:
            raise DuplicateCoordinates(pos)
        cells[pos] = Piece(fragment, None)
        count += 1
    board = Board(cells).canonical()
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
    draws = pool.draw_all()
    if not draws:
        raise ValueError("empty pool")
    for fragment in draws:
        if fragment.grid_coords is not None:
            raise ValueError("border-game fragments must not carry coordinates")
    report = _solve_scanline(draws, [_edges_of(f) for f in draws], trial_budget)
    if report is None:
        raise UnsolvablePool("no consistent assembly found")
    return report


def _solve_scanline(
    draws: Sequence[Description],
    sigs: Sequence[tuple[str, str, str, str]],
    trial_budget: int | None,
) -> AssemblyReport | None:
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
    pieces.  Backtracking crosses board boundaries, so an exhausted stack
    proves that no assembly exists: then the result is None.  Raises
    :class:`UnsolvablePool` when ``trial_budget`` runs out first; the
    default, 100 000 plus the number of pieces, suffices whenever no
    backtracking is needed.  Identical pieces go out in draw order, so on
    replicas of one painting board ``j`` closes at the ``j``-th cover time
    of the draws.
    """
    budget = trial_budget if trial_budget is not None else 100_000 + len(draws)
    boards = sum(e[S] == BOUNDARY and e[W] == BOUNDARY for e in sigs)
    bottom = sum(e[S] == BOUNDARY for e in sigs)
    left = sum(e[W] == BOUNDARY for e in sigs)
    if not boards or bottom % boards or left % boards:
        return None
    width, height = bottom // boards, left // boards
    cells = boards * width * height
    if cells != len(draws):
        return None

    # Draw indices of the pieces sharing each edge tuple, in draw order.
    groups: dict[tuple, list[int]] = {}
    for index, edges in enumerate(sigs):
        groups.setdefault(edges, []).append(index)
    by_west_south: dict[tuple[str, str], list[tuple]] = {}
    for edges in groups:
        by_west_south.setdefault((edges[W], edges[S]), []).append(edges)
    stock = {edges: len(group) for edges, group in groups.items()}
    chosen: list[tuple] = []  # the edge tuple set on each filled cell

    def options(cell: int) -> Iterator[tuple]:
        x, y = cell % width, cell // width % height
        west = chosen[cell - 1][E] if x else BOUNDARY
        south = chosen[cell - width][N] if y else BOUNDARY
        right, top = x == width - 1, y == height - 1
        return (
            edges for edges in by_west_south.get((west, south), ())
            if (edges[E] == BOUNDARY) == right and (edges[N] == BOUNDARY) == top
        )

    stack = [options(0)]
    trials = 0
    while len(chosen) < cells:
        edges = next((e for e in stack[-1] if stock[e]), None)
        if edges is None:
            stack.pop()
            if not stack:
                return None
            stock[chosen.pop()] += 1
            continue
        trials += 1
        if trials > budget:
            raise UnsolvablePool(f"trial budget {budget} exhausted")
        stock[edges] -= 1
        chosen.append(edges)
        if len(chosen) < cells:
            stack.append(options(len(chosen)))

    # Hand out interchangeable pieces in draw order; a board closes with
    # the last-drawn of its pieces.
    supply = {edges: iter(group) for edges, group in groups.items()}
    area = width * height
    finished = []
    for first in range(0, cells, area):
        placed = {
            (i % width + 1, i // width + 1): next(supply[chosen[first + i]])
            for i in range(area)
        }
        board = Board({
            pos: Piece(draws[index], sigs[index]) for pos, index in placed.items()
        })
        finished.append((board, max(placed.values()) + 1))
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
