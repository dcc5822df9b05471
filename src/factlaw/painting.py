"""Parcelled paintings: integrated tile grids that seed every game.

A painting is a width x height grid of square tiles.  Each tile carries an
opaque colour-form id, an approximate-colour label j in 1..q, and four edge
signatures (N, E, S, W).  Interior signatures match pairwise across shared
edges, and the grid perimeter carries the literal boundary marker: the seam
rule, which :func:`check_edge_coherence` checks on a full grid.  A
:class:`Painting` keeps its tiles as three row-major columns (``forms``,
``labels`` and ``edges``) and checks them column by column; a
:class:`Tile` is only a view of one cell.  The painting is the ground
truth that the puzzle, probability and integration games afterwards see
only through restricted views, which each game applies itself.  This
module holds the painting, the grid rules, the scan-line search
:func:`scanline_layout` with which both directions rebuild a grid from
its pieces' edge tuples, and the one file format of grids:
:func:`grid_to_doc` writes a painting or a hidden form as columns, one
list per cell field in row-major order from (1, 1) with no coordinates,
and :func:`grid_from_doc` reads the lists back, checked for size, for the
grid to check entry by entry.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import and_, eq
from typing import Any, Iterable, Mapping, Sequence, TypeVar

from .seeding import derive_seed
from .serialize import read_int

BOUNDARY = "B"

# A cell's four sides, in the order of every edge tuple, and the side each
# faces on its neighbour.
N, E, S, W = 0, 1, 2, 3
OPPOSITE = (S, W, N, E)

UNIQUE_EDGES = "unique-interior-edges"
AMBIGUOUS_EDGES = "ambiguous-allowed"

T = TypeVar("T")


class InfeasibleSpec(ValueError):
    """The requested painting cannot exist (bad counts or degenerate grid)."""


class UnsolvablePool(Exception):
    """No layout of the pieces exists, or the named trial budget ran out.

    The border game's one verdict on a pool it cannot rebuild.
    """


_NO_ASSEMBLY = "no consistent assembly found"


@dataclass(frozen=True)
class Tile:
    """One square of the painting, as :attr:`Painting.tiles` views it; its
    index there places it."""

    colour_form_id: str
    approx_colour: int
    edge_sigs: tuple[str, str, str, str]  # N, E, S, W

    def __post_init__(self) -> None:
        sigs = edge_tuple(self.edge_sigs)
        if sigs is not self.edge_sigs:  # a frozen field write costs ~100 ns
            object.__setattr__(self, "edge_sigs", sigs)
        if type(self.approx_colour) is not int:
            raise ValueError(f"tile labels must be ints, got {self.approx_colour!r}")
        if self.approx_colour < 1:
            raise ValueError("approx_colour labels start at 1")
        if not isinstance(self.colour_form_id, str) or not self.colour_form_id:
            raise ValueError("colour_form_id must be a non-empty string")


@dataclass(frozen=True)
class PaintingSpec:
    """Recipe for generating a painting; its integers are read with ``read_int``."""

    width: int
    height: int
    q: int
    label_counts: Mapping[int, int]
    uniqueness_mode: str = UNIQUE_EDGES
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("width", "height", "q", "seed"):
            object.__setattr__(self, name, read_int(getattr(self, name), name))
        if not isinstance(self.label_counts, Mapping):
            raise ValueError(
                f"label_counts must be a mapping, got {self.label_counts!r}"
            )
        counts = {
            read_int(k, "label_counts key"): read_int(v, f"label_counts[{k}]")
            for k, v in self.label_counts.items()
        }
        if len(counts) != len(self.label_counts):
            raise ValueError("label_counts keys repeat once read as integers")
        object.__setattr__(self, "label_counts", counts)
        cells = self.width * self.height
        if self.width < 1 or self.height < 1:
            raise InfeasibleSpec("grid extents must be positive")
        if not self.q < cells:
            raise InfeasibleSpec(
                f"need q < width*height, got q={self.q} on {cells} cells"
            )
        if self.q < 1:
            raise InfeasibleSpec("q must be at least 1")
        if sorted(counts) != list(range(1, self.q + 1)):
            raise InfeasibleSpec(
                f"label_counts keys must be exactly 1..{self.q}, got {sorted(counts)}"
            )
        if any(c < 1 for c in counts.values()):
            raise InfeasibleSpec("every label needs at least one tile")
        if sum(counts.values()) != cells:
            raise InfeasibleSpec(
                f"label counts sum to {sum(counts.values())}, grid has {cells} cells"
            )
        if self.uniqueness_mode not in (UNIQUE_EDGES, AMBIGUOUS_EDGES):
            raise InfeasibleSpec(f"unknown uniqueness_mode {self.uniqueness_mode!r}")

    def to_doc(self) -> dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "q": self.q,
            "label_counts": {str(k): v for k, v in sorted(self.label_counts.items())},
            "uniqueness_mode": self.uniqueness_mode,
            "seed": self.seed,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "PaintingSpec":
        mode, seed = doc.get("uniqueness_mode", UNIQUE_EDGES), doc.get("seed", 0)
        width, height, q = doc["width"], doc["height"], doc["q"]
        return cls(width, height, q, doc["label_counts"], mode, seed)


def edge_tuple(sigs: Iterable[str]) -> tuple[str, str, str, str]:
    """``sigs`` as the (N, E, S, W) tuple of four strings that tiles, events
    and pieces keep; anything else raises ``ValueError``."""
    if type(sigs) is not tuple:
        try:
            sigs = tuple(sigs)
        except TypeError:
            raise ValueError("edge_sigs must be a sequence") from None
    if len(sigs) != 4:
        raise ValueError("edge_sigs must have exactly four entries (N, E, S, W)")
    try:
        "".join(sigs)  # refuses a non-str in one C loop, quicker than isinstance
    except TypeError:
        sig = next(sig for sig in sigs if not isinstance(sig, str))
        raise ValueError(f"edge signatures must be strings, got {sig!r}") from None
    return sigs  # type: ignore[return-value]


def _edge_column(
    column: Sequence[Iterable[str]],
) -> tuple[tuple[str, str, str, str], ...]:
    """Each entry of ``column`` as :func:`edge_tuple` reads it, as one tuple;
    an entry that it refuses raises its ``ValueError``.  Well-formed columns
    are read in C loops: a tuple entry is kept as it is."""
    try:
        edges = tuple(map(tuple, column))
        if set(map(len, edges)) <= {4}:
            "".join(chain.from_iterable(edges))
            return edges
    except TypeError:
        pass
    return tuple(map(edge_tuple, column))


def row_major_positions(width: int, height: int) -> list[tuple[int, int]]:
    """The ``(x, y)`` of each index of a width x height grid, row-major from
    the bottom-left (1, 1), the layout of every grid in this package: index
    ``i`` lies at ``(i % width + 1, i // width + 1)``."""
    return [(x, y) for y in range(1, height + 1) for x in range(1, width + 1)]


def check_grid(
    width: int, height: int, cells: Sequence[T], kind: type[T], what: str
) -> None:
    """Refuse ``cells`` unless it is a sequence of ``kind`` that fills the
    grid, as :func:`check_grid_size` checks."""
    if not isinstance(cells, Sequence) or not all(isinstance(c, kind) for c in cells):
        raise ValueError(f"{what} must be a sequence of {kind.__name__}s")
    check_grid_size(width, height, len(cells), what)


def check_grid_size(width: int, height: int, count: int, what: str) -> None:
    """Refuse extents that are not positive ints (a bool is not one), or a
    ``count`` that does not fill the grid."""
    for extent in (width, height):
        if not isinstance(extent, int) or isinstance(extent, bool):
            raise ValueError(f"grid extents must be ints, got {extent!r}")
    if width < 1 or height < 1:
        raise ValueError("grid extents must be positive")
    if count != width * height:
        raise ValueError(f"expected {width * height} {what}, got {count}")


def scanline_layout(
    sigs: Sequence[tuple[str, str, str, str]], trial_budget: int | None = None
) -> tuple[int, int, list[int], int]:
    """Lay pieces out on full boards from their (N, E, S, W) edge tuples
    alone: fill every cell of every board in raster order, backtracking on
    one stack.

    The boundary marks fix the layout: each board has one piece with
    boundary S and W edges, ``width`` pieces with a boundary S edge and
    ``height`` with a boundary W edge.  Cells are filled row by row from
    the bottom-left corner, board after board.  A cell takes a piece whose
    W and S edges equal its left and lower neighbours' E and N edges (the
    boundary mark on the left column and bottom row), and whose E and N
    edges are the boundary mark exactly on the right column and top row.
    Pieces with equal edge tuples are interchangeable, so one per tuple is
    tried; with unique signatures no cell has a second, so trials equal
    pieces.  The search counts the distinct edge tuples (kinds) in one
    ``Counter``, which numbers them in the order they first appear and
    holds the stock of each, and reads the kinds' four sides as columns.
    Kinds with the same W and S edges, and the same answer to whether their
    E and N edges are boundary marks, are chained in kind order: a dict
    holds the first of each chain and a list the next kind after each.  A
    cell starts at the first kind of its chain, and a backtrack resumes it
    at the kind after its last choice.  Backtracking crosses board
    boundaries, so an exhausted stack proves that no layout exists.  Raises
    :class:`UnsolvablePool` with "no consistent assembly found" when none
    exists, and with "trial budget N exhausted" when ``trial_budget`` runs
    out first; the default, 100 000 plus the number of pieces, suffices
    whenever no backtracking is needed.  A ``trial_budget`` that is not
    ``None`` or an int of at least 1 raises ``ValueError``.

    Returns ``(width, height, placed, trials)``: ``placed`` holds the index
    into ``sigs`` of the piece on each cell, board after board, each board
    in the order of :func:`row_major_positions`; ``trials`` counts the
    pieces tried.  Interchangeable pieces go out in index order: the
    indices sorted by kind, stably, give each kind's pieces in a run, and
    each cell takes the next piece of its kind's run.
    """
    if trial_budget is not None and (type(trial_budget) is not int or trial_budget < 1):
        raise ValueError(
            f"trial_budget must be None or an int of at least 1, got {trial_budget!r}"
        )
    budget = trial_budget if trial_budget is not None else 100_000 + len(sigs)
    counted = Counter(sigs)
    if not counted:
        raise UnsolvablePool(_NO_ASSEMBLY)
    stock = list(counted.values())
    north, east, south, west = zip(*counted)
    marks = repeat(BOUNDARY)
    on_bottom = list(map(eq, south, marks))
    on_left = list(map(eq, west, marks))
    boards = sum(compress(stock, map(and_, on_bottom, on_left)))
    bottom = sum(compress(stock, on_bottom))
    left = sum(compress(stock, on_left))
    if not boards or bottom % boards or left % boards:
        raise UnsolvablePool(_NO_ASSEMBLY)
    width, height = bottom // boards, left // boards
    cells = boards * width * height
    if cells != len(sigs):
        raise UnsolvablePool(_NO_ASSEMBLY)

    # The chains of kinds by (W, S, E is a mark, N is a mark).  Each ends
    # at ``end``, a kind past the last whose stock never runs out.
    end = len(stock)
    stock.append(1)
    first: dict[tuple[str, str, bool, bool], int] = {}
    nxt = [end] * end
    keys = list(zip(west, south, map(eq, east, marks), map(eq, north, marks)))
    for kind, key in zip(range(end - 1, -1, -1), reversed(keys)):
        nxt[kind] = first.get(key, end)
        first[key] = kind

    area = width * height
    right, top = width - 1, area - width  # the last x and the first top place
    chosen: list[int] = []  # the kind set on each filled cell
    kind = first.get((BOUNDARY, BOUNDARY, width == 1, height == 1), end)
    trials = 0
    while True:
        while not stock[kind]:
            kind = nxt[kind]
        if kind == end:
            # The cell has no kind left: take back the last cell's choice
            # and try the next kind of its chain.
            if not chosen:
                raise UnsolvablePool(_NO_ASSEMBLY)
            kind = chosen.pop()
            stock[kind] += 1
            kind = nxt[kind]
            continue
        trials += 1
        if trials > budget:
            raise UnsolvablePool(f"trial budget {budget} exhausted")
        stock[kind] -= 1
        chosen.append(kind)
        cell = len(chosen)
        if cell == cells:
            break  # a search for a second layout would backtrack from here
        place = cell % area  # the cell's index on its board
        x = place % width
        kind = first.get((
            east[kind] if x else BOUNDARY,
            north[chosen[cell - width]] if place >= width else BOUNDARY,
            x == right,
            place >= top,
        ), end)

    if end == cells:  # each kind is one piece, numbered by its index
        return width, height, chosen, trials
    number = dict(zip(counted, range(end)))
    kind_of_index = list(map(number.__getitem__, sigs))
    by_kind = sorted(range(cells), key=kind_of_index.__getitem__)
    offset = list(accumulate(counted.values(), initial=0))
    for cell, kind in enumerate(chosen):
        chosen[cell] = by_kind[offset[kind]]
        offset[kind] += 1
    return width, height, chosen, trials


def check_edge_coherence(
    width: int, height: int, edges: Sequence[tuple[str, str, str, str]]
) -> None:
    """Verify pairwise interior matches and boundary markers on a full grid:
    the package's one seam rule.

    ``edges`` holds the (N, E, S, W) tuple of every cell in row-major
    order.  Shared by paintings, hidden forms and finished boards, which
    carry the same grid shape.  Raises ``ValueError`` on the first violation
    in row-major order.
    """
    # Each side's column compared whole: a cell's E side meets the W side of
    # the next index, which on the right column is the boundary mark on both
    # sides of the row break, and its N side the S side ``width`` on.  The
    # counts of marks keep them off interior sides.
    north, east, south, west = zip(*edges)
    cells, top, right = len(edges), (BOUNDARY,) * width, (BOUNDARY,) * height
    if (
        north[: cells - width] == south[width:]
        and north[cells - width:] == south[:width] == top
        and north.count(BOUNDARY) == south.count(BOUNDARY) == width
        and east[:-1] == west[1:]
        and east[width - 1::width] == west[::width] == right
        and east.count(BOUNDARY) == west.count(BOUNDARY) == height
    ):
        return
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            i = (y - 1) * width + (x - 1)
            n, e, s, w = edges[i]
            if (y == height) != (n == BOUNDARY):
                raise ValueError(f"bad north boundary marker at {(x, y)}")
            if (x == width) != (e == BOUNDARY):
                raise ValueError(f"bad east boundary marker at {(x, y)}")
            if (y == 1) != (s == BOUNDARY):
                raise ValueError(f"bad south boundary marker at {(x, y)}")
            if (x == 1) != (w == BOUNDARY):
                raise ValueError(f"bad west boundary marker at {(x, y)}")
            if x < width:
                east_w = edges[i + 1][3]
                if e != east_w:
                    raise ValueError(
                        f"edge mismatch between {(x, y)} E={e!r} and"
                        f" {(x + 1, y)} W={east_w!r}"
                    )
            if y < height:
                north_s = edges[i + width][2]
                if n != north_s:
                    raise ValueError(
                        f"edge mismatch between {(x, y)} N={n!r} and"
                        f" {(x, y + 1)} S={north_s!r}"
                    )


@dataclass(frozen=True)
class Painting:
    """An integrated grid of tiles; immutable once constructed.

    The painting keeps its cells as three columns, row-major from the
    bottom-left origin (1, 1) like :attr:`HiddenForm.cells`, so a cell's
    index is the only record of its place: ``forms`` holds the distinct,
    non-empty colour-form ids, ``labels`` the approximate-colour labels,
    ints that fill the palette 1..``palette_q``, and ``edges`` the
    (N, E, S, W) tuples of four strings, which keep the seam rule.  Each
    column is a list or tuple, read into a tuple.  :attr:`tiles` is a view
    that builds one :class:`Tile` per cell whenever it is read.
    """

    width: int
    height: int
    palette_q: int
    forms: tuple[str, ...]
    labels: tuple[int, ...]
    edges: tuple[tuple[str, str, str, str], ...]

    def __post_init__(self) -> None:
        for name in ("forms", "labels", "edges"):
            column = getattr(self, name)
            if type(column) not in (list, tuple):
                raise ValueError(f"{name} must be a list or tuple, got {column!r}")
            check_grid_size(self.width, self.height, len(column), name)
        forms, labels = tuple(self.forms), tuple(self.labels)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", _edge_column(self.edges))
        if type(self.palette_q) is not int:
            raise ValueError(f"palette_q must be an int, got {self.palette_q!r}")
        try:
            "".join(forms)  # refuses a non-str in one C loop
        except TypeError:
            raise ValueError("colour_form_id must be a non-empty string") from None
        distinct = set(forms)
        if "" in distinct:
            raise ValueError("colour_form_id must be a non-empty string")
        if len(distinct) != len(forms):
            raise ValueError("colour_form_ids must be distinct")
        if set(map(type, labels)) != {int}:
            label = next(j for j in labels if type(j) is not int)
            raise ValueError(f"tile labels must be ints, got {label!r}")
        if min(labels) < 1:
            raise ValueError("approx_colour labels start at 1")
        if not self.palette_q < len(labels):
            raise ValueError("palette must be strictly smaller than the grid")
        palette = set(range(1, self.palette_q + 1))
        present = set(labels)
        if not present <= palette:
            raise ValueError("tile labels leave the palette 1..q")
        if present != palette:
            raise ValueError("every palette label must appear on some tile")
        check_edge_coherence(self.width, self.height, self.edges)

    @property
    def tiles(self) -> tuple[Tile, ...]:
        """A fresh view of the cells as one :class:`Tile` each, row-major."""
        return tuple(map(Tile, self.forms, self.labels, self.edges))


def generate_painting(spec: PaintingSpec) -> Painting:
    """Deterministically generate a painting satisfying ``spec``.

    Label placement is uniform-random over cells subject to the exact
    multiplicities.  Interior edge signatures are synthesized so that in
    unique mode every signature id marks exactly one shared edge grid-wide,
    while ambiguous mode draws signatures from a deliberately small alphabet
    so repeats occur.
    """
    w, h, q = spec.width, spec.height, spec.q
    rng = random.Random(derive_seed(spec.seed, "painting"))

    area = w * h
    labels = [j for j in range(1, q + 1) for _ in range(spec.label_counts[j])]
    rng.shuffle(labels)
    form_ids = [f"cf_{i:04d}" for i in range(area)]
    rng.shuffle(form_ids)

    # Interior edges are numbered E/W seams first, then N/S seams, each
    # row-major: cell i in row y, counted from 0, owns E/W seam i - y to
    # its east and N/S seam across + i to its north.
    across = (w - 1) * h
    seams = across + w * (h - 1)
    if spec.uniqueness_mode == UNIQUE_EDGES:
        ids = list(range(seams))
        rng.shuffle(ids)
        sigs = [f"s{i:05d}" for i in ids]
    else:
        alphabet = max(2, seams // 3)
        sigs = [f"a{rng.randrange(alphabet):03d}" for _ in range(seams)]

    edges = []
    for i in range(area):
        x, y = i % w, i // w
        n = sigs[across + i] if y < h - 1 else BOUNDARY
        e = sigs[i - y] if x < w - 1 else BOUNDARY
        s = sigs[across + i - w] if y else BOUNDARY
        west = sigs[i - y - 1] if x else BOUNDARY
        edges.append((n, e, s, west))
    return Painting(w, h, q, form_ids, labels, edges)


def label_histogram(painting: Painting) -> dict[int, int]:
    """Per-label tile counts; always sums to width x height."""
    counts = Counter(painting.labels)
    return {j: counts[j] for j in range(1, painting.palette_q + 1)}


def interior_signature_multiset(
    edges: Iterable[tuple[str, str, str, str]],
) -> dict[str, int]:
    """How many sides carry each interior signature, given each piece's edge tuple.

    On a painting's tiles every count is 2 when signatures are unique.
    """
    counts = Counter(chain.from_iterable(edges))
    counts.pop(BOUNDARY, None)
    return counts


# --- JSON round trip --------------------------------------------------------
#
# Paintings and hidden forms share one file format, read and written here:
# ``width``, ``height``, one integer size field (``q`` or ``s_prime``), then
# one column per cell field and last ``edges``, each cell's [N, E, S, W]
# list.  Every column is a list in row-major order from (1, 1), so a cell's
# index is its place.


def grid_to_doc(
    width: int,
    height: int,
    size: tuple[str, int],
    columns: Mapping[str, Iterable[Any]],
    edges: Iterable[Iterable[str]],
) -> dict[str, Any]:
    """The file form of a grid: ``size`` is the size field's key and value,
    ``columns`` maps each column's key to its entries and ``edges`` holds
    each cell's (N, E, S, W) signatures, all in row-major order."""
    size_key, size_value = size
    doc: dict[str, Any] = {"width": width, "height": height, size_key: size_value}
    for key, column in columns.items():
        doc[key] = list(column)
    doc["edges"] = list(map(list, edges))
    return doc


def grid_from_doc(
    doc: Mapping[str, Any], size_key: str, columns: Sequence[str]
) -> tuple[int, int, int, list[list]]:
    """Read a grid file that :func:`grid_to_doc` wrote with ``columns``;
    return ``(width, height, size, lists)``, where ``lists`` holds the
    file's list for each of ``columns``, in order, then its ``edges``.

    Raises ``ValueError`` unless ``doc`` is a mapping that holds
    ``width``, ``height``, ``size_key`` and every column, unless each
    column, ``edges`` too, is a list whose length :func:`check_grid_size`
    accepts (all checked before anything is built from them), and unless
    each ``edges`` entry is a list of four.  The entries themselves are
    the grid's to check.  A file with a ``tiles`` or ``cells`` key is in
    the old row format, one object per cell with its ``x`` and ``y``, and
    is refused as such.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"a grid file must be a JSON object, got {type(doc).__name__}")
    for key in ("tiles", "cells"):
        if key in doc:
            raise ValueError(
                f"a {key!r} list is the old row format of grid files;"
                " grids are now stored as columns, one list per cell field"
            )
    keys = (*columns, "edges")
    missing = [key for key in ("width", "height", size_key, *keys) if key not in doc]
    if missing:
        raise ValueError(f"grid file lacks {', '.join(missing)}")
    width = read_int(doc["width"], "width")
    height = read_int(doc["height"], "height")
    size = read_int(doc[size_key], size_key)
    lists = [doc[key] for key in keys]
    for key, column in zip(keys, lists):
        if type(column) is not list:
            raise ValueError(f"{key} must be a list, got {type(column).__name__}")
        check_grid_size(width, height, len(column), key)
    edges = lists[-1]
    if set(map(type, edges)) != {list} or set(map(len, edges)) != {4}:
        bad = next(e for e in edges if type(e) is not list or len(e) != 4)
        raise ValueError(
            f"each edges entry must be a list of four signatures"
            f" [N, E, S, W], got {bad!r}"
        )
    return width, height, size, lists


def painting_to_doc(painting: Painting) -> dict[str, Any]:
    columns = {"forms": painting.forms, "labels": painting.labels}
    size = ("q", painting.palette_q)
    return grid_to_doc(painting.width, painting.height, size, columns, painting.edges)


def painting_from_doc(doc: Mapping[str, Any]) -> Painting:
    width, height, q, columns = grid_from_doc(doc, "q", ("forms", "labels"))
    forms, labels, edges = columns
    if set(map(type, labels)) != {int}:
        labels = [read_int(label, "tile label") for label in labels]
    return Painting(width, height, q, forms, labels, edges)
