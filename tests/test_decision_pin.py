"""Golden pin of the border assembler's decisions at scale.

Every piece carries its draw index as payload, so the canonical boards
record which draw sits on which cell.  One sha256 covers, for each input,
the placements, merges, cells moved, the order in which boards closed and
those boards, cell by cell in the order each board holds them.  The inputs
are border pools of 2 replicas at sides 8, 24 and 40, a pool of 16
replicas of an 8x8 painting, and complexified streams at sides 8, 16 and
24 fed until k = 1..4 replicas close.  Any change to which slot a piece
takes, which patch a bridge merges or how a merge moves cells changes the
digest.

With unique signatures no two slots of one patch ever tie, so there the
order of cells shows only in the order boards hold their cells.  Streams
from forms with ambiguous edges do tie: the slot a piece takes among them
decides the event at which assembly clashes, so those streams are pinned
as well, by that event, the clash and the counters up to it.

Runs under pytest, or stand-alone (no pytest needed):
``PYTHONPATH=src python -W error tests/test_decision_pin.py``
"""

from __future__ import annotations

import hashlib
import json

from factlaw import (
    AMBIGUOUS_EDGES,
    BorderAssembler,
    FragmentPool,
    InconsistentSignatures,
    PaintingSpec,
    Piece,
    generate_painting,
)
from factlaw.integration import complexified_phenomenon, generate_hidden_form
from factlaw.puzzle import _edges_of

# Captured before cells became integer keys in the assembler.
DIGEST = "26aaa5f74cd6ebfd8480525179fa5f20152b0a972ae40a6b250688c93fad78f0"


def square_spec(side: int) -> PaintingSpec:
    cells = side * side
    counts = {1: cells * 6 // 10, 2: cells * 3 // 10}
    counts[3] = cells - counts[1] - counts[2]
    return PaintingSpec(side, side, 3, counts, seed=7)


def decisions(assembler: BorderAssembler) -> dict:
    return {
        "placements": assembler.placements,
        "merges": assembler.merges,
        "cells_moved": assembler.cells_moved,
        "boards": [
            [draw, [[x, y, piece.payload] for (x, y), piece in board.cells.items()]]
            for board, draw in assembler.completed_boards()
        ],
    }


def pool_decisions(side: int, replicas: int) -> dict:
    fragments = FragmentPool.from_painting(
        generate_painting(square_spec(side)), "border", replicas=replicas, seed=3
    ).draw_all()
    assembler = BorderAssembler()
    for i, fragment in enumerate(fragments, 1):
        assembler.add(Piece(i, _edges_of(fragment)), draw_index=i)
    assert not assembler.patches
    return decisions(assembler)


def stream_decisions(side: int, k: int) -> dict:
    stream = complexified_phenomenon(generate_hidden_form(square_spec(side)), seed=k)
    assembler = BorderAssembler()
    for i, event in enumerate(stream, 1):
        assembler.add(Piece(i, event.edge_sigs), draw_index=i)
        if len(assembler.completed) == k:
            return decisions(assembler)
    raise AssertionError("the stream is endless")


def clash_decisions(side: int, seed: int) -> list:
    cells = side * side
    spec = PaintingSpec(side, side, 2, {1: cells // 2, 2: cells - cells // 2},
                        AMBIGUOUS_EDGES, seed=seed)
    stream = complexified_phenomenon(generate_hidden_form(spec), seed=seed)
    assembler = BorderAssembler()
    for i, event in enumerate(stream, 1):
        try:
            assembler.add(Piece(i, event.edge_sigs), draw_index=i)
        except InconsistentSignatures as exc:
            return [i, str(exc), assembler.merges, assembler.cells_moved]
    raise AssertionError("the stream is endless")


def all_decisions() -> dict:
    return {
        "pools": [pool_decisions(side, 2) for side in (8, 24, 40)]
        + [pool_decisions(8, 16)],
        "streams": [
            stream_decisions(side, k) for side in (8, 16, 24) for k in (1, 2, 3, 4)
        ],
        "clashes": [
            clash_decisions(side, seed) for side in (4, 6, 8, 12) for seed in range(5)
        ],
    }


def test_assembler_decisions_at_scale_are_pinned():
    text = json.dumps(all_decisions(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


if __name__ == "__main__":
    test_assembler_decisions_at_scale_are_pinned()
    print("decision pin holds")
