"""Golden pins of the two searches' verdicts: ``integrate`` and the border game.

``integrate``: square forms of sides 4, 6, 8 and 12 with ambiguous edges,
seeds 0-4, each streamed with its own seed and integrated at k = 1 and
k = 3.  A verdict is the exception's type and text, or the result's
document.  One sha256 covers all 40.  On these forms signatures repeat and
seams tie, so the verdict names the event at which integration refuses the
stream, and why; any change to the order in which events are checked,
joined or bridged can change it.  All 40 are refusals of a repeated
signature.

The border game: paintings of widths 2-5 and heights 1-4 (not 2 x 1, which
cannot hold q = 2 labels), q = 2, unique and ambiguous edges, seeds 0-5;
each pooled with 1-3 replicas under its own seed and solved with the
default trial budget and with a budget of 7.  A verdict is the refusal's
text, or the report's document plus every board's sorted
``(position, entity_id, edges)``.  One sha256 covers all 1,080; 456 are
refusals and 48 solved pools needed backtracking.  Which piece lands on
which cell depends on the order in which candidates are tried and on how
interchangeable pieces are handed out, so any change to either shows.

Runs under pytest, or stand-alone (no pytest needed):
``PYTHONPATH=src python -W error tests/test_decision_pin.py``
"""

from __future__ import annotations

import hashlib
import json

from factlaw import (
    AMBIGUOUS_EDGES,
    UNIQUE_EDGES,
    AmbiguousStream,
    BudgetExhausted,
    FragmentPool,
    InconsistentReplicas,
    IntegrationConfig,
    Painting,
    PaintingSpec,
    UnsolvablePool,
    complexified_phenomenon,
    generate_hidden_form,
    generate_painting,
    integrate,
    solve_by_borders,
)

# Captured while the greedy border assembler still placed the events.
DIGEST = "4e05bac194ee35f73b1fe2294f22e437a7ee5853903f4f80078d876ba7190ba5"

# Captured while every open cell of the scan-line kept a live generator.
BORDER_DIGEST = "390df0e35b274c6626d2a258d423c5e5374e1aa1c7f516f231165da7fa5bb052"


def two_label_spec(width: int, height: int, mode: str, seed: int) -> PaintingSpec:
    cells = width * height
    return PaintingSpec(width, height, 2, {1: cells // 2, 2: cells - cells // 2},
                        mode, seed=seed)


def verdict(side: int, seed: int, k: int) -> list | dict:
    stream = complexified_phenomenon(
        generate_hidden_form(two_label_spec(side, side, AMBIGUOUS_EDGES, seed)),
        seed=seed,
    )
    try:
        result = integrate(stream, IntegrationConfig(confirmation_replicas=k))
    except (AmbiguousStream, BudgetExhausted, InconsistentReplicas) as exc:
        return [type(exc).__name__, str(exc)]
    return result.to_doc()


def all_verdicts() -> list:
    return [
        [side, seed, k, verdict(side, seed, k)]
        for side in (4, 6, 8, 12)
        for seed in range(5)
        for k in (1, 3)
    ]


def border_verdict(
    painting: Painting, replicas: int, seed: int, budget: int | None
) -> list:
    pool = FragmentPool.from_painting(painting, "border", replicas=replicas, seed=seed)
    try:
        report = solve_by_borders(pool, trial_budget=budget)
    except UnsolvablePool as exc:
        return ["UnsolvablePool", str(exc)]
    boards = [
        sorted(
            [list(pos), piece.payload.entity_id, list(piece.edges)]
            for pos, piece in board.cells.items()
        )
        for board in report.boards
    ]
    return [report.to_doc(), boards]


def all_border_verdicts() -> list:
    verdicts = []
    for mode in (UNIQUE_EDGES, AMBIGUOUS_EDGES):
        for width in range(2, 6):
            for height in range(1, 5):
                if width * height <= 2:
                    continue
                for seed in range(6):
                    painting = generate_painting(
                        two_label_spec(width, height, mode, seed)
                    )
                    verdicts.extend(
                        [mode, width, height, seed, replicas, budget,
                         border_verdict(painting, replicas, seed, budget)]
                        for replicas in (1, 2, 3)
                        for budget in (None, 7)
                    )
    return verdicts


def digest_of(verdicts: list) -> str:
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_integrate_verdicts_on_ambiguous_streams_are_pinned():
    assert digest_of(all_verdicts()) == DIGEST


def test_border_game_verdicts_are_pinned():
    verdicts = all_border_verdicts()
    reports = [v[-1][0] for v in verdicts if v[-1][0] != "UnsolvablePool"]
    assert len(verdicts) - len(reports) == 456
    assert sum(r["trials"] > r["placements"] for r in reports) == 48
    assert digest_of(verdicts) == BORDER_DIGEST


if __name__ == "__main__":
    print("integrate", digest_of(all_verdicts()))
    print("border game", digest_of(all_border_verdicts()))
    test_integrate_verdicts_on_ambiguous_streams_are_pinned()
    test_border_game_verdicts_are_pinned()
    print("verdict pins hold")
