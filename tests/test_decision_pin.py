"""Golden pin of ``integrate``'s verdicts on streams from ambiguous forms.

Square forms of sides 4, 6, 8 and 12 with ambiguous edges, seeds 0-4, each
streamed with its own seed and integrated at k = 1 and k = 3.  A verdict
is the exception's type and text, or the result's document.  One sha256
covers all 40.  On these forms signatures repeat and seams tie, so the
verdict names the event at which integration refuses the stream, and
why; any change to the order in which events are checked, joined or
bridged can change it.  All 40 are refusals of a repeated signature.

Runs under pytest, or stand-alone (no pytest needed):
``PYTHONPATH=src python -W error tests/test_decision_pin.py``
"""

from __future__ import annotations

import hashlib
import json

from factlaw import (
    AMBIGUOUS_EDGES,
    AmbiguousStream,
    BudgetExhausted,
    InconsistentReplicas,
    IntegrationConfig,
    PaintingSpec,
    complexified_phenomenon,
    generate_hidden_form,
    integrate,
)

# Captured while the greedy border assembler still placed the events.
DIGEST = "4e05bac194ee35f73b1fe2294f22e437a7ee5853903f4f80078d876ba7190ba5"


def verdict(side: int, seed: int, k: int) -> list | dict:
    cells = side * side
    spec = PaintingSpec(side, side, 2, {1: cells // 2, 2: cells - cells // 2},
                        AMBIGUOUS_EDGES, seed=seed)
    stream = complexified_phenomenon(generate_hidden_form(spec), seed=seed)
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


def test_integrate_verdicts_on_ambiguous_streams_are_pinned():
    text = json.dumps(all_verdicts(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


if __name__ == "__main__":
    test_integrate_verdicts_on_ambiguous_streams_are_pinned()
    print("verdict pin holds")
