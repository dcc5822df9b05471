"""The four benchmark workloads: their inputs, their ops and the check of each op.

Every workload is a closed loop with one client: ops run one after another,
each one in-process call to ``factlaw.cli.run``, cycling through a fixed
list of op kinds.  ``setup`` generates the inputs from the workload seed and
writes them to files; every op gets its own seed derived from the workload
seed.  The workload keeps the ground truth of every input and ``check``
compares each op's output with it.

Why these four (see ``metrics.json`` for the metrics each one moves):

- ``reassemble``: greedy border assembly of unique-edge paintings at two
  sizes and with 16 intermingled replicas; the location op skips the
  assembler and is the control inside the workload.
- ``ambiguous``: the only workload that runs the backtracking search, and
  the only one with known failures (budget exhaustion and false "no
  consistent assembly" verdicts).  They are counted, never hidden.
- ``integrate``: semantic integration end to end; the same assembler fed by
  a with-replacement event stream full of duplicates.
- ``probability``: label sampling, meta-probability and exact algebra
  validation; no assembly at all.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import factlaw.painting as painting_layer
from factlaw.integration import hidden_form_from_painting
from factlaw.puzzle import InconsistentSignatures
from factlaw.serialize import dump_json, fraction_to_str

import oracles

# Known failure classes: an op that ends in one of them is counted as failed
# but is not a wrong output.  Any other failure makes the run incorrect.
BUDGET_EXHAUSTED = "budget_exhausted"
FALSE_NEGATIVE = "false_negative"


def derive(seed: int, *tags: Any) -> int:
    """A child seed of ``seed`` for the given tags (stable across processes)."""
    text = ":".join(str(part) for part in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def split_labels(cells: int, q: int, rng: random.Random) -> dict[int, int]:
    """Per-label tile counts summing to ``cells``, each label present."""
    if q == 2:
        first = rng.randint(cells // 3, cells - cells // 3)
        return {1: first, 2: cells - first}
    first = rng.randint(cells * 5 // 10, cells * 6 // 10)
    second = rng.randint(cells * 2 // 10, cells * 3 // 10)
    return {1: first, 2: second, 3: cells - first - second}


@dataclass(frozen=True)
class Painted:
    """Ground truth of one painting file: its shape, labels and tile layout."""

    path: str
    width: int
    height: int
    label_counts: dict[int, int]
    forms: tuple[str, ...]  # colour-form ids, row-major from (1, 1)


def write_painting(
    path: Path, width: int, height: int, q: int, mode: str, seed: int
) -> Painted:
    counts = split_labels(width * height, q, random.Random(seed))
    spec = painting_layer.PaintingSpec(width, height, q, counts, mode, seed)
    painting = painting_layer.generate_painting(spec)
    dump_json(painting_layer.painting_to_doc(painting), path)
    forms = tuple(tile.colour_form_id for tile in painting.tiles)
    return Painted(str(path), width, height, counts, forms)


@dataclass(frozen=True)
class Op:
    kind: str
    command: str
    params: dict[str, Any]
    truth: Any


def exit_failure(status: int, stderr: str) -> str:
    """Describe a non-zero exit from the error record ``cli.run`` wrote."""
    lines = stderr.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {}
    return f"exit {status}: {record.get('type')}: {record.get('message')}"


def check_boards(report_path: str, painted: Painted, replicas: int) -> str | None:
    doc = json.loads(Path(report_path).read_text())
    size = {"width": painted.width, "height": painted.height,
            "pieces": painted.width * painted.height}
    if doc["completed_replicas"] != replicas:
        return f"wrong output: {doc['completed_replicas']} of {replicas} boards"
    if doc["board_sizes"] != [size] * replicas:
        return f"wrong output: board sizes {doc['board_sizes']}"
    if doc["placements"] != replicas * size["pieces"]:
        return f"wrong output: {doc['placements']} placements"
    return None


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    # Failure classes this workload is known to produce at the parent commit.
    known_failures: frozenset[str] = frozenset()
    # (metric, unit, op kinds whose units and time it counts), or None.
    throughput: tuple[str, str, tuple[str, ...]] | None = None

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Generate and write every input file; safe to repeat."""
        raise NotImplementedError

    def op(self, index: int, phase: str) -> Op:
        raise NotImplementedError

    def check(self, op: Op, status: int, stderr: str) -> tuple[str | None, int]:
        """Return (failure or None, work units done) for one finished op."""
        raise NotImplementedError

    def check_traced(self, op: Op, returns: list[Any]) -> str | None:
        """Extra checks on the objects the traced layer calls returned."""
        return None

    def op_seed(self, index: int, phase: str) -> int:
        return derive(self.seed, self.name, phase, index)

    def out(self, kind: str, suffix: str = ".json") -> str:
        return str(self.outputs / f"{kind}{suffix}")


class Reassemble(Workload):
    name = "reassemble"
    files_per_size = 4

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        small, large, tile = (6, 8, 4) if smoke else (32, 64, 16)
        replicas = 4 if smoke else 16
        # kind -> (side, replicas, mode)
        self.shapes = {
            f"unique{small}": (small, 1, "border"),
            f"unique{large}": (large, 1, "border"),
            f"replicas{tile}x{tile}x{replicas}": (tile, replicas, "border"),
            f"location{large}": (large, 1, "location"),
        }
        self.kinds = tuple(self.shapes)
        self.throughput = ("pieces_per_s", "pieces/s", self.kinds)
        self.paintings: dict[int, list[Painted]] = {}

    def setup(self):
        sides = sorted({side for side, _, _ in self.shapes.values()})
        self.paintings = {
            side: [
                write_painting(
                    self.inputs / f"painting{side}_{i}.json", side, side, 3,
                    painting_layer.UNIQUE_EDGES, derive(self.seed, "painting", side, i),
                )
                for i in range(self.files_per_size)
            ]
            for side in sides
        }

    def op(self, index, phase):
        kind = self.kinds[index % len(self.kinds)]
        side, replicas, mode = self.shapes[kind]
        painted = self.paintings[side][index // len(self.kinds) % self.files_per_size]
        params = {"painting": painted.path, "mode": mode, "replicas": replicas,
                  "seed": self.op_seed(index, phase), "report": self.out(kind)}
        return Op(kind, "play-puzzle", params, painted)

    def check(self, op, status, stderr):
        if status != 0:
            return exit_failure(status, stderr), 0
        replicas = op.params["replicas"]
        failure = check_boards(op.params["report"], op.truth, replicas)
        return failure, 0 if failure else replicas * len(op.truth.forms)

    def check_traced(self, op, returns):
        painted: Painted = op.truth
        for report in returns:
            for board in report.boards:
                for (x, y), piece in board.cells.items():
                    expected = painted.forms[(y - 1) * painted.width + (x - 1)]
                    if piece.payload.entity_id != expected:
                        return f"wrong adjacency: {expected} expected at {(x, y)}"
        return None


class Ambiguous(Workload):
    name = "ambiguous"
    known_failures = frozenset({BUDGET_EXHAUSTED, FALSE_NEGATIVE})
    files_per_shape = 64

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        # kind -> (width, height, trial budget or None for the default)
        self.shapes = {
            "amb2x3": (2, 3, None),
            "amb3x3": (3, 3, None),
            "amb3x4": (3, 4, 500 if smoke else 5000),
        }
        self.kinds = tuple(self.shapes)
        self.paintings: dict[str, list[Painted]] = {}

    def setup(self):
        self.paintings = {
            kind: [
                write_painting(
                    self.inputs / f"{kind}_{i}.json", w, h, 2,
                    painting_layer.AMBIGUOUS_EDGES, derive(self.seed, "painting", kind, i),
                )
                for i in range(self.files_per_shape)
            ]
            for kind, (w, h, _) in self.shapes.items()
        }

    def op(self, index, phase):
        kind = self.kinds[index % len(self.kinds)]
        budget = self.shapes[kind][2]
        painted = self.paintings[kind][index // len(self.kinds) % self.files_per_shape]
        params = {"painting": painted.path, "mode": "border",
                  "seed": self.op_seed(index, phase), "report": self.out(kind)}
        if budget is not None:
            params["trial_budget"] = budget
        return Op(kind, "play-puzzle", params, painted)

    def check(self, op, status, stderr):
        if status != 0:
            failure = exit_failure(status, stderr)
            # Every pool comes from a painting, so an assembly always exists:
            # "no consistent assembly" is a false verdict.
            if failure == "exit 1: UnsolvablePool: no consistent assembly found":
                return FALSE_NEGATIVE, 0
            if failure.startswith("exit 1: UnsolvablePool: trial budget"):
                return BUDGET_EXHAUSTED, 0
            return failure, 0
        failure = check_boards(op.params["report"], op.truth, 1)
        return failure, 0 if failure else len(op.truth.forms)

    def check_traced(self, op, returns):
        for report in returns:
            for board in report.boards:
                try:
                    board.validate_edges()
                except InconsistentSignatures as exc:
                    return f"inconsistent board: {exc}"
        return None


class Integrate(Workload):
    name = "integrate"
    files_per_size = 4

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.sides = (5, 6) if smoke else (16, 24)
        self.kinds = tuple(f"form{side}" for side in self.sides)
        self.throughput = ("events_per_s", "events/s", self.kinds)
        self.draws = 2_000 if smoke else 100_000
        self.forms: dict[int, list[Painted]] = {}

    def setup(self):
        self.forms = {}
        for side in self.sides:
            self.forms[side] = []
            for i in range(self.files_per_size):
                seed = derive(self.seed, "form", side, i)
                counts = split_labels(side * side, 3, random.Random(seed))
                spec = painting_layer.PaintingSpec(
                    side, side, 3, counts, painting_layer.UNIQUE_EDGES, seed
                )
                form = hidden_form_from_painting(
                    painting_layer.generate_painting(spec), seed=seed
                )
                path = self.inputs / f"form{side}_{i}.json"
                dump_json(form.to_doc(), path)
                self.forms[side].append(Painted(str(path), side, side, counts, ()))

    def op(self, index, phase):
        side = self.sides[index % len(self.sides)]
        kind = self.kinds[index % len(self.sides)]
        form = self.forms[side][index // len(self.sides) % self.files_per_size]
        params = {"form": form.path, "draws": self.draws, "confirm": 3,
                  "seed": self.op_seed(index, phase), "out": self.out(kind)}
        return Op(kind, "end-to-end", params, form)

    def check(self, op, status, stderr):
        if status != 0:
            return exit_failure(status, stderr), 0
        doc = json.loads(Path(op.params["out"]).read_text())
        form: Painted = op.truth
        cells = form.width * form.height
        law = {str(r): fraction_to_str(Fraction(n, cells))
               for r, n in form.label_counts.items()}
        if doc["law"] != law:
            return f"wrong output: law {doc['law']} is not {law}", 0
        if doc["n_draws"] != self.draws or sum(doc["frequencies"].values()) != self.draws:
            return "wrong output: frequency table does not hold the draws", 0
        if doc["events_consumed"] < 3 * cells:
            return f"wrong output: {doc['events_consumed']} events for 3 replicas", 0
        return None, doc["events_consumed"]


class Probability(Workload):
    name = "probability"
    files_per_size = 4
    weights = (6, 3, 1)
    label = 1
    repetitions = 100

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        if smoke:
            self.meta_n, self.meta_eps = 2_000, Fraction(1, 20)
            self.n0_eps, self.n0_delta = Fraction(1, 10), Fraction(1, 10)
            self.game_side, self.game_draws, universes = 8, 2_000, (3, 4, 5)
            self.repetitions = 20
        else:
            self.meta_n, self.meta_eps = 10_000, Fraction(1, 100)
            self.n0_eps, self.n0_delta = Fraction(1, 50), Fraction(1, 20)
            self.game_side, self.game_draws, universes = 32, 100_000, (5, 6, 7)
        self.universes = universes
        self.kinds = ("meta", "findn0", f"game{self.game_side}") + tuple(
            f"space_u{u}" for u in universes
        )
        self.throughput = ("draws_per_s", "draws/s", self.kinds[:3])
        self.p = Fraction(self.weights[0], sum(self.weights))
        self.paintings: list[Painted] = []
        self.spaces: dict[str, tuple[str, int]] = {}
        self._window: dict[tuple[int, Fraction], float] = {}

    def setup(self):
        side = self.game_side
        self.paintings = [
            write_painting(
                self.inputs / f"painting{side}_{i}.json", side, side, 3,
                painting_layer.UNIQUE_EDGES, derive(self.seed, "painting", side, i),
            )
            for i in range(self.files_per_size)
        ]
        self.spaces = {}
        for u in self.universes:
            rng = random.Random(derive(self.seed, "space", u))
            weights = [rng.randint(1, 9) for _ in range(u)]
            doc = {
                "universe": list(range(1, u + 1)),
                "law": {str(e): f"{w}/{sum(weights)}" for e, w in enumerate(weights, 1)},
                "algebra_generators": [[e] for e in range(1, u + 1)],
            }
            path = self.inputs / f"space_u{u}.json"
            dump_json(doc, path)
            self.spaces[f"space_u{u}"] = (str(path), u)

    def window(self, n: int, epsilon: Fraction) -> float:
        key = (n, epsilon)
        if key not in self._window:
            self._window[key] = float(
                oracles.window_probability(n, self.p, self.p, epsilon)
            )
        return self._window[key]

    def op(self, index, phase):
        kind = self.kinds[index % len(self.kinds)]
        seed = self.op_seed(index, phase)
        lln = {"weights": list(self.weights), "label": self.label,
               "repetitions": self.repetitions, "seed": seed, "jobs": 1,
               "out": self.out(kind)}
        if kind == "meta":
            params = dict(lln, operation="meta-probability", n_draws=self.meta_n,
                          epsilon=str(self.meta_eps))
            return Op(kind, "lln", params, None)
        if kind == "findn0":
            params = dict(lln, operation="find-n0", epsilon=str(self.n0_eps),
                          delta=str(self.n0_delta))
            return Op(kind, "lln", params, None)
        if kind.startswith("game"):
            painted = self.paintings[index // len(self.kinds) % self.files_per_size]
            params = {"painting": painted.path, "draws": self.game_draws,
                      "seed": seed, "out": self.out(kind, ".csv")}
            return Op(kind, "play-prob-game", params, painted)
        path, u = self.spaces[kind]
        return Op(kind, "validate-space", {"space": path, "out": self.out(kind)}, u)

    def check(self, op, status, stderr):
        if status != 0:
            return exit_failure(status, stderr), 0
        if op.kind.startswith("game"):
            return self._check_game(op)
        doc = json.loads(Path(op.params["out"]).read_text())
        if op.kind == "meta":
            return self._check_meta(doc)
        if op.kind == "findn0":
            return self._check_n0(doc)
        if not doc["passed"] or doc["events"] != 2**op.truth:
            return f"wrong output: passed={doc['passed']} events={doc['events']}", 0
        return None, 0

    def _check_meta(self, doc):
        m = self.repetitions
        hits = round(doc["estimate"] * m)
        if doc["target"] != str(self.p) or doc["estimate"] != hits / m:
            return f"wrong output: {doc}", 0
        p = self.window(self.meta_n, self.meta_eps)
        if oracles.deviation_probability(hits, m, p) < oracles.IMPLAUSIBLE:
            return f"wrong output: estimate {doc['estimate']} against exact {p:.6f}", 0
        return None, self.meta_n * m

    def _check_n0(self, doc):
        # find_N0 doubles n from 16; each rung estimates the window probability
        # from m repetitions and stops at the first estimate >= 1 - delta.
        m, n0, start = self.repetitions, doc["n0"], 16
        threshold = 1 - float(self.n0_delta)
        need = next(h for h in range(m + 1) if h / m >= threshold)
        chance, n = 1.0, start
        while n < n0:
            chance *= 1 - oracles.reach_probability(m, self.window(n, self.n0_eps), need)
            n *= 2
        if n != n0:
            return f"wrong output: n0={n0} is not on the doubling ladder", 0
        chance *= oracles.reach_probability(m, self.window(n0, self.n0_eps), need)
        if chance < oracles.IMPLAUSIBLE:
            return f"wrong output: n0={n0} has probability {chance:.3g}", 0
        return None, m * (2 * n0 - start)

    def _check_game(self, op):
        painted: Painted = op.truth
        cells = painted.width * painted.height
        draws = op.params["draws"]
        with open(op.params["out"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["label"]) for r in rows] != sorted(painted.label_counts):
            return "wrong output: label rows", 0
        if sum(int(r["count"]) for r in rows) != draws:
            return "wrong output: counts do not sum to the draws", 0
        for row in rows:
            law = Fraction(painted.label_counts[int(row["label"])], cells)
            if float(row["law_prob"]) != float(law):
                return f"wrong output: law_prob {row['law_prob']} is not {law}", 0
            if not oracles.draw_count_plausible(int(row["count"]), draws, law):
                return f"wrong output: count {row['count']} for law {law}", 0
        return None, draws


WORKLOADS = {cls.name: cls for cls in (Reassemble, Ambiguous, Integrate, Probability)}
