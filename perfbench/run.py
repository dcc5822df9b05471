"""Benchmark of factlaw's four experiment workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reassemble --seed 1 --seconds 30 --trace 0

One process runs one workload: it generates the inputs from ``--seed`` (set-up,
timed several times), runs one untimed warm-up cycle, then runs ops in a
closed loop with one client for ``--seconds`` seconds, whole cycles of op
kinds at a time.  Each op is one in-process call to ``factlaw.cli.run`` and
its output is checked against the benchmark's own ground truth.  Between ops,
outside the timed interval, the harness collects garbage and times fixed
pure-Python loops (``calibrate``).  Reported times are calibrated: each is
scaled by ``CALIB_REFERENCE_MS`` over the loops' time measured around it (see
``calibrated``), so that the whole machine running slower or faster moves
them less.  The record keeps the run's median loop time as ``calib_ms``.

``--trace 1`` spends the first half of the time untraced and the second half
with span wrappers installed (see ``tracing.py``), and reports per-layer
metrics plus the tracing overhead.  ``--smoke`` runs toy sizes in seconds.

Standard output ends with a table of every metric, the full record as one
JSON line, and the summary line: the metrics that ``BENCHMARK.json`` lists
for this trace mode.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("reassemble", "ambiguous", "integrate", "probability")
SETUP_REPEATS = 9
CALIB_WINDOW = 9
# Reported times are those of a machine whose calibration loops take this long
# (a 2-core 2.0 GHz virtual machine running CPython 3.11, when lightly loaded).
CALIB_REFERENCE_MS = 1.5
SCHEMA = 1


def _arithmetic() -> None:
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003


def _tuple_dict() -> None:
    table = {}
    for i in range(6_000):
        table[(i & 255, i >> 8)] = str(i)
    sum(len(table[key]) for key in sorted(table))


def _set_index() -> None:
    index: dict[int, set] = {}
    for x in range(48):
        for y in range(48):
            index.setdefault((x * 7 + y) % 13, set()).add((x, y))
    sorted(index.values(), key=len)


def calibrate() -> float:
    """Geometric mean of the seconds taken by three fixed pure-Python loops.

    One loop is arithmetic; the others build and walk dicts of tuples and
    sets, as factlaw does.  Together they slow down with the machine about
    as much as the workloads do; the arithmetic loop alone slows down less.
    """
    product = 1.0
    for loop in (_arithmetic, _tuple_dict, _set_index):
        start = time.perf_counter()
        loop()
        product *= time.perf_counter() - start
    return product ** (1 / 3)


def import_program():
    """Import factlaw from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "factlaw" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no factlaw sources under {src}")
    sys.path.insert(0, str(src))
    import factlaw

    if Path(factlaw.__file__).resolve().parent != (src / "factlaw").resolve():
        raise SystemExit(f"perfbench: imported factlaw from {factlaw.__file__}")


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


@dataclass
class Sample:
    kind: str
    raw: float  # measured seconds
    calib: float  # calibration loop seconds measured just before the op
    failure: str | None
    units: int
    seconds: float = 0.0  # calibrated seconds, see calibrated()


def calibrated(raw: list[float], calib: list[float]) -> list[float]:
    """Scale each interval by the machine's speed around it.

    The speed is the rolling median of the calibration times measured next to
    the interval, so that a machine running slower for a while as a whole
    moves the reported times less.
    """
    half = CALIB_WINDOW // 2
    return [
        value * CALIB_REFERENCE_MS / (median(calib[max(0, i - half): i + half + 1]) * 1e3)
        for i, value in enumerate(raw)
    ]


class Harness:
    def __init__(self, workload, recorder=None):
        import factlaw.cli

        self.cli = factlaw.cli
        self.workload = workload
        self.recorder = recorder

    def run_op(self, op, op_id: int) -> Sample:
        gc.collect()
        calib = calibrate()
        recorder = self.recorder
        if recorder is not None:
            recorder.op, recorder.kind = op_id, op.kind
            recorder.returns.clear()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            status = self.cli.run(op.command, None, op.params)
            seconds = time.perf_counter() - start
        failure, units = self.workload.check(op, status, stderr.getvalue())
        if recorder is not None:
            recorder.op = recorder.kind = None
            if failure is None:
                failure = self.workload.check_traced(op, recorder.returns)
            recorder.returns.clear()
        return Sample(op.kind, seconds, calib, failure, units if failure is None else 0)

    def run_ops(self, phase: str, seconds: float) -> list[Sample]:
        """Whole cycles of op kinds until ``seconds`` have passed (at least one)."""
        samples: list[Sample] = []
        start = time.perf_counter()
        while True:
            for _ in self.workload.kinds:
                index = len(samples)
                samples.append(self.run_op(self.workload.op(index, phase), index))
            if time.perf_counter() - start >= seconds:
                break
        times = calibrated([s.raw for s in samples], [s.calib for s in samples])
        for sample, value in zip(samples, times):
            sample.seconds = value
        return samples

    def setup(self, repeats: int) -> list[float]:
        """Calibrated seconds of each of ``repeats`` set-ups."""
        raw, calib = [], []
        for _ in range(repeats):
            gc.collect()
            calib.append(calibrate())
            start = time.perf_counter()
            self.workload.setup()
            raw.append(time.perf_counter() - start)
        return calibrated(raw, calib)


def cycle_p50(samples: list[Sample], kinds: int) -> float:
    """Median over cycles of the mean op latency within a cycle, in ms.

    A cycle runs each op kind once.  The median over single ops would sit on
    the gap between two op kinds and jump between their extremes from run to
    run; a cycle's mean op latency is what one round of the workload costs.
    """
    return median(
        mean(s.seconds for s in samples[i:i + kinds]) for i in range(0, len(samples), kinds)
    ) * 1e3


def end_to_end(workload, samples, setup_times) -> dict[str, tuple[float, str]]:
    latencies = [s.seconds for s in samples]
    verified = sum(1 for s in samples if s.failure is None)
    out = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (verified / sum(latencies), "1/s"),
        "op_p50_ms": (cycle_p50(samples, len(workload.kinds)), "ms"),
        "fail_ratio": ((len(samples) - verified) / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # Ten samples lie beyond the 90th percentile only from 100 ops on.
    if len(samples) >= 100:
        out["op_p90_ms"] = (quantiles(latencies, n=10)[8] * 1e3, "ms")
    if workload.throughput is not None:
        name, unit, kinds = workload.throughput
        chosen = [s for s in samples if s.kind in kinds]
        out[name] = (sum(s.units for s in chosen) / sum(s.seconds for s in chosen), unit)
    return out


def by_kind(samples) -> dict[str, dict]:
    kinds: dict[str, list[Sample]] = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s)
    return {
        kind: {"ops": len(group),
               "p50_ms": median(s.seconds for s in group) * 1e3,
               "failed": sum(1 for s in group if s.failure is not None)}
        for kind, group in kinds.items()
    }


def run(args) -> tuple[dict, dict]:
    import tracing
    import workloads

    os.environ.pop("FPL_JOBS", None)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        harness = Harness(workload)
        setup_times = harness.setup(SETUP_REPEATS)
        warmup = harness.run_ops("warmup", 0)
        timed_seconds = args.seconds / 2 if args.trace else args.seconds
        samples = harness.run_ops("timed", timed_seconds)
        traced: list = []
        recorder = None
        if args.trace:
            recorder = tracing.Recorder()
            uninstall = recorder.install()
            try:
                harness.recorder = recorder
                harness.setup(1)
                traced = harness.run_ops("traced", timed_seconds)
            finally:
                uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calib = median(s.calib for s in warmup + samples + traced)
    metrics = end_to_end(workload, samples, setup_times)
    attempted = samples + traced
    failures: dict[str, int] = {}
    for s in attempted:
        if s.failure is not None:
            failures[s.failure] = failures.get(s.failure, 0) + 1
    correct = all(s.failure is None or s.failure in workload.known_failures
                  for s in warmup + attempted)
    if args.trace:
        scale = CALIB_REFERENCE_MS / (calib * 1e3)
        layer = tracing.layer_metrics(recorder.spans, len(traced), scale)
        traced_p50 = cycle_p50(traced, len(workload.kinds))
        layer["trace.overhead_ms"] = (traced_p50 - metrics["op_p50_ms"][0], "ms")
        if workload.known_failures:
            for name, failure in (("false_negatives", workloads.FALSE_NEGATIVE),
                                  ("budget_exhausted", workloads.BUDGET_EXHAUSTED)):
                count = sum(1 for s in traced if s.failure == failure)
                layer[f"puzzle.search.{name}"] = (count, "count")
        metrics.update(layer)
        spans = scratch / "spans"
        spans.mkdir(exist_ok=True)
        recorder.write(spans / f"{args.workload}-seed{args.seed}.jsonl")
    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "workload_seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calib_ms": calib * 1e3,
        "threads": threading.active_count(),
        "ops": len(samples),
        "traced_ops": len(traced),
        "attempted": len(attempted),
        "failed": sum(1 for s in attempted if s.failure is not None),
        "correct": correct,
        "failures": failures,
        "kinds": by_kind(samples),
        # Every timed op as [kind, measured ms, calibration-loop ms].
        "op_times": [[s.kind, round(s.raw * 1e3, 4), round(s.calib * 1e3, 4)] for s in samples],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return record, metrics


def summary(record: dict, metrics: dict, trace: int) -> dict:
    """The result line: exactly the metrics BENCHMARK.json lists for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: run produced no value for {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for a quick check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    record, metrics = run(args)
    result = summary(record, metrics, args.trace)
    for name, entry in record["metrics"].items():
        print(f"{args.workload:12s} {name:52s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
