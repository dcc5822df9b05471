"""Run every workload, untraced and traced, and print every metric by name.

Every workload in ``metrics.json`` runs, including those ``BENCHMARK.json``
does not gate.

    python3 perfbench/suite.py [--seed 1] [--seconds 20] [--smoke] [--out BENCH.json]

Each run is its own process (``run.py``), one after another.  The table lists
every metric of every workload with its unit; ``--out`` writes all run
records, which share one schema, to a JSON file.  Exits non-zero if any run
fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, trace: int, args) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-2])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write every run record to this JSON file")
    args = parser.parse_args(argv)

    records = []
    catalogue = json.loads((HERE / "metrics.json").read_text())
    for workload in (w["name"] for w in catalogue["workloads"]):
        for trace in (0, 1):
            record = run_one(workload, trace, args)
            records.append(record)
            print(f"# {workload} trace={trace} ops={record['ops']}"
                  f" traced_ops={record['traced_ops']} failed={record['failed']}"
                  f"/{record['attempted']} correct={record['correct']}"
                  f" calib_ms={record['calib_ms']:.3f} failures={record['failures']}")
            for name, entry in record["metrics"].items():
                print(f"{workload:12s} {trace} {name:52s} {entry['value']:14.6g} {entry['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
