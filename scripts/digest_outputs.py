"""One sha256 over the documents and manifests of a fixed set of CLI runs.

    python3 scripts/digest_outputs.py

Run from any directory with any supported interpreter; it needs only the
standard library and the ``src`` tree beside this script.  It writes a
painting spec and a hidden form into a fresh temporary directory, then runs
``gen-painting``, ``play-puzzle`` (location, border, and border with three
replicas), ``play-prob-game``, ``integrate`` and ``end-to-end`` there at fixed
seeds, each as ``python -m factlaw`` with relative paths, so no manifest
carries the directory.  It hashes every file the runs leave, each manifest
without its ``wall_clock_s``, and prints the one sum.  Outputs are meant to
be byte-identical for fixed seeds on every interpreter, so the sum must equal
``EXPECTED``; otherwise the script lists each file's digest on stderr and
exits 1.  A change that alters an output on purpose updates ``EXPECTED`` and
says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

EXPECTED = "1f2239884f600ca943d3e58db807f7094e09180163db9bf530f420d976868bda"

SPEC = {
    "width": 12,
    "height": 12,
    "q": 3,
    "label_counts": {"1": 72, "2": 48, "3": 24},
    "uniqueness_mode": "unique-interior-edges",
    "seed": 7,
}
FORM_SPEC = dict(
    SPEC, width=8, height=8, label_counts={"1": 40, "2": 16, "3": 8}, seed=5
)

RUNS = (
    ["gen-painting", "--spec", "spec.json", "--out", "painting.json"],
    ["play-puzzle", "--painting", "painting.json", "--mode", "location",
     "--seed", "3", "--report", "location.json"],
    ["play-puzzle", "--painting", "painting.json", "--mode", "border",
     "--seed", "3", "--report", "border.json"],
    ["play-puzzle", "--painting", "painting.json", "--mode", "border",
     "--replicas", "3", "--seed", "4", "--report", "replicas.json"],
    ["play-prob-game", "--painting", "painting.json", "--draws", "2000",
     "--seed", "5", "--out", "frequencies.csv"],
    ["integrate", "--form", "form.json", "--seed", "1", "--out", "integrate.json"],
    ["end-to-end", "--form", "form.json", "--draws", "2000", "--seed", "9",
     "--tolerance", "1/10", "--out", "end_to_end.json"],
)


def write_inputs(workdir: Path) -> None:
    """The spec and the hidden form the runs read; no command writes a form."""
    sys.path.insert(0, str(SRC))
    from factlaw.integration import generate_hidden_form
    from factlaw.painting import PaintingSpec
    from factlaw.serialize import dump_json

    dump_json(SPEC, workdir / "spec.json")
    form = generate_hidden_form(PaintingSpec.from_doc(FORM_SPEC))
    dump_json(form.to_doc(), workdir / "form.json")


def file_bytes(path: Path) -> bytes:
    if not path.name.endswith(".manifest.json"):
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["wall_clock_s"]
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("ascii")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix="factlaw-digest-") as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        for argv in RUNS:
            done = subprocess.run(
                [sys.executable, "-m", "factlaw", *argv],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            if done.returncode != 0:
                command = " ".join(argv)
                sys.stderr.write(f"{command}: exit {done.returncode}\n{done.stderr}")
                return 1
        total = hashlib.sha256()
        lines = []
        for path in sorted(workdir.iterdir()):
            content = file_bytes(path)
            total.update(path.name.encode("ascii") + b"\0" + content + b"\0")
            lines.append(f"{hashlib.sha256(content).hexdigest()}  {path.name}\n")
    digest = total.hexdigest()
    print(digest)
    if digest != EXPECTED:
        sys.stderr.write("".join(lines))
        version = sys.version.split()[0]
        sys.stderr.write(f"expected {EXPECTED}, Python {version} gave {digest}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
