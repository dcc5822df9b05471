"""One sha256 over the documents and manifests of a fixed set of CLI runs.

    python3 scripts/digest_outputs.py

Run from any directory with any supported interpreter; it needs only the
standard library and the ``src`` tree beside this script.  It writes a
painting spec, a hidden form, a probability space and two ``lln`` config
files into a fresh temporary directory, then runs every command there at
fixed seeds: ``gen-painting``, ``play-puzzle`` (location, border, and border
with three replicas), ``play-prob-game``, ``validate-space``, ``lln`` in both
operations (``meta-probability`` from ``weights`` and ``find-n0`` from the
painting, each through ``--config``), ``integrate`` and ``end-to-end``.  Each
is ``python -m factlaw`` with relative paths, so no manifest carries the
directory.  It then runs ``reproduce`` on every manifest the runs wrote and
exits 1 unless each prints ``reproduce: pass``.  It hashes every file in the
directory, each manifest without its ``wall_clock_s``, and prints the one
sum.  Outputs are meant to be byte-identical for fixed seeds on every
interpreter, so the sum must equal ``EXPECTED``; otherwise the script lists
each file's digest on stderr and exits 1.  A change that alters an output on
purpose updates ``EXPECTED`` and says why.

``EXPECTED`` was ``1f223988...868bda`` while the script covered only the
first seven runs.  Adding ``validate-space`` and the two ``lln`` runs added
their inputs, documents and manifests to the sum, so it was pinned again;
the files of the first seven runs did not change.  It was
``08dc9075...588385`` until paintings and hidden forms were written as
columns: that changed ``painting.json``, ``form.json`` and the digests of
them that the manifests hold, and no other file.
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

EXPECTED = "433b380f2eb1dbfdbfc8de41d69c2e6a5dcf83cd6d1fa1fb493dde874563ce8e"

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
SPACE = {
    "universe": ["a", "b", "c"],
    "law": {"a": "1/2", "b": "1/3", "c": "1/6"},
    "algebra_generators": [["a"], ["b", "c"]],
}
LLN_CONFIGS = {
    "lln_weights.config.json": {
        "operation": "meta-probability", "weights": [3, 2, 1], "label": 1,
        "epsilon": "1/10", "n_draws": 30, "repetitions": 50, "seed": 11,
        "out": "lln_weights.json",
    },
    "lln_painting.config.json": {
        "operation": "find-n0", "painting": "painting.json", "label": 2,
        "epsilon": "1/10", "delta": "1/10", "repetitions": 50, "seed": 12,
        "out": "lln_painting.json",
    },
}

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
    ["validate-space", "--space", "space.json", "--out", "space_report.json"],
    ["lln", "--config", "lln_weights.config.json"],
    ["lln", "--config", "lln_painting.config.json"],
    ["integrate", "--form", "form.json", "--seed", "1", "--out", "integrate.json"],
    ["end-to-end", "--form", "form.json", "--draws", "2000", "--seed", "9",
     "--tolerance", "1/10", "--out", "end_to_end.json"],
)


def write_inputs(workdir: Path) -> None:
    """The files the runs read that no command writes: the painting spec,
    the hidden form, the space and the ``lln`` configs."""
    sys.path.insert(0, str(SRC))
    from factlaw.integration import generate_hidden_form
    from factlaw.painting import PaintingSpec
    from factlaw.serialize import dump_json

    dump_json(SPEC, workdir / "spec.json")
    form = generate_hidden_form(PaintingSpec.from_doc(FORM_SPEC))
    dump_json(form.to_doc(), workdir / "form.json")
    dump_json(SPACE, workdir / "space.json")
    for name, params in LLN_CONFIGS.items():
        dump_json({"command": "lln", "params": params}, workdir / name)


def file_bytes(path: Path) -> bytes:
    if not path.name.endswith(".manifest.json"):
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["wall_clock_s"]
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("ascii")


def run_factlaw(argv: list[str], workdir: Path) -> str | None:
    """Run ``python -m factlaw argv`` in ``workdir``; its stdout, or None
    after reporting a nonzero exit on stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "factlaw", *argv],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        command = " ".join(argv)
        sys.stderr.write(f"{command}: exit {done.returncode}\n{done.stderr}")
        return None
    return done.stdout


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="factlaw-digest-") as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        for argv in RUNS:
            if run_factlaw(argv, workdir) is None:
                return 1
        manifests = sorted(workdir.glob("*.manifest.json"))
        if len(manifests) != len(RUNS):
            sys.stderr.write(f"{len(RUNS)} runs wrote {len(manifests)} manifests\n")
            return 1
        for manifest in manifests:
            stdout = run_factlaw(["reproduce", "--manifest", manifest.name], workdir)
            if stdout is None:
                return 1
            if not stdout.endswith("reproduce: pass\n"):
                sys.stderr.write(f"reproduce {manifest.name}:\n{stdout}")
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
