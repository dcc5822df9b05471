"""Every narrative demo runs to the end against the library in ``src``,
with warnings turned into errors as in the tests, and prints exactly the
pinned text: each demo's stdout has one sha256 on every supported
interpreter.  ``scripts/digest_outputs.py`` holds the CLI's documents and
manifests to their one pinned sum in the same way."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_views_and_descriptions.py":
        "652cafb80036a35f0d9c1acb50b0cb076df7c0e4781b29590fcf707854c3140b",
    "02_painting_and_puzzles.py":
        "4d8b259b49f6a9716dc2c4cc34d15559e53d2ade8d1cabc8d25c4ca9d8e5e763",
    "03_probability_game.py":
        "7d6ec8c851e2a23e37eaba1e48d7af8d98ad4fdaa75cc9fbbda73b66ec35ff4d",
    "04_meta_probability.py":
        "d492d1923bb03ec9502b0be63234ccec6409969446663957cac8d7d64ec17f8c",
    "05_semantic_integration.py":
        "6ef856c806e1385afe14250afa9aeb5c5067178c865052527111c115b4a5afcf",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], proc.stdout


def test_cli_outputs_match_their_pinned_digest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digest_outputs.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
