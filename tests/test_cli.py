import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from factlaw import (
    AMBIGUOUS_EDGES,
    Board,
    Description,
    PaintingSpec,
    Piece,
    Tile,
    generate_painting,
    painting_from_doc,
    painting_to_doc,
)
from factlaw import puzzle
from factlaw.cli import _COMMANDS, main, run
from factlaw.integration import HiddenForm, generate_hidden_form
from factlaw.serialize import (
    dump_json,
    fraction_to_str,
    load_json,
    sha256_of_doc,
    sha256_of_file,
)

from conftest import REFERENCE_SPEC

# Child interpreters import the library from ``src`` of this checkout.
SRC_ENV = dict(
    os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")
)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    dump_json(REFERENCE_SPEC.to_doc(), str(path))
    return str(path)


@pytest.fixture()
def painting_file(tmp_path, spec_file):
    path = tmp_path / "painting.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def form_file(tmp_path, reference_form):
    path = tmp_path / "form.json"
    dump_json(reference_form.to_doc(), str(path))
    return str(path)


def read_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def assert_config_error(code, capsys):
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


# --- gen-painting -----------------------------------------------------------


def test_gen_painting_writes_painting_and_manifest(
    tmp_path, spec_file, reference_painting
):
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(out)]) == 0
    assert painting_from_doc(load_json(str(out))) == reference_painting
    manifest = load_json(str(out) + ".manifest.json")
    assert manifest["command"] == "gen-painting"
    assert manifest["inputs"] == {spec_file: sha256_of_file(spec_file)}
    assert manifest["outputs"] == {str(out): sha256_of_file(str(out))}
    assert manifest["seeds"] == [7]


def test_gen_painting_is_bitwise_deterministic(tmp_path, spec_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(a)]) == 0
    assert main(["gen-painting", "--spec", spec_file, "--out", str(b)]) == 0
    assert sha256_of_file(str(a)) == sha256_of_file(str(b))


def test_gen_painting_seed_flag_overrides_spec(tmp_path, spec_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(a)]) == 0
    assert (
        main(["gen-painting", "--spec", spec_file, "--out", str(b), "--seed", "8"])
        == 0
    )
    assert load_json(str(a)) != load_json(str(b))


def test_gen_painting_without_any_seed_is_a_config_error(tmp_path, capsys):
    doc = REFERENCE_SPEC.to_doc()
    del doc["seed"]
    spec = tmp_path / "seedless.json"
    dump_json(doc, str(spec))
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", str(spec), "--out", str(out)]) == 2
    record = read_error(capsys)
    assert record["error"] == "config"
    assert not out.exists()


def test_gen_painting_missing_spec_file_is_a_runtime_error(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = main(
        ["gen-painting", "--spec", str(tmp_path / "nope.json"), "--out", str(out)]
    )
    assert code == 1
    assert read_error(capsys)["error"] == "runtime"


# --- play-puzzle ------------------------------------------------------------


def test_play_puzzle_border_game(tmp_path, painting_file):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "play-puzzle",
            "--painting",
            painting_file,
            "--mode",
            "border",
            "--seed",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = load_json(str(report_path))
    assert report["completed_replicas"] == 1
    assert report["placements"] == report["trials"] == 100
    assert report["board_sizes"] == [{"width": 10, "height": 10, "pieces": 100}]
    assert report["mode"] == "border"
    assert (tmp_path / "report.json.manifest.json").exists()


def test_play_puzzle_multi_replica(tmp_path, painting_file):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "play-puzzle",
            "--painting",
            painting_file,
            "--mode",
            "border",
            "--replicas",
            "3",
            "--seed",
            "4",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = load_json(str(report_path))
    assert report["completed_replicas"] == 3
    assert report["placements"] == 300


def test_play_puzzle_location_rejects_replicas(tmp_path, painting_file, capsys):
    code = main(
        [
            "play-puzzle",
            "--painting",
            painting_file,
            "--mode",
            "location",
            "--replicas",
            "2",
            "--seed",
            "1",
            "--report",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    assert read_error(capsys)["error"] == "config"


@pytest.mark.parametrize(
    "mode, replicas", [("border", 1), ("border", 3), ("location", 1)]
)
def test_play_puzzle_builds_no_object_per_cell(tmp_path, monkeypatch, mode, replicas):
    # The games run on the painting's columns: tiles, fragments, pieces and
    # boards are views, built only when something reads them.
    spec = PaintingSpec(16, 16, 3, {1: 128, 2: 96, 3: 32}, seed=5)
    painting = tmp_path / "painting.json"
    dump_json(painting_to_doc(generate_painting(spec)), str(painting))
    built = Counter()
    for cls in (Tile, Description, Piece, Board):
        def counted(self, post_init=cls.__post_init__):
            built[type(self).__name__] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    report = tmp_path / "report.json"
    params = {"painting": str(painting), "mode": mode, "replicas": replicas,
              "seed": 2, "report": str(report)}
    assert run("play-puzzle", overrides=params) == 0
    assert load_json(str(report))["completed_replicas"] == replicas
    assert built == Counter()


def test_location_op_builds_the_grid_positions_once(tmp_path, monkeypatch):
    # A painting's location pool holds its grid's row-major positions, and
    # the game lays its board out by them rather than building them again.
    spec = PaintingSpec(16, 16, 3, {1: 128, 2: 96, 3: 32}, seed=5)
    painting = tmp_path / "painting.json"
    dump_json(painting_to_doc(generate_painting(spec)), str(painting))
    calls = []

    def counted(width, height, positions=puzzle.row_major_positions):
        calls.append((width, height))
        return positions(width, height)

    monkeypatch.setattr(puzzle, "row_major_positions", counted)
    report = tmp_path / "report.json"
    params = {"painting": str(painting), "mode": "location", "seed": 2,
              "report": str(report)}
    assert run("play-puzzle", overrides=params) == 0
    assert load_json(str(report))["completed_replicas"] == 1
    assert calls == [(16, 16)]


# --- play-prob-game ---------------------------------------------------------


def test_prob_game_csv_columns_and_law(tmp_path, painting_file):
    out = tmp_path / "freq.csv"
    code = main(
        [
            "play-prob-game",
            "--painting",
            painting_file,
            "--draws",
            "200",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "count", "rel_freq", "law_prob", "abs_diff"]
    body = rows[1:]
    assert [r[0] for r in body] == ["1", "2", "3"]
    assert sum(int(r[1]) for r in body) == 200
    assert [r[3] for r in body] == ["0.6", "0.3", "0.1"]
    for _, count, rel_freq, law_prob, abs_diff in body:
        assert float(abs_diff) == pytest.approx(
            abs(float(rel_freq) - float(law_prob))
        )


def test_prob_game_csv_is_deterministic(tmp_path, painting_file):
    args = ["play-prob-game", "--painting", painting_file, "--draws", "500", "--seed", "6"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert sha256_of_file(str(a)) == sha256_of_file(str(b))


def test_prob_game_json_format_uses_rationals(tmp_path, painting_file):
    out = tmp_path / "freq.json"
    code = main(
        [
            "play-prob-game",
            "--painting",
            painting_file,
            "--draws",
            "200",
            "--seed",
            "5",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = load_json(str(out))
    assert doc["n_draws"] == 200
    rels = [Fraction(r["rel_freq"]) for r in doc["rows"]]
    assert sum(rels) == 1
    assert [r["law_prob"] for r in doc["rows"]] == ["3/5", "3/10", "1/10"]


# --- validate-space ---------------------------------------------------------


def test_validate_space_passes_and_prints_to_stdout(tmp_path, capsys):
    space = tmp_path / "space.json"
    # A JSON float weight reads as the decimal it shows, so 0.1 + 0.2 + 0.7
    # sums to exactly 1.
    for law in (
        {"1": "3/5", "2": "3/10", "3": "1/10"},
        {"1": 0.1, "2": 0.2, "3": 0.7},
    ):
        dump_json({"universe": [1, 2, 3], "law": law}, str(space))
        assert main(["validate-space", "--space", str(space)]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["passed"] is True
        assert doc["events"] == 8


def test_algebras_far_past_a_machine_word_are_counted_not_listed(tmp_path, capsys):
    # An algebra is held as its blocks.  A q = 24 painting's label algebra
    # and the default singleton algebras on 24, 100 and 1,200 atoms hold
    # 2^n events; none is listed, 2^100 is past what len() returns, and
    # 1,200 blocks are more than a recursive count could take.
    counts = dict.fromkeys(range(1, 25), 2)
    counts[1] += 16
    painting = generate_painting(PaintingSpec(8, 8, 24, counts, seed=3))
    path = tmp_path / "painting.json"
    dump_json(painting_to_doc(painting), str(path))
    argv = ["play-prob-game", "--painting", str(path), "--draws", "1000"]
    assert main(argv + ["--seed", "5", "--out", str(tmp_path / "freq.csv")]) == 0
    space = tmp_path / "space.json"
    for n in (24, 100, 1200):
        law = {str(e): f"1/{n}" for e in range(n)}
        dump_json({"universe": list(range(n)), "law": law}, str(space))
        assert main(["validate-space", "--space", str(space)]) == 0
        assert json.loads(capsys.readouterr().out)["events"] == 2**n


def test_validate_space_fails_on_short_norm(tmp_path):
    space = tmp_path / "space.json"
    dump_json(
        {"universe": [1, 2], "law": {"1": "3/5", "2": "3/10"}}, str(space)
    )
    out = tmp_path / "report.json"
    assert main(["validate-space", "--space", str(space), "--out", str(out)]) == 1
    doc = load_json(str(out))
    assert doc["passed"] is False
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert "norm" in failed


def test_validate_space_rejects_malformed_file(tmp_path, capsys):
    space = tmp_path / "space.json"
    dump_json({"universe": [1], "law": {"9": 1}}, str(space))
    assert main(["validate-space", "--space", str(space)]) == 2
    assert read_error(capsys)["error"] == "config"


HALVES = {"1": "1/2", "2": "1/2"}


@pytest.mark.parametrize(
    "doc",
    [
        {"universe": [1, 2], "law": {"1": "1/0", "2": "1/2"}},
        {"universe": [1, 2], "law": HALVES, "algebra_generators": [[3]]},
        {"universe": [1, 2], "law": HALVES, "algebra_generators": "12"},
        {"universe": [1, 1], "law": {"1": "1/1"}},
        {"universe": [], "law": {}},
        {"universe": [1, 2], "law": ["1/2", "1/2"]},
    ],
    ids=["zero-denominator", "foreign-generator", "generators-string", "duplicate",
         "empty", "law-list"],
)
def test_validate_space_malformed_space_is_a_config_error(tmp_path, capsys, doc):
    space = tmp_path / "space.json"
    dump_json(doc, str(space))
    assert_config_error(main(["validate-space", "--space", str(space)]), capsys)


def test_validate_space_failed_check_is_reported_on_stderr(tmp_path, capsys):
    space = tmp_path / "space.json"
    dump_json({"universe": [1, 2], "law": {"1": "1/2", "2": "1/3"}}, str(space))
    assert main(["validate-space", "--space", str(space)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == "check"


# --- lln --------------------------------------------------------------------


def lln_config(tmp_path, **params):
    path = tmp_path / "lln.json"
    dump_json({"command": "lln", "params": params}, str(path))
    return str(path)


def test_lln_meta_probability_from_config(tmp_path):
    out = tmp_path / "mp.json"
    config = lln_config(
        tmp_path,
        operation="meta-probability",
        weights=[1, 1],
        label=1,
        target="1/2",
        epsilon="1/20",
        n_draws=256,
        repetitions=40,
        seed=9,
        out=str(out),
    )
    assert main(["lln", "--config", config]) == 0
    doc = load_json(str(out))
    assert doc["operation"] == "meta-probability"
    assert 0.0 <= doc["estimate"] <= 1.0
    assert doc["epsilon"] == "1/20"
    assert (tmp_path / "mp.json.manifest.json").exists()


def test_lln_needs_painting_xor_weights(tmp_path, painting_file, capsys):
    both = lln_config(
        tmp_path,
        operation="meta-probability",
        painting=painting_file,
        weights=[1, 1],
        label=1,
        epsilon="1/10",
        n_draws=16,
        repetitions=4,
        seed=0,
    )
    assert main(["lln", "--config", both]) == 2
    neither = lln_config(
        tmp_path,
        operation="meta-probability",
        label=1,
        epsilon="1/10",
        n_draws=16,
        repetitions=4,
        seed=0,
    )
    assert main(["lln", "--config", neither]) == 2


def test_lln_find_n0_certifies(tmp_path):
    out = tmp_path / "n0.json"
    config = lln_config(
        tmp_path,
        operation="find-n0",
        weights=[1, 1],
        label=1,
        target="1/2",
        epsilon="1/10",
        delta=0.05,
        repetitions=200,
        seed=43,
        out=str(out),
    )
    assert main(["lln", "--config", config]) == 0
    doc = load_json(str(out))
    assert doc["n0"] == 128
    assert doc["delta"] == "1/20"


def test_lln_target_defaults_to_the_sampled_law(tmp_path, painting_file):
    out = tmp_path / "mp.json"
    config = lln_config(
        tmp_path,
        operation="meta-probability",
        painting=painting_file,
        label=1,
        epsilon="1/10",
        n_draws=128,
        repetitions=30,
        seed=3,
        out=str(out),
    )
    assert main(["lln", "--config", config]) == 0
    assert load_json(str(out))["target"] == "3/5"


LLN_META = {
    "operation": "meta-probability",
    "weights": [1, 1],
    "label": 1,
    "epsilon": "1/10",
    "n_draws": 16,
    "repetitions": 4,
    "seed": 0,
    "jobs": 1,
}
LLN_N0 = dict(LLN_META, operation="find-n0", delta="1/10", cap=64)
del LLN_N0["n_draws"]


@pytest.mark.parametrize(
    "base, change",
    [
        (LLN_META, {"epsilon": "1/0"}),
        (LLN_META, {"n_draws": 0}),
        (LLN_META, {"repetitions": -1}),
        (LLN_N0, {"repetitions": 0}),
        (LLN_META, {"label": 3}),
        (LLN_N0, {"label": 0}),
        (LLN_META, {"weights": [0, 0]}),
        (LLN_META, {"weights": [-1, 2]}),
        # a total that overflows the sampler's float arithmetic
        pytest.param(LLN_META, {"weights": [10**400, 1]}, id="weights=[10**400, 1]"),
        (LLN_META, {"epsilon": 0}),
        (LLN_N0, {"delta": 0}),
        (LLN_N0, {"delta": "1/1"}),
        (LLN_N0, {"delta": 1.5}),
        (LLN_N0, {"start": 0}),
        (LLN_N0, {"start": 32, "cap": 16}),
        (LLN_META, {"jobs": 2}),
        (LLN_META, {"jobs": True}),
    ],
    ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items())
    if "operation" not in case
    else case["operation"],
)
def test_lln_out_of_range_arguments_are_config_errors(capsys, base, change):
    assert_config_error(run("lln", None, dict(base, **change)), capsys)


def test_lln_jobs_key_of_one_changes_nothing():
    with_key = one_run("lln", LLN_META)
    assert with_key[0] == 0
    assert with_key == one_run("lln", dict(LLN_META, jobs=None))


# --- integrate and end-to-end -----------------------------------------------


def test_integrate_recovers_law_via_cli(tmp_path, form_file):
    out = tmp_path / "law.json"
    code = main(
        ["integrate", "--form", form_file, "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    doc = load_json(str(out))
    assert doc["law"] == {"1": "3/5", "2": "3/10", "3": "1/10"}
    assert doc["n_phi_total"] == 100
    assert doc["replicas_used_for_confirmation"] == 3
    manifest = load_json(str(out) + ".manifest.json")
    assert manifest["inputs"] == {form_file: sha256_of_file(form_file)}


def test_integrate_budget_exhaustion_is_a_runtime_error(tmp_path, form_file, capsys):
    code = main(
        [
            "integrate",
            "--form",
            form_file,
            "--seed",
            "1",
            "--max-events",
            "10",
            "--out",
            str(tmp_path / "law.json"),
        ]
    )
    assert code == 1
    record = read_error(capsys)
    assert record["type"] == "BudgetExhausted"


# A 3-cell strip whose middle cell shows "a001" on its W and E sides: copies
# of that one event chain into a longer strip that closes, so a stream of it
# at seed 1005 with one replica integrates to a 7-cell law, {1: 1/7, 2: 6/7}.
AMBIGUOUS_STRIP = PaintingSpec(3, 1, 2, {1: 1, 2: 2}, AMBIGUOUS_EDGES, 5)


@pytest.mark.parametrize(
    "argv", [["integrate"], ["end-to-end", "--draws", "10"]], ids=" ".join
)
def test_form_with_a_repeated_signature_is_refused(tmp_path, capsys, argv):
    form = tmp_path / "strip.json"
    dump_json(generate_hidden_form(AMBIGUOUS_STRIP).to_doc(), str(form))
    out = tmp_path / "o.json"
    argv = argv + ["--form", str(form), "--seed", "1005", "--confirm", "1",
                   "--out", str(out)]
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert str(form) in record["message"] and "'a001'" in record["message"]
    assert not out.exists()


SMALL_SHAPES = [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (2, 3), (2, 2)]


@st.composite
def small_ambiguous_forms(draw):
    width, height = draw(st.sampled_from(SMALL_SHAPES), label="shape")
    cells = width * height
    q = draw(st.integers(1, min(3, cells - 1)), label="q")
    cuts = sorted(draw(st.sets(st.integers(1, cells - 1), min_size=q - 1,
                               max_size=q - 1), label="cuts"))
    bounds = [0, *cuts, cells]
    counts = {j: bounds[j] - bounds[j - 1] for j in range(1, q + 1)}
    seed = draw(st.integers(0, 2**31), label="seed")
    return generate_hidden_form(
        PaintingSpec(width, height, q, counts, AMBIGUOUS_EDGES, seed)
    )


@settings(max_examples=60, deadline=None)
@given(form=small_ambiguous_forms(), k=st.integers(1, 3), seed=st.integers(0, 2**31))
def test_integrate_never_passes_a_wrong_law(form, k, seed):
    with tempfile.TemporaryDirectory() as scratch:
        path, out = Path(scratch, "form.json"), Path(scratch, "law.json")
        dump_json(form.to_doc(), str(path))
        code, _, err = one_run("integrate", {"form": str(path), "seed": seed,
                                             "confirm": k, "out": str(out)})
        assert_one_error_line_per_failure(code, err)
        if code == 0:
            law = {str(r): fraction_to_str(p)
                   for r, p in form.normalized_histogram().items()}
            assert load_json(str(out))["law"] == law


@pytest.mark.parametrize("fault", ["repeated", "missing", "empty"])
def test_form_without_exact_grid_cover_is_a_config_error(
    tmp_path, capsys, reference_form, fault
):
    doc = reference_form.to_doc()
    if fault == "empty":
        doc = dict(doc, width=0, height=0, labels=[], rp=[], edges=[])
    for key in ("labels", "rp", "edges"):
        if fault == "repeated":  # the first cell again, after the last
            doc[key].append(doc[key][0])
        elif fault == "missing":
            del doc[key][-1]
    form = tmp_path / "form.json"
    dump_json(doc, str(form))
    argv = ["integrate", "--form", str(form), "--seed", "1", "--out", str(tmp_path / "o.json")]
    assert_config_error(main(argv), capsys)
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv", [["integrate"], ["end-to-end", "--draws", "10"]], ids=" ".join
)
def test_form_label_too_large_for_a_range_is_a_config_error(
    tmp_path, capsys, reference_form, argv
):
    doc = reference_form.to_doc()
    doc["labels"][0] = 10**30
    form = tmp_path / "form.json"
    dump_json(doc, str(form))
    out = tmp_path / "o.json"
    extra = required_args(argv[0], None, str(form), str(out))
    assert_config_error(main(argv + extra), capsys)
    assert not out.exists()


@pytest.mark.parametrize("form_id", ["", 7, None], ids=("empty", "int", "null"))
def test_tile_form_id_that_is_not_a_nonempty_string_is_a_config_error(
    tmp_path, capsys, painting_file, form_id
):
    doc = load_json(painting_file)
    doc["forms"][0] = form_id
    painting = tmp_path / "bad-painting.json"
    dump_json(doc, str(painting))
    report = tmp_path / "o.json"
    extra = required_args("play-puzzle", str(painting), None, str(report))
    assert_config_error(main(["play-puzzle", "--mode", "border"] + extra), capsys)
    assert not report.exists()


def test_end_to_end_within_tolerance(tmp_path, form_file):
    out = tmp_path / "e2e.json"
    code = main(
        [
            "end-to-end",
            "--form",
            form_file,
            "--draws",
            "20000",
            "--seed",
            "99",
            "--tolerance",
            "1/100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = load_json(str(out))
    assert doc["within_tolerance"] is True
    assert doc["law"] == {"1": "3/5", "2": "3/10", "3": "1/10"}


def test_end_to_end_reads_a_decimal_tolerance_exactly(tmp_path, form_file):
    out = tmp_path / "e2e.json"
    code = main(["end-to-end", "--form", form_file, "--draws", "2000",
                 "--seed", "1", "--tolerance", "0.01", "--out", str(out)])
    assert code in (0, 1)
    assert load_json(str(out))["tolerance"] == "1/100"


def test_end_to_end_tolerance_gate_fails_loudly(tmp_path, form_file):
    out = tmp_path / "e2e.json"
    # 777 draws cannot hit 3/5 exactly, so a sub-ppb tolerance must fail.
    code = main(
        [
            "end-to-end",
            "--form",
            form_file,
            "--draws",
            "777",
            "--seed",
            "1",
            "--tolerance",
            "1/1000000000",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert load_json(str(out))["within_tolerance"] is False


def test_end_to_end_negative_tolerance_is_a_config_error(tmp_path, form_file, capsys):
    # No result can pass a negative bound; a bound of 0 stays a valid gate.
    out = tmp_path / "e2e.json"
    argv = ["end-to-end", "--form", form_file, "--draws", "10", "--seed", "1",
            "--out", str(out), "--tolerance"]
    assert_config_error(main(argv + ["-1"]), capsys)
    assert not out.exists()
    assert main(argv + ["0"]) in (0, 1)
    assert load_json(str(out))["tolerance"] == "0/1"


# --- config plumbing --------------------------------------------------------


def required_args(command, painting, form, out):
    return {
        "play-puzzle": ["--painting", painting, "--seed", "1", "--report", out],
        "play-prob-game": ["--painting", painting, "--seed", "1", "--out", out],
        "integrate": ["--form", form, "--seed", "1", "--out", out],
        "end-to-end": ["--form", form, "--seed", "1", "--out", out],
    }[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["play-puzzle", "--mode", "border", "--replicas", "0"],
        ["play-puzzle", "--mode", "border", "--trial-budget", "0"],
        ["play-puzzle", "--mode", "border", "--trial-budget", "-5"],
        ["integrate", "--confirm", "0"],
        ["integrate", "--max-events", "0"],
        ["play-prob-game", "--draws", "-5"],
        ["play-prob-game", "--draws", "0"],
        ["end-to-end", "--draws", "-1"],
        ["end-to-end", "--draws", "0"],
    ],
    ids=" ".join,
)
def test_out_of_range_counts_are_config_errors(
    tmp_path, painting_file, form_file, capsys, argv
):
    out = tmp_path / "out.json"
    extra = required_args(argv[0], painting_file, form_file, str(out))
    assert_config_error(main(argv + extra), capsys)
    assert not out.exists()


# A 2 x 1 grid that is both a valid painting and a valid hidden form; each
# fault in MALFORMED_INPUTS below that starts from it breaks one thing.
STRIP = {
    "width": 2, "height": 1, "q": 1, "s_prime": 20,
    "forms": ["cf_a", "cf_b"], "labels": [1, 1], "rp": [1, 2],
    "edges": [["B", "s", "B", "B"], ["B", "B", "B", "s"]],
}


def strip_with(**changes):
    return json.dumps(dict(STRIP, **changes))


def strip_in_rows():
    """The strip in the old row format: one object per cell with its x and y."""
    cells = [{"x": i + 1, "y": 1, "label": 1, "edges": dict(zip("nesw", edges))}
             for i, edges in enumerate(STRIP["edges"])]
    head = {key: STRIP[key] for key in ("width", "height", "q", "s_prime")}
    return json.dumps(dict(
        head,
        tiles=[dict(cell, form=form) for cell, form in zip(cells, STRIP["forms"])],
        cells=[dict(cell, rp=rp) for cell, rp in zip(cells, STRIP["rp"])],
    ))


def test_the_strip_is_a_valid_painting_and_form():
    # So each fault in MALFORMED_INPUTS that starts from it is the only one.
    doc = json.loads(strip_with())
    assert painting_from_doc(doc).tiles[1].edge_sigs == ("B", "B", "B", "s")
    assert HiddenForm.from_doc(doc).label_counts == {1: 2}


MALFORMED_INPUTS = {
    "not-json": "{nope",
    "list": "[1, 2]",
    "tiles-only": '{"tiles": []}',
    "width-only": '{"width": 4}',
    "wrong-types": strip_with(width=2, height=2, s_prime=1, label_counts=[4],
                              forms=7, labels=7, rp=7, edges=7),
    # A painting and a form of one cell each that claim 2**40 x 2**40: the
    # count is refused before a grid of that size is allocated.
    "huge-grid": strip_with(width=2**40, height=2**40, forms=["cf"], labels=[1],
                            rp=[1], edges=[["B", "B", "B", "B"]]),
    "row-format": strip_in_rows(),
    "short-column": strip_with(labels=[1]),
    # Read entry by entry, the string's characters would make two labels 1.
    "column-not-a-list": strip_with(labels="11"),
    # edge_tuple alone would read the object's keys, and the string's
    # characters, as four signatures.
    "edges-object": strip_with(edges=[{"B": 1, "s": 2, "t": 3, "u": 4},
                                      ["B", "B", "B", "s"]]),
    "edges-string": strip_with(edges=["BsBB", ["B", "B", "B", "s"]]),
}
# command -> (the parameter naming its input file, the other parameters)
INPUT_RUNS = {
    "gen-painting": ("spec", {"seed": 1, "out": "out.json"}),
    "play-puzzle": ("painting", {"mode": "border", "seed": 1, "report": "out.json"}),
    "play-prob-game": ("painting", {"draws": 10, "seed": 1, "out": "out.csv"}),
    "validate-space": ("space", {}),
    "lln": ("painting", dict(LLN_META, weights=None)),
    "integrate": ("form", {"seed": 1, "out": "out.json"}),
    "end-to-end": ("form", {"draws": 10, "seed": 1}),
}


@pytest.mark.parametrize("text", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
@pytest.mark.parametrize("command", INPUT_RUNS)
def test_malformed_input_file_is_a_config_error(
    tmp_path, monkeypatch, capsys, command, text
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.json"
    path.write_text(text)
    key, params = INPUT_RUNS[command]
    assert_config_error(run(command, None, dict(params, **{key: str(path)})), capsys)
    assert not list(tmp_path.glob("out.*"))


# A 3x3 spec whose hidden form has a cell with rp 1.
TINY_SPEC = PaintingSpec(3, 3, 2, {1: 6, 2: 3}, seed=2)
# file -> (the command that reads it, its other parameters)
INTEGER_FIELD_RUNS = {
    "spec": ("gen-painting", {"out": "out.json"}),
    "painting": ("play-puzzle", {"mode": "location", "seed": 1, "report": "out.json"}),
    "form": ("integrate", {"seed": 1, "out": "out.json"}),
}
# (file, field or column) -> the kinds tried: True where the field or a
# column entry holds 1, n + 0.5 where it holds n, and JSON's Infinity.  Each
# of them once read as a valid integer, or crashed.
WRONG_KIND_FIELDS = {
    ("spec", "width"): ("half", "infinity"),
    ("spec", "seed"): ("half", "infinity"),
    ("painting", "q"): ("half", "infinity"),
    ("painting", "labels"): ("true", "half", "infinity"),
    ("form", "s_prime"): ("half", "infinity"),
    ("form", "labels"): ("true", "half", "infinity"),
    ("form", "rp"): ("true", "half", "infinity"),
}


@pytest.mark.parametrize(
    "file, field, kind",
    [
        pytest.param(file, field, kind, id=f"{file}-{field}-{kind}")
        for (file, field), kinds in WRONG_KIND_FIELDS.items()
        for kind in kinds
    ],
)
def test_integer_field_of_the_wrong_kind_is_a_config_error(
    tmp_path, monkeypatch, capsys, file, field, kind
):
    monkeypatch.chdir(tmp_path)
    doc = {
        "spec": TINY_SPEC.to_doc(),
        "painting": painting_to_doc(generate_painting(TINY_SPEC)),
        "form": generate_hidden_form(TINY_SPEC).to_doc(),
    }[file]
    # In a column, change the first entry that holds 1.
    entries, at = doc, field
    if isinstance(doc[field], list):
        entries, at = doc[field], doc[field].index(1)
    n = entries[at]
    assert kind != "true" or n == 1
    entries[at] = {"true": True, "half": n + 0.5, "infinity": float("inf")}[kind]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    command, params = INTEGER_FIELD_RUNS[file]
    assert_config_error(run(command, None, dict(params, **{file: str(path)})), capsys)
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("signature", [[1], {"a": 1}, 7], ids=("list", "object", "int"))
@pytest.mark.parametrize(
    "file, command",
    [
        ("painting", ["play-puzzle", "--mode", "border"]),
        ("form", ["integrate"]),
        ("form", ["end-to-end", "--draws", "10"]),
    ],
    ids=("painting", "form-integrate", "form-end-to-end"),
)
def test_edge_signature_that_is_not_a_string_is_a_config_error(
    tmp_path, capsys, file, command, signature
):
    # Both sides of one seam carry the signature, so it matches itself.
    doc = {
        "painting": painting_to_doc(generate_painting(TINY_SPEC)),
        "form": generate_hidden_form(TINY_SPEC).to_doc(),
    }[file]
    # Cells (1, 1) and (2, 1) are the first two entries of the edges column.
    doc["edges"][0][1] = doc["edges"][1][3] = signature
    path = tmp_path / f"{file}.json"
    dump_json(doc, str(path))
    out = tmp_path / "o.json"
    extra = required_args(command[0], str(path), str(path), str(out))
    assert_config_error(main(command + extra), capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["play-puzzle", "--replicas", "x"],
        ["integrate", "--bogus"],
        ["lln", "--jobs", "2"],
        ["validate-space", "--space", "s.json", "--seed", "1"],
        ["reproduce"],
        [],
    ],
    ids=" ".join,
)
def test_bad_command_line_is_a_config_error(capsys, argv):
    assert_config_error(main(argv), capsys)


def test_validate_space_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate-space", "--help"])
    assert exc.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def flag_of(key):
    return "--" + key.replace("_", "-")


SMALL_SPEC = PaintingSpec(4, 3, 2, {1: 7, 2: 5}, seed=11)
# command -> a value, as a config file holds it, for every key that has a flag
FLAG_VALUES = {
    "gen-painting": {"spec": "spec.json", "seed": 9, "out": "out.json"},
    "play-puzzle": {"painting": "painting.json", "mode": "border", "replicas": 2,
                    "seed": 3, "report": "out.json", "trial_budget": 500},
    "play-prob-game": {"painting": "painting.json", "draws": 50, "seed": 5,
                       "out": "out.json", "format": "json"},
    "validate-space": {"space": "space.json", "out": "out.json"},
    "lln": {"seed": 4, "out": "out.json"},
    "integrate": {"form": "form.json", "seed": 1, "confirm": 2, "max_events": 10**5,
                  "out": "out.json"},
    "end-to-end": {"form": "form.json", "draws": 50, "seed": 9, "confirm": 2,
                   "max_events": 10**5, "tolerance": 0.1, "out": "out.json"},
}
FLAGGED_KEYS = [
    pytest.param(name, key, id=f"{name} {flag_of(key)}")
    for name, command in _COMMANDS.items()
    for key, (_, _, text) in command.keys.items()
    if text is not None
]


def write_flag_inputs():
    """Write the input files that FLAG_VALUES names to the working directory."""
    dump_json(SMALL_SPEC.to_doc(), "spec.json")
    dump_json(painting_to_doc(generate_painting(SMALL_SPEC)), "painting.json")
    dump_json(generate_hidden_form(SMALL_SPEC).to_doc(), "form.json")
    dump_json({"universe": [1, 2], "law": HALVES}, "space.json")


def flag_config(command):
    """FLAG_VALUES[command] as a config; lln gets its config-only keys too."""
    config_only = {k: v for k, v in LLN_META.items() if k != "seed"}
    return dict(config_only if command == "lln" else {}, **FLAG_VALUES[command])


@pytest.mark.parametrize("command, key", FLAGGED_KEYS)
def test_flag_and_config_key_write_the_same_manifest(
    tmp_path, monkeypatch, command, key
):
    monkeypatch.chdir(tmp_path)
    write_flag_inputs()
    values = flag_config(command)
    manifest = Path(values[_COMMANDS[command].out] + ".manifest.json")

    def params_and_hash(params, argv):
        dump_json(params, "config.json")
        manifest.unlink(missing_ok=True)
        assert main([command, "--config", "config.json", *argv]) == 0
        doc = load_json(manifest)
        return doc["params"], doc["config_hash"]

    from_config = params_and_hash(values, [])
    rest = {k: v for k, v in values.items() if k != key}
    from_flag = params_and_hash(rest, [flag_of(key), str(values[key])])
    assert from_flag == from_config


# sha256 of the manifests that test_manifest_format_is_pinned writes, each
# without its wall_clock_s.  They hold the digests of the inputs and outputs
# too, so any change to a manifest field or to an output document moves it.
MANIFESTS_SHA256 = "feb292bea05bc57b047f14940de94ba40fcb34cb75f643bc0b04cb0402c24445"


def test_manifest_format_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_flag_inputs()
    manifests = {}
    for command in FLAG_VALUES:
        dump_json(flag_config(command), "config.json")
        assert main([command, "--config", "config.json"]) == 0
        manifest = load_json("out.json.manifest.json")
        del manifest["wall_clock_s"]
        manifests[command] = manifest
    assert sha256_of_doc(manifests) == MANIFESTS_SHA256


def test_lln_help_lists_no_config_only_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lln", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    config_only = [k for k, (_, _, h) in _COMMANDS["lln"].keys.items() if h is None]
    assert len(config_only) == 12
    for key in config_only:
        assert flag_of(key) not in text
    assert "--seed" in text and "--out" in text


def test_cli_import_loads_no_process_pool():
    code = "import sys, factlaw.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    dump_json({"command": "lln", "params": {"bogus": 1}}, str(config))
    assert main(["lln", "--config", str(config)]) == 2
    assert "bogus" in read_error(capsys)["message"]


def test_config_for_wrong_command_is_rejected(tmp_path, form_file, capsys):
    config = tmp_path / "c.json"
    dump_json({"command": "lln", "params": {}}, str(config))
    assert main(["integrate", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "change", [{"n_draws": 100.7}, {"repetitions": True}, {"epsilon": True}]
)
def test_config_values_are_not_coerced(tmp_path, capsys, change):
    config = lln_config(tmp_path, **dict(LLN_META, **change))
    assert_config_error(main(["lln", "--config", config]), capsys)


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "1.0", "str"])
def test_config_schema_version_must_be_the_int_1(
    tmp_path, spec_file, capsys, version
):
    config, out = tmp_path / "c.json", tmp_path / "p.json"
    doc = {"schema_version": version, "spec": spec_file, "out": str(out)}
    dump_json(doc, str(config))
    assert_config_error(main(["gen-painting", "--config", str(config)]), capsys)
    assert not out.exists()


def test_broken_config_json_is_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("{not json")
    assert main(["lln", "--config", str(config)]) == 2
    assert read_error(capsys)["error"] == "config"


# file kind -> how to make it at a path.  Each once crashed with a traceback.
UNDECODABLE_FILES = {
    "not-utf8": lambda path: path.write_bytes(b"\xff\xfe{"),
    "directory": lambda path: path.mkdir(),
    "nested-too-deep": lambda path: path.write_text("[" * 100_000),
}
# route -> the command line that reads the file at PATH
UNDECODABLE_ROUTES = {
    "config": ["gen-painting", "--config", "PATH"],
    "manifest": ["reproduce", "--manifest", "PATH"],
    "input": ["gen-painting", "--spec", "PATH", "--out", "out.json"],
}


@pytest.mark.parametrize("make", UNDECODABLE_FILES.values(), ids=UNDECODABLE_FILES)
@pytest.mark.parametrize("route", UNDECODABLE_ROUTES)
def test_undecodable_file_is_a_config_error(tmp_path, monkeypatch, capsys, route, make):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "f.json"
    make(path)
    argv = [str(path) if a == "PATH" else a for a in UNDECODABLE_ROUTES[route]]
    assert_config_error(main(argv), capsys)
    assert not (tmp_path / "out.json").exists()


# --- config fuzz ------------------------------------------------------------

# Values of the wrong kind for any key.  Floats stay small because an integral
# float is a valid count, and a count sets how long a run takes.
JUNK = st.one_of(
    st.booleans(),
    st.floats(-50, 50),
    st.sampled_from([float("nan"), float("inf"), "1/0", "x", "", [], {}, [1, "a"]]),
)


def mostly(valid):
    """Draws from ``valid``, with one draw in eight of the wrong kind instead."""
    return st.integers(0, 7).flatmap(lambda roll: JUNK if roll == 0 else valid)


def fraction_text(low, high):
    return st.fractions(low, high, max_denominator=9).map(
        lambda f: f"{f.numerator}/{f.denominator}"
    )


def one_run(command, params):
    """Run one command in-process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(command, None, params)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line_per_failure(code, err):
    assert code in (0, 1, 2)
    lines = err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("check", "runtime", "config")


LLN_PARAMS = st.fixed_dictionaries(
    {
        "operation": mostly(st.sampled_from(["meta-probability", "find-n0"])),
        "weights": mostly(st.lists(st.integers(-1, 3), max_size=3)),
        "label": mostly(st.integers(0, 3)),
        "epsilon": mostly(fraction_text(-1, 1) | st.floats(-1, 1)),
        "repetitions": mostly(st.integers(-1, 4)),
        # cap is always set: the default ladder runs to 2**20 draws.
        "cap": mostly(st.integers(-1, 64)),
        "seed": mostly(st.integers(-3, 3)),
    },
    optional={
        "target": mostly(fraction_text(-1, 2) | st.integers(-1, 2)),
        "n_draws": mostly(st.integers(-1, 30)),
        "delta": mostly(fraction_text(-1, 2) | st.floats(-1, 2)),
        "start": mostly(st.integers(-1, 40)),
        "jobs": mostly(st.integers(-1, 1)),
        "bogus": st.integers(),
    },
)


@settings(max_examples=60, deadline=None)
@given(params=LLN_PARAMS)
def test_lln_config_fuzz(params):
    code, _, err = one_run("lln", params)
    assert_one_error_line_per_failure(code, err)


@st.composite
def space_docs(draw):
    element = st.integers(0, 3) | st.sampled_from(["a", "b"])
    universe = draw(mostly(st.lists(element, min_size=1, max_size=4)))
    members = universe if isinstance(universe, list) and universe else [0]
    weight = mostly(fraction_text(-1, 2) | st.integers(-1, 2))
    law = {str(e): draw(weight) for e in members}
    law.update(draw(st.dictionaries(st.sampled_from(["2", "z"]), weight, max_size=1)))
    doc = {"universe": universe, "law": draw(mostly(st.just(law)))}
    generator = st.lists(mostly(st.sampled_from(members)), max_size=3)
    generators = draw(st.none() | mostly(st.lists(mostly(generator), max_size=3)))
    if generators is not None:
        doc["algebra_generators"] = generators
    dropped = draw(st.sampled_from([None, None, "universe", "law"]))
    doc.pop(dropped, None)
    return draw(mostly(st.just(doc)))


@settings(max_examples=60, deadline=None)
@given(doc=space_docs())
def test_validate_space_config_fuzz(doc):
    with tempfile.TemporaryDirectory() as scratch:
        space = Path(scratch) / "space.json"
        space.write_text(json.dumps(doc))
        code, _, err = one_run("validate-space", {"space": str(space)})
    assert_one_error_line_per_failure(code, err)


# --- reproduce --------------------------------------------------------------


def test_reproduce_passes_on_faithful_rerun(tmp_path, spec_file, capsys):
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["reproduce", "--manifest", str(out) + ".manifest.json"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert f"input {spec_file}: ok" in lines
    assert f"output {out}: ok" in lines
    assert lines[-1] == "reproduce: pass"


def test_reproduce_detects_corrupted_artifact(tmp_path, spec_file, capsys):
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(out)]) == 0
    manifest_path = str(out) + ".manifest.json"
    manifest = load_json(manifest_path)
    manifest["outputs"][str(out)] = "0" * 64
    dump_json(manifest, manifest_path)
    capsys.readouterr()
    code = main(["reproduce", "--manifest", manifest_path])
    assert code == 1
    text = capsys.readouterr().out
    assert "DIGEST MISMATCH" in text
    assert text.strip().splitlines()[-1] == "reproduce: fail"


def test_reproduce_detects_changed_input(tmp_path, spec_file, capsys):
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(out)]) == 0
    doc = load_json(spec_file)
    doc["seed"] = 1234
    dump_json(doc, spec_file)
    capsys.readouterr()
    code = main(["reproduce", "--manifest", str(out) + ".manifest.json"])
    assert code == 1
    text = capsys.readouterr().out
    assert f"input {spec_file}: CHANGED" in text


def test_reproduce_missing_manifest(tmp_path, capsys):
    assert main(["reproduce", "--manifest", str(tmp_path / "no.json")]) == 1
    assert read_error(capsys)["error"] == "runtime"


def test_reproduce_refuses_an_input_that_is_not_a_file(tmp_path, spec_file, capsys):
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(out)]) == 0
    manifest_path = str(out) + ".manifest.json"
    manifest = load_json(manifest_path)
    manifest["inputs"] = {str(tmp_path): "0" * 64}
    dump_json(manifest, manifest_path)
    capsys.readouterr()
    assert_config_error(main(["reproduce", "--manifest", manifest_path]), capsys)


UNKNOWN_COMMAND_MANIFEST = json.dumps({
    "command": "nope", "params": {}, "config_hash": "", "seeds": [],
    "artifact_version": "0", "inputs": {}, "outputs": {}, "wall_clock_s": 0,
})


@pytest.mark.parametrize(
    "text",
    ["{]", "[1, 2]", UNKNOWN_COMMAND_MANIFEST],
    ids=["not-json", "list", "unknown-command"],
)
def test_reproduce_rejects_broken_manifest(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["reproduce", "--manifest", str(path)]) == 2
    assert read_error(capsys)["error"] == "config"


@pytest.mark.parametrize(
    "version", [99, None, True, 1.0], ids=["99", "absent", "true", "1.0"]
)
def test_reproduce_reads_schema_version_as_config_does(
    tmp_path, spec_file, capsys, version
):
    out = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(out)]) == 0
    manifest_path = str(out) + ".manifest.json"
    manifest = load_json(manifest_path)
    if version is None:
        del manifest["schema_version"]
    else:
        manifest["schema_version"] = version
    dump_json(manifest, manifest_path)
    capsys.readouterr()
    code = main(["reproduce", "--manifest", manifest_path])
    if version is None:
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "reproduce: pass"
    else:
        assert_config_error(code, capsys)


def test_reproduce_refuses_outputs_without_the_primary_output(
    tmp_path, spec_file, capsys
):
    # Unless the outputs name it, the re-run would write the user's own file.
    painting = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(painting)]) == 0
    manifest_path = str(painting) + ".manifest.json"
    manifest = load_json(manifest_path)
    manifest["outputs"] = {}
    dump_json(manifest, manifest_path)
    painting.write_bytes(b"not the painting\n")
    capsys.readouterr()
    assert_config_error(main(["reproduce", "--manifest", manifest_path]), capsys)
    assert painting.read_bytes() == b"not the painting\n"


@pytest.mark.parametrize("out", [["x"], {"a": 1}], ids=["list", "object"])
def test_reproduce_rejects_manifest_params_the_command_does_not_take(
    tmp_path, spec_file, capsys, out
):
    painting = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(painting)]) == 0
    manifest_path = str(painting) + ".manifest.json"
    manifest = load_json(manifest_path)
    manifest["params"]["out"] = out
    dump_json(manifest, manifest_path)
    capsys.readouterr()
    assert_config_error(main(["reproduce", "--manifest", manifest_path]), capsys)


@pytest.mark.parametrize("field", ["params", "inputs", "outputs"])
def test_reproduce_refuses_a_manifest_field_that_is_not_an_object(
    tmp_path, spec_file, capsys, field
):
    # --config refuses params given as a list of pairs; so must a manifest.
    painting = tmp_path / "p.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(painting)]) == 0
    manifest_path = str(painting) + ".manifest.json"
    manifest = load_json(manifest_path)
    manifest[field] = [list(pair) for pair in manifest[field].items()]
    dump_json(manifest, manifest_path)
    capsys.readouterr()
    assert_config_error(main(["reproduce", "--manifest", manifest_path]), capsys)


# --- installed entry point --------------------------------------------------


def test_console_script_roundtrip(tmp_path, spec_file):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "factlaw", "gen-painting", "--spec", spec_file,
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    inproc = tmp_path / "q.json"
    assert main(["gen-painting", "--spec", spec_file, "--out", str(inproc)]) == 0
    assert sha256_of_file(str(out)) == sha256_of_file(str(inproc))


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for command in (
        "gen-painting",
        "play-puzzle",
        "play-prob-game",
        "validate-space",
        "lln",
        "integrate",
        "end-to-end",
        "reproduce",
    ):
        assert command in text
