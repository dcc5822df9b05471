"""Experiment runner: every game and check behind one reproducible CLI.

Commands: gen-painting, play-puzzle, play-prob-game, validate-space, lln,
integrate, end-to-end, reproduce.  All randomness flows from explicit seeds
(a run without one fails validation), results are written as canonical JSON
or CSV, and every file-producing run also writes a RunManifest recording
input/output digests so `reproduce` can re-run it and diff byte-for-byte.

Each command is declared once, in ``_COMMANDS``: its parameter table, its
output key and its worker.  Config validation, the argument parser and
`reproduce` all read that table, so a new parameter is one table line, and
it gets its ``--flag`` from there unless its help is None (config-only).

Exit codes: 0 success, 1 failed check or runtime error, 2 config error.
A bad flag, an out-of-range count and an input file that does not parse are
config errors; a missing input file is a runtime error.  Every non-zero exit
writes one JSON line to stderr, whose "error" field is "check", "runtime" or
"config".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn

from . import __version__
from .integration import (
    HiddenForm,
    IntegrationConfig,
    complexified_phenomenon,
    end_to_end_check,
    integrate as run_integration,
)
from .painting import PaintingSpec, generate_painting, painting_from_doc, painting_to_doc
from .phenomenon import (
    RandomPhenomenon,
    compare_law,
    factual_space_from_painting,
    probabilise_painting,
    run_frequency_experiment,
)
from .prob import (
    Measure,
    Universe,
    find_N0,
    generate_algebra,
    meta_probability,
    validate_measure,
)
from .puzzle import FragmentPool, solve_by_borders, solve_by_location
from .serialize import (
    canonical_dumps,
    dump_json,
    fraction_to_str,
    load_json,
    read_int,
    read_number,
    sha256_of_doc,
    sha256_of_file,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """The run configuration is invalid; nothing was executed."""


class MissingInput(Exception):
    """A file referenced by a manifest or config does not exist."""


class CheckFailed(Exception):
    """The command ran to the end, and a check it reports on did not pass."""


# --- configuration ----------------------------------------------------------


def _as_str(value: Any, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _as_choice(options: tuple[str, ...]) -> Callable[[Any, str], str]:
    def cast(value: Any, key: str) -> str:
        if value not in options:
            raise ValueError(f"{key} must be one of {options}, got {value!r}")
        return value

    return cast


def _as_int_in(low: int, high: int | None = None) -> Callable[[Any, str], int]:
    def cast(value: Any, key: str) -> int:
        number = read_int(value, key)
        if number < low or (high is not None and number > high):
            bound = f">= {low}" if high is None else f"from {low} to {high}"
            raise ValueError(f"{key} must be an integer {bound}, got {value!r}")
        return number

    return cast


def _as_int_list(value: Any, key: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key} must be a non-empty list of integers")
    return [read_int(v, key) for v in value]


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, parameter table, output key and worker.

    ``keys`` maps each parameter to (caster, required, help).  A key whose
    help is None is config-only; every other key is also the flag ``--key``
    (``_`` written ``-``).  The caster is the one conversion rule for a flag
    and a config file alike; it raises ``ValueError`` on a bad value, which
    validation reports as a ConfigError.
    """

    help: str
    out: str  # the key naming the primary output file
    worker: Callable[[Mapping[str, Any]], tuple]
    keys: Mapping[str, tuple[Callable[[Any, str], Any], bool, str | None]]


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated parameter block for one command."""

    command: str
    params: Mapping[str, Any]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version!r}"
            )
        command = _COMMANDS.get(self.command)
        if command is None:
            raise ConfigError(f"unknown command {self.command!r}")
        params = dict(self.params)
        unknown = set(params) - set(command.keys)
        if unknown:
            raise ConfigError(f"unknown parameters for {self.command}: {sorted(unknown)}")
        validated = {}
        for key, (cast, required, _) in command.keys.items():
            if key in params and params[key] is not None:
                try:
                    validated[key] = cast(params[key], key)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
            elif required:
                raise ConfigError(f"{self.command} requires parameter {key!r}")
        object.__setattr__(self, "params", validated)


def load_config(
    command: str,
    config_path: str | None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentConfig:
    """Merge a JSON config file with CLI overrides and validate the result."""
    params: dict[str, Any] = {}
    schema_version = SCHEMA_VERSION
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        try:
            doc = load_json(config_path)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        if "params" in doc:
            if doc.get("command", command) != command:
                raise ConfigError(
                    f"config is for {doc.get('command')!r}, not {command!r}"
                )
            schema_version = doc.get("schema_version", SCHEMA_VERSION)
            body = doc["params"]
            if not isinstance(body, dict):
                raise ConfigError("config params must be a JSON object")
            params.update(body)
        else:
            schema_version = doc.pop("schema_version", SCHEMA_VERSION)
            params.update(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            params[key] = value
    return ExperimentConfig(command, params, schema_version)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run a command and diff its outputs."""

    command: str
    params: Mapping[str, Any]
    config_hash: str
    seeds: tuple[int, ...]
    artifact_version: str
    inputs: Mapping[str, str]
    outputs: Mapping[str, str]
    wall_clock_s: float
    schema_version: int = SCHEMA_VERSION

    def to_doc(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "params": _jsonable_params(self.params),
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            "artifact_version": self.artifact_version,
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "wall_clock_s": self.wall_clock_s,
            "schema_version": self.schema_version,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "RunManifest":
        if doc["command"] not in _COMMANDS:
            raise ValueError(f"unknown command {doc['command']!r}")
        return cls(
            command=doc["command"],
            params=dict(doc["params"]),
            config_hash=doc["config_hash"],
            seeds=tuple(doc["seeds"]),
            artifact_version=doc["artifact_version"],
            inputs=dict(doc["inputs"]),
            outputs=dict(doc["outputs"]),
            wall_clock_s=doc["wall_clock_s"],
            schema_version=doc.get("schema_version", SCHEMA_VERSION),
        )


def _jsonable_params(params: Mapping[str, Any]) -> dict[str, Any]:
    return {
        key: fraction_to_str(value) if isinstance(value, Fraction) else value
        for key, value in params.items()
    }


def _config_hash(command: str, params: Mapping[str, Any]) -> str:
    return sha256_of_doc({"command": command, "params": _jsonable_params(params)})


# --- command workers --------------------------------------------------------
#
# Each worker returns (exit_status, outputs, inputs, seeds) where outputs and
# inputs map paths to digests.


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise MissingInput(f"{what} not found: {path}")
    return path


def _load_input(
    path: str, what: str, parse: Callable[[Any], Any]
) -> tuple[Any, dict[str, str]]:
    """Read and parse one input file; return it with its path -> digest entry.

    A missing file is a runtime error (MissingInput); a file that is there but
    does not parse as ``what`` is a config error that names the file.
    """
    _require_file(path, what)
    try:
        parsed = parse(load_json(path))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(
            f"malformed {what} {path}: {type(exc).__name__}: {exc}"
        ) from None
    return parsed, {path: sha256_of_file(path)}


def _write_doc(doc: dict[str, Any], out: str | None) -> dict[str, str]:
    if out is None:
        sys.stdout.write(canonical_dumps(doc) + "\n")
        return {}
    dump_json(doc, out)
    return {out: sha256_of_file(out)}


def _cmd_gen_painting(params: Mapping[str, Any]):
    def parse(spec_doc: Any) -> PaintingSpec:
        if params.get("seed") is None and "seed" not in spec_doc:
            raise ConfigError("no seed: pass --seed or put one in the spec file")
        if params.get("seed") is not None:
            spec_doc = dict(spec_doc, seed=params["seed"])
        return PaintingSpec.from_doc(spec_doc)

    spec, inputs = _load_input(params["spec"], "painting spec", parse)
    painting = generate_painting(spec)
    outputs = _write_doc(painting_to_doc(painting), params["out"])
    return 0, outputs, inputs, (spec.seed,)


def _cmd_play_puzzle(params: Mapping[str, Any]):
    painting, inputs = _load_input(params["painting"], "painting", painting_from_doc)
    mode = params["mode"]
    replicas = params.get("replicas", 1)
    if mode == "location" and replicas != 1:
        raise ConfigError("the location game is a single-replica game")
    pool = FragmentPool.from_painting(
        painting, mode=mode, replicas=replicas, seed=params["seed"]
    )
    if mode == "location":
        report = solve_by_location(pool)
    else:
        report = solve_by_borders(pool, trial_budget=params.get("trial_budget"))
    doc = report.to_doc()
    doc.update({"mode": mode, "replicas": replicas, "seed": params["seed"]})
    outputs = _write_doc(doc, params["report"])
    return 0, outputs, inputs, (params["seed"],)


def _cmd_play_prob_game(params: Mapping[str, Any]):
    painting, inputs = _load_input(params["painting"], "painting", painting_from_doc)
    seed = params["seed"]
    phenomenon = probabilise_painting(painting, seed)
    table = run_frequency_experiment(phenomenon, params["draws"])
    law = factual_space_from_painting(painting).law
    gaps = compare_law(table, law).per_label
    rows = [
        {
            "label": label,
            "count": table.counts[label],
            "rel_freq": table.relative_frequency(label),
            "law_prob": law[label],
            "abs_diff": gaps[label],
        }
        for label in sorted(table.counts)
    ]
    ratios = ("rel_freq", "law_prob", "abs_diff")
    out = params["out"]
    if params.get("format", "csv") == "json":
        doc = {
            "n_draws": table.n_draws,
            "rows": [
                dict(r, **{key: fraction_to_str(r[key]) for key in ratios})
                for r in rows
            ],
        }
        outputs = _write_doc(doc, out)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["label", "count", *ratios])
        for r in rows:
            writer.writerow(
                [r["label"], r["count"], *(repr(float(r[key])) for key in ratios)]
            )
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(buffer.getvalue())
        outputs = {out: sha256_of_file(out)}
    return 0, outputs, inputs, (seed,)


def _space_from_doc(doc: Any):
    if not isinstance(doc, dict) or "universe" not in doc or "law" not in doc:
        raise ConfigError("space file needs 'universe' and 'law' entries")
    if not isinstance(doc["universe"], list):
        raise ConfigError("space universe must be a list")
    try:
        universe = Universe(tuple(doc["universe"]))
    except (TypeError, ValueError) as exc:  # unhashable, empty or duplicate
        raise ConfigError(f"bad space universe {doc['universe']!r}: {exc}") from None
    by_name = {str(e): e for e in universe.elements}
    if not isinstance(doc["law"], dict):
        raise ConfigError("space law must be an object of element -> weight")
    law = {}
    for key, value in doc["law"].items():
        if key not in by_name:
            raise ConfigError(f"law names unknown element {key!r}")
        law[by_name[key]] = read_number(value, f"law[{key}]")
    missing = [e for e in universe.elements if e not in law]
    if missing:
        raise ConfigError(f"law misses elements {missing!r}")
    generators = doc.get("algebra_generators")
    if generators is None:
        generator_sets = [{e} for e in universe.elements]
    else:
        if not isinstance(generators, list) or not all(
            isinstance(gen, list) for gen in generators
        ):
            raise ConfigError("algebra_generators must be a list of element lists")
        try:
            generator_sets = [
                {by_name[str(member)] for member in gen} for gen in generators
            ]
        except KeyError as exc:
            raise ConfigError(
                f"algebra generator names unknown element {exc}"
            ) from None
    algebra = generate_algebra(universe, generator_sets)
    return Measure(law), algebra


def _cmd_validate_space(params: Mapping[str, Any]):
    (measure, algebra), inputs = _load_input(
        params["space"], "space file", _space_from_doc
    )
    report = validate_measure(measure, algebra)
    doc = report.to_doc()
    doc["events"] = len(algebra)
    outputs = _write_doc(doc, params.get("out"))
    status = 0 if report.passed else 1
    return status, outputs, inputs, ()


def _lln_sampler(params: Mapping[str, Any], seed: int):
    has_painting = params.get("painting") is not None
    has_weights = params.get("weights") is not None
    if has_painting == has_weights:
        raise ConfigError("lln needs exactly one of 'painting' or 'weights'")
    if has_painting:
        painting, inputs = _load_input(
            params["painting"], "painting", painting_from_doc
        )
        sampler = probabilise_painting(painting, seed)
    else:
        weights = params["weights"]
        universe = Universe(tuple(range(1, len(weights) + 1)))
        try:
            sampler = RandomPhenomenon(
                "weighted-draw", universe, tuple(weights), seed=seed
            )
        except ValueError:
            raise ConfigError(
                "weights must be non-negative with a positive total that is a"
                f" finite float, got {weights!r}"
            ) from None
        inputs = {}
    return sampler, inputs


def _cmd_lln(params: Mapping[str, Any]):
    seed = params["seed"]
    operation = params["operation"]
    start, cap = params.get("start", 16), params.get("cap", 2**20)
    if params["epsilon"] <= 0:
        raise ConfigError("epsilon must be positive")
    if operation == "meta-probability":
        if "n_draws" not in params:
            raise ConfigError("meta-probability requires n_draws")
    else:
        if "delta" not in params:
            raise ConfigError("find-n0 requires delta")
        if not 0 < params["delta"] < 1:
            raise ConfigError("delta must lie strictly between 0 and 1")
        if start > cap:
            raise ConfigError("need start <= cap")
    sampler, inputs = _lln_sampler(params, seed)
    label = params["label"]
    if label not in sampler.universe:
        raise ConfigError(
            f"label {label!r} is not in the universe {sampler.universe.elements!r}"
        )
    target = params.get("target")
    if target is None:
        target = sampler.underlying_law()[label]
    epsilon = params["epsilon"]
    doc: dict[str, Any] = {
        "operation": operation,
        "label": label,
        "target": fraction_to_str(target),
        "epsilon": fraction_to_str(epsilon),
        "repetitions": params["repetitions"],
        "seed": seed,
    }
    if operation == "meta-probability":
        estimate = meta_probability(
            sampler,
            label,
            target,
            epsilon,
            params["n_draws"],
            params["repetitions"],
            seed,
        )
        doc.update({"n_draws": params["n_draws"], "estimate": estimate})
    else:
        n0 = find_N0(
            sampler,
            label,
            target,
            epsilon,
            float(params["delta"]),
            params["repetitions"],
            seed,
            start=start,
            cap=cap,
        )
        doc.update({"delta": fraction_to_str(params["delta"]), "n0": n0})
    outputs = _write_doc(doc, params.get("out"))
    return 0, outputs, inputs, (seed,)


def _integration_config(params: Mapping[str, Any]) -> IntegrationConfig:
    """The IntegrationConfig of the keys given; the others keep its defaults."""
    names = {"max_events": "max_events", "confirm": "confirmation_replicas"}
    return IntegrationConfig(
        **{names[key]: value for key, value in params.items() if key in names}
    )


def _cmd_integrate(params: Mapping[str, Any]):
    form, inputs = _load_input(params["form"], "hidden form", HiddenForm.from_doc)
    seed = params["seed"]
    config = _integration_config(params)
    result = run_integration(complexified_phenomenon(form, seed), config)
    outputs = _write_doc(result.to_doc(), params["out"])
    return 0, outputs, inputs, (seed,)


def _cmd_end_to_end(params: Mapping[str, Any]):
    form, inputs = _load_input(params["form"], "hidden form", HiddenForm.from_doc)
    seed = params["seed"]
    config = _integration_config(params)
    report = end_to_end_check(form, params["draws"], seed, config)
    doc = report.to_doc()
    status = 0
    tolerance = params.get("tolerance")
    if tolerance is not None:
        within = report.sup_distance <= tolerance
        doc["tolerance"] = fraction_to_str(tolerance)
        doc["within_tolerance"] = within
        status = 0 if within else 1
    outputs = _write_doc(doc, params.get("out"))
    return status, outputs, inputs, (seed,)


_SEED_HELP = "root seed (required unless configured)"

_COMMANDS: dict[str, Command] = {
    "gen-painting": Command(
        "generate a parcelled painting", "out", _cmd_gen_painting, {
            "spec": (_as_str, True, "painting spec JSON file"),
            # may come from the spec file instead
            "seed": (read_int, False, _SEED_HELP),
            "out": (_as_str, True, "output painting JSON path"),
        },
    ),
    "play-puzzle": Command(
        "reconstruct a painting from fragments", "report", _cmd_play_puzzle, {
            "painting": (_as_str, True, "painting JSON file"),
            "mode": (_as_choice(("location", "border")), True, "location or border"),
            "replicas": (_as_int_in(1), False, "painting replicas in the pool"),
            "seed": (read_int, True, _SEED_HELP),
            "report": (_as_str, True, "assembly report JSON path"),
            "trial_budget": (_as_int_in(1), False, "search trials: ambiguous pools, greedy refusals"),
        },
    ),
    "play-prob-game": Command(
        "draw-with-replacement frequencies", "out", _cmd_play_prob_game, {
            "painting": (_as_str, True, "painting JSON file"),
            "draws": (_as_int_in(1), True, "number of draws"),
            "seed": (read_int, True, _SEED_HELP),
            "out": (_as_str, True, "frequency table path (CSV by default)"),
            "format": (_as_choice(("csv", "json")), False, "csv or json"),
        },
    ),
    "validate-space": Command(
        "check measure axioms on a space file", "out", _cmd_validate_space, {
            "space": (_as_str, True, "probability space JSON file"),
            "out": (_as_str, False, "validation report JSON path (default: stdout)"),
        },
    ),
    "lln": Command(
        "meta-probability estimation and N0 search", "out", _cmd_lln, {
            "operation": (_as_choice(("meta-probability", "find-n0")), True, None),
            "painting": (_as_str, False, None),
            "weights": (_as_int_list, False, None),
            "label": (read_int, True, None),
            "target": (read_number, False, None),
            "epsilon": (read_number, True, None),
            "n_draws": (_as_int_in(1), False, None),
            "repetitions": (_as_int_in(1), True, None),
            "delta": (read_number, False, None),
            "start": (_as_int_in(1), False, None),
            "cap": (read_int, False, None),
            "seed": (read_int, True, _SEED_HELP),
            # lln runs in one process, so the only valid value is 1.
            "jobs": (_as_int_in(1, 1), False, None),
            "out": (_as_str, False, "report JSON path (default: stdout)"),
        },
    ),
    "integrate": Command(
        "recover the law from a complexified stream", "out", _cmd_integrate, {
            "form": (_as_str, True, "hidden form JSON file"),
            "seed": (read_int, True, _SEED_HELP),
            "confirm": (_as_int_in(1), False, "confirmation replicas K"),
            "max_events": (_as_int_in(1), False, "most events to read"),
            "out": (_as_str, True, "integration result JSON path"),
        },
    ),
    "end-to-end": Command(
        "integrated law vs fresh frequencies", "out", _cmd_end_to_end, {
            "form": (_as_str, True, "hidden form JSON file"),
            "draws": (_as_int_in(1), True, "number of fresh draws"),
            "seed": (read_int, True, _SEED_HELP),
            "confirm": (_as_int_in(1), False, "confirmation replicas K"),
            "max_events": (_as_int_in(1), False, "most events to read"),
            "tolerance": (read_number, False, "sup-distance bound, e.g. 1/100 or 0.01"),
            "out": (_as_str, False, "comparison report JSON path (default: stdout)"),
        },
    ),
}


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(canonical_dumps(record) + "\n")


def run(
    command: str,
    config_path: str | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> int:
    """Validate, dispatch, write outputs plus a manifest; return the exit code."""
    try:
        config = load_config(command, config_path, overrides)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    started = time.monotonic()
    try:
        status, outputs, inputs, seeds = _COMMANDS[command].worker(config.params)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except Exception as exc:
        _emit_error("runtime", exc)
        return 1
    if outputs:
        manifest = RunManifest(
            command=command,
            params=config.params,
            config_hash=_config_hash(command, config.params),
            seeds=tuple(seeds),
            artifact_version=__version__,
            inputs=inputs,
            outputs=outputs,
            wall_clock_s=round(time.monotonic() - started, 6),
        )
        primary_out = config.params.get(_COMMANDS[command].out)
        dump_json(manifest.to_doc(), str(primary_out) + ".manifest.json")
    if status != 0:
        failure = CheckFailed(f"{command}: a check failed; see its output document")
        _emit_error("check", failure)
    return status


def reproduce(manifest_path: str) -> int:
    """Re-run a manifest in a scratch directory and diff output digests."""
    try:
        manifest, _ = _load_input(manifest_path, "manifest", RunManifest.from_doc)
    except MissingInput as exc:
        _emit_error("runtime", exc)
        return 1
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    failures = []
    for path, digest in manifest.inputs.items():
        if not os.path.exists(path):
            _emit_error("runtime", MissingInput(f"input not found: {path}"))
            return 1
        actual = sha256_of_file(path)
        line = f"input {path}: {'ok' if actual == digest else 'CHANGED'}"
        print(line)
        if actual != digest:
            failures.append(line)
    out_key = _COMMANDS[manifest.command].out
    with tempfile.TemporaryDirectory(prefix="factlaw-reproduce-") as scratch:
        params = dict(manifest.params)
        rerun_map = {}
        for recorded_path in manifest.outputs:
            fresh = str(Path(scratch) / Path(recorded_path).name)
            rerun_map[recorded_path] = fresh
        if params.get(out_key) in rerun_map:
            params[out_key] = rerun_map[params[out_key]]
        status = run(manifest.command, None, params)
        if status == 2:
            return 2
        for recorded_path, recorded_digest in manifest.outputs.items():
            fresh = rerun_map[recorded_path]
            if not os.path.exists(fresh):
                line = f"output {recorded_path}: MISSING on re-run"
            else:
                match = sha256_of_file(fresh) == recorded_digest
                line = f"output {recorded_path}: {'ok' if match else 'DIGEST MISMATCH'}"
            print(line)
            if not line.endswith("ok"):
                failures.append(line)
    print(f"reproduce: {'pass' if not failures else 'fail'}")
    return 0 if not failures else 1


# --- argument parsing -------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """A bad command line is a config error, reported like any other."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="factlaw",
        description=(
            "Factual-probability laboratory: generate parcelled paintings,"
            " play the reconstruction and probability games, estimate"
            " law-of-large-numbers meta-probabilities, and run semantic"
            " integration end to end."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file with parameters for this command")
        for key, (_, _, text) in command.keys.items():
            if text is not None:
                p.add_argument("--" + key.replace("_", "-"), help=text)

    p = sub.add_parser("reproduce", help="re-run a manifest and diff digests")
    p.add_argument("--manifest", required=True, help="run manifest JSON file")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    if args.command == "reproduce":
        return reproduce(args.manifest)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    return run(args.command, args.config, overrides)


def console_main() -> None:
    sys.exit(main())
