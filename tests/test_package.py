import ast
import dataclasses
import importlib
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import factlaw
import factlaw.cli as cli
import factlaw.integration as integration
import factlaw.painting as painting
from factlaw import (
    ComplexifiedEvent,
    Description,
    EventAlgebra,
    FactualSpace,
    FrequencyTable,
    IntegrationConfig,
    Measure,
    Painting,
    PaintingSpec,
    UNIQUE_EDGES,
    Tile,
    Universe,
    derive_seed,
    end_to_end_check,
    find_N0,
    generate_algebra,
    generate_painting,
    meta_probability,
)
from factlaw.integration import HiddenForm
from factlaw.phenomenon import RandomPhenomenon
from factlaw.puzzle import Board, FragmentPool, Piece, solve_by_borders

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SMALL_PAINTING = generate_painting(PaintingSpec(2, 1, 1, {1: 2}))
SMALL_FORM = integration.hidden_form_from_painting(SMALL_PAINTING)
COIN = RandomPhenomenon("p", Universe((1, 2)), (1, 1))
COIN_ALGEBRA = generate_algebra(Universe((1, 2)), [{1}, {2}])
FAIR = Measure.from_counts({1: 1, 2: 1})
BAD_SEEDS = {"none": None, "half": 2.5, "true": True, "str": "abc"}
BAD_BUDGETS = {"str": "7", "half": 2.5, "true": True, "object": object(), "zero": 0}
SMALL_BORDER_POOL = FragmentPool.from_painting(SMALL_PAINTING, "border")


def test_every_export_resolves_once():
    names = factlaw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(factlaw, name)]
    assert missing == []


def test_every_public_name_bound_in_the_package_is_exported():
    # An import left behind after its __all__ entry goes would still resolve.
    bound = {
        name
        for name, value in vars(factlaw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(factlaw.__all__) - {"__version__"}


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # The benchmark's traced runs patch names in these namespaces by
    # ``owner.__dict__[attr]``; a name that moves away breaks every one.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = (cli, integration, painting, HiddenForm, RandomPhenomenon, FragmentPool)
    before = [dict(vars(owner)) for owner in owners]
    run = cli.run
    uninstall = tracing.Recorder().install()
    try:
        assert cli.run is not run
        patched = [
            name
            for owner, names in zip(owners, before)
            for name, value in vars(owner).items()
            if names.get(name) is not value
        ]
        assert "run_frequency_experiment" in patched
        assert "factual_space_from_painting" in patched
        assert "sample" in patched
    finally:
        uninstall()
    assert cli.run is run
    assert [dict(vars(owner)) for owner in owners] == before


def test_every_python_file_parses_with_the_python_3_10_grammar():
    # The package supports Python 3.10; a newer construct (``except*``, a
    # ``type`` statement, ...) must fail here, not only in a 3.10 interpreter.
    files = [
        path
        for top in ("src", "tests", "demos", "perfbench", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_runtime_imports_only_the_standard_library():
    # So do the scripts, which run on a bare interpreter beside the src tree.
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    files = sorted((ROOT / "src" / "factlaw").glob("*.py")) + scripts
    outside = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # a relative import stays inside factlaw
            for module in modules:
                top = module.partition(".")[0]
                if top != "factlaw" and top not in sys.stdlib_module_names:
                    outside.add(f"{path.name}: {module}")
    assert sorted(outside) == []


def test_no_module_imports_a_private_name_of_another():
    # A rule one module needs from another is public there, or it has two
    # owners.
    private = []
    for path in sorted((ROOT / "src" / "factlaw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "factlaw"
            ):
                private += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "__version__"
                ]
    assert private == []


def test_the_shared_layout_sits_below_both_games():
    # The scan-line both games call lives in painting, so painting imports
    # neither game and integration does not import the border game.
    forbidden = {
        "painting": {"puzzle", "integration"},
        "integration": {"puzzle"},
    }
    found = []
    for name, banned in forbidden.items():
        path = ROOT / "src" / "factlaw" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module]
                if node.module in (None, "factlaw"):  # from . import puzzle
                    modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                last = module.removeprefix("factlaw.")
                if last.partition(".")[0] in banned:
                    found.append(f"{name}.py:{node.lineno}: {module}")
    assert found == []


def test_a_test_imports_private_names_only_from_its_own_module():
    # tests/test_<m>.py may reach into factlaw.<m> white-box; a private name
    # of any other module is that module's own business.
    private = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        own = "factlaw." + path.stem.removeprefix("test_")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != own:
                private += [
                    f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "__version__"
                ]
    assert private == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: ComplexifiedEvent(1, 1, None),
        lambda: ComplexifiedEvent(1, 1, 5),
        lambda: Description("g", "e", None),
        lambda: PaintingSpec(2, 2, 1, None),
        lambda: PaintingSpec(2, 2, 1, [1, 4]),
        lambda: FragmentPool.from_painting(SMALL_PAINTING, "weird"),
        lambda: FragmentPool.from_painting(SMALL_PAINTING, "border", replicas=2.5),
        lambda: FragmentPool.from_painting(SMALL_PAINTING, "border", replicas=0),
        lambda: FragmentPool.from_painting(SMALL_PAINTING, "border", replicas=-1),
        lambda: FragmentPool.from_painting(SMALL_PAINTING, "border", replicas=True),
        lambda: Piece("p", ("a",)),
        lambda: Board(1, 1, None),
        lambda: Board(1, 1, (None,)).validate_edges(),
        lambda: Description(1, 2, {}),
        lambda: Painting(2, 1, 1, None, (1, 1), SMALL_PAINTING.edges),
        lambda: Painting(2, 1, 1, (1, 2), (1, 1), SMALL_PAINTING.edges),
        lambda: HiddenForm(2, 1, 20, None),
        lambda: HiddenForm(2, 1, 20, (1, 2)),
        lambda: Tile("cf", 1, (1, 2, 3, 4)),
        lambda: Measure(None),
        lambda: Universe(None),
        lambda: RandomPhenomenon(None, None, None),
        lambda: FrequencyTable(None, None),
        lambda: EventAlgebra(None, None),
        lambda: FragmentPool(None),
        lambda: FragmentPool([1, 2]),
        lambda: FragmentPool([], seed="x"),
        lambda: FragmentPool([], seed=None),
        lambda: Measure({"a": None}),
        lambda: Measure({"a": float("inf")}),
        lambda: Measure.from_counts({"a": "1"}),
        lambda: Universe(([1],)),
        lambda: RandomPhenomenon("p", None, (1,)),
        lambda: FrequencyTable(1, {1: "1"}),
        lambda: FrequencyTable(3.0, {1: 3}),
        lambda: FrequencyTable(True, {1: 1}),
        lambda: RandomPhenomenon("p", Universe((1, 2)), (1, 1), seed=None),
        lambda: RandomPhenomenon("p", Universe((1, 2)), (1, 1), seed=2.5),
        lambda: RandomPhenomenon("p", Universe((1, 2)), (1, 1), seed="abc"),
        lambda: RandomPhenomenon("p", Universe((1, 2)), (1, 1)).sample(3, seed=2.5),
        lambda: RandomPhenomenon("p", Universe((1, 2)), (1, 1)).tally(3, seed="abc"),
        lambda: integration.complexified_phenomenon(SMALL_FORM, None),
        lambda: integration.complexified_phenomenon(SMALL_FORM, 2.5),
        lambda: integration.complexified_phenomenon(SMALL_FORM, "abc"),
        *[lambda seed=seed: derive_seed(seed, "x") for seed in BAD_SEEDS.values()],
        *[
            lambda seed=seed: integration.hidden_form_from_painting(SMALL_PAINTING, seed)
            for seed in BAD_SEEDS.values()
        ],
        *[
            lambda seed=seed: end_to_end_check(SMALL_FORM, 10, seed)
            for seed in BAD_SEEDS.values()
        ],
        lambda: RandomPhenomenon("", Universe((1, 2)), (1, 1)),
        lambda: meta_probability(COIN, 1, None, "1/10", 10, 2, 0),
        lambda: meta_probability(COIN, 1, "1/2", None, 10, 2, 0),
        lambda: meta_probability(COIN, 1, "1/2", [], 10, 2, 0),
        lambda: find_N0(COIN, 1, "1/2", "1/10", "0.1", 2, 0),
        lambda: find_N0(COIN, 1, "1/2", "1/10", None, 2, 0),
        *[
            lambda budget=budget: solve_by_borders(SMALL_BORDER_POOL, trial_budget=budget)
            for budget in BAD_BUDGETS.values()
        ],
        *[
            lambda budget=budget: painting.scanline_layout(SMALL_PAINTING.edges, budget)
            for budget in BAD_BUDGETS.values()
        ],
    ],
    ids=(
        "event-sigs-none", "event-sigs-int", "description-points-none",
        "spec-counts-none", "spec-counts-list",
        "pool-mode-weird", "pool-replicas-half", "pool-replicas-zero",
        "pool-replicas-negative", "pool-replicas-true",
        "piece-edges-one", "board-pieces-none", "board-pieces-of-none",
        "description-ids-int",
        "painting-forms-none", "painting-forms-of-ints",
        "form-cells-none", "form-cells-of-ints", "tile-sigs-int",
        "measure-none", "universe-none", "phenomenon-none", "table-none",
        "algebra-none", "pool-none", "pool-of-ints", "pool-seed-str",
        "pool-seed-none", "measure-weight-none", "measure-weight-inf", "counts-str",
        "universe-unhashable", "phenomenon-universe-none", "table-count-str",
        "table-draws-float", "table-draws-true", "phenomenon-seed-none",
        "phenomenon-seed-half", "phenomenon-seed-str", "sample-seed-half",
        "tally-seed-str", "stream-seed-none", "stream-seed-half", "stream-seed-str",
        *[f"derive-seed-{name}" for name in BAD_SEEDS],
        *[f"form-seed-{name}" for name in BAD_SEEDS],
        *[f"end-to-end-seed-{name}" for name in BAD_SEEDS],
        "phenomenon-id-empty", "meta-target-none",
        "meta-epsilon-none", "meta-epsilon-list", "n0-delta-str", "n0-delta-none",
        *[f"borders-budget-{name}" for name in BAD_BUDGETS],
        *[f"scanline-budget-{name}" for name in BAD_BUDGETS],
    ),
)
def test_wrong_kind_constructor_arguments_raise_value_error(build):
    # Any malformed argument is a ValueError, never a TypeError or an
    # AttributeError from deep inside the constructor, and never accepted.
    with pytest.raises(ValueError):
        build()


# One valid call per public constructor, by field.  Labels take any hashable
# by design, so the labels of a Universe and the keys of a Measure's or a
# FrequencyTable's mapping are never replaced; nor are the entries of a
# Description's points.  A Piece's payload takes any value too; no
# constructor here takes a Piece.
VALID_CALLS = {
    Painting: dict(
        width=2, height=1, palette_q=1, forms=SMALL_PAINTING.forms,
        labels=SMALL_PAINTING.labels, edges=SMALL_PAINTING.edges,
    ),
    HiddenForm: dict(width=2, height=1, s_prime=SMALL_FORM.s_prime, cells=SMALL_FORM.cells),
    PaintingSpec: dict(
        width=2, height=1, q=1, label_counts={1: 2}, uniqueness_mode=UNIQUE_EDGES, seed=0
    ),
    IntegrationConfig: dict(max_events=100, confirmation_replicas=2),
    Description: dict(generator_id="g", entity_id="e", points={"a": "b"}, grid_coords=(1, 1)),
    Measure: dict(atom_probs={1: Fraction(1, 2), 2: Fraction(1, 2)}),
    Universe: dict(elements=(1, 2)),
    RandomPhenomenon: dict(procedure_id="p", universe=Universe((1, 2)), weights=(1, 1), seed=0),
    FrequencyTable: dict(n_draws=2, counts={1: 1, 2: 1}),
    EventAlgebra: dict(universe=Universe((1, 2)), blocks=COIN_ALGEBRA.blocks),
    FragmentPool: dict(
        fragments=FragmentPool.from_painting(SMALL_PAINTING, "border").fragments, seed=0
    ),
    FactualSpace: dict(algebra=COIN_ALGEBRA, law=FAIR),
}
ANY_HASHABLE_ENTRIES = {(Universe, "elements"), (Description, "points")}


def one_entry_wrong(value):
    """``value`` with its first entry, or its first key's value, an ``object()``."""
    if isinstance(value, dict):
        return {**value, next(iter(value)): object()}
    entries = list(value)
    entries[0] = object()
    return type(value)(entries)


def wrong_kind_calls():
    for cls, valid in VALID_CALLS.items():
        assert {f.name for f in dataclasses.fields(cls) if f.init} == set(valid)
        for name, value in valid.items():
            yield pytest.param(cls, name, object(), id=f"{cls.__name__}.{name}")
            collection = isinstance(value, (tuple, frozenset, dict))
            if collection and (cls, name) not in ANY_HASHABLE_ENTRIES:
                wrong = one_entry_wrong(value)
                yield pytest.param(cls, name, wrong, id=f"{cls.__name__}.{name}-entry")


@pytest.mark.parametrize("cls, name, wrong", wrong_kind_calls())
def test_every_public_constructor_refuses_a_field_of_the_wrong_kind(cls, name, wrong):
    valid = VALID_CALLS[cls]
    cls(**valid)
    with pytest.raises(ValueError):
        cls(**{**valid, name: wrong})
