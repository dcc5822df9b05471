import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from factlaw import (
    AMBIGUOUS_EDGES,
    BOUNDARY,
    HiddenForm,
    InfeasibleSpec,
    Painting,
    PaintingSpec,
    UNIQUE_EDGES,
    Tile,
    UnsolvablePool,
    generate_painting,
    hidden_form_from_painting,
    label_histogram,
    painting_from_doc,
    painting_to_doc,
)
from factlaw.painting import (
    check_edge_coherence,
    interior_signature_multiset,
    row_major_positions,
    scanline_layout,
)
from factlaw.serialize import read_int

from conftest import REFERENCE_SPEC
from oracles import reference_scanline_layout


def random_spec(rng: random.Random, unique: bool = True) -> PaintingSpec:
    w = rng.randint(2, 12)
    h = rng.randint(2, 12)
    cells = w * h
    q = rng.randint(1, min(6, cells - 1))
    counts = {j: 1 for j in range(1, q + 1)}
    for _ in range(cells - q):
        counts[rng.randint(1, q)] += 1
    mode = "unique-interior-edges" if unique else AMBIGUOUS_EDGES
    return PaintingSpec(w, h, q, counts, uniqueness_mode=mode, seed=rng.randrange(2**32))


def test_reference_painting_has_requested_multiplicities():
    p = generate_painting(REFERENCE_SPEC)
    assert label_histogram(p) == {1: 60, 2: 30, 3: 10}
    assert sum(label_histogram(p).values()) == 100


def test_generation_is_deterministic():
    a = generate_painting(REFERENCE_SPEC)
    b = generate_painting(REFERENCE_SPEC)
    assert a == b
    other = generate_painting(
        PaintingSpec(10, 10, 3, {1: 60, 2: 30, 3: 10}, seed=8)
    )
    assert other != a


def test_degenerate_1x1_grid_is_infeasible():
    with pytest.raises(InfeasibleSpec):
        PaintingSpec(1, 1, 1, {1: 1})


def test_infeasible_specs_rejected():
    with pytest.raises(InfeasibleSpec):
        PaintingSpec(2, 2, 2, {1: 1, 2: 2})  # counts sum to 3, grid has 4
    with pytest.raises(InfeasibleSpec):
        PaintingSpec(2, 2, 4, {1: 1, 2: 1, 3: 1, 4: 1})  # q must be < cells
    with pytest.raises(InfeasibleSpec):
        PaintingSpec(2, 2, 2, {1: 4, 3: 0})  # keys must be 1..q
    with pytest.raises(InfeasibleSpec):
        PaintingSpec(3, 1, 2, {1: 3, 2: 0})  # every label needs a tile
    with pytest.raises(InfeasibleSpec):
        PaintingSpec(2, 2, 1, {1: 4}, uniqueness_mode="nonsense")


def test_spec_refuses_non_integers():
    # Each of these once read as an integer by truncation.
    for args in (
        (2, 2, 1, {1: 4.7}),
        (2, 2, 1, {1.9: 4}),
        (2, 2, 1, {True: 4}),
        (2.5, 2, 1, {1: 5}),
        (2, 2.5, 1, {1: 5}),
        (2, 2, 1.5, {1: 4}),
        (2, 2, 1, {1: 4}, "unique-interior-edges", 2.5),
        (2, 2, 1, {1: 4}, "unique-interior-edges", True),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            PaintingSpec(*args)
    with pytest.raises(ValueError, match="keys repeat"):
        PaintingSpec(2, 2, 1, {1: 2, "1": 2})
    spec = PaintingSpec(2, 2, 1, {"1": 4.0})
    assert spec.label_counts == {1: 4} and type(spec.label_counts[1]) is int


def test_uniform_2x2_painting():
    p = generate_painting(PaintingSpec(2, 2, 1, {1: 4}, seed=3))
    assert label_histogram(p) == {1: 4}
    assert all(t.approx_colour == 1 for t in p.tiles)


def test_edge_coherence_and_boundary_markers():
    p = generate_painting(REFERENCE_SPEC)
    tiles = dict(zip(row_major_positions(p.width, p.height), p.tiles))
    for (x, y), t in tiles.items():
        n, e, s, w = t.edge_sigs
        assert (n == BOUNDARY) == (y == p.height)
        assert (e == BOUNDARY) == (x == p.width)
        assert (s == BOUNDARY) == (y == 1)
        assert (w == BOUNDARY) == (x == 1)
        if x < p.width:
            assert e == tiles[x + 1, y].edge_sigs[3]
        if y < p.height:
            assert n == tiles[x, y + 1].edge_sigs[2]


def test_unique_mode_signatures_pair_exactly_once():
    p = generate_painting(REFERENCE_SPEC)
    multiset = interior_signature_multiset(t.edge_sigs for t in p.tiles)
    assert all(count == 2 for count in multiset.values())
    interior = 2 * 10 * 9  # horizontal plus vertical seams of a 10x10 grid
    assert len(multiset) == interior


def test_ambiguous_mode_repeats_signatures():
    spec = PaintingSpec(
        6, 6, 2, {1: 20, 2: 16}, uniqueness_mode=AMBIGUOUS_EDGES, seed=5
    )
    p = generate_painting(spec)
    multiset = interior_signature_multiset(t.edge_sigs for t in p.tiles)
    assert max(multiset.values()) > 2


def test_painting_constructor_rejects_broken_grids():
    p = generate_painting(PaintingSpec(2, 2, 1, {1: 4}, seed=3))
    with pytest.raises(ValueError):
        Painting(2, 2, 1, p.forms[:-1], p.labels[:-1], p.edges[:-1])  # missing a cell
    twisted = (("X", "X", "X", "X"),) + p.edges[1:]
    with pytest.raises(ValueError):
        Painting(2, 2, 1, p.forms, p.labels, twisted)  # boundary/coherence violation
    with pytest.raises(ValueError, match="^grid extents must be positive$"):
        Painting(-2, -2, 1, p.forms, p.labels, p.edges)  # four cells, but no grid


# A 3 x 1 strip with two labels, valid as it stands.
STRIP_FORMS, STRIP_LABELS = ("f1", "f2", "f3"), (1, 1, 2)
STRIP_EDGES = (("B", "a", "B", "B"), ("B", "b", "B", "a"), ("B", "B", "B", "b"))
SIDES = ("B", "B", "B", "B")
# Two cells whose only fault is a bad mark, and a column whose only one
# is its N/S seam.
EAST_UNMARKED = [("B", "a", "B", "B"), ("B", "x", "B", "a")]
WEST_UNMARKED = [("B", "a", "B", "x"), ("B", "B", "B", "a")]
SEAM_BROKEN = [("a", "B", "B", "B"), ("B", "B", "b", "B")]
# name -> (refused call, exception, the whole message)
REFUSALS = {
    "bad-east-marker": (
        lambda: check_edge_coherence(2, 1, EAST_UNMARKED),
        ValueError, "bad east boundary marker at (2, 1)",
    ),
    "bad-west-marker": (
        lambda: check_edge_coherence(2, 1, WEST_UNMARKED),
        ValueError, "bad west boundary marker at (1, 1)",
    ),
    "north-south-mismatch": (
        lambda: check_edge_coherence(1, 2, SEAM_BROKEN),
        ValueError, "edge mismatch between (1, 1) N='a' and (1, 2) S='b'",
    ),
    "painting-forms-repeat": (
        lambda: Painting(3, 1, 2, ("f1", "f1", "f3"), STRIP_LABELS, STRIP_EDGES),
        ValueError, "colour_form_ids must be distinct",
    ),
    "painting-label-0": (
        lambda: Painting(3, 1, 2, STRIP_FORMS, (0, 1, 2), STRIP_EDGES),
        ValueError, "approx_colour labels start at 1",
    ),
    "painting-palette-fills-grid": (
        lambda: Painting(3, 1, 3, STRIP_FORMS, (1, 2, 3), STRIP_EDGES),
        ValueError, "palette must be strictly smaller than the grid",
    ),
    "painting-label-off-palette": (
        lambda: Painting(3, 1, 2, STRIP_FORMS, (1, 1, 3), STRIP_EDGES),
        ValueError, "tile labels leave the palette 1..q",
    ),
    "painting-palette-label-missing": (
        lambda: Painting(3, 1, 2, STRIP_FORMS, (1, 1, 1), STRIP_EDGES),
        ValueError, "every palette label must appear on some tile",
    ),
    "tile-label-0": (
        lambda: Tile("cf", 0, SIDES),
        ValueError, "approx_colour labels start at 1",
    ),
    "tile-form-empty": (
        lambda: Tile("", 1, SIDES),
        ValueError, "colour_form_id must be a non-empty string",
    ),
    "spec-width-0": (
        lambda: PaintingSpec(0, 2, 1, {1: 2}),
        InfeasibleSpec, "grid extents must be positive",
    ),
    "spec-q-0": (
        lambda: PaintingSpec(2, 2, 0, {}),
        InfeasibleSpec, "q must be at least 1",
    ),
    "scanline-no-pieces": (
        lambda: scanline_layout([]),
        UnsolvablePool, "no consistent assembly found",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_their_fault(call, error, message):
    Painting(3, 1, 2, STRIP_FORMS, STRIP_LABELS, STRIP_EDGES)  # the strip itself holds
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("extent", [2.0, True], ids=("float", "bool"))
@pytest.mark.parametrize("grid", [Painting, HiddenForm])
def test_grids_refuse_extents_that_are_not_ints(grid, extent):
    # The extent equals the true width (2.0 == 2, True == 1); only its type
    # is wrong, and the grid says so instead of failing later.  The palette
    # size and the index space are held to ints the same way.
    width = int(extent)
    painting = generate_painting(PaintingSpec(width, 2, 1, {1: 2 * width}, seed=3))
    if grid is Painting:
        fields = (painting.palette_q, painting.forms, painting.labels, painting.edges)
    else:
        form = hidden_form_from_painting(painting)
        fields = (form.s_prime, form.labels, form.rp, form.edges)
    grid(width, 2, *fields)
    with pytest.raises(ValueError, match="^grid extents must be ints, got "):
        grid(extent, 2, *fields)
    size, *cells = fields
    for wrong in (str(size), float(size), size + 0.5):
        with pytest.raises(ValueError, match=" must be an int, got "):
            grid(width, 2, wrong, *cells)


@pytest.mark.parametrize("width, height", [(1, 1), (1, 5), (5, 1), (4, 3)])
def test_row_major_positions_follow_the_index_rule(width, height):
    positions = row_major_positions(width, height)
    assert len(positions) == width * height
    for i, position in enumerate(positions):
        assert position == (i % width + 1, i // width + 1)


def test_json_round_trip_and_digest():
    p = generate_painting(REFERENCE_SPEC)
    doc = painting_to_doc(p)
    assert doc["width"] == 10 and doc["q"] == 3
    assert set(doc) == {"width", "height", "q", "forms", "labels", "edges"}
    assert [len(doc[key]) for key in ("forms", "labels", "edges")] == [100] * 3
    assert doc["edges"][0] == list(p.tiles[0].edge_sigs)
    assert painting_from_doc(doc) == p
    assert painting_to_doc(painting_from_doc(doc)) == doc


def test_painting_load_refuses_a_tile_set_that_misses_the_grid():
    doc = painting_to_doc(generate_painting(REFERENCE_SPEC))
    labels = doc["labels"]
    bad = {
        "short": (labels[:-1], "^expected 100 labels, got 99$"),
        "long": (labels + [1], "^expected 100 labels, got 101$"),
        "not a list": (tuple(labels), "^labels must be a list, got tuple$"),
        "text": ("1" * 100, "^labels must be a list, got str$"),
    }
    for name, (column, message) in bad.items():
        with pytest.raises(ValueError, match=message):
            painting_from_doc(dict(doc, labels=column))
    with pytest.raises(ValueError, match="^expected 100 edges, got 99$"):
        painting_from_doc(dict(doc, edges=doc["edges"][1:]))
    p = generate_painting(REFERENCE_SPEC)
    with pytest.raises(ValueError, match="^expected 100 forms, got 99$"):
        Painting(10, 10, 3, p.forms[1:], p.labels, p.edges)


def test_row_format_grid_files_are_refused_by_name(reference_form):
    painting = painting_to_doc(generate_painting(REFERENCE_SPEC))
    form = reference_form.to_doc()
    for doc, read, key in ((painting, painting_from_doc, "tiles"),
                           (form, HiddenForm.from_doc, "cells")):
        with pytest.raises(ValueError, match=f"^a '{key}' list is the old row format"):
            read(dict(doc, **{key: []}))


def test_grid_files_that_are_not_objects_or_lack_a_key_are_refused(reference_form):
    painting = painting_to_doc(generate_painting(REFERENCE_SPEC))
    form = reference_form.to_doc()
    for doc, read in ((painting, painting_from_doc), (form, HiddenForm.from_doc)):
        not_objects = ((5, "int"), ([1], "list"), ("{}", "str"), (None, "NoneType"))
        for value, kind in not_objects:
            with pytest.raises(
                ValueError, match=f"^a grid file must be a JSON object, got {kind}$"
            ):
                read(value)
        with pytest.raises(ValueError, match=f"^grid file lacks {', '.join(doc)}$"):
            read({})
        for key in doc:
            with pytest.raises(ValueError, match=f"^grid file lacks {key}$"):
                read({k: v for k, v in doc.items() if k != key})


def test_tile_keeps_its_sides_as_a_tuple():
    t = Tile("cf", 1, ["a", "b", "c", "d"])
    assert t.edge_sigs == ("a", "b", "c", "d") and type(t.edge_sigs) is tuple
    assert Tile("cf", 1, "nesw").edge_sigs == ("n", "e", "s", "w")
    with pytest.raises(ValueError, match="exactly four entries"):
        Tile("cf", 1, ("a", "b", "c"))
    with pytest.raises(ValueError, match="must be a sequence"):
        Tile("cf", 1, None)
    with pytest.raises(ValueError, match="must be ints"):
        Tile("cf", "2", ("a", "b", "c", "d"))


def test_read_int_keeps_its_verdicts():
    assert read_int(12, "n") == 12 and read_int("12", "n") == 12
    assert read_int(12.0, "n") == 12 and type(read_int(12.0, "n")) is int
    for value in (True, False, 2.5, float("nan"), float("inf"), "2.5", None, [1]):
        message = re.escape(f"n must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_int(value, "n")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_generator_fuzz_respects_invariants(seed, unique):
    rng = random.Random(seed)
    spec = random_spec(rng, unique=unique)
    p = generate_painting(spec)  # Painting.__post_init__ re-validates all invariants
    histogram = label_histogram(p)
    assert histogram == spec.label_counts
    assert sum(histogram.values()) == spec.width * spec.height
    if unique:
        multiset = interior_signature_multiset(t.edge_sigs for t in p.tiles)
        assert all(c == 2 for c in multiset.values())


def layout_or_refusal(search, sigs, budget):
    try:
        return search(sigs, budget)
    except UnsolvablePool as exc:
        return f"UnsolvablePool: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([UNIQUE_EDGES, AMBIGUOUS_EDGES]),
    st.integers(1, 3),
    st.sampled_from([None, 7, 50]),
    st.sampled_from(["none", "swap", "drop"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_scanline_layout_matches_the_reference(
    width, height, mode, replicas, budget, tamper, seed, data
):
    # The search must lay out, count its trials and refuse exactly as the
    # reference does, on swapped and missing pieces and tight budgets too.
    assume(width * height >= 3)
    spec = PaintingSpec(width, height, 1, {1: width * height}, mode, seed)
    painting = generate_painting(spec)
    sigs = list(painting.edges) * replicas
    random.Random(seed).shuffle(sigs)
    if tamper != "none":
        index = data.draw(st.integers(0, len(sigs) - 1))
        if tamper == "drop":
            del sigs[index]
        else:
            a, b = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
            sides = list(sigs[index])
            sides[a], sides[b] = sides[b], sides[a]
            sigs[index] = tuple(sides)
    expected = layout_or_refusal(reference_scanline_layout, sigs, budget)
    assert layout_or_refusal(scanline_layout, sigs, budget) == expected
