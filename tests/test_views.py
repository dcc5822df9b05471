from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from factlaw import (
    AspectView,
    Description,
    EmptyKeepSet,
    NoMutualExistence,
    UnknownAspect,
    View,
    apply_view,
    restrict_view,
)


def make_view(*aspect_specs, frame=None):
    aspects = tuple(AspectView(a, tuple(vs)) for a, vs in aspect_specs)
    if frame is None:
        return View(aspects)
    return View(aspects, grid_dims=frame)


TILE_VIEW = make_view(
    ("colour_form", ["cf_17", "cf_18"]),
    ("approx_colour", ["j1", "j2", "j3"]),
    frame=(10, 10),
)

TILE_ENTITY = Description(
    "gen", "cf_17", {"colour_form": "cf_17", "approx_colour": "j3"}, (2, 5)
)


def test_aspect_view_invariants():
    a = AspectView("colour", ("red", "blue"))
    assert a.values == ("red", "blue")
    assert a.admits("red") and not a.admits("green")
    with pytest.raises(ValueError):
        AspectView("colour", ())
    with pytest.raises(ValueError):
        AspectView("colour", ("red", "red"))
    with pytest.raises(ValueError):
        AspectView("", ("red",))


def test_view_invariants():
    with pytest.raises(ValueError):
        View(())
    a = AspectView("colour", ("red",))
    with pytest.raises(ValueError):
        View((a, a))
    v = View((a,), grid_dims=(4, 5))
    assert v.grid_dims == (4, 5)
    assert v.has_grid_frame and not View((a,)).has_grid_frame
    assert "colour" in v and "weight" not in v
    with pytest.raises(UnknownAspect):
        v.aspect("weight")


def test_description_is_immutable_and_defensive():
    points = {"colour": "red"}
    d = Description("g", "e", points)
    points["colour"] = "blue"
    assert d.points == {"colour": "red"}
    with pytest.raises(FrozenInstanceError):
        d.entity_id = "other"
    with pytest.raises(ValueError):
        Description("", "e", {})


def test_frames_and_coordinates_are_int_pairs_or_refused():
    a = AspectView("colour", ("red",))
    for dims in ((3,), (4, 5, 6), [4, 5], (4.0, 5), (True, 2), (0, 5), (4, -1)):
        with pytest.raises(ValueError, match="grid_dims must be"):
            View((a,), grid_dims=dims)
    coords = (2, 5)
    assert Description("g", "e", {}, coords).grid_coords is coords
    for coords in ((2.9, True), (2.7, 1), (2.0, 1), [2, 5], (1, 2, 3), (2,)):
        with pytest.raises(ValueError, match="grid_coords must be"):
            Description("g", "e", {}, coords)


def test_apply_view_filters_out_location():
    # A rich tile description seen through the label-only view keeps the
    # label and loses the coordinates.
    label_only = restrict_view(TILE_VIEW, {"approx_colour"})
    d = apply_view(label_only, TILE_ENTITY)
    assert d.points == {"approx_colour": "j3"}
    assert d.grid_coords is None
    assert d.generator_id == "gen" and d.entity_id == "cf_17"


def test_apply_view_idempotent_on_own_output():
    d1 = apply_view(TILE_VIEW, TILE_ENTITY)
    d2 = apply_view(TILE_VIEW, d1)
    assert d1 == d2
    assert d1.grid_coords == (2, 5)  # the view has a frame, coords survive


def test_apply_view_disjoint_aspects_has_no_mutual_existence():
    entity = Description("g", "e", {"weight": "w_2"})
    colour_view = make_view(("colour", ["red", "blue"]))
    with pytest.raises(NoMutualExistence):
        apply_view(colour_view, entity)


def test_apply_view_blind_to_alien_values():
    # The entity answers the aspect, but with a value the view cannot
    # express; the filter is blind to it.
    entity = Description("g", "e", {"colour": "ultraviolet"})
    colour_view = make_view(("colour", ["red", "blue"]))
    with pytest.raises(NoMutualExistence):
        apply_view(colour_view, entity)


def test_grid_frame_alone_is_not_mutual_existence():
    located_only = Description("g", "e", {"weight": "w_1"}, (3, 3))
    with pytest.raises(NoMutualExistence):
        apply_view(TILE_VIEW, located_only)


def test_restrict_view_identity_and_errors():
    v = make_view(("a", ["1"]), ("b", ["2"]))
    assert restrict_view(v, {"a", "b"}) == v
    assert restrict_view(v, {"b"}).aspect_ids == ("b",)
    with pytest.raises(EmptyKeepSet):
        restrict_view(v, set())
    with pytest.raises(UnknownAspect):
        restrict_view(v, {"a", "zz"})


def test_restrict_view_grid_frame_handling():
    assert restrict_view(TILE_VIEW, {"approx_colour"}).has_grid_frame is False


# --- property tests ---------------------------------------------------------

aspect_ids = st.sampled_from(["a", "b", "c", "d", "e"])
value_ids = st.sampled_from(["v1", "v2", "v3", "v4"])


@st.composite
def views(draw):
    ids = draw(st.lists(aspect_ids, min_size=1, max_size=4, unique=True))
    aspects = tuple(
        AspectView(i, tuple(draw(st.lists(value_ids, min_size=1, max_size=4, unique=True))))
        for i in ids
    )
    if draw(st.booleans()):
        return View(aspects, grid_dims=(8, 8))
    return View(aspects)


@st.composite
def entities(draw):
    ids = draw(st.lists(aspect_ids, min_size=0, max_size=5, unique=True))
    points = {i: draw(value_ids) for i in ids}
    coords = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    return Description("g", "e", points, coords if draw(st.booleans()) else None)


@given(views(), entities())
def test_filter_property(view, entity):
    # Whatever survives the filter is named and valued by the view.
    try:
        filtered = apply_view(view, entity)
    except NoMutualExistence:
        for aspect in view.aspects:
            value = entity.points.get(aspect.aspect_id)
            assert value is None or not aspect.admits(value)
        return
    assert set(filtered.points) <= set(view.aspect_ids)
    for aspect_id, value in filtered.points.items():
        assert entity.points[aspect_id] == value
        assert view.aspect(aspect_id).admits(value)
    if not view.has_grid_frame:
        assert filtered.grid_coords is None


@given(views(), entities())
def test_idempotence_property(view, entity):
    try:
        once = apply_view(view, entity)
    except NoMutualExistence:
        return
    assert apply_view(view, once) == once


@given(views(), entities(), st.data())
def test_monotonicity_property(view, entity, data):
    keep = data.draw(
        st.sets(st.sampled_from(view.aspect_ids), min_size=1), label="keep"
    )
    restricted = restrict_view(view, keep)
    try:
        full = apply_view(view, entity)
    except NoMutualExistence:
        full = None
    try:
        narrow = apply_view(restricted, entity)
    except NoMutualExistence:
        narrow = None
    if full is None:
        assert narrow is None
        return
    kept_points = {k: v for k, v in full.points.items() if k in keep}
    if not kept_points:
        assert narrow is None
    else:
        assert narrow is not None
        assert narrow.points == kept_points
        assert narrow.grid_coords is None  # restriction drops the frame

