"""Views as finite filters: what a description keeps, drops, and never sees.

A view is a finite grid of qualification: a set of aspects, each with a
finite value set, optionally anchored to grid coordinates.  Applying a view
to an entity keeps exactly the aspect values the view can admit; everything
else -- unknown aspects, out-of-range values, coordinates for frame-less
views -- simply does not exist for that view.
"""

from factlaw import (
    AspectView,
    Description,
    NoMutualExistence,
    View,
    apply_view,
    restrict_view,
)

full_entity = Description(
    generator_id="tile-extraction",
    entity_id="cf_0001",
    points={
        "colour_form": "cf_0001",
        "approx_colour": "colour_2",
        "edge_n": "s00012",
        "temperature": "warm",  # an aspect none of our views will know
    },
    grid_coords=(4, 7),
)

rich_view = View(
    aspects=(
        AspectView("colour_form", ("cf_0001", "cf_0002")),
        AspectView("approx_colour", ("colour_1", "colour_2")),
        AspectView("edge_n", ("s00012", "s00013")),
    ),
    grid_dims=(10, 10),
)

print("A richly qualified view keeps what it can admit and the grid frame:")
seen = apply_view(rich_view, full_entity)
print(f"  points kept : {sorted(seen.points)}")
print(f"  coords kept : {seen.grid_coords}")
print("  'temperature' is gone -- the view has no such aspect.\n")

label_only = restrict_view(rich_view, keep=("approx_colour",))
print("Restricting to the label aspect (and dropping the grid frame):")
shadow = apply_view(label_only, full_entity)
print(f"  points kept : {shadow.points}")
print(f"  coords kept : {shadow.grid_coords}")
print("  This is the simplification step of the probability game.\n")

print("A view blind to everything an entity carries sees nothing at all:")
alien = Description("tile-extraction", "x", {"smell": "sweet"}, None)
try:
    apply_view(label_only, alien)
except NoMutualExistence as exc:
    print(f"  NoMutualExistence: {exc}\n")

print("Value filtering is as real as aspect filtering:")
narrow = View((AspectView("approx_colour", ("colour_1",)),))
try:
    apply_view(narrow, full_entity)  # entity holds colour_2, not colour_1
except NoMutualExistence as exc:
    print(f"  NoMutualExistence: {exc}")
