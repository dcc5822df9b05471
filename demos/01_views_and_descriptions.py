"""What each game keeps of one tile: its view is its fragment format.

A game never sees the painting itself, only what its view keeps of each
tile.  The location game keeps a tile's place and nothing else, the border
game keeps its colour form and its four edge signatures but not its place,
and the probability game keeps only the approximate-colour label of a tile
drawn at random.  Everything else a tile carries does not exist for that
game.
"""

from factlaw import (
    FragmentPool,
    PaintingSpec,
    generate_painting,
    probabilise_painting,
)

painting = generate_painting(PaintingSpec(3, 2, 2, {1: 4, 2: 2}, seed=3))
tile = painting.tiles[0]  # the tile at (1, 1)
print("One tile of a 3x2 painting, as the painting holds it:")
print(f"  colour form : {tile.colour_form_id}")
print(f"  label       : {tile.approx_colour}")
print(f"  edges       : {tile.edge_sigs}  (N, E, S, W)")
print("  place       : (1, 1)\n")


def fragment_of(mode):
    """The fragment the ``mode`` game's pool holds for ``tile``."""
    pool = FragmentPool.from_painting(painting, mode)
    (fragment,) = [f for f in pool.fragments if f.entity_id == tile.colour_form_id]
    return fragment


located = fragment_of("location")
print("The location game keeps its place alone:")
print(f"  points      : {located.points}")
print(f"  coords      : {located.grid_coords}")
print("  Placement is certain; nothing else is needed.\n")

bordered = fragment_of("border")
print("The border game keeps its colour form and edges, not its place:")
for aspect, value in bordered.points.items():
    print(f"  {aspect:<12}: {value}")
print(f"  coords      : {bordered.grid_coords}")
print("  Equal signatures across a seam must rebuild the place.\n")

phenomenon = probabilise_painting(painting, seed=1)
print("The probability game keeps a drawn tile's bare label:")
print(f"  universe    : {phenomenon.universe.elements}")
print(f"  weights     : {phenomenon.weights}")
print(f"  10 draws    : {phenomenon.sample(10)}")
print("  No form, no edges, no place: only the law of the labels survives.")
