"""The parcelled painting and its three reconstruction games.

A painting is a W x H grid of tiles: each tile has a unique colour form, an
approximate-colour label, and four edge signatures that are boundary marks
on the perimeter and shared seam marks inside.  Cut it into fragments,
shuffle, and reconstruction becomes a game whose difficulty depends on what
the fragment descriptions retain.
"""

from factlaw import (
    FragmentPool,
    PaintingSpec,
    generate_painting,
    label_histogram,
    solve_by_borders,
    solve_by_location,
)
from factlaw.painting import row_major_positions

spec = PaintingSpec(
    width=10, height=10, q=3, label_counts={1: 60, 2: 30, 3: 10}, seed=7
)
painting = generate_painting(spec)
print(f"Reference painting: 10x10, labels 1/2/3 with histogram "
      f"{label_histogram(painting)}\n")

# Game one: fragments keep their coordinates.  Placement is certain.
pool = FragmentPool.from_painting(painting, "location", seed=1)
report = solve_by_location(pool)
print("Location game (fragments keep coordinates):")
print(f"  placements={report.placements}, trials={report.trials} "
      f"-> no search, no failures, board complete="
      f"{report.completed_replicas == 1}\n")

# Game two: coordinates are gone; only colour forms and edge signatures
# remain.  Co-bordity -- equal signatures attract -- rebuilds the painting.
pool = FragmentPool.from_painting(painting, "border", seed=2)
report = solve_by_borders(pool)
(board,) = report.boards
# A tile's place is its row-major index in painting.tiles.
positions = row_major_positions(painting.width, painting.height)
source = {pos: t.colour_form_id for pos, t in zip(positions, painting.tiles)}
rebuilt = {pos: piece.payload.points["colour_form"]
           for pos, piece in board.cells.items()}
print("Border game (coordinates stripped, unique interior edges):")
print(f"  placements={report.placements}, completed={report.completed_replicas}")
print(f"  recovered layout equals the source exactly: {rebuilt == source}\n")

# Game three: ten intermingled copies of the painting in one bag.
pool = FragmentPool.from_painting(painting, "border", replicas=10, seed=3)
report = solve_by_borders(pool)
print("Ten intermingled replicas, one fragment bag of 1000:")
print(f"  completed boards: {report.completed_replicas}")
print(f"  total placements: {report.placements}")
finishes = [draw for _, draw in report.completion_order]
print(f"  completion draw indices: {finishes}")
print("  every copy finishes late in the stream -- the replicas are"
      " thoroughly interleaved, yet signatures sort them all out.")
