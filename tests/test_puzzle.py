import dataclasses
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from factlaw import (
    AMBIGUOUS_EDGES,
    ASPECT_COLOUR_FORM,
    ASPECT_EDGES,
    GENERATOR_ID,
    AssemblyReport,
    Board,
    Description,
    DuplicateCoordinates,
    FragmentPool,
    InconsistentSignatures,
    PaintingSpec,
    Piece,
    UnsolvablePool,
    generate_painting,
    solve_by_borders,
    solve_by_location,
)
from factlaw.painting import E, N, painting_to_doc, row_major_positions
from factlaw.puzzle import _draw_order, _edges_of

from conftest import REFERENCE_SPEC
from oracles import cover_times, reference_draw_order


def file_cells(painting):
    """Each cell of the painting's file: its (x, y), which its index in the
    columns gives, its colour-form id and its [N, E, S, W] list."""
    doc = painting_to_doc(painting)
    positions = row_major_positions(doc["width"], doc["height"])
    return zip(positions, doc["forms"], doc["edges"])


def source_form_grid(painting):
    """Each cell's colour-form id, at the position the painting's file gives it."""
    return {position: form for position, form, _ in file_cells(painting)}


def board_form_grid(board):
    return {
        pos: piece.payload.points[ASPECT_COLOUR_FORM]
        for pos, piece in board.cells.items()
    }


# --- the location game ------------------------------------------------------


def test_location_game_places_every_fragment_with_certainty(reference_painting):
    pool = FragmentPool.from_painting(reference_painting, "location", seed=5)
    report = solve_by_location(pool)
    assert report.placements == report.trials == 100
    assert report.completed_replicas == 1
    (board,) = report.boards
    assert (board.width, board.height) == (10, 10)
    # Location fragments are blind to colour; identity rides on entity_id.
    recovered = {pos: piece.payload.entity_id for pos, piece in board.cells.items()}
    assert recovered == source_form_grid(reference_painting)
    for pos, piece in board.cells.items():
        assert piece.payload.grid_coords == pos
        assert piece.payload.points == {}


def test_location_game_smallest_painting():
    painting = generate_painting(PaintingSpec(2, 1, 1, {1: 2}, seed=3))
    report = solve_by_location(FragmentPool.from_painting(painting, "location"))
    assert report.completed_replicas == 1
    assert report.completion_order == ((0, 2),)


def test_location_game_duplicate_coordinates_is_corruption(reference_painting):
    fragments = FragmentPool.from_painting(
        reference_painting, "location", seed=1
    ).fragments
    clash = dataclasses.replace(fragments[0], grid_coords=fragments[1].grid_coords)
    pool = FragmentPool((clash,) + fragments[1:], seed=2)
    with pytest.raises(DuplicateCoordinates):
        solve_by_location(pool)


def test_location_game_is_single_replica_only(reference_painting):
    # A second replica puts a second fragment on every cell.
    pool = FragmentPool.from_painting(reference_painting, "location", replicas=2)
    with pytest.raises(DuplicateCoordinates):
        solve_by_location(pool)


def test_location_game_incomplete_grid_is_not_certified(reference_painting):
    fragments = FragmentPool.from_painting(
        reference_painting, "location", seed=9
    ).fragments
    report = solve_by_location(FragmentPool(fragments[:-1]))
    assert report.placements == 99
    assert report.completed_replicas == 0
    assert report.completion_order == ()
    assert report.boards == ()
    # Twelve located fragments that fill x = 2..5, y = 1..3 leave column 1
    # empty: a board starts at (1, 1).
    shifted = [
        Description("tile-extraction", f"cf_{x}_{y}", {}, (x, y))
        for y in range(1, 4)
        for x in range(2, 6)
    ]
    report = solve_by_location(FragmentPool(shifted))
    assert (report.placements, report.trials) == (12, 12)
    assert report.completed_replicas == 0
    assert report.boards == ()
    # Two fragments for the two cells of a 2 x 1 grid, but one lies left of
    # it, at x = 0.
    outside = [Description("tile-extraction", f"cf_{x}", {}, (x, 1)) for x in (0, 2)]
    report = solve_by_location(FragmentPool(outside))
    assert (report.placements, report.completed_replicas, report.boards) == (2, 0, ())


# --- the border game, unique signatures -------------------------------------


def test_border_game_rebuilds_the_exact_painting(reference_painting):
    pool = FragmentPool.from_painting(reference_painting, "border", seed=11)
    report = solve_by_borders(pool)
    assert report.completed_replicas == 1
    assert report.placements == report.trials == 100
    (board,) = report.boards
    board.validate_edges()
    assert board_form_grid(board) == source_form_grid(reference_painting)


def test_border_game_outcome_is_draw_order_independent(reference_painting):
    target = source_form_grid(reference_painting)
    for seed in range(10):
        pool = FragmentPool.from_painting(reference_painting, "border", seed=seed)
        (board,) = solve_by_borders(pool).boards
        assert board_form_grid(board) == target


def test_border_game_rejects_located_fragments(reference_painting):
    pool = FragmentPool.from_painting(reference_painting, "location", seed=0)
    with pytest.raises(ValueError):
        solve_by_borders(pool)


def test_border_game_rejects_empty_pool():
    with pytest.raises(ValueError):
        solve_by_borders(FragmentPool([]))


def test_multi_replica_assembly_completes_every_copy(reference_painting):
    replicas = 4
    pool = FragmentPool.from_painting(
        reference_painting, "border", replicas=replicas, seed=21
    )
    report = solve_by_borders(pool)
    assert report.completed_replicas == replicas
    assert report.placements == report.trials == replicas * 100
    target = source_form_grid(reference_painting)
    for board in report.boards:
        board.validate_edges()
        assert board_form_grid(board) == target
    draw_indices = [draw for _, draw in report.completion_order]
    assert draw_indices == sorted(draw_indices)
    # Conservation forces the final copy to close on the final draw.
    assert draw_indices[-1] == replicas * 100


@pytest.mark.parametrize(
    "seed, order",
    [
        (0, ((0, 250), (1, 289), (2, 300))),
        (1, ((0, 245), (1, 296), (2, 300))),
        (2, ((0, 249), (1, 292), (2, 300))),
    ],
    ids=("seed0", "seed1", "seed2"),
)
def test_replica_interleaving_is_pinned(reference_painting, seed, order):
    # The draw indices at which intermingled replicas close: the cover
    # times of the draws (see the hypothesis test below).
    pool = FragmentPool.from_painting(
        reference_painting, "border", replicas=3, seed=seed
    )
    assert solve_by_borders(pool).completion_order == order


def random_unique_spec(data):
    width = data.draw(st.integers(2, 6), label="width")
    height = data.draw(st.integers(2, 6), label="height")
    cells = width * height
    q = data.draw(st.integers(1, min(4, cells - 1)), label="q")
    seed = data.draw(st.integers(0, 2**31), label="seed")
    rng = random.Random(seed)
    counts = {j: 1 for j in range(1, q + 1)}
    for _ in range(cells - q):
        counts[rng.randint(1, q)] += 1
    return PaintingSpec(width, height, q, counts, seed=seed)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_replicas_close_at_the_cover_times_of_the_draws(data):
    # What the pinned interleavings mean, whichever way the pool is solved:
    # board j closes at the first draw by which every tile has come out j
    # times (Newman & Shepp 1960).
    spec = random_unique_spec(data)
    replicas = data.draw(st.integers(1, 4), label="R")
    pool_seed = data.draw(st.integers(0, 2**31), label="pool seed")
    pool = FragmentPool.from_painting(
        generate_painting(spec), "border", replicas=replicas, seed=pool_seed
    )
    stream = [fragment.entity_id for fragment in pool.fragments]
    expected = cover_times(stream, spec.width * spec.height, replicas)
    assert solve_by_borders(pool).completion_order == tuple(enumerate(expected))


def with_edges(fragment, edges):
    return dataclasses.replace(
        fragment, points={**fragment.points, **dict(zip(ASPECT_EDGES, edges))}
    )


def half_turn(fragments, i):
    n, e, s, w = _edges_of(fragments[i])
    fragments[i] = with_edges(fragments[i], (s, w, n, e))


def swap_side(fragments, i, j, side):
    first, second = list(_edges_of(fragments[i])), list(_edges_of(fragments[j]))
    first[side], second[side] = second[side], first[side]
    fragments[i] = with_edges(fragments[i], first)
    fragments[j] = with_edges(fragments[j], second)


GUEST_SPEC = PaintingSpec(6, 5, 3, {1: 9, 2: 12, 3: 9}, seed=802273)


@pytest.mark.parametrize(
    "spec, seed, replicas, tamper, args",
    [
        (REFERENCE_SPEC, 0, 2, half_turn, (3,)),
        (REFERENCE_SPEC, 0, 2, half_turn, (7,)),
        (REFERENCE_SPEC, 0, 1, swap_side, (0, 1, E)),
        (REFERENCE_SPEC, 0, 1, swap_side, (0, 1, N)),
        (GUEST_SPEC, 802273, 3, half_turn, (37,)),
    ],
    ids=("turned-slot", "turned-seam", "swapped-slot", "swapped-seam", "turned-guest"),
)
def test_clash_verdicts_name_the_draw(spec, seed, replicas, tamper, args):
    # Pools in which a greedy assembler fed in draw order met a clash at a
    # piece's matched slot or along a merge seam, and named the draw that
    # revealed it.  The border game proves that no assembly of them exists.
    fragments = list(FragmentPool.from_painting(
        generate_painting(spec), "border", replicas=replicas, seed=seed
    ).fragments)
    tamper(fragments, *args)
    pool = FragmentPool(fragments, seed=seed)
    with pytest.raises(UnsolvablePool, match="no consistent assembly found"):
        solve_by_borders(pool)


def test_tampered_signature_is_detected(reference_painting):
    fragments = list(
        FragmentPool.from_painting(reference_painting, "border", seed=4).fragments
    )
    victim_index = next(
        i for i, f in enumerate(fragments) if f.points["edge_n"] != "B"
    )
    victim = fragments[victim_index]
    tampered = dataclasses.replace(
        victim, points={**victim.points, "edge_n": "s99999"}
    )
    fragments[victim_index] = tampered
    with pytest.raises(UnsolvablePool):
        solve_by_borders(FragmentPool(fragments, seed=4))


def test_foreign_piece_from_another_painting_is_detected():
    # A stray piece reuses the host's signature namespace; the search
    # proves no assembly exists.
    host = generate_painting(PaintingSpec(2, 2, 1, {1: 4}, seed=1))
    other = generate_painting(PaintingSpec(2, 2, 1, {1: 4}, seed=2))
    fragments = FragmentPool.from_painting(host, "border", seed=6).fragments
    stranger = FragmentPool.from_painting(other, "border", seed=6).fragments[0]
    with pytest.raises(UnsolvablePool):
        solve_by_borders(FragmentPool(fragments + (stranger,)))


def test_pool_mixing_two_paintings_is_rebuilt():
    # Both paintings name their seams from one namespace, so greedy
    # assembly in draw order clashes ("piece does not fit its matched
    # slot"); the boards exist, and the search finds them.
    first, second = (
        generate_painting(PaintingSpec(3, 3, 2, {1: 5, 2: 4}, seed=seed))
        for seed in (1, 2)
    )
    fragments = [
        fragment
        for painting in (first, second)
        for fragment in FragmentPool.from_painting(painting, "border").fragments
    ]
    report = solve_by_borders(FragmentPool(fragments, seed=0))
    assert report.completion_order == ((0, 17), (1, 18))
    for board in report.boards:
        board.validate_edges()
    rebuilt = sorted(sorted(board_form_grid(board).items()) for board in report.boards)
    assert rebuilt == sorted(
        sorted(source_form_grid(painting).items()) for painting in (first, second)
    )


# --- the border game, ambiguous signatures ----------------------------------

AMBIGUOUS_SPEC = PaintingSpec(
    3, 3, 2, {1: 5, 2: 4}, uniqueness_mode=AMBIGUOUS_EDGES, seed=2
)


def assert_painting_rebuilt(painting, pool_seed, replicas=1):
    pool = FragmentPool.from_painting(
        painting, "border", replicas=replicas, seed=pool_seed
    )
    report = solve_by_borders(pool)
    assert report.completed_replicas == len(report.boards) == replicas
    for board in report.boards:
        assert (board.width, board.height) == (painting.width, painting.height)
        board.validate_edges()
    # Search may settle on any coherent tiling, but the material is conserved.
    recovered = sorted(
        piece.payload.points[ASPECT_COLOUR_FORM]
        for board in report.boards
        for piece in board.cells.values()
    )
    assert recovered == sorted(
        t.colour_form_id for t in painting.tiles for _ in range(replicas)
    )


def test_ambiguous_pool_is_solved_by_search():
    assert_painting_rebuilt(generate_painting(AMBIGUOUS_SPEC), pool_seed=1)


@pytest.mark.parametrize(
    "width, height, counts, seed, replicas",
    [
        # A search that never branched on bridge merges reported "no
        # consistent assembly found" for these paintings.
        (2, 3, {1: 3, 2: 3}, 20, 1),
        (2, 3, {1: 3, 2: 3}, 26, 1),
        (2, 3, {1: 3, 2: 3}, 57, 1),
        (3, 3, {1: 5, 2: 4}, 1, 1),
        (3, 3, {1: 5, 2: 4}, 29, 1),
        (3, 3, {1: 5, 2: 4}, 54, 1),
        (3, 3, {1: 5, 2: 4}, 55, 1),
        (3, 3, {1: 5, 2: 4}, 2, 3),
        # Needs backtracking: 50 trials for 48 pieces.
        (4, 4, {1: 8, 2: 8}, 2, 3),
    ],
)
def test_ambiguous_pool_is_rebuilt(width, height, counts, seed, replicas):
    spec = PaintingSpec(
        width, height, 2, counts, uniqueness_mode=AMBIGUOUS_EDGES, seed=seed
    )
    assert_painting_rebuilt(generate_painting(spec), seed, replicas)


def test_ambiguous_pool_exhausts_a_tiny_trial_budget():
    painting = generate_painting(AMBIGUOUS_SPEC)
    pool = FragmentPool.from_painting(painting, "border", seed=1)
    with pytest.raises(UnsolvablePool, match="trial budget 3 exhausted"):
        solve_by_borders(pool, trial_budget=3)


# --- pools, boards, reports -------------------------------------------------


def test_pool_order_is_seeded_and_immutable(reference_painting):
    first = FragmentPool.from_painting(reference_painting, "border", seed=17)
    second = FragmentPool.from_painting(reference_painting, "border", seed=17)
    assert first.fragments == second.fragments
    assert len(first) == len(first.fragments) == 100
    # Solving reads the pool without using it up.
    solve_by_borders(first)
    assert first.fragments == second.fragments
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.fragments = ()


def file_fragment(position, form, edges, view):
    """The fragment a painting file's cell yields through ``view``."""
    if view == "location":
        return Description(GENERATOR_ID, form, {}, position)
    return Description(
        GENERATOR_ID, form, {ASPECT_COLOUR_FORM: form, **dict(zip(ASPECT_EDGES, edges))}
    )


@pytest.mark.parametrize(
    "replicas, seed, digest",
    [
        (1, 0, "79ad5d6d6cec8525"),
        (1, 5, "9a9f697723659fff"),
        (3, 0, "857e09a33e4043e1"),
        (3, 5, "2aa33fc5f7a5a342"),
        (16, 0, "b34ce0c9ecd6c4c0"),
        (16, 5, "b5d039d6d8d6c9c9"),
    ],
)
@pytest.mark.parametrize(
    "mode, view", [("location", "location"), ("border", "colour_form")]
)
def test_pool_order_is_pinned(reference_painting, mode, view, replicas, seed, digest):
    # Captured while every replica described each tile afresh; the shuffle
    # sees the same sequence however the descriptions are made.
    fragments = FragmentPool.from_painting(
        reference_painting, mode, replicas=replicas, seed=seed
    ).fragments
    ids = " ".join(fragment.entity_id for fragment in fragments)
    assert hashlib.sha256(ids.encode()).hexdigest()[:16] == digest
    expected = {
        form: file_fragment(position, form, edges, view)
        for position, form, edges in file_cells(reference_painting)
    }
    for fragment in fragments:
        assert fragment == expected[fragment.entity_id]


@pytest.mark.parametrize("replicas", [1, 2, 3])
def test_draw_order_is_that_of_random_shuffle(replicas):
    # The bulk words must make the swaps of ``Random.shuffle``, across the
    # lengths where the word's shift changes and across a chunk's end.
    for cells in [*range(71), 1023, 1024, 1025, 4096]:
        for seed in (0, 11):
            expected = reference_draw_order(cells, replicas, seed)
            assert _draw_order(cells, replicas, seed) == expected


@pytest.mark.parametrize("cells, replicas", [(2**32, 1), (1, 2**32), (2**16, 2**16)])
def test_draw_order_refuses_2_to_the_32_draws(cells, replicas):
    # From 2**32 draws on, ``shuffle`` takes two words for some draws; the
    # length is refused before any list is built.
    with pytest.raises(ValueError, match="fewer than 2\\*\\*32 draws"):
        _draw_order(cells, replicas, 0)


def fragments_by_form(painting, mode):
    pool = FragmentPool.from_painting(painting, mode)
    return {fragment.entity_id: fragment for fragment in pool.fragments}


def test_location_fragment_carries_its_coordinates_alone(reference_painting):
    tile = reference_painting.tiles[0]
    fragment = fragments_by_form(reference_painting, "location")[tile.colour_form_id]
    assert fragment.grid_coords == (1, 1)
    assert fragment.entity_id == tile.colour_form_id
    assert fragment.points == {}


def test_border_fragment_carries_form_and_edges_without_coordinates(
    reference_painting,
):
    tile = reference_painting.tiles[(5 - 1) * reference_painting.width + (2 - 1)]
    fragment = fragments_by_form(reference_painting, "border")[tile.colour_form_id]
    assert fragment.points["colour_form"] == tile.colour_form_id
    assert fragment.grid_coords is None
    assert "approx_colour" not in fragment.points
    edges = ("edge_n", "edge_e", "edge_s", "edge_w")
    assert tuple(fragment.points[aspect] for aspect in edges) == tile.edge_sigs


def test_description_is_immutable_and_defensive():
    points = {"colour": "red"}
    d = Description("g", "e", points)
    points["colour"] = "blue"
    assert d.points == {"colour": "red"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.entity_id = "other"
    with pytest.raises(ValueError):
        Description("", "e", {})


def test_coordinates_are_int_pairs_or_refused():
    coords = (2, 5)
    assert Description("g", "e", {}, coords).grid_coords is coords
    for coords in ((2.9, True), (2.7, 1), (2.0, 1), [2, 5], (1, 2, 3), (2,)):
        with pytest.raises(ValueError, match="grid_coords must be"):
            Description("g", "e", {}, coords)


def test_from_painting_rejects_an_unknown_mode(reference_painting):
    with pytest.raises(ValueError, match="mode"):
        FragmentPool.from_painting(reference_painting, "weight")


def test_board_validate_edges_catches_mismatch():
    left = Piece("l", ("B", "x", "B", "B"))
    right = Piece("r", ("B", "B", "B", "y"))
    board = Board(2, 1, (left, right))
    with pytest.raises(InconsistentSignatures):
        board.validate_edges()
    # A lone piece must carry the boundary mark on every side.
    with pytest.raises(InconsistentSignatures, match="bad north boundary marker"):
        Board(1, 1, (Piece("p", ("x", "B", "B", "B")),)).validate_edges()
    with pytest.raises(InconsistentSignatures, match="with and without edges"):
        Board(2, 1, (Piece("l", ("B", "x", "B", "B")),
                     Piece("r", None))).validate_edges()
    # Edge-less pieces, as the location game places them, carry nothing
    # to check.
    Board(2, 1, (Piece("l"), Piece("r"))).validate_edges()
    # Every seam that is there matches, but a board with a hole is refused
    # when it is built.
    edges = [("a", "b", "B", "B"), ("c", "B", "B", "b"), ("B", "d", "a", "B")]
    with pytest.raises(ValueError, match="expected 4 pieces, got 3"):
        Board(2, 2, tuple(Piece(i, e) for i, e in enumerate(edges)))


def test_assembly_report_invariants():
    board = Board(1, 1, (Piece("p", None),))
    with pytest.raises(ValueError):
        AssemblyReport(5, 4, 0, (), (board,))
    with pytest.raises(ValueError):
        AssemblyReport(1, 1, 1, (), (board,))
    doc = AssemblyReport(1, 1, 1, ((0, 1),), (board,)).to_doc()
    assert doc["board_sizes"] == [{"width": 1, "height": 1, "pieces": 1}]


def test_description_without_edges_is_rejected():
    bare = Description("tile-extraction", "cf_0001", {"colour_form": "cf_0001"}, None)
    with pytest.raises(ValueError):
        solve_by_borders(FragmentPool([bare]))


# --- fuzzing the unique border game -----------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_border_game_recovers_any_unique_painting(data):
    spec = random_unique_spec(data)
    painting = generate_painting(spec)
    pool_seed = data.draw(st.integers(0, 2**31), label="pool seed")
    pool = FragmentPool.from_painting(painting, "border", seed=pool_seed)
    report = solve_by_borders(pool)
    assert report.completed_replicas == 1
    (board,) = report.boards
    board.validate_edges()
    assert board_form_grid(board) == source_form_grid(painting)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 3))
def test_border_game_recovers_replicated_pools(seed, replicas):
    painting = generate_painting(PaintingSpec(4, 3, 2, {1: 7, 2: 5}, seed=seed))
    pool = FragmentPool.from_painting(painting, "border", replicas=replicas, seed=seed)
    report = solve_by_borders(pool)
    assert report.completed_replicas == replicas
    target = source_form_grid(painting)
    for board in report.boards:
        assert board_form_grid(board) == target


def quarter_turn(fragments, i, rng):
    n, e, s, w = _edges_of(fragments[i])
    fragments[i] = with_edges(fragments[i], (w, n, e, s))


def swap_two_sides(fragments, i, rng):
    edges = list(_edges_of(fragments[i]))
    a, b = rng.sample(range(4), 2)
    edges[a], edges[b] = edges[b], edges[a]
    fragments[i] = with_edges(fragments[i], edges)


def swap_side_between_pieces(fragments, i, rng):
    swap_side(fragments, i, rng.randrange(len(fragments)), rng.randrange(4))


def assert_boards_hold_the_pool(report, pool):
    """Every board is a full, seam-coherent grid, and together the boards
    hold exactly the pool's pieces."""
    held = Counter()
    for board in report.boards:
        board.validate_edges()
        for piece in board.pieces:
            assert piece.edges == _edges_of(piece.payload)
            held[piece.payload.entity_id, piece.edges] += 1
    assert held == Counter((f.entity_id, _edges_of(f)) for f in pool.fragments)


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    st.sampled_from(
        ["none", quarter_turn, swap_two_sides, swap_side_between_pieces, "mix"]
    ),
)
def test_border_game_verdicts_hold_on_tampered_and_mixed_pools(data, tampering):
    # Tampering permutes signatures, so every pool still counts as unique.
    # An untampered pool, also one mixing a second painting in, is rebuilt
    # into one board per replica; any pool the search solves is rebuilt
    # from exactly its own pieces into full, coherent boards.
    spec = random_unique_spec(data)
    replicas = data.draw(st.integers(2 if tampering == "mix" else 1, 3), label="R")
    seed = data.draw(st.integers(0, 2**31), label="pool seed")
    painting = generate_painting(spec)
    if tampering == "mix":
        other = generate_painting(dataclasses.replace(spec, seed=spec.seed + 1))
        fragments = FragmentPool.from_painting(
            painting, "border", replicas=replicas - 1
        ).fragments + FragmentPool.from_painting(other, "border").fragments
    else:
        fragments = FragmentPool.from_painting(
            painting, "border", replicas=replicas
        ).fragments
    if callable(tampering):
        fragments = list(fragments)
        rng = random.Random(seed)
        tampering(fragments, rng.randrange(len(fragments)), rng)
    pool = FragmentPool(fragments, seed=seed)
    try:
        report = solve_by_borders(pool)
    except UnsolvablePool:
        assert callable(tampering)
        return
    if not callable(tampering):
        assert len(report.boards) == report.completed_replicas == replicas
    assert_boards_hold_the_pool(report, pool)
