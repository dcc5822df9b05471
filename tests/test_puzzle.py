import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from factlaw import (
    AMBIGUOUS_EDGES,
    ASPECT_COLOUR_FORM,
    ASPECT_EDGES,
    BOUNDARY,
    AssemblyReport,
    Board,
    BorderAssembler,
    Description,
    DuplicateCoordinates,
    FragmentPool,
    InconsistentSignatures,
    PaintingSpec,
    Piece,
    UnsolvablePool,
    complexified_phenomenon,
    generate_painting,
    solve_by_borders,
    solve_by_location,
)
from factlaw.puzzle import (
    E,
    N,
    _STEPS,
    _edges_of,
    _solve_scanline,
)

from conftest import REFERENCE_SPEC
from oracles import cover_times


def source_form_grid(painting):
    return {tile.coords: tile.colour_form_id for tile in painting.tiles}


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
    assert board.is_full_rectangle()
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
    ).draw_all()
    clash = dataclasses.replace(fragments[0], grid_coords=fragments[1].grid_coords)
    pool = FragmentPool([clash] + fragments[1:], seed=2)
    with pytest.raises(DuplicateCoordinates):
        solve_by_location(pool)


def test_location_game_is_single_replica_only(reference_painting):
    pool = FragmentPool.from_painting(reference_painting, "location", replicas=2)
    with pytest.raises(ValueError):
        solve_by_location(pool)


def test_location_game_incomplete_grid_is_not_certified(reference_painting):
    fragments = FragmentPool.from_painting(
        reference_painting, "location", seed=9
    ).draw_all()
    report = solve_by_location(FragmentPool(fragments[:-1]))
    assert report.placements == 99
    assert report.completed_replicas == 0
    assert report.completion_order == ()


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
def test_greedy_interleaving_is_pinned(reference_painting, seed, order):
    # The draw indices at which intermingled replicas close depend on the
    # slot order of attachment and of bridge merges, so they pin both.
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


@pytest.mark.parametrize(
    "seed, merges, cells_moved",
    [(0, 60, 180), (1, 68, 185), (2, 57, 203)],
    ids=("seed0", "seed1", "seed2"),
)
def test_merge_counters_are_pinned(reference_painting, seed, merges, cells_moved):
    # The interleaving pools above.  Moving every guest into its host made
    # the same merges but moved 231 / 221 / 346 cells; moving the smaller
    # patch of each pair moves fewer.
    fragments = FragmentPool.from_painting(
        reference_painting, "border", replicas=3, seed=seed
    ).draw_all()
    assembler = BorderAssembler()
    for i, fragment in enumerate(fragments):
        assembler.add(Piece(fragment, _edges_of(fragment)), draw_index=i + 1)
    assert not assembler.patches
    assert (assembler.merges, assembler.cells_moved) == (merges, cells_moved)


def test_unique_signatures_leave_no_real_choice(reference_painting):
    # White box: with unique edges and one replica, every open requirement
    # bucket holds at most one slot, and a piece never sees two different
    # positions inside the same patch -- its candidates are one true slot
    # per patch it happens to bridge, so greedy attachment never guesses.
    fragments = FragmentPool.from_painting(
        reference_painting, "border", seed=33
    ).draw_all()
    assembler = BorderAssembler()
    for i, fragment in enumerate(fragments):
        piece = Piece(fragment, _edges_of(fragment))
        assert all(len(slots) <= 1 for slots in assembler.req_index.values())
        positions_by_patch = {}
        for key in enumerate(piece.edges):
            for patch_id, pos in assembler.req_index.get(key, ()):
                positions_by_patch.setdefault(patch_id, set()).add(pos)
        assert all(len(ps) == 1 for ps in positions_by_patch.values())
        assembler.add(piece, draw_index=i + 1)
    assert not assembler.patches


def assert_ledgers_match_the_index(assembler):
    filed = {
        (key, patch_id, cell)
        for key, slots in assembler.req_index.items()
        for patch_id, cell in slots
    }
    ledgered = [
        (key, patch.patch_id, cell)
        for patch in assembler.patches.values()
        for cell, keys in patch.slots.items()
        for key in keys
    ]
    assert len(set(ledgered)) == len(ledgered)
    assert set(ledgered) == filed
    assert all(assembler.req_index.values())
    # A patch closes exactly when its ledger runs empty.
    assert all(patch.slots for patch in assembler.patches.values())
    assert not any(patch.slots for patch, _ in assembler.completed)


def replicated_pieces(painting, form):
    fragments = FragmentPool.from_painting(
        painting, "border", replicas=3, seed=8
    ).draw_all()
    return [Piece(fragment, _edges_of(fragment)) for fragment in fragments]


def streamed_pieces(painting, form):
    return (Piece(event, event.edge_sigs) for event in complexified_phenomenon(form, 8))


def assert_no_mergeable_pair_is_left(assembler):
    # Every foreign slot that an open side's piece could fill belongs to a
    # patch that overlaps this one at that alignment, so bridging from the
    # newly placed piece alone left no merge undone.
    # Cells are the assembler's integer keys, so an offset is one int.
    for patch in assembler.patches.values():
        for pos, piece in patch.cells.items():
            for d, sig in enumerate(piece.edges):
                if sig == BOUNDARY or pos + _STEPS[d] in patch.cells:
                    continue
                for patch_id, slot in assembler.req_index.get((d, sig), ()):
                    if patch_id == patch.patch_id:
                        continue
                    other = assembler.patches[patch_id].cells
                    offset = pos - slot
                    assert any(cell + offset in patch.cells for cell in other)


@pytest.mark.parametrize(
    "pieces", [replicated_pieces, streamed_pieces], ids=("pool", "stream")
)
def test_no_mergeable_pair_is_left_after_any_add(
    reference_painting, reference_form, pieces
):
    assembler = BorderAssembler()
    for i, piece in enumerate(pieces(reference_painting, reference_form)):
        assembler.add(piece, draw_index=i + 1)
        assert_no_mergeable_pair_is_left(assembler)
        if len(assembler.completed) == 3:
            break
    assert len(assembler.completed) == 3


@pytest.mark.parametrize(
    "pieces", [replicated_pieces, streamed_pieces], ids=("pool", "stream")
)
def test_slot_ledgers_agree_with_the_requirement_index(
    reference_painting, reference_form, pieces
):
    # White box: each patch's ledger files exactly the slots the index
    # holds for it, after every add, through attachments, bridge merges
    # and closings of three intermingled replicas.
    assembler = BorderAssembler()
    for i, piece in enumerate(pieces(reference_painting, reference_form)):
        assembler.add(piece, draw_index=i + 1)
        assert_ledgers_match_the_index(assembler)
        if len(assembler.completed) == 3:
            break
    assert len(assembler.completed) == 3


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
    "spec, seed, replicas, tamper, args, message",
    [
        (REFERENCE_SPEC, 0, 2, half_turn, (3,),
         "draw 153: piece does not fit its matched slot"),
        (REFERENCE_SPEC, 0, 2, half_turn, (7,), "draw 131: merge seam mismatch"),
        (REFERENCE_SPEC, 0, 1, swap_side, (0, 1, E),
         "draw 40: piece does not fit its matched slot"),
        (REFERENCE_SPEC, 0, 1, swap_side, (0, 1, N), "draw 65: merge seam mismatch"),
        (GUEST_SPEC, 802273, 3, half_turn, (37,), "draw 52: merge seam mismatch"),
    ],
    ids=("turned-slot", "turned-seam", "swapped-slot", "swapped-seam", "turned-guest"),
)
def test_clash_verdicts_name_the_draw(spec, seed, replicas, tamper, args, message):
    # Fed the pool in draw order, the assembler meets a clash at a piece's
    # matched slot or along a merge seam, and the verdict names the kind of
    # clash and the draw that revealed it.  In the last case two guest cells
    # meet the half-turned piece at once; the verdict names neither.  The
    # border game proves that no assembly of these pools exists.
    fragments = FragmentPool.from_painting(
        generate_painting(spec), "border", replicas=replicas, seed=seed
    ).draw_all()
    tamper(fragments, *args)
    pool = FragmentPool(fragments, replica_count=replicas, seed=seed)
    assembler = BorderAssembler()
    with pytest.raises(InconsistentSignatures) as caught:
        for draw, fragment in enumerate(pool.fragments, 1):
            assembler.add(Piece(fragment, _edges_of(fragment)), draw_index=draw)
    assert f"draw {draw}: {caught.value}" == message
    with pytest.raises(UnsolvablePool, match="no consistent assembly found"):
        solve_by_borders(pool)


def test_tampered_signature_is_detected(reference_painting):
    fragments = FragmentPool.from_painting(
        reference_painting, "border", seed=4
    ).draw_all()
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
    fragments = FragmentPool.from_painting(host, "border", seed=6).draw_all()
    stranger = FragmentPool.from_painting(other, "border", seed=6).draw_all()[0]
    with pytest.raises(UnsolvablePool):
        solve_by_borders(FragmentPool(fragments + [stranger]))


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
        for fragment in FragmentPool.from_painting(painting, "border").draw_all()
    ]
    report = solve_by_borders(FragmentPool(fragments, replica_count=2, seed=0))
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
        assert board.is_full_rectangle()
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


def test_pool_draw_order_is_seeded_and_exhaustible(reference_painting):
    first = FragmentPool.from_painting(reference_painting, "border", seed=17)
    second = FragmentPool.from_painting(reference_painting, "border", seed=17)
    assert first.draw_all() == second.draw_all()
    assert len(first) == 0
    with pytest.raises(IndexError):
        first.draw()


def test_pool_len_counts_down(reference_painting):
    pool = FragmentPool.from_painting(reference_painting, "border", seed=17)
    assert len(pool) == 100
    pool.draw()
    assert len(pool) == 99


def test_pool_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FragmentPool([], replica_count=0)


def test_board_canonical_translation():
    piece = Piece("only", None)
    board = Board({(4, -2): piece, (5, -2): piece})
    moved = board.canonical()
    assert set(moved.cells) == {(1, 1), (2, 1)}
    assert moved.canonical() is moved


def test_board_validate_edges_catches_mismatch():
    left = Piece("l", ("B", "x", "B", "B"))
    right = Piece("r", ("B", "B", "B", "y"))
    board = Board({(1, 1): left, (2, 1): right})
    with pytest.raises(InconsistentSignatures):
        board.validate_edges()


def test_assembly_report_invariants():
    board = Board({(1, 1): Piece("p", None)})
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


def verdict(solve):
    """The number of boards rebuilt, or "refused"."""
    try:
        report = solve()
    except UnsolvablePool:
        return "refused"
    return "refused" if report is None else len(report.boards)


def greedy_verdict(draws, sigs):
    """The greedy assembler's verdict on the draws, fed in order: the
    number of boards it closes, or "refused" at a clash or a leftover patch."""
    assembler = BorderAssembler()
    try:
        for i, (fragment, edges) in enumerate(zip(draws, sigs), 1):
            assembler.add(Piece(fragment, edges), draw_index=i)
    except InconsistentSignatures:
        return "refused"
    return "refused" if assembler.patches else len(assembler.completed)


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    st.sampled_from(
        ["none", quarter_turn, swap_two_sides, swap_side_between_pieces, "mix"]
    ),
)
def test_greedy_and_scanline_verdicts_agree(data, tampering):
    # Tampering permutes signatures, so every pool still counts as unique.
    # On one painting's replicas the greedy assembler fed in draw order
    # must agree with the exhaustive search; a pool mixing a second
    # painting in can make greedy clash although boards exist, and there
    # the border game must still give the search's verdict.
    spec = random_unique_spec(data)
    replicas = data.draw(st.integers(2 if tampering == "mix" else 1, 3), label="R")
    seed = data.draw(st.integers(0, 2**31), label="pool seed")
    painting = generate_painting(spec)
    if tampering == "mix":
        other = generate_painting(dataclasses.replace(spec, seed=spec.seed + 1))
        fragments = FragmentPool.from_painting(
            painting, "border", replicas=replicas - 1
        ).draw_all() + FragmentPool.from_painting(other, "border").draw_all()
    else:
        fragments = FragmentPool.from_painting(
            painting, "border", replicas=replicas
        ).draw_all()
    if callable(tampering):
        rng = random.Random(seed)
        tampering(fragments, rng.randrange(len(fragments)), rng)
    pool = FragmentPool(fragments, replica_count=replicas, seed=seed)
    draws = list(pool.fragments)
    sigs = [_edges_of(fragment) for fragment in draws]
    searched = verdict(lambda: _solve_scanline(draws, sigs, None))
    assert verdict(lambda: solve_by_borders(pool)) == searched
    if tampering != "mix":
        assert greedy_verdict(draws, sigs) == searched
