import pytest

from factlaw import (
    BOUNDARY,
    PaintingSpec,
    RandomPhenomenon,
    Universe,
    generate_painting,
)
from factlaw.integration import generate_hidden_form
from factlaw.painting import OPPOSITE

# The 10x10 three-label painting with a 60/30/10 split that most scenario
# tests revolve around.
REFERENCE_SPEC = PaintingSpec(
    width=10,
    height=10,
    q=3,
    label_counts={1: 60, 2: 30, 3: 10},
    seed=7,
)


@pytest.fixture(scope="session")
def reference_painting():
    return generate_painting(REFERENCE_SPEC)


@pytest.fixture(scope="session")
def reference_form():
    return generate_hidden_form(REFERENCE_SPEC)


@pytest.fixture()
def fair_coin():
    return RandomPhenomenon("weighted-draw", Universe((1, 2)), (1, 1), seed=0)


def assert_open_counts_are_recounted(replicas):
    # White box: each root's open count equals a recount of its members'
    # non-boundary sides whose partner has not arrived.
    for root, members in enumerate(replicas.members):
        if replicas.find(root) != root:
            continue
        recount = sum(
            sig != BOUNDARY and sig not in replicas.shown[OPPOSITE[d]]
            for event in members
            for d, sig in enumerate(event.edge_sigs)
        )
        assert replicas.open[root] == recount


def assert_no_partner_pair_spans_groups(replicas):
    # White box: every partner pair, two events showing one signature on
    # facing sides, lies under one root, so no union was left undone.
    for event, i in replicas.ids.items():
        for d, sig in enumerate(event.edge_sigs):
            shown = replicas.shown[OPPOSITE[d]].get(sig)
            if sig != BOUNDARY and shown is not None:
                assert replicas.find(replicas.ids[shown[1]]) == replicas.find(i)
