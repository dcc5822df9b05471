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
    # White box: the open count equals a recount of the joined events'
    # non-boundary sides whose partner has not arrived.
    recount = sum(
        sig != BOUNDARY and sig not in replicas.shown[OPPOSITE[d]]
        for event in replicas.events
        for d, sig in enumerate(event.edge_sigs)
    )
    assert replicas.open == recount
