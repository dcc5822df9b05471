"""factlaw: a laboratory for factual probability laws.

Integrated tile grids (parcelled paintings) are probabilised into random
phenomena by drawing fragments with replacement and observing only a
simplifying label; the inverse algorithm of semantic integration assembles
complexified event streams back into replicas of the hidden form and reads
the probability law off its exact per-label counts.  Everything is seeded,
deterministic, and exact where the mathematics is exact.
"""

__version__ = "0.1.0"

from .painting import (
    AMBIGUOUS_EDGES,
    BOUNDARY,
    InfeasibleSpec,
    Painting,
    PaintingSpec,
    Tile,
    UNIQUE_EDGES,
    UnsolvablePool,
    generate_painting,
    label_histogram,
    painting_from_doc,
    painting_to_doc,
)
from .puzzle import (
    ASPECT_COLOUR_FORM,
    ASPECT_EDGES,
    GENERATOR_ID,
    AssemblyReport,
    Board,
    Description,
    DuplicateCoordinates,
    FragmentPool,
    InconsistentSignatures,
    Piece,
    solve_by_borders,
    solve_by_location,
)
from .prob import (
    EventAlgebra,
    ForeignElement,
    Measure,
    Universe,
    ValidationReport,
    event_probability,
    generate_algebra,
    validate_measure,
)
from .phenomenon import (
    DivergenceReport,
    FactualSpace,
    FrequencyTable,
    NotReached,
    RandomPhenomenon,
    UniverseMismatch,
    compare_law,
    factual_space_from_painting,
    find_N0,
    meta_probability,
    probabilise_painting,
    run_frequency_experiment,
)
from .integration import (
    AmbiguousStream,
    BudgetExhausted,
    ComparisonReport,
    ComplexifiedEvent,
    HiddenForm,
    InconsistentReplicas,
    IntegrationConfig,
    IntegrationResult,
    complexified_phenomenon,
    end_to_end_check,
    expected_cover_time,
    generate_hidden_form,
    hidden_form_from_painting,
    integrate,
    label_projection,
)
from .seeding import derive_seed

__all__ = [
    "__version__",
    # painting
    "AMBIGUOUS_EDGES",
    "BOUNDARY",
    "InfeasibleSpec",
    "Painting",
    "PaintingSpec",
    "Tile",
    "UNIQUE_EDGES",
    "generate_painting",
    "label_histogram",
    "painting_from_doc",
    "painting_to_doc",
    # puzzle
    "ASPECT_COLOUR_FORM",
    "ASPECT_EDGES",
    "GENERATOR_ID",
    "AssemblyReport",
    "Board",
    "Description",
    "DuplicateCoordinates",
    "FragmentPool",
    "InconsistentSignatures",
    "Piece",
    "UnsolvablePool",
    "solve_by_borders",
    "solve_by_location",
    # prob
    "EventAlgebra",
    "ForeignElement",
    "Measure",
    "Universe",
    "ValidationReport",
    "event_probability",
    "generate_algebra",
    "validate_measure",
    # phenomenon
    "DivergenceReport",
    "FactualSpace",
    "FrequencyTable",
    "NotReached",
    "RandomPhenomenon",
    "UniverseMismatch",
    "compare_law",
    "factual_space_from_painting",
    "find_N0",
    "meta_probability",
    "probabilise_painting",
    "run_frequency_experiment",
    # integration
    "AmbiguousStream",
    "BudgetExhausted",
    "ComparisonReport",
    "ComplexifiedEvent",
    "HiddenForm",
    "InconsistentReplicas",
    "IntegrationConfig",
    "IntegrationResult",
    "complexified_phenomenon",
    "end_to_end_check",
    "expected_cover_time",
    "generate_hidden_form",
    "hidden_form_from_painting",
    "integrate",
    "label_projection",
    # seeding
    "derive_seed",
]
