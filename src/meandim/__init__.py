"""Dynamical dimension quantities of symbolic systems, with a brute-force
metric-geometry oracle cross-checking every closed form."""

from .errors import (
    DegenerateScale,
    DomainError,
    EmptySubshift,
    MeanDimError,
    ParameterOverflow,
    ResourceLimit,
)
from .symbolic import (
    Automaton,
    EntropyReport,
    SubshiftSpec,
    allowed_tuples,
    count_words,
    entropy,
    enumerate_words,
    forbidden_words,
    full_shift,
    prune,
    sft_from_matrix,
    spec_from_json,
)
from .weighted import (
    FiberCountTable,
    PairShiftSystem,
    WeightedEntropyReport,
    fiber_counts,
    image_subshift,
    pair_system,
    pair_system_from_tuples,
    weighted_entropy,
)
from .carpet import (
    CarpetSpec,
    DimensionReport,
    ValueBracket,
    carpet_from_tuples,
    classical_carpet_dims,
    gap_analysis,
    mean_dims,
)
from .selfsim import (
    BetaSystemSpec,
    beta_system,
    covering_lower_bound,
    min_gap,
    self_similar_dims,
)
from .grid2d import (
    Grid2DSpec,
    count_rectangles,
    entropy2d,
    free_rule,
    hard_square_rule,
    linear_rule,
    patterns_rule,
    rule_from_json,
    three_dot_rule,
    torus_points,
)
from .metrics import MetricDescriptor, PointCloud
from .oracle import (
    CoverBounds,
    QBoxFamily,
    covering_bounds,
    covering_sandwich,
    exact_min_cover,
    hausdorff_upper_at_scale,
    mass_distribution_check,
    qbox_family,
    verify_family_separation,
)

__version__ = "0.1.0"
