"""rmflab: random multiplicative functions in short intervals.

Simulates seeded random multiplicative functions, counts square quadruples
exactly, runs the conditional-moment and combinatorial identity checks, and
measures Wasserstein/Kolmogorov distances of the normalized interval sum
from the standard normal, with evaluators for every explicit bound.
"""

from .bounds import (
    BoundInputs,
    delta3_sum_bound,
    density_admissible,
    exchange_variance_bound,
    kolmogorov_bound,
    nondiagonal_bound,
    wasserstein_bound,
)
from .distances import (
    SampleSet,
    kkw_check,
    kkw_from,
    kolmogorov_stat,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    smoothing_majorant,
    wasserstein1,
)
from .errors import ContractViolation, DegenerateIntervalError, ScaleError
from .harness import ExperimentConfig, ExperimentReport, emit, run_simulate
from .numtheory import (
    IntervalTable,
    PrimeSplit,
    kernel_xor,
    omega_L,
    prime_split,
    segmented_factorize,
    squarefree_count,
)
from .quadruples import (
    QuadrupleParam,
    diagonal_count,
    fourth_moment_exact,
    oracle_count_square_quadruples,
    param_enumerate_nondiagonal,
    param_of_quadruple,
)
from .rmf_core import (
    IntervalSampler,
    SignSource,
    WStatistic,
    interval_sum,
    normalized_w,
    partial_sum_m,
    rmf_value,
)
from .stein import (
    IncrementSupport,
    SteinTerms,
    conditional_moments_check,
    conditional_t_decomposition_check,
    delta2_exact,
    delta3_exact_tiny,
    delta4_exact,
    exchange_statistic,
    exchange_variance_monte_carlo,
    increment_support,
    stein_terms,
    subset_weight,
    subset_weight_identity,
)

__version__ = "0.1.0"
