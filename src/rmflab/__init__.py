"""rmflab: random multiplicative functions in short intervals.

Simulates seeded random multiplicative functions, counts square quadruples
exactly, runs the conditional-moment and combinatorial identity checks, and
measures Wasserstein/Kolmogorov distances of the normalized interval sum
from the standard normal, with evaluators for every explicit bound.
"""

from .bounds import (
    BoundInputs,
    delta3_sum_bound,
    exchange_variance_bound,
    kolmogorov_bound,
    nondiagonal_bound,
    wasserstein_bound,
)
from .distances import (
    SampleSet,
    kkw_from,
    kolmogorov_stat,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    wasserstein1,
)
from .errors import ContractViolation, ScaleError
from .harness import ExperimentConfig, ExperimentReport, emit, run_simulate
from .numtheory import (
    IntervalTable,
    segmented_factorize,
)
from .quadruples import (
    QuadrupleParam,
    diagonal_count,
    oracle_count_square_quadruples,
    param_enumerate_nondiagonal,
    param_of_quadruple,
)
from .rmf_core import (
    IntervalSampler,
    SignSource,
    interval_sum,
    rmf_value,
)
from .stein import (
    SteinTerms,
    conditional_moments_check,
    exchange_variance_monte_carlo,
    stein_terms,
    subset_weight,
    subset_weight_identity,
)

__version__ = "0.1.0"
