"""Exact and numerically stable tooling for the Abelian and Avalanche
distribution families: PMFs, moments, the J-term second-moment rewrite,
the large-N variance limit, and a seeded Monte Carlo sampler."""

from .dist import (
    FAMILIES,
    ConvergenceRow,
    JDecomposition,
    Moments,
    Params,
    PmfTable,
    abelian_mean,
    abelian_second_moment,
    abelian_variance,
    avalanche_mean,
    brute_force_moment,
    convergence_table,
    j_decomposition,
    moments,
    normalization_C,
    pmf,
    pmf_table,
    rounded_avalanche_mean,
    support,
    variance_limit,
)
from .sampler import (
    CHUNK,
    EpsilonTrace,
    SampleStats,
    epsilon_sequence,
    monte_carlo,
    substream,
)
from .stirling import (
    E2_LOWER,
    BoundFCertificate,
    LemmaPCertificate,
    ProductBoundCertificate,
    StirlingRow,
    bound_f,
    check_bound_f,
    check_lemma_P,
    check_product_bound,
    falling_factorial,
    poly_P,
    poly_h,
    stirling_row,
    unsigned_stirling,
    unsigned_stirling_subset_oracle,
)

__version__ = "0.1.0"
