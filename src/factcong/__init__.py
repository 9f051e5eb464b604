"""Exponential sums and exact solution counts for factorial congruences
modulo a prime, with numerical monitoring of the known upper bounds.

Quick tour::

    from factcong import PrimeContext, build_window, CountQuery, count

    ctx = PrimeContext.create(7)
    window = build_window(ctx, 0, 6)     # 1!, 2!, ..., 6! mod 7
    count(CountQuery(family="J", ctx=ctx, ell=1, lam=0)).count  # 10
"""

__version__ = "0.1.0"

from .analysis import (
    BOUND_IDS,
    BoundReport,
    DiscrepancyReport,
    DistributionStats,
    SweepResult,
    bound_rhs,
    direct_discrepancy,
    discrepancy_estimate,
    distinct_stats,
    erdos_turan_bound,
    evaluate_cell,
    star_discrepancy,
    verify_sweep,
)
from .counting import (
    ENGINES,
    FAMILIES,
    CountQuery,
    CountResult,
    brute_force_count,
    count,
    count_convolution,
    count_profile,
)
from .errors import (
    CacheFormatError,
    CompositeModulusError,
    EngineMismatchError,
    FactcongError,
    FactcongWarning,
    GuardExceededError,
    HypothesisError,
    ParameterError,
    TableTooLargeError,
    WindowRangeError,
)
from .expsums import (
    Spectrum,
    SpectrumValue,
    batch_character_sums,
    batch_double_sums,
    batch_single_sums,
    character_sum,
    double_sum,
    single_sum,
)
from .factorial import (
    FactorialWindow,
    Histogram,
    build_window,
    product_histogram,
    sum_histogram,
    value_histogram,
)
from .field import (
    PrimeContext,
    Residue,
    is_probable_prime,
    next_prime_at_least,
    primes_between,
    primes_nearest,
)
from .transform import (
    cyclic_convolution_power,
    cyclic_convolve_direct,
    cyclic_convolve_exact,
    dft_prime_length,
    index_reversed,
)

__all__ = [
    "__version__",
    "BOUND_IDS",
    "BoundReport",
    "DiscrepancyReport",
    "DistributionStats",
    "SweepResult",
    "bound_rhs",
    "direct_discrepancy",
    "discrepancy_estimate",
    "distinct_stats",
    "erdos_turan_bound",
    "evaluate_cell",
    "star_discrepancy",
    "verify_sweep",
    "ENGINES",
    "FAMILIES",
    "CountQuery",
    "CountResult",
    "brute_force_count",
    "count",
    "count_convolution",
    "count_profile",
    "CacheFormatError",
    "CompositeModulusError",
    "EngineMismatchError",
    "FactcongError",
    "FactcongWarning",
    "GuardExceededError",
    "HypothesisError",
    "ParameterError",
    "TableTooLargeError",
    "WindowRangeError",
    "Spectrum",
    "SpectrumValue",
    "batch_character_sums",
    "batch_double_sums",
    "batch_single_sums",
    "character_sum",
    "double_sum",
    "single_sum",
    "FactorialWindow",
    "Histogram",
    "build_window",
    "product_histogram",
    "sum_histogram",
    "value_histogram",
    "PrimeContext",
    "Residue",
    "is_probable_prime",
    "next_prime_at_least",
    "primes_between",
    "primes_nearest",
    "cyclic_convolution_power",
    "cyclic_convolve_direct",
    "cyclic_convolve_exact",
    "dft_prime_length",
    "index_reversed",
]
