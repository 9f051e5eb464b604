"""Exponential sums and exact solution counts for factorial congruences
modulo a prime, with numerical monitoring of the known upper bounds.

Quick tour::

    from factcong import PrimeContext, CountQuery, count

    ctx = PrimeContext.create(7)
    window = ctx.window(0, 6)            # 1!, 2!, ..., 6! mod 7
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
    build_window,
    product_histogram,
    value_histogram,
)
from .field import (
    PrimeContext,
    is_probable_prime,
    primes_between,
)
from .transform import (
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
    "build_window",
    "product_histogram",
    "value_histogram",
    "PrimeContext",
    "is_probable_prime",
    "primes_between",
    "cyclic_convolve_exact",
    "dft_prime_length",
    "index_reversed",
]
