"""Factorial windows mod p and the histograms layered on top of them.

A window holds n! mod p for n in the range (L, L+N].  Because n < p
throughout, no value ever hits 0, so the multiplicative structure stays
available: histograms can live over residues (additive questions) or over
exponents of a generator g (multiplicative questions).  A histogram is its
count array: length p over residues, p - 1 over exponents; int64, or
Python integers in an object array once exact convolution passes int64.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import field, kernels, transform
from .errors import GuardExceededError, ParameterError, WindowRangeError
from .field import PrimeContext

__all__ = [
    "FactorialWindow",
    "check_window",
    "build_window",
    "value_histogram",
    "exponent_histogram",
    "sum_histogram",
    "product_histogram",
]


@dataclass(frozen=True, eq=False)
class FactorialWindow:
    """Consecutive factorials (L+1)!, ..., (L+N)! reduced mod p.

    ``values`` is made by ``make`` on its first read and kept, so a window
    whose values nothing reads, such as the one a direct character sum
    takes, never holds them.
    """

    ctx: PrimeContext
    L: int
    N: int
    make: Callable[[], np.ndarray] = dataclass_field(repr=False)

    @property
    def p(self) -> int:
        return self.ctx.p

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.make()


def check_window(ctx: PrimeContext, L: int, N: int) -> None:
    """Raise WindowRangeError unless 0 <= L, 1 <= N and L + N <= p - 1,
    and GuardExceededError past field.BRUTE_TALLY_LIMIT entries."""
    if N < 1:
        raise WindowRangeError(f"window length must be positive, got N={N}")
    if L < 0 or L + N >= ctx.p:
        raise WindowRangeError(
            f"window (L, L+N] = ({L}, {L + N}] must stay inside (0, {ctx.p})"
        )
    if N > field.BRUTE_TALLY_LIMIT:
        raise GuardExceededError(
            f"the factorial window ({L}, {L + N}] mod p={ctx.p} needs {N} "
            f"entries, above the limit of {field.BRUTE_TALLY_LIMIT}"
        )


def build_window(ctx: PrimeContext, L: int, N: int) -> FactorialWindow:
    """Compute one factorial window, the build step of ``ctx.window``;
    check_window refuses it before any allocation."""
    L, N = int(L), int(N)
    check_window(ctx, L, N)
    values = kernels.factorial_window(ctx.p, L, N)
    return FactorialWindow(ctx=ctx, L=L, N=N, make=lambda: values)


def value_histogram(window: FactorialWindow) -> np.ndarray:
    """counts[x] = multiplicity of residue x among the window values."""
    return np.bincount(window.values, minlength=window.p).astype(np.int64)


def exponent_histogram(window: FactorialWindow) -> np.ndarray:
    """Window histogram over exponents, length p - 1: counts[e] counts
    g**e, read from the value histogram through the power table."""
    return value_histogram(window)[window.ctx.power_table()]


def sum_histogram(window: FactorialWindow, k: int) -> np.ndarray:
    """counts[s] = number of k-tuples from the window whose factorials sum
    to s mod p.  Exact for any k; totals grow like N**k."""
    k = int(k)
    if k < 1:
        raise ParameterError("sum histogram needs k >= 1")
    base = value_histogram(window)
    if k == 1:
        return base
    return transform.cyclic_convolution_power(base, k)


def _exponents_to_residues(ctx: PrimeContext, vec: np.ndarray) -> np.ndarray:
    out = np.zeros(ctx.p, dtype=vec.dtype)
    out[ctx.power_table()] = vec
    return out


def product_histogram(wa: FactorialWindow, wb: FactorialWindow) -> np.ndarray:
    """counts[t] = number of pairs (x from wa, y from wb) with x*y = t mod p.

    Runs one exact cyclic convolution of length p - 1 in the exponent
    domain, a self-product when both are the same window (L, L+N].  The
    zero bin is structurally empty since factorials of arguments below p
    never vanish mod p.
    """
    if wa.ctx.p != wb.ctx.p:
        raise ParameterError("windows live over different primes")
    ea = exponent_histogram(wa)
    eb = ea if (wb.L, wb.N) == (wa.L, wa.N) else exponent_histogram(wb)
    conv = transform.cyclic_convolve_exact(ea, eb)
    return _exponents_to_residues(wa.ctx, conv)
