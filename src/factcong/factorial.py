"""Factorial windows mod p and the histograms layered on top of them.

A window holds n! mod p for n in the range (L, L+N].  Because n < p
throughout, no value ever hits 0, so the multiplicative structure stays
available: histograms can live over residues (additive questions) or over
discrete-log exponents (multiplicative questions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import field, kernels, transform
from .errors import GuardExceededError, ParameterError, WindowRangeError
from .field import PrimeContext

__all__ = [
    "FactorialWindow",
    "build_window",
    "Histogram",
    "value_histogram",
    "exponent_histogram",
    "sum_histogram",
    "product_histogram",
]


@dataclass(frozen=True, eq=False)
class FactorialWindow:
    """Consecutive factorials (L+1)!, ..., (L+N)! reduced mod p."""

    ctx: PrimeContext
    L: int
    N: int
    values: np.ndarray

    @property
    def p(self) -> int:
        return self.ctx.p


def build_window(ctx: PrimeContext, L: int, N: int) -> FactorialWindow:
    """Compute one factorial window, the build step of ``ctx.window``;
    requires 0 <= L and L + N <= p - 1.  Refused before any allocation
    past field.BRUTE_TALLY_LIMIT entries."""
    L, N = int(L), int(N)
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
    return FactorialWindow(ctx=ctx, L=L, N=N, values=kernels.factorial_window(ctx.p, L, N))


Domain = Literal["additive", "multiplicative"]


@dataclass(frozen=True, eq=False)
class Histogram:
    """Integer counts over a cyclic index domain.

    domain "additive" means counts[x] for residues x mod p (length p);
    "multiplicative" means counts[e] for discrete-log exponents e mod p-1
    (length p-1).  Counts are int64 until exact convolution arithmetic
    promotes them to Python integers.
    """

    domain: Domain
    counts: np.ndarray


def value_histogram(window: FactorialWindow) -> Histogram:
    """counts[x] = multiplicity of residue x among the window values."""
    counts = np.bincount(window.values, minlength=window.p)
    return Histogram(domain="additive", counts=counts.astype(np.int64))


def exponent_histogram(window: FactorialWindow) -> Histogram:
    """Window histogram pushed through the discrete log, length p - 1."""
    counts = np.bincount(window.ctx.dlog[window.values], minlength=window.p - 1)
    return Histogram(domain="multiplicative", counts=counts.astype(np.int64))


def sum_histogram(window: FactorialWindow, k: int) -> Histogram:
    """counts[s] = number of k-tuples from the window whose factorials sum
    to s mod p.  Exact for any k; totals grow like N**k."""
    k = int(k)
    if k < 1:
        raise ParameterError("sum histogram needs k >= 1")
    base = value_histogram(window)
    if k == 1:
        return base
    counts = transform.cyclic_convolution_power(base.counts, k, total=window.N)
    return Histogram(domain="additive", counts=counts)


def _exponents_to_residues(ctx: PrimeContext, vec: np.ndarray) -> np.ndarray:
    out = np.zeros(ctx.p, dtype=vec.dtype)
    out[ctx.power_table()] = vec
    return out


def product_histogram(
    wa: FactorialWindow, wb: FactorialWindow
) -> Histogram:
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
    conv = transform.cyclic_convolve_exact(
        ea.counts, eb.counts, bound=wa.N * wb.N
    )
    return Histogram(
        domain="additive", counts=_exponents_to_residues(wa.ctx, conv)
    )
