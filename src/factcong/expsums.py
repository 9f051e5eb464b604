"""Exponential sums over factorial windows.

Three shapes: the single sum over e(a * n!), the double sum over
e(a * m! * n!), and multiplicative character sums over n!.  Batch variants
produce the whole spectrum at once through one DFT of the matching
histogram; each result carries a conservative absolute error bound.
Throughout, e(z) denotes exp(2*pi*i*z/p).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import factorial, kernels, transform
from .errors import ParameterError
from .factorial import FactorialWindow, Histogram

__all__ = [
    "SpectrumValue",
    "Spectrum",
    "roots_table",
    "single_sum",
    "batch_single_sums",
    "double_sum",
    "double_sum_direct",
    "batch_double_sums",
    "character_sum",
    "batch_character_sums",
]


@functools.lru_cache(maxsize=32)
def roots_table(n: int) -> np.ndarray:
    """exp(2*pi*i*t/n) for t in [0, n); shared by every direct evaluator."""
    return np.exp(2j * np.pi * np.arange(int(n)) / int(n))


@dataclass(frozen=True)
class SpectrumValue:
    """One exponential-sum evaluation with its absolute error ceiling."""

    a: int
    value: complex
    abs_error: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A full table of sums indexed by the frequency parameter.

    kind is "single", "double", or "character"; values has length p for
    the additive kinds and p - 1 for characters.  abs_error bounds every
    entry.  Real input histograms force conjugate symmetry, which tests
    exploit.
    """

    p: int
    kind: str
    values: np.ndarray
    abs_error: float
    params: dict = dc_field(default_factory=dict)

    def value(self, a: int) -> SpectrumValue:
        return SpectrumValue(
            a=int(a), value=complex(self.values[a]), abs_error=self.abs_error
        )

    def max_magnitude(self, skip_zero: bool = True) -> SpectrumValue:
        mags = np.abs(self.values)
        if skip_zero:
            idx = 1 + int(np.argmax(mags[1:]))
        else:
            idx = int(np.argmax(mags))
        return self.value(idx)

    def to_rows(self) -> tuple[list[int], list[float], list[float], list[float]]:
        """Columns a, re, im and |value| as lists of Python scalars.

        |value| is Python's abs of each complex: np.abs on the whole array
        can differ from it in the last digit.
        """
        mags = list(map(abs, self.values.tolist()))
        return (
            list(range(self.values.size)),
            self.values.real.tolist(),
            self.values.imag.tolist(),
            mags,
        )


def _sum_error_bound(n_terms: int) -> float:
    # pairwise summation of unit-magnitude terms plus root-table rounding
    return 8.0 * np.finfo(np.float64).eps * (math.log2(max(n_terms, 2)) + 4.0) * n_terms


def single_sum(window: FactorialWindow, a: int) -> SpectrumValue:
    """Sum of e(a * n!) for n in the window, evaluated term by term."""
    p = window.p
    a = int(a) % p
    roots = roots_table(p)
    phases = (a * window.values) % p
    value = complex(roots[phases].sum())
    return SpectrumValue(a=a, value=value, abs_error=_sum_error_bound(window.N))


def batch_single_sums(window: FactorialWindow) -> Spectrum:
    """All p single sums at once: the DFT of the window's value histogram."""
    hist = factorial.value_histogram(window)
    values, err = transform.dft_prime_length(hist.counts, sign=1)
    return Spectrum(
        p=window.p,
        kind="single",
        values=values,
        abs_error=err,
        params={"L": window.L, "N": window.N},
    )


def double_sum(
    wm: FactorialWindow,
    wn: FactorialWindow,
    a: int,
    product_hist: Histogram | None = None,
) -> SpectrumValue:
    """Sum of e(a * m! * n!) over both windows via the product histogram.

    O(p) per frequency once the histogram is built; pass product_hist when
    evaluating several frequencies against the same window pair.
    """
    if wm.ctx.p != wn.ctx.p:
        raise ParameterError("windows live over different primes")
    p = wm.p
    a = int(a) % p
    if product_hist is None:
        product_hist = factorial.product_histogram(wm, wn)
    roots = roots_table(p)
    idx = (a * np.arange(p, dtype=np.int64)) % p
    value = complex((product_hist.counts.astype(np.float64) * roots[idx]).sum())
    return SpectrumValue(
        a=a, value=value, abs_error=_sum_error_bound(wm.N * wn.N)
    )


def double_sum_direct(wm: FactorialWindow, wn: FactorialWindow, a: int) -> SpectrumValue:
    """Same sum evaluated pair by pair in O(M*N); engine cross-check."""
    if wm.ctx.p != wn.ctx.p:
        raise ParameterError("windows live over different primes")
    p = wm.p
    a = int(a) % p
    value = kernels.double_sum_direct(
        wm.values, wn.values, a, roots_table(p), p
    )
    return SpectrumValue(a=a, value=value, abs_error=_sum_error_bound(wm.N * wn.N))


def batch_double_sums(
    wm: FactorialWindow,
    wn: FactorialWindow,
    product_hist: Histogram | None = None,
) -> Spectrum:
    """All p double sums: the DFT of the product histogram."""
    if wm.ctx.p != wn.ctx.p:
        raise ParameterError("windows live over different primes")
    if product_hist is None:
        product_hist = factorial.product_histogram(wm, wn)
    values, err = transform.dft_prime_length(product_hist.counts, sign=1)
    return Spectrum(
        p=wm.p,
        kind="double",
        values=values,
        abs_error=err,
        params={"K": wm.L, "M": wm.N, "L": wn.L, "N": wn.N},
    )


def character_sum(window: FactorialWindow, j: int) -> SpectrumValue:
    """Sum over the window of the multiplicative character of order index j.

    The character maps x to exp(2*pi*i * j * ind(x) / (p-1)); j = 0 is the
    principal character and j = (p-1)/2 the quadratic one.
    """
    p = window.p
    j = int(j) % (p - 1)
    roots = roots_table(p - 1)
    phases = (j * window.ctx.dlog[window.values]) % (p - 1)
    value = complex(roots[phases].sum())
    return SpectrumValue(a=j, value=value, abs_error=_sum_error_bound(window.N))


def batch_character_sums(window: FactorialWindow) -> Spectrum:
    """All p - 1 character sums: a DFT over the exponent domain."""
    hist = factorial.exponent_histogram(window)
    values, err = transform.dft_prime_length(hist.counts, sign=1)
    return Spectrum(
        p=window.p,
        kind="character",
        values=values,
        abs_error=err,
        params={"L": window.L, "N": window.N},
    )
