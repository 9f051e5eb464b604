"""Exponential sums over factorial windows.

Three shapes: the single sum over e(a * n!), the double sum over
e(a * m! * n!), and multiplicative character sums over n!.  Batch variants
produce the whole spectrum at once through one DFT of the matching
histogram; each result carries a conservative absolute error bound.
Throughout, e(z) denotes exp(2*pi*i*z/p).

A direct character sum builds no factorial window: chi is multiplicative,
so ind(n!) = ind(L!) + ind(L+1) + ... + ind(n) mod p - 1, and the indices
of the whole window are one running sum over the discrete-log table.

Past field.DLOG_MEMORY_LIMIT the single-sum spectrum and a direct
character sum are refused before they allocate; the double sums and the
character spectrum read the power table, whose build refuses there
itself.  A direct single sum allocates only per term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import factorial, field, kernels, transform
from .errors import ParameterError
from .factorial import FactorialWindow

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


def _roots(n: int, size: int):
    """t -> exp(2*pi*i*t/n) for an array of `size` phases t, bit for bit
    roots_table(n)[t].

    Reads the cached table when there are at least n / 4 phases, and
    evaluates term by term otherwise, so a short window at a huge n
    allocates nothing of length n.  Measured at n = 1e5 and 1e6: a cold
    table costs about as much as n terms, and a gather from a warm table
    is 6 to 25 times cheaper than the terms.  At n / 4 phases the table
    costs about three times the terms on the first call and is ahead from
    the third call at the same n.  Callers take the table before they
    compute their phases: the other order raised the spectra-cache
    benchmark's peak RSS from 146 to 153 MiB.
    """
    if 4 * size >= n:
        return roots_table(n).__getitem__
    return lambda phases: np.exp(2j * np.pi * phases / n)


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

    def value(self, a: int) -> SpectrumValue:
        return SpectrumValue(
            a=int(a), value=complex(self.values[a]), abs_error=self.abs_error
        )

    def max_magnitude(self) -> SpectrumValue:
        """The largest |value| at a nonzero frequency."""
        return self.value(1 + int(np.argmax(np.abs(self.values[1:]))))

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
    roots = _roots(p, window.N)
    phases = a * window.values
    kernels.reduce_scaled(phases, p)
    value = complex(roots(phases).sum())
    return SpectrumValue(a=a, value=value, abs_error=_sum_error_bound(window.N))


def _spectrum(p: int, kind: str, hist: np.ndarray) -> Spectrum:
    """The Spectrum of one histogram: its DFT and that DFT's error bound."""
    values, err = transform.dft_prime_length(hist)
    return Spectrum(p=p, kind=kind, values=values, abs_error=err)


def batch_single_sums(window: FactorialWindow) -> Spectrum:
    """All p single sums at once: the DFT of the window's value histogram."""
    field.check_table_limit(window.p, f"the single-sum spectrum for p={window.p}")
    return _spectrum(window.p, "single", factorial.value_histogram(window))


def double_sum(
    wm: FactorialWindow,
    wn: FactorialWindow,
    a: int,
    product_hist: np.ndarray | None = None,
) -> SpectrumValue:
    """Sum of e(a * m! * n!) over both windows via the product histogram.

    O(p) per frequency once the histogram is built; pass product_hist when
    evaluating several frequencies against the same window pair: the
    array factorial.product_histogram(wm, wn) returns.
    """
    if wm.ctx.p != wn.ctx.p:
        raise ParameterError("windows live over different primes")
    p = wm.p
    a = int(a) % p
    if product_hist is None:
        product_hist = factorial.product_histogram(wm, wn)
    roots = roots_table(p)
    idx = (a * np.arange(p, dtype=np.int64)) % p
    value = complex((product_hist.astype(np.float64) * roots[idx]).sum())
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


def batch_double_sums(wm: FactorialWindow, wn: FactorialWindow) -> Spectrum:
    """All p double sums: the DFT of the product histogram."""
    return _spectrum(wm.p, "double", factorial.product_histogram(wm, wn))


def character_sum(window: FactorialWindow, j: int) -> SpectrumValue:
    """Sum over the window of the multiplicative character of order index j.

    The character maps x to exp(2*pi*i * j * ind(x) / (p-1)); j = 0 is the
    principal character and j = (p-1)/2 the quadratic one.  It reads the
    window's ctx, L and N, never its values: ind((L+k)!) is ind(L!) plus
    the running sum of ind(L+1), ..., ind(L+k), each a discrete-log table
    entry, so no factorial window is built.  The running sum stays below
    p**2 < 2**63 under field.DLOG_MEMORY_LIMIT, and each phase is the
    integer j * ind(n!) mod p - 1, as from a gather through the window.
    """
    p, L, N = window.p, window.L, window.N
    n = p - 1
    j = int(j) % n
    field.check_table_limit(p, f"the discrete-log table for p={p}")
    roots = _roots(n, N)
    dlog = window.ctx.dlog
    phases = np.cumsum(dlog[L + 1 : L + N + 1])
    phases += int(dlog[1 : L + 1].sum())
    kernels.reduce_scaled(phases, n, j)
    value = complex(roots(phases).sum())
    return SpectrumValue(a=j, value=value, abs_error=_sum_error_bound(N))


def batch_character_sums(window: FactorialWindow) -> Spectrum:
    """All p - 1 character sums: a DFT over the exponent domain."""
    return _spectrum(window.p, "character", factorial.exponent_histogram(window))
