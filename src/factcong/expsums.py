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


# Values converted to Python complexes at a time by Spectrum.to_rows, and
# phases made at a time by the direct sums (_root_sum).
_ROWS_BLOCK = 4096
_PHASE_BLOCK = 1 << 16


@functools.lru_cache(maxsize=32)
def roots_table(n: int) -> np.ndarray:
    """exp(2*pi*i*t/n) for t in [0, n); shared by every direct evaluator."""
    return np.exp(2j * np.pi * np.arange(int(n)) / int(n))


def _root_sum(n: int, size: int, fill) -> complex:
    """The sum of exp(2*pi*i*t/n) over `size` phases t, bit for bit
    roots_table(n)[t].sum() over the whole array of phases.

    fill(start, phases) writes phases start, start + 1, ... reduced into
    [0, n) into phases, an int64 block of _PHASE_BLOCK entries at most.
    Each block's roots go into one length-size array of terms, which is
    summed once, so no array of every phase is made.  On a 2-CPU x86-64
    machine, dropping that 8 MB temporary at p ~ 1e6 took the
    spectra-cache benchmark's peak RSS from 139.6 to 124.2 MiB (seeds 1
    to 4).

    Reads the cached table when there are at least n / 4 phases and n is
    within field.DLOG_MEMORY_LIMIT, and evaluates term by term otherwise,
    so a short window at a huge n allocates nothing of length n, and no
    window allocates a table past that limit.  Measured at n = 1e5 and
    1e6: a cold table costs about as much as n terms, and a gather from a
    warm table is 6 to 25 times cheaper than the terms.  At n / 4 phases
    the table costs about three times the terms on the first call and is
    ahead from the third call at the same n.  The table is taken before
    the phases are computed: the other order raised the spectra-cache
    benchmark's peak RSS from 146 to 153 MiB.
    """
    use_table = 4 * size >= n and n <= field.DLOG_MEMORY_LIMIT
    table = roots_table(n) if use_table else None
    terms = np.empty(size, dtype=np.complex128)
    block = np.empty(min(size, _PHASE_BLOCK), dtype=np.int64)
    for start in range(0, size, block.size):
        phases = block[: min(block.size, size - start)]
        fill(start, phases)
        out = terms[start : start + phases.size]
        if use_table:
            np.take(table, phases, out=out, mode="clip")
        else:
            np.exp(2j * np.pi * phases / n, out=out)
    return complex(terms.sum())


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

    def to_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columns a, re, im and |value| as 1-D arrays: int64, then float64.

        re and im are views of values.  |value| is Python's abs of each
        complex, filled _ROWS_BLOCK entries at a time: np.abs on the whole
        array can differ from it in the last digit, and a list of every
        value as a Python complex would take several times the array.
        """
        mags = np.empty(self.values.size, dtype=np.float64)
        for start in range(0, mags.size, _ROWS_BLOCK):
            block = self.values[start : start + _ROWS_BLOCK].tolist()
            mags[start : start + len(block)] = list(map(abs, block))
        return np.arange(self.values.size), self.values.real, self.values.imag, mags


def _sum_error_bound(n_terms: int) -> float:
    # pairwise summation of unit-magnitude terms plus root-table rounding
    return 8.0 * np.finfo(np.float64).eps * (math.log2(max(n_terms, 2)) + 4.0) * n_terms


def single_sum(window: FactorialWindow, a: int) -> SpectrumValue:
    """Sum of e(a * n!) for n in the window, evaluated term by term."""
    p = window.p
    a = int(a) % p

    def fill(start: int, phases: np.ndarray) -> None:
        np.multiply(window.values[start : start + phases.size], a, out=phases)
        kernels.reduce_scaled(phases, p)

    value = _root_sum(p, window.N, fill)
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
    """Same sum evaluated pair by pair in O(M*N); engine cross-check.
    It reads the length-p roots table, so it is refused past
    field.DLOG_MEMORY_LIMIT before that table is built."""
    if wm.ctx.p != wn.ctx.p:
        raise ParameterError("windows live over different primes")
    p = wm.p
    a = int(a) % p
    field.check_table_limit(p, f"the roots table for p={p}")
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
    entry, so no factorial window is built.  The running sum is made a
    block of phases at a time, each block's cumsum started from the total
    before it; it stays below p**2 < 2**63 under field.DLOG_MEMORY_LIMIT,
    and each phase is the integer j * ind(n!) mod p - 1, as from a gather
    through the window.
    """
    p, L, N = window.p, window.L, window.N
    n = p - 1
    j = int(j) % n
    field.check_table_limit(p, f"the discrete-log table for p={p}")
    dlog = window.ctx.dlog
    total = int(dlog[1 : L + 1].sum())  # the running sum before the next block

    def fill(start: int, phases: np.ndarray) -> None:
        nonlocal total
        np.cumsum(dlog[L + 1 + start : L + 1 + start + phases.size], out=phases)
        phases += total
        total = int(phases[-1])
        kernels.reduce_scaled(phases, n, j)

    value = _root_sum(n, N, fill)
    return SpectrumValue(a=j, value=value, abs_error=_sum_error_bound(N))


def batch_character_sums(window: FactorialWindow) -> Spectrum:
    """All p - 1 character sums: a DFT over the exponent domain."""
    return _spectrum(window.p, "character", factorial.exponent_histogram(window))
