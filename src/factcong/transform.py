"""Exact cyclic convolution and floating-point DFTs.

Counting work needs cyclic convolutions of nonnegative integer vectors
whose entries must come out exactly.  The primary engine multiplies
float64 spectra from numpy's real FFT at a power-of-two length and rounds
the product, but only where a proven rounding bound keeps every error
below 1/2: Percival's bound for radix-2 FFT multiplication (Math. Comp.
72, 2003) in the form of Brent, Percival and Zimmermann (Math. Comp. 76,
2007).  Inputs too wide for one certified product are split into limbs of
a few bits and multiplied limb by limb.  Inputs that would need more than
``MAX_LIMBS`` limbs take exact big-integer arithmetic by Kronecker
packing.  numpy's FFT runs mixed radix passes over real data, not the
textbook radix-2 transform the bound is proved for, so every rounded
product is checked as well: each entry must lie within the certified
error of an integer, and the result must have the exact total
sum(a) * sum(b).  A result that fails either check is recomputed by big
integers.  A quadratic schoolbook engine serves as the test oracle.

Spectra need complex DFTs whose length is a prime p or the composite
p - 1; numpy's FFT computes them, and every spectrum carries a
conservative absolute error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "MAX_LIMBS",
    "ConvolutionPlan",
    "plan_cyclic_convolution",
    "cyclic_convolve_exact",
    "cyclic_convolution_power",
    "cyclic_convolve_direct",
    "index_reversed",
    "dft_prime_length",
    "dft_error_bound",
]

_INT64_MAX = 2**63 - 1

# Unit roundoff of float64.
_EPS = 2.0**-53
# beta: the error of each twiddle factor numpy's FFT uses, assumed at most
# 8 units in the last place.
_TWIDDLE_ERR = 2.0**-50

# Limbs per input the float engine may split into; wider inputs take the
# bigint engine.  Limb products grow as limbs squared, yet at length 1e5
# six limbs of 63-bit entries took 0.5 s where bigint took 11 s (one core
# of a 2-CPU x86-64 machine, numpy 2.4).
MAX_LIMBS = 8


@dataclass(frozen=True)
class ConvolutionPlan:
    """Resolved strategy for one exact cyclic convolution.

    engine is "fft", "bigint", or "direct"; padded is the power-of-two
    transform size (equal to length when length is itself a power of two);
    bound is the certified ceiling on every output coefficient.  An "fft"
    plan splits each input into at most ``limbs`` limbs of ``limb_bits``
    bits, and ``error`` is its certified ceiling, below 1/2, on the rounding
    error of any one limb product.  ``moduli`` is always empty, since no
    engine works modulo primes; perfbench/tracing.py still reads it.
    """

    length: int
    padded: int
    engine: str
    bound: int
    limbs: int = 0
    limb_bits: int = 0
    error: float = 0.0
    moduli: tuple[int, ...] = ()


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _fft_error_factor(padded: int) -> float:
    """Ceiling on |computed - exact| / (||a||_2 * ||b||_2) for one product.

    The radix-2 bound (1+eps)^3m (1+eps*sqrt5)^(3m+1) (1+beta)^3m - 1 with
    m = log2(padded), eps = 2**-53 the float64 unit roundoff and beta =
    2**-50 the twiddle error, evaluated through log1p/expm1 and then
    widened by 2**-20 of itself to cover the rounding of this evaluation.
    """
    m = padded.bit_length() - 1
    growth = (
        3 * m * math.log1p(_EPS)
        + (3 * m + 1) * math.log1p(_EPS * math.sqrt(5.0))
        + 3 * m * math.log1p(_TWIDDLE_ERR)
    )
    return math.expm1(growth) * (1.0 + 2.0**-20)


def _as_float(x: int) -> float:
    """float(x), or infinity where x is past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def plan_cyclic_convolution(
    length: int,
    bound: int,
    norm_a: float | None = None,
    norm_b: float | None = None,
) -> ConvolutionPlan:
    """Pick the engine, transform size and limb split for one convolution.

    norm_a and norm_b are ceilings on the Euclidean norms of the two
    inputs.  When left out they follow from the bound: no entry exceeds
    it, so no norm exceeds sqrt(length) * bound.  The plan takes the
    fewest limbs per input, at most MAX_LIMBS, for which every limb is
    exact in float64 and the product of any two limbs is certified to
    within 1/2 of its exact value and stays below 2**53; when no split
    qualifies it falls back to big integers.
    """
    length = int(length)
    bound = int(bound)
    if length < 1:
        raise ParameterError("convolution length must be at least 1")
    if bound < 0:
        raise ParameterError("coefficient bound must be nonnegative")
    if length == 1:
        return ConvolutionPlan(1, 1, "direct", bound)
    if length & (length - 1) == 0:
        padded = length
    else:
        padded = _next_pow2(2 * length - 1)
    bigint = ConvolutionPlan(length, padded, "bigint", bound)
    implied = math.sqrt(length) * _as_float(bound)
    norms = [implied if v is None else float(v) for v in (norm_a, norm_b)]
    if not all(math.isfinite(v) for v in norms):
        return bigint
    factor = _fft_error_factor(padded)
    # every entry is at most its vector's norm
    bits = max(1, max(int(v).bit_length() for v in norms))
    for limbs in range(1, MAX_LIMBS + 1):
        limb_bits = -(-bits // limbs)
        limb_norm = math.sqrt(length) * ((1 << limb_bits) - 1)
        worst = min(norms[0], limb_norm) * min(norms[1], limb_norm)
        error = worst * factor
        if limb_bits <= 53 and error < 0.5 and worst < 2.0**53:
            return ConvolutionPlan(
                length, padded, "fft", bound, limbs, limb_bits, error
            )
    return bigint


def _exact_sum(arr: np.ndarray) -> int:
    """Exact sum of a nonnegative integer vector (int64 below 2**31 entries)."""
    if arr.dtype == object:
        return sum(arr.tolist())
    return (int((arr >> 32).sum()) << 32) + int((arr & 0xFFFFFFFF).sum())


def _as_int_vector(a) -> tuple[np.ndarray, int]:
    """Validate a nonnegative integer vector, return it plus its exact sum.

    The vector comes back as int64, or as Python integers in an object
    array when some entry does not fit in int64.
    """
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("expected a nonempty one-dimensional vector")
    if arr.dtype == np.uint64 and arr.max() > _INT64_MAX:
        arr = arr.astype(object)
    if arr.dtype == object:
        try:
            arr = arr.astype(np.int64)
        except OverflowError:
            values = [int(x) for x in arr.tolist()]
            if min(values) < 0:
                raise ParameterError("exact convolution expects nonnegative counts")
            return np.array(values, dtype=object), sum(values)
    elif not np.issubdtype(arr.dtype, np.integer):
        raise ParameterError("exact convolution needs integer input")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0:
        raise ParameterError("exact convolution expects nonnegative counts")
    return arr, _exact_sum(arr)


def _norm_ceiling(arr: np.ndarray) -> float:
    """Ceiling on the Euclidean norm of a nonnegative integer vector."""
    if arr.dtype == object:
        return _as_float(math.isqrt(sum(x * x for x in arr.tolist())) + 1)
    v = arr.astype(np.float64, copy=False)
    # covers rounding each entry to float64, its square, and the n-term sum
    return math.sqrt(float(v @ v) * (1.0 + (v.size + 4) * _EPS)) * (1.0 + 2 * _EPS)


def _split_limbs(arr: np.ndarray, limb_bits: int) -> list[np.ndarray]:
    """The limb_bits-bit limbs of every entry, least significant first, as
    float64 vectors (exact, since limb_bits <= 53)."""
    count = max(1, -(-int(arr.max()).bit_length() // limb_bits))
    mask = (1 << limb_bits) - 1
    return [((arr >> (limb_bits * i)) & mask).astype(np.float64) for i in range(count)]


def _cyclic_convolve_fft(a: np.ndarray, b: np.ndarray, plan: ConvolutionPlan):
    """Exact cyclic convolution by float FFT products of limbs.

    Holds one limb product's spectra at a time and sums the products of
    each shift in int64 (each is below 2**53).  Returns None when a rounded
    entry sat farther from its integer than the certified error allows.
    """
    n, padded, width = plan.length, plan.padded, plan.limb_bits
    factor = _fft_error_factor(padded)
    limbs_b = _split_limbs(b, width)
    norms_b = [_norm_ceiling(v) for v in limbs_b]
    shifts: dict[int, np.ndarray] = {}
    for i, limb_a in enumerate(_split_limbs(a, width)):
        norm_a = _norm_ceiling(limb_a)
        fa = np.fft.rfft(limb_a, padded)
        for j, limb_b in enumerate(limbs_b):
            error = norm_a * norms_b[j] * factor
            y = np.fft.irfft(np.fft.rfft(limb_b, padded) * fa, padded)
            rounded = np.rint(y)
            y -= rounded
            if error >= 0.5 or float(np.abs(y, out=y).max()) > error:
                return None
            if padded != n:
                # exact: a cyclic output is at most norm_a * norms_b[j] < 2**53
                rounded[: n - 1] += rounded[n : 2 * n - 1]
            shifts[i + j] = shifts.get(i + j, 0) + rounded[:n].astype(np.int64)
    top = sum(int(v.max()) << (width * s) for s, v in shifts.items())
    if top <= _INT64_MAX:
        out = sum(v << (width * s) for s, v in shifts.items())
    else:
        out = sum(v.astype(object) << (width * s) for s, v in shifts.items())
    return _finalize(out, plan.bound)


def _pack_bigint(values: list[int], limb_bytes: int) -> int:
    return int.from_bytes(
        b"".join(v.to_bytes(limb_bytes, "little") for v in values), "little"
    )


def _cyclic_convolve_bigint(a: np.ndarray, b: np.ndarray, bound: int) -> list[int]:
    """Exact cyclic convolution through one wide integer multiplication.

    Coefficients are packed as little-endian limbs wide enough that no
    limb of the product can carry into its neighbor.
    """
    n = a.size
    limb_bytes = max(1, (max(int(bound), 1).bit_length() + 7) // 8)
    A = _pack_bigint([int(x) for x in a.tolist()], limb_bytes)
    B = _pack_bigint([int(x) for x in b.tolist()], limb_bytes)
    raw = (A * B).to_bytes(limb_bytes * 2 * n, "little")
    limbs = [
        int.from_bytes(raw[i * limb_bytes : (i + 1) * limb_bytes], "little")
        for i in range(2 * n)
    ]
    return [limbs[t] + (limbs[t + n] if t + n < 2 * n else 0) for t in range(n)]


def _finalize(values: np.ndarray, bound: int) -> np.ndarray:
    """A copy of values as int64 when the bound fits, else as Python ints."""
    return values.astype(np.int64 if bound <= _INT64_MAX else object)


def cyclic_convolve_exact(a, b, bound: int | None = None) -> np.ndarray:
    """Exact cyclic convolution of two nonnegative integer vectors.

    out[t] = sum over i+j = t (mod n) of a[i] * b[j].  The result dtype is
    int64 when the certified bound fits, otherwise Python integers.  The
    default bound sum(a) * sum(b) is always valid for nonnegative input.
    A float result must also have the exact total sum(a) * sum(b), or it is
    recomputed by big integers.
    """
    arr_a, total_a = _as_int_vector(a)
    arr_b, total_b = _as_int_vector(b)
    if arr_a.size != arr_b.size:
        raise ParameterError("cyclic convolution needs equal lengths")
    n = arr_a.size
    total = total_a * total_b
    bound = total if bound is None else int(bound)
    plan = plan_cyclic_convolution(n, bound, _norm_ceiling(arr_a), _norm_ceiling(arr_b))
    if n == 1:
        return _finalize(np.array([total], dtype=object), bound)
    if plan.engine == "fft":
        out = _cyclic_convolve_fft(arr_a, arr_b, plan)
        if out is not None and _exact_sum(out) == total:
            return out
    exact = _cyclic_convolve_bigint(arr_a, arr_b, bound)
    return _finalize(np.array(exact, dtype=object), bound)


def cyclic_convolution_power(a, k: int, total: int | None = None) -> np.ndarray:
    """k-fold cyclic self-convolution, chaining exact pairwise convs.

    Chaining keeps the transform size at the pairwise padding regardless
    of k, which matters for long vectors.
    """
    k = int(k)
    if k < 1:
        raise ParameterError("convolution power needs k >= 1")
    arr, tot = _as_int_vector(a)
    if total is None:
        total = tot
    if k == 1:
        return _finalize(arr, total)
    acc = arr
    acc_total = total
    for _ in range(k - 1):
        acc = cyclic_convolve_exact(acc, arr, bound=acc_total * total)
        acc_total *= total
    return acc


def cyclic_convolve_direct(a, b) -> np.ndarray:
    """Schoolbook O(n^2) cyclic convolution in exact Python integers.

    Reference oracle for the fast engines; quadratic, keep lengths small.
    """
    arr_a, total_a = _as_int_vector(a)
    arr_b, total_b = _as_int_vector(b)
    if arr_a.size != arr_b.size:
        raise ParameterError("cyclic convolution needs equal lengths")
    n = arr_a.size
    va = [int(x) for x in arr_a.tolist()]
    vb = [int(x) for x in arr_b.tolist()]
    out = [0] * n
    for i, x in enumerate(va):
        if x == 0:
            continue
        for j, y in enumerate(vb):
            if y:
                out[(i + j) % n] += x * y
    return _finalize(np.array(out, dtype=object), total_a * total_b)


def index_reversed(a) -> np.ndarray:
    """Vector b with b[x] = a[-x mod n]; pairs with convolution to give
    cross-correlation."""
    arr = np.asarray(a)
    return np.concatenate([arr[:1], arr[:0:-1]])


# ---------------------------------------------------------------------------
# floating-point DFT


def dft_error_bound(length: int, l1_norm: float) -> float:
    """Conservative absolute error ceiling for one spectrum entry."""
    padded = _next_pow2(max(2 * length - 1, 2))
    stages = max(1.0, math.log2(padded))
    return 24.0 * np.finfo(np.float64).eps * (stages + 4.0) * float(l1_norm)


def dft_prime_length(values, sign: int = 1) -> tuple[np.ndarray, float]:
    """DFT out[a] = sum_x values[x] * exp(sign * 2*pi*i * a*x / n).

    Any length works; the name records that counting asks for prime
    lengths p and the composite p - 1.  Returns the spectrum and an
    absolute error bound valid for every entry.
    """
    x = np.ascontiguousarray(values, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("dft needs a nonempty one-dimensional vector")
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    err = dft_error_bound(x.size, float(np.abs(x).sum()))
    if sign == -1:
        return np.fft.fft(x), err
    return np.fft.ifft(x, norm="forward"), err
