"""Exact cyclic convolution and floating-point DFTs.

Counting work needs cyclic convolutions of nonnegative integer vectors
whose entries must come out exactly.  The primary engine multiplies
float64 spectra from numpy's real FFT at a power-of-two length and rounds
the product, but only where a proven rounding bound keeps every error
below 1/2: Percival's bound for radix-2 FFT multiplication (Math. Comp.
72, 2003) in the form of Brent, Percival and Zimmermann (Math. Comp. 76,
2007).  Inputs too wide for one certified product are split into limbs of
a few bits.  Each distinct input is validated, normed and split once,
and each limb is transformed once: a self-product (two inputs equal by
content) transforms only one side, and an input whose top entry fits in
one limb is its own limb, with the norm the plan already took.  Limb
products of the same shift i + j are added in the frequency domain and
share one inverse transform, in groups whose summed bound stays below
1/2; a lone group is the result as it rounds.  Callers ask for each
distinct convolution once: the counting engine keeps every convolution of
a count, and takes the correlations of J and SIGNED as one convolution
with an ``index_reversed`` sum histogram.  Inputs that
would need more than ``MAX_LIMBS`` limbs take exact big-integer
arithmetic by Kronecker packing.  numpy's FFT runs mixed radix passes
over real data, not the textbook radix-2 transform the bound is proved
for, so every rounded group is checked as well: each entry must lie
within the certified error of an integer, and the result must have the
exact total sum(a) * sum(b).  A result that fails either check is
recomputed by big integers.  No caller supplies a coefficient bound:
the certificate rests on the inputs' norms alone, and the exact total
sizes the result, int64 when sum(a) * sum(b) fits and Python integers
past it.

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

    engine is "fft" or "bigint"; padded is the power-of-two transform size
    (equal to length when length is itself a power of two).  The plan
    rests on the inputs' norms alone, with no coefficient bound.  An "fft"
    plan splits each input into at most ``limbs`` limbs of ``limb_bits``
    bits, and ``error`` is its certified ceiling, below 1/2, on the rounding
    error of any one limb product.  ``moduli`` is always empty, since no
    engine works modulo primes; perfbench/tracing.py still reads it.
    """

    length: int
    padded: int
    engine: str
    limbs: int = 0
    limb_bits: int = 0
    error: float = 0.0
    moduli: tuple[int, ...] = ()


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _fft_error_factor(padded: int, adds: int = 0) -> float:
    """Ceiling on |computed - exact| / (||a||_2 * ||b||_2) for one product.

    The radix-2 bound (1+eps)^(3m+adds) (1+eps*sqrt5)^(3m+1) (1+beta)^3m - 1
    with m = log2(padded), eps = 2**-53 the float64 unit roundoff, beta =
    2**-50 the twiddle error and adds the spectrum additions before the
    inverse (see _group_error), evaluated through log1p/expm1 and then
    widened by 2**-20 of itself to cover the rounding of this evaluation.
    """
    m = padded.bit_length() - 1
    growth = (
        (3 * m + adds) * math.log1p(_EPS)
        + (3 * m + 1) * math.log1p(_EPS * math.sqrt(5.0))
        + 3 * m * math.log1p(_TWIDDLE_ERR)
    )
    return math.expm1(growth) * (1.0 + 2.0**-20)


def plan_cyclic_convolution(length: int, norm_a: float, norm_b: float) -> ConvolutionPlan:
    """Pick the engine, transform size and limb split for one convolution.

    norm_a and norm_b are ceilings on the Euclidean norms of the two
    inputs, infinite where they pass the float range.  The plan takes the
    fewest limbs per input, at most MAX_LIMBS, for which every limb is
    exact in float64 and the product of any two limbs is certified to
    within 1/2 of its exact value and stays below 2**53; when no split
    qualifies it falls back to big integers.
    """
    length = int(length)
    if length < 1:
        raise ParameterError("convolution length must be at least 1")
    if length & (length - 1) == 0:
        padded = length
    else:
        padded = _next_pow2(2 * length - 1)
    bigint = ConvolutionPlan(length, padded, "bigint")
    norms = [float(norm_a), float(norm_b)]
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
            return ConvolutionPlan(length, padded, "fft", limbs, limb_bits, error)
    return bigint


def _exact_sum(arr: np.ndarray) -> int:
    """Exact sum of a nonnegative integer vector (int64 or uint64 below
    2**31 entries)."""
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


def _sum_of_squares(arr: np.ndarray) -> int:
    """Exact sum of squares of a nonnegative integer vector, with no float
    BLAS call.

    While top**2 fits in int64, the squares are summed over runs short
    enough that no run passes 2**63, and the run sums are added as Python
    integers.  Past that, each int64 entry splits as x = h * 2**32 + l
    with h < 2**31 and l < 2**32, so x**2 = h**2 * 2**64 + h * l * 2**33
    + l**2.  Every h**2 < 2**62, h * l < 2**63 and l**2 < 2**64 is exact
    in uint64, and _exact_sum sums each of the three vectors exactly.  An
    object array with an entry past int64 is summed in Python integers.
    """
    top = int(arr.max())
    if top * top <= _INT64_MAX:
        run = _INT64_MAX // max(1, top * top)
        return sum(np.add.reduceat(arr * arr, np.arange(0, arr.size, run)).tolist())
    if arr.dtype == object:
        return sum(x * x for x in arr.tolist())
    x = arr.astype(np.uint64)
    h, l = x >> 32, x & 0xFFFFFFFF
    return (_exact_sum(h * h) << 64) + (_exact_sum(h * l) << 33) + _exact_sum(l * l)


def _norm_ceiling(arr: np.ndarray) -> float:
    """Ceiling on the Euclidean norm of a nonnegative integer vector.

    Proof: s, the sum of squares, is exact (_sum_of_squares), and the
    float returned has an exact square of at least s, so it is a ceiling;
    math.sqrt(s) rounds twice (s to float64, then the root), so it starts
    within about one unit in the last place of sqrt(s) and the loop steps
    up at most twice.
    """
    s = _sum_of_squares(arr)
    try:
        root = math.sqrt(s)
    except OverflowError:
        return math.inf
    n, d = root.as_integer_ratio()
    while n * n < s * d * d:  # root**2 < s, in integers
        root = math.nextafter(root, math.inf)
        n, d = root.as_integer_ratio()
    return root


def _split_limbs(arr: np.ndarray, limb_bits: int) -> list[np.ndarray]:
    """The limb_bits-bit limbs of every entry, least significant first, as
    int64 vectors; [arr] itself when its top entry fits in one limb."""
    count = -(-int(arr.max()).bit_length() // limb_bits)
    if count <= 1:
        return [arr]
    mask = (1 << limb_bits) - 1
    return [(arr >> (limb_bits * i)) & mask for i in range(count)]


def _group_error(size: float, terms: int, padded: int) -> float:
    """Certified error of ``terms`` limb products summed before one inverse.

    size is the sum of ||a_i||_2 ||b_j||_2 over the group.  The bound of
    Brent, Percival and Zimmermann holds each product's spectrum within a
    product of (1 + delta) factors of the exact one, relative to
    ||a_i|| ||b_j||, and takes the inverse transform's error relative to
    the norm of the spectrum it is given.  The t - 1 additions add a factor
    (1 + eps)**(t - 1), and by the triangle inequality over the products'
    bounds the summed spectrum's error and norm are at most the sums of
    theirs: the group is within size * _fft_error_factor(padded, t - 1) of
    its exact sum.  No exact entry exceeds size, which must stay below
    2**53 for the rounding to be exact; past it the error is infinite.
    """
    if size >= 2.0**53:
        return math.inf
    return size * _fft_error_factor(padded, terms - 1)


def _shift_groups(norms_a: list[float], norms_b: list[float], padded: int):
    """Yield (shift, pairs, error) for the limb products (i, j) of every
    shift i + j, split greedily so that each group's summed error stays
    certified: a product that would push it to 1/2 starts a new group.  A
    group of one carries the single-product error the plan certified."""
    for shift in range(len(norms_a) + len(norms_b) - 1):
        pairs, size = [], 0.0
        for i in range(max(0, shift + 1 - len(norms_b)), min(shift + 1, len(norms_a))):
            term = norms_a[i] * norms_b[shift - i]
            if pairs and _group_error(size + term, len(pairs) + 1, padded) >= 0.5:
                yield shift, pairs, _group_error(size, len(pairs), padded)
                pairs, size = [], 0.0
            pairs.append((i, shift - i))
            size += term
        yield shift, pairs, _group_error(size, len(pairs), padded)


def _limb_spectra(arr: np.ndarray, norm: float, plan: ConvolutionPlan):
    """The rfft of every limb of arr, and a ceiling on every limb's norm.

    An input of one limb is its own limb, and norm, the ceiling already
    taken for the plan, is its limb's.  Otherwise the norms come from the
    int64 limbs.  The float64 cast is exact, since limb_bits <= 53."""
    limbs = _split_limbs(arr, plan.limb_bits)
    norms = [norm] if len(limbs) == 1 else list(map(_norm_ceiling, limbs))
    return [np.fft.rfft(v.astype(np.float64), plan.padded) for v in limbs], norms


def _cyclic_convolve_fft(a: np.ndarray, b: np.ndarray, plan: ConvolutionPlan,
                         norm_a: float, norm_b: float):
    """Exact cyclic convolution by float FFT products of limbs.

    norm_a and norm_b are the ceilings the plan was made from.  One
    spectrum per limb, shared by both sides when b is a; one inverse per
    group of ``_shift_groups``.  A lone group (both inputs of one limb) is
    the result as it rounds; otherwise the rounded groups of a shift are
    summed in int64 (each is below 2**53) and the shifts are combined.
    Returns an int64 or object vector, or None when a group is not
    certified below 1/2, or a rounded entry sat farther from its integer
    than its group's certified error allows.
    """
    n, padded, width = plan.length, plan.padded, plan.limb_bits
    spectra_a, norms_a = _limb_spectra(a, norm_a, plan)
    spectra_b, norms_b = (
        (spectra_a, norms_a) if b is a else _limb_spectra(b, norm_b, plan)
    )
    groups = list(_shift_groups(norms_a, norms_b, padded))
    shifts: dict[int, np.ndarray] = {}
    for shift, pairs, error in groups:
        if error >= 0.5:
            return None
        y = np.fft.irfft(sum(spectra_a[i] * spectra_b[j] for i, j in pairs), padded)
        rounded = np.rint(y)
        y -= rounded
        if float(np.abs(y, out=y).max()) > error:
            return None
        if padded != n:
            # exact: a cyclic output of the group is below 2**53
            rounded[: n - 1] += rounded[n : 2 * n - 1]
        group = rounded[:n].astype(np.int64)
        if len(groups) == 1:
            return group
        if shift in shifts:
            shifts[shift] += group
        else:
            shifts[shift] = group
    top = sum(int(v.max()) << (width * s) for s, v in shifts.items())
    if top <= _INT64_MAX:
        return sum(v << (width * s) for s, v in shifts.items())
    return sum(v.astype(object) << (width * s) for s, v in shifts.items())


def _pack_bigint(values: list[int], limb_bytes: int) -> int:
    return int.from_bytes(
        b"".join(v.to_bytes(limb_bytes, "little") for v in values), "little"
    )


def _cyclic_convolve_bigint(a: np.ndarray, b: np.ndarray, total: int) -> list[int]:
    """Exact cyclic convolution through one wide integer multiplication.

    Coefficients are packed as little-endian limbs wide enough to hold
    total, sum(a) * sum(b), which no coefficient of the product passes, so
    no limb carries into its neighbor.
    """
    n = a.size
    limb_bytes = max(1, (max(total, 1).bit_length() + 7) // 8)
    A = _pack_bigint([int(x) for x in a.tolist()], limb_bytes)
    B = _pack_bigint([int(x) for x in b.tolist()], limb_bytes)
    raw = (A * B).to_bytes(limb_bytes * 2 * n, "little")
    limbs = [
        int.from_bytes(raw[i * limb_bytes : (i + 1) * limb_bytes], "little")
        for i in range(2 * n)
    ]
    return [limbs[t] + (limbs[t + n] if t + n < 2 * n else 0) for t in range(n)]


def _finalize(values: np.ndarray, total: int) -> np.ndarray:
    """values as int64 when total, the exact sum of the nonnegative
    entries, fits, else as Python ints; values itself when it already has
    that dtype."""
    return values.astype(np.int64 if total <= _INT64_MAX else object, copy=False)


def cyclic_convolve_exact(a, b) -> np.ndarray:
    """Exact cyclic convolution of two nonnegative integer vectors.

    out[t] = sum over i+j = t (mod n) of a[i] * b[j].  The result dtype is
    int64 exactly when its total sum(a) * sum(b), which no entry passes,
    fits, and Python integers otherwise.  A float result must also have
    that exact total, or it is recomputed by big integers.  A length-1
    input is [a0 * b0], with no plan.  Each distinct input is validated,
    normed and split once: b passed as a, or equal to a by content, is a
    self-product.
    """
    arr_a, total_a = _as_int_vector(a)
    arr_b, total_b = (arr_a, total_a) if b is a else _as_int_vector(b)
    if arr_a.size != arr_b.size:
        raise ParameterError("cyclic convolution needs equal lengths")
    total = total_a * total_b
    if arr_a.size == 1:
        return _finalize(np.array([total], dtype=object), total)
    if arr_b is not arr_a and np.array_equal(arr_a, arr_b):
        arr_b = arr_a  # a self-product: one set of limb spectra serves both
    norm_a = _norm_ceiling(arr_a)
    norm_b = norm_a if arr_b is arr_a else _norm_ceiling(arr_b)
    plan = plan_cyclic_convolution(arr_a.size, norm_a, norm_b)
    if plan.engine == "fft":
        out = _cyclic_convolve_fft(arr_a, arr_b, plan, norm_a, norm_b)
        if out is not None and _exact_sum(out) == total:
            return _finalize(out, total)
    exact = _cyclic_convolve_bigint(arr_a, arr_b, total)
    return _finalize(np.array(exact, dtype=object), total)


def cyclic_convolution_power(a, k: int) -> np.ndarray:
    """k-fold cyclic self-convolution by square and multiply, in
    floor(log2 k) + popcount(k) - 1 exact pairwise convolutions, each at
    the pairwise padding whatever k is, which matters for long vectors."""
    k = int(k)
    if k < 1:
        raise ParameterError("convolution power needs k >= 1")
    arr, total = _as_int_vector(a)
    if k == 1:
        return _finalize(arr.copy(), total)
    acc = arr
    for bit in bin(k)[3:]:
        acc = cyclic_convolve_exact(acc, acc)
        if bit == "1":
            acc = cyclic_convolve_exact(acc, arr)
    return acc


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


def dft_prime_length(values) -> tuple[np.ndarray, float]:
    """DFT out[a] = sum_x values[x] * exp(2*pi*i * a*x / n), the direction
    of the exponential sums e(a x / n).

    Any length works; the name records that counting asks for prime
    lengths p and the composite p - 1.  Returns the spectrum and an
    absolute error bound valid for every entry.
    """
    x = np.ascontiguousarray(values, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("dft needs a nonempty one-dimensional vector")
    err = dft_error_bound(x.size, float(np.abs(x).sum()))
    return np.fft.ifft(x, norm="forward"), err
