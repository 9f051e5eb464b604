"""Exact cyclic convolution and floating-point DFTs.

Counting work needs cyclic convolutions of nonnegative integer vectors
whose entries must come out exactly.  The primary engine multiplies
float64 spectra from numpy's real FFT and rounds the product, but only
where a proven rounding bound keeps every error below 1/2: Percival's
bound for FFT multiplication (Math. Comp. 72, 2003) in the form of
Brent, Percival and Zimmermann (Math. Comp. 76, 2007), which depends on
the transform length only through its number of radix-2 levels.  A
length n that is not a power of two is padded to the shortest of 2^a,
5 * 2^a and 25 * 2^a points that holds 2n - 1, and the bound counts
ceil(log2 padded) levels; a power of two runs unpadded.  Inputs too wide
for one certified product, however wide, are split into as many limbs of
a few bits as the certificate needs.  Each distinct input is validated,
normed and split once, and each limb is transformed once: a self-product
(two inputs equal by content) transforms only one side, and an input
whose top entry fits in one limb is its own limb, with the norm the plan
already took.  Limb products of the same shift i + j are added in the
frequency domain and share one inverse transform, in groups whose summed
bound stays below 1/2; a lone group is the result as it rounds.  Callers
ask for each distinct convolution once: the counting engine keeps every
convolution of a count, and takes the correlations of J and SIGNED as
one convolution with an ``index_reversed`` sum histogram.  The bound is
proved for textbook radix-2 levels, while numpy's FFT runs radix-2, 4
and 5 passes over real data; _fft_error_factor derives that each such
pass stays within the error of the levels it stands for.  Every rounded
group is checked as well, against the gap between that model and the
compiled code: each entry must lie within the certified error of an
integer, and the result must have the exact total sum(a) * sum(b).  A
result that fails either check is recomputed by big integers through
Kronecker packing, the one use of that route.  No caller supplies a
coefficient bound: the certificate rests on the inputs' norms alone, and
the exact total sizes the result, int64 when sum(a) * sum(b) fits and
Python integers past it.

Spectra need complex DFTs whose length is a prime p or the composite
p - 1; numpy's FFT computes them, and every spectrum carries a
conservative absolute error bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
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

# A shift sums its rounded groups in int64: it has at most as many as the
# fewer limbs of its two inputs, each at most 2**53 - 1 per entry, and
# 1024 * (2**53 - 1) < 2**63.  Wider inputs sum in Python integers.
_INT64_GROUPS = 1024


@dataclass(frozen=True)
class ConvolutionPlan:
    """Resolved strategy for one exact cyclic convolution.

    padded is the transform size that _padded_length picks (length itself
    when length is a power of two).  The plan rests on the inputs' norms
    alone, with no coefficient bound.  It splits each input into at most
    ``limbs`` limbs of ``limb_bits`` bits, and ``error`` is its certified
    ceiling, below 1/2, on the rounding error of any one limb product.  A
    plan holds only what it decides: ``moduli`` is a class attribute,
    always empty since no engine works modulo primes, kept only while
    perfbench/tracing.py reads it.
    """

    length: int
    padded: int
    limbs: int
    limb_bits: int
    error: float
    moduli = ()


def _padded_length(length: int) -> int:
    """The transform size of a cyclic convolution: length itself when it
    is a power of two, else the shortest of 2^a, 5 * 2^a and 25 * 2^a that
    holds the 2 * length - 1 entries of the linear product.  numpy's FFT
    runs these faster than the next power of two and than other smooth
    sizes near them: a self-convolution at length 100043 took 9.9 ms at
    204,800 = 25 * 2^13 points, against 16.3 ms at 2^18, 12.1 ms at
    200,704 = 2^12 * 7^2 and 10.9 ms at 202,500 = 2^2 * 3^4 * 5^4, the
    shortest 5-smooth size (numpy 2.4, one core of a 2-CPU x86-64
    machine)."""
    if length & (length - 1) == 0:
        return length
    need = 2 * length - 1
    # r * 2^a for the least a with r * 2^a >= need
    return min(r << (-(-need // r) - 1).bit_length() for r in (1, 5, 25))


@functools.cache
def _fft_error_factor(padded: int, adds: int = 0) -> float:
    """Ceiling on |computed - exact| / (||a||_2 * ||b||_2) for one product.

    The radix-2 bound (1+eps)^(3m+adds) (1+eps*sqrt5)^(3m+1) (1+beta)^3m - 1
    with m = ceil(log2(padded)), eps = 2**-53 the float64 unit roundoff,
    beta = 2**-50 the twiddle error and adds the spectrum additions before
    the inverse (see _group_error), evaluated through log1p/expm1 and then
    widened by 2**-20 of itself to cover the rounding of this evaluation.

    Each of the 3m levels (m in each forward transform and in the inverse)
    is one twiddle product, within eps*sqrt5 (Brent, Percival and
    Zimmermann) and beta, and one addition, so it holds its transform
    within a factor L2 = (1+eps)(1+eps*sqrt5)(1+beta) of exact, relative
    in the Euclidean norm.  The proof needs only that every pass is
    sqrt(r) times a unitary map, computed within such a factor of its
    exact output, and the factors of numpy's passes fit the levels they
    stand for.  A radix-4 pass (radf4/radb4) takes one twiddle product
    and two additions, within (1+eps*sqrt5)(1+beta)(1+sqrt2*gamma_2),
    gamma_k = k eps / (1 - k eps), about 13.1 eps, under L2^2, about
    22.5 eps.  A radix-5 pass (radf5/radb5) takes one twiddle product,
    then the butterfly on its twiddled entries y0..y4: the outputs
    y0 + c1 s1 + c2 s2 +- i (t1 d1 + t2 d2) and y0 + c2 s1 + c1 s2
    +- i (t2 d1 - t1 d2), with s and d the sums and differences of y1, y4
    and of y2, y3, and c and t the cosines and sines of 2 pi / 5 and
    4 pi / 5.  No term passes through more than 6 roundings, counting its
    rounded constant (numpy's four are the correctly rounded doubles,
    within 0.8 eps).  Since c^2 + t^2 = 1 and |s|^2 + |d|^2 is twice the
    squares of its pair, each output's sum of absolute terms is at most
    |y0| + sqrt2 (|(y1, y4)| + |(y2, y3)|) <= sqrt5 ||y||, so the five
    have norm at most 5 ||y|| against sqrt5 ||y|| for the exact outputs:
    the pass is within (1+eps*sqrt5)(1+beta)(1+sqrt5*gamma_6), about
    23.7 eps, where ceil(log2(padded)) leaves each radix-5 pass 3 levels
    at 5 * 2^a and 2.5 at 25 * 2^a, at least 28.1 eps.  Such a padding
    also rounds the inverse's scale 1/padded and each scaled entry, a
    factor (1+eps)^2 that the radix-5 passes' slack covers.  So
    ceil(log2(padded)) needs no extra level, and a plan keeps the factor
    of the power of two it would otherwise pad to; tests/test_transform.py
    checks the whole product for every 5^f * 2^a against this factor.
    """
    m = (padded - 1).bit_length()
    growth = (
        (3 * m + adds) * math.log1p(_EPS)
        + (3 * m + 1) * math.log1p(_EPS * math.sqrt(5.0))
        + 3 * m * math.log1p(_TWIDDLE_ERR)
    )
    return math.expm1(growth) * (1.0 + 2.0**-20)


def plan_cyclic_convolution(length: int, norm_a: float | int,
                            norm_b: float | int) -> ConvolutionPlan:
    """Pick the transform size and limb split for one convolution.

    norm_a and norm_b are ceilings on the Euclidean norms of the two
    inputs: floats, or integers where they pass the float range.  The plan
    takes the fewest limbs per input for which every limb is exact in
    float64 and the product of any two limbs is certified to within 1/2 of
    its exact value and stays below 2**53.  The search starts at
    ceil(bits / 53) limbs, the fewest of at most 53 bits, so no limb norm
    leaves the float range.  Past about 3 * 10**12 points not even one-bit
    limbs certify, and the plan raises ParameterError.
    """
    length = int(length)
    if length < 1:
        raise ParameterError("convolution length must be at least 1")
    padded = _padded_length(length)
    factor = _fft_error_factor(padded)
    # every entry is at most its vector's norm
    bits = max(1, int(norm_a).bit_length(), int(norm_b).bit_length())
    for limbs in range(-(-bits // 53), bits + 1):
        limb_bits = -(-bits // limbs)
        limb_norm = math.sqrt(length) * ((1 << limb_bits) - 1)
        worst = min(norm_a, limb_norm) * min(norm_b, limb_norm)
        error = worst * factor
        if error < 0.5 and worst < 2.0**53:
            return ConvolutionPlan(length, padded, limbs, limb_bits, error)
    raise ParameterError(f"no limb split certifies a convolution of length {length}")


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


def _norm_ceiling(arr: np.ndarray) -> float | int:
    """Ceiling on the Euclidean norm of a nonnegative integer vector.

    Proof: s, the sum of squares, is exact (_sum_of_squares), and the
    float returned has an exact square of at least s, so it is a ceiling;
    math.sqrt(s) rounds twice (s to float64, then the root), so it starts
    within about one unit in the last place of sqrt(s) and the loop steps
    up at most twice.  Past the float range the ceiling is the integer
    isqrt(s) + 1.
    """
    s = _sum_of_squares(arr)
    try:
        root = math.sqrt(s)
    except OverflowError:
        return math.isqrt(s) + 1
    n, d = root.as_integer_ratio()
    while n * n < s * d * d:  # root**2 < s, in integers
        root = math.nextafter(root, math.inf)
        n, d = root.as_integer_ratio()
    return root


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


def _limb_spectra(arr: np.ndarray, norm: float | int, plan: ConvolutionPlan):
    """The rfft of every limb of arr, least significant first, and a
    ceiling on every limb's norm.

    An input whose top entry fits in one limb is its own limb, with norm,
    the ceiling taken for the plan.  The float64 cast is exact, since
    limb_bits <= 53."""
    width = plan.limb_bits
    count = -(-int(arr.max()).bit_length() // width)
    if count <= 1:
        limbs, norms = [arr], [norm]
    else:
        mask = (1 << width) - 1
        limbs = [((arr >> (width * i)) & mask).astype(np.int64, copy=False)
                 for i in range(count)]
        norms = list(map(_norm_ceiling, limbs))
    return [np.fft.rfft(v.astype(np.float64), plan.padded) for v in limbs], norms


def _cyclic_convolve_fft(a: np.ndarray, b: np.ndarray, plan: ConvolutionPlan,
                         norm_a: float | int, norm_b: float | int):
    """Exact cyclic convolution by float FFT products of limbs.

    norm_a and norm_b are the ceilings the plan was made from.  One
    spectrum per limb, shared by both sides when b is a; one inverse per
    group of ``_shift_groups``.  A lone group (both inputs of one limb) is
    the result as it rounds; otherwise each shift sums its rounded groups,
    in int64 within _INT64_GROUPS limbs a side, and the shifts combine.
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
    wide = min(len(norms_a), len(norms_b)) > _INT64_GROUPS
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
        if wide:
            group = group.astype(object)
        shifts[shift] = shifts[shift] + group if shift in shifts else group
    top = sum(int(v.max()) << (width * s) for s, v in shifts.items())
    dtype = np.int64 if top <= _INT64_MAX else object
    return sum(v.astype(dtype, copy=False) << (width * s) for s, v in shifts.items())


def _cyclic_convolve_bigint(a: np.ndarray, b: np.ndarray, total: int) -> list[int]:
    """Exact cyclic convolution through one wide integer multiplication.

    Coefficients are packed as little-endian limbs wide enough to hold
    total, sum(a) * sum(b), which no coefficient of the product passes, so
    no limb carries into its neighbor.
    """
    n, size = a.size, max(1, (max(total, 1).bit_length() + 7) // 8)

    def pack(v: np.ndarray) -> int:
        return int.from_bytes(
            b"".join(int(x).to_bytes(size, "little") for x in v.tolist()), "little"
        )

    raw = (pack(a) * pack(b)).to_bytes(size * 2 * n, "little")
    linear = [int.from_bytes(raw[i * size : (i + 1) * size], "little")
              for i in range(2 * n)]
    return [linear[t] + linear[t + n] for t in range(n)]


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
    that exact total and each entry near its integer, or it is recomputed
    by big integers.  A length-1 input is [a0 * b0], with no plan.  Each
    distinct input is validated, normed and split once: b passed as a, or
    equal to a by content, is a self-product.
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
    padded = 1 << (max(2 * length - 1, 2) - 1).bit_length()
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
