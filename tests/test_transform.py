import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcong import transform
from factcong.errors import ParameterError
from factcong.transform import (
    MAX_LIMBS,
    cyclic_convolution_power,
    cyclic_convolve_exact,
    dft_error_bound,
    dft_prime_length,
    index_reversed,
    plan_cyclic_convolution,
)
from schoolbook import cyclic_convolve_direct


def as_ints(vec):
    return [int(v) for v in vec]


def norm(vec):
    """A ceiling on the Euclidean norm, in exact integers."""
    return float(math.isqrt(sum(int(x) ** 2 for x in vec)) + 1)


def test_plan_picks_float_with_one_limb():
    a = np.full(100, 1000, dtype=np.int64)
    small = plan_cyclic_convolution(100, norm(a), norm(a))
    assert small.engine == "fft"
    assert small.limbs == 1
    assert small.error < 0.5
    assert small.padded >= 199
    assert small.padded & (small.padded - 1) == 0
    assert small.moduli == ()
    pow2 = plan_cyclic_convolution(128, norm(a[:28]), norm(a[:28]))
    assert pow2.padded == 128


def test_plan_splits_wide_inputs_into_limbs(rng):
    n = 4096
    a = np.full(n, 2**30, dtype=np.int64)
    b = rng.integers(0, 2**30, size=n).astype(np.int64)
    plan = plan_cyclic_convolution(n, norm(a), norm(b))
    assert plan.engine == "fft"
    assert 2 <= plan.limbs <= MAX_LIMBS
    assert plan.error < 0.5
    out = cyclic_convolve_exact(a, b)
    # every cyclic shift of b meets the constant vector a once
    assert as_ints(out) == [2**30 * int(b.sum())] * n


def test_plan_falls_back_to_bigint(rng):
    # inputs drawn like those of test_bigint_fallback_matches_direct
    a = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    b = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    assert plan_cyclic_convolution(33, norm(a), norm(b)).engine == "bigint"
    assert plan_cyclic_convolution(16, math.inf, math.inf).engine == "bigint"


@given(st.integers(1, 40), st.sampled_from([2**62, 2**100]), st.data())
def test_wide_entries_match_direct(n, top, data):
    # int64 entries up to 2**62, and Python integers beyond int64
    dtype = np.int64 if top < 2**63 else object
    draw = st.lists(st.integers(0, top), min_size=n, max_size=n)
    a = np.array(data.draw(draw), dtype=dtype)
    b = np.array(data.draw(draw), dtype=dtype)
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert as_ints(got) == as_ints(want)


def test_zero_input_beside_wide_input():
    wide = np.array([2**70, 0], dtype=object)
    assert as_ints(cyclic_convolve_exact(wide, np.array([0, 0]))) == [0, 0]


CORRUPTIONS = [
    {3: 0.6},
    # balanced, so the total still matches; only the distance check sees it
    {3: 0.6, 5: -0.6},
    # lands on the wrong integer; only the exact total sees it
    {3: 1.0},
]


def assert_corruption_is_recomputed(a, b, corruption, monkeypatch):
    irfft = np.fft.irfft
    calls = []

    def corrupted(*args, **kwargs):
        out = irfft(*args, **kwargs)
        for index, offset in corruption.items():
            out[index] += offset
        calls.append(1)
        return out

    monkeypatch.setattr(np.fft, "irfft", corrupted)
    bigint = transform._cyclic_convolve_bigint
    recomputed = []
    monkeypatch.setattr(transform, "_cyclic_convolve_bigint",
                        lambda *args: recomputed.append(1) or bigint(*args))
    got = cyclic_convolve_exact(a, b)
    assert calls
    assert recomputed == [1]
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_float_product_is_recomputed(corruption, rng, monkeypatch):
    # one limb each: the lone group is the result as it rounds
    a = rng.integers(0, 1000, size=97).astype(np.int64)
    b = rng.integers(0, 1000, size=97).astype(np.int64)
    assert_corruption_is_recomputed(a, b, corruption, monkeypatch)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_multi_limb_product_is_recomputed(corruption, rng, monkeypatch):
    # two limbs each: three shifts are combined
    a = rng.integers(0, 2**33, size=97).astype(np.int64)
    b = rng.integers(0, 2**33, size=97).astype(np.int64)
    assert_corruption_is_recomputed(a, b, corruption, monkeypatch)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of np.fft.rfft and np.fft.irfft calls made during a test."""
    calls = Counter()
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def two_limb_vector(seed):
    # 33-bit entries at length 64 take two 18-bit limbs, and the two limb
    # products of shift 1 certify together
    return np.random.default_rng(seed).integers(0, 2**33, size=64, dtype=np.int64)


@pytest.mark.parametrize(
    ("wide", "other", "rfft", "irfft"),
    [
        (False, "same", 1, 1),
        (False, "copy", 1, 1),
        # one spectrum per limb, one inverse per shift 0, 1, 2
        (True, "same", 2, 3),
        (True, "copy", 2, 3),
        (True, "distinct", 4, 3),
    ],
)
def test_fft_calls_per_product(fft_calls, wide, other, rfft, irfft):
    a = two_limb_vector(1) if wide else np.arange(64, dtype=np.int64)
    b = {"same": a, "copy": a.copy(), "distinct": two_limb_vector(2)}[other]
    plan = plan_cyclic_convolution(64, norm(a), norm(b))
    assert (plan.engine, plan.limbs) == ("fft", 2 if wide else 1)
    got = cyclic_convolve_exact(a, b)
    assert dict(fft_calls) == {"rfft": rfft, "irfft": irfft}
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


@given(
    st.integers(2, 40),
    st.sampled_from(("same", "copy", "distinct")),
    st.sampled_from((2**20, 2**40, 2**62)),
    st.sampled_from((1, 2**20, 2**62)),
    st.data(),
)
def test_multi_limb_products_match_direct(n, other, top_a, top_b, data):
    # self-products, equal-content copies, and inputs of unequal limb counts
    a = np.array(data.draw(st.lists(st.integers(0, top_a), min_size=n, max_size=n)),
                 dtype=np.int64)
    if other == "distinct":
        b = np.array(
            data.draw(st.lists(st.integers(0, top_b), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    else:
        b = a if other == "same" else a.copy()
    assert as_ints(cyclic_convolve_exact(a, b)) == as_ints(cyclic_convolve_direct(a, b))


@pytest.mark.parametrize(("bits", "rfft", "irfft", "norms"), [
    # a top entry of exactly limb_bits bits: a is its own limb, normed once
    (18, 3, 2, 4),
    # one bit more: a splits into two limbs, each normed
    (19, 4, 3, 6),
])
def test_limb_boundary_matches_direct(fft_calls, monkeypatch, bits, rfft, irfft, norms):
    a = np.random.default_rng(3).integers(0, 2**17, size=64, dtype=np.int64)
    a[5] = 2**bits - 1
    b = two_limb_vector(2)
    plan = plan_cyclic_convolution(64, norm(a), norm(b))
    assert (plan.engine, plan.limbs, plan.limb_bits) == ("fft", 2, 18)
    norm_ceiling = transform._norm_ceiling
    monkeypatch.setattr(transform, "_norm_ceiling",
                        lambda v: fft_calls.update(["norm"]) or norm_ceiling(v))
    # the float product certifies: no result falls back to big integers
    monkeypatch.setattr(transform, "_cyclic_convolve_bigint", None)
    got = cyclic_convolve_exact(a, b)
    assert dict(fft_calls) == {"rfft": rfft, "irfft": irfft, "norm": norms}
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


def test_shift_splits_when_the_sum_is_not_certified(fft_calls, monkeypatch):
    # one product still certifies, but any sum of two products does not
    factor = transform._fft_error_factor
    monkeypatch.setattr(transform, "_fft_error_factor",
                        lambda padded, adds=0: factor(padded) if adds == 0 else 1.0)
    a = two_limb_vector(1)
    got = cyclic_convolve_exact(a, a)
    # shift 1 runs its products (0, 1) and (1, 0) through separate inverses
    assert dict(fft_calls) == {"rfft": 2, "irfft": 4}
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, a))


def assert_tight_norm_ceiling(vec):
    """_norm_ceiling(vec) squared is at least the exact sum of squares and
    at most 1 + 1e-12 times it, so plans certify and do not widen."""
    squares = sum(int(x) ** 2 for x in vec.tolist())
    ceiling = Fraction(transform._norm_ceiling(vec)) ** 2
    assert squares <= ceiling <= squares * (1 + Fraction(1, 10**12))


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=64))
def test_norm_ceiling_of_int64_vectors(values):
    assert_tight_norm_ceiling(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**18])
def test_norm_ceiling_of_53_bit_vectors(n):
    assert_tight_norm_ceiling(np.full(n, 2**53 - 1, dtype=np.int64))


@pytest.mark.parametrize("value", [0, 1, 2, 3, 2**31, 2**62 + 1, 2**63 - 1])
def test_norm_ceiling_of_length_one(value):
    assert_tight_norm_ceiling(np.array([value], dtype=np.int64))


@pytest.mark.parametrize("bits", [32, 40, 62, 63])
def test_sum_of_squares_past_31_bits_is_exact(rng, bits):
    # entries past 2**31.5 take the split into 32-bit halves in uint64
    vec = rng.integers(0, 2**bits, size=10_038, dtype=np.int64)
    vec[:3] = [2**bits - 1, 2**32 - 1, 2**32]
    squares = sum(int(x) ** 2 for x in vec.tolist())
    assert transform._sum_of_squares(vec) == squares
    assert_tight_norm_ceiling(vec)


def test_norm_ceiling_past_int64():
    assert_tight_norm_ceiling(np.array([2**70, 3, 0], dtype=object))
    assert transform._norm_ceiling(np.array([2**600], dtype=object)) == math.inf


def fraction_norm_ceiling(s):
    """The ceiling's former form: step up while Fraction(root) ** 2 < s."""
    try:
        root = math.sqrt(s)
    except OverflowError:
        return math.inf
    while Fraction(root) ** 2 < s:
        root = math.nextafter(root, math.inf)
    return root


def test_norm_ceiling_equals_the_fraction_form(monkeypatch):
    # the integer test n * n < s * d * d is Fraction(root) ** 2 < s, so
    # every plan and certified error stays bit-identical
    rng = np.random.default_rng(27)
    edges = [0, 1, 2, 3, 4, 5, 2**52, 2**53 - 1, 2**53, 2**53 + 1,
             (2**53 - 1) ** 2, (2**53 - 1) ** 2 + 1, (2**53 + 1) ** 2 - 1,
             2**106 + 1, 2**126 - 1, 10**300 + 7, 2**1023 + 1, 2**1024 - 2**971,
             2**1024 - 1]
    drawn = [int(rng.integers(1, 2**62)) << int(rng.integers(0, 960))
             for _ in range(200)]
    roots = [int(rng.integers(1, 2**62)) << int(rng.integers(0, 450))
             for _ in range(200)]
    near_squares = [k * k + d for k in roots for d in (-1, 0, 1)]
    for s in edges + drawn + near_squares:
        monkeypatch.setattr(transform, "_sum_of_squares", lambda arr, s=s: s)
        assert transform._norm_ceiling(np.zeros(1, np.int64)) == fraction_norm_ceiling(s), s


def test_group_at_two_to_the_53_is_not_certified():
    assert transform._group_error(2.0**53, 1, 64) == math.inf
    assert transform._group_error(2.0**52, 2, 64) < math.inf


@given(
    st.integers(1, 64),
    st.integers(0, 10**6),
    st.data(),
)
def test_exact_matches_direct(n, scale, data):
    a = np.array(
        data.draw(st.lists(st.integers(0, scale + 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    b = np.array(
        data.draw(st.lists(st.integers(0, scale + 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert as_ints(got) == as_ints(want)


def test_exact_preserves_total_mass(rng):
    a = rng.integers(0, 500, size=97).astype(np.int64)
    b = rng.integers(0, 500, size=97).astype(np.int64)
    out = cyclic_convolve_exact(a, b)
    assert int(np.sum(out)) == int(a.sum()) * int(b.sum())


def test_bigint_fallback_matches_direct(rng):
    a = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    b = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert as_ints(got) == as_ints(want)
    assert plan_cyclic_convolution(33, norm(a), norm(b)).engine == "bigint"


def test_wide_values_stay_exact():
    # beyond int64 but still within the multi-modulus certificate
    a = np.array([10**17] * 64, dtype=object)
    out = cyclic_convolve_exact(a, a)
    assert all(int(x) == 64 * 10**34 for x in out)


def test_rejects_negative_and_fractional_input():
    with pytest.raises(ParameterError):
        cyclic_convolve_exact(np.array([1, -2]), np.array([1, 1]))
    with pytest.raises(ParameterError):
        cyclic_convolve_exact(np.array([1.5, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        cyclic_convolve_exact(np.array([1, 2]), np.array([1, 2, 3]))


def test_length_one_convolution():
    out = cyclic_convolve_exact(np.array([7]), np.array([6]))
    assert as_ints(out) == [42]


# the largest s with s**2 <= 2**63 - 1
_ROOT = math.isqrt(2**63 - 1)


@pytest.mark.parametrize(("a", "b", "dtype"), [
    # length 1: [a0 * b0], planned by nothing
    ([7], [(2**63 - 1) // 7], np.int64),
    ([2**32], [2**31], object),
    # sum(a) * sum(b) is 2**63 - 1, then 2**63
    ([1, 2, 3, 1], [(2**63 - 1) // 7 - 3, 1, 1, 1], np.int64),
    ([2**31, 2**30, 2**30, 0], [2**30, 2**29, 2**29, 0], object),
    # a self-product whose total is _ROOT**2, then (_ROOT + 1)**2
    ([_ROOT - 3, 1, 2], "same", np.int64),
    ([_ROOT - 2, 1, 2], "same", object),
])
def test_result_dtype_follows_the_exact_total(a, b, dtype):
    # int64 exactly when sum(a) * sum(b) fits in int64
    a = np.array(a, dtype=np.int64)
    b = a if b == "same" else np.array(b, dtype=np.int64)
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert got.dtype == want.dtype == dtype
    assert as_ints(got) == as_ints(want)


@pytest.mark.parametrize(("a", "k", "dtype"), [
    ([2**62 - 1, 2**62], 1, np.int64),
    ([2**62, 2**62], 1, object),
    ([_ROOT - 2, 1, 1], 2, np.int64),
    ([_ROOT - 1, 1, 1], 2, object),
    ([2**21 - 2, 1, 0, 0], 3, np.int64),
    ([2**20, 2**20 - 1, 1, 0], 3, object),
])
def test_power_dtype_follows_the_exact_total(a, k, dtype):
    # int64 exactly when sum(a)**k fits; the oracle convolves a k times
    # into the unit vector, whose sum is 1
    a = np.array(a, dtype=np.int64)
    got = cyclic_convolution_power(a, k)
    want = np.eye(1, a.size, dtype=np.int64)[0]
    for _ in range(k):
        want = cyclic_convolve_direct(want, a)
    assert got.dtype == want.dtype == dtype
    assert as_ints(got) == as_ints(want)


@given(st.integers(1, 5), st.data())
def test_power_matches_repeated_direct(k, data):
    n = data.draw(st.integers(1, 24), label="n")
    a = np.array(
        data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    got = cyclic_convolution_power(a, k)
    want = a.astype(object)
    for _ in range(k - 1):
        want = np.array(cyclic_convolve_direct(want, a), dtype=object)
    assert as_ints(got) == as_ints(want)


def test_power_squares_and_multiplies(monkeypatch):
    # k = 1..40 in floor(log2 k) + popcount(k) - 1 exact convolutions,
    # not the k - 1 of a chain; the oracle chains the schoolbook product
    a = np.array([3, 0, 1, 2, 5, 1, 0], dtype=np.int64)
    calls = []
    convolve = transform.cyclic_convolve_exact
    monkeypatch.setattr(transform, "cyclic_convolve_exact",
                        lambda *args: calls.append(1) or convolve(*args))
    want = a
    for k in range(1, 41):
        calls.clear()
        got = cyclic_convolution_power(a, k)
        assert len(calls) <= k.bit_length() + bin(k).count("1") - 2, k
        assert got.dtype == want.dtype and as_ints(got) == as_ints(want), k
        want = cyclic_convolve_direct(want, a)


def test_index_reversed():
    a = np.array([10, 11, 12, 13])
    assert index_reversed(a).tolist() == [10, 13, 12, 11]
    assert index_reversed(np.array([5])).tolist() == [5]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 97, 100, 101, 512, 10007])
def test_dft_matches_numpy_fft(n, rng):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, err = dft_prime_length(x)
    want = n * np.fft.ifft(x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) / scale < 1e-9
    assert err >= 0


@pytest.mark.parametrize("n", [5, 97, 10007])
def test_dft_roundtrip(n, rng):
    x = rng.standard_normal(n)
    X, _ = dft_prime_length(x)
    back = np.fft.fft(X) / n
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9


def test_dft_error_bound_grows_with_l1():
    small = dft_error_bound(64, 10.0)
    large = dft_error_bound(64, 1000.0)
    assert 0 < small < large


def test_dft_error_bound_is_sound(rng):
    # observed DFT error must sit below the certified bound
    for n in (97, 101, 512):
        x = rng.integers(0, 1000, size=n).astype(np.float64)
        got, err = dft_prime_length(x)
        want = n * np.fft.ifft(x)
        assert np.max(np.abs(got - want)) < err


def longdouble_dft(x: np.ndarray):
    """Real and imaginary parts of a direct O(n^2) DFT, out[a] = sum_x x[x]
    exp(2 pi i a x / n), evaluated in long double, sharing no FFT code."""
    n = x.size
    k = np.arange(n)
    pi = 4 * np.arctan(np.longdouble(1))
    phase = (np.outer(k, k) % n).astype(np.longdouble) * (2 * pi / n)
    xr = x.real.astype(np.longdouble)
    xi = x.imag.astype(np.longdouble)
    re = np.cos(phase) @ xr - np.sin(phase) @ xi
    im = np.sin(phase) @ xr + np.cos(phase) @ xi
    return re, im


@pytest.mark.parametrize("n", [5, 97, 101, 512])
def test_dft_error_bound_holds_against_longdouble_reference(n, rng):
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than double on this platform")
    x = rng.integers(0, 1000, size=n).astype(np.float64)
    got, err = dft_prime_length(x)
    re, im = longdouble_dft(x.astype(np.complex128))
    observed = np.max(np.hypot(got.real - re, got.imag - im))
    assert observed < err
    assert err == dft_error_bound(n, float(x.sum()))
