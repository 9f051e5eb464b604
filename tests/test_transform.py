import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcong.errors import ParameterError
from factcong.transform import (
    MAX_LIMBS,
    cyclic_convolution_power,
    cyclic_convolve_direct,
    cyclic_convolve_exact,
    dft_error_bound,
    dft_prime_length,
    index_reversed,
    plan_cyclic_convolution,
)


def as_ints(vec):
    return [int(v) for v in vec]


def norm(vec):
    """A ceiling on the Euclidean norm, in exact integers."""
    return float(math.isqrt(sum(int(x) ** 2 for x in vec)) + 1)


def test_plan_picks_float_with_one_limb():
    a = np.full(100, 1000, dtype=np.int64)
    small = plan_cyclic_convolution(100, 10**10, norm(a), norm(a))
    assert small.engine == "fft"
    assert small.limbs == 1
    assert small.error < 0.5
    assert small.padded >= 199
    assert small.padded & (small.padded - 1) == 0
    assert small.moduli == ()
    pow2 = plan_cyclic_convolution(128, 10**9, norm(a[:28]), norm(a[:28]))
    assert pow2.padded == 128


def test_plan_splits_wide_inputs_into_limbs(rng):
    n = 4096
    a = np.full(n, 2**30, dtype=np.int64)
    b = rng.integers(0, 2**30, size=n).astype(np.int64)
    bound = int(a.sum()) * int(b.sum())
    plan = plan_cyclic_convolution(n, bound, norm(a), norm(b))
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
    bound = int(sum(a)) * int(sum(b))
    assert plan_cyclic_convolution(33, bound, norm(a), norm(b)).engine == "bigint"
    assert plan_cyclic_convolution(16, 10**300).engine == "bigint"


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


@pytest.mark.parametrize(
    "corruption",
    [
        {3: 0.6},
        # balanced, so the total still matches; only the distance check sees it
        {3: 0.6, 5: -0.6},
        # lands on the wrong integer; only the exact total sees it
        {3: 1.0},
    ],
)
def test_corrupted_float_product_is_recomputed(corruption, rng, monkeypatch):
    a = rng.integers(0, 1000, size=97).astype(np.int64)
    b = rng.integers(0, 1000, size=97).astype(np.int64)
    irfft = np.fft.irfft
    calls = []

    def corrupted(*args, **kwargs):
        out = irfft(*args, **kwargs)
        for index, offset in corruption.items():
            out[index] += offset
        calls.append(1)
        return out

    monkeypatch.setattr(np.fft, "irfft", corrupted)
    got = cyclic_convolve_exact(a, b)
    assert calls
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


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
    assert plan_cyclic_convolution(33, int(sum(a)) * int(sum(b))).engine == "bigint"


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


def test_index_reversed():
    a = np.array([10, 11, 12, 13])
    assert index_reversed(a).tolist() == [10, 13, 12, 11]
    assert index_reversed(np.array([5])).tolist() == [5]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 97, 100, 101, 512, 10007])
def test_dft_matches_numpy_fft(n, rng):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, err = dft_prime_length(x, sign=-1)
    want = np.fft.fft(x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) / scale < 1e-9
    assert err >= 0


@pytest.mark.parametrize("n", [5, 97, 10007])
def test_dft_roundtrip(n, rng):
    x = rng.standard_normal(n)
    X, _ = dft_prime_length(x, sign=1)
    back, _ = dft_prime_length(X, sign=-1)
    back = back / n
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9


def test_dft_error_bound_grows_with_l1():
    small = dft_error_bound(64, 10.0)
    large = dft_error_bound(64, 1000.0)
    assert 0 < small < large


def test_dft_error_bound_is_sound(rng):
    # observed DFT error must sit below the certified bound
    for n in (97, 101, 512):
        x = rng.integers(0, 1000, size=n).astype(np.float64)
        got, err = dft_prime_length(x, sign=-1)
        want = np.fft.fft(x)
        assert np.max(np.abs(got - want)) < err


def longdouble_dft(x: np.ndarray, sign: int):
    """Real and imaginary parts of a direct O(n^2) DFT evaluated in long
    double, sharing no FFT code."""
    n = x.size
    k = np.arange(n)
    pi = 4 * np.arctan(np.longdouble(1))
    phase = (np.outer(k, k) % n).astype(np.longdouble) * (sign * 2 * pi / n)
    xr = x.real.astype(np.longdouble)
    xi = x.imag.astype(np.longdouble)
    re = np.cos(phase) @ xr - np.sin(phase) @ xi
    im = np.sin(phase) @ xr + np.cos(phase) @ xi
    return re, im


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [5, 97, 101, 512])
def test_dft_error_bound_holds_against_longdouble_reference(n, sign, rng):
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than double on this platform")
    x = rng.integers(0, 1000, size=n).astype(np.float64)
    got, err = dft_prime_length(x, sign=sign)
    re, im = longdouble_dft(x.astype(np.complex128), sign)
    observed = np.max(np.hypot(got.real - re, got.imag - im))
    assert observed < err
    assert err == dft_error_bound(n, float(x.sum()))
