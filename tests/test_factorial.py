import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcong import field, kernels
from factcong.errors import GuardExceededError, WindowRangeError
from factcong.factorial import (
    build_window,
    product_histogram,
    sum_histogram,
    value_histogram,
)
from factcong.field import PrimeContext

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29]


def window_strategy():
    return st.sampled_from(PRIMES).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(0, p - 2),
        ).flatmap(
            lambda pl: st.tuples(
                st.just(pl[0]),
                st.just(pl[1]),
                st.integers(1, pl[0] - 1 - pl[1]),
            )
        )
    )


def test_window_small_cases(ctx7):
    assert build_window(ctx7, 0, 6).values.tolist() == [1, 2, 6, 3, 1, 6]
    ctx5 = PrimeContext.create(5)
    assert build_window(ctx5, 2, 1).values.tolist() == [1]
    assert build_window(ctx5, 1, 2).values.tolist() == [2, 1]


def test_window_rejects_out_of_range(ctx7):
    with pytest.raises(WindowRangeError):
        build_window(ctx7, 0, 7)
    with pytest.raises(WindowRangeError):
        build_window(ctx7, 6, 1)
    with pytest.raises(WindowRangeError):
        build_window(ctx7, 0, 0)
    with pytest.raises(WindowRangeError):
        build_window(ctx7, -1, 2)


def test_window_limit_admits_its_own_length(monkeypatch, ctx101):
    monkeypatch.setattr(field, "BRUTE_TALLY_LIMIT", 50)
    window = build_window(ctx101, 10, 50)
    assert window.values.tolist() == [math.factorial(n) % 101 for n in range(11, 61)]
    with pytest.raises(GuardExceededError, match="51 entries"):
        build_window(ctx101, 10, 51)


@given(window_strategy())
def test_window_matches_math_factorial(pln):
    p, L, N = pln
    ctx = PrimeContext.create(p)
    window = build_window(ctx, L, N)
    for i, v in enumerate(window.values):
        assert int(v) == math.factorial(L + i + 1) % p
    # below p, factorials are never divisible by p
    assert np.all(window.values >= 1)
    assert np.all(window.values < p)


def test_value_histogram_known(ctx7):
    hist = value_histogram(build_window(ctx7, 0, 6))
    assert hist.counts.tolist() == [0, 2, 1, 1, 0, 0, 2]
    assert hist.domain == "additive"
    assert sum(hist.counts.tolist()) == 6


@given(window_strategy())
def test_value_histogram_mass(pln):
    p, L, N = pln
    window = build_window(PrimeContext.create(p), L, N)
    hist = value_histogram(window)
    assert sum(hist.counts.tolist()) == N
    assert hist.counts[0] == 0


def test_sum_histogram_known(ctx7):
    window = build_window(ctx7, 0, 6)
    g2 = sum_histogram(window, 2)
    assert g2.counts.tolist() == [8, 4, 8, 4, 5, 6, 1]
    assert sum(g2.counts.tolist()) == 36


@given(window_strategy(), st.integers(1, 3))
def test_sum_histogram_matches_enumeration(pln, k):
    import itertools

    p, L, N = pln
    window = build_window(PrimeContext.create(p), L, N)
    got = sum_histogram(window, k)
    expect = np.zeros(p, dtype=object)
    for tup in itertools.product(window.values.tolist(), repeat=k):
        expect[sum(tup) % p] += 1
    assert [int(x) for x in got.counts] == [int(x) for x in expect]
    assert sum(got.counts.tolist()) == N**k


def test_product_histogram_known(ctx7):
    window = build_window(ctx7, 0, 6)
    hist = product_histogram(window, window)
    assert hist.counts.tolist() == [0, 8, 5, 4, 5, 4, 10]
    assert hist.domain == "additive"
    assert sum(hist.counts.tolist()) == 36


def product_histogram_direct(wa, wb):
    """counts[t] = pairs (x from wa, y from wb) with x*y = t mod p, by the
    brute-force pair tally: a reference that goes through no transform."""
    return kernels.pair_product_tally(wa.values, wb.values, wa.p)


@given(window_strategy())
def test_product_histogram_agrees_with_direct(pln):
    p, L, N = pln
    ctx = PrimeContext.create(p, with_dlog=True)
    wa = build_window(ctx, L, N)
    wb = build_window(ctx, 0, p - 1 - 1)
    conv = product_histogram(wa, wb)
    direct = product_histogram_direct(wa, wb)
    np.testing.assert_array_equal(conv.counts, direct)


def test_product_histogram_zero_bin_empty(ctx101):
    w = build_window(ctx101, 0, 100)
    hist = product_histogram(w, w)
    assert hist.counts[0] == 0
    assert sum(hist.counts.tolist()) == 100 * 100
