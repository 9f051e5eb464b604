import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcong.errors import ParameterError
from factcong.expsums import (
    batch_character_sums,
    batch_double_sums,
    batch_single_sums,
    character_sum,
    double_sum,
    double_sum_direct,
    roots_table,
    single_sum,
)
from factcong.factorial import build_window, product_histogram
from factcong.field import PrimeContext
from schoolbook import character_sum_direct

PRIMES = [5, 7, 11, 13, 17]


def test_zero_frequency_gives_window_size(ctx7):
    w = build_window(ctx7, 0, 6)
    assert single_sum(w, 0).value == pytest.approx(6 + 0j)


def test_known_magnitude_p7(ctx7):
    w = build_window(ctx7, 0, 6)
    assert abs(single_sum(w, 1).value) == pytest.approx(
        1.9654354887549157, abs=1e-12
    )


def test_batch_matches_single(ctx7):
    w = build_window(ctx7, 0, 6)
    spectrum = batch_single_sums(w)
    assert spectrum.values.shape == (7,)
    for a in range(7):
        direct = single_sum(w, a)
        assert abs(complex(spectrum.values[a]) - direct.value) <= max(
            spectrum.abs_error + direct.abs_error, 1e-9
        )


@given(st.sampled_from(PRIMES), st.data())
def test_batch_matches_single_random_windows(p, data):
    L = data.draw(st.integers(0, p - 2), label="L")
    N = data.draw(st.integers(1, p - 1 - L), label="N")
    w = build_window(PrimeContext.create(p), L, N)
    spectrum = batch_single_sums(w)
    tol = max(spectrum.abs_error * 4, 1e-8 * N)
    for a in range(p):
        assert abs(complex(spectrum.values[a]) - single_sum(w, a).value) <= tol


def test_conjugate_symmetry(ctx101):
    w = build_window(ctx101, 0, 100)
    spectrum = batch_single_sums(w)
    p = 101
    for a in range(1, p):
        assert complex(spectrum.values[p - a]) == pytest.approx(
            complex(np.conj(spectrum.values[a])), abs=1e-9
        )


def test_parseval_identity(ctx7):
    # power over all frequencies equals p times the self-correlation at 0
    w = build_window(ctx7, 0, 6)
    spectrum = batch_single_sums(w)
    power = float(np.sum(np.abs(spectrum.values) ** 2))
    assert power / 7 == pytest.approx(10.0, rel=1e-12)


def test_double_sum_routes_agree(ctx11):
    wm = build_window(ctx11, 0, 10)
    wn = build_window(ctx11, 1, 8)
    hist = product_histogram(wm, wn)
    for a in range(11):
        fast = double_sum(wm, wn, a)
        slow = double_sum_direct(wm, wn, a)
        assert abs(fast.value - slow.value) < 1e-9
        # the histogram passed positionally, as callers sharing one
        # histogram across frequencies do, gives the same value bit for bit
        assert double_sum(wm, wn, a, hist) == fast


def test_batch_double_sums_agree(ctx11):
    wm = build_window(ctx11, 0, 10)
    wn = build_window(ctx11, 1, 8)
    spectrum = batch_double_sums(wm, wn)
    for a in range(11):
        assert abs(complex(spectrum.values[a]) - double_sum_direct(wm, wn, a).value) < 1e-8
    with pytest.raises(ParameterError, match="different primes"):
        batch_double_sums(wm, build_window(PrimeContext.create(13), 0, 10))


def test_double_sum_zero_frequency_counts_pairs(ctx11):
    wm = build_window(ctx11, 0, 10)
    wn = build_window(ctx11, 0, 10)
    assert double_sum(wm, wn, 0).value == pytest.approx(100 + 0j)


def test_max_magnitude_skips_zero(ctx101):
    w = build_window(ctx101, 0, 100)
    spectrum = batch_single_sums(w)
    best = spectrum.max_magnitude()
    assert best.a != 0
    # frequency zero carries the full window mass, always the raw maximum
    assert abs(complex(spectrum.values[0])) > abs(best.value)


def test_character_sum_principal_and_quadratic(ctx7):
    w = build_window(ctx7, 0, 6)
    principal = character_sum(w, 0)
    assert principal.value == pytest.approx(6 + 0j)
    quadratic = character_sum(w, 3)
    assert abs(quadratic.value) < 1e-9


def test_character_sum_quadratic_is_legendre_sum(ctx11):
    w = build_window(ctx11, 0, 10)
    j = (11 - 1) // 2
    got = character_sum(w, j).value
    want = sum(1 if pow(int(v), 5, 11) == 1 else -1 for v in w.values)
    assert got.real == pytest.approx(want, abs=1e-9)
    assert got.imag == pytest.approx(0, abs=1e-9)


def test_batch_character_sums_match_single(ctx11):
    w = build_window(ctx11, 1, 8)
    spectrum = batch_character_sums(w)
    assert spectrum.values.shape == (10,)
    for j in range(10):
        assert abs(complex(spectrum.values[j]) - character_sum(w, j).value) < 1e-9


def test_character_sum_needs_dlog():
    # the table is built on demand, on the sum's first read of it
    ctx = PrimeContext.create(13)
    w = build_window(ctx, 0, 12)
    assert "dlog" not in vars(ctx)
    quadratic = character_sum(w, 6).value
    assert "dlog" in vars(ctx)
    legendre = sum(1 if pow(int(x), 6, 13) == 1 else -1 for x in w.values)
    assert quadratic == pytest.approx(legendre)


def test_character_index_wraps(ctx7):
    # indices live mod p-1, matching how additive frequencies wrap mod p
    w = build_window(ctx7, 0, 6)
    assert character_sum(w, 6).value == pytest.approx(6 + 0j)
    assert character_sum(w, -3).value == pytest.approx(
        character_sum(w, 3).value, abs=1e-12
    )


@pytest.mark.parametrize("N", [5, 250, 1008])
def test_direct_sums_match_the_roots_table_bit_for_bit(N):
    # a short window evaluates its roots term by term, a long one reads the
    # cached table; both give the same bits
    ctx = PrimeContext.create(1009, with_dlog=True)
    w = build_window(ctx, 0, N)
    for a in (1, 5, 1008):
        table = roots_table(1009)[(a * w.values) % 1009]
        assert single_sum(w, a).value == complex(table.sum())
    for j in (1, 504, 1007):
        table = roots_table(1008)[(j * ctx.dlog[w.values]) % 1008]
        assert character_sum(w, j).value == complex(table.sum())


def _gathered_character_sum(w, j: int) -> complex:
    """The character sum as it was computed through the window's values,
    roots(j * dlog[values] mod (p - 1)).sum(), with the roots read from
    the table, which _roots matches bit for bit."""
    n = w.p - 1
    roots = roots_table(n)
    return complex(roots[(j % n * w.ctx.dlog[w.values]) % n].sum())


# (p, L, N): full windows, windows with L > 0, and windows that end at
# p - 1; _roots reads the table when 4N >= p - 1 and takes terms below,
# and at p = 1009 the two sides meet between N = 251 and N = 252
_CHARACTER_WINDOWS = [
    (p, L, N) for p in (101, 1009, 10007)
    for L, N in ((0, p - 1), (0, 3), (17, 40), (17, p - 18), (p - 51, 50))
] + [(1009, 30, 251), (1009, 30, 252)]


@pytest.mark.parametrize("p, L, N", _CHARACTER_WINDOWS)
def test_character_sum_is_the_gathered_sum_bit_for_bit(p, L, N):
    # the running sum of indices gives every phase the integer the gather
    # through the window's values gave
    w = PrimeContext.create(p).window(L, N)
    for j in (0, 1, (p - 1) // 2, p - 2):
        assert character_sum(w, j).value == _gathered_character_sum(w, j), j


def test_character_sum_bit_for_bit_on_the_full_window_at_p_1000033():
    ctx = PrimeContext.create(1000033)
    w = ctx.window()
    for j in (0, 1, (ctx.p - 1) // 2, ctx.p - 2, 777):
        assert character_sum(w, j).value == _gathered_character_sum(w, j), j


def test_character_sum_reads_no_window_values():
    ctx = PrimeContext.create(1009)
    w = ctx.window(40, 900)
    character_sum(w, 5)
    assert "values" not in vars(w)
    assert ctx._windows == {}


@pytest.mark.parametrize("p", [53, 101, 211, 1009])
def test_character_sum_matches_the_schoolbook_sum(p):
    ctx = PrimeContext.create(p)
    for L, N in ((0, p - 1), (7, p - 20), (p // 2, p // 3)):
        w = ctx.window(L, N)
        for j in (1, 2, (p - 1) // 2, p - 2):
            got = character_sum(w, j)
            want = character_sum_direct(p, L, N, j)
            assert abs(got.value - want) <= got.abs_error, (L, N, j)
