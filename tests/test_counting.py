import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcong import counting, factorial, kernels, transform
from factcong.counting import (
    AUTO_BRUTE_THRESHOLD,
    BRUTE_FORCE_GUARD,
    CountQuery,
    brute_force_count,
    count,
    count_convolution,
    count_profile,
    estimate_brute_work,
)
from factcong.cli import main
from factcong.errors import EngineMismatchError, GuardExceededError, ParameterError
from factcong.factorial import build_window, sum_histogram
from factcong.field import PrimeContext, find_primitive_root

PRIMES = [5, 7, 11, 13]


@pytest.fixture(scope="module")
def contexts():
    return {p: PrimeContext.create(p, with_dlog=True) for p in PRIMES + [29]}


# fixed values derived with a standalone exhaustive script before this
# package was written


def test_fixed_values_p7(ctx7):
    def c(**kw):
        return count(CountQuery(ctx=ctx7, **kw)).count

    assert c(family="J", ell=1, lam=0) == 10
    assert c(family="J", ell=2, lam=0) == 222
    assert c(family="F", ell=1) == 246
    assert c(family="T", r=1, lam=1) == 8
    assert c(family="T", r=1, lam=6) == 10
    assert c(family="Q", r=1, lam=0) == 45
    assert c(family="Q", r=1, lam=1) == 24
    assert c(family="Q", r=1, lam=6) == 17
    assert c(family="R", k=1, ell=1, r=1, lam=1) == 45
    assert c(family="R", k=1, ell=1, r=1, lam=6) == 45
    assert c(family="I", ell=1) == 10


def test_fixed_profile_p7(ctx7):
    profile = count_profile(CountQuery(family="J", ctx=ctx7, ell=1))
    assert [int(x) for x in profile] == [10, 3, 6, 4, 4, 6, 3]


def test_r_total_mass_p7(ctx7):
    total = sum(
        count(CountQuery(family="R", ctx=ctx7, k=1, ell=1, r=1, lam=lam)).count
        for lam in range(1, 7)
    )
    # single-factorial brackets never vanish mod p, so nothing is dropped
    assert total == 6**3


# engine equivalence


def param_grid(p):
    for fam in ("J", "SIGNED", "F", "I", "T", "Q", "R"):
        for mult in (1, 2):
            lams = (0, 1, p - 1) if fam in ("J", "SIGNED", "T", "Q") else (1, p - 1)
            if fam in ("F", "I"):
                lams = (0,)
            for lam in lams:
                kw = {"lam": lam}
                if fam in ("J", "F", "I"):
                    kw["ell"] = mult
                elif fam == "SIGNED":
                    kw["k"] = mult
                    kw["signs"] = tuple(
                        1 if i % 2 == 0 else -1 for i in range(mult)
                    )
                elif fam in ("T", "Q"):
                    kw["r"] = mult
                else:
                    kw.update(k=mult, ell=mult, r=mult)
                if fam in ("F", "I"):
                    kw.pop("lam")
                yield fam, kw


@pytest.mark.parametrize("p", PRIMES)
def test_engines_agree_full_window(contexts, p):
    ctx = contexts[p]
    for fam, kw in param_grid(p):
        q = CountQuery(family=fam, ctx=ctx, **kw)
        conv = count_convolution(q)
        brute = brute_force_count(q)
        assert conv.count == brute.count, (fam, kw)


@pytest.mark.parametrize("p", [11, 13])
def test_engines_agree_offset_window(contexts, p):
    ctx = contexts[p]
    L, N = 1, p - 3
    for fam, kw in param_grid(p):
        q = CountQuery(family=fam, ctx=ctx, L=L, N=N, K=L, M=N, S=L, T=N, **kw)
        assert count_convolution(q).count == brute_force_count(q).count, (fam, kw)


def test_engine_both_reports_match(ctx7):
    res = count(CountQuery(family="J", ctx=ctx7, ell=1), engine="both")
    assert res.engine == "both"
    assert res.count == 10
    assert "convolution_seconds" in res.details


# mass conservation and structural properties


@given(st.sampled_from(PRIMES), st.integers(1, 2), st.data())
def test_j_mass_and_dominance(p, ell, data):
    ctx = PrimeContext.create(p)
    L = data.draw(st.integers(0, p - 3), label="L")
    N = data.draw(st.integers(2, p - 1 - L), label="N")
    profile = count_profile(CountQuery(family="J", ctx=ctx, ell=ell, L=L, N=N))
    total = sum(int(x) for x in profile)
    assert total == N ** (2 * ell)
    # zero shift dominates and the profile is symmetric under negation
    assert all(int(profile[0]) >= int(x) for x in profile)
    for lam in range(1, p):
        assert int(profile[lam]) == int(profile[p - lam])


@given(st.sampled_from(PRIMES), st.integers(1, 2), st.data())
def test_j_zero_equals_sum_of_squares(p, ell, data):
    ctx = PrimeContext.create(p)
    L = data.draw(st.integers(0, p - 3), label="L")
    N = data.draw(st.integers(2, p - 1 - L), label="N")
    G = sum_histogram(build_window(ctx, L, N), ell)
    j0 = count(CountQuery(family="J", ctx=ctx, ell=ell, L=L, N=N, lam=0)).count
    assert sum(int(x) ** 2 for x in G.counts) == j0


@given(st.sampled_from(PRIMES), st.integers(1, 2), st.data())
def test_t_and_q_mass(p, r, data):
    ctx = PrimeContext.create(p, with_dlog=True)
    profile_t = count_profile(CountQuery(family="T", ctx=ctx, r=r))
    assert sum(int(x) for x in profile_t) == ((p - 1) * (p - 1)) ** r
    profile_q = count_profile(CountQuery(family="Q", ctx=ctx, r=r))
    assert sum(int(x) for x in profile_q) == (p - 1) ** (r + 2)


@given(st.sampled_from(PRIMES), st.data())
def test_signed_mass(p, data):
    ctx = PrimeContext.create(p)
    k = data.draw(st.integers(1, 3), label="k")
    signs = tuple(
        data.draw(st.sampled_from([1, -1]), label=f"s{i}") for i in range(k)
    )
    profile = count_profile(CountQuery(family="SIGNED", ctx=ctx, k=k, signs=signs))
    assert sum(int(x) for x in profile) == (p - 1) ** k


@given(st.sampled_from([7, 11, 13]), st.integers(1, 2), st.integers(1, 2))
def test_r_mass_accounts_for_zero_products(p, k, ell):
    ctx = PrimeContext.create(p, with_dlog=True)
    total_nonzero = 0
    dropped = None
    for lam in range(1, p):
        res = count_convolution(
            CountQuery(family="R", ctx=ctx, k=k, ell=ell, r=1, lam=lam)
        )
        total_nonzero += res.count
        dropped = res.details["dropped_zero_mass"]
    n = p - 1
    assert total_nonzero + dropped == n ** (k + ell + 1)


def test_f_equals_t_selfcorrelation_route(ctx11):
    # two independent characterizations of the same quantity
    f1 = count(CountQuery(family="F", ctx=ctx11, ell=1)).count
    profile_t = count_profile(CountQuery(family="T", ctx=ctx11, r=1))
    assert f1 == sum(int(x) ** 2 for x in profile_t)


def test_i_counts_multiplicative_collisions(ctx7):
    # I with ell=1 counts pairs with equal factorials
    from factcong.factorial import build_window, value_histogram

    hist = value_histogram(build_window(ctx7, 0, 6))
    expect = sum(int(c) ** 2 for c in hist.counts)
    assert count(CountQuery(family="I", ctx=ctx7, ell=1)).count == expect


# validation and guards


def test_validation_errors(ctx7):
    with pytest.raises(ParameterError):
        CountQuery(family="X", ctx=ctx7).resolved()
    with pytest.raises(ParameterError):
        CountQuery(family="SIGNED", ctx=ctx7, k=2, signs=(1,)).resolved()
    with pytest.raises(ParameterError):
        CountQuery(family="SIGNED", ctx=ctx7, k=2, signs=(1, 2)).resolved()
    with pytest.raises(ParameterError):
        CountQuery(family="R", ctx=ctx7, lam=0).resolved()
    with pytest.raises(ParameterError):
        CountQuery(family="R", ctx=ctx7, k=-1, lam=1).resolved()
    with pytest.raises(ParameterError):
        CountQuery(family="J", ctx=ctx7, ell=0).resolved()


def test_lambda_normalization(ctx7):
    q = CountQuery(family="J", ctx=ctx7, lam=-1).resolved()
    assert q.lam == 6
    assert count(CountQuery(family="J", ctx=ctx7, lam=-1)).count == count(
        CountQuery(family="J", ctx=ctx7, lam=6)
    ).count


def test_brute_guard_fires():
    ctx = PrimeContext.create(9973)
    q = CountQuery(family="J", ctx=ctx, ell=3)
    assert estimate_brute_work(q.resolved()) > BRUTE_FORCE_GUARD
    with pytest.raises(GuardExceededError):
        brute_force_count(q)


def test_auto_picks_engines(ctx7):
    small = count(CountQuery(family="J", ctx=ctx7, ell=1), engine="auto")
    assert small.engine == "brute-force"
    big_ctx = PrimeContext.create(4001)
    big = count(CountQuery(family="J", ctx=big_ctx, ell=2), engine="auto")
    assert big.engine == "convolution"
    assert estimate_brute_work(
        CountQuery(family="J", ctx=big_ctx, ell=2).resolved()
    ) > AUTO_BRUTE_THRESHOLD


def test_unknown_engine_rejected(ctx7):
    with pytest.raises(ParameterError):
        count(CountQuery(family="J", ctx=ctx7), engine="quantum")


def test_profile_rejected_for_scalar_families(ctx7):
    with pytest.raises(ParameterError):
        count_profile(CountQuery(family="F", ctx=ctx7))
    with pytest.raises(ParameterError):
        count_profile(CountQuery(family="I", ctx=ctx7))


def test_profile_matches_pointwise(contexts):
    ctx = contexts[11]
    profile = count_profile(CountQuery(family="Q", ctx=ctx, r=2))
    for lam in (0, 3, 10):
        assert int(profile[lam]) == count(
            CountQuery(family="Q", ctx=ctx, r=2, lam=lam)
        ).count


def test_r_with_k_zero(contexts):
    # k = 0 drops the first bracket entirely
    ctx = contexts[11]
    q0 = CountQuery(family="R", ctx=ctx, k=0, ell=2, r=1, lam=3)
    assert count_convolution(q0).count == brute_force_count(q0).count


def test_signed_k1_profiles(ctx7):
    plus = count_profile(CountQuery(family="SIGNED", ctx=ctx7, k=1, signs=(1,)))
    minus = count_profile(CountQuery(family="SIGNED", ctx=ctx7, k=1, signs=(-1,)))
    # negating the sign reflects the profile through zero
    for lam in range(7):
        assert int(plus[lam]) == int(minus[(7 - lam) % 7])


# exact combine helpers against plain Python integer arithmetic

INT64_MAX = 2**63 - 1


@st.composite
def combine_vectors(draw):
    """Two equal-length vectors: small, at or just past the int64 dot limit
    max|a| * max|b| * len, holding -2**63 (whose int64 absolute value is
    itself), object beyond 2**63, or all zero."""
    n = draw(st.integers(1, 24), label="n")
    kind = draw(
        st.sampled_from(("small", "below", "above", "extreme", "object", "zero")),
        label="kind",
    )
    if kind == "zero":
        return np.zeros(n, np.int64), np.zeros(n, np.int64)
    if kind == "object":
        entries = st.lists(st.integers(-(2**100), 2**100), min_size=n, max_size=n)
        return tuple(np.array(draw(entries), dtype=object) for _ in range(2))
    if kind == "small":
        entries = st.integers(-1000, 1000)
    elif kind == "extreme":
        entries = st.sampled_from((-(2**63), -1, 0, 1))
    else:
        top = math.isqrt(INT64_MAX // n) + (kind == "above")
        entries = st.sampled_from((top, -top, top - 1, 0))
    a, b = (
        np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=np.int64)
        for _ in range(2)
    )
    if kind in ("below", "above"):
        a[0] = b[0] = top
    return a, b


def python_dot(a, b):
    return sum(int(x) * int(y) for x, y in zip(a.tolist(), b.tolist()))


@settings(max_examples=200)
@given(combine_vectors())
def test_exact_combines_match_python(vectors):
    a, b = vectors
    n = a.size
    assert counting._exact_dot(a, b) == python_dot(a, b)
    assert counting._sum_squares(a) == python_dot(a, a)
    for lam in range(n):
        expected = sum(int(a[i]) * int(b[(lam - i) % n]) for i in range(n))
        assert counting._convolution_at(a, b, lam) == expected


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("n", [1, 2, 1009])
def test_convolution_at_matches_the_modulo_gather(rng, dtype, n):
    x = rng.integers(-(2**20), 2**20, n).astype(dtype)
    y = rng.integers(-(2**20), 2**20, n).astype(dtype)
    if dtype is object:
        x, y = x * 2**70, y * 3**40
    for at in sorted({0, 1 % n, n // 2, n - 1}):
        gathered = y[(at - np.arange(n)) % n]
        assert counting._convolution_at(x, y, at) == counting._exact_dot(x, gathered)


def test_r_brute_object_path_matches_int64_and_conv(contexts, monkeypatch):
    q = CountQuery(family="R", ctx=contexts[13], k=2, ell=2, r=2, lam=5)
    expected = count_convolution(q).count
    # a limit of 0 sends every combine to object arrays; 30 grid entries
    # split the 12 nonzero u into chunks of two
    for limit in (INT64_MAX, 0):
        for grid in (counting._GRID_ENTRIES, 30):
            monkeypatch.setattr(counting, "_INT64_MAX", limit)
            monkeypatch.setattr(counting, "_GRID_ENTRIES", grid)
            assert brute_force_count(q).count == expected, (limit, grid)


def test_r_combine_wide_tallies_match_python(monkeypatch):
    # tallies this wide overflow int64 in the sum, so only the object path
    # can be right; a power table is taken at any size
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 0)
    p, lam = 13, 5
    rng = np.random.default_rng(7)
    A, B, C = (rng.integers(0, 2**40, size=p, dtype=np.int64) for _ in range(3))
    expected = sum(
        int(A[u]) * int(B[v]) * int(C[lam * pow(u * v, -1, p) % p])
        for u in range(1, p)
        for v in range(1, p)
    )
    assert expected > INT64_MAX
    inv = kernels.inverse_table(kernels.factorial_window(p, 0, p - 1), p)
    for powers in (None, power_table_of(p)):
        assert counting._r_combine(A, B, C[lam * inv % p], p, powers) == expected


# single-lambda counts against the profile and the brute engine

def r_combine_reference(A, B, c, p):
    return sum(int(A[u]) * int(B[v]) * int(c[u * v % p])
               for u, v in itertools.product(range(1, p), repeat=2))


def power_table_of(p):
    """A powers callable as the brute engine passes it: the table of the
    smallest generator mod p."""
    table = kernels.power_table(p, find_primitive_root(p))
    return lambda: table


@pytest.mark.parametrize("p", [2, 3, 13, 31])
@pytest.mark.parametrize("symmetric", [True, False])
def test_r_combine_matches_a_direct_sum(monkeypatch, p, symmetric):
    # A equal to B takes each unordered (u, v) once; zeros in A and B drop
    # rows and columns, so the grids are ragged; with a power table the
    # grids run over exponents, at any size
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 0)
    rng = np.random.default_rng(p)
    A = rng.integers(0, 5, size=p, dtype=np.int64)
    A[rng.random(p) < 0.4] = 0
    B = A.copy() if symmetric else rng.integers(0, 5, size=p, dtype=np.int64)
    c = rng.integers(0, 50, size=p, dtype=np.int64)
    expected = r_combine_reference(A, B, c, p)
    for powers in (None, power_table_of(p)):
        for block in (kernels._ROW_BLOCK, 1, 2, 3):
            for grid in (counting._GRID_ENTRIES, 1, 7):
                monkeypatch.setattr(kernels, "_ROW_BLOCK", block)
                monkeypatch.setattr(counting, "_GRID_ENTRIES", grid)
                got = counting._r_combine(A, B, c, p, powers)
                assert got == expected, (powers, block, grid)
        with monkeypatch.context() as mp:
            mp.setattr(counting, "_INT64_MAX", 0)
            assert counting._r_combine(A, B, c, p, powers) == expected


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.booleans(), st.data())
def test_r_combine_over_exponents_matches_itertools(p, symmetric, data):
    # sparse tallies with repeated counts; below the pair threshold the
    # combine stays over residues and builds no table
    counts = st.lists(st.sampled_from([0, 0, 1, 3]), min_size=p, max_size=p)
    A = np.array(data.draw(counts, label="A"), dtype=np.int64)
    B = A.copy() if symmetric else np.array(data.draw(counts, label="B"), dtype=np.int64)
    c = np.array(data.draw(st.lists(st.integers(0, 9), min_size=p, max_size=p),
                           label="c"), dtype=np.int64)
    table = kernels.power_table(p, find_primitive_root(p))
    expected = r_combine_reference(A, B, c, p)
    pairs = np.count_nonzero(A[1:]) * np.count_nonzero(B[1:])
    # the threshold as it is, and 0 so that every size takes the table
    for per_p in (0, kernels._EXPONENT_PAIRS_PER_P):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", per_p)
            calls = []
            got = counting._r_combine(A, B, c, p, lambda: calls.append(1) or table)
            assert got == expected, per_p
            assert bool(calls) == kernels._use_exponents(pairs, p)


def test_r_combine_takes_the_table_from_the_pair_threshold(monkeypatch):
    # at p = 13 and 2 pairs per unit of p the threshold is 26 nonzero
    # (u, v): 5 x 5 stays over residues, 3 x 9 takes the table
    p = 13
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 2)
    table = kernels.power_table(p, find_primitive_root(p))
    c = np.arange(p, dtype=np.int64)
    for nu, nv in ((5, 5), (3, 9)):
        A, B = np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
        A[1 : nu + 1], B[1 : nv + 1] = 2, 3
        calls = []
        got = counting._r_combine(A, B, c, p, lambda: calls.append(1) or table)
        assert got == r_combine_reference(A, B, c, p)
        assert bool(calls) == (nu * nv >= 2 * p), (nu, nv)


@pytest.mark.parametrize(("k", "ell", "K", "M"), [
    (1, 1, 0, None),  # equal brackets: the symmetric combine
    (2, 2, 0, None),
    (1, 2, 0, None),  # k != ell
    (1, 1, 3, 5),     # equal k and ell over different windows
])
def test_r_brute_matches_conv_with_equal_and_unequal_brackets(
    monkeypatch, k, ell, K, M
):
    ctx = PrimeContext.create(31, with_dlog=True)
    for lam in (1, 7, 30):
        q = CountQuery(family="R", ctx=ctx, k=k, ell=ell, r=1, lam=lam, K=K, M=M)
        expected = count_convolution(q).count
        for block in (kernels._ROW_BLOCK, 1, 5):
            monkeypatch.setattr(kernels, "_ROW_BLOCK", block)
            assert brute_force_count(q).count == expected, (lam, block)


SINGLE_LAMBDA_CASES = (
    ("J", {"ell": 1}),
    ("J", {"ell": 2}),
    ("SIGNED", {"k": 1, "signs": (-1,)}),
    ("SIGNED", {"k": 2, "signs": (1, -1)}),
    ("SIGNED", {"k": 3, "signs": (-1, 1, -1)}),
    ("T", {"r": 1}),
    ("T", {"r": 2}),
    # a short second window keeps the brute enumeration under its guard
    ("T", {"r": 3, "M": 4}),
    ("Q", {"r": 1}),
    ("Q", {"r": 2}),
    ("R", {"k": 0, "ell": 1, "r": 1}),
    ("R", {"k": 1, "ell": 2, "r": 2}),
    ("R", {"k": 2, "ell": 1, "r": 2}),
)


@pytest.mark.parametrize("p", (31, 37))
@pytest.mark.parametrize(("family", "params"), SINGLE_LAMBDA_CASES,
                         ids=[f + "".join(f"-{k}{v}" for k, v in params.items()
                                          if k != "signs")
                              for f, params in SINGLE_LAMBDA_CASES])
def test_single_lambda_equals_profile_and_brute(p, family, params):
    ctx = PrimeContext.create(p, with_dlog=True)
    # family R takes no lambda = 0, not even for a profile
    profile = count_profile(CountQuery(family=family, ctx=ctx, lam=1, **params))
    for lam in range(1 if family == "R" else 0, p):
        q = CountQuery(family=family, ctx=ctx, lam=lam, **params)
        conv = count_convolution(q).count
        assert conv == int(profile[lam]) == brute_force_count(q).count, lam


# each window and histogram built once per count call

@pytest.mark.parametrize(("family", "params"), (
    ("R", {"k": 1, "ell": 1, "r": 2}),
    ("Q", {"r": 2}),
    ("F", {}),
    ("T", {"r": 2}),
))
def test_one_window_per_count_call(monkeypatch, family, params):
    q = CountQuery(family=family, ctx=PrimeContext.create(101), lam=7, **params)
    windows = []
    factorial_window = kernels.factorial_window
    monkeypatch.setattr(kernels, "factorial_window",
                        lambda *a: windows.append(a) or factorial_window(*a))
    count_convolution(q)
    assert len(windows) == 1
    # the context keeps that window, and the brute R inverse table reads
    # the same full window
    brute_force_count(q)
    assert len(windows) == 1


# the golden p = 53 count parameters, lambda = 7, and their counts
GOLDEN_P53 = (
    ("J", {"ell": 2}, 137428),
    ("SIGNED", {"k": 3, "signs": (1, -1, 1)}, 2772),
    ("F", {"ell": 2}, 1008800292412),
    ("I", {"ell": 2}, 146444),
    ("T", {"r": 2}, 137150),
    ("Q", {"r": 2}, 137970),
    ("R", {"k": 1, "ell": 1, "r": 2}, 141078),
)


def test_brute_engine_reads_no_dlog(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the brute engine reached transform or dlog code")

    for name in ("cyclic_convolve_exact", "cyclic_convolution_power",
                 "cyclic_convolve_direct", "plan_cyclic_convolution",
                 "index_reversed"):
        monkeypatch.setattr(transform, name, forbidden)
    monkeypatch.setattr(kernels, "dlog_table", forbidden)
    monkeypatch.setattr(factorial, "exponent_histogram", forbidden)
    # reading any of these attributes fails, not only calling them
    for name in ("dlog", "power_table", "index"):
        monkeypatch.setattr(PrimeContext, name, property(forbidden))
    # the brute engine's own power table is still built, by its own scan;
    # one pair per unit of p sends every product at p = 53 over exponents
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 1)
    scans = []
    power_table = kernels.power_table
    monkeypatch.setattr(kernels, "power_table",
                        lambda *a: scans.append(a) or power_table(*a))
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    ctx = PrimeContext.create(53)
    for family, params, expected in GOLDEN_P53:
        q = CountQuery(family=family, ctx=ctx, lam=7, **params)
        assert brute_force_count(q).count == expected, family
    # I, Q and R go over exponents; F with ell = 2 keeps its residue pairs
    assert len(scans) == 3
    assert main(["verify", "T4.3", "--primes", "53..73", "--engine", "brute"]) == 0
    assert capsys.readouterr().out.count("T4.3,") == 6


POWER_TABLE = kernels.power_table


def swapped_table(p, g):
    table = POWER_TABLE(p, g)
    table[[3, 7]] = table[[7, 3]]
    return table


CORRUPTED_TABLES = {
    # two entries swapped: still a permutation, but not the powers of g
    "swapped": swapped_table,
    # the powers of 4, a square, which generates half the group
    "wrong generator": lambda p, g: POWER_TABLE(p, 4),
}


@pytest.mark.parametrize("corrupted", sorted(CORRUPTED_TABLES))
@pytest.mark.parametrize(("family", "params"), [
    ("I", {"ell": 2}),
    ("F", {"ell": 1}),
    ("Q", {"r": 1}),
    ("R", {"k": 1, "ell": 1, "r": 1}),
])
def test_a_corrupted_power_table_raises_before_a_tally_reads_it(
    monkeypatch, corrupted, family, params
):
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 1)
    built = []
    make = CORRUPTED_TABLES[corrupted]
    monkeypatch.setattr(kernels, "power_table", lambda *a: built.append(1) or make(*a))

    def before_the_table(fn):
        def checked(*args, **kwargs):
            assert not built, "a tally ran after the corrupted table was built"
            return fn(*args, **kwargs)
        return checked

    # every tally and every combine grid passes through one of these
    for name in ("_tally", "_pair_blocks"):
        monkeypatch.setattr(kernels, name, before_the_table(getattr(kernels, name)))
    q = CountQuery(family=family, ctx=PrimeContext.create(53), lam=7, **params)
    with pytest.raises(EngineMismatchError, match="power table"):
        brute_force_count(q)
    assert built == [1]


def test_a_context_with_a_wrong_generator_fails_the_permutation_check(monkeypatch):
    # the scan and the recurrence agree with g = 4, but its powers repeat
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 1)
    ctx = dataclasses.replace(PrimeContext.create(53), g=4)
    with pytest.raises(EngineMismatchError, match="power table of g=4"):
        brute_force_count(CountQuery(family="I", ctx=ctx, ell=2))


def test_the_power_table_check_reads_every_block(monkeypatch):
    # a swap past the first 2**16 entries: still a permutation, but the
    # recurrence breaks in the second block of the check
    p = 2**17 - 1
    ctx = PrimeContext.create(p)
    table = POWER_TABLE(p, ctx.g)
    monkeypatch.setattr(kernels, "power_table", lambda *a: table.copy())
    counting._power_table(ctx)
    table[[70000, 70001]] = table[[70001, 70000]]
    with pytest.raises(EngineMismatchError, match="power table"):
        counting._power_table(ctx)


def test_a_corrupted_power_table_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 1)
    monkeypatch.setattr(kernels, "power_table", swapped_table)
    argv = ["count", "I", "--ell", "2", "--p", "53", "--engine", "brute"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "power table" in err and "Traceback" not in err


# dropped_zero_mass values recorded before the R count reused its bracket
# histograms and took their totals in closed form
R_DROPPED = (
    (31, {"k": 0, "ell": 1, "r": 1}, 0),
    (31, {"k": 2, "ell": 2, "r": 1}, 2008680),
    (31, {"k": 2, "ell": 1, "r": 2, "K": 3, "M": 20, "L": 5, "N": 17, "S": 2, "T": 10},
     23800),
    # both brackets can vanish, and M != N
    (31, {"k": 2, "ell": 2, "r": 2, "K": 3, "M": 20, "L": 5, "N": 17, "S": 2, "T": 10},
     867800),
    (53, {"k": 1, "ell": 1, "r": 2}, 0),
    (53, {"k": 2, "ell": 2, "r": 1}, 8389680),
    (53, {"k": 2, "ell": 1, "r": 2, "K": 3, "M": 20, "L": 5, "N": 17, "S": 2, "T": 10},
     3400),
    (53, {"k": 2, "ell": 2, "r": 2, "K": 3, "M": 20, "L": 5, "N": 17, "S": 2, "T": 10},
     137400),
)


@pytest.mark.parametrize(("p", "params", "dropped"), R_DROPPED)
def test_r_dropped_zero_mass_unchanged(p, params, dropped):
    ctx = PrimeContext.create(p, with_dlog=True)
    res = count_convolution(CountQuery(family="R", ctx=ctx, lam=7, **params))
    assert res.details["dropped_zero_mass"] == dropped


def test_r_count_makes_at_most_three_convolutions(monkeypatch):
    ctx = PrimeContext.create(53, with_dlog=True)
    calls = []
    convolve = transform.cyclic_convolve_exact
    monkeypatch.setattr(transform, "cyclic_convolve_exact",
                        lambda *a, **kw: calls.append(1) or convolve(*a, **kw))
    q = CountQuery(family="R", ctx=ctx, k=2, ell=2, r=1, lam=7)
    assert count_convolution(q).count == 7147258
    assert len(calls) <= 3
