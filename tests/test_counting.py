import dataclasses
import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcong import counting, factorial, kernels, transform
from factcong.counting import (
    AUTO_BRUTE_THRESHOLD,
    BRUTE_FORCE_GUARD,
    ENGINES,
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
# kernels._DIRECT_PAIR_COST values: with 0 every tally and family-R combine
# enumerates its pairs; with this one, each meets by direct convolution
# wherever it may.
ENUMERATE, DIRECT = 0, 10**30


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
    assert res.details == {}


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
    assert sum(int(x) ** 2 for x in G) == j0


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
    expect = sum(int(c) ** 2 for c in hist)
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


def test_a_resolved_query_resolves_to_itself(ctx7):
    r = CountQuery(family="SIGNED", ctx=ctx7, k=2, signs=(1, -1), lam=-1).resolved()
    assert (r.lam, r.N, r.M, r.T) == (6, 6, 6, 6)
    assert r.resolved() is r
    # a fresh query with every field set is still validated
    with pytest.raises(ParameterError):
        dataclasses.replace(r, signs=(1,)).resolved()
    with pytest.raises(ParameterError):
        dataclasses.replace(r, family="R", lam=0).resolved()
    # a lambda to normalize is a new query
    assert dataclasses.replace(r, lam=7).resolved().lam == 0
    assert dataclasses.replace(r, lam=np.int64(3)).resolved().lam == 3


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
    assert counting._exact_dot(a, a) == python_dot(a, a)
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
    # a limit of 0 sends every final dot to object arrays; chunks of 30
    # entries split the enumerated meets into blocks of two rows
    for limit in (INT64_MAX, 0):
        monkeypatch.setattr(counting, "_INT64_MAX", limit)
        for cost, chunk in ((ENUMERATE, kernels._NUMPY_CHUNK), (ENUMERATE, 30),
                            (DIRECT, kernels._NUMPY_CHUNK)):
            monkeypatch.setattr(kernels, "_DIRECT_PAIR_COST", cost)
            monkeypatch.setattr(kernels, "_NUMPY_CHUNK", chunk)
            assert brute_force_count(q).count == expected, (limit, cost, chunk)


def r_combine(A, B, c, p, powers=None):
    """R's combine as the brute engine takes it: the product meet of A and
    B without bin 0, dotted with c."""
    A, B = A.copy(), B.copy()
    A[0] = B[0] = 0
    return counting._exact_dot(kernels.meet(A, B, np.multiply, p, powers), c)


def pair_measure(a, b, op):
    """The cost of enumerating the meet of a and b, in value pairs: the
    pairs of values, or twice the pairs of nonzero bins, whichever is less,
    halved when b equals a or (for sums) a at negated residues."""
    n = a.size
    halved = np.array_equal(a, b) or (
        op is np.add and np.array_equal(b, a[(-np.arange(n)) % n]))
    value_pairs = int(a.sum()) * int(b.sum())
    bin_pairs = 2 * int(np.count_nonzero(a)) * int(np.count_nonzero(b))
    return min(value_pairs, bin_pairs) // (2 if halved else 1)


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
    # weighted bin pairs over residues and over exponents, and met by direct
    # convolution, all in Python ints
    for powers, cost in ((None, ENUMERATE), (power_table_of(p), ENUMERATE),
                         (power_table_of(p), DIRECT)):
        monkeypatch.setattr(kernels, "_DIRECT_PAIR_COST", cost)
        assert r_combine(A, B, C[lam * inv % p], p, powers) == expected


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
    # rows and columns; with a power table the meet runs over exponents,
    # at any size, enumerated or met directly
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 0)
    monkeypatch.setattr(kernels, "_DIRECT_PAIR_COST", ENUMERATE)
    rng = np.random.default_rng(p)
    A = rng.integers(0, 5, size=p, dtype=np.int64)
    A[rng.random(p) < 0.4] = 0
    B = A.copy() if symmetric else rng.integers(0, 5, size=p, dtype=np.int64)
    c = rng.integers(0, 50, size=p, dtype=np.int64)
    expected = r_combine_reference(A, B, c, p)
    for powers in (None, power_table_of(p)):
        for block in (kernels._ROW_BLOCK, 1, 2, 3):
            for chunk in (kernels._NUMPY_CHUNK, 1, 7):
                monkeypatch.setattr(kernels, "_ROW_BLOCK", block)
                monkeypatch.setattr(kernels, "_NUMPY_CHUNK", chunk)
                got = r_combine(A, B, c, p, powers)
                assert got == expected, (powers, block, chunk)
        with monkeypatch.context() as mp:
            mp.setattr(counting, "_INT64_MAX", 0)
            assert r_combine(A, B, c, p, powers) == expected
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_DIRECT_PAIR_COST", DIRECT)
            assert r_combine(A, B, c, p, powers) == expected


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.booleans(), st.data())
def test_r_combine_over_exponents_matches_itertools(p, symmetric, data):
    # sparse tallies with repeated counts; below the pair threshold the
    # meet stays over residues and builds no table
    counts = st.lists(st.sampled_from([0, 0, 1, 3]), min_size=p, max_size=p)
    A = np.array(data.draw(counts, label="A"), dtype=np.int64)
    B = A.copy() if symmetric else np.array(data.draw(counts, label="B"), dtype=np.int64)
    c = np.array(data.draw(st.lists(st.integers(0, 9), min_size=p, max_size=p),
                           label="c"), dtype=np.int64)
    table = kernels.power_table(p, find_primitive_root(p))
    expected = r_combine_reference(A, B, c, p)
    A0, B0 = A.copy(), B.copy()
    A0[0] = B0[0] = 0
    pairs = pair_measure(A0, B0, np.multiply)
    # over exponents the nonzero bins meet as sums mod p - 1
    exponent_pairs = pair_measure(A0[table], B0[table], np.add)
    # the threshold as it is, and 0 so that every size takes the table;
    # over exponents, enumerated, direct or by the rule between them
    for per_p, cost in itertools.product(
        (0, kernels._EXPONENT_PAIRS_PER_P),
        (ENUMERATE, DIRECT, kernels._DIRECT_PAIR_COST),
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", per_p)
            mp.setattr(kernels, "_DIRECT_PAIR_COST", cost)
            calls, direct = [], []
            convolve = kernels._direct_cyclic
            mp.setattr(kernels, "_direct_cyclic", lambda a, b: direct.append(1) or convolve(a, b))
            got = r_combine(A, B, c, p, lambda: calls.append(1) or table)
            assert got == expected, (per_p, cost)
            # a side with no nonzero bin has no pairs to meet
            nonempty = A0.any() and B0.any()
            assert bool(calls) == (nonempty and kernels._use_exponents(pairs, p))
            assert bool(direct) == (bool(calls) and kernels._use_direct(p - 1, exponent_pairs))


def test_r_combine_takes_the_table_from_the_pair_threshold(monkeypatch):
    # at p = 13 and 2 pairs per unit of p the threshold is 26 value pairs:
    # with counts of 1 the pairs of values, so 5 x 5 stays over residues and
    # 3 x 9 takes the table; with counts of 2 and 3 twice the pairs of
    # nonzero bins, so 2 x 3 x 4 stays and 2 x 3 x 5 takes the table
    p = 13
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 2)
    table = kernels.power_table(p, find_primitive_root(p))
    c = np.arange(p, dtype=np.int64)
    for weights, sizes in (((1, 1), ((5, 5), (3, 9))), ((2, 3), ((3, 4), (3, 5)))):
        for nu, nv in sizes:
            # B starts one bin after A, so the two are never equal
            A, B = np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
            A[1 : nu + 1], B[2 : nv + 2] = weights
            calls = []
            got = r_combine(A, B, c, p, lambda: calls.append(1) or table)
            assert got == r_combine_reference(A, B, c, p)
            pairs = min(nu * nv * weights[0] * weights[1], 2 * nu * nv)
            assert pairs == pair_measure(A, B, np.multiply)
            assert bool(calls) == (pairs >= 2 * p), (weights, nu, nv)


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
        for cost, block in ((ENUMERATE, kernels._ROW_BLOCK), (ENUMERATE, 1),
                            (ENUMERATE, 5), (DIRECT, kernels._ROW_BLOCK)):
            monkeypatch.setattr(kernels, "_DIRECT_PAIR_COST", cost)
            monkeypatch.setattr(kernels, "_ROW_BLOCK", block)
            assert brute_force_count(q).count == expected, (lam, cost, block)


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


@pytest.mark.parametrize(("family", "params", "windows"), (
    # every role on the default window: one bincount for all of them
    ("R", {"k": 1, "ell": 1, "r": 2}, 1),
    ("I", {"ell": 2}, 1),
    # "m" and "n" differ, "t" is "n"
    ("R", {"k": 1, "ell": 1, "r": 1, "K": 3, "M": 40, "S": 0, "T": 100}, 2),
))
def test_each_window_is_counted_once_per_count_call(monkeypatch, family, params, windows):
    # a window's exponent histogram reads its kept residue histogram
    # through the power table instead of counting the window again
    q = CountQuery(family=family, ctx=PrimeContext.create(101), lam=7, **params)
    expected = count_convolution(q).count
    counted = []
    for name in ("value_histogram", "exponent_histogram"):
        fn = getattr(factorial, name)
        monkeypatch.setattr(factorial, name, functools.partial(
            lambda fn, name, w: counted.append(name) or fn(w), fn, name))
    assert count_convolution(q).count == expected
    assert counted == ["value_histogram"] * windows


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
                 "plan_cyclic_convolution", "index_reversed"):
        monkeypatch.setattr(transform, name, forbidden)
    # the direct path sums with np.convolve, which calls no FFT
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, forbidden)
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
    direct = []
    convolve = kernels._direct_cyclic
    monkeypatch.setattr(kernels, "_direct_cyclic",
                        lambda a, b: direct.append(1) or convolve(a, b))
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    ctx = PrimeContext.create(53)
    for family, params, expected in GOLDEN_P53:
        direct.clear()
        q = CountQuery(family=family, ctx=ctx, lam=7, **params)
        assert brute_force_count(q).count == expected, family
        # every one of them meets some tallies by direct convolution
        assert direct, family
    # I, F, T, Q and R go over exponents (F and T through their pair tallies)
    assert len(scans) == 5
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

    # every tally and R's combine meet, directly or by enumeration
    for name in ("meet", "_direct_cyclic", "_enumerate"):
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
    q = CountQuery(family="R", ctx=ctx, lam=7, **params)
    for engine in ENGINES:
        assert count(q, engine=engine).details == {"dropped_zero_mass": dropped}


def test_engine_both_checks_r_dropped_mass(monkeypatch):
    # equal counts are not enough: the zero-bracket mass must agree too
    q = CountQuery(family="R", ctx=PrimeContext.create(53), k=2, lam=3)
    brute = counting.brute_force_count
    monkeypatch.setattr(counting, "brute_force_count", lambda q: dataclasses.replace(
        brute(q), details={"dropped_zero_mass": 0}))
    with pytest.raises(EngineMismatchError, match="81120"):
        count(q, engine="both")


def test_r_count_makes_at_most_three_convolutions(monkeypatch):
    ctx = PrimeContext.create(53, with_dlog=True)
    calls = []
    convolve = transform.cyclic_convolve_exact
    monkeypatch.setattr(transform, "cyclic_convolve_exact",
                        lambda *a, **kw: calls.append(1) or convolve(*a, **kw))
    q = CountQuery(family="R", ctx=ctx, k=2, ell=2, r=1, lam=7)
    assert count_convolution(q).count == 7147258
    assert len(calls) <= 3


# transform budget: each distinct exact convolution runs once per count,
# and each distinct input is normed once per convolution

@pytest.fixture
def transform_calls(monkeypatch):
    """Calls of np.fft.rfft/irfft and of three transform functions."""
    calls = Counter()
    for module, name in ((np.fft, "rfft"), (np.fft, "irfft"),
                         (transform, "cyclic_convolve_exact"),
                         (transform, "_norm_ceiling"),
                         (transform, "_cyclic_convolve_bigint")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(("family", "params"), [
    # S_2 = h * h, a self-product, then one dot with rev(h); before, the
    # count convolved h * rev(h): two rffts
    ("SIGNED", {"k": 3, "signs": (1, -1, 1)}),
    # S_2 serves both sides
    ("SIGNED", {"k": 4, "signs": (1, -1, -1, 1)}),
    # a lone side of three signs splits into the halves h * h and h, and
    # ends in a dot
    ("SIGNED", {"k": 3, "signs": (1, 1, 1)}),
    ("J", {"ell": 2}),
    # A * B and the first step of u^2 are one convolution of one object
    ("R", {"k": 1, "ell": 1, "r": 2}),
])
def test_count_transforms_each_distinct_vector_once(transform_calls, family, params):
    ctx = PrimeContext.create(1009, with_dlog=True)
    for lam in (7, 1008):
        transform_calls.clear()
        count_convolution(CountQuery(family=family, ctx=ctx, lam=lam, **params))
        # and no float product falls back to big integers
        assert dict(transform_calls) == {
            "cyclic_convolve_exact": 1, "rfft": 1, "irfft": 1, "_norm_ceiling": 1,
        }, lam


@functools.cache
def signed_tally(p, L, N, signs):
    """The brute engine's tally of one sign multiset (order is irrelevant)."""
    values = PrimeContext.create(p).window(L, N).values
    return kernels.sum_tally(values, signs, p)


SIGN_TUPLES = [s for k in range(1, 5) for s in itertools.product((1, -1), repeat=k)]


@pytest.mark.parametrize("window", [(0, 100), (3, 40)], ids=["full", "short"])
@pytest.mark.parametrize("signs", SIGN_TUPLES,
                         ids=lambda signs: "".join("pm"[s < 0] for s in signs))
def test_signed_every_sign_tuple_matches_brute(ctx101, window, signs):
    L, N = window
    want = signed_tally(101, L, N, tuple(sorted(signs)))
    q = CountQuery(family="SIGNED", ctx=ctx101, k=len(signs), signs=signs, L=L, N=N)
    assert [int(x) for x in count_profile(q)] == [int(x) for x in want]
    for lam in range(101):
        got = count_convolution(dataclasses.replace(q, lam=lam)).count
        assert got == want[lam], lam
    q = dataclasses.replace(q, lam=5)
    assert brute_force_count(q).count == want[5]


R_WINDOWS = {
    # every role on one window: the three k = ell = 1 roles share an object
    "shared": {},
    "distinct": {"K": 3, "M": 20, "L": 5, "N": 17, "S": 2, "T": 10},
    # the bracket window (K, M) is also the plain window (S, T)
    "m-is-t": {"K": 3, "M": 20, "S": 3, "T": 20, "L": 5, "N": 17},
}


@pytest.mark.parametrize("windows", sorted(R_WINDOWS))
@pytest.mark.parametrize("k", (0, 1, 2))
@pytest.mark.parametrize("ell", (1, 2))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_r_matches_brute_with_shared_and_distinct_windows(windows, k, ell, r):
    p = 31
    ctx = PrimeContext.create(p, with_dlog=True)
    q = CountQuery(family="R", ctx=ctx, k=k, ell=ell, r=r, lam=1, **R_WINDOWS[windows])
    profile = count_profile(q)
    dropped = set()
    for lam in range(1, p):
        res = count_convolution(dataclasses.replace(q, lam=lam))
        assert res.count == profile[lam], lam
        dropped.add(res.details["dropped_zero_mass"])
    assert len(dropped) == 1
    (zero,) = dropped
    for lam in (1, 7, p - 1):
        res = brute_force_count(dataclasses.replace(q, lam=lam))
        assert res.count == profile[lam]
        assert res.details == {"dropped_zero_mass": zero}
    # every tuple lands on a nonzero lambda or is dropped at lambda = 0
    q = q.resolved()
    assert int(profile.sum()) + zero == q.M**k * q.N**ell * q.T**r


# the brute engine's meet in the middle for SIGNED and J

SIGNS_UP_TO_5 = [s for k in range(1, 6) for s in itertools.product((1, -1), repeat=k)]


@pytest.mark.parametrize("window", [(0, 30), (3, 12)], ids=["full", "short"])
@pytest.mark.parametrize("signs", SIGNS_UP_TO_5,
                         ids=lambda signs: "".join("pm"[s < 0] for s in signs))
def test_brute_signed_equals_the_full_tally(ctx31, window, signs):
    L, N = window
    want = signed_tally(31, L, N, tuple(sorted(signs)))
    q = CountQuery(family="SIGNED", ctx=ctx31, k=len(signs), signs=signs, L=L, N=N)
    assert [int(x) for x in count_profile(q)] == [int(x) for x in want]
    got = [brute_force_count(dataclasses.replace(q, lam=lam)).count for lam in range(31)]
    assert got == [int(x) for x in want]


@pytest.mark.parametrize("window", [(0, 30), (3, 12)], ids=["full", "short"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_brute_j_is_unchanged(ctx31, window, ell):
    L, N = window
    tally = kernels.sum_tally(ctx31.window(L, N).values, (1,) * ell, 31)
    q = CountQuery(family="J", ctx=ctx31, ell=ell, L=L, N=N)
    profile = count_profile(q)
    for lam in range(31):
        # the count before the meet in the middle: one dot of the tally
        # with itself shifted by lambda
        want = int(np.dot(tally, np.roll(tally, lam)))
        assert brute_force_count(dataclasses.replace(q, lam=lam)).count == want, lam
        assert profile[lam] == want, lam


def test_brute_j_and_signed_call_no_transform_function(monkeypatch, ctx31):
    def forbidden(*args, **kwargs):
        raise AssertionError("the brute engine called transform code")

    patched = [name for name, fn in vars(transform).items()
               if callable(fn) and getattr(fn, "__module__", None) == transform.__name__]
    assert "index_reversed" in patched and "cyclic_convolve_exact" in patched
    for name in patched:
        monkeypatch.setattr(transform, name, forbidden)
    for signs in [(1,), (1, -1), (-1, 1, -1), (1, 1, -1, -1), (1, -1, 1, -1, 1)]:
        want = signed_tally(31, 0, 30, tuple(sorted(signs)))
        q = CountQuery(family="SIGNED", ctx=ctx31, k=len(signs), signs=signs, lam=4)
        assert brute_force_count(q).count == want[4], signs
    for ell in (1, 2):
        brute_force_count(CountQuery(family="J", ctx=ctx31, ell=ell, lam=4))


def test_brute_work_of_signed_is_two_halves_and_a_dot():
    ctx = PrimeContext.create(1009)
    N = 1008
    for k in range(1, 7):
        q = CountQuery(family="SIGNED", ctx=ctx, k=k, signs=(1, -1) * (k // 2) + (1,) * (k % 2))
        assert estimate_brute_work(q) == N ** ((k + 1) // 2) + N ** (k // 2) + 1009, k
    for ell in (1, 2, 3):
        assert estimate_brute_work(CountQuery(family="J", ctx=ctx, ell=ell)) == N**ell + 1009
    # k = 3 at p = 1009 on the full window now counts by brute force under
    # auto, and k = 6 is still refused
    q = CountQuery(family="SIGNED", ctx=ctx, k=3, signs=(1, -1, 1), lam=5)
    assert estimate_brute_work(q) < AUTO_BRUTE_THRESHOLD
    res = count(q)
    assert (res.engine, res.count) == ("brute-force", 1014380)
    assert count_convolution(q).count == 1014380
    q6 = CountQuery(family="SIGNED", ctx=ctx, k=6, signs=(1, -1) * 3)
    assert estimate_brute_work(q6) > BRUTE_FORCE_GUARD
    with pytest.raises(GuardExceededError):
        brute_force_count(q6)


@pytest.mark.parametrize(("family", "params", "tallies"), [
    ("J", {"ell": 2}, 1),
    # k = 1: the second half is the empty sum, tallied as one tuple at 0
    ("SIGNED", {"k": 1, "signs": (-1,)}, 2),
    ("SIGNED", {"k": 2, "signs": (1, -1)}, 1),
    # the second half is the first negated in another order
    ("SIGNED", {"k": 4, "signs": (1, -1, 1, -1)}, 1),
    ("SIGNED", {"k": 4, "signs": (1, 1, -1, -1)}, 1),
    # the second half holds the first half's signs: one tally serves both
    ("SIGNED", {"k": 2, "signs": (1, 1)}, 1),
    ("SIGNED", {"k": 3, "signs": (1, -1, 1)}, 2),
])
def test_brute_tallies_a_negated_half_once(monkeypatch, ctx31, family, params, tallies):
    calls = []
    sum_tally = kernels.sum_tally
    monkeypatch.setattr(kernels, "sum_tally", lambda *a: calls.append(a[1]) or sum_tally(*a))
    brute_force_count(CountQuery(family=family, ctx=ctx31, lam=3, **params))
    assert len(calls) == tallies, calls


@pytest.mark.parametrize("window", [
    (11, {}),
    (31, {"K": 3, "M": 8, "L": 5, "N": 6}),
], ids=["full", "unequal"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_brute_t_meets_in_the_middle(window, r):
    p, windows = window
    ctx = PrimeContext.create(p)
    q = CountQuery(family="T", ctx=ctx, r=r, **windows).resolved()
    # the count before the meet in the middle: every pair product, listed
    # one by one, and the r-fold sum tallied in full
    pairs = [x * y % p for x in ctx.window(q.K, q.M).values.tolist()
             for y in ctx.window(q.L, q.N).values.tolist()]
    want = kernels.sum_tally(pairs, (1,) * r, p)
    profile = count_profile(q)
    for lam in range(p):
        got = brute_force_count(dataclasses.replace(q, lam=lam)).count
        assert got == want[lam] == profile[lam], lam


@pytest.mark.parametrize(("r", "meets"), [
    (1, 1),  # the pair tally and the empty second half
    (2, 1),  # one pair tally for both halves
    (3, 2),  # the pair tally met with itself, then the pair tally alone
    (4, 2),  # the pair tally met with itself, for both halves
    (5, 4),  # three pair products (two more meets), then two (one more)
])
def test_brute_t_tallies_each_half(monkeypatch, ctx31, r, meets):
    # every half folds the one pair tally, which is built once per count by
    # one meet of its own
    calls = Counter()
    for name in ("pair_product_tally", "sum_tally", "meet"):
        fn = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, functools.partial(
            lambda fn, name, *a: calls.update([name]) or fn(*a), fn, name))
    q = CountQuery(family="T", ctx=ctx31, r=r, K=2, M=6, L=3, N=5, lam=3)
    brute_force_count(q)
    assert calls == Counter(pair_product_tally=1, meet=meets)


def cyclic_python(a, b):
    """The cyclic convolution of a and b in Python ints."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] += int(x) * int(y)
    return out


@pytest.mark.parametrize("top", [1, 2**40])
def test_power_squares_and_matches_the_chain(monkeypatch, ctx31, top):
    # vec convolved with itself k times, k = 1..17, equals the chain one
    # step at a time, in floor(log2 k) + popcount(k) - 1 convolutions.
    # Counts of 1 stay on the float transform, within MAX_LIMBS limbs;
    # counts near 2**40 pass MAX_LIMBS and take big integers.
    vec = np.random.default_rng(top).integers(0, top + 1, size=8).astype(np.int64)
    vec[0] = top
    engines = set()
    plan = transform.plan_cyclic_convolution
    monkeypatch.setattr(transform, "plan_cyclic_convolution",
                        lambda *a: engines.add(plan(*a).engine) or plan(*a))
    chain = vec.tolist()
    for k in range(1, 18):
        inp = counting._Inputs(CountQuery(family="J", ctx=ctx31).resolved())
        calls = []
        convolve = inp.convolve
        inp.convolve = lambda a, b: calls.append(1) or convolve(a, b)
        assert [int(x) for x in inp.power(vec, k)] == chain, k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2, k
        chain = cyclic_python(chain, vec)
    assert engines == ({"fft"} if top == 1 else {"fft", "bigint"})


def halves_cost(k):
    """Convolutions before the dot of the halves of a k-fold power: those of
    power(vec, k // 2), floor(log2) + popcount - 1, and one more for odd k."""
    m = k // 2
    return 0 if k == 1 else m.bit_length() + bin(m).count("1") - 2 + k % 2


def test_t_meets_its_power_in_the_middle(transform_calls):
    # the pair histogram is one convolution, then the halves of its r-fold
    # power, then a dot.  The brute engine's plan is the reference, past
    # its guard.
    ctx = PrimeContext.create(53)
    for r in range(1, 34):
        q = CountQuery(family="T", ctx=ctx, r=r, lam=7).resolved()
        transform_calls.clear()
        got = count_convolution(q).count
        assert transform_calls["cyclic_convolve_exact"] <= 1 + halves_cost(r), r
        assert got == counting._FAMILIES["T"].brute(q, counting._Inputs(q)), r


@pytest.mark.parametrize("sign", (1, -1))
def test_one_sided_signed_meets_its_power_in_the_middle(transform_calls, sign):
    ctx = PrimeContext.create(53)
    for k in range(1, 13):
        q = CountQuery(family="SIGNED", ctx=ctx, k=k, signs=(sign,) * k, lam=7)
        q = q.resolved()
        transform_calls.clear()
        got = count_convolution(q).count
        assert transform_calls["cyclic_convolve_exact"] <= halves_cost(k), k
        assert got == counting._FAMILIES["SIGNED"].brute(q, counting._Inputs(q)), k


@pytest.mark.parametrize(("family", "p", "params"), (
    ("T", 11, {"r": 8}),
    ("T", 53, {"r": 9, "N": 7, "M": 7}),
    ("F", 13, {"ell": 4}),
    ("I", 31, {"ell": 6}),
    ("SIGNED", 53, {"k": 6, "signs": (-1,) * 6}),
))
def test_deep_powers_agree_under_both_engines(family, p, params):
    # each shape within the brute guard; "both" raises if the engines differ
    q = CountQuery(family=family, ctx=PrimeContext.create(p), lam=3, **params)
    assert count(q, engine="both").count > 0


def test_brute_side_of_the_headline_shape():
    # Q with r = 49 at p = 1009, past the brute guard, by the family row's
    # brute plan: the 49-fold sum tally folds by squaring, in Python ints
    # past 2**63, and meets the pair tally at lambda
    q = CountQuery(family="Q", ctx=PrimeContext.create(1009), r=49, lam=5).resolved()
    assert estimate_brute_work(q) > BRUTE_FORCE_GUARD
    got = counting._FAMILIES["Q"].brute(q, counting._Inputs(q))
    assert got == count_convolution(q).count


def test_brute_t_with_r_2_at_p_1009():
    # the full windows: one tally of about 1e6 pairs serves both halves,
    # where the full r-fold tally would take about 1e12 steps; the estimate
    # still counts two halves, and auto counts by brute force
    q = CountQuery(family="T", ctx=PrimeContext.create(1009), r=2, lam=5)
    assert estimate_brute_work(q) == 3 * 1008**2 + 1009
    res = count(q)
    assert (res.engine, res.count) == ("brute-force", 1023471571)
    assert count_convolution(q).count == 1023471571


# estimate_brute_work before the family table, recorded from the if-chain
# it replaced: (p, windows, family, params, estimate)
SHORT = {"L": 5, "N": 17, "K": 3, "M": 20, "S": 2, "T": 10}
RECORDED_WORK = [
    (31, {}, "J", {"ell": 3}, 27031),
    (31, {}, "SIGNED", {"k": 4, "signs": (1, -1, 1, 1)}, 1831),
    (31, {}, "F", {"ell": 2}, 810931),
    (31, {}, "I", {"ell": 3}, 27031),
    (31, {}, "Q", {"r": 3}, 27931),
    (31, {}, "R", {"k": 0, "ell": 1, "r": 1, "lam": 1}, 1022),
    (31, SHORT, "J", {"ell": 1}, 48),
    (31, SHORT, "SIGNED", {"k": 1, "signs": (1,)}, 49),
    (31, SHORT, "F", {"ell": 1}, 711),
    (31, SHORT, "I", {"ell": 3}, 4944),
    (31, SHORT, "Q", {"r": 1}, 388),
    (31, SHORT, "R", {"k": 2, "ell": 1, "r": 3, "lam": 1}, 2378),
    (1009, {}, "J", {"ell": 3}, 1024193521),
    (1009, {}, "SIGNED", {"k": 4, "signs": (1, -1, 1, 1)}, 2033137),
    (1009, {}, "F", {"ell": 2}, 1032387069169),
    (1009, {}, "I", {"ell": 1}, 2017),
    (1009, {}, "Q", {"r": 3}, 1025209585),
    (1009, {}, "R", {"k": 2, "ell": 1, "r": 3, "lam": 1}, 1026227665),
    (1009, SHORT, "R", {"k": 0, "ell": 1, "r": 1, "lam": 1}, 1018109),
]


@pytest.mark.parametrize(("p", "windows", "family", "params", "work"), RECORDED_WORK)
def test_brute_work_is_the_recorded_estimate(p, windows, family, params, work):
    q = CountQuery(family=family, ctx=PrimeContext.create(p), **params, **windows)
    assert estimate_brute_work(q) == work


def test_brute_work_of_t():
    # r = 1 reads one pair tally; r >= 2 meets in the middle over the M N
    # pair products: M N + (M N)**ceil(r/2) + (M N)**floor(r/2) + p
    ctx = PrimeContext.create(31)
    for r, work in [(1, 340), (2, 340 * 3 + 31), (3, 340 + 340**2 + 340 + 31),
                    (4, 340 + 2 * 340**2 + 31)]:
        q = CountQuery(family="T", ctx=ctx, r=r, K=3, M=20, L=5, N=17)
        assert estimate_brute_work(q) == work, r
