import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcong import counting, field, kernels
from factcong.analysis import (
    BOUND_IDS,
    bound_rhs,
    direct_discrepancy,
    discrepancy_estimate,
    distinct_stats,
    erdos_turan_bound,
    evaluate_cell,
    star_discrepancy,
    verify_sweep,
)
from factcong.errors import GuardExceededError, HypothesisError, ParameterError
from factcong.factorial import build_window
from factcong.field import PrimeContext


# right sides are closed-form; pin a few evaluations derived by hand


def test_bound_rhs_fixed_values():
    assert bound_rhs("T2.1", ell=1, N=10) == pytest.approx(10**1.5)
    assert bound_rhs("T2.1", ell=2, N=10) == pytest.approx(10 ** (3 + 1 / 3))
    # k=3 splits as k1=1, k2=2: exponent 2 + 1/4 + 1/6 = 2 + 5/12
    assert bound_rhs("C2.2", k=3, N=16) == pytest.approx(16 ** (2 + 5 / 12))
    assert bound_rhs("T2.3", ell=1, M=100, N=100) == pytest.approx(
        100**1.5 * 100**1.75
    )
    assert bound_rhs("T3.1", k=1, ell=1, M=100, N=100, p=101) == pytest.approx(
        100**0.75 * 100**0.75 * 101**0.5
    )
    assert bound_rhs("B-I", ell=1, N=10) == pytest.approx(10**1.5)
    assert bound_rhs("B-I", ell=2, N=10) == pytest.approx(10**3.25)
    assert bound_rhs("B-CharSum", N=100, p=101) == pytest.approx(
        100**0.75 * 101**0.125 * math.log(101) ** 0.25
    )


def test_bound_rhs_t4_family():
    got = bound_rhs("T4.1", k=2, ell=2, r=2, s=1, M=50, N=50, p=101)
    want = 50 ** (2 - 1 + 1 / 2) * 50 ** (2 - 1 / 4)
    assert got == pytest.approx(want)
    got = bound_rhs("T4.2", k=1, ell=1, r=1, M=50, N=50, p=101)
    want = 50 ** (1 - 1 / 4) * 50 ** (1 + 1 / 2 + 1 / 4 - 1 / 4) * 101 ** (1 / 2)
    assert got == pytest.approx(want)
    got = bound_rhs("T4.3", k=1, ell=1, r=1, M=50, N=50, T=50, p=101)
    want = (
        50 ** (0.5 + 0.25)
        * 50 ** (0.5 + 0.25)
        * 50**0.75
        * 101**0.125
        * math.log(101) ** 0.25
    )
    assert got == pytest.approx(want)
    # s = r makes the p and log factors drop out entirely
    got = bound_rhs("T4.4", ell=1, r=2, s=2, N=50, T=50, p=101)
    want = 50 ** (0.5 + 0.25) * 50 ** (2 - 0.5 + 0.125)
    assert got == pytest.approx(want)


def test_bound_rhs_hypothesis_errors():
    with pytest.raises(HypothesisError):
        bound_rhs("T2.3", ell=1, M=2, N=100)  # M below sqrt(N)
    with pytest.raises(HypothesisError):
        bound_rhs("T2.3", ell=1, M=10**6, N=10)  # M above N^2
    with pytest.raises(HypothesisError):
        bound_rhs("T4.1", k=1, ell=1, r=1, s=1, M=50, N=50, p=101)  # 2s > r
    with pytest.raises(HypothesisError):
        bound_rhs("T4.1", k=1, ell=1, r=4, s=0, M=50, N=50, p=101)  # s < 1
    with pytest.raises(HypothesisError):
        bound_rhs("T4.4", ell=1, r=1, s=2, N=50, T=50, p=101)  # s > r


def test_bound_rhs_rejects_unknown_and_missing():
    with pytest.raises(ParameterError):
        bound_rhs("T9.9", N=10)
    with pytest.raises(ParameterError):
        bound_rhs("T2.1", ell=1)  # N missing


@given(st.sampled_from(["T2.1", "C2.2", "B-I"]), st.integers(2, 4))
def test_bound_rhs_monotone_in_window(bound_id, mult):
    kw = {"ell": mult} if bound_id != "C2.2" else {"k": mult}
    small = bound_rhs(bound_id, N=100, **kw)
    large = bound_rhs(bound_id, N=200, **kw)
    assert 0 < small < large


# cell evaluation


def test_evaluate_cell_t21_p101(ctx101):
    report = evaluate_cell("T2.1", ctx101, {"ell": 1})
    assert report.lhs == 194.0
    assert report.rhs == pytest.approx(1000.0)
    assert report.ratio == pytest.approx(0.194)
    assert report.params["N"] == 100


def test_evaluate_cell_t31_sanity_floor(ctx101):
    # at k = ell = 1 the right side exceeds the trivial bound M*N,
    # so the ratio must land below 1 by a wide margin
    report = evaluate_cell("T3.1", ctx101, {"k": 1, "ell": 1}, engine="both")
    assert 0 < report.ratio < 1
    assert report.lhs == pytest.approx(436.6493002087084, rel=1e-9)


def test_evaluate_cell_t31_builds_one_window(monkeypatch):
    # (K, M) = (L, N) by default, so one window serves both ranges, and
    # the context keeps it for every later cell
    calls = []
    build = kernels.factorial_window

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(kernels, "factorial_window", counted)
    ctx = PrimeContext.create(101)
    evaluate_cell("T3.1", ctx)
    assert len(calls) == 1
    evaluate_cell("T3.1", ctx, {"K": 3})
    assert calls[1:] == [(101, 3, 97)]
    evaluate_cell("B-CharSum", ctx)
    assert len(calls) == 2


def test_evaluate_cell_charsum(ctx101):
    report = evaluate_cell("B-CharSum", ctx101, engine="both")
    assert 0 < report.lhs
    assert report.ratio < 1


def test_evaluate_cell_t41_deviation_exact(ctx11):
    report = evaluate_cell("T4.1", ctx11, {"k": 1, "ell": 1, "r": 2, "s": 1})
    from factcong.counting import CountQuery, count

    t2 = count(CountQuery(family="T", ctx=ctx11, r=2, lam=0)).count
    assert report.lhs == pytest.approx(abs(t2 - (10 * 10) ** 2 / 11), rel=1e-12)


def test_evaluate_cell_t43_and_t44(ctx11):
    rep3 = evaluate_cell("T4.3", ctx11)
    from factcong.counting import CountQuery, count

    r_count = count(
        CountQuery(family="R", ctx=ctx11, k=1, ell=1, r=1, lam=1)
    ).count
    assert rep3.lhs == pytest.approx(abs(r_count - 10**3 / 10), rel=1e-12)
    rep4 = evaluate_cell("T4.4", ctx11)
    assert rep4.params.get("k") in (None, 0)
    assert rep4.lhs >= 0


def test_evaluate_cell_queries_only_the_fields_its_family_reads(monkeypatch, ctx11):
    # T2.3 counts F, which reads ell, K and M but not k; C2.2 counts SIGNED
    # with its alternating default signs
    queries = []
    count = counting.count
    monkeypatch.setattr(counting, "count", lambda q, e: queries.append(q) or count(q, e))
    evaluate_cell("T2.3", ctx11, {"k": 3, "M": 4})
    evaluate_cell("C2.2", ctx11, {"k": 3})
    f, signed = queries
    assert (f.family, f.ell, f.k, f.M) == ("F", 1, 1, 4)
    assert (signed.family, signed.k, signed.signs) == ("SIGNED", 3, (1, -1, 1))


def test_t44_counts_only_k_zero(ctx101):
    # T4.4 counts R with k = 0; a cell asking for another k is skipped
    # rather than reported under a k it did not count
    default = evaluate_cell("T4.4", ctx101)
    assert "k" not in default.params
    assert evaluate_cell("T4.4", ctx101, {"k": 0}).lhs == default.lhs
    with pytest.raises(HypothesisError, match="k=0"):
        evaluate_cell("T4.4", ctx101, {"k": 3})
    result = verify_sweep(["T4.4"], [101, 103], params={"k": 3})
    assert result.reports == []
    assert [(b, p) for b, p, _ in result.skipped] == [("T4.4", 101), ("T4.4", 103)]


def test_verify_sweep_orders_and_skips():
    result = verify_sweep(["T2.3", "T2.1"], [5, 7, 11, 13], params={"M": 2})
    # M = 2 sits below sqrt(N) for the larger full windows; cells come
    # back bound by bound, in prime order within each bound
    assert [(b, p) for b, p, _ in result.skipped] == [
        ("T2.3", 7), ("T2.3", 11), ("T2.3", 13)
    ]
    assert [(r.bound_id, r.p) for r in result.reports] == [
        ("T2.3", 5), ("T2.1", 5), ("T2.1", 7), ("T2.1", 11), ("T2.1", 13)
    ]


def test_verify_sweep_threads_match():
    primes = [101, 103, 107, 109]
    seq = verify_sweep(["T2.1"], primes, params={"ell": 1}, threads=1)
    par = verify_sweep(["T2.1"], primes, params={"ell": 1}, threads=4)
    assert [(r.p, r.lhs, r.rhs) for r in seq.reports] == [
        (r.p, r.lhs, r.rhs) for r in par.reports
    ]
    assert [r.ratio for r in seq.reports] == [r.ratio for r in par.reports]


def _dlog_files(path):
    return sorted(f.name for f in path.glob("dlog_*"))


def test_verify_sweep_cache_dir_used(tmp_path):
    # no cell writes a window file, and no count reads the discrete-log
    # table, not even T4.1's products, while B-CharSum's spot checks
    # against direct character sums read one per prime
    verify_sweep(["T2.1"], [5, 7], params={"ell": 1}, cache_dir=tmp_path)
    verify_sweep(["T4.1"], [53, 59], engine="conv", cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    verify_sweep(["B-CharSum"], [53, 59], engine="both", cache_dir=tmp_path)
    assert _dlog_files(tmp_path) == ["dlog_p53.fcl1", "dlog_p59.fcl1"]
    assert list(tmp_path.glob("window_*")) == []


def test_verify_sweep_skips_cells_past_the_dlog_limit(monkeypatch):
    # the table guard is a guard like the brute one: the cell is skipped
    monkeypatch.setattr(field, "DLOG_MEMORY_LIMIT", 60)
    result = verify_sweep(["T4.1"], [53, 59, 61, 67], engine="conv")
    assert [rep.p for rep in result.reports] == [53, 59]
    assert [p for _, p, _ in result.skipped] == [61, 67]
    assert "exceeds the limit of 60 entries" in result.skipped[0][2]


# distribution stats


def test_distinct_stats_p7(ctx7):
    stats = distinct_stats(build_window(ctx7, 0, 6))
    assert stats.distinct_count == 4
    assert stats.distinct_fraction == pytest.approx(4 / 7)
    assert stats.missed_fraction == pytest.approx(3 / 7)
    assert stats.reference_distinct_fraction == pytest.approx(1 - 1 / math.e)


def test_distinct_stats_p101(ctx101):
    assert distinct_stats(build_window(ctx101, 0, 100)).distinct_count == 64


@pytest.mark.parametrize("p", [3, 7, 101, 1009])
def test_distinct_stats_count_matches_a_set(p):
    ctx = PrimeContext.create(p)
    for L, N in ((0, p - 1), (0, 1), (p // 2, (p - 1) // 2)):
        w = build_window(ctx, L, N)
        assert distinct_stats(w).distinct_count == len(set(w.values.tolist()))


# discrepancy


def test_star_discrepancy_uniform_grid():
    p = 10
    counts = np.ones(p, dtype=np.int64)
    assert star_discrepancy(counts, p) == pytest.approx(1 / p)


def test_star_discrepancy_single_atom_at_zero():
    counts = np.zeros(11, dtype=np.int64)
    counts[0] = 5
    assert star_discrepancy(counts, 11) == pytest.approx(1.0)


def test_star_discrepancy_single_atom_at_top():
    p = 11
    counts = np.zeros(p, dtype=np.int64)
    counts[p - 1] = 3
    assert star_discrepancy(counts, p) == pytest.approx(1 - 1 / p)


def test_star_discrepancy_rejects_empty():
    with pytest.raises(ParameterError):
        star_discrepancy(np.zeros(5), 5)


def test_direct_discrepancy_wilson_concentration():
    # the full product of nonzero residues is -1, so the window holding
    # only the top factorial squares to the single point 1/p
    p = 101
    ctx = PrimeContext.create(p)
    w_top = build_window(ctx, p - 2, 1)
    assert w_top.values.tolist() == [p - 1]
    d = direct_discrepancy(w_top, w_top)
    assert d >= 1 - 2 / p


def test_direct_discrepancy_is_the_same_over_residues_and_exponents(monkeypatch):
    # the pair tally takes the brute engine's checked power table, so at
    # p = 1009 it goes over exponents and meets by direct convolution; over
    # residues, and over exponents enumerated, it gives the same value
    ctx = PrimeContext.create(1009)
    wm, wn = build_window(ctx, 0, 1008), build_window(ctx, 5, 700)
    tables, direct = [], []
    power_table, convolve = counting._power_table, kernels._direct_cyclic
    monkeypatch.setattr(counting, "_power_table", lambda c: tables.append(c) or power_table(c))
    monkeypatch.setattr(kernels, "_direct_cyclic", lambda a, b: direct.append(1) or convolve(a, b))
    for w in (wm, wn):
        tables.clear()
        direct.clear()
        value = direct_discrepancy(wm, w)
        assert (tables, len(direct)) == ([ctx], 1)
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_DIRECT_PAIR_COST", 0)
            assert direct_discrepancy(wm, w) == value
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_EXPONENT_MAX_P", 0)
            assert direct_discrepancy(wm, w) == value
        assert len(tables) == 2 and len(direct) == 1


def test_direct_discrepancy_guard():
    ctx = PrimeContext.create(7919)
    w = build_window(ctx, 0, 7918)
    with pytest.raises(GuardExceededError):
        direct_discrepancy(w, w)


def test_erdos_turan_zero_spectrum():
    assert erdos_turan_bound(np.zeros(100), 10, 99) == pytest.approx(3 / 100)


def test_erdos_turan_needs_enough_terms():
    with pytest.raises(ParameterError):
        erdos_turan_bound(np.ones(5), 10, 50)
    with pytest.raises(ParameterError):
        erdos_turan_bound(np.ones(5), 10, 0)


def test_discrepancy_report_p101(ctx101):
    w = build_window(ctx101, 0, 100)
    report = discrepancy_estimate(w, w, H=100)
    assert report.estimate == pytest.approx(0.2380917596139654, rel=1e-10)
    assert report.direct == pytest.approx(0.016854455445544647, rel=1e-12)
    assert report.estimate >= report.direct


def test_discrepancy_estimate_validates_h(ctx101):
    w = build_window(ctx101, 0, 100)
    with pytest.raises(ParameterError):
        discrepancy_estimate(w, w, H=0)
    with pytest.raises(ParameterError):
        discrepancy_estimate(w, w, H=101)


def test_bound_ids_complete():
    assert len(BOUND_IDS) == 10
    assert len(set(BOUND_IDS)) == 10
