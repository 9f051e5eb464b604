"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time
import warnings as warnings_mod

import numpy as np
import pytest

from factcong.analysis import (
    discrepancy_estimate,
    distinct_stats,
    verify_sweep,
)
from factcong.counting import (
    CountQuery,
    brute_force_count,
    count,
    count_convolution,
    count_profile,
)
from factcong.expsums import batch_double_sums, batch_single_sums, character_sum
from factcong.factorial import build_window, sum_histogram
from factcong.field import PrimeContext, primes_between
from factcong.transform import cyclic_convolve_exact, dft_prime_length
from schoolbook import cyclic_convolve_direct


def report(name: str, ok: bool, started: float, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"ACCEPTANCE {name}: {verdict} in {time.perf_counter() - started:.1f}s{extra}")


def criterion_cells(p: int, L: int, N: int):
    """Parameter grid for the oracle-equivalence criterion."""
    lams_all = (0, 1, p - 1)
    for ell in (1, 2):
        for lam in lams_all:
            yield "J", {"ell": ell, "lam": lam}
    for k, signs in ((1, (1,)), (1, (-1,)), (2, (1, 1)), (2, (1, -1))):
        for lam in lams_all:
            yield "SIGNED", {"k": k, "signs": signs, "lam": lam}
    for ell in (1, 2):
        yield "F", {"ell": ell}
        yield "I", {"ell": ell}
    for r in (1, 2):
        for lam in lams_all:
            yield "T", {"r": r, "lam": lam}
            yield "Q", {"r": r, "lam": lam}
    for k in (1, 2):
        for ell in (1, 2):
            for r in (1, 2):
                for lam in (1, p - 1):
                    yield "R", {"k": k, "ell": ell, "r": r, "lam": lam}


def test_1_engines_agree_across_families_and_primes():
    started = time.perf_counter()
    primes = (5, 7, 11, 13, 17, 19, 23, 29)
    checked = 0
    for p in primes:
        ctx = PrimeContext.create(p, with_dlog=True)
        for L, N in ((0, p - 1), (1, p - 3)):
            for family, kw in criterion_cells(p, L, N):
                q = CountQuery(
                    family=family, ctx=ctx, L=L, N=N, K=L, M=N, S=L, T=N, **kw
                )
                conv = count_convolution(q).count
                brute = brute_force_count(q).count
                assert conv == brute, (p, L, N, family, kw, conv, brute)
                checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 300
    report("1 oracle equivalence", ok, started, f"{checked} cells")
    assert ok, f"took {elapsed:.0f}s, budget is 300s"


def test_2_fixed_small_case_values():
    started = time.perf_counter()
    ctx = PrimeContext.create(7, with_dlog=True)
    window = build_window(ctx, 0, 6)

    def both(**kw):
        return count(CountQuery(ctx=ctx, **kw), engine="both").count

    checks = {
        "J_1(0)": (both(family="J", ell=1, lam=0), 10),
        "F_1": (both(family="F", ell=1), 246),
        "T_1(1)": (both(family="T", r=1, lam=1), 8),
        "T_1(6)": (both(family="T", r=1, lam=6), 10),
        "distinct": (distinct_stats(window).distinct_count, 4),
    }
    quad = character_sum(window, 3).value
    ok = abs(quad) < 1e-9 and all(got == want for got, want in checks.values())
    report("2 fixed small-case values", ok, started)
    for name, (got, want) in checks.items():
        assert got == want, f"{name}: got {got}, want {want}"
    assert abs(quad) < 1e-9, f"quadratic character sum {quad}"


def test_3_mass_conservation_on_random_cells():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    primes = primes_between(5, 499)
    failures = []
    for i in range(50):
        p = int(rng.choice(primes))
        ctx = PrimeContext.create(p, with_dlog=True)
        L = int(rng.integers(0, max(1, p - 4)))
        N = int(rng.integers(1, p - 1 - L + 1))
        K = int(rng.integers(0, max(1, p - 4)))
        M = int(rng.integers(1, p - 1 - K + 1))
        ell = int(rng.integers(1, 4))
        r = int(rng.integers(1, 3))

        window = build_window(ctx, L, N)
        G = sum_histogram(window, ell)
        if sum(G.tolist()) != N**ell:
            failures.append((p, "G mass"))
        j_profile = count_profile(CountQuery(family="J", ctx=ctx, ell=ell, L=L, N=N))
        if sum(int(x) for x in j_profile) != N ** (2 * ell):
            failures.append((p, "J mass"))
        if sum(int(x) ** 2 for x in G) != int(j_profile[0]):
            failures.append((p, "G squares vs J(0)"))
        t_profile = count_profile(
            CountQuery(family="T", ctx=ctx, r=r, L=L, N=N, K=K, M=M)
        )
        if sum(int(x) for x in t_profile) != (M * N) ** r:
            failures.append((p, "T mass"))
        q_profile = count_profile(
            CountQuery(family="Q", ctx=ctx, r=r, L=L, N=N, K=K, M=M)
        )
        if sum(int(x) for x in q_profile) != M * N ** (r + 1):
            failures.append((p, "Q mass"))
    ok = not failures
    report("3 mass conservation", ok, started, "50 random cells")
    assert ok, failures


def test_4_spectral_bridges():
    started = time.perf_counter()
    worst = 0.0
    per_prime = {}
    for p in (101, 1009, 10007):
        t0 = time.perf_counter()
        ctx = PrimeContext.create(p, with_dlog=True)
        window = build_window(ctx, 0, p - 1)
        single = batch_single_sums(window)
        double = batch_double_sums(window, window)
        for ell in (1, 2):
            j_exact = count(
                CountQuery(family="J", ctx=ctx, ell=ell), engine="conv"
            ).count
            j_bridge = float(np.sum(np.abs(single.values) ** (2 * ell))) / p
            rel_j = abs(j_bridge - j_exact) / j_exact
            f_exact = count(
                CountQuery(family="F", ctx=ctx, ell=ell), engine="conv"
            ).count
            f_bridge = float(np.sum(np.abs(double.values) ** (2 * ell))) / p
            rel_f = abs(f_bridge - f_exact) / f_exact
            worst = max(worst, rel_j, rel_f)
            assert rel_j < 1e-6, (p, ell, "single", rel_j)
            assert rel_f < 1e-6, (p, ell, "double", rel_f)
        per_prime[p] = time.perf_counter() - t0
    ok = worst < 1e-6 and all(dt < 120 for dt in per_prime.values())
    report(
        "4 spectral bridges",
        ok,
        started,
        f"worst rel {worst:.2e}, slowest prime {max(per_prime.values()):.1f}s",
    )
    assert ok


def test_5_bound_shape_stability():
    started = time.perf_counter()
    # the least prime at or above each of 20 targets spaced geometrically
    # from 100 to 10000 (Bertrand: one lies below 2t)
    targets = [int(round(t)) for t in np.geomspace(100, 10000, 20)]
    primes = sorted({primes_between(t, 2 * t)[0] for t in targets})
    assert primes == [101, 127, 163, 211, 269, 337, 431, 547, 701, 887, 1129,
                      1439, 1847, 2339, 2999, 3793, 4861, 6163, 7853, 10007]
    sweeps = [
        ("T2.1 ell=1", "T2.1", {"ell": 1}),
        ("T2.1 ell=2", "T2.1", {"ell": 2}),
        ("T3.1 k=ell=2", "T3.1", {"k": 2, "ell": 2}),
    ]
    notes = []
    ok = True
    for label, bound_id, params in sweeps:
        result = verify_sweep([bound_id], primes, params)
        assert not result.skipped, result.skipped
        ratios = [r.ratio for r in result.reports]
        assert all(math.isfinite(x) for x in ratios)
        low = max(r.ratio for r in result.reports if r.p <= 1000)
        high = max(r.ratio for r in result.reports if r.p > 1000)
        stable = high <= 1.1 * low
        ok = ok and stable
        notes.append(f"{label} {high / low:.2f}x")
    report("5 bound-shape stability", ok, started, ", ".join(notes))
    assert ok, notes


def test_6_discrepancy_soundness():
    started = time.perf_counter()
    directs = []
    ok = True
    for p in (101, 211, 401):
        ctx = PrimeContext.create(p, with_dlog=True)
        window = build_window(ctx, 0, p - 1)
        rep = discrepancy_estimate(window, window, H=p - 1)
        ok = ok and rep.direct is not None and rep.estimate >= rep.direct
        directs.append(rep.direct)
    decreasing = all(a > b for a, b in zip(directs, directs[1:]))
    ok = ok and decreasing
    report(
        "6 discrepancy soundness",
        ok,
        started,
        "direct " + " > ".join(f"{d:.5f}" for d in directs),
    )
    assert ok, directs


def test_7_distinct_fraction_near_reference():
    started = time.perf_counter()
    reference = 1 - 1 / math.e
    deviations = []
    # the 20 primes nearest 10^4
    primes = primes_between(9900, 10100)
    assert primes == [9901, 9907, 9923, 9929, 9931, 9941, 9949, 9967, 9973, 10007,
                      10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093, 10099]
    for p in primes:
        ctx = PrimeContext.create(p)
        stats = distinct_stats(build_window(ctx, 0, p - 1))
        deviations.append(abs(stats.distinct_fraction - reference))
    mean_dev = float(np.mean(deviations))
    ok = mean_dev < 0.02
    report("7 distinct-fraction statistic", ok, started, f"mean dev {mean_dev:.4f}")
    if not ok:
        # conjecture-level claim: report loudly but do not fail the build
        warnings_mod.warn(
            f"mean distinct-fraction deviation {mean_dev:.4f} exceeds 0.02",
            stacklevel=1,
        )


def test_8_transform_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    for length in (16, 97, 100, 512):
        for _ in range(100):
            a = rng.integers(0, 2**16, size=length).astype(np.int64)
            b = rng.integers(0, 2**16, size=length).astype(np.int64)
            got = cyclic_convolve_exact(a, b)
            want = cyclic_convolve_direct(a, b)
            assert [int(x) for x in got] == [int(x) for x in want], length
    p = 10007
    x = rng.standard_normal(p)
    X, _ = dft_prime_length(x)
    rel = max(float(np.max(np.abs(X - p * np.fft.ifft(x))) / np.max(np.abs(X))),
              float(np.max(np.abs(np.fft.fft(X) / p - x)) / np.max(np.abs(x))))
    ok = rel < 1e-9
    report("8 transform correctness", ok, started, f"n ifft and round-trip rel {rel:.2e}")
    assert ok
