"""Numerical monitoring of the known bounds and uniformity statistics.

A small catalog of upper bounds is tracked by opaque identifiers.  For
each the left side is computed exactly (counts, or spectrum maxima with
certified error bounds) and compared against the bound's right side with
implied constant 1; sweeps tabulate the ratio across primes so growth in
the ratio would flag a contradiction between code and bound shape.

Catalog (full windows unless overridden; all bounds up to a constant):

  T2.1       J_l(lam)            <= N**(2l - 1 + 1/(l+1))
  C2.2       signed count        <= N**(k - 1 + 1/(2(k1+1)) + 1/(2(k2+1))),
             k1 = floor(k/2), k2 = floor((k+1)/2)
  T2.3       F_l                 <= M**(2l - 1 + 1/(2l)) * N**(2l - 1/(2(l+1)))
             for N*N >= M >= sqrt(N)
  T3.1       max over a != 0 of the double-sum magnitude
             <= M**(1 - 1/(2l(k+1))) * N**(1 - 1/(2k(l+1))) * p**(1/(2kl))
  T4.1       |T_r(lam) - (MN)**r / p|  (s a free integer, 1 <= s <= r/2)
  T4.2       |Q_r(lam) - M * N**(r+1) / p|
  T4.3       |R_{k,l,r}(lam) - M**k N**l T**r / (p-1)|, lam != 0
  T4.4       |R_{l,r}(lam) - N**l T**r / (p-1)|  (k = 0; 0 <= s <= r)
  B-CharSum  max over nonprincipal characters of |sum chi(n!)|
             <= N**(3/4) p**(1/8) (log p)**(1/4)
  B-I        I_l <= N**(2l - 1 + 2**(-l))
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import counting, expsums, factorial, kernels
from .counting import CountQuery
from .errors import (
    EngineMismatchError,
    GuardExceededError,
    HypothesisError,
    ParameterError,
)
from .factorial import FactorialWindow
from .field import PrimeContext

__all__ = [
    "BOUND_IDS",
    "BoundReport",
    "SweepResult",
    "bound_rhs",
    "evaluate_cell",
    "verify_sweep",
    "DistributionStats",
    "distinct_stats",
    "star_discrepancy",
    "direct_discrepancy",
    "erdos_turan_bound",
    "DiscrepancyReport",
    "discrepancy_estimate",
]

BOUND_IDS = (
    "T2.1",
    "C2.2",
    "T2.3",
    "T3.1",
    "T4.1",
    "T4.2",
    "T4.3",
    "T4.4",
    "B-CharSum",
    "B-I",
)

DIRECT_DISCREPANCY_GUARD = 10**7

# Parameters each bound consumes, with defaults applied per cell.
_BOUND_PARAMS: dict[str, dict[str, int]] = {
    "T2.1": {"ell": 1, "lam": 0},
    "C2.2": {"k": 2, "lam": 0},
    "T2.3": {"ell": 1},
    "T3.1": {"k": 2, "ell": 2},
    "T4.1": {"k": 2, "ell": 2, "r": 2, "s": 1, "lam": 0},
    "T4.2": {"k": 2, "ell": 2, "r": 1, "lam": 0},
    "T4.3": {"k": 1, "ell": 1, "r": 1, "lam": 1},
    "T4.4": {"ell": 1, "r": 1, "s": 0, "lam": 1},
    "B-CharSum": {},
    "B-I": {"ell": 1},
}


@dataclass(frozen=True)
class BoundReport:
    """One monitored cell: exact left side against the bound's right side."""

    bound_id: str
    p: int
    params: dict
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


@dataclass(frozen=True)
class SweepResult:
    reports: list[BoundReport]
    skipped: list[tuple[int, str]] = dc_field(default_factory=list)

    def series(self) -> list[tuple[int, float]]:
        return [(r.p, r.ratio) for r in self.reports]


def _require(params: dict, *names: str) -> list[int]:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ParameterError(f"bound needs parameters {missing}")
    return [int(params[n]) for n in names]


def bound_rhs(bound_id: str, **params) -> float:
    """Right side of a cataloged bound, implied constant taken as 1.

    Expected keys vary by bound: p, window lengths M, N, T, multiplicities
    ell, k, r, and the split parameter s.  Raises HypothesisError outside
    the stated parameter regime.
    """
    if bound_id not in BOUND_IDS:
        raise ParameterError(f"unknown bound id {bound_id!r}")
    g = params.get
    if bound_id == "T2.1":
        (ell, N) = _require(params, "ell", "N")
        return float(N) ** (2 * ell - 1 + 1 / (ell + 1))
    if bound_id == "C2.2":
        (k, N) = _require(params, "k", "N")
        k1, k2 = k // 2, (k + 1) // 2
        return float(N) ** (k - 1 + 1 / (2 * (k1 + 1)) + 1 / (2 * (k2 + 1)))
    if bound_id == "T2.3":
        (ell, M, N) = _require(params, "ell", "M", "N")
        _check_window_balance(M, N)
        return float(M) ** (2 * ell - 1 + 1 / (2 * ell)) * float(N) ** (
            2 * ell - 1 / (2 * (ell + 1))
        )
    if bound_id == "T3.1":
        (k, ell, M, N, p) = _require(params, "k", "ell", "M", "N", "p")
        return (
            float(M) ** (1 - 1 / (2 * ell * (k + 1)))
            * float(N) ** (1 - 1 / (2 * k * (ell + 1)))
            * float(p) ** (1 / (2 * k * ell))
        )
    if bound_id == "T4.1":
        (k, ell, r, s, M, N, p) = _require(params, "k", "ell", "r", "s", "M", "N", "p")
        if s < 1 or 2 * s > r:
            raise HypothesisError("T4.1 needs an integer s with 1 <= s <= r/2")
        _check_window_balance(M, N)
        return (
            float(M) ** (r - 1 + 1 / (2 * s) - (r - 2 * s) / (2 * ell * (k + 1)))
            * float(N) ** (r - 1 / (2 * (s + 1)) - (r - 2 * s) / (2 * k * (ell + 1)))
            * float(p) ** ((r - 2 * s) / (2 * k * ell))
        )
    if bound_id == "T4.2":
        (k, ell, r, M, N, p) = _require(params, "k", "ell", "r", "M", "N", "p")
        r1, r2 = r // 2, (r + 1) // 2
        return (
            float(M) ** (1 - 1 / (2 * ell * (k + 1)))
            * float(N)
            ** (r + 1 / (2 * (r1 + 1)) + 1 / (2 * (r2 + 1)) - 1 / (2 * k * (ell + 1)))
            * float(p) ** (1 / (2 * k * ell))
        )
    if bound_id == "T4.3":
        (k, ell, r, M, N, T, p) = _require(params, "k", "ell", "r", "M", "N", "T", "p")
        return (
            float(M) ** (k - 0.5 + 1 / (2 * (k + 1)))
            * float(N) ** (ell - 0.5 + 1 / (2 * (ell + 1)))
            * float(T) ** (3 * r / 4)
            * float(p) ** (r / 8)
            * math.log(p) ** (r / 4)
        )
    if bound_id == "T4.4":
        (ell, r, s, N, T, p) = _require(params, "ell", "r", "s", "N", "T", "p")
        if not 0 <= s <= r:
            raise HypothesisError("T4.4 needs an integer s with 0 <= s <= r")
        return (
            float(N) ** (ell - 0.5 + 1 / (2 * (ell + 1)))
            * float(T) ** ((3 * r + s) / 4 - 0.5 + 2.0 ** (-s - 1))
            * float(p) ** ((r - s) / 8)
            * math.log(p) ** ((r - s) / 4)
        )
    if bound_id == "B-CharSum":
        (N, p) = _require(params, "N", "p")
        return float(N) ** 0.75 * float(p) ** 0.125 * math.log(p) ** 0.25
    if bound_id == "B-I":
        (ell, N) = _require(params, "ell", "N")
        return float(N) ** (2 * ell - 1 + 2.0 ** (-ell))
    raise ParameterError(f"unknown bound id {bound_id!r}")  # pragma: no cover


def _check_window_balance(M: int, N: int) -> None:
    if M > N * N or M * M < N:
        raise HypothesisError(
            f"window lengths M={M}, N={N} violate N**2 >= M >= sqrt(N)"
        )


def _default_signs(k: int) -> tuple[int, ...]:
    return tuple(1 if i % 2 == 0 else -1 for i in range(k))


def _deviation(count: int, numerator: int, denominator: int) -> float:
    """|count - numerator/denominator| computed exactly before rounding."""
    return abs(count * denominator - numerator) / denominator


def _spot_check_spectrum(
    spectrum, wm: FactorialWindow, wn: FactorialWindow, seed: int
) -> None:
    """Compare a few spectrum entries against the direct pair evaluator."""
    rng = np.random.default_rng(seed)
    p = wm.p
    tol = max(64 * spectrum.abs_error, 1e-9 * wm.N * wn.N, 1e-9)
    for a in rng.integers(1, p, size=min(8, p - 1)):
        direct = expsums.double_sum_direct(wm, wn, int(a)).value
        if abs(direct - complex(spectrum.values[int(a)])) > tol:
            raise EngineMismatchError(
                f"double-sum engines disagree at p={p}, a={int(a)}"
            )


def evaluate_cell(
    bound_id: str,
    ctx: PrimeContext,
    params: dict | None = None,
    engine: str = "conv",
    seed: int = 0,
) -> BoundReport:
    """Evaluate one bound at one prime, full windows unless overridden."""
    if bound_id not in BOUND_IDS:
        raise ParameterError(f"unknown bound id {bound_id!r}")
    p = ctx.p
    resolved: dict = dict(_BOUND_PARAMS[bound_id])
    resolved.update({k: v for k, v in (params or {}).items() if v is not None})
    resolved.setdefault("L", 0)
    resolved.setdefault("K", 0)
    resolved.setdefault("S", 0)
    resolved.setdefault("N", p - 1 - resolved["L"])
    resolved.setdefault("M", p - 1 - resolved["K"])
    resolved.setdefault("T", p - 1 - resolved["S"])
    resolved["p"] = p

    def query(family: str, **kw) -> CountQuery:
        return CountQuery(
            family=family,
            ctx=ctx,
            L=resolved["L"],
            N=resolved["N"],
            K=resolved["K"],
            M=resolved["M"],
            S=resolved["S"],
            T=resolved["T"],
            **kw,
        )

    rhs = bound_rhs(bound_id, **resolved)
    M, N, T = resolved["M"], resolved["N"], resolved["T"]
    if bound_id == "T2.1":
        lhs = float(
            counting.count(
                query("J", ell=resolved["ell"], lam=resolved["lam"]), engine
            ).count
        )
    elif bound_id == "C2.2":
        signs = tuple(resolved.get("signs") or _default_signs(resolved["k"]))
        resolved["signs"] = signs
        lhs = float(
            counting.count(
                query("SIGNED", k=resolved["k"], signs=signs, lam=resolved["lam"]),
                engine,
            ).count
        )
    elif bound_id == "T2.3":
        lhs = float(counting.count(query("F", ell=resolved["ell"]), engine).count)
    elif bound_id == "T3.1":
        wm = factorial.build_window(ctx, resolved["K"], M)
        same = (resolved["K"], M) == (resolved["L"], N)
        wn = wm if same else factorial.build_window(ctx, resolved["L"], N)
        spectrum = expsums.batch_double_sums(wm, wn)
        if engine == "both":
            _spot_check_spectrum(spectrum, wm, wn, seed=seed + p)
        lhs = abs(spectrum.max_magnitude(skip_zero=True).value)
    elif bound_id == "T4.1":
        c = counting.count(query("T", r=resolved["r"], lam=resolved["lam"]), engine)
        lhs = _deviation(c.count, (M * N) ** resolved["r"], p)
    elif bound_id == "T4.2":
        c = counting.count(query("Q", r=resolved["r"], lam=resolved["lam"]), engine)
        lhs = _deviation(c.count, M * N ** (resolved["r"] + 1), p)
    elif bound_id == "T4.3":
        c = counting.count(
            query(
                "R",
                k=resolved["k"],
                ell=resolved["ell"],
                r=resolved["r"],
                lam=resolved["lam"],
            ),
            engine,
        )
        main = M ** resolved["k"] * N ** resolved["ell"] * T ** resolved["r"]
        lhs = _deviation(c.count, main, p - 1)
    elif bound_id == "T4.4":
        c = counting.count(
            query(
                "R", k=0, ell=resolved["ell"], r=resolved["r"], lam=resolved["lam"]
            ),
            engine,
        )
        lhs = _deviation(c.count, N ** resolved["ell"] * T ** resolved["r"], p - 1)
    elif bound_id == "B-CharSum":
        window = factorial.build_window(ctx, resolved["L"], N)
        spectrum = expsums.batch_character_sums(window)
        if engine == "both":
            _spot_check_chars(spectrum, window, seed=seed + p)
        lhs = abs(spectrum.max_magnitude(skip_zero=True).value)
    elif bound_id == "B-I":
        lhs = float(counting.count(query("I", ell=resolved["ell"]), engine).count)
    else:  # pragma: no cover
        raise ParameterError(f"unknown bound id {bound_id!r}")
    return BoundReport(bound_id=bound_id, p=p, params=resolved, lhs=lhs, rhs=rhs)


def _spot_check_chars(spectrum, window: FactorialWindow, seed: int) -> None:
    rng = np.random.default_rng(seed)
    p = window.p
    tol = max(64 * spectrum.abs_error, 1e-9 * window.N, 1e-9)
    for j in rng.integers(1, p - 1, size=min(8, p - 2)):
        direct = expsums.character_sum(window, int(j)).value
        if abs(direct - complex(spectrum.values[int(j)])) > tol:
            raise EngineMismatchError(
                f"character-sum engines disagree at p={p}, j={int(j)}"
            )


def verify_sweep(
    bound_id: str,
    primes: list[int],
    params: dict | None = None,
    engine: str = "conv",
    threads: int = 1,
    seed: int = 0,
    dlog_limit: int | None = None,
    context_factory=None,
) -> SweepResult:
    """Evaluate one bound across primes; cells outside the bound's
    hypotheses are skipped and recorded rather than raised.

    context_factory(p, with_dlog) may be supplied to reuse or cache
    contexts; the default builds each one from scratch.
    """
    needs_dlog = bound_id in (
        "T2.3",
        "T3.1",
        "T4.1",
        "T4.2",
        "T4.3",
        "T4.4",
        "B-CharSum",
        "B-I",
    )

    def default_factory(p: int, with_dlog: bool) -> PrimeContext:
        kwargs = {} if dlog_limit is None else {"memory_limit": dlog_limit}
        return PrimeContext.create(p, with_dlog=with_dlog, **kwargs)

    factory = context_factory or default_factory

    def cell(p: int):
        ctx = factory(p, needs_dlog)
        return evaluate_cell(bound_id, ctx, params, engine=engine, seed=seed)

    reports: list[BoundReport] = []
    skipped: list[tuple[int, str]] = []
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {p: pool.submit(cell, p) for p in primes}
            for p in primes:
                try:
                    reports.append(futures[p].result())
                except (HypothesisError, GuardExceededError) as exc:
                    skipped.append((p, str(exc)))
    else:
        for p in primes:
            try:
                reports.append(cell(p))
            except (HypothesisError, GuardExceededError) as exc:
                skipped.append((p, str(exc)))
    return SweepResult(reports=reports, skipped=skipped)


# ---------------------------------------------------------------------------
# value distribution and discrepancy


@dataclass(frozen=True)
class DistributionStats:
    """How much of the field a factorial window actually reaches."""

    p: int
    L: int
    N: int
    distinct_count: int
    distinct_fraction: float
    missed_fraction: float
    # heuristic limit for N = p - 1 if values behaved like a random map
    reference_distinct_fraction: float = 1.0 - math.exp(-1.0)


def distinct_stats(window: FactorialWindow) -> DistributionStats:
    distinct = int(np.count_nonzero(np.bincount(window.values, minlength=window.p)))
    frac = distinct / window.p
    return DistributionStats(
        p=window.p,
        L=window.L,
        N=window.N,
        distinct_count=distinct,
        distinct_fraction=frac,
        missed_fraction=1.0 - frac,
    )


def star_discrepancy(counts: np.ndarray, p: int) -> float:
    """Exact sup-norm star discrepancy of the multiset {t/p with
    multiplicity counts[t]} against the uniform law on [0, 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ParameterError("discrepancy needs a nonempty point set")
    cum = np.cumsum(counts) / total
    grid = np.arange(p, dtype=np.float64) / p
    before = np.concatenate([[0.0], cum[:-1]])
    return float(np.max(np.maximum(cum - grid, grid - before)))


def direct_discrepancy(wm: FactorialWindow, wn: FactorialWindow) -> float:
    """Star discrepancy of the normalized pair products m! * n! / p.

    Exhaustive over all M*N pairs, guarded; the reference against which
    the spectral estimate must stay an upper bound.
    """
    if wm.N * wn.N > DIRECT_DISCREPANCY_GUARD:
        raise GuardExceededError(
            f"direct discrepancy handles at most {DIRECT_DISCREPANCY_GUARD} pairs"
        )
    counts = kernels.pair_product_tally(wm.values, wn.values, wm.p)
    return star_discrepancy(counts, wm.p)


def erdos_turan_bound(magnitudes: np.ndarray, n_points: int, H: int) -> float:
    """3*(1/(H+1) + sum over a <= H of |W_a|/(a*n)); classical constants."""
    if H < 1:
        raise ParameterError("the estimate needs H >= 1")
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.size < H:
        raise ParameterError(f"need the first {H} nonzero frequencies")
    weights = mags[:H] / (np.arange(1, H + 1) * float(n_points))
    return 3.0 * (1.0 / (H + 1) + float(weights.sum()))


@dataclass(frozen=True)
class DiscrepancyReport:
    p: int
    M: int
    N: int
    H: int
    estimate: float
    direct: float | None
    constants: tuple[float, float] = (3.0, 3.0)


def discrepancy_estimate(
    wm: FactorialWindow,
    wn: FactorialWindow,
    H: int | None = None,
    with_direct: bool | None = None,
) -> DiscrepancyReport:
    """Spectral upper estimate for the pair-product discrepancy.

    Uses the full double-sum spectrum up to frequency H (default p - 1).
    The exact value is attached when the pair count fits the direct guard,
    unless with_direct says otherwise.
    """
    p = wm.p
    H = p - 1 if H is None else int(H)
    if not 1 <= H <= p - 1:
        raise ParameterError("H must lie in [1, p-1]")
    spectrum = expsums.batch_double_sums(wm, wn)
    mags = np.abs(spectrum.values[1 : H + 1])
    estimate = erdos_turan_bound(mags, wm.N * wn.N, H)
    direct = None
    feasible = wm.N * wn.N <= DIRECT_DISCREPANCY_GUARD
    if with_direct is None:
        with_direct = feasible
    if with_direct:
        direct = direct_discrepancy(wm, wn)
    return DiscrepancyReport(
        p=p, M=wm.N, N=wn.N, H=H, estimate=estimate, direct=direct
    )

