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

import dataclasses
import math
from collections.abc import Callable
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

DIRECT_DISCREPANCY_GUARD = 10**7


@dataclass(frozen=True)
class _Bound:
    """How one catalogued bound's left side is computed.

    params holds the bound's parameters with their defaults.  family is
    the counting family whose exact count is the left side, or None for
    the two spectral bounds.  main maps the resolved parameters to the
    main term (numerator, denominator) the count deviates from, or is None
    when the left side is the count itself.  fixed holds the query fields
    the bound pins; a cell that asks for another value is skipped.
    """

    params: dict
    family: str | None = None
    main: Callable[..., tuple[int, int]] | None = None
    fixed: dict = dc_field(default_factory=dict)


_BOUNDS = {
    "T2.1": _Bound({"ell": 1, "lam": 0}, "J"),
    "C2.2": _Bound({"k": 2, "lam": 0}, "SIGNED"),
    "T2.3": _Bound({"ell": 1}, "F"),
    "T3.1": _Bound({"k": 2, "ell": 2}),
    "T4.1": _Bound({"k": 2, "ell": 2, "r": 2, "s": 1, "lam": 0}, "T",
                   lambda M, N, r, p, **_: ((M * N) ** r, p)),
    "T4.2": _Bound({"k": 2, "ell": 2, "r": 1, "lam": 0}, "Q",
                   lambda M, N, r, p, **_: (M * N ** (r + 1), p)),
    "T4.3": _Bound({"k": 1, "ell": 1, "r": 1, "lam": 1}, "R",
                   lambda M, N, T, k, ell, r, p, **_: (M**k * N**ell * T**r, p - 1)),
    "T4.4": _Bound({"ell": 1, "r": 1, "s": 0, "lam": 1}, "R",
                   lambda N, T, ell, r, p, **_: (N**ell * T**r, p - 1), {"k": 0}),
    "B-CharSum": _Bound({}),
    "B-I": _Bound({"ell": 1}, "I"),
}

BOUND_IDS = tuple(_BOUNDS)


def _bound(bound_id: str) -> _Bound:
    if bound_id not in _BOUNDS:
        raise ParameterError(f"unknown bound id {bound_id!r}")
    return _BOUNDS[bound_id]


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
    _bound(bound_id)
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
    (ell, N) = _require(params, "ell", "N")  # B-I
    return float(N) ** (2 * ell - 1 + 2.0 ** (-ell))


def _check_window_balance(M: int, N: int) -> None:
    if M > N * N or M * M < N:
        raise HypothesisError(
            f"window lengths M={M}, N={N} violate N**2 >= M >= sqrt(N)"
        )


def _default_signs(k: int) -> tuple[int, ...]:
    return tuple(1 if i % 2 == 0 else -1 for i in range(k))


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
    bound = _bound(bound_id)
    p = ctx.p
    resolved: dict = dict(bound.params)
    resolved.update({k: v for k, v in (params or {}).items() if v is not None})
    for key, value in bound.fixed.items():
        if resolved.get(key, value) != value:
            raise HypothesisError(
                f"{bound_id} counts with {key}={value}, not {key}={resolved[key]}"
            )
    for offset, length in (("L", "N"), ("K", "M"), ("S", "T")):
        resolved.setdefault(offset, 0)
        resolved.setdefault(length, p - 1 - resolved[offset])
    resolved["p"] = p
    rhs = bound_rhs(bound_id, **resolved)
    if bound.family == "SIGNED":
        signs = resolved.get("signs") or _default_signs(resolved["k"])
        resolved["signs"] = tuple(signs)
    if bound.family is not None:
        fields = {f.name: resolved[f.name] for f in dataclasses.fields(CountQuery)
                  if f.name in resolved}
        query = CountQuery(family=bound.family, ctx=ctx, **{**fields, **bound.fixed})
        c = counting.count(query, engine).count
        num, den = bound.main(**resolved) if bound.main else (0, 1)
        # |c - num/den|, exact until the one rounding division
        lhs = abs(c * den - num) / den
    else:
        wn = factorial.build_window(ctx, resolved["L"], resolved["N"])
        if bound_id == "T3.1":
            K, M = resolved["K"], resolved["M"]
            wm = wn if (K, M) == (wn.L, wn.N) else factorial.build_window(ctx, K, M)
            spectrum = expsums.batch_double_sums(wm, wn)
            if engine == "both":
                _spot_check_spectrum(spectrum, wm, wn, seed=seed + p)
        else:  # B-CharSum
            spectrum = expsums.batch_character_sums(wn)
            if engine == "both":
                _spot_check_chars(spectrum, wn, seed=seed + p)
        lhs = abs(spectrum.max_magnitude(skip_zero=True).value)
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
    cache_dir=None,
) -> SweepResult:
    """Evaluate one bound across primes; cells outside the bound's
    hypotheses are skipped and recorded rather than raised.

    Each prime's context keeps its discrete-log table in cache_dir, if
    given, when the cell reads one.
    """
    _bound(bound_id)  # an unknown id fails before any cell runs

    def cell(p: int):
        ctx = PrimeContext.create(p, cache_dir=cache_dir)
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

