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

import functools
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import counting, expsums, kernels
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


def _check_window_balance(M: int, N: int) -> None:
    if M > N * N or M * M < N:
        raise HypothesisError(
            f"window lengths M={M}, N={N} violate N**2 >= M >= sqrt(N)"
        )


# Right sides, implied constant 1, each over the parameters it names and
# raising HypothesisError outside its stated regime.


def _c22(k, N):
    k1, k2 = k // 2, (k + 1) // 2
    return float(N) ** (k - 1 + 1 / (2 * (k1 + 1)) + 1 / (2 * (k2 + 1)))


def _t23(ell, M, N):
    _check_window_balance(M, N)
    return float(M) ** (2 * ell - 1 + 1 / (2 * ell)) * float(N) ** (
        2 * ell - 1 / (2 * (ell + 1))
    )


def _t31(k, ell, M, N, p):
    return (
        float(M) ** (1 - 1 / (2 * ell * (k + 1)))
        * float(N) ** (1 - 1 / (2 * k * (ell + 1)))
        * float(p) ** (1 / (2 * k * ell))
    )


def _t41(k, ell, r, s, M, N, p):
    if s < 1 or 2 * s > r:
        raise HypothesisError("T4.1 needs an integer s with 1 <= s <= r/2")
    _check_window_balance(M, N)
    return (
        float(M) ** (r - 1 + 1 / (2 * s) - (r - 2 * s) / (2 * ell * (k + 1)))
        * float(N) ** (r - 1 / (2 * (s + 1)) - (r - 2 * s) / (2 * k * (ell + 1)))
        * float(p) ** ((r - 2 * s) / (2 * k * ell))
    )


def _t42(k, ell, r, M, N, p):
    r1, r2 = r // 2, (r + 1) // 2
    return (
        float(M) ** (1 - 1 / (2 * ell * (k + 1)))
        * float(N)
        ** (r + 1 / (2 * (r1 + 1)) + 1 / (2 * (r2 + 1)) - 1 / (2 * k * (ell + 1)))
        * float(p) ** (1 / (2 * k * ell))
    )


def _t43(k, ell, r, M, N, T, p):
    return (
        float(M) ** (k - 0.5 + 1 / (2 * (k + 1)))
        * float(N) ** (ell - 0.5 + 1 / (2 * (ell + 1)))
        * float(T) ** (3 * r / 4)
        * float(p) ** (r / 8)
        * math.log(p) ** (r / 4)
    )


def _t44(ell, r, s, N, T, p):
    if not 0 <= s <= r:
        raise HypothesisError("T4.4 needs an integer s with 0 <= s <= r")
    return (
        float(N) ** (ell - 0.5 + 1 / (2 * (ell + 1)))
        * float(T) ** ((3 * r + s) / 4 - 0.5 + 2.0 ** (-s - 1))
        * float(p) ** ((r - s) / 8)
        * math.log(p) ** ((r - s) / 4)
    )


# Spectral left sides: the spectrum over every frequency, a direct
# evaluator of one frequency for the spot check, and the number of terms
# in each sum.


def _double_sums(ctx: PrimeContext, q: dict):
    wn = ctx.window(q["L"], q["N"])
    wm = ctx.window(q["K"], q["M"])
    return (expsums.batch_double_sums(wm, wn),
            lambda a: expsums.double_sum_direct(wm, wn, a), wm.N * wn.N)


def _character_sums(ctx: PrimeContext, q: dict):
    wn = ctx.window(q["L"], q["N"])
    return (expsums.batch_character_sums(wn),
            lambda j: expsums.character_sum(wn, j), wn.N)


@dataclass(frozen=True)
class _Bound:
    """One catalogued bound: both sides and what they may be given.

    params holds the bound's parameters with their defaults.  rhs maps
    the parameters it names to the right side.  The left side is the exact
    count of family, or the largest nonzero-frequency magnitude of the
    spectrum sums returns when family is None.  main maps the resolved
    parameters to the main term (numerator, denominator) the count
    deviates from, or is None when the left side is the count itself.
    fixed holds the query fields the bound pins; a cell that asks for
    another value is skipped.
    """

    params: dict
    rhs: Callable[..., float]
    family: str | None = None
    main: Callable[..., tuple[int, int]] | None = None
    fixed: dict = dc_field(default_factory=dict)
    sums: Callable[[PrimeContext, dict], tuple] | None = None

    @functools.cached_property
    def rhs_names(self) -> tuple[str, ...]:
        return tuple(inspect.signature(self.rhs).parameters)


_BOUNDS = {
    "T2.1": _Bound({"ell": 1, "lam": 0},
                   lambda ell, N: float(N) ** (2 * ell - 1 + 1 / (ell + 1)), "J"),
    "C2.2": _Bound({"k": 2, "lam": 0}, _c22, "SIGNED"),
    "T2.3": _Bound({"ell": 1}, _t23, "F"),
    "T3.1": _Bound({"k": 2, "ell": 2}, _t31, sums=_double_sums),
    "T4.1": _Bound({"k": 2, "ell": 2, "r": 2, "s": 1, "lam": 0}, _t41, "T",
                   lambda M, N, r, p, **_: ((M * N) ** r, p)),
    "T4.2": _Bound({"k": 2, "ell": 2, "r": 1, "lam": 0}, _t42, "Q",
                   lambda M, N, r, p, **_: (M * N ** (r + 1), p)),
    "T4.3": _Bound({"k": 1, "ell": 1, "r": 1, "lam": 1}, _t43, "R",
                   lambda M, N, T, k, ell, r, p, **_: (M**k * N**ell * T**r, p - 1)),
    "T4.4": _Bound({"ell": 1, "r": 1, "s": 0, "lam": 1}, _t44, "R",
                   lambda N, T, ell, r, p, **_: (N**ell * T**r, p - 1), {"k": 0}),
    "B-CharSum": _Bound({}, lambda N, p: float(N) ** 0.75 * float(p) ** 0.125
                        * math.log(p) ** 0.25, sums=_character_sums),
    "B-I": _Bound({"ell": 1}, lambda ell, N: float(N) ** (2 * ell - 1 + 2.0 ** (-ell)),
                  "I"),
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
    """A sweep's cells, grouped by bound and in prime order within each;
    a skipped cell is (bound_id, p, reason)."""

    reports: list[BoundReport]
    skipped: list[tuple[str, int, str]] = dc_field(default_factory=list)


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
    bound = _bound(bound_id)
    return bound.rhs(*_require(params, *bound.rhs_names))


def _spot_check(spectrum, direct, terms: int, seed: int) -> None:
    """Compare a few nonzero frequencies of spectrum against direct."""
    rng = np.random.default_rng(seed)
    size = len(spectrum.values)
    tol = max(64 * spectrum.abs_error, 1e-9 * terms, 1e-9)
    for x in rng.integers(1, size, size=min(8, size - 1)):
        if abs(direct(int(x)).value - complex(spectrum.values[int(x)])) > tol:
            raise EngineMismatchError(
                f"{spectrum.kind}-sum engines disagree at p={spectrum.p}, "
                f"frequency {int(x)}"
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
    if bound.family is not None:
        family = counting._FAMILIES[bound.family]
        if family.signs:
            signs = resolved.get("signs") or family.signs(resolved["k"])
            resolved["signs"] = tuple(signs)
        fields = {key: resolved[key] for key in family.fields if key in resolved}
        query = CountQuery(family=bound.family, ctx=ctx, **{**fields, **bound.fixed})
        c = counting.count(query, engine).count
        num, den = bound.main(**resolved) if bound.main else (0, 1)
        # |c - num/den|, exact until the one rounding division
        lhs = abs(c * den - num) / den
    else:
        spectrum, direct, terms = bound.sums(ctx, resolved)
        if engine == "both":
            _spot_check(spectrum, direct, terms, seed=seed + p)
        lhs = abs(spectrum.max_magnitude().value)
    return BoundReport(bound_id=bound_id, p=p, params=resolved, lhs=lhs, rhs=rhs)


def verify_sweep(
    bound_ids: list[str],
    primes: list[int],
    params: dict | None = None,
    engine: str = "conv",
    threads: int = 1,
    seed: int = 0,
    cache_dir=None,
) -> SweepResult:
    """Evaluate each listed bound at each prime.

    Each prime gets one context, shared by all of its cells; it keeps the
    windows and the tables they read, and saves discrete-log tables in
    cache_dir if given.  threads > 1 evaluates that many primes
    at once.  A cell outside its bound's hypotheses or past a size or work
    guard is skipped and recorded rather than raised.
    """
    bound_ids = list(bound_ids)
    for bound_id in bound_ids:
        _bound(bound_id)  # an unknown id fails before any cell runs

    def cells(p: int) -> list:
        ctx = PrimeContext.create(p, cache_dir=cache_dir)
        out: list = []
        for bound_id in bound_ids:
            try:
                out.append(evaluate_cell(bound_id, ctx, params, engine=engine, seed=seed))
            except (HypothesisError, GuardExceededError) as exc:
                out.append((bound_id, p, str(exc)))
        return out

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # costs 7 ms to import

        with ThreadPoolExecutor(max_workers=threads) as pool:
            by_prime = list(pool.map(cells, primes))
    else:
        by_prime = list(map(cells, primes))
    by_bound = [cell for column in zip(*by_prime) for cell in column]
    return SweepResult(
        reports=[c for c in by_bound if isinstance(c, BoundReport)],
        skipped=[c for c in by_bound if not isinstance(c, BoundReport)],
    )


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
    # sorting the N values, not a length-p bincount, keeps a short window
    # at a huge p small
    distinct = int(np.count_nonzero(np.diff(np.sort(window.values)))) + 1
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

    Exact over all M*N pairs, guarded: the brute engine's pair tally,
    with its checked power table.  The reference against which the
    spectral estimate must stay an upper bound.
    """
    if wm.N * wn.N > DIRECT_DISCREPANCY_GUARD:
        raise GuardExceededError(
            f"direct discrepancy handles at most {DIRECT_DISCREPANCY_GUARD} pairs"
        )
    powers = functools.partial(counting._power_table, wm.ctx)
    counts = kernels.pair_product_tally(wm.values, wn.values, wm.p, powers)
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


def discrepancy_estimate(
    wm: FactorialWindow, wn: FactorialWindow, H: int
) -> DiscrepancyReport:
    """Spectral upper estimate for the pair-product discrepancy.

    Uses the double-sum spectrum up to frequency H, 1 <= H <= p - 1.
    The exact value is attached when the pair count fits the direct guard.
    """
    p, H = wm.p, int(H)
    if not 1 <= H <= p - 1:
        raise ParameterError("H must lie in [1, p-1]")
    spectrum = expsums.batch_double_sums(wm, wn)
    mags = np.abs(spectrum.values[1 : H + 1])
    estimate = erdos_turan_bound(mags, wm.N * wn.N, H)
    direct = None
    if wm.N * wn.N <= DIRECT_DISCREPANCY_GUARD:
        direct = direct_discrepancy(wm, wn)
    return DiscrepancyReport(
        p=p, M=wm.N, N=wn.N, H=H, estimate=estimate, direct=direct
    )

