"""Exact solution counts for congruence families built from factorials.

Seven families, each counting tuples drawn from factorial windows:

  J      two l-fold sums of factorials differing by lambda
  SIGNED one k-fold sign-weighted sum of factorials hitting lambda
  F      two l-fold sums of factorial pair products agreeing exactly
  I      two l-fold products of factorials agreeing exactly
  T      an r-fold sum of factorial pair products hitting lambda
  Q      one pair product plus an r-fold factorial sum hitting lambda
  R      product of bracket sums and factorials hitting a nonzero lambda

Each family is one _Family row of _FAMILIES: the query fields it reads,
its convolution parts, its brute-force plan and its work estimate.  The
engines, the command line and the bound sweeps read the row; none of
them branches on a family name.

Each family has two independent engines, which share no transform code,
so their agreement is a meaningful consistency check.  The convolution
engine folds histograms with exact cyclic convolutions.  A profile (the
counts at every lambda) ends in one exact convolution X * Y.  A
single-lambda count of J, SIGNED, T, Q or R builds the same X and Y but
evaluates only that last step, at lambda, as the exact dot sum_i X[i]
Y[lambda - i].  A count that is one k-fold power of a histogram x (T,
and SIGNED with one sign) meets in the middle, as the brute engine does:
X and Y are the halves of the power (_Inputs.halves), x^(k // 2) and
x^(k - k // 2).  J, and SIGNED with both signs, correlate two sum
histograms (_correlation); Q and R convolve their own parts.  F and I
are sums of squares of the whole power x^ell.  Each call builds every
histogram it needs once and runs each distinct exact convolution once
(_Inputs).  Exponents are read through the context's power table
(PrimeContext.power_table); no engine reads the discrete-log table.

The brute-force engine builds every tally from one kernel,
kernels.meet, which meets two histograms mod p under + or x: by direct
summation over every pair of bins (np.convolve, exact, no transform), by
enumerating pairs of values or of weighted bins, or, for a product, over
exponents through the engine's own power table (_power_table: a scan of
the powers of the context's generator, checked in O(p) before any tally
reads it and built at most once per count).  A window is one histogram,
and k levels of it fold by squaring (kernels.fold).  The pair products
m! n! are one product meet, the pair tally, built once per count; F's
and T's sums of pair products fold the pair tally with itself.  R's
combine is the product meet of its two bracket tallies, without bin 0,
dotted with the third tally read at lambda / x.  The final dots are
exact, in int64 where a bound proves no partial sum overflows and in
Python ints past it.

The brute-force engine meets in the middle for SIGNED, for J as SIGNED
with ell plus and ell minus signs, and for T as SIGNED with r plus signs
over the pair tally (Horowitz and Sahni, J. ACM 21, 1974): it tallies
the first ceil(k/2) signed levels into G1 and the rest into G2, and the
count is the exact dot sum_i G1[i] G2[lambda - i].  A tally does not
depend on the order of its levels, so when the second half holds the
first half's signs, in any order (++, T with r = 2 or 4), G2 is G1, and
when it holds them negated (J, +-, +-+-), G2 is G1 read at negated
residues: neither is a second tally.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import factorial, field, kernels, transform
from .errors import EngineMismatchError, GuardExceededError, ParameterError
from .factorial import FactorialWindow
from .field import PrimeContext

__all__ = [
    "FAMILIES",
    "ENGINES",
    "BRUTE_FORCE_GUARD",
    "AUTO_BRUTE_THRESHOLD",
    "CountQuery",
    "CountResult",
    "count",
    "count_convolution",
    "brute_force_count",
    "count_profile",
    "estimate_brute_work",
]

ENGINES = ("auto", "conv", "brute", "both")

# Hard ceiling on tuples the exhaustive engine may enumerate, and the
# work level below which automatic selection prefers it.
BRUTE_FORCE_GUARD = 10**9
AUTO_BRUTE_THRESHOLD = 10**7


@dataclass(frozen=True)
class CountQuery:
    """One fully specified counting request.

    Window roles: (L, N) is the main factorial window; (K, M) is the
    second window for the pair-product families F, T, Q and the bracket
    window for R; (S, T) is the plain-factorial window of R.  Unset window
    fields default to the full range (0, p-1).  lam is the target residue;
    signs configures SIGNED and must hold +1/-1 entries of length k.
    """

    family: str
    ctx: PrimeContext
    ell: int = 1
    k: int = 1
    r: int = 1
    lam: int = 0
    signs: tuple[int, ...] = ()
    L: int = 0
    N: int | None = None
    K: int = 0
    M: int | None = None
    S: int = 0
    T: int | None = None

    def resolved(self) -> "CountQuery":
        """Fill window defaults and normalize lambda into [0, p); a query
        that needs neither is validated and returned as it is."""
        p, q = self.ctx.p, self
        if None in (q.N, q.M, q.T) or type(q.lam) is not int or not 0 <= q.lam < p:
            q = replace(
                self,
                N=p - 1 - self.L if self.N is None else self.N,
                M=p - 1 - self.K if self.M is None else self.M,
                T=p - 1 - self.S if self.T is None else self.T,
                lam=int(self.lam) % p,
            )
        q.validate()
        return q

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        fam = _FAMILIES[self.family]
        for name, least in fam.reads.items():
            if least is not None and getattr(self, name) < least:
                raise ParameterError(f"{name} must be at least {least}")
        if "signs" in fam.reads and (
            len(self.signs) != self.k or any(s not in (-1, 1) for s in self.signs)
        ):
            raise ParameterError(
                f"{self.family} needs a sign tuple of +1/-1 entries of length k")
        if fam.exponents and self.lam % self.ctx.p == 0:
            raise ParameterError(f"family {self.family} requires lambda nonzero mod p")
        if not 0 <= self.lam < self.ctx.p:
            raise ParameterError("lambda must be reduced into [0, p)")


class _Inputs:
    """The windows, histograms and exact convolutions of one count call,
    the brute engine's power table, and the count's details.

    Windows come from the query's context, which keeps each one.  Each
    histogram is built once per call and kept per window, so roles that
    coincide share one object.  Each exact convolution runs once per call:
    convolve keeps its results, keyed by operand identity, and sums,
    power and halves go through it, so two roles on one window share every
    step.  An instance lives for one call: a CountResult keeps its query,
    and a sweep keeps many results.
    """

    def __init__(self, q: CountQuery):
        self.q, self._kept, self._convs = q, {}, {}
        # the brute engine's checked power table, built on first use
        self.powers = functools.cache(lambda: _power_table(q.ctx))
        self.details: dict = {}  # what the count reports beyond its value

    def window(self, role: str) -> FactorialWindow:
        """The main ("n"), second ("m"), plain ("t") or "full" window."""
        q = self.q
        L, N = {"n": (q.L, q.N), "m": (q.K, q.M), "t": (q.S, q.T),
                "full": (0, q.ctx.p - 1)}[role]
        return q.ctx.window(L, N)

    def values(self, role: str) -> np.ndarray:
        return self.window(role).values

    def _keep(self, kind: str, role: str, build, k: int = 1) -> np.ndarray:
        w = self.window(role)
        if (kind, w.L, w.N, k) not in self._kept:
            self._kept[kind, w.L, w.N, k] = build(w)
        return self._kept[kind, w.L, w.N, k]

    def convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b, exact; run once per pair of operand objects.  The kept
        entry holds a and b, so their ids stay unique for the call."""
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        if key not in self._convs:
            self._convs[key] = (a, b, transform.cyclic_convolve_exact(a, b))
        return self._convs[key][2]

    def power(self, vec: np.ndarray, k: int) -> np.ndarray:
        """vec convolved with itself k times, as the convolution of its
        halves, in floor(log2 k) + popcount(k) - 1 convolutions."""
        return vec if k == 1 else self.convolve(*self.halves(vec, k))

    def halves(self, vec: np.ndarray, k: int) -> list[np.ndarray]:
        """power(vec, k) less its last convolution, for a count that ends in
        one dot: [vec] for k = 1, else with half = power(vec, k // 2),
        [half * vec, half] for odd k and [half, half] for even k."""
        if k == 1:
            return [vec]
        half = self.power(vec, k // 2)
        return [self.convolve(half, vec) if k % 2 else half, half]

    def sums(self, role: str, k: int) -> np.ndarray:
        """The k-fold sum histogram of the window, over residues."""
        h = self._keep("residues", role, factorial.value_histogram)
        return self.power(h, k)

    def exponents(self, role: str) -> np.ndarray:
        """The window's histogram over exponents: its kept residue
        histogram read through the power table, so the window is counted
        once for both."""
        return self._keep("exponents", role,
                          lambda w: self.sums(role, 1)[self.q.ctx.power_table()])

    def brackets(self, role: str, k: int) -> np.ndarray:
        """The k-fold sum histogram over exponents, bin 0 dropped: a
        single factorial never vanishes, so k = 1 is the exponent
        histogram, shared with every role on the same window."""
        if k == 1:
            return self.exponents(role)
        exps = self.q.ctx.power_table()
        return self._keep("brackets", role, lambda w: self.sums(role, k)[exps], k)

    def pairs(self) -> np.ndarray:
        return factorial.product_histogram(self.window("m"), self.window("n"))

    def pair_sums(self, k: int = 1) -> np.ndarray:
        """The brute engine's histogram of the sums of k pair products
        m! n!: the pair tally, built once per call, folded k times."""
        if "pairs" not in self._kept:
            self._kept["pairs"] = kernels.pair_product_tally(
                self.values("m"), self.values("n"), self.q.ctx.p, self.powers)
        return kernels.fold(self._kept["pairs"], k, np.add, self.q.ctx.p)


@dataclass(frozen=True)
class CountResult:
    """Exact count plus how it was obtained."""

    query: CountQuery
    count: int
    engine: str
    seconds: float
    details: dict = dc_field(default_factory=dict)


_INT64_MAX = 2**63 - 1


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum of a[i] * b[i], exact.

    int64 when max|a| * max|b| * len, computed in Python ints, proves that
    no partial sum overflows; object arrays of Python ints otherwise.
    """
    if a.dtype == np.int64 and b.dtype == np.int64:
        top_a = max(int(a.max()), -int(a.min()))
        top_b = max(int(b.max()), -int(b.min()))
        if top_a * top_b * a.size <= _INT64_MAX:
            return int(np.dot(a, b))
    return int(np.dot(a.astype(object), b.astype(object)))


def _convolution_at(x: np.ndarray, y: np.ndarray, at: int) -> int:
    """sum over i of x[i] * y[at - i], exact: one entry of the cyclic
    convolution of x and y, for 0 <= at < len(x).  y[at - i] for i = 0..n-1
    is y[at], ..., y[0], then y[n-1], ..., y[at+1]: two reversed slices."""
    return _exact_dot(x, np.concatenate([y[at::-1], y[:at:-1]]))


# ---------------------------------------------------------------------------
# convolution engine


def _correlation(inp: _Inputs, signs: tuple[int, ...]) -> list[np.ndarray]:
    """Parts whose convolution at lambda counts the tuples of window
    factorials whose sum with these signs equals lambda: with a plus and b
    minus signs, the correlation sum_x S_a[x] S_b[x - lambda], as S_a *
    rev(S_b).  With one sign only, the parts are the halves of that
    side's power (_Inputs.halves), each reversed for minus signs."""
    plus, minus = signs.count(1), signs.count(-1)
    if plus and minus:
        return [inp.sums("n", plus), transform.index_reversed(inp.sums("n", minus))]
    parts = inp.halves(inp.sums("n", 1), plus or minus)
    return parts if plus else [transform.index_reversed(S) for S in parts]


def _conv_profile(q: CountQuery, inp: _Inputs, at: int | None = None):
    """Exact counts for every lambda at once (length p; a family on
    exponents maps back to residues with a structurally empty zero bin),
    or with at set only the count at lambda = at (module docstring).

    The parts of the family's row fold into X, all but the last, and the
    last is Y.  Every convolution goes through inp.convolve.  Past
    field.DLOG_MEMORY_LIMIT the engine refuses before its first length-p
    allocation.
    """
    ctx, fam = q.ctx, _FAMILIES[q.family]
    field.check_table_limit(ctx.p, f"the convolution engine for p={ctx.p}")
    if fam.diagonal and at is None:
        raise ParameterError(
            f"family {q.family} is a single diagonal count, not a profile")
    parts = fam.parts(q, inp)
    X = parts[0]
    for vec in parts[1:-1]:
        X = inp.convolve(X, vec)
    Y = parts[-1] if len(parts) > 1 else None
    if at is not None and not fam.diagonal:
        i = ctx.index(at) if fam.exponents else at
        return int(X[i]) if Y is None else _convolution_at(X, Y, i)
    acc = X if Y is None else inp.convolve(X, Y)
    if fam.diagonal:
        return _exact_dot(acc, acc)
    return factorial._exponents_to_residues(ctx, acc) if fam.exponents else acc


def count_convolution(q: CountQuery) -> CountResult:
    """Histogram-and-convolution engine; exact for every family."""
    q = q.resolved()
    started = time.perf_counter()
    inp = _Inputs(q)
    value = _conv_profile(q, inp, at=q.lam)
    _FAMILIES[q.family].conv_details(q, inp)
    return CountResult(
        query=q,
        count=int(value),
        engine="convolution",
        seconds=time.perf_counter() - started,
        details=inp.details,
    )


def _r_dropped_mass(q: CountQuery, a0: int, b0: int) -> int:
    """Tuples of family R that land on lambda = 0 because a bracket
    vanishes, given a0 of the M**k first and b0 of the N**ell second
    brackets that vanish (the zero bins of the k- and ell-fold sum
    histograms, which each engine builds its own way); reported since no
    nonzero lambda counts them."""
    a_tot = int(q.M) ** q.k
    return (a0 * int(q.N) ** q.ell + (a_tot - a0) * b0) * int(q.T) ** q.r


# ---------------------------------------------------------------------------
# exhaustive engine


def estimate_brute_work(q: CountQuery) -> int:
    """Tuples the exhaustive engine will enumerate, plus combine steps."""
    q = q.resolved()
    return _FAMILIES[q.family].work(q, int(q.N), int(q.M), int(q.T), q.ctx.p)


def _meet(q: CountQuery, inp: _Inputs, signs: tuple[int, ...], tally=None) -> int:
    """Tuples whose sum with these signs is lambda, met in the middle as the
    module docstring says.  tally(s) is the histogram mod p of the sums
    with signs s, one tuple at 0 for no signs; by default, of the main
    window's factorials."""
    tally = tally or (lambda s: kernels.sum_tally(inp.values("n"), s, q.ctx.p))
    h = -(-len(signs) // 2)
    head, tail = signs[:h], signs[h:]
    G1 = tally(head)
    if sorted(tail) == sorted(head):  # T with r = 2 or 4, ++ and the like
        G2 = G1
    elif sorted(tail) == sorted(-s for s in head):  # J, +-, +-+- and the like
        G2 = kernels.negated(G1)  # G2[y] = G1[-y]: the same sums negated
    else:
        G2 = tally(tail)
    return _convolution_at(G1, G2, q.lam)


def _meet_work(n: int, k: int, p: int) -> int:
    """The work of _meet over k levels of n entries: two halves and a dot."""
    return n ** -(-k // 2) + n ** (k // 2) + p


def _power_table(ctx: PrimeContext) -> np.ndarray:
    """P[e] = g**e mod p for e in [0, p - 1), the brute engine's own table.

    Built by kernels.power_table, never read from the context, and
    checked in O(p) before any tally reads it: P[0] = 1, P[e + 1] = g P[e]
    mod p for every e, and P holds each of 1, ..., p - 1 once.  A table
    that fails raises EngineMismatchError and is not used.
    """
    p, g = ctx.p, ctx.g
    P = kernels.power_table(p, g)
    ok = P.shape == (p - 1,) and P[0] == 1
    # the recurrence a block at a time, so its temporaries stay a few
    # hundred KiB; it puts every entry in [0, p), so P can index the flags
    block = 1 << 16
    for i in range(0, p - 2 if ok else 0, block):
        j = min(i + block, p - 2)
        if not np.array_equal(P[i + 1 : j + 1], g * P[i:j] % p):
            ok = False
            break
    if ok:
        seen = np.zeros(p, dtype=bool)
        seen[P] = True
        ok = bool(seen[1:].all())
    if not ok:
        raise EngineMismatchError(
            f"the brute-force power table of g={g} mod p={p} failed its check"
        )
    return P


def _brute_r(q: CountQuery, inp: _Inputs) -> int:
    """R by its three tallies and one combine, the product meet of A and B
    without bin 0 dotted with C[lam / x]; reports dropped_zero_mass."""
    values, p = inp.values, q.ctx.p
    if q.k:
        A = kernels.sum_tally(values("m"), (1,) * q.k, p)
    else:  # no first bracket: a factor of 1
        A = np.bincount([1], minlength=p)
    B = kernels.sum_tally(values("n"), (1,) * q.ell, p)
    C = kernels.prod_tally(values("t"), q.r, p, inp.powers)
    inv = kernels.inverse_table(values("full"), p)
    inp.details["dropped_zero_mass"] = _r_dropped_mass(q, int(A[0]), int(B[0]))
    A[0] = B[0] = 0
    return _exact_dot(kernels.meet(A, B, np.multiply, p, inp.powers), C[q.lam * inv % p])


def brute_force_count(q: CountQuery) -> CountResult:
    """Exhaustive enumeration with early modular reduction, by the family
    row's plan (module docstring).  Exact; refused past
    field.BRUTE_TALLY_LIMIT on p before any tally, and past
    BRUTE_FORCE_GUARD on estimate_brute_work: the tuples the tallies
    enumerate plus the combine steps (J with ell costs N**ell + p, not
    N**(2 ell))."""
    q = q.resolved()
    p = q.ctx.p
    if p > field.BRUTE_TALLY_LIMIT:
        raise GuardExceededError(
            f"the brute-force tallies for p={p} need {p} bins per histogram, "
            f"above the limit of {field.BRUTE_TALLY_LIMIT}"
        )
    work = estimate_brute_work(q)
    if work > BRUTE_FORCE_GUARD:
        raise GuardExceededError(
            f"brute-force enumeration would take about {work} tuple steps, "
            f"above the guard of {BRUTE_FORCE_GUARD}"
        )
    started = time.perf_counter()
    fam, inp = _FAMILIES[q.family], _Inputs(q)
    value = fam.brute(q, inp)
    if fam.diagonal:  # the plan gave the tally of one side
        value = _exact_dot(value, value)
    return CountResult(
        query=q,
        count=int(value),
        engine="brute-force",
        seconds=time.perf_counter() - started,
        details=inp.details,
    )


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class _Family:
    """One congruence family: the query fields it reads and how each engine
    counts it.  Rows call layer functions through their module attribute
    when they run, never a reference bound at import."""

    reads: dict  # each CountQuery field read beyond L, N, lam -> least value or None
    parts: Callable  # (q, inp) -> convolution parts
    brute: Callable  # (q, inp) -> exhaustive count; may write inp.details
    work: Callable  # (q, N, M, T, p) -> estimate_brute_work
    diagonal: bool = False  # sum of squares of the full X * Y; brute: one side
    # lambda is read at its exponent, so it is nonzero (1 on the command
    # line by default), and a profile maps back to residues
    exponents: bool = False
    signs: Callable | None = None  # k -> the signs of a bound cell that gives none
    # (q, inp) -> writes the convolution engine's inp.details, after its count
    conv_details: Callable = lambda q, inp: None

    @property
    def fields(self) -> tuple[str, ...]:
        """Every CountQuery field the family reads."""
        return ("L", "N", "lam", *self.reads)


def _r_parts(q: CountQuery, inp: _Inputs) -> list[np.ndarray]:
    # bracket sums over exponents; the default windows make all three
    # k = ell = 1 roles one object, so A * B is the first step of u^r
    parts = [inp.brackets("m", q.k)] if q.k else []
    return parts + [inp.brackets("n", q.ell), inp.power(inp.exponents("t"), q.r)]


def _r_conv_details(q: CountQuery, inp: _Inputs) -> None:
    a0 = int(inp.sums("m", q.k)[0]) if q.k else 0
    b0 = int(inp.sums("n", q.ell)[0])
    inp.details["dropped_zero_mass"] = _r_dropped_mass(q, a0, b0)


_FAMILIES = {
    "J": _Family({"ell": 1},
                 lambda q, inp: _correlation(inp, (1,) * q.ell + (-1,) * q.ell),
                 lambda q, inp: _meet(q, inp, (1,) * q.ell + (-1,) * q.ell),
                 lambda q, N, M, T, p: N**q.ell + p),
    "SIGNED": _Family({"k": 1, "signs": None},
                      lambda q, inp: _correlation(inp, q.signs),
                      lambda q, inp: _meet(q, inp, q.signs),
                      lambda q, N, M, T, p: _meet_work(N, q.k, p),
                      signs=lambda k: tuple(1 if i % 2 == 0 else -1 for i in range(k))),
    "F": _Family({"ell": 1, "K": None, "M": None},
                 lambda q, inp: [inp.power(inp.pairs(), q.ell)],
                 lambda q, inp: inp.pair_sums(q.ell),
                 lambda q, N, M, T, p: M * N + (M * N) ** q.ell + p, diagonal=True),
    "I": _Family({"ell": 1},
                 lambda q, inp: [inp.power(inp.exponents("n"), q.ell)],
                 lambda q, inp: kernels.prod_tally(inp.values("n"), q.ell, q.ctx.p,
                                                   inp.powers),
                 lambda q, N, M, T, p: N**q.ell + p, diagonal=True),
    "T": _Family({"r": 1, "K": None, "M": None},
                 lambda q, inp: inp.halves(inp.pairs(), q.r),
                 lambda q, inp: _meet(q, inp, (1,) * q.r, lambda s: inp.pair_sums(len(s))),
                 lambda q, N, M, T, p: (M * N if q.r == 1
                                        else M * N + _meet_work(M * N, q.r, p))),
    "Q": _Family({"r": 1, "K": None, "M": None},
                 lambda q, inp: [inp.pairs(), inp.sums("n", q.r)],
                 lambda q, inp: _convolution_at(
                     inp.pair_sums(),
                     kernels.sum_tally(inp.values("n"), (1,) * q.r, q.ctx.p), q.lam),
                 lambda q, N, M, T, p: M * N + N**q.r + p),
    "R": _Family({"k": 0, "ell": 1, "r": 1, "K": None, "M": None, "S": None, "T": None},
                 _r_parts, _brute_r,
                 lambda q, N, M, T, p: M**q.k + N**q.ell + T**q.r + p * p,
                 exponents=True, conv_details=_r_conv_details),
}
FAMILIES = tuple(_FAMILIES)


# ---------------------------------------------------------------------------
# selection and profiles


def count(q: CountQuery, engine: str = "auto") -> CountResult:
    """Count solutions with the requested engine.

    auto picks brute force below AUTO_BRUTE_THRESHOLD estimated steps, or
    past field.DLOG_MEMORY_LIMIT on p, where the convolution engine
    refuses, and the convolution engine otherwise; both runs the two
    independently and raises EngineMismatchError when their counts or
    details (R's dropped_zero_mass) disagree.
    """
    q = q.resolved()
    if engine == "auto":
        use_brute = (q.ctx.p > field.DLOG_MEMORY_LIMIT
                     or estimate_brute_work(q) < AUTO_BRUTE_THRESHOLD)
        return brute_force_count(q) if use_brute else count_convolution(q)
    if engine == "conv":
        return count_convolution(q)
    if engine == "brute":
        return brute_force_count(q)
    if engine == "both":
        conv = count_convolution(q)
        brute = brute_force_count(q)
        if (conv.count, conv.details) != (brute.count, brute.details):
            raise EngineMismatchError(
                f"engines disagree for {q.family}: convolution={conv.count} "
                f"{conv.details} brute-force={brute.count} {brute.details} "
                f"(p={q.ctx.p}, lam={q.lam})"
            )
        return replace(conv, engine="both", seconds=conv.seconds + brute.seconds)
    raise ParameterError(
        f"unknown engine {engine!r}; expected auto, conv, brute, or both"
    )


def count_profile(q: CountQuery) -> np.ndarray:
    """Exact counts for every lambda in [0, p) via the convolution engine.

    Only meaningful for the lambda-indexed families; F and I are single
    diagonal quantities.  For R the zero entry stays 0 by construction.
    """
    q = q.resolved()
    return _conv_profile(q, _Inputs(q))
