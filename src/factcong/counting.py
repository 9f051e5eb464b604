"""Exact solution counts for congruence families built from factorials.

Seven families, each counting tuples drawn from factorial windows:

  J      two l-fold sums of factorials differing by lambda
  SIGNED one k-fold sign-weighted sum of factorials hitting lambda
  F      two l-fold sums of factorial pair products agreeing exactly
  I      two l-fold products of factorials agreeing exactly
  T      an r-fold sum of factorial pair products hitting lambda
  Q      one pair product plus an r-fold factorial sum hitting lambda
  R      product of bracket sums and factorials hitting a nonzero lambda

Each family has two independent engines.  The convolution engine folds
histograms with exact cyclic convolutions; the brute-force engine
enumerates the variable blocks exhaustively with early modular reduction
and combines block tallies by vectorized direct summation, in int64
where a bound proves no partial sum overflows and in Python ints past
it.  Where a pair of blocks is symmetric (both sides hold the same
residues), it still covers every tuple, but enumerates each unordered
pair once and counts the off-diagonal ones twice.  The engines share no
transform code, so their agreement is a meaningful consistency check.

The brute-force engine takes products over exponents: a product tally
of two levels or more, and R's combine over its nonzero (u, v), when
kernels._use_exponents says the pairs repay the table: 128 p pairs or
more, for p below 2**18 (kernels._product_tally, _r_combine).  The
exponents come from the engine's own power table (_power_table): a scan
of the powers of the context's generator by kernels.power_table, never
the context's power or discrete-log table, checked in O(p) before any
tally reads it and built at most once per count.  Fewer
pairs, larger primes, a single product level and the pair products that
T and F materialize for r or ell >= 2 stay over residues.

The brute-force engine meets in the middle for SIGNED, and for J as
SIGNED with ell plus and ell minus signs (Horowitz and Sahni, J. ACM 21,
1974): it tallies the first ceil(k/2) signed levels into G1 and the rest
into G2, and the count is the exact dot sum_i G1[i] G2[lambda - i].
When the second half holds the first half's signs negated, in any
order (J, +-, +-+-), G2 is G1 read at negated residues, not a second
tally: a tally does not depend on the order of its levels.

A profile (the counts at every lambda) ends in one exact convolution
X * Y.  A single-lambda count of J, SIGNED, T, Q or R builds the same
X and Y but evaluates only that last step, at lambda, as the exact dot
sum_i X[i] Y[lambda - i]; F and I are sums of squares of the full X * Y.
SIGNED and J share one correlation of sum histograms: a plus signs and
b minus signs count sum_x S_a[x] S_b[x - lambda], and J with ell is a =
b = ell.  Each call builds every histogram it needs once, and runs each
distinct exact convolution once: convolutions are kept per pair of
operand objects, and roles on one window share their histograms, so R
with k = ell = 1 over the default windows convolves u * u once for both
A * B and u^(*2).  The prime context builds (or loads from its cache)
each factorial window on first read and keeps it.  The convolution
engine reads exponents through the context's power table
(PrimeContext.power_table); no engine reads the discrete-log table.
"""

from __future__ import annotations

import functools
import time
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

FAMILIES = ("J", "SIGNED", "F", "I", "T", "Q", "R")
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
        if self.family in ("J", "F", "I") and self.ell < 1:
            raise ParameterError("ell must be at least 1")
        if self.family in ("T", "Q", "R") and self.r < 1:
            raise ParameterError("r must be at least 1")
        if self.family == "SIGNED":
            if self.k < 1:
                raise ParameterError("k must be at least 1")
            if len(self.signs) != self.k or any(s not in (-1, 1) for s in self.signs):
                raise ParameterError(
                    "SIGNED needs a sign tuple of +1/-1 entries of length k"
                )
        if self.family == "R":
            if self.k < 0:
                raise ParameterError("R allows k = 0 but not negative k")
            if self.ell < 1:
                raise ParameterError("ell must be at least 1")
            if self.lam % self.ctx.p == 0:
                raise ParameterError("family R requires lambda nonzero mod p")
        if not 0 <= self.lam < self.ctx.p:
            raise ParameterError("lambda must be reduced into [0, p)")


class _Inputs:
    """The windows, histograms and exact convolutions of one count call.

    Windows come from the query's context, which keeps each one.  Each
    histogram is built once per call and kept per window, so roles that
    coincide share one object.  Each exact convolution runs once per call:
    convolve keeps its results, keyed by operand identity, and sums and
    power chain through it, so S_2 = h * h serves S_3 = S_2 * h, and two
    roles on one window share every step.  An instance lives for one call:
    a CountResult keeps its query, and a sweep keeps many results.
    """

    def __init__(self, q: CountQuery):
        self.q, self._kept, self._convs = q, {}, {}

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
        """vec convolved with itself k times, one step at a time."""
        acc = vec
        for _ in range(k - 1):
            acc = self.convolve(acc, vec)
        return acc

    def sums(self, role: str, k: int) -> np.ndarray:
        """The k-fold sum histogram of the window, over residues."""
        h = self._keep("residues", role, factorial.value_histogram)
        return self.power(h, k)

    def exponents(self, role: str) -> np.ndarray:
        """The window's histogram over exponents."""
        return self._keep("exponents", role, factorial.exponent_histogram)

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


@dataclass(frozen=True)
class CountResult:
    """Exact count plus how it was obtained."""

    query: CountQuery
    count: int
    engine: str
    seconds: float
    details: dict = dc_field(default_factory=dict)


_INT64_MAX = 2**63 - 1

# Entries in one transient (u, v) grid of the family-R brute combine: 1 MiB
# per int64 temporary, a few MiB in all, whatever p is.
_GRID_ENTRIES = 1 << 17


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


def _correlation(inp: _Inputs, plus: int, minus: int) -> list[np.ndarray]:
    """Parts whose convolution at lambda counts the plus-fold sums minus
    the minus-fold sums of window factorials that equal lambda: the
    correlation sum_x S_plus[x] S_minus[x - lambda], as S_plus *
    rev(S_minus).  A side with no terms is left out, and a lone side S_k
    goes as S_(k-1) * S_1, so a single-lambda count still ends in a dot."""
    sides = [(plus, 1), (minus, -1)]
    if not (plus and minus):
        k, sign = max(sides)  # the side with terms
        sides = [(k - 1, sign), (1, sign)] if k > 1 else [(1, sign)]
    sums = [(inp.sums("n", k), sign) for k, sign in sides]
    return [S if sign == 1 else transform.index_reversed(S) for S, sign in sums]


def _conv_profile(q: CountQuery, inp: _Inputs, at: int | None = None):
    """Exact counts for every lambda at once (length p; family R works on
    exponents and maps back to residues with a structurally empty zero bin).

    Every family convolves a list of parts: all but the last fold into X,
    and the last is Y.  J and SIGNED are one correlation of sum histograms
    (_correlation); J is SIGNED with ell plus and ell minus signs.  With
    at set, only the count at lambda = at: X * Y is evaluated at that one
    index as an exact dot.  F and I have no profile: their count is the
    sum of squares of the full X * Y.  Every convolution goes through
    inp.convolve, so a count runs each distinct one once.  Past
    field.DLOG_MEMORY_LIMIT the engine refuses before its first length-p
    allocation.
    """
    ctx, fam = q.ctx, q.family
    field.check_table_limit(ctx.p, f"the convolution engine for p={ctx.p}")
    diagonal = fam in ("F", "I")
    if diagonal and at is None:
        raise ParameterError(f"family {fam} is a single diagonal count, not a profile")
    if fam == "J":
        parts = _correlation(inp, q.ell, q.ell)
    elif fam == "SIGNED":
        parts = _correlation(inp, q.signs.count(1), q.signs.count(-1))
    elif fam in ("T", "F"):
        parts = [inp.pairs()] * (q.r if fam == "T" else q.ell)
    elif fam == "Q":
        parts = [inp.pairs(), inp.sums("n", q.r)]
    elif fam == "R":
        # bracket sums over exponents; the default windows make all three
        # k = ell = 1 roles one object, so A * B is the first step of u^r
        parts = [inp.brackets("m", q.k)] if q.k else []
        parts += [inp.brackets("n", q.ell), inp.power(inp.exponents("t"), q.r)]
    else:  # I
        parts = [inp.exponents("n")] * q.ell
    X = parts[0]
    for vec in parts[1:-1]:
        X = inp.convolve(X, vec)
    Y = parts[-1] if len(parts) > 1 else None
    if at is not None and not diagonal:
        i = ctx.index(at) if fam == "R" else at
        return int(X[i]) if Y is None else _convolution_at(X, Y, i)
    acc = X if Y is None else inp.convolve(X, Y)
    if diagonal:
        return _exact_dot(acc, acc)
    return factorial._exponents_to_residues(ctx, acc) if fam == "R" else acc


def count_convolution(q: CountQuery) -> CountResult:
    """Histogram-and-convolution engine; exact for every family."""
    q = q.resolved()
    started = time.perf_counter()
    inp = _Inputs(q)
    value = _conv_profile(q, inp, at=q.lam)
    details = {}
    if q.family == "R":
        a0 = int(inp.sums("m", q.k)[0]) if q.k else 0
        b0 = int(inp.sums("n", q.ell)[0])
        details["dropped_zero_mass"] = _r_dropped_mass(q, a0, b0)
    return CountResult(
        query=q,
        count=int(value),
        engine="convolution",
        seconds=time.perf_counter() - started,
        details=details,
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
    p = q.ctx.p
    N, M, T = int(q.N), int(q.M), int(q.T)
    fam = q.family
    if fam in ("J", "I"):
        return N**q.ell + p
    if fam == "SIGNED":
        return N ** -(-q.k // 2) + N ** (q.k // 2) + p
    if fam == "F":
        return M * N + (M * N) ** q.ell + p
    if fam == "T":
        return M * N if q.r == 1 else M * N + (M * N) ** q.r
    if fam == "Q":
        return M * N + N**q.r + p
    return (M**q.k if q.k else 1) + N**q.ell + T**q.r + p * p  # R


def _r_combine(A: np.ndarray, B: np.ndarray, c: np.ndarray, p: int, powers=None) -> int:
    """sum over nonzero u, v of A[u] * B[v] * c[u v mod p], exact.  With
    c[x] = C[lam / x] that is the family-R combine of tallies A, B and C.

    Direct summation over the (u, v) where A and B are nonzero, in grids
    of kernels._pair_blocks.  powers is as in kernels._product_tally:
    when kernels._use_exponents of the number of such pairs, u = g**e and
    v = g**f are taken by their exponents, and each grid gathers
    c[g**(e + f)] from c over exponents written twice, with no remainder;
    otherwise each grid reduces u v mod p.  When A equals B the summand is
    symmetric in u and v, so each unordered pair is taken once and the
    off-diagonal blocks count twice.  Every entry is a nonnegative
    count, so sum(A) * sum(B) * sum(c) bounds every partial sum: int64
    when it fits, object arrays of Python ints otherwise.
    """
    symmetric = np.array_equal(A, B)
    wide = int(A.sum()) * int(B.sum()) * int(c.sum()) > _INT64_MAX
    us, vs = np.flatnonzero(A[1:]) + 1, np.flatnonzero(B[1:]) + 1
    exponents = powers is not None and kernels._use_exponents(us.size * vs.size, p)
    if exponents:
        P = powers()
        A, B, c = A[P], B[P], np.concatenate([c[P], c[P]])
        us, vs = np.flatnonzero(A), np.flatnonzero(B)
    if wide:
        A, B, c = A.astype(object), B.astype(object), c.astype(object)
    a, b = A[us], B[vs]
    value = 0
    blocks = kernels._pair_blocks(us.size, vs.size, _GRID_ENTRIES, symmetric)
    for weight, rows, cols in blocks:
        if exponents:
            uv = np.add.outer(us[rows], vs[cols])
        else:
            uv = np.multiply.outer(us[rows], vs[cols])
            uv %= p
        value += weight * int(np.dot(a[rows], np.dot(c[uv], b[cols])))
    return value


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


def brute_force_count(q: CountQuery) -> CountResult:
    """Exhaustive enumeration with early modular reduction.

    Each independent variable block is enumerated in full into a residue
    tally; tallies combine by direct summation over the defining
    congruence.  Where the last two levels of a tally hold the same
    residues (m! n! over one window, 2-fold products and all-plus sums)
    or are each other's negation (a 2-fold difference), and in R's combine
    when A equals B, each unordered pair is enumerated once, one symmetric
    block at a time (kernels._pair_blocks).  Products go over exponents
    as the module docstring says, through one checked power table
    (_power_table) built on first use.  SIGNED and J meet in the middle,
    as the module docstring says.  Exact; refused past
    field.BRUTE_TALLY_LIMIT on p before any tally, and past
    BRUTE_FORCE_GUARD on estimate_brute_work: the tuples the tallies
    enumerate plus the combine steps (J with ell costs N**ell + p, not
    N**(2 ell)).
    """
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
    fam = q.family
    values = _Inputs(q).values
    details = {}
    powers = functools.cache(lambda: _power_table(q.ctx))
    if fam in ("J", "SIGNED"):
        signs = (1,) * q.ell + (-1,) * q.ell if fam == "J" else q.signs
        h = -(-len(signs) // 2)
        head, tail = signs[:h], signs[h:]
        G1 = kernels.sum_tally(values("n"), head, p)
        if sorted(tail) == sorted(-s for s in head):  # J, +-, +-+- and the like
            G2 = np.roll(G1[::-1], 1)  # G2[y] = G1[-y]: the same sums negated
        elif tail:
            G2 = kernels.sum_tally(values("n"), tail, p)
        value = _convolution_at(G1, G2, q.lam) if tail else int(G1[q.lam])
    elif fam in ("F", "T"):
        reps = q.ell if fam == "F" else q.r
        if reps == 1:
            tally = kernels.pair_product_tally(values("m"), values("n"), p, powers)
        else:
            pairs = kernels.outer_residues(values("m"), values("n"), np.multiply, p)
            tally = kernels.sum_tally(pairs, (1,) * reps, p)
        value = _exact_dot(tally, tally) if fam == "F" else int(tally[q.lam])
    elif fam == "I":
        tally = kernels.prod_tally(values("n"), q.ell, p, powers)
        value = _exact_dot(tally, tally)
    elif fam == "Q":
        pair_tally = kernels.pair_product_tally(values("m"), values("n"), p, powers)
        fold_tally = kernels.sum_tally(values("n"), (1,) * q.r, p)
        value = _convolution_at(pair_tally, fold_tally, q.lam)
    else:  # R
        if q.k >= 1:
            A = kernels.sum_tally(values("m"), (1,) * q.k, p)
        else:
            A = np.zeros(p, dtype=np.int64)
            A[1] = 1
        B = kernels.sum_tally(values("n"), (1,) * q.ell, p)
        C = kernels.prod_tally(values("t"), q.r, p, powers)
        inv = kernels.inverse_table(values("full"), p)
        value = _r_combine(A, B, C[q.lam * inv % p], p, powers)
        details["dropped_zero_mass"] = _r_dropped_mass(q, int(A[0]), int(B[0]))
    return CountResult(
        query=q,
        count=int(value),
        engine="brute-force",
        seconds=time.perf_counter() - started,
        details=details,
    )


# ---------------------------------------------------------------------------
# selection and profiles


def count(q: CountQuery, engine: str = "auto") -> CountResult:
    """Count solutions with the requested engine.

    auto picks brute force below AUTO_BRUTE_THRESHOLD estimated steps and
    the convolution engine otherwise; both runs the two independently and
    raises EngineMismatchError when their counts or details (R's
    dropped_zero_mass) disagree.
    """
    q = q.resolved()
    if engine == "auto":
        use_brute = estimate_brute_work(q) < AUTO_BRUTE_THRESHOLD
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
        return CountResult(
            query=q,
            count=conv.count,
            engine="both",
            seconds=conv.seconds + brute.seconds,
            details=conv.details,
        )
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
