"""Hot numeric loops, each with a numba build and a pure numpy fallback.

Every kernel exists in two semantically identical flavors collected in
``IMPLEMENTATIONS``.  The active backend is picked at import time: numba
when it is importable, unless the ``FACTCONG_BACKEND`` environment variable
forces ``numba`` or ``numpy``.  ``use_backend`` switches at runtime.

All modular arithmetic here assumes the modulus fits in 31 bits so that
intermediate products stay below 2**62 and int64 never overflows.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .errors import GuardExceededError, ParameterError

__all__ = [
    "HAS_NUMBA",
    "IMPLEMENTATIONS",
    "active_backend",
    "use_backend",
    "factorial_window",
    "dlog_table",
    "ntt_inplace",
    "sum_tally",
    "prod_tally",
    "pair_product_tally",
    "inverse_table",
    "double_sum_direct",
]

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

# Materialized intermediates in the numpy fallback are capped; the numba
# flavor enumerates in O(1) extra space and has no such ceiling.
_NUMPY_MATERIALIZE_CAP = 60_000_000
_NUMPY_CHUNK = 4_000_000
# Integers per chunk when the numpy flavor reduces L! mod p, and exponents
# per row of its dlog table: transient memory stays a few hundred KiB.
_PRODUCT_CHUNK = 1 << 16
_DLOG_ROW = 1 << 14


# ---------------------------------------------------------------------------
# pure numpy flavor


def _product_range(lo: int, hi: int, p: int) -> int:
    """Product of the integers in [lo, hi) mod p.

    Each chunk of _PRODUCT_CHUNK integers is halved by pairwise products
    until one residue is left, so memory stays flat however long the range.
    """
    f = 1 % p
    for start in range(lo, hi, _PRODUCT_CHUNK):
        a = np.arange(start, min(hi, start + _PRODUCT_CHUNK), dtype=np.int64) % p
        while a.size > 1:
            h = a.size // 2
            b = a[:h] * a[h : 2 * h] % p
            if a.size & 1:
                b[0] = b[0] * a[-1] % p
            a = b
        f = f * int(a[0]) % p
    return f


def _factorial_window_np(p: int, L: int, N: int) -> np.ndarray:
    """Residues of (L+1)!, ..., (L+N)! mod p.

    A two-level blocked scan (Blelloch, CMU-CS-90-190): the factors
    L+1, ..., L+N fill a (B, s) block, one row per run of s consecutive
    factors.  The s columns are scanned in place, each step one vector
    product over all B rows; then a Python loop over the B row totals gives
    each row its offset, starting from L! mod p.  A column step costs far
    more than one iteration of that loop; s about sqrt(N / 8) measured
    fastest for N from 2e3 to 1e6.
    """
    s = math.isqrt(N // 8) + 1
    B = -(-N // s)
    buf = np.empty(B * s, dtype=np.int64)
    m = buf.reshape(B, s)
    first = np.arange(L + 1, L + 1 + B * s, s, dtype=np.int64)
    np.add(first[:, None], np.arange(s, dtype=np.int64), out=m)
    np.remainder(m, p, out=m)
    for j in range(1, s):
        col = m[:, j]
        np.multiply(col, m[:, j - 1], out=col)
        np.remainder(col, p, out=col)
    offsets = []
    f = _product_range(1, L + 1, p)
    for total in m[:, -1].tolist():
        offsets.append(f)
        f = f * total % p
    np.multiply(m, np.array(offsets, dtype=np.int64)[:, None], out=m)
    np.remainder(m, p, out=m)
    return buf[:N]


def _dlog_table_np(p: int, g: int) -> np.ndarray:
    """Index table: out[x] = e with g**e = x mod p, out[0] = -1.

    g**(i*s + j) = (g**s)**i * g**j: one row of the s powers g**j, built by
    doubling, is scaled by (g**s)**i and scattered into out for each i.
    """
    n = p - 1
    out = np.full(p, -1, dtype=np.int64)
    s = min(n, _DLOG_ROW)
    powers = np.ones(s, dtype=np.int64)
    k = 1
    while k < s:
        m = min(k, s - k)
        np.multiply(powers[:m], pow(g, k, p), out=powers[k : k + m])
        np.remainder(powers[k : k + m], p, out=powers[k : k + m])
        k += m
    step = pow(g, s, p)
    exponents = np.arange(s, dtype=np.int64)
    row = np.empty(s, dtype=np.int64)
    scale = 1
    for start in range(0, n, s):
        k = min(s, n - start)
        np.multiply(powers[:k], scale, out=row[:k])
        np.remainder(row[:k], p, out=row[:k])
        out[row[:k]] = exponents[:k] + start
        scale = scale * step % p
    return out


def _ntt_np(a: np.ndarray, q: int, root: int, invert: bool) -> None:
    """In-place radix-2 transform mod q, stage-vectorized over blocks.

    len(a) must be a power of two and root a primitive len(a)-th root of
    unity mod q.
    """
    n = a.shape[0]
    if n == 1:
        return
    qi = int(q)
    k = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(k):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    a[:] = a[rev]
    ln = 2
    while ln <= n:
        half = ln >> 1
        w_ln = pow(int(root), n // ln, qi)
        if invert:
            w_ln = pow(w_ln, qi - 2, qi)
        w = np.ones(1, dtype=np.int64)
        while w.shape[0] < half:
            m = w.shape[0]
            w = np.concatenate([w, w * pow(w_ln, m, qi) % qi])
        w = w[:half]
        blocks = a.reshape(-1, ln)
        u = blocks[:, :half].copy()
        v = blocks[:, half:] * w % qi
        s = u + v
        s[s >= qi] -= qi
        d = u - v
        d[d < 0] += qi
        blocks[:, :half] = s
        blocks[:, half:] = d
        ln <<= 1
    if invert:
        n_inv = pow(int(n), qi - 2, qi)
        a[:] = a * n_inv % qi


def _sum_tally_np(vals: np.ndarray, k: int, signs: np.ndarray, p: int) -> np.ndarray:
    """Tally of sign-weighted k-fold sums over every index tuple.

    Materializes the partial-sum grid level by level, chunking the last
    level so peak memory stays near len(vals)**(k-1).
    """
    acc = (signs[0] * vals) % p
    for j in range(1, k - 1):
        if acc.size * vals.size > _NUMPY_MATERIALIZE_CAP:
            raise GuardExceededError(
                "numpy tally backend would materialize more than "
                f"{_NUMPY_MATERIALIZE_CAP} partial sums; use the numba backend"
            )
        acc = ((acc[:, None] + (signs[j] * vals) % p) % p).ravel()
    if k == 1:
        return np.bincount(acc, minlength=p)
    last = (signs[k - 1] * vals) % p
    out = np.zeros(p, dtype=np.int64)
    step = max(1, _NUMPY_CHUNK // max(1, last.size))
    for i in range(0, acc.size, step):
        grid = (acc[i : i + step, None] + last[None, :]) % p
        out += np.bincount(grid.ravel(), minlength=p)
    return out


def _prod_tally_np(vals: np.ndarray, k: int, p: int) -> np.ndarray:
    """Tally of k-fold products over every index tuple."""
    acc = vals % p
    for j in range(1, k - 1):
        if acc.size * vals.size > _NUMPY_MATERIALIZE_CAP:
            raise GuardExceededError(
                "numpy tally backend would materialize more than "
                f"{_NUMPY_MATERIALIZE_CAP} partial products; use the numba backend"
            )
        acc = ((acc[:, None] * vals) % p).ravel()
    if k == 1:
        return np.bincount(acc, minlength=p)
    out = np.zeros(p, dtype=np.int64)
    step = max(1, _NUMPY_CHUNK // max(1, vals.size))
    for i in range(0, acc.size, step):
        grid = (acc[i : i + step, None] * vals[None, :]) % p
        out += np.bincount(grid.ravel(), minlength=p)
    return out


def _pair_product_tally_np(va: np.ndarray, vb: np.ndarray, p: int) -> np.ndarray:
    """Tally of x*y mod p over the full cartesian product of two value lists."""
    out = np.zeros(p, dtype=np.int64)
    step = max(1, _NUMPY_CHUNK // max(1, vb.size))
    for i in range(0, va.size, step):
        grid = (va[i : i + step, None] * vb[None, :]) % p
        out += np.bincount(grid.ravel(), minlength=p)
    return out


def _inverse_table_np(p: int) -> np.ndarray:
    """Modular inverses 1..p-1 by batch inversion through factorials.

    Wilson's theorem gives 1/x = (x-1)! * (-1)**(p-x) * (p-1-x)! mod p, so
    one factorial window of length p-2 yields every inverse.
    """
    inv = np.zeros(p, dtype=np.int64)
    fact = np.ones(p - 1, dtype=np.int64)
    if p > 2:
        fact[1:] = _factorial_window_np(p, 0, p - 2)
    np.multiply(fact, fact[::-1], out=inv[1:])
    np.remainder(inv[1:], p, out=inv[1:])
    inv[2::2] = p - inv[2::2]
    return inv


def _double_sum_direct_np(
    va: np.ndarray, vb: np.ndarray, a: int, roots: np.ndarray, p: int
) -> complex:
    """Direct O(len(va)*len(vb)) phase sum over all value pairs."""
    acc = 0.0 + 0.0j
    step = max(1, _NUMPY_CHUNK // max(1, vb.size))
    scaled = (a * va) % p
    for i in range(0, scaled.size, step):
        idx = (scaled[i : i + step, None] * vb[None, :]) % p
        acc += roots[idx].sum()
    return acc


_NUMPY_IMPL = {
    "factorial_window": _factorial_window_np,
    "dlog_table": _dlog_table_np,
    "ntt_inplace": _ntt_np,
    "sum_tally": _sum_tally_np,
    "prod_tally": _prod_tally_np,
    "pair_product_tally": _pair_product_tally_np,
    "inverse_table": _inverse_table_np,
    "double_sum_direct": _double_sum_direct_np,
}

IMPLEMENTATIONS = {"numpy": _NUMPY_IMPL}


# ---------------------------------------------------------------------------
# numba flavor

if HAS_NUMBA:

    @njit(cache=True)
    def _factorial_window_nb(p, L, N):  # pragma: no cover - compiled
        out = np.empty(N, dtype=np.int64)
        f = 1
        for n in range(1, L + 1):
            f = f * n % p
        for i in range(N):
            f = f * (L + 1 + i) % p
            out[i] = f
        return out

    @njit(cache=True)
    def _dlog_table_nb(p, g):  # pragma: no cover - compiled
        out = np.full(p, -1, dtype=np.int64)
        acc = 1
        out[1] = 0
        for e in range(1, p - 1):
            acc = acc * g % p
            out[acc] = e
        return out

    @njit(cache=True)
    def _modpow_nb(b, e, q):  # pragma: no cover - compiled
        r = 1
        b = b % q
        while e > 0:
            if e & 1:
                r = r * b % q
            b = b * b % q
            e >>= 1
        return r

    @njit(cache=True)
    def _ntt_nb(a, q, root, invert):  # pragma: no cover - compiled
        n = a.shape[0]
        if n == 1:
            return
        j = 0
        for i in range(1, n):
            bit = n >> 1
            while j & bit:
                j ^= bit
                bit >>= 1
            j |= bit
            if i < j:
                t = a[i]
                a[i] = a[j]
                a[j] = t
        ln = 2
        while ln <= n:
            w_ln = _modpow_nb(root, n // ln, q)
            if invert:
                w_ln = _modpow_nb(w_ln, q - 2, q)
            half = ln >> 1
            for start in range(0, n, ln):
                w = 1
                for i in range(start, start + half):
                    u = a[i]
                    v = a[i + half] * w % q
                    s = u + v
                    if s >= q:
                        s -= q
                    d = u - v
                    if d < 0:
                        d += q
                    a[i] = s
                    a[i + half] = d
                    w = w * w_ln % q
            ln <<= 1
        if invert:
            n_inv = _modpow_nb(n, q - 2, q)
            for i in range(n):
                a[i] = a[i] * n_inv % q

    @njit(cache=True)
    def _sum_tally_nb(vals, k, signs, p):  # pragma: no cover - compiled
        n = vals.shape[0]
        out = np.zeros(p, dtype=np.int64)
        idx = np.zeros(k, dtype=np.int64)
        part = np.zeros(k + 1, dtype=np.int64)
        for j in range(k):
            part[j + 1] = (part[j] + signs[j] * vals[0]) % p
        while True:
            out[part[k]] += 1
            lvl = k - 1
            while lvl >= 0:
                idx[lvl] += 1
                if idx[lvl] < n:
                    break
                idx[lvl] = 0
                lvl -= 1
            if lvl < 0:
                break
            for j in range(lvl, k):
                part[j + 1] = (part[j] + signs[j] * vals[idx[j]]) % p
        return out

    @njit(cache=True)
    def _prod_tally_nb(vals, k, p):  # pragma: no cover - compiled
        n = vals.shape[0]
        out = np.zeros(p, dtype=np.int64)
        idx = np.zeros(k, dtype=np.int64)
        part = np.ones(k + 1, dtype=np.int64)
        for j in range(k):
            part[j + 1] = part[j] * vals[0] % p
        while True:
            out[part[k]] += 1
            lvl = k - 1
            while lvl >= 0:
                idx[lvl] += 1
                if idx[lvl] < n:
                    break
                idx[lvl] = 0
                lvl -= 1
            if lvl < 0:
                break
            for j in range(lvl, k):
                part[j + 1] = part[j] * vals[idx[j]] % p
        return out

    @njit(cache=True)
    def _pair_product_tally_nb(va, vb, p):  # pragma: no cover - compiled
        out = np.zeros(p, dtype=np.int64)
        for i in range(va.shape[0]):
            x = va[i]
            for j in range(vb.shape[0]):
                out[x * vb[j] % p] += 1
        return out

    @njit(cache=True)
    def _inverse_table_nb(p):  # pragma: no cover - compiled
        inv = np.zeros(p, dtype=np.int64)
        if p > 1:
            inv[1] = 1
        for x in range(2, p):
            inv[x] = (p - (p // x) * inv[p % x] % p) % p
        return inv

    @njit(cache=True)
    def _double_sum_direct_nb(va, vb, a, roots, p):  # pragma: no cover - compiled
        acc = 0.0 + 0.0j
        for i in range(va.shape[0]):
            x = a * va[i] % p
            for j in range(vb.shape[0]):
                acc = acc + roots[x * vb[j] % p]
        return acc

    IMPLEMENTATIONS["numba"] = {
        "factorial_window": _factorial_window_nb,
        "dlog_table": _dlog_table_nb,
        "ntt_inplace": _ntt_nb,
        "sum_tally": _sum_tally_nb,
        "prod_tally": _prod_tally_nb,
        "pair_product_tally": _pair_product_tally_nb,
        "inverse_table": _inverse_table_nb,
        "double_sum_direct": _double_sum_direct_nb,
    }


# ---------------------------------------------------------------------------
# backend selection


def _initial_backend() -> str:
    forced = os.environ.get("FACTCONG_BACKEND", "").strip().lower()
    if forced == "numpy":
        return "numpy"
    if forced == "numba":
        if HAS_NUMBA:
            return "numba"
        warnings.warn(
            "FACTCONG_BACKEND=numba requested but numba is not importable; "
            "falling back to numpy",
            RuntimeWarning,
            stacklevel=3,
        )
        return "numpy"
    if forced and forced not in ("numba", "numpy"):
        warnings.warn(
            f"unknown FACTCONG_BACKEND={forced!r}; choosing automatically",
            RuntimeWarning,
            stacklevel=3,
        )
    return "numba" if HAS_NUMBA else "numpy"


_ACTIVE = _initial_backend()
_IMPL = IMPLEMENTATIONS[_ACTIVE]


def active_backend() -> str:
    return _ACTIVE


def use_backend(name: str) -> None:
    """Switch the active kernel backend ("numba" or "numpy")."""
    global _ACTIVE, _IMPL
    if name not in IMPLEMENTATIONS:
        raise ParameterError(
            f"unknown backend {name!r}; available: {sorted(IMPLEMENTATIONS)}"
        )
    _ACTIVE = name
    _IMPL = IMPLEMENTATIONS[name]


# ---------------------------------------------------------------------------
# dispatching wrappers


def factorial_window(p: int, L: int, N: int) -> np.ndarray:
    """Residues of (L+1)! ... (L+N)! mod p as int64."""
    return _IMPL["factorial_window"](int(p), int(L), int(N))


def dlog_table(p: int, g: int) -> np.ndarray:
    """Full index table for the cyclic group generated by g mod p."""
    return _IMPL["dlog_table"](int(p), int(g))


def ntt_inplace(a: np.ndarray, q: int, root: int, invert: bool = False) -> None:
    """In-place number-theoretic transform of an int64 power-of-two array.

    No path in the package calls it; perfbench/tracing.py wraps it by name.
    """
    _IMPL["ntt_inplace"](a, int(q), int(root), bool(invert))


def sum_tally(vals: np.ndarray, k: int, signs, p: int) -> np.ndarray:
    """Histogram of all sign-weighted k-fold sums of entries of vals mod p."""
    vals = np.ascontiguousarray(vals, dtype=np.int64)
    signs = np.ascontiguousarray(signs, dtype=np.int64)
    return _IMPL["sum_tally"](vals, int(k), signs, int(p))


def prod_tally(vals: np.ndarray, k: int, p: int) -> np.ndarray:
    """Histogram of all k-fold products of entries of vals mod p."""
    vals = np.ascontiguousarray(vals, dtype=np.int64)
    return _IMPL["prod_tally"](vals, int(k), int(p))


def pair_product_tally(va: np.ndarray, vb: np.ndarray, p: int) -> np.ndarray:
    """Histogram of x*y mod p over all pairs from two value lists."""
    va = np.ascontiguousarray(va, dtype=np.int64)
    vb = np.ascontiguousarray(vb, dtype=np.int64)
    return _IMPL["pair_product_tally"](va, vb, int(p))


def inverse_table(p: int) -> np.ndarray:
    """Table of modular inverses for 1..p-1 (entry 0 unused)."""
    return _IMPL["inverse_table"](int(p))


def double_sum_direct(
    va: np.ndarray, vb: np.ndarray, a: int, roots: np.ndarray, p: int
) -> complex:
    """Sum of roots[a*x*y mod p] over all pairs, evaluated pair by pair."""
    va = np.ascontiguousarray(va, dtype=np.int64)
    vb = np.ascontiguousarray(vb, dtype=np.int64)
    return complex(_IMPL["double_sum_direct"](va, vb, int(a), roots, int(p)))
