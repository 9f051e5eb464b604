"""Hot numeric loops, in numpy.

Each kernel is one vectorized numpy implementation.  The brute-force
tallies share one chunked outer operation, ``_outer_chunks``, so transient
memory stays near ``_NUMPY_CHUNK`` entries per step.  Its operands are
residues in [0, p).  A product chunk is reduced mod p in place; a sum
chunk is left unreduced in [0, 2p).  ``_tally`` counts the last level's
sums over 2p bins and folds the bins onto [0, p) once, and
``outer_residues`` reduces the sums it materializes.

When the last level of a tally holds the same residues as the level it
meets, every pair and its transpose land in the same bin, so each
unordered pair is enumerated once (``_pair_blocks``): the rows are cut
into blocks, each block's own square is tallied with weight 1 and the
pairs to its right with weight 2.  When the last level is the other's
negation (a difference x - y), the transpose lands in the negated bin
instead, and the weight-2 tally is added once as it is and once
mirrored.  Cross-block pairs cost half as much; the diagonal blocks add
about n * rows / 2 entries.  A block holds _ROW_BLOCK rows, or enough
rows that its pairs outnumber the bins each chunk is counted into, so a
short window at a large p does not pay a length-p bincount for every
_ROW_BLOCK rows.

All modular arithmetic here assumes the modulus fits in 31 bits, so that
intermediate products stay below 2**62 and int64 never overflows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GuardExceededError

__all__ = [
    "factorial_window",
    "dlog_table",
    "ntt_inplace",
    "outer_residues",
    "sum_tally",
    "prod_tally",
    "pair_product_tally",
    "inverse_table",
    "double_sum_direct",
]

# Tally levels that are materialized in full are capped; the last level is
# only ever held a chunk of _NUMPY_CHUNK entries at a time.
_NUMPY_MATERIALIZE_CAP = 60_000_000
_NUMPY_CHUNK = 4_000_000
# Rows per block, at least, when a level meets itself (see _pair_blocks):
# the diagonal blocks add about n * _ROW_BLOCK / 2 entries, and each block
# pays two chunks' fixed cost.  48 to 128 rows measured alike at p = 1009.
_ROW_BLOCK = 64
# Integers per chunk when reducing L! mod p, and exponents per row of the
# dlog table: transient memory stays a few hundred KiB.
_PRODUCT_CHUNK = 1 << 16
_DLOG_ROW = 1 << 14


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


def factorial_window(p: int, L: int, N: int) -> np.ndarray:
    """Residues of (L+1)!, ..., (L+N)! mod p as int64.

    A two-level blocked scan (Blelloch, CMU-CS-90-190): the factors
    L+1, ..., L+N fill a (B, s) block, one row per run of s consecutive
    factors.  The s columns are scanned in place, each step one vector
    product over all B rows; then a Python loop over the B row totals gives
    each row its offset, starting from L! mod p.  A column step costs far
    more than one iteration of that loop; s about sqrt(N / 8) measured
    fastest for N from 2e3 to 1e6.
    """
    p, L, N = int(p), int(L), int(N)
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


def dlog_table(p: int, g: int) -> np.ndarray:
    """Full index table of the cyclic group generated by g mod p.

    out[x] = e with g**e = x mod p, and out[0] = -1.

    g**(i*s + j) = (g**s)**i * g**j: one row of the s powers g**j, built by
    doubling, is scaled by (g**s)**i and scattered into out for each i.
    """
    p, g = int(p), int(g)
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


def ntt_inplace(a: np.ndarray, q: int, root: int, invert: bool = False) -> None:
    """In-place radix-2 number-theoretic transform mod q, stage-vectorized.

    len(a) must be a power of two and root a primitive len(a)-th root of
    unity mod q.  No path in the package calls it; perfbench/tracing.py
    wraps it by name.
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


def _pair_blocks(n: int, m: int, entries: int, symmetric: bool = False, bins: int = 0):
    """Yield (weight, rows, cols) slices that cover an n x m grid of pairs,
    at most `entries` cells per block (at least one row).

    Ordered: runs of whole rows, each with weight 1, so every pair once.
    Symmetric (n == m, both sides holding the same entries): rows are cut
    into blocks of max(_ROW_BLOCK, ceil(bins / n)) rows, where `bins` is
    the length of the histogram each chunk is counted into, so a block's
    pairs outnumber its bins.  Each block's own square comes with weight 1
    and the pairs to its right with weight 2, which stands for those
    pairs and their transposes.  Each unordered pair is then covered
    once.  When one block holds every row, that is the ordered pass.
    """
    if not symmetric:
        step = max(1, entries // max(1, m))
        for i in range(0, n, step):
            yield 1, slice(i, i + step), slice(0, m)
        return
    rows = max(_ROW_BLOCK, -(-bins // max(1, n)))
    step = max(1, min(rows, entries // max(1, n)))
    for i in range(0, n, step):
        j = min(n, i + step)
        yield 1, slice(i, j), slice(i, j)
        if j < n:
            yield 2, slice(i, j), slice(j, n)


def _outer_chunks(a: np.ndarray, b: np.ndarray, op, p: int, symmetric: bool = False):
    """Yield (weight, op(x, y)) for the blocks of _pair_blocks over a and b,
    each chunk flat and row-major.

    a and b hold residues in [0, p).  A product (np.multiply) is reduced
    mod p in place, into p bins; a sum (np.add) is left as it is, in
    [0, 2p), so 2p bins.  Each chunk holds about _NUMPY_CHUNK entries at
    most.  Ordered, every pair comes once with weight 1; symmetric, a
    weight-2 chunk stands for its pairs and their transposes.
    """
    bins = 2 * p if op is np.add else p
    blocks = _pair_blocks(a.size, b.size, _NUMPY_CHUNK, symmetric, bins)
    for weight, rows, cols in blocks:
        chunk = op(a[rows, None], b[cols])
        if op is not np.add:
            np.remainder(chunk, p, out=chunk)
        yield weight, chunk.ravel()


def outer_residues(a: np.ndarray, b: np.ndarray, op, p: int) -> np.ndarray:
    """All op(x, y) mod p for x, y residues in a, b, row-major, as one flat
    array in [0, p).

    Every ordered pair is kept, even when a and b are the same: later
    levels combine these entries one by one.  Raises GuardExceededError
    past _NUMPY_MATERIALIZE_CAP entries.
    """
    if a.size * b.size > _NUMPY_MATERIALIZE_CAP:
        raise GuardExceededError(
            f"a brute-force tally would materialize {a.size * b.size} "
            f"residues, above the materialization cap of {_NUMPY_MATERIALIZE_CAP}"
        )
    out = np.concatenate([a[:0], *(chunk for _, chunk in _outer_chunks(a, b, op, p))])
    if op is np.add:
        np.remainder(out, p, out=out)
    return out


def _tally(levels: list[np.ndarray], op, p: int) -> np.ndarray:
    """Histogram mod p of op folded over one entry of each level, all tuples.

    Every level holds residues in [0, p).  Every level but the last is
    folded in full by outer_residues; the last is tallied one chunk at a
    time.  Its sums lie in [0, 2p), so they are counted over 2p bins, and
    bin p + x is added to bin x once at the end.  When the last level
    equals the fold so far, or (for sums) is its negation, each unordered
    pair is tallied once: the weight-2 counts are added twice, or once as
    they are and once at the negated residue.
    """
    acc = levels[0]
    for level in levels[1:-1]:
        acc = outer_residues(acc, level, op, p)
    if len(levels) == 1:
        return np.bincount(acc, minlength=p)
    last = levels[-1]
    same = np.array_equal(acc, last)
    mirrored = not same and op is np.add and np.array_equal(acc, (p - last) % p)
    bins = 2 * p if op is np.add else p
    # counts[w] sums the bincounts of the weight-w chunks; the first one
    # is the accumulator, so no zeroed length-bins array is allocated
    counts = [None, None, None]
    for weight, chunk in _outer_chunks(acc, last, op, p, same or mirrored):
        c = np.bincount(chunk, minlength=bins)
        if counts[weight] is None:
            counts[weight] = c
        else:
            counts[weight] += c
    once, twice = (c if c is None or bins == p else c[:p] + c[p:] for c in counts[1:])
    if once is None:  # an empty level: no pairs
        return np.zeros(p, dtype=np.int64)
    if twice is not None:
        once += twice
        if mirrored:
            # the transpose of x + (p - y) is y + (p - x): the residue negated
            once[0] += twice[0]
            once[1:] += twice[:0:-1]
        else:
            once += twice
    return once


def sum_tally(vals: np.ndarray, k: int, signs, p: int) -> np.ndarray:
    """Histogram of all sign-weighted k-fold sums of entries of vals mod p."""
    vals = np.asarray(vals, dtype=np.int64)
    signs = np.asarray(signs, dtype=np.int64)
    p = int(p)
    return _tally([s * vals % p for s in signs[: int(k)]], np.add, p)


def prod_tally(vals: np.ndarray, k: int, p: int) -> np.ndarray:
    """Histogram of all k-fold products of entries of vals mod p."""
    p = int(p)
    return _tally([np.asarray(vals, dtype=np.int64) % p] * int(k), np.multiply, p)


def pair_product_tally(va: np.ndarray, vb: np.ndarray, p: int) -> np.ndarray:
    """Histogram of x*y mod p over all pairs from two value lists."""
    va = np.asarray(va, dtype=np.int64)
    vb = np.asarray(vb, dtype=np.int64)
    return _tally([va, vb], np.multiply, int(p))


def inverse_table(full: np.ndarray, p: int) -> np.ndarray:
    """Modular inverses of 1..p-1 (entry 0 unused), by batch inversion.

    full holds the full factorial window 1!, ..., (p-1)! mod p.  Wilson's
    theorem gives 1/x = (x-1)! * (-1)**(p-x) * (p-1-x)! mod p, so that
    window yields every inverse.
    """
    p = int(p)
    inv = np.zeros(p, dtype=np.int64)
    fact = np.ones(p - 1, dtype=np.int64)
    fact[1:] = full[: p - 2]
    np.multiply(fact, fact[::-1], out=inv[1:])
    np.remainder(inv[1:], p, out=inv[1:])
    inv[2::2] = p - inv[2::2]
    return inv


def double_sum_direct(
    va: np.ndarray, vb: np.ndarray, a: int, roots: np.ndarray, p: int
) -> complex:
    """Sum of roots[a*x*y mod p] over all pairs, evaluated pair by pair.

    A direct reference for the histogram-based double sums, so it goes
    through no tally.
    """
    va = np.asarray(va, dtype=np.int64)
    vb = np.asarray(vb, dtype=np.int64)
    p = int(p)
    acc = 0.0 + 0.0j
    for _, idx in _outer_chunks(int(a) * va % p, vb, np.multiply, p):
        acc += roots[idx].sum()
    return complex(acc)
