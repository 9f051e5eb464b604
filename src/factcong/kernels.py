"""Hot numeric loops, in numpy.

Each kernel is one vectorized numpy implementation.  A brute-force tally
histograms a sum or a product mod p over every tuple that takes one
entry from each level.  Each level is tallied by enumeration, one
bincount of its residues, and the tallies of a sum meet by direct
summation over every pair of bins (``_direct_cyclic``): the cyclic
convolution of two histograms is ``np.convolve``, a plain sum of
products with no transform, folded once onto p bins.  Every product and
partial sum of two count vectors is an integer at most sum(a) * sum(b),
so below 2**53 float64 holds each one exactly and nothing rounds; int64
and then Python ints take larger sums.  np.convolve shares no code with
the convolution engine's FFT (``factcong.transform``).  Over b bins
a convolution costs b**2 multiply-adds, so ``_use_direct`` takes it once
the pairs that enumeration would tally reach b**2 / _DIRECT_PAIR_COST;
short windows at a large p enumerate their pairs instead.

Enumerated, the tallies share one chunked outer operation,
``_outer_chunks``, so transient memory stays near ``_NUMPY_CHUNK``
entries per step.  Its operands are residues in [0, p).  A product chunk
is reduced mod p in place; a sum chunk is left unreduced in [0, 2p).
``_tally`` counts the last level's sums over 2p bins and folds the bins
onto [0, p) once, and ``outer_residues`` reduces the sums it
materializes.

Product tallies of two levels or more go over exponents when the caller
hands them a power table and ``_use_exponents`` says the tuples repay it
(``_product_tally``).  Every nonzero residue is g**e for a generator g,
so a product of entries is g to the sum of their exponents: the tally is
``_tally`` of the exponents with np.add mod p - 1 (met directly, or
enumerated with one add and one fold and no remainder per entry),
scattered back to residues through the table.  Zero entries drop out,
and bin 0 gets the tuples that hold one.  The table comes from
``power_table``, the same blocked scan as ``dlog_table``; the caller
checks it before it hands it over.  Fewer tuples than about 128 p, a
prime past 2**18, a single level and ``outer_residues`` stay over
residues: there the table costs more than it saves.

When the two levels of an enumerated tally hold the same entries, every
pair and its transpose land in the same bin, so each unordered pair is
enumerated once (``_pair_blocks``): the rows are cut into blocks, each
block's own square is tallied with weight 1 and the pairs to its right
with weight 2.  This holds over residues and over exponents alike.  When
one level is the other's negation (a difference x - y), the transpose
lands in the negated bin instead, and the weight-2 tally is added once
as it is and once mirrored.  Cross-block pairs cost half as much; the
diagonal blocks add about n * rows / 2 entries.  A block holds
_ROW_BLOCK rows, or enough rows that its pairs outnumber the bins each
chunk is counted into, so a short window at a large p does not pay a
length-p bincount for every _ROW_BLOCK rows.

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
    "power_table",
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
# A product goes over exponents (_use_exponents) once it enumerates at
# least _EXPONENT_PAIRS_PER_P * p pairs, and only for p below
# _EXPONENT_MAX_P.  The power table costs O(p) and some fifty numpy calls
# to build, check and invert, against a few ns saved per pair.  Timed with
# the table, the exponent path broke even near 128 p pairs at p = 211 and
# between 8 p and 64 p from 1009 to 300007; at 1000003 a symmetric pair
# tally was still slower at 128 p, its 2(p - 1) count bins out of cache.
_EXPONENT_PAIRS_PER_P = 128
_EXPONENT_MAX_P = 1 << 18
# A tally of two levels or more meets by direct convolution (_use_direct)
# once the pairs that enumeration would tally per convolution, each
# unordered pair once where a level meets itself, reach bins**2 /
# _DIRECT_PAIR_COST: an enumerated pair costs about as much as that many
# float64 multiply-adds of np.convolve (0.13 to 0.26 ns each).  Timed on
# 2 CPUs at p from 1009 to 30011, the two broke even between 16 and 24
# bins**2 per pair for sum and pair tallies, and between 8 and 14 for the
# family-R grids, which do less per pair.
_DIRECT_PAIR_COST = 12
# float64 holds every integer below 2**53, and int64 every one below 2**63.
_FLOAT_EXACT = 1 << 53
_INT64_EXACT = 1 << 63


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


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x mod p in place, as x - (x // p) * p, through scratch, an array of
    x's shape that the caller no longer needs: under numpy 2.4 that takes
    about half the time of np.remainder by a scalar, and allocates
    nothing."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


def factorial_window(p: int, L: int, N: int) -> np.ndarray:
    """Residues of (L+1)!, ..., (L+N)! mod p as int64.

    A two-level blocked scan (Blelloch, CMU-CS-90-190): the factors
    L+1, ..., L+N fill an (s, B) block, one column per run of s factors,
    whose s rows are scanned in place; a Python loop over the B run totals
    gives each run its offset from L! mod p, and the offset product writes
    the runs out in order, reduced with the block as scratch (_reduce).
    Factors go unreduced: only padding past L+N < p reaches p.  Each
    factor times a residue, or the factor before it, must stay below
    2**63.  s ~ sqrt(N / 8) measured fastest.
    """
    p, L, N = int(p), int(L), int(N)
    s = math.isqrt(N // 8) + 1
    B = -(-N // s)
    m = np.empty((s, B), dtype=np.int64)
    first = np.arange(L + 1, L + 1 + B * s, s, dtype=np.int64)
    np.add(first, np.arange(s, dtype=np.int64)[:, None], out=m)
    for j in range(1, s):
        row = m[j]
        np.multiply(row, m[j - 1], out=row)
        np.remainder(row, p, out=row)
    offsets = []
    f = _product_range(1, L + 1, p)
    for total in m[-1].tolist():
        offsets.append(f)
        f = f * total % p
    out = np.empty((B, s), dtype=np.int64)
    np.multiply(m.T, np.array(offsets, dtype=np.int64)[:, None], out=out)
    _reduce(out, p, m.reshape(B, s))
    return out.reshape(-1)[:N]


def _power_rows(p: int, g: int):
    """Yield (start, row), row[j] = g**(start + j) mod p, for the rows of
    _DLOG_ROW exponents that cover [0, p - 1); each row is the same buffer.

    g**(i*s + j) = (g**s)**i * g**j: one row of the s powers g**j, built by
    doubling, is scaled by (g**s)**i for each i.
    """
    p, g = int(p), int(g)
    n = p - 1
    s = min(n, _DLOG_ROW)
    powers = np.ones(s, dtype=np.int64)
    k = 1
    while k < s:
        m = min(k, s - k)
        np.multiply(powers[:m], pow(g, k, p), out=powers[k : k + m])
        np.remainder(powers[k : k + m], p, out=powers[k : k + m])
        k += m
    step = pow(g, s, p)
    row = np.empty(s, dtype=np.int64)
    scale = 1
    for start in range(0, n, s):
        k = min(s, n - start)
        np.multiply(powers[:k], scale, out=row[:k])
        np.remainder(row[:k], p, out=row[:k])
        yield start, row[:k]
        scale = scale * step % p


def dlog_table(p: int, g: int) -> np.ndarray:
    """Full index table of the cyclic group generated by g mod p.

    out[x] = e with g**e = x mod p, and out[0] = -1.  Each row of powers
    is scattered into out as it is made, so memory stays one table.
    """
    out = np.full(int(p), -1, dtype=np.int64)
    for start, row in _power_rows(p, g):
        out[row] = np.arange(start, start + row.size, dtype=np.int64)
    return out


def power_table(p: int, g: int) -> np.ndarray:
    """out[e] = g**e mod p for e in [0, p - 1): the inverse of dlog_table,
    by the same blocked scan."""
    out = np.empty(int(p) - 1, dtype=np.int64)
    for start, row in _power_rows(p, g):
        out[start : start + row.size] = row
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


def _use_direct(bins: int, pairs: int) -> bool:
    """Whether tallies over `bins` bins, which enumeration would meet in
    `pairs` pairs per convolution (each unordered pair once where a level
    meets itself), meet by _direct_cyclic instead.  The one rule for
    _tally and counting._r_combine."""
    return bins * bins <= _DIRECT_PAIR_COST * pairs


def _direct_cyclic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cyclic convolution of two count vectors of one length, exact:
    out[s] = sum of a[i] * b[j] over i + j = s mod len(a).

    np.convolve sums every product directly, with no transform, and the
    linear result is folded once onto len(a) bins.  Every entry is a
    nonnegative integer, so every product and every partial sum is at most
    sum(a) * sum(b): below 2**53 each is an integer that float64 holds
    exactly, whatever the order of summation, so nothing rounds; below
    2**63 the sums go in int64, and past that in object arrays of Python
    ints.
    """
    total = int(a.sum()) * int(b.sum())
    if total < _FLOAT_EXACT:
        full = np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    else:
        dtype = np.int64 if total < _INT64_EXACT else object
        full = np.convolve(a.astype(dtype), b.astype(dtype))
    n = a.size
    out = full[:n]
    out[: n - 1] += full[n:]
    return out


def _tally(levels: list[np.ndarray], op, p: int) -> np.ndarray:
    """Histogram mod p of op folded over one entry of each level, all tuples.

    Every level holds residues in [0, p).  Two levels meet themselves when
    they are equal, or (for sums) one is the other's negation; then each
    unordered pair is enumerated once.  A sum of two levels or more, when
    _use_direct of the pairs enumerated per convolution says so,
    bincounts each level and folds the histograms by direct convolutions
    (_direct_cyclic), which sum over every pair of bins.  Otherwise the
    tuples are enumerated: every level but the last is folded in full by
    outer_residues; the last is tallied one chunk at a time.  Its sums lie
    in [0, 2p), so they are counted over 2p bins, and bin p + x is added
    to bin x once at the end.  Two levels that meet themselves are
    tallied in symmetric blocks: the weight-2 counts are added twice, or
    once as they are and once at the negated residue.
    """
    if len(levels) == 1:
        return np.bincount(levels[0], minlength=p)
    first, last = levels[0], levels[-1]
    two = len(levels) == 2
    same = two and np.array_equal(first, last)
    mirrored = two and not same and op is np.add and np.array_equal(first, (p - last) % p)
    pairs = math.prod(level.size for level in levels) // (len(levels) - 1)
    if op is np.add and _use_direct(p, pairs // 2 if same or mirrored else pairs):
        acc = np.bincount(first, minlength=p)
        for level in levels[1:]:
            acc = _direct_cyclic(acc, np.bincount(level, minlength=p))
        return acc
    acc = first
    for level in levels[1:-1]:
        acc = outer_residues(acc, level, op, p)
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
        # mirrored, the transpose of x + (p - y) is y + (p - x): negated
        once += np.roll(twice[::-1], 1) if mirrored else twice
    return once


def sum_tally(vals: np.ndarray, signs, p: int) -> np.ndarray:
    """Histogram of all sums of signs[i] * x_i mod p, one entry x_i of vals
    per sign.  No signs is the empty sum: one tuple, at 0."""
    vals = np.asarray(vals, dtype=np.int64)
    signs = np.asarray(signs, dtype=np.int64)
    p = int(p)
    if not signs.size:
        return np.bincount([0], minlength=p)
    return _tally([s * vals % p for s in signs], np.add, p)


def _use_exponents(pairs: int, p: int) -> bool:
    """Whether a product mod p that enumerates `pairs` pairs (or tuples)
    takes a power table and goes over exponents.  The one rule for
    _product_tally and counting._r_combine."""
    return p < _EXPONENT_MAX_P and pairs >= _EXPONENT_PAIRS_PER_P * p


def _product_tally(levels: list[np.ndarray], p: int, powers=None) -> np.ndarray:
    """Histogram mod p of the product of one entry of each level, all tuples.

    powers, when set, is a zero-argument callable that returns a checked
    power table P, P[e] = g**e mod p.  It is called only for two levels or
    more, when _use_exponents(tuples, p).  Then the exponents of the nonzero
    entries are tallied as sums mod p - 1, out[P] maps the counts back to
    residues, and bin 0 gets the tuples that hold a zero.  Otherwise the
    products are tallied over residues.
    """
    tuples = math.prod(level.size for level in levels)
    if powers is None or len(levels) < 2 or not _use_exponents(tuples, p):
        return _tally(levels, np.multiply, p)
    P = powers()
    logs = np.empty(p, dtype=np.int64)
    logs[P] = np.arange(p - 1, dtype=np.int64)
    exponents = [logs[level[level != 0]] for level in levels]
    del logs  # a length-p table the tally below does not need
    out = np.empty(p, dtype=np.int64)
    out[P] = _tally(exponents, np.add, p - 1)
    out[0] = tuples - math.prod(e.size for e in exponents)
    return out


def prod_tally(vals: np.ndarray, k: int, p: int, powers=None) -> np.ndarray:
    """Histogram of all k-fold products of entries of vals mod p; over
    exponents when _product_tally says so."""
    p = int(p)
    return _product_tally([np.asarray(vals, dtype=np.int64) % p] * int(k), p, powers)


def pair_product_tally(va: np.ndarray, vb: np.ndarray, p: int, powers=None) -> np.ndarray:
    """Histogram of x*y mod p over all pairs from two value lists; over
    exponents when _product_tally says so."""
    va = np.asarray(va, dtype=np.int64)
    vb = np.asarray(vb, dtype=np.int64)
    return _product_tally([va, vb], int(p), powers)


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
    _reduce(inv[1:], p, fact)
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
