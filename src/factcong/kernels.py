"""Hot numeric loops, in numpy.

Each kernel is one vectorized numpy implementation.  A brute-force tally
histograms a sum or a product mod p over every tuple that takes one
entry from each level, and every level is a histogram, a length-p count
vector.  One kernel, ``meet``, meets two histograms under + or x, and
the tallies fold their levels through it (``fold``: equal levels by
squaring).  A meet takes one of three paths:

- A sum meets by ``_direct_cyclic`` once ``_use_direct`` says so: the
  cyclic convolution of two histograms is ``np.convolve``, a plain sum of
  products with no transform (it shares no code with the convolution
  engine's FFT in ``factcong.transform``), folded once onto p bins.
- Otherwise ``_enumerate`` takes the pairs in the chunks of
  ``_outer_chunks``, transient memory near ``_NUMPY_CHUNK`` entries.
  Where bins rarely count more than one entry, as on a short window at a
  large p, the values pair up into plain bincounts; elsewhere the nonzero
  bins pair up, each pair weighted by the product of their counts.  When
  the two sides are equal, or (for sums) one is the other negated, each
  unordered pair is enumerated once (``_pair_blocks``).
- A product goes over exponents when the caller hands it a power table
  and ``_use_exponents`` says the pairs repay it.  Every nonzero residue
  is g**e for a generator g, so the nonzero bins, read through the table,
  meet as sums mod p - 1, and bin 0 gets the pairs that hold a zero.  The
  table comes from ``power_table``, the same blocked scan as
  ``dlog_table``; the caller checks it before it hands it over.

Every count, product and partial sum of a meet is an integer at most
sum(a) * sum(b), so ``_exact_dtype`` of that total holds each exactly:
float64 below 2**53, then int64, then Python ints.  All modular
arithmetic here assumes the modulus fits in 31 bits, so that
intermediate products stay below 2**62 and int64 never overflows.

``ntt_inplace`` is a placeholder that raises; the name stays only while
perfbench/tracing.py lists it in its span table.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "factorial_window",
    "dlog_table",
    "power_table",
    "reduce_scaled",
    "meet",
    "fold",
    "negated",
    "sum_tally",
    "prod_tally",
    "pair_product_tally",
    "inverse_table",
    "double_sum_direct",
]

# Entries per chunk of an enumerated meet.
_NUMPY_CHUNK = 4_000_000
# Rows per block, at least, when a level meets itself (see _pair_blocks):
# the diagonal blocks add about n * _ROW_BLOCK / 2 entries, and each block
# pays two chunks' fixed cost.  48 to 128 rows measured alike at p = 1009.
_ROW_BLOCK = 64
# Integers per chunk when reducing L! mod p or a direct sum's phases
# (reduce_scaled), and exponents per row of the dlog table: transient
# memory stays a few hundred KiB.
_PRODUCT_CHUNK = 1 << 16
_DLOG_ROW = 1 << 14
# Rows of a factorial window's scan at least this long are reduced by
# _reduce, shorter ones by np.remainder (factorial_window).
_REDUCE_ROW = 1 << 10
# A product meet goes over exponents (_use_exponents) once it would
# enumerate at least _EXPONENT_PAIRS_PER_P * p pairs, and only for p below
# _EXPONENT_MAX_P.  The power table costs O(p) and some fifty numpy calls
# to build, check and invert, against a few ns saved per pair.  Timed with
# the table, the exponent path broke even near 128 p pairs at p = 211 and
# between 8 p and 64 p from 1009 to 300007; at 1000003 a symmetric pair
# tally was still slower at 128 p, its 2(p - 1) count bins out of cache.
_EXPONENT_PAIRS_PER_P = 128
_EXPONENT_MAX_P = 1 << 18
# A sum meet goes direct (_use_direct) once the pairs that enumeration
# would take reach bins**2 / _DIRECT_PAIR_COST: an enumerated pair costs
# about as much as that many float64 multiply-adds of np.convolve (0.13 to
# 0.26 ns each).  Timed on 2 CPUs at p from 1009 to 30011, the two broke
# even between 16 and 24 bins**2 per pair for sum and pair tallies, and
# between 8 and 14 for the family-R combine, which did less per pair.
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


def reduce_scaled(x: np.ndarray, n: int, scale: int = 1) -> None:
    """x = scale * (x mod n) mod n in place, for a flat int64 x of entries
    >= 0 and 0 <= scale < 2**31: block by block, each of _PRODUCT_CHUNK
    entries reduced by _reduce through one scratch of that size, then, for
    a scale other than 1, scaled and reduced again.

    The blocks stay in cache, and nothing of x's length is allocated.  On
    a 2-CPU x86-64 machine, the phases of a character sum over the full
    window at p = 1000033 took 11.4 ms in whole-array passes through a
    length-p scratch against 7.2 ms by blocks; in the spectra-cache
    benchmark those passes also took 1,500 to 2,200 minor page faults per
    direct-sum op, where the heap was trimmed between ops, and none by
    blocks.
    """
    scratch = np.empty(min(x.size, _PRODUCT_CHUNK), dtype=np.int64)
    for start in range(0, x.size, _PRODUCT_CHUNK):
        block = x[start : start + _PRODUCT_CHUNK]
        _reduce(block, n, scratch[: block.size])
        if scale != 1:
            block *= scale
            _reduce(block, n, scratch[: block.size])


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

    A row of at least _REDUCE_ROW entries (p above about 1.3e5) is reduced
    by _reduce through one row-length scratch, shorter rows by
    np.remainder.  On a 2-CPU x86-64 machine the full window at
    p = 1000033 took 12.9 ms with np.remainder and 11.8 ms with _reduce,
    while _reduce on every row slowed p = 10009 from 0.16 to 0.28 ms.
    """
    p, L, N = int(p), int(L), int(N)
    s = math.isqrt(N // 8) + 1
    B = -(-N // s)
    m = np.empty((s, B), dtype=np.int64)
    first = np.arange(L + 1, L + 1 + B * s, s, dtype=np.int64)
    np.add(first, np.arange(s, dtype=np.int64)[:, None], out=m)
    scratch = np.empty(B, dtype=np.int64) if B >= _REDUCE_ROW else None
    for j in range(1, s):
        row = m[j]
        np.multiply(row, m[j - 1], out=row)
        if scratch is None:
            np.remainder(row, p, out=row)
        else:
            _reduce(row, p, scratch)
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
    doubling, is scaled by (g**s)**i for each i, and reduced by _reduce
    (the doubling steps, a few per table, keep np.remainder).
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
    scratch = np.empty(s, dtype=np.int64)
    scale = 1
    for start in range(0, n, s):
        k = min(s, n - start)
        np.multiply(powers[:k], scale, out=row[:k])
        _reduce(row[:k], p, scratch[:k])
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


def ntt_inplace(*args, **kwargs):
    """Removed; kept only while perfbench/tracing.py lists it in SPANS."""
    raise NotImplementedError("ntt_inplace was removed: counts convolve by FFT")


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


def _outer_chunks(a: np.ndarray, b: np.ndarray, op, p: int, bins: int,
                  symmetric: bool = False):
    """Yield (weight, rows, cols, op(a[rows], b[cols])) for the blocks of
    _pair_blocks over a and b, each chunk flat and row-major.

    a and b hold residues in [0, p).  A product (np.multiply) is reduced
    mod p in place; a sum (np.add) too when `bins` is p, and it is left in
    [0, 2p) for 2p bins.  Each chunk holds about _NUMPY_CHUNK entries at
    most.  Ordered, every pair comes once with weight 1; symmetric, a
    weight-2 chunk stands for its pairs and their transposes.
    """
    for weight, rows, cols in _pair_blocks(a.size, b.size, _NUMPY_CHUNK, symmetric, bins):
        chunk = op(a[rows, None], b[cols])
        if op is not np.add:
            np.remainder(chunk, p, out=chunk)
        elif bins == p:
            np.subtract(chunk, p, out=chunk, where=chunk >= p)
        yield weight, rows, cols, chunk.ravel()


def _use_direct(bins: int, pairs: int) -> bool:
    """Whether two histograms over `bins` bins, whose enumeration costs
    `pairs` (meet), meet by _direct_cyclic instead."""
    return bins * bins <= _DIRECT_PAIR_COST * pairs


def _use_exponents(pairs: int, p: int) -> bool:
    """Whether a product meet mod p whose enumeration costs `pairs` (meet)
    takes a power table and goes over exponents."""
    return p < _EXPONENT_MAX_P and pairs >= _EXPONENT_PAIRS_PER_P * p


def _exact_dtype(total: int):
    """The narrowest dtype whose sums of integers up to total are exact:
    float64 below 2**53, int64 below 2**63, Python ints past that."""
    if total < _FLOAT_EXACT:
        return np.float64
    return np.int64 if total < _INT64_EXACT else object


def _direct_cyclic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cyclic convolution of two count vectors of one length, exact:
    out[s] = sum of a[i] * b[j] over i + j = s mod len(a).

    np.convolve sums every product directly, with no transform, and the
    linear result is folded once onto len(a) bins.  Every entry is a
    nonnegative integer, so every product and every partial sum is at most
    sum(a) * sum(b), and _exact_dtype of that total holds each one exactly,
    whatever the order of summation.
    """
    dtype = _exact_dtype(int(a.sum()) * int(b.sum()))
    fa = a.astype(dtype)
    full = np.convolve(fa, fa if b is a else b.astype(dtype))
    if dtype is np.float64:
        full = full.astype(np.int64)
    n = a.size
    out = full[:n]
    out[: n - 1] += full[n:]
    return out


def negated(h: np.ndarray) -> np.ndarray:
    """h read at negated residues: out[y] = h[-y mod len(h)]."""
    out = np.empty_like(h)
    out[0], out[1:] = h[0], h[:0:-1]
    return out


def meet(a: np.ndarray, b: np.ndarray, op, p: int, powers=None) -> np.ndarray:
    """out[z] = sum of a[x] * b[y] over op(x, y) = z mod p, exact, for count
    vectors a and b of length p and op np.add or np.multiply.

    Enumeration would cost `pairs` value pairs: sum(a) * sum(b), or twice
    the pairs of nonzero bins (a weighted pair measured at about two),
    whichever is less, halved when b is a or, for sums, a negated.  powers,
    if set, returns a checked power table P, P[e] = g**e mod p; a product
    reads its nonzero bins through P when _use_exponents(pairs, p).  A sum
    meets directly when _use_direct(p, pairs), else _enumerate takes the
    cheaper pairs.
    """
    x = _sparse(a)
    y = x if b is a else _sparse(b)
    a_total, b_total = int(x[1].sum()), int(y[1].sum())
    total = a_total * b_total
    if not total:  # an empty side: no pairs
        return np.zeros(p, dtype=np.int64)
    same, mirrored = _symmetry(x, y, op, p)
    value_pairs, bin_pairs = total, 2 * x[0].size * y[0].size
    pairs = min(value_pairs, bin_pairs) // (2 if same or mirrored else 1)
    if op is np.multiply and powers is not None and _use_exponents(pairs, p):
        P = powers()
        out = np.zeros(p, dtype=np.int64 if total < _INT64_EXACT else object)
        a_exps = a[P]
        out[P] = meet(a_exps, a_exps if b is a else b[P], np.add, p - 1)
        out[0] = total - (a_total - int(a[0])) * (b_total - int(b[0]))
        return out
    if op is np.add and _use_direct(p, pairs):
        return _direct_cyclic(a, b)
    return _enumerate(x, y, op, p, value_pairs <= bin_pairs, same, mirrored)


def _sparse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bins, counts): the nonzero bins of h, ascending, and their counts."""
    bins = np.flatnonzero(h != 0)  # faster than on h itself
    return bins, h[bins]


def _symmetry(x, y, op, p: int) -> tuple[bool, bool]:
    """(same, mirrored) for two sides given as _sparse (bins, counts):
    whether y equals x, and, for a sum, whether y is x read at negated
    residues (y[z] = x[-z mod p]) instead."""
    (xs, wx), (ys, wy) = x, y
    if x is y or xs.size != ys.size:
        return x is y, False
    if np.array_equal(xs, ys) and np.array_equal(wx, wy):
        return True, False
    # x's bins in the order of their negations: bin 0 stays first
    flip = np.roll(np.arange(xs.size)[::-1], int(xs[:1].tolist() == [0]))
    return False, (op is np.add and np.array_equal(ys, (p - xs[flip]) % p)
                   and np.array_equal(wy, wx[flip]))


def _enumerate(x, y, op, p: int, by_value: bool, same: bool = False,
               mirrored: bool = False) -> np.ndarray:
    """meet of two sides given as _sparse (bins, counts), by enumerating
    pairs in the blocks of _outer_chunks: by value, each bin repeated as
    often as it counts, into plain bincounts; otherwise pairs of bins,
    weighted by the products of their counts, in _exact_dtype of the total
    (np.add.at past float64).  With same or mirrored (_symmetry), each
    unordered pair comes once, and its weight-2 counts are added twice, or
    once as they are and once negated.  Sums count over 2p bins, folded
    once, or are reduced pair by pair when there are fewer pairs than p.
    """
    (xs, wx), (ys, wy) = x, y
    if same or mirrored:  # y's entries in the order of their transposes
        ys, wy = xs if same else (p - xs) % p, wx
    if by_value:
        xs, ys = np.repeat(xs, wx.astype(np.int64)), np.repeat(ys, wy.astype(np.int64))
    else:
        dtype = _exact_dtype(int(wx.sum()) * int(wy.sum()))
        wx, wy = wx.astype(dtype), wy.astype(dtype)
    bins = 2 * p if op is np.add and xs.size * ys.size >= p else p
    # counts[w] sums the bincounts of the weight-w chunks; the first one
    # is the accumulator, so no zeroed length-bins array is allocated
    counts = [None, None, None]
    for weight, rows, cols, chunk in _outer_chunks(xs, ys, op, p, bins, same or mirrored):
        if by_value:
            c = np.bincount(chunk, minlength=bins)
        elif dtype is np.float64:
            c = np.bincount(chunk, np.multiply.outer(wx[rows], wy[cols]).ravel(), bins)
        else:
            c = np.zeros(bins, dtype=dtype)
            np.add.at(c, chunk, np.multiply.outer(wx[rows], wy[cols]).ravel())
        if counts[weight] is None:
            counts[weight] = c
        else:
            counts[weight] += c
    once, twice = (c if c is None or bins == p else c[:p] + c[p:] for c in counts[1:])
    if once is None:  # an empty side: no pairs
        return np.zeros(p, dtype=np.int64)
    if twice is not None:
        once += twice
        # mirrored, the transpose of x + (p - y) is y + (p - x)
        once += negated(twice) if mirrored else twice
    return once.astype(np.int64) if once.dtype == np.float64 else once


def fold(h: np.ndarray, k: int, op, p: int, powers=None) -> np.ndarray:
    """h met with itself k times under op: the histogram mod p of op over k
    entries, each drawn with h's counts; k = 0 is one tuple at op's
    identity.  Equal levels fold by squaring: fold(h, k // 2) meets itself,
    and meets h once more when k is odd."""
    if k == 0:
        return np.bincount([0 if op is np.add else 1], minlength=p)
    if k == 1:
        return h
    half = fold(h, k // 2, op, p, powers)
    acc = meet(half, half, op, p, powers)
    return meet(acc, h, op, p, powers) if k % 2 else acc


def _histogram(vals, p: int) -> np.ndarray:
    return np.bincount(np.asarray(vals, dtype=np.int64) % p, minlength=p)


def sum_tally(vals: np.ndarray, signs, p: int) -> np.ndarray:
    """Histogram of all sums of signs[i] * x_i mod p, one entry x_i of vals
    per sign of +1 or -1.  No signs is the empty sum: one tuple, at 0.  The
    plus and the minus levels each fold, and the two folds meet once."""
    p = int(p)
    signs = [int(s) for s in signs]
    plus, minus = signs.count(1), signs.count(-1)
    h = _histogram(vals, p)
    folds = {k: fold(h, k, np.add, p) for k in {plus, minus}}
    if not minus:
        return folds[plus]
    negative = negated(folds[minus])
    return meet(folds[plus], negative, np.add, p) if plus else negative


def prod_tally(vals: np.ndarray, k: int, p: int, powers=None) -> np.ndarray:
    """Histogram of all k-fold products of entries of vals mod p; each meet
    goes over exponents when it says so."""
    p = int(p)
    return fold(_histogram(vals, p), int(k), np.multiply, p, powers)


def pair_product_tally(va: np.ndarray, vb: np.ndarray, p: int, powers=None) -> np.ndarray:
    """Histogram of x*y mod p over all pairs from two value lists; over
    exponents when the meet says so."""
    p = int(p)
    a = _histogram(va, p)
    return meet(a, a if vb is va else _histogram(vb, p), np.multiply, p, powers)


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
    for *_, idx in _outer_chunks(int(a) * va % p, vb, np.multiply, p, p):
        acc += roots[idx].sum()
    return complex(acc)
