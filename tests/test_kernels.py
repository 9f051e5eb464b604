"""Kernel correctness against references computed here.

Each kernel is checked against known values, a plain-Python loop,
itertools enumeration, or an identity its output must satisfy.  The
tallies and the direct double sum also run with their chunk size shrunk
to one to three entries, so their outer products are cut into many
chunks, with direct convolution off; the tallies run once more with
every tally met by direct convolution.
"""

import functools
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcong import kernels
from factcong.factorial import build_window, exponent_histogram
from factcong.field import PrimeContext, find_primitive_root

# The default chunk first, then chunks of one to three entries.
TALLY_CHUNKS = [kernels._NUMPY_CHUNK, 1, 2, 3]
# _DIRECT_PAIR_COST values: with 0, _use_direct never holds and every
# tally enumerates; with this one, every tally of two levels or more that
# has a tuple meets by direct convolution.
ENUMERATE, DIRECT = 0, 10**30


def enumerated(fn, *args):
    """[(chunk, fn(*args))] with direct convolution off and the outer-op
    loop cut every `chunk` entries."""
    out = []
    for chunk in TALLY_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_DIRECT_PAIR_COST", ENUMERATE)
            mp.setattr(kernels, "_NUMPY_CHUNK", chunk)
            out.append((chunk, fn(*args)))
    return out


def met_directly(fn, *args):
    """("direct", fn(*args)) with every tally met by direct convolution."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_DIRECT_PAIR_COST", DIRECT)
        return ("direct", fn(*args))


def at_each_chunk(fn, *args):
    """enumerated(fn, *args), then met_directly(fn, *args)."""
    return [*enumerated(fn, *args), met_directly(fn, *args)]


def test_factorial_window_known():
    got = kernels.factorial_window(7, 0, 6)
    assert got.tolist() == [1, 2, 6, 3, 1, 6]
    assert kernels.factorial_window(5, 2, 1).tolist() == [1]
    assert kernels.factorial_window(5, 1, 2).tolist() == [2, 1]


@given(st.sampled_from([5, 7, 11, 13, 17, 19, 23]), st.data())
def test_factorial_window_recurrence(p, data):
    L = data.draw(st.integers(0, p - 2), label="L")
    N = data.draw(st.integers(1, p - 1 - L), label="N")
    vals = kernels.factorial_window(p, L, N)
    fact = 1
    for i in range(1, L + 2):
        fact = fact * i % p
    assert vals[0] == fact
    for i in range(1, N):
        assert vals[i] == vals[i - 1] * (L + i + 1) % p


def sequential_window(p, L, N):
    """(L+1)!, ..., (L+N)! mod p, one multiplication at a time."""
    f = 1
    for n in range(1, L + 1):
        f = f * n % p
    out = []
    for n in range(L + 1, L + N + 1):
        f = f * n % p
        out.append(f)
    return out


def sequential_dlog(p, g):
    out = [-1] * p
    acc = 1
    for e in range(p - 1):
        out[acc] = e
        acc = acc * g % p
    return out


def recurrence_inverses(p):
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for x in range(2, p):
        inv[x] = (p - (p // x) * inv[p % x] % p) % p
    return inv


# Up to about 1e5, primes on both sides of a dlog row (2**14 exponents), and
# 2**31 - 1, the largest modulus, where products come near 2**62.
KERNEL_PRIMES = [2, 3, 5, 7, 101, 997, 16411, 32771, 65537, 99991, 100003, 2**31 - 1]
CHUNK = kernels._PRODUCT_CHUNK


@given(st.sampled_from(KERNEL_PRIMES), st.data())
def test_factorial_window_matches_sequential(p, data):
    s = data.draw(st.integers(1, 60), label="s")
    N = data.draw(st.sampled_from([1, s * s - 1, s * s, s * s + 1]).filter(bool), label="N")
    L = data.draw(
        st.one_of(
            st.integers(0, 50),
            st.integers(CHUNK - 3, CHUNK + 3),
            st.integers(0, 3 * CHUNK),
        ),
        label="L",
    )
    got = kernels.factorial_window(p, L, N)
    assert got.tolist() == sequential_window(p, L, N)


def wilson_factorial(n, p):
    """n! mod p for n near p, from Wilson's theorem (p-1)! = -1 mod p."""
    tail = math.prod(range(n + 1, p)) % p
    return (p - 1) * pow(tail, -1, p) % p


def test_factorial_window_every_short_length(monkeypatch):
    # every block shape (s, B) the blocked scan takes for N below 700
    p, L = 2**31 - 1, 12345
    expect = sequential_window(p, L, 700)
    for N in range(1, 701):
        got = kernels.factorial_window(p, L, N)
        assert got.tolist() == expect[:N], N
    # windows that end at p - 1: factors near 2**31 times residues near
    # 2**31 take products near 2**62, and the padded tail's factors pass
    # p.  L! comes from Wilson's theorem, not from 2**31 multiplications.
    assert wilson_factorial(90, 101) == kernels._product_range(1, 91, 101)
    monkeypatch.setattr(kernels, "_product_range", lambda lo, hi, p: wilson_factorial(hi - 1, p))
    for N in range(1, 300):
        L = p - 1 - N
        got = kernels.factorial_window(p, L, N).tolist()
        f, expect = wilson_factorial(L, p), []
        for n in range(L + 1, p):
            f = f * n % p
            expect.append(f)
        assert got == expect, N
        assert got[-1] == p - 1


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_factorial_window_across_many_chunks(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_PRODUCT_CHUNK", chunk)
    # every window at p = 101 that ends at p - 1, whose padded tail reaches p
    ends = [(101, L, 100 - L) for L in range(100)]
    for p, L, N in [(101, 0, 5), (101, 1, 3), (101, 50, 50), (997, 300, 9), (7, 9, 3), *ends]:
        got = kernels.factorial_window(p, L, N)
        assert got.tolist() == sequential_window(p, L, N), (p, L, N)


@pytest.mark.parametrize("L", [0, 40])
@pytest.mark.parametrize("B", [kernels._REDUCE_ROW - 1, kernels._REDUCE_ROW])
def test_factorial_window_rows_each_side_of_the_reduce_switch(monkeypatch, L, B):
    # the scan takes s = 128 rows of B entries; rows of _REDUCE_ROW
    # entries or more are reduced by _reduce, shorter ones by np.remainder
    p, N = 131071, 128 * B - 50
    s = math.isqrt(N // 8) + 1
    assert (s, -(-N // s)) == (128, B)
    calls = []
    reduce = kernels._reduce
    monkeypatch.setattr(kernels, "_reduce",
                        lambda x, *rest: calls.append(x.shape) or reduce(x, *rest))
    got = kernels.factorial_window(p, L, N)
    assert got.tolist() == sequential_window(p, L, N)
    # the final pass, plus every row after the first on the long side
    rows = [(B,)] * (s - 1) if B >= kernels._REDUCE_ROW else []
    assert calls == rows + [(B, s)]


def test_factorial_window_memory_flat_in_L():
    # L! is reduced in fixed-size chunks, so a long prefix costs no memory
    p, L, N = 2**31 - 1, 3_000_000, 4
    tracemalloc.start()
    try:
        got = kernels.factorial_window(p, L, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert got.tolist() == sequential_window(p, L, N)


@given(st.sampled_from([5, 7, 11, 101, 997]))
def test_dlog_table_agrees(p):
    g = find_primitive_root(p)
    table = kernels.dlog_table(p, g)
    assert table[0] == -1
    for x in range(1, p):
        assert pow(g, int(table[x]), p) == x
    assert sorted(table[1:].tolist()) == list(range(p - 1))


@given(st.sampled_from(KERNEL_PRIMES[:-1]))
def test_dlog_table_matches_sequential(p):
    g = find_primitive_root(p)
    table = kernels.dlog_table(p, g)
    assert table.tolist() == sequential_dlog(p, g)


@pytest.mark.parametrize("row", [1, 2, 3, 7])
def test_dlog_table_across_many_rows(monkeypatch, row):
    monkeypatch.setattr(kernels, "_DLOG_ROW", row)
    for p in [2, 3, 5, 7, 11, 101, 997]:
        g = find_primitive_root(p)
        table = kernels.dlog_table(p, g)
        assert table.tolist() == sequential_dlog(p, g), p


@given(
    st.sampled_from([5, 7, 11]),
    st.integers(1, 3),
    st.data(),
)
def test_sum_tally_matches_itertools(p, k, data):
    n = data.draw(st.integers(1, 5), label="n")
    vals = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    signs = np.array(
        data.draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k)),
        dtype=np.int64,
    )
    expect = np.zeros(p, dtype=np.int64)
    for tup in itertools.product(range(n), repeat=k):
        total = sum(int(signs[i]) * int(vals[j]) for i, j in enumerate(tup))
        expect[total % p] += 1
    assert expect.sum() == n**k
    for chunk, got in at_each_chunk(kernels.sum_tally, vals, signs, p):
        np.testing.assert_array_equal(got, expect, err_msg=f"chunk {chunk}")


@given(st.sampled_from([5, 7, 11]), st.integers(1, 3), st.data())
def test_prod_tally_matches_itertools(p, k, data):
    n = data.draw(st.integers(1, 5), label="n")
    vals = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    expect = np.zeros(p, dtype=np.int64)
    for tup in itertools.product(range(n), repeat=k):
        total = 1
        for j in tup:
            total = total * int(vals[j]) % p
        expect[total] += 1
    for chunk, got in at_each_chunk(kernels.prod_tally, vals, k, p):
        np.testing.assert_array_equal(got, expect, err_msg=f"chunk {chunk}")


@given(st.sampled_from([5, 7, 11, 13]), st.data())
def test_pair_product_tally(p, data):
    na = data.draw(st.integers(1, 6), label="na")
    nb = data.draw(st.integers(1, 6), label="nb")
    va = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=na, max_size=na)),
        dtype=np.int64,
    )
    vb = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=nb, max_size=nb)),
        dtype=np.int64,
    )
    expect = np.zeros(p, dtype=np.int64)
    for x in va:
        for y in vb:
            expect[int(x) * int(y) % p] += 1
    for chunk, got in at_each_chunk(kernels.pair_product_tally, va, vb, p):
        np.testing.assert_array_equal(got, expect, err_msg=f"chunk {chunk}")


def signed_sum_reference(vals, signs, p):
    """Histogram of sum(s * x) mod p over all len(signs)-tuples of vals."""
    expect = np.zeros(p, dtype=np.int64)
    for tup in itertools.product(vals.tolist(), repeat=len(signs)):
        expect[sum(s * x for s, x in zip(signs, tup)) % p] += 1
    return expect


@pytest.mark.parametrize("p", [2, 3, 7, 101])
@pytest.mark.parametrize(
    "signs", [[1, 1], [1, 1, 1], [1, -1], [-1, -1], [-1, 1, -1], [1, -1, 1]]
)
def test_sum_tally_fold_edges(p, signs):
    # With every entry p - 1, every k-fold sum of the last level reaches
    # the top of its 2p bins, and every middle level must come back into
    # [0, p) first; the mixed list hits both ends of [0, p).
    every_top = np.full(4, p - 1, dtype=np.int64)
    mixed = np.array([0, p - 1, 1 % p, p // 2, p - 1], dtype=np.int64)
    for vals in (every_top, mixed):
        expect = signed_sum_reference(vals, signs, p)
        for chunk, got in at_each_chunk(kernels.sum_tally, vals, signs, p):
            np.testing.assert_array_equal(got, expect, err_msg=f"{vals} chunk {chunk}")


@pytest.mark.parametrize("p", [2, 3, 101])
def test_sum_tally_of_no_signs_is_the_empty_sum(p):
    # one tuple, the empty one, whose sum is 0, whatever the values
    expect = np.zeros(p, dtype=np.int64)
    expect[0] = 1
    for vals in (np.arange(p, dtype=np.int64), np.zeros(0, dtype=np.int64)):
        got = kernels.sum_tally(vals, (), p)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expect)


def outer_residues(a, b, op, p, bins):
    """The residues that _outer_chunks yields for a and b, ordered, joined."""
    return [x for *_, chunk in kernels._outer_chunks(a, b, op, p, bins) for x in chunk.tolist()]


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("op", [np.add, np.multiply])
def test_outer_residues_are_reduced(p, op):
    # the chunks of an enumerated meet: products and sums into p bins are
    # reduced into [0, p), and sums for 2p bins are left in [0, 2p)
    a = np.array([0, 1 % p, p - 1, p - 1, p // 2], dtype=np.int64)
    b = np.array([p - 1, 0, p // 2], dtype=np.int64)
    pairs = [int(op(x, y)) for x in a.tolist() for y in b.tolist()]
    for chunk, got in enumerated(outer_residues, a, b, op, p, p):
        assert got == [v % p for v in pairs], chunk
    if op is np.add:
        for chunk, got in enumerated(outer_residues, a, b, op, p, 2 * p):
            assert got == pairs, chunk


@pytest.mark.parametrize("p", [2, 7, 101])
@pytest.mark.parametrize("op", [np.add, np.multiply])
def test_outer_residues_keep_every_ordered_pair_of_one_level(p, op):
    # ordered, the same array on both sides still gives all n**2 residues
    # (double_sum_direct reads every one)
    x = np.array([0, 1 % p, p - 1, p // 2, 1 % p], dtype=np.int64)
    expect = [int(op(a, b)) % p for a in x.tolist() for b in x.tolist()]
    for where, got in enumerated(outer_residues, x, x, op, p, p):
        assert got == expect, where


# The unordered enumeration: a level that meets itself (or, for sums, its
# negation) is tallied one unordered pair at a time, in row blocks of
# _ROW_BLOCK rows or of bins / n, whichever is more.  The default block
# first, with that rule; then blocks of one to four rows with the bins
# rule off, so n = 1 to 9 falls below, on and off a multiple of the block
# even at a tiny p.
ROW_BLOCKS = [kernels._ROW_BLOCK, 1, 2, 3, 4]


def at_each_block(fn, *args):
    """[((block, chunk), fn(*args))] over every row block and chunk size,
    enumerated, then met_directly(fn, *args)."""
    real = kernels._pair_blocks

    def rows_only(n, m, entries, symmetric=False, bins=0):
        return real(n, m, entries, symmetric)

    out = []
    for block in ROW_BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            if block != kernels._ROW_BLOCK:
                mp.setattr(kernels, "_pair_blocks", rows_only)
            mp.setattr(kernels, "_ROW_BLOCK", block)
            out += [((block, chunk), got) for chunk, got in enumerated(fn, *args)]
    return [*out, met_directly(fn, *args)]


def pair_reference(va, vb, op, p):
    """Histogram of op(x, y) mod p over all ordered pairs, by itertools."""
    expect = np.zeros(p, dtype=np.int64)
    for x, y in itertools.product(va.tolist(), vb.tolist()):
        expect[op(x, y) % p] += 1
    return expect


@pytest.mark.parametrize("n", range(0, 10))
@pytest.mark.parametrize("block", [1, 2, 3, 4, 64])
@pytest.mark.parametrize("entries", [1, 5, 10**6])
@pytest.mark.parametrize("bins", [0, 7, 40])
def test_pair_blocks_cover_each_unordered_pair_once(monkeypatch, n, block, entries, bins):
    monkeypatch.setattr(kernels, "_ROW_BLOCK", block)
    weights = np.zeros((n, n), dtype=np.int64)
    for weight, rows, cols in kernels._pair_blocks(n, n, entries, True, bins):
        cells = weights[rows, cols]
        assert cells.size <= max(entries, cols.stop - cols.start)
        assert rows.stop - rows.start <= max(block, -(-bins // n))
        assert not cells.any(), "a block overlaps an earlier one"
        cells += weight
    # a weight-2 cell stands for itself and its transpose
    np.testing.assert_array_equal(weights + weights.T, 2)
    ordered = np.zeros((n, n + 1), dtype=np.int64)
    for weight, rows, cols in kernels._pair_blocks(n, n + 1, entries):
        assert weight == 1
        ordered[rows, cols] += 1
    np.testing.assert_array_equal(ordered, 1)


@pytest.mark.parametrize(("n", "bins", "rows"), [
    # count J --ell 2 --N 2000 --p 1000003: sums over 2p bins; blocks of
    # _ROW_BLOCK rows would make 63 chunks, each paying a bincount of 2p
    # bins, for 4e6 pairs
    (2000, 2 * 1000003, 1001),
    # n * n below the bins: one block, the ordered pass
    (500, 2 * 1000003, 500),
    # the benchmark's primes near 1000: the row block stands
    (1008, 1009, kernels._ROW_BLOCK),
    (1008, 2 * 1009, kernels._ROW_BLOCK),
    (5000, 2 * 1000003, 401),
    # the chunk cap still bounds a block
    (4000, 2 * 10000019, kernels._NUMPY_CHUNK // 4000),
])
def test_symmetric_blocks_outnumber_their_bins(n, bins, rows):
    blocks = list(kernels._pair_blocks(n, n, kernels._NUMPY_CHUNK, True, bins))
    assert blocks[0][1] == slice(0, rows)
    tops = -(-n // rows)
    assert len(blocks) == 2 * tops - 1
    if tops == 1:
        assert blocks == [(1, slice(0, n), slice(0, n))]


@given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
def test_unordered_tallies_match_itertools(p, data):
    # draws from a few residues, so levels repeat entries
    n = data.draw(st.integers(1, 9), label="n")
    residues = st.integers(0, min(p - 1, 3))
    va = np.array(data.draw(st.lists(residues, min_size=n, max_size=n)), dtype=np.int64)
    vb = np.array(data.draw(st.lists(residues, min_size=n, max_size=n)), dtype=np.int64)
    square = pair_reference(va, va, lambda x, y: x * y, p)
    cases = [
        # equal levels: one unordered pair each
        (kernels.pair_product_tally, (va, va.copy(), p), square),
        (kernels.prod_tally, (va, 2, p), square),
        # unequal levels (equal only when the draw says so): every ordered pair
        (kernels.pair_product_tally, (va, vb, p),
         pair_reference(va, vb, lambda x, y: x * y, p)),
    ]
    for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        # equal levels for ++ and --, one the other's negation for +- and -+
        cases.append((kernels.sum_tally, (va, signs, p),
                      signed_sum_reference(va, signs, p)))
    for fn, args, expect in cases:
        for where, got in at_each_block(fn, *args):
            np.testing.assert_array_equal(got, expect, err_msg=f"{fn.__name__} {where}")


# The exponent path: with a power table, a product tally of two levels or
# more counts sums of exponents instead once _use_exponents says so.

EXPONENT_PRIMES = [2, 3, 5, 7, 11, 13]
# the pair threshold as it is, and lowered to 0 so that every size takes
# the exponent path, not only those past 128 p tuples
PAIRS_PER_P = [0, kernels._EXPONENT_PAIRS_PER_P]


def counted_powers(p):
    """(powers, calls): a callable that hands out the power table of the
    smallest generator mod p, and the list its calls append to."""
    table = kernels.power_table(p, find_primitive_root(p))
    calls = []
    return (lambda: calls.append(1) or table), calls


def draw_levels(data, p, sizes, count):
    """count value lists of the drawn sizes, with zeros and repeats; with a
    drawn flag, every list is the first (the symmetric blocks)."""
    # a few residues at a time, so entries repeat
    pool = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3), label="pool")
    n = data.draw(st.integers(*sizes), label="n")
    first = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                     dtype=np.int64)
    if data.draw(st.booleans(), label="equal"):
        return [first.copy() for _ in range(count)]
    m = data.draw(st.integers(*sizes), label="m")
    rest = [np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)),
                     dtype=np.int64) for _ in range(count - 1)]
    return [first, *rest]


def test_power_table_is_the_inverse_of_the_dlog_table():
    for p in [2, *EXPONENT_PRIMES[1:], 101, 997]:
        g = find_primitive_root(p)
        table = kernels.power_table(p, g)
        assert table.tolist() == [pow(g, e, p) for e in range(p - 1)], p
        assert kernels.dlog_table(p, g)[table].tolist() == list(range(p - 1)), p


@functools.cache
def context_with_dlog(p):
    return PrimeContext.create(p, with_dlog=True)


@given(st.sampled_from([p for p in KERNEL_PRIMES if 2 < p <= 10**5]), st.data())
def test_power_table_reads_agree_with_the_dlog_table(p, data):
    # exponent histograms and indices read the context's power table; its
    # discrete-log table is the oracle
    ctx = context_with_dlog(p)
    L = data.draw(st.integers(0, p - 2), label="L")
    N = data.draw(st.integers(1, p - 1 - L), label="N")
    w = build_window(ctx, L, N)
    expect = np.bincount(ctx.dlog[w.values], minlength=p - 1)
    np.testing.assert_array_equal(exponent_histogram(w), expect)
    xs = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=8), label="xs")
    assert [ctx.index(x) for x in xs] == ctx.dlog[xs].tolist()


@given(st.sampled_from(EXPONENT_PRIMES), st.data())
def test_pair_product_tally_over_exponents(p, data):
    va, vb = draw_levels(data, p, (1, 8), 2)
    expect = pair_reference(va, vb, lambda x, y: x * y, p)
    for per_p in PAIRS_PER_P:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", per_p)
            powers, calls = counted_powers(p)
            for where, got in at_each_block(kernels.pair_product_tally, va, vb, p, powers):
                np.testing.assert_array_equal(got, expect, err_msg=f"{per_p} {where}")
            # below the threshold the pairs stay over residues, with no table
            pairs = pair_measure(histogram(va, p), histogram(vb, p), np.multiply)
            assert bool(calls) == kernels._use_exponents(pairs, p)


@given(st.sampled_from(EXPONENT_PRIMES), st.sampled_from([1, 2, 3]), st.data())
def test_prod_tally_over_exponents(p, k, data):
    (vals,) = draw_levels(data, p, (1, 5), 1)
    expect = np.zeros(p, dtype=np.int64)
    for tup in itertools.product(vals.tolist(), repeat=k):
        expect[math.prod(tup) % p] += 1
    for per_p in PAIRS_PER_P:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", per_p)
            powers, calls = counted_powers(p)
            for where, got in at_each_block(kernels.prod_tally, vals, k, p, powers):
                np.testing.assert_array_equal(got, expect, err_msg=f"{per_p} {where}")
            # a single level is one bincount and takes no table; no meet of
            # at most 5**3 tuples reaches 128 p, so only a threshold of 0
            # takes it
            assert bool(calls) == (k > 1 and per_p == 0)


# (pairs per unit of p, [(counts, sizes one side of the threshold, sizes
# the other side)]): counts of 1 cost their value pairs, and counts of 2
# and 3 twice their bin pairs
EXPONENT_THRESHOLDS = {
    # 26 value pairs: 25 stay over residues, 27 take the table; 2 x 12
    # stay, 2 x 15 take it
    13: (2, [((1, 1), (5, 5), (3, 9)), ((2, 3), (3, 4), (3, 5))]),
    # 27008 value pairs: 129 x 209 = 26961 stay, 130 x 208 = 27040 take
    # the table; 2 x 64 x 209 = 26752 stay, 2 x 65 x 208 = 27040 take it
    211: (kernels._EXPONENT_PAIRS_PER_P,
          [((1, 1), (129, 209), (130, 208)), ((2, 3), (64, 209), (65, 208))]),
}


@pytest.mark.parametrize("p", sorted(EXPONENT_THRESHOLDS))
def test_the_exponent_path_starts_at_the_pair_threshold(monkeypatch, p):
    # below _EXPONENT_PAIRS_PER_P * p value pairs a product meet stays over
    # residues; from there on it takes the table, and the meets agree
    per_p, cases = EXPONENT_THRESHOLDS[p]
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", per_p)
    for weights, *sizes in cases:
        for nx, ny in sizes:
            # b starts one bin after a, so the two are never equal
            a, b = np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
            a[1 : nx + 1], b[2 : ny + 2] = weights
            pairs = pair_measure(a, b, np.multiply)
            assert pairs == min(nx * ny * weights[0] * weights[1], 2 * nx * ny)
            powers, calls = counted_powers(p)
            got = kernels.meet(a, b, np.multiply, p, powers)
            takes = kernels._use_exponents(pairs, p)
            assert bool(calls) == takes == (pairs >= per_p * p) == ((nx, ny) == sizes[1])
            np.testing.assert_array_equal(got, kernels.meet(a, b, np.multiply, p))
            assert got.tolist() == cyclic_reference(a, b, operator.mul)


def test_the_exponent_path_stops_at_the_cap_on_p():
    cap = kernels._EXPONENT_MAX_P
    many = 10 * kernels._EXPONENT_PAIRS_PER_P * cap
    assert kernels._use_exponents(many, cap - 1)
    assert not kernels._use_exponents(many, cap)
    assert not kernels._use_exponents(many, 2**31 - 1)


# Direct convolution: tallies meet by summing over every pair of bins,
# in float64 below 2**53, int64 below 2**63 and Python ints past that.


def cyclic_reference(a, b, op=operator.add):
    """out[op(i, j) mod len(a)] summed over a[i] * b[j], in Python ints, pair
    by pair: the cyclic convolution of a and b, or with op = operator.mul
    the meet of a product."""
    out = [0] * len(a)
    for (i, x), (j, y) in itertools.product(enumerate(a.tolist()), enumerate(b.tolist())):
        out[op(i, j) % len(a)] += int(x) * int(y)
    return out


@given(st.integers(1, 12), st.sampled_from([1, 2**20, 2**40, 2**62]), st.data())
def test_direct_cyclic_matches_python(n, top, data):
    # entries up to 2**62 take every dtype: sums below 2**53, below 2**63
    # and past it
    counts = st.lists(st.integers(0, top), min_size=n, max_size=n)
    a, b = (np.array(data.draw(counts, label=label), dtype=object) for label in "ab")
    if sum(a) < 2**63 and sum(b) < 2**63:
        a, b = a.astype(np.int64), b.astype(np.int64)
    assert kernels._direct_cyclic(a, b).tolist() == cyclic_reference(a, b)


@pytest.mark.parametrize(("total", "dtype"), [
    (2**53 - 1, np.float64), (2**53, np.int64),
    (2**63 - 1, np.int64), (2**63, object),
])
def test_direct_cyclic_dtype_switches_at_2_53_and_2_63(monkeypatch, total, dtype):
    # sum(a) * sum(b) = total exactly
    a = np.array([total - 5, 5, 0], dtype=object if total >= 2**63 else np.int64)
    b = np.array([0, 1, 0], dtype=np.int64)
    seen = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda x, y: seen.append(x.dtype) or convolve(x, y))
    assert kernels._direct_cyclic(a, b).tolist() == cyclic_reference(a, b)
    assert seen == [np.dtype(dtype)]


@pytest.mark.parametrize("top", [2**53, 2**63])
def test_direct_cyclic_is_exact_past_each_switch(top):
    # every entry is top + 1: float64 rounds it to top, and int64 wraps
    # past 2**63
    a = np.array([1, 1], dtype=np.int64)
    b = np.array([top - 1, 2], dtype=object if top > 2**62 else np.int64)
    assert kernels._direct_cyclic(a, b).tolist() == [top + 1, top + 1]


def direct_calls(monkeypatch):
    """The list that each call of kernels._direct_cyclic appends to."""
    calls = []
    direct = kernels._direct_cyclic
    monkeypatch.setattr(kernels, "_direct_cyclic",
                        lambda a, b: calls.append(a.size) or direct(a, b))
    return calls


@pytest.mark.parametrize("p", [13, 211])
def test_the_direct_path_starts_at_its_pair_threshold(monkeypatch, p):
    # sum meets that would enumerate fewer than p * p / _DIRECT_PAIR_COST
    # value pairs enumerate; from there on they meet directly, and agree
    monkeypatch.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 0)
    calls = direct_calls(monkeypatch)
    powers, _ = counted_powers(p)
    start = -(-p * p // kernels._DIRECT_PAIR_COST)
    # (op, a, b, modulus of the direct meet): a run of n bins from 1 and
    # one of m bins from 2, so a != b
    cases = []
    for weights, cost in (((1, 1), 1), ((2, 3), 2)):
        # the value pairs, or twice the bin pairs, straddle the start
        for n in range(1, p - 2):
            m = -(-start // (cost * n))
            for m in (m - 1, m):
                if 1 <= m <= p - 3:
                    a, b = runs(p, (1, n, weights[0]), (2, m, weights[1]))
                    cases.append((np.add, a, b, p))
                    # a product over exponents meets its p - 1 bins
                    cases.append((np.multiply, a, b, p - 1))
    for n in range(math.isqrt(2 * start) - 1, math.isqrt(2 * start) + 3):
        # a side that meets itself, or itself negated, counts each
        # unordered pair once
        (a,) = runs(p, (0, min(n, p), 1))
        cases.append((np.add, a, a.copy(), p))
        cases.append((np.add, a, kernels.negated(a), p))
    sides = set()
    for op, a, b, bins in cases:
        calls.clear()
        got = kernels.meet(a, b, op, p, powers)
        exponents = powers() if op is np.multiply else np.arange(p)
        pairs = pair_measure(a[exponents], b[exponents], np.add)
        assert bool(calls) == kernels._use_direct(bins, pairs), (op, pairs)
        sides.add(bool(calls))
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_DIRECT_PAIR_COST", ENUMERATE)
            np.testing.assert_array_equal(got, kernels.meet(a, b, op, p))
    assert sides == {False, True}


def histogram(vals, p):
    return np.bincount(np.asarray(vals, dtype=np.int64) % p, minlength=p)


def runs(p, *spans):
    """Count vectors of length p, each with `count` in the `size` bins
    from `first`: one per (first, size, count)."""
    out = []
    for first, size, count in spans:
        h = np.zeros(p, dtype=np.int64)
        h[first : first + size] = count
        out.append(h)
    return out


def pair_measure(a, b, op):
    """The cost of enumerating the meet of a and b, in value pairs: the
    pairs of values, or twice the pairs of nonzero bins, whichever is less,
    halved when b equals a or (for sums) a at negated residues."""
    n = a.size
    halved = np.array_equal(a, b) or (
        op is np.add and np.array_equal(b, a[(-np.arange(n)) % n]))
    value_pairs = int(a.sum()) * int(b.sum())
    bin_pairs = 2 * int(np.count_nonzero(a)) * int(np.count_nonzero(b))
    return min(value_pairs, bin_pairs) // (2 if halved else 1)


# The meet's own paths: pairs of values, weighted pairs of bins and the
# direct convolution, each against Python ints.

OPS = {"add": (np.add, operator.add), "multiply": (np.multiply, operator.mul)}


def each_enumeration(a, b, op, p):
    """[(where, histogram)]: a and b enumerated by value (when that is
    small) and by weighted bins, at each chunk size and row block."""
    x, y = kernels._sparse(a), kernels._sparse(b)
    same, mirrored = kernels._symmetry(x, y, op, p)
    small = int(a.sum()) * int(b.sum()) <= 10**4
    out = []
    for by_value in (True, False) if small else (False,):
        out += [((by_value, where), got) for where, got in at_each_block(
            kernels._enumerate, x, y, op, p, by_value, same, mirrored)]
    return out


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from(sorted(OPS)), st.data())
def test_meet_paths_agree_with_itertools(p, name, data):
    # counts from 0 to 4, so bins repeat, and b drawn, equal to a, or (for
    # sums) a at negated residues: both sides of the value/bin rule
    op, py_op = OPS[name]
    counts = st.lists(st.integers(0, 4), min_size=p, max_size=p)
    a = np.array(data.draw(counts, label="a"), dtype=np.int64)
    b = data.draw(st.sampled_from(["drawn", "equal", "negated"]), label="b")
    if b == "drawn":
        b = np.array(data.draw(counts, label="b values"), dtype=np.int64)
    else:
        b = a.copy() if b == "equal" else kernels.negated(a)
    expect = cyclic_reference(a, b, py_op)
    for where, got in each_enumeration(a, b, op, p):
        assert got.dtype == np.int64 and got.tolist() == expect, where
    if op is np.add:
        assert kernels._direct_cyclic(a, b).tolist() == expect
    for cost in (ENUMERATE, DIRECT):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_DIRECT_PAIR_COST", cost)
            mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 0)
            powers, _ = counted_powers(p)
            assert kernels.meet(a, b, op, p).tolist() == expect, cost
            assert kernels.meet(a, b, op, p, powers).tolist() == expect, cost


@pytest.mark.parametrize("name", sorted(OPS))
def test_meet_takes_values_or_weighted_bins_by_their_pairs(monkeypatch, name):
    # value pairs when they are at most twice the pairs of nonzero bins
    op, py_op = OPS[name]
    p = 13
    seen = []
    enumerate_ = kernels._enumerate
    monkeypatch.setattr(kernels, "_enumerate",
                        lambda *a: seen.append(a[4]) or enumerate_(*a))
    monkeypatch.setattr(kernels, "_DIRECT_PAIR_COST", ENUMERATE)
    # (a, b): value pairs 4 x 5 = 20 against twice 4 x 5 bin pairs; 2 x 3 x
    # 4 x 5 = 120 against 40; 2 x 4 x 5 = 40 against 40, the tie
    cases = [runs(p, (1, 4, 1), (3, 5, 1)), runs(p, (1, 4, 2), (3, 5, 3)),
             runs(p, (1, 4, 2), (3, 5, 1))]
    for a, b in cases:
        assert kernels.meet(a, b, op, p).tolist() == cyclic_reference(a, b, py_op)
    assert seen == [True, False, True]


@pytest.mark.parametrize("total", [2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1])
@pytest.mark.parametrize("name", sorted(OPS))
def test_weighted_and_direct_meets_are_exact_at_each_switch(total, name):
    # sum(a) * sum(b) = total.  With one bin on each side, the whole total
    # lands in one bin: float64 would round it at 2**53 + 1, and int64
    # wrap at 2**63 + 1.  Spread over two bins each, the pairs land in
    # four bins.
    op, py_op = OPS[name]
    p = 7
    small = min(f for f in range(3, 10**6, 2) if total % f == 0)
    big = total // small
    one_bin = runs(p, (2, 1, big), (4, 1, small))
    spread = runs(p, (2, 1, big - 1), (4, 1, small - 2))
    spread[0][3], spread[1][1] = 1, 2
    for a, b in (one_bin, spread):
        assert int(a.sum()) * int(b.sum()) == total
        expect = cyclic_reference(a, b, py_op)
        for where, got in each_enumeration(a, b, op, p):
            assert got.tolist() == expect, where
        if op is np.add:
            assert kernels._direct_cyclic(a, b).tolist() == expect
        for cost in (ENUMERATE, DIRECT):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_DIRECT_PAIR_COST", cost)
                mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", 0)
                powers, _ = counted_powers(p)
                assert kernels.meet(a, b, op, p, powers).tolist() == expect, cost


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("k", range(0, 8))
def test_fold_squares_and_matches_the_chain(name, k):
    # k = 0 is one tuple at op's identity; otherwise fold by squaring takes
    # floor(log2 k) + popcount(k) - 1 meets and equals meeting h one
    # level at a time
    op, py_op = OPS[name]
    p = 11
    h = histogram([0, 1, 1, 3, 10], p)
    chain = [0] * p
    chain[0 if op is np.add else 1] = 1
    for _ in range(k):
        chain = cyclic_reference(np.array(chain, dtype=object), h, py_op)
    meets = []
    with pytest.MonkeyPatch.context() as mp:
        meet = kernels.meet
        mp.setattr(kernels, "meet", lambda *a: meets.append(1) or meet(*a))
        assert kernels.fold(h, k, op, p).tolist() == chain
    assert len(meets) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)


@pytest.mark.parametrize("p", [2, 101, 100043, 2**31 - 1])
def test_whole_array_reduction_near_2_62(rng, p):
    # the final pass of factorial_window and inverse_table: entries up to
    # (2**31 - 2)**2, just below 2**62, and a few past it
    top = 2**62
    x = np.concatenate([
        rng.integers(top - 2**40, top + 2**20, size=1000),
        rng.integers(0, top, size=1000),
        np.array([0, 1, p - 1, p, p + 1, (2**31 - 2) ** 2, top - 1, top], dtype=np.int64),
    ])
    want = [v % p for v in x.tolist()]
    kernels._reduce(x, p, np.empty_like(x))
    assert x.tolist() == want


@pytest.mark.parametrize("n", [2, 1008, 1000032, 2**31 - 2])
@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, (1 << 16) + 5, 3 << 16])
def test_reduce_scaled_matches_python_integers(rng, n, size):
    # running sums of discrete logs reach about 1e14, and a scale reaches
    # the modulus; blocks end at multiples of _PRODUCT_CHUNK
    x = rng.integers(0, 10**14, size=size)
    for scale in (0, 1, 2, n - 1, 2**31 - 1):
        got = x.copy()
        kernels.reduce_scaled(got, n, scale)
        assert got.tolist() == [scale * (v % n) % n for v in x.tolist()]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 997])
def test_inverse_table(p):
    table = kernels.inverse_table(kernels.factorial_window(p, 0, p - 1), p)
    for x in range(1, p):
        assert int(table[x]) * x % p == 1


@given(st.sampled_from(KERNEL_PRIMES[:-1]))
def test_inverse_table_matches_recurrence(p):
    table = kernels.inverse_table(kernels.factorial_window(p, 0, p - 1), p)
    assert table.tolist() == recurrence_inverses(p)


def test_double_sum_direct_agreement(rng):
    p = 13
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    va = rng.integers(1, p, size=9).astype(np.int64)
    vb = rng.integers(1, p, size=7).astype(np.int64)
    direct = sum(roots[5 * int(x) * int(y) % p] for x in va for y in vb)
    for chunk, got in at_each_chunk(kernels.double_sum_direct, va, vb, 5, roots, p):
        assert abs(got - direct) < 1e-9, chunk


@pytest.mark.parametrize("p, a", [(2, 1), (13, 12), (1009, 1008)])
def test_double_sum_direct_with_top_residues(rng, p, a):
    # a = p - 1 and an entry p - 1 on each side make a product (p - 1)**2,
    # the largest any chunk holds before its in-place reduction
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    va = np.append(rng.integers(1, p, size=9), p - 1).astype(np.int64)
    vb = np.append(rng.integers(1, p, size=7), p - 1).astype(np.int64)
    direct = sum(roots[a * int(x) * int(y) % p] for x in va for y in vb)
    for chunk, got in at_each_chunk(kernels.double_sum_direct, va, vb, a, roots, p):
        assert abs(got - direct) < 1e-9, (p, a, chunk)
