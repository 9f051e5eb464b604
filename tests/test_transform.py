import bisect
import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcong import transform
from factcong.errors import ParameterError
from factcong.transform import (
    cyclic_convolution_power,
    cyclic_convolve_exact,
    dft_error_bound,
    dft_prime_length,
    index_reversed,
    plan_cyclic_convolution,
)
from schoolbook import cyclic_convolve_direct


def as_ints(vec):
    return [int(v) for v in vec]


def norm(vec):
    """A ceiling on the Euclidean norm, in exact integers."""
    return float(math.isqrt(sum(int(x) ** 2 for x in vec)) + 1)


def test_plan_picks_float_with_one_limb():
    a = np.full(100, 1000, dtype=np.int64)
    small = plan_cyclic_convolution(100, norm(a), norm(a))
    assert small.limbs == 1
    assert small.error < 0.5
    # 199 points pad to 25 * 2^3, the shortest of 256, 320 and 200
    assert small.padded == 200
    assert small.moduli == ()
    pow2 = plan_cyclic_convolution(128, norm(a[:28]), norm(a[:28]))
    assert pow2.padded == 128


# every 2^a, 5 * 2^a and 25 * 2^a up to 25 * 2^25
PADDING_FORMS = sorted(r << a for r in (1, 5, 25) for a in range(26))


def power_of_two_padding(n):
    """The transform size before 5 * 2^a and 25 * 2^a: n itself when it is
    a power of two, else the next power of two from 2n - 1."""
    return n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length()


def widest_certified_limb(n, factor):
    """The most bits b for which a full vector of b-bit limbs certifies at
    length n, by the plan's own test."""
    def certified(b):
        return (math.sqrt(n) * ((1 << b) - 1)) ** 2 * factor < 0.5

    b = max(1, int(math.log2(math.sqrt(0.5 / factor / n))))
    while not certified(b):
        b -= 1
    while certified(b + 1):
        b += 1
    return b


def test_padding_rule_keeps_every_certificate(monkeypatch):
    # a length pads to the shortest 2^a, 5 * 2^a or 25 * 2^a that holds
    # 2n - 1, and where that is shorter than the former power-of-two
    # padding, its plan's limbs, limb bits and error are those the factor
    # at the former padding gives
    factor = transform._fft_error_factor
    at = [None]
    monkeypatch.setattr(transform, "_fft_error_factor",
                        lambda padded, adds=0: factor(at[0] or padded, adds))
    spots = [99_991, 100_043, 131_073, 204_800, 10**6 + 3, 2**22 + 1, 5_000_011, 10**7]
    for n in [*range(2, 70_001), *spots]:
        padded, former = transform._padded_length(n), power_of_two_padding(n)
        if n & (n - 1) == 0:
            assert padded == n
        else:
            assert padded == PADDING_FORMS[bisect.bisect_left(PADDING_FORMS, 2 * n - 1)]
        if padded == former:
            continue
        width = widest_certified_limb(n, factor(former))
        # entries of b, 2b and 8b bits: one, two and eight limbs of b bits
        for limbs in (1, 2, 8):
            norm_ = float(2 ** (limbs * width - 1))
            at[0] = None
            plan = plan_cyclic_convolution(n, norm_, norm_)
            at[0] = former
            want = plan_cyclic_convolution(n, norm_, norm_)
            assert plan.padded == padded, n
            assert (plan.limbs, plan.limb_bits, plan.error) == (
                want.limbs, want.limb_bits, want.error), n
            if n <= 70_000:
                assert (plan.limbs, plan.limb_bits) == (limbs, width), n


def pass_by_pass_factor(padded, adds):
    """The rounding factor of one product at a 5^f * 2^a padding, derived
    pass by pass for numpy's real FFT: radix-2 passes take the textbook
    level, radix-4 and radix-5 passes the bounds in _fft_error_factor's
    docstring, and a length that is not a power of two two more roundings
    for the inverse's scale 1/padded.  Evaluated in 50 digits."""
    fives = 0
    while padded % 5 == 0:
        padded //= 5
        fives += 1
    twos = padded.bit_length() - 1
    assert padded == 1 << twos
    with localcontext() as ctx:
        ctx.prec = 50
        eps, beta = Decimal(2) ** -53, Decimal(2) ** -50
        sqrt2, sqrt5 = Decimal(2).sqrt(), Decimal(5).sqrt()

        def gamma(k):
            return k * eps / (1 - k * eps)

        twiddle = (1 + sqrt5 * eps) * (1 + beta)
        radix2 = (1 + eps) * twiddle
        radix4 = twiddle * (1 + sqrt2 * gamma(2))
        radix5 = twiddle * (1 + sqrt5 * gamma(6))
        transform_ = radix2 ** (twos % 2) * radix4 ** (twos // 2) * radix5**fives
        scale = (1 + eps) ** 2 if fives else 1
        return transform_**3 * (1 + sqrt5 * eps) * (1 + eps) ** adds * scale - 1


@pytest.mark.parametrize("fives", [0, 1, 2])
def test_every_pass_fits_the_levels_it_is_counted_as(fives):
    # ceil(log2 padded) radix-2 levels cover numpy's radix-2, 4 and 5
    # passes and the inexact scale, so no padding needs an extra level
    for twos in range(31):
        padded = 5**fives << twos
        for adds in (0, 1, 7, 63):
            derived = pass_by_pass_factor(padded, adds)
            assert derived <= Decimal(transform._fft_error_factor(padded, adds)), padded


def one_limb_cap(n):
    """The largest entry v whose constant vector of length n still plans
    one limb, by bisection."""
    lo, hi = 1, 2**40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ceiling = transform._norm_ceiling(np.full(n, mid, dtype=np.int64))
        if plan_cyclic_convolution(n, ceiling, ceiling).limbs == 1:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize(("n", "padded"), [
    (1031, 5 * 2**9),
    (1597, 25 * 2**7),
    (10009, 5 * 2**12),
])
def test_rounding_stays_below_the_certified_error(n, padded, rng, monkeypatch):
    # at the one-limb cap, every inverse entry lies within the plan's
    # error of its integer, and the product is exact
    irfft, distances = np.fft.irfft, []

    def measured(*args, **kwargs):
        out = irfft(*args, **kwargs)
        distances.append(float(np.abs(out - np.rint(out)).max()))
        return out

    monkeypatch.setattr(np.fft, "irfft", measured)
    cap = one_limb_cap(n)
    full = np.full(n, cap, dtype=np.int64)
    drawn = rng.integers(0, cap + 1, size=n, dtype=np.int64)
    for a, b in [(full, full), (drawn, drawn), (full, drawn)]:
        norm_a, norm_b = transform._norm_ceiling(a), transform._norm_ceiling(b)
        plan = plan_cyclic_convolution(n, norm_a, norm_b)
        assert (plan.padded, plan.limbs) == (padded, 1)
        distances.clear()
        got = cyclic_convolve_exact(a, b)
        assert len(distances) == 1 and distances[0] < plan.error
        total = int(a.sum()) * int(b.sum())
        assert as_ints(got) == transform._cyclic_convolve_bigint(a, b, total)


def test_plan_splits_wide_inputs_into_limbs(rng):
    n = 4096
    a = np.full(n, 2**30, dtype=np.int64)
    b = rng.integers(0, 2**30, size=n).astype(np.int64)
    plan = plan_cyclic_convolution(n, norm(a), norm(b))
    assert plan.limbs >= 2
    assert plan.error < 0.5
    out = cyclic_convolve_exact(a, b)
    # every cyclic shift of b meets the constant vector a once
    assert as_ints(out) == [2**30 * int(b.sum())] * n


def parent_plan(length, norm_a, norm_b):
    """(padded, limbs, limb_bits, error) by the limb loop as it stood with
    a cap of 8 limbs, or None where that loop handed the product to big
    integers."""
    padded = transform._padded_length(length)
    norms = [float(norm_a), float(norm_b)]
    if not all(math.isfinite(v) for v in norms):
        return None
    factor = transform._fft_error_factor(padded)
    bits = max(1, max(int(v).bit_length() for v in norms))
    for limbs in range(1, 9):
        limb_bits = -(-bits // limbs)
        limb_norm = math.sqrt(length) * ((1 << limb_bits) - 1)
        worst = min(norms[0], limb_norm) * min(norms[1], limb_norm)
        error = worst * factor
        if limb_bits <= 53 and error < 0.5 and worst < 2.0**53:
            return padded, limbs, limb_bits, error
    return None


def test_every_capped_plan_is_unchanged():
    # every plan the capped loop made is the plan made today, field by
    # field; past the cap a plan takes more than 8 limbs
    lengths = [*range(1, 300), 1009, 1031, 1597, 4096, 10007, 10009, 65_536,
               100_043, 204_800, 10**6 + 3, 10**7]
    capped = beyond = 0
    for n in lengths:
        for bits in [*range(1, 8 * 53 + 1, 7), 8 * 53, 8 * 53 + 1]:
            for norm_a, norm_b in [(2.0**bits, 2.0**bits),
                                   (2.0**bits - 1, 3.0),
                                   (math.sqrt(n) * 2.0**bits, 2.0 ** (bits // 2))]:
                plan = plan_cyclic_convolution(n, norm_a, norm_b)
                want = parent_plan(n, norm_a, norm_b)
                got = (plan.padded, plan.limbs, plan.limb_bits, plan.error)
                if want is None:
                    beyond += 1
                    assert plan.limbs > 8 and plan.error < 0.5, (n, bits)
                else:
                    capped += 1
                    assert got == want, (n, bits)
    assert capped > 10_000 and beyond > 1_000


def test_plans_past_the_former_cap_take_more_limbs(rng):
    # inputs drawn like those of test_wide_limb_product_matches_direct,
    # which went to big integers under the cap of 8 limbs
    a = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    b = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    plan = plan_cyclic_convolution(33, norm(a), norm(b))
    assert parent_plan(33, norm(a), norm(b)) is None
    assert plan.limbs > 8 and plan.limb_bits <= 53 and plan.error < 0.5


def test_plan_refuses_a_length_no_split_certifies():
    # one-bit limbs certify below about 3e12 points, and nothing longer
    assert plan_cyclic_convolution(10**12, 1e12, 1e12).limb_bits == 1
    with pytest.raises(ParameterError):
        plan_cyclic_convolution(10**13, 1e13, 1e13)


@given(st.integers(1, 40), st.sampled_from([2**62, 2**100]), st.data())
def test_wide_entries_match_direct(n, top, data):
    # int64 entries up to 2**62, and Python integers beyond int64
    dtype = np.int64 if top < 2**63 else object
    draw = st.lists(st.integers(0, top), min_size=n, max_size=n)
    a = np.array(data.draw(draw), dtype=dtype)
    b = np.array(data.draw(draw), dtype=dtype)
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert as_ints(got) == as_ints(want)


def test_zero_input_beside_wide_input():
    wide = np.array([2**70, 0], dtype=object)
    assert as_ints(cyclic_convolve_exact(wide, np.array([0, 0]))) == [0, 0]


CORRUPTIONS = [
    {3: 0.6},
    # balanced, so the total still matches; only the distance check sees it
    {3: 0.6, 5: -0.6},
    # lands on the wrong integer; only the exact total sees it
    {3: 1.0},
]


def assert_corruption_is_recomputed(a, b, corruption):
    irfft = np.fft.irfft
    calls, recomputed = [], []

    def corrupted(*args, **kwargs):
        out = irfft(*args, **kwargs)
        for index, offset in corruption.items():
            out[index] += offset
        calls.append(1)
        return out

    bigint = transform._cyclic_convolve_bigint
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(np.fft, "irfft", corrupted)
        monkeypatch.setattr(transform, "_cyclic_convolve_bigint",
                            lambda *args: recomputed.append(1) or bigint(*args))
        got = cyclic_convolve_exact(a, b)
    assert calls
    assert recomputed == [1]
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


# lengths that pad to 5 * 2^5, 25 * 2^3 and 2^8 points
CORRUPTED_LENGTHS = [(80, 160), (97, 200), (120, 256)]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_float_product_is_recomputed(corruption, rng):
    # one limb each: the lone group is the result as it rounds
    for n, padded in CORRUPTED_LENGTHS:
        a = rng.integers(0, 1000, size=n).astype(np.int64)
        b = rng.integers(0, 1000, size=n).astype(np.int64)
        plan = plan_cyclic_convolution(n, norm(a), norm(b))
        assert (plan.padded, plan.limbs) == (padded, 1)
        assert_corruption_is_recomputed(a, b, corruption)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_multi_limb_product_is_recomputed(corruption, rng):
    # two limbs each: three shifts are combined
    for n, padded in CORRUPTED_LENGTHS:
        a = rng.integers(0, 2**33, size=n).astype(np.int64)
        b = rng.integers(0, 2**33, size=n).astype(np.int64)
        plan = plan_cyclic_convolution(n, norm(a), norm(b))
        assert (plan.padded, plan.limbs) == (padded, 2)
        assert_corruption_is_recomputed(a, b, corruption)


def wide_vector(seed, n, bits):
    """n uniformly drawn entries of `bits` bits, as Python integers."""
    rng = np.random.default_rng(seed)
    return np.array([int.from_bytes(rng.bytes(bits // 8), "little") for _ in range(n)],
                    dtype=object)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_many_limb_product_is_recomputed(corruption):
    # more than 8 limbs each: the failed checks still reach big integers
    for n, padded in CORRUPTED_LENGTHS:
        a, b = wide_vector(1, n, 160), wide_vector(2, n, 160)
        plan = plan_cyclic_convolution(n, norm(a), norm(b))
        assert plan.padded == padded and plan.limbs > 8
        assert_corruption_is_recomputed(a, b, corruption)


def test_many_limb_shifts_sum_within_int64(monkeypatch):
    # a rounded group is at most 2**53 - 1, so 1024 of them sum below
    # 2**63 and 1025 may not; a shift has at most as many groups as the
    # fewer limbs of its inputs
    assert transform._INT64_GROUPS * (2**53 - 1) <= 2**63 - 1
    assert (transform._INT64_GROUPS + 1) * (2**53 - 1) > 2**63 - 1
    # 3000-bit entries at length 8 take 143 limbs, up to 47 groups a shift
    a = wide_vector(3, 8, 3000)
    ceiling = transform._norm_ceiling(a)
    plan = plan_cyclic_convolution(8, ceiling, ceiling)
    _, norms = transform._limb_spectra(a, ceiling, plan)
    per_shift = Counter(s for s, _, _ in transform._shift_groups(norms, norms, plan.padded))
    assert plan.limbs > 100 and max(per_shift.values()) > 20
    want = as_ints(cyclic_convolve_direct(a, a))
    monkeypatch.setattr(transform, "_cyclic_convolve_bigint", None)
    assert as_ints(cyclic_convolve_exact(a, a)) == want
    # inputs of more limbs than the bound sum their shifts in Python integers
    monkeypatch.setattr(transform, "_INT64_GROUPS", 1)
    assert as_ints(cyclic_convolve_exact(a, a)) == want


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of np.fft.rfft and np.fft.irfft calls made during a test."""
    calls = Counter()
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def two_limb_vector(seed):
    # 33-bit entries at length 64 take two 18-bit limbs, and the two limb
    # products of shift 1 certify together
    return np.random.default_rng(seed).integers(0, 2**33, size=64, dtype=np.int64)


@pytest.mark.parametrize(
    ("wide", "other", "rfft", "irfft"),
    [
        (False, "same", 1, 1),
        (False, "copy", 1, 1),
        # one spectrum per limb, one inverse per shift 0, 1, 2
        (True, "same", 2, 3),
        (True, "copy", 2, 3),
        (True, "distinct", 4, 3),
    ],
)
def test_fft_calls_per_product(fft_calls, wide, other, rfft, irfft):
    a = two_limb_vector(1) if wide else np.arange(64, dtype=np.int64)
    b = {"same": a, "copy": a.copy(), "distinct": two_limb_vector(2)}[other]
    plan = plan_cyclic_convolution(64, norm(a), norm(b))
    assert plan.limbs == (2 if wide else 1)
    got = cyclic_convolve_exact(a, b)
    assert dict(fft_calls) == {"rfft": rfft, "irfft": irfft}
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


@given(
    st.integers(2, 40),
    st.sampled_from(("same", "copy", "distinct")),
    st.sampled_from((2**20, 2**40, 2**62)),
    st.sampled_from((1, 2**20, 2**62)),
    st.data(),
)
def test_multi_limb_products_match_direct(n, other, top_a, top_b, data):
    # self-products, equal-content copies, and inputs of unequal limb counts
    a = np.array(data.draw(st.lists(st.integers(0, top_a), min_size=n, max_size=n)),
                 dtype=np.int64)
    if other == "distinct":
        b = np.array(
            data.draw(st.lists(st.integers(0, top_b), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    else:
        b = a if other == "same" else a.copy()
    assert as_ints(cyclic_convolve_exact(a, b)) == as_ints(cyclic_convolve_direct(a, b))


@pytest.mark.parametrize(("bits", "rfft", "irfft", "norms"), [
    # a top entry of exactly limb_bits bits: a is its own limb, normed once
    (18, 3, 2, 4),
    # one bit more: a splits into two limbs, each normed
    (19, 4, 3, 6),
])
def test_limb_boundary_matches_direct(fft_calls, monkeypatch, bits, rfft, irfft, norms):
    a = np.random.default_rng(3).integers(0, 2**17, size=64, dtype=np.int64)
    a[5] = 2**bits - 1
    b = two_limb_vector(2)
    plan = plan_cyclic_convolution(64, norm(a), norm(b))
    assert (plan.limbs, plan.limb_bits) == (2, 18)
    norm_ceiling = transform._norm_ceiling
    monkeypatch.setattr(transform, "_norm_ceiling",
                        lambda v: fft_calls.update(["norm"]) or norm_ceiling(v))
    # the float product certifies: no result falls back to big integers
    monkeypatch.setattr(transform, "_cyclic_convolve_bigint", None)
    got = cyclic_convolve_exact(a, b)
    assert dict(fft_calls) == {"rfft": rfft, "irfft": irfft, "norm": norms}
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, b))


def test_shift_splits_when_the_sum_is_not_certified(fft_calls, monkeypatch):
    # one product still certifies, but any sum of two products does not
    factor = transform._fft_error_factor
    monkeypatch.setattr(transform, "_fft_error_factor",
                        lambda padded, adds=0: factor(padded) if adds == 0 else 1.0)
    a = two_limb_vector(1)
    got = cyclic_convolve_exact(a, a)
    # shift 1 runs its products (0, 1) and (1, 0) through separate inverses
    assert dict(fft_calls) == {"rfft": 2, "irfft": 4}
    assert as_ints(got) == as_ints(cyclic_convolve_direct(a, a))


def assert_tight_norm_ceiling(vec):
    """_norm_ceiling(vec) squared is at least the exact sum of squares and
    at most 1 + 1e-12 times it, so plans certify and do not widen."""
    squares = sum(int(x) ** 2 for x in vec.tolist())
    ceiling = Fraction(transform._norm_ceiling(vec)) ** 2
    assert squares <= ceiling <= squares * (1 + Fraction(1, 10**12))


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=64))
def test_norm_ceiling_of_int64_vectors(values):
    assert_tight_norm_ceiling(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**18])
def test_norm_ceiling_of_53_bit_vectors(n):
    assert_tight_norm_ceiling(np.full(n, 2**53 - 1, dtype=np.int64))


@pytest.mark.parametrize("value", [0, 1, 2, 3, 2**31, 2**62 + 1, 2**63 - 1])
def test_norm_ceiling_of_length_one(value):
    assert_tight_norm_ceiling(np.array([value], dtype=np.int64))


@pytest.mark.parametrize("bits", [32, 40, 62, 63])
def test_sum_of_squares_past_31_bits_is_exact(rng, bits):
    # entries past 2**31.5 take the split into 32-bit halves in uint64
    vec = rng.integers(0, 2**bits, size=10_038, dtype=np.int64)
    vec[:3] = [2**bits - 1, 2**32 - 1, 2**32]
    squares = sum(int(x) ** 2 for x in vec.tolist())
    assert transform._sum_of_squares(vec) == squares
    assert_tight_norm_ceiling(vec)


def test_norm_ceiling_past_int64():
    assert_tight_norm_ceiling(np.array([2**70, 3, 0], dtype=object))
    # past the float range the ceiling is the integer isqrt(s) + 1
    wide = np.array([2**600, 2**600 - 1, 5], dtype=object)
    assert transform._norm_ceiling(wide[:1]) == 2**600 + 1
    ceiling = transform._norm_ceiling(wide)
    assert type(ceiling) is int and (ceiling - 1) ** 2 <= 2**1201 < ceiling**2
    # so entries of 2**600 get a finite plan, and the exact product
    plan = plan_cyclic_convolution(3, ceiling, ceiling)
    assert 12 <= plan.limbs and plan.error < 0.5
    assert as_ints(cyclic_convolve_exact(wide, wide)) == as_ints(
        cyclic_convolve_direct(wide, wide))


def fraction_norm_ceiling(s):
    """The ceiling's former form: step up while Fraction(root) ** 2 < s;
    past the float range, isqrt(s) + 1."""
    try:
        root = math.sqrt(s)
    except OverflowError:
        return math.isqrt(s) + 1
    while Fraction(root) ** 2 < s:
        root = math.nextafter(root, math.inf)
    return root


def test_norm_ceiling_equals_the_fraction_form(monkeypatch):
    # the integer test n * n < s * d * d is Fraction(root) ** 2 < s, so
    # every plan and certified error stays bit-identical
    rng = np.random.default_rng(27)
    edges = [0, 1, 2, 3, 4, 5, 2**52, 2**53 - 1, 2**53, 2**53 + 1,
             (2**53 - 1) ** 2, (2**53 - 1) ** 2 + 1, (2**53 + 1) ** 2 - 1,
             2**106 + 1, 2**126 - 1, 10**300 + 7, 2**1023 + 1, 2**1024 - 2**971,
             2**1024 - 1, 2**1024, 2**1200, 2**1200 + 1, (2**600 + 1) ** 2]
    drawn = [int(rng.integers(1, 2**62)) << int(rng.integers(0, 960))
             for _ in range(200)]
    roots = [int(rng.integers(1, 2**62)) << int(rng.integers(0, 450))
             for _ in range(200)]
    near_squares = [k * k + d for k in roots for d in (-1, 0, 1)]
    for s in edges + drawn + near_squares:
        monkeypatch.setattr(transform, "_sum_of_squares", lambda arr, s=s: s)
        assert transform._norm_ceiling(np.zeros(1, np.int64)) == fraction_norm_ceiling(s), s


def test_group_at_two_to_the_53_is_not_certified():
    assert transform._group_error(2.0**53, 1, 64) == math.inf
    assert transform._group_error(2.0**52, 2, 64) < math.inf


@given(
    st.integers(1, 64),
    st.integers(0, 10**6),
    st.data(),
)
def test_exact_matches_direct(n, scale, data):
    a = np.array(
        data.draw(st.lists(st.integers(0, scale + 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    b = np.array(
        data.draw(st.lists(st.integers(0, scale + 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert as_ints(got) == as_ints(want)


def test_exact_preserves_total_mass(rng):
    a = rng.integers(0, 500, size=97).astype(np.int64)
    b = rng.integers(0, 500, size=97).astype(np.int64)
    out = cyclic_convolve_exact(a, b)
    assert int(np.sum(out)) == int(a.sum()) * int(b.sum())


def test_wide_limb_product_matches_direct(rng, monkeypatch):
    # more than 8 limbs of 160-bit entries, with no big-integer product
    a = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    b = (rng.integers(1, 2**40, size=33).astype(object)) ** 4
    assert plan_cyclic_convolution(33, norm(a), norm(b)).limbs > 8
    monkeypatch.setattr(transform, "_cyclic_convolve_bigint", None)
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert as_ints(got) == as_ints(want)


def test_wide_values_stay_exact():
    # beyond int64 but still within the multi-modulus certificate
    a = np.array([10**17] * 64, dtype=object)
    out = cyclic_convolve_exact(a, a)
    assert all(int(x) == 64 * 10**34 for x in out)


def test_rejects_negative_and_fractional_input():
    with pytest.raises(ParameterError):
        cyclic_convolve_exact(np.array([1, -2]), np.array([1, 1]))
    with pytest.raises(ParameterError):
        cyclic_convolve_exact(np.array([1.5, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        cyclic_convolve_exact(np.array([1, 2]), np.array([1, 2, 3]))


def test_length_one_convolution():
    out = cyclic_convolve_exact(np.array([7]), np.array([6]))
    assert as_ints(out) == [42]


# the largest s with s**2 <= 2**63 - 1
_ROOT = math.isqrt(2**63 - 1)


@pytest.mark.parametrize(("a", "b", "dtype"), [
    # length 1: [a0 * b0], planned by nothing
    ([7], [(2**63 - 1) // 7], np.int64),
    ([2**32], [2**31], object),
    # sum(a) * sum(b) is 2**63 - 1, then 2**63
    ([1, 2, 3, 1], [(2**63 - 1) // 7 - 3, 1, 1, 1], np.int64),
    ([2**31, 2**30, 2**30, 0], [2**30, 2**29, 2**29, 0], object),
    # a self-product whose total is _ROOT**2, then (_ROOT + 1)**2
    ([_ROOT - 3, 1, 2], "same", np.int64),
    ([_ROOT - 2, 1, 2], "same", object),
])
def test_result_dtype_follows_the_exact_total(a, b, dtype):
    # int64 exactly when sum(a) * sum(b) fits in int64
    a = np.array(a, dtype=np.int64)
    b = a if b == "same" else np.array(b, dtype=np.int64)
    got = cyclic_convolve_exact(a, b)
    want = cyclic_convolve_direct(a, b)
    assert got.dtype == want.dtype == dtype
    assert as_ints(got) == as_ints(want)


@pytest.mark.parametrize(("a", "k", "dtype"), [
    ([2**62 - 1, 2**62], 1, np.int64),
    ([2**62, 2**62], 1, object),
    ([_ROOT - 2, 1, 1], 2, np.int64),
    ([_ROOT - 1, 1, 1], 2, object),
    ([2**21 - 2, 1, 0, 0], 3, np.int64),
    ([2**20, 2**20 - 1, 1, 0], 3, object),
])
def test_power_dtype_follows_the_exact_total(a, k, dtype):
    # int64 exactly when sum(a)**k fits; the oracle convolves a k times
    # into the unit vector, whose sum is 1
    a = np.array(a, dtype=np.int64)
    got = cyclic_convolution_power(a, k)
    want = np.eye(1, a.size, dtype=np.int64)[0]
    for _ in range(k):
        want = cyclic_convolve_direct(want, a)
    assert got.dtype == want.dtype == dtype
    assert as_ints(got) == as_ints(want)


@given(st.integers(1, 5), st.data())
def test_power_matches_repeated_direct(k, data):
    n = data.draw(st.integers(1, 24), label="n")
    a = np.array(
        data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    got = cyclic_convolution_power(a, k)
    want = a.astype(object)
    for _ in range(k - 1):
        want = np.array(cyclic_convolve_direct(want, a), dtype=object)
    assert as_ints(got) == as_ints(want)


def test_power_squares_and_multiplies(monkeypatch):
    # k = 1..40 in floor(log2 k) + popcount(k) - 1 exact convolutions,
    # not the k - 1 of a chain; the oracle chains the schoolbook product
    a = np.array([3, 0, 1, 2, 5, 1, 0], dtype=np.int64)
    calls = []
    convolve = transform.cyclic_convolve_exact
    monkeypatch.setattr(transform, "cyclic_convolve_exact",
                        lambda *args: calls.append(1) or convolve(*args))
    want = a
    for k in range(1, 41):
        calls.clear()
        got = cyclic_convolution_power(a, k)
        assert len(calls) <= k.bit_length() + bin(k).count("1") - 2, k
        assert got.dtype == want.dtype and as_ints(got) == as_ints(want), k
        want = cyclic_convolve_direct(want, a)


def test_index_reversed():
    a = np.array([10, 11, 12, 13])
    assert index_reversed(a).tolist() == [10, 13, 12, 11]
    assert index_reversed(np.array([5])).tolist() == [5]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 97, 100, 101, 512, 10007])
def test_dft_matches_numpy_fft(n, rng):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, err = dft_prime_length(x)
    want = n * np.fft.ifft(x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) / scale < 1e-9
    assert err >= 0


@pytest.mark.parametrize("n", [5, 97, 10007])
def test_dft_roundtrip(n, rng):
    x = rng.standard_normal(n)
    X, _ = dft_prime_length(x)
    back = np.fft.fft(X) / n
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9


def test_dft_error_bound_grows_with_l1():
    small = dft_error_bound(64, 10.0)
    large = dft_error_bound(64, 1000.0)
    assert 0 < small < large


def test_dft_error_bound_is_sound(rng):
    # observed DFT error must sit below the certified bound
    for n in (97, 101, 512):
        x = rng.integers(0, 1000, size=n).astype(np.float64)
        got, err = dft_prime_length(x)
        want = n * np.fft.ifft(x)
        assert np.max(np.abs(got - want)) < err


def longdouble_dft(x: np.ndarray):
    """Real and imaginary parts of a direct O(n^2) DFT, out[a] = sum_x x[x]
    exp(2 pi i a x / n), evaluated in long double, sharing no FFT code."""
    n = x.size
    k = np.arange(n)
    pi = 4 * np.arctan(np.longdouble(1))
    phase = (np.outer(k, k) % n).astype(np.longdouble) * (2 * pi / n)
    xr = x.real.astype(np.longdouble)
    xi = x.imag.astype(np.longdouble)
    re = np.cos(phase) @ xr - np.sin(phase) @ xi
    im = np.sin(phase) @ xr + np.cos(phase) @ xi
    return re, im


@pytest.mark.parametrize("n", [5, 97, 101, 512])
def test_dft_error_bound_holds_against_longdouble_reference(n, rng):
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than double on this platform")
    x = rng.integers(0, 1000, size=n).astype(np.float64)
    got, err = dft_prime_length(x)
    re, im = longdouble_dft(x.astype(np.complex128))
    observed = np.max(np.hypot(got.real - re, got.imag - im))
    assert observed < err
    assert err == dft_error_bound(n, float(x.sum()))
