import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcong import field, kernels
from factcong.errors import CompositeModulusError, ParameterError, TableTooLargeError
from factcong.field import (
    PrimeContext,
    Residue,
    factorize,
    find_primitive_root,
    is_probable_prime,
    next_prime_at_least,
    primes_between,
    primes_nearest,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101, 997, 7919, 104729]
SMALL_COMPOSITES = [0, 1, 4, 9, 15, 91, 561, 1105, 25326001 - 1]


def test_primality_on_known_values():
    for p in SMALL_PRIMES:
        assert is_probable_prime(p)
    for n in SMALL_COMPOSITES:
        assert not is_probable_prime(n)


def test_primality_against_sieve():
    sieve = primes_between(2, 2000)
    assert sieve == [n for n in range(2, 2001) if is_probable_prime(n)]


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reconstructs(n):
    prod = 1
    for q, e in factorize(n):
        assert is_probable_prime(q)
        prod *= q**e
    assert prod == n


def test_primitive_roots_known():
    # smallest generators, classical table values
    assert find_primitive_root(5) == 2
    assert find_primitive_root(7) == 3
    assert find_primitive_root(11) == 2
    assert find_primitive_root(23) == 5
    assert find_primitive_root(41) == 6


def test_primitive_root_rejects_composite():
    with pytest.raises(CompositeModulusError):
        find_primitive_root(15)


@given(st.sampled_from([5, 7, 11, 13, 17, 101, 251]))
def test_primitive_root_generates_whole_group(p):
    g = find_primitive_root(p)
    seen = set()
    x = 1
    for _ in range(p - 1):
        seen.add(x)
        x = x * g % p
    assert len(seen) == p - 1


def test_context_create_validates():
    with pytest.raises(CompositeModulusError):
        PrimeContext.create(10)
    with pytest.raises(ParameterError):
        PrimeContext.create(2)
    with pytest.raises(ParameterError):
        PrimeContext.create(2**31 + 11)


def test_context_dlog_roundtrip(ctx101):
    table = ctx101.dlog
    assert table[0] == -1
    assert table[1] == 0
    for x in range(1, 101):
        assert pow(ctx101.g, int(table[x]), 101) == x


def test_context_power_table_inverts_dlog(ctx101):
    powers = ctx101.power_table()
    table = ctx101.dlog
    for x in range(1, 101):
        assert powers[table[x]] == x


def test_context_dlog_built_on_first_read(monkeypatch):
    builds = []
    dlog_table = kernels.dlog_table
    monkeypatch.setattr(kernels, "dlog_table",
                        lambda *a: builds.append(a) or dlog_table(*a))
    ctx = PrimeContext.create(13)
    assert builds == []
    assert ctx.index(ctx.g) == 1
    assert ctx.dlog is ctx.dlog
    assert builds == [(13, ctx.g)]
    PrimeContext.create(13, with_dlog=True)
    assert len(builds) == 2


def test_dlog_memory_limit(monkeypatch):
    monkeypatch.setattr(field, "DLOG_MEMORY_LIMIT", 50)
    with pytest.raises(TableTooLargeError):
        PrimeContext.create(101, with_dlog=True)
    ctx = PrimeContext.create(101)
    with pytest.raises(TableTooLargeError):
        ctx.dlog


def test_inverse_and_pow(ctx11):
    for x in range(1, 11):
        assert ctx11.inverse(x) * x % 11 == 1
    with pytest.raises(ParameterError):
        ctx11.inverse(0)


def test_residue_range():
    Residue(0, 7)
    Residue(6, 7)
    with pytest.raises(ParameterError):
        Residue(7, 7)
    with pytest.raises(ParameterError):
        Residue(-1, 7)


def test_primes_between_endpoints():
    assert primes_between(10, 10) == []
    assert primes_between(10, 11) == [11]
    assert primes_between(11, 11) == [11]
    assert primes_between(14, 13) == []
    assert primes_between(-5, 5) == [2, 3, 5]


def test_next_prime_at_least():
    assert next_prime_at_least(10) == 11
    assert next_prime_at_least(11) == 11
    assert next_prime_at_least(-3) == 2


def test_primes_nearest():
    got = primes_nearest(10, 4)
    assert len(got) == 4
    assert got == sorted(got)
    assert all(is_probable_prime(q) for q in got)
    assert 11 in got and 7 in got
