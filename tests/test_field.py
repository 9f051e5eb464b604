import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcong import field, kernels
from factcong.counting import CountQuery, count
from factcong.errors import CompositeModulusError, GuardExceededError, ParameterError
from factcong.field import (
    PrimeContext,
    factorize,
    find_primitive_root,
    is_probable_prime,
    primes_between,
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


def test_context_create_tests_primality_once(monkeypatch):
    calls = []
    is_prime = field.is_probable_prime
    monkeypatch.setattr(field, "is_probable_prime",
                        lambda n: calls.append(n) or is_prime(n))
    assert PrimeContext.create(1009).g == 11
    assert calls == [1009]

    def forbidden(n):
        raise AssertionError(f"factored {n}")

    # a prime past the 31-bit limit is refused before p - 1 is factored
    monkeypatch.setattr(field, "factorize", forbidden)
    with pytest.raises(ParameterError, match="31-bit"):
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
    with pytest.raises(GuardExceededError):
        PrimeContext.create(101, with_dlog=True)
    ctx = PrimeContext.create(101)
    with pytest.raises(GuardExceededError):
        ctx.dlog


def test_two_reads_of_a_window_share_one_read_only_array(monkeypatch):
    builds = []
    factorial_window = kernels.factorial_window
    monkeypatch.setattr(kernels, "factorial_window",
                        lambda *a: builds.append(a) or factorial_window(*a))
    ctx = PrimeContext.create(101)
    first, second = ctx.window(), ctx.window(0, 100)
    assert (second.L, second.N) == (0, 100)
    assert first.values is second.values
    assert builds == [(101, 0, 100)]
    with pytest.raises(ValueError):
        first.values[0] = 1
    assert ctx.window(3, 5).values.tolist() == factorial_window(101, 3, 5).tolist()
    assert PrimeContext.create(101).window().values is not first.values


def test_dropped_context_is_freed_at_once():
    # the context keeps window values, not windows, so it sits in no
    # reference cycle and goes as soon as the last reference does
    gc.disable()
    try:
        ctx = PrimeContext.create(101)
        ctx.window()
        ctx.dlog  # noqa: B018
        count(CountQuery(family="F", ctx=ctx), engine="conv")
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_primes_between_endpoints():
    assert primes_between(10, 10) == []
    assert primes_between(10, 11) == [11]
    assert primes_between(11, 11) == [11]
    assert primes_between(14, 13) == []
    assert primes_between(-5, 5) == [2, 3, 5]
