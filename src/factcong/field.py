"""Prime fields: primality, primitive roots, and discrete-log tables.

A ``PrimeContext`` fixes the modulus p and the smallest primitive root g.
Its dense index table, mapping every nonzero residue to its discrete
logarithm base g, and its factorial windows are loaded from the context's
cache directory or built the first time they are read.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CompositeModulusError, GuardExceededError, ParameterError

__all__ = [
    "DLOG_MEMORY_LIMIT",
    "BRUTE_TALLY_LIMIT",
    "is_probable_prime",
    "factorize",
    "find_primitive_root",
    "PrimeContext",
    "build_dlog_table",
    "check_table_limit",
    "primes_between",
    "next_prime_at_least",
    "primes_nearest",
]

DLOG_MEMORY_LIMIT = 10_000_000
# Largest p whose length-p histograms the exhaustive engine allocates, and
# the most entries a factorial window may hold.  The engine holds a few
# such histograms and no discrete-log table, so it is looser than
# DLOG_MEMORY_LIMIT: a brute count at p = 10000019 answers, while
# p = 2**31 - 1 would take 16 GiB per histogram or full window.
BRUTE_TALLY_LIMIT = 60_000_000

# Contexts are capped at 31-bit moduli so kernel products fit in int64.
MAX_CONTEXT_PRIME = 2**31 - 1

# Witness set covering every n below 3.3e24, far beyond the 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (witnesses 2..41)."""
    n = int(n)
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((prime, exponent), ...)."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"cannot factor {n}")
    out = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    q = 5
    # 6k +- 1 wheel; enough for the 31-bit group orders handled here
    while q * q <= n:
        for cand in (q, q + 2):
            e = 0
            while n % cand == 0:
                n //= cand
                e += 1
            if e:
                out.append((cand, e))
        q += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def find_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    p = int(p)
    if not is_probable_prime(p):
        raise CompositeModulusError(f"{p} is not prime")
    if p == 2:
        return 1
    order = p - 1
    prime_divisors = [q for q, _ in factorize(order)]
    g = 2
    while True:
        if all(pow(g, order // q, p) != 1 for q in prime_divisors):
            return g
        g += 1


@dataclass(frozen=True)
class PrimeContext:
    """Immutable bundle of a prime modulus with its group structure.

    ``dlog`` is a dense int64 table of length p with dlog[x] the exponent
    of the smallest primitive root giving x, and dlog[0] = -1.  It and the
    factorial windows of ``window`` cost O(p) memory each, so each is made
    on first read: loaded from ``cache_dir`` when that holds a good copy,
    else built (and saved there).  The context keeps every window it was
    asked for; a new context starts empty.
    """

    p: int
    g: int
    factors: tuple[tuple[int, int], ...]
    cache_dir: str | os.PathLike | None = dataclasses.field(default=None, compare=False)
    # read-only window values by (L, N); values, not windows, so that no
    # context -> window -> context cycle outlives a dropped context
    _windows: dict = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def create(cls, p: int, with_dlog: bool = False, cache_dir=None) -> "PrimeContext":
        """The context for the odd prime p; with_dlog reads the table now."""
        p = int(p)
        if not is_probable_prime(p):
            raise CompositeModulusError(f"{p} is not prime")
        if p < 3:
            raise ParameterError("the modulus must be an odd prime, got p < 3")
        if p > MAX_CONTEXT_PRIME:
            raise ParameterError(
                f"p={p} exceeds the 31-bit kernel limit {MAX_CONTEXT_PRIME}"
            )
        ctx = cls(p=p, g=find_primitive_root(p), factors=factorize(p - 1),
                  cache_dir=cache_dir)
        if with_dlog:
            ctx.dlog  # noqa: B018 -- the read builds or loads the table
        return ctx

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        from . import cache  # cache builds on this module

        return cache.dlog_table(self)

    def window(self, L: int = 0, N: int | None = None):
        """The factorial window (L, L+N], N = p-1-L by default."""
        from . import cache, factorial

        L = int(L)
        N = self.p - 1 - L if N is None else int(N)
        if (L, N) not in self._windows:
            values = cache.window(self, L, N).values
            values.flags.writeable = False
            # threads that race to build one window all keep the first array
            self._windows.setdefault((L, N), values)
        return factorial.FactorialWindow(self, L, N, self._windows[L, N])

    def index(self, x: int) -> int:
        """Discrete logarithm of x base g."""
        x = int(x) % self.p
        if x == 0:
            raise ParameterError("0 has no discrete logarithm")
        return int(self.dlog[x])

    def power_table(self) -> np.ndarray:
        """Inverse permutation of the dlog table: entry e holds g**e mod p."""
        table = self.dlog
        out = np.empty(self.p - 1, dtype=np.int64)
        out[table[1:]] = np.arange(1, self.p, dtype=np.int64)
        return out



def check_table_limit(size: int, what: str) -> None:
    """Refuse what, which needs tables of size entries, past
    DLOG_MEMORY_LIMIT; callers check before their first such allocation."""
    if size > DLOG_MEMORY_LIMIT:
        raise GuardExceededError(
            f"{what} needs {size} entries, which exceeds the limit of "
            f"{DLOG_MEMORY_LIMIT} entries per table"
        )


def build_dlog_table(ctx: PrimeContext) -> np.ndarray:
    """Dense discrete-log table for ctx, one sequential pass over the group."""
    check_table_limit(ctx.p, f"the discrete-log table for p={ctx.p}")
    return kernels.dlog_table(ctx.p, ctx.g)


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi]; endpoints need not be prime themselves."""
    lo, hi = int(lo), int(hi)
    if hi < lo or hi < 2:
        return []
    lo = max(lo, 2)
    if hi <= 20_000_000:
        sieve = bytearray([1]) * (hi + 1)
        sieve[0:2] = b"\x00\x00"
        for q in range(2, int(hi**0.5) + 1):
            if sieve[q]:
                sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
        return [n for n in range(lo, hi + 1) if sieve[n]]
    return [n for n in range(lo, hi + 1) if is_probable_prime(n)]


def next_prime_at_least(n: int) -> int:
    n = max(int(n), 2)
    while not is_probable_prime(n):
        n += 1
    return n


def primes_nearest(center: int, count: int) -> list[int]:
    """The count primes closest to center, ties resolved downward first."""
    center = int(center)
    out: list[int] = []
    lo, hi = center, center + 1
    while len(out) < count:
        if lo >= 2 and is_probable_prime(lo):
            out.append(lo)
        if len(out) < count and is_probable_prime(hi):
            out.append(hi)
        lo -= 1
        hi += 1
    return sorted(out[:count])
