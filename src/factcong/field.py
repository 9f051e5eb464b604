"""Prime fields: primality, primitive roots, power and discrete-log tables.

A ``PrimeContext`` fixes the modulus p and the smallest primitive root g.
Its power table of g**e mod p, its dense index table of discrete logs
base g and its factorial windows are built the first time they are read
and kept; only the discrete-log table is loaded from, and saved to, the
context's cache directory.
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
    "check_table_limit",
    "primes_between",
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

    ``power_table()`` serves exponent histograms, products and ``index``;
    ``dlog`` (dlog[x] = e with g**e = x, dlog[0] = -1) only direct
    character sums.  Each is made on first read and kept; ``dlog`` is
    loaded from ``cache_dir`` when that holds a good copy, else built (and
    saved there).  ``window`` builds the values of each window it is asked
    for on their first read, never from a file, and keeps them; a new
    context starts empty.
    """

    p: int
    g: int
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
        # before find_primitive_root, which would factor p - 1
        if p > MAX_CONTEXT_PRIME:
            raise ParameterError(
                f"p={p} exceeds the 31-bit kernel limit {MAX_CONTEXT_PRIME}"
            )
        g = find_primitive_root(p)  # raises CompositeModulusError
        if p < 3:
            raise ParameterError("the modulus must be an odd prime, got p < 3")
        ctx = cls(p=p, g=g, cache_dir=cache_dir)
        if with_dlog:
            ctx.dlog  # noqa: B018 -- the read builds or loads the table
        return ctx

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        from . import cache  # cache builds on this module

        return cache.dlog_table(self)

    def window(self, L: int = 0, N: int | None = None):
        """The factorial window (L, L+N], N = p-1-L by default.

        (L, N) is checked now; the values are built on their first read
        and kept, one read-only array per (L, N).
        """
        from . import factorial  # factorial builds on this module

        L = int(L)
        N = self.p - 1 - L if N is None else int(N)
        factorial.check_window(self, L, N)
        return factorial.FactorialWindow(
            self, L, N, functools.partial(self._window_values, L, N)
        )

    def _window_values(self, L: int, N: int) -> np.ndarray:
        from . import factorial

        if (L, N) not in self._windows:
            values = factorial.build_window(self, L, N).values
            values.flags.writeable = False
            # threads that race to build one window all keep the first array
            self._windows.setdefault((L, N), values)
        return self._windows[L, N]

    @functools.cached_property
    def _powers(self) -> np.ndarray:
        check_table_limit(self.p, f"the power table for p={self.p}")
        table = kernels.power_table(self.p, self.g)
        table.flags.writeable = False
        return table

    def power_table(self) -> np.ndarray:
        """Read-only: entry e holds g**e mod p, for e in [0, p - 1)."""
        return self._powers

    def index(self, x: int) -> int:
        """Discrete logarithm of x base g, found in the power table."""
        x = int(x) % self.p
        if x == 0:
            raise ParameterError("0 has no discrete logarithm")
        return int(np.flatnonzero(self.power_table() == x)[0])


def check_table_limit(size: int, what: str) -> None:
    """Refuse what, which needs tables of size entries, past
    DLOG_MEMORY_LIMIT; callers check before their first such allocation."""
    if size > DLOG_MEMORY_LIMIT:
        raise GuardExceededError(
            f"{what} needs {size} entries, which exceeds the limit of "
            f"{DLOG_MEMORY_LIMIT} entries per table"
        )


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

