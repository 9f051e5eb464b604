"""Seeded op lists for the benchmark workloads.

An op is one argv for ``factcong.cli.main`` plus the description of the
check its output must pass.  The seed picks, for every op, one of
``CHOICES`` primes in the op's band, the target lambda and the start of
each run of consecutive primes, and it draws the spectrum frequencies.
Primes and lambda come from short fixed candidate lists so that every
count the workloads can ask for is recorded ahead in ``expected.json``
(see ``record.py``); frequencies are drawn freely because their checks
are computed at run time.  Windows stay full (the package defaults), so
the spectra ops at one prime share their cached window.

Why these workloads:

- ``count-conv``: ``count --engine conv`` for all seven families at a
  prime near 1e4 and one near 1e5, plus one ``--profile``.  The exact
  convolution (NTT) hot path; it touches almost none of the brute,
  cache and analysis layers.
- ``sweep-brute``: one ``verify <bound> --engine brute`` per count bound
  over 30 consecutive primes near 1000.  Oracle tallies, Python combine
  loops and one prime context per cell, with zero NTT calls: the
  "no change predicted" workload for transform work.
- ``spectra-cache``: spectra, character sums, stats and a spectral sweep
  against a fresh cache directory, so each pass both writes and reads
  the binary caches, and covers the float DFT and CSV rendering.

Lambda is always nonzero: the single-lambda J count takes a slower exact
correlation loop for nonzero lambda than for lambda = 0, and a seed
should not switch between the two.  Prime runs start above 2048 for the
spectral sweep so every cell pads its transforms to the same length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("count-conv", "sweep-brute", "spectra-cache")

# How many candidates the seed chooses between for a prime, a lambda
# slot or the start of a run of consecutive primes.
CHOICES = 4

CACHE_PLACEHOLDER = "{cache}"

# (family, extra CLI arguments) in the order the count-conv pass runs them.
COUNT_FAMILIES = (
    ("J", ("--ell", "2")),
    ("SIGNED", ("--k", "3", "--signs", "+-+")),
    ("F", ()),
    ("I", ()),
    ("T", ("--r", "2")),
    ("Q", ("--r", "2")),
    ("R", ("--k", "1", "--ell", "1", "--r", "2")),
)

BRUTE_BOUNDS = ("T2.1", "C2.2", "T2.3", "T4.2", "T4.3", "T4.4", "B-I")
# Bounds of the brute sweep whose cells take a target lambda.
LAMBDA_BOUNDS = frozenset({"T2.1", "C2.2", "T4.2", "T4.3", "T4.4"})
SPECTRAL_BOUNDS = ("T3.1", "B-CharSum")

SIZES = {
    "full": {
        "count_bases": (10_000, 100_000),
        "brute_base": 1_000,
        "brute_run": 30,
        "batch_base": 100_000,
        "char_base": 1_000_000,
        "stats_base": 30_000,
        "stats_H": 100,
        "sweep_base": 2_050,
        "sweep_run": 40,
    },
    # Toy sizes for the self-test: the same op shapes in well under a second.
    "toy": {
        "count_bases": (101, 211),
        "brute_base": 100,
        "brute_run": 5,
        "batch_base": 211,
        "char_base": 1_009,
        "stats_base": 307,
        "stats_H": 10,
        "sweep_base": 150,
        "sweep_run": 5,
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against.

    ``check`` names the checker in ``checks.py``; ``params`` carries what
    that checker needs (prime, frequency, the keys of recorded answers).
    """

    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)

    def concrete_argv(self, cache_dir: str | None) -> list[str]:
        return [cache_dir if a == CACHE_PLACEHOLDER else a for a in self.argv]

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a != CACHE_PLACEHOLDER)[:72]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_from(start: int, count: int) -> list[int]:
    """The first ``count`` primes at or above ``start``, by trial division
    (kept apart from the package so a change there cannot move inputs)."""
    out: list[int] = []
    n = start
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


def lambda_for(p: int, slot: int) -> int:
    """Nonzero target residue for lambda slot ``slot`` at prime ``p``."""
    return 1 + slot * ((p - 1) // CHOICES)


def count_argv(family: str, extra: tuple[str, ...], p: int, lam: int) -> tuple[str, ...]:
    return ("count", family, *extra, "--p", str(p), "--engine", "conv",
            "--lambda", str(lam), "--threads", "1")


def profile_argv(p: int) -> tuple[str, ...]:
    return ("count", "J", "--ell", "2", "--p", str(p), "--profile", "--threads", "1")


def verify_argv(bound: str, primes: list[int], lam: int | None) -> tuple[str, ...]:
    lam_args = () if lam is None else ("--lambda", str(lam))
    return ("verify", bound, "--primes", ",".join(map(str, primes)), *lam_args,
            "--engine", "brute", "--threads", "1")


def sweep_argv(primes: list[int]) -> tuple[str, ...]:
    return ("sweep", "--bounds", ",".join(SPECTRAL_BOUNDS), "--primes",
            ",".join(map(str, primes)), "--threads", "1",
            "--cache-dir", CACHE_PLACEHOLDER)


def _choose(rng: np.random.Generator, candidates: list[int]) -> int:
    return candidates[int(rng.integers(len(candidates)))]


def _prime_run(rng: np.random.Generator, base: int, length: int) -> list[int]:
    start = int(rng.integers(CHOICES))
    return primes_from(base, length + CHOICES - 1)[start : start + length]


def _count_conv(rng, size) -> list[Op]:
    small, large = (_choose(rng, primes_from(base, CHOICES)) for base in size["count_bases"])
    ops = []
    # Small and large ops alternate so the short ones, where the median op
    # lies, sample the machine at times spread over the whole pass.
    for family, extra in COUNT_FAMILIES:
        for p in (small, large):
            argv = count_argv(family, extra, p, lambda_for(p, int(rng.integers(CHOICES))))
            ops.append(Op(argv, "count", {"key": " ".join(argv)}))
    profile = profile_argv(small)
    ops.insert(len(ops) // 2, Op(profile, "profile", {"key": " ".join(profile), "p": small}))
    return ops


def _sweep_brute(rng, size) -> list[Op]:
    primes = _prime_run(rng, size["brute_base"], size["brute_run"])
    ops = []
    for bound in BRUTE_BOUNDS:
        lam = 1 + int(rng.integers(CHOICES)) if bound in LAMBDA_BOUNDS else None
        ops.append(Op(verify_argv(bound, primes, lam), "rows",
                      {"bounds": [bound], "primes": primes, "exact_lhs": True}))
    return ops


def _spectra_cache(rng, size) -> list[Op]:
    p_batch = _choose(rng, primes_from(size["batch_base"], CHOICES))
    p_char = _choose(rng, primes_from(size["char_base"], CHOICES))
    p_stats = _choose(rng, primes_from(size["stats_base"], CHOICES))
    a = int(rng.integers(1, p_char))
    j = int(rng.integers(1, p_char - 1))
    H = size["stats_H"]
    cache = ("--threads", "1", "--cache-dir", CACHE_PLACEHOLDER)
    sweep_primes = _prime_run(rng, size["sweep_base"], size["sweep_run"])
    return [
        Op(("expsum", "batch", "--p", str(p_batch), "--format", "csv", *cache),
           "batch", {"p": p_batch, "probe_seed": int(rng.integers(2**31))}),
        Op(("expsum", "char", "--p", str(p_char), "--quadratic", "--format", "csv",
            *cache), "char", {"p": p_char, "j": (p_char - 1) // 2, "quadratic": True}),
        Op(("expsum", "single", "--p", str(p_char), "--a", str(a), "--format", "csv",
            *cache), "single", {"p": p_char, "a": a}),
        Op(("expsum", "char", "--p", str(p_char), "--j", str(j), "--format", "csv",
            *cache), "char", {"p": p_char, "j": j, "quadratic": False}),
        Op(("stats", "--p", str(p_stats), "--H", str(H), *cache),
           "stats", {"p": p_stats, "H": H}),
        Op(sweep_argv(sweep_primes), "rows",
           {"bounds": list(SPECTRAL_BOUNDS), "primes": sweep_primes, "exact_lhs": False}),
    ]


_BUILDERS = {
    "count-conv": _count_conv,
    "sweep-brute": _sweep_brute,
    "spectra-cache": _spectra_cache,
}


def build_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The fixed op list of one pass of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, SIZES[size])
