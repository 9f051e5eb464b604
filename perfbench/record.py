"""Record the answers the benchmark checks counts and verify rows against.

Usage, from the repository root (takes about ten minutes):

    python3 perfbench/record.py

Runs every count, profile and verify/sweep op that any seed can produce
(workloads.py keeps that set finite) through ``factcong.cli.main`` and
writes the outputs to ``perfbench/expected.json``.  Before a value is
written it is cross-checked, and the script stops on any disagreement:

- each single-lambda count against the full lambda profile of the same
  query, whose sum must equal the closed-form number of tuples;
- one lambda per query against the brute-force engine wherever that
  enumerates at most BRUTE_LIMIT tuples (every query at toy size);
- F_1 against Parseval's identity over a float FFT, at primes too large
  for brute force;
- verify rows against the same rows from the other engine, and the
  spectral sweep against a run with ``--engine both`` (direct spot checks).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import checks
import workloads
from workloads import CHOICES, SIZES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factcong import cli, counting  # noqa: E402
from factcong.counting import CountQuery  # noqa: E402
from factcong.field import PrimeContext  # noqa: E402

BRUTE_LIMIT = 3 * 10**8
PROFILE_FAMILIES = ("J", "SIGNED", "T", "Q", "R")


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def agree(what: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"{what}: {got} != {want}")
    print(f"  ok {what}", flush=True)


def query_for(family: str, extra: tuple[str, ...], ctx: PrimeContext, lam: int) -> CountQuery:
    kw = {extra[i].lstrip("-"): extra[i + 1] for i in range(0, len(extra), 2)}
    signs = tuple(1 if c == "+" else -1 for c in kw.pop("signs", ""))
    return CountQuery(family=family, ctx=ctx, lam=lam, signs=signs,
                      **{k: int(v) for k, v in kw.items()})


def closed_total(q: CountQuery) -> int:
    n = q.ctx.p - 1  # every window is full
    return {"J": n ** (2 * q.ell), "SIGNED": n ** q.k, "T": n ** (2 * q.r),
            "Q": n ** (q.r + 2), "R": n ** (q.k + q.ell + q.r)}[q.family]


def parseval_f1(ctx: PrimeContext) -> float:
    """F_1 over full windows by a float route that shares no package code.

    F_1 = sum_t c(t)^2 for the pair-product histogram c; in the exponent
    domain c is the cyclic self-convolution of the log histogram u, so by
    Parseval F_1 = sum_k |u_hat(k)|^4 / (p - 1).
    """
    p = ctx.p
    logs = np.empty(p, dtype=np.int64)
    acc = 1
    for e in range(p - 1):
        logs[acc] = e
        acc = acc * ctx.g % p
    values = np.empty(p - 1, dtype=np.int64)
    f = 1
    for n in range(1, p):
        f = f * n % p
        values[n - 1] = f
    u = np.bincount(logs[values], minlength=p - 1).astype(float)
    return float((np.abs(np.fft.fft(u)) ** 4).sum() / (p - 1))


def record_counts(size: dict, expected: dict) -> None:
    for band, base in enumerate(size["count_bases"]):
        for p in workloads.primes_from(base, CHOICES):
            ctx = PrimeContext.create(p, with_dlog=True)
            for family, extra in workloads.COUNT_FAMILIES:
                lams = [workloads.lambda_for(p, s) for s in range(CHOICES)]
                values = []
                for lam in lams:
                    argv = workloads.count_argv(family, extra, p, lam)
                    values.append(int(run_cli(argv)))
                    expected["counts"][" ".join(argv)] = str(values[-1])
                q = query_for(family, extra, ctx, lams[0])
                if family in PROFILE_FAMILIES:
                    profile = counting.count_profile(q)
                    total = sum(int(c) for c in profile)
                    if family == "R":
                        total += counting.count_convolution(q).details["dropped_zero_mass"]
                    agree(f"{family} p={p} profile total", total, closed_total(q))
                    agree(f"{family} p={p} counts vs profile", values,
                          [int(profile[lam]) for lam in lams])
                if counting.estimate_brute_work(q) <= BRUTE_LIMIT:
                    agree(f"{family} p={p} brute", counting.count(q, "brute").count, values[0])
                elif family == "F":
                    ref = parseval_f1(ctx)
                    agree(f"F p={p} Parseval", abs(ref - values[0]) <= 1e-9 * ref, True)
            if band == 0:
                argv = workloads.profile_argv(p)
                out = run_cli(argv)
                rows = checks.csv_rows(out)
                agree(f"J p={p} profile CLI total", sum(int(r["count"]) for r in rows),
                      (p - 1) ** 4)
                expected["profiles"][" ".join(argv)] = checks.sha256(out)


def store_rows(out: str, expected: dict) -> list[dict]:
    rows = checks.csv_rows(out)
    for row in rows:
        expected["rows"][checks.row_key(row["theorem"], row["p"], row["lam"])] = row
    return rows


def record_rows(size: dict, expected: dict) -> None:
    primes = workloads.primes_from(size["brute_base"], size["brute_run"] + CHOICES - 1)
    for bound in workloads.BRUTE_BOUNDS:
        lams = range(1, CHOICES + 1) if bound in workloads.LAMBDA_BOUNDS else [None]
        for lam in lams:
            argv = workloads.verify_argv(bound, primes, lam)
            brute = store_rows(run_cli(argv), expected)
            conv = checks.csv_rows(run_cli([a if a != "brute" else "conv" for a in argv]))
            agree(f"{bound} lam={lam} brute vs conv rows", brute, conv)
    primes = workloads.primes_from(size["sweep_base"], size["sweep_run"] + CHOICES - 1)
    argv = workloads.sweep_argv(primes)[:-2]  # drop --cache-dir and its placeholder
    rows = store_rows(run_cli(argv), expected)
    agree("spectral sweep vs --engine both", rows,
          checks.csv_rows(run_cli([*argv, "--engine", "both"])))


def main() -> int:
    expected: dict = {"counts": {}, "profiles": {}, "rows": {}}
    for name in ("toy", "full"):
        print(f"size {name}", flush=True)
        record_rows(SIZES[name], expected)
        record_counts(SIZES[name], expected)
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
