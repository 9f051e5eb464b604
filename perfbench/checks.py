"""Output checks, run after the timed passes.

Counts and verify rows are compared with answers recorded at the commit
that introduced the benchmark (``expected.json``, written by
``record.py``, which cross-checked them with the brute-force engine or
closed-form totals).  Spectra are compared at seeded frequencies with the
package's direct evaluators on freshly built windows, and the quadratic
character sum also with Euler's criterion.  Each checker returns None when
the output is right, else a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Integer columns of verify/sweep rows; lhs is exact for count bounds.
_INT_COLUMNS = ("p", "ell", "k", "r", "s", "lam", "K", "M", "L", "N", "S", "T")
_REL_TOL = 1e-9


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def row_key(theorem: str, p, lam) -> str:
    return f"{theorem} p={p} lam={lam}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Checker:
    """Checks op outputs; builds each reference window or context once."""

    def __init__(self, expected: dict):
        self.expected = expected
        self._windows: dict = {}

    def _window(self, p: int, with_dlog: bool = False):
        from factcong.factorial import build_window
        from factcong.field import PrimeContext

        key = (p, with_dlog)
        if key not in self._windows:
            ctx = PrimeContext.create(p, with_dlog=with_dlog)
            self._windows[key] = build_window(ctx, 0, p - 1)
        return self._windows[key]

    def check(self, op, out: str) -> str | None:
        try:
            return getattr(self, "_" + op.check)(out, **op.params)
        except (ValueError, KeyError, IndexError) as exc:  # malformed output
            return f"unreadable output: {exc!r}"

    def _count(self, out: str, key: str) -> str | None:
        want = self.expected["counts"].get(key)
        if want is None:
            return f"no recorded count for {key!r}"
        if out.strip() != want:
            return f"count {out.strip()!r} != recorded {want}"
        return None

    def _profile(self, out: str, key: str, p: int) -> str | None:
        rows = csv_rows(out)
        total = sum(int(r["count"]) for r in rows)
        if len(rows) != p or total != (p - 1) ** 4:
            return f"J_2 profile: {len(rows)} rows summing to {total}, want {p} summing to (p-1)^4"
        if sha256(out) != self.expected["profiles"].get(key):
            return "profile differs from the recorded one"
        return None

    def _rows(self, out: str, bounds: list[str], primes: list[int], exact_lhs: bool):
        rows = csv_rows(out)
        if len(rows) != len(bounds) * len(primes):
            return f"{len(rows)} rows for {len(bounds)} bounds x {len(primes)} primes"
        due = [(b, p) for b in bounds for p in primes]
        for row, (bound, p) in zip(rows, due):
            if (row["theorem"], row["p"]) != (bound, str(p)):
                return f"row for {row['theorem']} p={row['p']} where {bound} p={p} was due"
            key = row_key(bound, p, row["lam"])
            want = self.expected["rows"].get(key)
            if want is None:
                return f"no recorded row for {key}"
            for col, value in row.items():
                if col in _INT_COLUMNS or col == "theorem" or (exact_lhs and col == "lhs"):
                    same = value == want[col]
                else:
                    same = math.isclose(float(value), float(want[col]), rel_tol=_REL_TOL)
                if not same:
                    return f"{key}: {col}={value} but recorded {want[col]}"
        return None

    def _batch(self, out: str, p: int, probe_seed: int) -> str | None:
        from factcong import expsums, transform

        rows = csv_rows(out)
        if len(rows) != p:
            return f"{len(rows)} spectrum rows for p={p}"
        window = self._window(p)
        tol = 64 * transform.dft_error_bound(p, window.N)
        rng = np.random.default_rng(probe_seed)
        for a in [0, *rng.integers(1, p, size=8).tolist()]:
            row = rows[a]
            ref = expsums.single_sum(window, a)
            got = complex(float(row["re"]), float(row["im"]))
            if int(row["a"]) != a or not _close(got, ref.value, tol + 64 * ref.abs_error):
                return f"spectrum at a={a} is {got}, direct sum gives {ref.value}"
        return None

    def _single_row(self, out: str, index_col: str, index: int):
        rows = csv_rows(out)
        if len(rows) != 1 or int(rows[0][index_col]) != index:
            return None
        row = rows[0]
        return complex(float(row["re"]), float(row["im"])), float(row["abs_error"])

    def _single(self, out: str, p: int, a: int) -> str | None:
        from factcong import expsums

        got = self._single_row(out, "a", a)
        if got is None:
            return f"expected one row for a={a}"
        ref = expsums.single_sum(self._window(p), a)
        if not _close(got[0], ref.value, 64 * max(got[1], ref.abs_error)):
            return f"single sum {got[0]} != direct {ref.value}"
        return None

    def _char(self, out: str, p: int, j: int, quadratic: bool) -> str | None:
        from factcong import expsums

        got = self._single_row(out, "j", j)
        if got is None:
            return f"expected one row for j={j}"
        window = self._window(p, with_dlog=True)
        ref = expsums.character_sum(window, j)
        tol = 64 * max(got[1], ref.abs_error)
        if not _close(got[0], ref.value, tol):
            return f"character sum {got[0]} != fresh-table sum {ref.value}"
        if quadratic and not _close(got[0], _legendre_sum(window.values, p), tol):
            return f"quadratic character sum {got[0]} != Euler criterion sum"
        return None

    def _stats(self, out: str, p: int, H: int) -> str | None:
        from factcong import expsums, factorial

        fields = {k: v for k, _, v in (line.partition(" ") for line in out.splitlines())}
        window = self._window(p, with_dlog=True)
        distinct = len(np.unique(window.values))
        if int(fields["p"]) != p or int(fields["H"]) != H:
            return "stats report another p or H"
        if int(fields["distinct_count"]) != distinct:
            return f"distinct_count {fields['distinct_count']} != {distinct}"
        # Erdos-Turan from H direct double sums, against the CLI's DFT route.
        hist = factorial.product_histogram(window, window)
        n_points = window.N * window.N
        weights = sum(
            abs(expsums.double_sum(window, window, a, hist).value) / (a * n_points)
            for a in range(1, H + 1)
        )
        estimate = 3.0 * (1.0 / (H + 1) + weights)
        if not math.isclose(float(fields["discrepancy_estimate"]), estimate, rel_tol=_REL_TOL):
            return f"discrepancy estimate {fields['discrepancy_estimate']} != {estimate}"
        return None


def _legendre_sum(values: np.ndarray, p: int) -> int:
    """Sum of the Legendre symbol over values, by Euler's criterion."""
    result = np.ones_like(values)
    base = values % p
    e = (p - 1) // 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return int(np.count_nonzero(result == 1)) - int(np.count_nonzero(result == p - 1))
