"""Command-line front end.

Subcommands cover the library surface: window construction, exponential
sums, exact counts, bound verification sweeps, and distribution stats.
Every run produces a ReportEnvelope whose config echo replays the run
byte for byte; floating output uses repr so reruns diff clean.

Exit codes: 0 success, 2 validation error, 3 a size or work guard,
4 engine disagreement; 0, with nothing on stderr, when the reader closes
stdout early (``| head``).

``main`` may be called any number of times in one process: it builds its
argument parser on the first call and reuses it.  ``$FACTCONG_CACHE_DIR``
is read when each command runs, so changing it between calls takes effect.
On glibc the first call also sets the process's malloc thresholds
(``_tune_malloc``); the library API leaves process settings alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import platform
import sys
import time
import warnings

import numpy as np

from . import __version__, analysis, counting, expsums
from .analysis import BOUND_IDS
from .counting import ENGINES, FAMILIES, CountQuery
from .errors import (
    EngineMismatchError,
    FactcongError,
    FactcongWarning,
    GuardExceededError,
    ParameterError,
)
from .field import PrimeContext, check_table_limit, primes_between

__all__ = ["main", "build_parser", "config_to_argv"]

TOOL = "factcong"
CACHE_ENV = "FACTCONG_CACHE_DIR"
FORMATS = ("plain", "json", "csv", "tsv")


class CommandOutput:
    """What a handler hands back: a table held as columns, plus plain text.

    columns maps each column name, in output order, to a list with one
    Python scalar per row.  plain is a zero-argument callable that builds
    the plain rendering; it runs only when that format is asked for.
    """

    def __init__(self, columns, plain, default_format="plain", series=None):
        self.columns = columns
        self.plain = plain
        self.default_format = default_format
        self.series = series

    def rows(self) -> list[dict]:
        """The table as one dict per row, for the JSON envelope."""
        names = list(self.columns)
        return [dict(zip(names, values)) for values in zip(*self.columns.values())]


def _single_row(row: dict) -> dict:
    return {key: [value] for key, value in row.items()}


# ---------------------------------------------------------------------------
# argument parsing


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def parse_signs(text: str) -> tuple[int, ...]:
    """Sign pattern, written compactly ("+-+") or as a list ("1,-1,1")."""
    text = text.strip()
    if not text:
        raise ParameterError("empty sign pattern")
    if "," in text:
        try:
            signs = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ParameterError(f"bad sign list {text!r}") from exc
    else:
        table = {"+": 1, "-": -1}
        try:
            signs = tuple(table[ch] for ch in text)
        except KeyError as exc:
            raise ParameterError(f"bad sign character in {text!r}") from exc
    if any(s not in (-1, 1) for s in signs):
        raise ParameterError("signs must be +1 or -1")
    return signs


def parse_primes(text: str) -> list[int]:
    """Prime list from "A..B" (sieved range, endpoints need not be prime)
    or an explicit comma list."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ParameterError(f"bad prime range {text!r}") from exc
        primes = primes_between(lo, hi)
        if not primes:
            raise ParameterError(f"no primes in [{lo}, {hi}]")
        return primes
    try:
        primes = sorted({int(tok) for tok in text.split(",")})
    except ValueError as exc:
        raise ParameterError(f"bad prime list {text!r}") from exc
    return primes


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default depends on the command)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write output to FILE instead of stdout")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"discrete-log table cache (default ${CACHE_ENV})")
    parser.add_argument("--threads", type=_positive, default=1)
    parser.add_argument("--seed", type=_nonnegative, default=0,
                        help="seed for sampled spot checks")


def _add_window(parser, offset: str, length: str, role: str) -> None:
    parser.add_argument(f"--{offset}", type=_nonnegative, default=0,
                        help=f"offset of the {role} window (default 0)")
    parser.add_argument(f"--{length}", type=_positive, default=None,
                        help=f"length of the {role} window (default p-1-{offset})")


def _add_count_flags(parser):
    """The windows, multiplicities and --engine of count, verify and sweep."""
    _add_window(parser, "L", "N", "main")
    _add_window(parser, "K", "M", "second")
    _add_window(parser, "S", "T", "third")
    parser.add_argument("--ell", type=_positive, default=None)
    parser.add_argument("--k", type=_positive, default=None)
    parser.add_argument("--r", type=_positive, default=None)
    parser.add_argument("--s", type=_nonnegative, default=None)
    parser.add_argument("--lambda", dest="lam", type=int, default=None,
                        help="target residue")
    parser.add_argument("--signs", type=parse_signs, default=None,
                        help='sign pattern, e.g. "+-" or "1,-1"; join one that '
                        'starts with "-" by "=", as in --signs=-+--')
    parser.add_argument("--engine", choices=ENGINES, default="auto")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog=TOOL,
        description="Exponential sums and exact counts for factorial "
        "congruences modulo a prime.",
    )
    top.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    fac = sub.add_parser("factorials", help="factorial window residues")
    fac.add_argument("--p", type=_positive, required=True)
    _add_window(fac, "L", "N", "main")
    _add_common(fac)

    exp = sub.add_parser("expsum", help="exponential and character sums")
    expsub = exp.add_subparsers(dest="kind", required=True)

    single = expsub.add_parser("single", help="one additive sum over the window")
    single.add_argument("--p", type=_positive, required=True)
    single.add_argument("--a", type=int, required=True, help="frequency")
    _add_window(single, "L", "N", "main")
    _add_common(single)

    batch = expsub.add_parser("batch", help="all frequencies at once")
    batch.add_argument("--p", type=_positive, required=True)
    _add_window(batch, "L", "N", "main")
    _add_common(batch)

    double = expsub.add_parser("double", help="pair-product sum over two windows")
    double.add_argument("--p", type=_positive, required=True)
    double.add_argument("--a", type=int, required=True)
    _add_window(double, "L", "N", "main")
    _add_window(double, "K", "M", "second")
    _add_common(double)

    char = expsub.add_parser("char", help="multiplicative character sum")
    char.add_argument("--p", type=_positive, required=True)
    group = char.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", type=_nonnegative, default=None,
                       help="character index in [0, p-1)")
    group.add_argument("--quadratic", action="store_true",
                       help="use the quadratic character, j=(p-1)/2")
    _add_window(char, "L", "N", "main")
    _add_common(char)

    cnt = sub.add_parser("count", help="exact solution count for one family")
    cnt.add_argument("family", choices=FAMILIES)
    cnt.add_argument("--p", type=_positive, required=True)
    _add_count_flags(cnt)
    cnt.add_argument("--profile", action="store_true",
                     help="emit the full count-by-residue table")
    _add_common(cnt)

    ver = sub.add_parser("verify", help="sweep one bound across primes")
    ver.add_argument("theorem", choices=BOUND_IDS, metavar="BOUND",
                     help=f"one of {', '.join(BOUND_IDS)}")
    ver.add_argument("--primes", required=True, type=parse_primes,
                     help='range "A..B" or comma list')
    _add_count_flags(ver)
    _add_common(ver)

    swp = sub.add_parser("sweep", help="verify several bounds in one table")
    swp.add_argument("--bounds", required=True,
                     help=f"comma list from {', '.join(BOUND_IDS)}")
    swp.add_argument("--primes", required=True, type=parse_primes)
    _add_count_flags(swp)
    _add_common(swp)

    st = sub.add_parser("stats", help="value distribution and discrepancy")
    st.add_argument("--p", type=_positive, required=True)
    _add_window(st, "L", "N", "main")
    _add_window(st, "K", "M", "second")
    st.add_argument("--H", type=_positive, default=None,
                    help="spectral cutoff; enables the discrepancy report")
    _add_common(st)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; parsing leaves no state in it."""
    return build_parser()


# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _tune_malloc() -> None:
    """Keep freed heap pages in the process: on glibc, fix the mmap and
    trim thresholds at 32 MiB; elsewhere, or where mallopt is missing, do
    nothing.

    An exact convolution at p ~ 1e5 runs rfft/irfft at 2^18 points.  By
    default glibc trims the heap top once twice its dynamic mmap
    threshold lies free there, so it returns pocketfft's scratch and the
    2 MiB temporaries to the kernel after each transform, and the next
    one faults every page in again: about 3,500 minor faults per
    convolution and 31,600 per warm pass of the benchmark's count-conv
    workload, at 3-4 us a page on a 2-CPU Linux VM.  With these values a
    warm pass takes almost none.

    Calling mallopt turns glibc's dynamic threshold off, so the mmap
    threshold is pinned at that threshold's 64-bit ceiling, 32 MiB: at
    3 MiB the 8-16 MiB spectra at p ~ 1e6 were mmapped and faulted in on
    every call (20,000 faults per spectra-cache pass).  The trim threshold
    matches it, so a freed block of any size the heap serves is kept: at
    16 MiB a warm count-conv pass still took 4,500 faults, at 4 MiB all
    31,600.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


# ---------------------------------------------------------------------------
# config echo


def config_to_argv(config: dict) -> list[str]:
    """Rebuild an argv that replays this run (excluding --out/--cache-dir)."""
    argv = list(config["_argv_head"])
    for key, value in config.items():
        if key.startswith("_") or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "lam":
            flag = "--lambda"
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        if key == "signs":
            argv.extend([flag, ",".join(str(s) for s in value)])
            continue
        if key == "primes":
            argv.extend([flag, ",".join(str(p) for p in value)])
            continue
        argv.extend([flag, str(value)])
    return argv


def _echo_config(ns: argparse.Namespace) -> dict:
    head = [ns.command]
    for attr in ("kind", "family", "theorem"):
        if getattr(ns, attr, None):
            head.append(getattr(ns, attr))
    skip = {"command", "kind", "family", "theorem", "out", "cache_dir", "func"}
    config: dict = {"_argv_head": head}
    for key, value in sorted(vars(ns).items()):
        if key in skip or key.startswith("_"):
            continue
        config[key] = value
    return config


# ---------------------------------------------------------------------------
# shared helpers


def format_complex(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}i"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return str(value)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_factorials(ns) -> CommandOutput:
    window = PrimeContext.create(ns.p, cache_dir=ns.cache_dir).window(ns.L, ns.N)
    values = window.values.tolist()
    columns = {"n": list(range(window.L + 1, window.L + 1 + len(values))),
               "value": values}
    return CommandOutput(columns, lambda: " ".join(map(str, values)))


def _cmd_expsum(ns) -> CommandOutput:
    ctx = PrimeContext.create(ns.p, cache_dir=ns.cache_dir)
    window = ctx.window(ns.L, ns.N)
    if ns.kind == "single":
        sv = expsums.single_sum(window, ns.a)
        return _sum_value_output("a", sv.a, sv)
    if ns.kind == "batch":
        a, re, im, mag = expsums.batch_single_sums(window).to_rows()
        columns = {"a": a, "re": re, "im": im, "abs": mag}
        return CommandOutput(
            columns,
            lambda: "\n".join(
                f"{x} {format_complex(complex(r, i))}" for x, r, i in zip(a, re, im)
            ),
            default_format="csv",
        )
    if ns.kind == "double":
        wm = ctx.window(ns.K, ns.M)
        sv = expsums.double_sum(wm, window, ns.a)
        return _sum_value_output("a", sv.a, sv)
    j = (ctx.p - 1) // 2 if ns.quadratic else ns.j
    return _sum_value_output("j", j, expsums.character_sum(window, j))


def _sum_value_output(key: str, index: int, sv) -> CommandOutput:
    row = {
        key: index,
        "re": sv.value.real,
        "im": sv.value.imag,
        "abs": abs(sv.value),
        "abs_error": sv.abs_error,
    }
    return CommandOutput(_single_row(row), lambda: format_complex(sv.value))


def _count_query(ns, ctx) -> CountQuery:
    """The fields given on the command line, each one the family reads
    (--s, which only sweeps read, is refused for all); --K and --S, which
    default to 0, count as given when nonzero."""
    family = counting._FAMILIES[ns.family]
    fields = {key: value for key, value in _given_params(ns).items()
              if value or key not in ("K", "S")}
    unread = [key for key in fields if key not in family.fields]
    if unread:
        flags = ", ".join(f"--{key}" for key in unread)
        raise ParameterError(f"count {ns.family} does not read {flags}")
    if family.exponents:  # lambda is read at its exponent: nonzero
        fields.setdefault("lam", 1)
    return CountQuery(family=ns.family, ctx=ctx, **fields)


def _cmd_count(ns) -> CommandOutput:
    ctx = PrimeContext.create(ns.p, cache_dir=ns.cache_dir)
    query = _count_query(ns, ctx)
    if ns.profile:
        counts = counting.count_profile(query).tolist()
        columns = {"lam": list(range(len(counts))), "count": counts}
        return CommandOutput(
            columns,
            lambda: "\n".join(f"{lam} {c}" for lam, c in enumerate(counts)),
            default_format="csv",
        )
    result = counting.count(query, engine=ns.engine)
    dropped = result.details.get("dropped_zero_mass")
    if dropped:
        warnings.warn(
            f"{int(dropped)} tuples with a zero bracket product cannot "
            f"reach a nonzero residue and were excluded structurally",
            FactcongWarning,
        )
    q = result.query
    row = {
        "family": q.family,
        "p": ctx.p,
        "ell": q.ell,
        "k": q.k,
        "r": q.r,
        "lam": q.lam,
        "K": q.K, "M": q.M, "L": q.L, "N": q.N, "S": q.S, "T": q.T,
        "count": int(result.count),
        "engine": result.engine,
        "seconds": result.seconds,
    }
    return CommandOutput(_single_row(row), lambda: str(row["count"]))


def _given_params(ns) -> dict:
    return {
        key: getattr(ns, key)
        for key in ("ell", "k", "r", "s", "lam", "signs", "L", "N", "K", "M", "S", "T")
        if getattr(ns, key, None) is not None
    }


def _report_columns(reports) -> dict[str, list]:
    """The verify and sweep table: one column per field, one row per report."""
    columns = {
        "theorem": [rep.bound_id for rep in reports],
        "p": [rep.p for rep in reports],
    }
    for key in ("ell", "k", "r", "s", "lam", "K", "M", "L", "N", "S", "T"):
        values = (rep.params.get(key) for rep in reports)
        columns[key] = [None if v is None else int(v) for v in values]
    columns["lhs"] = [rep.lhs for rep in reports]
    columns["rhs"] = [rep.rhs for rep in reports]
    columns["ratio"] = [rep.ratio for rep in reports]
    return columns


def _run_sweeps(ns, bound_ids) -> CommandOutput:
    result = analysis.verify_sweep(
        bound_ids,
        ns.primes,
        _given_params(ns),
        engine=ns.engine,
        threads=ns.threads,
        seed=ns.seed,
        cache_dir=ns.cache_dir,
    )
    for bound_id, p, reason in result.skipped:
        warnings.warn(f"{bound_id} p={p} skipped: {reason}", FactcongWarning)
    # one ratio per (bound, prime): a repeated bound id repeats its rows,
    # not its series
    ratios: dict[str, dict] = {bound_id: {} for bound_id in bound_ids}
    for rep in result.reports:
        ratios[rep.bound_id][rep.p] = rep.ratio
    columns = _report_columns(result.reports)
    return CommandOutput(
        columns,
        lambda: _table_text(columns, _formats(columns), " "),
        default_format="csv",
        series={b: [[p, r] for p, r in by_p.items()] for b, by_p in ratios.items()},
    )


def _cmd_verify(ns) -> CommandOutput:
    return _run_sweeps(ns, [ns.theorem])


def _cmd_sweep(ns) -> CommandOutput:
    bound_ids = [tok.strip() for tok in ns.bounds.split(",") if tok.strip()]
    unknown = [b for b in bound_ids if b not in BOUND_IDS]
    if unknown:
        raise ParameterError(f"unknown bound ids {unknown}")
    if not bound_ids:
        raise ParameterError("--bounds needs at least one bound id")
    return _run_sweeps(ns, bound_ids)


def _cmd_stats(ns) -> CommandOutput:
    ctx = PrimeContext.create(ns.p, cache_dir=ns.cache_dir)
    window = ctx.window(ns.L, ns.N)
    row = dataclasses.asdict(analysis.distinct_stats(window))
    if ns.H is not None:
        # the double-sum spectrum has length p; refuse it before the second
        # window, by default p - 1 entries, is built
        check_table_limit(ctx.p, f"the double-sum spectrum for p={ctx.p}")
        wm = ctx.window(ns.K, ns.M)
        report = analysis.discrepancy_estimate(wm, window, H=ns.H)
        row.update({
            "M": report.M,
            "H": report.H,
            "discrepancy_estimate": report.estimate,
            "direct_discrepancy": report.direct,
        })
        if report.direct is None:
            warnings.warn(
                "pair count exceeds the direct-discrepancy guard; "
                "only the spectral estimate is reported",
                FactcongWarning,
            )
    return CommandOutput(
        _single_row(row),
        lambda: "\n".join(f"{key} {_cell(value)}" for key, value in row.items()),
    )


_HANDLERS = {
    "factorials": _cmd_factorials,
    "expsum": _cmd_expsum,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
}


# ---------------------------------------------------------------------------
# rendering

# Rows formatted at a time: a whole table held as separate cell strings
# would take several times the size of its text.
_RENDER_ROWS = 4096


def _column_format(values: list):
    """repr for an all-float column, str for an all-int column, _cell
    otherwise.  Each gives the same text as _cell on those values."""
    types = set(map(type, values))
    if types == {float}:
        return repr
    if types == {int}:
        return str
    return _cell


def _formats(columns: dict) -> list:
    return [_column_format(values) for values in columns.values()]


def _blocks(columns: dict, formats: list):
    """The rows of cell text, _RENDER_ROWS rows at a time."""
    values = list(columns.values())
    for start in range(0, len(values[0]), _RENDER_ROWS):
        part = slice(start, start + _RENDER_ROWS)
        yield zip(*[list(map(fmt, col[part])) for fmt, col in zip(formats, values)])


def _table_text(columns: dict, formats: list, sep: str) -> str:
    lines = [sep.join(columns)]
    lines.extend("\n".join(map(sep.join, rows)) for rows in _blocks(columns, formats))
    return "\n".join(lines)


def render(envelope: dict, output: CommandOutput, fmt: str) -> str:
    if fmt == "plain":
        return output.plain()
    if fmt == "json":
        envelope = {**envelope, "results": output.rows()}
        return json.dumps(envelope, indent=2, default=_json_default)
    # No cell needs quoting: a number's text holds no delimiter, quote or
    # line break, and nor does any string a table holds (bound ids, family
    # and engine names), so cells are joined as they are.
    return _table_text(output.columns, _formats(output.columns),
                       "," if fmt == "csv" else "\t")


def run(ns: argparse.Namespace) -> tuple[dict, CommandOutput]:
    """Dispatch one parsed command; returns (envelope, output).  Its
    FactcongWarnings go into the envelope, other warnings are shown."""
    ns.cache_dir = ns.cache_dir or os.environ.get(CACHE_ENV) or None
    notes: list[str] = []
    show = warnings.showwarning

    def record(message, category, *rest):
        if issubclass(category, FactcongWarning):
            notes.append(str(message))
        else:
            show(message, category, *rest)

    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always", FactcongWarning)
        warnings.showwarning = record
        output = _HANDLERS[ns.command](ns)
    seconds = time.perf_counter() - started
    config = _echo_config(ns)
    envelope = {
        "tool": TOOL,
        "version": __version__,
        "command": " ".join(config["_argv_head"]),
        "config": {k: v for k, v in config.items() if not k.startswith("_")},
        "argv": config_to_argv(config),
        "results": None,  # render fills in the rows, for json only
        "warnings": notes,
        "timing_seconds": round(seconds, 6),
    }
    if output.series:
        envelope["series"] = output.series
    return envelope, output


def main(argv: list[str] | None = None) -> int:
    _tune_malloc()
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        envelope, output = run(ns)
    except EngineMismatchError as exc:
        print(f"{TOOL}: engine mismatch: {exc}", file=sys.stderr)
        return 4
    except GuardExceededError as exc:
        print(f"{TOOL}: guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, FactcongError) as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 2
    fmt = ns.format or output.default_format
    text = render(envelope, output, fmt)
    if fmt != "json":
        for warning in envelope["warnings"]:
            print(f"{TOOL}: warning: {warning}", file=sys.stderr)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"{TOOL}: cannot write --out {ns.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader stopped; the interpreter's flush at exit goes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
