"""End-to-end benchmark of the factcong command line.

Run from the repository root:

    python3 perfbench/run.py --workload count-conv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run of one workload (``workloads.py`` says what each covers):

1. Set-up: ``SETUP_REPEATS`` fresh interpreters each import factcong and
   create a temporary cache directory; ``setup_s`` is the median time from
   spawning one to its being ready for the first op.
2. Passes: the workload's fixed op list runs in this process, one
   ``factcong.cli.main(argv)`` call per op with ``--threads 1``, pass after
   pass until ``--seconds`` have gone by (at least one pass).  Each pass
   gets a fresh cache directory.  With ``--trace 1`` untraced and traced
   passes alternate (at least one of each) and the run reports per-layer
   metrics instead of end-to-end ones.
3. Checks: every op's output is checked (``checks.py``); an op fails if it
   exits non-zero, raises, or its output fails the check or differs from
   the first pass.  Checks run after the passes, outside every timing.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run (git SHA, versions, nproc, seed, src line count).  The script exits
with 2 and prints no result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    **{m: "s" for m in tracing.TIME_METRICS},
    **{m: "count" for m in tracing.COUNT_METRICS},
    "bench.trace_overhead_frac": "fraction",
    "bench.span_cover_frac": "fraction",
}

_SETUP_CODE = (
    "import os, sys, tempfile\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import factcong.cli\n"
    "d = tempfile.mkdtemp(prefix='cache-', dir=sys.argv[2])\n"
    "print('ready', flush=True)\n"
    "os.rmdir(d)\n"
)


def measure_setup() -> list[float]:
    """Seconds from spawning an interpreter to its first op being ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(TMP_ROOT)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
        times.append(ready - start)
    return times


def run_pass(cli, ops, tracer=None, keep_text=False):
    """One pass over ops; returns (wall seconds, per-op seconds, outputs).

    An output is (exit code or error text if the op raised, SHA-256 of
    stdout, stdout if keep_text else None).  Only the first pass keeps its
    text, so peak memory does not grow with the number of passes.
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=TMP_ROOT)
    op_times, outputs = [], []
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            pass_start = time.perf_counter()
            for op in ops:
                argv = op.concrete_argv(cache_dir)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # an op that raises is a failed op
                        code = f"{type(exc).__name__}: {exc}"
                    op_times.append(time.perf_counter() - start)
                text = out.getvalue()
                outputs.append((code, hashlib.sha256(text.encode()).digest(),
                                text if keep_text else None))
            wall = time.perf_counter() - pass_start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, op_times, outputs


def count_failures(ops, passes, checker) -> list[str]:
    """One reason per failed op across all passes (first pass is checked,
    later passes must reproduce its output byte for byte)."""
    first = passes[0]["outputs"]
    verdicts = [f"exit {code}" if code != 0 else checker.check(op, text)
                for op, (code, _, text) in zip(ops, first)]
    reasons = []
    for n, record in enumerate(passes):
        for i, (code, digest, _) in enumerate(record["outputs"]):
            if code != 0:
                reason = f"exit {code}"
            elif digest != first[i][1]:
                reason = "output differs from the first pass"
            else:
                reason = verdicts[i]
            if reason:
                reasons.append(f"pass {n} op {i} [{ops[i].label}]: {reason}")
    return reasons


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", expected: dict | None = None) -> dict:
    """Run one workload; returns the result object (without printing)."""
    from factcong import cli

    ops = workloads.build_ops(workload, seed, size)
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        setup = [] if trace else measure_setup()
        passes = []
        start = time.perf_counter()
        while True:
            tracer = tracing.Tracer() if trace and len(passes) % 2 else None
            wall, op_times, outputs = run_pass(cli, ops, tracer, keep_text=not passes)
            passes.append({"wall": wall, "op_times": op_times, "outputs": outputs,
                           "layers": tracer.summary() if tracer else None})
            if time.perf_counter() - start >= seconds and len(passes) >= (2 if trace else 1):
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reasons = count_failures(ops, passes, checks.Checker(expected or checks.load_expected()))
    finally:
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    attempted = len(ops) * len(passes)
    plain = [p for p in passes if p["layers"] is None]
    if trace:
        metrics = layer_metrics(passes, plain)
    else:
        per_op = [statistics.median(p["op_times"][i] for p in plain) for i in range(len(ops))]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall"] for p in plain),
            "op_p50_s": statistics.median(per_op),
            "peak_rss_mib": peak_rss_mib,
            "ok_frac": 1 - len(reasons) / attempted,
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_reasons": reasons,
        "_passes": len(passes),
        "_ops": len(ops),
        "_walls": [(p["wall"], p["layers"] is not None) for p in passes],
    }


def layer_metrics(passes, plain) -> dict:
    """Median per traced pass of every layer metric, plus tracing cost."""
    traced = [p for p in passes if p["layers"] is not None]
    out = {m: statistics.median(p["layers"][m] for p in traced) for m in tracing.TIME_METRICS}
    out.update({m: statistics.median_low(p["layers"][m] for p in traced)
                for m in tracing.COUNT_METRICS})
    out["bench.trace_overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1
    )
    out["bench.span_cover_frac"] = statistics.median(
        1 - p["layers"]["cli.dispatch_s"] / sum(p["layers"][m] for m in tracing.TIME_METRICS)
        for p in traced
    )
    return out


def run_record(workload: str, seed: int) -> dict:
    """What a result depends on besides the code under test."""
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    sha = None  # the checkout may be a plain copy of the tree
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
    }


def print_result(result: dict, record: dict) -> None:
    for reason in result["_reasons"][:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"# {record['workload']}: {result['_passes']} passes of {result['_ops']} ops "
          f"({result['attempted']} ops attempted, {result['failed']} failed)")
    print("# pass walls: " + " ".join(f"{w:.3f}{'t' if traced else ''}"
                                      for w, traced in result["_walls"]))
    for name, m in result["metrics"].items():
        print(f"# {name:28} {m['value']:>16.6f} {m['unit']}")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({k: v for k, v in result.items() if not k.startswith("_")}))


def run_all(args) -> int:
    """Every workload, each in its own process; prints one table."""
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28} {m['value']:>16.6f} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "factcong" / "__init__.py").is_file():
        print(f"factcong sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ.pop("FACTCONG_CACHE_DIR", None)
    import factcong

    if Path(factcong.__file__).resolve().parent != SRC / "factcong":
        print(f"imported factcong from {factcong.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, run_record(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
