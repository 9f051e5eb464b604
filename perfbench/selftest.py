"""Self-test of the benchmark at toy size (about half a minute).

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run at toy size must be
correct and emit exactly the metrics, with the units, that BENCHMARK.json
names; the traced run must show the layer split the workload exists for;
and a run against a deliberately wrong recorded answer must count that op
as failed.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import run
import workloads

# Per-layer facts each workload is built to show, as (metric, predicate).
SHAPE = {
    "count-conv": [("kernels.ntt_calls", lambda v: v > 0)],
    "sweep-brute": [("kernels.ntt_calls", lambda v: v == 0),
                    ("counting.brute_tuples", lambda v: v > 0)],
    "spectra-cache": [("cache.hits", lambda v: v > 0), ("cache.misses", lambda v: v > 0),
                      ("transform.dft_calls", lambda v: v > 0)],
}


def corrupt(expected: dict, op: workloads.Op) -> dict:
    """A copy of expected with the recorded answers for op made wrong."""
    wrong = copy.deepcopy(expected)
    if op.check == "count":
        wrong["counts"][op.params["key"]] = str(int(expected["counts"][op.params["key"]]) + 1)
        return wrong
    prefix = checks.row_key(op.params["bounds"][0], op.params["primes"][0], "")
    for key, row in wrong["rows"].items():
        if key.startswith(prefix):
            row["lhs"] = repr(2 * float(row["lhs"]) + 1)
    return wrong


def fail(message: str) -> None:
    print(f"selftest: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expected = checks.load_expected()
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(workload, 0, 0, trace, "toy", expected)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared[trace]:
                fail(f"{workload} trace={trace} emits {sorted(emitted.items())}")
            if not result["correct"]:
                fail(f"{workload} trace={trace} failed: {result['_reasons'][:3]}")
            if trace:
                for metric, ok in SHAPE[workload]:
                    if not ok(result["metrics"][metric]["value"]):
                        fail(f"{workload}: {metric} = {result['metrics'][metric]['value']}")
        ops = workloads.build_ops(workload, 0, "toy")
        target = next(op for op in ops if op.check in ("count", "rows"))
        result = run.run_workload(workload, 0, 0, False, "toy", corrupt(expected, target))
        if result["correct"] or not any(target.label in r for r in result["_reasons"]):
            fail(f"{workload}: a wrong recorded answer for {target.label!r} went unnoticed")
        print(f"selftest: {workload} ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
