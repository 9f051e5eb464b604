"""Layer spans recorded from outside the package.

``Tracer.installed()`` swaps each public function listed in ``SPANS`` for
a wrapper that records a span (name, start, end, parent) and restores the
originals on exit.  Nothing inside ``src/`` changes.  The wrappers only see
calls made through the module attribute or class attribute they replace;
every call between the package's layers goes that way.

A layer's self time is its spans' durations minus the time covered by
their child spans.  The root span of each op is ``cli.main``, so the self
times of one pass add up to the pass's time inside ``cli.main`` and
``cli.dispatch_s`` holds whatever no layer span covers (argument parsing,
the report envelope, printing).  ``cli.rows_s`` is the self time of the
command handlers in ``cli._HANDLERS``: building result rows and the plain
text.  An attribute written ``NAME[]`` means every value of the dict NAME.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module, attribute, time metric, call-count metric or None)
SPANS = (
    ("kernels", "ntt_inplace", "kernels.ntt_s", "kernels.ntt_calls"),
    ("kernels", "sum_tally", "kernels.tally_s", "kernels.tally_calls"),
    ("kernels", "prod_tally", "kernels.tally_s", "kernels.tally_calls"),
    ("kernels", "pair_product_tally", "kernels.tally_s", "kernels.tally_calls"),
    ("kernels", "inverse_table", "kernels.tally_s", "kernels.tally_calls"),
    ("kernels", "factorial_window", "kernels.factorial_window_s", None),
    ("kernels", "dlog_table", "kernels.dlog_table_s", None),
    ("transform", "cyclic_convolve_exact", "transform.conv_s", "transform.conv_calls"),
    ("transform", "cyclic_convolution_power", "transform.conv_s", None),
    ("transform", "plan_cyclic_convolution", "transform.conv_s", None),
    ("transform", "index_reversed", "transform.conv_s", None),
    ("transform", "dft_prime_length", "transform.dft_s", "transform.dft_calls"),
    ("factorial", "value_histogram", "factorial.histogram_s", None),
    ("factorial", "exponent_histogram", "factorial.histogram_s", None),
    ("factorial", "sum_histogram", "factorial.histogram_s", None),
    ("factorial", "product_histogram", "factorial.histogram_s", None),
    ("counting", "count_convolution", "counting.conv_self_s", None),
    ("counting", "count_profile", "counting.conv_self_s", None),
    ("counting", "brute_force_count", "counting.brute_self_s", None),
    ("field", "PrimeContext.create", "field.context_s", "field.context_calls"),
    ("expsums", "batch_single_sums", "expsums.spectrum_s", None),
    ("expsums", "batch_double_sums", "expsums.spectrum_s", None),
    ("expsums", "batch_character_sums", "expsums.spectrum_s", None),
    ("expsums", "Spectrum.to_rows", "expsums.spectrum_s", None),
    ("expsums", "single_sum", "expsums.direct_s", None),
    ("expsums", "character_sum", "expsums.direct_s", None),
    ("expsums", "double_sum", "expsums.direct_s", None),
    ("analysis", "verify_sweep", "analysis.cell_self_s", None),
    ("analysis", "evaluate_cell", "analysis.cell_self_s", None),
    ("analysis", "distinct_stats", "analysis.stats_self_s", None),
    ("analysis", "discrepancy_estimate", "analysis.stats_self_s", None),
    ("analysis", "direct_discrepancy", "analysis.stats_self_s", None),
    ("cache", "load_dlog_table", "cache.load_s", "cache.hits"),
    ("cache", "load_window", "cache.load_s", "cache.hits"),
    ("cache", "save_dlog_table", "cache.save_s", "cache.misses"),
    ("cache", "save_window", "cache.save_s", "cache.misses"),
    ("cli", "_HANDLERS[]", "cli.rows_s", None),
    ("cli", "render", "cli.render_s", None),
    ("cli", "run", "cli.dispatch_s", None),
    ("cli", "main", "cli.dispatch_s", None),
)


def _points(plan) -> int:
    """Transform points one exact convolution costs: padded length x moduli."""
    return plan.padded * len(plan.moduli)


def _brute_tuples(result) -> int:
    from factcong import counting

    return counting.estimate_brute_work(result.query)


# Exact work counts read off a span's return value, as (metric, fn) pairs.
RESULT_COUNTS = {
    ("transform", "plan_cyclic_convolution"): (("transform.conv_points", _points),),
    ("counting", "brute_force_count"): (("counting.brute_tuples", _brute_tuples),),
    ("analysis", "verify_sweep"): (
        ("analysis.cells", lambda r: len(r.reports) + len(r.skipped)),
        ("analysis.cells_skipped", lambda r: len(r.skipped)),
    ),
}

TIME_METRICS = tuple(dict.fromkeys(s[2] for s in SPANS))
COUNT_METRICS = tuple(dict.fromkeys(
    [s[3] for s in SPANS if s[3]]
    + [m for pairs in RESULT_COUNTS.values() for m, _ in pairs]
))


class _ClassDict:
    """Item access to a class's attributes (a class __dict__ is read-only)."""

    def __init__(self, cls):
        self.cls = cls

    def __getitem__(self, name):
        return self.cls.__dict__[name]

    def __setitem__(self, name, value):
        setattr(self.cls, name, value)


def _targets(module_name: str, attr: str):
    """(table, key) pairs naming the functions one SPANS entry wraps."""
    module = importlib.import_module(f"factcong.{module_name}")
    if attr.endswith("[]"):
        table = getattr(module, attr[:-2])
        return [(table, key) for key in table]
    if "." in attr:
        cls_name, name = attr.split(".")
        return [(_ClassDict(getattr(module, cls_name)), name)]
    return [(module.__dict__, attr)]


class Tracer:
    """Collects spans of the ops run while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []  # metric, parent, start, end
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, metric, count_metric, result_counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((metric, parent, 0.0, 0.0))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (metric, parent, start, end)
            if count_metric:
                self.counts[count_metric] += 1
            for name, count_fn in result_counts:
                self.counts[name] += count_fn(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every function in SPANS by its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, metric, count_metric in SPANS:
                result_counts = RESULT_COUNTS.get((module_name, attr), ())
                for table, name in _targets(module_name, attr):
                    raw = table[name]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, metric, count_metric,
                                                     result_counts))
                    else:
                        new = self._wrap(raw, metric, count_metric, result_counts)
                    saved.append((table, name, raw))
                    table[name] = new
            yield self
        finally:
            for table, name, raw in reversed(saved):
                table[name] = raw

    def summary(self) -> dict[str, float]:
        """Self time per time metric and every count metric, zeros included."""
        out = {m: 0.0 for m in TIME_METRICS}
        child = [0.0] * len(self.spans)
        for metric, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (metric, _, start, end), covered in zip(self.spans, child):
            out[metric] += (end - start) - covered
        for m in COUNT_METRICS:
            out[m] = self.counts[m]
        return out
