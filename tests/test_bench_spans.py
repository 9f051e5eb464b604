"""The benchmark's tracer wraps package functions by name.

perfbench/tracing.py lists in ``SPANS`` every module attribute, class
attribute and handler table it swaps for a timing wrapper.  A rename or
removal in the package would break a traced benchmark run; this test
resolves every entry the way the tracer does, so it breaks here first.
The benchmark module is imported read-only from its directory.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        mp.setattr(sys, "dont_write_bytecode", True)
        import tracing

        yield tracing


def test_every_span_resolves_to_a_function(tracing):
    assert tracing.SPANS
    for module_name, attr, *_ in tracing.SPANS:
        targets = tracing._targets(module_name, attr)
        assert targets, f"{module_name}.{attr} names nothing"
        for table, key in targets:
            fn = table[key]
            assert callable(getattr(fn, "__func__", fn)), f"{module_name}.{attr}[{key}]"

