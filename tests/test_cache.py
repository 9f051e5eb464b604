import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from factcong import cache, factorial, kernels
from factcong.cache import dlog_cache_path, load_dlog_table, save_dlog_table
from factcong.errors import CacheFormatError, FactcongWarning
from factcong.field import PrimeContext


@pytest.fixture
def ctx10007():
    return PrimeContext.create(10007, with_dlog=True)


def test_dlog_roundtrip_bit_exact(tmp_path, ctx10007):
    path = dlog_cache_path(tmp_path, 10007)
    save_dlog_table(path, ctx10007, ctx10007.dlog)
    table, g = load_dlog_table(path, 10007)
    assert g == ctx10007.g
    np.testing.assert_array_equal(table, ctx10007.dlog)


def test_dlog_rejects_bad_magic(tmp_path, ctx7):
    path = dlog_cache_path(tmp_path, 7)
    save_dlog_table(path, ctx7, ctx7.dlog)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="magic"):
        load_dlog_table(path, 7)


def test_dlog_rejects_truncation(tmp_path, ctx10007):
    path = dlog_cache_path(tmp_path, 10007)
    save_dlog_table(path, ctx10007, ctx10007.dlog)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheFormatError, match="size"):
        load_dlog_table(path, 10007)
    path.write_bytes(raw[:3])
    with pytest.raises(CacheFormatError, match="header"):
        load_dlog_table(path, 10007)


def test_dlog_rejects_wrong_prime(tmp_path, ctx7):
    path = dlog_cache_path(tmp_path, 7)
    save_dlog_table(path, ctx7, ctx7.dlog)
    with pytest.raises(CacheFormatError, match="wanted"):
        load_dlog_table(path, 11)


def test_dlog_rejects_tampered_payload(tmp_path, ctx10007):
    path = dlog_cache_path(tmp_path, 10007)
    save_dlog_table(path, ctx10007, ctx10007.dlog)
    raw = bytearray(path.read_bytes())
    # rotate the whole payload one entry: every exponent is now wrong
    # (still in range, so only the sample check can notice)
    header = 20
    body = raw[header:]
    raw[header:] = body[4:] + body[:4]
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="sample"):
        load_dlog_table(path, 10007)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(CacheFormatError):
        load_dlog_table(tmp_path / "absent.fcl1", 7)


def test_windows_are_built_and_never_cached(tmp_path, monkeypatch):
    builds = []
    build_window = factorial.build_window
    monkeypatch.setattr(factorial, "build_window",
                        lambda *a: builds.append(a[1:]) or build_window(*a))
    ctx = PrimeContext.create(7, cache_dir=tmp_path)
    assert ctx.window().values.tolist() == [1, 2, 6, 3, 1, 6]
    assert ctx.window(0, 6).values.tolist() == [1, 2, 6, 3, 1, 6]
    assert builds == [(0, 6)]
    assert list(tmp_path.iterdir()) == []
    PrimeContext.create(7, cache_dir=tmp_path).window()
    assert builds == [(0, 6), (0, 6)]


def test_get_or_build_dlog_recovers_from_corruption(tmp_path, ctx7):
    PrimeContext.create(7, cache_dir=tmp_path).dlog  # noqa: B018
    path = dlog_cache_path(tmp_path, 7)
    path.write_bytes(b"garbage")
    with pytest.warns(FactcongWarning, match="discarding bad cache file"):
        table = PrimeContext.create(7, cache_dir=tmp_path).dlog
    np.testing.assert_array_equal(table, ctx7.dlog)
    # the bad file was replaced with a good one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(
            PrimeContext.create(7, cache_dir=tmp_path).dlog, ctx7.dlog
        )


def test_get_or_build_dlog_caches(tmp_path, monkeypatch):
    table = PrimeContext.create(101, cache_dir=tmp_path).dlog
    assert dlog_cache_path(tmp_path, 101).exists()

    def forbidden(*args):
        raise AssertionError("a cached table was rebuilt")

    monkeypatch.setattr(kernels, "dlog_table", forbidden)
    again = PrimeContext.create(101, cache_dir=tmp_path)
    np.testing.assert_array_equal(again.dlog, table)


def test_dlog_of_another_generator_is_a_bad_file(tmp_path, ctx7):
    # 5 generates the group mod 7 as well, so the file passes its own checks
    other = PrimeContext(p=7, g=5)
    save_dlog_table(dlog_cache_path(tmp_path, 7), other, kernels.dlog_table(7, 5))
    with pytest.warns(FactcongWarning, match="discarding bad cache file.*generator 5"):
        table = PrimeContext.create(7, cache_dir=tmp_path).dlog
    np.testing.assert_array_equal(table, ctx7.dlog)


def test_save_dlog_ignores_stale_tmp_dir(tmp_path, ctx7):
    # a directory squatting on the old fixed temp name no longer blocks saves
    path = dlog_cache_path(tmp_path, 7)
    path.with_name(path.name + ".tmp").mkdir()
    save_dlog_table(path, ctx7, ctx7.dlog)
    table, _ = load_dlog_table(path, 7)
    np.testing.assert_array_equal(table, ctx7.dlog)


def _refuse(src, dst):
    raise OSError("disk full")


def test_failed_write_warns_and_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "replace", _refuse)
    ctx = PrimeContext.create(13, cache_dir=tmp_path)
    with pytest.warns(FactcongWarning, match="cache not written: disk full"):
        assert ctx.dlog.tolist() == kernels.dlog_table(13, ctx.g).tolist()
    assert list(tmp_path.iterdir()) == []


def test_bad_file_that_cannot_be_rewritten_warns_twice(tmp_path, monkeypatch):
    dlog_cache_path(tmp_path, 7).write_bytes(b"junk")
    monkeypatch.setattr(os, "replace", _refuse)
    with pytest.warns(FactcongWarning) as record:
        PrimeContext.create(7, cache_dir=tmp_path).dlog  # noqa: B018
    assert [str(w.message).split(":")[0] for w in record] == [
        "discarding bad cache file", "cache not written"
    ]


def test_get_or_build_dlog_without_dir():
    ctx = PrimeContext.create(13)
    assert ctx.cache_dir is None
    assert ctx.dlog.tolist() == kernels.dlog_table(13, ctx.g).tolist()


@pytest.mark.parametrize("module, name", [
    (kernels, "ntt_inplace"), (cache, "save_window"), (cache, "load_window"),
])
def test_removed_names_raise_and_have_no_caller(module, name):
    # placeholders kept for the benchmark's span table, which wraps them by name
    with pytest.raises(NotImplementedError):
        getattr(module, name)()
    assert name not in module.__all__
    src = Path(module.__file__).parent
    naming = sorted(f.name for f in src.glob("*.py")
                    if re.search(rf"\b{name}\b", f.read_text(encoding="utf-8")))
    assert naming == [Path(module.__file__).name]
