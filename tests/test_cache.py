import os
import warnings

import numpy as np
import pytest

from factcong import cache, kernels
from factcong.cache import (
    dlog_cache_path,
    load_dlog_table,
    load_window,
    save_dlog_table,
    save_window,
    window_cache_path,
)
from factcong.errors import CacheFormatError, FactcongWarning
from factcong.factorial import build_window
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


def test_window_roundtrip_p7(tmp_path, ctx7):
    window = build_window(ctx7, 0, 6)
    path = window_cache_path(tmp_path, 7, 0, 6)
    save_window(path, window)
    loaded = load_window(path, ctx7, 0, 6)
    assert loaded.values.tolist() == [1, 2, 6, 3, 1, 6]
    assert (loaded.p, loaded.L, loaded.N) == (7, 0, 6)


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


def test_window_rejects_mismatched_parameters(tmp_path, ctx7):
    window = build_window(ctx7, 0, 6)
    path = window_cache_path(tmp_path, 7, 0, 6)
    save_window(path, window)
    with pytest.raises(CacheFormatError, match="wanted"):
        load_window(path, ctx7, 1, 5)


def test_window_rejects_tampered_values(tmp_path, ctx101):
    window = build_window(ctx101, 0, 100)
    path = window_cache_path(tmp_path, 101, 0, 100)
    save_window(path, window)
    raw = bytearray(path.read_bytes())
    # shift every residue by one in-range step; all joints break
    header = 28
    for i in range(100):
        off = header + 8 * i
        value = int.from_bytes(raw[off : off + 8], "little")
        raw[off : off + 8] = (value % 100 + 1).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="recurrence"):
        load_window(path, ctx101, 0, 100)


def test_window_rejects_out_of_range_residue(tmp_path, ctx7):
    window = build_window(ctx7, 0, 6)
    path = window_cache_path(tmp_path, 7, 0, 6)
    save_window(path, window)
    raw = bytearray(path.read_bytes())
    raw[28:36] = (200).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="range"):
        load_window(path, ctx7, 0, 6)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(CacheFormatError):
        load_dlog_table(tmp_path / "absent.fcl1", 7)


def test_get_or_build_window_caches(tmp_path):
    ctx = PrimeContext.create(7, cache_dir=tmp_path)
    w1 = cache.window(ctx, 0, 6)
    assert window_cache_path(tmp_path, 7, 0, 6).exists()
    w2 = cache.window(ctx, 0, 6)
    np.testing.assert_array_equal(w1.values, w2.values)


def test_get_or_build_window_recovers_from_corruption(tmp_path):
    ctx = PrimeContext.create(7, cache_dir=tmp_path)
    cache.window(ctx, 0, 6)
    path = window_cache_path(tmp_path, 7, 0, 6)
    path.write_bytes(b"garbage")
    with pytest.warns(FactcongWarning, match="discarding bad cache file"):
        window = cache.window(ctx, 0, 6)
    assert window.values.tolist() == [1, 2, 6, 3, 1, 6]
    # the bad file was replaced with a good one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.window(ctx, 0, 6).values.tolist() == [1, 2, 6, 3, 1, 6]


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
    other = PrimeContext(p=7, g=5, factors=ctx7.factors)
    save_dlog_table(dlog_cache_path(tmp_path, 7), other, kernels.dlog_table(7, 5))
    with pytest.warns(FactcongWarning, match="discarding bad cache file.*generator 5"):
        table = PrimeContext.create(7, cache_dir=tmp_path).dlog
    np.testing.assert_array_equal(table, ctx7.dlog)


def test_save_window_ignores_stale_tmp_dir(tmp_path, ctx7):
    # a directory squatting on the old fixed temp name no longer blocks saves
    path = window_cache_path(tmp_path, 7, 0, 6)
    path.with_name(path.name + ".tmp").mkdir()
    save_window(path, build_window(ctx7, 0, 6))
    assert load_window(path, ctx7, 0, 6).values.tolist() == [1, 2, 6, 3, 1, 6]


def _refuse(src, dst):
    raise OSError("disk full")


def test_failed_write_warns_and_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "replace", _refuse)
    with pytest.warns(FactcongWarning, match="cache not written"):
        window = cache.window(PrimeContext.create(7, cache_dir=tmp_path), 0, 6)
    assert window.values.tolist() == [1, 2, 6, 3, 1, 6]
    ctx = PrimeContext.create(13, cache_dir=tmp_path)
    with pytest.warns(FactcongWarning, match="disk full"):
        assert ctx.dlog.tolist() == kernels.dlog_table(13, ctx.g).tolist()
    assert list(tmp_path.iterdir()) == []


def test_bad_file_that_cannot_be_rewritten_warns_twice(tmp_path, monkeypatch):
    window_cache_path(tmp_path, 7, 0, 6).write_bytes(b"junk")
    monkeypatch.setattr(os, "replace", _refuse)
    with pytest.warns(FactcongWarning) as record:
        cache.window(PrimeContext.create(7, cache_dir=tmp_path), 0, 6)
    assert [str(w.message).split(":")[0] for w in record] == [
        "discarding bad cache file", "cache not written"
    ]


def test_get_or_build_dlog_without_dir():
    ctx = PrimeContext.create(13)
    assert ctx.cache_dir is None
    assert ctx.dlog.tolist() == kernels.dlog_table(13, ctx.g).tolist()
