import os

import numpy as np
import pytest

from factcong.cache import (
    dlog_cache_path,
    get_or_build_dlog,
    get_or_build_window,
    load_dlog_table,
    load_window,
    save_dlog_table,
    save_window,
    window_cache_path,
)
from factcong.errors import CacheFormatError
from factcong.factorial import build_window
from factcong.field import PrimeContext


@pytest.fixture
def ctx10007():
    return PrimeContext.create(10007, with_dlog=True)


def test_dlog_roundtrip_bit_exact(tmp_path, ctx10007):
    path = dlog_cache_path(tmp_path, 10007)
    save_dlog_table(path, ctx10007)
    table, g = load_dlog_table(path, 10007)
    assert g == ctx10007.g
    np.testing.assert_array_equal(table, ctx10007.require_dlog())


def test_window_roundtrip_p7(tmp_path, ctx7):
    window = build_window(ctx7, 0, 6)
    path = window_cache_path(tmp_path, 7, 0, 6)
    save_window(path, window)
    loaded = load_window(path, ctx7, 0, 6)
    assert loaded.values.tolist() == [1, 2, 6, 3, 1, 6]
    assert (loaded.p, loaded.L, loaded.N) == (7, 0, 6)


def test_dlog_rejects_bad_magic(tmp_path, ctx7):
    path = dlog_cache_path(tmp_path, 7)
    save_dlog_table(path, ctx7)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="magic"):
        load_dlog_table(path, 7)


def test_dlog_rejects_truncation(tmp_path, ctx10007):
    path = dlog_cache_path(tmp_path, 10007)
    save_dlog_table(path, ctx10007)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheFormatError, match="size"):
        load_dlog_table(path, 10007)
    path.write_bytes(raw[:3])
    with pytest.raises(CacheFormatError, match="header"):
        load_dlog_table(path, 10007)


def test_dlog_rejects_wrong_prime(tmp_path, ctx7):
    path = dlog_cache_path(tmp_path, 7)
    save_dlog_table(path, ctx7)
    with pytest.raises(CacheFormatError, match="wanted"):
        load_dlog_table(path, 11)


def test_dlog_rejects_tampered_payload(tmp_path, ctx10007):
    path = dlog_cache_path(tmp_path, 10007)
    save_dlog_table(path, ctx10007)
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


def test_get_or_build_window_caches(tmp_path, ctx7):
    w1, warn1 = get_or_build_window(tmp_path, ctx7, 0, 6)
    assert warn1 is None
    assert window_cache_path(tmp_path, 7, 0, 6).exists()
    w2, warn2 = get_or_build_window(tmp_path, ctx7, 0, 6)
    assert warn2 is None
    np.testing.assert_array_equal(w1.values, w2.values)


def test_get_or_build_window_recovers_from_corruption(tmp_path, ctx7):
    get_or_build_window(tmp_path, ctx7, 0, 6)
    path = window_cache_path(tmp_path, 7, 0, 6)
    path.write_bytes(b"garbage")
    window, warning = get_or_build_window(tmp_path, ctx7, 0, 6)
    assert warning is not None and "discarding" in warning
    assert window.values.tolist() == [1, 2, 6, 3, 1, 6]
    # the bad file was replaced with a good one
    _, warn_again = get_or_build_window(tmp_path, ctx7, 0, 6)
    assert warn_again is None


def test_get_or_build_dlog_caches(tmp_path):
    ctx = PrimeContext.create(101)
    with_table, warn = get_or_build_dlog(tmp_path, ctx)
    assert warn is None
    assert with_table.dlog is not None
    assert dlog_cache_path(tmp_path, 101).exists()
    again, warn2 = get_or_build_dlog(tmp_path, PrimeContext.create(101))
    assert warn2 is None
    np.testing.assert_array_equal(again.dlog, with_table.dlog)


def test_save_window_ignores_stale_tmp_dir(tmp_path, ctx7):
    # a directory squatting on the old fixed temp name no longer blocks saves
    path = window_cache_path(tmp_path, 7, 0, 6)
    path.with_name(path.name + ".tmp").mkdir()
    save_window(path, build_window(ctx7, 0, 6))
    assert load_window(path, ctx7, 0, 6).values.tolist() == [1, 2, 6, 3, 1, 6]


def test_failed_write_warns_and_leaves_no_temp_file(tmp_path, ctx7, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    window, warning = get_or_build_window(tmp_path, ctx7, 0, 6)
    assert window.values.tolist() == [1, 2, 6, 3, 1, 6]
    assert warning is not None and "cache not written" in warning
    ctx, warning = get_or_build_dlog(tmp_path, PrimeContext.create(13))
    assert ctx.dlog is not None
    assert warning is not None and "disk full" in warning
    assert list(tmp_path.iterdir()) == []


def test_get_or_build_dlog_without_dir():
    ctx, warn = get_or_build_dlog(None, PrimeContext.create(13))
    assert warn is None
    assert ctx.dlog is not None
