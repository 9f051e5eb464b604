"""Binary cache for discrete-log tables, and the factorial-window format.

``dlog_table`` is the one cached artifact: the FCL1 table of a context,
loaded from the context's cache directory when that holds a good copy,
else built and saved there.  Factorial windows are never cached; each
context builds its own (``PrimeContext.window``), since a build costs
less than a write and a read.  The FCW1 window format keeps its saver
and loader.

Both formats are little-endian with a fixed magic and a fully determined
size, so a loader can reject truncation before touching the payload.
Loaded tables are re-verified on 64 deterministic pseudorandom samples;
a cheap spot check that catches bit rot and mismatched parameters
without recomputing the whole table.  The sample is what makes the dlog
cache pay: a full O(p) check costs more than a build (25 ms against
17 ms at p = 1000003).  Only direct character sums read that table now;
counts and spectra read the context's power table, which is not cached.

FCL1 (discrete logs):
    magic   4s   b"FCL1"
    p       u64
    g       u64  generator the table was built from
    table   (p-1) * u32, entry i holds dlog of x = i + 1

FCW1 (factorial window):
    magic   4s   b"FCW1"
    p       u64
    L       u64
    N       u64
    values  N * u64
"""

from __future__ import annotations

import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import kernels
from .errors import CacheFormatError, FactcongWarning
from .factorial import FactorialWindow
from .field import PrimeContext, check_table_limit

__all__ = [
    "dlog_cache_path",
    "save_dlog_table",
    "load_dlog_table",
    "save_window",
    "load_window",
    "dlog_table",
]

DLOG_MAGIC = b"FCL1"
WINDOW_MAGIC = b"FCW1"
_DLOG_HEADER = struct.Struct("<4sQQ")
_WINDOW_HEADER = struct.Struct("<4sQQQ")
_SAMPLE_COUNT = 64
_SAMPLE_SEED = 0x46434C31  # spells the dlog magic


def dlog_cache_path(cache_dir: str | Path, p: int) -> Path:
    return Path(cache_dir) / f"dlog_p{p}.fcl1"


def _write_atomic(path: str | Path, header: bytes, payload: np.ndarray) -> Path:
    """Write header + payload to path through a uniquely named temp file.

    Readers see either the old file or the whole new one.  If anything
    fails, the temp file is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload.tobytes())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path


def save_dlog_table(path: str | Path, ctx: PrimeContext, table: np.ndarray) -> Path:
    header = _DLOG_HEADER.pack(DLOG_MAGIC, ctx.p, ctx.g)
    return _write_atomic(path, header, table[1:].astype("<u4"))


def load_dlog_table(path: str | Path, p: int) -> tuple[np.ndarray, int]:
    """Load and verify a dlog table; returns (table, generator).

    The returned table has length p with table[0] = -1, matching the
    in-memory layout produced by the kernels.
    """
    raw = _read_all(path)
    if len(raw) < _DLOG_HEADER.size:
        raise CacheFormatError(f"{path}: shorter than a header")
    magic, file_p, g = _DLOG_HEADER.unpack_from(raw)
    if magic != DLOG_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if file_p != p:
        raise CacheFormatError(f"{path}: built for p={file_p}, wanted p={p}")
    expected = _DLOG_HEADER.size + 4 * (p - 1)
    if len(raw) != expected:
        raise CacheFormatError(
            f"{path}: size {len(raw)} != expected {expected} for p={p}"
        )
    body = np.frombuffer(raw, dtype="<u4", offset=_DLOG_HEADER.size)
    table = np.empty(p, dtype=np.int64)
    table[0] = -1
    table[1:] = body
    if table[1:].max(initial=0) >= p - 1:
        raise CacheFormatError(f"{path}: exponent out of range")
    _verify_dlog_samples(path, table, p, g)
    return table, int(g)


def _verify_dlog_samples(path, table: np.ndarray, p: int, g: int) -> None:
    rng = np.random.default_rng(_SAMPLE_SEED + p)
    for x in rng.integers(1, p, size=_SAMPLE_COUNT):
        x = int(x)
        if pow(g, int(table[x]), p) != x:
            raise CacheFormatError(f"{path}: sample check failed at x={x}")


def save_window(path: str | Path, window: FactorialWindow) -> Path:
    header = _WINDOW_HEADER.pack(WINDOW_MAGIC, window.p, window.L, window.N)
    return _write_atomic(path, header, window.values.astype("<u8"))


def load_window(path: str | Path, ctx: PrimeContext, L: int, N: int) -> FactorialWindow:
    raw = _read_all(path)
    if len(raw) < _WINDOW_HEADER.size:
        raise CacheFormatError(f"{path}: shorter than a header")
    magic, file_p, file_L, file_N = _WINDOW_HEADER.unpack_from(raw)
    if magic != WINDOW_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if (file_p, file_L, file_N) != (ctx.p, L, N):
        raise CacheFormatError(
            f"{path}: holds (p={file_p}, L={file_L}, N={file_N}), "
            f"wanted (p={ctx.p}, L={L}, N={N})"
        )
    expected = _WINDOW_HEADER.size + 8 * N
    if len(raw) != expected:
        raise CacheFormatError(
            f"{path}: size {len(raw)} != expected {expected} for N={N}"
        )
    values = np.frombuffer(raw, dtype="<u8", offset=_WINDOW_HEADER.size).astype(
        np.int64
    )
    if values.min(initial=1) < 1 or values.max(initial=1) >= ctx.p:
        raise CacheFormatError(f"{path}: residue out of range")
    _verify_window_samples(path, values, ctx.p, L)
    return FactorialWindow(ctx=ctx, L=L, N=N, values=values)


def _verify_window_samples(path, values: np.ndarray, p: int, L: int) -> None:
    # (L+i+1)! carries to (L+i+2)! by one multiplication; check random joints
    n = values.size
    if n < 2:
        return
    rng = np.random.default_rng(_SAMPLE_SEED + p + L)
    for i in rng.integers(0, n - 1, size=_SAMPLE_COUNT):
        i = int(i)
        if values[i] * (L + i + 2) % p != values[i + 1]:
            raise CacheFormatError(f"{path}: recurrence check failed at index {i}")


def dlog_table(ctx: PrimeContext) -> np.ndarray:
    """The discrete-log table of ctx: loaded from ctx.cache_dir when that
    holds a good file, else built and saved there.

    A file that fails verification is discarded and a failed write leaves
    the table uncached; each is a FactcongWarning.  No directory, no cache.
    """
    check_table_limit(ctx.p, f"the discrete-log table for p={ctx.p}")
    if not ctx.cache_dir:
        return kernels.dlog_table(ctx.p, ctx.g)
    path = dlog_cache_path(ctx.cache_dir, ctx.p)
    if path.exists():
        try:
            table, g = load_dlog_table(path, ctx.p)
            if g != ctx.g:
                raise CacheFormatError(f"{path}: built for generator {g}, not {ctx.g}")
            return table
        except CacheFormatError as exc:
            warnings.warn(f"discarding bad cache file: {exc}", FactcongWarning)
    table = kernels.dlog_table(ctx.p, ctx.g)
    try:
        save_dlog_table(path, ctx, table)
    except OSError as exc:
        warnings.warn(f"cache not written: {exc}", FactcongWarning)
    return table


def _read_all(path: str | Path) -> bytes:
    path = Path(path)
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
