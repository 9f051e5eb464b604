import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from factcong import cache, cli, factorial, field, kernels
from factcong.cli import (
    CommandOutput,
    _cell,
    _column_format,
    _render_delimited,
    config_to_argv,
    format_complex,
    main,
    parse_primes,
    parse_signs,
)
from factcong.counting import CountQuery, count
from factcong.errors import FactcongWarning, ParameterError
from factcong.field import PrimeContext


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# flag parsing helpers


def test_parse_signs():
    assert parse_signs("+-") == (1, -1)
    assert parse_signs("++-") == (1, 1, -1)
    assert parse_signs("1,-1") == (1, -1)
    with pytest.raises(ParameterError):
        parse_signs("+x")
    with pytest.raises(ParameterError):
        parse_signs("1,2")
    with pytest.raises(ParameterError):
        parse_signs("")


def test_parse_primes_range_and_list():
    assert parse_primes("10..20") == [11, 13, 17, 19]
    assert parse_primes("101..103") == [101, 103]
    assert parse_primes("7,5,11") == [5, 7, 11]
    with pytest.raises(ParameterError):
        parse_primes("20..10")
    with pytest.raises(ParameterError):
        parse_primes("a..b")


def test_format_complex():
    assert format_complex(complex(6, 0)) == "6+0i"
    assert format_complex(complex(-1.5, 2)) == "-1.5+2i"
    assert format_complex(complex(0, -0.25)) == "0-0.25i"


@pytest.mark.parametrize("values", [
    [1.5, -0.0, 1e-05, 1e16, float("inf"), float("nan")],
    [0, -3, 10**30],
    [1, 2.5],
    [True, 1, None, "T2.1", np.int64(3), np.float64(0.1)],
    [],
])
def test_column_format_matches_cell(values):
    fmt = _column_format(values)
    assert list(map(fmt, values)) == list(map(_cell, values))


@pytest.mark.parametrize("block", [1, 2, 4096])
def test_delimited_quotes_string_cells(monkeypatch, block):
    # numeric tables are joined directly; any other table goes through
    # csv.writer, which quotes a cell holding the delimiter or a quote
    monkeypatch.setattr(cli, "_RENDER_ROWS", block)
    output = CommandOutput({"name": ["x,y", 'say "hi"', None], "n": [1, 2, 3]}, None)
    assert _render_delimited(output, ",") == 'name,n\n"x,y",1\n"say ""hi""",2\n,3'
    numeric = CommandOutput({"a": [1, 2], "re": [0.5, -1e-05]}, None)
    assert _render_delimited(numeric, "\t") == "a\tre\n1\t0.5\n2\t-1e-05"


# documented command lines


def test_count_prints_bare_integer(capsys):
    code, out, _ = run_cli(
        capsys, "count", "J", "--p", "7", "--L", "0", "--N", "6",
        "--ell", "1", "--lambda", "0",
    )
    assert code == 0
    assert out.strip() == "10"


def test_count_pair_product_family_forced_engines(capsys):
    # T and Q run through pair products, so the convolution route needs
    # the index table even though auto would pick brute force here
    code, out, _ = run_cli(
        capsys, "count", "T", "--p", "11", "--r", "2", "--lambda", "5",
        "--L", "1", "--N", "7", "--K", "0", "--M", "9", "--engine", "both",
    )
    assert code == 0
    assert out.strip() == "370"
    code, out, _ = run_cli(
        capsys, "count", "Q", "--p", "7", "--r", "1", "--lambda", "0",
        "--engine", "conv",
    )
    assert code == 0
    assert out.strip() == "45"


def test_expsum_single_prints_complex(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "single", "--p", "7", "--L", "0", "--N", "6", "--a", "0"
    )
    assert code == 0
    assert out.strip() == "6+0i"


def test_verify_emits_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "T2.1", "--primes", "101..113", "--ell", "1",
        "--engine", "both",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "theorem"
    assert header[1] == "p"
    assert header[-3:] == ["lhs", "rhs", "ratio"]
    assert len(lines) == 1 + 5  # primes 101, 103, 107, 109, 113
    first = lines[1].split(",")
    assert first[0] == "T2.1"
    assert first[1] == "101"
    assert float(first[-3]) == 194.0


def test_factorials_plain(capsys):
    code, out, _ = run_cli(capsys, "factorials", "--p", "7")
    assert code == 0
    assert out.strip() == "1 2 6 3 1 6"


def test_count_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "J", "--p", "7", "--profile")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lam,count"
    assert [int(line.split(",")[1]) for line in lines[1:]] == [10, 3, 6, 4, 4, 6, 3]


def test_stats_plain(capsys):
    code, out, _ = run_cli(capsys, "stats", "--p", "7")
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert fields["distinct_count"] == "4"


def test_quadratic_char_shortcut(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "char", "--p", "7", "--quadratic", "--format", "json"
    )
    assert code == 0
    envelope = json.loads(out)
    row = envelope["results"][0]
    assert row["j"] == 3
    assert abs(row["re"]) < 1e-9 and abs(row["im"]) < 1e-9


# exit codes


def test_exit_2_on_composite_modulus(capsys):
    code, _, err = run_cli(capsys, "count", "J", "--p", "8")
    assert code == 2
    assert "prime" in err


def test_exit_2_on_bad_window(capsys):
    code, _, err = run_cli(capsys, "count", "J", "--p", "7", "--N", "7")
    assert code == 2


def test_exit_2_on_argparse_error(capsys):
    code, _, _ = run_cli(capsys, "count", "Z", "--p", "7")
    assert code == 2


def test_exit_3_on_guard(capsys):
    code, _, err = run_cli(
        capsys, "count", "J", "--p", "9973", "--ell", "3", "--engine", "brute"
    )
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("extra", [(), ("--engine", "conv"), ("--profile",)])
def test_convolution_past_the_dlog_limit_exits_3_before_allocating(capsys, extra):
    # auto picks the convolution engine here; its length-p histograms at
    # p = 2**31 - 1 would take 16 GiB each, so it refuses before the first
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "count", "J", "--p", "2147483647", "--N", "5", *extra
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.startswith("factcong: guard exceeded: the convolution engine")
    assert "Traceback" not in err
    assert peak < 1 << 26, peak


@pytest.mark.parametrize("argv", [
    # auto picks brute force for 25 tuples
    "count T --p 2147483647 --N 5 --M 5 --lambda 1",
    "count SIGNED --k 2 --signs +- --p 2147483647 --N 5 --engine brute",
])
def test_brute_tallies_at_a_huge_prime_exit_3_before_allocating(capsys, argv):
    # the tallies are length-p histograms, 16 GiB each at p = 2**31 - 1
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.startswith("factcong: guard exceeded: the brute-force tallies"), err
    assert "Traceback" not in err
    assert peak < 1 << 26, peak


@pytest.mark.parametrize(("argv", "code"), [
    # short windows at p = 2**31 - 1: per-term sums answer; the length-p
    # tables (the discrete-log table, the spectra, a full second window)
    # and the full window itself (16 GiB) refuse before their first
    # allocation
    ("stats --p 2147483647", 3),
    ("factorials --p 2147483647", 3),
    ("stats --p 2147483647 --N 5", 0),
    ("expsum single --p 2147483647 --N 5 --a 1", 0),
    ("expsum char --p 2147483647 --N 5 --j 1", 3),
    ("expsum batch --p 2147483647 --N 5", 3),
    ("stats --p 2147483647 --N 5 --H 3", 3),
    ("stats --p 2147483647 --N 5 --M 5 --H 3", 3),
])
def test_short_windows_at_a_huge_prime_answer_or_refuse_without_allocating(
    capsys, argv, code
):
    tracemalloc.start()
    try:
        got, out, err = run_cli(capsys, *argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == code, err
    assert "Traceback" not in err
    if code == 3:
        assert out == ""
        assert err.startswith("factcong: guard exceeded: "), err
    assert peak < 1 << 26, peak


def test_the_table_limit_refuses_spectra_not_windows(capsys, monkeypatch):
    # the limit guards length-p tables: with it at 100, windows of 1008
    # entries still answer, and only the spectrum of stats --H refuses
    monkeypatch.setattr(field, "DLOG_MEMORY_LIMIT", 100)
    for argv in ("stats --p 1009", "expsum single --p 1009 --a 1",
                 "factorials --p 1009"):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 0, (argv, err)
        assert out
    code, out, err = run_cli(capsys, *"stats --p 1009 --N 5 --H 3".split())
    assert code == 3
    assert out == ""
    assert err.startswith("factcong: guard exceeded: the double-sum spectrum"), err


@pytest.fixture
def mallopt_calls(monkeypatch):
    """A glibc whose mallopt records its calls, and a fresh _tune_malloc."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._tune_malloc.cache_clear()
    yield calls
    cli._tune_malloc.cache_clear()


def test_main_sets_the_malloc_thresholds_once_per_process(capsys, mallopt_calls):
    for _ in range(3):
        assert run_cli(capsys, "factorials", "--p", "7")[0] == 0
    assert mallopt_calls == [(-3, 32 << 20), (-1, 32 << 20)]


def test_malloc_tuning_is_a_no_op_off_glibc(capsys, monkeypatch, mallopt_calls):
    monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
    assert run_cli(capsys, "factorials", "--p", "7")[0] == 0
    assert mallopt_calls == []


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: SimpleNamespace(), _no_libc])
def test_malloc_tuning_is_a_no_op_without_mallopt(capsys, monkeypatch, mallopt_calls, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert run_cli(capsys, "factorials", "--p", "7")[0] == 0
    assert mallopt_calls == []


def test_the_library_api_leaves_malloc_alone(mallopt_calls):
    q = CountQuery(family="J", ctx=PrimeContext.create(101), lam=3)
    for engine in ("conv", "brute"):
        count(q, engine=engine)
    assert mallopt_calls == []


def test_exit_4_on_engine_mismatch(capsys, monkeypatch):
    import factcong.counting as counting_mod

    real = counting_mod.count_convolution

    def lying_convolution(q):
        res = real(q)
        object.__setattr__(res, "count", res.count + 1)
        return res

    monkeypatch.setattr(counting_mod, "count_convolution", lying_convolution)
    code, _, err = run_cli(
        capsys, "count", "J", "--p", "7", "--engine", "both"
    )
    assert code == 4
    assert "mismatch" in err


# envelope and replay


def test_json_envelope_shape(capsys):
    code, out, _ = run_cli(
        capsys, "count", "T", "--p", "7", "--r", "1", "--lambda", "1",
        "--format", "json",
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["tool"] == "factcong"
    assert envelope["command"] == "count T"
    assert envelope["results"][0]["count"] == 8
    assert "timing_seconds" in envelope
    assert isinstance(envelope["warnings"], list)
    assert envelope["config"]["p"] == 7


def test_replay_reproduces_results(capsys):
    args = ["verify", "T2.1", "--primes", "101..113", "--ell", "1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(
        capsys, *args, "--format", "json"
    )
    envelope = json.loads(out2)
    code3, out3, _ = run_cli(capsys, *envelope["argv"])
    envelope2 = json.loads(out3)
    assert envelope["results"] == envelope2["results"]
    assert envelope.get("series") == envelope2.get("series")
    # dropping --format json falls back to the csv default, which must
    # replay byte for byte
    argv_csv = []
    skip_next = False
    for tok in envelope["argv"]:
        if skip_next:
            skip_next = False
            continue
        if tok == "--format":
            skip_next = True
            continue
        argv_csv.append(tok)
    code5, out5, _ = run_cli(capsys, *argv_csv)
    assert out5 == out1
    assert all(c == 0 for c in (code1, code2, code3, code5))


def test_config_to_argv_roundtrip():
    config = {
        "_argv_head": ["count", "J"],
        "p": 7,
        "ell": 1,
        "lam": 0,
        "signs": None,
        "profile": False,
        "engine": "auto",
    }
    argv = config_to_argv(config)
    assert argv[:2] == ["count", "J"]
    assert "--lambda" in argv
    assert "--profile" not in argv
    assert "--signs" not in argv


def test_sweep_multiple_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--bounds", "T2.1,B-I", "--primes", "11,13",
        "--ell", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert {line.split(",")[0] for line in lines[1:]} == {"T2.1", "B-I"}


def test_sweep_builds_one_context_per_prime(capsys, monkeypatch):
    # both spectral bounds read one context per prime, and so its windows,
    # at any thread count
    create = PrimeContext.create.__func__
    calls = []

    def counted(cls, p, *args, **kwargs):
        calls.append(p)
        return create(cls, p, *args, **kwargs)

    monkeypatch.setattr(PrimeContext, "create", classmethod(counted))
    argv = ["sweep", "--bounds", "T3.1,B-CharSum", "--primes", "53..73"]
    out = {}
    for threads in ("1", "2"):
        calls.clear()
        code, out[threads], _ = run_cli(capsys, *argv, "--threads", threads)
        assert code == 0
        assert sorted(calls) == [53, 59, 61, 67, 71, 73]
    assert out["1"] == out["2"]
    assert len(out["1"].splitlines()) == 1 + 2 * 6


def test_sweep_rejects_unknown_bound(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--bounds", "T0.0", "--primes", "11,13"
    )
    assert code == 2


def test_verify_warns_on_skipped_cells(capsys):
    code, out, err = run_cli(
        capsys, "verify", "T2.3", "--primes", "11,13", "--M", "2"
    )
    assert code == 0
    assert "skipped" in err
    assert out.strip().splitlines()[0].startswith("theorem")


def test_verify_t44_skips_nonzero_k(capsys):
    code, out, err = run_cli(capsys, "verify", "T4.4", "--primes", "101", "--k", "3")
    assert code == 0
    assert out.strip().splitlines() == [
        "theorem,p,ell,k,r,s,lam,K,M,L,N,S,T,lhs,rhs,ratio"
    ]
    assert "T4.4 p=101 skipped: T4.4 counts with k=0, not k=3" in err
    code, out, _ = run_cli(capsys, "verify", "T4.4", "--primes", "101")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("T4.4,101,1,,1,0,1,")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "verify", "T2.1", "--primes", "101,103", "--ell", "1",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("theorem,")


def test_cache_dir_flag(tmp_path, capsys):
    code, out1, _ = run_cli(
        capsys, "expsum", "char", "--p", "101", "--quadratic",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "dlog_p101.fcl1").exists()
    code2, out2, _ = run_cli(
        capsys, "expsum", "char", "--p", "101", "--quadratic",
        "--cache-dir", str(tmp_path),
    )
    assert code2 == 0
    assert out1 == out2


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "stats", "--p", "101", "--H", "100")
    assert code == 0
    assert (tmp_path / "window_p101_L0_N100.fcw1").exists()


# main keeps one parser for the process; each command reads the cache
# variable when it runs, and no parse leaves state behind for the next.
COUNT_I = ("count", "I", "--p", "101", "--engine", "conv")


def test_cache_env_var_set_after_the_first_call(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    assert run_cli(capsys, *COUNT_I)[0] == 0
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, *COUNT_I)[0] == 0
    assert (tmp_path / "dlog_p101.fcl1").exists()


def test_cache_env_var_unset_after_the_first_call(tmp_path, monkeypatch, capsys):
    cache_dir, cwd = tmp_path / "cache", tmp_path / "cwd"
    cache_dir.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(cache_dir))
    assert run_cli(capsys, *COUNT_I)[0] == 0
    assert (cache_dir / "dlog_p101.fcl1").exists()
    for path in cache_dir.iterdir():
        path.unlink()
    monkeypatch.delenv("FACTCONG_CACHE_DIR")
    assert run_cli(capsys, *COUNT_I)[0] == 0
    assert list(cache_dir.iterdir()) == list(cwd.iterdir()) == []


def test_run_reads_the_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(tmp_path))
    cli.run(cli.build_parser().parse_args(list(COUNT_I)))
    assert (tmp_path / "dlog_p101.fcl1").exists()


def test_no_option_carries_over_to_the_next_call(capsys):
    argv = ("count", "J", "--p", "101", "--format", "json")
    first = json.loads(run_cli(capsys, *argv, "--lambda", "3")[1])
    second = json.loads(run_cli(capsys, *argv)[1])
    at_zero = json.loads(run_cli(capsys, *argv, "--lambda", "0")[1])
    assert first["config"]["lam"] == 3
    assert second["config"]["lam"] is None
    assert second["results"][0]["lam"] == 0
    assert second["results"][0]["count"] == at_zero["results"][0]["count"]
    assert first["results"][0]["count"] != second["results"][0]["count"]


def test_corrupt_cache_recovers_with_warning(tmp_path, capsys):
    run_cli(capsys, "factorials", "--p", "101", "--cache-dir", str(tmp_path))
    victim = tmp_path / "window_p101_L0_N100.fcw1"
    victim.write_bytes(b"junk")
    code, out, err = run_cli(
        capsys, "factorials", "--p", "101", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "discarding" in err
    assert len(out.split()) == 100


def test_cache_dir_that_is_a_file_warns(tmp_path, capsys):
    # the cache cannot be written, so the value is computed without it
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    # auto counts T at p = 101 by brute force, which reads no cached table
    code, plain, _ = run_cli(capsys, "count", "T", "--p", "101", "--engine", "conv")
    code2, out, err = run_cli(
        capsys, "count", "T", "--p", "101", "--engine", "conv",
        "--cache-dir", str(blocker),
    )
    assert code == code2 == 0
    assert "cache not written" in err
    assert out == plain


def _counting_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_count_builds_the_dlog_only_for_the_convolution_engine(capsys, monkeypatch):
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    builds = _counting_calls(monkeypatch, kernels, "dlog_table")
    code, out, _ = run_cli(capsys, "count", "F", "--p", "101", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["engine"] == "brute-force"
    assert builds == []
    code, _, _ = run_cli(capsys, "count", "F", "--p", "101", "--engine", "conv")
    assert code == 0
    assert len(builds) == 1


def test_brute_count_past_the_dlog_limit(capsys):
    # the table would exceed DLOG_MEMORY_LIMIT, but auto counts by brute force
    code, out, err = run_cli(
        capsys, "count", "T", "--p", "10000019", "--N", "5", "--M", "5",
        "--format", "json",
    )
    assert code == 0, err
    assert json.loads(out)["results"][0]["engine"] == "brute-force"


def test_stats_reads_one_window_when_both_windows_agree(tmp_path, capsys, monkeypatch):
    argv = ("stats", "--p", "30011", "--H", "100", "--cache-dir", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0
    loads = _counting_calls(monkeypatch, cache, "load_window")
    histograms = _counting_calls(monkeypatch, factorial, "exponent_histogram")
    assert run_cli(capsys, *argv)[0] == 0
    assert (len(loads), len(histograms)) == (1, 1)


def test_count_loads_its_window_from_the_cache_dir(tmp_path, capsys, monkeypatch):
    argv = ("count", "F", "--p", "101", "--engine", "conv", "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (tmp_path / "window_p101_L0_N100.fcw1").exists()
    loads = _counting_calls(monkeypatch, cache, "load_window")
    builds = _counting_calls(monkeypatch, kernels, "factorial_window")
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (len(loads), builds) == (1, [])
    assert second == first


@pytest.mark.parametrize("target", ["", "missing/x"])  # a directory, no parent
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "factorials", "--p", "7", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"factcong: cannot write --out {path}: ")
    assert "Traceback" not in err


def test_run_keeps_factcong_warnings_and_shows_others(monkeypatch):
    def handler(ns):
        warnings.warn("a note", FactcongWarning)
        warnings.warn("something else", RuntimeWarning)
        return CommandOutput({"x": [1]}, lambda: "1")

    monkeypatch.setitem(cli._HANDLERS, "factorials", handler)
    ns = cli.build_parser().parse_args(["factorials", "--p", "7"])
    with pytest.warns(RuntimeWarning, match="something else"):
        envelope, _ = cli.run(ns)
    assert envelope["warnings"] == ["a note"]


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "factcong" in out
