import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from factcong import cli, counting, factorial, field, kernels
from factcong.analysis import BOUND_IDS
from factcong.cli import (
    CommandOutput,
    _cell,
    _column_format,
    config_to_argv,
    format_complex,
    main,
    parse_primes,
    parse_signs,
)
from factcong.counting import ENGINES, FAMILIES, CountQuery, count
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
    # a comma-free integer is a list of one
    assert parse_signs("-1") == (-1,)
    assert parse_signs("1") == (1,)
    with pytest.raises(ParameterError):
        parse_signs("2")


@pytest.mark.parametrize(("signs", "compact"), [("--signs=-1", "--signs=-"),
                                                ("--signs=1", "--signs=+")])
def test_single_sign_as_a_list(capsys, signs, compact):
    argv = ("count", "SIGNED", "--k", "1", "--p", "53", "--lambda", "3")
    code, out, err = run_cli(capsys, *argv, signs)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, compact)[1]


@pytest.mark.parametrize(("argv", "message"), [
    (("count", "SIGNED", "--k", "2", "--signs=1,2", "--p", "53"),
     "argument --signs: signs must be +1 or -1"),
    (("count", "SIGNED", "--k", "2", "--signs=+x", "--p", "53"),
     "argument --signs: bad sign pattern '+x'"),
    (("verify", "T2.1", "--primes", "5..3"),
     "argument --primes: no primes in [5, 3]"),
    (("verify", "T2.1", "--primes", "5,x"),
     "argument --primes: bad prime list '5,x'"),
])
def test_parser_reports_its_own_message(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert "invalid" not in err


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
def test_delimited_tables_join_cells(monkeypatch, block):
    # csv and tsv join each cell's text as it is, a block of rows at a time
    monkeypatch.setattr(cli, "_RENDER_ROWS", block)
    numeric = CommandOutput({"a": [1, 2], "re": [0.5, -1e-05]}, None)
    assert cli.render({}, numeric, "tsv") == "a\tre\n1\t0.5\n2\t-1e-05"
    mixed = CommandOutput({"theorem": ["T2.1", "B-I", "C2.2"], "k": [1, None, 3]}, None)
    assert cli.render({}, mixed, "csv") == "theorem,k\nT2.1,1\nB-I,\nC2.2,3"


def test_table_strings_need_no_quoting():
    # the csv and tsv renderer quotes nothing, so no string a table can
    # hold may contain a delimiter, a quote or a line break: bound ids,
    # family names and the names of the engines that ran
    engines = sorted({count(CountQuery(family="J", ctx=PrimeContext.create(7)),
                            engine=e).engine for e in ENGINES})
    assert engines == ["both", "brute-force", "convolution"]
    for text in [*BOUND_IDS, *FAMILIES, *engines]:
        assert text and not set(text) & set(',\t"\n\r'), text


@pytest.mark.parametrize("engine", ENGINES)
def test_r_zero_bracket_warning_under_every_engine(capsys, engine):
    code, out, err = run_cli(
        capsys, "count", "R", "--p", "53", "--k", "2", "--lambda", "3",
        "--engine", engine,
    )
    assert code == 0
    assert out.strip() == "139364"
    assert err == (
        "factcong: warning: 81120 tuples with a zero bracket product cannot "
        "reach a nonzero residue and were excluded structurally\n"
    )


# documented command lines


def test_count_prints_bare_integer(capsys):
    code, out, _ = run_cli(
        capsys, "count", "J", "--p", "7", "--L", "0", "--N", "6",
        "--ell", "1", "--lambda", "0",
    )
    assert code == 0
    assert out.strip() == "10"


# The paper's headline representation m! n! + n_1! + ... + n_49!: the
# count of Q with r = 49 at p = 1009 and lambda = 5, recorded while the
# convolution engine still took its 49-fold power one step at a time.
HEADLINE_Q49_P1009 = (
    "1487976153987639724924617125863133084572944927565244723081812494429671"
    "9090680385726243191138563196184729604638919970219507148052992498836225"
    "11986287135"
)


def test_headline_shape_count(capsys):
    code, out, _ = run_cli(
        capsys, "count", "Q", "--r", "49", "--p", "1009", "--lambda", "5",
        "--engine", "conv",
    )
    assert code == 0
    assert out == HEADLINE_Q49_P1009 + "\n"


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


@pytest.mark.parametrize("engine", ["brute", "both"])
def test_count_profile_refuses_engines_it_does_not_run(capsys, engine):
    code, out, err = run_cli(capsys, "count", "Q", "--p", "5", "--r", "2",
                             "--engine", engine, "--profile")
    assert code == 2
    assert out == ""
    assert f"--engine {engine}" in err


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


def test_char_reports_the_reduced_index(capsys):
    # j = 100 at p = 101 is the principal character, j = 0, and its row
    # says so; the config echo keeps the index given
    argv = ("expsum", "char", "--p", "101", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--j", "100")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["config"]["j"] == 100
    principal = json.loads(run_cli(capsys, *argv, "--j", "0")[1])
    assert envelope["results"] == principal["results"]
    assert envelope["results"][0]["j"] == 0


# exit codes


def test_exit_2_on_composite_modulus(capsys):
    code, _, err = run_cli(capsys, "count", "J", "--p", "8")
    assert code == 2
    assert "prime" in err


def test_exit_2_on_bad_window(capsys):
    code, _, err = run_cli(capsys, "count", "J", "--p", "7", "--N", "7")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (("J", "--s", "5", "--signs", "+-"), "--s"),
    (("I", "--s", "0"), "--s"),
    (("SIGNED", "--k", "2", "--signs", "+-", "--s", "1"), "--s"),
    (("J", "--signs", "+-"), "--signs"),
    (("R", "--signs=-"), "--signs"),
    (("J", "--k", "5"), "--k"),
    (("J", "--r", "3"), "--r"),
    (("I", "--K", "2"), "--K"),
    (("I", "--M", "3"), "--M"),
    (("I", "--S", "1"), "--S"),
    (("I", "--T", "3"), "--T"),
    (("F", "--r", "2"), "--r"),
    (("SIGNED", "--k", "1", "--signs", "+", "--ell", "2"), "--ell"),
])
def test_exit_2_on_a_flag_no_count_reads(capsys, argv, flag):
    code, out, err = run_cli(capsys, "count", *argv, "--p", "7")
    assert code == 2
    assert out == ""
    assert flag in err


# each CountQuery field a flag sets, with a value valid at p = 7
FIELD_FLAGS = {"ell": ("--ell", "1"), "k": ("--k", "1"), "r": ("--r", "1"),
               "lam": ("--lambda", "1"), "signs": ("--signs", "+"),
               "L": ("--L", "1"), "N": ("--N", "3"), "K": ("--K", "1"),
               "M": ("--M", "3"), "S": ("--S", "1"), "T": ("--T", "3")}


def test_every_query_field_has_a_flag():
    fields = {f.name for f in dataclasses.fields(CountQuery)} - {"family", "ctx"}
    assert set(FIELD_FLAGS) == fields


@pytest.mark.parametrize(("family", "name"), [
    (family, f.name) for family in FAMILIES for f in dataclasses.fields(CountQuery)
    if f.name in FIELD_FLAGS
])
def test_count_refuses_exactly_the_fields_outside_the_row(capsys, family, name):
    base = ("--k", "1", "--signs", "+") if family == "SIGNED" else ()
    code, out, err = run_cli(capsys, "count", family, *base, *FIELD_FLAGS[name], "--p", "7")
    if name in counting._FAMILIES[family].fields:
        assert code == 0, err
    else:
        assert (code, out) == (2, "")
        assert FIELD_FLAGS[name][0] in err


def test_zero_offsets_count_as_not_given(capsys):
    # --K and --S default to 0, so 0 is what every family reads anyway
    code, out, _ = run_cli(capsys, "count", "J", "--K", "0", "--S", "0", "--p", "7")
    assert (code, out) == (0, "10\n")


def test_t_full_windows_meet_the_brute_guard_in_the_middle(capsys):
    # one pair tally of about 1e6 pairs, for both halves: auto counts by
    # brute force
    code, out, _ = run_cli(capsys, "count", "T", "--r", "2", "--p", "1009",
                           "--lambda", "5", "--format", "json")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert (result["engine"], result["count"]) == ("brute-force", 1023471571)
    code, out, _ = run_cli(capsys, "count", "T", "--r", "2", "--p", "1009",
                           "--lambda", "5", "--engine", "both")
    assert (code, out) == (0, "1023471571\n")


def test_exit_2_on_argparse_error(capsys):
    code, _, _ = run_cli(capsys, "count", "Z", "--p", "7")
    assert code == 2


def test_exit_3_on_guard(capsys):
    code, _, err = run_cli(
        capsys, "count", "J", "--p", "9973", "--ell", "3", "--engine", "brute"
    )
    assert code == 3
    assert "guard" in err


def test_signed_full_windows_meet_the_brute_guard_in_the_middle(capsys):
    # two half-tallies of about 1e6 tuples: auto counts by brute force
    code, out, _ = run_cli(capsys, "count", "SIGNED", "--k", "3", "--signs", "+-+",
                           "--p", "1009", "--lambda", "5", "--format", "json")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert (result["engine"], result["count"]) == ("brute-force", 1014380)
    code, out, _ = run_cli(capsys, "count", "SIGNED", "--k", "3", "--signs", "+-+",
                           "--p", "1009", "--engine", "both")
    assert code == 0
    # two halves of 1008**3 tuples each, about 2.05e9: still refused
    code, _, err = run_cli(capsys, "count", "SIGNED", "--k", "6", "--signs", "+-+-+-",
                           "--p", "1009", "--engine", "brute")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("extra", [(), ("--engine", "conv"), ("--profile",)])
def test_convolution_past_the_dlog_limit_exits_3_before_allocating(capsys, extra):
    # the convolution engine's length-p histograms at p = 2**31 - 1 would
    # take 16 GiB each, so it refuses before the first; auto picks brute
    # force past the table limit, whose tallies refuse the same way
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
    engine = "the convolution engine" if extra else "the brute-force tallies"
    assert err.startswith(f"factcong: guard exceeded: {engine}")
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


def test_char_builds_no_factorial_window(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a character sum built a factorial window")

    windows = ((), ("--L", "30", "--N", "50"))
    want = [run_cli(capsys, *CHAR, *extra)[1] for extra in windows]
    monkeypatch.setattr(kernels, "factorial_window", refuse)
    for extra, out in zip(windows, want):
        code, got, err = run_cli(capsys, *CHAR, *extra)
        assert code == 0, err
        assert got == out


def test_char_refuses_a_window_out_of_range(capsys):
    code, out, err = run_cli(capsys, "expsum", "char", "--p", "101", "--L", "90",
                             "--N", "20", "--j", "1")
    assert code == 2
    assert out == ""
    assert err == "factcong: window (L, L+N] = (90, 110] must stay inside (0, 101)\n"


def test_char_past_the_table_limit_refuses_before_allocating(capsys):
    # the full window at p = 10000019 passes the window guard; the
    # discrete-log table and the roots table would not be small
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "expsum", "char", "--p", "10000019", "--j", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.startswith("factcong: guard exceeded: the discrete-log table for "
                          "p=10000019 needs 10000019 entries"), err
    assert peak < 1 << 20, peak


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


@pytest.mark.parametrize("command", [
    "count SIGNED --k 2 --signs=-+ --p 53 --lambda 3",
    "count SIGNED --k 1 --signs=- --p 53 --lambda 3",
    "count T --r 1 --p 53 --lambda -3",
    "verify C2.2 --primes 53 --k 2 --signs=-+",
    "sweep --bounds T2.1,B-I --primes 11,13 --ell 1",
    "expsum single --p 101 --a 5",
    "expsum char --p 101 --quadratic",
    "stats --p 101 --H 50",
    "factorials --p 7",
])
def test_envelope_argv_replays(capsys, command):
    def envelope(argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        env = json.loads(out)
        for row in env["results"]:
            row.pop("seconds", None)
        return env

    first = envelope([*command.split(), "--format", "json"])
    again = envelope(first["argv"])
    assert again["argv"] == first["argv"]
    assert again["config"] == first["config"]
    assert again["results"] == first["results"]
    assert again.get("series") == first.get("series")


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


# Only the discrete-log table goes to the cache, and a direct character
# sum is the one command that reads it.
CHAR = ("expsum", "char", "--p", "101", "--quadratic")
DLOG_101 = "dlog_p101.fcl1"


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, *CHAR)
    assert code == 0
    assert (tmp_path / DLOG_101).exists()


# main keeps one parser for the process; each command reads the cache
# variable when it runs, and no parse leaves state behind for the next.
def test_cache_env_var_set_after_the_first_call(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    assert run_cli(capsys, *CHAR)[0] == 0
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, *CHAR)[0] == 0
    assert (tmp_path / DLOG_101).exists()


def test_cache_env_var_unset_after_the_first_call(tmp_path, monkeypatch, capsys):
    cache_dir, cwd = tmp_path / "cache", tmp_path / "cwd"
    cache_dir.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(cache_dir))
    assert run_cli(capsys, *CHAR)[0] == 0
    assert (cache_dir / DLOG_101).exists()
    for path in cache_dir.iterdir():
        path.unlink()
    monkeypatch.delenv("FACTCONG_CACHE_DIR")
    assert run_cli(capsys, *CHAR)[0] == 0
    assert list(cache_dir.iterdir()) == list(cwd.iterdir()) == []


def test_run_reads_the_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FACTCONG_CACHE_DIR", str(tmp_path))
    cli.run(cli.build_parser().parse_args(list(CHAR)))
    assert (tmp_path / DLOG_101).exists()


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
    _, first, _ = run_cli(capsys, *CHAR, "--cache-dir", str(tmp_path))
    victim = tmp_path / DLOG_101
    victim.write_bytes(b"junk")
    code, out, err = run_cli(capsys, *CHAR, "--cache-dir", str(tmp_path))
    assert code == 0
    assert "discarding" in err
    assert out == first
    assert victim.stat().st_size > len(b"junk")


def test_cache_dir_that_is_a_file_warns(tmp_path, capsys):
    # the cache cannot be written, so the value is computed without it
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code, plain, _ = run_cli(capsys, *CHAR)
    code2, out, err = run_cli(capsys, *CHAR, "--cache-dir", str(blocker))
    assert code == code2 == 0
    assert "cache not written" in err
    assert out == plain


def _counting_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_no_count_engine_builds_the_dlog(capsys, monkeypatch):
    # exponent histograms and R's index of lambda read the power table
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    builds = _counting_calls(monkeypatch, kernels, "dlog_table")
    code, out, _ = run_cli(capsys, "count", "F", "--p", "101", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["engine"] == "brute-force"
    for argv in (("F", "--engine", "conv"), ("I", "--ell", "2", "--engine", "both"),
                 ("R", "--r", "2", "--lambda", "3", "--engine", "both"),
                 ("R", "--k", "2", "--lambda", "5", "--engine", "conv", "--profile")):
        code, _, err = run_cli(capsys, "count", *argv, "--p", "101")
        assert code == 0, err
    assert builds == []


def test_brute_count_past_the_dlog_limit(capsys):
    # the tables would exceed DLOG_MEMORY_LIMIT, so the convolution engine
    # refuses and auto counts by brute force; J and SIGNED estimate N + p
    # and N + 1 + p steps, past AUTO_BRUTE_THRESHOLD
    for argv in [
        ("T", "--N", "5", "--M", "5"),
        ("J", "--N", "5", "--lambda", "3"),
        ("SIGNED", "--k", "1", "--signs", "+", "--N", "5", "--lambda", "3"),
    ]:
        argv = ("count", *argv, "--p", "10000019")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["results"][0]["engine"] == "brute-force"
        assert json.loads(out)["results"][0]["count"] == 0
        assert run_cli(capsys, *argv, "--engine", "conv")[0] == 3


def test_stats_reads_one_window_when_both_windows_agree(capsys, monkeypatch):
    argv = ("stats", "--p", "30011", "--H", "100")
    builds = _counting_calls(monkeypatch, factorial, "build_window")
    histograms = _counting_calls(monkeypatch, factorial, "exponent_histogram")
    for runs in (1, 2):
        assert run_cli(capsys, *argv)[0] == 0
        assert (len(builds), len(histograms)) == (runs, runs)


def test_no_command_writes_a_window_file(tmp_path, capsys):
    # a context builds its windows and keeps them in memory; only the
    # discrete-log table of a direct character sum goes to the cache
    for argv in (("factorials", "--p", "101"),
                 ("count", "F", "--p", "101", "--engine", "conv"),
                 ("stats", "--p", "101", "--H", "100"),
                 ("sweep", "--bounds", "T3.1,B-CharSum", "--primes", "53..61")):
        code, _, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0, err
    assert list(tmp_path.iterdir()) == []


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


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_loads_neither_fractions_nor_a_thread_pool():
    # every command pays for the package's imports in a fresh interpreter;
    # a sweep imports concurrent.futures only when it runs threads
    code = ("import sys, factcong, factcong.cli; "
            "print(sorted({'fractions', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_reader_that_closes_stdout_early_ends_the_command_quietly():
    # about 600 kB of csv, far past a pipe's buffer, so the write meets the
    # closed pipe; as `| head -1`, the reader takes one line and stops
    proc = subprocess.Popen(
        [sys.executable, "-m", "factcong.cli", "expsum", "batch", "--p", "10007",
         "--format", "csv"],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"a,re,im,abs\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
