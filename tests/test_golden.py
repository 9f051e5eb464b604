"""Byte-identity gate on CLI output: sha256 of stdout for fixed commands.

The first 17 digests were recorded before the table rendering was
rewritten to work column by column; the ten ``count ... --p 53`` digests
(one single-lambda count per family under ``--engine both``, and the
SIGNED, T and R profiles) were recorded before the convolution engine
began reusing limb spectra and evaluating single-lambda counts as an
exact dot; the all-bounds ``sweep`` digest (every catalogued bound at
its default parameters under both engines) was recorded before the
bounds moved into one table; the two ``sweep ... --k 3`` digests (skip
warnings in bound order, a repeated bound id with its rows repeated and
its series once) were recorded before a sweep evaluated prime by prime;
the ``expsum double`` digest was recorded before the histograms became
plain count arrays.
A change to rendering, row building or the numbers behind them shows
here as a changed digest.  JSON envelopes are hashed without their
``timing_seconds`` line, the only part of stdout that varies between
runs.

Commands marked ``FLOAT`` print floats that come out of numpy's FFT or
floating-point bound formulas; their last digits depend on the numpy
build, so those digests hold only under the numpy version they were
recorded with and are skipped, with that reason, under any other.
Commands marked ``EXACT`` print integers only and hold everywhere.
"""

import hashlib

import numpy as np
import pytest

from factcong.cli import main

RECORDED_NUMPY = "2.4.6"
EXACT, FLOAT = "exact", "float"

GOLDEN = (
    ("expsum batch --p 10007 --format csv", FLOAT,
     "9ad6a71e91915fef11c8692f97610019319719a118f9235eb15c0a3f4a5a9aa5"),
    ("expsum batch --p 10007 --format tsv", FLOAT,
     "6276265ff44de1fa563bbf644ed9dd0b7d23471311cc60de741d47c6addcabf8"),
    ("expsum batch --p 10007 --format plain", FLOAT,
     "bb589bc70f7a06efd1d8b283f7cfaa704c9fac89db1193758be81abae90d1fc4"),
    ("expsum batch --p 1009 --format json", FLOAT,
     "79a95392f40c006cf29168b62774d850c271eebcad4540d4d05f4a3e6eed6174"),
    ("expsum char --p 10007 --quadratic", FLOAT,
     "a85efb385bdaf38343a965071725e31a0d8302378da5eed43b85e449fe019119"),
    ("expsum char --p 10007 --quadratic --format csv", FLOAT,
     "42bfdfa9db70875df03c9eaebe2b51851f0d7497094de12c7b1af49b8ecff7fc"),
    ("expsum single --p 10007 --a 5 --format csv", FLOAT,
     "be7cd3743d7323f250a427c7bcff95cfa061f2360dffb7003ef4eb878f907c6c"),
    ("expsum double --p 1009 --a 5 --N 300 --M 200 --format csv", FLOAT,
     "94d9b41cf274d216046f83d6c53a6041698d8fdb7071c9b112decca77da220fc"),
    ("count J --ell 2 --p 1009 --profile --format csv", EXACT,
     "d477befe04cba39e9f2e971b283a058deea1c301fbda2f1df4b52b7fc885b528"),
    ("count J --ell 2 --p 1009 --profile --format plain", EXACT,
     "26860428e708cf6d061ae4f9bd2b25e816f5a5aceb7de3bdace304831ee2bda8"),
    ("count T --p 1009 --r 2", EXACT,
     "b0264a5da0efa2b479978caf0008be516dffcff1c8f7332e8c429b02a05be6fb"),
    ("verify T2.1 --primes 1000..1100 --ell 2", FLOAT,
     "9dd9a4d9d13f476bf55b094a320acf7283e2d26663d83337388062f5ab795572"),
    ("verify T2.1 --primes 1000..1100 --ell 2 --format plain", FLOAT,
     "23550bd70ecbca8aee1a5ed20dd48e9a637fcf41b3c8c5ff77dbba760598ea80"),
    ("verify T2.1 --primes 1000..1100 --ell 2 --format json", FLOAT,
     "ac4c57741bacd33a79d73906d5bee9d4af63a8c8bd9790282b72c0733ce5a007"),
    ("stats --p 3001 --H 20", FLOAT,
     "5b584beda0380437660754015b93046c372b46dbbe47f8a8e071c9e0a2d36458"),
    ("stats --p 3001 --H 20 --format csv", FLOAT,
     "cf405857924823e40b663aab6e4d89fedeabc8b0a01ab4e8b3a2db7ea93990ad"),
    ("factorials --p 1009 --L 500 --N 300", EXACT,
     "e2fc59ba6472952ca8a2ed6051f0454a5287ecbdeebc15347caaba77c56ca131"),
    ("factorials --p 1009 --L 500 --N 300 --format csv", EXACT,
     "f49c067cdd10f0a782aeaa00e41c779d73532aa2cf8eef10c8d1fb54aa5262b2"),
    ("count J --p 53 --lambda 7 --engine both --ell 2", EXACT,
     "2863edfa802090bf4cd0df834555bd4833e518a7e471b9a8718b890c5a5d4c9b"),
    ("count SIGNED --p 53 --lambda 7 --engine both --k 3 --signs +-+", EXACT,
     "cf9566ee3f015d1a08ee2b968d6fdb84537390072846a803f0b60d81b30b5ab4"),
    ("count F --p 53 --lambda 7 --engine both --ell 2", EXACT,
     "c7376638e756ea1bd9722f44c476d8c562ceafe389af5a5fc49cc618f512022d"),
    ("count I --p 53 --lambda 7 --engine both --ell 2", EXACT,
     "e12d455975064df8d8715b518231f00081434b031a91989c5e313437b462b1bd"),
    ("count T --p 53 --lambda 7 --engine both --r 2", EXACT,
     "fe5c6fff9555e0d56800291705c7b18dadeb3e726073a6e28cfe0a2bf40971ae"),
    ("count Q --p 53 --lambda 7 --engine both --r 2", EXACT,
     "5a9222462465fad14ef73dfd05d61ba75ffa0a1a28ce71bd0da0a2d1e56951c8"),
    ("count R --p 53 --lambda 7 --engine both --k 1 --ell 1 --r 2", EXACT,
     "595cfd6b589fdf016b97a00e6adbba240a46882813c1c509b660fbbb8615fe5f"),
    ("count SIGNED --p 53 --k 3 --signs +-+ --profile", EXACT,
     "fd6ba259ebdd1f6d9d568f24ed1b7a158eff5ae4bb222a9f6de2dc4abfeaef27"),
    ("count T --p 53 --r 2 --profile", EXACT,
     "d1a66777c4d7a4dafed10eb1124d07c630772e9182eb89d0223a4f112a1b1f14"),
    ("count R --p 53 --k 1 --ell 1 --r 2 --profile", EXACT,
     "0f13e1860a75a1a2d6c034e12d0e187e29b8114e86d7bb4f3cdd463700b5ce02"),
    ("sweep --bounds T2.1,C2.2,T2.3,T3.1,T4.1,T4.2,T4.3,T4.4,B-CharSum,B-I "
     "--primes 53..73 --engine both", FLOAT,
     "94e543709b2b3419da2ddb2108debf758cda4a5ba98cda67529b12f014fcdee9"),
    ("sweep --bounds T2.3,T4.4,T2.3 --primes 5..13 --M 2 --k 3 --format json", FLOAT,
     "0d9fd356aca006ff88945316c460ddb2d6a78d2f9c177950b9a891289e4ba259"),
    ("sweep --bounds T2.3,T4.4 --primes 5..13 --M 2 --k 3 --format json --threads 2",
     FLOAT, "a62936f5e79e16973a7a43f34382a4215ca4756255eec2508a43f184281a546e"),
)


def stdout_digest(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "json" in argv:
        out = "".join(
            line for line in out.splitlines(keepends=True)
            if '"timing_seconds"' not in line
        )
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("command", "kind", "digest"), GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_cli_stdout_digest(capsys, monkeypatch, command, kind, digest):
    if kind == FLOAT and np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"float digest recorded under numpy {RECORDED_NUMPY}, "
                    f"running {np.__version__}")
    monkeypatch.delenv("FACTCONG_CACHE_DIR", raising=False)
    assert stdout_digest(capsys, command.split()) == digest
