"""Byte-identity gate on CLI output: sha256 of stdout for fixed commands.

Each digest was recorded before the table rendering was rewritten to work
column by column, so a change to rendering, row building or the numbers
behind them shows here as a changed digest.  JSON envelopes are hashed
without their ``timing_seconds`` line, the only part of stdout that varies
between runs.

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
