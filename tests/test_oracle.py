"""A third engine, in the tests only: every family straight from its definition.

The oracle below reduces math.factorial(n) mod p for every n of the
windows and runs itertools.product over every variable of the congruence;
it uses no numpy and nothing from factcong.  Both engines share the windows,
their roles and the family table, so a slip in any of those would fool
both; this enumeration shares none of them.

The variables of each family, by window role (n: (L, N], m: (K, K+M],
t: (S, S+T]), and the residue that a tuple sends to lambda:

  J       x in n^ell, y in n^ell         sum x! - sum y!
  SIGNED  x in n^k                       sum s_i x_i!
  F       m, m' in m^ell, n, n' in n^ell  sum m_i! n_i! - sum m'_i! n'_i!  (at 0)
  I       x, y in n^ell                  prod x! - prod y!                 (at 0)
  T       m in m^r, n in n^r             sum m_i! n_i!
  Q       m in m, n in n, z in n^r       m! n! + sum z_i!
  R       x in m^k, y in n^ell, z in t^r (sum x!)(sum y!)(prod z!), with an
                                         empty first bracket 1 when k = 0
"""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcong import kernels
from factcong.counting import (
    CountQuery,
    brute_force_count,
    count_convolution,
    count_profile,
)
from factcong.field import PrimeContext

# Each drawn query enumerates at most this many tuples.
MAX_TUPLES = 4096


def factorials(p, start, length):
    """(start+1)!, ..., (start+length)! mod p."""
    return [math.factorial(n) % p for n in range(start + 1, start + length + 1)]


def prod_mod(values, p):
    out = 1
    for v in values:
        out = out * v % p
    return out


def variables(family, q):
    """[(role, how many variables the family draws from that window)]."""
    return {
        "J": [("n", 2 * q["ell"])],
        "SIGNED": [("n", q["k"])],
        "F": [("m", 2 * q["ell"]), ("n", 2 * q["ell"])],
        "I": [("n", 2 * q["ell"])],
        "T": [("m", q["r"]), ("n", q["r"])],
        "Q": [("m", 1), ("n", 1 + q["r"])],
        "R": [("m", q["k"]), ("n", q["ell"]), ("t", q["r"])],
    }[family]


def oracle(family, p, q):
    """Counter: residue -> tuples of the family that the definition sends there."""
    n = factorials(p, q["L"], q["N"])
    m = factorials(p, q["K"], q["M"])
    t = factorials(p, q["S"], q["T"])
    out = Counter()
    if family == "J":
        ell = q["ell"]
        for v in itertools.product(n, repeat=2 * ell):
            out[(sum(v[:ell]) - sum(v[ell:])) % p] += 1
    elif family == "SIGNED":
        for v in itertools.product(n, repeat=q["k"]):
            out[sum(s * x for s, x in zip(q["signs"], v)) % p] += 1
    elif family == "F":
        ell = q["ell"]
        for ms in itertools.product(m, repeat=2 * ell):
            for ns in itertools.product(n, repeat=2 * ell):
                left = sum(a * b for a, b in zip(ms[:ell], ns[:ell]))
                right = sum(a * b for a, b in zip(ms[ell:], ns[ell:]))
                out[(left - right) % p] += 1
    elif family == "I":
        ell = q["ell"]
        for v in itertools.product(n, repeat=2 * ell):
            out[(prod_mod(v[:ell], p) - prod_mod(v[ell:], p)) % p] += 1
    elif family == "T":
        r = q["r"]
        for ms in itertools.product(m, repeat=r):
            for ns in itertools.product(n, repeat=r):
                out[sum(a * b for a, b in zip(ms, ns)) % p] += 1
    elif family == "Q":
        for a, b, *zs in itertools.product(m, n, *[n] * q["r"]):
            out[(a * b + sum(zs)) % p] += 1
    else:  # R
        for xs in itertools.product(m, repeat=q["k"]):
            first = sum(xs) if q["k"] else 1
            for ys in itertools.product(n, repeat=q["ell"]):
                for zs in itertools.product(t, repeat=q["r"]):
                    out[first * sum(ys) * prod_mod(zs, p) % p] += 1
    return out


@st.composite
def queries(draw):
    family = draw(st.sampled_from(["J", "SIGNED", "F", "I", "T", "Q", "R"]))
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 23, 31, 43, 53]))
    # the families whose brute tallies fold a level by squaring, and whose
    # convolution parts are powers, draw up to nine copies of it, so that
    # odd and even powers split in the middle past their first squares
    most = 9 if family in ("F", "I", "T", "Q", "R") else 6
    q = {name: draw(st.integers(1, most), label=name) for name in ("ell", "k", "r")}
    if family == "R":
        q["k"] = draw(st.integers(0, most), label="k")
    q["signs"] = tuple(draw(st.lists(st.sampled_from([1, -1]),
                                     min_size=q["k"], max_size=q["k"]), label="signs"))
    uses = dict(variables(family, q))
    # each window the family draws from is at most MAX_TUPLES ** (1 / the
    # family's number of variables) long, so the tuples stay few
    longest = max(1, int(MAX_TUPLES ** (1 / sum(uses.values())) + 1e-9))
    for role, (start, length) in {"n": ("L", "N"), "m": ("K", "M"), "t": ("S", "T")}.items():
        q[start] = draw(st.integers(0, p - 2), label=start)
        top = p - 1 - q[start]
        if role in uses:
            top = min(top, longest)
        q[length] = draw(st.integers(1, top), label=length)
    lam = draw(st.integers(1 if family == "R" else 0, p - 1), label="lam")
    return family, p, q, lam


@settings(max_examples=200)
@given(queries())
def test_both_engines_and_every_profile_entry_equal_the_definition(drawn):
    family, p, q, lam = drawn
    expected = oracle(family, p, q)
    ctx = PrimeContext.create(p)
    query = CountQuery(family=family, ctx=ctx, lam=lam, **q)
    at = 0 if family in ("F", "I") else lam
    conv = count_convolution(query)
    assert conv.count == expected[at], "convolution"
    # products over residues and, with the pair threshold at 0, over exponents
    for per_p in (kernels._EXPONENT_PAIRS_PER_P, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_EXPONENT_PAIRS_PER_P", per_p)
            assert brute_force_count(query).count == expected[at], ("brute force", per_p)
    if family == "R":
        # tuples with a vanishing bracket land on 0, which R reports apart
        assert conv.details["dropped_zero_mass"] == expected[0]
    if family not in ("F", "I"):
        profile = count_profile(query)
        assert [int(c) for c in profile] == [
            0 if family == "R" and x == 0 else expected[x] for x in range(p)
        ]
