"""Schoolbook oracles in Python integers and floats for the fast engines:
cyclic convolution (factcong.transform) and direct character sums
(factcong.expsums).  Quadratic or linear in p: keep the primes small."""

import cmath
import math

import numpy as np


def cyclic_convolve_direct(a, b) -> np.ndarray:
    """out[t] = sum over i + j = t (mod n) of a[i] * b[j], as int64 when the
    total fits and as Python integers otherwise, like cyclic_convolve_exact."""
    va, vb = [int(x) for x in a], [int(x) for x in b]
    assert len(va) == len(vb), "cyclic convolution needs equal lengths"
    n = len(va)
    out = [0] * n
    for i, x in enumerate(va):
        if x:
            for j, y in enumerate(vb):
                if y:
                    out[(i + j) % n] += x * y
    return np.array(out, dtype=np.int64 if sum(out) < 2**63 else object)


def character_sum_direct(p: int, L: int, N: int, j: int) -> complex:
    """Sum of exp(2*pi*i * j * ind(n!) / (p - 1)) over n in (L, L+N], ind
    base the smallest generator mod p.  Each index is found by repeated
    multiplication by that generator, each n! mod p by a running product;
    the terms are added by math.fsum, so the sum adds no rounding."""
    for g in range(2, p):
        ind, x = {}, 1
        for e in range(p - 1):
            ind.setdefault(x, e)
            x = x * g % p
        if len(ind) == p - 1:
            break
    fact = 1
    for n in range(1, L + 1):
        fact = fact * n % p
    terms = []
    for n in range(L + 1, L + N + 1):
        fact = fact * n % p
        terms.append(cmath.exp(2j * cmath.pi * (j * ind[fact] % (p - 1)) / (p - 1)))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
