"""Schoolbook cyclic convolution in Python integers, the tests' oracle for
the fast engines of factcong.transform.  Quadratic: keep lengths small."""

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
