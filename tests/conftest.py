"""Slow exact oracles shared by several test modules."""

import math

import numpy as np
import pytest

from primelab import ratkernel as rk


def _det_cofactor(m):
    """Cofactor-expansion determinant (small n only)."""
    a = np.asarray(m, dtype=object)
    n = a.shape[0]

    def rec(rows, colmask):
        if not rows:
            return 1
        r = rows[0]
        total = 0
        sign = 1
        for c in range(n):
            if colmask & (1 << c):
                continue
            if a[r][c]:
                total += sign * a[r][c] * rec(rows[1:], colmask | (1 << c))
            sign = -sign
        return total

    return rec(list(range(n)), 0)


@pytest.fixture
def det_minor_expansion():
    """The cofactor-expansion determinant, an oracle for det_exact."""
    return _det_cofactor


def _sqrt_minus_one_jacobi(p):
    """√−1 mod p (p = 2 or p ≡ 1 mod 4 prime) from the least a with Jacobi
    symbol (a|p) = −1, one a at a time: r = a^((p−1)/4) mod p."""
    if p == 2:
        return 1
    a = 2
    while rk.jacobi(a, p) != -1:
        a += 1
    return pow(a, (p - 1) // 4, p)


def _two_square_search(p):
    """(a, b) with a² + b² = p and a >= b >= 1, by a search over b."""
    b = 1
    while True:
        a = math.isqrt(p - b * b)
        if a < b:
            raise ValueError(f"{p} is not a sum of two squares")
        if a * a == p - b * b:
            return a, b
        b += 1


@pytest.fixture
def sqrt_minus_one_oracle():
    """The scalar Jacobi-symbol search, an oracle for ratkernel._split_root
    at q = 4."""
    return _sqrt_minus_one_jacobi


@pytest.fixture
def two_square_oracle():
    """The bounded two-square search, an oracle for ratkernel._cornacchia on
    _split_root's roots and for planarith.prime_above in Z[i]."""
    return _two_square_search
