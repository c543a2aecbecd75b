"""Slow exact oracles shared by several test modules."""

import numpy as np
import pytest


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
