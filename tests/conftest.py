"""Slow exact oracles and the traced-peak harness shared by several test
modules."""

import math
import tracemalloc

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


def _traced_peak(call, *args, refused=None):
    """(call(*args), its tracemalloc peak in bytes); with `refused`, the call
    must raise a CapacityError matching it, and the result is None."""
    tracemalloc.start()
    try:
        if refused is None:
            out = call(*args)
        else:
            out = None
            with pytest.raises(rk.CapacityError, match=refused):
                call(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The one tracemalloc harness of the suite: traced_peak(call, *args,
    refused=None) is (result, peak), or checks the expected refusal."""
    return _traced_peak


@pytest.fixture
def budget_checks(monkeypatch):
    """Every byte estimate passed to rk.check_budget, in call order; each is
    still checked against the budget."""
    seen, check = [], rk.check_budget

    def record(nbytes, what):
        seen.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(rk, "check_budget", record)
    return seen


@pytest.fixture
def kept_sieve(monkeypatch):
    """kept_sieve(limit) makes rk.sieve's kept sieve a fresh PrimeSieve to
    `limit`, or none for limit None (a cold sieve, as in a fresh process);
    the test's kept sieve is put back after it."""
    def keep(limit=None):
        monkeypatch.setattr(rk, "_kept",
                            None if limit is None else rk.PrimeSieve(limit))
    return keep


def _cold_and_grown(keep, call):
    """(kept, call()) with a cold sieve (kept None), then with kept sieves of
    about half and of one below the limit the cold call built, each regrown
    to twice its end: one below the limit is the most a call builds."""
    keep(None)
    yield None, call()
    limit = rk._kept.limit  # a cold sieve is built to exactly its limit
    for kept in (limit // 2 + 1, limit - 1):
        keep(kept)
        yield kept, call()
        assert rk._kept.limit == 2 * kept


@pytest.fixture
def cold_and_grown(kept_sieve):
    """cold_and_grown(call) runs call() on a cold sieve and on two kept
    sieves that it must regrow, yielding (kept limit or None, result)."""
    return lambda call: _cold_and_grown(kept_sieve, call)
