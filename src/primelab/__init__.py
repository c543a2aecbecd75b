"""primelab: prime arithmetic in the plane, quaternions, and octonions,
with Goldbach sweeps, prime-matrix spectra, prime graphs, zeta machinery,
and cellular automata on prime configurations."""

import importlib

__version__ = "0.1.0"


class CapacityError(Exception):
    """A requested computation exceeds the configured resource budget."""


# Largest matrix order specmat's float solvers accept.  The cap lives here,
# with no numpy, so the CLI refuses an oversized matrix before numpy loads;
# callers that build the matrix call check_solver_cap first, so a refused
# size is never allocated.
SOLVER_CAP = 4000


def check_solver_cap(n):
    """Raise CapacityError when an n×n matrix is above SOLVER_CAP."""
    if n > SOLVER_CAP:
        raise CapacityError(f"matrix size {n} above solver cap {SOLVER_CAP}")


# The re-exports load their module on first access (PEP 562), so that
# `import primelab` loads no numpy: the CLI sets numpy's BLAS threads first.
_EXPORTS = {"is_prime": "ratkernel", "sieve": "ratkernel",
            "GaussianInt": "planarith", "EisensteinInt": "planarith",
            "QuatInt": "hyperarith", "OctInt": "hyperarith"}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value
