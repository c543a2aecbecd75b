"""primelab: prime arithmetic in the plane, quaternions, and octonions,
with Goldbach sweeps, prime-matrix spectra, prime graphs, zeta machinery,
and cellular automata on prime configurations."""

import importlib

__version__ = "0.1.0"

# The re-exports load their module on first access (PEP 562), so that
# `import primelab` loads no numpy: the CLI sets numpy's BLAS threads first.
_EXPORTS = {"CapacityError": "ratkernel", "is_prime": "ratkernel",
            "sieve": "ratkernel", "GaussianInt": "planarith",
            "EisensteinInt": "planarith", "QuatInt": "hyperarith",
            "OctInt": "hyperarith"}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value
