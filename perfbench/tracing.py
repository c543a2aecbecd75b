"""Per-module spans and counters for the traced benchmark run.

`install()` wraps every public function of the primelab layer modules and
rebinds each wrapped name in every loaded primelab module that holds the
original, so calls made through `from .planarith import gaussian_prime_mask`
inside goldbach, specmat, primegraphs or caworld are traced as well.  Nothing
here is imported by an untraced run.

A span is one call into a wrapped function.  `<module>.self_s` sums, over
that module's spans, the span's duration minus the time of the spans it
directly encloses; `<module>.<function>.s` is time inside the outermost call
of that function.  The ratkernel scalar helpers in COUNT_ONLY are only
counted: they run hundreds of thousands of times per pass, and timing each
call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import Counter
from time import perf_counter

LAYERS = ("ratkernel", "planarith", "hyperarith", "goldbach", "primestats",
          "specmat", "primegraphs", "zetafun", "caworld", "cli")

COUNT_ONLY = {"ratkernel.is_prime", "ratkernel.jacobi",
              "ratkernel.sqrt_minus_one_mod"}


class Tracer:
    def __init__(self):
        self.values = Counter()
        self._stack = []  # one [module, enclosed child time] per open span
        self._depth = Counter()
        self._sieves = weakref.WeakKeyDictionary()  # sieve object -> limit
        self._measure = {
            "ratkernel.sieve": self._sieve_built,
            "planarith.gaussian_prime_mask": self._add("cells",
                                                       lambda m: m.size),
            "hyperarith.lattice_points_norm": self._add("points", len),
            "primegraphs.gcd_graph": self._add("edges", lambda g: g.E),
        }

    def _add(self, name, size):
        def measure(key, result):
            self.values[f"{key}.{name}"] += int(size(result))
        return measure

    def _sieve_built(self, key, sieve):
        # A build is a sieve object not returned before, or one whose limit
        # changed since it was last returned (a sieve that grows in place).
        limit = getattr(sieve, "limit", None)
        if sieve in self._sieves and self._sieves[sieve] == limit:
            return
        self._sieves[sieve] = limit
        self.values[f"{key}.builds"] += 1
        self.values[f"{key}.flags_built"] += int(sieve.flags.nbytes)

    def wrap(self, module, name, fn):
        key = f"{module}.{name}"
        values = self.values
        if key in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                values[f"{key}.calls"] += 1
                return fn(*args, **kwargs)
            return counted

        stack, depth = self._stack, self._depth
        measure = self._measure.get(key)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            values[f"{key}.calls"] += 1
            frame = [module, 0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[key] -= 1
                stack.pop()
                if not depth[key]:
                    values[f"{key}.s"] += dt
                values[f"{module}.self_s"] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if measure is not None:
                measure(key, result)
            return result
        return spanned

    def snapshot(self):
        return dict(self.values)


def install():
    """Import every layer module, wrap its public functions, and return the
    Tracer that records them."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"primelab.{layer}")
               for layer in LAYERS}
    replace = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            replace[id(obj)] = (obj, tracer.wrap(layer, name, obj))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "primelab"
                               or modname.startswith("primelab.")):
            continue
        for name, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    return tracer
