"""Call lists and output checks for the primelab benchmark workloads.

A workload is a list of `Call`s built from a seed.  Seed 0 is the default
and runs exactly the calls recorded in `golden.json`; any other seed moves
offsets, rows or checkpoints but never the sizes that set the work, so every
seed costs about the same.

Each call is checked in two ways after the timed pass:
  * `check` asserts a closed form or an independent oracle that holds for
    any seed;
  * the sha256 of the canonical result is compared with `golden.json`
    whenever the call (identified by its arguments) was recorded there.
Floats enter the canonical form rounded to FLOAT_DIGITS significant digits,
which is the stated tolerance for float results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

FLOAT_DIGITS = 9

# Modules each workload imports before it reports ready: their import time
# is the workload's setup_s.
MODULES = {
    "sweep": ("primelab", "primelab.goldbach"),
    "bulk": ("primelab", "primelab.primestats", "primelab.zetafun",
             "primelab.specmat"),
    "structures": ("primelab", "primelab.primegraphs", "primelab.specmat"),
    "cli": ("primelab.cli", "primelab.goldbach", "primelab.primestats",
            "primelab.specmat", "primelab.primegraphs", "primelab.zetafun",
            "primelab.caworld"),
}

# The README's ten commands, in README order; `cli` runs each as its own
# `python -m primelab.cli` child.  --out is inserted in front of each.
CLI_COMMANDS = (
    ("goldbach", ["goldbach", "--ring", "gaussian", "--variant", "open-even",
                  "--max", "60"]),
    ("hl", ["hl", "--western", "--cutoff", "1000"]),
    ("matrix", ["matrix", "--z0", "1", "--scan", "60", "--detgrowth", "10"]),
    ("smith", ["smith", "--n", "7"]),
    ("graphs", ["graphs", "--kind", "gcd", "--n", "30"]),
    ("zeta", ["zeta", "--explicit", "--zeros", "tests/data/zeta_zeros_100.txt",
              "--K", "20", "--xmax", "20"]),
    ("ca", ["ca", "--window", "12", "--steps", "1", "--moat", "0"]),
    ("angles", ["angles", "--count", "50"]),
    ("almostper", ["almostper", "--nmax", "6"]),
    ("hyperplane", ["hyperplane", "--a", "1", "--n", "4"]),
)

# n = 4001 is the first size above spectrum()'s solver_cap, so the command
# must exit 3.  It builds the whole matrix first (about 0.9 GB) at the seed
# commit; larger n would risk the box's memory.
REFUSAL_COMMAND = ["matrix", "--spectrum", "4001"]
REFUSAL_EXIT = 3


@dataclass
class Call:
    id: str
    fn: Callable[[], Any]
    check: Callable[[Any], None] | None = None
    canon: Callable[[Any], Any] | None = None


def _float_token(v):
    if v == 0:
        v = 0.0  # one token for -0.0 and 0.0
    return f"{v:.{FLOAT_DIGITS}g}"


def canonical(x):
    """JSON-able form of a result: containers and dataclasses become lists
    and dicts, numpy scalars and arrays become Python values, floats become
    rounded strings."""
    import numpy as np

    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return _float_token(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return [_float_token(x.real), _float_token(x.imag)]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.ndarray):
        return canonical(x.tolist())
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {f.name: canonical(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x):
    text = json.dumps(canonical(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_FLOAT_LITERAL = re.compile(
    r"(?<![\w.])-?\d+(?:\.\d*(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])")


def text_digest(text):
    """sha256 of a CLI data file with its float literals rounded like
    call results; integers and every other byte are kept as written."""
    text = _FLOAT_LITERAL.sub(lambda m: _float_token(float(m.group())), text)
    return hashlib.sha256(text.encode()).hexdigest()


def verify(call, result, golden, require_golden):
    """Raise AssertionError when `result` fails its check or its digest."""
    if call.check is not None:
        call.check(result)
    want = golden.get(call.id)
    if want is None:
        if require_golden:
            raise AssertionError("no golden digest recorded for this call")
        return
    got = digest(call.canon(result) if call.canon else result)
    if got != want:
        raise AssertionError(f"digest {got[:12]} != golden {want[:12]}")


def _expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


class _Seeded:
    """Seed 0 keeps each default; other seeds draw from the given choices."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def pick(self, default, choices):
        return default if self.seed == 0 else self.rng.choice(choices)

    def cells(self, region, k):
        (alo, ahi), (blo, bhi) = region
        return [(self.rng.randint(alo, ahi), self.rng.randint(blo, bhi))
                for _ in range(k)]


# ------------------------------------------------------------------ sweep

def sweep(seed):
    """Many small prime masks and sieves, each at a different limit."""
    import numpy as np
    from scipy import signal

    from primelab import goldbach as gb
    from primelab import planarith as pa

    s = _Seeded(seed)
    even = gb.SumVariant(cone="open", parity_filter="even-only")
    closed = gb.SumVariant(cone="closed")

    def first_even_zero(bound):
        def check(z):
            report = gb.comet("gaussian", ((2, bound), (2, bound)), even)
            cells = sorted((a * a + b * b, a, b) for a, b in report.zero_cells)
            want = pa.GaussianInt(cells[0][1], cells[0][2]) if cells else None
            _expect(z == want, f"FFT comet says first zero is {want}")
        return check

    def ghost_oracle(row, amax):
        def check(ghosts):
            grid = gb.comet("eisenstein", ((2, amax), (row, row)), gb.OPEN)
            want = [a for a in range(2, amax + 1)
                    if grid.counts[a - 2, 0] == 0]
            _expect(list(ghosts) == want, f"FFT comet row gives {want[:8]}")
        return check

    def spot_r2(ring, variant, cells):
        make = pa.GaussianInt if ring == "gaussian" else pa.EisensteinInt
        pair = closed if variant.cone == "closed" else gb.OPEN

        def check(report):
            (alo, _), (blo, _) = report.region
            for a, b in cells:
                got = int(report.counts[a - alo, b - blo])
                if variant.parity_filter == "even-only" and (a + b) % 2:
                    want = 0
                else:
                    want = gb.r2(make(a, b), pair)
                _expect(got == want, f"cell {(a, b)}: {got} != r2 {want}")
        return check

    def r3_oracle(z):
        def check(count):
            m = pa.gaussian_prime_mask(1, z.re - 1, 1, z.im - 1)
            m = m.astype(float)
            triple = signal.fftconvolve(signal.fftconvolve(m, m), m)
            want = int(np.rint(triple[z.re - 3, z.im - 3]))
            _expect(count == want, f"triple convolution gives {want}")
        return check

    def comet_call(ring, region, variant, label):
        return Call(f"comet({ring},{region},{label})",
                    lambda: gb.comet(ring, region, variant),
                    spot_r2(ring, variant, s.cells(region, 8)))

    calls = [
        Call("first_counterexample(gaussian,unrestricted,400)",
             lambda: gb.first_counterexample("gaussian", gb.UNRESTRICTED,
                                             400)),
        Call("first_counterexample(gaussian,open-even,100)",
             lambda: gb.first_counterexample("gaussian", even, 100),
             first_even_zero(100)),
    ]
    for row, amax in ((s.pick(3, range(3, 7)), 1000),
                      (s.pick(5, range(5, 9)), 600)):
        calls.append(Call(f"eisenstein_ghosts({row},{amax})",
                          lambda row=row, amax=amax:
                          gb.eisenstein_ghosts(row, amax),
                          ghost_oracle(row, amax)))
    region = ((s.pick(0, range(4)), 70), (s.pick(0, range(4)), 70))
    calls.append(comet_call("gaussian", region, closed, "closed"))
    swap = s.seed != 0 and s.rng.random() < 0.5
    for a in range(5, 40):
        z = pa.GaussianInt(a + 1, a) if swap else pa.GaussianInt(a, a + 1)
        calls.append(Call(f"r3({z.re},{z.im})",
                          lambda z=z: gb.r3(z), r3_oracle(z)))
    lo = 2 + s.pick(0, range(6))
    calls.append(comet_call("gaussian", ((lo, 300), (lo, 300)), even,
                            "open-even"))
    lo = 2 + s.pick(0, range(6))
    calls.append(comet_call("eisenstein", ((lo, 300), (lo, 300)), gb.OPEN,
                            "open"))
    return calls


# ------------------------------------------------------------------- bulk

def bulk(seed):
    """Few calls, each with one large limit."""
    from primelab import planarith as pa
    from primelab import primestats as ps
    from primelab import ratkernel as rk
    from primelab import specmat as sm
    from primelab import zetafun as zf

    s = _Seeded(seed)
    n_emp = 4_000_000
    checkpoints = ([10**3, 10**4, 10**5, 10**6, n_emp] if seed == 0 else
                   sorted(s.rng.sample(range(10**3, n_emp), 4)) + [n_emp])

    def ratio_check(series):
        prev = 0
        for n, num, den, ratio in series.checkpoints:
            _expect(den == rk.pi_mod(n, 3, 4), f"denominator at {n}")
            _expect(ratio == num / den and num >= prev, f"numerator at {n}")
            prev = num

    def psi_check(x):
        def check(psi):
            terms = []
            for p in rk.sieve(x).primes().tolist():
                q = p
                while q <= x:
                    terms.append(math.log(p))
                    q *= p
            want = math.fsum(terms)
            _expect(abs(psi - want) <= 1e-9 * want, f"fsum gives {want}")
        return check

    def zeta_check(ring, s_):
        closed = zf.zeta_G(s_) if ring == "gaussian" else zf.zeta_E(s_)

        def check(val):
            _expect(abs(val - closed) < 1e-3, f"closed form {closed}")
        return check

    x_pig = 10**6 - s.pick(0, range(1000))
    zeta_s = s.pick(2, (2, 3, 4))
    x_psi = 10**6 - s.pick(0, range(1000))
    calls = [
        Call(f"empirical_ratio({n_emp},{checkpoints})",
             lambda: ps.empirical_ratio(n_emp, checkpoints), ratio_check),
        Call(f"pi_G_identity_check({x_pig})",
             lambda: pa.pi_G_identity_check(x_pig),
             lambda r: _expect(r == 0, "identity residual is not 0")),
    ]
    for ring in ("gaussian", "eisenstein"):
        calls.append(Call(f"lattice_zeta({ring},{zeta_s},1000000)",
                          lambda ring=ring: zf.lattice_zeta(ring, zeta_s,
                                                            10**6),
                          zeta_check(ring, zeta_s)))
    calls += [
        Call(f"chebyshev_psi({x_psi})", lambda: zf.chebyshev_psi(x_psi),
             psi_check(x_psi)),
        Call("mertens(500000)", lambda: rk.mertens(500_000),
             lambda m: _expect(m * m <= 500_000, "|M(n)| > sqrt(n)")),
        Call("gaussian_mertens(500000)", lambda: pa.gaussian_mertens(500_000),
             lambda m: _expect(m % 4 == 0, "M_G(x) not a multiple of 4")),
        Call("row_cov_sign_table(2,1000000)",
             lambda: sm.row_cov_sign_table(2, 10**6),
             lambda t: _expect((t == t.T).all() and (t.diagonal() == 1).all(),
                               "sign table not symmetric with +1 diagonal")),
    ]
    return calls


# ------------------------------------------------------------- structures

def structures(seed):
    """Exact structure code that runs as per-element Python loops."""
    import numpy as np

    from primelab import hyperarith as ha
    from primelab import primegraphs as pg
    from primelab import ratkernel as rk
    from primelab import specmat as sm
    from primelab.planarith import GaussianInt

    s = _Seeded(seed)
    odd_primes = [p for p in range(3, 152) if rk.is_prime(p)]

    def spectrum_canon(spec):
        ev = np.asarray(spec.eigenvalues)
        return [len(ev), int(round(ev.sum().real)),
                int(round((ev * ev).sum().real))]

    def spectrum_check(z0):
        def check(spec):
            a = sm.build_prime_matrix(z0, 100)
            ev = np.asarray(spec.eigenvalues)
            _expect(len(ev) == 100, "eigenvalue count")
            _expect(abs(ev.sum() - np.trace(a)) < 1e-6, "sum != trace(A)")
            _expect(abs((ev * ev).sum() - np.trace(a @ a)) < 1e-6,
                    "sum of squares != trace(A^2)")
            _expect(spec.residual_bound < 1e-8, "residual bound")
        return check

    calls = []
    for p in odd_primes:
        if p <= 47:
            calls.append(Call(f"u_orbit_lengths({p})",
                              lambda p=p: ha.u_orbit_lengths(p),
                              lambda r: _expect(set(r) <= {2, 3},
                                                f"lengths {sorted(set(r))}")))
    for p in odd_primes:
        calls.append(Call(f"classes_above({p})",
                          lambda p=p: ha.classes_above(p),
                          lambda r, p=p: _expect(r == p + 1, f"{r} != p+1")))
    for n in range(4 + s.pick(0, range(4)), 401, 27):
        calls.append(Call(f"gcd_components({n})",
                          lambda n=n: pg.gcd_components(n),
                          lambda r, n=n: _expect(
                              r == pg.gcd_components_formula(n), "formula")))
        calls.append(Call(f"gcd_edge_count({n})",
                          lambda n=n: pg.gcd_edge_count(n),
                          lambda r, n=n: _expect(
                              r == pg.gcd_edge_count_formula(n), "formula")))
    for n in range(2 + s.pick(0, range(3)), 241, 3):
        calls.append(Call(f"gaussian_graph_chi_two_ways({n})",
                          lambda n=n: pg.gaussian_graph_chi_two_ways(n),
                          lambda r: _expect(r[0] == r[1], f"{r}")))
    calls.append(Call("invertibility_scan(1,128)",
                      lambda: sm.invertibility_scan(1, 128),
                      lambda r: _expect(
                          r["threshold"] == max(r["singular_ns"], default=0),
                          "threshold is not the largest singular n")))
    for n in range(1, 41):
        for s_ in (1, 2, 3):
            calls.append(Call(f"smith_det_residual({n},{s_})",
                              lambda n=n, s_=s_: sm.smith_det_residual(n, s_),
                              lambda r: _expect(r == 0, f"residual {r}")))
    z0 = s.pick(GaussianInt(1, 1), [GaussianInt(a, b) for a, b in
                                    ((1, 1), (2, 2), (3, 1), (1, 3), (2, 4))])
    calls.append(Call(f"spectrum(build_prime_matrix({z0.re},{z0.im},100))",
                      lambda: sm.spectrum(sm.build_prime_matrix(z0, 100)),
                      spectrum_check(z0), spectrum_canon))
    return calls


BUILDERS = {"sweep": sweep, "bulk": bulk, "structures": structures}
