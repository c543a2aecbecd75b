"""Reproducible command-line experiment runner.

Every subcommand writes its data files (CSV/JSON, deterministic byte order)
plus a `manifest.json` recording the parameters, package versions, and wall
time.  Usage errors, including any argument the library rejects with
ValueError or does not implement (NotImplementedError), exit 2; capacity
errors exit 3.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ratkernel import CapacityError


def _write(path, text):
    Path(path).write_text(text)
    return str(path)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(outdir, name, lines):
    with open(Path(outdir) / name, "w") as f:  # each line as it comes
        f.writelines(line + "\n" for line in lines)
    return f.name


# ---------------------------------------------------------------- subcommands

def _run_goldbach(args, outdir):
    from . import goldbach as gb
    variant = {
        "open": gb.OPEN,
        "open-even": gb.SumVariant(cone="open", parity_filter="even-only"),
        "unrestricted": gb.UNRESTRICTED,
    }[args.variant]
    if args.max < 2:
        raise UsageError(f"--max must be >= 2, got {args.max}")
    report = gb.comet(args.ring, ((2, args.max), (2, args.max)), variant)
    files = [_emit(outdir, "goldbach.csv", report.csv_lines())]
    summary = {
        "ring": report.ring,
        "variant": args.variant,
        "region": list(map(list, report.region)),
        "min_count": report.min_count,
        "max_count": report.max_count,
        "zero_cells": [list(c) for c in report.zero_cells],
    }
    if variant.cone == "unrestricted":
        summary["window"] = gb.UNRESTRICTED_WINDOW
    files.append(_write(Path(outdir) / "goldbach.json", _json_dumps(summary)))
    return files, {"zero_cells": len(report.zero_cells)}


def _run_hl(args, outdir):
    from . import primestats as ps
    files, extra = [], {}
    if args.western:
        c = ps.hl_C_western(args.cutoff)
        files.append(_write(Path(outdir) / "hl.json", _json_dumps(
            {"method": "western", "cutoff": args.cutoff, "C": c})))
        extra["C"] = c
    elif args.empirical:
        checkpoints = [10 ** k for k in range(2, 30)
                       if 10 ** k <= args.empirical] + [args.empirical]
        series = ps.empirical_ratio(args.empirical, sorted(set(checkpoints)))
        files.append(_emit(outdir, "ratio.csv", series.csv_lines()))
    else:
        c = ps.hl_C_naive(args.a, args.cutoff)
        files.append(_write(Path(outdir) / "hl.json", _json_dumps(
            {"method": "naive", "a": args.a, "cutoff": args.cutoff, "C": c})))
        extra["C"] = c
    return files, extra


def _run_matrix(args, outdir):
    from . import specmat as sm
    files, extra = [], {}
    if args.scan is not None:
        res = sm.invertibility_scan(args.z0, args.scan)
        extra["threshold"] = res["threshold"]
        files.append(_write(Path(outdir) / "scan.json", _json_dumps(
            {"z0": args.z0, "nmax": args.scan,
             "singular_ns": res["singular_ns"],
             "threshold": res["threshold"]})))
    if args.spectrum is not None:
        # refuse an oversized matrix before building it
        sm.check_solver_cap(args.spectrum)
        m = sm.build_prime_matrix(args.z0, args.spectrum)
        s = sm.spectrum(m)
        lines = ["re,im"] + [f"{ev.real!r},{ev.imag!r}"
                             for ev in sorted(s.eigenvalues,
                                              key=lambda z: (z.real, z.imag))]
        files.append(_emit(outdir, "spectrum.csv", lines))
    if args.detgrowth is not None:
        lines = ["n,det_sign,log_abs_det"]
        sm.check_exact_pass(args.detgrowth)
        full = sm.build_prime_matrix(args.z0, args.detgrowth)
        for n, d in enumerate(sm.leading_minors(full), 1):
            sign = 0 if d == 0 else (1 if d > 0 else -1)
            log_abs = float("-inf") if d == 0 else math.log(abs(d))
            lines.append(f"{n},{sign},{log_abs!r}")
        files.append(_emit(outdir, "det_growth.csv", lines))
    return files, extra


def _run_smith(args, outdir):
    from . import specmat as sm
    det, residual = sm._smith_det_and_residual(args.n, args.s)
    files = [_write(Path(outdir) / "smith.json", _json_dumps(
        {"n": args.n, "s": args.s, "det": str(det),
         "residual": str(residual)}))]
    return files, {"residual": str(residual)}


def _run_graphs(args, outdir):
    from . import primegraphs as pg
    files = []
    stats_lines = ["n,V,E,components,chi"]
    builder = {"gaussian": pg.gaussian_graph, "gcd": pg.gcd_graph}[args.kind]
    g = None
    for n in range(args.min, args.n + 1):
        g = builder(n)
        st = pg.stats(g)
        stats_lines.append(
            f"{n},{st.V},{st.E},{st.components},{st.chi}")
    files.append(_emit(outdir, "stats.csv", stats_lines))
    if g is None:  # --min above --n: no stats rows, edges still for --n
        g = builder(args.n)
    edge_lines = ["u,v"] + [f"{u},{v}" for u, v in
                             g.vertices[g.edges].tolist()]
    files.append(_emit(outdir, "edges.csv", edge_lines))
    return files, {}


def _run_zeta(args, outdir):
    from . import zetafun as zf
    files, extra = [], {}
    if args.explicit:
        if not args.zeros:
            raise UsageError("--explicit requires --zeros PATH")
        if not args.step > 0:  # the x loop below would never end
            raise UsageError(f"--step must be > 0, got {args.step}")
        if args.xmax < args.xmin:
            raise UsageError(f"--xmax must be >= --xmin, got {args.xmax} "
                             f"< {args.xmin}")
        table = zf.ZeroTable.load(args.zeros)
        lines = ["x,psi,explicit_psi,K"]
        x = args.xmin
        while x <= args.xmax + 1e-12:
            lines.append(f"{x!r},{zf.chebyshev_psi(x)!r},"
                         f"{zf.explicit_psi(x, table, args.K)!r},{args.K}")
            x += args.step
        files.append(_emit(outdir, "psi.csv", lines))
    else:
        val = zf.lattice_zeta(args.ring, args.s, args.cutoff)
        closed = zf.zeta_G(args.s) if args.ring == "gaussian" \
            else zf.zeta_E(args.s)
        files.append(_write(Path(outdir) / "zeta.json", _json_dumps(
            {"ring": args.ring, "s": args.s, "cutoff": args.cutoff,
             "lattice": [val.real, val.imag],
             "closed_form": [closed.real, closed.imag],
             "error": abs(val - closed)})))
        extra["error"] = abs(val - closed)
    return files, extra


def _parse_rule(text):
    from .caworld import Rule
    birth, survive = text.upper().split("/")
    if not birth.startswith("B") or not survive.startswith("S"):
        raise UsageError(f"rule must look like B3/S23, got {text!r}")
    return Rule(frozenset(int(c) for c in birth[1:]),
                frozenset(int(c) for c in survive[1:]))


def _run_ca(args, outdir):
    from . import caworld as ca
    rule = _parse_rule(args.rule)
    if args.steps < 0:
        raise UsageError(f"--steps must be >= 0, got {args.steps}")
    g = ca.grid_from_gaussian_primes(args.window)
    for _ in range(args.steps):
        g = ca.step(g, rule)
    files = [_write(Path(outdir) / "grid.rle", ca.to_rle(g)),
             _write(Path(outdir) / "grid.pbm", ca.to_pbm(g))]
    extra = {"live_cells": int(g.cells.sum())}
    if args.moat is not None:
        comp = ca.moat_component(args.moat, args.window)
        lines = ["re,im"] + [f"{a},{b}" for a, b in comp.tolist()]
        files.append(_emit(outdir, "moat.csv", lines))
        extra["moat_size"] = len(comp)
    return files, extra


def _run_angles(args, outdir):
    from . import primestats as ps
    from .planarith import theta_sequence
    p, theta = theta_sequence(args.count)
    lines = map("{},{!r}".format, map(int, p), map(float, theta))
    files = [_emit(outdir, "angles.csv", itertools.chain(["p,theta"], lines))]
    st = ps.theta_statistics(theta)
    files.append(_write(Path(outdir) / "angles.json", _json_dumps(
        {"count": args.count, "ks_uniform": st.ks_uniform,
         "autocorr": st.autocorr, "split_corr": st.split_corr})))
    return files, {"ks_uniform": st.ks_uniform}


def _run_almostper(args, outdir):
    from . import specmat as sm
    if args.nmax < 1:
        raise UsageError(f"--nmax must be >= 1, got {args.nmax}")
    sm.check_almost_period(args.nmax)
    lines = ["n,det_sign,log_abs_det"]
    for n in range(1, args.nmax + 1):
        m = sm.build_almost_period(n, args.alpha, args.beta, args.theta)
        sign, log_abs = np.linalg.slogdet(m)
        lines.append(f"{n},{int(round(sign))},{float(log_abs)!r}")
    return [_emit(outdir, "almostper.csv", lines)], {}


def _run_hyperplane(args, outdir):
    from . import primestats as ps
    count, normalized = ps.hyperplane_normalized(args.a, args.n)
    files = [_write(Path(outdir) / "hyperplane.json", _json_dumps(
        {"a": args.a, "n": args.n, "count": count,
         "normalized": normalized}))]
    return files, {"count": count}


class UsageError(Exception):
    pass


_RUNNERS = {
    "goldbach": _run_goldbach,
    "hl": _run_hl,
    "matrix": _run_matrix,
    "smith": _run_smith,
    "graphs": _run_graphs,
    "zeta": _run_zeta,
    "ca": _run_ca,
    "angles": _run_angles,
    "almostper": _run_almostper,
    "hyperplane": _run_hyperplane,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="primelab",
        description="Prime-arithmetic experiment runner.")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("goldbach")
    s.add_argument("--ring", choices=["gaussian", "eisenstein"],
                   default="gaussian")
    s.add_argument("--variant",
                   choices=["open", "open-even", "unrestricted"],
                   default="open-even")
    s.add_argument("--max", type=int, required=True)

    s = sub.add_parser("hl")
    s.add_argument("--western", action="store_true")
    s.add_argument("--empirical", type=int, default=None)
    s.add_argument("-a", type=int, default=1)
    s.add_argument("--cutoff", type=int, default=1000)

    s = sub.add_parser("matrix")
    s.add_argument("--z0", type=int, default=1)
    s.add_argument("--scan", type=int, default=None)
    s.add_argument("--spectrum", type=int, default=None)
    s.add_argument("--detgrowth", type=int, default=None)

    s = sub.add_parser("smith")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--s", type=int, default=1)

    s = sub.add_parser("graphs")
    s.add_argument("--kind", choices=["gaussian", "gcd"], default="gaussian")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--min", type=int, default=None)

    s = sub.add_parser("zeta")
    s.add_argument("--explicit", action="store_true")
    s.add_argument("--zeros", default=None)
    s.add_argument("--K", type=int, default=100)
    s.add_argument("--xmin", type=float, default=5.0)
    s.add_argument("--xmax", type=float, default=100.0)
    s.add_argument("--step", type=float, default=1.0)
    s.add_argument("--ring", choices=["gaussian", "eisenstein"],
                   default="gaussian")
    s.add_argument("--s", type=float, default=2.0)
    s.add_argument("--cutoff", type=int, default=10**4)

    s = sub.add_parser("ca")
    s.add_argument("--window", type=int, required=True)
    s.add_argument("--steps", type=int, default=0)
    s.add_argument("--rule", default="B3/S23")
    s.add_argument("--moat", type=int, default=None,
                   help="dilation steps for moat component extraction")

    s = sub.add_parser("angles")
    s.add_argument("--count", type=int, required=True)

    s = sub.add_parser("almostper")
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--alpha", type=float, default=(math.sqrt(5) - 1) / 2)
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--theta", type=float, default=0.0)

    s = sub.add_parser("hyperplane")
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "graphs" and args.min is None:
        args.min = args.n
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    params = {k: v for k, v in vars(args).items()
              if k != "out" and v is not None}
    t0 = time.monotonic()
    try:
        files, extra = _RUNNERS[args.subcommand](args, outdir)
    except (UsageError, ValueError, NotImplementedError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    wall = time.monotonic() - t0
    manifest = {
        "schema": 1,
        "subcommand": args.subcommand,
        "params": params,
        "versions": {
            "primelab": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": wall,
        "outputs": sorted(Path(f).name for f in files),
    }
    manifest.update(extra)
    _write(outdir / "manifest.json", _json_dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
