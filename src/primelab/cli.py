"""Reproducible command-line experiment runner.

Each subcommand's runner `_run_<name>(args)` computes its results and
returns `(files, extra)`: `files` maps each data file name to a dict or to an
iterable of lines, and `extra` holds the fields it adds to the manifest.  It
opens no file.  `_emit` is the one writer: it writes a dict as sorted,
indented, strict JSON and an iterable line by line as it yields, so a lazy CSV
is never held whole, and it writes every data file and then `manifest.json`,
which records the parameters, package versions, BLAS threads, wall time and
output names.  Data files are byte-deterministic.  Some test, README or
benchmark command sets every option (a lint test checks).  Usage errors,
including any argument the library rejects with ValueError or does not
implement (NotImplementedError) and an --out or --zeros path that cannot be
used, exit 2; capacity errors exit 3.  This module imports no numpy: each
runner loads it through its library module, so `matrix --spectrum` above the
solver cap is refused before numpy loads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import CapacityError, __version__, check_solver_cap

# OpenBLAS starts one worker per core when numpy loads, and an idle worker
# spins before it sleeps, so every command would keep a second core busy
# that no primelab code uses: run BLAS on one thread, set before a runner's
# import loads numpy.  A value the caller set wins, so threaded BLAS
# for a large `matrix --spectrum` is `OPENBLAS_NUM_THREADS=N primelab ...`.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# what OpenBLAS read, for the manifest: unknown (None) in a process that
# loaded numpy before this module
_BLAS_THREADS = (None if "numpy" in sys.modules
                 else os.environ["OPENBLAS_NUM_THREADS"])


def _emit(outdir, files):
    """Write each {name: dict or iterable of lines} into outdir; a dict as
    strict JSON, whose NaN or inf raises ValueError before its file opens."""
    for name, data in files.items():
        if isinstance(data, dict):
            data = [json.dumps(data, sort_keys=True, indent=2,
                               allow_nan=False)]
        with open(Path(outdir) / name, "w") as f:
            f.writelines(line + "\n" for line in data)  # each as it comes


def _mode(args, mode, unread, **defaults):
    """Refuse each option of `unread` given on the command line, which the
    mode would ignore, and fill in the defaults of the options it reads."""
    for flag in unread:
        if getattr(args, flag.lstrip("-")) is not None:
            raise ValueError(f"{mode} does not read {flag}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


# ---------------------------------------------------------------- subcommands

def _run_goldbach(args):
    from . import goldbach as gb
    variant = {
        "open": gb.OPEN,
        "open-even": gb.SumVariant(cone="open", parity_filter="even-only"),
        "unrestricted": gb.UNRESTRICTED,
    }[args.variant]
    if args.max < 2:
        raise ValueError(f"--max must be >= 2, got {args.max}")
    report = gb.comet(args.ring, ((2, args.max), (2, args.max)), variant)
    summary = {
        "ring": report.ring,
        "variant": args.variant,
        "region": list(map(list, report.region)),
        "min_count": report.min_count,
        "max_count": report.max_count,
        "zero_cells": report.zero_cells.tolist(),
    }
    if variant.cone == "unrestricted":
        summary["window"] = gb.UNRESTRICTED_WINDOW
    return ({"goldbach.csv": report.csv_lines(), "goldbach.json": summary},
            {"zero_cells": len(report.zero_cells)})


def _run_hl(args):
    from . import primestats as ps
    if args.empirical is not None:
        _mode(args, "hl --empirical", ("-a", "--cutoff"))
        checkpoints = [10 ** k for k in range(2, 30)
                       if 10 ** k <= args.empirical]
        series = ps.empirical_ratio(args.empirical,
                                    checkpoints + [args.empirical])
        return {"ratio.csv": series.csv_lines()}, {}
    if args.western:
        _mode(args, "hl --western", ("-a",), cutoff=1000)
        hl = {"method": "western", "cutoff": args.cutoff,
              "C": ps.hl_C_western(args.cutoff)}
    else:
        _mode(args, "hl", (), a=1, cutoff=1000)
        hl = {"method": "naive", "a": args.a, "cutoff": args.cutoff,
              "C": ps.hl_C_naive(args.a, args.cutoff)}
    return {"hl.json": hl}, {"C": hl["C"]}


def _run_matrix(args):
    if args.scan is None and args.spectrum is None and args.detgrowth is None:
        raise ValueError("one of --scan, --spectrum, --detgrowth required")
    # refuse before any mode runs, the solver cap before specmat loads numpy
    if args.spectrum is not None:
        check_solver_cap(args.spectrum)
    from . import specmat as sm
    if args.detgrowth is not None:
        sm.check_exact_pass(args.detgrowth)
    files, extra = {}, {}
    if args.scan is not None:
        res = sm.invertibility_scan(args.z0, args.scan)
        extra["threshold"] = res["threshold"]
        files["scan.json"] = {"z0": args.z0, "nmax": args.scan,
                              "singular_ns": res["singular_ns"],
                              "threshold": res["threshold"]}
    if args.spectrum is not None:
        m = sm.build_prime_matrix(args.z0, args.spectrum)
        s = sm.spectrum(m)
        extra["residual_bound"] = s.residual_bound
        files["spectrum.csv"] = ["re,im"] + [
            f"{float(ev.real)!r},{float(ev.imag)!r}"
            for ev in sorted(s.eigenvalues, key=lambda z: (z.real, z.imag))]
    if args.detgrowth is not None:
        lines = ["n,det_sign,log_abs_det"]
        full = sm.build_prime_matrix(args.z0, args.detgrowth)
        for n, d in enumerate(sm.leading_minors(full), 1):
            sign = 0 if d == 0 else (1 if d > 0 else -1)
            log_abs = float("-inf") if d == 0 else math.log(abs(d))
            lines.append(f"{n},{sign},{log_abs!r}")
        files["det_growth.csv"] = lines
    return files, extra


def _run_smith(args):
    from . import specmat as sm
    det, residual = sm._smith_det_and_residual(args.n, args.s)
    return ({"smith.json": {"n": args.n, "s": args.s, "det": str(det),
                            "residual": str(residual)}},
            {"residual": str(residual)})


def _run_graphs(args):
    from . import primegraphs as pg
    _mode(args, "graphs", (), min=args.n)
    stats_lines = ["n,V,E,components,chi"]
    builder = {"gaussian": pg.gaussian_graph, "gcd": pg.gcd_graph}[args.kind]
    g = None
    for n in range(args.min, args.n + 1):
        g = builder(n)
        stats_lines.append(
            f"{n},{g.V},{g.E},{pg.component_count(g)},{g.V - g.E}")
    if g is None:  # --min above --n: no stats rows, edges still for --n
        g = builder(args.n)
    uv = g.vertices[g.edges]
    edge_lines = itertools.chain(["u,v"], map(
        "{},{}".format, map(int, uv[:, 0]), map(int, uv[:, 1])))
    return {"stats.csv": stats_lines, "edges.csv": edge_lines}, {}


def _run_zeta(args):
    from . import zetafun as zf
    if args.explicit:
        _mode(args, "zeta --explicit", ("--ring", "--s", "--cutoff"),
              K=100, xmin=5.0, xmax=100.0, step=1.0)
        if not args.zeros:
            raise ValueError("--explicit requires --zeros PATH")
        if not args.step > 0:  # the x loop below would never end
            raise ValueError(f"--step must be > 0, got {args.step}")
        if args.xmax < args.xmin:
            raise ValueError(f"--xmax must be >= --xmin, got {args.xmax} "
                             f"< {args.xmin}")
        try:
            table = zf.ZeroTable.load(args.zeros)
        except OSError as e:  # a missing file or a directory
            raise ValueError(f"--zeros {args.zeros}: {e.strerror}") from e
        lines = ["x,psi,explicit_psi,K"]
        i = 0
        while (x := args.xmin + i * args.step) <= args.xmax + 1e-12:
            lines.append(f"{x!r},{zf.chebyshev_psi(x)!r},"
                         f"{zf.explicit_psi(x, table, args.K)!r},{args.K}")
            i += 1
        return {"psi.csv": lines}, {}
    _mode(args, "zeta without --explicit",
          ("--zeros", "--K", "--xmin", "--xmax", "--step"),
          ring="gaussian", s=2.0, cutoff=10**4)
    val = zf.lattice_zeta(args.ring, args.s, args.cutoff)
    closed = zf.zeta_G(args.s) if args.ring == "gaussian" \
        else zf.zeta_E(args.s)
    error = abs(val - closed)
    return ({"zeta.json": {"ring": args.ring, "s": args.s,
                           "cutoff": args.cutoff,
                           "lattice": [val.real, val.imag],
                           "closed_form": [closed.real, closed.imag],
                           "error": error}},
            {"error": error})


def _run_ca(args):
    from . import caworld as ca
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    if args.moat is not None and args.moat < 0:
        raise ValueError(f"--moat must be >= 0, got {args.moat}")
    # step's and dilate's cap, checked before the grid (which refuses W < 0)
    for pad, op in ((args.steps, "step"), (args.moat, "dilate")):
        if args.window >= 0 and pad:
            ca._check_pad(2 * args.window + 1, pad, op)
    g = ca.grid_from_gaussian_primes(args.window)
    for _ in range(args.steps):
        g = ca.step(g)  # Life, B3/S23
    files = {"grid.rle": ca.rle_lines(g), "grid.pbm": ca.pbm_lines(g)}
    extra = {"live_cells": int(g.cells.sum())}
    if args.moat is not None:
        comp = ca.moat_component(args.moat, args.window)
        files["moat.csv"] = itertools.chain(["re,im"], map(
            "{},{}".format, map(int, comp[:, 0]), map(int, comp[:, 1])))
        extra["moat_size"] = len(comp)
    return files, extra


def _run_angles(args):
    from . import primestats as ps
    from .planarith import theta_sequence
    p, theta = theta_sequence(args.count)
    st = ps.theta_statistics(theta)
    lines = map("{},{!r}".format, map(int, p), map(float, theta))
    return ({"angles.csv": itertools.chain(["p,theta"], lines),
             "angles.json": {"count": args.count,
                             "ks_uniform": st.ks_uniform,
                             "autocorr": st.autocorr,
                             "split_corr": st.split_corr}},
            {"ks_uniform": st.ks_uniform})


def _run_almostper(args):
    from . import specmat as sm
    if args.nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {args.nmax}")
    rows = sm.almost_period_log_dets(args.nmax, args.alpha, args.beta,
                                     args.theta)
    lines = ["n,det_sign,log_abs_det"] + [
        f"{n},{sign},{log_abs!r}" for n, (sign, log_abs) in enumerate(rows, 1)]
    return {"almostper.csv": lines}, {}


def _run_hyperplane(args):
    from . import primestats as ps
    count, normalized = ps.hyperplane_normalized(args.a, args.n)
    return ({"hyperplane.json": {"a": args.a, "n": args.n, "count": count,
                                 "normalized": normalized}},
            {"count": count})


def build_parser():
    p = argparse.ArgumentParser(
        prog="primelab",
        description="Prime-arithmetic experiment runner.")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name, run):
        s = sub.add_parser(name)
        s.set_defaults(run=run)
        return s

    s = command("goldbach", _run_goldbach)
    s.add_argument("--ring", choices=["gaussian", "eisenstein"],
                   default="gaussian")
    s.add_argument("--variant",
                   choices=["open", "open-even", "unrestricted"],
                   default="open-even")
    s.add_argument("--max", type=int, required=True)

    s = command("hl", _run_hl)
    method = s.add_mutually_exclusive_group()
    method.add_argument("--western", action="store_true")
    method.add_argument("--empirical", type=int, default=None)
    # mode options stay None until the runner fills in its mode's defaults
    s.add_argument("-a", type=int)
    s.add_argument("--cutoff", type=int)

    s = command("matrix", _run_matrix)
    s.add_argument("--z0", type=int, default=1)
    s.add_argument("--scan", type=int, default=None)
    s.add_argument("--spectrum", type=int, default=None)
    s.add_argument("--detgrowth", type=int, default=None)

    s = command("smith", _run_smith)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--s", type=int, default=1)

    s = command("graphs", _run_graphs)
    s.add_argument("--kind", choices=["gaussian", "gcd"], default="gaussian")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--min", type=int, default=None)

    s = command("zeta", _run_zeta)
    s.add_argument("--explicit", action="store_true")
    s.add_argument("--zeros")  # mode options, as for hl
    s.add_argument("--K", type=int)
    s.add_argument("--xmin", type=float)
    s.add_argument("--xmax", type=float)
    s.add_argument("--step", type=float)
    s.add_argument("--ring", choices=["gaussian", "eisenstein"])
    s.add_argument("--s", type=float)
    s.add_argument("--cutoff", type=int)

    s = command("ca", _run_ca)
    s.add_argument("--window", type=int, required=True)
    s.add_argument("--steps", type=int, default=0)
    s.add_argument("--moat", type=int, default=None,
                   help="dilation steps for moat component extraction")

    s = command("angles", _run_angles)
    s.add_argument("--count", type=int, required=True)

    s = command("almostper", _run_almostper)
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--alpha", type=float, default=(math.sqrt(5) - 1) / 2)
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--theta", type=float, default=0.0)

    s = command("hyperplane", _run_hyperplane)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.out)
    try:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as e:  # a file, or a path under one
            raise ValueError(f"--out {args.out}: {e.strerror}") from e
        t0 = time.monotonic()
        files, extra = args.run(args)
        _emit(outdir, files)  # lazy outputs are computed as they are written
        wall = time.monotonic() - t0
        # read after the run, which filled in its mode's option defaults
        params = {k: v for k, v in vars(args).items()
                  if k not in ("out", "run") and v is not None}
        manifest = {
            "schema": 1,
            "subcommand": args.subcommand,
            "params": params,
            "versions": {
                "primelab": __version__,
                "python": sys.version.split()[0],
                **{name: sys.modules[name].__version__  # if the run loaded it
                   for name in ("numpy", "scipy", "mpmath")
                   if name in sys.modules},
            },
            "openblas_num_threads": _BLAS_THREADS,
            "wall_time_s": wall,
            "outputs": sorted(files),
        }
        manifest.update(extra)
        _emit(outdir, {"manifest.json": manifest})
    except (ValueError, NotImplementedError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
