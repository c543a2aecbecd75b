"""Paired before/after runs of perfbench: a parent revision against the
staged tree.

    python3 tools/bench_pairs.py --parent REV --seed0 S --out BENCH_N.json \
        [--change-text TEXT] [--claim TEXT]

The change side is the staged tree (git write-tree), so stage the change
first.  Each side is a fresh `git archive` in a temporary directory, with
its src/ and perfbench/ compiled by `python -m compileall`, so no run
compiles primelab from source.  Pair i of PAIRS runs seed S + i on both
sides, parent first in even pairs and change first in odd ones, every
workload that BENCHMARK.json names in turn within the pair, each for that
file's run_seconds T:

    python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0

OPENBLAS_NUM_THREADS and PYTHONDONTWRITEBYTECODE are unset in the runs'
environment.  After the pairs, seed 0 runs once per workload on the change
side (SEED0_SECONDS).  The output holds each run's last stdout line (the
JSON object) under 'result'.  Per workload it holds each side's totals of
runs with no result, runs not correct, attempted and failed calls; and per
end-to-end metric the medians and quartiles of both sides (numpy's linear
percentiles, over the runs that gave a value), the number of the PAIRS
pairs in which the change was lower (a pair in which either run gave no
result or was not correct counts as not lower), median_change_frac
(change median / parent median - 1), median_drop and parent_iqr.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED0_SECONDS = 5
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = _BENCHMARK["run_seconds"]
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _unpack(treeish, dest):
    """The tree of `treeish` as files under dest, its bytecode compiled."""
    tar = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=dest, check=True)


def _env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def _run(tree, workload, seed, seconds):
    """(exit code, last stdout line as JSON or None) of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, env=_env(), capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def _stats(xs):
    if not xs:
        return None
    if len(xs) == 1:
        return {"median": round(xs[0], 4), "q1": round(xs[0], 4),
                "q3": round(xs[0], 4)}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _ok(result):
    return bool(result and result.get("correct"))


def _summary(runs):
    """Per workload: each side's run totals, and per metric both sides'
    quartiles and the paired comparison over all PAIRS pairs."""
    out = {}
    for w in WORKLOADS:
        sides = {"parent": [None] * PAIRS, "change": [None] * PAIRS}
        for r in runs:
            if r["workload"] == w:
                sides[r["side"]][r["pair"]] = r["result"]
        totals = {side: {
            "no_result": sum(not r for r in rs),
            "not_correct": sum(not _ok(r) for r in rs),
            "attempted": sum(r.get("attempted") or 0 for r in rs if r),
            "failed": sum(r.get("failed") or 0 for r in rs if r)}
            for side, rs in sides.items()}
        names = sorted({name for rs in sides.values() for r in rs if r
                        for name in r["metrics"]})
        out[w] = {"runs": totals}
        for name in names:
            vals = {side: [r["metrics"][name]["value"]
                           if r and name in r["metrics"] else None
                           for r in rs] for side, rs in sides.items()}
            par, chg = vals["parent"], vals["change"]
            lower = sum(_ok(a) and _ok(b) and p is not None and c is not None
                        and c < p for a, b, p, c in zip(
                            sides["parent"], sides["change"], par, chg))
            pv = [x for x in par if x is not None]
            cv = [x for x in chg if x is not None]
            ps, cs = _stats(pv), _stats(cv)
            entry = {"parent": ps, "change": cs,
                     "change_lower_in": f"{lower} of {PAIRS} pairs"}
            if pv and cv:
                pm, cm = statistics.median(pv), statistics.median(cv)
                entry.update(
                    median_change_frac=round(cm / pm - 1, 4) if pm else None,
                    median_drop=round(pm - cm, 4),
                    parent_iqr=round(ps["q3"] - ps["q1"], 4))
            out[w][name] = entry
    return out


def _machine():
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cores": os.cpu_count(), "memory_gb": round(mem / 2**30),
            "python": platform.python_version(), **versions}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--change-text", default="")
    ap.add_argument("--claim", default="")
    args = ap.parse_args()
    parent = _git("rev-parse", args.parent)
    change = _git("write-tree")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        _unpack(parent, trees["parent"])
        _unpack(change, trees["change"])
        for i in range(PAIRS):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for w in WORKLOADS:
                for side in order:
                    code, result = _run(trees[side], w, seed, SECONDS)
                    runs.append({"pair": i, "seed": seed, "workload": w,
                                 "side": side, "exit": code,
                                 "result": result})
                    print(f"pair {i} {w} {side}: exit {code}", file=sys.stderr)
        seed0 = {}
        for w in WORKLOADS:
            code, result = _run(trees["change"], w, 0, SEED0_SECONDS)
            seed0[w] = {"exit": code, "correct": _ok(result),
                        "failed": result and result.get("failed")}
    seeds = f"{args.seed0}..{args.seed0 + PAIRS - 1}"
    doc = {
        "change": args.change_text,
        "claim": args.claim,
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {SECONDS} --trace 0"),
        "method": (f"{PAIRS} pairs per workload; each pair runs parent "
                   f"and change on one seed ({seeds}) from fresh git "
                   f"archives of each side, parent first in even pairs and "
                   f"change first in odd ones; workloads interleaved within "
                   f"a pair ({', '.join(WORKLOADS)}). OPENBLAS_NUM_THREADS "
                   f"and PYTHONDONTWRITEBYTECODE unset; each archive's src/ "
                   f"and perfbench/ compiled by python -m compileall before "
                   f"the first run. Quartiles are numpy's linear "
                   f"percentiles over the runs that gave a value; a pair "
                   f"with a missing or incorrect run counts as not lower; "
                   f"median_change_frac is change median / parent median "
                   f"- 1. Written by tools/bench_pairs.py."),
        "machine": _machine(),
        "commits": {"parent": parent, "change_tree": change},
        "summary": _summary(runs),
        "seed0": seed0,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
