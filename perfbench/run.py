"""Benchmark for primelab.

    python3 perfbench/run.py --workload sweep|structures|cli|bulk \
        --seed N --seconds S --trace 0|1

BENCHMARK.json lists sweep, structures and cli.  bulk (a few calls with one
large limit each, the sieve used the opposite way from sweep) is not listed,
to keep the listed workloads' runs within the time all runs may take; it runs
the same way by hand.

Run from the root of a source checkout; it imports primelab from `src/`.
Each workload is a closed loop with one client: passes run one after the
other, each in a process of its own, and at most the box's two cores are
busy.  A pass starts with cold sieve caches, as every CLI user does: on cli
each command is a fresh interpreter, and on the other workloads each pass is
forked from a worker that has imported the workload's modules and made no
call.  Rounds of passes repeat until the next one would end after --seconds
(at least MIN_ROUNDS of them).  wall_s and cpu_s sum each call's least time
over the passes (see _pass_time); every other figure is the median over
passes or children.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER = str(HERE / "worker.py")
# A run is made of rounds.  On cli a round is one setup probe and one pass of
# the ten README children, each its own interpreter; on the other workloads
# it is one fresh worker interpreter (one setup_s sample) that starts forked
# passes until ROUND_S seconds have passed.  An untraced run has at least
# MIN_ROUNDS rounds.
MIN_ROUNDS = 3
ROUND_S = 5.0
# The refusal child takes about 2 s and 0.9 GB.  Its peak RSS is the same in
# every run, so an untraced run starts it once, after its rounds; a traced
# run starts it REFUSALS_TRACED times for the median of cli.refusal.s.
REFUSALS_TRACED = 3
RUN_LIMIT_S = 165  # a run must end within 180 s, children included
CALIB_LOOPS = 10_000_000


class Child:
    """Outcome of one child process: exit code, output, wall time from spawn
    to exit, time to its "ready" line, and its own rusage."""

    def __init__(self, code, out, err, wall_s, ready_s, rusage):
        self.code = code
        self.out = out
        self.err = err
        self.wall_s = wall_s
        self.ready_s = ready_s
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024  # ru_maxrss is in KiB


class Bench:
    def __init__(self, workdir, deadline):
        self.workdir = Path(workdir)
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        with open(HERE / "golden.json") as f:
            self.golden = json.load(f)

    def spawn(self, cmd, ready=False):
        """Run `cmd` from the checkout root and reap it with wait4, so its
        peak RSS and CPU time are its own."""
        with tempfile.TemporaryFile(dir=self.workdir) as errf:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=errf,
                                    start_new_session=True)
            timer = threading.Timer(max(self.deadline - t0, 1.0),
                                    _kill_group, (proc.pid,))
            timer.start()
            status = rusage = None
            ready_s = None
            try:
                if ready and proc.stdout.readline().strip() == b"ready":
                    ready_s = perf_counter() - t0
                out = proc.stdout.read().decode(errors="replace")
                _, status, rusage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
            finally:
                timer.cancel()
                proc.stdout.close()
                if status is None:
                    _kill_group(proc.pid)
                    _, status, rusage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            errf.seek(0)
            err = errf.read().decode(errors="replace")
        return Child(proc.returncode, out, err, wall, ready_s, rusage)

    def python_round(self, workload, seed, trace):
        """One worker interpreter: its setup time, then its forked passes."""
        c = self.spawn([sys.executable, WORKER, "passes", workload, str(seed),
                        str(int(trace)), str(ROUND_S)], ready=True)
        passes = []
        for line in c.out.splitlines():
            try:
                passes.append(json.loads(line))
            except ValueError:
                pass
        if c.code != 0 or c.ready_s is None or not passes:
            tail = c.err.strip().splitlines()[-1:] or [f"exit {c.code}"]
            return [{"traced": False, "attempted": 1,
                     "failures": [f"{workload} round: {tail[0]}"]}]
        passes[0]["setup_s"] = [c.ready_s]
        return passes

    def cli_pass(self, trace):
        """The README's ten commands, each in its own interpreter."""
        res = {"traced": trace, "attempted": 0, "failures": [],
               "wall_s": [], "cpu_s": [],
               "peak_rss_mb": 0.0, "setup_s": [], "children": {},
               "trace": Counter()}
        if not trace:
            probe = self.spawn([sys.executable, WORKER, "setup", "cli"],
                               ready=True)
            res["attempted"] += 1
            if probe.code != 0 or probe.ready_s is None:
                res["failures"].append(f"cli setup: exit {probe.code}")
            else:
                res["setup_s"].append(probe.ready_s)
        golden = self.golden["cli"]
        for name, args in workloads.CLI_COMMANDS:
            out = Path(tempfile.mkdtemp(dir=self.workdir))
            argv = ["--out", str(out), *args]
            tfile = out.with_suffix(".trace.json")
            cmd = ([sys.executable, WORKER, "cli", str(tfile), *argv] if trace
                   else [sys.executable, "-m", "primelab.cli", *argv])
            c = self.spawn(cmd)
            res["attempted"] += 1
            res["wall_s"].append(c.wall_s)
            res["cpu_s"].append(c.cpu_s)
            res["peak_rss_mb"] = max(res["peak_rss_mb"], c.rss_mb)
            res["children"][name] = c.wall_s
            err = _check_cli_outputs(name, out, c, golden)
            if err:
                res["failures"].append(f"cli {name}: {err}")
            if trace and tfile.exists():
                res["trace"].update(json.loads(tfile.read_text()))
                tfile.unlink()
            shutil.rmtree(out)
        return res

    def refusal(self):
        out = tempfile.mkdtemp(dir=self.workdir)
        c = self.spawn([sys.executable, "-m", "primelab.cli", "--out", out,
                        *workloads.REFUSAL_COMMAND])
        shutil.rmtree(out)
        ok = c.code == workloads.REFUSAL_EXIT and "capacity error" in c.err
        return c, None if ok else f"refusal: exit {c.code}, expected 3"


def _kill_group(pid):
    """Kill a child and every process it forked (they share its session)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _check_cli_outputs(name, outdir, child, golden):
    if child.code != 0:
        tail = child.err.strip().splitlines()[-1:] or [""]
        return f"exit {child.code} {tail[0]}"
    files = sorted(p.name for p in outdir.iterdir() if p.is_file())
    if "manifest.json" not in files:
        return "no manifest.json"
    files.remove("manifest.json")
    want = sorted(k.split("/", 1)[1] for k in golden
                  if k.startswith(name + "/"))
    if files != want:
        return f"data files {files} != {want}"
    for fname in files:
        got = workloads.text_digest((outdir / fname).read_text())
        if got != golden[f"{name}/{fname}"]:
            return f"{fname} digest {got[:12]} differs from golden"
    return None


def calib_s():
    """A fixed pure-Python loop, reported beside every run so a slow host can
    be told apart from a slow program.  It never scales a metric."""
    t0 = perf_counter()
    x = 0
    for i in range(CALIB_LOOPS):
        x += i
    return perf_counter() - t0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _pass_time(passes):
    """One pass's time from the per-call times of several passes: the sum
    over calls of each call's least time across passes.  Load from other
    tenants of a shared host only ever adds time, in bursts that hit a few
    calls of a pass; a slower program is slower in every pass, so the least
    time keeps the program's cost and drops the bursts.  It cannot drop a
    slowdown of the host that lasts the whole run."""
    return sum(min(times) for times in zip(*passes)) if passes else 0.0


def measure(bench, workload, seed, seconds, trace):
    """Run rounds until the time is used; return (samples, attempted,
    failures) where samples maps a figure to its per-pass values."""
    samples = defaultdict(list)
    attempted = 0
    failures = []
    start = perf_counter()
    rounds = 0
    min_rounds = 1 if trace else MIN_ROUNDS
    while True:
        t0 = perf_counter()
        if workload == "cli":
            results = [bench.cli_pass(traced)
                       for traced in ((False, True) if trace else (False,))]
        else:
            results = bench.python_round(workload, seed, trace)
        for res in results:
            traced = res["traced"]
            attempted += res["attempted"]
            failures += res["failures"]
            tag = "traced." if traced else ""
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                if key in res:
                    samples[tag + key].append(res[key])
            samples["setup_s"] += res.get("setup_s", [])
            if traced:
                samples["trace"].append(res.get("trace") or {})
            for name, wall in res.get("children", {}).items():
                samples[f"cli.{name}.s"].append(wall)
        rounds += 1
        now = perf_counter()
        took = now - t0
        if not samples["wall_s"]:
            break  # the pass itself failed: nothing to measure
        if rounds >= min_rounds and now - start + took > seconds:
            break
        if now + took > bench.deadline:
            break
    for _ in range(REFUSALS_TRACED if trace else 1):
        child, err = bench.refusal()
        attempted += 1
        if err:
            failures.append(err)
        samples["cli.refusal.s"].append(child.wall_s)
        samples["refusal_rss_mb"].append(child.rss_mb)
    return samples, attempted, failures


def end_to_end(samples, spec):
    out = {}
    for m in spec:
        name = m["name"]
        if name in ("wall_s", "cpu_s"):
            out[name] = _pass_time(samples[name])
        else:
            out[name] = _median(samples[name])
    return out


def per_layer(samples, spec, calib):
    untraced = _pass_time(samples["wall_s"])
    traced = _pass_time(samples["traced.wall_s"])
    passes = []
    for counters in samples["trace"]:
        calls = counters.get("ratkernel.sieve.calls", 0)
        hits = calls - counters.get("ratkernel.sieve.builds", 0)
        passes.append({**counters, "ratkernel.sieve.hit_ratio":
                       hits / calls if calls else 0.0})
    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_frac":
            out[name] = traced / untraced - 1 if untraced else 0.0
        elif name == "bench.calib_s":
            out[name] = calib
        elif name.startswith("cli."):
            out[name] = _median(samples[name])
        else:
            out[name] = _median([p.get(name, 0) for p in passes])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.BUILDERS, "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = perf_counter()

    needed = [ROOT / "src" / "primelab" / "cli.py", HERE / "golden.json",
              ROOT / "BENCHMARK.json"]
    if args.workload == "cli":
        needed.append(ROOT / "tests" / "data" / "zeta_zeros_100.txt")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a primelab checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(workdir, t_start + RUN_LIMIT_S)
        calib = calib_s()
        samples, attempted, failures = measure(
            bench, args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(samples, spec, calib)
    else:
        values = end_to_end(samples, spec)
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec}
    print(f"workload {args.workload} seed {args.seed} "
          f"passes {len(samples['wall_s'])} trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<40} {len(failures) / max(attempted, 1):>14.6g}"
          f" ratio ({len(failures)} of {attempted} calls)")
    if not args.trace:
        print(f"  {'bench.calib_s':<40} {calib:>14.6g} s")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
