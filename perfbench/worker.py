"""Child process of the primelab benchmark; run.py starts a fresh one per round.

    worker.py passes <workload> <seed> <trace 0|1> <seconds>
                                        import, print ready, run passes
    worker.py setup  <workload>         import, print ready, exit
    worker.py cli    <trace.json> <primelab args>   traced `primelab.cli` run

`passes` and `setup` print "ready" once the workload's modules are imported;
run.py times setup_s from spawning the interpreter to that line.  `passes`
then forks one child per pass until <seconds> have passed (with
trace 1 each round of the loop is an untraced and a traced pass).  The parent
has made no call, so every pass starts from the state a fresh interpreter
has after its imports, with cold sieve caches, without paying for the
imports again.  Each pass prints one JSON line.

Each call of a pass is timed on its own (wall and getrusage CPU time);
outputs are checked after the last call, and a traced pass snapshots its
counters before the checks run.
"""

import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _import_workload(workload):
    for name in workloads.MODULES[workload]:
        importlib.import_module(name)
    print("ready", flush=True)


def _run_pass(workload, seed, trace):
    import resource
    from time import perf_counter

    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()
    calls = workloads.BUILDERS[workload](seed)
    results = []
    walls, cpus = [], []
    for call in calls:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        try:
            results.append((call, call.fn(), None))
        except Exception as e:  # a failed call is counted, not fatal
            results.append((call, None, f"{type(e).__name__}: {e}"))
        walls.append(perf_counter() - t0)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpus.append((r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime))
    counters = tracer.snapshot() if tracer else {}

    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as f:
        golden = json.load(f)[workload]
    failures = []
    for call, result, err in results:
        if err is None:
            try:
                workloads.verify(call, result, golden, require_golden=seed == 0)
            except Exception as e:
                err = f"{type(e).__name__}: {e}"
        if err is not None:
            failures.append(f"{call.id}: {err}")
    return {"traced": trace, "wall_s": walls, "cpu_s": cpus,
            "attempted": len(calls), "failures": failures, "trace": counters}


def _forked_pass(workload, seed, trace):
    """Run one pass in a forked child and reap it with wait4, so the pass's
    peak RSS is the child's own."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            with os.fdopen(wfd, "w") as out:
                json.dump(_run_pass(workload, seed, trace), out)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as pipe:
        text = pipe.read()
    _, status, rusage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    try:
        res = json.loads(text) if code == 0 else None
    except ValueError:
        res = None
    if res is None:
        return {"traced": trace, "attempted": 1,
                "failures": [f"{workload} pass: exit {code}"]}
    res["peak_rss_mb"] = rusage.ru_maxrss / 1024  # ru_maxrss is in KiB
    return res


def _run_passes(workload, seed, trace, seconds):
    from time import perf_counter

    start = perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            print(json.dumps(_forked_pass(workload, seed, traced)), flush=True)
        if perf_counter() - start >= seconds:
            break


def _run_cli(trace_path, argv):
    import tracing
    tracer = tracing.install()
    from primelab import cli
    try:
        code = cli.main(argv)
    finally:
        with open(trace_path, "w") as f:
            json.dump(tracer.snapshot(), f)
    return code


def main(argv):
    mode = argv[0]
    if mode == "cli":
        return _run_cli(argv[1], argv[2:])
    workload = argv[1]
    _import_workload(workload)
    if mode == "passes":
        _run_passes(workload, int(argv[2]), argv[3] == "1", float(argv[4]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
