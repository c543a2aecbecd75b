"""Write perfbench/golden.json, the digests run.py checks outputs against.

    python3 perfbench/record_golden.py

Run from the root of a source checkout at the commit whose outputs define
correctness.  It runs every seed-0 call in this process (each call's own
check must pass first) and each README command as a `primelab.cli` child,
then stores the sha256 of each canonical result and of each data file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    golden = {}
    for name, build in workloads.BUILDERS.items():
        entries = {}
        for call in build(0):
            result = call.fn()
            if call.check is not None:
                call.check(result)
            if call.id in entries:
                raise SystemExit(f"duplicate call id {call.id}")
            entries[call.id] = workloads.digest(
                call.canon(result) if call.canon else result)
        golden[name] = entries

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    golden["cli"] = {}
    for name, args in workloads.CLI_COMMANDS:
        out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            subprocess.run([sys.executable, "-m", "primelab.cli",
                            "--out", str(out), *args],
                           cwd=ROOT, env=env, check=True)
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    golden["cli"][f"{name}/{path.name}"] = \
                        workloads.text_digest(path.read_text())
        finally:
            shutil.rmtree(out)

    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
