"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed 1.  Both must report
``correct``, which a traced run only does when its traced and untraced
rounds gave identical answers and every oracle passed, and both must report
identical counts: ``*.calls`` and ``gc.collections``.  Exits 0 when
every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("tower", "query", "decide")
SEED = 1


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".calls_in_ilp", ".collections"))}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        problems = []
        if not (first["correct"] and second["correct"]):
            problems.append("traced and untraced answers differ or an oracle failed")
        a, b = counts(first), counts(second)
        problems += [f"{name}: {a[name]} then {b[name]}" for name in a if a[name] != b[name]]
        print(f"{workload} seed {SEED}: "
              + ("ok, " + f"{len(a)} counts repeat" if not problems
                 else "FAILED: " + "; ".join(problems)))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
