#!/usr/bin/env python3
"""Print every workload's end-to-end metrics, one run each.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` and
prints its metric lines (name, value, unit, and the run's error rate).
Exits non-zero when a run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", default="0")
    p.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = p.parse_args(argv)
    ok = True
    for workload in bench["workloads"]:
        cmd = [sys.executable, *bench["command"][1:], "--workload", workload["name"],
               "--seed", args.seed, "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print("\n".join(line for line in lines[:-1] if not line.startswith("sidecar:")),
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
