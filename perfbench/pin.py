#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/pin.py

Writes ``perfbench/pinned.json``: the sha256 of every preset output, the
``mdp-search`` probe records, and for each of the seeds 0-9 the ``sim-*``
batch digests (``sim-takeover`` at jobs=1, the reference the pooled passes must
match).  Run it only at a commit whose outputs are known to be right; a
later commit that changes an output fails the benchmark's checks instead.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import RESULTS, import_hebsim

PIN_SEEDS = range(10)


def main() -> int:
    import_hebsim()
    from workloads import PINNED_PATH, WORKLOADS

    workdir = RESULTS / "pin-work"
    pins: dict = {}
    for name, cls in WORKLOADS.items():
        for seed in PIN_SEEDS if cls.seeded else [0]:
            wl = cls(seed, "full", workdir)
            res = wl.run_pass(jobs=1)
            failed = wl.failures(res)  # without a pin: invariants and exit codes
            if failed:
                sys.exit(f"error: {name} seed {seed}: {failed} failed operations")
            if cls.seeded:
                pins.setdefault(name, {})[str(seed)] = res.record
            else:
                pins[name] = res.record
            print(f"pinned {name} seed {seed}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
