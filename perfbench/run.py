#!/usr/bin/env python3
"""hebsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports ``hebsim``
from ``src/`` of that checkout and from nowhere else.

With ``--trace 0`` it repeats untraced jobs=1 passes of the workload for
about ``--seconds`` (at least ``MIN_PASSES`` of them) and reports the
end-to-end metrics: the median wall time and throughput of a pass, the
median set-up time of fresh processes started between the passes, and the
peak RSS.  Times are scaled to a reference host speed (see
``hostspeed.py``); the raw wall times go to the sidecar.  With
``--trace 1`` it runs a warm-up pass, then rounds of untraced and traced
passes for about ``--seconds``, and reports the per-layer metrics (medians
over the traced passes, raw times).  Every pass's outputs are checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Provenance, all raw samples,
the tracing overhead and the recorded spans go to a sidecar under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 11
SETUP_PER_PASS = 2
MIN_PASSES = 3
MIN_ROUNDS = 3

clock = time.perf_counter


def import_hebsim():
    """Import hebsim from this checkout's ``src/``; exit if it is not there."""
    if not (SRC / "hebsim" / "__init__.py").is_file():
        sys.exit(f"error: no hebsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hebsim

    if Path(hebsim.__file__).resolve().parent != (SRC / "hebsim").resolve():
        sys.exit(f"error: imported hebsim from {hebsim.__file__}, not from {SRC}")
    return hebsim


# -- set-up time ---------------------------------------------------------------


def setup_probe(args) -> None:
    """Child process: time the imports plus the construction of the inputs,
    in wall and in reference seconds (the compile kernel is timed after
    the set-up, since importing it imports numpy, part of the set-up)."""
    t0 = clock()
    import_hebsim()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.size, RESULTS / "unused")
    wall = clock() - t0
    from hostspeed import COMPILE_REF_S, compile_s, to_reference

    print(json.dumps([wall, to_reference(wall, compile_s(), COMPILE_REF_S)]))


def setup_time(args) -> list[float]:
    """Set-up time of one fresh process: [wall s, reference s]."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("error: set-up probe failed")
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- metrics -------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def nearest_rank(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * pct // 100) - 1))
    return ordered[int(k)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(t, res, wl) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    epochs = res.epochs
    total = {k: sum(e[k] for e in epochs) for k in (
        "steps", "blocks_created", "wasted_steps", "orphaned_blocks", "unpublished_blocks"
    )}
    polls = t.calls["protocols.publish"]
    states = t.calls["mdp.states"]
    rollout_steps = t.calls["mdp.rollout.steps"]
    run_ms = [s.duration * 1e3 for s in t.named("engine.run_epoch")]
    probes = [s.duration for s in t.named("mdp.probe")]
    return {
        "chain.append.calls": t.calls["chain.append"],
        "chain.append.us": t.per_call_us("chain.append"),
        "chain.main_chain_length.calls": t.calls["chain.main_chain_length"],
        "chain.tip_ids.calls": t.calls["chain.tip_ids"],
        "chain.epoch_stats.calls": len(t.named("chain.epoch_stats")),
        "chain.orphaned_blocks": total["orphaned_blocks"],
        "engine.run_epoch.ms_p50": nearest_rank(run_ms, 50),
        "engine.run_epoch.ms_p90": nearest_rank(run_ms, 90),
        "engine.self_s": t.self_s("engine.run_epoch"),
        "engine.publish_polls_per_block": polls / total["blocks_created"] if polls else 0.0,
        "engine.publish_hit_ratio": t.publish_hits / polls if polls else 0.0,
        "engine.result_pickle_bytes": mean(res.pickle_bytes),
        "engine.steps": total["steps"],
        "engine.blocks_created": total["blocks_created"],
        "engine.wasted_steps": total["wasted_steps"],
        "engine.unpublished_blocks": total["unpublished_blocks"],
        "protocols.generate_block.us": t.per_call_us("protocols.generate_block"),
        "protocols.publish.us": t.per_call_us("protocols.publish"),
        "protocols.balance_fn.ms": mean(s.duration * 1e3 for s in t.named("protocols.balance_fn")),
        "metrics.expected_weight.us": mean(s.duration * 1e6 for s in t.named("metrics.expected_weight")),
        "metrics.binom_pmf.calls": t.calls["metrics.binom_pmf"],
        "mdp.solve.s": t.total_s("mdp.solve"),
        "mdp.solve.us_per_state": t.total_s("mdp.solve") / states * 1e6 if states else 0.0,
        "mdp.states": states,
        "mdp.successors.calls": t.calls["mdp.successors"],
        "mdp.terminal_value.calls": t.calls["mdp.terminal_value"],
        "mdp.policy_value.s": t.total_s("mdp.policy_value"),
        "mdp.rollout.us_per_step": (
            t.total_s("mdp.rollout") / rollout_steps * 1e6 if rollout_steps else 0.0
        ),
        "mdp.probe.s_p50": nearest_rank(probes, 50),
        "cli.self_s": t.self_s("cli.main"),
        "cli.output_bytes": wl.output_bytes(),
    }


# -- runs ----------------------------------------------------------------------


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def timed_pass(self, meter=None, **kwargs):
        """Run and check one pass; returns (wall seconds, PassResult or None).
        A ``HostMeter``, when given, times the pass in reference seconds."""
        t0 = clock()
        try:
            if meter is None:
                res = self.wl.run_pass(**kwargs)
            else:
                res = meter.run(lambda: self.wl.run_pass(**kwargs))
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return clock() - t0, None
        wall = clock() - t0
        self.attempted += res.ops
        self.failed += self.wl.failures(res)
        return wall, res


def more_passes(durations: list[float], start: float, seconds: float, least: int) -> bool:
    """Whether another pass (or round) fits: at least ``least`` of them, then
    only those expected to end within ``seconds`` of ``start``."""
    if len(durations) < least:
        return True
    return clock() - start + statistics.median(durations) <= seconds


def plain_run(args, wl, tally: Tally, side: dict) -> dict[str, float]:
    """Untraced jobs=1 passes timed by a ``HostMeter``, with set-up probes
    between them, so that both sample the host over the whole run."""
    from hostspeed import HostMeter

    setup_time(args)  # the first process may compile the byte code: not counted
    start = clock()
    walls, ref_walls, rates, kernels, setups = [], [], [], [], []
    while more_passes(walls, start, args.seconds, MIN_PASSES):
        meter = HostMeter()
        wall, res = tally.timed_pass(meter=meter, jobs=1)
        if res is None:
            break
        if not walls:
            # later passes add a little to the peak as the heap fragments,
            # and how many passes fit varies: the first pass is the same
            # work in every run
            rss = peak_rss_mb()
        walls.append(wall)
        ref_walls.append(meter.reference_s)
        rates.append(res.work / meter.reference_s)
        kernels += meter.kernel_s
        setups += [setup_time(args) for _ in range(SETUP_PER_PASS)]
    setups += [setup_time(args) for _ in range(SETUP_SAMPLES - len(setups))]
    if wl.jobs > 1:
        # the engine guarantees that the pool never changes the output: the
        # pooled pass must match the pin or, without one, the jobs=1 passes.
        # A meter cannot time the pool's workers, and the results the pool
        # holds back for ordering raise the peak RSS by a varying amount, so
        # this pass is checked only; the traced run times the pool.
        tally.timed_pass()
    side["pass_walls_s"] = walls
    side["pass_reference_s"] = ref_walls
    side["kernel_s_quartiles"] = statistics.quantiles(kernels, n=4) if len(kernels) > 1 else kernels
    side["setup_walls_s"] = [w for w, _ in setups]
    side["setup_reference_s"] = [r for _, r in setups]
    side["jobs"] = 1
    return {
        "peak_rss_mb": rss if walls else peak_rss_mb(),
        "setup_s": statistics.median(r for _, r in setups),
        "wall_s": statistics.median(ref_walls) if ref_walls else 0.0,
        "throughput_per_s": statistics.median(rates) if rates else 0.0,
    }


def traced_run(wl, seconds: float, tally: Tally, side: dict) -> dict[str, float]:
    """Rounds of an untraced jobs=1 pass, an untraced pooled pass (pooled
    workloads only) and a traced pass, after one warm-up pass.  Interleaving
    the rounds lets host drift cancel out of the tracing overhead and the
    pool efficiency."""
    from tracing import Tracer, layer_patches, patched

    tally.timed_pass(jobs=1)  # warm-up, checked but not timed
    start = clock()
    jobs1_walls, pooled_walls, walls, rounds = [], [], [], []
    samples: list[dict[str, float]] = []
    spans = []
    while more_passes(rounds, start, seconds, MIN_ROUNDS):
        round_start = clock()
        wall, res = tally.timed_pass(jobs=1)
        if res is None:
            break
        jobs1_walls.append(wall)
        if wl.jobs > 1:
            wall, res = tally.timed_pass()
            if res is None:
                break
            pooled_walls.append(wall)
        tracer = Tracer()
        # a span of its own keeps the measurement out of its caller's self time
        pickle_size = tracer.span("bench.pickle_size", lambda res: len(pickle.dumps(res)))
        with patched(layer_patches(tracer)):
            # tracing stays in one process, so traced passes run at jobs=1
            wall, res = tally.timed_pass(pickle_size=pickle_size, jobs=1)
        if res is None:
            break
        walls.append(wall - tracer.total_s("bench.pickle_size"))
        samples.append(layer_metrics(tracer, res, wl))
        spans.append(tracer.dump())
        rounds.append(clock() - round_start)
    if not samples:
        return {}
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    # jobs=1 wall / (jobs x pooled wall); 0 where the workload has no pool
    values["engine.pool_efficiency"] = (
        statistics.median(jobs1_walls) / (wl.jobs * statistics.median(pooled_walls))
        if pooled_walls else 0.0
    )
    side["untraced_walls_s"] = jobs1_walls
    side["pooled_walls_s"] = pooled_walls
    side["traced_walls_s"] = walls
    side["trace_overhead_s"] = statistics.median(walls) - statistics.median(jobs1_walls)
    side["layer_samples"] = samples
    side["spans"] = spans
    return values


# -- provenance ----------------------------------------------------------------


def provenance(hebsim) -> dict:
    import numpy

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=env,
        )
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "hebsim").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hebsim": hebsim.__version__,
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the smoke-test inputs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0
    hebsim = import_hebsim()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = RESULTS / f"work-{os.getpid()}"
    side: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
    }
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        wl.reference = wl.pinned()
        side["pinned_reference"] = wl.reference is not None
        tally = Tally(wl)
        if args.trace:
            values = traced_run(wl, args.seconds, tally, side)
            specs = bench["per_layer"]
        else:
            values = plain_run(args, wl, tally, side)
            specs = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(tally.attempted, 1)
    side.update(provenance(hebsim))
    side.update(attempted=attempted, failed=tally.failed, error_rate=tally.failed / attempted)
    RESULTS.mkdir(exist_ok=True)
    tag = "" if args.size == "full" else f"-{args.size}"
    sidecar = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    sidecar.write_text(json.dumps(side, indent=1, default=str) + "\n")

    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing and not tally.failed:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"], 0.0)  # 0 only when a pass failed
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:13s} {spec['name']:32s} {value:>16.6g} {spec['unit']}")
    if side.get("pass_walls_s"):
        raw = statistics.median(side["pass_walls_s"])
        print(f"{args.workload:13s} {'wall_s (unscaled)':32s} {raw:>16.6g} s")
    print(f"{args.workload:13s} {'error_rate':32s} {tally.failed / attempted:>16.6g} ratio")
    print(f"sidecar: {sidecar.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
