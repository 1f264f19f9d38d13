"""The benchmark's workloads: inputs built from a seed, one timed pass, and
the output checks.

Each workload object is built from ``(seed, size, workdir)``.  ``run_pass``
executes one pass of the workload and returns a :class:`PassResult`; the
caller times it.  ``failures`` counts the operations of a pass whose output
is wrong: a raised error, a non-zero exit code, an invariant violation, or
a mismatch against the reference.  The reference is the record pinned in
``pinned.json`` for these inputs (written by ``pin.py`` at the commit that
introduced the benchmark) or, for seeds without a pin, the first pass of
the run, so that later passes check determinism.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from hebsim import cli, mdp
from hebsim.chain import EpochParams
from hebsim.engine import GameAccumulator, MinerConfig, iter_game_results, normalized_balances
from hebsim.presets import PRESETS
from hebsim.protocols import get_protocol, make_strategy

from tracing import patched

PINNED_PATH = Path(__file__).with_name("pinned.json")
POOL_JOBS = min(2, os.cpu_count() or 1)


@dataclass
class PassResult:
    ops: int  # epochs, CLI calls or best-response probes
    work: int  # blocks created, or MDP states solved (mdp-search)
    record: object  # JSON-able output summary compared across passes
    failed: int = 0  # operations that raised or broke an invariant
    epochs: list[dict] = field(default_factory=list)
    pickle_bytes: list[int] = field(default_factory=list)


def epoch_counters(res) -> dict:
    """Exact game counters of one EpochResult."""
    published = len(res.store) - 1  # genesis excluded
    return {
        "steps": res.steps,
        "blocks_created": res.blocks_created,
        "wasted_steps": res.steps - res.blocks_created,
        "orphaned_blocks": published - res.main.length,
        "unpublished_blocks": res.blocks_created - published,
    }


def epoch_ok(res, params: EpochParams) -> bool:
    blocks = sum(n for n, _ in res.stats.values())
    return res.prefix_ok and blocks == params.epoch_len


def load_pins() -> dict:
    return json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}


class Workload:
    name = ""
    jobs = 1
    seeded = True  # outputs depend on the workload seed: one pin per seed

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        # what failures() compares against: the pin, else the first pass
        self.reference = None

    def pinned(self):
        """The pinned reference record for this run's inputs, if any."""
        if self.size != "full":
            return None
        pin = load_pins().get(self.name)
        return pin.get(str(self.seed)) if pin is not None and self.seeded else pin

    def run_pass(self, pickle_size: Optional[Callable] = None, jobs: Optional[int] = None) -> PassResult:
        """One pass.  ``pickle_size``, when given, is applied to every
        EpochResult and its values recorded; ``jobs`` overrides the
        workload's worker count."""
        raise NotImplementedError

    def output_bytes(self) -> int:
        """Bytes of files the last pass wrote."""
        return 0

    def failures(self, result: PassResult) -> int:
        if self.reference is None:
            self.reference = result.record
        if result.record != self.reference:
            return result.ops
        return result.failed


# -- presets ------------------------------------------------------------------


class _Collector:
    """Records of the epochs the CLI runs and of the MDP probes, taken by
    hooks that cost one call per epoch or probe (active in every run)."""

    def __init__(self, pickle_size: Optional[Callable] = None):
        self.pickle_size = pickle_size
        self.epochs: list[dict] = []
        self.pickle_bytes: list[int] = []
        self.probes: list = []

    def epoch_patch(self):
        orig = cli.iter_game_results

        def iter_results(*args, **kwargs):
            for res in orig(*args, **kwargs):
                self.epochs.append(epoch_counters(res))
                if self.pickle_size is not None:
                    self.pickle_bytes.append(self.pickle_size(res))
                yield res

        return cli, "iter_game_results", iter_results

    def probe_patch(self):
        orig = mdp.best_response

        def best_response(*args, **kwargs):
            br = orig(*args, **kwargs)
            self.probes.append(br)
            return br

        return mdp, "best_response", best_response


class Presets(Workload):
    """Every preset through ``hebsim.cli.main`` with its embedded seed and
    the default ``jobs=1``, in ``PRESETS`` order, exactly as acceptance
    criterion 9c and a paper reproducer run them.  The workload seed does
    not enter: a preset's seed is part of the experiment it reproduces."""

    name = "presets"
    seeded = False
    TINY = ("heb-practical", "table2", "fig2a", "fig4", "fig5")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.names = list(PRESETS) if size == "full" else list(self.TINY)

    def run_pass(self, pickle_size=None, jobs=None):
        coll = _Collector(pickle_size)
        # preset -> {output file: sha256}, or None when the CLI call failed
        outputs: dict[str, Optional[dict]] = {}
        with patched([coll.epoch_patch()]):
            for name in self.names:
                outdir = self.workdir / name
                out = outdir / f"{name}.csv"
                argv = [PRESETS[name]["command"], "--preset", name, "--out", str(out)]
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(argv)
                except Exception as e:  # a crashing preset is a failed operation
                    print(f"preset {name} raised {e!r}", file=sys.stderr)
                    code = None
                outputs[name] = None if code != 0 else {
                    path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(outdir.iterdir())
                    if not path.name.endswith(".timing.csv")  # wall times, not output
                }
        return PassResult(
            ops=len(self.names),
            work=sum(e["blocks_created"] for e in coll.epochs),
            record=outputs,
            epochs=coll.epochs,
            pickle_bytes=coll.pickle_bytes,
        )

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.workdir.rglob("*") if p.is_file())

    def failures(self, result):
        if self.reference is None:
            self.reference = result.record
        return sum(
            files is None or files != self.reference.get(name)
            for name, files in result.record.items()
        )


# -- simulation batches ------------------------------------------------------


class _SimWorkload(Workload):
    """A batch of epochs through ``iter_game_results``, digested as every
    ``EpochResult.to_json()`` plus the ``GameStats.to_csv()`` of the batch."""

    runs = 1

    def build(self, params: EpochParams, shares: list[Fraction], pow_only: int):
        protocol = get_protocol("heb")
        balances = normalized_balances(shares, params)
        width = len(str(len(shares) - 1))
        self.params = params
        self.protocol = protocol
        self.miners = [
            MinerConfig(
                f"m{i:0{width}d}",
                bal,
                make_strategy("pow_only" if i == pow_only else "prescribed", protocol),
            )
            for i, bal in enumerate(balances)
        ]

    def run_pass(self, pickle_size=None, jobs=None):
        params, miners, protocol = self.params, self.miners, self.protocol
        acc = GameAccumulator(
            [m.id for m in miners],
            {m.id: float(m.strategy.allocate(m.balance, params).external) for m in miners},
        )
        digest = hashlib.sha256()
        result = PassResult(ops=self.runs, work=0, record=None)
        results = iter_game_results(
            params, miners, protocol, self.runs, self.seed, self.jobs if jobs is None else jobs
        )
        for res in results:
            acc.add(res)
            digest.update(res.to_json().encode())
            counters = epoch_counters(res)
            result.epochs.append(counters)
            result.work += counters["blocks_created"]
            result.failed += not epoch_ok(res, params)
            if pickle_size is not None:
                result.pickle_bytes.append(pickle_size(res))
        digest.update(acc.stats().to_csv().encode())
        result.record = digest.hexdigest()
        return result


class SimWide(_SimWorkload):
    """200 equal-share miners, one of them withholding (``pow_only``), over a
    10^4-block epoch: per-block cost grows with the miner count."""

    name = "sim-wide"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        n, epoch_len = (200, 10_000) if size == "full" else (20, 200)
        params = EpochParams(
            epoch_len=epoch_len, factor=20, rho=Fraction(1, 2), user_balance=10**4 * epoch_len
        )
        self.build(params, [Fraction(1, n)] * n, random.Random(seed).randrange(n))


class SimTakeover(_SimWorkload):
    """A withholding miner above the 1/3 takeover bound against four
    prescribed miners: one 1000-block batch publication orphans most of the
    public chain.  The only workload that goes through the process pool."""

    name = "sim-takeover"
    jobs = POOL_JOBS

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        epoch_len, self.runs = (1000, 100) if size == "full" else (40, 4)
        params = EpochParams(
            epoch_len=epoch_len, factor=20, rho=Fraction(1, 2), user_balance=10**4 * epoch_len
        )
        shares = [Fraction(3, 20)] * 4
        pow_only = random.Random(seed).randrange(5)
        shares.insert(pow_only, Fraction(2, 5))
        self.build(params, shares, pow_only)


# -- exact MDP ----------------------------------------------------------------


class MdpSearch(Workload):
    """``min_factor(share=0.2, rho=0.5, ell=7, games=500, seed=0,
    rel_tol=0.25)``: acceptance criterion 8c's search one horizon step
    shorter (ell=7 instead of 8), so that a pass of eleven exact
    best-response probes takes seconds, not a quarter of a minute.

    The rollout seed stays at the criterion's 0 for every workload seed.
    The classification is borderline, so the rollout seed decides how much
    work the search does: at ell=7, seeds 0, 1, 4, 5 and 6 probe eleven
    factors, the other seeds of 0-9 stop after the first probe at
    ``phi_hi``.  A pass must do the same work on every workload seed.
    """

    name = "mdp-search"
    seeded = False
    ROLLOUT_SEED = 0

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.ell, self.games = (7, 500) if size == "full" else (4, 50)

    def run_pass(self, pickle_size=None, jobs=None):
        coll = _Collector()
        with patched([coll.probe_patch()]):
            res = mdp.min_factor(
                0.2, 0.5, self.ell, games=self.games, seed=self.ROLLOUT_SEED, rel_tol=0.25
            )
        probes = [
            {
                "phi": br.phi,
                "classified": br.classified,
                "value": br.value,
                "prescribed_value": br.prescribed_value,
                "j_star": br.j_star,
                "candidates": br.candidates,
                "welch_z": br.welch_z,
                "states": br.states,
            }
            for br in coll.probes
        ]
        record = json.loads(
            json.dumps(
                {"phi_min": res.phi_min, "monotone_ok": res.monotone_ok, "probes": probes}
            )
        )
        # the optimum can never be worth less than the prescribed policy
        failed = sum(
            br.value < br.prescribed_value - 1e-9 * max(1.0, abs(br.prescribed_value))
            for br in coll.probes
        )
        if [p[0] for p in res.probes] != [br.phi for br in coll.probes]:
            failed = len(coll.probes)
        return PassResult(
            ops=len(coll.probes),
            work=sum(br.states for br in coll.probes),
            record=record,
            failed=failed,
        )

    def failures(self, result):
        if self.reference is None:
            self.reference = result.record
        ref, rec = self.reference, result.record
        if (rec["phi_min"], rec["monotone_ok"], len(rec["probes"])) != (
            ref["phi_min"],
            ref["monotone_ok"],
            len(ref["probes"]),
        ):
            return result.ops
        wrong = sum(a != b for a, b in zip(rec["probes"], ref["probes"]))
        return min(result.ops, wrong + result.failed)


WORKLOADS = {w.name: w for w in (Presets, SimWide, SimTakeover, MdpSearch)}
