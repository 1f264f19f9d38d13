"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np

from oracles import game_value, race_probability

from hebsim import metrics
from hebsim.chain import Block, BlockStore, EpochParams, FACTORED, REGULAR, genesis_block
from hebsim.cli import main
from hebsim.engine import (
    Game,
    MinerConfig,
    iter_game_results,
    normalized_balances,
    run_epoch,
)
from hebsim.mdp import (
    MdpInstance,
    min_factor,
    policy_value,
    prescribed_action,
    solve,
)
from hebsim.presets import PRESETS
from hebsim.protocols import get_protocol, make_strategy


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1:
    def test_table2_reproduction(self):
        expected = {
            (0.20, 0.80): 0.0029,
            (0.10, 0.15, 0.20, 0.20, 0.35): 0.0025,
            (0.20, 0.40, 0.40): 0.0015,
            (0.20, 0.20, 0.30, 0.30): 0.0007,
            (0.20, 0.20, 0.20, 0.20, 0.20): 0.0000,
        }
        t0 = time.perf_counter()
        got = {d: metrics.epsilon(d, 1000, 20.0) for d in expected}
        dt = time.perf_counter() - t0
        ok = all(abs(got[d] - expected[d]) <= 2e-4 for d in expected) and dt < 10.0
        detail = (
            ", ".join(f"{got[d]:.4f}/{expected[d]:.4f}" for d in expected)
            + f"; runtime {dt:.2f}s"
        )
        report("criterion 1: table2 epsilon", ok, detail)


class TestCriterion2:
    def test_binomial_tail_footnote(self):
        t0 = time.perf_counter()
        lo, hi = metrics.binomial_tail(1000, 0.3, 0.10)
        dt = time.perf_counter() - t0
        ok = abs(lo - 0.02) <= 0.005 and abs(hi - 0.018) <= 0.005 and dt < 1.0
        report(
            "criterion 2: binomial tails",
            ok,
            f"lower={lo:.4f} (target 0.02), upper={hi:.4f} (target 0.018), "
            f"runtime {dt:.3f}s",
        )


class TestCriterion3:
    def test_nakamoto_utility(self):
        params = EpochParams(epoch_len=100, user_balance=Fraction(10**6))
        proto = get_protocol("nakamoto")
        balances = normalized_balances([0.3, 0.7], params)
        miners = [
            MinerConfig("m0", balances[0], make_strategy("prescribed", proto)),
            MinerConfig("m1", balances[1], make_strategy("prescribed", proto)),
        ]
        runs = 10_000
        mint_target = Fraction(100)
        sums = {"m0": 0.0, "m1": 0.0}
        minted_exact = True
        for res in iter_game_results(params, miners, proto, runs, seed=17):
            minted_exact &= sum(res.minted.values(), Fraction(0)) == mint_target
            sums["m0"] += res.stats["m0"][0]
            sums["m1"] += res.stats["m1"][0]
        mean0, mean1 = sums["m0"] / runs, sums["m1"] / runs
        se = math.sqrt(100 * 0.3 * 0.7 / runs)
        ok = (
            abs(mean0 - 30.0) <= 3 * se
            and abs(mean1 - 70.0) <= 3 * se
            and minted_exact
        )
        report(
            "criterion 3: nakamoto utility",
            ok,
            f"mean blocks {mean0:.3f}/{mean1:.3f} vs 30/70 (3se={3*se:.3f}); "
            f"minted exact every run: {minted_exact}",
        )


class TestCriterion4:
    def test_heb_nakamoto_reduction(self):
        epoch_len = 50
        user_balance = Fraction(100_000)  # 2000x the total miner balance
        nak_params = EpochParams(epoch_len=epoch_len, factor=1, rho=0,
                                 user_balance=user_balance)
        heb_params = EpochParams(epoch_len=epoch_len, factor=1,
                                 rho=Fraction(3, 10), user_balance=user_balance)
        nak = get_protocol("nakamoto")
        heb = get_protocol("heb")
        shares = [Fraction(2, 5), Fraction(3, 5)]
        nak_miners = [
            MinerConfig(f"m{i}", s * epoch_len, make_strategy("prescribed", nak))
            for i, s in enumerate(shares)
        ]
        heb_miners = [
            MinerConfig(f"m{i}", s * epoch_len, make_strategy("prescribed", heb))
            for i, s in enumerate(shares)
        ]
        minted_equal = True
        bound_ok = True
        nak_game = Game(nak_params, nak_miners, nak)
        heb_game = Game(heb_params, heb_miners, heb)
        for seed in range(20):
            a = run_epoch(nak_game, seed=seed)
            b = run_epoch(heb_game, seed=seed)
            minted_equal &= a.minted == b.minted
            internal = b.internal_total
            redis_total = sum(b.redistributed.values(), Fraction(0))
            bound_ok &= redis_total <= internal**2 / (internal + user_balance)
        ok = minted_equal and bound_ok
        report(
            "criterion 4: heb-nakamoto reduction",
            ok,
            f"minted shares identical on 20 seeds: {minted_equal}; "
            f"redistribution within bound: {bound_ok}",
        )


class TestCriterion5:
    def test_pow_only_bound_analytic_grid(self):
        ok = True
        for i in range(100):
            rho = i / 100.0
            bound = metrics.pow_only_bound(rho)

            def alpha(share):
                return share / (share + (1 - rho) * (1 - share))

            ok &= alpha(min(bound + 1e-6, 1.0)) > 0.5
            ok &= alpha(max(bound - 1e-6, 0.0)) < 0.5
        report(
            "criterion 5a: pow-only bound grid",
            ok,
            "alpha > 1/2 iff share > (1-rho)/(2-rho) on 100 rho points",
        )

    def test_pow_only_takeover_simulation(self):
        t0 = time.perf_counter()
        params = EpochParams(
            epoch_len=100, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        balances = normalized_balances([0.4, 0.6], params)
        runs = 400
        takeovers = 0
        miners = [
            MinerConfig("att", balances[0], make_strategy("pow_only", proto)),
            MinerConfig("coh", balances[1], make_strategy("prescribed", proto)),
        ]
        for res in iter_game_results(params, miners, proto, runs, seed=29):
            takeovers += res.stats["att"][0] == 100
        empirical = takeovers / runs
        alpha = 0.4 / (0.4 + 0.5 * 0.6)  # 4/7
        oracle = race_probability(alpha, 100)
        dt = time.perf_counter() - t0
        ok = abs(empirical - oracle) <= 0.05 and dt < 60.0
        report(
            "criterion 5b: takeover race",
            ok,
            f"empirical {empirical:.3f} vs oracle {oracle:.3f} "
            f"(diff {abs(empirical-oracle):.3f}); runtime {dt:.1f}s",
        )


class TestCriterion6:
    def test_permissiveness(self):
        t0 = time.perf_counter()
        closed = metrics.permissiveness(0.1, 20.0)
        formula_ok = abs(closed - 1 / 18.1) < 1e-12

        # two-miner Monte Carlo at rho=0 (where the model equals the formula)
        params = EpochParams(epoch_len=1000, factor=Fraction(20), rho=0,
                             user_balance=Fraction(10**7))
        proto = get_protocol("heb")
        balances = normalized_balances([0.1, 0.9], params)
        epochs = 200

        def mean_utility(strategy_name):
            miners = [
                MinerConfig("i", balances[0], make_strategy(strategy_name, proto)),
                MinerConfig("o", balances[1], make_strategy("prescribed", proto)),
            ]
            total = 0.0
            for res in iter_game_results(params, miners, proto, epochs, seed=31):
                total += float(res.balances["i"])
            return total / epochs

        ratio = mean_utility("no_ic") / mean_utility("prescribed")
        dt = time.perf_counter() - t0
        mc_ok = abs(ratio - closed) / closed <= 0.10
        ok = formula_ok and mc_ok and dt < 120.0
        report(
            "criterion 6: permissiveness",
            ok,
            f"closed form {closed:.5f} (1/18.1); MC ratio {ratio:.5f} "
            f"({abs(ratio-closed)/closed*100:.1f}% rel); runtime {dt:.1f}s",
        )


class TestCriterion7:
    def test_costs_command(self, capsys):
        code = main(["costs", "--rho", "0.5"])
        out = capsys.readouterr().out
        ok = (
            code == 0
            and "attack_cost_refunded=1" in out
            and "attack_cost_sabotage=0.5" in out
            and "external_expense=0.5" in out
        )
        with capsys.disabled():
            report(
                "criterion 7: costs command",
                ok,
                "refunded=1, sabotage=0.5, expense=0.5 at rho=0.5 (exact)",
            )


class TestCriterion8:
    def test_mdp_sanity(self):
        t0 = time.perf_counter()

        # solve vs prescribed in the uniform-tie-breaking reduction
        low = MdpInstance(ell=8, share=0.1, phi=1.0, rho=0.0)
        low_res = solve(low)
        low_presc = policy_value(low, lambda s: prescribed_action(low, s))
        sanity_low = abs(low_res.value - low_presc) < 1e-9

        high = MdpInstance(ell=8, share=0.35, phi=1.0, rho=0.0)
        high_res = solve(high)
        high_presc = policy_value(high, lambda s: prescribed_action(high, s))
        sanity_high = high_res.value > high_presc + 1e-6

        report(
            "criterion 8a: solve vs prescribed (rho=0, phi=1)",
            sanity_low and sanity_high,
            f"share 0.1: |{low_res.value:.9f} - {low_presc:.9f}| < 1e-9; "
            f"share 0.35: gain {high_res.value - high_presc:.4f} > 0",
        )

        # exact match against the exhaustive block-tree oracle at ell=2
        oracle_ok = True
        for share, phi, rho, j in [
            (0.5, 1.0, 0.0, None),
            (0.3, 20.0, 0.5, 1),
            (0.6, 3.0, 0.25, 2),
        ]:
            inst = MdpInstance(ell=2, share=share, phi=phi, rho=rho, alloc=j)
            oracle_ok &= abs(solve(inst).value - game_value(2, share, phi, rho, j)) < 1e-12
        report("criterion 8b: ell=2 exhaustive oracle", oracle_ok, "exact match")

        # minimal-factor search, scaled-down point exactly as stated
        res8 = min_factor(0.2, 0.5, 8, games=500, seed=0, rel_tol=0.25)
        finite_ok = res8.phi_min is not None
        report(
            "criterion 8c: min_factor(0.2, 0.5, ell=8, 500 rollouts) finite",
            finite_ok,
            f"phi_min={res8.phi_min} (monotone_ok={res8.monotone_ok}; "
            "the ell=8 horizon leaves a ~0.17-token exact deviation gain at "
            "every phi, borderline at 500-game statistical resolution)",
        )

        # supplementary: the next even horizon (integral balances) is robust
        res10 = min_factor(0.2, 0.5, 10, games=500, seed=0, rel_tol=0.25)
        report(
            "criterion 8c+: supplementary ell=10",
            res10.phi_min is not None and res10.phi_min < 100,
            f"phi_min={res10.phi_min:.2f}, monotone_ok={res10.monotone_ok}",
        )

        none_ok = True
        details = []
        for rho in (0.0, 0.25, 0.5):
            r = min_factor(0.3, rho, 8, games=5000, seed=0, rel_tol=0.25)
            none_ok &= r.phi_min is None
            details.append(f"rho={rho}: {r.phi_min}")
        report(
            "criterion 8d: min_factor(0.3, any rho) none",
            none_ok,
            "; ".join(details),
        )

        dt = time.perf_counter() - t0
        report("criterion 8e: runtime", dt < 1800.0, f"{dt:.0f}s < 30min")


class TestCriterion9:
    def test_tree_invariants_bulk(self):
        rng = np.random.default_rng(41)
        store = BlockStore()
        store.append(genesis_block(0))
        n = 100_000
        parents = [0]
        for i in range(1, n + 1):
            parent = parents[rng.integers(len(parents))]
            kind = FACTORED if rng.random() < 0.25 else REGULAR
            store.append(
                Block(i, parent, f"m{i % 5}", kind, store.get(parent).height + 1)
            )
            parents.append(i)
        ok = len(store) == n + 1
        for bid in rng.choice(n, size=300, replace=False):
            bid = int(bid) + 1
            seen = set()
            cur = bid
            while cur is not None:
                assert cur not in seen
                seen.add(cur)
                cur = store.get(cur).parent
            ok &= store.get(bid).height == len(seen) - 1
        report("criterion 9a: tree invariants", bool(ok), f"{n} random appends")

    def test_token_conservation_random_heb(self):
        rng = np.random.default_rng(43)
        proto = get_protocol("heb")
        ok = True
        for i in range(1000):
            epoch_len = int(rng.integers(4, 13))
            rho = Fraction(int(rng.integers(0, 4)), 4)
            factor = Fraction(int(rng.integers(1, 41)))
            n_miners = int(rng.integers(1, 4))
            balances = [Fraction(int(rng.integers(1, 20)), 2) for _ in range(n_miners)]
            params = EpochParams(
                epoch_len=epoch_len, factor=factor, rho=rho,
                user_balance=Fraction(10**6),
            )
            miners = [
                MinerConfig(f"m{j}", b, make_strategy("prescribed", proto))
                for j, b in enumerate(balances)
            ]
            res = run_epoch(Game(params, miners, proto), seed=int(rng.integers(2**31)))
            conserved = sum(res.balances.values(), Fraction(0)) + res.user_payout
            ok &= conserved == res.internal_total + epoch_len * params.mint
        report(
            "criterion 9b: exact conservation",
            ok,
            "1000 random weighted-protocol epochs, rational arithmetic",
        )

    def test_preset_determinism(self, tmp_path, capsys):
        outputs: dict[str, list[bytes]] = {}
        for rep in ("r1", "r2"):
            for name, cfg in PRESETS.items():
                out = tmp_path / rep / f"{name}.csv"
                argv = [cfg["command"], "--preset", name, "--out", str(out)]
                code = main(argv)
                assert code == 0, name
                blobs = [out.read_bytes()]
                runs_file = out.with_name(out.stem + "_runs.csv")
                if runs_file.exists():
                    blobs.append(runs_file.read_bytes())
                outputs.setdefault(name, []).append(b"".join(blobs))
        ok = all(blobs[0] == blobs[1] for blobs in outputs.values())
        with capsys.disabled():
            report(
                "criterion 9c: preset determinism",
                ok,
                f"{len(PRESETS)} presets, byte-identical across repeated runs",
            )
