import math
from fractions import Fraction

import numpy as np
import pytest

from hebsim.chain import (
    Block,
    BlockStore,
    EpochParams,
    FACTORED,
    REGULAR,
    epoch_stats,
    genesis_block,
    within_quota,
)
from hebsim.engine import (
    Allocation,
    Game,
    MinerConfig,
    MinerView,
    StalledSystemError,
    normalized_balances,
    run_epoch,
    run_games,
)
from hebsim.protocols import (
    PettyCompliant,
    PowOnly,
    PrescribedHeb,
    PrescribedNakamoto,
    get_protocol,
    make_strategy,
    protocol_names,
    real_value_scale,
    strategy_names,
)


nakamoto_balance = get_protocol("nakamoto").balance_fn
nakamoto_half_balance = get_protocol("nakamoto_half").balance_fn
prd_balance = get_protocol("prd").balance_fn
heb_balance = get_protocol("heb").balance_fn


def linear_chain(creators_kinds):
    store = BlockStore()
    store.append(genesis_block(0))
    for i, (creator, kind) in enumerate(creators_kinds, start=1):
        store.append(Block(i, i - 1, creator, kind, i))
    return store.main_chain()


def alloc_map(**kwargs):
    return {m: Allocation(Fraction(i), Fraction(e)) for m, (i, e) in kwargs.items()}


def make_view(store, miner_id="x", params=None, quota=None, seed=0, local=None):
    params = params or EpochParams(epoch_len=10, factor=Fraction(20))
    return MinerView(
        miner_id,
        store,
        local or {},
        params,
        Allocation(Fraction(0), Fraction(1)),
        quota,
        0,
        store.genesis_id,
        np.random.default_rng(seed),
    )


class TestNakamotoBalance:
    def test_per_block_payout(self):
        chain = linear_chain([("i", REGULAR)] * 7 + [("j", REGULAR)] * 3)
        params = EpochParams(epoch_len=10)
        out = nakamoto_balance(epoch_stats(chain, 0, params), params, {}, ["i", "j", "k"])
        assert out.minted["i"] == 7
        assert out.minted["k"] == 0
        assert sum(out.minted.values()) == 10
        assert out.user_payout == 0


class TestHebBalance:
    def test_weight_share(self):
        # A: one factored (w=20), B: four regular (w=4); ell=5
        chain = linear_chain([("A", FACTORED)] + [("B", REGULAR)] * 4)
        params = EpochParams(
            epoch_len=5, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        allocations = alloc_map(A=(0, 1), B=(0, 4))
        out = heb_balance(epoch_stats(chain, 0, params), params, allocations, ["A", "B"])
        assert out.minted["A"] == Fraction(20, 24) * 5
        assert out.minted["B"] == Fraction(4, 24) * 5

    def test_redistribution_split(self):
        chain = linear_chain([("A", FACTORED)] * 5)
        params = EpochParams(
            epoch_len=5, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(1000),
        )
        allocations = alloc_map(A=(3, 3), B=(1, 0))
        out = heb_balance(epoch_stats(chain, 0, params), params, allocations, ["A", "B"])
        internal_total = Fraction(4)
        assert out.redistributed["A"] == internal_total * 3 / (4 + 1000)
        assert out.redistributed["B"] == internal_total * 1 / (4 + 1000)
        assert out.user_payout == internal_total * 1000 / (4 + 1000)
        conserved = sum(out.minted.values()) + sum(out.redistributed.values())
        assert conserved + out.user_payout == 5 + internal_total

    def test_unit_factor_reduces_to_nakamoto(self):
        chain = linear_chain(
            [("A", FACTORED), ("B", REGULAR), ("A", REGULAR), ("B", REGULAR)]
        )
        params = EpochParams(epoch_len=4, factor=1)
        allocations = alloc_map(A=(0, 2), B=(0, 2))
        heb = heb_balance(epoch_stats(chain, 0, params), params, allocations, ["A", "B"])
        nak = nakamoto_balance(epoch_stats(chain, 0, params), params, allocations, ["A", "B"])
        assert heb.minted == nak.minted

    def test_sole_miner_near_full_reward(self):
        chain = linear_chain([("A", FACTORED)] * 5)
        params = EpochParams(
            epoch_len=5, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**9),
        )
        out = heb_balance(epoch_stats(chain, 0, params), params, alloc_map(A=(2, 3)), ["A"])
        assert out.minted["A"] == 5
        assert out.redistributed["A"] < Fraction(1, 10**7)


class TestNaiveProtocols:
    def test_half_mint(self):
        chain = linear_chain([("i", REGULAR)] * 7 + [("j", REGULAR)] * 3)
        params = EpochParams(epoch_len=10)
        out = nakamoto_half_balance(epoch_stats(chain, 0, params), params, {}, ["i", "j"])
        assert out.minted["i"] == Fraction(7, 2)
        assert sum(out.minted.values()) == 5

    def test_half_real_value_matches_nakamoto(self):
        proto_half = get_protocol("nakamoto_half")
        proto_full = get_protocol("nakamoto")
        chain = linear_chain([("i", REGULAR)] * 10)
        params = EpochParams(epoch_len=10)
        half = nakamoto_half_balance(epoch_stats(chain, 0, params), params, {}, ["i"])
        full = nakamoto_balance(epoch_stats(chain, 0, params), params, {}, ["i"])
        scale = real_value_scale(proto_half)
        assert half.minted["i"] * scale == full.minted["i"] * real_value_scale(proto_full)

    def test_prd_zero_rho_is_nakamoto(self):
        chain = linear_chain([("i", REGULAR)] * 6 + [("j", REGULAR)] * 4)
        params = EpochParams(epoch_len=10, rho=0)
        allocations = alloc_map(i=(0, 6), j=(0, 4))
        prd = prd_balance(epoch_stats(chain, 0, params), params, allocations, ["i", "j"])
        nak = nakamoto_balance(epoch_stats(chain, 0, params), params, allocations, ["i", "j"])
        assert prd.minted == nak.minted
        assert prd.user_payout == 0

    def test_prd_redistribution_pool(self):
        chain = linear_chain([("A", REGULAR)] * 10)
        params = EpochParams(
            epoch_len=10, rho=Fraction(1, 2), user_balance=Fraction(10**6)
        )
        out = prd_balance(epoch_stats(chain, 0, params), params, alloc_map(A=(0, 10)), ["A"])
        assert out.minted["A"] == 5
        pool = sum(out.redistributed.values()) + out.user_payout
        assert pool == Fraction(1, 2) * 10  # rho * ell * mint, exactly

    def test_mandatory_validity(self):
        assert within_quota(2, 3)
        assert not within_quota(3, 3)
        assert within_quota(10**6, None)


class TestQuota:
    def test_limit_formula(self):
        params = EpochParams(epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2))
        assert params.quota_limit(Fraction(1)) == 2
        assert params.quota_limit(Fraction(9, 10)) == 1
        assert params.quota_limit(Fraction(0)) == 0

    def test_unlimited_when_rho_zero(self):
        params = EpochParams(epoch_len=10, factor=Fraction(20), rho=0)
        assert params.quota_limit(Fraction(5)) is None


class TestStrategies:
    def test_registry(self):
        assert protocol_names() == [
            "heb", "heb_mandatory", "nakamoto", "nakamoto_half", "prd",
        ]
        assert strategy_names() == [
            "no_ic", "petty_compliant", "pow_only", "prescribed",
        ]
        with pytest.raises(ValueError):
            get_protocol("bitcoin")
        with pytest.raises(ValueError):
            make_strategy("selfish", get_protocol("heb"))

    def test_nakamoto_extends_single_tip(self):
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "a", REGULAR, 1))
        view = make_view(store)
        parent, kind = PrescribedNakamoto().generate_block(view)
        assert parent == 1
        assert kind == REGULAR

    def test_tie_break_uniform(self):
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "a", REGULAR, 1))
        store.append(Block(2, 0, "b", REGULAR, 1))
        view = make_view(store, seed=13)
        strat = PrescribedNakamoto()
        picks = [strat.generate_block(view)[0] for _ in range(10_000)]
        frac = picks.count(1) / len(picks)
        assert abs(frac - 0.5) < 0.02

    def test_heb_allocation_ratio(self):
        params = EpochParams(epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2))
        alloc = PrescribedHeb().allocate(Fraction(4), params)
        assert alloc.internal == 2
        assert alloc.external == 2

    def test_heb_factored_until_quota(self):
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "x", FACTORED, 1))
        store.append(Block(2, 1, "x", FACTORED, 2))
        view = make_view(store, quota=2)
        parent, kind = PrescribedHeb().generate_block(view)
        assert (parent, kind) == (2, REGULAR)
        view3 = make_view(store, quota=3)
        assert PrescribedHeb().generate_block(view3)[1] == FACTORED

    def test_heb_rho_zero_all_factored(self):
        store = BlockStore()
        store.append(genesis_block(0))
        view = make_view(store, quota=None)
        assert PrescribedHeb().generate_block(view)[1] == FACTORED

    def test_petty_prefers_light_chain(self):
        # two tips: weight 24 (factored + 4 regular) vs weight 5 (5 regular)
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "h", FACTORED, 1))
        prev = 1
        for i in range(2, 6):
            store.append(Block(i, prev, "h", REGULAR, i))
            prev = i
        store.append(Block(10, 0, "l", REGULAR, 1))
        prev = 10
        for i in range(11, 15):
            store.append(Block(i, prev, "l", REGULAR, store.get(prev).height + 1))
            prev = i
        view = make_view(store, quota=None)
        strat = PettyCompliant()
        for _ in range(50):
            parent, _ = strat.generate_block(view)
            assert parent == 14  # tip of the weight-5 branch

    def test_petty_uniform_on_equal_weights(self):
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "a", REGULAR, 1))
        store.append(Block(2, 0, "b", REGULAR, 1))
        view = make_view(store, quota=None, seed=17)
        strat = PettyCompliant()
        picks = [strat.generate_block(view)[0] for _ in range(10_000)]
        assert abs(picks.count(1) / len(picks) - 0.5) < 0.02

    def test_petty_single_chain_ignores_weight(self):
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "h", FACTORED, 1))
        view = make_view(store, quota=None)
        assert PettyCompliant().generate_block(view)[0] == 1

    def test_pow_only_builds_private_chain(self):
        store = BlockStore()
        store.append(genesis_block(0))
        store.append(Block(1, 0, "h", REGULAR, 1))
        local = {5: Block(5, 0, "w", REGULAR, 1), 6: Block(6, 5, "w", REGULAR, 2)}
        view = make_view(store, miner_id="w", local=local)
        parent, kind = PowOnly().generate_block(view)
        assert parent == 6  # own tip, not the public one
        assert kind == REGULAR
        # withholds until epoch_len private blocks exist
        assert PowOnly().publish(view) == []


class TestPowOnlyRace:
    def test_majority_attacker_takes_over(self):
        # external share 4/7 > 1/2: expect frequent full takeovers
        params = EpochParams(
            epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        balances = normalized_balances([0.4, 0.6], params)
        takeovers = 0
        runs = 60
        for seed in range(runs):
            miners = [
                MinerConfig("att", balances[0], make_strategy("pow_only", proto)),
                MinerConfig("coh", balances[1], make_strategy("prescribed", proto)),
            ]
            res = run_epoch(Game(params, miners, proto), seed=seed)
            if res.stats["att"][0] == params.epoch_len:
                takeovers += 1
        # alpha = 0.4/(0.4+0.3) = 4/7; the race strongly favors the attacker
        assert takeovers > runs * 0.5

    def test_minority_attacker_usually_fails(self):
        params = EpochParams(epoch_len=10, user_balance=Fraction(10**6))
        proto = get_protocol("nakamoto")
        balances = normalized_balances([0.2, 0.8], params)
        takeovers = 0
        for seed in range(40):
            miners = [
                MinerConfig("att", balances[0], make_strategy("pow_only", proto)),
                MinerConfig("coh", balances[1], make_strategy("prescribed", proto)),
            ]
            res = run_epoch(Game(params, miners, proto), seed=seed)
            takeovers += res.stats["att"][0] == params.epoch_len
        assert takeovers <= 2


class TestNoIc:
    def test_equals_prescribed_at_unit_factor(self):
        # rho=0, factor=1: identical allocations and weights, same seed
        params = EpochParams(epoch_len=20, factor=1, rho=0)
        proto = get_protocol("heb")
        balances = normalized_balances([0.3, 0.7], params)

        def run(strategy_name):
            miners = [
                MinerConfig("i", balances[0], make_strategy(strategy_name, proto)),
                MinerConfig("o", balances[1], make_strategy("prescribed", proto)),
            ]
            return run_epoch(Game(params, miners, proto), seed=77)

        assert run("no_ic").balances["i"] == run("prescribed").balances["i"]

    def test_monte_carlo_matches_two_miner_weight_formulas(self):
        # closed-form expected weights for a no-IC miner against a
        # prescribed opponent, checked by simulation
        params = EpochParams(
            epoch_len=100, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        b_i, b_o = Fraction(20), Fraction(80)
        runs = 300
        miners = [
            MinerConfig("i", b_i, make_strategy("no_ic", proto)),
            MinerConfig("o", b_o, make_strategy("prescribed", proto)),
        ]
        stats = run_games(params, miners, proto, runs, seed=123)
        ell = params.epoch_len
        denom = float(b_i + (1 - params.rho) * b_o)  # 60
        exp_blocks_i = ell * float(b_i) / denom
        exp_w_i = exp_blocks_i  # regular blocks only
        exp_w_o = ell * 20.0 * float((1 - params.rho) * b_o) / denom
        se_blocks = math.sqrt(ell * (20 / 60) * (40 / 60) / runs)
        assert abs(stats.mean_blocks["i"] - exp_blocks_i) < 3 * se_blocks
        assert abs(stats.mean_weight["i"] - exp_w_i) < 3 * se_blocks
        assert abs(stats.mean_weight["o"] - exp_w_o) < 3 * 20 * se_blocks
        # her external share exceeds her balance share
        assert stats.mean_blocks["i"] / ell > float(b_i) / float(b_i + b_o)


class TestPrescribedSelfConsistency:
    def test_quota_equals_expected_blocks(self):
        # with integral ell * share, the factored quota is exactly ell*share
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(1, 4),
            user_balance=Fraction(10**6),
        )
        strat = PrescribedHeb()
        for share in (Fraction(1, 4), Fraction(3, 4)):
            balance = share * params.epoch_len * params.mint
            alloc = strat.allocate(balance, params)
            assert params.quota_limit(alloc.internal) == share * params.epoch_len

    def test_factored_counts_stay_within_quota(self):
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        balances = normalized_balances([0.25, 0.75], params)
        miners = [
            MinerConfig("a", balances[0], make_strategy("prescribed", proto)),
            MinerConfig("b", balances[1], make_strategy("prescribed", proto)),
        ]
        game = Game(params, miners, proto)
        for seed in range(8):
            res = run_epoch(game, seed=seed)
            fac_a = sum(
                1 for b in res.main if b.creator == "a" and b.kind == FACTORED
            )
            fac_b = sum(
                1 for b in res.main if b.creator == "b" and b.kind == FACTORED
            )
            assert fac_a <= 5
            assert fac_b <= 15


class TestMandatoryProtocol:
    def test_normal_run_conserves(self):
        params = EpochParams(
            epoch_len=10, rho=Fraction(1, 2), user_balance=Fraction(10**6)
        )
        proto = get_protocol("heb_mandatory")
        # ample quotas: each miner could create the full epoch herself
        miners = [
            MinerConfig("a", Fraction(10), proto.prescribed()),
            MinerConfig("b", Fraction(10), proto.prescribed()),
        ]
        res = run_epoch(Game(params, miners, proto), seed=6)
        total = sum(res.balances.values()) + res.user_payout
        assert total == res.internal_total + Fraction(10)

    def test_exhausted_quotas_stall(self):
        # combined quota (2+2 blocks) cannot reach epoch_len=10
        params = EpochParams(
            epoch_len=10, rho=Fraction(1, 2), user_balance=Fraction(10**6)
        )
        proto = get_protocol("heb_mandatory")
        miners = [
            MinerConfig("a", Fraction(2), proto.prescribed()),
            MinerConfig("b", Fraction(2), proto.prescribed()),
        ]
        with pytest.raises(StalledSystemError, match="quota"):
            run_epoch(Game(params, miners, proto), seed=6)


class TestHebNakamotoReductions:
    def test_rho_zero_all_factored_equals_nakamoto(self):
        # with rho=0 every prescribed block is factored; equal weights cancel
        # and the minted shares coincide with per-block payouts, exactly
        chain = linear_chain([("A", FACTORED)] * 3 + [("B", FACTORED)] * 7)
        params = EpochParams(epoch_len=10, factor=Fraction(20), rho=0)
        allocations = alloc_map(A=(0, 3), B=(0, 7))
        heb = heb_balance(epoch_stats(chain, 0, params), params, allocations, ["A", "B"])
        nak = nakamoto_balance(epoch_stats(chain, 0, params), params, allocations, ["A", "B"])
        assert heb.minted == nak.minted
        assert heb.user_payout == 0
