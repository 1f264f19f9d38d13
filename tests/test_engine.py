import concurrent.futures
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from hebsim.chain import EpochParams, FACTORED, REGULAR, epoch_slice, within_quota
from hebsim import engine
from hebsim.engine import (
    Allocation,
    Game,
    MinerConfig,
    MinerView,
    StalledSystemError,
    StrategyFault,
    derive_streams,
    normalized_balances,
    run_epoch,
    run_games,
    select_miner,
)
from hebsim.protocols import ProtocolSpec, get_protocol, make_strategy

import oracles


def nakamoto_miners(shares, params):
    proto = get_protocol("nakamoto")
    balances = normalized_balances(shares, params)
    return proto, [
        MinerConfig(f"m{i}", b, make_strategy("prescribed", proto))
        for i, b in enumerate(balances)
    ]


class TestSelectMiner:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert select_miner({"A": 1, "B": 0}, rng) == "A"

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        hits = sum(select_miner({"A": 1, "B": 1}, rng) == "A" for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_three_to_one(self):
        rng = np.random.default_rng(2)
        hits = sum(select_miner({"A": 3, "B": 1}, rng) == "A" for _ in range(100_000))
        assert abs(hits / 100_000 - 0.75) < 0.01

    def test_all_zero_stalls(self):
        rng = np.random.default_rng(3)
        with pytest.raises(StalledSystemError):
            select_miner({"A": 0, "B": 0}, rng)

    def test_chi_square_convergence(self):
        rng = np.random.default_rng(4)
        weights = {"a": 5, "b": 3, "c": 2}
        draws = 100_000
        counts = {m: 0 for m in weights}
        for _ in range(draws):
            counts[select_miner(weights, rng)] += 1
        expected = [draws * w / 10 for w in (5, 3, 2)]
        observed = [counts["a"], counts["b"], counts["c"]]
        _, p = chisquare(observed, expected)
        assert p > 0.001


class TestNormalizedBalances:
    def test_sum_and_values(self):
        params = EpochParams(epoch_len=100)
        balances = normalized_balances([0.3, 0.7], params)
        assert balances == [Fraction(30), Fraction(70)]

    def test_rejects_fractional_blocks(self):
        params = EpochParams(epoch_len=10)
        with pytest.raises(ValueError, match="not integral"):
            normalized_balances([0.25, 0.75], params)
        assert normalized_balances([0.25, 0.75], params, allow_fractional=True)

    def test_rejects_bad_sum(self):
        params = EpochParams(epoch_len=10)
        with pytest.raises(ValueError, match="sum to 1"):
            normalized_balances([0.5, 0.6], params)


class TestRunEpoch:
    def test_single_miner_takes_all(self):
        params = EpochParams(epoch_len=20)
        proto = get_protocol("nakamoto")
        miners = [MinerConfig("solo", Fraction(20), make_strategy("prescribed", proto))]
        res = run_epoch(Game(params, miners, proto), seed=11)
        assert res.stats["solo"] == (20, Fraction(20))
        assert res.balances["solo"] == Fraction(20)
        assert res.prefix_ok

    def test_strategy_free_runs_build_no_views(self, monkeypatch):
        built = []

        class CountedView(MinerView):
            __slots__ = ()

            def __init__(self, miner_id, *args):
                built.append(miner_id)
                super().__init__(miner_id, *args)

        monkeypatch.setattr(engine, "MinerView", CountedView)
        params = EpochParams(
            epoch_len=40, factor=Fraction(20), rho=Fraction(1, 2), user_balance=Fraction(10**5)
        )
        proto = get_protocol("heb")
        balances = normalized_balances([Fraction(1, 4)] * 4, params)

        def game(*plays):
            return Game(params, [
                MinerConfig(f"m{i}", b, make_strategy(play, proto))
                for i, (b, play) in enumerate(zip(balances, plays))
            ], proto)

        prescribed = game(*["prescribed"] * 4)
        res = run_epoch(prescribed, seed=1)
        run_epoch(prescribed, seed=2, store=res.store)  # the next epoch, on one tip
        run_epoch(game("pow_only", *["prescribed"] * 3), seed=1)
        assert built == []
        # a petty_compliant miner is called every step: the generic loop
        # views every miner
        run_epoch(game("petty_compliant", *["prescribed"] * 3), seed=1)
        assert built == ["m0", "m1", "m2", "m3"]

    def test_deterministic_given_seed(self):
        params = EpochParams(epoch_len=50)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        game = Game(params, miners, proto)
        a = run_epoch(game, seed=99)
        b = run_epoch(game, seed=99)
        assert a.to_json() == b.to_json()
        assert a.store.to_jsonl() == b.store.to_jsonl()
        c = run_epoch(game, seed=100)
        assert c.to_json() != a.to_json()

    def test_minted_total_exact(self):
        params = EpochParams(epoch_len=30)
        proto, miners = nakamoto_miners([0.4, 0.6], params)
        res = run_epoch(Game(params, miners, proto), seed=5)
        assert sum(res.minted.values()) == Fraction(30)

    def test_conservation_heb(self):
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**5),
        )
        proto = get_protocol("heb")
        miners = [
            MinerConfig("a", Fraction(8), make_strategy("prescribed", proto)),
            MinerConfig("b", Fraction(12), make_strategy("prescribed", proto)),
        ]
        res = run_epoch(Game(params, miners, proto), seed=5)
        total = sum(res.balances.values()) + res.user_payout
        assert total == res.internal_total + Fraction(20)

    @pytest.mark.parametrize("protocol", ["nakamoto", "prd", "heb"])
    @pytest.mark.parametrize("settled", ["minted", "redistributed", "user_payout"])
    def test_conservation_check_trips_on_a_billionth(self, protocol, settled, monkeypatch):
        # one amount of the settlement off by 1/10**9 breaks the equality
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(1, 3),
            user_balance=Fraction(10**5 + 3),
        )
        proto = get_protocol(protocol)
        miners = [
            MinerConfig(m, Fraction(10), make_strategy("prescribed", proto)) for m in "ab"
        ]
        game = Game(params, miners, proto)
        settle = ProtocolSpec.balance_fn

        def off(spec, *args):
            out = settle(spec, *args)
            if settled == "user_payout":
                out.user_payout += Fraction(1, 10**9)
            else:
                getattr(out, settled)["b"] += Fraction(1, 10**9)
            return out

        monkeypatch.setattr(ProtocolSpec, "balance_fn", off)
        with pytest.raises(AssertionError, match="token conservation violated"):
            run_epoch(game, seed=5)

    def test_honest_runs_keep_prefix(self):
        params = EpochParams(epoch_len=20)
        proto, miners = nakamoto_miners([0.3, 0.3, 0.4], params)
        game = Game(params, miners, proto)
        for seed in range(10):
            assert run_epoch(game, seed=seed).prefix_ok

    def test_epoch_chaining(self):
        params = EpochParams(epoch_len=10)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        game = Game(params, miners, proto)
        first = run_epoch(game, seed=1)
        assert first.epoch_index == 0
        second = run_epoch(game, seed=2, store=first.store)
        assert second.epoch_index == 1
        assert second.main.length >= 20

    def test_unaligned_store_starts_at_last_epoch_boundary(self):
        # a 10-block main chain in 7-block epochs: epoch 1 starts at position 7
        params = EpochParams(epoch_len=10)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        res = run_epoch(Game(params, miners, proto), seed=1)
        assert res.main.length == 10
        short = EpochParams(epoch_len=7)
        nxt = run_epoch(Game(short, miners, proto), seed=2, store=res.store)
        assert nxt.epoch_index == 1
        assert nxt.main.length == 14
        assert nxt.prefix_ok
        assert nxt.blocks_created == 4
        assert sum(n for n, _w in nxt.stats.values()) == 7

    def test_overshoot_chains_into_next_epoch(self):
        # a lone miner withholds 6 blocks and publishes them at once, one past
        # the end of epoch 0; epoch 1 starts at position 5 and counts block 6
        params = EpochParams(epoch_len=5)
        proto = get_protocol("nakamoto")
        first = run_epoch(
            Game(params, [MinerConfig("a", Fraction(5), BatchPublisher(6))], proto),
            seed=1,
        )
        assert first.main.length == 6
        strat = BatchPublisher(1)
        second = run_epoch(
            Game(params, [MinerConfig("a", Fraction(5), strat)], proto), seed=2,
            store=first.store,
        )
        assert second.epoch_index == 1
        assert second.prefix_ok
        assert second.main.length == 10
        assert second.blocks_created == 4
        assert strat.used == [1, 2, 3, 4]  # her own blocks on the path, from position 6
        assert second.stats["a"] == (5, Fraction(5))
        assert second.balances["a"] + second.user_payout == Fraction(5)

    def test_zero_balances_stall(self):
        params = EpochParams(epoch_len=10)
        proto = get_protocol("nakamoto")
        miners = [MinerConfig("a", Fraction(0), make_strategy("prescribed", proto))]
        with pytest.raises(StalledSystemError):
            run_epoch(Game(params, miners, proto), seed=0)

    def test_guard_ratio_warns(self):
        params = EpochParams(epoch_len=10, user_balance=Fraction(100))
        proto, miners = nakamoto_miners([1.0], params)
        with pytest.warns(UserWarning, match="negligible"):
            run_epoch(Game(params, miners, proto), seed=0)

    def test_guard_ratio_boundary_is_strict(self):
        # total miner balance 10: no warning at exactly the ratio, one just above
        at = 10 / engine.GUARD_RATIO
        for user_balance, warns in ((at, False), (at - Fraction(1, 10**9), True)):
            params = EpochParams(epoch_len=10, user_balance=user_balance)
            proto, miners = nakamoto_miners([1.0], params)
            assert sum(m.balance for m in miners) == 10
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_epoch(Game(params, miners, proto), seed=0)
            assert any("negligible" in str(w.message) for w in caught) == warns


class BatchPublisher:
    """Extends her own chain, else a public tip, and withholds her blocks
    until she holds ``batch`` of them; records ``blocks_used`` at each parent."""

    def __init__(self, batch):
        self.batch = batch
        self.used = []

    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        if view.local:
            parent = next(reversed(view.local))
        else:
            parent = view.public_tips()[0]
        self.used.append(view.blocks_used(parent))
        return parent, REGULAR

    def publish(self, view):
        return sorted(view.local) if len(view.local) >= self.batch else []


class BadAllocator:
    def allocate(self, balance, params):
        return Allocation(Fraction(1), Fraction(1))

    def generate_block(self, view):
        return view.public_tips()[0], REGULAR

    def publish(self, view):
        return sorted(view.local)


class ForeignPublisher:
    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        return view.public_tips()[0], REGULAR

    def publish(self, view):
        return [0]  # genesis is not ours to publish


class BadParent:
    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        return 10**9, REGULAR

    def publish(self, view):
        return sorted(view.local)


class TestStrategyFaults:
    def _run(self, strategy):
        params = EpochParams(epoch_len=5)
        proto = get_protocol("nakamoto")
        miners = [MinerConfig("x", Fraction(5), strategy)]
        return run_epoch(Game(params, miners, proto), seed=0)

    def test_bad_allocation(self):
        with pytest.raises(StrategyFault, match="allocated"):
            self._run(BadAllocator())

    def test_publish_foreign_block(self):
        with pytest.raises(StrategyFault, match="does not hold"):
            self._run(ForeignPublisher())

    def test_unknown_parent(self):
        with pytest.raises(StrategyFault, match="unknown parent"):
            self._run(BadParent())

    @pytest.mark.parametrize("name", ["nakamoto", "nakamoto_half", "prd"])
    def test_internal_allocation_without_internal_pool(self, name):
        # petty_compliant allocates rho of her balance internally, which only
        # a protocol redistributing internal expenses can account for
        params = EpochParams(epoch_len=5, rho=Fraction(1, 2))
        proto = get_protocol(name)
        petty = make_strategy("petty_compliant", proto)
        miners = [MinerConfig("x", Fraction(5), petty)]
        with pytest.raises(StrategyFault, match="internal"):
            run_epoch(Game(params, miners, proto), seed=0)


class PrivateFactored:
    """Allocates rho of her balance internally and mines factored blocks on
    a private chain from ``root`` (default: the epoch start), never
    publishing; records how many private blocks she held at each call."""

    def __init__(self, root=None):
        self.root = root
        self.held = []

    def allocate(self, balance, params):
        return Allocation(params.rho * balance, (1 - params.rho) * balance)

    def generate_block(self, view):
        self.held.append(len(view.local))
        if view.local:
            return max(view.local.values(), key=lambda b: b.height).id, FACTORED
        return (view.epoch_start_tip if self.root is None else self.root), FACTORED

    def publish(self, view):
        return []


class QuotaIgnorer:
    """Commits 1 token internally, then extends the public chain and
    publishes at once, whatever her quota."""

    def __init__(self):
        self.calls = 0

    def allocate(self, balance, params):
        return Allocation(Fraction(1), balance - 1)

    def generate_block(self, view):
        self.calls += 1
        return view.public_tips()[0], REGULAR

    def publish(self, view):
        return sorted(view.local)


class TestQuota:
    HEB = EpochParams(epoch_len=10, factor=Fraction(5), rho=Fraction(1, 2))

    def test_private_factored_chain_faults_at_quota(self):
        # quota = internal / (rho * mint) = 5 / (1/2) = 10 factored blocks
        proto = get_protocol("heb")
        strat = PrivateFactored()
        miners = [MinerConfig("x", Fraction(10), strat)]
        with pytest.raises(StrategyFault, match=r"factored-block quota \(10\)"):
            run_epoch(Game(self.HEB, miners, proto), seed=0)
        assert strat.held == list(range(11))

    def test_mandatory_faults_on_block_after_quota(self):
        # 1 token internally at rho * mint = 1/2 per block: quota 2
        proto = get_protocol("heb_mandatory")
        strat = QuotaIgnorer()
        miners = [MinerConfig("x", Fraction(10), strat)]
        with pytest.raises(StrategyFault, match=r"block quota \(2\)"):
            run_epoch(Game(self.HEB, miners, proto), seed=0)
        assert strat.calls == 3

    def test_fork_below_epoch_start_gets_no_extra_quota(self):
        # epoch 0 gives "x" 10 factored blocks; in epoch 1 her private fork
        # from genesis still holds only her 10 blocks of quota
        proto = get_protocol("heb")
        prescribed = [MinerConfig("x", Fraction(10), make_strategy("prescribed", proto))]
        first = run_epoch(Game(self.HEB, prescribed, proto), seed=0)
        assert first.stats["x"] == (10, Fraction(50))
        strat = PrivateFactored(root=first.store.genesis_id)
        miners = [MinerConfig("x", Fraction(10), strat)]
        with pytest.raises(StrategyFault, match="factored-block quota"):
            run_epoch(Game(self.HEB, miners, proto), seed=1, store=first.store)
        assert strat.held == list(range(11))

    @staticmethod
    def _two_epochs(name):
        params = EpochParams(
            epoch_len=40, factor=Fraction(5), rho=Fraction(1, 2),
            user_balance=Fraction(10**5),
        )
        proto = get_protocol(name)
        miners = [
            MinerConfig(m, Fraction(20), make_strategy("prescribed", proto))
            for m in "ab"
        ]
        game = Game(params, miners, proto)
        first = run_epoch(game, seed=1)
        second = run_epoch(game, seed=2, store=first.store)
        quota = params.quota_limit(params.rho * 20)
        return params, second, quota

    def test_chained_heb_epochs_count_quota_per_epoch(self):
        params, second, quota = self._two_epochs("heb")
        assert quota == 20
        for k in (0, 1):
            sl = epoch_slice(second.main, k, params.epoch_len)
            for m in "ab":
                mine = [b for b in sl if b.creator == m]
                factored = sum(1 for b in mine if b.kind == FACTORED)
                assert factored == min(quota, len(mine))

    def test_chained_mandatory_epoch_completes(self):
        params, second, quota = self._two_epochs("heb_mandatory")
        assert second.main.length == 2 * params.epoch_len
        sl = epoch_slice(second.main, 1, params.epoch_len)
        assert all(sum(1 for b in sl if b.creator == m) <= quota for m in "ab")


class Withholder:
    """Creates blocks but never publishes."""

    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        if view.local:
            return max(view.local.values(), key=lambda b: b.height).id, REGULAR
        return view.epoch_start_tip, REGULAR

    def publish(self, view):
        return []


class TriggeredPublisher:
    """Publishes her block only once another miner has published height 1;
    exercises a second publication round within one fixpoint call."""

    def __init__(self):
        self.armed = False

    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        return view.epoch_start_tip, REGULAR

    def publish(self, view):
        if view.store.max_height >= 1 and view.local:
            return sorted(view.local)
        return []


class ImmediatePublisher:
    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        return view.public_tips()[0], REGULAR

    def publish(self, view):
        return sorted(view.local)


class Hoarder:
    """Withholds until she holds ``hoard`` blocks, then publishes her
    lowest one at each poll: one publication round per block."""

    def __init__(self, hoard):
        self.hoard = hoard
        self.releasing = False

    def allocate(self, balance, params):
        return Allocation(Fraction(0), balance)

    def generate_block(self, view):
        if view.local:
            return max(view.local.values(), key=lambda b: b.height).id, REGULAR
        return view.public_tips()[0], REGULAR

    def publish(self, view):
        self.releasing = self.releasing or len(view.local) >= self.hoard
        if not self.releasing:
            return []
        return [min(view.local.values(), key=lambda b: b.height).id]


class PollRecorder:
    """Plays ``inner`` and records the size of ``view.local`` at every
    ``publish`` poll."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def allocate(self, balance, params):
        return self.inner.allocate(balance, params)

    def generate_block(self, view):
        return self.inner.generate_block(view)

    def publish(self, view):
        self.seen.append(len(view.local))
        return self.inner.publish(view)


class TestPublicationFixpoint:
    def test_publish_polled_only_while_holding_blocks(self):
        # two prescribed miners beside a pow_only withholder: publish() is
        # asked only of a miner that holds private blocks
        params = EpochParams(epoch_len=8, factor=Fraction(20), rho=Fraction(1, 2))
        proto = get_protocol("heb")
        recorders = {
            "a": PollRecorder(make_strategy("prescribed", proto)),
            "b": PollRecorder(make_strategy("prescribed", proto)),
            "w": PollRecorder(make_strategy("pow_only", proto)),
        }
        balances = {"a": 3, "b": 3, "w": 2}
        miners = [MinerConfig(m, Fraction(balances[m]), r) for m, r in recorders.items()]
        run_epoch(Game(params, miners, proto), seed=0)
        for r in recorders.values():
            assert r.seen and min(r.seen) > 0

    def test_withholding_keeps_store_unchanged(self):
        params = EpochParams(epoch_len=3)
        proto = get_protocol("nakamoto")
        # the withholder alone would never end the epoch by publication;
        # her secret blocks stay local until the honest miner finishes.
        miners = [
            MinerConfig("hon", Fraction(2), ImmediatePublisher()),
            MinerConfig("wit", Fraction(1), Withholder()),
        ]
        res = run_epoch(Game(params, miners, proto), seed=3)
        # only honest blocks ever enter the global store
        assert all(b.creator in (None, "hon") for b in res.store.blocks())

    def test_rounds_bounded_by_blocks_held(self):
        # one fixpoint runs a round per hoarded block, 20 rounds in a
        # one-miner epoch of 5 blocks: a valid strategy, not a loop
        params = EpochParams(epoch_len=5)
        miners = [MinerConfig("h", Fraction(1), Hoarder(20))]
        res = run_epoch(Game(params, miners, get_protocol("nakamoto")), seed=0)
        assert res.main.length == 20
        assert [b.creator for b in res.main.blocks[1:]] == ["h"] * 20
        assert res.balances["h"] == 5 * params.mint

    def test_conditional_publish_needs_second_round(self):
        # miner "a" (TriggeredPublisher) creates a block first but holds it;
        # when "b" creates and publishes, the same fixpoint call must pick up
        # "a"'s conditional release in a following round.
        params = EpochParams(epoch_len=2)
        proto = get_protocol("nakamoto")
        trig = TriggeredPublisher()
        miners = [
            MinerConfig("a", Fraction(1), trig),
            MinerConfig("b", Fraction(1), ImmediatePublisher()),
        ]
        # find a seed where "a" is selected first
        game = Game(params, miners, proto)
        for seed in range(30):
            res = run_epoch(game, seed=seed)
            creators = [b.creator for b in res.store.blocks() if b.creator]
            if creators and creators[0] == "b" and "a" in creators:
                # a's withheld block was released in the round after b's
                assert res.store.max_height >= 1
                break
        else:
            pytest.fail("no seed exercised the two-round scenario")


class StepRecorder:
    """Plays ``inner`` and appends the miner id of every ``generate_block``
    call (one per scheduler step, wasted steps included) to ``log``; with
    ``draws``, also draws from ``view.rng`` at each call and records the
    values per miner."""

    def __init__(self, inner, log, draws=None):
        self.inner = inner
        self.log = log
        self.draws = draws

    def allocate(self, balance, params):
        return self.inner.allocate(balance, params)

    def generate_block(self, view):
        self.log.append(view.miner_id)
        if self.draws is not None:
            self.draws.setdefault(view.miner_id, []).append(view.rng.random())
        return self.inner.generate_block(view)

    def publish(self, view):
        return self.inner.publish(view)


def recorded_run(params, proto, plays, seed, draws=None):
    """Run one epoch of ``plays`` (id, balance, strategy name) and return
    its result, the miner selected at each step, and the selections the
    one-draw-per-step oracle makes from the same scheduler stream."""
    log = []
    miners = [
        MinerConfig(m, Fraction(b), StepRecorder(make_strategy(name, proto), log, draws))
        for m, b, name in plays
    ]
    res = run_epoch(Game(params, miners, proto), seed)
    external = {m.id: m.strategy.allocate(m.balance, params).external for m in miners}
    sched, _ = derive_streams(seed, sorted(external))
    return res, log, oracles.scheduler(external, sched, res.steps)


NAKAMOTO_LONG = [("a", 1500, "prescribed"), ("b", 3500, "prescribed")]
NAKAMOTO_LONG_PARAMS = EpochParams(epoch_len=5000, user_balance=Fraction(10**7))


class TestSchedulerStream:
    """The batched scheduler selects exactly the miners that one
    ``random()`` draw per step selects."""

    def test_wasted_steps_each_use_one_draw(self):
        params = EpochParams(
            epoch_len=6, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb_mandatory")
        res, log, expected = recorded_run(
            params, proto, [("a", 2, "prescribed"), ("b", 4, "prescribed")], seed=5
        )
        assert res.steps - res.blocks_created == 3
        assert log == expected

    def test_batch_refills_without_losing_a_draw(self):
        res, log, expected = recorded_run(
            NAKAMOTO_LONG_PARAMS, get_protocol("nakamoto"), NAKAMOTO_LONG, seed=2
        )
        assert res.steps > 4096
        assert log == expected
        # the comparison is sharp: one draw lost or repeated at the first
        # refill shifts the later selections
        sched, _ = derive_streams(2, ["a", "b"])
        picks = oracles.scheduler({"a": 1500, "b": 3500}, sched, len(log) + 1)
        assert log != picks[:4096] + picks[4097:]  # draw 4097 lost
        assert log != picks[:4096] + picks[4095:-2]  # draw 4096 repeated

    def test_epoch_ended_by_batch_publication(self):
        params = EpochParams(
            epoch_len=50, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        res, log, expected = recorded_run(
            params,
            proto,
            [("a", 15, "prescribed"), ("b", 15, "prescribed"), ("w", 20, "pow_only")],
            seed=0,
        )
        # the withholder's 50 blocks, published at once, end the epoch
        assert res.stats["w"] == (50, Fraction(50))
        assert res.main.tip.creator == "w"
        assert res.steps > 64
        assert log == expected


class TestMinerStreams:
    def test_lazy_streams_match_derived_streams(self):
        # every miner draws at each of her steps: the draws from
        # MinerView.rng are those of the streams derive_streams builds
        params = EpochParams(epoch_len=30)
        draws = {}
        plays = [("a", 10, "prescribed"), ("b", 12, "prescribed"), ("c", 8, "prescribed")]
        recorded_run(params, get_protocol("nakamoto"), plays, seed=17, draws=draws)
        _, streams = derive_streams(17, ["a", "b", "c"])
        assert set(draws) == {"a", "b", "c"}
        for m, values in draws.items():
            assert values == [streams[m].random() for _ in values]

    def test_generator_not_built_for_a_miner_that_never_draws(self, monkeypatch):
        built = []
        orig = engine.miner_stream

        def counting(seed, miner_id):
            built.append(miner_id)
            return orig(seed, miner_id)

        monkeypatch.setattr(engine, "miner_stream", counting)
        # a pow_only miner never draws; prescribed Nakamoto miners draw
        # only between two longest chains, which a withholder who never
        # publishes before the epoch ends does not create
        params = EpochParams(epoch_len=10)
        proto = get_protocol("nakamoto")
        drawing = StepRecorder(make_strategy("prescribed", proto), [], {})
        miners = [
            MinerConfig("a", Fraction(6), make_strategy("prescribed", proto)),
            MinerConfig("b", Fraction(3), drawing),
            MinerConfig("w", Fraction(1), make_strategy("pow_only", proto)),
        ]
        res = run_epoch(Game(params, miners, proto), seed=4)
        assert res.stats["a"][0] + res.stats["b"][0] == 10
        assert built == ["b"]

    def test_view_builds_its_generator_once(self):
        from hebsim.chain import BlockStore, genesis_block

        store = BlockStore()
        store.append(genesis_block(0))
        calls = []

        def factory():
            calls.append(1)
            return np.random.default_rng(9)

        view = MinerView(
            "x", store, {}, EpochParams(epoch_len=4),
            Allocation(Fraction(0), Fraction(1)), None, 0, 0, factory,
        )
        assert calls == []
        first = view.rng
        assert view.rng is first
        assert calls == [1]


class TestRunGames:
    def test_no_runs_have_no_statistics(self):
        acc = engine.GameAccumulator(["a"], {"a": 1.0})
        with pytest.raises(ValueError, match="no run was added"):
            acc.stats()

    def test_count_one_equals_single_run(self):
        params = EpochParams(epoch_len=20)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        stats = run_games(params, miners, proto, 1, seed=7)
        children = np.random.SeedSequence(7).spawn(1)
        res = run_epoch(Game(params, miners, proto), children[0])
        assert stats.mean_utility["m0"] == float(res.balances["m0"])
        assert stats.stderr_utility["m0"] == 0.0

    def test_symmetric_miners_agree(self):
        params = EpochParams(epoch_len=20)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        stats = run_games(params, miners, proto, 400, seed=8)
        se = math.hypot(stats.stderr_utility["m0"], stats.stderr_utility["m1"])
        assert abs(stats.mean_utility["m0"] - stats.mean_utility["m1"]) < 3 * se

    def test_nakamoto_expected_blocks(self):
        params = EpochParams(epoch_len=100)
        proto, miners = nakamoto_miners([0.3, 0.7], params)
        stats = run_games(params, miners, proto, 500, seed=9)
        se0 = math.sqrt(100 * 0.3 * 0.7 / 500)
        assert abs(stats.mean_blocks["m0"] - 30) < 3 * se0
        assert abs(stats.mean_blocks["m1"] - 70) < 3 * se0

    def test_csv_shape(self):
        params = EpochParams(epoch_len=10)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        stats = run_games(params, miners, proto, 3, seed=1)
        lines = stats.to_csv().strip().splitlines()
        assert lines[0] == "miner_id,mean_utility,stderr,mean_blocks,mean_weight,external_spend"
        assert len(lines) == 3

    def test_parallel_matches_sequential(self):
        params = EpochParams(epoch_len=20)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        seq = run_games(params, miners, proto, 20, seed=3, jobs=1)
        par = run_games(params, miners, proto, 20, seed=3, jobs=2)
        assert seq.to_csv() == par.to_csv()

    def test_parallel_matches_sequential_heb_withholding(self):
        # stores of forked, withheld Blocks come back from the workers intact
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        balances = normalized_balances([0.3, 0.3, 0.4], params)
        strategies = ("prescribed", "prescribed", "pow_only")
        miners = [
            MinerConfig(m, b, make_strategy(name, proto))
            for m, b, name in zip("abw", balances, strategies)
        ]
        seq = run_games(params, miners, proto, 12, seed=6, jobs=1)
        par = run_games(params, miners, proto, 12, seed=6, jobs=2)
        assert seq.to_csv() == par.to_csv()

    def test_pool_starts_at_most_one_worker_per_run_and_cpu(self, monkeypatch):
        # a stand-in pool records its size and runs in this process
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        params = EpochParams(epoch_len=10)
        proto, miners = nakamoto_miners([0.5, 0.5], params)
        want = run_games(params, miners, proto, 6, seed=2).to_csv()
        for cpus, count, jobs in ((4, 2, 5000), (4, 6, 5000), (4, 6, 3), (None, 6, 5000)):
            monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
            got = run_games(params, miners, proto, count, seed=2, jobs=jobs)
            if count == 6:
                assert got.to_csv() == want
        # an unknown CPU count runs the batch in this process
        assert sizes == [2, 4, 3]


class AllocationCounter:
    """Plays ``inner`` and counts its ``allocate`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.allocations = 0

    def allocate(self, balance, params):
        self.allocations += 1
        return self.inner.allocate(balance, params)

    def generate_block(self, view):
        return self.inner.generate_block(view)

    def publish(self, view):
        return self.inner.publish(view)


class TestGame:
    HEB = EpochParams(
        epoch_len=20, factor=Fraction(20), rho=Fraction(1, 2),
        user_balance=Fraction(10**6),
    )

    def _miners(self):
        proto = get_protocol("heb")
        plays = (("a", 6, "prescribed"), ("b", 6, "prescribed"), ("w", 8, "pow_only"))
        return proto, [
            MinerConfig(m, Fraction(b), AllocationCounter(make_strategy(name, proto)))
            for m, b, name in plays
        ]

    def test_allocate_runs_once_per_miner_per_batch(self):
        proto, miners = self._miners()
        results = list(engine.iter_game_results(self.HEB, miners, proto, 5, seed=3))
        assert len(results) == 5
        assert [m.strategy.allocations for m in miners] == [1, 1, 1]

    def test_batch_equals_runs_of_one_game(self):
        proto, miners = self._miners()
        batch = engine.iter_game_results(self.HEB, miners, proto, 6, seed=8)
        game = Game(self.HEB, miners, proto)
        children = np.random.SeedSequence(8).spawn(6)
        assert [r.to_json() for r in batch] == [
            run_epoch(game, child).to_json() for child in children
        ]

    def test_chained_epochs_share_one_game(self):
        proto, miners = self._miners()
        game = Game(self.HEB, miners, proto)
        store = None
        for k in range(4):
            res = run_epoch(game, seed=k, store=store)
            store = res.store
            assert res.epoch_index == k
            assert res.prefix_ok
            assert sum(n for n, _w in res.stats.values()) == self.HEB.epoch_len
        assert res.main.length >= 4 * self.HEB.epoch_len
        assert [m.strategy.allocations for m in miners] == [1, 1, 1]

    def test_bad_allocation_faults_when_the_game_is_built(self):
        params = EpochParams(epoch_len=5)
        miners = [MinerConfig("x", Fraction(5), BadAllocator())]
        with pytest.raises(StrategyFault, match="allocated"):
            Game(params, miners, get_protocol("nakamoto"))

    def test_strategy_methods_bound_per_run(self, monkeypatch):
        # a strategy class patched after the game is built is seen by the run
        params = EpochParams(epoch_len=5)
        proto = get_protocol("nakamoto")
        game = Game(params, [MinerConfig("x", Fraction(5), ImmediatePublisher())], proto)
        calls = []
        orig = ImmediatePublisher.generate_block

        def counted(self, view):
            calls.append(view.miner_id)
            return orig(self, view)

        monkeypatch.setattr(ImmediatePublisher, "generate_block", counted)
        run_epoch(game, seed=0)
        assert calls == ["x"] * 5


class RandomPlayer:
    """Allocates rho of her balance internally.  Each block extends her
    highest private block, a uniformly chosen public tip or the epoch's
    start tip, and is factored while her quota lasts (regular at random).
    Once she holds ``batch`` private blocks she publishes every one up to a
    random height, a prefix of what she holds.  All draws come from her
    ``view.rng``."""

    def __init__(self, withhold, batch):
        self.withhold = withhold
        self.batch = batch

    def allocate(self, balance, params):
        return Allocation(params.rho * balance, (1 - params.rho) * balance)

    def generate_block(self, view):
        rng = view.rng
        if view.local and rng.random() < self.withhold:
            parent = max(view.local.values(), key=lambda b: b.height).id
        elif rng.random() < 0.2:
            parent = view.epoch_start_tip
        else:
            tips = view.public_tips()
            parent = tips[int(rng.integers(len(tips)))]
        if within_quota(view.factored_used(parent), view.quota_limit) and rng.random() < 0.8:
            return parent, FACTORED
        return parent, REGULAR

    def publish(self, view):
        if len(view.local) < self.batch:
            return []
        heights = sorted({b.height for b in view.local.values()})
        cut = heights[int(view.rng.integers(len(heights)))]
        return sorted(bid for bid, b in view.local.items() if b.height <= cut)


class TestChainedEpochProperties:
    """Chained epochs under random withholding and prefix publication keep
    token conservation, the prefix invariant and the per-epoch quota."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_chained_epochs_keep_invariants(self, data):
        epoch_len = data.draw(st.integers(2, 12), "epoch_len")
        params = EpochParams(
            epoch_len=epoch_len, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        count = data.draw(st.integers(1, 4), "miners")
        # a batch of at most epoch_len // 2 + 2 blocks can overshoot an
        # epoch's end
        miners = [
            MinerConfig(
                f"m{i}",
                # her quota equals her balance: up to a whole epoch of blocks
                Fraction(data.draw(st.integers(1, epoch_len), f"balance {i}")),
                RandomPlayer(
                    data.draw(st.sampled_from([0.0, 0.5, 0.9]), f"withhold {i}"),
                    data.draw(st.integers(1, epoch_len // 2 + 2), f"batch {i}"),
                ),
            )
            for i in range(count)
        ]
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4), "seeds")
        game = Game(params, miners, proto)
        quota = {m.id: params.quota_limit(params.rho * m.balance) for m in miners}
        store, fixed = None, []
        for k, seed in enumerate(seeds):
            res = run_epoch(game, seed, store=store)
            store = res.store
            assert res.epoch_index == k
            # token conservation, exactly
            minted = epoch_len * proto.mint_per_block(params)
            assert sum(res.balances.values()) + res.user_payout == res.internal_total + minted
            # the prefix invariant: the chain up to this epoch's start, and
            # every earlier epoch, stay as they were
            assert res.prefix_ok
            main = [b.id for b in res.main.blocks]
            assert all(main[: len(f)] == f for f in fixed)
            fixed.append(main[: (k + 1) * epoch_len + 1])
            # the per-epoch quota on every epoch so far
            for j in range(k + 1):
                factored = Counter(
                    b.creator for b in epoch_slice(res.main, j, epoch_len) if b.kind == FACTORED
                )
                assert all(n <= quota[m] for m, n in factored.items())


class TestSeedStreams:
    def test_adding_miner_preserves_streams(self):
        sched1, streams1 = derive_streams(42, ["a", "b"])
        sched2, streams2 = derive_streams(42, ["a", "b", "c"])
        assert streams1["a"].random() == streams2["a"].random()
        assert streams1["b"].random() == streams2["b"].random()
        assert sched1.random() == sched2.random()

    def test_distinct_miners_distinct_streams(self):
        _, streams = derive_streams(42, ["a", "b"])
        assert streams["a"].random() != streams["b"].random()


class TestRunGamesClosedFormOracle:
    def test_heb_mean_utility_matches_expected_weight_ratio(self):
        # closed-form oracle: utility = E[w_i] / sum_j E[w_j] * epoch_len,
        # with expected weights from the exact binomial accumulation
        from hebsim import metrics
        from hebsim.protocols import get_protocol, make_strategy

        params = EpochParams(
            epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        shares = [0.2, 0.8]
        balances = normalized_balances(shares, params)
        miners = [
            MinerConfig(f"m{i}", b, make_strategy("prescribed", proto))
            for i, b in enumerate(balances)
        ]
        stats = run_games(params, miners, proto, 5000, seed=55)
        ews = [metrics.expected_weight(s, 10, 20.0) for s in shares]
        for i, m in enumerate(("m0", "m1")):
            oracle = ews[i] / sum(ews) * 10
            se = stats.stderr_utility[m]
            assert abs(stats.mean_utility[m] - oracle) < 3 * se, (m, oracle)

    def test_uniform_five_miners_mean_two(self):
        from hebsim.protocols import get_protocol, make_strategy

        params = EpochParams(
            epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        balances = normalized_balances([0.2] * 5, params)
        miners = [
            MinerConfig(f"m{i}", b, make_strategy("prescribed", proto))
            for i, b in enumerate(balances)
        ]
        stats = run_games(params, miners, proto, 2000, seed=56)
        for m in stats.miner_ids:
            assert abs(stats.mean_utility[m] - 2.0) < 3 * stats.stderr_utility[m]

    def test_external_spend_identity(self):
        # prescribed play spends (1-rho) of every balance externally
        from hebsim.protocols import get_protocol, make_strategy

        params = EpochParams(
            epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        balances = normalized_balances([0.3, 0.7], params)
        miners = [
            MinerConfig(f"m{i}", b, make_strategy("prescribed", proto))
            for i, b in enumerate(balances)
        ]
        stats = run_games(params, miners, proto, 2, seed=57)
        total_ext = sum(stats.external_spend.values())
        assert total_ext == pytest.approx(0.5 * 10)  # (1-rho) * sum(b)
        # per block of the epoch: (1-rho) * mint
        assert total_ext / params.epoch_len == pytest.approx(0.5)


GOLDEN_STORE = """\
{"creator": null, "height": 0, "id": 0, "kind": "regular", "parent": null}
{"creator": "a", "height": 1, "id": 1, "kind": "factored", "parent": 0}
{"creator": "b", "height": 2, "id": 2, "kind": "factored", "parent": 1}
{"creator": "a", "height": 3, "id": 3, "kind": "factored", "parent": 2}
{"creator": "a", "height": 4, "id": 4, "kind": "regular", "parent": 3}
{"creator": "a", "height": 5, "id": 5, "kind": "regular", "parent": 4}"""

GOLDEN_RESULT = (
    '{"balances": {"a": "42000136/12400031", "b": "40000193/24800062"}, '
    '"blocks_created": 5, "epoch_index": 0, "external_total": "5/2", '
    '"internal_total": "5/2", "main_length": 5, "main_tip": 5, '
    '"minted": {"a": "105/31", "b": "50/31"}, "prefix_ok": true, '
    '"redistributed": {"a": "1/400001", "b": "3/800002"}, '
    '"stats": {"a": [4, "42"], "b": [1, "20"]}, "steps": 5, '
    '"user_payout": "1000000/400001"}'
)


# a pow_only miner with 2/5 of the external power withholds 8 blocks from
# the epoch start and publishes them when the honest chain is at height 6
GOLDEN_WITHHOLDING_STORE = """\
{"creator": null, "height": 0, "id": 0, "kind": "regular", "parent": null}
{"creator": "b", "height": 1, "id": 2, "kind": "factored", "parent": 0}
{"creator": "a", "height": 2, "id": 4, "kind": "factored", "parent": 2}
{"creator": "b", "height": 3, "id": 5, "kind": "factored", "parent": 4}
{"creator": "a", "height": 4, "id": 7, "kind": "factored", "parent": 5}
{"creator": "a", "height": 5, "id": 9, "kind": "factored", "parent": 7}
{"creator": "a", "height": 6, "id": 12, "kind": "regular", "parent": 9}
{"creator": "w", "height": 1, "id": 1, "kind": "regular", "parent": 0}
{"creator": "w", "height": 2, "id": 3, "kind": "regular", "parent": 1}
{"creator": "w", "height": 3, "id": 6, "kind": "regular", "parent": 3}
{"creator": "w", "height": 4, "id": 8, "kind": "regular", "parent": 6}
{"creator": "w", "height": 5, "id": 10, "kind": "regular", "parent": 8}
{"creator": "w", "height": 6, "id": 11, "kind": "regular", "parent": 10}
{"creator": "w", "height": 7, "id": 13, "kind": "regular", "parent": 11}
{"creator": "w", "height": 8, "id": 14, "kind": "regular", "parent": 13}"""

GOLDEN_WITHHOLDING_RESULT = (
    '{"balances": {"a": "9/2000006", "b": "9/2000006", "w": "8"}, '
    '"blocks_created": 14, "epoch_index": 0, "external_total": "5", '
    '"internal_total": "3", "main_length": 8, "main_tip": 14, '
    '"minted": {"a": "0", "b": "0", "w": "8"}, "prefix_ok": true, '
    '"redistributed": {"a": "9/2000006", "b": "9/2000006", "w": "0"}, '
    '"stats": {"a": [0, "0"], "b": [0, "0"], "w": [8, "8"]}, '
    '"steps": 14, "user_payout": "3000000/1000003"}'
)


# heb_mandatory, quotas 2 (a) and 4 (b): three of the nine steps select a
# miner whose quota is spent, and each still uses one scheduler draw
GOLDEN_MANDATORY_STORE = """\
{"creator": null, "height": 0, "id": 0, "kind": "regular", "parent": null}
{"creator": "b", "height": 1, "id": 1, "kind": "regular", "parent": 0}
{"creator": "b", "height": 2, "id": 2, "kind": "regular", "parent": 1}
{"creator": "a", "height": 3, "id": 3, "kind": "regular", "parent": 2}
{"creator": "a", "height": 4, "id": 4, "kind": "regular", "parent": 3}
{"creator": "b", "height": 5, "id": 5, "kind": "regular", "parent": 4}
{"creator": "b", "height": 6, "id": 6, "kind": "regular", "parent": 5}"""

GOLDEN_MANDATORY_RESULT = (
    '{"balances": {"a": "2000009/1000003", "b": "4000018/1000003"}, '
    '"blocks_created": 6, "epoch_index": 0, "external_total": "3", '
    '"internal_total": "3", "main_length": 6, "main_tip": 6, '
    '"minted": {"a": "2", "b": "4"}, "prefix_ok": true, '
    '"redistributed": {"a": "3/1000003", "b": "6/1000003"}, '
    '"stats": {"a": [2, "2"], "b": [4, "4"]}, "steps": 9, '
    '"user_payout": "3000000/1000003"}'
)

GOLDEN_NAKAMOTO3_STORE = """\
{"creator": null, "height": 0, "id": 0, "kind": "regular", "parent": null}
{"creator": "c", "height": 1, "id": 1, "kind": "regular", "parent": 0}
{"creator": "c", "height": 2, "id": 2, "kind": "regular", "parent": 1}
{"creator": "c", "height": 3, "id": 3, "kind": "regular", "parent": 2}
{"creator": "a", "height": 4, "id": 4, "kind": "regular", "parent": 3}
{"creator": "c", "height": 5, "id": 5, "kind": "regular", "parent": 4}
{"creator": "b", "height": 6, "id": 6, "kind": "regular", "parent": 5}
{"creator": "a", "height": 7, "id": 7, "kind": "regular", "parent": 6}
{"creator": "c", "height": 8, "id": 8, "kind": "regular", "parent": 7}"""

GOLDEN_NAKAMOTO3_RESULT = (
    '{"balances": {"a": "2", "b": "1", "c": "5"}, "blocks_created": 8, '
    '"epoch_index": 0, "external_total": "8", "internal_total": "0", '
    '"main_length": 8, "main_tip": 8, '
    '"minted": {"a": "2", "b": "1", "c": "5"}, "prefix_ok": true, '
    '"redistributed": {"a": "0", "b": "0", "c": "0"}, '
    '"stats": {"a": [2, "2"], "b": [1, "1"], "c": [5, "5"]}, '
    '"steps": 8, "user_payout": "0"}'
)


class TestGoldenRun:
    def test_frozen_epoch_serialization(self):
        # regression pin: the exact store and result bytes of one small run
        from hebsim.protocols import get_protocol, make_strategy

        params = EpochParams(
            epoch_len=5, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        miners = [
            MinerConfig("a", Fraction(2), make_strategy("prescribed", proto)),
            MinerConfig("b", Fraction(3), make_strategy("prescribed", proto)),
        ]
        res = run_epoch(Game(params, miners, proto), seed=123)
        assert res.store.to_jsonl() == GOLDEN_STORE
        assert res.to_json() == GOLDEN_RESULT
        # quota accounting visible in the golden data: miner a holds
        # exactly two factored blocks, her commitment ceiling
        assert res.stats["a"] == (4, Fraction(42))

    def test_frozen_withholding_epoch(self):
        # regression pin for who publishes when and for pow_only's tip choice
        params = EpochParams(
            epoch_len=8, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb")
        miners = [
            MinerConfig("a", Fraction(3), make_strategy("prescribed", proto)),
            MinerConfig("b", Fraction(3), make_strategy("prescribed", proto)),
            MinerConfig("w", Fraction(2), make_strategy("pow_only", proto)),
        ]
        res = run_epoch(Game(params, miners, proto), seed=0)
        assert res.store.to_jsonl() == GOLDEN_WITHHOLDING_STORE
        assert res.to_json() == GOLDEN_WITHHOLDING_RESULT

    def test_frozen_mandatory_epoch_with_wasted_steps(self):
        params = EpochParams(
            epoch_len=6, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**6),
        )
        proto = get_protocol("heb_mandatory")
        miners = [
            MinerConfig("a", Fraction(2), make_strategy("prescribed", proto)),
            MinerConfig("b", Fraction(4), make_strategy("prescribed", proto)),
        ]
        res = run_epoch(Game(params, miners, proto), seed=5)
        assert res.store.to_jsonl() == GOLDEN_MANDATORY_STORE
        assert res.to_json() == GOLDEN_MANDATORY_RESULT
        assert res.steps - res.blocks_created == 3

    def test_frozen_three_miner_nakamoto_epoch(self):
        params = EpochParams(epoch_len=8)
        proto = get_protocol("nakamoto")
        miners = [
            MinerConfig(m, Fraction(b), make_strategy("prescribed", proto))
            for m, b in (("a", 2), ("b", 3), ("c", 3))
        ]
        res = run_epoch(Game(params, miners, proto), seed=11)
        assert res.store.to_jsonl() == GOLDEN_NAKAMOTO3_STORE
        assert res.to_json() == GOLDEN_NAKAMOTO3_RESULT
