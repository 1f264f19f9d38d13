"""Prescribed play from genesis: run_epoch's counter path gives byte for
byte what its generic loop gives, runs only when every miner's strategy is
an unpatched prescribed or ``pow_only`` one on a store that holds genesis
alone, and calls no strategy.  A chained epoch runs the generic loop."""

import io
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from hebsim import engine
from hebsim.chain import (
    Block,
    BlockStore,
    EpochParams,
    FACTORED,
    REGULAR,
    _Pending,
    epoch_stats,
    genesis_block,
    within_quota,
)
from hebsim.engine import (
    Game,
    MinerConfig,
    MinerView,
    _quota_kinds,
    _quota_room,
    _withholding_draws,
    derive_streams,
    miner_selector,
    normalized_balances,
    run_epoch,
)
from hebsim.protocols import (
    PowOnly,
    PrescribedHeb,
    ProtocolSpec,
    get_protocol,
    make_strategy,
)

# (protocol, rho): prd's rho sets the share of the mint it redistributes
PROTOCOLS = [
    ("nakamoto", Fraction(0)),
    ("nakamoto_half", Fraction(0)),
    ("prd", Fraction(1, 2)),
    ("heb", Fraction(0)),
    ("heb", Fraction(1, 5)),
    ("heb", Fraction(1, 2)),
]
SHARES = {"a": Fraction(1, 2), "b": Fraction(3, 10), "c": Fraction(1, 5)}
PLAYERS = {
    "prescribed": {"a": "prescribed", "b": "prescribed", "c": "prescribed"},
    "mixed": {"a": "prescribed", "b": "no_ic", "c": "prescribed"},
}
WITHHOLDING = {
    "one": {"a": "prescribed", "b": "prescribed", "c": "pow_only"},
    "big": {"a": "pow_only", "b": "no_ic", "c": "prescribed"},
    "two": {"a": "pow_only", "b": "prescribed", "c": "pow_only"},
    "all": {"a": "pow_only", "b": "pow_only", "c": "pow_only"},
}


def looping(strategy):
    """``strategy`` in a subclass whose ``generate_block`` only calls
    ``super()``: the same play, which the engine runs in its generic loop."""

    class Looping(type(strategy)):
        def generate_block(self, view):
            return super().generate_block(view)

    return Looping()


def make_game(protocol, rho, plays, epoch_len, generic=False, shares=SHARES):
    params = EpochParams(
        epoch_len=epoch_len, factor=Fraction(20), rho=rho, user_balance=Fraction(10**7)
    )
    proto = get_protocol(protocol)
    ids = sorted(plays)
    balances = normalized_balances(
        [shares[m] for m in ids], params, allow_fractional=True
    )
    miners = []
    for m, balance in zip(ids, balances):
        strategy = make_strategy(plays[m], proto)
        miners.append(MinerConfig(m, balance, looping(strategy) if generic else strategy))
    return Game(params, miners, proto)


@pytest.fixture
def tip_reads(monkeypatch):
    """Calls of ``MinerView.public_tips``: every prescribed strategy call
    makes one, and the counter path makes none."""
    calls = []
    orig = MinerView.public_tips

    def counted(view):
        calls.append(view.miner_id)
        return orig(view)

    monkeypatch.setattr(MinerView, "public_tips", counted)
    return calls


@pytest.fixture
def appends(monkeypatch):
    """Ids of the blocks ``BlockStore.append`` takes, genesis aside: the
    generic loop stores each published block so, the counter path none."""
    calls = []
    orig = BlockStore.append

    def counted(store, block):
        if block.parent is not None:
            calls.append(block.id)
        return orig(store, block)

    monkeypatch.setattr(BlockStore, "append", counted)
    return calls


@pytest.fixture
def store_calls(monkeypatch):
    """Names of the ``BlockStore.append``/``extend`` calls, in call order."""
    calls = []
    for name in ("append", "extend"):
        orig = getattr(BlockStore, name)

        def counted(self, *args, name=name, orig=orig):
            calls.append(name)
            return orig(self, *args)

        monkeypatch.setattr(BlockStore, name, counted)
    return calls


def genesis_store():
    store = BlockStore()
    store.append(genesis_block(0))
    return store


def chained(game, seeds, store=None):
    """``to_json()`` of the epochs run on one store, one per seed, then the
    store's ``to_jsonl()``: it holds every epoch's blocks in append order."""
    out = []
    for seed in seeds:
        res = run_epoch(game, seed, store)
        store = res.store
        out.append(res.to_json())
    return out + [store.to_jsonl()]


def two_tip_store(seed):
    """A store after one 20-block heb epoch, plus two blocks on its tip."""
    game = make_game("heb", Fraction(1, 2), PLAYERS["prescribed"], 20)
    store = run_epoch(game, seed).store
    tip = store.get(store.tip_ids()[0])
    for i, creator in enumerate(("a", "b")):
        store.append(Block(1000 + i, tip.id, creator, FACTORED, tip.height + 1))
    assert len(store.tip_ids()) == 2
    return store


class TestDifferential:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("epoch_len", [1, 63, 64, 65, 4097])
    @pytest.mark.parametrize("players", sorted(PLAYERS))
    @pytest.mark.parametrize("protocol, rho", PROTOCOLS)
    def test_three_chained_epochs_match_the_generic_loop(
        self, protocol, rho, players, epoch_len, seed, tip_reads
    ):
        seeds = [seed * 10 + i for i in range(3)]
        plays = PLAYERS[players]
        counted = chained(make_game(protocol, rho, plays, epoch_len), seeds)
        # the first epoch calls no strategy; the two chained ones run the
        # generic loop
        assert len(tip_reads) == 2 * epoch_len
        looped = chained(make_game(protocol, rho, plays, epoch_len, generic=True), seeds)
        assert len(tip_reads) == 5 * epoch_len
        assert counted == looped

    @pytest.mark.parametrize("epoch_len", [1, 63, 64, 65, 4097])
    @pytest.mark.parametrize("players", sorted(WITHHOLDING))
    @pytest.mark.parametrize("protocol, rho", PROTOCOLS)
    def test_withholders_match_the_generic_loop(
        self, protocol, rho, players, epoch_len, tip_reads, appends
    ):
        plays = WITHHOLDING[players]
        game = make_game(protocol, rho, plays, epoch_len)
        first = run_epoch(game, 7)
        assert tip_reads == [] and appends == []
        # the chained epochs run the generic loop, which appends
        counted = [first.to_json(), *chained(game, [8, 9], first.store)]
        assert appends
        looped = chained(make_game(protocol, rho, plays, epoch_len, generic=True), [7, 8, 9])
        assert counted == looped

    @pytest.mark.parametrize("seed", range(3))
    def test_a_withholder_who_wins(self, seed):
        # "a" withholds at 1/2 of the external spend against 1/4: her chain
        # replaces the publishing miners' one
        plays = WITHHOLDING["big"]
        counted = chained(make_game("heb", Fraction(1, 2), plays, 100), [seed, seed + 1])
        looped = chained(
            make_game("heb", Fraction(1, 2), plays, 100, generic=True), [seed, seed + 1]
        )
        assert counted == looped
        for epoch in counted[:2]:
            assert json.loads(epoch)["stats"]["a"][0] == 100

    @pytest.mark.parametrize("seed", range(3))
    def test_a_withholder_who_loses(self, seed):
        # "c" withholds at 1/5 of the external spend: her blocks stay private
        plays = WITHHOLDING["one"]
        counted = chained(make_game("nakamoto", Fraction(0), plays, 100), [seed, seed + 1])
        looped = chained(
            make_game("nakamoto", Fraction(0), plays, 100, generic=True), [seed, seed + 1]
        )
        assert counted == looped
        for epoch in counted[:2]:
            res = json.loads(epoch)
            assert res["stats"]["c"][0] == 0
            assert res["blocks_created"] > 100
        assert '"creator": "c"' not in counted[-1]

    def test_withholders_past_the_step_cap_raise_as_the_generic_loop_does(self):
        # 500 equal withholders: none holds 20 blocks within the loop's
        # 1000 + 100 * 20 steps
        plays = {f"w{i:03d}": "pow_only" for i in range(500)}
        shares = dict.fromkeys(plays, Fraction(1, 500))
        for generic in (False, True):
            game = make_game("nakamoto", Fraction(0), plays, 20, generic, shares)
            with pytest.raises(RuntimeError, match="within 3000 scheduler steps"):
                run_epoch(game, seed=1)


class TestMainChain:
    PLAYS = {**PLAYERS, **WITHHOLDING}

    @pytest.mark.parametrize("epoch_len", [1, 63, 64, 65, 4097])
    @pytest.mark.parametrize("players", sorted(PLAYS))
    @pytest.mark.parametrize("protocol, rho", PROTOCOLS)
    def test_is_the_walk_over_the_built_store(self, protocol, rho, players, epoch_len):
        # each of three chained epochs: on a copy of the result, so that the
        # next epoch runs on a store no test read built, the main chain is
        # the store's own after a full build, block for block the same objects
        game = make_game(protocol, rho, self.PLAYS[players], epoch_len)
        store = None
        for seed in (4, 5, 6):
            res = run_epoch(game, seed, store)
            store = res.store
            main, built = pickle.loads(pickle.dumps((res.main, store)))
            stored = {b.id: b for b in built.blocks()}
            assert main == built.main_chain() == res.main
            assert all(stored[b.id] is b for b in main)


class WithholdPast(PrescribedHeb):
    """Extends one private chain of factored blocks from the epoch's start
    and publishes all of it once she holds ``epoch_len + extra`` blocks."""

    extra = 10

    def generate_block(self, view):
        parent = next(reversed(view.local)) if view.local else view.epoch_start_tip
        return parent, FACTORED

    def publish(self, view):
        if len(view.local) < view.params.epoch_len + self.extra:
            return []
        return sorted(view.local)


class TestStartingStores:
    def test_factored_blocks_published_past_the_end_count_in_the_next_epoch(
        self, tip_reads
    ):
        # epoch 0: "w" alone, at rho 0 (no quota), publishes 30 factored
        # blocks; the last 10 already belong to epoch 1, where "w" plays
        # prescribed with a quota of 10 factored blocks
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(0),
            user_balance=Fraction(10**7),
        )
        proto = get_protocol("heb")
        withheld = run_epoch(
            Game(params, [MinerConfig("w", Fraction(20), WithholdPast())], proto), seed=0
        ).store
        assert withheld.main_chain_length() == 30
        plays = {"a": "prescribed", "b": "no_ic", "w": "prescribed"}
        shares = {"a": Fraction(3, 10), "b": Fraction(1, 5), "w": Fraction(1, 2)}
        counted_game, looped_game = (
            make_game("heb", Fraction(1, 2), plays, 20, generic, shares)
            for generic in (False, True)
        )
        assert counted_game.quota_limits["w"] == 10

        main = withheld.main_chain()
        view = MinerView(
            "w", withheld, {}, counted_game.params, counted_game.allocations["w"],
            10, 20, main.blocks[20].id, np.random.default_rng(0),
        )
        assert view.factored_used(main.tip.id) == 10

        copy = BlockStore.from_jsonl(withheld.to_jsonl())
        counted = chained(counted_game, [5, 6], withheld)
        assert tip_reads  # a store past genesis runs the generic loop
        looped = chained(looped_game, [5, 6], copy)
        assert counted == looped
        # epoch 1 holds her 10 withheld factored blocks, then she mined only
        # regular ones: her quota was spent
        n, weight = json.loads(counted[0])["stats"]["w"]
        assert n > 10 and weight == str(10 * 20 + n - 10)

    @pytest.mark.parametrize("players", sorted(WITHHOLDING))
    def test_withholders_on_a_tip_above_the_epoch_start(self, players, appends):
        # epoch 1 starts at height 20 with the tip at 30: publishing miners
        # extend the tip, withholders the block at 20
        params = EpochParams(
            epoch_len=20, factor=Fraction(20), rho=Fraction(0),
            user_balance=Fraction(10**7),
        )
        proto = get_protocol("heb")
        withheld = run_epoch(
            Game(params, [MinerConfig("w", Fraction(20), WithholdPast())], proto), seed=0
        ).store
        assert withheld.main_chain_length() == 30
        copy = BlockStore.from_jsonl(withheld.to_jsonl())
        del appends[:]
        # "c" plays as "w", so the withheld blocks' creator is in the game
        plays = {m.replace("c", "w"): play for m, play in WITHHOLDING[players].items()}
        shares = {m.replace("c", "w"): share for m, share in SHARES.items()}
        counted_game, looped_game = (
            make_game("heb", Fraction(1, 2), plays, 20, generic, shares)
            for generic in (False, True)
        )
        counted = chained(counted_game, [5, 6, 7], withheld)
        assert appends  # a store past genesis runs the generic loop
        looped = chained(looped_game, [5, 6, 7], copy)
        assert counted == looped

    @pytest.mark.parametrize("seed", range(4))
    def test_two_tips_at_the_start_run_the_generic_loop(self, seed, tip_reads):
        plays = PLAYERS["prescribed"]
        counted_game, looped_game = (
            make_game("heb", Fraction(1, 2), plays, 20, generic) for generic in (False, True)
        )
        counted_store, looped_store = two_tip_store(seed), two_tip_store(seed)
        counted = chained(counted_game, [seed + 100, seed + 101], counted_store)
        assert tip_reads  # the first step of a two-tip epoch calls the strategy
        looped = chained(looped_game, [seed + 100, seed + 101], looped_store)
        assert counted == looped


def heb_practical_game():
    """``heb-practical``'s game: five equal prescribed miners under heb."""
    params = EpochParams(
        epoch_len=1000, factor=Fraction(20), rho=Fraction(1, 2),
        user_balance=Fraction(10**7),
    )
    proto = get_protocol("heb")
    miners = [
        MinerConfig(f"m{i}", b, make_strategy("prescribed", proto))
        for i, b in enumerate(normalized_balances([Fraction(1, 5)] * 5, params))
    ]
    return Game(params, miners, proto)


class TestPathTaken:
    def test_heb_practical_reads_each_miners_factored_count_once(self, monkeypatch):
        game = heb_practical_game()
        reads = []
        orig = MinerView.factored_used

        def counted(view, parent_id):
            reads.append(view.miner_id)
            return orig(view, parent_id)

        monkeypatch.setattr(MinerView, "factored_used", counted)
        res = run_epoch(game, seed=2024)
        assert res.steps == res.blocks_created == 1000
        assert len(reads) <= len(game.miners)

    def test_a_class_patched_before_the_run_is_called_every_step(self, monkeypatch):
        game = heb_practical_game()
        expected = run_epoch(game, seed=2024).to_json()
        calls = []
        orig = PrescribedHeb.generate_block

        def counted(self, view):
            calls.append(view.miner_id)
            return orig(self, view)

        monkeypatch.setattr(PrescribedHeb, "generate_block", counted)
        res = run_epoch(game, seed=2024)
        assert len(calls) == game.params.epoch_len
        assert res.to_json() == expected

    @pytest.mark.parametrize(
        "protocol, strategy",
        [
            ("heb", "petty_compliant"),
            ("heb_mandatory", "prescribed"),
        ],
    )
    def test_other_play_runs_the_generic_loop(self, protocol, strategy, tip_reads):
        plays = {"a": strategy, "b": "prescribed", "c": "prescribed"}
        run_epoch(make_game(protocol, Fraction(1, 2), plays, 50), seed=1)
        assert tip_reads

    def test_pow_only_runs_without_strategy_calls(self, tip_reads, appends):
        plays = {"a": "pow_only", "b": "prescribed", "c": "prescribed"}
        res = run_epoch(make_game("heb", Fraction(1, 2), plays, 50), seed=1)
        assert res.steps > 50
        assert tip_reads == [] and appends == []

    @staticmethod
    def withholder_steps(game, seed, res, miner_id):
        """How many of ``res``'s steps selected ``miner_id``."""
        sched_rng, _ = derive_streams(seed, [])
        return game.select(sched_rng, res.steps).count(miner_id)

    def test_a_patched_pow_only_class_is_called_every_step(self, monkeypatch, tip_reads):
        plays = {"a": "pow_only", "b": "prescribed", "c": "prescribed"}
        game = make_game("heb", Fraction(1, 2), plays, 50)
        expected = run_epoch(game, seed=1).to_json()
        assert tip_reads == []  # unpatched, it takes the counter path
        calls = []
        orig = PowOnly.generate_block

        def counted(self, view):
            calls.append(view.miner_id)
            return orig(self, view)

        monkeypatch.setattr(PowOnly, "generate_block", counted)
        res = run_epoch(game, seed=1)
        assert res.to_json() == expected
        assert len(calls) == self.withholder_steps(game, 1, res, "a") > 0
        assert len(calls) + len(tip_reads) == res.steps

    def test_a_pow_only_subclass_overriding_publish_is_called_every_step(self, tip_reads):
        calls = []

        class Polled(PowOnly):
            def publish(self, view):
                calls.append(view.miner_id)
                return super().publish(view)

        plays = {"a": "pow_only", "b": "prescribed", "c": "prescribed"}
        game = make_game("heb", Fraction(1, 2), plays, 50)
        expected = run_epoch(game, seed=1).to_json()
        assert tip_reads == []  # with PowOnly's publish, it takes the counter path
        game.miners[0].strategy = Polled()  # "a", the first id
        res = run_epoch(game, seed=1)
        assert res.to_json() == expected
        hers = self.withholder_steps(game, 1, res, "a")
        assert len(tip_reads) == res.steps - hers
        # polled after each of her blocks, and after the others' once she holds one
        assert len(calls) >= hers > 0


def takeover_game(protocol, shares):
    """A 1,000-block takeover game: a ``pow_only`` "w" at ``shares[0]``
    against prescribed miners at the others."""
    params = EpochParams(
        epoch_len=1000, factor=Fraction(20), rho=Fraction(1, 2),
        user_balance=Fraction(10**7),
    )
    proto = get_protocol(protocol)
    balances = normalized_balances(shares, params)
    miners = [MinerConfig("w", balances[0], make_strategy("pow_only", proto))] + [
        MinerConfig(f"p{i}", b, make_strategy("prescribed", proto))
        for i, b in enumerate(balances[1:])
    ]
    return Game(params, miners, proto)


class NoBlocks(pickle.Unpickler):
    """An unpickler that refuses to make a ``Block``."""

    def find_class(self, module, name):
        if (module, name) == ("hebsim.chain", "Block"):
            raise pickle.UnpicklingError("the pickle holds a Block")
        return super().find_class(module, name)


def no_build(monkeypatch):
    """Make every build of stored Blocks raise."""

    def build(*args):
        raise AssertionError("Blocks built")

    monkeypatch.setattr(BlockStore, "_build", build)
    monkeypatch.setattr(_Pending, "blocks", build)


class TestCountSettlement:
    """A fresh-store epoch on the strategy-free path settles from the
    selection counts and builds no Block; its main chain stays pinned."""

    PLAYS = {**PLAYERS, **WITHHOLDING}

    @pytest.mark.parametrize("epoch_len", [1, 63, 64, 65, 4097])
    @pytest.mark.parametrize("players", sorted(PLAYS))
    @pytest.mark.parametrize("protocol, rho", PROTOCOLS)
    def test_settles_unbuilt_as_the_main_chain_does(
        self, protocol, rho, players, epoch_len, monkeypatch
    ):
        game = make_game(protocol, rho, self.PLAYS[players], epoch_len)
        no_build(monkeypatch)
        res = run_epoch(game, 12)
        res.to_json()
        stored = len(res.store)
        assert res.main.length == epoch_len == res.main.tip.height
        monkeypatch.undo()
        assert stored == len(list(res.store.blocks()))
        main = res.store.main_chain()
        assert res.main.tip == main.tip
        expected = epoch_stats(main, 0, game.params)
        for m in game.ids:
            expected.setdefault(m, (0, Fraction(0)))
        assert res.stats == expected

    GAMES = {  # a game, and the withholder's blocks on its main chain
        "won": (lambda: takeover_game("heb", [Fraction(2, 5)] + [Fraction(3, 20)] * 4), 1000),
        "lost": (lambda: takeover_game("nakamoto", [Fraction(1, 5)] * 5), 0),
        "heb-practical": (heb_practical_game, None),
    }

    @pytest.mark.parametrize("shape", sorted(GAMES))
    def test_an_unread_result_pickles_no_blocks(self, shape):
        make, withheld = self.GAMES[shape]
        res = run_epoch(make(), 5)
        if withheld is not None:
            assert res.stats["w"][0] == withheld
        data = pickle.dumps(res)
        assert len(data) <= 16_000  # 37.5 kB for a won takeover with Blocks
        back = NoBlocks(io.BytesIO(data)).load()
        assert back.to_json() == res.to_json()
        assert back.store.to_jsonl() == res.store.to_jsonl()
        assert back.main == res.main
        stored = {b.id: b for b in back.store.blocks()}
        assert all(stored[b.id] is b for b in back.main)

    @pytest.mark.parametrize("read_main", [False, True])
    @pytest.mark.parametrize("shape", sorted(GAMES))
    def test_a_built_result_pickles_its_blocks_once(self, shape, read_main):
        # once the store has built the main chain, the chain drops its
        # pending record: the result pickles those blocks as the store's
        make, _ = self.GAMES[shape]
        res = run_epoch(make(), 1)
        if read_main:
            assert res.main.blocks[-1] == res.main.tip
        res.store.get(0)
        data = pickle.dumps(res)
        assert len(data) <= len(pickle.dumps(res.store)) + 1024
        back = pickle.loads(data)
        assert back.to_json() == res.to_json()
        assert back.store.to_jsonl() == res.store.to_jsonl()
        assert back.main == res.main and back.main.tip == res.main.tip
        stored = {b.id: b for b in back.store.blocks()}
        assert all(stored[b.id] is b for b in back.main)

    @pytest.mark.parametrize("players", sorted(PLAYS))
    def test_the_main_chain_stays_pinned_to_its_epoch(self, players):
        game = make_game("heb", Fraction(1, 2), self.PLAYS[players], 65)
        first = run_epoch(game, 21)
        tip = json.loads(first.to_json())["main_tip"]
        store = first.store
        for seed in (22, 23):
            store = run_epoch(game, seed, store).store
        assert store.main_chain_length() == 3 * 65
        main, walked = first.main, store.chain_to(tip)
        assert main.length == 65 and main.tip.id == tip
        assert len(main.blocks) == len(walked.blocks) == 66
        assert all(a is b for a, b in zip(main, walked))


class TestStoreCalls:
    def test_heb_practical_epoch_extends_the_store_once(self, monkeypatch):
        game = heb_practical_game()
        store = BlockStore()
        store.append(genesis_block(0))
        calls = []
        for name in ("append", "extend"):
            orig = getattr(BlockStore, name)

            def counted(self, *args, name=name, orig=orig):
                calls.append(name)
                return orig(self, *args)

            monkeypatch.setattr(BlockStore, name, counted)
        res = run_epoch(game, seed=2024, store=store)
        assert res.steps == res.blocks_created == 1000
        assert calls == ["extend"]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_won_takeover_epoch_extends_twice(self, seed, store_calls):
        game = make_game("heb", Fraction(1, 2), WITHHOLDING["big"], 100)
        store = genesis_store()
        del store_calls[:]
        res = run_epoch(game, seed, store)
        assert res.stats["a"][0] == 100  # her chain is the epoch
        assert store_calls == ["extend", "extend"]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_lost_takeover_epoch_extends_once(self, seed, store_calls):
        game = make_game("nakamoto", Fraction(0), WITHHOLDING["one"], 100)
        store = genesis_store()
        del store_calls[:]
        res = run_epoch(game, seed, store)
        assert res.stats["c"][0] == 0 and res.blocks_created > 100
        assert store_calls == ["extend"]

    @pytest.mark.parametrize("players", [PLAYERS["prescribed"], {
        "a": "pow_only", "b": "prescribed", "c": "prescribed"}])
    def test_chained_epochs_do_not_scan_the_store(self, players, monkeypatch):
        # the next block id comes from the store's largest id, not from a
        # pass over every block stored
        game = make_game("heb", Fraction(1, 2), players, 30)
        expected = chained(game, [1, 2, 3])

        def scan(self):
            raise AssertionError("BlockStore.blocks called")

        monkeypatch.setattr(BlockStore, "blocks", scan)
        store = None
        out = []
        for seed in (1, 2, 3):
            res = run_epoch(game, seed, store)
            store = res.store
            out.append(res.to_json())
            assert store.max_id == max(json.loads(b)["id"] for b in store.to_jsonl().split("\n"))
        monkeypatch.undo()
        assert out + [store.to_jsonl()] == expected


class TestGenesisOnlyStores:
    """Only a store that holds genesis alone runs strategy-free: a caller's
    such store runs and settles from the counts as ``store=None`` does, and
    an epoch on a store past genesis calls the strategies."""

    PLAYS = {**PLAYERS, **WITHHOLDING}

    @pytest.mark.parametrize("players", sorted(PLAYS))
    @pytest.mark.parametrize("protocol, rho", PROTOCOLS)
    def test_a_callers_genesis_store_runs_as_none_does(
        self, protocol, rho, players, monkeypatch, tip_reads
    ):
        game = make_game(protocol, rho, self.PLAYS[players], 65)
        settle = engine.epoch_stats

        def refuse(*args):
            raise AssertionError("settled by epoch_stats")

        monkeypatch.setattr(engine, "epoch_stats", refuse)
        fresh, given = run_epoch(game, 31), run_epoch(game, 31, genesis_store())
        assert tip_reads == []
        assert given.to_json() == fresh.to_json()
        assert given.store.to_jsonl() == fresh.store.to_jsonl()
        monkeypatch.setattr(engine, "epoch_stats", settle)
        if players != "all":  # pow_only reads no tip
            run_epoch(game, 32, given.store)
            assert tip_reads


# -- the per-step stop rule and quota counter, kept as oracles ----------------


def stepwise_draws(select, rng, need, withholders, epoch_len):
    """The selections up to the step that ends a one-tip epoch, and the
    withholder who ended it or None, scanned one step at a time."""
    left = dict.fromkeys(withholders, epoch_len)  # blocks each still misses
    picks = []
    while True:
        batch = select(rng, min(max(need, 64), 4096))
        for i, mid in enumerate(batch):
            if mid in left:
                left[mid] -= 1
                if not left[mid]:
                    return picks + batch[: i + 1], mid
            else:
                need -= 1
                if not need:
                    return picks + batch[: i + 1], None
        picks += batch


def counted_kinds(selected, used, limits):
    """Each selected miner's block kind by a per-miner ``within_quota``
    counter: ``used`` holds the makers of factored blocks."""
    used = dict(used)
    kinds = [REGULAR] * len(selected)
    for i, mid in enumerate(selected):
        if mid in used and within_quota(used[mid], limits[mid]):
            used[mid] += 1
            kinds[i] = FACTORED
    return kinds


class Recorded:
    """A scheduler stream that records the size of each ``random`` call.
    With ``script``, a list of miner ids, its first uniforms select those
    miners under ``EQUAL``; the rest come from ``default_rng(seed)``."""

    def __init__(self, seed, script=()):
        self.rng = np.random.default_rng(seed)
        self.script = [EQUAL_UNIFORM[m] for m in script]
        self.sizes = []

    def random(self, n):
        self.sizes.append(n)
        head, self.script = self.script[:n], self.script[n:]
        return np.concatenate([head, self.rng.random(n - len(head))])


EQUAL = miner_selector(dict.fromkeys("abc", 1))
EQUAL_UNIFORM = {"a": 1 / 6, "b": 1 / 2, "c": 5 / 6}


def assert_draws_match(select, need, withholders, epoch_len, seed, script=()):
    """The vectorised stop rule selects what the per-step one does, from the
    same uniforms in the same batches; returns the oracle's answer."""
    names = select.names.tolist()
    held = np.array([m in withholders for m in names])
    new, old = Recorded(seed, script), Recorded(seed, script)
    indices, winner = _withholding_draws(select, new, need, held, epoch_len)
    picks, won = stepwise_draws(select, old, need, withholders, epoch_len)
    assert select.names[indices].tolist() == picks
    assert (None if winner is None else names[winner]) == won
    assert new.sizes == old.sizes
    return picks, won


class TestStopRule:
    SELECT = miner_selector({"a": 5, "b": 3, "c": 2})

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("epoch_len", [1, 64, 4097])
    @pytest.mark.parametrize("need", [1, 63, 64, 65, 4096, 4097])
    @pytest.mark.parametrize("withholders", ["c", "a", "ac", "abc"])
    def test_matches_the_per_step_scan(self, withholders, need, epoch_len, seed):
        assert_draws_match(self.SELECT, need, list(withholders), epoch_len, seed)

    @pytest.mark.parametrize("script, won", [
        ("cacaca", "c"),  # her 3rd block comes one step before theirs
        ("acacac", None),  # theirs comes one step before hers
    ])
    def test_a_publisher_and_a_withholder_finish_in_one_batch(self, script, won):
        picks, winner = assert_draws_match(EQUAL, 3, ["c"], 3, 0, script)
        assert winner == won and "".join(picks) == script[:5]

    @pytest.mark.parametrize("script, won", [("acacca", "c"), ("acacac", "a")])
    def test_two_withholders_finish_in_one_batch(self, script, won):
        picks, winner = assert_draws_match(EQUAL, 100, ["a", "c"], 3, 0, script)
        assert winner == won and "".join(picks) == script[:5]

    def test_the_epoch_ends_in_a_later_batch(self):
        # 63 of the publisher's blocks in the first batch of 64, and the
        # withholder's first: the second batch, of 64, ends at its first step
        script = "a" * 63 + "c" + "a"
        picks, winner = assert_draws_match(EQUAL, 64, ["c"], 2, 0, script)
        assert winner is None and len(picks) == 65


class TestQuotaKinds:
    NAMES = ["a", "b", "c", "d"]

    def assert_kinds_match(self, selected, makers, limits):
        index = {m: i for i, m in enumerate(self.NAMES)}
        room = _quota_room(
            len(selected),
            [m in makers for m in self.NAMES],
            [limits.get(m) for m in self.NAMES],
        )
        kinds = _quota_kinds(np.array([index[m] for m in selected], dtype=np.intp), room)
        assert kinds == counted_kinds(selected, dict.fromkeys(makers, 0), limits)
        return kinds

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_per_miner_counter(self, seed):
        rng = np.random.default_rng(seed)
        selected = rng.choice(self.NAMES, int(rng.integers(1, 400))).tolist()
        makers = [m for m in self.NAMES if rng.random() < 0.75]
        limits = {m: rng.choice([None, 0, 3, 10, 40, 200]) for m in makers}
        self.assert_kinds_match(selected, makers, limits)

    @pytest.mark.parametrize("limit, factored", [
        (3, 3),  # her first three
        (None, 6),  # no limit: all of hers
        (0, 0),
    ])
    def test_a_makers_quota_left(self, limit, factored):
        selected = list("abacabaabcab")
        kinds = self.assert_kinds_match(selected, ["a", "c"], {"a": limit, "c": 1})
        hers = [k for m, k in zip(selected, kinds) if m == "a"]
        assert hers == [FACTORED] * factored + [REGULAR] * (len(hers) - factored)
        assert [k for m, k in zip(selected, kinds) if m == "c"] == [FACTORED, REGULAR]


def withheld_store():
    """A store where ``WithholdPast`` miner "w", alone at rho 0, published
    30 factored blocks: the last 10 already belong to epoch 1."""
    params = EpochParams(
        epoch_len=20, factor=Fraction(20), rho=Fraction(0), user_balance=Fraction(10**7)
    )
    game = Game(params, [MinerConfig("w", Fraction(20), WithholdPast())], get_protocol("heb"))
    store = run_epoch(game, seed=0).store
    assert store.main_chain_length() == 30
    return store


class TestQuotaLeft:
    def test_a_maker_with_quota_left_after_published_blocks(self, tip_reads):
        # "w" starts epoch 1 with 10 of her 15 factored blocks used
        plays = {"a": "prescribed", "b": "no_ic", "w": "prescribed"}
        shares = {"a": Fraction(1, 5), "b": Fraction(1, 20), "w": Fraction(3, 4)}
        counted_game, looped_game = (
            make_game("heb", Fraction(1, 2), plays, 20, generic, shares)
            for generic in (False, True)
        )
        assert counted_game.quota_limits["w"] == 15
        store = withheld_store()
        copy = BlockStore.from_jsonl(store.to_jsonl())
        counted = chained(counted_game, [6, 7], store)
        assert tip_reads  # a store past genesis runs the generic loop
        assert counted == chained(looped_game, [6, 7], copy)
        # five more factored blocks, then regular ones
        n, weight = json.loads(counted[0])["stats"]["w"]
        assert n > 15 and weight == str(15 * 20 + n - 15)


class TestForeignCreators:
    @pytest.mark.parametrize("generic", [False, True])
    def test_epoch_blocks_by_a_creator_outside_the_game_are_named(
        self, generic, monkeypatch
    ):
        # epoch 1 of the store holds 10 blocks by "w", who is not one of a,
        # b and c: no miner of the game is paid for them
        game = make_game("heb", Fraction(1, 2), PLAYERS["prescribed"], 20, generic)
        store = withheld_store()
        settled = []
        monkeypatch.setattr(
            ProtocolSpec, "balance_fn", lambda *args: settled.append(args)
        )
        with pytest.raises(ValueError, match=r"^epoch 1 holds blocks by .*: 'w'$"):
            run_epoch(game, 5, store)
        assert settled == []
