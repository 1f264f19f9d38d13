"""Quota reads: MinerView's per-kind memo of its last public answer and the
store's in-place cursor step give exactly what fresh reads and walks give,
and an honest heb block reads its creator's factored count once."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from hebsim import chain
from hebsim.chain import (
    Allocation,
    Block,
    BlockStore,
    EpochParams,
    FACTORED,
    REGULAR,
    genesis_block,
)
from hebsim.engine import Game, MinerConfig, MinerView, normalized_balances, run_epoch
from hebsim.protocols import get_protocol, make_strategy

PARAMS = EpochParams(epoch_len=10, factor=Fraction(20), rho=Fraction(1, 2))


def make_view(store, local, start_height, start_tip, miner="a"):
    """A fresh view of ``miner``, so with an empty memo."""
    return MinerView(
        miner, store, local, PARAMS, Allocation(Fraction(5), Fraction(5)), 10,
        start_height, start_tip, np.random.default_rng(0),
    )


def walk_counts(store, block_id):
    """{creator: (blocks, factored blocks)} on genesis..block_id, by walking."""
    out = {}
    for b in store.chain_to(block_id).blocks[1:]:
        n, f = out.get(b.creator, (0, 0))
        out[b.creator] = (n + 1, f + (b.kind == FACTORED))
    return out


class TestMemoAndCursor:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reads_match_fresh_views_and_walks(self, seed):
        # a trunk, then two public branches that both cross heights 63-65
        # and 127-129, appended in a seeded interleaving; "a" keeps a
        # private chain from any public block (at or below the epoch start
        # too) and publishes a prefix of it now and then
        rng = random.Random(seed)
        creators = ["a", "b", "c"]
        store = BlockStore()
        store.append(genesis_block(0))
        ids = iter(range(1, 10**6))

        def new_block(parent, creator):
            kind = FACTORED if rng.random() < 0.5 else REGULAR
            return Block(next(ids), parent.id, creator, kind, parent.height + 1)

        tip = store.get(0)
        for _ in range(rng.choice([40, 62])):
            tip = new_block(tip, rng.choice(creators))
            store.append(tip)
        start = store.get(rng.choice([0, 20, tip.id]))
        branches = [tip, tip]
        local: dict[int, Block] = {}
        view = make_view(store, local, start.height, start.id)
        at_start = walk_counts(store, start.id).get("a", (0, 0))

        def check(block_id):
            used = (view.factored_used(block_id), view.blocks_used(block_id))
            # the engine's second read of the same block
            assert (view.factored_used(block_id), view.blocks_used(block_id)) == used
            # the quota rule, by walking: private blocks, then her public
            # ones above the epoch start
            want_f = want_n = 0
            cur = block_id
            while cur in local:
                want_n += 1
                want_f += local[cur].kind == FACTORED
                cur = local[cur].parent
            if store.get(cur).height > start.height:
                n, f = walk_counts(store, cur).get("a", (0, 0))
                want_n += n - at_start[0]
                want_f += f - at_start[1]
            assert used == (want_f, want_n)
            if rng.random() < 0.3:
                fresh = make_view(store, local, start.height, start.id)
                assert (fresh.factored_used(block_id), fresh.blocks_used(block_id)) == used
            if block_id in store:
                counts = walk_counts(store, block_id)
                for m in creators + ["nobody"]:
                    n, f = counts.get(m, (0, 0))
                    assert store.count_by_on_path(block_id, m) == n
                    assert store.factored_by_on_path(block_id, m) == f

        while min(b.height for b in branches) < 130:
            op = rng.random()
            if op < 0.7:
                i = rng.randrange(2)
                if branches[i].height >= 130:
                    continue
                branches[i] = new_block(branches[i], rng.choice(creators))
                store.append(branches[i])
                if rng.random() < 0.8:  # the honest read, at the new tip
                    check(branches[i].id)
            elif op < 0.85:
                if local:
                    parent = max(local.values(), key=lambda b: b.height)
                else:
                    parent = store.get(rng.choice([b.id for b in store.blocks()]))
                b = new_block(parent, "a")
                local[b.id] = b
                check(b.id)
            elif local:
                cut = rng.choice(sorted(b.height for b in local.values()))
                published = sorted(
                    (b for b in local.values() if b.height <= cut), key=lambda b: b.height
                )
                check(published[-1].id)  # read while private, then once public
                for b in published:
                    store.append(b)
                    del local[b.id]
                check(published[-1].id)
            pool = [b.id for b in store.blocks()] + list(local)
            check(rng.choice(pool))

    def test_one_block_steps_add_in_place(self, monkeypatch):
        # honest reads, each one block past the last: the cursor moves only
        # at the first read, for a creator whose slot the row does not reach
        # yet (the first five and "late" at height 100), at a checkpoint and
        # at the reads after it up to the first counted block, which gives
        # the cursor a row of its own again
        moved = []
        move = chain._PathCounts.move

        def recorded(counts, block_id):
            moved.append((counts.kind, counts.blocks[block_id].height))
            return move(counts, block_id)

        monkeypatch.setattr(chain._PathCounts, "move", recorded)
        store = BlockStore()
        store.append(genesis_block(0))
        creators = [f"m{i}" for i in range(5)]
        for h in range(1, 201):
            creator = "late" if h == 100 else creators[h % 5]
            store.append(Block(h, h - 1, creator, FACTORED if h % 3 else REGULAR, h))
            for m in creators + ["late"]:
                store.factored_by_on_path(h, m)
                store.count_by_on_path(h, m)
        steps = {1, 2, 3, 4, 5, 64, 65, 128, 129, 192, 193}
        assert sorted(h for kind, h in moved if kind is None) == sorted(steps | {100})
        # heights 3, 129 and 192 are regular: no new slot at 3, and the
        # factored cursor shares the checkpoint's row until height 130
        assert sorted(h for kind, h in moved if kind == FACTORED) == sorted(
            steps - {3} | {100, 130}
        )
        counts = walk_counts(store, 200)
        for m in creators + ["late"]:
            assert (store.count_by_on_path(200, m), store.factored_by_on_path(200, m)) == counts[m]


def epoch_zero_store():
    """Epoch 0 of ``epoch_len`` 10: "a" made the factored blocks at heights
    3 and 7-10, "b" the regular ones between."""
    store = BlockStore()
    store.append(genesis_block(0))
    for h in range(1, 11):
        mine = h in (3, 7, 8, 9, 10)
        store.append(Block(h, h - 1, "a" if mine else "b", FACTORED if mine else REGULAR, h))
    return store


class TestBelowStartFork:
    """A fork of hers from below the epoch start counts its blocks while
    private but not, or not all, once published.  Recorded as found, not
    changed: no built-in strategy forks below the start, and changing it
    changes the quota rule.  The memo keeps no private answer, so it agrees
    with a fresh view on both sides of the publication."""

    @staticmethod
    def _fork(length):
        store = epoch_zero_store()
        local = {}
        parent = store.get(5)
        for i in range(length):
            b = Block(11 + i, parent.id, "a", FACTORED, parent.height + 1)
            local[b.id] = parent = b
        return store, local, parent.id

    def _private_then_public(self, length):
        store, local, top = self._fork(length)
        view = make_view(store, local, 10, 10)
        private = view.factored_used(top)
        assert make_view(store, local, 10, 10).factored_used(top) == private
        for bid in sorted(local):
            store.append(local.pop(bid))
        public = view.factored_used(top)
        assert make_view(store, local, 10, 10).factored_used(top) == public
        return private, public

    def test_fork_topping_out_below_start_counts_nothing_once_public(self):
        # its top is at height 8, at or below the start height 10
        assert self._private_then_public(3) == (3, 0)

    def test_longer_fork_loses_her_abandoned_blocks_once_public(self):
        # on_path(top) - at_start subtracts her blocks at heights 7-10 on
        # the branch the fork abandons: (1 + 7) - 5
        assert self._private_then_public(7) == (7, 3)


class TestQuotaReadCount:
    def test_one_factored_read_per_honest_block(self, monkeypatch):
        # heb-practical's game, each prescribed strategy in a subclass whose
        # generate_block calls super(): the same play, run in the generic
        # loop.  The engine's check after generate_block reuses the count
        # the strategy has just read
        params = EpochParams(
            epoch_len=1000, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**7),
        )
        proto = get_protocol("heb")

        class Looping(type(make_strategy("prescribed", proto))):
            def generate_block(self, view):
                return super().generate_block(view)

        miners = [
            MinerConfig(f"m{i}", b, Looping())
            for i, b in enumerate(normalized_balances([Fraction(1, 5)] * 5, params))
        ]
        reads = []
        orig = BlockStore.factored_by_on_path

        def counted(store, block_id, creator):
            reads.append(block_id)
            return orig(store, block_id, creator)

        monkeypatch.setattr(BlockStore, "factored_by_on_path", counted)
        res = run_epoch(Game(params, miners, proto), seed=2024)
        assert res.stats and sum(n for n, _ in res.stats.values()) == 1000
        assert 0 < len(reads) <= res.blocks_created + len(miners)
