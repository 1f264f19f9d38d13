import pickle
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hebsim.chain import (
    Block,
    BlockStore,
    Chain,
    ChainError,
    EpochParams,
    FACTORED,
    REGULAR,
    epoch_slice,
    epoch_stats,
    genesis_block,
)


def build_store(edges):
    """edges: list of (id, parent, creator, kind). Genesis is block 0."""
    store = BlockStore()
    store.append(genesis_block(0))
    heights = {0: 0}
    for bid, parent, creator, kind in edges:
        heights[bid] = heights[parent] + 1
        store.append(Block(bid, parent, creator, kind, heights[bid]))
    return store


def brute_force_longest_tips(store):
    """Independent oracle: enumerate all root-to-leaf paths by DFS."""
    children = {}
    for b in store.blocks():
        if b.parent is not None:
            children.setdefault(b.parent, []).append(b.id)
    paths = []

    def dfs(node, path):
        kids = children.get(node, [])
        if not kids:
            paths.append(list(path))
            return
        for k in kids:
            path.append(k)
            dfs(k, path)
            path.pop()

    dfs(store.genesis_id, [store.genesis_id])
    top = max(len(p) for p in paths)
    return sorted(p[-1] for p in paths if len(p) == top)


def brute_force_main_prefix(store):
    children = {}
    for b in store.blocks():
        if b.parent is not None:
            children.setdefault(b.parent, []).append(b.id)
    paths = []

    def dfs(node, path):
        kids = children.get(node, [])
        if not kids:
            paths.append(list(path))
            return
        for k in kids:
            dfs(k, path + [k])

    dfs(store.genesis_id, [store.genesis_id])
    top = max(len(p) for p in paths)
    longest = [p for p in paths if len(p) == top]
    prefix = longest[0]
    for other in longest[1:]:
        k = 0
        while k < len(prefix) and k < len(other) and prefix[k] == other[k]:
            k += 1
        prefix = prefix[:k]
    return prefix


class TestBlock:
    def test_fields_cannot_be_assigned(self):
        b = Block(1, 0, "a", REGULAR, 1)
        for field in ("id", "parent", "creator", "kind", "height"):
            with pytest.raises(AttributeError):
                setattr(b, field, None)

    def test_json_round_trip(self):
        for b in (genesis_block(0), Block(7, 3, "miner", FACTORED, 4)):
            assert Block.from_json(b.to_json()) == b

    def test_equals_tuple_of_its_fields(self):
        assert Block(1, 0, "a", REGULAR, 1) == (1, 0, "a", REGULAR, 1)


class TestAppend:
    def test_genesis_only(self):
        store = BlockStore()
        store.append(genesis_block(0))
        assert len(store) == 1
        assert store.max_height == 0

    def test_child_height(self):
        store = build_store([(1, 0, "a", REGULAR)])
        assert len(store) == 2
        assert store.get(1).height == 1

    def test_missing_parent(self):
        store = BlockStore()
        store.append(genesis_block(0))
        with pytest.raises(ChainError, match="missing parent"):
            store.append(Block(1, 99, "a", REGULAR, 1))

    def test_duplicate_id(self):
        store = build_store([(1, 0, "a", REGULAR)])
        with pytest.raises(ChainError, match="duplicate id"):
            store.append(Block(1, 0, "a", REGULAR, 1))

    def test_second_genesis(self):
        store = BlockStore()
        store.append(genesis_block(0))
        with pytest.raises(ChainError, match="second genesis"):
            store.append(genesis_block(1))

    def test_bad_height(self):
        store = build_store([(1, 0, "a", REGULAR)])
        with pytest.raises(ChainError, match="height"):
            store.append(Block(2, 1, "a", REGULAR, 5))


class TestChains:
    def test_single_node(self):
        store = BlockStore()
        store.append(genesis_block(0))
        tips = store.tip_ids()
        assert tips == brute_force_longest_tips(store) == [0]
        assert store.chain_to(tips[0]).length == 0

    def test_linear(self):
        store = build_store([(1, 0, "a", REGULAR), (2, 1, "a", REGULAR)])
        tips = store.tip_ids()
        assert tips == brute_force_longest_tips(store) == [2]
        assert store.chain_to(tips[0]).length == 2

    def test_two_branches_oracle(self):
        # two branches of length 2 from genesis, 5 blocks total
        store = build_store(
            [
                (1, 0, "a", REGULAR),
                (2, 1, "a", REGULAR),
                (3, 0, "b", REGULAR),
                (4, 3, "b", REGULAR),
            ]
        )
        tips = store.tip_ids()
        assert tips == brute_force_longest_tips(store)
        assert len(tips) == 2
        assert [store.chain_to(t).tip.id for t in tips] == tips
        assert all(store.chain_to(t).length == 2 for t in tips)

    def test_main_chain_unique(self):
        store = build_store([(i, i - 1, "a", REGULAR) for i in range(1, 6)])
        assert store.main_chain().length == 5

    def test_main_chain_fork_prefix(self):
        # common prefix 0-1-2, then two tips
        store = build_store(
            [
                (1, 0, "a", REGULAR),
                (2, 1, "a", REGULAR),
                (3, 2, "a", REGULAR),
                (4, 2, "b", REGULAR),
            ]
        )
        mc = store.main_chain()
        assert [b.id for b in mc] == brute_force_main_prefix(store)
        assert mc.tip.id == 2

    def test_main_chain_diverge_at_genesis(self):
        store = build_store([(1, 0, "a", REGULAR), (2, 0, "b", REGULAR)])
        mc = store.main_chain()
        assert [b.id for b in mc] == [0]

    def test_main_chain_is_prefix_of_all_longest(self):
        rng = random.Random(7)
        store = BlockStore()
        store.append(genesis_block(0))
        ids = [0]
        for i in range(1, 300):
            parent = rng.choice(ids)
            store.append(
                Block(i, parent, "m", REGULAR, store.get(parent).height + 1)
            )
            ids.append(i)
        mc = store.main_chain()
        tips = store.tip_ids()
        assert tips == brute_force_longest_tips(store)
        for tip in tips:
            assert [b.id for b in store.chain_to(tip)][: len(mc)] == [b.id for b in mc]

    def test_a_chain_built_by_a_caller_is_checked(self):
        # the store's own chains skip the check; a caller's keeps it
        store = build_store([(1, 0, "a", REGULAR), (2, 1, "a", REGULAR), (3, 0, "b", REGULAR)])
        g, b1, b2, b3 = (store.get(i) for i in range(4))
        assert Chain([g, b1, b2]) == store.chain_to(2)
        with pytest.raises(ChainError, match="not parent-linked"):
            Chain([g, b3, b2])
        with pytest.raises(ChainError, match="must start at genesis"):
            Chain([b1, b2])


class TestMainChainRule:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_the_walks_after_every_insertion(self, data):
        # from a genesis-only store, appended blocks and extended chains off
        # random stored blocks, each ending near the top height (so tips
        # tie, and a longer one reorganises) or at heights 63-65 and
        # 127-129; the main chain, its length and the tips are compared
        # with the DFS oracles after every insertion
        draw = data.draw
        store = build_store([])

        def check():
            prefix = brute_force_main_prefix(store)
            assert [b.id for b in store.main_chain()] == prefix
            assert store.main_chain_length() == len(prefix) - 1
            assert store.tip_ids() == brute_force_longest_tips(store)

        check()
        ids = [0]
        for _ in range(draw(st.integers(0, 10))):
            parent = store.get(draw(st.sampled_from(ids)))
            top = store.max_height
            end = draw(st.one_of(st.integers(top - 2, top + 1),
                                 st.sampled_from([63, 64, 65, 127, 128, 129])))
            n = max(1, end - parent.height)
            new = list(range(len(ids), len(ids) + n))
            creators = [draw(st.sampled_from(["a", "b"]))] * n
            if n == 1 and draw(st.booleans()):
                store.append(Block(new[0], parent.id, creators[0], REGULAR, parent.height + 1))
            else:
                store.extend(parent.id, new, creators, [REGULAR] * n)
            ids += new
            check()

    def test_a_tie_over_a_long_chain_walks_no_chain(self, monkeypatch):
        # two tips at height 10**4 off block 9,998: the length is read at
        # the fork, not from a chain to each tip
        n = 10**4
        store = build_store([(i, i - 1, "a", REGULAR) for i in range(1, n + 1)])
        store.append(Block(n + 1, n - 2, "b", REGULAR, n - 1))
        store.append(Block(n + 2, n + 1, "b", REGULAR, n))

        def no_walk(self, block_id):
            raise AssertionError("main_chain_length walked a chain")

        monkeypatch.setattr(BlockStore, "chain_to", no_walk)
        assert store.main_chain_length() == n - 2

    def test_an_empty_store_has_no_main_chain(self):
        store = BlockStore()
        for read in (store.main_chain, store.main_chain_length):
            with pytest.raises(ChainError, match="store is empty"):
                read()


class TestEpochs:
    def _chain(self, n, creator="a", kind=REGULAR):
        store = build_store([(i, i - 1, creator, kind) for i in range(1, n + 1)])
        return store.main_chain()

    def test_slice_first_epoch(self):
        chain = self._chain(20)
        assert [b.id for b in epoch_slice(chain, 0, 10)] == list(range(1, 11))

    def test_slice_second_epoch(self):
        chain = self._chain(20)
        assert [b.id for b in epoch_slice(chain, 1, 10)] == list(range(11, 21))

    @pytest.mark.parametrize("epoch_len", [2.5, 10.0, Fraction(10)])
    def test_non_integer_epoch_len_rejected(self, epoch_len):
        # 2.5 used to simulate a whole epoch, then fail slicing it
        with pytest.raises(ValueError, match="epoch_len"):
            EpochParams(epoch_len=epoch_len)

    def test_slice_too_short(self):
        chain = self._chain(5)
        with pytest.raises(ChainError, match="too short"):
            epoch_slice(chain, 0, 10)

    def test_stats_single_creator_factored(self):
        params = EpochParams(epoch_len=10, factor=20)
        chain = self._chain(10, creator="A", kind=FACTORED)
        stats = epoch_stats(chain, 0, params)
        assert stats == {"A": (10, Fraction(200))}

    def test_stats_mixed(self):
        params = EpochParams(epoch_len=5, factor=20)
        store = build_store(
            [
                (1, 0, "A", FACTORED),
                (2, 1, "B", REGULAR),
                (3, 2, "B", REGULAR),
                (4, 3, "B", REGULAR),
                (5, 4, "B", REGULAR),
            ]
        )
        stats = epoch_stats(store.main_chain(), 0, params)
        assert stats["A"] == (1, Fraction(20))
        assert stats["B"] == (4, Fraction(4))

    def test_stats_unit_factor(self):
        params = EpochParams(epoch_len=10, factor=1)
        chain = self._chain(10, kind=FACTORED)
        n, w = epoch_stats(chain, 0, params)["a"]
        assert w == n

    def test_counts_sum_to_epoch_len(self):
        rng = random.Random(3)
        store = BlockStore()
        store.append(genesis_block(0))
        tip = 0
        for i in range(1, 31):
            creator = rng.choice("abc")
            kind = rng.choice([REGULAR, FACTORED])
            store.append(Block(i, tip, creator, kind, i))
            tip = i
        params = EpochParams(epoch_len=30, factor=Fraction(7, 2))
        stats = epoch_stats(store.main_chain(), 0, params)
        assert sum(n for n, _ in stats.values()) == 30


class TestTreeProperty:
    def test_random_appends_keep_tree_invariants(self):
        # 1e5 random valid appends; every block walks back to genesis
        rng = random.Random(123)
        store = BlockStore()
        store.append(genesis_block(0))
        ids = [0]
        n = 100_000
        for i in range(1, n + 1):
            parent = ids[rng.randrange(len(ids))]
            kind = FACTORED if rng.random() < 0.3 else REGULAR
            store.append(
                Block(i, parent, f"m{i % 7}", kind, store.get(parent).height + 1)
            )
            ids.append(i)
        assert len(store) == n + 1
        for bid in rng.sample(ids, 500):
            seen = set()
            cur = bid
            while cur is not None:
                assert cur not in seen
                seen.add(cur)
                cur = store.get(cur).parent
            assert store.get(bid).height == len(seen) - 1

    def test_path_accounting_matches_walk(self):
        rng = random.Random(5)
        store = BlockStore()
        store.append(genesis_block(0))
        ids = [0]
        for i in range(1, 400):
            parent = ids[rng.randrange(len(ids))]
            kind = FACTORED if rng.random() < 0.5 else REGULAR
            creator = f"m{rng.randrange(3)}"
            store.append(Block(i, parent, creator, kind, store.get(parent).height + 1))
            ids.append(i)
        phi = Fraction(20)
        for bid in rng.sample(ids, 50):
            path = store.chain_to(bid).blocks[1:]
            fac = sum(1 for b in path if b.kind == FACTORED)
            assert store.factored_on_path(bid) == fac
            assert store.path_weight(bid, phi) == (len(path) - fac) + phi * fac
            for m in ("m0", "m1", "m2"):
                assert store.factored_by_on_path(bid, m) == sum(
                    1 for b in path if b.creator == m and b.kind == FACTORED
                )
                assert store.count_by_on_path(bid, m) == sum(
                    1 for b in path if b.creator == m
                )

    def test_path_counts_on_deep_forked_tree_match_walk(self):
        # a spine over 500 deep with short forks off recent blocks, then side
        # branches off old blocks whose creators the store first sees there:
        # their slots lie past the end of every main-chain row
        rng = random.Random(17)
        early = [f"e{i}" for i in range(26)]
        late = [f"late{i}" for i in range(6)]
        store = BlockStore()
        store.append(genesis_block(0))
        ids = [0]
        tip = 0
        for i in range(1, 1601):
            if i <= 1200 or rng.random() < 0.5:
                fork = rng.random() < 0.15
                parent = ids[-rng.randrange(1, min(30, len(ids)) + 1)] if fork else tip
                creator = rng.choice(early)
            else:
                parent = ids[rng.randrange(len(ids) // 2)]
                creator = rng.choice(late + early[:3])
            kind = FACTORED if rng.random() < 0.4 else REGULAR
            store.append(Block(i, parent, creator, kind, store.get(parent).height + 1))
            ids.append(i)
            if store.get(i).height > store.get(tip).height:
                tip = i
        assert store.max_height >= 500
        store.count_by_on_path(tip, "e0")  # moves the cursor to the tip's row
        assert store._cnt.at == tip
        top = max(store._slot[b.creator] for b in store.chain_to(tip).blocks[1:])
        assert len(store._cnt.row) == top + 1
        assert len(store._cnt.row) <= min(store._slot[m] for m in late)
        back = BlockStore.from_jsonl(store.to_jsonl())
        creators = early + late + ["nobody"]
        for bid in ids:
            path = store.chain_to(bid).blocks[1:]
            cnt = Counter(b.creator for b in path)
            fac = Counter(b.creator for b in path if b.kind == FACTORED)
            for s in (store, back):
                assert s.factored_on_path(bid) == sum(fac.values())
                for m in creators:
                    assert s.count_by_on_path(bid, m) == cnt[m]
                    assert s.factored_by_on_path(bid, m) == fac[m]

    def test_read_order_does_not_change_counts(self):
        # every block's two counts, read in shuffled order, deepest first,
        # alternating between two branches, with the two kinds at different
        # blocks, and between the appends, each equal a walk of its chain
        rng = random.Random(29)
        creators = [f"m{i}" for i in range(5)]
        edges = []
        for i in range(1, 401):
            parent = rng.randrange(max(0, i - 40), i)
            kind = FACTORED if rng.random() < 0.4 else REGULAR
            edges.append((i, parent, rng.choice(creators), kind))
        # two branches of 150 blocks off block 400, so each ends well over
        # two checkpoints past the fork
        branches = ([], [])
        for i in range(401, 701):
            branch = branches[i % 2]
            parent = branch[-1] if branch else 400
            kind = FACTORED if rng.random() < 0.4 else REGULAR
            edges.append((i, parent, rng.choice(creators), kind))
            branch.append(i)
        n = len(edges) + 1
        full = build_store(edges)
        assert full.max_height - full.get(400).height == 150
        expect = {}
        for bid in range(n):
            path = full.chain_to(bid).blocks[1:]
            expect[bid] = {
                m: (sum(1 for b in path if b.creator == m),
                    sum(1 for b in path if b.creator == m and b.kind == FACTORED))
                for m in creators + ["nobody"]
            }

        def check(store, bid, kinds=(0, 1)):
            for m, want in expect[bid].items():
                read = (store.count_by_on_path, store.factored_by_on_path)
                for k in kinds:
                    assert read[k](bid, m) == want[k]

        shuffled = list(range(n))
        rng.shuffle(shuffled)
        deepest = sorted(range(n), key=lambda b: -full.get(b).height)
        alternating = [b for pair in zip(*branches) for b in pair]
        for order in (shuffled, deepest, alternating):
            store = build_store(edges)
            for s in (store, BlockStore.from_jsonl(store.to_jsonl())):
                for bid in order:
                    check(s, bid)
        # all-block counts in one order, factored counts in another
        for s in (build_store(edges), BlockStore.from_jsonl(full.to_jsonl())):
            for a, b in zip(shuffled, deepest):
                check(s, a, kinds=(0,))
                check(s, b, kinds=(1,))
                if a != b:
                    assert s._cnt.at != s._fac.at
        # read a block, then append its descendants
        store = build_store([])
        for bid, parent, creator, kind in edges:
            check(store, parent)
            store.append(Block(bid, parent, creator, kind, store.get(parent).height + 1))
        for s in (store, BlockStore.from_jsonl(store.to_jsonl())):
            for bid in shuffled:
                check(s, bid)

    def test_deepest_first_reads_keep_checkpoint_rows_only(self):
        # reads down one chain, deepest first, equal its walk; only the
        # chain's checkpoint rows stay behind, so after the first read each
        # read walks at most one checkpoint interval
        rng = random.Random(41)
        n = 4000
        edges = [(i, i - 1, f"m{rng.randrange(7)}",
                  FACTORED if rng.random() < 0.4 else REGULAR)
                 for i in range(1, n + 1)]
        store = build_store(edges)
        chain = store.chain_to(n).blocks
        cnt, fac = Counter(), Counter()
        expect = [(cnt.copy(), fac.copy())]
        for b in chain[1:]:
            cnt[b.creator] += 1
            fac[b.creator] += b.kind == FACTORED
            expect.append((cnt.copy(), fac.copy()))
        for bid in range(n, -1, -1):
            want_cnt, want_fac = expect[store.get(bid).height]
            for m in [f"m{i}" for i in range(7)] + ["nobody"]:
                assert store.count_by_on_path(bid, m) == want_cnt[m]
                assert store.factored_by_on_path(bid, m) == want_fac[m]
        for counts in (store._cnt, store._fac):
            assert len(counts.rows) <= store.max_height // 64 + 2
            assert set(counts.rows) == {b.id for b in chain[::64]}

    def test_pickled_store_keeps_counting(self):
        # a store whose cursors sit off a checkpoint, each holding a row no
        # checkpoint shares, as the process pool ships it back
        rng = random.Random(7)
        creators = [f"m{i}" for i in range(4)]
        edges = [(i, i - 1, rng.choice(creators), REGULAR if i % 3 else FACTORED)
                 for i in range(1, 201)]
        edges += [(i, i - 130, rng.choice(creators), FACTORED) for i in range(201, 231)]
        store = build_store(edges)
        for read in (store.count_by_on_path, store.factored_by_on_path):
            read(60, "m0")
            read(75, "m0")
        for counts in (store._cnt, store._fac):
            assert counts.at == 75 and counts.own

        def walk_counts(s, bid):
            path = s.chain_to(bid).blocks[1:]
            return {m: (sum(1 for b in path if b.creator == m),
                        sum(1 for b in path if b.creator == m and b.kind == FACTORED))
                    for m in creators + ["nobody"]}

        def read_counts(s, bid):
            return {m: (s.count_by_on_path(bid, m), s.factored_by_on_path(bid, m))
                    for m in creators + ["nobody"]}

        copy = pickle.loads(pickle.dumps(store))
        row = copy._cnt.row
        copy.count_by_on_path(76, "m0")  # one block past the cursor: in place
        assert copy._cnt.row is row
        for bid in [76, 77, 140, 75, 230, 70, 200, 128, 129]:
            assert read_counts(copy, bid) == walk_counts(copy, bid)
        # the original's cursors have not moved, and their rows still read 75's
        for counts in (store._cnt, store._fac):
            assert counts.at == 75 and counts.own
        for bid in (75, 76, 140, 230):
            assert read_counts(store, bid) == walk_counts(store, bid)


class TestFactoredTotals:
    PHI = Fraction(7)
    CREATORS = ["m0", "m1", "m2", "m3", "nobody"]

    @staticmethod
    def tree(rng):
        """A spine to height 140 with forks of 1-6 blocks off blocks at
        heights 55-135, so branches cross heights 63-65 and 127-129."""
        edges = [(i, i - 1, f"m{rng.randrange(4)}",
                  FACTORED if rng.random() < 0.4 else REGULAR) for i in range(1, 141)]
        bid = 141
        for _ in range(25):
            parent = rng.randrange(55, 136)
            for _ in range(rng.randrange(1, 7)):
                kind = FACTORED if rng.random() < 0.4 else REGULAR
                edges.append((bid, parent, f"m{rng.randrange(4)}", kind))
                parent, bid = bid, bid + 1
        return edges

    def walked(self, store, bid):
        """Every read's answer at ``bid``, from a walk of its chain."""
        path = store.chain_to(bid).blocks[1:]
        fac = sum(b.kind == FACTORED for b in path)
        return {
            "total": fac,
            "weight": (len(path) - fac) + self.PHI * fac,
            "count": {m: sum(b.creator == m for b in path) for m in self.CREATORS},
            "factored": {m: sum(b.creator == m and b.kind == FACTORED for b in path)
                         for m in self.CREATORS},
        }

    def read(self, store, bid, what, creator):
        if what == "total":
            return store.factored_on_path(bid)
        if what == "weight":
            return store.path_weight(bid, self.PHI)
        if what == "count":
            return store.count_by_on_path(bid, creator)
        return store.factored_by_on_path(bid, creator)

    def check(self, store, bid, what, rng, want):
        creator = rng.choice(self.CREATORS)
        expect = want[bid][what]
        if what in ("count", "factored"):
            expect = expect[creator]
        assert self.read(store, bid, what, creator) == expect

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_reads_match_a_walk(self, seed):
        # each read is one of the four, at a random block, down a branch one
        # block at a time (the in-place step), or up it; totals and weights
        # read the factored rows the per-creator reads step
        rng = random.Random(seed)
        edges = self.tree(rng)
        store = build_store(edges)
        want = {bid: self.walked(store, bid) for bid in range(len(edges) + 1)}
        kinds = ["total", "weight", "count", "factored"]
        leaves = set(want) - {parent for _, parent, _, _ in edges}
        for _ in range(300):
            order = rng.choice(["random", "down", "up"])
            if order == "random":
                bids = [rng.randrange(len(want))]
            else:
                bids = [b.id for b in store.chain_to(rng.choice(sorted(leaves))).blocks]
                bids = bids[rng.randrange(50, 130):][: rng.randrange(2, 20)]
                if order == "up":
                    bids.reverse()
            for bid in bids:
                self.check(store, bid, rng.choice(kinds), rng, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_reads_between_appends_match_a_walk(self, seed):
        # the store grows while it is read: each block's parent is read by
        # one of the four reads just before the block is appended, or
        # extended with the chain it ends
        rng = random.Random(seed + 100)
        edges = self.tree(rng)
        full = build_store(edges)
        want = {bid: self.walked(full, bid) for bid in range(len(edges) + 1)}
        kinds = ["total", "weight", "count", "factored"]
        store = build_store([])
        for bid, parent, creator, kind in edges:
            self.check(store, parent, rng.choice(kinds), rng, want)
            store.append(Block(bid, parent, creator, kind, store.get(parent).height + 1))
            self.check(store, bid, rng.choice(kinds), rng, want)
        ids, _, creators, spine_kinds = map(list, zip(*edges[:140]))
        extended = build_store([])
        extended.count_by_on_path(0, "m0")
        extended.extend(0, ids, creators, spine_kinds)
        for bid in rng.sample(range(141), 141):
            self.check(extended, bid, rng.choice(kinds), rng, want)


def traced_bytes(make):
    """Bytes that ``make()`` allocates and still holds when it returns."""
    tracemalloc.start()
    try:
        kept = make()  # held while the bytes are read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestFootprint:
    N = 2000

    def _store_bytes_per_block(self, read_factored=False, extend=False, read=True):
        # 200 creators, about half the blocks factored; the Blocks, or the
        # columns extend takes, are made before tracing starts, so only the
        # store's own allocations count.  A read of an extended chain builds
        # the Blocks that the appends are given: building them apart from a
        # store is taken off its bytes.  read=False leaves an extended chain
        # unread, and its bytes are the store's raw bytes
        rng = random.Random(3)
        blocks = [
            Block(i, i - 1, f"m{rng.randrange(200)}",
                  FACTORED if rng.random() < 0.5 else REGULAR, i)
            for i in range(1, self.N + 1)
        ]
        ids, parents, creators, kinds, _ = map(list, zip(*blocks))
        genesis = genesis_block(0)

        def stored():
            store = BlockStore()
            store.append(genesis)
            if extend:
                store.extend(0, ids, creators, kinds)
                if read:
                    store.get(self.N)
            else:
                for b in blocks:
                    store.append(b)
                    if read_factored:
                        store.factored_by_on_path(b.id, b.creator)
            return store

        used = traced_bytes(stored)
        if extend and read:
            built = [None] * self.N

            def build():
                fields = zip(ids, parents, creators, kinds, range(1, self.N + 1))
                for i, f in enumerate(fields):
                    built[i] = tuple.__new__(Block, f)

            used -= traced_bytes(build)
        return used / self.N

    def test_append_footprint_per_block(self):
        assert self._store_bytes_per_block() <= 2000

    def test_unread_rows_are_not_built(self):
        assert self._store_bytes_per_block() <= 300

    def test_factored_rows_read_at_every_block(self):
        assert self._store_bytes_per_block(read_factored=True) <= 800

    def test_factored_reads_hold_checkpoint_rows_only(self):
        assert self._store_bytes_per_block(read_factored=True) <= 150

    def test_one_extend_keeps_the_append_bounds(self):
        # the chain's checks and parent column are freed when extend returns
        assert self._store_bytes_per_block(extend=True) <= 300

    @pytest.mark.parametrize("extend", [False, True])
    def test_no_count_is_kept_per_block(self, extend):
        # a block costs its dict entry: factored totals come from the rows
        assert self._store_bytes_per_block(extend=extend) <= 60

    def test_an_unread_extended_chain_builds_no_block(self):
        # extend keeps copies of its three columns, 24 bytes per block,
        # until a read builds the chain
        assert self._store_bytes_per_block(extend=True, read=False) <= 48


def chain_blocks(store, parent_id, ids, creators, kinds):
    """The Blocks of the chain ``ids`` off stored block ``parent_id``, each
    the parent of the next, built here rather than by the store."""
    height = store.get(parent_id).height
    parents = [parent_id, *ids[:-1]]
    return [Block(*f, height + i) for i, f in enumerate(zip(ids, parents, creators, kinds), 1)]


def store_state(store, creators):
    """Everything a store answers: its blocks in order, tips, top height and
    id, creator slots, and every block's path counts for ``creators``."""
    counts = {
        b.id: (
            store.factored_on_path(b.id),
            [(store.count_by_on_path(b.id, m), store.factored_by_on_path(b.id, m))
             for m in creators],
        )
        for b in list(store.blocks())
    }
    return (store.to_jsonl(), store.tip_ids(), store.max_height, store.max_id,
            dict(store._slot), counts)


def read_paths(store, bids):
    """Per-creator reads at ``bids``, which leave the cursors there."""
    for bid in bids:
        store.count_by_on_path(bid, "m0")
        store.factored_by_on_path(bid, "m1")


class TestExtend:
    OLD = ["m0", "m1", "m2"]  # the creators of the stored tree
    NEW = ["n0", "n1", "n2"]  # first seen in the extension

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_the_append_loop(self, data):
        # a random tree, reads that leave the cursors in it, one chain off
        # any stored block (the tip or below it), then reads again: extend
        # and the append loop of the same blocks leave the same store
        draw = data.draw
        kinds = st.sampled_from([REGULAR, FACTORED])
        edges = [
            (i, draw(st.integers(0, i - 1)), draw(st.sampled_from(self.OLD)), draw(kinds))
            for i in range(1, draw(st.integers(0, 30)) + 1)
        ]
        stored = list(range(len(edges) + 1))
        parent = draw(st.sampled_from(stored))
        n = draw(st.integers(1, 30))
        ids = draw(st.permutations(range(len(stored) + 5, len(stored) + 5 + n)))
        creators = draw(st.lists(st.sampled_from(self.OLD + self.NEW), min_size=n, max_size=n))
        block_kinds = draw(st.lists(kinds, min_size=n, max_size=n))
        before = draw(st.lists(st.sampled_from(stored), max_size=3))
        after = draw(st.lists(st.sampled_from(stored + ids), max_size=3))

        one, bulk = build_store(edges), build_store(edges)
        blocks = chain_blocks(one, parent, ids, creators, block_kinds)
        read_paths(one, before)
        read_paths(bulk, before)
        for b in blocks:
            one.append(b)
        bulk.extend(parent, ids, creators, block_kinds)
        read_paths(one, after)
        read_paths(bulk, after)
        everyone = self.OLD + self.NEW + ["nobody"]
        assert store_state(bulk, everyone) == store_state(one, everyone)

    @pytest.mark.parametrize("length, tips", [(3, [10]), (6, [10, 16]), (8, [18])])
    def test_chain_from_a_block_below_the_tip(self, length, tips):
        # a spine of 10 blocks, then a chain off block 4: shorter than the
        # spine, as long, and longer
        edges = [(i, i - 1, "a" if i % 2 else "b", FACTORED if i % 3 else REGULAR)
                 for i in range(1, 11)]
        ids = list(range(11, 11 + length))
        creators = ["c" if i % 2 else "a" for i in range(length)]
        kinds = [REGULAR if i % 3 else FACTORED for i in range(length)]
        one, bulk = build_store(edges), build_store(edges)
        bulk.count_by_on_path(10, "a")  # a cursor at the old tip
        for b in chain_blocks(one, 4, ids, creators, kinds):
            one.append(b)
        bulk.extend(4, ids, creators, kinds)
        assert bulk.tip_ids() == tips and bulk.max_id == 10 + length
        assert bulk._slot == {"a": 1, "b": 2, "c": 3}
        assert store_state(bulk, ["a", "b", "c"]) == store_state(one, ["a", "b", "c"])
        for b in bulk.blocks():
            path = bulk.chain_to(b.id).blocks[1:]
            assert bulk.count_by_on_path(b.id, "c") == sum(x.creator == "c" for x in path)

    # (parent, ids, creators, kinds, the error's message): each fault comes
    # after a block by a new creator, so a slot given early would show
    FAULTS = {
        "missing parent": (99, [11, 12], ["c", "a"], [REGULAR] * 2, "missing parent 99"),
        "stored id": (4, [11, 3], ["c", "a"], [REGULAR] * 2, "duplicate id 3"),
        "repeated id": (4, [11, 12, 11], ["c", "a", "b"], [REGULAR] * 3, "repeated id 11"),
        "unknown kind": (4, [11, 12], ["c", "a"], [REGULAR, "weird"],
                         "unknown block kind 'weird'"),
        "no creator": (4, [11, 12], ["c", None], [REGULAR] * 2,
                       "non-genesis block must carry a creator"),
        "short creators": (4, [11, 12], ["c"], [REGULAR] * 2, "columns of unequal lengths"),
        "short kinds": (4, [11, 12], ["c", "a"], [REGULAR], "columns of unequal lengths"),
        "long kinds": (4, [11], ["c"], [REGULAR] * 2, "columns of unequal lengths"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_fault_raises_and_changes_nothing(self, fault):
        parent, ids, creators, kinds, message = self.FAULTS[fault]
        store = build_store([(i, i - 1, "a" if i % 2 else "b", FACTORED if i % 3 else REGULAR)
                             for i in range(1, 11)])
        store.count_by_on_path(7, "a")  # a cursor below the tip
        before = store_state(store, ["a", "b", "c"])
        with pytest.raises(ChainError, match=re.escape(message)):
            store.extend(parent, ids, creators, kinds)
        assert store_state(store, ["a", "b", "c"]) == before
        assert "c" not in store._slot

    def test_an_empty_chain_changes_nothing(self):
        for edges in ([], [(1, 0, "a", FACTORED), (2, 0, "b", REGULAR)]):
            store = build_store(edges)
            before = store_state(store, ["a", "b"])
            store.extend(0, [], [], [])
            assert store_state(store, ["a", "b"]) == before


def no_build(monkeypatch):
    """Make any build of a pending chain raise, until ``monkeypatch.undo()``."""
    def refuse(self):
        raise AssertionError("a pending chain was built")

    monkeypatch.setattr(BlockStore, "_build", refuse)


def unbuilt(store):
    """The reads that never build a pending chain."""
    return len(store), store.tip_ids(), store.max_height, store.max_id


def answers(store):
    """The reads that build nothing while one tip leads, and the main chain."""
    return (*unbuilt(store), store.main_chain_length(), store.main_chain())


# reads of a store, each given a random stored id: the first three never
# build, the main chain's two build where they need blocks (see BlockStore),
# and the rest build every pending chain
READS = {
    "len": lambda s, bid: len(s),
    "tips": lambda s, bid: s.tip_ids(),
    "tops": lambda s, bid: (s.max_height, s.max_id),
    "main length": lambda s, bid: s.main_chain_length(),
    "main chain": lambda s, bid: s.main_chain(),
    "get": lambda s, bid: s.get(bid),
    "in": lambda s, bid: (bid in s, bid + 1000 in s),
    "blocks": lambda s, bid: list(s.blocks()),
    "chain to": lambda s, bid: s.chain_to(bid),
    "counts": lambda s, bid: (s.count_by_on_path(bid, "m0"), s.factored_by_on_path(bid, "n0"),
                              s.path_weight(bid, Fraction(7))),
    "jsonl": lambda s, bid: s.to_jsonl(),
}


class TestUnreadChains:
    CREATORS = ["m0", "m1", "n0", "n1"]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_a_store_read_after_every_insertion(self, data):
        # appends and extends off any stored block, built or inside a chain
        # no read has built, with ids below and above the largest stored,
        # and chains crossing height 64; reads come in between.  The twin
        # reads everything after every insertion, so it builds each chain
        # at once
        draw = data.draw
        lazy, eager = build_store([]), build_store([])
        kinds = st.sampled_from([REGULAR, FACTORED])
        free = list(range(1, 400))
        for _ in range(draw(st.integers(1, 12))):
            op = draw(st.sampled_from(["append", "extend", "extend", "read"]))
            if op == "read":
                read = READS[draw(st.sampled_from(sorted(READS)))]
                bid = draw(st.sampled_from(sorted(b.id for b in eager.blocks())))
                assert read(lazy, bid) == read(eager, bid)
                continue
            parent = eager.get(draw(st.sampled_from(sorted(b.id for b in eager.blocks()))))
            n = 1 if op == "append" else draw(st.integers(1, 70))
            ids = draw(st.lists(st.sampled_from(free), min_size=n, max_size=n, unique=True))
            free = [i for i in free if i not in ids]
            creators = draw(st.lists(st.sampled_from(self.CREATORS), min_size=n, max_size=n))
            block_kinds = draw(st.lists(kinds, min_size=n, max_size=n))
            if op == "append":
                block = Block(ids[0], parent.id, creators[0], block_kinds[0], parent.height + 1)
                lazy.append(block)
                eager.append(block)
            else:
                lazy.extend(parent.id, ids, creators, block_kinds)
                eager.extend(parent.id, ids, creators, block_kinds)
            store_state(eager, self.CREATORS)
            assert unbuilt(lazy) == unbuilt(eager)
        assert answers(lazy) == answers(eager)
        assert store_state(lazy, self.CREATORS) == store_state(eager, self.CREATORS)

    def test_reads_that_build_nothing(self, monkeypatch):
        # a chain off block 1 that loses, then a longer one off genesis: the
        # main chain is genesis plus the second chain's Blocks, and a build
        # afterwards stores those same Blocks
        store, twin = build_store([(1, 0, "a", REGULAR)]), build_store([(1, 0, "a", REGULAR)])
        for s in (store, twin):
            s.extend(1, [2, 3, 4], ["a", "b", "a"], [REGULAR, FACTORED, REGULAR])
            s.extend(0, [5, 6, 7, 8, 9], ["c"] * 5, [FACTORED] * 5)
        twin.get(0)
        no_build(monkeypatch)
        main = store.main_chain()
        assert answers(store) == answers(twin)
        assert len(store) == 10 and store.genesis_id == 0
        monkeypatch.undo()
        assert [b.id for b in main] == [0, 5, 6, 7, 8, 9]
        assert all(store.get(b.id) is b for b in main)
        assert store_state(store, ["a", "b", "c"]) == store_state(twin, ["a", "b", "c"])

    @pytest.mark.parametrize("ids, dup", [([1, 6], 6), ([8, 7], 7)])  # 7: the largest
    def test_an_id_in_an_unread_chain_is_a_duplicate(self, ids, dup, monkeypatch):
        store, twin = build_store([]), build_store([])
        for s in (store, twin):
            s.extend(0, [5, 6, 7], ["a"] * 3, [REGULAR] * 3)
        no_build(monkeypatch)
        with pytest.raises(ChainError, match=f"duplicate id {dup}"):
            store.extend(0, ids, ["b", "b"], [REGULAR] * 2)
        monkeypatch.undo()
        assert "b" not in store._slot
        assert store_state(store, ["a", "b"]) == store_state(twin, ["a", "b"])

    def test_a_parent_in_an_unread_chain(self, monkeypatch):
        # a chain off the middle of an unread one, then off its tip, against
        # the appends of the same blocks
        store, one = build_store([]), build_store([])
        store.extend(0, [1, 2, 3, 4], ["a"] * 4, [REGULAR] * 4)
        no_build(monkeypatch)
        store.extend(2, [5, 6, 7], ["b"] * 3, [FACTORED] * 3)
        store.extend(4, [8], ["c"], [REGULAR])
        assert store.tip_ids() == [7, 8] and store.max_height == 5
        monkeypatch.undo()
        for parent, ids, creator, kind in ((0, [1, 2, 3, 4], "a", REGULAR),
                                           (2, [5, 6, 7], "b", FACTORED),
                                           (4, [8], "c", REGULAR)):
            for b in chain_blocks(one, parent, ids, [creator] * len(ids), [kind] * len(ids)):
                one.append(b)
        assert answers(store) == answers(one)
        assert store_state(store, ["a", "b", "c"]) == store_state(one, ["a", "b", "c"])

    def test_the_callers_columns_are_copied(self):
        store, twin = build_store([]), build_store([])
        ids, creators, kinds = [1, 2, 3], ["a", "b", "a"], [REGULAR, FACTORED, REGULAR]
        store.extend(0, ids, creators, kinds)
        twin.extend(0, list(ids), list(creators), list(kinds))
        ids[1], creators[0], kinds[2] = 99, "z", FACTORED
        ids.append(100)
        assert store_state(store, ["a", "b", "z"]) == store_state(twin, ["a", "b", "z"])

    def test_an_unread_store_survives_a_pickle_round_trip(self):
        store, twin = build_store([(1, 0, "a", REGULAR)]), build_store([(1, 0, "a", REGULAR)])
        for s in (store, twin):
            s.count_by_on_path(1, "a")  # a cursor, which the pickle keeps
            s.extend(1, [2, 3, 4], ["a", "b", "a"], [REGULAR, FACTORED, REGULAR])
            s.extend(0, [5, 6], ["c", "b"], [FACTORED] * 2)
        back = pickle.loads(pickle.dumps(store))
        assert answers(back) == answers(twin)
        assert store_state(back, ["a", "b", "c"]) == store_state(twin, ["a", "b", "c"])


class TestSerialization:
    def test_jsonl_roundtrip(self):
        store = build_store(
            [(1, 0, "a", FACTORED), (2, 1, "b", REGULAR), (3, 1, "a", REGULAR)]
        )
        text = store.to_jsonl()
        back = BlockStore.from_jsonl(text)
        assert len(back) == len(store)
        assert back.to_jsonl() == text
        assert [b.id for b in back.main_chain()] == [b.id for b in store.main_chain()]

    def test_insertion_order_respects_parents(self):
        store = build_store([(1, 0, "a", REGULAR), (2, 1, "a", REGULAR)])
        lines = store.to_jsonl().splitlines()
        seen = set()
        for line in lines:
            b = Block.from_json(line)
            assert b.parent is None or b.parent in seen
            seen.add(b.id)


class TestEpochParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpochParams(epoch_len=0)
        with pytest.raises(ValueError):
            EpochParams(epoch_len=10, factor=Fraction(1, 2))
        with pytest.raises(ValueError):
            EpochParams(epoch_len=10, rho=1)
        with pytest.raises(ValueError):
            EpochParams(epoch_len=10, mint=0)

    def test_unit_factor_allowed(self):
        # the degenerate single-block-type protocol is a valid configuration
        assert EpochParams(epoch_len=10, factor=1).factor == 1


class TestMainChainMonotonicity:
    def test_main_chain_shrinks_only_on_equal_fork(self):
        # appending never shortens the main chain except when the new block
        # creates an equal-length competing tip (shrink to the fork point)
        rng = random.Random(99)
        store = BlockStore()
        store.append(genesis_block(0))
        ids = [0]
        prev_len = 0
        for i in range(1, 2000):
            parent = ids[rng.randrange(len(ids))]
            store.append(
                Block(i, parent, "m", REGULAR, store.get(parent).height + 1)
            )
            ids.append(i)
            new_len = store.main_chain_length()
            if new_len < prev_len:
                # only an equal-length fork can pull the prefix back
                assert store.get(i).height == store.max_height
                assert len(store.tip_ids()) > 1
            prev_len = new_len
