"""Blocks, the append-only global storage tree, chains, epoch accounting,
and exact token arithmetic.

The storage is a directed tree rooted at a genesis block.  Chains are paths
from genesis; the main chain is the longest common prefix of all longest
chains, which ends at their tips' deepest common ancestor.  Epoch ``k`` of
a chain is the block series at 1-indexed positions ``[len*k + 1,
len*(k+1)]`` (genesis excluded).

Token amounts are Fractions.  The ``exact_*`` helpers add, multiply and
divide them as integer numerators and denominators, making one Fraction
per result; the settlement and a game's totals go through them.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

REGULAR = "regular"
FACTORED = "factored"
_KINDS = frozenset((REGULAR, FACTORED))


class ChainError(Exception):
    """Structural violation of the block tree (bad append, short chain...)."""


def as_fraction(x: Union[int, float, Fraction, str]) -> Fraction:
    """``x`` as a Fraction.  Ints, Fractions and numeric strings convert
    exactly; a float is rounded to the nearest fraction with denominator at
    most 10**12, so ``0.1`` becomes 1/10 instead of its binary value."""
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


# Exact token arithmetic.  Every token amount is a Fraction.  The helpers
# below work on numerators and denominators as integers and make one
# Fraction per result, where the operators make one per operation, each
# through their fallbacks and type checks.  They take ints and Fractions
# (anything with integer ``numerator`` and ``denominator``) and give the
# Fraction that the operators give.


def exact_fraction(x: Union[int, float, Fraction, str]) -> Fraction:
    """``Fraction(x)``, exactly as it reads a float or a string, but ``x``
    itself when it is a Fraction."""
    return x if type(x) is Fraction else Fraction(x)


def exact_sum(terms: Iterable[Union[int, Fraction]]) -> Fraction:
    """The sum of ``terms``: one integer sum over the least common multiple
    of their denominators.  An empty sum is 0."""
    terms = list(terms)
    dens = [t.denominator for t in terms]
    den = math.lcm(*dens)
    nums = [t.numerator for t in terms]
    return Fraction(sum(map(mul, nums, map(floordiv, repeat(den), dens))), den)


def exact_add(a: Union[int, Fraction], b: Union[int, Fraction]) -> Fraction:
    """``a + b``, over the product of their denominators."""
    ad, bd = a.denominator, b.denominator
    return Fraction(a.numerator * bd + b.numerator * ad, ad * bd)


def exact_product(a: Union[int, Fraction], b: Union[int, Fraction]) -> Fraction:
    """``a * b``."""
    return Fraction(a.numerator * b.numerator, a.denominator * b.denominator)


def exact_quotient(a: Union[int, Fraction], b: Union[int, Fraction]) -> Fraction:
    """``a / b``; ZeroDivisionError when ``b`` is 0."""
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)


def exact_scaled(terms: Iterable[Union[int, Fraction]],
                 factor: Union[int, Fraction]) -> list[Fraction]:
    """Each of ``terms`` times ``factor``."""
    fn, fd = factor.numerator, factor.denominator
    return [Fraction(t.numerator * fn, t.denominator * fd) for t in terms]


def exact_split(amount: Union[int, Fraction],
                ratio: Union[int, Fraction]) -> tuple[Fraction, Fraction]:
    """``(ratio * amount, (1 - ratio) * amount)``."""
    n, d = amount.numerator, amount.denominator
    rn, rd = ratio.numerator, ratio.denominator
    return Fraction(rn * n, rd * d), Fraction((rd - rn) * n, rd * d)


class Block(NamedTuple):
    """A tree node: unit of the global storage.

    ``parent`` and ``creator`` are ``None`` exactly for the genesis block.
    ``kind`` is one of :data:`REGULAR` / :data:`FACTORED`.

    A ``Block`` is an immutable tuple ``(id, parent, creator, kind,
    height)``: assigning a field raises, and a block compares equal to a
    plain tuple holding the same fields.
    """

    id: int
    parent: Optional[int]
    creator: Optional[str]
    kind: str
    height: int

    def is_genesis(self) -> bool:
        return self.parent is None

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "Block":
        d = json.loads(line)
        return Block(d["id"], d["parent"], d["creator"], d["kind"], d["height"])


def genesis_block(block_id: int = 0) -> Block:
    return Block(id=block_id, parent=None, creator=None, kind=REGULAR, height=0)


class Chain:
    """A path of blocks starting at genesis, each the parent of the next.

    A chain that a :class:`BlockStore` returns is pinned to its tip: it
    answers ``length`` and ``tip`` without building its path, builds
    ``blocks`` on the first read, as the store's own objects, and pickles
    as the store and the tip, without Blocks.  A path from genesis to a
    block never changes, so the chain reads the same whatever the store
    took since.  A chain that ends on a chain the store still holds as
    columns keeps that record until the store builds it, and no longer."""

    __slots__ = ("blocks", "length", "_store", "_tip_id", "_last")

    def __init__(self, blocks: Iterable[Block]):
        self.blocks: tuple[Block, ...] = tuple(blocks)
        if not self.blocks or not self.blocks[0].is_genesis():
            raise ChainError("chain must start at genesis")
        for prev, cur in zip(self.blocks, self.blocks[1:]):
            if cur.parent != prev.id:
                raise ChainError("chain is not parent-linked")
        self.length = len(self.blocks) - 1  # non-genesis blocks
        self._store = None

    @classmethod
    def _pinned(cls, store: "BlockStore", tip_id: int, length: int,
                last: Optional["_Pending"] = None) -> "Chain":
        """The chain of ``store`` from genesis to block ``tip_id``, at height
        ``length``: a built block, or the last of pending chain ``last``,
        whose parent is built."""
        chain = object.__new__(cls)
        chain.length, chain._store, chain._tip_id, chain._last = length, store, tip_id, last
        return chain

    def _unbuilt(self) -> Optional["_Pending"]:
        """The pending chain this chain ends on while the store has not built
        it; once it has, the record is dropped, so the chain keeps and
        pickles no copy of blocks the store holds."""
        if self._last is not None and self._tip_id in self._store._blocks:
            self._last = None
        return self._last

    def __getattr__(self, name):
        # reached only for an unset slot: a pinned chain's blocks, unread
        if name != "blocks":
            raise AttributeError(name)
        store, last = self._store, self._unbuilt()
        if last is None:
            path = store._path(self._tip_id)
        else:
            path = store._path(last.parent) + last.blocks()
        self.blocks = blocks = tuple(path)
        return blocks

    def __reduce__(self):
        if self._store is None:
            return Chain, (self.blocks,)
        return Chain._pinned, (self._store, self._tip_id, self.length, self._unbuilt())

    @property
    def tip(self) -> Block:
        store = self._store
        if store is None:
            return self.blocks[-1]
        last = self._unbuilt()
        return store._blocks[self._tip_id] if last is None else last.tip()

    def __len__(self) -> int:
        return self.length + 1

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.blocks == other.blocks

    def __repr__(self) -> str:
        return f"Chain(len={self.length}, tip={self.tip.id})"


@dataclass(frozen=True)
class EpochParams:
    """Per-epoch game parameters.

    epoch_len     blocks per epoch.
    factor        weight of a factored block (a regular block weighs 1).
    rho           internal expenditure required per factored block, as a
                  fraction of the per-block mint.
    mint          tokens minted per block (default 1, the normalization
                  under which miner balances sum to ``epoch_len``).
    user_balance  aggregate token holdings of non-miner entities; must
                  dominate total miner balances for the redistribution
                  term to stay negligible.
    """

    epoch_len: int
    factor: Fraction = Fraction(1)
    rho: Fraction = Fraction(0)
    mint: Fraction = Fraction(1)
    user_balance: Fraction = Fraction(10**6)

    def __post_init__(self):
        object.__setattr__(self, "factor", as_fraction(self.factor))
        object.__setattr__(self, "rho", as_fraction(self.rho))
        object.__setattr__(self, "mint", as_fraction(self.mint))
        object.__setattr__(self, "user_balance", as_fraction(self.user_balance))
        if not isinstance(self.epoch_len, numbers.Integral) or self.epoch_len < 1:
            raise ValueError(
                f"epoch_len must be a positive integer, got {self.epoch_len!r}"
            )
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if self.mint <= 0:
            raise ValueError("mint must be positive")
        if self.user_balance <= 0:
            raise ValueError("user_balance must be positive")

    def quota_limit(self, internal: Union[int, float, Fraction, str]) -> Optional[int]:
        """Blocks of quota an internal commitment, read as ``Fraction(internal)``
        reads it, buys at ``rho * mint`` each, truncated toward zero as
        ``int()`` truncates; None (unlimited) when rho is 0."""
        rho, mint = self.rho, self.mint
        if not rho:
            return None
        internal = exact_fraction(internal)
        # internal / (rho * mint), as integers over positive denominators
        num = internal.numerator * rho.denominator * mint.denominator
        den = internal.denominator * rho.numerator * mint.numerator
        return num // den if num >= 0 else -(-num // den)


def within_quota(used: int, limit: Optional[int]) -> bool:
    """Whether a miner with ``used`` quota-consuming blocks on a path may add
    another one there."""
    return limit is None or used < limit


@dataclass(frozen=True)
class Allocation:
    """A miner's split of her balance into internal and external parts."""

    internal: Fraction
    external: Fraction

    def __post_init__(self):
        object.__setattr__(self, "internal", exact_fraction(self.internal))
        object.__setattr__(self, "external", exact_fraction(self.external))
        if self.internal.numerator < 0 or self.external.numerator < 0:
            raise ValueError("allocation parts must be non-negative")

    @property
    def total(self) -> Fraction:
        return self.internal + self.external


_CHECKPOINT = 64  # heights of the rows a _PathCounts keeps for good


class _PathCounts:
    """Per-creator counts of one kind of block (``kind``; None counts every
    block) on paths from genesis through a :class:`BlockStore`'s ``blocks``,
    in the slots ``slot_of`` gives creators.

    ``at`` is the cursor, the block read last, and ``row`` its row; ``own``
    says that no checkpoint shares ``row``, so the next move may add to it
    in place.  ``rows`` maps each block read through at a height that is a
    multiple of :data:`_CHECKPOINT` to its row, which never changes.  The
    store's reads step the cursor one block down themselves when ``own`` is
    set and the block is off a checkpoint, adding it to ``row`` exactly as
    :meth:`move` would; every other read away from the cursor calls
    :meth:`move`.
    """

    __slots__ = ("kind", "blocks", "slot_of", "at", "row", "own", "rows")

    def __init__(self, kind: Optional[str], blocks: dict, slot_of: dict):
        self.kind, self.blocks, self.slot_of = kind, blocks, slot_of
        self.at: Optional[int] = None
        self.row = array("I", [0])
        self.own = False
        self.rows: dict[int, array] = {}

    def move(self, block_id: int) -> array:
        """Move the cursor to ``block_id`` and return its row: walk up to the
        cursor or the nearest checkpoint, then count the blocks between on
        the way back down, keeping a row at each checkpoint height."""
        blocks, rows, at = self.blocks, self.rows, self.at
        walk = []
        cur = block_id
        while cur != at and cur not in rows:
            b = blocks[cur]
            walk.append(b)
            cur = b.parent
        if cur == at:
            row, own = self.row, self.own
        else:
            row, own = rows[cur], False
        slot_of, kind = self.slot_of, self.kind
        for bid, _, creator, bkind, height in reversed(walk):
            if kind is None or bkind == kind:
                if not own:
                    row, own = row[:], True
                slot = slot_of[creator]
                if slot >= len(row):  # zero-pad to reach the slot counted
                    row.frombytes(bytes((slot + 1 - len(row)) * row.itemsize))
                row[slot] += 1
            if not height % _CHECKPOINT:
                rows[bid] = row
                own = False
        self.at, self.row, self.own = block_id, row, own
        return row

    def __getstate__(self):  # without ``blocks``: the store links them back
        return None, {s: getattr(self, s) for s in self.__slots__ if s != "blocks"}


class _Pending:
    """A chain that :meth:`BlockStore.extend` took, kept as copies of its
    columns until a read needs its blocks: block ``ids[i]`` by
    ``creators[i]`` of kind ``kinds[i]`` at height ``height + 1 + i``, each
    the parent of the next, the first a child of ``parent``.  ``built``
    holds its Blocks once they are built; a pickle drops them, and a read
    builds them again."""

    __slots__ = ("parent", "ids", "creators", "kinds", "height", "built")

    def __init__(self, parent: int, ids: Sequence[int], creators: Sequence[str],
                 kinds: Sequence[str], height: int):
        self.parent, self.height = parent, height
        self.ids, self.creators, self.kinds = list(ids), list(creators), list(kinds)
        self.built: Optional[list[Block]] = None

    def blocks(self) -> list[Block]:
        if self.built is None:
            ids, height = self.ids, self.height
            # tuple.__new__ builds each Block in C; Block._make is a Python call
            self.built = list(map(tuple.__new__, repeat(Block), zip(
                ids, [self.parent, *ids[:-1]], self.creators, self.kinds,
                range(height + 1, height + 1 + len(ids)),
            )))
        return self.built

    def tip(self) -> Block:
        """The chain's last Block, built alone while the chain is unread."""
        if self.built is not None:
            return self.built[-1]
        ids = self.ids
        return Block(ids[-1], ids[-2] if len(ids) > 1 else self.parent,
                     self.creators[-1], self.kinds[-1], self.height + len(ids))

    def __getstate__(self):
        return None, {**{s: getattr(self, s) for s in self.__slots__}, "built": None}


class BlockStore:
    """Append-only set of blocks forming a tree rooted at genesis.

    Alongside the raw tree the store maintains per-path accounting used by
    strategies and reward functions:

    * the set of maximum-height leaves (fork tips),
    * per-creator factored and total block counts on the path from genesis
      to a block; a path's factored total is the sum of its factored row.

    Each creator gets a slot number the first time the store sees them; slot
    0 stands for an unknown creator and always reads 0.  A per-creator count
    reads an ``array('I')`` row indexed by slot: the counts of every
    creator's blocks on the path, or of their factored blocks.  A row
    reaches only the highest slot counted on its path; slots past its end
    read 0.  Each count kind keeps one cursor, the block read last and its
    row, plus checkpoint rows that never change, at the blocks of heights
    that are multiples of :data:`_CHECKPOINT` (64) on the paths read (see
    :class:`_PathCounts`).  The honest read, one block past a cursor whose
    row no checkpoint shares and off a checkpoint height, adds that block to
    the row in place, with no walk and no call.  Any other read away from
    the cursor walks up to the cursor or to the nearest checkpoint, so a
    read on a path where a deeper block was read walks at most 64 blocks.
    An append builds no row and no count: a path's factored total, read by
    :meth:`factored_on_path` and :meth:`path_weight`, is the sum of the
    factored row there.  At 200 creators the store costs about 41 bytes per
    block unread (its dict entry) and about 55 with the factored count read
    at every block.

    ``max_height`` and ``max_id`` are the largest height and block id
    stored (-1 while empty).  :meth:`extend` takes a chain of new blocks
    off a stored one as columns (ids, creators, kinds), the shape of a
    prescribed epoch.  It checks them, keeps copies (about 24 bytes per
    block) and builds no Block until a read needs one.  Then the store
    builds every pending chain, in ``extend`` order, so its blocks are
    stored as the appends would have stored them.  The reads that build are
    :meth:`get`, ``in``, :meth:`blocks`, :meth:`append`, the path counts,
    :meth:`chain_to`, :meth:`to_jsonl`, and the main chain's when the
    maximum-height tips tie.  ``len()``, :meth:`tip_ids`, ``max_height``,
    ``max_id`` and :meth:`main_chain_length` with one tip build nothing, nor
    does :meth:`main_chain` when the last pending chain holds the one tip:
    its chain builds that pending chain's Blocks alone, and only when its
    ``blocks`` are read.  The main chain ends at the deepest common
    ancestor of the maximum-height tips.  A store pickles its built blocks
    as plain tuples and its pending chains as columns, so a pickle holds no
    Block.

    Blocks are never removed or mutated.
    """

    def __init__(self):
        # every built block, a set closed under parents; _pending holds the
        # chains extend took since the last build, in call order
        self._blocks: dict[int, Block] = {}
        self._pending: list[_Pending] = []
        self._genesis_id: Optional[int] = None
        self.max_height = -1
        self.max_id = -1
        self._max_tips: list[int] = []
        # path-cumulative accounting, read through cursors
        self._slot: dict[str, int] = {}
        self._fac = _PathCounts(FACTORED, self._blocks, self._slot)
        self._cnt = _PathCounts(None, self._blocks, self._slot)

    def __getstate__(self):
        # the built blocks pickle as plain tuples, so a pickle holds no Block
        state = self.__dict__.copy()
        state["_blocks"] = list(map(tuple, self._blocks.values()))
        return state

    def __setstate__(self, state):
        rows = state["_blocks"]
        state["_blocks"] = dict(zip([row[0] for row in rows],
                                    map(tuple.__new__, repeat(Block), rows)))
        self.__dict__.update(state)
        self._fac.blocks = self._cnt.blocks = self._blocks

    def _build(self) -> None:
        """Store the pending chains' Blocks, in the order extend took them."""
        blocks = self._blocks
        for chain in self._pending:
            blocks.update(zip(chain.ids, chain.blocks()))
        self._pending.clear()

    def _height(self, block_id: int) -> Optional[int]:
        """The height of stored block ``block_id``, built or not; None when
        there is no such block."""
        block = self._blocks.get(block_id)
        if block is not None:
            return block[4]
        for chain in self._pending:
            try:
                return chain.height + 1 + chain.ids.index(block_id)
            except ValueError:
                pass
        return None

    # -- basic container protocol -------------------------------------------------

    def __contains__(self, block_id: int) -> bool:
        if self._pending:
            self._build()
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks) + sum(len(chain.ids) for chain in self._pending)

    def get(self, block_id: int) -> Block:
        if self._pending:
            self._build()
        return self._blocks[block_id]

    @property
    def genesis_id(self) -> int:
        if self._genesis_id is None:
            raise ChainError("store is empty")
        return self._genesis_id

    def blocks(self) -> Iterator[Block]:
        if self._pending:
            self._build()
        return iter(self._blocks.values())

    # -- append --------------------------------------------------------------------

    def append(self, block: Block) -> None:
        bid, parent_id, creator, kind, height = block
        if self._pending:
            self._build()
        blocks = self._blocks
        if bid in blocks:
            raise ChainError(f"duplicate id {bid}")
        if parent_id is None:
            if self._genesis_id is not None:
                raise ChainError("second genesis rejected")
            if height != 0:
                raise ChainError("genesis height must be 0")
            self._genesis_id = bid
            self.max_id = bid  # the first block stored: every other needs it
            for counts in (self._fac, self._cnt):
                counts.at = bid
                counts.rows[bid] = counts.row
        else:
            parent = blocks.get(parent_id)
            if parent is None:
                raise ChainError(f"missing parent {parent_id}")
            if height != parent.height + 1:
                raise ChainError(
                    f"height {height} != parent height {parent.height} + 1"
                )
            if kind not in _KINDS:
                raise ChainError(f"unknown block kind {kind!r}")
            if creator is None:
                raise ChainError("non-genesis block must carry a creator")
            self._slot.setdefault(creator, len(self._slot) + 1)
            if bid > self.max_id:
                self.max_id = bid
        blocks[bid] = block
        if height > self.max_height:
            self.max_height = height
            self._max_tips = [bid]
        elif height == self.max_height:
            self._max_tips.append(bid)

    def extend(self, parent_id: int, ids: Sequence[int], creators: Sequence[str],
               kinds: Sequence[str]) -> None:
        """Add the chain ``ids`` off stored block ``parent_id``, each id the
        parent of the next, block ``ids[i]`` by ``creators[i]`` of kind
        ``kinds[i]``, heights following the parent's.  The store numbers new
        creators' slots as the appends would and keeps copies of the columns;
        the first read that needs a block builds the Blocks (see the class
        docstring).  A fault in the columns raises a ChainError naming it
        before anything changes.  An empty chain changes nothing."""
        parent_height = self._height(parent_id)
        if parent_height is None:
            raise ChainError(f"missing parent {parent_id}")
        n = len(ids)
        if len(creators) != n or len(kinds) != n:
            raise ChainError("columns of unequal lengths")
        if not n:
            return
        new = set(ids)
        if min(ids) <= self.max_id:  # else none of them is stored
            taken = self._blocks.keys() & new
            for chain in self._pending:
                taken |= new.intersection(chain.ids)
            if taken:
                raise ChainError(f"duplicate id {next(i for i in ids if i in taken)}")
        if len(new) != n:
            raise ChainError(f"repeated id {Counter(ids).most_common(1)[0][0]}")
        if not _KINDS.issuperset(kinds):
            raise ChainError(f"unknown block kind {(set(kinds) - _KINDS).pop()!r}")
        first_seen = dict.fromkeys(creators)
        if None in first_seen:
            raise ChainError("non-genesis block must carry a creator")
        slot = self._slot
        for creator in first_seen:
            slot.setdefault(creator, len(slot) + 1)
        self._pending.append(_Pending(parent_id, ids, creators, kinds, parent_height))
        height = parent_height + n
        self.max_id = max(self.max_id, max(ids))
        if height > self.max_height:
            self.max_height = height
            self._max_tips = [ids[-1]]
        elif height == self.max_height:
            self._max_tips.append(ids[-1])

    # -- path accounting -------------------------------------------------------------

    def factored_on_path(self, block_id: int) -> int:
        """Factored blocks on the path genesis..block_id, inclusive: the sum
        of the factored row there."""
        if self._pending:
            self._build()
        return sum(self._fac.move(block_id))

    def factored_by_on_path(self, block_id: int, creator: str) -> int:
        counts = self._fac
        row = counts.row
        if block_id != counts.at:  # the cursor's block is built
            if self._pending:
                self._build()
            _, parent, by, kind, height = self._blocks[block_id]
            if parent == counts.at and counts.own and height % _CHECKPOINT:
                try:  # one block past an own row, off a checkpoint: add in place
                    if kind == FACTORED:
                        row[self._slot[by]] += 1
                    counts.at = block_id
                except IndexError:  # the row ends before their slot
                    row = counts.move(block_id)
            else:
                row = counts.move(block_id)
        try:
            return row[self._slot.get(creator, 0)]
        except IndexError:  # slot past the row's end: none of theirs on the path
            return 0

    def count_by_on_path(self, block_id: int, creator: str) -> int:
        counts = self._cnt
        row = counts.row
        if block_id != counts.at:  # the cursor's block is built
            if self._pending:
                self._build()
            _, parent, by, _, height = self._blocks[block_id]
            if parent == counts.at and counts.own and height % _CHECKPOINT:
                try:  # one block past an own row, off a checkpoint: add in place
                    row[self._slot[by]] += 1
                    counts.at = block_id
                except IndexError:  # the row ends before their slot
                    row = counts.move(block_id)
            else:
                row = counts.move(block_id)
        try:
            return row[self._slot.get(creator, 0)]
        except IndexError:  # slot past the row's end: none of theirs on the path
            return 0

    def path_weight(self, block_id: int, factor: Fraction) -> Fraction:
        """Accumulated weight of the path genesis..block_id (genesis excluded)."""
        fac = self.factored_on_path(block_id)
        reg = self._blocks[block_id].height - fac
        return reg + factor * fac

    # -- chain queries ----------------------------------------------------------------

    def tip_ids(self) -> list[int]:
        """Ids of all maximum-height leaves, in ascending id order."""
        return sorted(self._max_tips)

    def chain_to(self, block_id: int) -> Chain:
        """The chain to ``block_id``, pinned there (see :class:`Chain`)."""
        if self._pending:
            self._build()
        return Chain._pinned(self, block_id, self._blocks[block_id].height)

    def _path(self, block_id: int) -> list[Block]:
        """The built blocks from genesis to built block ``block_id``."""
        blocks = self._blocks
        path = []
        cur: Optional[int] = block_id
        while cur is not None:
            b = blocks[cur]
            path.append(b)
            cur = b.parent
        path.reverse()
        return path

    def _main_tip(self) -> int:
        """The deepest common ancestor of the maximum-height tips: they step
        up to their parents together until one id is left."""
        tips = set(self._max_tips)
        if not tips:
            raise ChainError("store is empty")
        if len(tips) > 1 and self._pending:
            self._build()
        blocks = self._blocks
        while len(tips) > 1:
            tips = {blocks[t].parent for t in tips}
        return tips.pop()

    def main_chain(self) -> Chain:
        """Longest common prefix of all longest chains, pinned to its tip
        (see :class:`Chain`).  When the last pending chain holds the one
        maximum-height tip and its parent is built, nothing is built: the
        chain's first read of ``blocks`` walks to that parent and builds
        that pending chain's Blocks alone, which the store keeps for its
        build.  Otherwise it reads as :meth:`chain_to` does."""
        tips, pending = self._max_tips, self._pending
        if pending and len(tips) == 1:
            last = pending[-1]
            if tips[0] == last.ids[-1] and last.parent in self._blocks:
                return Chain._pinned(self, tips[0], self.max_height, last)
        return self.chain_to(self._main_tip())

    def main_chain_length(self) -> int:
        """Length of the main chain; O(1), and no build, while there is a
        unique tip."""
        if len(self._max_tips) == 1:
            return self.max_height
        return self._blocks[self._main_tip()].height

    # -- serialization ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One block per line, in insertion order (parents precede children)."""
        if self._pending:
            self._build()
        return "\n".join(b.to_json() for b in self._blocks.values())

    @staticmethod
    def from_jsonl(text: str) -> "BlockStore":
        store = BlockStore()
        for line in text.splitlines():
            if line.strip():
                store.append(Block.from_json(line))
        return store


# -- module-level operations ---------------------------------------------------------


def epoch_slice(chain: Chain, k: int, epoch_len: int) -> tuple[Block, ...]:
    """Blocks of epoch ``k``: 1-indexed positions [epoch_len*k+1, epoch_len*(k+1)]."""
    if k < 0:
        raise ChainError("epoch index must be non-negative")
    end = epoch_len * (k + 1)
    if chain.length < end:
        raise ChainError(
            f"chain too short for epoch {k}: length {chain.length} < {end}"
        )
    return chain.blocks[epoch_len * k + 1 : end + 1]


def epoch_stats(
    chain: Chain, k: int, params: EpochParams
) -> dict[str, tuple[int, Fraction]]:
    """Per-miner (block count, accumulated weight) over epoch ``k`` of ``chain``."""
    blocks = epoch_slice(chain, k, params.epoch_len)
    # fields by index: (id, parent, creator, kind, height)
    counts = Counter([b[2] for b in blocks])
    factored = Counter([b[2] for b in blocks if b[3] == FACTORED])
    return stats_from_counts(
        ((m, n, factored[m]) for m, n in counts.items()), params.factor
    )


def stats_from_counts(
    counts: Iterable[tuple[str, int, int]], factor: Fraction
) -> dict[str, tuple[int, Fraction]]:
    """Per-miner (block count, accumulated weight) from (miner, blocks,
    factored blocks) counts, the weight an exact Fraction for a ``factor``
    read as ``Fraction(factor)``; a miner with no block is left out."""
    # n - f + factor * f over factor's denominator
    factor = exact_fraction(factor)
    den = factor.denominator
    extra = factor.numerator - den
    return {m: (n, Fraction(n * den + f * extra, den)) for m, n, f in counts if n}
