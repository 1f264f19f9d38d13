"""Epoch scheduler: allocation, proportional miner selection, block
generation, and the publication fixpoint loop.

A :class:`Game` holds what every run of a batch shares: the checked and
sorted miners, their allocations and quota limits, the miner selector and
the token totals.  It is built once per batch; ``run_epoch(game, seed,
store)`` then does only per-run work (the store, the streams and views,
the block loop and the settlement).  A single epoch run is strictly
sequential and deterministic given its seed.  ``run_games`` executes
independent runs (optionally in parallel) and merges their statistics
keyed on run index, so parallelism never changes output.

Each run derives a scheduler stream and one stream per miner from its seed
(:func:`derive_streams`).  The scheduler draws its uniforms in batches
sized to the blocks the epoch still misses (64 to 4,096 at a time), one per
step, so a run selects exactly the miners that one ``random()`` call per
step would; draws left over when the epoch ends are discarded, since the
scheduler stream feeds nothing else.  A miner's generator is built the
first time her strategy reads ``MinerView.rng``: prescribed miners draw
only to break ties between longest chains, and most epochs have none.

Prescribed play on one tip runs without strategy calls, withholding
included.  When the store has exactly one tip at the start, the protocol's
quota mode is ``"none"`` or ``"factored"``, and every miner's
``_pick_tip``, as bound for the run, is ``PrescribedNakamoto``'s and her
``generate_block`` and ``publish`` are those that ``PrescribedNakamoto``
and ``PrescribedHeb`` define (``prescribed`` under every protocol but
``heb_mandatory``, and ``no_ic``) or those of ``PowOnly`` (``pow_only``),
the epoch is fixed by its selections.  Each step's publishing miner
extends the tip and publishes at once; each withholder extends her private
chain off the epoch's start, which she publishes whole at its
``epoch_len``-th block.  The epoch ends at the first of these chains to
reach the epoch's end.  The run works on miner indices in numpy arrays:
it takes its selections in the generic loop's batches and finds the step
that ends the epoch by cumulative counts, splits the publishing miners'
steps from the withholders' by a mask, and sets each published block's
kind by the quota rule, a maker's first ``limit - used`` blocks being
factored, with ``used`` her view's count at the tip.  It hands the
publishing miners' chain to one :meth:`BlockStore.extend` call as columns
of ids, creators and kinds, then the chain of the withholder who ended the
epoch, if one did, to a second.  The store keeps the columns and builds
Blocks only where a read needs them.  On a fresh store the run settles
from the counts: the main chain is the chain that ended the epoch, so each
miner's blocks on it are a ``bincount`` of its creators (all
``epoch_len`` the winning withholder's, none factored), her factored ones
the lesser of that and her quota room.  So it builds no Block, and its
``main`` is pinned to its tip and built only when read.  The other
withholders' blocks stay private.  Its output is the generic loop's byte
for byte.  A strategy class patched before the run is not one of these,
so its methods are called at every step.  The generic loop's publication
rounds append block by block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from hebsim.chain import (
    Allocation,
    Block,
    BlockStore,
    Chain,
    ChainError,
    EpochParams,
    FACTORED,
    REGULAR,
    as_fraction,
    epoch_stats,
    exact_add,
    exact_fraction,
    exact_product,
    exact_sum,
    genesis_block,
    stats_from_counts,
    within_quota,
)

SeedLike = Union[int, np.random.SeedSequence]

# run_epoch warns when total miner balance exceeds this share of the user
# balance: past it, the redistribution term dropped from utilities shows
GUARD_RATIO = Fraction(1, 1000)


class StrategyFault(Exception):
    """A miner strategy returned an invalid block or publication.

    Such miners are excluded from the analysis, so the run aborts loudly
    instead of silently repairing the output.
    """


class StalledSystemError(Exception):
    """No miner can make progress (zero external balance everywhere, or all
    block-creation quotas exhausted under a mandatory-expenditure protocol)."""


class MinerView:
    """Read access a strategy gets when invoked: the public storage, the
    miner's own private blocks, and her per-run context.

    The engine polls :meth:`Strategy.publish` only while ``local`` is
    non-empty, in miner-id order, until a round publishes nothing.

    Quota counts per epoch: on the path to a public or private block,
    :meth:`factored_used` and :meth:`blocks_used` count the miner's private
    blocks plus her public ones above ``epoch_start_tip`` (none when the
    public part ends at or below ``epoch_start_height``).  Her counts at
    ``epoch_start_tip`` are read once, when the view is built.  Each count
    keeps its last answer at a public block, so the engine's check of a
    block her strategy has just counted the quota for is a lookup.  That is
    exact because a public block's path never changes.  Answers at private
    blocks are not kept: publishing a private chain can change them (a fork
    of hers from at or below ``epoch_start_height`` counts while private,
    and not once public).

    ``rng`` is the miner's stream.  It may be given as a zero-argument
    function returning the generator, which then runs the first time
    ``rng`` is read."""

    __slots__ = (
        "miner_id",
        "store",
        "local",
        "params",
        "allocation",
        "quota_limit",
        "epoch_start_height",
        "epoch_start_tip",
        "_rng",
        "_factored_at_start",
        "_blocks_at_start",
        "_factored_memo",
        "_blocks_memo",
    )

    def __init__(
        self,
        miner_id: str,
        store: BlockStore,
        local: dict[int, Block],
        params: EpochParams,
        allocation: Allocation,
        quota_limit: Optional[int],
        epoch_start_height: int,
        epoch_start_tip: int,
        rng: Union[np.random.Generator, Callable[[], np.random.Generator]],
    ):
        self.miner_id = miner_id
        self.store = store
        self.local = local
        self.params = params
        self.allocation = allocation
        self.quota_limit = quota_limit
        self.epoch_start_height = epoch_start_height
        self.epoch_start_tip = epoch_start_tip
        self._rng = rng
        self._factored_at_start = store.factored_by_on_path(epoch_start_tip, miner_id)
        self._blocks_at_start = store.count_by_on_path(epoch_start_tip, miner_id)
        # (public block id, count there) of the last public read per count
        self._factored_memo = self._blocks_memo = (None, 0)

    @property
    def rng(self) -> np.random.Generator:
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        return self._rng

    def public_tips(self) -> list[int]:
        return self.store.tip_ids()

    def factored_used(self, parent_id: int) -> int:
        """Own factored blocks on the path to ``parent_id`` this epoch."""
        memo_id, used = self._factored_memo
        if parent_id != memo_id:
            used = self._used(
                parent_id, self.store.factored_by_on_path, self._factored_at_start, FACTORED
            )
            if parent_id not in self.local:
                self._factored_memo = parent_id, used
        return used

    def blocks_used(self, parent_id: int) -> int:
        """Own blocks on the path to ``parent_id`` this epoch."""
        memo_id, used = self._blocks_memo
        if parent_id != memo_id:
            used = self._used(
                parent_id, self.store.count_by_on_path, self._blocks_at_start, None
            )
            if parent_id not in self.local:
                self._blocks_memo = parent_id, used
        return used

    def _used(self, block_id: int, on_path, at_start: int, kind: Optional[str]) -> int:
        used = 0
        local = self.local
        while block_id in local:  # her private blocks are all her own
            _, block_id, _, block_kind, _ = local[block_id]
            used += kind is None or block_kind == kind
        if self.store.get(block_id)[-1] <= self.epoch_start_height:  # its height
            return used
        return used + on_path(block_id, self.miner_id) - at_start


class Strategy(Protocol):
    def allocate(self, balance: Fraction, params: EpochParams) -> Allocation: ...

    def generate_block(self, view: MinerView) -> Optional[tuple[int, str]]: ...

    def publish(self, view: MinerView) -> Iterable[int]:
        """Ids of private blocks to publish now, each one she holds in
        ``view.local``.  The engine polls this only while she holds private
        blocks, in miner-id order, until a round publishes nothing."""


@dataclass
class MinerConfig:
    id: str
    balance: Fraction
    strategy: "Strategy"

    def __post_init__(self):
        self.balance = exact_fraction(self.balance)
        if self.balance.numerator < 0:
            raise ValueError("balance must be non-negative")


@dataclass
class EpochResult:
    """Outcome of one epoch run.

    Token conservation holds exactly: the sum of end balances plus the user
    payout equals the internal expenses plus the minted supply.  External
    expenses leave the system.
    """

    epoch_index: int
    store: BlockStore
    main: Chain
    stats: dict[str, tuple[int, Fraction]]
    minted: dict[str, Fraction]
    redistributed: dict[str, Fraction]
    balances: dict[str, Fraction]
    user_payout: Fraction
    external_total: Fraction
    internal_total: Fraction
    prefix_ok: bool
    blocks_created: int
    steps: int

    def to_json(self) -> str:
        def frac(x: Fraction) -> str:
            return str(x)

        return json.dumps(
            {
                "epoch_index": self.epoch_index,
                "stats": {
                    m: [n, frac(w)] for m, (n, w) in sorted(self.stats.items())
                },
                "minted": {m: frac(v) for m, v in sorted(self.minted.items())},
                "redistributed": {
                    m: frac(v) for m, v in sorted(self.redistributed.items())
                },
                "balances": {m: frac(v) for m, v in sorted(self.balances.items())},
                "user_payout": frac(self.user_payout),
                "external_total": frac(self.external_total),
                "internal_total": frac(self.internal_total),
                "prefix_ok": self.prefix_ok,
                "blocks_created": self.blocks_created,
                "steps": self.steps,
                "main_tip": self.main.tip.id,
                "main_length": self.main.length,
            },
            sort_keys=True,
        )


@dataclass
class GameStats:
    """Aggregate statistics over a batch of independent epoch runs."""

    runs: int
    miner_ids: list[str]
    mean_utility: dict[str, float]
    stderr_utility: dict[str, float]
    mean_blocks: dict[str, float]
    mean_weight: dict[str, float]
    external_spend: dict[str, float]

    def to_csv(self) -> str:
        lines = ["miner_id,mean_utility,stderr,mean_blocks,mean_weight,external_spend"]
        for m in self.miner_ids:
            lines.append(
                f"{m},{self.mean_utility[m]:.10g},{self.stderr_utility[m]:.10g},"
                f"{self.mean_blocks[m]:.10g},{self.mean_weight[m]:.10g},"
                f"{self.external_spend[m]:.10g}"
            )
        return "\n".join(lines) + "\n"


# -- seeding ------------------------------------------------------------------------


def _stable_id_key(miner_id: str) -> int:
    digest = hashlib.sha256(miner_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def as_seedseq(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def child_seed(ss: np.random.SeedSequence, key: tuple[int, ...]) -> np.random.SeedSequence:
    """The seed below ``ss`` at ``key``: its spawn key extended by ``key``."""
    return np.random.SeedSequence(entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + key)


def _stream(ss: np.random.SeedSequence, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(child_seed(ss, key))


def miner_stream(seed: SeedLike, miner_id: str) -> np.random.Generator:
    """The stream of miner ``miner_id`` under ``seed``."""
    return _stream(as_seedseq(seed), (1, _stable_id_key(miner_id)))


def derive_streams(
    seed: SeedLike, miner_ids: Sequence[str]
) -> tuple[np.random.Generator, dict[str, np.random.Generator]]:
    """Scheduler stream plus one independent stream per miner.

    Streams are keyed on the miner id, so adding a miner does not perturb
    the draws of the others.
    """
    ss = as_seedseq(seed)
    return _stream(ss, (0,)), {m: miner_stream(ss, m) for m in miner_ids}


# -- balance setup -----------------------------------------------------------------


def normalized_balances(
    shares: Sequence[Union[float, Fraction]],
    params: EpochParams,
    allow_fractional: bool = False,
) -> list[Fraction]:
    """Miner balances matching relative ``shares`` under the equilibrium
    normalization: balances sum to ``epoch_len * mint``.

    Unless ``allow_fractional``, requires each ``epoch_len * share`` to be an
    integer (small miners below the 1/epoch_len granularity are rejected).
    """
    fshares = [as_fraction(s) for s in shares]
    if any(s <= 0 for s in fshares):
        raise ValueError("shares must be positive")
    total_share = sum(fshares)
    if total_share != 1:  # exact, so name the fraction: its float may read 1.0
        raise ValueError(
            f"shares must sum to 1, got {total_share}, "
            f"off by {float(total_share - 1):+.3g}"
        )
    total = params.epoch_len * params.mint
    balances = [s * total for s in fshares]
    if not allow_fractional:
        for s in fshares:
            blocks = s * params.epoch_len
            if blocks.denominator != 1:
                raise ValueError(
                    f"epoch_len * share = {float(blocks)} is not integral; "
                    "pass allow_fractional=True to override"
                )
    return balances


class MinerSelector:
    """A picklable function ``draw(rng, n)`` returning ``n`` miner ids, each
    drawn with probability proportional to external balance from one uniform
    of ``rng.random(n)``.  ``names`` holds the ids in sorted order, and
    :meth:`indices` gives the positions in it that uniforms select."""

    __slots__ = ("cumulative", "names")

    def __init__(self, cumulative: np.ndarray, names: np.ndarray):
        self.cumulative, self.names = cumulative, names

    def indices(self, uniforms: np.ndarray) -> np.ndarray:
        """Each uniform's miner: the first whose cumulative share exceeds
        it, else the last."""
        picks = np.searchsorted(self.cumulative, uniforms, side="right")
        return np.minimum(picks, len(self.names) - 1)

    def __call__(self, rng: np.random.Generator, n: int) -> list[str]:
        return self.names[self.indices(rng.random(n))].tolist()


def miner_selector(
    external_balances: dict[str, Union[Fraction, float]],
) -> MinerSelector:
    """The :class:`MinerSelector` of miners with these external balances.

    The draw consumes relative weights, so uniformly scaling all balances
    (e.g. two protocols whose allocations differ by a constant factor)
    yields bit-identical selections under the same stream.  Each share is
    a balance over the total, exact and rounded once to a float; the total
    is exact for int and Fraction balances, and their float sum when a
    balance is a float.
    """
    ids = sorted(external_balances)
    values = [external_balances[m] for m in ids]
    if all(isinstance(v, (int, Fraction)) for v in values):
        total = exact_sum(values)
    else:
        total = sum(values)
        values = [Fraction(v) for v in values]
    if total <= 0:
        raise StalledSystemError("all external balances are zero")
    total = exact_fraction(total)
    tn, td = total.numerator, total.denominator
    # int true division rounds correctly, as float(Fraction) does
    cumulative = np.fromiter(
        accumulate(v.numerator * td / (v.denominator * tn) for v in values),
        dtype=float,
        count=len(ids),
    )
    return MinerSelector(cumulative, np.array(ids, dtype=object))


def select_miner(
    external_balances: dict[str, Union[Fraction, float]],
    rng: np.random.Generator,
) -> str:
    """One draw of :func:`miner_selector`."""
    return miner_selector(external_balances)(rng, 1)[0]


# -- the scheduler ------------------------------------------------------------------


def allocate(miner: MinerConfig, params: EpochParams, protocol) -> Allocation:
    """``miner``'s allocation, checked against her balance and the protocol:
    internal expenditure needs a protocol that redistributes it."""
    alloc = miner.strategy.allocate(miner.balance, params)
    internal, external, balance = alloc.internal, alloc.external, miner.balance
    # internal + external == balance, cross-multiplied
    if (
        (internal.numerator * external.denominator + external.numerator * internal.denominator)
        * balance.denominator
        != balance.numerator * internal.denominator * external.denominator
    ):
        raise StrategyFault(
            f"miner {miner.id} allocated {float(alloc.total)} of balance "
            f"{float(miner.balance)}"
        )
    if alloc.internal and protocol.pool != "internal":
        raise StrategyFault(
            f"miner {miner.id} allocated {float(alloc.internal)} internally, but "
            f"protocol {protocol.name!r} has no internal expenditure"
        )
    return alloc


class Game:
    """The part of an epoch run that every run of a batch shares, computed
    once: the checks on the miners, the guard-ratio warning, each miner's
    allocation and quota limit, the miner selector, and the internal,
    external and minted totals, each sum exact over one common denominator
    (:func:`~hebsim.chain.exact_sum`).

    Raises ValueError for no miners or duplicate ids, StalledSystemError for
    zero total (or zero external) balance, and StrategyFault for an
    allocation :func:`allocate` rejects.  A ``Game`` pickles, so a process
    pool can ship it to its workers.
    """

    def __init__(self, params: EpochParams, miners: Sequence[MinerConfig], protocol):
        if not miners:
            raise ValueError("need at least one miner")
        self.params = params
        self.protocol = protocol
        self.miners = sorted(miners, key=lambda m: m.id)
        self.ids = [m.id for m in self.miners]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate miner ids")

        total_balance = exact_sum([m.balance for m in self.miners])
        if not total_balance:
            raise StalledSystemError("all miner balances are zero")
        if total_balance > params.user_balance * GUARD_RATIO:
            warnings.warn(
                "total miner balance is not negligible next to the user balance "
                f"(ratio {float(total_balance / params.user_balance):.3g}); "
                "redistribution terms may be visible",
                stacklevel=2,
            )

        allocs = self.allocations = {
            m.id: allocate(m, params, protocol) for m in self.miners
        }
        self.quota_limits = {m: params.quota_limit(a.internal) for m, a in allocs.items()}
        self.select = miner_selector({m: a.external for m, a in allocs.items()})
        self.internal_total = exact_sum([a.internal for a in allocs.values()])
        self.external_total = exact_sum([a.external for a in allocs.values()])
        self.minted_total = exact_product(protocol.mint_per_block(params), params.epoch_len)


_height_then_id = itemgetter(4, 0)  # a publication round's append order
_NO_BLOCKS = (0, Fraction(0))  # the epoch stats of a miner with no block
_KIND_OF = np.array([REGULAR, FACTORED], dtype=object)  # by whether factored


def _prescribed_makers(
    miners: Sequence[MinerConfig], generate: dict, publish: dict
) -> Optional[tuple[list[bool], list[bool]]]:
    """Per miner, in ``miners`` order: whether she makes factored blocks
    while her quota lasts (``PrescribedHeb``), and whether she withholds
    (``PowOnly``), when every miner's ``generate_block``, ``publish`` and
    ``_pick_tip`` as bound for the run are the ones :mod:`hebsim.protocols`
    defines; else None.  A miner who is neither makes regular blocks only
    (``PrescribedNakamoto``)."""
    # imported here: protocols imports this module
    from hebsim.protocols import PRESCRIBED_PLAY

    nakamoto, heb, pick_tip, publishes, withhold, withheld = PRESCRIBED_PLAY
    hebs, held = [], []
    for m in miners:
        fn = getattr(generate[m.id], "__func__", None)
        pub = getattr(publish[m.id], "__func__", None)
        if getattr(getattr(m.strategy, "_pick_tip", None), "__func__", None) is not pick_tip:
            return None
        if fn is withhold and pub is withheld:
            hebs.append(False)
            held.append(True)
        elif (fn is nakamoto or fn is heb) and pub is publishes:
            hebs.append(fn is heb)
            held.append(False)
        else:
            return None
    return hebs, held


def _withholding_draws(
    select: MinerSelector, rng: np.random.Generator, need: int, held: np.ndarray,
    epoch_len: int,
) -> tuple[np.ndarray, Optional[int]]:
    """The miner indices selected in a one-tip epoch, up to the step that
    ends it: the ``need``-th block of a publishing miner, or the
    ``epoch_len``-th of a withholder (``held`` at her index).  Also the
    index of the withholder who ended it, or None.  Uniforms are drawn in
    the generic loop's batches."""
    left = dict.fromkeys(np.flatnonzero(held).tolist(), epoch_len)  # blocks each misses
    batches = []
    while True:
        batch = select.indices(rng.random(min(max(need, 64), 4096)))
        published = np.cumsum(~held[batch])
        end, winner = int(np.searchsorted(published, need)), None
        for w, missing in left.items():
            hers = np.flatnonzero(batch == w)
            if len(hers) >= missing and hers[missing - 1] < end:
                end, winner = int(hers[missing - 1]), w
            left[w] = missing - len(hers)
        if end < len(batch):
            batches.append(batch[: end + 1])
            return np.concatenate(batches), winner
        need -= int(published[-1])
        batches.append(batch)


def _quota_room(
    n: int, used: dict[int, int], limits: Sequence[Optional[int]]
) -> np.ndarray:
    """The quota rule, per miner index: how many of her next ``n`` blocks
    are factored.  A miner ``m`` in ``used`` makes factored blocks while
    ``within_quota`` holds, that is her first ``limits[m] - used[m]`` (all
    when the limit is None); every other block is regular."""
    room = np.zeros(len(limits), dtype=np.int64)
    for m, u in used.items():
        room[m] = n if limits[m] is None else min(max(limits[m] - u, 0), n)  # fits int64
    return room


def _quota_kinds(selected: np.ndarray, room: np.ndarray) -> list[str]:
    """The kind of each selected miner's block: factored for her first
    ``room[m]`` selections (see :func:`_quota_room`), else regular."""
    n = len(selected)
    if not room.any():
        return [REGULAR] * n
    order = np.argsort(selected, kind="stable")
    by_miner = selected[order]
    rank = np.arange(n) - np.searchsorted(by_miner, by_miner)
    factored = np.empty(n, dtype=bool)
    factored[order] = rank < room[by_miner]  # her rank among her selections
    return _KIND_OF[factored.view(np.int8)].tolist()


def run_epoch(
    game: Game, seed: SeedLike, store: Optional[BlockStore] = None
) -> EpochResult:
    """Run one epoch of ``game``.

    Repeats {select a miner proportionally to external expenditure, generate
    one block, run the publication fixpoint} until the main chain reaches
    the end of epoch ``k``.  End balances follow the protocol's reward
    distribution, exact: the run checks token conservation as an equality
    of Fractions, summed over one common denominator, and raises
    AssertionError when it fails.

    On a given ``store``, ``k`` is the main chain's length floor-divided by
    ``params.epoch_len``, and the epoch starts at main-chain position
    ``k * epoch_len``: blocks a previous epoch published past its end
    already belong to epoch ``k``.

    Prescribed play on a one-tip store, ``pow_only`` withholders included
    (see the module docstring), runs on arrays of selected miner indices
    instead of the step loop, and gives each stored chain to one
    ``store.extend`` call as columns, which the store keeps until a read
    needs their blocks.  With ``store`` None it also settles from the
    selection counts, so neither it nor ``to_json()`` builds a Block, and
    ``main`` builds its Blocks on its first read of ``blocks``.  The output
    is the same: the same selections, blocks, stats, ``steps`` and
    ``blocks_created``.  New block ids continue from ``store.max_id``.

    Raises ValueError, before the settlement, when the epoch holds blocks
    by a creator who is not one of the game's miners (a store built by
    another game): no miner of this one could be paid for them.
    """
    params, protocol, miners = game.params, game.protocol, game.miners
    fresh = store is None
    if fresh:
        store = BlockStore()
        store.append(genesis_block(0))
    start_main = store.main_chain()
    epoch_index = start_main.length // params.epoch_len
    start_len = epoch_index * params.epoch_len
    target_len = start_len + params.epoch_len
    start_tip = start_main.blocks[start_len]
    next_id = 1 + store.max_id

    ss = as_seedseq(seed)
    sched_rng = _stream(ss, (0,))

    views: dict[str, MinerView] = {}  # built for the generic loop only
    # bound once per run, so a strategy class patched before the run is seen
    generate = {m.id: m.strategy.generate_block for m in miners}
    publish = {m.id: m.strategy.publish for m in miners}

    select = game.select
    quota_mode = protocol.quota_mode

    def can_create(view: MinerView) -> bool:
        return quota_mode != "count" or any(
            within_quota(view.blocks_used(t), view.quota_limit)
            for t in store.tip_ids()
        )

    steps = created = 0
    max_steps = 1000 + 100 * params.epoch_len
    stats = None  # the epoch's stats, when the path below counts them
    play = quota_mode in ("none", "factored") and _prescribed_makers(
        miners, generate, publish
    )
    if play and len(store.tip_ids()) == 1:
        # prescribed play on one tip: each step's publishing miner extends
        # the tip and publishes at once, and each withholder extends her
        # private chain off ``start_tip``, which she publishes whole at its
        # ``epoch_len``-th block.  So no strategy is called, and the stored
        # blocks are the publishing miners' chain, then the chain of the
        # withholder who ended the epoch, if one did: one extend call each,
        # given columns.  A maker of factored blocks counts hers at the tip
        # as her view would, by the store's counts there and at
        # ``start_tip``.  Other withholders' blocks stay private.
        # On a fresh store the main chain is the one that ended the epoch,
        # so its stats are counts over the selections.
        hebs, held = play
        held = np.array(held)
        withholding = held.any()
        parent_id, need = start_main.tip.id, target_len - start_main.length
        if withholding:
            selected, winner = _withholding_draws(
                select, sched_rng, need, held, params.epoch_len
            )
        else:
            selected, winner = select.indices(sched_rng.random(need)), None
        steps = created = len(selected)
        if steps > max_steps:  # where the generic loop would have stopped
            raise RuntimeError(
                f"epoch did not terminate within {max_steps} scheduler steps"
            )
        names = select.names
        if winner is not None:
            won = (next_id + np.flatnonzero(selected == winner)).tolist()
        at = np.flatnonzero(~held[selected])  # the publishing miners' steps
        selected = selected[at]
        makers = [i for i, heb in enumerate(hebs) if heb]
        used = dict.fromkeys(makers, 0)  # none past a tip at or below the start
        if makers and start_main.length > start_len:  # the tip's height
            on_path = store.factored_by_on_path
            at_start = [on_path(start_tip.id, game.ids[i]) for i in makers]
            for i, before in zip(makers, at_start):
                used[i] = on_path(parent_id, game.ids[i]) - before
        room = _quota_room(len(selected), used, [game.quota_limits[m] for m in game.ids])
        store.extend(
            parent_id, (next_id + at).tolist(), names[selected].tolist(),
            _quota_kinds(selected, room),
        )
        if winner is not None:
            n = len(won)
            store.extend(start_tip.id, won, [names[winner]] * n, [REGULAR] * n)
            if fresh:  # her chain: all her blocks, none factored
                stats = stats_from_counts([(names[winner], n, 0)], params.factor)
        elif fresh:
            counts = np.bincount(selected, minlength=len(room))
            stats = stats_from_counts(
                zip(game.ids, counts.tolist(), np.minimum(counts, room).tolist()),
                params.factor,
            )
    else:
        views = {
            m.id: MinerView(
                m.id, store, {}, params, game.allocations[m.id], game.quota_limits[m.id],
                start_len, start_tip.id, partial(miner_stream, ss, m.id),
            )
            for m in miners
        }

    # the generic loop, for every other game (the path above completes the
    # epoch, so after it the loop does not start).
    # miners whose ``local`` is non-empty: the only ones ``publish`` is asked
    holders: set[str] = set()
    get = store.get
    draws = iter(())
    while store.main_chain_length() < target_len:
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"epoch did not terminate within {max_steps} scheduler steps"
            )
        mid = next(draws, None)
        if mid is None:
            # one uniform per step, drawn in batches sized to what is missing
            missing = target_len - store.main_chain_length()
            draws = iter(select(sched_rng, min(max(missing, 64), 4096)))
            mid = next(draws)
        view = views[mid]
        result = generate[mid](view)
        if result is None:
            # mandatory-expenditure protocols: the selected miner has no
            # quota left; her mining power is wasted this step.
            if not any(can_create(v) for v in views.values()):
                raise StalledSystemError(
                    "all miners exhausted their block-creation quotas"
                )
            continue
        parent_id, kind = result
        local = view.local
        # block ids are unique, so a parent is in her ``local`` or public
        parent = local.get(parent_id)
        if parent is None:
            try:
                parent = get(parent_id)
            except KeyError:
                raise StrategyFault(
                    f"miner {mid} extended unknown parent {parent_id}"
                ) from None
        if kind not in (REGULAR, FACTORED):
            raise StrategyFault(f"miner {mid} returned block kind {kind!r}")
        limit = view.quota_limit
        if quota_mode == "factored" and kind == FACTORED:
            if not within_quota(view.factored_used(parent_id), limit):
                raise StrategyFault(
                    f"miner {mid} exceeded her factored-block quota ({limit})"
                )
        elif quota_mode == "count":
            if not within_quota(view.blocks_used(parent_id), limit):
                raise StrategyFault(f"miner {mid} exceeded her block quota ({limit})")
        local[next_id] = Block(next_id, parent_id, mid, kind, parent[-1] + 1)
        next_id += 1
        created += 1
        holders.add(mid)

        # publication rounds, until one publishes nothing.  No block is
        # created here, and each round that publishes moves at least one
        # block out of a ``local`` (a block published twice is a
        # StrategyFault), so the rounds are bounded by the blocks held.
        while holders:
            batch: list[Block] = []
            for hid in sorted(holders) if len(holders) > 1 else holders:
                held = views[hid]
                local = held.local
                for bid in publish[hid](held):
                    if bid not in local:
                        raise StrategyFault(
                            f"miner {hid} published block {bid} it does not hold"
                        )
                    batch.append(local[bid])
            if not batch:
                break
            if len(batch) > 1:
                batch.sort(key=_height_then_id)
            for b in batch:
                try:
                    store.append(b)
                except ChainError as e:
                    raise StrategyFault(
                        f"miner {b.creator} published an unappendable block: {e}"
                    ) from e
                bid, _, creator, _, _ = b
                local = views[creator].local
                del local[bid]
                if not local:
                    holders.discard(creator)

    main = store.main_chain()
    if stats is None:
        prefix_ok = (
            main.length >= start_len and main.blocks[start_len].id == start_tip.id
        )
        stats = epoch_stats(main, epoch_index, params)
    else:  # the epoch's chain is the main chain from genesis
        prefix_ok = True
    ids = game.ids
    for m in ids:
        stats.setdefault(m, _NO_BLOCKS)
    if len(stats) > len(ids):  # balance_fn pays the game's miners only
        foreign = sorted(stats.keys() - set(ids))
        raise ValueError(
            f"epoch {epoch_index} holds blocks by creators not among the game's "
            f"miners: {', '.join(map(repr, foreign))}"
        )

    # balance_fn fills both dicts for every id
    outcome = protocol.balance_fn(stats, params, game.allocations, ids)
    minted, redistributed = outcome.minted, outcome.redistributed
    balances = {
        m: exact_add(minted[m], redistributed[m]) if redistributed[m] else minted[m]
        for m in ids
    }
    conserved = exact_sum([*balances.values(), outcome.user_payout])
    if conserved != exact_add(game.internal_total, game.minted_total):
        raise AssertionError(
            "token conservation violated: "
            f"{conserved} != {game.internal_total} + {game.minted_total}"
        )

    return EpochResult(
        epoch_index=epoch_index,
        store=store,
        main=main,
        stats=stats,
        minted=minted,
        redistributed=redistributed,
        balances=balances,
        user_payout=outcome.user_payout,
        external_total=game.external_total,
        internal_total=game.internal_total,
        prefix_ok=prefix_ok,
        blocks_created=created,
        steps=steps,
    )


class GameAccumulator:
    """Streaming mean/variance accumulation over epoch results."""

    def __init__(self, miner_ids: Sequence[str], external_spend: dict[str, float]):
        self.ids = sorted(miner_ids)
        self.external = external_spend
        self.count = 0
        self._sum = {m: 0.0 for m in self.ids}
        self._sq = {m: 0.0 for m in self.ids}
        self._blocks = {m: 0.0 for m in self.ids}
        self._weight = {m: 0.0 for m in self.ids}

    def add(self, res: EpochResult) -> list[tuple[float, float]]:
        """Add ``res``; return each miner's utility and epoch weight as
        floats, in ``ids`` order."""
        self.count += 1
        floats = []
        for m in self.ids:
            u = float(res.balances[m])
            n, w = res.stats[m]
            w = float(w)
            self._sum[m] += u
            self._sq[m] += u * u
            self._blocks[m] += n
            self._weight[m] += w
            floats.append((u, w))
        return floats

    def stats(self) -> GameStats:
        if not self.count:
            raise ValueError("no run was added: the statistics of no runs are undefined")
        n = float(self.count)
        mean = {m: self._sum[m] / n for m in self.ids}
        stderr = {}
        for m in self.ids:
            var = max(self._sq[m] / n - mean[m] ** 2, 0.0)
            stderr[m] = math.sqrt(var / n) if self.count > 1 else 0.0
        return GameStats(
            runs=self.count,
            miner_ids=self.ids,
            mean_utility=mean,
            stderr_utility=stderr,
            mean_blocks={m: self._blocks[m] / n for m in self.ids},
            mean_weight={m: self._weight[m] / n for m in self.ids},
            external_spend=self.external,
        )


def iter_game_results(
    params: EpochParams,
    miners: Sequence[MinerConfig],
    protocol,
    count: int,
    seed: SeedLike,
    jobs: int = 1,
):
    """Yield ``count`` independent EpochResults in run-index order.

    The :class:`Game` is built once for the batch.  Each run gets its own
    seed derived from the master; with ``jobs > 1`` runs execute in a
    process pool but results are merged in index order, so parallelism
    never changes output.  ``jobs`` is an upper bound: the pool starts at
    most one worker per run and per CPU.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    game = Game(params, miners, protocol)
    children = as_seedseq(seed).spawn(count)
    jobs = min(jobs, count, os.cpu_count() or 1)
    if jobs <= 1:
        for child in children:
            yield run_epoch(game, child)
    else:
        # imported here: only a pooled batch pays for the import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(
                _run_one_pickled,
                [(game, child) for child in children],
                chunksize=max(1, count // (jobs * 4)),
            )


def run_games(
    params: EpochParams,
    miners: Sequence[MinerConfig],
    protocol,
    count: int,
    seed: SeedLike,
    jobs: int = 1,
) -> GameStats:
    """Aggregate utility statistics over ``count`` independent epoch runs."""
    acc = GameAccumulator(
        [m.id for m in miners],
        {m.id: float(m.strategy.allocate(m.balance, params).external) for m in miners},
    )
    for res in iter_game_results(params, miners, protocol, count, seed, jobs):
        acc.add(res)
    return acc.stats()


def _run_one_pickled(args) -> EpochResult:
    # run_epoch is looked up at call time, so a wrapper set on it is seen
    return run_epoch(*args)
