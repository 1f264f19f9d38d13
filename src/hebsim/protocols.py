"""The reward model and prescribed strategies.

Every protocol splits an epoch's mint among the miners and may redistribute
a pool to all token holders; they differ only in the mint rate, whether the
mint is split by block weight or by block count, and the pool (see
:class:`ProtocolSpec`).  Protocols: ``nakamoto``, ``nakamoto_half``, ``prd``
(proportional redistribution of the mint), ``heb`` (weighted block types
with internal expenditure), and ``heb_mandatory`` (internal expenditure
required for every block).

Strategies: ``prescribed``, ``petty_compliant`` (tie-breaks longest chains
toward minimum accumulated weight), ``pow_only`` (withholds a full private
epoch), and ``no_ic`` (prescribed play without access to internal currency).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from hebsim.chain import (
    Allocation,
    EpochParams,
    FACTORED,
    REGULAR,
    epoch_stats,  # unused here; perfbench's tracer patches protocols.epoch_stats by name
    exact_add,
    exact_fraction,
    exact_product,
    exact_quotient,
    exact_scaled,
    exact_split,
    exact_sum,
    within_quota,
)
from hebsim.engine import MinerView


@dataclass
class BalanceOutcome:
    """Split of an epoch's token flows: freshly minted rewards per miner,
    each miner's share of the redistributed pool, and the users' share."""

    minted: dict[str, Fraction]
    redistributed: dict[str, Fraction]
    user_payout: Fraction


# -- strategies -----------------------------------------------------------------------


def _uniform_tip(view: MinerView, tips: list[int]) -> int:
    if len(tips) == 1:
        return tips[0]
    return tips[int(view.rng.integers(len(tips)))]


class PrescribedNakamoto:
    """Spend everything externally, extend a uniformly chosen longest chain
    with a regular block, publish immediately."""

    def allocate(self, balance, params) -> Allocation:
        return Allocation(Fraction(0), Fraction(balance))

    def _pick_tip(self, view: MinerView) -> int:
        return _uniform_tip(view, view.public_tips())

    def generate_block(self, view: MinerView):
        return self._pick_tip(view), REGULAR

    def publish(self, view: MinerView):
        return sorted(view.local)


class PrescribedHeb(PrescribedNakamoto):
    """Allocate ratio rho internally, extend a uniformly chosen longest
    chain, create factored blocks while quota remains, publish immediately."""

    def allocate(self, balance, params) -> Allocation:
        return Allocation(*exact_split(exact_fraction(balance), params.rho))

    def generate_block(self, view: MinerView):
        tip = self._pick_tip(view)
        if within_quota(view.factored_used(tip), view.quota_limit):
            return tip, FACTORED
        return tip, REGULAR


class PettyCompliant(PrescribedHeb):
    """Prescribed play, except ties among longest chains are broken toward
    the minimum accumulated weight (uniformly within exact weight ties)."""

    def _pick_tip(self, view: MinerView) -> int:
        tips = view.public_tips()
        if len(tips) == 1:
            return tips[0]
        weights = [view.store.path_weight(t, view.params.factor) for t in tips]
        lightest = min(weights)
        candidates = [t for t, w in zip(tips, weights) if w == lightest]
        return _uniform_tip(view, candidates)


class NoInternalCurrency(PrescribedNakamoto):
    """Prescribed play for a miner unable to obtain internal currency:
    everything external, all blocks regular."""


class PowOnly(PrescribedNakamoto):
    """Ignore internal expenditure entirely: mine a full private epoch on
    external resources and publish the epoch_len blocks all at once.

    On a one-tip store, ``run_epoch`` plays her epoch without calling her
    methods, unless they are patched or overridden (see
    :data:`PRESCRIBED_PLAY`)."""

    def generate_block(self, view: MinerView):
        if view.local:
            # local is one private chain in insertion order: the newest is its tip
            parent = next(reversed(view.local))
        else:
            parent = view.epoch_start_tip
        return parent, REGULAR

    def publish(self, view: MinerView):
        if len(view.local) < view.params.epoch_len:
            return []
        return sorted(view.local)


class PrescribedMandatory(PrescribedHeb):
    """Allocate ratio rho internally; every block consumes quota.  Returns
    no block once the quota on the chosen chain is exhausted."""

    def generate_block(self, view: MinerView):
        tip = self._pick_tip(view)
        if not within_quota(view.blocks_used(tip), view.quota_limit):
            return None
        return tip, REGULAR


# The methods of prescribed play and of withholding as defined above, taken
# before anything can patch the classes.  run_epoch plays an epoch of them
# without calling them when every miner's methods, as bound for the run,
# are these.
PRESCRIBED_PLAY = (
    PrescribedNakamoto.generate_block,
    PrescribedHeb.generate_block,
    PrescribedNakamoto._pick_tip,
    PrescribedNakamoto.publish,
    PowOnly.generate_block,
    PowOnly.publish,
)


# -- registry -------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol: its prescribed strategy, reward model, mint rate, and how
    block-creation quotas apply.

    ``pool`` is what gets shared pro rata among all token holders (the
    users' balance and each miner's internal allocation): ``"none"``,
    ``"internal"`` (the miners' internal expenses) or ``"mint"`` (a ``rho``
    share of every block's mint, which its creator does not keep).
    """

    name: str
    prescribed: Callable[[], object]  # builds the prescribed strategy
    pool: str = "none"  # "none" | "internal" | "mint"
    mint_scale: Fraction = Fraction(1)
    quota_mode: str = "factored"  # "factored" | "count" | "none"

    def mint_per_block(self, params: EpochParams) -> Fraction:
        return exact_product(params.mint, self.mint_scale)

    def balance_fn(
        self,
        stats: dict[str, tuple[int, Fraction]],
        params: EpochParams,
        allocations: dict[str, Allocation],
        miner_ids: list[str],
    ) -> BalanceOutcome:
        """Rewards of an epoch whose :func:`~hebsim.chain.epoch_stats` are
        ``stats`` (miner -> (block count, accumulated weight)).

        The epoch's mint (less the ``"mint"`` pool) is split by accumulated
        weight under factored quotas and by block count otherwise.
        ``allocations`` is read only when there is a pool.  Every amount is
        exact, each sum taken over one common denominator (see
        :func:`~hebsim.chain.exact_sum`).
        """
        by = 1 if self.quota_mode == "factored" else 0
        zero = Fraction(0)
        contributed = exact_sum([s[by] for s in stats.values()])
        if not contributed:
            raise ArithmeticError("epoch carries zero total weight")
        mint_total = exact_product(self.mint_per_block(params), params.epoch_len)
        # the "mint" pool is a rho share of the mint, which miners do not keep
        pool, kept = (
            exact_split(mint_total, params.rho) if self.pool == "mint" else (None, mint_total)
        )
        absent = (0, zero)
        minted = dict(zip(miner_ids, exact_scaled(
            [stats.get(m, absent)[by] for m in miner_ids], exact_quotient(kept, contributed)
        )))
        if self.pool == "none":
            return BalanceOutcome(minted, dict.fromkeys(miner_ids, zero), zero)
        internals = [allocations[m].internal for m in miner_ids]
        internal_total = exact_sum(internals)
        if pool is None:  # the "internal" pool
            pool = internal_total
        per_holding = exact_quotient(pool, exact_add(params.user_balance, internal_total))
        redistributed = dict(zip(miner_ids, exact_scaled(internals, per_holding)))
        return BalanceOutcome(
            minted, redistributed, exact_product(params.user_balance, per_holding)
        )


_PROTOCOLS: dict[str, ProtocolSpec] = {
    "nakamoto": ProtocolSpec("nakamoto", PrescribedNakamoto, quota_mode="none"),
    "nakamoto_half": ProtocolSpec(
        "nakamoto_half",
        PrescribedNakamoto,
        mint_scale=Fraction(1, 2),
        quota_mode="none",
    ),
    "prd": ProtocolSpec("prd", PrescribedNakamoto, pool="mint", quota_mode="none"),
    "heb": ProtocolSpec("heb", PrescribedHeb, pool="internal", quota_mode="factored"),
    "heb_mandatory": ProtocolSpec(
        "heb_mandatory", PrescribedMandatory, pool="internal", quota_mode="count"
    ),
}

_STRATEGIES: dict[str, Callable[[ProtocolSpec], object]] = {
    "prescribed": lambda proto: proto.prescribed(),
    "petty_compliant": lambda proto: PettyCompliant(),
    "pow_only": lambda proto: PowOnly(),
    "no_ic": lambda proto: NoInternalCurrency(),
}


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(_PROTOCOLS)}"
        ) from None


def protocol_names() -> list[str]:
    return sorted(_PROTOCOLS)


def strategy_names() -> list[str]:
    return sorted(_STRATEGIES)


def make_strategy(name: str, protocol: ProtocolSpec):
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    return factory(protocol)


def real_value_scale(protocol: ProtocolSpec) -> Fraction:
    """Price multiplier turning nominal tokens into cross-protocol value:
    the token price is inverse to the minted supply, so halving the mint
    doubles the price."""
    return 1 / protocol.mint_scale
