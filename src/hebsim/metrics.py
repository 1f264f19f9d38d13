"""Closed-form evaluation metrics for the epoch mining game.

All functions are pure.  Binomial probabilities are computed in log space
and accumulated with compensated summation so that epoch lengths up to 10^4
stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_SHARE_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BalanceDistribution:
    """Relative miner balances; positive shares summing to 1."""

    shares: tuple[float, ...]

    def __init__(self, shares: Iterable[float]):
        object.__setattr__(self, "shares", tuple(float(s) for s in shares))
        if not self.shares:
            raise ValueError("shares must be non-empty")
        if any(s <= 0 for s in self.shares):
            raise ValueError("shares must be positive")
        if abs(sum(self.shares) - 1.0) > _SHARE_SUM_TOL:
            raise ValueError("shares must sum to 1")

    def __len__(self) -> int:
        return len(self.shares)


def binom_logpmf(n: int, trials: int, p: float) -> float:
    if n < 0 or n > trials:
        return -math.inf
    if p <= 0.0:
        return 0.0 if n == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if n == trials else -math.inf
    return (
        math.lgamma(trials + 1)
        - math.lgamma(n + 1)
        - math.lgamma(trials - n + 1)
        + n * math.log(p)
        + (trials - n) * math.log1p(-p)
    )


def binom_pmf(n: int, trials: int, p: float) -> float:
    lp = binom_logpmf(n, trials, p)
    return 0.0 if lp == -math.inf else math.exp(lp)


class WeightOverflowError(ValueError):
    """A factor so large that an epoch's block weight overflows a float."""


def _quota(share: float, epoch_len: int, factor: float, allow_fractional: bool) -> int:
    """The factored-block quota ``epoch_len * share``, after checking that
    ``factor`` is finite, at least 1 and small enough for the heaviest
    epoch, ``epoch_len`` factored blocks, to weigh a finite float."""
    if not 1 <= factor < math.inf:
        raise ValueError("factor must be >= 1 and finite")
    if math.isinf(epoch_len * factor):
        raise WeightOverflowError(
            f"factor {factor} overflows the weight of a {epoch_len}-block epoch"
        )
    quota = epoch_len * share
    if not allow_fractional:
        if abs(quota - round(quota)) > 1e-9:
            raise ValueError(
                f"epoch_len * share = {quota} is not integral; "
                "pass allow_fractional=True to floor it"
            )
        return round(quota)
    return math.floor(quota + 1e-9)


def _weight(n: int, quota: int, factor: float) -> float:
    if n <= quota:
        return n * factor
    return quota * factor + n - quota


def conditional_weight(
    n: int, share: float, epoch_len: int, factor: float, allow_fractional: bool = False
) -> float:
    """Accumulated block weight of a miner that created ``n`` of the epoch's
    blocks while holding relative balance ``share``.

    The first ``epoch_len * share`` blocks are factored (weight ``factor``),
    the remainder regular (weight 1).
    """
    if not 0 <= n <= epoch_len:
        raise ValueError(f"block count {n} outside [0, {epoch_len}]")
    return _weight(n, _quota(share, epoch_len, factor, allow_fractional), factor)


def expected_weight(
    share: float, epoch_len: int, factor: float, allow_fractional: bool = False
) -> float:
    """E[accumulated weight] when the miner's block count is Bin(epoch_len, share).

    The terms ``pmf(n) * weight(n)`` are summed outward from the mode, and
    each side stops at its first term that is exactly 0.0: the pmf falls
    away from the mode, so every term past it is 0.0 too, and ``fsum`` is
    exactly rounded, so the dropped zeros cannot change the result.
    """
    if epoch_len < 0:
        raise ValueError(f"epoch_len must be non-negative, got {epoch_len}")
    quota = _quota(share, epoch_len, factor, allow_fractional)
    if not 0.0 < share < 1.0:  # all the mass, a pmf of 1.0, on one count
        return 1.0 * _weight(0 if share <= 0.0 else epoch_len, quota, factor)
    head, log_p, log_q = math.lgamma(epoch_len + 1), math.log(share), math.log1p(-share)
    mode = min(int((epoch_len + 1) * share), epoch_len)
    terms = []
    for side in (range(mode, -1, -1), range(mode + 1, epoch_len + 1)):
        for n in side:
            # binom_pmf(n, epoch_len, share), its float operations in its order
            lp = (
                head
                - math.lgamma(n + 1)
                - math.lgamma(epoch_len - n + 1)
                + n * log_p
                + (epoch_len - n) * log_q
            )
            t = math.exp(lp) * _weight(n, quota, factor)
            if t == 0.0:
                break
            terms.append(t)
    return math.fsum(terms)


def epsilon(
    dist: BalanceDistribution | Sequence[float],
    epoch_len: int,
    factor: float,
    allow_fractional: bool = False,
) -> float:
    """Maximal gap between a miner's relative balance and her relative
    expected reward when everyone follows the prescribed strategy."""
    if epoch_len < 1:
        raise ValueError(f"epoch_len must be at least 1, got {epoch_len}")
    if not isinstance(dist, BalanceDistribution):
        dist = BalanceDistribution(dist)
    ews = [
        expected_weight(s, epoch_len, factor, allow_fractional) for s in dist.shares
    ]
    total = math.fsum(ews)
    return max(abs(s - ew / total) for s, ew in zip(dist.shares, ews))


def normalized_weight(
    share: float, epoch_len: int, factor: float, allow_fractional: bool = False
) -> float:
    """Expected weight per unit of relative balance, scaled by 1/(epoch_len*factor).

    Tends to 1 as the epoch length grows; equal values across miners are
    equivalent to a zero size-indifference gap.
    """
    if not 0 < share <= 1:
        raise ValueError(f"share must lie in (0, 1], got {share}")
    if epoch_len < 1:
        raise ValueError(f"epoch_len must be at least 1, got {epoch_len}")
    ew = expected_weight(share, epoch_len, factor, allow_fractional)
    return ew / share / (epoch_len * factor)


def normalized_weight_curve(
    shares: Sequence[float],
    epoch_lens: Sequence[int] | None = None,
    factors: Sequence[float] | None = None,
    epoch_len: int | None = None,
    factor: float | None = None,
    allow_fractional: bool = True,
) -> list[tuple[float, float, float]]:
    """Grid of normalized weights, one of (epoch length, factor) swept.

    Returns rows ``(x, share, value)`` where ``x`` iterates the swept grid.
    """
    if (epoch_lens is None) == (factors is None):
        raise ValueError("exactly one of epoch_lens / factors must be given")
    if epoch_lens is not None:
        if factor is None:
            raise ValueError("fixed factor required when sweeping epoch length")
        grid = [(ell, ell, factor) for ell in epoch_lens]
    else:
        if epoch_len is None:
            raise ValueError("fixed epoch_len required when sweeping factor")
        grid = [(f, epoch_len, f) for f in factors]
    return [
        (float(x), s, normalized_weight(s, ell, f, allow_fractional))
        for x, ell, f in grid
        for s in shares
    ]


def pow_only_bound(rho: float) -> float:
    """Relative balance above which mining everything privately on external
    resources alone beats the prescribed strategy: (1-rho)/(2-rho)."""
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    return (1.0 - rho) / (2.0 - rho)


def permissiveness(share: float, factor: float) -> float:
    """Utility ratio of a joining miner denied internal tokens to one with
    them: 1/(share + factor*(1-share)).  Equals 1 for factor 1."""
    if not 0 < share <= 1:
        raise ValueError("share must lie in (0, 1]")
    if not 1 <= factor < math.inf:
        raise ValueError("factor must be >= 1 and finite")
    return 1.0 / (share + factor * (1.0 - share))


def attack_costs(rho: float) -> tuple[float, float]:
    """Per-block cost of a chain-reorganization attack, with the attacker's
    blocks earning main-chain rewards (refunded) or discarded (sabotage)."""
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    return 1.0, 1.0 - rho


def external_expense(rho: float) -> float:
    """External (physical) expenditure per block under prescribed HEB play."""
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    return 1.0 - rho


def binomial_tail(
    epoch_len: int, share: float, rel_err: float
) -> tuple[float, float]:
    """Exact lower/upper tail mass of Bin(epoch_len, share) at a relative
    deviation of ``rel_err`` around the mean.

    Returns ``(P[n <= mean*(1-rel_err)], P[n >= mean*(1+rel_err)])``.
    """
    if not 0 < rel_err < 1:
        raise ValueError("rel_err must lie in (0, 1)")
    mean = epoch_len * share
    lo_cut = math.floor(mean * (1.0 - rel_err) + 1e-12)
    hi_cut = math.ceil(mean * (1.0 + rel_err) - 1e-12)
    lower = math.fsum(binom_pmf(n, epoch_len, share) for n in range(0, lo_cut + 1))
    upper = math.fsum(
        binom_pmf(n, epoch_len, share) for n in range(hi_cut, epoch_len + 1)
    )
    return lower, upper


def redistribution_bound(
    miner_internal_total: Fraction | float, user_balance: Fraction | float
) -> float:
    """Upper bound on the total redistribution received back by miners,
    quantifying the quality of dropping that term from utility formulas."""
    m = float(miner_internal_total)
    u = float(user_balance)
    if m < 0 or u <= 0:
        raise ValueError("need miner internal >= 0 and user balance > 0")
    return m * m / (m + u)
