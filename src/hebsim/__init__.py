"""Epoch-based mining-game simulator and analysis toolkit.

Implements a tunable hybrid-expenditure blockchain protocol (HEB) next to
its Nakamoto baseline: a scheduler-driven block-creation game, reward
distribution with weighted block types, incentive/attack/permissiveness
metrics, and an exact finite-horizon best-response solver.
"""

from hebsim.chain import (
    Allocation,
    Block,
    BlockStore,
    Chain,
    ChainError,
    EpochParams,
    FACTORED,
    REGULAR,
    epoch_slice,
    epoch_stats,
)
from hebsim.engine import (
    EpochResult,
    Game,
    MinerConfig,
    StalledSystemError,
    StrategyFault,
    normalized_balances,
    run_epoch,
    run_games,
    select_miner,
)
from hebsim.protocols import ProtocolSpec, get_protocol, make_strategy

__all__ = [
    "Allocation",
    "Block",
    "BlockStore",
    "Chain",
    "ChainError",
    "EpochParams",
    "EpochResult",
    "FACTORED",
    "Game",
    "MinerConfig",
    "ProtocolSpec",
    "REGULAR",
    "StalledSystemError",
    "StrategyFault",
    "epoch_slice",
    "epoch_stats",
    "get_protocol",
    "make_strategy",
    "normalized_balances",
    "run_epoch",
    "run_games",
    "select_miner",
]

__version__ = "0.1.0"
