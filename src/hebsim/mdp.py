"""Exact finite-horizon best-response solver for one strategic miner.

The opponent is a cohort of infinitely many, infinitely small miners that
follow the petty-compliant strategy: extend a longest chain, tie-breaking
toward minimum accumulated weight; create factored blocks while per-chain
quota remains.

The game is a finite acyclic MDP.  A state holds

* a summary of the established prefix since epoch start (per-party counts of
  regular/factored blocks; only aggregates matter for the final reward),
* the type-ordered secret extension (attacker blocks) and public extension
  (cohort blocks) past the fork point,
* a flag marking that the attacker published a prefix equal in length to the
  public extension, splitting the cohort between two tips.

An action pairs a chain move (wait / adopt / publish a prefix of the secret
chain) with the type of the next block the attacker would create.  Each step
then creates exactly one block: the attacker's with probability ``alpha``,
the cohort's otherwise.  The epoch ends when either chain reaches the epoch
length; the attacker's reward is her minted share on the resulting main
chain (the redistribution term is negligible and omitted).

Backward induction over this graph yields the exact optimal policy, not an
approximation.  Only the terminal rewards depend on the factor phi: weight
ties only ever arise between two chains of equal length, so they are decided
by comparing integer counts of factored blocks, which depends on phi only
through whether it is 1.  So the graph is compiled once into flat arrays:
each state as a row of small integers (the four established counts, both
extensions' lengths, the public extension's factored count and the fork
flag) with its secret extension's types as bitmask words, the legal actions
of each state as integer codes, each action's successors and probability
codes, each terminal state's integer block counts, and each state's level (0
when terminal, else one more than its highest successor).  The compile runs
in numpy one frontier of states at a time, a frontier being the states whose
chains hold a given number of blocks, and it checks the state budget before
it expands each frontier.  States are numbered frontier by frontier as the
compile finds them, the initial state first.  The allocations of one game
differ only in the attacker's factored quota and in ``alpha``, so a cached
graph holds all of them: each state's row also names its allocation, states
of different allocations never merge, and allocation ``k``'s initial state
is state ``k``, the root its game starts from.  Each phi then costs one
backward pass over those arrays in numpy, one level at a time, for every
allocation at once.  A level's action values are summed one successor
column at a time and its best actions found by scanning one action slot at
a time, the float operations of a scalar loop, so values and tie-breaking
are bit-identical to it, whichever states share the pass.  That one pass
serves both :func:`solve` (maximising over the legal actions, with a level
plan built once per graph, and its result kept for the other allocations'
calls at the same phi) and :func:`policy_value` (one fixed action per
state).  :func:`solve` keeps its results by state index; the state-keyed
``policy`` and ``state_values`` dicts are built only when read, in the order
of a depth-first search from the root.  A caller that evaluates several
factors or allocations passes a ``graphs`` dict to reuse the compiled
graphs; :func:`best_response` and :func:`min_factor` keep one for the length
of a call and there is no process-wide cache.  Without one, a call compiles
its own allocation alone.  A fixed policy (a function of the state, a solved
result, or :data:`PRESCRIBED`) is first mapped, by one walk over the states
reachable under it, to an action index per state; that map serves the exact
evaluation, the seeded rollouts and the check that an optimal policy has the
prescribed shape.  A rollout step is one lookup of the state's cumulative
successor probabilities and at most two comparisons with the next uniform,
drawn from the generator in batches.  The one-step kernel
:func:`successors`, :func:`legal_actions` and :func:`terminal_value` spell
out the same model state by state.

The state count grows about 2.3-fold per unit of epoch length.  One
resource guard bounds it: compiling a graph in which one allocation's game
passes :data:`MAX_STATES` states raises :class:`StateBudgetError`, so every
entry point (solve, policy evaluation, rollouts, the best-response search)
stops before it costs more.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from hebsim.chain import within_quota
from hebsim.engine import SeedLike, as_seedseq, child_seed

WAIT = "wait"
ADOPT = "adopt"
PUBLISH = "publish"

# action: (chain_move, publish_len, next_block_factored)
Action = tuple[str, int, bool]
# state: (att_reg, att_fac, coh_reg, coh_fac, secret_ext, public_ext, fork)
State = tuple[int, int, int, int, tuple[bool, ...], tuple[bool, ...], bool]

# The most states one allocation's game may have; _compile raises
# StateBudgetError once the states it has found for one allocation pass it,
# before it expands another frontier.  The largest graph at ell 12 (share
# 0.2, phi 20, rho 0) has 1,082,448 states; it compiles in about 2.3 s and
# peaks at about 335 MB RSS on a 2-vCPU Xeon.  Each step of ell multiplies the count by about
# 2.3, so ell 13 trips the budget after about 5 s.  Read at call time.
MAX_STATES = 1_200_000

# best_response: exact values this close tie, and the tie goes to
# prescribed play (relative to the prescribed value when games=0)
VALUE_TOL = 1e-9


class StateBudgetError(Exception):
    """A game's state graph, at one allocation, has more than
    :data:`MAX_STATES` states."""


@dataclass(frozen=True)
class MdpInstance:
    """One game: epoch length, protocol parameters, attacker share, and her
    internal allocation expressed as a count of factored-block commitments."""

    ell: int
    share: float
    phi: float
    rho: float
    alloc: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.ell, numbers.Integral) or self.ell < 1:
            raise ValueError(f"ell must be a positive integer, got {self.ell!r}")
        if not 0.0 <= self.share <= 1.0:
            raise ValueError("share must lie in [0, 1]")
        if not 1.0 <= self.phi < math.inf:  # also rejects nan
            raise ValueError("phi must lie in [1, inf)")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        balance = self.ell * self.share
        if self.rho > 0.0:
            if self.alloc is None:
                raise ValueError("alloc (factored commitments) required when rho > 0")
            max_alloc = math.floor(balance / self.rho + 1e-9)
            if not 0 <= self.alloc <= max_alloc:
                raise ValueError(f"alloc must lie in [0, {max_alloc}]")

    # -- derived quantities -------------------------------------------------------

    @cached_property
    def balance(self) -> float:
        return self.ell * self.share

    @cached_property
    def internal(self) -> float:
        if self.rho == 0.0 or self.alloc is None:
            return 0.0
        return self.alloc * self.rho

    @cached_property
    def external(self) -> float:
        # the alloc bound's 1e-9 slack may let internal exceed the balance
        return max(self.balance - self.internal, 0.0)

    @cached_property
    def alpha(self) -> float:
        """Per-step probability that the attacker creates the next block."""
        ext = self.external
        cohort_ext = (1.0 - self.rho) * (self.ell - self.balance)
        total = ext + cohort_ext
        if total <= 0.0:
            return 1.0 if ext > 0 else 0.0
        return ext / total

    @cached_property
    def attacker_quota(self) -> Optional[int]:
        return None if self.rho == 0.0 else self.alloc

    @cached_property
    def cohort_quota(self) -> Optional[int]:
        if self.rho == 0.0:
            return None
        return math.floor(self.ell - self.balance + 1e-9)

    @cached_property
    def collapse_types(self) -> bool:
        # with unit weights and no quotas, block types are irrelevant; folding
        # them keeps the pure race at a polynomial state count
        return self.phi == 1.0 and self.rho == 0.0


def initial_state() -> State:
    return (0, 0, 0, 0, (), (), False)


def _lighter(fac_a: int, fac_b: int, phi: float) -> Optional[bool]:
    """Whether chain a is lighter than an equal-length chain b holding
    ``fac_a`` resp. ``fac_b`` factored blocks; None on an exact tie.  Equal
    lengths make the weights differ by ``(phi - 1) * (fac_a - fac_b)``."""
    if phi == 1.0 or fac_a == fac_b:
        return None
    return fac_a < fac_b


@dataclass(eq=False)
class SolveResult:
    """The optimal value of one game, with every state's value and chosen
    action kept by index into its compiled graph, which may hold the game's
    other allocations too; ``states`` counts this allocation's states only.
    ``policy`` (each non-terminal state's optimal action) and
    ``state_values`` (every state's value), both keyed by state in the order
    of :func:`_post_order` from the allocation's root, are built on first
    access.  A result is also a policy for
    :func:`policy_value` and :func:`rollout_rewards`."""

    value: float
    states: int
    instance: MdpInstance
    _graph: _Graph = field(repr=False)
    _values: np.ndarray = field(repr=False)
    _choices: np.ndarray = field(repr=False)
    _root: int = field(repr=False)

    @cached_property
    def policy(self) -> dict[State, Action]:
        g = self._graph
        post = _post_order(g, self._root)
        inner = post[g.leaf_of[post] < 0]
        chosen = g.act[self._choices[inner]].tolist()
        return dict(zip(_decode_states(g, inner), map(_decode_action, chosen)))

    @cached_property
    def state_values(self) -> dict[State, float]:
        post = _post_order(self._graph, self._root)
        return dict(zip(_decode_states(self._graph, post), self._values[post].tolist()))

    @cached_property
    def _fixed(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_fixed_arrays` of this result on its own graph."""
        return _walk(self._graph, self._choices, self._root)


class _Prescribed:
    """The type of :data:`PRESCRIBED`."""

    def __repr__(self) -> str:
        return "PRESCRIBED"


# The prescribed policy read by index: each state's first legal action,
# which is what prescribed_action returns, without a call per state.
PRESCRIBED = _Prescribed()

# A fixed deterministic policy: a map from each state to one of its legal
# actions, a SolveResult (its optimal policy), or PRESCRIBED.
Policy = Union[Callable[[State], Action], SolveResult, _Prescribed]

# the chain that decides a terminal state's reward
_SECRET, _PUBLIC, _SPLIT = 0, 1, 2


def _leaf(inst: MdpInstance, state: State) -> Optional[tuple[int, ...]]:
    """None unless ``state`` ends the epoch.  Otherwise the winning chain
    (``_SECRET``, ``_PUBLIC`` or an even ``_SPLIT``) and the integer counts
    its reward depends on: (winner, ar, af, cr, cf, secret regular, secret
    factored, public regular, public factored).  The winner depends on the
    factor only through whether it is 1."""
    ar, af, cr, cf, sec, pub, _fork = state
    est_len = ar + af + cr + cf
    full_sec = est_len + len(sec) == inst.ell
    full_pub = est_len + len(pub) == inst.ell
    if not (full_sec or full_pub):
        return None
    sec_fac = sum(sec)
    pub_fac = sum(pub)
    if full_sec and full_pub:
        sec_lighter = _lighter(sec_fac, pub_fac, inst.phi)
        winner = _SPLIT if sec_lighter is None else _SECRET if sec_lighter else _PUBLIC
    else:
        winner = _SECRET if full_sec else _PUBLIC
    return (winner, ar, af, cr, cf, len(sec) - sec_fac, sec_fac, len(pub) - pub_fac, pub_fac)


def _leaf_rewards(leaves: np.ndarray, phi: float, ell: int) -> np.ndarray:
    """The attacker's reward at each row of ``leaves`` (the counts of
    :func:`_leaf`): her share of the winning chain's weight, a block
    weighing 1 or ``phi``, times ``ell``; the mean of both chains' rewards
    on an exact tie."""
    winner, ar, af, cr, cf, sec_reg, sec_fac, pub_reg, pub_fac = leaves.T

    def reward(att_w: np.ndarray, coh_w: np.ndarray) -> np.ndarray:
        total = att_w + coh_w
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(total <= 0.0, 0.0, att_w / total * ell)

    att_est_w = ar + phi * af
    coh_est_w = cr + phi * cf
    win_sec = reward(att_est_w + (sec_reg + phi * sec_fac), coh_est_w)
    win_pub = reward(att_est_w, coh_est_w + (pub_reg + phi * pub_fac))
    return np.where(
        winner == _SPLIT,
        0.5 * (win_sec + win_pub),
        np.where(winner == _SECRET, win_sec, win_pub),
    )


def terminal_value(inst: MdpInstance, state: State) -> Optional[float]:
    """Reward if ``state`` ends the epoch, else None.

    When both chains reach full length simultaneously the attacker publishes
    her secret chain and the cohort adjudicates by minimum accumulated
    weight, splitting exact ties evenly.
    """
    leaf = _leaf(inst, state)
    if leaf is None:
        return None
    return float(_leaf_rewards(np.array([leaf]), inst.phi, inst.ell)[0])


def _resolve_chain_move(
    state: State, move: str, m: int
) -> Optional[State]:
    """Apply the chain move, returning the intermediate state before block
    creation, or None when the move is a no-op or invalid here."""
    ar, af, cr, cf, sec, pub, fork = state
    if move == WAIT:
        return state
    if move == ADOPT:
        if not pub:
            return None
        pub_fac = sum(pub)
        return (ar, af, cr + len(pub) - pub_fac, cf + pub_fac, (), (), False)
    # publish a prefix of length m
    if m < 1 or m > len(sec):
        return None
    if m == len(pub):
        if fork:  # that prefix is already public
            return None
        return (ar, af, cr, cf, sec, pub, True)
    if m < len(pub):
        return None  # a shorter chain can never be adopted
    moved_fac = sum(sec[:m])
    return (ar + m - moved_fac, af + moved_fac, cr, cf, sec[m:], (), False)


def _chain_moves(inst: MdpInstance, state: State) -> list[tuple[str, int, State]]:
    """Valid chain moves, prescribed-like moves first, each with the
    intermediate state it leaves before block creation."""
    sec, pub = state[4], state[5]
    moves: list[tuple[str, int]] = []
    if sec:
        moves += [(PUBLISH, m) for m in range(len(sec), max(len(pub), 1) - 1, -1)]
    if pub:
        moves.append((ADOPT, 0))
    moves.append((WAIT, 0))
    out = []
    for move, m in moves:
        inter = _resolve_chain_move(state, move, m)
        if inter is not None:
            out.append((move, m, inter))
    return out


def _kinds(inst: MdpInstance, inter: State) -> tuple[bool, ...]:
    """The attacker's choices for her next block's type (factored first),
    given the state after her chain move: her factored blocks on the
    established prefix plus her secret extension must leave quota."""
    if inst.collapse_types or not within_quota(
        inter[1] + sum(inter[4]), inst.attacker_quota
    ):
        return (False,)
    return (True, False)


def legal_actions(inst: MdpInstance, state: State) -> list[Action]:
    """Valid actions: publications longest first, then adopt, then wait,
    each with a factored block first while quota remains.  The first is
    therefore the prescribed action, and ties resolve toward it."""
    return [
        (move, m, kind)
        for move, m, inter in _chain_moves(inst, state)
        for kind in _kinds(inst, inter)
    ]


def _attacker_block(
    inst: MdpInstance, inter: State, make_factored: bool
) -> list[tuple[float, State]]:
    """The attacker creates the next block, on her secret chain."""
    if inst.alpha <= 0.0:
        return []
    ar, af, cr, cf, sec, pub, fork = inter
    return [(inst.alpha, (ar, af, cr, cf, sec + (make_factored,), pub, fork))]


def _cohort_blocks(inst: MdpInstance, inter: State) -> list[tuple[float, State]]:
    """The cohort creates the next block, on the lighter public tip; it is
    factored while the tip's chain leaves cohort quota."""
    alpha = inst.alpha
    if alpha >= 1.0:
        return []
    ar, af, cr, cf, sec, pub, fork = inter
    p_coh = 1.0 - alpha
    typed = not inst.collapse_types
    quota = inst.cohort_quota
    pub_fac = sum(pub)
    on_pub = (typed and within_quota(cf + pub_fac, quota),)
    if not fork:
        return [(p_coh, (ar, af, cr, cf, sec, pub + on_pub, fork))]
    # two equal-length public tips: the attacker's published prefix and the
    # cohort's own extension; cohort extends the lighter one
    L = len(pub)
    moved_fac = sum(sec[:L])
    att_lighter = _lighter(moved_fac, pub_fac, inst.phi)
    if att_lighter is None:
        branches = [(0.5, True), (0.5, False)]
    else:
        branches = [(1.0, att_lighter)]
    out: list[tuple[float, State]] = []
    for prob, on_attacker_tip in branches:
        if on_attacker_tip:
            on_att = (typed and within_quota(cf, quota),)
            nxt = (ar + L - moved_fac, af + moved_fac, cr, cf, sec[L:], on_att, False)
        else:
            nxt = (ar, af, cr, cf, sec, pub + on_pub, False)
        out.append((p_coh * prob, nxt))
    return out


def successors(
    inst: MdpInstance, state: State, action: Action
) -> list[tuple[float, State]]:
    """Distribution over next states: chain move, then one block creation."""
    move, m, make_factored = action
    inter = _resolve_chain_move(state, move, m)
    if inter is None:
        raise ValueError(f"action {action} invalid in state {state}")
    return _attacker_block(inst, inter, make_factored) + _cohort_blocks(inst, inter)


# the columns of a state row: the established counts, both extensions'
# lengths, the public extension's factored count, the fork flag and the
# allocation (see _Graph)
_AR, _AF, _CR, _CF, _LS, _LP, _PF, _FORK, _AL = range(9)
# an action code is m * 8 + 2 * (index of the move in _MOVES) + factored
_MOVES = (PUBLISH, ADOPT, WAIT)
# bits set per byte value, and the masks of the lowest 0..64 bits
_POP8 = np.array([bin(b).count("1") for b in range(256)], np.uint8)
_LOW = np.array([(1 << k) - 1 for k in range(65)], np.uint64)
# a frontier expands at most this many states at once, which bounds the
# scratch arrays of one expansion
_CHUNK = 1 << 13

# the initial state of a compiled graph's first allocation, and so the one
# root of a graph compiled for a single game (see _Graph)
_ROOT = 0


@dataclass
class _Graph:
    """The state graphs of one game's allocations, with everything but the
    factor resolved, compiled together.

    Allocation ``k`` is the game with internal allocation ``allocs[k]``
    (None at rho 0, where there is one).  The allocations differ only in
    the attacker's factored quota and her probability ``alpha`` of creating
    the next block, so their graphs share the compile's work but never a
    state: the allocation is a column of each state's row and part of its
    key.  States are numbered frontier by frontier (see :func:`_compile`),
    and the initial states come first: state ``k`` is allocation ``k``'s
    root, from which everything that plays its game starts.  ``sizes[k]`` is
    how many states it has.  ``level[i]`` is 0 for a terminal state, else 1
    + the largest level among its successors; the backward pass visits
    states by level (see :func:`_plan`).  State ``i`` is the integer row
    ``rows[i]`` (the columns ``_AR`` to ``_AL``) with its secret extension's
    types in ``sec[i]``: a set bit for a factored block, its last block in
    bit 0, 64 blocks per word.
    The public extension needs no mask: the cohort adds factored blocks
    while its quota lasts and regular ones after, so it is ``_PF`` factored
    blocks followed by regular ones.

    State ``i`` is terminal when ``leaf_of[i] >= 0``, a row of ``leaves``
    (the counts of :func:`_leaf`, which allocations share).  Otherwise its
    legal actions, in :func:`legal_actions` order, are
    ``act[act_lo[i]:act_lo[i + 1]]`` (codes that :func:`_decode_action`
    decodes), and action ``a`` leads to state ``succ[e]`` with probability
    ``probs[prob_of[e]]`` for ``e`` in ``range(succ_lo[a], succ_lo[a + 1])``,
    in :func:`successors` order: one to three successors, with a handful of
    distinct probabilities per allocation.

    Built when first needed and kept: ``plan``, the maximising evaluation
    plan of every allocation (see :func:`_plan`); ``solved``, the factor
    of the last :func:`solve` with every state's value and chosen action
    at it, which the other allocations' solves at that factor read;
    ``prescribed``, per root, :func:`_fixed_arrays` of :data:`PRESCRIBED`
    and its evaluation plan; ``post``, per root, the order of the
    state-keyed dicts (see :func:`_post_order`).
    """

    ell: int
    allocs: tuple  # the allocation of each root
    sizes: np.ndarray  # the states of each allocation
    rows: np.ndarray  # int16 (int32 for ell >= 2**14), one row of 9 per state
    sec: np.ndarray  # uint64, one row of ceil(ell / 64) words per state
    leaves: np.ndarray  # int32, one row of 9 counts per leaf
    leaf_of: np.ndarray  # intc; the arrays below are intc unless noted
    level: np.ndarray
    inner: np.ndarray  # the non-terminal states
    act_lo: np.ndarray
    act: np.ndarray
    succ_lo: np.ndarray
    succ: np.ndarray
    prob_of: np.ndarray  # unsigned int, an index into probs
    probs: np.ndarray
    plan: Optional[list] = None
    solved: Optional[tuple[float, np.ndarray, np.ndarray]] = None
    prescribed: dict = field(default_factory=dict)
    post: dict = field(default_factory=dict)


def _root(g: _Graph, inst: MdpInstance) -> int:
    """The state of ``g`` where ``inst``'s game starts: its allocation's
    index, an allocation being known by the attacker's quota."""
    return g.allocs.index(inst.attacker_quota)


def _decode_action(code: int) -> Action:
    return (_MOVES[code >> 1 & 3], code >> 3, bool(code & 1))


def _action_code(action) -> int:
    """The code of ``action``; -1 when it is no action at all."""
    try:
        move, m, kind = action
        return m * 8 + _MOVES.index(move) * 2 + bool(kind)
    except (TypeError, ValueError):
        return -1


def _decode_states(g: _Graph, ids) -> list[State]:
    """The :data:`State` tuples of the states ``ids``."""
    exts: dict = {}

    def ext(length: int, words: tuple[int, ...]) -> tuple[bool, ...]:
        key = (length, words)
        if key not in exts:
            mask = sum(w << 64 * k for k, w in enumerate(words))
            exts[key] = tuple(bool(mask >> (length - 1 - k) & 1) for k in range(length))
        return exts[key]

    return [
        (ar, af, cr, cf, ext(ls, words), (True,) * pf + (False,) * (lp - pf), bool(fork))
        for (ar, af, cr, cf, ls, lp, pf, fork), words in zip(
            g.rows[ids, :_AL].tolist(), map(tuple, g.sec[ids].tolist())
        )
    ]


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of ``range(lo[j], lo[j] + count[j])`` over ``j``."""
    end = np.cumsum(count, dtype=np.intp)
    total = int(end[-1]) if len(end) else 0
    return np.arange(total, dtype=np.intp) + np.repeat(lo - (end - count), count)


def _rowsum(a: np.ndarray) -> np.ndarray:
    """The sum of each row of ``a``, in its integer type (a product with
    ones, which numpy computes faster than ``a.sum(axis=1)`` for short
    rows)."""
    return a @ np.ones(a.shape[1], a.dtype)


def _popcount(words: np.ndarray) -> np.ndarray:
    """The number of set bits in each row of ``words`` (uint64)."""
    return _rowsum(_POP8[words.view(np.uint8)].astype(np.int16))


def _last(words: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Each row of a secret extension's type words with only its lowest
    ``k`` bits: the types of its last ``k`` blocks."""
    return words & _LOW[np.clip(k[:, None] - 64 * np.arange(words.shape[1]), 0, 64)]


def _append(words: np.ndarray, factored: np.ndarray) -> np.ndarray:
    """Each row of a secret extension's type words with one more block,
    factored where ``factored``."""
    out = words << np.uint64(1)
    out[:, 1:] |= words[:, :-1] >> np.uint64(63)
    out[:, 0] |= factored
    return out


def _where(mask: np.ndarray) -> Union[slice, np.ndarray]:
    """The places where ``mask`` holds, as an index: all of them as a
    slice, which reads a view and writes in place without a gather."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _within(used: np.ndarray, quota: Optional[int]) -> np.ndarray:
    """:func:`within_quota` per row."""
    return np.ones(len(used), bool) if quota is None else used < quota


def _key_layout(row_bits: list[int], sec_bits: list[int]) -> list:
    """Where :func:`_keys` puts each field: per uint64 word, the row columns
    it holds and the type words it holds, each with its offset (a
    ``np.uint64`` shift).  ``row_bits`` and ``sec_bits`` give each field's
    width; a field never straddles two words."""
    words: list[list[tuple[int, int]]] = []
    used = 64
    for field, size in enumerate(row_bits + sec_bits):
        if used + size > 64:
            words.append([])
            used = 0
        words[-1].append((field, used))
        used += size
    rows = len(row_bits)
    return [
        (
            [(f, np.uint64(at)) for f, at in word if f < rows],
            [(f - rows, np.uint64(at)) for f, at in word if f >= rows],
        )
        for word in words
    ]


def _keys(rows: np.ndarray, sec: Optional[np.ndarray], layout: list) -> np.ndarray:
    """Sort keys that tell apart rows of small non-negative integers, each
    with its uint64 type words (see :func:`_key_layout`): one uint64 word,
    or a record of the words, the most significant (last) first.  A word
    ORs in one field at a time, so no temporary is wider than a column.  A
    state's counts take ``ell.bit_length()`` bits, its fork flag one, its
    allocation that of the largest allocation index and its secret
    extension ``ell``, so ``ell <= 28`` needs one word for one allocation."""
    words = []
    for cols, secs in layout:
        key = np.zeros(len(rows), np.uint64)
        for c, at in cols:
            key |= rows[:, c].astype(np.uint64) << at
        for k, at in secs:
            key |= sec[:, k] << at
        words.append(key)
    if len(words) == 1:
        return words[0]
    fields = [(f"w{w}", np.uint64) for w in reversed(range(len(words)))]
    return np.stack(words[::-1], axis=1).view(fields)[:, 0]


def _dedup(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts ``keys`` (see :func:`_keys`) and, in that order,
    whether each starts a run of equal keys; the order within a run is
    arbitrary.  A record sorts faster by ``np.lexsort`` over its words."""
    names = keys.dtype.names
    order = np.lexsort([keys[w] for w in names[::-1]]) if names else np.argsort(keys)
    k = keys[order]
    new = np.ones(len(k), bool)
    new[1:] = k[1:] != k[:-1]
    return order, new


@dataclass(frozen=True)
class _Family:
    """The allocations that :func:`_compile` explores together: ``inst``'s
    game with each allocation of ``allocs`` (see :class:`_Graph`).  Per
    allocation ``k``: the attacker's probability ``alpha[k]`` of creating
    the next block, her factored quota ``quota[k]`` (``ell + 1``, which no
    count reaches, when she has none), and probability codes ``3 * k`` to
    ``3 * k + 2``."""

    inst: MdpInstance
    allocs: tuple
    alpha: np.ndarray
    quota: np.ndarray

    @classmethod
    def of(cls, inst: MdpInstance, allocs: Sequence) -> _Family:
        games = [replace(inst, alloc=a) for a in allocs]
        quota = [inst.ell + 1 if g.attacker_quota is None else g.attacker_quota for g in games]
        return cls(inst, tuple(allocs), np.array([g.alpha for g in games]), np.array(quota))

    @property
    def code_type(self) -> np.dtype:
        return np.min_scalar_type(3 * len(self.allocs) - 1)


def _expand(fam: _Family, rows: np.ndarray, sec: np.ndarray):
    """The legal actions and successors of the non-terminal states
    ``rows``/``sec`` of the allocations ``fam``, in :func:`legal_actions`
    and :func:`successors` order.

    Returns each state's action count, the action codes, each action's
    successor count, and the successors: candidate state rows and type words
    (the attacker's blocks, then the cohort's), each edge's index into them
    and its probability code (``3 * k`` for allocation ``k``'s ``alpha``,
    ``3 * k + 1`` for ``1 - alpha``, ``3 * k + 2`` for half of that on a
    cohort split)."""
    inst = fam.inst
    typed = not inst.collapse_types
    ls, lp, fork = rows[:, _LS], rows[:, _LP], rows[:, _FORK]
    spop = _popcount(sec)

    # chain moves: publish m for m = ls down to max(lp, 1) (never m = lp
    # again on a fork), then adopt while there is a public extension, then wait
    npub = np.maximum(ls - np.maximum(lp, 1) - fork + 1, 0)
    nmove = npub + (lp > 0) + 1
    move_lo = np.cumsum(nmove) - nmove
    of = np.repeat(np.arange(len(rows)), nmove)
    j = np.arange(len(of)) - move_lo[of]
    move = (j >= npub[of]).astype(np.int8) + (j >= npub[of] + (lp[of] > 0))  # 0, 1, 2
    m = np.where(move == 0, ls[of] - j, 0)

    # the state each move leaves before the next block
    mid, msec, mpop = rows[of], sec[of], spop[of]
    adopt = np.flatnonzero(move == 1)
    mid[adopt, _CR] += mid[adopt, _LP] - mid[adopt, _PF]
    mid[adopt, _CF] += mid[adopt, _PF]
    mid[adopt, _LS:_AL] = 0
    msec[adopt] = 0
    mpop[adopt] = 0
    publish = move == 0
    mid[publish & (m == mid[:, _LP]), _FORK] = 1
    take = np.flatnonzero(publish & (m > mid[:, _LP]))  # the secret prefix wins
    keep = mid[take, _LS] - m[take]
    msec[take] = _last(msec[take], keep)
    moved = mpop[take] - _popcount(msec[take])
    mpop[take] -= moved
    mid[take, _AR] += m[take] - moved
    mid[take, _AF] += moved
    mid[take, _LS] = keep
    mid[take, _LP:_AL] = 0

    # the attacker's block types: factored first while her quota lasts
    alloc = mid[:, _AL]
    nkind = 1 + (typed & (mid[:, _AF] + mpop < fam.quota[alloc]))
    by = np.repeat(np.arange(len(mid)), nkind)
    kind = np.zeros(len(by), bool)
    kind[np.cumsum(nkind) - nkind] = nkind == 2
    codes = (m * 8 + move * 2)[by].astype(np.int32) + kind
    nact = np.add.reduceat(nkind, move_lo)

    alpha = fam.alpha[alloc]
    cand_rows, cand_sec = [], []
    ref = np.full((len(by), 3), -1, np.intp)
    prob = np.empty((len(by), 3), fam.code_type)
    prob[:, 0] = (3 * alloc)[by]
    prob[:, 1] = prob[:, 0] + 1
    prob[:, 2] = prob[:, 0] + 2
    # the attacker's block, at the end of her secret extension
    att = _where(alpha[by] > 0.0)  # the actions it can follow
    grown = mid[by[att]]
    grown[:, _LS] += 1
    cand_rows.append(grown)
    cand_sec.append(_append(msec[by[att]], kind[att]))
    ref[att, 0] = np.arange(len(grown))
    # the cohort's block, on the lighter public tip
    coh = _where(alpha < 1.0)  # the states it can follow
    cmid, csec, cpop = mid[coh], msec[coh], mpop[coh]
    own = cmid.copy()  # on the cohort's own extension
    own[:, _PF] += typed & _within(own[:, _CF] + own[:, _PF], inst.cohort_quota)
    own[:, _LP] += 1
    own[:, _FORK] = 0
    # on a fork the cohort extends the lighter of two equal-length tips:
    # the attacker's published prefix, or its own extension
    forks = np.flatnonzero(cmid[:, _FORK])
    length = cmid[forks, _LP]
    rest = _last(csec[forks], cmid[forks, _LS] - length)
    moved = cpop[forks] - _popcount(rest)
    tie = (inst.phi == 1.0) | (moved == cmid[forks, _PF])
    lighter = tie | (moved < cmid[forks, _PF])
    fk, length, moved, rest = forks[lighter], length[lighter], moved[lighter], rest[lighter]
    first, first_sec = own.copy(), csec.copy()
    first[fk] = cmid[fk]
    first[fk, _AR] += length - moved
    first[fk, _AF] += moved
    first[fk, _LS] -= length
    first[fk, _LP] = 1
    first[fk, _PF] = typed & _within(cmid[fk, _CF], inst.cohort_quota)
    first[fk, _FORK] = 0
    first_sec[fk] = rest
    split = forks[tie]
    cand_rows += [first, own[split]]
    cand_sec += [first_sec, csec[split]]
    second = np.full(len(own), -1, np.intp)
    second[split] = len(grown) + len(own) + np.arange(len(split))
    for k, place in ((1, len(grown) + np.arange(len(own))), (2, second)):
        col = np.full(len(mid), -1, np.intp)  # per state after its move
        col[coh] = place
        ref[:, k] = col[by]
    prob[:, 1] += ref[:, 2] >= 0
    has = ref >= 0
    return (
        nact,
        codes,
        _rowsum(has.view(np.uint8)),
        np.concatenate(cand_rows),
        np.concatenate(cand_sec),
        ref[has],
        prob[has],
    )


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``, emptying ``parts`` as it goes so that each
    part is freed once copied."""
    out = np.empty((sum(map(len, parts)),) + parts[0].shape[1:], parts[0].dtype)
    at = len(out)
    while parts:
        part = parts.pop()
        out[at - len(part) : at] = part
        at -= len(part)
    return out


def _leaf_rows(inst: MdpInstance, rows: np.ndarray, sec: np.ndarray) -> np.ndarray:
    """:func:`_leaf` of each terminal state ``rows``/``sec``, as int32 rows."""
    est = _rowsum(rows[:, _AR:_LS])
    ls, lp, pf = rows[:, _LS], rows[:, _LP], rows[:, _PF]
    sf = _popcount(sec)
    full_sec, full_pub = est + ls == inst.ell, est + lp == inst.ell
    split = (inst.phi == 1.0) | (sf == pf)
    both = np.where(split, _SPLIT, np.where(sf < pf, _SECRET, _PUBLIC))
    winner = np.where(full_sec & full_pub, both, np.where(full_sec, _SECRET, _PUBLIC))
    ar, af, cr, cf = rows[:, _AR:_LS].T
    return np.stack((winner, ar, af, cr, cf, ls - sf, sf, lp - pf, pf), axis=1).astype(np.int32)


def _levels(ell: int, rows: np.ndarray, act_lo: np.ndarray, succ_lo: np.ndarray,
            succ: np.ndarray) -> np.ndarray:
    """Each state's level (0 when terminal, else 1 + its highest
    successor's), one group of equal (established, extension) lengths at a
    time from the last: every step increases that pair, so a group's
    successors lie in later groups."""
    pair = rows[:, _AR:_LS].sum(axis=1, dtype=np.intp) * (2 * ell + 1) + rows[:, _LS] + rows[:, _LP]
    by = np.argsort(pair, kind="stable")
    by = by[act_lo[by] < act_lo[by + 1]]
    cuts = [0, *(np.flatnonzero(np.diff(pair[by])) + 1).tolist(), len(by)]
    level = np.zeros(len(rows), np.intc)
    for i, j in zip(cuts[-2::-1], cuts[:0:-1]):
        group = by[i:j]
        first = succ_lo[act_lo[group]]
        count = succ_lo[act_lo[group + 1]] - first
        reached = level[succ[_ranges(first, count)]]  # the levels of the group's successors
        level[group] = np.maximum.reduceat(reached, np.cumsum(count) - count) + 1
    return level


def _compile(inst: MdpInstance, allocs: Optional[Sequence] = None) -> _Graph:
    """Explore the state graphs of ``inst``'s game at each allocation of
    ``allocs`` (by default ``inst``'s own) from their initial states,
    together, one frontier at a time, in numpy (see :class:`_Graph`).

    Frontier ``d`` holds the states whose established prefix and extensions
    hold ``d`` blocks between them.  A step creates one block; a step that
    drops none (waiting, adopting without a secret extension, publishing
    against an empty or equally long public extension, or the cohort's
    block on a fork extending its own tip) leads to the next frontier, and
    every other step to an earlier one.  Every reachable state can be
    reached by steps that drop no block (the cohort's established blocks by
    adopting, the attacker's by publishing, then both extensions by waiting:
    block types depend only on the counts a state keeps), so each frontier
    is complete once the one before it is expanded.  Its candidate states
    are deduplicated by sorting their integer keys (see :func:`_keys`),
    numbered in key order, checked against :data:`MAX_STATES` and expanded
    by :func:`_expand`, a chunk at a time.  An edge into the next frontier
    keeps its successor's place among that frontier's candidates until the
    frontier is numbered; an edge into a numbered frontier finds its state
    at once, by binary search in that frontier's sorted keys, and one
    without a state is a RuntimeError.  States keep the numbers the
    frontiers gave them, and each one's level comes from :func:`_levels`.
    The allocation column is the key's field above the fork flag, so the
    initial states, zero but for it, are numbered first, in allocation
    order.  The budget holds per allocation: each allocation's states are
    counted per frontier, and the first one past :data:`MAX_STATES` raises."""
    ell = inst.ell
    fam = _Family.of(inst, (inst.attacker_quota,) if allocs is None else allocs)
    nalloc = len(fam.allocs)
    dtype = np.int16 if ell < 1 << 14 else np.int32
    width = ell.bit_length()
    words = -(-ell // 64)  # the secret extension's type words per state
    layout = _key_layout(
        [width] * _FORK + [1, (nalloc - 1).bit_length()],
        [min(64, ell - 64 * k) for k in range(words)],
    )
    roots = np.zeros((nalloc, _AL + 1), dtype)
    roots[:, _AL] = np.arange(nalloc)
    front = [(roots, np.zeros((nalloc, words), np.uint64))]
    sizes = np.zeros(nalloc, np.intp)  # each allocation's states so far
    coded = np.zeros(3 * nalloc, bool)  # the probability codes in use
    n = 0
    tables, starts = [], []  # each frontier's sorted keys and first state
    rows_out, sec_out, nact_out, codes_out, nsucc_out, prob_out = [], [], [], [], [], []
    succ_out: list[np.ndarray] = []
    # the last frontier's edges: each a state, or n + a place in ``front``
    refs: list[np.ndarray] = []
    while front:
        rows = np.concatenate([f[0] for f in front])
        sec = np.concatenate([f[1] for f in front])
        keys = _keys(rows, sec, layout)
        order, new = _dedup(keys)
        ids = np.empty(len(order), np.intc)
        ids[order] = n + np.cumsum(new) - 1
        for r in refs:
            ahead = r >= n
            r[ahead] = ids[r[ahead] - n]
            succ_out.append(r.astype(np.intc))
        first = order[new]
        rows, sec = rows[first], sec[first]
        tables.append(keys[first])
        starts.append(n)
        n += len(rows)
        sizes += np.bincount(rows[:, _AL], minlength=nalloc)
        over = np.flatnonzero(sizes > MAX_STATES)
        if len(over):
            alloc = fam.allocs[over[0]]
            game = f"ell={ell}" if alloc is None else f"ell={ell}, alloc={alloc}"
            raise StateBudgetError(
                f"the game at {game} has more than {MAX_STATES:,} states (mdp.MAX_STATES)"
            )
        rows_out.append(rows)
        sec_out.append(sec)
        depth = len(tables) - 1
        est = _rowsum(rows[:, _AR:_LS])
        inner = np.flatnonzero((est + rows[:, _LS] < ell) & (est + rows[:, _LP] < ell))
        nact = np.zeros(len(rows), np.intc)
        front, refs, n_front = [], [], 0
        for lo in range(0, len(inner), _CHUNK):
            part = inner[lo : lo + _CHUNK]
            nact[part], codes, nsucc, cr, cs, ref, prob = _expand(fam, rows[part], sec[part])
            codes_out.append(codes)
            nsucc_out.append(nsucc)
            prob_out.append(prob)
            coded[prob] = True
            at = _rowsum(cr[:, :_PF])  # each successor's frontier
            ahead = at > depth
            place = np.empty(len(cr), np.int64)  # each successor's, as in ``refs``
            place[ahead] = n + n_front + np.arange(np.count_nonzero(ahead))
            behind = np.flatnonzero(~ahead)
            behind = behind[np.argsort(at[behind], kind="stable")]
            probe = _keys(cr[behind], cs[behind], layout)
            bounds = np.searchsorted(at[behind], np.arange(depth + 2)).tolist()
            for d, table in enumerate(tables):
                part = slice(bounds[d], bounds[d + 1])
                pos = np.searchsorted(table, probe[part])
                if (table[np.minimum(pos, len(table) - 1)] != probe[part]).any():
                    raise RuntimeError(f"ell={ell}: a step reached a state no frontier holds")
                place[behind[part]] = starts[d] + pos
            refs.append(place[ref])
            front.append((cr[ahead], cs[ahead]))
            n_front += len(front[-1][0])
        nact_out.append(nact)

    del tables
    rows, sec, nact = _join(rows_out), _join(sec_out), _join(nact_out)
    leaf_of = np.full(n, -1, np.intc)
    term = np.flatnonzero(nact == 0)
    # a leaf depends on a terminal state's counts and its secret extension's
    # factored count alone, so states that agree on those share one
    counts = np.column_stack((rows[term, :_FORK], _popcount(sec[term])))
    by, new = _dedup(_keys(counts, None, _key_layout([width] * 8, [])))
    leaf_of[term[by]] = np.cumsum(new) - 1
    first = term[by[new]]
    leaves = _leaf_rows(inst, rows[first], sec[first])  # one row per distinct leaf
    del counts, by, new, term, first  # freed before the edge arrays are joined

    succ = _join(succ_out)
    codes, nsucc, prob = _join(codes_out), _join(nsucc_out), _join(prob_out)
    act_lo = np.zeros(n + 1, np.intc)
    np.cumsum(nact, dtype=np.intc, out=act_lo[1:])
    succ_lo = np.zeros(len(codes) + 1, np.intc)
    np.cumsum(nsucc, dtype=np.intc, out=succ_lo[1:])
    level = _levels(ell, rows, act_lo, succ_lo, succ)
    table = np.array([(a, 1.0 - a, (1.0 - a) * 0.5) for a in fam.alpha.tolist()]).ravel()
    used = np.flatnonzero(coded)
    probs = np.unique(table[used])
    code_of = np.zeros(len(table), np.min_scalar_type(len(probs) + 1))  # two more codes in _plan
    code_of[used] = np.searchsorted(probs, table[used])
    return _Graph(
        ell=ell,
        allocs=fam.allocs,
        sizes=sizes,
        rows=rows,
        sec=sec,
        leaves=leaves,
        leaf_of=leaf_of,
        level=level,
        inner=np.flatnonzero(leaf_of < 0).astype(np.intc),
        act_lo=act_lo,
        act=codes,
        succ_lo=succ_lo,
        succ=succ,
        prob_of=code_of[prob],
        probs=probs,
    )


def _post_order(g: _Graph, root: int = _ROOT) -> np.ndarray:
    """The states of ``root``'s allocation in the order a depth-first search
    from ``root`` finishes them, each state's successors taken in action
    and :func:`successors` order: the order of ``SolveResult.state_values``.
    Built once per root, on the allocation's own states (``own``, in index
    order, ``root`` first) renumbered from 0."""
    if root not in g.post:
        own = np.flatnonzero(g.rows[:, _AL] == g.rows[root, _AL])
        lo = g.succ_lo[g.act_lo[own]]
        count = g.succ_lo[g.act_lo[own + 1]] - lo
        first = [0, *np.cumsum(count).tolist()]
        succ = np.searchsorted(own, g.succ[_ranges(lo, count)]).tolist()
        seen = bytearray(len(own))
        seen[0] = 1
        stack, at, post = [0], [0], []
        while stack:
            i, e = stack[-1], at[-1]
            end = first[i + 1]
            while e < end and seen[succ[e]]:
                e += 1
            if e < end:
                at[-1] = e + 1
                t = succ[e]
                seen[t] = 1
                stack.append(t)
                at.append(first[t])
            else:
                post.append(stack.pop())
                at.pop()
        g.post[root] = own[post].astype(np.intc)
    return g.post[root]


def _plan(g: _Graph, rows: np.ndarray, first: np.ndarray, count: np.ndarray) -> list:
    """How :func:`_evaluate` visits the states ``rows``, state ``rows[j]``
    choosing among the ``count[j]`` actions from ``first[j]`` on.

    One entry per level, lowest first: the level's states, their first
    actions, and two int grids indexed [successor column, action slot,
    state], the successor's index and the code of its probability (an index
    into ``probs`` followed by 0.0 and 1.0).  An action with fewer
    successors than the level's most adds 0.0 times the value 0.0 (state
    index ``len(states)``) per missing one; a slot past a state's last
    action is worth 1.0 times -inf (index ``len(states) + 1``), which never
    wins the scan."""
    n = len(g.leaf_of)
    zero, one = len(g.probs), len(g.probs) + 1
    succ_lo, succ = g.succ_lo, g.succ
    level = g.level[rows]
    order = np.argsort(level, kind="stable")
    plan = []
    for part in np.split(order, np.flatnonzero(np.diff(level[order])) + 1):
        r, f, k = rows[part], first[part], count[part]
        slot = np.arange(k.max(), dtype=np.intc)[:, None]
        real = slot < k
        a = np.where(real, f + slot, f)
        lo = succ_lo[a]
        m = np.where(real, succ_lo[a + 1] - lo, 0)
        col = np.arange(m.max(), dtype=np.intc)[:, None, None]
        has = col < m
        e = np.where(has, lo + col, 0)
        to = np.where(has, succ[e], n).astype(np.intc)
        code = np.where(has, g.prob_of[e], zero).astype(g.prob_of.dtype)
        to[0][~real] = n + 1
        code[0][~real] = one
        plan.append((r, f, to, code))
    return plan


def _evaluate(g: _Graph, phi: float, plan: list) -> tuple[np.ndarray, np.ndarray]:
    """Backward induction over a compiled graph at factor ``phi``, one level
    of ``plan`` (see :func:`_plan`) at a time.  Returns every state's value
    (nan for a non-terminal state outside the plan) and the index of each
    planned state's chosen action (-1 elsewhere).

    An action's value sums its successors' terms one column at a time, in
    :func:`successors` order; the chosen action is the first whose value
    beats the best so far by more than 1e-15, scanned one action slot at a
    time, so ties resolve toward prescribed-like moves and the policy is
    stable.  Both are the float operations of a scalar loop over the
    states, so the results are bit-identical to it."""
    n = len(g.leaf_of)
    val = np.empty(n + 2)
    val[:n] = np.append(_leaf_rewards(g.leaves, phi, g.ell), math.nan)[g.leaf_of]
    val[n:] = 0.0, -math.inf
    probs = np.append(g.probs, (0.0, 1.0))
    choice = np.full(n, -1, np.intc)
    for rows, first, succ, code in plan:
        v = np.zeros(succ.shape[1:])
        for s, c in zip(succ, code):
            v += probs[c] * val[s]
        best, col = v[0], np.zeros(len(rows), np.intc)
        for k in range(1, len(v)):
            wins = v[k] > best + 1e-15
            np.copyto(best, v[k], where=wins)
            np.copyto(col, k, where=wins)
        val[rows] = best
        choice[rows] = first + col
    return val[:n], choice


def _allocations(ell: int, share: float, rho: float) -> list[Optional[int]]:
    """Every integral internal allocation of a game, as a count of
    factored-block commitments; ``[None]`` at rho 0, where there is none."""
    if rho == 0.0:
        return [None]
    return list(range(math.floor(ell * share / rho + 1e-9) + 1))


def _graph(inst: MdpInstance, graphs: Optional[dict]) -> _Graph:
    """The compiled graph of ``inst``'s game.  With a ``graphs`` dict it is
    the graph of every allocation of the game, compiled once and kept under
    the key (ell, share, rho, phi == 1); without one, of ``inst``'s
    allocation alone."""
    if graphs is None:
        return _compile(inst)
    key = (inst.ell, inst.share, inst.rho, inst.phi == 1.0)
    g = graphs.get(key)
    if g is None:
        g = graphs[key] = _compile(inst, _allocations(inst.ell, inst.share, inst.rho))
    return g


def solve(inst: MdpInstance, graphs: Optional[dict] = None) -> SolveResult:
    """Exact optimal value and policy; the policy covers every non-terminal
    state reachable from the initial state.  ``graphs`` caches compiled
    graphs across calls that differ only in the factor or the allocation;
    results are the same with or without it.  A cached graph is solved for
    all its allocations at once, and the other allocations' calls at the
    same factor read that pass.  So with ``graphs`` the state budget
    applies to each allocation of the game, not only to ``inst``'s."""
    g = _graph(inst, graphs)
    if g.solved is None or g.solved[0] != inst.phi:
        if g.plan is None:
            inner, act_lo = g.inner, g.act_lo
            g.plan = _plan(g, inner, act_lo[inner], act_lo[inner + 1] - act_lo[inner])
        g.solved = (inst.phi, *_evaluate(g, inst.phi, g.plan))
    _phi, values, choices = g.solved
    root = _root(g, inst)
    return SolveResult(
        float(values[root]), int(g.sizes[root]), inst, g, values, choices, root
    )


def _walk(g: _Graph, pick: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-terminal states reachable from ``root`` when each state
    ``i`` plays action ``pick[i]``, in index order, and their actions: a
    breadth-first search in numpy."""
    act_lo, succ_lo = g.act_lo, g.succ_lo
    seen = np.zeros(len(g.leaf_of), bool)
    found = []
    front = np.array([root])
    while len(front):
        seen[front] = True
        front = front[act_lo[front] < act_lo[front + 1]]
        found.append(front)
        a = pick[front]
        nxt = np.unique(g.succ[_ranges(succ_lo[a], succ_lo[a + 1] - succ_lo[a])])
        front = nxt[~seen[nxt]]
    rows = np.sort(np.concatenate(found)).astype(np.intc)
    return rows, pick[rows].astype(np.intc)


def _prescribed(g: _Graph, root: int) -> tuple[np.ndarray, np.ndarray, list]:
    """:data:`PRESCRIBED` from ``root``: the states reachable under it, each
    one's first action, and their evaluation plan (see :func:`_plan`);
    built once per root."""
    if root not in g.prescribed:
        rows, acts = _walk(g, g.act_lo[:-1], root)
        g.prescribed[root] = rows, acts, _plan(g, rows, acts, np.ones_like(acts))
    return g.prescribed[root]


def _fixed_arrays(
    g: _Graph, policy: Policy, root: int = _ROOT
) -> tuple[np.ndarray, np.ndarray]:
    """A fixed deterministic policy from ``root`` as two arrays: the
    non-terminal states reachable under it and the index of each one's
    action.  A function that returns an action not legal in its state is a
    ValueError; a :class:`SolveResult` solved on ``g`` itself from ``root``
    and :data:`PRESCRIBED` are read by index, walked once and kept (callers
    do not modify the arrays)."""
    if policy is PRESCRIBED:
        return _prescribed(g, root)[:2]
    if isinstance(policy, SolveResult) and policy._graph is g and policy._root == root:
        return policy._fixed
    policy_fn = policy.policy.__getitem__ if isinstance(policy, SolveResult) else policy
    fixed: dict[int, int] = {}
    stack = [root]
    while stack:
        i = stack.pop()
        lo, hi = g.act_lo[i : i + 2].tolist()
        if lo == hi or i in fixed:  # terminal, or seen
            continue
        state = _decode_states(g, [i])[0]
        action = policy_fn(state)
        try:
            a = fixed[i] = lo + g.act[lo:hi].tolist().index(_action_code(action))
        except ValueError:
            raise ValueError(f"action {action} invalid in state {state}") from None
        stack.extend(g.succ[g.succ_lo[a] : g.succ_lo[a + 1]].tolist())
    rows = np.array(sorted(fixed), np.intc)
    return rows, np.array([fixed[i] for i in rows.tolist()], np.intc)


def policy_value(
    inst: MdpInstance,
    policy: Policy,
    graphs: Optional[dict] = None,
) -> float:
    """Exact value of a fixed deterministic policy on the same state graph.
    A function ``policy`` is called once on each non-terminal state
    reachable under it and must return one of that state's legal actions;
    a :class:`SolveResult` of the same game plays its optimal policy, and
    :data:`PRESCRIBED` the prescribed one."""
    g = _graph(inst, graphs)
    root = _root(g, inst)
    if policy is PRESCRIBED:
        plan = _prescribed(g, root)[2]
    else:
        rows, acts = _fixed_arrays(g, policy, root)
        plan = _plan(g, rows, acts, np.ones_like(acts))
    values, _choices = _evaluate(g, inst.phi, plan)
    return float(values[root])


def prescribed_action(inst: MdpInstance, state: State) -> Action:
    """The prescribed strategy as a policy: publish every created block
    immediately, adopt the public chain otherwise, and create factored
    blocks while quota remains; see :func:`legal_actions`."""
    return legal_actions(inst, state)[0]


# rollout_rewards draws its uniforms this many at a time
_DRAWS = 4096


def rollout_rewards(
    inst: MdpInstance,
    policy: Policy,
    games: int,
    seed: SeedLike,
    graphs: Optional[dict] = None,
) -> np.ndarray:
    """Forward-simulate ``games`` epochs under a fixed policy on the
    compiled graph; returns the per-game attacker rewards.  ``policy`` is
    as for :func:`policy_value`, ``graphs`` as for :func:`solve`.  Each step
    takes the next uniform of the seeded generator and the first successor
    whose cumulative probability exceeds it, else the last.  The uniforms
    are drawn ``_DRAWS`` at a time, the same stream as one draw per step."""
    g = _graph(inst, graphs)
    root = _root(g, inst)
    rows, acts = _fixed_arrays(g, policy, root)
    succ_lo, succ = g.succ_lo, g.succ
    # Each state's step as (c0, s0, c1, s1, s2): successor s0 below the
    # cumulative probability c0, else s1 below c1, else s2.  With fewer
    # than three successors a threshold of inf stands for a missing one.
    lo, last = succ_lo[acts], succ_lo[acts + 1] - 1
    mid = np.minimum(lo + 1, last)
    p0, p1 = g.probs[g.prob_of[lo]], g.probs[g.prob_of[mid]]
    cum0 = np.where(last > lo, p0, math.inf)
    cum1 = np.where(last > mid, p0 + p1, math.inf)
    step = dict(zip(rows.tolist(), zip(
        cum0.tolist(), succ[lo].tolist(), cum1.tolist(), succ[mid].tolist(), succ[last].tolist()
    )))
    rng = np.random.default_rng(as_seedseq(seed))
    draw = itertools.chain.from_iterable(iter(lambda: rng.random(_DRAWS).tolist(), None)).__next__
    get = step.get
    ends = []
    for _ in range(games):
        i = root
        while (t := get(i)) is not None:
            c0, s0, c1, s1, s2 = t
            r = draw()
            i = s0 if r < c0 else s1 if r < c1 else s2
        ends.append(i)
    leaf = g.leaf_of[np.array(ends, dtype=np.intp)]
    return _leaf_rewards(g.leaves, inst.phi, g.ell)[leaf]


@dataclass
class BestResponse:
    """Outcome of the allocation enumeration for one parameter point."""

    share: float
    ell: int
    phi: float
    rho: float
    j_star: Optional[int]
    value: float
    prescribed_j: Optional[int]
    prescribed_value: float
    classified: str  # "prescribed" | "non-prescribed"
    candidates: list[tuple[Optional[int], float]] = field(default_factory=list)
    rollout_mean: float = math.nan
    rollout_stderr: float = math.nan
    prescribed_rollout_mean: float = math.nan
    prescribed_rollout_stderr: float = math.nan
    welch_z: float = math.nan
    prescribed_shape: bool = False
    states: int = 0

    @property
    def is_prescribed(self) -> bool:
        return self.classified == "prescribed"


def best_response(
    share: float,
    ell: int,
    phi: float,
    rho: float,
    games: int = 5000,
    seed: SeedLike = 0,
    graphs: Optional[dict] = None,
) -> BestResponse:
    """Enumerate integral internal allocations, solve each exactly, evaluate
    by rollouts, and classify whether prescribed play is a best response.

    Classification mirrors the statistical protocol the metric is defined
    through: the best deviating policy and the prescribed policy are each
    played for ``games`` rollouts, and the deviation counts only when a
    two-sided Welch test separates the means at 3 sigma.  A policy that
    exactly matches the prescribed shape (the prescribed allocation, and the
    prescribed action on every state reachable under it) classifies as
    prescribed without any statistics.  With ``games=0`` the exact solver
    values decide instead; one game gives no standard error, so ``games``
    must be 0 or at least 2.

    The exact optimal and prescribed values are always reported; small true
    gains below the resolution of the rollout protocol are therefore visible
    in ``value`` even when the classification stays "prescribed".

    ``graphs`` caches compiled state graphs (see :func:`solve`); without it
    the call keeps a cache of its own, so every allocation is compiled and
    solved on one graph either way.
    """
    if games == 1 or games < 0:
        raise ValueError(f"games must be 0 or at least 2, got {games}")
    if graphs is None:
        graphs = {}
    j_presc = math.floor(ell * share + 1e-9) if rho > 0.0 else None
    j_values = _allocations(ell, share, rho)

    child_presc, child_best = as_seedseq(seed).spawn(2)

    candidates: list[tuple[Optional[int], float]] = []
    best_j: Optional[int] = None
    best_value = -math.inf
    best_solve: Optional[SolveResult] = None
    total_states = 0
    for j in j_values:
        inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=j)
        res = solve(inst, graphs)
        total_states += res.states
        candidates.append((j, res.value))
        better = res.value > best_value + VALUE_TOL
        tie_prefers = (
            abs(res.value - best_value) <= VALUE_TOL and j == j_presc
        )
        if better or tie_prefers or best_solve is None:
            best_value = max(res.value, best_value)
            best_j = j
            best_solve = res

    presc_inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=j_presc)
    presc_value = policy_value(presc_inst, PRESCRIBED, graphs)

    shape_match = False
    if best_solve is not None and best_j == j_presc:
        g = _graph(presc_inst, graphs)
        root = _root(g, presc_inst)
        best_rows, best_acts = _fixed_arrays(g, best_solve, root)
        presc_rows, presc_acts = _fixed_arrays(g, PRESCRIBED, root)
        shape_match = np.array_equal(best_rows, presc_rows) and np.array_equal(
            best_acts, presc_acts
        )

    rollout_mean = rollout_stderr = math.nan
    presc_mean = presc_stderr = math.nan
    welch = math.nan
    if games > 0 and best_solve is not None:
        rewards = rollout_rewards(best_solve.instance, best_solve, games, child_best, graphs)
        rollout_mean = float(rewards.mean())
        rollout_stderr = float(rewards.std(ddof=1) / math.sqrt(games))
        presc_rewards = rollout_rewards(presc_inst, PRESCRIBED, games, child_presc, graphs)
        presc_mean = float(presc_rewards.mean())
        presc_stderr = float(presc_rewards.std(ddof=1) / math.sqrt(games))
        denom = math.sqrt(rollout_stderr**2 + presc_stderr**2)
        welch = (rollout_mean - presc_mean) / denom if denom > 0 else 0.0

    if shape_match:
        classified = "prescribed"
    elif games > 0:
        classified = "prescribed" if abs(welch) < 3.0 else "non-prescribed"
    else:
        tol = VALUE_TOL * max(1.0, abs(presc_value))
        classified = (
            "prescribed" if best_value <= presc_value + tol else "non-prescribed"
        )

    return BestResponse(
        share=share,
        ell=ell,
        phi=phi,
        rho=rho,
        j_star=best_j,
        value=best_value,
        prescribed_j=j_presc,
        prescribed_value=presc_value,
        classified=classified,
        candidates=candidates,
        rollout_mean=rollout_mean,
        rollout_stderr=rollout_stderr,
        prescribed_rollout_mean=presc_mean,
        prescribed_rollout_stderr=presc_stderr,
        welch_z=welch,
        prescribed_shape=shape_match,
        states=total_states,
    )


@dataclass
class MinFactorResult:
    phi_min: Optional[float]
    probes: list[tuple[float, str]]
    monotone_ok: bool


def min_factor(
    share: float,
    rho: float,
    ell: int,
    phi_lo: float = 1.0,
    phi_hi: float = 1e8,
    games: int = 500,
    seed: SeedLike = 0,
    rel_tol: float = 0.05,
) -> MinFactorResult:
    """Binary search (on the log scale) for the least factor at which
    prescribed play is classified as a best response; None when even the
    upper bound fails.

    Classification is assumed monotone in the factor; a post-hoc probe just
    below and at twice the found value reports violations instead of
    trusting the assumption.  The probes share one cache of compiled state
    graphs, dropped on return.
    """
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if not 1.0 <= phi_lo <= phi_hi < math.inf:
        raise ValueError(
            f"need 1 <= phi_lo <= phi_hi < inf, got phi_lo={phi_lo}, phi_hi={phi_hi}"
        )
    graphs: dict = {}
    ss = as_seedseq(seed)
    probes: list[tuple[float, str]] = []
    probe_ids = itertools.count()

    def classify(phi: float) -> bool:
        child = child_seed(ss, (next(probe_ids),))
        br = best_response(share, ell, phi, rho, games=games, seed=child, graphs=graphs)
        probes.append((phi, br.classified))
        return br.is_prescribed

    if not classify(phi_hi):
        return MinFactorResult(phi_min=None, probes=probes, monotone_ok=True)
    if classify(phi_lo):
        return MinFactorResult(phi_min=phi_lo, probes=probes, monotone_ok=True)

    lo, hi = phi_lo, phi_hi
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if classify(mid):
            hi = mid
        else:
            lo = mid
    phi_min = hi

    below_ok = True
    if phi_min / (1.0 + 3.0 * rel_tol) > phi_lo:
        below_ok = not classify(phi_min / (1.0 + 3.0 * rel_tol))
    above_ok = classify(min(phi_min * 2.0, phi_hi))
    return MinFactorResult(
        phi_min=phi_min, probes=probes, monotone_ok=below_ok and above_ok
    )
