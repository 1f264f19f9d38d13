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
through whether it is 1.  So the graph is compiled once into flat arrays
(states in post-order, the legal actions of each state, each action's
successors and probabilities, each terminal state's integer block counts,
and each state's level: 0 when terminal, else one more than its highest
successor), and each phi costs one backward pass over those arrays in
numpy, one level at a time.  A level's action values are summed one
successor column at a time and its best actions found by scanning one
action slot at a time, the float operations of a scalar loop, so values and
tie-breaking are bit-identical to it.  That one pass serves both
:func:`solve` (maximising over the legal actions, with a level plan built
once per graph) and :func:`policy_value` (one fixed action per state).
:func:`solve` keeps its results by state index; the state-keyed
``policy`` and ``state_values`` dicts are built only when read.  A caller
that evaluates several factors passes a ``graphs`` dict to reuse the
compiled graphs; :func:`min_factor` keeps one for the length of its search
and there is no process-wide cache.  A fixed policy (a function of the
state, or a solved result) is first mapped, by one walk over the states
reachable under it, to an action index per state; that map serves the
exact evaluation, the seeded rollouts and the check that an optimal policy
has the prescribed shape.  A rollout step is one lookup of the state's
cumulative successor probabilities and at most two comparisons with the
next uniform, drawn from the generator in batches.  The one-step kernel
:func:`successors` and :func:`terminal_value` spell out the same model
state by state.

The state count grows about 2.3-fold per unit of epoch length.  One
resource guard bounds it: compiling a graph past :data:`MAX_STATES` states
raises :class:`StateBudgetError`, so every entry point (solve, policy
evaluation, rollouts, the best-response search) stops before it costs more.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Optional, Sequence, Union

import numpy as np

from hebsim.chain import within_quota
from hebsim.engine import SeedLike, as_seedseq

WAIT = "wait"
ADOPT = "adopt"
PUBLISH = "publish"

# action: (chain_move, publish_len, next_block_factored)
Action = tuple[str, int, bool]
# state: (att_reg, att_fac, coh_reg, coh_fac, secret_ext, public_ext, fork)
State = tuple[int, int, int, int, tuple[bool, ...], tuple[bool, ...], bool]

# The most states one compiled graph may hold; _compile raises
# StateBudgetError past it.  The largest graph at ell 12 (share 0.2, phi 20,
# rho 0) has 1,082,448 states; it compiles in 31-38 s and peaks at 569 MB RSS
# on a 2-vCPU Xeon.  Each step of ell multiplies the count by about 2.3, so
# ell 13 trips the budget after about 43 s.  Read at call time.
MAX_STATES = 1_200_000

# best_response: exact values this close tie, and the tie goes to
# prescribed play (relative to the prescribed value when games=0)
VALUE_TOL = 1e-9


class StateBudgetError(Exception):
    """The game's state graph has more than :data:`MAX_STATES` states."""


@dataclass(frozen=True)
class MdpInstance:
    """One game: epoch length, protocol parameters, attacker share, and her
    internal allocation expressed as a count of factored-block commitments."""

    ell: int
    share: float
    phi: float
    rho: float
    alloc: Optional[int] = None
    publish_mode: str = "prefix"  # "prefix" | "all"

    def __post_init__(self):
        if not isinstance(self.ell, numbers.Integral) or self.ell < 1:
            raise ValueError(f"ell must be a positive integer, got {self.ell!r}")
        if not 0.0 <= self.share <= 1.0:
            raise ValueError("share must lie in [0, 1]")
        if not 1.0 <= self.phi < math.inf:  # also rejects nan
            raise ValueError("phi must lie in [1, inf)")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.publish_mode not in ("prefix", "all"):
            raise ValueError("publish_mode must be 'prefix' or 'all'")
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
    action kept by index into its compiled graph.  ``policy`` (each
    non-terminal state's optimal action) and ``state_values`` (every state's
    value), both keyed by state in the graph's post-order, are built on
    first access.  A result is also a policy for :func:`policy_value` and
    :func:`rollout_rewards`."""

    value: float
    states: int
    instance: MdpInstance
    _graph: _Graph = field(repr=False)
    _values: np.ndarray = field(repr=False)
    _choices: np.ndarray = field(repr=False)

    @cached_property
    def policy(self) -> dict[State, Action]:
        g = self._graph
        chosen = self._choices[np.frombuffer(g.inner, np.intc)].tolist()
        return dict(zip(map(g.states.__getitem__, g.inner), map(g.actions.__getitem__, chosen)))

    @cached_property
    def state_values(self) -> dict[State, float]:
        return dict(zip(self._graph.states, self._values.tolist()))


# A fixed deterministic policy: a map from each state to one of its legal
# actions, or a SolveResult (its optimal policy).
Policy = Union[Callable[[State], Action], SolveResult]

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
        if inst.publish_mode == "prefix":
            moves += [(PUBLISH, m) for m in range(len(sec), max(len(pub), 1) - 1, -1)]
        else:
            moves.append((PUBLISH, len(sec)))
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


@dataclass
class _Graph:
    """One game's state graph with everything but the factor resolved.

    ``states`` is in post-order: each state after all its successors, the
    initial state last.  State ``i`` is terminal when ``leaf_of[i] >= 0``, a
    row of ``leaves`` (the counts of :func:`_leaf`).  Otherwise its legal
    actions, in :func:`legal_actions` order, are
    ``actions[act_lo[i]:act_lo[i + 1]]``, and action ``a`` leads to state
    ``succ[e]`` with probability ``probs[prob_of[e]]`` for ``e`` in
    ``range(succ_lo[a], succ_lo[a + 1])``, in :func:`successors` order: one
    to three successors, with a handful of distinct probabilities per game.
    ``level[i]`` is 0 for a terminal state, else 1 + the largest level among
    its successors, so a state's value depends on lower levels only.
    ``plan`` is the maximising evaluation plan (see :func:`_plan`), built by
    the first :func:`solve` and kept.
    """

    ell: int
    states: list[State] = field(default_factory=list)
    leaves: Optional[np.ndarray] = None  # int32, one row of 9 counts per leaf
    leaf_of: array = field(default_factory=lambda: array("i"))
    level: Optional[np.ndarray] = None  # intc
    inner: array = field(default_factory=lambda: array("i"))  # non-terminal states
    act_lo: array = field(default_factory=lambda: array("i", [0]))
    actions: list[Action] = field(default_factory=list)
    succ_lo: array = field(default_factory=lambda: array("i", [0]))
    succ: array = field(default_factory=lambda: array("i"))
    prob_of: Optional[np.ndarray] = None  # unsigned int, an index into probs
    probs: Optional[np.ndarray] = None
    plan: Optional[list] = None


def _compile(inst: MdpInstance) -> _Graph:
    """Explore the state graph from the initial state, depth first, in the
    order of :func:`legal_actions` and :func:`successors`; each chain move
    is resolved once for both block types."""
    g = _Graph(inst.ell)
    index: dict[State, int] = {}
    leaf_ids: dict[tuple[int, ...], int] = {}
    action_ids: dict[Action, Action] = {}  # one object per distinct action
    prob = array("d")
    level: list[int] = []

    def visit(state: State) -> int:  # a state not yet in ``index``
        leaf = _leaf(inst, state)
        if leaf is None:
            acts: list[Action] = []
            branches: list[tuple[float, State]] = []
            ends: list[int] = []
            for move, m, inter in _chain_moves(inst, state):
                cohort = _cohort_blocks(inst, inter)
                for kind in _kinds(inst, inter):
                    acts.append((move, m, kind))
                    branches += _attacker_block(inst, inter, kind)
                    branches += cohort
                    ends.append(len(branches))
            ids = [j if (j := index.get(s)) is not None else visit(s) for _p, s in branches]
            base = len(g.succ)  # after the recursion above has appended its own
            g.actions += [action_ids.setdefault(a, a) for a in acts]
            g.succ_lo.extend([base + e for e in ends])
            prob.extend([p for p, _s in branches])
            g.succ.extend(ids)
            g.inner.append(len(g.states))
            g.leaf_of.append(-1)
            level.append(1 + max(map(level.__getitem__, ids)))
        else:
            g.leaf_of.append(leaf_ids.setdefault(leaf, len(leaf_ids)))
            level.append(0)
        g.act_lo.append(len(g.actions))
        i = index[state] = len(g.states)
        if i >= MAX_STATES:
            raise StateBudgetError(
                f"the game at ell={inst.ell} has more than {MAX_STATES:,} states "
                "(mdp.MAX_STATES)"
            )
        g.states.append(state)
        return i

    visit(initial_state())
    # visit refers to itself; unbinding it frees the exploration's tables now
    # rather than at the next cyclic garbage collection
    del visit
    g.leaves = np.array(list(leaf_ids), dtype=np.int32)
    g.level = np.array(level, dtype=np.intc)
    g.probs, codes = np.unique(np.frombuffer(prob), return_inverse=True)
    # two more codes stand for 0.0 and 1.0 in _plan
    g.prob_of = codes.astype(np.min_scalar_type(len(g.probs) + 1))
    return g


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
    n = len(g.states)
    zero, one = len(g.probs), len(g.probs) + 1
    succ_lo = np.frombuffer(g.succ_lo, np.intc)
    succ = np.frombuffer(g.succ, np.intc)
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
    n = len(g.states)
    val = np.empty(n + 2)
    val[:n] = np.append(_leaf_rewards(g.leaves, phi, g.ell), math.nan)[
        np.frombuffer(g.leaf_of, np.intc)
    ]
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


def _graph(inst: MdpInstance, graphs: Optional[dict]) -> _Graph:
    """The compiled graph of ``inst``, from ``graphs`` when it holds one."""
    if graphs is None:
        return _compile(inst)
    key = (inst.ell, inst.share, inst.rho, inst.alloc, inst.publish_mode, inst.phi == 1.0)
    g = graphs.get(key)
    if g is None:
        g = graphs[key] = _compile(inst)
    return g


def solve(inst: MdpInstance, graphs: Optional[dict] = None) -> SolveResult:
    """Exact optimal value and policy; the policy covers every non-terminal
    state reachable from the initial state.  ``graphs`` caches compiled
    graphs across calls that differ only in the factor; results are the same
    with or without it."""
    g = _graph(inst, graphs)
    if g.plan is None:
        inner = np.frombuffer(g.inner, np.intc)
        act_lo = np.frombuffer(g.act_lo, np.intc)
        g.plan = _plan(g, inner, act_lo[inner], act_lo[inner + 1] - act_lo[inner])
    values, choices = _evaluate(g, inst.phi, g.plan)
    return SolveResult(float(values[-1]), len(g.states), inst, g, values, choices)


def _policy_actions(g: _Graph, policy: Policy) -> dict[int, int]:
    """A fixed deterministic policy as state index -> action index, over
    the non-terminal states reachable under it.  A function that returns an
    action not legal in its state is a ValueError; a :class:`SolveResult`
    solved on ``g`` itself is read by index."""
    if isinstance(policy, SolveResult) and policy._graph is g:
        pick = policy._choices.tolist().__getitem__
    else:
        policy_fn = policy.policy.__getitem__ if isinstance(policy, SolveResult) else policy

        def pick(i: int) -> int:
            state = g.states[i]
            action = policy_fn(state)
            try:
                return g.actions.index(action, g.act_lo[i], g.act_lo[i + 1])
            except ValueError:
                raise ValueError(f"action {action} invalid in state {state}") from None

    fixed: dict[int, int] = {}
    stack = [len(g.states) - 1]
    while stack:
        i = stack.pop()
        if g.act_lo[i] == g.act_lo[i + 1] or i in fixed:  # terminal, or seen
            continue
        a = fixed[i] = pick(i)
        stack.extend(g.succ[g.succ_lo[a] : g.succ_lo[a + 1]])
    return fixed


def _fixed_arrays(g: _Graph, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_policy_actions` as two arrays: the states and their actions."""
    fixed = _policy_actions(g, policy)
    return (
        np.fromiter(fixed.keys(), np.intc, len(fixed)),
        np.fromiter(fixed.values(), np.intc, len(fixed)),
    )


def policy_value(
    inst: MdpInstance,
    policy: Policy,
    graphs: Optional[dict] = None,
) -> float:
    """Exact value of a fixed deterministic policy on the same state graph.
    A function ``policy`` is called once on each non-terminal state
    reachable under it and must return one of that state's legal actions;
    a :class:`SolveResult` of the same game plays its optimal policy."""
    g = _graph(inst, graphs)
    rows, acts = _fixed_arrays(g, policy)
    values, _choices = _evaluate(g, inst.phi, _plan(g, rows, acts, np.ones_like(acts)))
    return float(values[-1])


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
    rows, acts = _fixed_arrays(g, policy)
    succ_lo = np.frombuffer(g.succ_lo, np.intc)
    succ = np.frombuffer(g.succ, np.intc)
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
    draw = chain.from_iterable(iter(lambda: rng.random(_DRAWS).tolist(), None)).__next__
    get = step.get
    root = len(g.states) - 1
    ends = []
    for _ in range(games):
        i = root
        while (t := get(i)) is not None:
            c0, s0, c1, s1, s2 = t
            r = draw()
            i = s0 if r < c0 else s1 if r < c1 else s2
        ends.append(i)
    leaf = np.frombuffer(g.leaf_of, np.intc)[np.array(ends, dtype=np.intp)]
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
    the prescribed evaluation still reuses its allocation's graph.
    """
    if games == 1 or games < 0:
        raise ValueError(f"games must be 0 or at least 2, got {games}")
    if graphs is None:
        graphs = {}
    balance = ell * share
    if rho > 0.0:
        j_presc: Optional[int] = math.floor(balance + 1e-9)
        j_values: Sequence[Optional[int]] = list(
            range(0, math.floor(balance / rho + 1e-9) + 1)
        )
    else:
        j_presc = None
        j_values = [None]

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
    presc_fn = partial(prescribed_action, presc_inst)
    presc_value = policy_value(presc_inst, presc_fn, graphs)

    shape_match = False
    if best_solve is not None and best_j == j_presc:
        g = _graph(presc_inst, graphs)
        shape_match = _policy_actions(g, best_solve) == _policy_actions(g, presc_fn)

    rollout_mean = rollout_stderr = math.nan
    presc_mean = presc_stderr = math.nan
    welch = math.nan
    if games > 0 and best_solve is not None:
        rewards = rollout_rewards(best_solve.instance, best_solve, games, child_best, graphs)
        rollout_mean = float(rewards.mean())
        rollout_stderr = float(rewards.std(ddof=1) / math.sqrt(games))
        presc_rewards = rollout_rewards(presc_inst, presc_fn, games, child_presc, graphs)
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
    counter = [0]

    def classify(phi: float) -> bool:
        child = np.random.SeedSequence(
            entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + (counter[0],)
        )
        counter[0] += 1
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
