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
successors and probabilities, and each terminal state's integer block
counts), and each phi costs one backward pass over those arrays.  That one
pass serves both :func:`solve` (maximising over the legal actions) and
:func:`policy_value` (the actions fixed).  A caller that evaluates several
factors passes a ``graphs`` dict to reuse the compiled graphs;
:func:`min_factor` keeps one for the length of its search and there is no
process-wide cache.  A fixed policy is first mapped, by one walk over
the states reachable under it, to an action index per state; that map
serves the exact evaluation, the seeded rollouts (each step an index lookup
and one uniform draw over the action's successor probabilities) and the
check that an optimal policy has the prescribed shape.  The one-step kernel
:func:`successors` and :func:`terminal_value` spell out the same model
state by state.

The state count grows about 2.3-fold per unit of epoch length.  One
resource guard bounds it: compiling a graph past :data:`MAX_STATES` states
raises :class:`StateBudgetError`, so every entry point (solve, policy
evaluation, rollouts, the best-response search) stops before it costs more.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

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


def _wfloat(reg: int, fac: int, phi: float) -> float:
    return reg + phi * fac


@dataclass
class SolveResult:
    value: float
    policy: dict[State, Action]
    states: int
    instance: MdpInstance
    state_values: dict[State, float] = field(default_factory=dict)

    def to_json(self) -> str:
        """Debug dump: instance parameters plus (state, action, value)
        triples for every non-terminal state the solver visited."""

        def enc_state(s: State) -> dict:
            return {
                "established": list(s[:4]),
                "secret": "".join("F" if t else "R" for t in s[4]),
                "public": "".join("F" if t else "R" for t in s[5]),
                "fork": s[6],
            }

        def enc_action(a: Action) -> dict:
            return {"move": a[0], "publish_len": a[1], "factored": a[2]}

        entries = [
            {
                "state": enc_state(s),
                "action": enc_action(a),
                "value": self.state_values.get(s),
            }
            for s, a in sorted(self.policy.items())
        ]
        return json.dumps(
            {
                "instance": {
                    "ell": self.instance.ell,
                    "share": self.instance.share,
                    "phi": self.instance.phi,
                    "rho": self.instance.rho,
                    "alloc": self.instance.alloc,
                    "publish_mode": self.instance.publish_mode,
                    "alpha": self.instance.alpha,
                },
                "value": self.value,
                "states": self.states,
                "policy": entries,
            },
            sort_keys=True,
        )


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


def _leaf_reward(leaf: tuple[int, ...], phi: float, ell: int) -> float:
    winner, ar, af, cr, cf, sec_reg, sec_fac, pub_reg, pub_fac = leaf

    def reward(att_w: float, coh_w: float) -> float:
        total = att_w + coh_w
        if total <= 0.0:
            return 0.0
        return att_w / total * ell

    att_est_w = _wfloat(ar, af, phi)
    coh_est_w = _wfloat(cr, cf, phi)
    win_sec = reward(att_est_w + _wfloat(sec_reg, sec_fac, phi), coh_est_w)
    win_pub = reward(att_est_w, coh_est_w + _wfloat(pub_reg, pub_fac, phi))
    if winner == _SPLIT:
        return 0.5 * (win_sec + win_pub)
    return win_sec if winner == _SECRET else win_pub


def terminal_value(inst: MdpInstance, state: State) -> Optional[float]:
    """Reward if ``state`` ends the epoch, else None.

    When both chains reach full length simultaneously the attacker publishes
    her secret chain and the cohort adjudicates by minimum accumulated
    weight, splitting exact ties evenly.
    """
    leaf = _leaf(inst, state)
    return None if leaf is None else _leaf_reward(leaf, inst.phi, inst.ell)


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
    initial state last.  State ``i`` is terminal when ``leaf_of[i] >= 0``, an
    index into ``leaves`` (see :func:`_leaf`).  Otherwise its legal actions,
    in :func:`legal_actions` order, are ``actions[act_lo[i]:act_lo[i + 1]]``,
    and action ``a`` leads to state ``succ[e]`` with probability ``prob[e]``
    for ``e`` in ``range(succ_lo[a], succ_lo[a + 1])``, in
    :func:`successors` order.
    """

    ell: int
    states: list[State] = field(default_factory=list)
    leaves: list[tuple[int, ...]] = field(default_factory=list)
    leaf_of: array = field(default_factory=lambda: array("i"))
    inner: array = field(default_factory=lambda: array("i"))  # non-terminal states
    act_lo: array = field(default_factory=lambda: array("i", [0]))
    actions: list[Action] = field(default_factory=list)
    succ_lo: array = field(default_factory=lambda: array("i", [0]))
    succ: array = field(default_factory=lambda: array("i"))
    prob: array = field(default_factory=lambda: array("d"))


def _compile(inst: MdpInstance) -> _Graph:
    """Explore the state graph from the initial state, depth first, in the
    order of :func:`legal_actions` and :func:`successors`; each chain move
    is resolved once for both block types."""
    g = _Graph(inst.ell)
    index: dict[State, int] = {}
    leaf_ids: dict[tuple[int, ...], int] = {}
    action_ids: dict[Action, Action] = {}  # one object per distinct action

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
            g.prob.extend([p for p, _s in branches])
            g.succ.extend(ids)
            g.inner.append(len(g.states))
            g.leaf_of.append(-1)
        else:
            g.leaf_of.append(leaf_ids.setdefault(leaf, len(leaf_ids)))
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
    g.leaves = list(leaf_ids)
    return g


def _evaluate(
    g: _Graph, phi: float, fixed: Optional[dict[int, int]] = None
) -> tuple[list[float], list[int]]:
    """Backward induction over a compiled graph at factor ``phi``, in one
    pass over its post-order.  Returns every state's value and, per state in
    ``g.inner``, the index of its best action.  Ties between equal-valued
    actions resolve toward the first (prescribed-like moves first), making
    the policy stable.  With ``fixed`` (state index -> action index) only
    those states are evaluated, each under its given action."""
    rewards = [_leaf_reward(leaf, phi, g.ell) for leaf in g.leaves]
    rewards.append(math.nan)  # leaf_of[i] == -1: not terminal, not yet evaluated
    val = list(map(rewards.__getitem__, g.leaf_of))
    act_lo, succ_lo, succ, prob = g.act_lo, g.succ_lo, g.succ, g.prob
    if fixed is None:
        spans = ((i, act_lo[i], act_lo[i + 1]) for i in g.inner)
    else:
        spans = ((i, a, a + 1) for i, a in sorted(fixed.items()))
    choice: list[int] = []
    for i, lo, hi in spans:
        best, best_a = -math.inf, lo
        for a in range(lo, hi):
            v = 0.0
            for e in range(succ_lo[a], succ_lo[a + 1]):
                v += prob[e] * val[succ[e]]
            if v > best + 1e-15:
                best, best_a = v, a
        val[i] = best
        choice.append(best_a)
    return val, choice


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
    val, choice = _evaluate(g, inst.phi)
    states, actions = g.states, g.actions
    policy = {states[i]: actions[a] for i, a in zip(g.inner, choice)}
    return SolveResult(
        val[-1], policy, len(states), inst, state_values=dict(zip(states, val))
    )


def _policy_actions(g: _Graph, policy_fn: Callable[[State], Action]) -> dict[int, int]:
    """A fixed deterministic policy as state index -> action index, over
    the non-terminal states reachable under it; an action that is not
    legal in its state is a ValueError."""
    fixed: dict[int, int] = {}
    stack = [len(g.states) - 1]
    while stack:
        i = stack.pop()
        lo, hi = g.act_lo[i], g.act_lo[i + 1]
        if lo == hi or i in fixed:  # terminal, or seen
            continue
        state = g.states[i]
        action = policy_fn(state)
        try:
            a = g.actions.index(action, lo, hi)
        except ValueError:
            raise ValueError(f"action {action} invalid in state {state}") from None
        fixed[i] = a
        stack.extend(g.succ[g.succ_lo[a] : g.succ_lo[a + 1]])
    return fixed


def policy_value(
    inst: MdpInstance,
    policy_fn: Callable[[State], Action],
    graphs: Optional[dict] = None,
) -> float:
    """Exact value of a fixed deterministic policy on the same state graph.
    ``policy_fn`` is called once on each non-terminal state reachable under
    it and must return one of that state's legal actions."""
    g = _graph(inst, graphs)
    return _evaluate(g, inst.phi, _policy_actions(g, policy_fn))[0][-1]


def prescribed_action(inst: MdpInstance, state: State) -> Action:
    """The prescribed strategy as a policy: publish every created block
    immediately, adopt the public chain otherwise, and create factored
    blocks while quota remains; see :func:`legal_actions`."""
    return legal_actions(inst, state)[0]


def rollout_rewards(
    inst: MdpInstance,
    policy_fn: Callable[[State], Action],
    games: int,
    seed: SeedLike,
    graphs: Optional[dict] = None,
) -> np.ndarray:
    """Forward-simulate ``games`` epochs under a fixed policy on the
    compiled graph; returns the per-game attacker rewards.  ``policy_fn`` is
    as for :func:`policy_value`, ``graphs`` as for :func:`solve`.  Each step
    draws one uniform and takes the first successor whose cumulative
    probability exceeds it, else the last."""
    g = _graph(inst, graphs)
    act = _policy_actions(g, policy_fn)
    leaf_of, succ_lo, succ, prob = g.leaf_of, g.succ_lo, g.succ, g.prob
    rng = np.random.default_rng(as_seedseq(seed))
    rewards = np.empty(games, dtype=float)
    for n in range(games):
        i = len(g.states) - 1
        while leaf_of[i] < 0:
            r = rng.random()
            a = act[i]
            lo, hi = succ_lo[a], succ_lo[a + 1]
            i = succ[hi - 1]
            acc = 0.0
            for e in range(lo, hi):
                acc += prob[e]
                if r < acc:
                    i = succ[e]
                    break
        rewards[n] = _leaf_reward(g.leaves[leaf_of[i]], inst.phi, g.ell)
    return rewards


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
        shape_match = _policy_actions(g, best_solve.policy.__getitem__) == (
            _policy_actions(g, presc_fn)
        )

    rollout_mean = rollout_stderr = math.nan
    presc_mean = presc_stderr = math.nan
    welch = math.nan
    if games > 0 and best_solve is not None:
        rewards = rollout_rewards(
            best_solve.instance, best_solve.policy.__getitem__, games, child_best, graphs
        )
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
