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
approximation.  One memoised induction serves both :func:`solve` (maximising
over the legal actions) and :func:`policy_value` (the same pass with the
actions fixed).  Weight ties only ever arise between two chains of equal
length, so they are decided by comparing integer counts of factored blocks.
Policies can additionally be evaluated by seeded rollouts through the same
one-step kernel, guarding against drift between the solver and the forward
simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from hebsim.chain import within_quota

SeedLike = Union[int, np.random.SeedSequence]

WAIT = "wait"
ADOPT = "adopt"
PUBLISH = "publish"

# action: (chain_move, publish_len, next_block_factored)
Action = tuple[str, int, bool]
# state: (att_reg, att_fac, coh_reg, coh_fac, secret_ext, public_ext, fork)
State = tuple[int, int, int, int, tuple[bool, ...], tuple[bool, ...], bool]

DEFAULT_HORIZON_CAP = 12


class StateBudgetError(Exception):
    """The requested horizon exceeds the configured state budget."""


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
        if self.ell < 1:
            raise ValueError("ell must be positive")
        if not 0.0 <= self.share <= 1.0:
            raise ValueError("share must lie in [0, 1]")
        if self.phi < 1.0:
            raise ValueError("phi must be >= 1")
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

    @property
    def balance(self) -> float:
        return self.ell * self.share

    @property
    def internal(self) -> float:
        if self.rho == 0.0 or self.alloc is None:
            return 0.0
        return self.alloc * self.rho

    @property
    def external(self) -> float:
        # the alloc bound's 1e-9 slack may let internal exceed the balance
        return max(self.balance - self.internal, 0.0)

    @property
    def alpha(self) -> float:
        """Per-step probability that the attacker creates the next block."""
        ext = self.external
        cohort_ext = (1.0 - self.rho) * (self.ell - self.balance)
        total = ext + cohort_ext
        if total <= 0.0:
            return 1.0 if ext > 0 else 0.0
        return ext / total

    @property
    def attacker_quota(self) -> Optional[int]:
        return None if self.rho == 0.0 else self.alloc

    @property
    def cohort_quota(self) -> Optional[int]:
        if self.rho == 0.0:
            return None
        return math.floor(self.ell - self.balance + 1e-9)

    @property
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


def terminal_value(inst: MdpInstance, state: State) -> Optional[float]:
    """Reward if ``state`` ends the epoch, else None.

    When both chains reach full length simultaneously the attacker publishes
    her secret chain and the cohort adjudicates by minimum accumulated
    weight, splitting exact ties evenly.
    """
    ar, af, cr, cf, sec, pub, _fork = state
    est_len = ar + af + cr + cf
    full_sec = est_len + len(sec) == inst.ell
    full_pub = est_len + len(pub) == inst.ell
    if not (full_sec or full_pub):
        return None
    phi = inst.phi
    sec_fac = sum(1 for t in sec if t)
    pub_fac = sum(1 for t in pub if t)

    def reward(att_w: float, coh_w: float) -> float:
        total = att_w + coh_w
        if total <= 0.0:
            return 0.0
        return att_w / total * inst.ell

    att_est_w = _wfloat(ar, af, phi)
    coh_est_w = _wfloat(cr, cf, phi)
    win_sec = reward(
        att_est_w + _wfloat(len(sec) - sec_fac, sec_fac, phi), coh_est_w
    )
    win_pub = reward(
        att_est_w, coh_est_w + _wfloat(len(pub) - pub_fac, pub_fac, phi)
    )
    if full_sec and full_pub:
        sec_lighter = _lighter(sec_fac, pub_fac, phi)
        if sec_lighter is None:
            return 0.5 * (win_sec + win_pub)
        return win_sec if sec_lighter else win_pub
    return win_sec if full_sec else win_pub


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
        pub_fac = sum(1 for t in pub if t)
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
    moved = sec[:m]
    moved_fac = sum(1 for t in moved if t)
    return (ar + m - moved_fac, af + moved_fac, cr, cf, sec[m:], (), False)


def legal_actions(inst: MdpInstance, state: State) -> list[Action]:
    """Valid actions, prescribed-like moves first (for stable tie-breaking)."""
    _ar, af, _cr, _cf, sec, pub, fork = state
    moves: list[tuple[str, int]] = []
    if sec:
        if inst.publish_mode == "prefix":
            candidates = range(len(sec), max(len(pub), 1) - 1, -1)
        else:
            candidates = (len(sec),)
        for m in candidates:
            if m == len(pub) and fork:
                continue
            if m < len(pub):
                continue
            moves.append((PUBLISH, m))
    if pub:
        moves.append((ADOPT, 0))
    moves.append((WAIT, 0))

    actions: list[Action] = []
    for move, m in moves:
        inter = _resolve_chain_move(state, move, m)
        if inter is None:
            continue
        if _may_factor(inst, inter):
            actions.append((move, m, True))
        actions.append((move, m, False))
    return actions


def _may_factor(inst: MdpInstance, inter: State) -> bool:
    """Whether the attacker may make her next block factored, given the
    state after her chain move: her factored blocks on the established
    prefix plus her secret extension must leave quota."""
    if inst.collapse_types:
        return False
    return within_quota(inter[1] + sum(1 for t in inter[4] if t), inst.attacker_quota)


def successors(
    inst: MdpInstance, state: State, action: Action
) -> list[tuple[float, State]]:
    """Distribution over next states: chain move, then one block creation."""
    move, m, make_factored = action
    inter = _resolve_chain_move(state, move, m)
    if inter is None:
        raise ValueError(f"action {action} invalid in state {state}")
    ar, af, cr, cf, sec, pub, fork = inter
    alpha = inst.alpha
    out: list[tuple[float, State]] = []

    if alpha > 0.0:
        out.append((alpha, (ar, af, cr, cf, sec + (make_factored,), pub, fork)))

    if alpha < 1.0:
        p_coh = 1.0 - alpha
        quota = inst.cohort_quota

        def cohort_type(cf_on_chain: int, ext_fac: int) -> bool:
            return not inst.collapse_types and within_quota(cf_on_chain + ext_fac, quota)

        if not fork:
            t = cohort_type(cf, sum(1 for x in pub if x))
            out.append((p_coh, (ar, af, cr, cf, sec, pub + (t,), fork)))
        else:
            # two equal-length public tips: the attacker's published prefix
            # and the cohort's own extension; cohort extends the lighter one
            L = len(pub)
            att_lighter = _lighter(
                sum(1 for x in sec[:L] if x), sum(1 for x in pub if x), inst.phi
            )
            if att_lighter is None:
                branches = [(0.5, True), (0.5, False)]
            else:
                branches = [(1.0, att_lighter)]
            for prob, on_attacker_tip in branches:
                if on_attacker_tip:
                    moved = sec[:L]
                    moved_fac = sum(1 for x in moved if x)
                    nar, naf = ar + L - moved_fac, af + moved_fac
                    t = cohort_type(cf, 0)
                    out.append(
                        (
                            p_coh * prob,
                            (nar, naf, cr, cf, sec[L:], (t,), False),
                        )
                    )
                else:
                    t = cohort_type(cf, sum(1 for x in pub if x))
                    out.append(
                        (p_coh * prob, (ar, af, cr, cf, sec, pub + (t,), False))
                    )
    return out


def _induct(
    inst: MdpInstance,
    horizon_cap: int,
    policy_fn: Optional[Callable[[State], Action]] = None,
) -> SolveResult:
    """Memoised backward induction over the acyclic state graph from the
    initial state: maximising over :func:`legal_actions`, or following
    ``policy_fn`` when one is given.

    Ties between equal-valued actions resolve toward the first action in
    :func:`legal_actions` order (prescribed-like moves first), making the
    returned deterministic policy stable.
    """
    if inst.ell > horizon_cap:
        raise StateBudgetError(
            f"ell={inst.ell} exceeds the state budget cap {horizon_cap}; "
            "raise horizon_cap explicitly if you accept the cost"
        )
    memo: dict[State, float] = {}
    policy: dict[State, Action] = {}

    def value(state: State) -> float:
        cached = memo.get(state)
        if cached is not None:
            return cached
        tv = terminal_value(inst, state)
        if tv is not None:
            memo[state] = tv
            return tv
        actions = legal_actions(inst, state) if policy_fn is None else [policy_fn(state)]
        best, best_action = -math.inf, actions[0]
        for action in actions:
            v = 0.0
            for p, nxt in successors(inst, state, action):
                v += p * value(nxt)
            if v > best + 1e-15:
                best, best_action = v, action
        memo[state] = best
        policy[state] = best_action
        return best

    root_value = value(initial_state())
    return SolveResult(root_value, policy, len(memo), inst, state_values=memo)


def solve(inst: MdpInstance, horizon_cap: int = DEFAULT_HORIZON_CAP) -> SolveResult:
    """Exact optimal value and policy; the policy covers every non-terminal
    state the induction reached."""
    return _induct(inst, horizon_cap)


def policy_value(
    inst: MdpInstance,
    policy_fn: Callable[[State], Action],
    horizon_cap: int = DEFAULT_HORIZON_CAP,
) -> float:
    """Exact value of a fixed deterministic policy on the same state graph."""
    return _induct(inst, horizon_cap, policy_fn).value


def prescribed_action(inst: MdpInstance, state: State) -> Action:
    """The prescribed strategy as a policy: publish every created block
    immediately, adopt the public chain otherwise, and create factored
    blocks while quota remains."""
    _ar, af, _cr, _cf, sec, pub, _fork = state
    if sec:
        move: tuple[str, int] = (PUBLISH, len(sec))
    elif pub:
        move = (ADOPT, 0)
    else:
        move = (WAIT, 0)
    inter = _resolve_chain_move(state, move[0], move[1])
    if inter is None:  # publishing an equal-length prefix twice, etc.
        move = (ADOPT, 0) if pub else (WAIT, 0)
        inter = _resolve_chain_move(state, move[0], move[1])
    return (move[0], move[1], _may_factor(inst, inter))


def rollout_rewards(
    inst: MdpInstance,
    policy_fn: Callable[[State], Action],
    games: int,
    seed: SeedLike,
) -> np.ndarray:
    """Forward-simulate ``games`` epochs under a fixed policy; returns the
    per-game attacker rewards."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    rewards = np.empty(games, dtype=float)
    for g in range(games):
        state = initial_state()
        while True:
            tv = terminal_value(inst, state)
            if tv is not None:
                rewards[g] = tv
                break
            branches = successors(inst, state, policy_fn(state))
            r = rng.random()
            acc = 0.0
            nxt = branches[-1][1]
            for p, cand in branches:
                acc += p
                if r < acc:
                    nxt = cand
                    break
            state = nxt
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


def _walk_policy_shape(res: SolveResult) -> bool:
    """True when, on every state reachable under the optimal policy, the
    chosen action matches the prescribed one."""
    inst = res.instance
    seen: set[State] = set()
    stack = [initial_state()]
    while stack:
        state = stack.pop()
        if state in seen or terminal_value(inst, state) is not None:
            continue
        seen.add(state)
        action = res.policy[state]
        if action != prescribed_action(inst, state):
            return False
        for _p, nxt in successors(inst, state, action):
            stack.append(nxt)
    return True


def best_response(
    share: float,
    ell: int,
    phi: float,
    rho: float,
    games: int = 5000,
    seed: SeedLike = 0,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    value_tol: float = 1e-9,
) -> BestResponse:
    """Enumerate integral internal allocations, solve each exactly, evaluate
    by rollouts, and classify whether prescribed play is a best response.

    Classification mirrors the statistical protocol the metric is defined
    through: the best deviating policy and the prescribed policy are each
    played for ``games`` rollouts, and the deviation counts only when a
    two-sided Welch test separates the means at 3 sigma.  A policy that
    exactly matches the prescribed shape (no withholding, prescribed
    allocation, factored within quota) classifies as prescribed without any
    statistics.  With ``games=0`` the exact solver values decide instead.

    The exact optimal and prescribed values are always reported; small true
    gains below the resolution of the rollout protocol are therefore visible
    in ``value`` even when the classification stays "prescribed".
    """
    balance = ell * share
    if rho > 0.0:
        j_presc: Optional[int] = math.floor(balance + 1e-9)
        j_values: Sequence[Optional[int]] = list(
            range(0, math.floor(balance / rho + 1e-9) + 1)
        )
    else:
        j_presc = None
        j_values = [None]

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    child_presc, child_best = ss.spawn(2)

    candidates: list[tuple[Optional[int], float]] = []
    best_j: Optional[int] = None
    best_value = -math.inf
    best_solve: Optional[SolveResult] = None
    total_states = 0
    for j in j_values:
        inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=j)
        res = solve(inst, horizon_cap=horizon_cap)
        total_states += res.states
        candidates.append((j, res.value))
        better = res.value > best_value + value_tol
        tie_prefers = (
            abs(res.value - best_value) <= value_tol and j == j_presc
        )
        if better or tie_prefers or best_solve is None:
            best_value = max(res.value, best_value)
            best_j = j
            best_solve = res

    presc_inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=j_presc)
    presc_value = policy_value(
        presc_inst, lambda s: prescribed_action(presc_inst, s), horizon_cap
    )

    shape_match = (
        best_solve is not None
        and best_j == j_presc
        and _walk_policy_shape(best_solve)
    )

    rollout_mean = rollout_stderr = math.nan
    presc_mean = presc_stderr = math.nan
    welch = math.nan
    if games > 0 and best_solve is not None:
        rewards = rollout_rewards(
            best_solve.instance, best_solve.policy.__getitem__, games, child_best
        )
        rollout_mean = float(rewards.mean())
        rollout_stderr = float(rewards.std(ddof=1) / math.sqrt(games)) if games > 1 else 0.0
        presc_rewards = rollout_rewards(
            presc_inst, lambda s: prescribed_action(presc_inst, s), games, child_presc
        )
        presc_mean = float(presc_rewards.mean())
        presc_stderr = (
            float(presc_rewards.std(ddof=1) / math.sqrt(games)) if games > 1 else 0.0
        )
        denom = math.sqrt(rollout_stderr**2 + presc_stderr**2)
        welch = (rollout_mean - presc_mean) / denom if denom > 0 else 0.0

    if shape_match:
        classified = "prescribed"
    elif games > 0:
        classified = "prescribed" if abs(welch) < 3.0 else "non-prescribed"
    else:
        tol = value_tol * max(1.0, abs(presc_value))
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
    horizon_cap: int = DEFAULT_HORIZON_CAP,
) -> MinFactorResult:
    """Binary search (on the log scale) for the least factor at which
    prescribed play is classified as a best response; None when even the
    upper bound fails.

    Classification is assumed monotone in the factor; a post-hoc probe just
    below and at twice the found value reports violations instead of
    trusting the assumption.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    probes: list[tuple[float, str]] = []
    counter = [0]

    def classify(phi: float) -> bool:
        child = np.random.SeedSequence(
            entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + (counter[0],)
        )
        counter[0] += 1
        br = best_response(
            share, ell, phi, rho, games=games, seed=child, horizon_cap=horizon_cap
        )
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
