"""Independent oracles shared between the unit and acceptance suites.

These deliberately avoid the library's compressed state representations:
the game oracle runs exhaustive expectimax over explicit block trees, and
the race oracle is a plain dynamic program over step outcomes.  The
scheduler oracle selects an epoch's miners with one draw per step, as the
engine did before it drew its uniforms in batches, and the expected-weight
oracle sums every binomial term, as ``metrics`` did before it skipped the
terms that underflow to 0.0.  The token references settle an epoch, weigh
its blocks and total a game with the Fraction operators, one operation at
a time, for the chain module's exact integer arithmetic to match Fraction
for Fraction.  The scalar references at the end walk a compiled MDP graph
state by state, one float operation at a time, for the array-native
passes to match bit for bit, and the reference compile builds a game's
graph by a recursive depth-first search over the readable one-step model,
for the integer-coded compile to match array for array.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional

import numpy as np

from hebsim import mdp, metrics


def game_value(ell, share, phi, rho, alloc_j):
    """Exact value of the withholding game by brute force (ell <= 3)."""
    phi = Fraction(phi)
    balance = ell * share
    internal = 0.0 if rho == 0 else alloc_j * rho
    external = balance - internal
    cohort_ext = (1.0 - rho) * (ell - balance)
    alpha = external / (external + cohort_ext) if external + cohort_ext > 0 else 0.0
    att_quota = None if rho == 0 else alloc_j
    coh_quota = None if rho == 0 else math.floor(ell - balance + 1e-9)

    # block: (id, parent, party, factored); genesis (0, None, "g", False)
    GENESIS = (0, None, "g", False)

    def path(blocks, bid):
        by_id = {b[0]: b for b in blocks}
        out = []
        while bid is not None:
            out.append(by_id[bid])
            bid = by_id[bid][1]
        return list(reversed(out))

    def height(blocks, bid):
        return len(path(blocks, bid)) - 1

    def weight(blocks, bid):
        return sum(
            (phi if b[3] else Fraction(1))
            for b in path(blocks, bid)
            if b[1] is not None
        )

    def fac_count(blocks, bid, party):
        return sum(1 for b in path(blocks, bid) if b[2] == party and b[3])

    def published_tips(blocks, published):
        pub_heights = {bid: height(blocks, bid) for bid in published}
        top = max(pub_heights.values())
        parents = {b[1] for b in blocks if b[0] in published and b[1] in published}
        tips = [
            bid for bid in published if pub_heights[bid] == top and bid not in parents
        ]
        return sorted(tips), top

    def att_reward(blocks, tip):
        chain = [b for b in path(blocks, tip) if b[1] is not None]
        att_w = sum((phi if b[3] else Fraction(1)) for b in chain if b[2] == "att")
        tot_w = sum((phi if b[3] else Fraction(1)) for b in chain)
        return float(att_w / tot_w) * ell if tot_w else 0.0

    def resolve_end(blocks, published, att_tip):
        # forced publish when the attacker's chain is full length
        if height(blocks, att_tip) == ell:
            published = published | {b[0] for b in path(blocks, att_tip)}
        tips, top = published_tips(blocks, published)
        assert top == ell
        if len(tips) == 1:
            return att_reward(blocks, tips[0])
        weights = {t: weight(blocks, t) for t in tips}
        lightest = min(weights.values())
        cands = [t for t in tips if weights[t] == lightest]
        return sum(att_reward(blocks, t) for t in cands) / len(cands)

    memo = {}

    def value(blocks, published, att_tip, next_id):
        att_h = height(blocks, att_tip)
        _, pub_h = published_tips(blocks, published)
        if att_h == ell or pub_h == ell:
            return resolve_end(blocks, published, att_tip)
        key = (blocks, tuple(sorted(published)), att_tip)
        if key in memo:
            return memo[key]

        att_path = path(blocks, att_tip)
        att_ids = {b[0] for b in att_path}
        secret_part = [b for b in att_path if b[0] not in published]

        moves = [("wait", None), ("adopt", None)]
        for m in range(1, len(secret_part) + 1):
            moves.append(("publish", m))

        best = -math.inf
        for move, m in moves:
            nb, npub, ntip = blocks, published, att_tip
            if move == "adopt":
                # the cohort's chain always carries a cohort-created tip
                tips, _ = published_tips(nb, npub)
                cands = [
                    t
                    for t in tips
                    if t not in att_ids and path(nb, t)[-1][2] == "coh"
                ]
                if not cands:
                    continue
                cands.sort(key=lambda t: (weight(nb, t), t))
                ntip = cands[0]
            elif move == "publish":
                npub = npub | {b[0] for b in secret_part[:m]}
            for factored in (False, True):
                if factored and att_quota is not None:
                    if fac_count(nb, ntip, "att") >= att_quota:
                        continue
                ev = 0.0
                if alpha > 0:
                    new = (next_id, ntip, "att", factored)
                    ev += alpha * value(nb + (new,), npub, next_id, next_id + 1)
                if alpha < 1:
                    tips, _ = published_tips(nb, npub)
                    weights = {t: weight(nb, t) for t in tips}
                    lightest = min(weights.values())
                    cands = [t for t in tips if weights[t] == lightest]
                    for tip in cands:
                        ctype = (
                            coh_quota is None or fac_count(nb, tip, "coh") < coh_quota
                        )
                        new = (next_id, tip, "coh", ctype)
                        ev += (
                            (1 - alpha)
                            / len(cands)
                            * value(
                                nb + (new,), npub | {next_id}, ntip, next_id + 1
                            )
                        )
                best = max(best, ev)
        memo[key] = best
        return best

    return value((GENESIS,), frozenset({0}), 0, 1)


def race_probability(alpha: float, target: int) -> float:
    """P[the attacker accumulates `target` successes before `target`
    failures], by dynamic programming over step outcomes."""
    # state: (attacker blocks, cohort blocks) -> win probability
    win = [[0.0] * (target + 1) for _ in range(target + 1)]
    for a in range(target + 1):
        win[a][target] = 0.0
    for h in range(target + 1):
        win[target][h] = 1.0
    win[target][target] = 0.0  # unreachable: one side hits first
    for a in range(target - 1, -1, -1):
        for h in range(target - 1, -1, -1):
            win[a][h] = alpha * win[a + 1][h] + (1 - alpha) * win[a][h + 1]
    return win[0][0]


# -- scalar references over a compiled graph (hebsim.mdp._Graph) -------------


def leaf_reward(leaf, phi, ell):
    """The attacker's reward at one leaf (a row of ``_Graph.leaves``)."""
    winner, ar, af, cr, cf, sec_reg, sec_fac, pub_reg, pub_fac = leaf

    def reward(att_w, coh_w):
        total = att_w + coh_w
        if total <= 0.0:
            return 0.0
        return att_w / total * ell

    def wfloat(reg, fac):
        return reg + phi * fac

    att_est_w = wfloat(ar, af)
    coh_est_w = wfloat(cr, cf)
    win_sec = reward(att_est_w + wfloat(sec_reg, sec_fac), coh_est_w)
    win_pub = reward(att_est_w, coh_est_w + wfloat(pub_reg, pub_fac))
    if winner == 2:  # an exact tie splits the cohort
        return 0.5 * (win_sec + win_pub)
    return win_sec if winner == 0 else win_pub


def evaluate(g, phi, fixed=None):
    """Backward induction over a compiled graph, one state at a time,
    lowest level first, so that each state's successors are valued before
    it.  Returns every state's value and, per state in ``g.inner``, the
    index of its best action (the first whose value beats the best so far
    by more than 1e-15).  With ``fixed`` (state index -> action index) only
    those states are evaluated, each under its given action, and the
    choices follow the sorted state indices."""
    rewards = [leaf_reward(leaf, phi, g.ell) for leaf in g.leaves.tolist()]
    rewards.append(math.nan)  # leaf_of[i] == -1: not terminal, not yet evaluated
    val = list(map(rewards.__getitem__, g.leaf_of))
    act_lo, succ_lo, succ = g.act_lo, g.succ_lo, g.succ
    prob = g.probs[g.prob_of].tolist()
    if fixed is None:
        spans = {i: (act_lo[i], act_lo[i + 1]) for i in g.inner}
    else:
        spans = {i: (a, a + 1) for i, a in fixed.items()}
    choice = {}
    for i in sorted(spans, key=g.level.__getitem__):
        lo, hi = spans[i]
        best, best_a = -math.inf, lo
        for a in range(lo, hi):
            v = 0.0
            for e in range(succ_lo[a], succ_lo[a + 1]):
                v += prob[e] * val[succ[e]]
            if v > best + 1e-15:
                best, best_a = v, a
        val[i] = best
        choice[i] = best_a
    return val, [choice[i] for i in sorted(choice)]


def rollout(g, fixed, phi, games, rng, root=mdp._ROOT):
    """Play ``games`` epochs from state ``root`` under ``fixed`` (state
    index -> action index), one ``rng.random()`` per step: the first
    successor whose cumulative probability exceeds the draw, else the last.
    Returns the rewards and the number of draws."""
    leaf_of, succ_lo, succ = g.leaf_of, g.succ_lo, g.succ
    prob = g.probs[g.prob_of].tolist()
    rewards = np.empty(games, dtype=float)
    draws = 0
    for n in range(games):
        i = root
        while leaf_of[i] < 0:
            r = rng.random()
            draws += 1
            a = fixed[i]
            lo, hi = succ_lo[a], succ_lo[a + 1]
            i = succ[hi - 1]
            acc = 0.0
            for e in range(lo, hi):
                acc += prob[e]
                if r < acc:
                    i = succ[e]
                    break
        rewards[n] = leaf_reward(g.leaves[leaf_of[i]].tolist(), phi, g.ell)
    return rewards, draws


def scheduler(external_balances, sched_rng, steps):
    """The miners of ``steps`` scheduler steps, one ``sched_rng.random()``
    per step: the first miner in id order whose cumulative share of the
    external balance exceeds the draw, else the last."""
    ids = sorted(external_balances)
    total = sum(Fraction(external_balances[m]) for m in ids)
    cumulative = list(
        accumulate(float(Fraction(external_balances[m]) / total) for m in ids)
    )
    last = len(ids) - 1
    return [
        ids[min(bisect_right(cumulative, sched_rng.random()), last)]
        for _ in range(steps)
    ]


# -- token arithmetic by the Fraction operators (what chain's exact helpers replaced) --


def stats_from_counts(counts, factor):
    """Per-miner (block count, weight) from (miner, blocks, factored)
    counts, one Fraction operator at a time."""
    return {m: (n, n - f + factor * f if f else Fraction(n)) for m, n, f in counts if n}


def balance_fn(spec, stats, params, allocations, miner_ids):
    """``spec.balance_fn`` by the Fraction operators: the minted and
    redistributed amounts per miner and the users' payout."""
    by = 1 if spec.quota_mode == "factored" else 0
    zero = Fraction(0)
    contributed = sum(s[by] for s in stats.values())
    if contributed == 0:
        raise ArithmeticError("epoch carries zero total weight")
    mint_total = params.mint * spec.mint_scale * params.epoch_len
    kept = mint_total * (1 - params.rho) if spec.pool == "mint" else mint_total
    per_unit = kept / contributed
    absent = (0, zero)
    minted = {m: stats.get(m, absent)[by] * per_unit for m in miner_ids}
    if spec.pool == "none":
        return minted, dict.fromkeys(miner_ids, zero), zero
    internal_total = sum((allocations[m].internal for m in miner_ids), zero)
    pool = mint_total - kept if spec.pool == "mint" else internal_total
    per_holding = pool / (params.user_balance + internal_total)
    redistributed = {m: allocations[m].internal * per_holding for m in miner_ids}
    return minted, redistributed, params.user_balance * per_holding


def game_totals(params, miners, protocol, internal_of):
    """What ``engine.Game`` derives from ``miners``, by the operators: each
    miner's (internal, external) allocation with ``internal_of(miner)`` as
    its internal part, her quota limit, the selector's cumulative shares,
    and the internal, external and minted totals."""
    miners = sorted(miners, key=lambda m: m.id)
    allocs = {}
    for m in miners:
        internal = Fraction(internal_of(m))
        allocs[m.id] = (internal, m.balance - internal)
    limits = {
        m: None if params.rho == 0 else int(internal / (params.rho * params.mint))
        for m, (internal, _) in allocs.items()
    }
    external_total = sum((e for _, e in allocs.values()), Fraction(0))
    return {
        "allocations": allocs,
        "quota_limits": limits,
        "cumulative": list(
            accumulate(float(e / external_total) for _, e in allocs.values())
        ),
        "internal_total": sum((i for i, _ in allocs.values()), Fraction(0)),
        "external_total": external_total,
        "minted_total": params.epoch_len * (params.mint * protocol.mint_scale),
    }


def expected_weight(share, epoch_len, factor, allow_fractional=False):
    """E[accumulated weight] as ``metrics.expected_weight`` summed it before
    it skipped the terms that underflow: every term of the binomial, one
    ``binom_pmf`` and one ``conditional_weight`` call each."""
    terms = [
        metrics.binom_pmf(n, epoch_len, share)
        * metrics.conditional_weight(n, share, epoch_len, factor, allow_fractional)
        for n in range(epoch_len + 1)
    ]
    return math.fsum(terms)


# -- reference compile (the recursive exploration hebsim.mdp._compile replaced) --


@dataclass
class RefGraph:
    """A compiled graph as the reference compile lays it out: ``states`` in
    depth-first post-order, each state after all its successors and the
    initial state last, with the arrays of ``hebsim.mdp._Graph``."""

    ell: int
    states: list = field(default_factory=list)
    leaves: Optional[np.ndarray] = None  # int32, one row of 9 counts per leaf
    leaf_of: array = field(default_factory=lambda: array("i"))
    level: Optional[np.ndarray] = None  # intc
    inner: array = field(default_factory=lambda: array("i"))  # non-terminal states
    act_lo: array = field(default_factory=lambda: array("i", [0]))
    actions: list = field(default_factory=list)
    succ_lo: array = field(default_factory=lambda: array("i", [0]))
    succ: array = field(default_factory=lambda: array("i"))
    prob_of: Optional[np.ndarray] = None  # unsigned int, an index into probs
    probs: Optional[np.ndarray] = None


def compile_graph(inst):
    """Explore the state graph from the initial state, depth first, in the
    order of :func:`legal_actions` and :func:`successors`; each chain move
    is resolved once for both block types."""
    g = RefGraph(inst.ell)
    index = {}
    leaf_ids = {}
    action_ids = {}  # one object per distinct action
    prob = array("d")
    level = []

    def visit(state):  # a state not yet in ``index``
        leaf = mdp._leaf(inst, state)
        if leaf is None:
            acts = []
            branches = []
            ends = []
            for move, m, inter in mdp._chain_moves(inst, state):
                cohort = mdp._cohort_blocks(inst, inter)
                for kind in mdp._kinds(inst, inter):
                    acts.append((move, m, kind))
                    branches += mdp._attacker_block(inst, inter, kind)
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
        if i >= mdp.MAX_STATES:
            raise mdp.StateBudgetError(
                f"the game at ell={inst.ell} has more than {mdp.MAX_STATES:,} states "
                "(mdp.MAX_STATES)"
            )
        g.states.append(state)
        return i

    visit(mdp.initial_state())
    # visit refers to itself; unbinding it frees the exploration's tables now
    # rather than at the next cyclic garbage collection
    del visit
    g.leaves = np.array(list(leaf_ids), dtype=np.int32)
    g.level = np.array(level, dtype=np.intc)
    g.probs, codes = np.unique(np.frombuffer(prob), return_inverse=True)
    # two more codes stand for 0.0 and 1.0 in _plan
    g.prob_of = codes.astype(np.min_scalar_type(len(g.probs) + 1))
    return g


def keys_by_product(rows, sec, layout):
    """``mdp._keys`` as it was first written: each word's row columns
    gathered into one matrix and multiplied by their weights ``2**offset``
    as int64 (which wraps to the same bits), then the type words ORed in."""
    words = []
    for cols, secs in layout:
        weights = np.array([1 << int(at) for _c, at in cols], np.uint64).view(np.int64)
        key = (rows[:, [c for c, _at in cols]] @ weights).view(np.uint64)
        for k, at in secs:
            key |= sec[:, k] << at
        words.append(key)
    if len(words) == 1:
        return words[0]
    fields = [(f"w{w}", np.uint64) for w in reversed(range(len(words)))]
    return np.stack(words[::-1], axis=1).view(fields)[:, 0]
