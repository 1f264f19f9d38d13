import hashlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import game_value

from hebsim import mdp
from hebsim.mdp import (
    ADOPT,
    MdpInstance,
    PUBLISH,
    StateBudgetError,
    WAIT,
    best_response,
    initial_state,
    legal_actions,
    min_factor,
    policy_value,
    prescribed_action,
    rollout_rewards,
    solve,
    successors,
    terminal_value,
)

F, R = True, False


class TestInstance:
    def test_alpha_decreases_with_allocation(self):
        alphas = [
            MdpInstance(ell=10, share=0.3, phi=20.0, rho=0.5, alloc=j).alpha
            for j in range(0, 7)
        ]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_alpha_prescribed_equals_share(self):
        # integral balance, full prescribed commitment: alpha == share
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=2)
        assert inst.alpha == pytest.approx(0.2)

    def test_quotas(self):
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=2)
        assert inst.attacker_quota == 2
        assert inst.cohort_quota == 8
        free = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.0)
        assert free.attacker_quota is None
        assert free.cohort_quota is None

    def test_alloc_bounds(self):
        with pytest.raises(ValueError):
            MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=5)
        with pytest.raises(ValueError):
            MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5)

    @pytest.mark.parametrize("ell", [2.5, 3.0])
    def test_non_integer_ell_rejected(self, ell):
        # a fractional ell leaves the graph without terminal states
        with pytest.raises(ValueError, match="ell"):
            MdpInstance(ell=ell, share=0.2, phi=2.0, rho=0.0)

    def test_alloc_slack_keeps_probabilities_in_unit_interval(self):
        # the alloc bound's 1e-9 slack admits an internal spend just above
        # the balance; the external part clamps at zero
        inst = MdpInstance(ell=3, share=1 / 3 - 1e-12, phi=2.0, rho=0.5, alloc=2)
        assert inst.external == 0.0
        assert inst.alpha == 0.0
        state = initial_state()
        for action in legal_actions(inst, state):
            probs = [p for p, _ in successors(inst, state, action)]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert math.fsum(probs) == 1.0

    @pytest.mark.parametrize("phi", [math.inf, math.nan])
    def test_non_finite_factor_rejected(self, phi):
        # an infinite factor made terminal rewards inf * 0 = nan, so solve
        # returned -inf and best_response classified the point "prescribed"
        with pytest.raises(ValueError, match="phi"):
            MdpInstance(ell=3, share=0.2, phi=phi, rho=0.5, alloc=0)
        with pytest.raises(ValueError, match="phi"):
            best_response(0.2, 3, phi, 0.5, games=0)


class TestTransitions:
    def test_wait_then_create(self):
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=2)
        assert inst.alpha == pytest.approx(0.2)
        succ = successors(inst, initial_state(), (WAIT, 0, True))
        assert len(succ) == 2
        probs = {s[4:6]: p for p, s in succ}
        assert probs[((F,), ())] == pytest.approx(0.2)  # attacker secret [F]
        assert probs[((), (F,))] == pytest.approx(0.8)  # cohort public [F]

    def test_publish_regular_against_factored_tip(self):
        # equal-length fork: the attacker's regular tip is lighter, so the
        # cohort deterministically extends it
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=2)
        state = (0, 0, 0, 0, (R,), (F,), False)
        succ = successors(inst, state, (PUBLISH, 1, False))
        cohort_branches = [
            (p, s) for p, s in succ if s[:4] != state[:4] or s[5] != (F,)
        ]
        # with prob 1-alpha the cohort lands on the attacker's tip: her
        # regular block moves to the established prefix
        merged = [(p, s) for p, s in succ if s[0] == 1]
        assert len(merged) == 1
        p, s = merged[0]
        assert p == pytest.approx(0.8)
        assert s[5] == (F,)  # fresh cohort block on top of her tip
        assert s[4] == ()

    def test_lead_stubborn_fork(self):
        # secret [F, R] with lead 2 over public [F]: publishing the first
        # factored block creates an exact-weight tie, splitting the cohort
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=2)
        state = (0, 0, 0, 0, (F, R), (F,), False)
        succ = successors(inst, state, (PUBLISH, 1, False))
        fork_states = [(p, s) for p, s in succ if s[6]]
        assert fork_states  # attacker branch keeps the fork alive
        cohort_halves = [
            (p, s) for p, s in succ if not s[6] and p == pytest.approx(0.4)
        ]
        assert len(cohort_halves) == 2

    def test_equal_publish_requires_no_existing_fork(self):
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=2)
        state = (0, 0, 0, 0, (F, R), (F,), True)
        moves = [a[:2] for a in legal_actions(inst, state)]
        assert (PUBLISH, 1) not in moves
        assert (PUBLISH, 2) in moves

    def test_factored_requires_quota(self):
        inst = MdpInstance(ell=10, share=0.2, phi=20.0, rho=0.5, alloc=1)
        state = (0, 1, 0, 0, (), (), False)  # one factored already established
        kinds = {a[2] for a in legal_actions(inst, state)}
        assert kinds == {False}

    def test_terminal_simple(self):
        inst = MdpInstance(ell=2, share=0.5, phi=1.0, rho=0.0)
        # public chain reached ell: attacker earns her established share
        state = (1, 0, 0, 0, (), (R,), False)
        assert terminal_value(inst, state) == pytest.approx(1.0)
        # secret chain reached ell: attacker takes everything
        state = (0, 0, 0, 0, (R, R), (), False)
        assert terminal_value(inst, state) == pytest.approx(2.0)
        assert terminal_value(inst, (0, 0, 0, 0, (R,), (), False)) is None

    def test_terminal_tie_adjudication(self):
        inst = MdpInstance(ell=2, share=0.5, phi=1.0, rho=0.0)
        # both chains full, equal weight: half chance each
        state = (0, 0, 0, 0, (R, R), (R, R), False)
        assert terminal_value(inst, state) == pytest.approx(0.5 * 2.0 + 0.5 * 0.0)

    def test_terminal_tie_weight_break(self):
        inst = MdpInstance(ell=2, share=0.5, phi=20.0, rho=0.5, alloc=1)
        # attacker chain lighter (regular,regular) vs cohort (factored,regular)
        state = (0, 0, 0, 0, (R, R), (F, R), False)
        assert terminal_value(inst, state) == pytest.approx(2.0)

    def test_compression_is_order_insensitive(self):
        # publishing F-then-R or R-then-F lands in the same compressed state
        inst = MdpInstance(ell=6, share=0.5, phi=20.0, rho=0.5, alloc=3)

        def drive(first, second):
            state = initial_state()
            for kind in (first, second):
                # attacker creates `kind`, then publishes it (takeover)
                succ = successors(inst, state, (WAIT, 0, kind))
                state = next(s for p, s in succ if len(s[4]) == 1)
                succ = successors(inst, state, (PUBLISH, 1, False))
                state = next(s for p, s in succ if len(s[4]) == 1 and not s[6])
                state = state[:4] + ((), state[5][:-1], state[6])  # drop the probe block
            return state[:4]

        assert drive(True, False) == drive(False, True)


class TestSolve:
    def test_zero_share_zero_value(self):
        inst = MdpInstance(ell=6, share=0.0, phi=20.0, rho=0.5, alloc=0)
        assert solve(inst).value == 0.0

    def test_selfish_mining_thresholds(self):
        # uniform tie-breaking race: deviations gain nothing at share 0.1,
        # strictly gain at 0.3+
        for ell in (8, 10):
            low = MdpInstance(ell=ell, share=0.1, phi=1.0, rho=0.0)
            res = solve(low)
            presc = policy_value(low, lambda s: prescribed_action(low, s))
            assert res.value == pytest.approx(ell * 0.1, abs=1e-9)
            assert abs(res.value - presc) < 1e-9
            high = MdpInstance(ell=ell, share=0.35, phi=1.0, rho=0.0)
            res_h = solve(high)
            presc_h = policy_value(high, lambda s: prescribed_action(high, s))
            assert res_h.value > presc_h + 0.1

    def test_ell14_pure_race_fits_the_state_budget(self):
        assert solve(MdpInstance(ell=14, share=0.2, phi=1.0, rho=0.0)).states == 7036

    def test_exhaustive_oracle_ell2(self):
        cases = [
            (0.5, 1.0, 0.0, None),
            (0.3, 20.0, 0.5, 0),
            (0.3, 20.0, 0.5, 1),
            (0.6, 3.0, 0.25, 0),
            (0.6, 3.0, 0.25, 2),
            (0.9, 2.0, 0.5, 1),
        ]
        for share, phi, rho, j in cases:
            inst = MdpInstance(ell=2, share=share, phi=phi, rho=rho, alloc=j)
            got = solve(inst).value
            want = game_value(2, share, phi, rho, j)
            assert got == pytest.approx(want, abs=1e-12), (share, phi, rho, j)

    def test_exhaustive_oracle_ell3(self):
        for share, phi, rho, j in [(0.4, 5.0, 0.5, 1), (0.25, 1.0, 0.0, None)]:
            inst = MdpInstance(ell=3, share=share, phi=phi, rho=rho, alloc=j)
            got = solve(inst).value
            want = game_value(3, share, phi, rho, j)
            assert got == pytest.approx(want, abs=1e-12), (share, phi, rho, j)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_small_instances_match_oracle(self, data):
        ell = data.draw(st.integers(1, 3), "ell")
        share = data.draw(st.floats(0.0, 1.0), "share")
        # 1 + 1e-9 exercises the tie edge: weights differ, but barely
        phi = data.draw(
            st.sampled_from([1.0, 1.0 + 1e-9]) | st.floats(1.0, 50.0), "phi"
        )
        rho = data.draw(st.just(0.0) | st.floats(0.0, 0.95), "rho")
        j = None
        if rho > 0.0:
            j = data.draw(st.integers(0, math.floor(ell * share / rho + 1e-9)), "j")
        inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=j)
        res = solve(inst)
        assert res.value == pytest.approx(
            game_value(ell, share, phi, rho, j), abs=1e-12
        )
        assert policy_value(inst, res.policy.__getitem__) == res.value


class TestRollouts:
    def test_solver_matches_rollout_mean(self):
        inst = MdpInstance(ell=6, share=0.2, phi=5.0, rho=0.5, alloc=1)
        res = solve(inst)
        pol = res.policy

        def policy_fn(state):
            return pol.get(state) or prescribed_action(inst, state)

        rewards = rollout_rewards(inst, policy_fn, 10_000, seed=3)
        se = rewards.std(ddof=1) / math.sqrt(len(rewards))
        assert abs(rewards.mean() - res.value) < 3 * se

    def test_prescribed_rollout_matches_value(self):
        inst = MdpInstance(ell=6, share=0.3, phi=20.0, rho=0.5, alloc=1)
        value = policy_value(inst, lambda s: prescribed_action(inst, s))
        rewards = rollout_rewards(
            inst, lambda s: prescribed_action(inst, s), 10_000, seed=4
        )
        se = rewards.std(ddof=1) / math.sqrt(len(rewards))
        assert abs(rewards.mean() - value) < 3 * se

    def test_rollouts_deterministic(self):
        inst = MdpInstance(ell=4, share=0.3, phi=2.0, rho=0.5, alloc=1)
        a = rollout_rewards(inst, lambda s: prescribed_action(inst, s), 100, seed=5)
        b = rollout_rewards(inst, lambda s: prescribed_action(inst, s), 100, seed=5)
        assert np.array_equal(a, b)

    def test_graph_cache_leaves_rollouts_unchanged(self):
        graphs: dict = {}
        for phi in (1.0, 20.0):  # the second factor reuses the first's graph
            inst = MdpInstance(ell=5, share=0.3, phi=phi, rho=0.0)
            pol = solve(inst, graphs=graphs).policy
            cached = rollout_rewards(inst, pol.__getitem__, 300, seed=6, graphs=graphs)
            fresh = rollout_rewards(inst, pol.__getitem__, 300, seed=6)
            assert np.array_equal(cached, fresh)
        assert len(graphs) == 2

    def test_rollout_rejects_illegal_action(self):
        inst = MdpInstance(ell=4, share=0.3, phi=2.0, rho=0.5, alloc=0)
        with pytest.raises(ValueError, match="invalid"):
            rollout_rewards(inst, lambda s: (WAIT, 0, True), 10, seed=0)


class TestBestResponse:
    def test_prescribed_for_small_share(self):
        br = best_response(0.1, 8, 1.0, 0.0, games=500, seed=11)
        assert br.is_prescribed
        assert br.prescribed_shape
        assert br.value == pytest.approx(br.prescribed_value, abs=1e-9)

    def test_non_prescribed_for_large_share(self):
        br = best_response(0.4, 8, 1.0, 0.0, games=3000, seed=12)
        assert not br.is_prescribed
        assert br.value > br.prescribed_value + 0.5

    def test_games_zero_uses_exact_values(self):
        br = best_response(0.35, 8, 1.0, 0.0, games=0, seed=0)
        assert not br.is_prescribed
        assert math.isnan(br.rollout_mean)

    @pytest.mark.parametrize("games", [1, -4])
    def test_games_without_stderr_rejected(self, games):
        # one game has no standard error: welch_z read 0 and every point
        # classified "prescribed", whatever the exact gain
        with pytest.raises(ValueError, match="games"):
            best_response(0.4, 6, 1.0, 0.0, games=games)

    def test_enumerates_allocations(self):
        br = best_response(0.2, 6, 20.0, 0.5, games=0, seed=0)
        assert [j for j, _ in br.candidates] == [0, 1, 2]
        assert br.prescribed_j == 1

    def test_deterministic(self):
        a = best_response(0.2, 6, 20.0, 0.5, games=400, seed=21)
        b = best_response(0.2, 6, 20.0, 0.5, games=400, seed=21)
        assert a.rollout_mean == b.rollout_mean
        assert a.welch_z == b.welch_z
        assert a.classified == b.classified


class TestMinFactor:
    @pytest.mark.parametrize(
        "bracket",
        [
            {"rel_tol": -0.1},
            {"rel_tol": 0.0},
            {"phi_lo": 0.5},
            {"phi_lo": 1e9},  # above the default phi_hi
            {"phi_lo": 50.0, "phi_hi": 2.0},
            {"phi_hi": math.inf},
        ],
    )
    def test_invalid_bracket_rejected_before_probing(self, bracket, monkeypatch):
        # a negative rel_tol or an infinite phi_hi never ends the bisection;
        # a probe here could hang
        def no_probe(*args, **kwargs):
            raise AssertionError("min_factor probed an invalid bracket")

        monkeypatch.setattr(mdp, "best_response", no_probe)
        with pytest.raises(ValueError):
            min_factor(0.2, 0.5, 5, games=200, seed=0, **bracket)

    def test_finite_for_small_share(self):
        res = min_factor(0.2, 0.5, 6, games=300, seed=31, rel_tol=0.1)
        assert res.phi_min is not None
        assert 1.0 <= res.phi_min <= 1e8

    def test_none_for_large_share(self):
        res = min_factor(0.3, 0.0, 6, games=4000, seed=32, rel_tol=0.1)
        assert res.phi_min is None

    def test_probe_log_records_classifications(self):
        res = min_factor(0.2, 0.5, 6, games=300, seed=33, rel_tol=0.2)
        assert all(cls in ("prescribed", "non-prescribed") for _, cls in res.probes)


def _solver_digest(ells) -> tuple[int, str]:
    """sha256 over, per instance: the optimal value, the state count, the
    sorted policy, the state values in insertion order and the prescribed
    policy's value, floats as hex.  Instances: share 0.2 and 0.35, phi 1,
    1 + 1e-9, 1.5, 5 and 20, rho 0 and 0.5, every allocation."""
    h = hashlib.sha256()
    n = 0
    for ell in ells:
        for share in (0.2, 0.35):
            for phi in (1.0, 1.0 + 1e-9, 1.5, 5.0, 20.0):
                for rho in (0.0, 0.5):
                    allocs = (
                        [None] if rho == 0.0
                        else range(math.floor(ell * share / rho + 1e-9) + 1)
                    )
                    for alloc in allocs:
                        inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=alloc)
                        res = solve(inst)
                        presc = policy_value(inst, lambda s: prescribed_action(inst, s))
                        record = (
                            res.value.hex(),
                            res.states,
                            sorted(res.policy.items()),
                            [(s, v.hex()) for s, v in res.state_values.items()],
                            presc.hex(),
                        )
                        h.update(repr(record).encode())
                        n += 1
    return n, h.hexdigest()


class TestGolden:
    def test_solver_outputs_frozen(self):
        # the prefix-publishing instances of the earlier sweep over both
        # publish modes, computed by the code before the publish-all mode
        # was removed (which also reproduced that sweep's pin, 280
        # instances, 594f50be...).  The earlier pin traces back to the
        # memoised recursive induction that the compiled graphs replaced:
        # values, policies, tie order and the states' discovery order are
        # bit-identical.  The same sweep over ell 2-7 (240 instances) gives
        # 5b5ac218e2fc62937cb148e3fecab9679f1d3677f7d24f4ca46123613d1b09c4
        assert _solver_digest(range(2, 6)) == (
            140,
            "a5ef6d63caddcf2a2a62019fec99a69d36fe0d4e6e5567596c3e47188a7c6469",
        )


def _best_response_digest() -> tuple[int, int, str]:
    """sha256 over, per point: the classification, j*, the exact optimal
    and prescribed values, both rollout means and the Welch z (floats as
    hex) and the shape flag.  Points: ell 3-5, share 0.1, 0.2 and 0.35, phi
    1, 5 and 20, rho 0 and 0.5, 200 games seeded by ell.  Also returns how
    many points matched the prescribed shape."""
    h = hashlib.sha256()
    n = shapes = 0
    for ell in (3, 4, 5):
        for share in (0.1, 0.2, 0.35):
            for phi in (1.0, 5.0, 20.0):
                for rho in (0.0, 0.5):
                    br = best_response(share, ell, phi, rho, games=200, seed=ell)
                    record = (
                        br.classified,
                        br.j_star,
                        br.value.hex(),
                        br.prescribed_value.hex(),
                        br.rollout_mean.hex(),
                        br.prescribed_rollout_mean.hex(),
                        br.welch_z.hex(),
                        br.prescribed_shape,
                    )
                    h.update(repr(record).encode())
                    n += 1
                    shapes += br.prescribed_shape
    return n, shapes, h.hexdigest()


class TestBestResponseGolden:
    def test_best_response_outputs_frozen(self):
        # computed when rollouts stepped through successors/terminal_value
        # and the shape check re-walked the optimal policy state by state;
        # pins the rollout RNG use and both shape outcomes
        assert _best_response_digest() == (
            54,
            19,
            "ad9a242b169a2a007078d7d4f44f27f9a8073e821b9c99924a1ac73e5a125206",
        )


class TestGraphCache:
    def test_shared_cache_matches_fresh_solves(self):
        # phi == 1 compiles its own graph: ties split evenly, and at rho 0
        # block types collapse
        graphs: dict = {}
        for phi in (1.0, 1.0 + 1e-9, 20.0):
            for rho, allocs in ((0.0, [None]), (0.5, [0, 1, 2])):
                for alloc in allocs:
                    inst = MdpInstance(ell=6, share=0.2, phi=phi, rho=rho, alloc=alloc)
                    cached, fresh = solve(inst, graphs=graphs), solve(inst)
                    assert cached.value == fresh.value
                    assert cached.states == fresh.states
                    assert cached.policy == fresh.policy
                    assert list(cached.state_values.items()) == list(
                        fresh.state_values.items()
                    )

                    def presc(s, inst=inst):
                        return prescribed_action(inst, s)

                    assert policy_value(inst, presc, graphs=graphs) == policy_value(
                        inst, presc
                    )
        assert len(graphs) == 2 * 2  # (phi == 1) x rho: one graph per family of allocations

    def test_each_pass_and_prescribed_plan_is_built_once(self, monkeypatch):
        # one backward pass per factor serves every allocation's solve, and
        # the prescribed policy's plan is built once per allocation
        passes, plans = [], []
        evaluate, plan = mdp._evaluate, mdp._plan
        monkeypatch.setattr(
            mdp, "_evaluate", lambda g, phi, p: passes.append(phi) or evaluate(g, phi, p)
        )
        monkeypatch.setattr(
            mdp, "_plan", lambda g, rows, *a: plans.append(len(rows)) or plan(g, rows, *a)
        )
        graphs: dict = {}
        for phi in (5.0, 20.0):
            br = best_response(0.2, 6, phi, 0.5, games=0, graphs=graphs)
            assert [j for j, _ in br.candidates] == [0, 1, 2]
            assert passes.count(phi) == 2  # the solves, and the prescribed value
        assert len(plans) == 2  # the maximising plan and the prescribed one
        for j in (0, 1, 2):
            inst = MdpInstance(ell=6, share=0.2, phi=20.0, rho=0.5, alloc=j)
            want = policy_value(inst, mdp.PRESCRIBED)
            assert policy_value(inst, mdp.PRESCRIBED, graphs).hex() == want.hex()
        assert len(plans) == 2 + 2 + 3  # two more roots, and one fresh graph each

    @pytest.mark.parametrize(
        "action",
        [
            (ADOPT, 0, False),  # no public chain to adopt
            (WAIT, 0, True),  # no factored quota at alloc 0
        ],
    )
    def test_policy_value_rejects_illegal_action(self, action):
        inst = MdpInstance(ell=4, share=0.3, phi=2.0, rho=0.5, alloc=0)
        assert action not in legal_actions(inst, initial_state())
        with pytest.raises(ValueError, match="invalid"):
            policy_value(inst, lambda s: action)


class TestStateBudget:
    """``mdp.MAX_STATES`` bounds every compiled graph, whichever entry
    point compiles it."""

    INST = MdpInstance(ell=8, share=0.2, phi=20.0, rho=0.0)

    @pytest.mark.parametrize(
        "run",
        [
            lambda inst: solve(inst),
            lambda inst: policy_value(inst, partial(prescribed_action, inst)),
            lambda inst: rollout_rewards(inst, partial(prescribed_action, inst), 10, 0),
            lambda inst: best_response(inst.share, inst.ell, inst.phi, inst.rho, games=0),
        ],
        ids=["solve", "policy_value", "rollout_rewards", "best_response"],
    )
    def test_every_entry_point_stops_at_the_budget(self, run, monkeypatch):
        monkeypatch.setattr(mdp, "MAX_STATES", 1000)
        with pytest.raises(StateBudgetError, match="ell=8"):
            run(self.INST)

    def test_budget_admits_exactly_max_states(self, monkeypatch):
        inst = MdpInstance(ell=4, share=0.3, phi=2.0, rho=0.5, alloc=1)
        n = solve(inst).states
        monkeypatch.setattr(mdp, "MAX_STATES", n)
        assert solve(inst).states == n
        monkeypatch.setattr(mdp, "MAX_STATES", n - 1)
        with pytest.raises(StateBudgetError):
            solve(inst)


class TestFamilyBudget:
    """A cached graph compiles every allocation of a game, and
    ``mdp.MAX_STATES`` still bounds each allocation's game, not their sum."""

    # nine allocations of 358 to 5,273 states
    INST = MdpInstance(ell=6, share=0.35, phi=20.0, rho=0.25, alloc=0)

    def test_allocations_that_each_fit_compile_together(self, monkeypatch):
        sizes = mdp._graph(self.INST, {}).sizes
        monkeypatch.setattr(mdp, "MAX_STATES", int(sizes.max()))
        assert sizes.sum() > mdp.MAX_STATES
        assert mdp._graph(self.INST, {}).sizes.tolist() == sizes.tolist()
        best_response(self.INST.share, self.INST.ell, 20.0, self.INST.rho, games=0)

    def test_an_allocation_past_the_budget_stops_before_its_crossing_frontier(
        self, monkeypatch
    ):
        sizes = mdp._graph(self.INST, {}).sizes
        big = int(np.argmax(sizes))  # the first allocation of the most states
        budget = int(sizes[big]) - 1
        expanded = np.zeros(len(sizes), np.intp)
        expand = mdp._expand

        def counted(fam, rows, sec):
            expanded[:] += np.bincount(rows[:, mdp._AL], minlength=len(sizes))
            return expand(fam, rows, sec)

        monkeypatch.setattr(mdp, "_expand", counted)
        monkeypatch.setattr(mdp, "MAX_STATES", budget)
        with pytest.raises(StateBudgetError, match=f"ell=6, alloc={big} has more than"):
            mdp._graph(self.INST, {})
        assert 0 < expanded[big] <= budget
        with pytest.raises(StateBudgetError, match=f"ell=6, alloc={big} "):
            best_response(self.INST.share, self.INST.ell, 20.0, self.INST.rho, games=0)


def _policy_actions(g, policy, root=mdp._ROOT) -> dict[int, int]:
    """``mdp._fixed_arrays`` as a map from state index to action index."""
    return dict(zip(*(a.tolist() for a in mdp._fixed_arrays(g, policy, root))))


class TestArrayPasses:
    """The level-by-level evaluation and the batched-draw rollouts against
    the scalar loops in ``oracles``: bit for bit."""

    @staticmethod
    def _hex(values):
        return [v.hex() for v in np.asarray(values).tolist()]

    @pytest.mark.parametrize(
        "ell, rho, alloc, phi",
        [(8, 0.0, None, 20.0)]
        + [(8, 0.5, j, phi) for j in range(4) for phi in (1.0, 20.0)]
        + [(10, 0.5, 2, 20.0)],
    )
    def test_level_pass_matches_scalar_loop(self, ell, rho, alloc, phi):
        inst = MdpInstance(ell=ell, share=0.2, phi=phi, rho=rho, alloc=alloc)
        graphs: dict = {}
        res = solve(inst, graphs)
        g = mdp._graph(inst, graphs)
        root = mdp._root(g, inst)
        inner = np.frombuffer(g.inner, np.intc)
        values, choices = oracles.evaluate(g, phi)
        assert self._hex(res._values) == self._hex(values)
        assert res._choices[inner].tolist() == choices

        for policy in (res, partial(prescribed_action, inst)):
            fixed = _policy_actions(g, policy, root)
            rows, acts = mdp._fixed_arrays(g, policy, root)
            got, got_choices = mdp._evaluate(g, phi, mdp._plan(g, rows, acts, np.ones_like(acts)))
            values, choices = oracles.evaluate(g, phi, fixed)
            assert self._hex(got) == self._hex(values)
            assert got_choices[sorted(fixed)].tolist() == choices
            assert policy_value(inst, policy, graphs).hex() == values[root].hex()

        # every inner state sits above each of its successors
        act_lo, succ_lo = (np.frombuffer(a, np.intc) for a in (g.act_lo, g.succ_lo))
        source = np.repeat(np.arange(len(g.leaf_of)), np.diff(act_lo))[
            np.repeat(np.arange(len(g.act)), np.diff(succ_lo))
        ]
        assert (g.level[source] > g.level[np.frombuffer(g.succ, np.intc)]).all()
        assert (g.level[np.frombuffer(g.leaf_of, np.intc) >= 0] == 0).all()

    def test_batched_draws_match_one_draw_per_step(self):
        inst = MdpInstance(ell=8, share=0.2, phi=20.0, rho=0.5, alloc=1)
        graphs: dict = {}
        res = solve(inst, graphs)
        g = mdp._graph(inst, graphs)
        root = mdp._root(g, inst)
        for policy in (res, partial(prescribed_action, inst)):
            got = rollout_rewards(inst, policy, 5000, seed=7, graphs=graphs)
            want, draws = oracles.rollout(
                g, _policy_actions(g, policy, root), inst.phi, 5000, np.random.default_rng(7),
                root,
            )
            assert draws > 5 * mdp._DRAWS  # the draw buffer refills mid-game
            assert self._hex(got) == self._hex(want)


def _golden_graphs(ell):
    """One instance per distinct graph of TestGolden's sweep at one ell:
    a graph depends on the factor only through whether it is 1."""
    for share in (0.2, 0.35):
        for phi in (1.0, 1.0 + 1e-9):
            for rho in (0.0, 0.5):
                allocs = [None] if rho == 0.0 else range(math.floor(ell * share / rho + 1e-9) + 1)
                for alloc in allocs:
                    yield MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=alloc)


class TestIntegerCompile:
    """The frontier-by-frontier numpy compile against the recursive
    reference in ``oracles`` and against the one-step model."""

    # 17-bit secret masks in one-word keys, after seven 5-bit counts
    WIDE = MdpInstance(ell=17, share=0.9, phi=20.0, rho=0.5, alloc=0)
    # keys of two words: 30-bit secret masks after seven 5-bit counts
    TWO_WORDS = MdpInstance(ell=30, share=1.0, phi=20.0, rho=0.5, alloc=1)

    @pytest.mark.parametrize(
        "insts, chunk",
        [(list(_golden_graphs(ell)), mdp._CHUNK) for ell in range(2, 6)]
        + [([WIDE], mdp._CHUNK), ([TWO_WORDS], mdp._CHUNK)]
        # frontiers of many chunks: edges into the next frontier and into
        # numbered ones cross chunk boundaries
        + [(list(_golden_graphs(5))[1::4], 7), ([TWO_WORDS], 7)],
        ids=[f"ell{ell}" for ell in range(2, 6)]
        + ["ell17-wide", "ell30-two-words", "ell5-chunk7", "ell30-two-words-chunk7"],
    )
    def test_matches_reference_compile(self, insts, chunk, monkeypatch):
        monkeypatch.setattr(mdp, "_CHUNK", chunk)
        for inst in insts:
            want = oracles.compile_graph(inst)
            g = mdp._compile(inst)
            # the reference's order is the depth-first post-order
            post = mdp._post_order(g)
            rank = np.empty(len(post), np.intp)
            rank[post] = np.arange(len(post))
            acts = mdp._ranges(g.act_lo[post], np.diff(g.act_lo)[post])
            edges = mdp._ranges(g.succ_lo[acts], np.diff(g.succ_lo)[acts])
            assert mdp._decode_states(g, post) == want.states, inst
            assert list(map(mdp._decode_action, g.act[acts].tolist())) == want.actions
            assert np.diff(g.act_lo)[post].tolist() == np.diff(want.act_lo).tolist()
            assert np.diff(g.succ_lo)[acts].tolist() == np.diff(want.succ_lo).tolist()
            assert rank[g.succ[edges]].tolist() == want.succ.tolist()
            assert g.probs.tolist() == want.probs.tolist()
            assert g.prob_of.dtype == want.prob_of.dtype
            assert g.prob_of[edges].tolist() == want.prob_of.tolist()
            assert g.level[post].tolist() == want.level.tolist()
            leaf_of, want_leaf_of = g.leaf_of[post], np.asarray(want.leaf_of)
            assert (leaf_of < 0).tolist() == (want_leaf_of < 0).tolist()
            leaves = g.leaves[leaf_of[leaf_of >= 0]]
            assert leaves.tolist() == want.leaves[want_leaf_of[want_leaf_of >= 0]].tolist()
            # one row per distinct leaf, as the reference numbers them
            assert len(g.leaves) == len(want.leaves)
            # the depth-first post-order ends at the initial state
            assert post[-1] == mdp._ROOT

    @pytest.mark.parametrize(
        "inst",
        list(_golden_graphs(5))[::6] + [WIDE],
        ids=["ell5-rho0", "ell5-rho0.5-alloc1", "ell5-rho0.5-alloc3", "ell17-wide"],
    )
    def test_states_numbered_frontier_by_frontier(self, inst):
        g = mdp._compile(inst)
        assert mdp._decode_states(g, [mdp._ROOT]) == [mdp.initial_state()]
        # the blocks a state holds: established and both extensions
        blocks = g.rows[:, : mdp._PF].sum(axis=1, dtype=np.intp)
        assert (np.diff(blocks) >= 0).all() and blocks[-1] > 0

    @pytest.mark.parametrize(
        "inst",
        [
            MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=alloc)
            for ell in (1, 3, 5)
            for share, phi, rho, alloc in (
                (0.35, 20.0, 0.0, None),
                (0.35, 1.0, 0.0, None),
                (0.6, 20.0, 0.5, 1),
                (0.6, 1.0, 0.5, 0),
            )
        ],
        ids=lambda inst: f"ell{inst.ell}-phi{inst.phi:g}-rho{inst.rho:g}-prefix",
    )
    def test_compiled_graph_follows_the_one_step_model(self, inst):
        g = mdp._compile(inst)
        states = mdp._decode_states(g, np.arange(len(g.leaf_of)))
        actions = list(map(mdp._decode_action, g.act.tolist()))
        probs = g.probs[g.prob_of].tolist()
        rewards = mdp._leaf_rewards(g.leaves, inst.phi, inst.ell).tolist()
        act_lo, succ_lo, succ = g.act_lo.tolist(), g.succ_lo.tolist(), g.succ.tolist()
        for i, state in enumerate(states):
            if g.leaf_of[i] >= 0:
                assert rewards[g.leaf_of[i]] == terminal_value(inst, state)
                continue
            assert terminal_value(inst, state) is None
            assert actions[act_lo[i] : act_lo[i + 1]] == legal_actions(inst, state)
            for a in range(act_lo[i], act_lo[i + 1]):
                edges = range(succ_lo[a], succ_lo[a + 1])
                got = [(probs[e], states[succ[e]]) for e in edges]
                assert got == successors(inst, state, actions[a])

    @pytest.mark.parametrize("ells, words", [((1, 20), 1), ((30, 45), 2)], ids=["one", "two"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_keys_match_the_product_form(self, ells, words, data):
        # keys ORed together column by column are bit for bit the keys of a
        # product of the widened columns with their weights
        ell = data.draw(st.integers(*ells), label="ell")
        nalloc = data.draw(st.integers(1, 40), label="allocations")
        n = data.draw(st.integers(0, 30), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        row_bits = [ell.bit_length()] * mdp._FORK + [1, (nalloc - 1).bit_length()]
        sec_bits = [min(64, ell - 64 * k) for k in range(-(-ell // 64))]
        layout = mdp._key_layout(row_bits, sec_bits)
        assert len(layout) == words
        rows = np.array([rng.integers(0, 1 << b, n) for b in row_bits], np.int16).T
        sec = np.array(
            [rng.integers(0, 2**b - 1, n, np.uint64, endpoint=True) for b in sec_bits]
        ).T.reshape(n, len(sec_bits))
        got, want = mdp._keys(rows, sec, layout), oracles.keys_by_product(rows, sec, layout)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_secret_masks_span_words(self):
        # an extension longer than 64 blocks spans words: against Python ints
        rng = np.random.default_rng(0)
        length = rng.integers(0, 130, 200)
        masks = [int(rng.integers(0, 2, n) @ (1 << np.arange(n, dtype=object))) if n else 0
                 for n in length.tolist()]
        words = np.array([[m >> 64 * k & (2**64 - 1) for k in range(3)] for m in masks], np.uint64)

        def ints(w):
            return [sum(int(x) << 64 * k for k, x in enumerate(row)) for row in w.tolist()]

        keep = rng.integers(0, length + 1)
        factored = rng.integers(0, 2, len(masks)).astype(bool)
        assert mdp._popcount(words).tolist() == [bin(m).count("1") for m in masks]
        assert ints(mdp._last(words, keep)) == [
            m & (1 << k) - 1 for m, k in zip(masks, keep.tolist())
        ]
        assert ints(mdp._append(words, factored)) == [
            2 * m + f for m, f in zip(masks, factored.tolist())
        ]

    @pytest.mark.parametrize(
        "inst",
        [
            MdpInstance(ell=7, share=0.2, phi=20.0, rho=0.5, alloc=1),
            MdpInstance(ell=7, share=0.2, phi=1.0, rho=0.5, alloc=2),
            MdpInstance(ell=6, share=0.35, phi=5.0, rho=0.0),
        ],
    )
    def test_prescribed_by_index_matches_prescribed_action(self, inst):
        g = mdp._compile(inst)
        want = _policy_actions(g, partial(prescribed_action, inst))
        assert _policy_actions(g, mdp.PRESCRIBED) == want
        presc = partial(prescribed_action, inst)
        assert policy_value(inst, mdp.PRESCRIBED) == policy_value(inst, presc)

    def test_step_to_a_state_no_frontier_holds_is_an_error(self, monkeypatch):
        # one successor in a numbered frontier (no more blocks than the
        # states expanded) gets more factored public blocks than public
        # blocks, a row no state has
        corrupted = []
        expand = mdp._expand

        def corrupt(inst, rows, sec):
            out = expand(inst, rows, sec)
            cand = out[3]
            blocks = cand[:, : mdp._PF].sum(axis=1)
            behind = np.flatnonzero(blocks <= rows[:, : mdp._PF].sum(axis=1).max())
            if len(behind) and not corrupted:
                corrupted.append(behind[0])
                cand[behind[0], mdp._PF] = cand[behind[0], mdp._LP] + 1
            return out

        monkeypatch.setattr(mdp, "_expand", corrupt)
        with pytest.raises(RuntimeError, match="ell=5: a step reached a state no frontier holds"):
            mdp._compile(MdpInstance(ell=5, share=0.35, phi=20.0, rho=0.5, alloc=1))
        assert corrupted

    def test_state_budget_checked_before_each_frontier(self, monkeypatch):
        # the budget stops the compile before the frontier that crosses it
        # is expanded, not once every state is built
        expanded = []
        expand = mdp._expand
        monkeypatch.setattr(mdp, "_expand", lambda *a: expanded.append(len(a[1])) or expand(*a))
        monkeypatch.setattr(mdp, "MAX_STATES", 1000)
        with pytest.raises(StateBudgetError):
            mdp._compile(TestStateBudget.INST)
        assert 0 < sum(expanded) <= 1000
        monkeypatch.setattr(mdp, "MAX_STATES", 10**9)
        assert len(mdp._compile(TestStateBudget.INST).leaf_of) == 35703


def _same_floats(a, b) -> bool:
    """Whether two float arrays are equal bit for bit."""
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestAllocationFamily:
    """A cached graph holds every allocation of a game, compiled and solved
    together; each allocation's part must be the graph ``_compile`` builds
    for it alone, and everything played on it must be the same, bit for
    bit."""

    CASES = [
        (ell, share, rho, phi)
        for ell in range(2, 9)
        for share in (0.2, 0.35)
        for rho in (0.25, 0.5)
        for phi in (1.0, 20.0)
    ]

    @staticmethod
    def _walked(g, root):
        """The states from ``root`` in depth-first post-order, their
        actions and their edges, and each state's place in that order."""
        post = mdp._post_order(g, root)
        rank = np.full(len(g.leaf_of), -1, np.intp)
        rank[post] = np.arange(len(post))
        acts = mdp._ranges(g.act_lo[post], np.diff(g.act_lo)[post])
        edges = mdp._ranges(g.succ_lo[acts], np.diff(g.succ_lo)[acts])
        return post, acts, edges, rank

    @pytest.mark.parametrize(
        "ell, share, rho, phi, chunk",
        [case + (mdp._CHUNK,) for case in CASES] + [(5, 0.35, 0.25, 20.0, 7)],
        ids=[f"ell{e}-share{s}-rho{r}-phi{p:g}" for e, s, r, p in CASES]
        + ["ell5-share0.35-rho0.25-phi20-chunk7"],
    )
    def test_each_allocation_matches_its_own_compile(
        self, ell, share, rho, phi, chunk, monkeypatch
    ):
        monkeypatch.setattr(mdp, "_CHUNK", chunk)
        graphs: dict = {}
        allocs = mdp._allocations(ell, share, rho)
        insts = [MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=j) for j in allocs]
        fam = mdp._graph(insts[0], graphs)
        assert fam.allocs == tuple(allocs)
        assert mdp._decode_states(fam, range(len(allocs))) == [initial_state()] * len(allocs)
        assert fam.rows[: len(allocs), mdp._AL].tolist() == list(range(len(allocs)))
        assert fam.sizes.sum() == len(fam.leaf_of)
        for inst in insts:
            root = mdp._root(fam, inst)
            one = mdp._compile(inst)
            # the cache solve(inst) would build for itself, holding ``one``
            single = {(ell, share, rho, phi == 1.0): one}
            res, res1 = solve(inst, graphs), solve(inst, single)
            post, acts, edges, rank = self._walked(fam, root)
            post1, acts1, edges1, rank1 = self._walked(one, mdp._ROOT)
            # the allocation's states: all of them, and only its own
            assert len(post) == fam.sizes[root] == len(one.leaf_of)
            assert (fam.rows[post, mdp._AL] == root).all()
            assert np.array_equal(fam.rows[post, : mdp._AL], one.rows[post1, : mdp._AL])
            assert np.array_equal(fam.sec[post], one.sec[post1])
            assert np.array_equal(fam.act[acts], one.act[acts1])
            assert np.array_equal(np.diff(fam.act_lo)[post], np.diff(one.act_lo)[post1])
            assert np.array_equal(np.diff(fam.succ_lo)[acts], np.diff(one.succ_lo)[acts1])
            assert np.array_equal(rank[fam.succ[edges]], rank1[one.succ[edges1]])
            assert _same_floats(fam.probs[fam.prob_of[edges]], one.probs[one.prob_of[edges1]])
            assert np.array_equal(fam.level[post], one.level[post1])
            leaf_of, leaf_of1 = fam.leaf_of[post], one.leaf_of[post1]
            assert np.array_equal(leaf_of < 0, leaf_of1 < 0)
            leaves = fam.leaves[leaf_of[leaf_of >= 0]]
            assert np.array_equal(leaves, one.leaves[leaf_of1[leaf_of1 >= 0]])

            # solved, evaluated and played on either graph: the same bits
            assert res.value.hex() == res1.value.hex() and res.states == res1.states
            assert _same_floats(res._values[post], res1._values[post1])
            inner, inner1 = post[leaf_of < 0], post1[leaf_of1 < 0]
            assert np.array_equal(fam.act[res._choices[inner]], one.act[res1._choices[inner1]])
            for policy, policy1 in ((res, res1), (mdp.PRESCRIBED, mdp.PRESCRIBED)):
                got = policy_value(inst, policy, graphs)
                assert got.hex() == policy_value(inst, policy1, single).hex()
                rewards = rollout_rewards(inst, policy, 50, seed=ell, graphs=graphs)
                assert _same_floats(rewards, rollout_rewards(inst, policy1, 50, ell, single))
        # one backward pass served every allocation at this factor
        assert fam.solved[0] == phi and len(graphs) == 1


class TestOracleEll4:
    def test_exhaustive_oracle_ell4(self):
        inst = MdpInstance(ell=4, share=0.4, phi=5.0, rho=0.5, alloc=1)
        got = solve(inst).value
        want = game_value(4, 0.4, 5.0, 0.5, 1)
        assert got == pytest.approx(want, abs=1e-12)


class TestEngineCrossValidation:
    def test_prescribed_value_matches_engine_simulation(self):
        # the scheduler engine and the game model are independent
        # implementations of the same epoch; under prescribed play their
        # attacker utilities must agree (engine adds only the negligible
        # redistribution crumb)
        from fractions import Fraction

        from hebsim.chain import EpochParams
        from hebsim.engine import MinerConfig, run_games
        from hebsim.protocols import get_protocol, make_strategy

        ell, share, phi, rho = 10, 0.2, 20.0, 0.5
        inst = MdpInstance(ell=ell, share=share, phi=phi, rho=rho, alloc=2)
        exact = policy_value(inst, lambda s: prescribed_action(inst, s))

        params = EpochParams(
            epoch_len=ell, factor=Fraction(20), rho=Fraction(1, 2),
            user_balance=Fraction(10**7),
        )
        proto = get_protocol("heb")
        miners = [
            MinerConfig("att", Fraction(2), make_strategy("prescribed", proto)),
            MinerConfig("coh", Fraction(8), make_strategy("petty_compliant", proto)),
        ]
        stats = run_games(params, miners, proto, 3000, seed=71)
        se = stats.stderr_utility["att"]
        assert abs(stats.mean_utility["att"] - exact) < 3 * se + 1e-4
