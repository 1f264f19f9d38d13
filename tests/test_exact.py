"""Exact token arithmetic: the input types the token entry points accept,
and the settlement's sums and products against the operator-based
references in ``tests/oracles.py``."""

import dataclasses
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hebsim.chain import (
    FACTORED,
    Allocation,
    EpochParams,
    epoch_slice,
    exact_add,
    exact_fraction,
    exact_product,
    exact_quotient,
    exact_scaled,
    exact_split,
    exact_sum,
    stats_from_counts,
)
from hebsim.engine import (
    Game,
    MinerConfig,
    StalledSystemError,
    miner_selector,
    normalized_balances,
    run_epoch,
    select_miner,
)
from hebsim.protocols import PrescribedHeb, get_protocol, make_strategy, protocol_names

import oracles


class TestAcceptedInputs:
    """int, float, str and Fraction inputs give the outputs they always
    gave: a float or a string is read as ``Fraction(x)`` reads it."""

    HALF = EpochParams(epoch_len=4, rho=Fraction(1, 2))

    @pytest.mark.parametrize("internal, blocks", [
        (2.5, 5), ("1/2", 1), ("0.75", 1), (0.1, 0), (1e-300, 0), (3, 6),
        (0, 0), (True, 2), (Fraction(7, 3), 4), (Fraction(5, 2), 5),
        # truncated toward zero, as int() truncates
        (-1, -2), (Fraction(-1, 3), 0), (-2.5, -5),
    ])
    def test_quota_limit(self, internal, blocks):
        got = self.HALF.quota_limit(internal)
        assert got == blocks and type(got) is int

    def test_quota_limit_scales_by_rho_and_mint(self):
        params = EpochParams(epoch_len=4, rho=Fraction(2, 7), mint=Fraction(3, 5))
        # one block of quota costs 6/35
        assert params.quota_limit(Fraction(6, 35)) == 1
        assert params.quota_limit(Fraction(6, 35) - Fraction(1, 10**9)) == 0
        assert params.quota_limit(1) == 5
        assert params.quota_limit("12/35") == 2
        assert params.quota_limit(0.34285714285714286) == 2  # just above 12/35
        assert params.quota_limit(0.3428571428571428) == 1  # just below it

    def test_quota_limit_unlimited_at_rho_zero(self):
        assert EpochParams(epoch_len=4).quota_limit("3") is None

    @pytest.mark.parametrize("value, exact", [
        (3, Fraction(3)), (0.1, Fraction(0.1)), ("1/3", Fraction(1, 3)),
        ("2.5", Fraction(5, 2)), (Fraction(2, 6), Fraction(1, 3)),
    ])
    def test_allocation_and_miner_config(self, value, exact):
        alloc = Allocation(value, value)
        assert type(alloc.internal) is Fraction and alloc.internal == exact
        assert type(alloc.external) is Fraction and alloc.external == exact
        assert alloc.total == 2 * exact
        miner = MinerConfig("a", value, None)
        assert type(miner.balance) is Fraction and miner.balance == exact

    @pytest.mark.parametrize("value", [-1, -0.5, "-1/3", Fraction(-1, 9)])
    def test_negative_parts_rejected(self, value):
        with pytest.raises(ValueError):
            Allocation(value, 1)
        with pytest.raises(ValueError):
            Allocation(1, value)
        with pytest.raises(ValueError):
            MinerConfig("a", value, None)

    def test_selector_floats_keep_the_float_sum(self):
        # the shares are each float / float-sum, correctly rounded
        cumulative = miner_selector({"a": 0.1, "b": 0.2, "c": 0.7}).cumulative
        assert cumulative.tolist() == [0.1, 0.30000000000000004, 1.0]
        cumulative = miner_selector({"c": 0.7, "b": 0.2, "a": 0.1}).cumulative
        assert cumulative.tolist() == [0.1, 0.30000000000000004, 1.0]

    @pytest.mark.parametrize("balances, expected", [
        ({"a": 1, "b": 2, "c": 7}, [0.1, 0.30000000000000004, 1.0]),
        ({"a": Fraction(1, 10), "b": Fraction(1, 5), "c": Fraction(7, 10)},
         [0.1, 0.30000000000000004, 1.0]),
        ({"a": Fraction(1, 3), "b": Fraction(1, 7), "c": 2},
         [0.1346153846153846, 0.1923076923076923, 1.0]),
        # mixed: a float anywhere makes the sum a float
        ({"a": Fraction(1, 3), "b": 0.2, "c": 7},
         [0.04424778761061947, 0.07079646017699115, 1.0]),
        ({"a": 0, "b": 3}, [0.0, 1.0]),
    ])
    def test_selector_shares(self, balances, expected):
        cumulative = miner_selector(balances).cumulative
        assert cumulative.dtype == np.float64
        assert cumulative.tolist() == expected

    def test_selector_share_is_the_rounded_exact_ratio(self):
        balances = {"a": Fraction(10**30 + 1, 3), "b": Fraction(2, 10**30 + 7)}
        total = balances["a"] + balances["b"]
        cumulative = miner_selector(balances).cumulative
        assert cumulative[0] == float(balances["a"] / total)

    def test_select_miner_types(self):
        for balances in ({"A": 1, "B": 0}, {"A": 1.0, "B": 0.0},
                         {"A": Fraction(1, 3), "B": Fraction(0)}):
            assert select_miner(balances, np.random.default_rng(0)) == "A"

    @pytest.mark.parametrize("balances", [
        {}, {"a": 0, "b": 0}, {"a": 0.0}, {"a": Fraction(0)}, {"a": -1, "b": 1},
    ])
    def test_selector_zero_total_stalls(self, balances):
        with pytest.raises(StalledSystemError):
            miner_selector(balances)

    def test_selector_rejects_strings(self):
        # a string balance does not sum: it is not a number here
        with pytest.raises(TypeError):
            miner_selector({"a": "1", "b": "2"})


# -- the helpers against the operators ------------------------------------------

# unrelated denominators: a sum that misses an lcm, or a product that drops
# a denominator, reads wrong on them
PRIMES = [2, 3, 5, 7, 11, 13, 31, 97, 1009, 65537]
prime_fractions = st.builds(
    Fraction, st.integers(-10**9, 10**9), st.sampled_from(PRIMES)
)
rationals = st.one_of(
    st.integers(-10**9, 10**9), prime_fractions, st.fractions(max_denominator=10**12)
)
nonzero = rationals.filter(bool)


class TestHelpers:
    @given(st.lists(rationals, max_size=12))
    def test_sum(self, terms):
        got = exact_sum(terms)
        assert type(got) is Fraction and got == sum(terms, Fraction(0))
        assert exact_sum(iter(terms)) == got

    def test_sum_fixed_cases(self):
        assert exact_sum([]) == 0 and type(exact_sum([])) is Fraction
        assert exact_sum([3]) == 3
        assert exact_sum([Fraction(1, 3), Fraction(1, 7), 5]) == Fraction(115, 21)
        assert exact_sum([Fraction(-2, 11), Fraction(2, 11)]) == 0
        assert exact_sum([Fraction(1, 6), Fraction(1, 10), Fraction(-1, 15)]) == Fraction(1, 5)
        assert exact_sum([2, -7, True]) == -4

    @given(rationals, rationals)
    def test_add_product_split(self, a, b):
        for got, want in [
            (exact_add(a, b), Fraction(a) + b),
            (exact_product(a, b), Fraction(a) * b),
            (exact_split(a, b), (Fraction(b) * a, (1 - Fraction(b)) * a)),
        ]:
            assert got == want
        assert all(type(x) is Fraction for x in exact_split(a, b))

    @given(rationals, nonzero)
    def test_quotient(self, a, b):
        got = exact_quotient(a, b)
        assert type(got) is Fraction and got == Fraction(a) / b

    def test_quotient_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_quotient(Fraction(1, 3), Fraction(0))

    @given(st.lists(rationals, max_size=12), rationals)
    def test_scaled(self, terms, factor):
        got = exact_scaled(terms, factor)
        assert got == [Fraction(t) * factor for t in terms]
        assert all(type(x) is Fraction for x in got)

    @given(st.one_of(rationals, st.floats(allow_nan=False, allow_infinity=False)))
    def test_fraction(self, x):
        got = exact_fraction(x)
        assert type(got) is Fraction and got == Fraction(x)
        assert exact_fraction(str(got)) == got

    def test_fraction_keeps_a_fraction(self):
        x = Fraction(2, 7)
        assert exact_fraction(x) is x


# -- the settlement against the operator-based references --------------------------

RHOS = [Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(5, 11)]
FACTORS = [Fraction(1), Fraction(20), Fraction(7, 3), Fraction(101, 13)]
MINTS = [Fraction(1), Fraction(3, 7), Fraction(5, 2)]
# none of them a multiple of the others' denominators or of a round number
USER_BALANCES = [Fraction(1000003), Fraction(10**6 + 1, 7), Fraction(10**9 + 7, 1009)]


@st.composite
def games(draw, protocols=tuple(protocol_names())):
    """A game under one of ``protocols`` with 1-6 miners whose shares have
    unrelated prime denominators, balanced with ``allow_fractional``."""
    protocol = get_protocol(draw(st.sampled_from(protocols)))
    params = EpochParams(
        epoch_len=draw(st.integers(1, 30)),
        factor=draw(st.sampled_from(FACTORS)),
        rho=draw(st.sampled_from(RHOS)),
        mint=draw(st.sampled_from(MINTS)),
        user_balance=draw(st.sampled_from(USER_BALANCES)),
    )
    weights = draw(st.lists(prime_fractions.filter(lambda w: w > 0), min_size=1, max_size=6))
    shares = [w / sum(weights) for w in weights]
    balances = normalized_balances(shares, params, allow_fractional=True)
    # a miner who allocates internally needs a protocol that redistributes it
    names = ["prescribed", "no_ic", "pow_only"]
    if protocol.pool == "internal":
        names.append("petty_compliant")
    if protocol.quota_mode == "count":
        names = ["prescribed"]
    miners = [
        MinerConfig(f"m{i}", b, make_strategy(draw(st.sampled_from(names)), protocol))
        for i, b in enumerate(balances)
    ]
    return params, miners, protocol


def reference_totals(params, miners, protocol):
    def internal_of(miner):
        return params.rho * miner.balance if isinstance(miner.strategy, PrescribedHeb) else 0

    return oracles.game_totals(params, miners, protocol, internal_of)


def assert_fractions_equal(got: dict, want: dict):
    assert got == want
    assert all(type(v) is Fraction for v in got.values())


class TestSettlementDifferential:
    """``Game``'s totals, ``stats_from_counts`` and ``balance_fn`` against
    the operator-based references in ``tests/oracles.py``: every Fraction
    equal, every result a Fraction."""

    @settings(max_examples=150, deadline=None)
    @given(games())
    def test_game_totals(self, game_args):
        params, miners, protocol = game_args
        game = Game(*game_args)
        ref = reference_totals(params, miners, protocol)
        got = {m: (a.internal, a.external) for m, a in game.allocations.items()}
        assert got == ref["allocations"]
        assert all(type(x) is Fraction for pair in got.values() for x in pair)
        assert game.quota_limits == ref["quota_limits"]
        assert game.select.cumulative.tolist() == ref["cumulative"]
        for key in ("internal_total", "external_total", "minted_total"):
            value = getattr(game, key)
            assert type(value) is Fraction and value == ref[key], key

    @settings(max_examples=300, deadline=None)
    @given(games(), st.data())
    def test_stats_and_balance_fn(self, game_args, data):
        params, miners, protocol = game_args
        game = Game(*game_args)
        counts = []
        for m in game.ids:
            n = data.draw(st.integers(0, params.epoch_len))
            counts.append((m, n, data.draw(st.integers(0, n))))
        stats = stats_from_counts(counts, params.factor)
        ref_stats = oracles.stats_from_counts(counts, params.factor)
        assert stats == ref_stats
        assert all(type(w) is Fraction for _, w in stats.values())
        for m in game.ids:
            stats.setdefault(m, (0, Fraction(0)))
        if not any(n for _, n, _ in counts):
            for settle in (protocol.balance_fn, partial(oracles.balance_fn, protocol)):
                with pytest.raises(ArithmeticError):
                    settle(stats, params, game.allocations, game.ids)
            return
        out = protocol.balance_fn(stats, params, game.allocations, game.ids)
        minted, redistributed, user_payout = oracles.balance_fn(
            protocol, stats, params, game.allocations, game.ids
        )
        assert_fractions_equal(out.minted, minted)
        assert_fractions_equal(out.redistributed, redistributed)
        assert type(out.user_payout) is Fraction and out.user_payout == user_payout

    @settings(max_examples=100, deadline=None)
    @given(games(protocols=("nakamoto", "nakamoto_half", "prd", "heb")), st.integers(0, 2**32))
    def test_runs(self, game_args, seed):
        """A whole run's settlement, recomputed by the operators from its
        main chain, gives the same Fractions and the same ``to_json()``.
        (``heb_mandatory`` stalls at most fractional shares, whose block
        quotas sum below ``epoch_len``; its settlement is checked above.)"""
        params, miners, protocol = game_args
        res = run_epoch(Game(*game_args), seed)
        ref = reference_totals(params, miners, protocol)
        blocks = epoch_slice(res.main, 0, params.epoch_len)
        n = Counter(b.creator for b in blocks)
        f = Counter(b.creator for b in blocks if b.kind == FACTORED)
        stats = oracles.stats_from_counts([(m, n[m], f[m]) for m in n], params.factor)
        for m in sorted(ref["allocations"]):
            stats.setdefault(m, (0, Fraction(0)))
        allocations = {m: Allocation(*a) for m, a in ref["allocations"].items()}
        minted, redistributed, user_payout = oracles.balance_fn(
            protocol, stats, params, allocations, sorted(allocations)
        )
        balances = {m: minted[m] + redistributed[m] for m in minted}
        assert sum(balances.values()) + user_payout == (
            ref["internal_total"] + ref["minted_total"]
        )
        assert res.stats == stats
        assert_fractions_equal(res.minted, minted)
        assert_fractions_equal(res.redistributed, redistributed)
        assert_fractions_equal(res.balances, balances)
        assert res.user_payout == user_payout
        want = dataclasses.replace(
            res, stats=stats, minted=minted, redistributed=redistributed,
            balances=balances, user_payout=user_payout,
            internal_total=ref["internal_total"], external_total=ref["external_total"],
        )
        assert res.to_json() == want.to_json()
