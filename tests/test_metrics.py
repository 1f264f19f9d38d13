import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from hebsim import metrics
from hebsim.metrics import (
    BalanceDistribution,
    attack_costs,
    binom_pmf,
    binomial_tail,
    conditional_weight,
    epsilon,
    expected_weight,
    external_expense,
    normalized_weight,
    normalized_weight_curve,
    permissiveness,
    pow_only_bound,
    redistribution_bound,
)

import oracles

TABLE2 = [
    ((0.20, 0.80), 0.0029),
    ((0.10, 0.15, 0.20, 0.20, 0.35), 0.0025),
    ((0.20, 0.40, 0.40), 0.0015),
    ((0.20, 0.20, 0.30, 0.30), 0.0007),
    ((0.20, 0.20, 0.20, 0.20, 0.20), 0.0000),
]


def exact_expected_weight(share: Fraction, ell: int, phi: Fraction) -> Fraction:
    """Independent oracle: exact rational binomial expectation."""
    quota = ell * share
    assert quota.denominator == 1
    quota = int(quota)
    total = Fraction(0)
    for n in range(ell + 1):
        pmf = (
            Fraction(math.comb(ell, n))
            * share**n
            * (1 - share) ** (ell - n)
        )
        w = n * phi if n <= quota else quota * phi + (n - quota)
        total += pmf * w
    return total


class TestConditionalWeight:
    def test_below_quota(self):
        assert conditional_weight(2, 0.3, 10, 20.0) == 40.0

    def test_above_quota(self):
        assert conditional_weight(5, 0.3, 10, 20.0) == 62.0

    def test_unit_factor(self):
        for n in range(11):
            assert conditional_weight(n, 0.3, 10, 1.0) == n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            conditional_weight(11, 0.3, 10, 20.0)
        with pytest.raises(ValueError):
            conditional_weight(-1, 0.3, 10, 20.0)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor must be >= 1"):
            conditional_weight(2, 0.3, 10, 0.5)
        with pytest.raises(ValueError, match="factor must be >= 1"):
            expected_weight(0.3, 10, 0.5)
        with pytest.raises(ValueError, match="factor must be >= 1"):
            epsilon([0.3, 0.7], 10, -3.0)

    @pytest.mark.parametrize("factor", [math.inf, math.nan])
    def test_non_finite_factor_rejected(self, factor):
        # an infinite factor makes a weight inf * 0 = nan, and nan compares
        # false with everything, so ``factor < 1`` alone lets both through
        with pytest.raises(ValueError, match="factor must be >= 1 and finite"):
            conditional_weight(2, 0.3, 10, factor)
        with pytest.raises(ValueError, match="factor must be >= 1 and finite"):
            epsilon([0.3, 0.7], 10, factor)
        with pytest.raises(ValueError, match="factor must be >= 1 and finite"):
            permissiveness(0.3, factor)

    def test_integrality_guard(self):
        with pytest.raises(ValueError, match="not integral"):
            conditional_weight(2, 0.25, 10, 20.0)
        # override floors the quota
        assert conditional_weight(3, 0.25, 10, 20.0, allow_fractional=True) == 41.0


class TestExpectedWeight:
    def test_full_share(self):
        assert expected_weight(1.0, 50, 20.0) == pytest.approx(1000.0)

    def test_unit_factor_is_mean(self):
        assert expected_weight(0.3, 10, 1.0) == pytest.approx(3.0)

    def test_matches_exact_rational_oracle(self):
        for ell in (10, 20, 30):
            for share in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
                if (ell * share).denominator != 1:
                    continue
                got = expected_weight(float(share), ell, 20.0)
                want = float(exact_expected_weight(share, ell, Fraction(20)))
                assert got == pytest.approx(want, rel=1e-12)

    def test_matches_monte_carlo_oracle(self):
        # 1e6 binomial draws through the conditional weight rule
        rng = np.random.default_rng(42)
        ell, share, phi = 1000, 0.3, 20.0
        draws = rng.binomial(ell, share, size=1_000_000)
        quota = round(ell * share)
        w = np.where(draws <= quota, draws * phi, quota * phi + draws - quota)
        mc_mean = w.mean()
        mc_se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(expected_weight(share, ell, phi) - mc_mean) < 3 * mc_se


class TestExpectedWeightOracle:
    """Summing outward from the mode and skipping the terms that underflow
    to 0.0 gives the full-range sum, bit for bit."""

    @pytest.mark.parametrize("epoch_len", [1, 2, 10, 200, 1000, 10**4])
    @pytest.mark.parametrize("share", [1e-4, 0.05, 0.2, 0.4, 0.5, 0.99, 1.0])
    def test_equals_full_range_sum(self, share, epoch_len):
        for factor in (1, 20, 50):
            for fractional in (False, True):
                try:
                    want = oracles.expected_weight(share, epoch_len, factor, fractional)
                except ValueError:  # an integral quota needs an integral ell * share
                    with pytest.raises(ValueError, match="not integral"):
                        expected_weight(share, epoch_len, factor, fractional)
                    continue
                got = expected_weight(share, epoch_len, factor, fractional)
                assert got == want, (share, epoch_len, factor, fractional)

    def test_skips_the_terms_that_underflow(self, monkeypatch):
        # at share 0.5 and ell 10^4 about 3,800 of the 10,001 terms are
        # nonzero; the full range makes three lgamma calls per term
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
        expected_weight(0.5, 10**4, 20.0)
        assert 0 < len(calls) < 10**4


class TestWeightOverflow:
    """A finite factor so large that an epoch's weight overflows is an
    error, not a nan."""

    def test_library_raises(self):
        for call in (
            lambda: conditional_weight(2, 0.3, 10, 1e308),
            lambda: expected_weight(0.3, 10, 1e308),
            lambda: normalized_weight(0.1, 10, 1e308, allow_fractional=True),
            lambda: epsilon([0.3, 0.7], 10, 1e308),
        ):
            with pytest.raises(ValueError, match="factor 1e\\+308 overflows"):
                call()

    def test_largest_finite_epoch_weight_passes(self):
        factor = 1.7976931348623157e308 / 10
        assert math.isfinite(epsilon([0.3, 0.7], 10, factor))
        assert math.isfinite(normalized_weight(0.3, 10, factor))


class TestBinomialBasics:
    def test_pmf_matches_scipy(self):
        for n in (0, 1, 270, 300, 330, 1000):
            assert binom_pmf(n, 1000, 0.3) == pytest.approx(
                binom.pmf(n, 1000, 0.3), rel=1e-10, abs=1e-300
            )

    def test_edge_probabilities(self):
        assert binom_pmf(0, 10, 0.0) == 1.0
        assert binom_pmf(10, 10, 1.0) == 1.0
        assert binom_pmf(3, 10, 0.0) == 0.0


class TestEpsilon:
    @pytest.mark.parametrize("dist,expected", TABLE2)
    def test_table2_values(self, dist, expected):
        assert epsilon(dist, 1000, 20.0) == pytest.approx(expected, abs=2e-4)

    def test_uniform_is_zero(self):
        assert epsilon([0.25] * 4, 1000, 20.0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            BalanceDistribution([0.5, 0.6])
        with pytest.raises(ValueError, match="positive"):
            BalanceDistribution([1.5, -0.5])
        # every expected weight is 0.0 at epoch_len 0, and so is their total
        with pytest.raises(ValueError, match="epoch_len"):
            epsilon([0.5, 0.5], 0, 20.0)

    def test_equal_normalized_weights_iff_zero_gap(self):
        ell, phi = 1000, 20.0
        uniform = [0.2] * 5
        nws = [normalized_weight(s, ell, phi) for s in uniform]
        assert max(nws) - min(nws) < 1e-9
        assert epsilon(uniform, ell, phi) < 1e-9
        skewed = [0.2, 0.8]
        nws = [normalized_weight(s, ell, phi) for s in skewed]
        assert max(nws) - min(nws) > 1e-9
        assert epsilon(skewed, ell, phi) > 1e-9

    def test_epsilon_has_no_rho_input(self):
        # the size-indifference computation is independent of the
        # internal-expenditure rate by construction
        import inspect

        assert "rho" not in inspect.signature(epsilon).parameters


class TestNormalizedWeightCurve:
    def test_limit_toward_one(self):
        # Law of large numbers: the normalized weight approaches 1 in ell
        v3 = normalized_weight(0.1, 1000, 20.0)
        v4 = normalized_weight(0.1, 10000, 20.0)
        assert abs(v4 - 1.0) < abs(v3 - 1.0)
        assert v4 > 0.98

    def test_unit_factor_exact_one(self):
        assert normalized_weight(0.3, 10, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_epoch_len(self):
        grid = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
        for share in (0.1, 0.2):
            vals = [normalized_weight(share, ell, 20.0) for ell in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_curve_rows(self):
        rows = normalized_weight_curve(
            [0.1, 0.2], epoch_lens=[100, 1000], factor=20.0
        )
        assert len(rows) == 4
        rows_phi = normalized_weight_curve([0.1], factors=[1, 20], epoch_len=100)
        assert rows_phi[0][2] == pytest.approx(1.0)

    def test_requires_exactly_one_sweep(self):
        with pytest.raises(ValueError):
            normalized_weight_curve([0.1])

    @pytest.mark.parametrize(
        "sweep", [{"epoch_lens": [100]}, {"factors": [20.0]}]
    )
    def test_requires_the_fixed_parameter(self, sweep):
        with pytest.raises(ValueError, match="fixed"):
            normalized_weight_curve([0.1], **sweep)

    @pytest.mark.parametrize(
        "share, epoch_len, name",
        [(0.0, 100, "share"), (1.5, 100, "share"), (-0.1, 100, "share"),
         (0.1, 0, "epoch_len")],
    )
    def test_degenerate_point_rejected(self, share, epoch_len, name):
        # these divided by zero (or by a negative share) before
        with pytest.raises(ValueError, match=name):
            normalized_weight(share, epoch_len, 20.0)


class TestSimpleFormulas:
    def test_pow_only_bound(self):
        assert pow_only_bound(0.0) == pytest.approx(0.5)
        assert pow_only_bound(0.5) == pytest.approx(1 / 3)
        assert pow_only_bound(0.999) < 0.001

    def test_permissiveness(self):
        assert permissiveness(0.3, 1.0) == 1.0
        assert permissiveness(0.1, 20.0) == pytest.approx(1 / 18.1)
        assert permissiveness(1.0, 20.0) == 1.0

    def test_attack_costs(self):
        assert attack_costs(0.0) == (1.0, 1.0)
        assert attack_costs(0.5) == (1.0, 0.5)
        for rho in (0.0, 0.25, 0.8):
            refunded, sabotage = attack_costs(rho)
            assert sabotage + rho == pytest.approx(refunded)

    def test_external_expense(self):
        assert external_expense(0.5) == 0.5
        assert external_expense(0.0) == 1.0
        with pytest.raises(ValueError):
            external_expense(1.0)

    def test_redistribution_bound(self):
        assert redistribution_bound(500, 10**6) == pytest.approx(
            500**2 / (500 + 10**6)
        )


class TestBinomialTail:
    def test_footnote_values(self):
        lo, hi = binomial_tail(1000, 0.3, 0.10)
        assert lo == pytest.approx(0.02, abs=0.005)
        assert hi == pytest.approx(0.018, abs=0.005)

    def test_matches_scipy_exact(self):
        lo, hi = binomial_tail(1000, 0.3, 0.10)
        assert lo == pytest.approx(binom.cdf(270, 1000, 0.3), rel=1e-10)
        assert hi == pytest.approx(binom.sf(329, 1000, 0.3), rel=1e-10)

    def test_symmetric_share(self):
        lo, hi = binomial_tail(1000, 0.5, 0.1)
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_extreme_rel_err(self):
        lo, hi = binomial_tail(1000, 0.3, 0.999)
        assert lo < 1e-100
        assert hi < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_tail(100, 0.3, 0.0)


class TestConvergenceGrid:
    def test_norm_weight_gap_shrinks_with_epoch_len_on_grid(self):
        for share in (0.05, 0.1, 0.2, 0.4):
            for factor in (2.0, 20.0, 50.0):
                v3 = normalized_weight(share, 1000, factor)
                v4 = normalized_weight(share, 10000, factor)
                assert abs(v4 - 1.0) < abs(v3 - 1.0), (share, factor)
