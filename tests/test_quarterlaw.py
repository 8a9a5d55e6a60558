import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import quarterlaw
from qprob.quarterlaw import (
    PDF_ZERO_OFFSET,
    BetaPairDistribution,
    QuadratureError,
    Infeasible,
    log_beta,
    pdf,
    pdf_normalization,
    q_split_closed,
    q_split_numeric,
    solve_balanced,
    zero_mean_residual,
)

RNG = np.random.default_rng(2718)

shapes = st.floats(min_value=0.3, max_value=10.0, allow_nan=False)


def adaptive_gauss_rebisect(f, lo, hi, tol):
    """The adaptive quadrature before each panel carried its estimate: every
    popped panel is integrated again.  Kept as the oracle of ``_adaptive_gauss``."""
    total = 0.0
    stack = [(lo, hi, tol, 0)]
    while stack:
        a, b, share, depth = stack.pop()
        whole = quarterlaw._gauss_panel(f, a, b)
        mid = 0.5 * (a + b)
        left = quarterlaw._gauss_panel(f, a, mid)
        right = quarterlaw._gauss_panel(f, mid, b)
        if abs(left + right - whole) < share or (b - a) < 1e-15:
            total += left + right
        elif depth >= 60:
            raise QuadratureError(f"no convergence on [{a}, {b}]")
        else:
            stack.append((a, mid, 0.5 * share, depth + 1))
            stack.append((mid, b, 0.5 * share, depth + 1))
    return total


def random_symmetric_mass_distribution(rng):
    return BetaPairDistribution(
        alpha=float(rng.uniform(0.3, 10.0)),
        beta=float(rng.uniform(0.3, 10.0)),
        mu=float(rng.uniform(0.3, 10.0)),
        nu=float(rng.uniform(0.3, 10.0)),
        lambda_plus=0.5,
        lambda_minus=0.5,
    )


class TestValidation:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError, match="positive"):
            BetaPairDistribution(alpha=0.0, beta=1.0, mu=1.0, nu=1.0, lambda_plus=0.5, lambda_minus=0.5)

    def test_rejects_unbalanced_masses(self):
        with pytest.raises(ValueError, match="sum"):
            BetaPairDistribution(alpha=1.0, beta=1.0, mu=1.0, nu=1.0, lambda_plus=0.7, lambda_minus=0.5)

    def test_rejects_mass_outside_unit_interval(self):
        with pytest.raises(ValueError, match="lambda"):
            BetaPairDistribution(alpha=1.0, beta=1.0, mu=1.0, nu=1.0, lambda_plus=1.2, lambda_minus=-0.2)


class TestLogBeta:
    def test_known_values(self):
        assert math.exp(log_beta(2.0, 1.0)) == pytest.approx(0.5, abs=1e-14)
        assert math.exp(log_beta(0.5, 0.5)) == pytest.approx(math.pi, abs=1e-12)

    def test_large_shapes_stay_finite(self):
        assert math.isfinite(log_beta(500.0, 300.0))


class TestPdf:
    def test_uniform_density_is_one_half(self):
        dist = BetaPairDistribution.uniform()
        for q in (-1.0, -0.4, 0.0, 0.3, 1.0):
            assert pdf(dist, q) == pytest.approx(0.5, abs=1e-14)

    def test_linear_branch_value(self):
        dist = BetaPairDistribution(alpha=2.0, beta=1.0, mu=1.0, nu=1.0, lambda_plus=0.5, lambda_minus=0.5)
        assert pdf(dist, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_rejects_outside_support(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            pdf(BetaPairDistribution.uniform(), 1.5)

    def test_divergent_origin_is_capped(self):
        dist = BetaPairDistribution.symmetric(0.5)
        value = pdf(dist, 0.0)
        assert math.isfinite(value)
        assert value > 1e5  # huge but capped, not infinite

    def test_divergent_ends_of_the_support_are_capped(self):
        dist = BetaPairDistribution(alpha=2.0, beta=0.5, mu=3.0, nu=0.5, lambda_plus=0.5, lambda_minus=0.5)
        for q in (1.0, -1.0):
            value = pdf(dist, q)
            assert value == pdf(dist, math.copysign(1.0 - PDF_ZERO_OFFSET, q))
            assert math.isfinite(value) and value > 1e5

    def test_negative_branch(self):
        dist = BetaPairDistribution(alpha=1.0, beta=1.0, mu=2.0, nu=1.0, lambda_plus=0.5, lambda_minus=0.5)
        assert pdf(dist, -0.5) == pytest.approx(0.5, abs=1e-14)

    def test_normalization_by_quadrature(self):
        for _ in range(50):
            dist = random_symmetric_mass_distribution(RNG)
            assert pdf_normalization(dist) == pytest.approx(1.0, abs=1e-10)


class TestClosedForm:
    def test_uniform_quarter_law(self):
        split = q_split_closed(BetaPairDistribution.uniform())
        assert split.q_plus == 0.25
        assert split.q_minus == -0.25

    def test_symmetric_quarter_law_any_shapes(self):
        split = q_split_closed(BetaPairDistribution.symmetric(5.0, 0.5))
        assert split.q_plus == 0.25
        assert split.q_minus == -0.25

    @given(shapes, shapes)
    @settings(max_examples=50, deadline=None)
    def test_quarter_law_property(self, alpha, mu):
        split = q_split_closed(BetaPairDistribution.symmetric(alpha, mu))
        assert split.q_plus == 0.25
        assert split.q_minus == -0.25

    @pytest.mark.parametrize("huge", [1e308, math.nextafter(math.inf, 0.0)])
    def test_shapes_whose_sum_overflows(self, huge):
        def dist(alpha, beta):
            return BetaPairDistribution(
                alpha=alpha, beta=beta, mu=1.0, nu=1.0, lambda_plus=0.5, lambda_minus=0.5
            )

        assert q_split_closed(BetaPairDistribution.symmetric(huge)) == (0.25, -0.25)
        assert q_split_closed(dist(huge, huge)) == (0.25, -0.25)
        assert zero_mean_residual(dist(huge, huge)) == 0.0
        assert q_split_closed(dist(huge, 0.5 * huge)).q_plus == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 1e308), (7.0, 2.0)])
    def test_finite_shape_sums_keep_the_direct_formula_bits(self, alpha, beta):
        dist = BetaPairDistribution(alpha=alpha, beta=beta, mu=beta, nu=alpha, lambda_plus=0.4, lambda_minus=0.6)
        assert q_split_closed(dist) == (alpha * 0.4 / (alpha + beta), -beta * 0.6 / (beta + alpha))

    @pytest.mark.parametrize("alpha,beta", [(5e-324, 5e-324), (1e-310, 3e-309), (5e-324, 1e308)])
    def test_subnormal_shapes_give_the_correctly_rounded_ratio(self, alpha, beta):
        # The direct formula underflows alpha * 0.4 here: (0.0, -0.5) at the first row.
        # At the last, scaling alpha up so that the product is normal would overflow beta.
        dist = BetaPairDistribution(alpha=alpha, beta=beta, mu=beta, nu=alpha, lambda_plus=0.4, lambda_minus=0.6)
        total = Fraction(alpha) + Fraction(beta)
        exact = (Fraction(alpha) * Fraction(0.4) / total, -Fraction(beta) * Fraction(0.6) / total)
        assert q_split_closed(dist) == tuple(float(x) for x in exact)

    @pytest.mark.parametrize("shape", [5e-324, 1e-310, 2e-308])
    def test_equal_subnormal_shapes_keep_the_quarter_law(self, shape):
        assert q_split_closed(BetaPairDistribution.symmetric(shape)) == (0.25, -0.25)

    def test_asymmetric_example(self):
        dist = BetaPairDistribution(alpha=2.0, beta=1.0, mu=4.0, nu=5.0, lambda_plus=0.4, lambda_minus=0.6)
        split = q_split_closed(dist)
        assert split.q_plus == pytest.approx(2.0 * 0.4 / 3.0, abs=1e-15)
        assert split.q_plus == pytest.approx(0.26667, abs=5e-6)
        assert split.q_minus == pytest.approx(-0.26667, abs=5e-6)


class TestNumeric:
    def test_uniform(self):
        split = q_split_numeric(BetaPairDistribution.uniform())
        assert split.q_plus == pytest.approx(0.25, abs=1e-10)
        assert split.q_minus == pytest.approx(-0.25, abs=1e-10)

    def test_endpoint_singularity(self):
        split = q_split_numeric(BetaPairDistribution.symmetric(0.5))
        assert split.q_plus == pytest.approx(0.25, abs=1e-8)
        assert split.q_minus == pytest.approx(-0.25, abs=1e-8)

    def test_three_seven_split(self):
        dist = BetaPairDistribution(alpha=3.0, beta=7.0, mu=3.0, nu=7.0, lambda_plus=0.5, lambda_minus=0.5)
        assert q_split_numeric(dist).q_plus == pytest.approx(0.15, abs=1e-10)

    def test_matches_closed_form_on_random_parameters(self):
        worst = 0.0
        for _ in range(200):
            dist = random_symmetric_mass_distribution(RNG)
            closed = q_split_closed(dist)
            numeric = q_split_numeric(dist, tol=1e-10)
            worst = max(worst, abs(closed.q_plus - numeric.q_plus), abs(closed.q_minus - numeric.q_minus))
        assert worst < 1e-10


class TestZeroMean:
    def test_uniform(self):
        assert zero_mean_residual(BetaPairDistribution.uniform()) == 0.0

    def test_symmetric(self):
        assert zero_mean_residual(BetaPairDistribution.symmetric(3.3, 0.7)) == 0.0

    def test_constructed_asymmetric(self):
        dist = BetaPairDistribution(alpha=2.0, beta=1.0, mu=4.0, nu=5.0, lambda_plus=0.4, lambda_minus=0.6)
        assert abs(zero_mean_residual(dist)) < 1e-12


class TestSolveBalanced:
    def test_uniform_is_feasible(self):
        result = solve_balanced(1.0, 1.0, 0.5, 1.0, 1.0)
        assert isinstance(result, BetaPairDistribution)
        assert result.lambda_minus == 0.5

    def test_asymmetric_feasible(self):
        result = solve_balanced(2.0, 1.0, 0.4, 4.0, 5.0)
        assert isinstance(result, BetaPairDistribution)
        assert abs(zero_mean_residual(result)) < 1e-12

    def test_infeasible_reports_residual(self):
        result = solve_balanced(2.0, 1.0, 0.9, 1.0, 1.0)
        assert isinstance(result, Infeasible)
        assert result.residual == pytest.approx(0.55, abs=1e-12)

    def test_rejects_degenerate_mass(self):
        with pytest.raises(ValueError, match="strictly"):
            solve_balanced(1.0, 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("p,r", [(0.3, 0.0), (1.5, -0.4), (0.05, 3.0)])
def test_adaptive_gauss_integrates_each_panel_once(p, r):
    """Bit-identical to the re-bisecting oracle on integrands that force
    splits, and no panel's nodes are passed to the integrand twice."""

    def integrand(t):
        return t**p * (1.0 - t) ** r

    calls = []

    def recorded(t):
        calls.append(t.tobytes())
        return integrand(t)

    got = quarterlaw._adaptive_gauss(recorded, 0.0, 0.5, 1e-11)
    assert got == adaptive_gauss_rebisect(integrand, 0.0, 0.5, 1e-11)
    assert len(calls) == len(set(calls)) > 3


def test_beta_moment_needs_few_panels(monkeypatch):
    """The substitution t = u^c leaves no endpoint weight to bisect toward
    u = 0: at p = r = 0.3 direct quadrature of t^p took 398 panels."""
    panels = []
    gauss_panel = quarterlaw._gauss_panel

    def counted(f, lo, hi):
        panels.append((lo, hi))
        return gauss_panel(f, lo, hi)

    monkeypatch.setattr(quarterlaw, "_gauss_panel", counted)
    grid = [-0.7, -0.5, -0.3, 0.0, 0.3, 0.5, 1.0, 2.0, 3.5, 5.0]
    most = 0
    for p in grid + [10.0]:
        for r in grid + [9.0]:
            panels.clear()
            got = quarterlaw._beta_moment(p, r, 1e-11)
            assert got == pytest.approx(math.exp(log_beta(p + 1.0, r + 1.0)), abs=1e-11)
            most = max(most, len(panels))
    assert most <= 30


def test_beta_moment_near_the_exponent_floor():
    """At p = -0.999 the (1-t)^1000 drop sits near the upper end of u; a
    substitution that squeezes it further (c = 20/(p+1)) misses by 6.8.
    The reference B(a, 1001) = 1000! / (a (a+1) ... (a+1000)) is good to
    about 3e-11 here, where exp(log_beta(a, 1001)) is off by 6.1e-10."""
    a = -0.999 + 1.0
    exact = math.prod(k / (k + a) for k in range(1, 1001)) / a
    assert quarterlaw._beta_moment(-0.999, 1000.0, 1e-11) == pytest.approx(exact, abs=1e-10)
