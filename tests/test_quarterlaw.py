import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import quarterlaw
from qprob.quarterlaw import (
    BetaPairDistribution,
    QuadratureError,
    log_beta,
    pdf_normalization,
    q_split_closed,
    q_split_numeric,
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
    def test_normalization_by_quadrature(self):
        for _ in range(50):
            dist = random_symmetric_mass_distribution(RNG)
            assert pdf_normalization(dist) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("shape", [1e-300, 1e-100, 1e-10])
    def test_normalization_at_small_shapes(self, shape):
        # shape - 1 rounds to -1 below about 1e-16, so only the shape can carry these
        assert pdf_normalization(BetaPairDistribution.symmetric(shape), tol=1e-10) == pytest.approx(1.0, abs=1e-10)


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

    @pytest.mark.parametrize("shape", [1e-300, 1e-100, 1e-10])
    def test_quarter_law_at_small_shapes(self, shape):
        # shape - 1 rounds to -1 below about 1e-16, so only the shape can carry these
        split = q_split_numeric(BetaPairDistribution.symmetric(shape), tol=1e-10)
        assert split.q_plus == pytest.approx(0.25, abs=1e-10)
        assert split.q_minus == pytest.approx(-0.25, abs=1e-10)

    @pytest.mark.parametrize("shape", [1e-308, 1e-310, 5e-324])
    def test_moments_beyond_the_float_range_raise(self, shape):
        # B(shape, shape) ~ 2/shape overflows, and 1/shape itself below 5.6e-309
        dist = BetaPairDistribution.symmetric(shape)
        with pytest.raises(QuadratureError, match="beyond the float range"):
            pdf_normalization(dist)
        if shape < 5e-309:
            with pytest.raises(QuadratureError, match="beyond the float range"):
                q_split_numeric(dist)


class TestZeroMean:
    def test_uniform(self):
        assert zero_mean_residual(BetaPairDistribution.uniform()) == 0.0

    def test_symmetric(self):
        assert zero_mean_residual(BetaPairDistribution.symmetric(3.3, 0.7)) == 0.0

    def test_constructed_asymmetric(self):
        dist = BetaPairDistribution(alpha=2.0, beta=1.0, mu=4.0, nu=5.0, lambda_plus=0.4, lambda_minus=0.6)
        assert abs(zero_mean_residual(dist)) < 1e-12


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


@pytest.mark.parametrize(
    "integrand",
    [lambda u: np.full_like(u, np.nan), lambda u: 1.0 / np.abs(u - 1.0 / 3.0)],
    ids=["nan", "pole"],
)
def test_adaptive_gauss_stops_at_its_panel_budget(integrand):
    """An integrand that never converges raises instead of bisecting on:
    each of these ran for more than a minute under a depth cap of 60."""
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="panels"):
        quarterlaw._adaptive_gauss(integrand, 0.0, 1.0, 1e-11)
    assert time.perf_counter() - start < 2.0


def test_adaptive_gauss_ends_a_jump_at_machine_resolution():
    """The panels that straddle a 0/1 step never converge; the 1e-15 width
    floor ends them, well inside the panel budget."""
    got = quarterlaw._adaptive_gauss(lambda u: np.where(u < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0, 1e-11)
    assert got == 2.0 / 3.0


def test_beta_moment_needs_few_panels(monkeypatch):
    """The substitution t = u^c leaves no endpoint weight to bisect toward
    u = 0: at shapes 1.3, 1.3 direct quadrature of t^0.3 took 398 panels."""
    panels = []
    gauss_panel = quarterlaw._gauss_panel

    def counted(f, lo, hi):
        panels.append((lo, hi))
        return gauss_panel(f, lo, hi)

    monkeypatch.setattr(quarterlaw, "_gauss_panel", counted)
    grid = [0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 2.0, 3.0, 4.5, 6.0]
    most = 0
    for a in grid + [11.0]:
        for b in grid + [10.0]:
            panels.clear()
            got = quarterlaw._beta_moment(a, b, 1e-11)
            assert got == pytest.approx(math.exp(log_beta(a, b)), abs=1e-11)
            most = max(most, len(panels))
    assert most <= 30


def test_beta_moment_near_the_exponent_floor():
    """At shape a = 0.001 (exponent -0.999) the (1-t)^1000 drop sits near the
    upper end of u; a substitution that squeezes it further (c = 20/a) misses
    by 6.8.  The reference B(a, 1001) = 1000! / (a (a+1) ... (a+1000)) is good to
    about 3e-11 here, where exp(log_beta(a, 1001)) is off by 6.1e-10."""
    a = 0.001
    exact = math.prod(k / (k + a) for k in range(1, 1001)) / a
    assert quarterlaw._beta_moment(a, 1001.0, 1e-11) == pytest.approx(exact, abs=1e-10)
