"""Distribution of the interference factor and the quarter law.

The interference factor of a prospect family is a random quantity on
[-1, 1] whose distribution must integrate to one and have zero mean (the
positive and negative parts alternate).  Modeling each sign with a beta
density gives closed forms for the expected positive part

    q_plus = alpha * lambda_plus / (alpha + beta)

and its negative mirror ``q_minus = -mu * lambda_minus / (mu + nu)``.  Under
the symmetry lambda_plus = lambda_minus = 1/2 with alpha = beta and mu = nu
both collapse to +-1/4 for any positive shapes: the quarter law.  The
numerical route recomputes both moments by adaptive quadrature in t = u^c,
where the endpoint weight is polynomial, so the two routes check each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

#: Most panels one adaptive quadrature may pop.  No beta moment of the
#: tests, ``qprob verify`` or the benchmark pops more than 17.
_PANEL_BUDGET = 1000


class QuadratureError(ArithmeticError):
    """Raised when adaptive quadrature fails to reach the requested tolerance."""


class QSplit(NamedTuple):
    """Expected positive and negative parts of the interference factor."""

    q_plus: float
    q_minus: float


@dataclass(frozen=True)
class BetaPairDistribution:
    """Two-sided beta density on [-1, 1].

    The positive branch has shapes (alpha, beta) and mass lambda_plus, the
    negative branch shapes (mu, nu) and mass lambda_minus; the masses must
    sum to one for the density to normalize.
    """

    alpha: float
    beta: float
    mu: float
    nu: float
    lambda_plus: float
    lambda_minus: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "mu", "nu"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"shape {name} must be positive and finite, got {value!r}")
        for name in ("lambda_plus", "lambda_minus"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.lambda_plus + self.lambda_minus - 1.0) >= 1e-10:
            raise ValueError(
                f"branch masses must sum to 1, got {self.lambda_plus + self.lambda_minus!r}"
            )

    @classmethod
    def uniform(cls) -> "BetaPairDistribution":
        """The non-informative case: all shapes 1, equal masses, density 1/2."""
        return cls(alpha=1.0, beta=1.0, mu=1.0, nu=1.0, lambda_plus=0.5, lambda_minus=0.5)

    @classmethod
    def symmetric(cls, alpha: float, mu: float | None = None) -> "BetaPairDistribution":
        """Equal-mass distribution with alpha = beta and mu = nu (defaults to alpha)."""
        mu = alpha if mu is None else mu
        return cls(alpha=alpha, beta=alpha, mu=mu, nu=mu, lambda_plus=0.5, lambda_minus=0.5)

    @property
    def branches(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """(shape, other shape, mass) of the positive and of the negative branch."""
        return (self.alpha, self.beta, self.lambda_plus), (self.mu, self.nu, self.lambda_minus)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) via log-gamma, finite for large shapes.  The terms cancel:
    the result carries an absolute error, and exp(log_beta) a relative one,
    of about eps * lgamma(a + b), 6e-13 at B(0.001, 1001)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _normalizer(shape: float, other: float, mass: float) -> float:
    """``mass / B(shape, other)``, which scales a branch's beta integrand or integral."""
    return mass * math.exp(-log_beta(shape, other))


def _branch_mean(shape: float, other: float, mass: float) -> float:
    """``shape * mass / (shape + other)``.

    Where the sum overflows both shapes are halved first.  Where the product
    ``shape * mass`` would be subnormal both are scaled up by the power of two
    that makes it normal, or by less where the sum would overflow.  Either
    scaling is exact and leaves the ratio unchanged.
    """
    if math.isinf(shape + other):
        shape, other = 0.5 * shape, 0.5 * other
    elif mass > 0.0 and shape * mass < sys.float_info.min:
        e_shape, e_other, e_mass = (math.frexp(x)[1] for x in (shape, other, mass))
        k = max(0, min(-1020 - e_shape - e_mass, 1022 - max(e_shape, e_other)))
        shape, other = math.ldexp(shape, k), math.ldexp(other, k)
    return shape * mass / (shape + other)


def q_split_closed(dist: BetaPairDistribution) -> QSplit:
    """Closed-form expected positive and negative parts."""
    plus, minus = (_branch_mean(*branch) for branch in dist.branches)
    return QSplit(q_plus=plus, q_minus=-minus)


def q_split_numeric(dist: BetaPairDistribution, tol: float = 1e-10) -> QSplit:
    """Expected parts recomputed by quadrature of q times the density."""
    plus, minus = (_normalizer(a, b, m) * _beta_moment(a + 1.0, b, tol=0.1 * tol) for a, b, m in dist.branches)
    return QSplit(q_plus=plus, q_minus=-minus)


def pdf_normalization(dist: BetaPairDistribution, tol: float = 1e-10) -> float:
    """The total probability mass, recomputed by quadrature of the density."""
    plus, minus = (_normalizer(a, b, m) * _beta_moment(a, b, tol=0.1 * tol) for a, b, m in dist.branches)
    return plus + minus


def zero_mean_residual(dist: BetaPairDistribution) -> float:
    """How far the distribution misses the zero-mean (alternation) constraint."""
    split = q_split_closed(dist)
    return split.q_plus + split.q_minus


def _gauss_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def _adaptive_gauss(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float) -> float:
    """Adaptive Gauss-Legendre by interval bisection.

    A panel is accepted when bisecting it moves the estimate by less than its
    tolerance share, which halves with each split so the total error stays
    below ``tol``, or when it is narrower than 1e-15.  A split panel's halves
    carry their estimates onto the stack, so no interval is integrated twice.
    As QUADPACK stops at its subinterval limit, :class:`QuadratureError` is
    raised once :data:`_PANEL_BUDGET` panels have been popped.
    """
    total = 0.0
    stack = [(lo, hi, _gauss_panel(f, lo, hi), tol)]
    for _ in range(_PANEL_BUDGET):
        a, b, whole, share = stack.pop()
        mid = 0.5 * (a + b)
        left = _gauss_panel(f, a, mid)
        right = _gauss_panel(f, mid, b)
        if abs(left + right - whole) < share or (b - a) < 1e-15:
            total += left + right
            if not stack:
                return total
        else:
            stack.append((a, mid, left, 0.5 * share))
            stack.append((mid, b, right, 0.5 * share))
    raise QuadratureError(f"no convergence on [{lo}, {hi}] within {_PANEL_BUDGET} panels")


def _half_piece(a: float, b: float, tol: float) -> float:
    """integral over [0, 1/2] of t^(a-1) (1-t)^(b-1) dt for shapes a, b > 0.

    t = u^c, with m = min(20, ceil(20 a)) and c = max(1, m/a), turns
    t^(a-1) dt into c u^(m-1) du for a < 20: one 20-point panel integrates
    that weight exactly, so no panel is bisected toward u = 0 (Davis &
    Rabinowitz, Methods of Numerical Integration).  For a >= 20, c = 1; as
    a -> 0, u = t^a, and c < 20 + 1/a keeps the drop of (1-t)^(b-1) in sight.
    The rule takes the shape, not the exponent a - 1, which rounds to -1
    below a = 1e-16.
    """
    m = min(20, math.ceil(20.0 * a))
    c = max(1.0, m / a)
    e = c * a - 1.0
    return c * _adaptive_gauss(lambda u: u**e * (1.0 - u**c) ** (b - 1.0), 0.0, 0.5 ** (1.0 / c), tol)


def _beta_moment(a: float, b: float, tol: float) -> float:
    """B(a, b), the integral over [0, 1] of t^(a-1) (1-t)^(b-1) dt, split at
    1/2 with mirrored endpoint handling.  B(a, b) exceeds the float range
    where a shape is below about 1e-308 (and c = 1/a overflows below 5.6e-309):
    :class:`QuadratureError` then, not an inf or NaN."""
    moment = _half_piece(a, b, 0.5 * tol) + _half_piece(b, a, 0.5 * tol)
    if not math.isfinite(moment):
        raise QuadratureError(f"B({a!r}, {b!r}) lies beyond the float range")
    return moment
