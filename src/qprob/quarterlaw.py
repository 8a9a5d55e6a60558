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
from typing import Callable, NamedTuple, Union

import numpy as np

#: A branch whose density diverges at an end of its support (a shape below 1)
#: is evaluated at this offset from that end instead; only integrals of the
#: density carry meaning there.
PDF_ZERO_OFFSET = 1e-15

#: :func:`solve_balanced` reports a zero-mean residual this large as infeasible.
BALANCE_TOL = 1e-9

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach the requested tolerance."""


class QSplit(NamedTuple):
    """Expected positive and negative parts of the interference factor."""

    q_plus: float
    q_minus: float


@dataclass(frozen=True)
class Infeasible:
    """Marker that no zero-mean distribution exists for the requested parameters.

    ``residual`` is how far the positive and negative first moments miss
    cancelling each other.
    """

    residual: float


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
    """log B(a, b) via log-gamma, stable for large shapes."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _normalizer(shape: float, other: float, mass: float) -> float:
    """``mass / B(shape, other)``, which scales a branch's beta integrand or integral."""
    return mass * math.exp(-log_beta(shape, other))


def pdf(dist: BetaPairDistribution, q: float) -> float:
    """Density of the two-sided beta distribution at q in [-1, 1].

    q >= 0 takes the positive branch at q, q < 0 the negative one at -q.  Where
    the branch diverges, at 0 for a first shape below 1 or at +-1 for a second
    shape below 1, the value is capped by evaluating at ``PDF_ZERO_OFFSET``
    from that end.
    """
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [-1, 1], got {q!r}")
    shape, other, mass = dist.branches[q < 0.0]
    x = -q if q < 0.0 else q
    if x == 0.0 and shape < 1.0:
        x = PDF_ZERO_OFFSET
    elif x == 1.0 and other < 1.0:
        x = 1.0 - PDF_ZERO_OFFSET
    return _normalizer(shape, other, mass) * x ** (shape - 1.0) * (1.0 - x) ** (other - 1.0)


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
    plus, minus = (_normalizer(a, b, m) * _beta_moment(a, b - 1.0, tol=0.1 * tol) for a, b, m in dist.branches)
    return QSplit(q_plus=plus, q_minus=-minus)


def pdf_normalization(dist: BetaPairDistribution, tol: float = 1e-10) -> float:
    """The total probability mass, recomputed by quadrature of the density."""
    plus, minus = (_normalizer(a, b, m) * _beta_moment(a - 1.0, b - 1.0, tol=0.1 * tol) for a, b, m in dist.branches)
    return plus + minus


def zero_mean_residual(dist: BetaPairDistribution) -> float:
    """How far the distribution misses the zero-mean (alternation) constraint."""
    split = q_split_closed(dist)
    return split.q_plus + split.q_minus


def solve_balanced(
    alpha: float,
    beta: float,
    lambda_plus: float,
    mu: float,
    nu: float,
) -> Union[BetaPairDistribution, Infeasible]:
    """Assemble a zero-mean distribution, or report that none exists.

    With lambda_minus forced to 1 - lambda_plus the zero-mean constraint
    becomes an equality between the two branch moments; if the given
    parameters violate it, the residual is reported instead of a
    distribution.
    """
    if not 0.0 < lambda_plus < 1.0:
        raise ValueError(f"lambda_plus must lie strictly inside (0, 1), got {lambda_plus!r}")
    candidate = BetaPairDistribution(
        alpha=alpha, beta=beta, mu=mu, nu=nu, lambda_plus=lambda_plus, lambda_minus=1.0 - lambda_plus
    )
    residual = zero_mean_residual(candidate)
    if abs(residual) >= BALANCE_TOL:
        return Infeasible(residual=residual)
    return candidate


def _gauss_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def _adaptive_gauss(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float) -> float:
    """Adaptive Gauss-Legendre by interval bisection.

    A panel is accepted when bisecting it moves the estimate by less than its
    tolerance share; the share halves with each split so the total error stays
    below ``tol``.  A split panel's halves carry their estimates onto the
    stack, so no interval is integrated twice.
    """
    total = 0.0
    stack = [(lo, hi, _gauss_panel(f, lo, hi), tol, 0)]
    while stack:
        a, b, whole, share, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _gauss_panel(f, a, mid)
        right = _gauss_panel(f, mid, b)
        if abs(left + right - whole) < share or (b - a) < 1e-15:
            total += left + right
        elif depth >= 60:
            raise QuadratureError(
                f"no convergence on [{a}, {b}] at depth {depth} (estimate moved {abs(left + right - whole):.3e})"
            )
        else:
            stack.append((a, mid, left, 0.5 * share, depth + 1))
            stack.append((mid, b, right, 0.5 * share, depth + 1))
    return total


def _half_piece(p: float, r: float, tol: float) -> float:
    """integral over [0, 1/2] of t^p (1-t)^r dt for p, r > -1.

    t = u^c, with m = min(20, ceil(20 (p+1))) and c = max(1, m/(p+1)), turns
    t^p dt into c u^(m-1) du for p < 19: one 20-point panel integrates that
    weight exactly, so no panel is bisected toward u = 0 (Davis & Rabinowitz,
    Methods of Numerical Integration).  For p >= 19, c = 1; as p -> -1,
    u = t^(p+1), and c < 20 + 1/(p+1) keeps the drop of (1-t)^r in sight.
    """
    m = min(20, math.ceil(20.0 * (p + 1.0)))
    c = max(1.0, m / (p + 1.0))
    e = c * (p + 1.0) - 1.0
    return c * _adaptive_gauss(lambda u: u**e * (1.0 - u**c) ** r, 0.0, 0.5 ** (1.0 / c), tol)


def _beta_moment(p: float, r: float, tol: float) -> float:
    """integral over [0, 1] of t^p (1-t)^r dt, split at 1/2 with mirrored endpoint handling."""
    if p <= -1.0 or r <= -1.0:
        raise ValueError(f"moment exponents must exceed -1, got {p!r}, {r!r}")
    return _half_piece(p, r, 0.5 * tol) + _half_piece(r, p, 0.5 * tol)
