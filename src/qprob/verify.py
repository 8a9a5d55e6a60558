"""The invariant registry behind ``qprob verify`` and the acceptance suite.

Each check exercises one family of library guarantees on seeded random
instances and reports a pass flag plus a short deterministic detail string,
so that two runs with the same seed produce byte-identical reports no matter
how many workers integrate the stochastic ensemble.  :data:`CHECKS` lists
every check once, with the acceptance criterion it gates; the acceptance
suite runs those same functions on streams of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import becsim, quarterlaw
from .events import DensityOperator, Observable, event_probability, union_probability
from .prospects import (
    CompositeState,
    Prospect,
    dephase_modes,
    max_entangled_state,
    mode_pfq,
    product_state,
    prospect_probabilities,
    prospect_state,
)
from .sampling import (
    random_density,
    random_entangled_pure,
    random_observable,
    random_weights,
)
from .uncertain import ModeWeights, UncertainUnion, proposition_operator, uncertain_probability
from .linalg import trace


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


GROUPS = ("events", "uncertain", "prospects", "quarterlaw", "becsim")

_BELL_LIKE = np.array([0.5, 0.5, 0.5, -0.5], dtype=np.complex128)


def _worst(*values: float) -> float:
    """The largest value, or NaN if any is NaN, so that a NaN fails every bound.

    The builtin ``max`` keeps its first argument when a later one is NaN.
    """
    return float(np.max(values))


def _bell_like_state() -> CompositeState:
    return CompositeState(
        rho=DensityOperator(np.outer(_BELL_LIKE, _BELL_LIKE.conj())), dim_a=2, dim_b=2
    )


def _check_projective_measure(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    worst_sum = 0.0
    worst_union = 0.0
    for dim in (2, 3, 4, 8):
        for _ in range(100):
            rho = random_density(rng, dim)
            obs = random_observable(rng, dim)
            probs = [event_probability(rho, obs, n) for n in range(dim)]
            if any(p < 0.0 or p > 1.0 for p in probs):
                return CheckResult("events", "projective-probability-measure", False, "probability outside [0, 1]")
            worst_sum = _worst(worst_sum, abs(sum(probs) - 1.0))
            half = list(range(dim // 2))
            union = union_probability(rho, obs, half)
            worst_union = _worst(worst_union, abs(union - sum(probs[n] for n in half)))
    passed = worst_sum < 1e-10 and worst_union < 1e-12
    return CheckResult(
        "events",
        "projective-probability-measure",
        passed,
        f"max |sum p - 1| = {worst_sum:.3e}, max additivity gap = {worst_union:.3e}",
    )


def _check_uncertain_trace(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(100):
            rho = random_density(rng, dim)
            union = UncertainUnion(random_observable(rng, dim), random_weights(rng, dim))
            direct = uncertain_probability(rho, union).p
            via_operator = trace(rho.matrix @ proposition_operator(union)).real
            worst = _worst(worst, abs(direct - via_operator))
    return CheckResult(
        "uncertain",
        "uncertain-trace-agreement",
        worst < 1e-12,
        f"max |p - trace route| = {worst:.3e}",
    )


def _check_uncertain_commuting(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(100):
            obs = Observable.standard(dim)
            rho = DensityOperator.diagonal(rng.dirichlet(np.ones(dim)))
            q = uncertain_probability(rho, UncertainUnion(obs, random_weights(rng, dim))).interference
            worst = _worst(worst, abs(q))
    return CheckResult(
        "uncertain",
        "interference-vanishes-for-commuting-state",
        worst < 1e-14,
        f"max |q| = {worst:.3e}",
    )


def _check_uncertain_witness(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho = DensityOperator.pure(plus)
    union = UncertainUnion(Observable.standard(2), ModeWeights.normalized([1.0, 1.0]))
    q = uncertain_probability(rho, union).interference
    return CheckResult(
        "uncertain",
        "uncertain-union-not-additive",
        abs(q) > 0.1,
        f"witness |q| = {abs(q):.6f}",
    )


def _check_prospect_oracle(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    state = _bell_like_state()
    weights = ModeWeights.normalized([1.0, 1.0])
    rho, w = state.matrix, weights.values
    # dense oracle, entry by entry: p_n = <pi_n|rho|pi_n>, f_n the diagonal
    # and q_n the off-diagonal terms of the weighted block n
    oracle = np.zeros((3, 2))
    for n in range(2):
        pi = prospect_state(Prospect(n=n, weights=weights), 2)
        oracle[0, n] = np.vdot(pi, rho @ pi).real
        for a in range(2):
            for b in range(2):
                oracle[1 if a == b else 2, n] += (np.conj(w[a]) * w[b] * rho[2 * n + a, 2 * n + b]).real
    raw = prospect_probabilities(state, weights, mode="raw")
    normalized = prospect_probabilities(state, weights, mode="normalized")
    expected = (
        (raw, oracle),
        (raw, [[0.5, 0.0], [0.25, 0.25], [0.25, -0.25]]),
        (normalized, [[1.0, 0.0], [0.5, 0.5], [0.5, -0.5]]),
    )
    gap = _worst(*(float(np.max(np.abs(np.array([r.p, r.f, r.q]) - e))) for r, e in expected))
    return CheckResult(
        "prospects",
        "interference-decomposition-reference-values",
        gap < 1e-12,
        f"max deviation from oracle and reference triples = {gap:.3e}",
    )


def _check_prospect_axioms(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    # The injected-fault flag lands here: it perturbs the accumulated gap so
    # the normalization check is the one that reports the failure.
    worst = 1.0 if corrupt else 0.0
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        for _ in range(100):
            state = random_entangled_pure(rng, dim_a, dim_b)
            res = prospect_probabilities(state, random_weights(rng, dim_b), mode="normalized")
            worst = _worst(
                worst,
                abs(float(res.p.sum()) - 1.0),
                abs(float(res.f.sum()) - 1.0),
                abs(float(res.q.sum())),
                float(np.max(np.abs(res.p - res.f - res.q))),
            )
            if np.any(res.p < 0.0) or np.any(res.p > 1.0) or np.any(res.f < 0.0) or np.any(res.f > 1.0):
                return CheckResult("prospects", "probability-normalization", False, "family leaves [0, 1]")
            if np.any(np.abs(res.q) > 1.0):
                return CheckResult("prospects", "probability-normalization", False, "|q| exceeds 1")
    return CheckResult(
        "prospects",
        "probability-normalization",
        worst < 1e-10,
        f"max normalization gap = {worst:.3e}",
    )


def _check_zero_interference_product(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    # Raw interference need not vanish for a product state; the vanishing
    # theorem lives in the normalized families, where the sum rules force it.
    worst = 0.0
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        for _ in range(100):
            state = product_state(random_density(rng, dim_a), random_density(rng, dim_b))
            res = prospect_probabilities(state, random_weights(rng, dim_b), mode="normalized")
            worst = _worst(worst, float(np.max(np.abs(res.q))))
    return CheckResult(
        "prospects",
        "interference-vanishes-for-product-states",
        worst < 1e-12,
        f"max |q| over product states = {worst:.3e}",
    )


def _check_zero_interference_max_entangled(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    worst = 0.0
    for m in range(2, 7):
        state = max_entangled_state(m)
        for _ in range(50):
            res = prospect_probabilities(state, random_weights(rng, m), mode="raw")
            worst = _worst(worst, float(np.max(np.abs(res.q))))
    return CheckResult(
        "prospects",
        "interference-vanishes-for-maximally-entangled-states",
        worst < 1e-12,
        f"max |q| over maximally entangled states = {worst:.3e}",
    )


def _check_interference_witness(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    res = prospect_probabilities(_bell_like_state(), ModeWeights.normalized([1.0, 1.0]), mode="raw")
    peak = float(np.max(np.abs(res.q)))
    return CheckResult(
        "prospects",
        "entangled-state-interference-witness",
        peak > 0.1,
        f"witness max |q| = {peak:.6f}",
    )


def _check_decoherence_linearity(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    state = _bell_like_state()
    weights = ModeWeights.normalized([1.0, 1.0])
    dephased = dephase_modes(state)
    _, _, q_full = mode_pfq(state.matrix, 2, 2, weights)
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 1.0):
        matrix = (1.0 - lam) * dephased + lam * state.matrix
        _, _, q = mode_pfq(matrix, 2, 2, weights)
        worst = _worst(worst, float(np.max(np.abs(q - lam * q_full))))
    return CheckResult(
        "prospects",
        "interference-linear-under-dephasing",
        worst < 1e-12,
        f"max deviation from linearity = {worst:.3e}",
    )


def _check_quarter_law_closed(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    # every shape pair of the grid, one random mu per alpha, and the uniform pair
    shapes = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
    dists = [
        quarterlaw.BetaPairDistribution.symmetric(alpha, mu)
        for alpha in shapes
        for mu in (*shapes, float(rng.uniform(0.3, 10.0)))
    ]
    dists.append(quarterlaw.BetaPairDistribution.uniform())
    splits = [quarterlaw.q_split_closed(dist) for dist in dists]
    worst = _worst(*(abs(gap) for s in splits for gap in (s.q_plus - 0.25, s.q_minus + 0.25)))
    return CheckResult(
        "quarterlaw",
        "quarter-law-closed-form",
        all(s.q_plus == 0.25 and s.q_minus == -0.25 for s in splits),
        f"{len(splits)} distributions, max deviation from 1/4 = {worst:.3e}",
    )


def _random_beta_pair(rng: np.random.Generator, lambda_plus: float) -> quarterlaw.BetaPairDistribution:
    alpha, beta, mu, nu = (float(rng.uniform(0.3, 10.0)) for _ in range(4))
    return quarterlaw.BetaPairDistribution(
        alpha=alpha, beta=beta, mu=mu, nu=nu, lambda_plus=lambda_plus, lambda_minus=1.0 - lambda_plus
    )


def _check_quarter_law_quadrature(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        dist = _random_beta_pair(rng, float(rng.uniform(0.2, 0.8)))
        closed = quarterlaw.q_split_closed(dist)
        numeric = quarterlaw.q_split_numeric(dist, tol=1e-10)
        worst = _worst(worst, abs(closed.q_plus - numeric.q_plus), abs(closed.q_minus - numeric.q_minus))
    return CheckResult(
        "quarterlaw",
        "quadrature-matches-closed-form",
        worst < 1e-8,
        f"max |closed - quadrature| = {worst:.3e}",
    )


def _check_density_normalization(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        dist = _random_beta_pair(rng, 0.5)
        worst = _worst(worst, abs(quarterlaw.pdf_normalization(dist, tol=1e-10) - 1.0))
    return CheckResult(
        "quarterlaw",
        "density-integrates-to-one",
        worst < 1e-8,
        f"max |integral - 1| = {worst:.3e}",
    )


def _check_critical_amplitude(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    value = becsim.critical_amplitude(-0.9, 0.0)
    return CheckResult(
        "becsim",
        "critical-amplitude-reference-value",
        abs(value - 0.28206) < 5e-4,
        f"critical amplitude at (-0.9, 0) = {value:.6f}",
    )


class _NoiselessCurves:
    """The noiseless (s, u) curves from s0 = -0.9, x0 = 0 at dt = 1e-3 that
    the becsim checks read.

    Each pumping amplitude is integrated once, to ``t_max``, and a check
    reads the prefix up to its own horizon, which holds the same bits as an
    integration to that horizon.  Only s and u are kept.  One store serves
    one :func:`run_checks` call, so no run reuses another's work.
    """

    def __init__(self, t_max: float) -> None:
        self.t_max = t_max
        self._curves: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _params(b: float, t_max: float) -> becsim.BecParams:
        return becsim.BecParams(b=b, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=t_max, n_paths=2)

    def read(self, b: float, t_max: float) -> tuple[np.ndarray, np.ndarray]:
        if t_max > self.t_max:
            raise ValueError(f"curves reach t = {self.t_max}, not t = {t_max}")
        if b not in self._curves:
            traj = becsim.integrate_deterministic(self._params(b, self.t_max))
            self._curves[b] = traj.s, traj.u
        s, u = self._curves[b]
        end = self._params(b, t_max).n_steps + 1
        return s[:end], u[:end]


#: Horizons of the noiseless curves each becsim check reads.
_ENERGY_HORIZON = 100.0
_DICHOTOMY_HORIZON = 200.0


def _check_energy_conservation(
    rng: np.random.Generator, corrupt: bool, workers: int, curves: _NoiselessCurves | None = None
) -> CheckResult:
    curves = curves or _NoiselessCurves(_ENERGY_HORIZON)
    worst = 0.0
    for b in (0.25, 0.5):
        s, u = curves.read(b, _ENERGY_HORIZON)
        h = becsim.hamiltonian(s, u, b)
        worst = _worst(worst, float(np.max(np.abs(h - h[0]))))
    return CheckResult(
        "becsim",
        "energy-conserved-along-noiseless-flow",
        worst < 1e-6,
        f"max energy drift = {worst:.3e}",
    )


def _check_regime_dichotomy(
    rng: np.random.Generator, corrupt: bool, workers: int, curves: _NoiselessCurves | None = None
) -> CheckResult:
    curves = curves or _NoiselessCurves(_DICHOTOMY_HORIZON)
    sub, _ = curves.read(0.25, _DICHOTOMY_HORIZON)
    sup, _ = curves.read(0.5, _DICHOTOMY_HORIZON)
    sub_stays_negative = bool(np.all(sub < 0.0))
    sup_crosses = bool(np.any(sup >= 0.0))
    labels_ok = (
        becsim.regime_classify(0.25, -0.9, 0.0) is becsim.Regime.RABI
        and becsim.regime_classify(0.5, -0.9, 0.0) is becsim.Regime.JOSEPHSON
    )
    return CheckResult(
        "becsim",
        "subcritical-bounded-supercritical-crossing",
        sub_stays_negative and sup_crosses and labels_ok,
        f"subcritical max s = {float(np.max(sub)):.6f}, supercritical max s = {float(np.max(sup)):.6f}",
    )


def _check_ensemble_antisymmetry(rng: np.random.Generator, corrupt: bool, workers: int) -> CheckResult:
    params = becsim.BecParams(
        b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=10.0, n_paths=200, seed=20240
    )
    result = becsim.ensemble_interference(params, workers=workers)
    gap = float(np.max(np.abs(result.q1 + result.q2)))
    sums = float(np.max(np.abs(result.p1 + result.p2 - 1.0)))
    return CheckResult(
        "becsim",
        "interference-factors-antisymmetric",
        gap < 1e-14 and sums == 0.0,
        f"max |q1 + q2| = {gap:.3e}",
    )


Check = Callable[[np.random.Generator, bool, int], CheckResult]

#: The registry: (group, acceptance criterion or None, check), in report
#: order.  A check is called as ``check(rng, corrupt, workers)``; ``corrupt``
#: injects a fault into the prospect normalization check only, ``workers``
#: sizes the pool of the stochastic ensemble.  Sample counts are fixed per
#: check; the acceptance suite runs each numbered check on several streams.
#: The checks in :data:`_CURVE_HORIZONS` also take a ``curves`` store, which
#: :func:`run_checks` shares between them; called without one, each
#: integrates its own curves to its own horizon.
CHECKS: tuple[tuple[str, int | None, Check], ...] = (
    ("events", None, _check_projective_measure),
    ("uncertain", None, _check_uncertain_trace),
    ("uncertain", None, _check_uncertain_commuting),
    ("uncertain", None, _check_uncertain_witness),
    ("prospects", 6, _check_prospect_oracle),
    ("prospects", 5, _check_prospect_axioms),
    ("prospects", 4, _check_zero_interference_product),
    ("prospects", 4, _check_zero_interference_max_entangled),
    ("prospects", None, _check_interference_witness),
    ("prospects", None, _check_decoherence_linearity),
    ("quarterlaw", 2, _check_quarter_law_closed),
    ("quarterlaw", 3, _check_quarter_law_quadrature),
    ("quarterlaw", None, _check_density_normalization),
    ("becsim", 1, _check_critical_amplitude),
    ("becsim", 7, _check_energy_conservation),
    ("becsim", 8, _check_regime_dichotomy),
    ("becsim", None, _check_ensemble_antisymmetry),
)

#: The checks that accept a shared ``curves`` store, with the horizon each reads.
_CURVE_HORIZONS: dict[Check, float] = {
    _check_energy_conservation: _ENERGY_HORIZON,
    _check_regime_dichotomy: _DICHOTOMY_HORIZON,
}


def run_checks(
    seed: int,
    group_filter: str | None = None,
    corrupt: bool = False,
    workers: int = 1,
) -> list[CheckResult]:
    """Run the registered checks, optionally restricted to one group.

    Check ``index`` of :data:`CHECKS` draws from the stream seeded by
    ``(seed, index)``.  ``corrupt`` injects a deliberate fault into the
    prospect normalization check so the failure path of the reporting
    machinery can be exercised.
    """
    if group_filter is not None and group_filter not in GROUPS:
        raise ValueError(f"unknown check group {group_filter!r}; choose from {', '.join(GROUPS)}")
    selected = [
        (index, check) for index, (group, _, check) in enumerate(CHECKS) if group_filter in (None, group)
    ]
    # the checks that read noiseless curves share them, integrated once each
    # to the longest horizon any of them needs
    curves = _NoiselessCurves(max((_CURVE_HORIZONS.get(check, 0.0) for _, check in selected), default=0.0))
    return [
        check(
            np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index]),
            corrupt,
            workers,
            **({"curves": curves} if check in _CURVE_HORIZONS else {}),
        )
        for index, check in selected
    ]
