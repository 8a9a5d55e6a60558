"""The invariant registry behind ``qprob verify`` and the acceptance suite.

Each check exercises one family of library guarantees on seeded random
instances.  A check is called as ``check(rng, run)`` and returns a pass flag
and a short deterministic detail string, so that two runs with the same seed
produce byte-identical reports no matter how many workers integrate the
stochastic ensemble.  Each row of :data:`CHECKS` is the only declaration of
its check: ``(group, criterion, name, check)``, where ``criterion`` is the
acceptance criterion the check gates, or None.  :func:`run_checks` labels
each result from its row; the acceptance suite runs the same functions on
streams of its own.

A :class:`Run` carries what one call shares between its checks: the
``corrupt`` and ``workers`` flags, and the noiseless (s, u) curves that the
becsim checks read, each integrated at most once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import becsim, quarterlaw
from .events import DensityOperator, Observable, event_probability, union_probability
from .prospects import (
    Prospect,
    bell_like_state,
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


#: Horizons of the noiseless curves each becsim check reads.
_ENERGY_HORIZON = 100.0
_DICHOTOMY_HORIZON = 200.0
#: How far :meth:`Run.curve` integrates each curve: the longest of them.
_CURVE_HORIZON = max(_ENERGY_HORIZON, _DICHOTOMY_HORIZON)


def _noiseless_params(b: float, t_max: float) -> becsim.BecParams:
    return becsim.BecParams(b=b, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=t_max, n_paths=2)


@dataclass
class Run:
    """What one :func:`run_checks` call shares between its checks.

    ``corrupt`` injects a fault into the prospect normalization check only;
    ``workers`` sizes the pool of the stochastic ensemble.  :meth:`curve`
    gives the noiseless curves from s0 = -0.9, x0 = 0 at dt = 1e-3.
    """

    corrupt: bool = False
    workers: int = 1
    _curves: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def curve(self, b: float, t_max: float) -> tuple[np.ndarray, np.ndarray]:
        """The noiseless (s, u) curve at pumping ``b`` up to ``t_max``.

        Each pumping amplitude is integrated on first use, once, to the
        longest horizon any check reads; a shorter horizon reads the prefix,
        which holds the same bits as an integration to that horizon.
        """
        if b not in self._curves:
            traj = becsim.integrate_deterministic(_noiseless_params(b, _CURVE_HORIZON))
            self._curves[b] = traj.s, traj.u
        s, u = self._curves[b]
        end = _noiseless_params(b, t_max).n_steps + 1
        return s[:end], u[:end]


def _worst(*values: float) -> float:
    """The largest value, or NaN if any is NaN, so that a NaN fails every bound.

    The builtin ``max`` keeps its first argument when a later one is NaN.
    """
    return float(np.max(values))


def _check_projective_measure(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst_sum = 0.0
    worst_union = 0.0
    for dim in (2, 3, 4, 8):
        for _ in range(100):
            rho = random_density(rng, dim)
            obs = random_observable(rng, dim)
            probs = [event_probability(rho, obs, n) for n in range(dim)]
            if any(p < 0.0 or p > 1.0 for p in probs):
                return False, "probability outside [0, 1]"
            worst_sum = _worst(worst_sum, abs(sum(probs) - 1.0))
            half = list(range(dim // 2))
            union = union_probability(rho, obs, half)
            worst_union = _worst(worst_union, abs(union - sum(probs[n] for n in half)))
    passed = worst_sum < 1e-10 and worst_union < 1e-12
    return passed, f"max |sum p - 1| = {worst_sum:.3e}, max additivity gap = {worst_union:.3e}"


def _check_uncertain_trace(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(100):
            rho = random_density(rng, dim)
            union = UncertainUnion(random_observable(rng, dim), random_weights(rng, dim))
            direct = uncertain_probability(rho, union).p
            via_operator = trace(rho.matrix @ proposition_operator(union)).real
            worst = _worst(worst, abs(direct - via_operator))
    return worst < 1e-12, f"max |p - trace route| = {worst:.3e}"


def _check_uncertain_commuting(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(100):
            obs = Observable.standard(dim)
            rho = DensityOperator.diagonal(rng.dirichlet(np.ones(dim)))
            q = uncertain_probability(rho, UncertainUnion(obs, random_weights(rng, dim))).interference
            worst = _worst(worst, abs(q))
    return worst < 1e-14, f"max |q| = {worst:.3e}"


def _check_uncertain_witness(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho = DensityOperator.pure(plus)
    union = UncertainUnion(Observable.standard(2), ModeWeights.normalized([1.0, 1.0]))
    q = uncertain_probability(rho, union).interference
    return abs(q) > 0.1, f"witness |q| = {abs(q):.6f}"


def _check_prospect_oracle(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    state = bell_like_state()
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
    return gap < 1e-12, f"max deviation from oracle and reference triples = {gap:.3e}"


def _check_prospect_axioms(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    # The injected-fault flag lands here: it perturbs the accumulated gap so
    # the normalization check is the one that reports the failure.
    worst = 1.0 if run.corrupt else 0.0
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
                return False, "family leaves [0, 1]"
            if np.any(np.abs(res.q) > 1.0):
                return False, "|q| exceeds 1"
    return worst < 1e-10, f"max normalization gap = {worst:.3e}"


def _check_zero_interference_product(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    # Raw interference need not vanish for a product state; the vanishing
    # theorem lives in the normalized families, where the sum rules force it.
    worst = 0.0
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        for _ in range(100):
            state = product_state(random_density(rng, dim_a), random_density(rng, dim_b))
            res = prospect_probabilities(state, random_weights(rng, dim_b), mode="normalized")
            worst = _worst(worst, float(np.max(np.abs(res.q))))
    return worst < 1e-12, f"max |q| over product states = {worst:.3e}"


def _check_zero_interference_max_entangled(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst = 0.0
    for m in range(2, 7):
        state = max_entangled_state(m)
        for _ in range(50):
            res = prospect_probabilities(state, random_weights(rng, m), mode="raw")
            worst = _worst(worst, float(np.max(np.abs(res.q))))
    return worst < 1e-12, f"max |q| over maximally entangled states = {worst:.3e}"


def _check_interference_witness(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    res = prospect_probabilities(bell_like_state(), ModeWeights.normalized([1.0, 1.0]), mode="raw")
    peak = float(np.max(np.abs(res.q)))
    return peak > 0.1, f"witness max |q| = {peak:.6f}"


def _check_decoherence_linearity(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    state = bell_like_state()
    weights = ModeWeights.normalized([1.0, 1.0])
    dephased = dephase_modes(state)
    _, _, q_full = mode_pfq(state.matrix, 2, 2, weights)
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 1.0):
        matrix = (1.0 - lam) * dephased + lam * state.matrix
        _, _, q = mode_pfq(matrix, 2, 2, weights)
        worst = _worst(worst, float(np.max(np.abs(q - lam * q_full))))
    return worst < 1e-12, f"max deviation from linearity = {worst:.3e}"


def _check_quarter_law_closed(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
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
    return (
        all(s.q_plus == 0.25 and s.q_minus == -0.25 for s in splits),
        f"{len(splits)} distributions, max deviation from 1/4 = {worst:.3e}",
    )


def _random_beta_pair(rng: np.random.Generator, lambda_plus: float) -> quarterlaw.BetaPairDistribution:
    alpha, beta, mu, nu = (float(rng.uniform(0.3, 10.0)) for _ in range(4))
    return quarterlaw.BetaPairDistribution(
        alpha=alpha, beta=beta, mu=mu, nu=nu, lambda_plus=lambda_plus, lambda_minus=1.0 - lambda_plus
    )


def _check_quarter_law_quadrature(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        dist = _random_beta_pair(rng, float(rng.uniform(0.2, 0.8)))
        closed = quarterlaw.q_split_closed(dist)
        numeric = quarterlaw.q_split_numeric(dist, tol=1e-10)
        worst = _worst(worst, abs(closed.q_plus - numeric.q_plus), abs(closed.q_minus - numeric.q_minus))
    return worst < 1e-8, f"max |closed - quadrature| = {worst:.3e}"


def _check_density_normalization(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        dist = _random_beta_pair(rng, 0.5)
        worst = _worst(worst, abs(quarterlaw.pdf_normalization(dist, tol=1e-10) - 1.0))
    return worst < 1e-8, f"max |integral - 1| = {worst:.3e}"


def _check_critical_amplitude(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    value = becsim.critical_amplitude(-0.9, 0.0)
    return abs(value - 0.28206) < 5e-4, f"critical amplitude at (-0.9, 0) = {value:.6f}"


def _check_energy_conservation(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    worst = 0.0
    for b in (0.25, 0.5):
        s, u = run.curve(b, _ENERGY_HORIZON)
        h = becsim.hamiltonian(s, u, b)
        worst = _worst(worst, float(np.max(np.abs(h - h[0]))))
    return worst < 1e-6, f"max energy drift = {worst:.3e}"


def _check_regime_dichotomy(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    sub, _ = run.curve(0.25, _DICHOTOMY_HORIZON)
    sup, _ = run.curve(0.5, _DICHOTOMY_HORIZON)
    sub_stays_negative = bool(np.all(sub < 0.0))
    sup_crosses = bool(np.any(sup >= 0.0))
    bc = becsim.critical_amplitude(-0.9, 0.0)
    labels_ok = (
        becsim.Regime.of(0.25, bc) is becsim.Regime.RABI
        and becsim.Regime.of(0.5, bc) is becsim.Regime.JOSEPHSON
    )
    return (
        sub_stays_negative and sup_crosses and labels_ok,
        f"subcritical max s = {float(np.max(sub)):.6f}, supercritical max s = {float(np.max(sup)):.6f}",
    )


def _check_ensemble_antisymmetry(rng: np.random.Generator, run: Run) -> tuple[bool, str]:
    params = becsim.BecParams(
        b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=10.0, n_paths=200, seed=20240
    )
    result = becsim.ensemble_interference(params, workers=run.workers)
    gap = float(np.max(np.abs(result.q1 + result.q2)))
    sums = float(np.max(np.abs(result.p1 + result.p2 - 1.0)))
    return gap < 1e-14 and sums == 0.0, f"max |q1 + q2| = {gap:.3e}"


Check = Callable[[np.random.Generator, Run], tuple[bool, str]]

#: The registry: (group, acceptance criterion or None, name, check), in
#: report order.  Sample counts are fixed per check; the acceptance suite
#: runs each numbered check on several streams.
CHECKS: tuple[tuple[str, int | None, str, Check], ...] = (
    ("events", None, "projective-probability-measure", _check_projective_measure),
    ("uncertain", None, "uncertain-trace-agreement", _check_uncertain_trace),
    ("uncertain", None, "interference-vanishes-for-commuting-state", _check_uncertain_commuting),
    ("uncertain", None, "uncertain-union-not-additive", _check_uncertain_witness),
    ("prospects", 6, "interference-decomposition-reference-values", _check_prospect_oracle),
    ("prospects", 5, "probability-normalization", _check_prospect_axioms),
    ("prospects", 4, "interference-vanishes-for-product-states", _check_zero_interference_product),
    ("prospects", 4, "interference-vanishes-for-maximally-entangled-states", _check_zero_interference_max_entangled),
    ("prospects", None, "entangled-state-interference-witness", _check_interference_witness),
    ("prospects", None, "interference-linear-under-dephasing", _check_decoherence_linearity),
    ("quarterlaw", 2, "quarter-law-closed-form", _check_quarter_law_closed),
    ("quarterlaw", 3, "quadrature-matches-closed-form", _check_quarter_law_quadrature),
    ("quarterlaw", None, "density-integrates-to-one", _check_density_normalization),
    ("becsim", 1, "critical-amplitude-reference-value", _check_critical_amplitude),
    ("becsim", 7, "energy-conserved-along-noiseless-flow", _check_energy_conservation),
    ("becsim", 8, "subcritical-bounded-supercritical-crossing", _check_regime_dichotomy),
    ("becsim", None, "interference-factors-antisymmetric", _check_ensemble_antisymmetry),
)

#: The check groups, in report order: the values ``--filter`` accepts.
GROUPS = tuple(dict.fromkeys(group for group, *_ in CHECKS))


def run_checks(
    seed: int,
    group_filter: str | None = None,
    corrupt: bool = False,
    workers: int = 1,
) -> list[CheckResult]:
    """Run the registered checks, optionally restricted to one group.

    Check ``index`` of :data:`CHECKS` draws from the stream seeded by
    ``(seed, index)``, and all of them share one :class:`Run`.  ``corrupt``
    injects a deliberate fault into the prospect normalization check so the
    failure path of the reporting machinery can be exercised.
    """
    if group_filter is not None and group_filter not in GROUPS:
        raise ValueError(f"unknown check group {group_filter!r}; choose from {', '.join(GROUPS)}")
    run = Run(corrupt, workers)
    return [
        CheckResult(group, name, *check(np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index]), run))
        for index, (group, _, name, check) in enumerate(CHECKS)
        if group_filter in (None, group)
    ]
