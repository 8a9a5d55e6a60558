"""Acceptance gate: every criterion at its stated tolerance.

Each criterion reports one summary line via the ``acceptance`` fixture; the
stochastic ensembles share module-scoped fixtures because they dominate the
runtime.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qprob
from qprob.becsim import (
    BecParams,
    critical_amplitude,
    ensemble_interference,
    integrate_deterministic,
)
from qprob.events import DensityOperator
from qprob.prospects import (
    CompositeState,
    Prospect,
    max_entangled_state,
    product_state,
    prospect_probabilities,
    prospect_state,
)
from qprob.quarterlaw import BetaPairDistribution, q_split_closed, q_split_numeric
from qprob.sampling import random_density, random_entangled_pure, random_weights
from qprob.uncertain import ModeWeights

#: One clean stream for every random batch in this module.
RNG = np.random.default_rng(20240601)

#: Fixed ensemble seed for the stochastic criteria: the seed the README
#: gives for the paper figures (``run_interference_figures.py --seed 4``).
ENSEMBLE_SEED = 4


def test_criterion_1_critical_amplitude(acceptance):
    value = critical_amplitude(-0.9, 0.0)
    acceptance(
        1,
        "critical-amplitude-reference",
        abs(value - 0.28206) < 5e-4,
        f"critical amplitude {value:.5f} vs 0.28206",
    )


def test_criterion_2_quarter_law_closed_form(acceptance):
    shapes = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
    exact = True
    for alpha in shapes:
        for mu in shapes:
            split = q_split_closed(BetaPairDistribution.symmetric(alpha, mu))
            exact = exact and split.q_plus == 0.25 and split.q_minus == -0.25
    uniform = q_split_closed(BetaPairDistribution.uniform())
    exact = exact and uniform == (0.25, -0.25)
    acceptance(2, "quarter-law-closed-form", exact, f"{len(shapes)**2} symmetric configurations exact")


def test_criterion_3_quarter_law_quadrature(acceptance):
    worst = 0.0
    for _ in range(200):
        lam = float(RNG.uniform(0.2, 0.8))
        dist = BetaPairDistribution(
            alpha=float(RNG.uniform(0.3, 10.0)),
            beta=float(RNG.uniform(0.3, 10.0)),
            mu=float(RNG.uniform(0.3, 10.0)),
            nu=float(RNG.uniform(0.3, 10.0)),
            lambda_plus=lam,
            lambda_minus=1.0 - lam,
        )
        closed = q_split_closed(dist)
        numeric = q_split_numeric(dist, tol=1e-10)
        worst = max(worst, abs(closed.q_plus - numeric.q_plus), abs(closed.q_minus - numeric.q_minus))
    acceptance(3, "quarter-law-quadrature", worst < 1e-8, f"max |closed - quadrature| = {worst:.2e}")


def test_criterion_4a_product_states(acceptance):
    worst = 0.0
    dims = ((2, 2), (2, 3), (3, 3))
    for i in range(500):
        dim_a, dim_b = dims[i % 3]
        state = product_state(random_density(RNG, dim_a), random_density(RNG, dim_b))
        res = prospect_probabilities(state, random_weights(RNG, dim_b), mode="normalized")
        worst = max(worst, float(np.max(np.abs(res.q))))
    acceptance(
        4,
        "zero-interference-theorems: product states",
        worst < 1e-12,
        f"product max |q| = {worst:.2e}",
    )


def test_criterion_4b_max_entangled(acceptance):
    worst = 0.0
    for m in range(2, 7):
        state = max_entangled_state(m)
        for _ in range(100):
            res = prospect_probabilities(state, random_weights(RNG, m), mode="raw")
            worst = max(worst, float(np.max(np.abs(res.q))))
    acceptance(
        4,
        "zero-interference-theorems: maximally entangled",
        worst < 1e-12,
        f"maximally entangled max |q| = {worst:.2e}",
    )


def test_criterion_5_probability_measure_axioms(acceptance):
    worst_sum = 0.0
    bounds_ok = True
    dims = ((2, 2), (2, 3), (3, 3))
    for i in range(1000):
        dim_a, dim_b = dims[i % 3]
        state = random_entangled_pure(RNG, dim_a, dim_b)
        res = prospect_probabilities(state, random_weights(RNG, dim_b), mode="normalized")
        worst_sum = max(
            worst_sum,
            abs(float(res.p.sum()) - 1.0),
            abs(float(res.f.sum()) - 1.0),
            abs(float(res.q.sum())),
        )
        bounds_ok = bounds_ok and bool(
            np.all((res.p >= 0.0) & (res.p <= 1.0))
            and np.all((res.f >= 0.0) & (res.f <= 1.0))
            and np.all(np.abs(res.q) <= 1.0)
        )
    acceptance(
        5,
        "probability-measure-axioms",
        worst_sum < 1e-10 and bounds_ok,
        f"max sum deviation = {worst_sum:.2e}, bounds {'held' if bounds_ok else 'violated'}",
    )


def test_criterion_6_bell_like_oracle(acceptance):
    amplitudes = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)
    state = CompositeState(rho=DensityOperator.pure(amplitudes), dim_a=2, dim_b=2)
    weights = ModeWeights.normalized([1.0, 1.0])

    # independent dense-matrix oracle, entry by entry
    rho = state.matrix
    w = weights.values
    oracle_p = np.empty(2)
    oracle_f = np.empty(2)
    oracle_q = np.empty(2)
    for n in range(2):
        pi = prospect_state(Prospect(n=n, weights=weights), 2)
        oracle_p[n] = float(np.vdot(pi, rho @ pi).real)
        oracle_f[n] = sum(abs(w[a]) ** 2 * rho[n * 2 + a, n * 2 + a].real for a in range(2))
        acc = 0.0 + 0.0j
        for a in range(2):
            for b in range(2):
                if a != b:
                    acc += np.conj(w[a]) * w[b] * rho[n * 2 + a, n * 2 + b]
        oracle_q[n] = acc.real

    raw = prospect_probabilities(state, weights, mode="raw")
    gap = max(
        float(np.max(np.abs(raw.p - oracle_p))),
        float(np.max(np.abs(raw.f - oracle_f))),
        float(np.max(np.abs(raw.q - oracle_q))),
        float(np.max(np.abs(raw.p - [0.5, 0.0]))),
        float(np.max(np.abs(raw.f - [0.25, 0.25]))),
        float(np.max(np.abs(raw.q - [0.25, -0.25]))),
    )
    normalized = prospect_probabilities(state, weights, mode="normalized")
    gap = max(
        gap,
        float(np.max(np.abs(normalized.p - [1.0, 0.0]))),
        float(np.max(np.abs(normalized.f - [0.5, 0.5]))),
        float(np.max(np.abs(normalized.q - [0.5, -0.5]))),
    )
    acceptance(6, "bell-like-oracle-instance", gap < 1e-12, f"max deviation = {gap:.2e}")


def test_criterion_7a_energy_drift(acceptance):
    worst = 0.0
    for b in (0.25, 0.5):
        params = BecParams(b=b, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=100.0)
        traj = integrate_deterministic(params)
        h = 0.5 * traj.s**2 - b * np.sqrt(1.0 - traj.s**2) * np.cos(traj.x)
        worst = max(worst, float(np.max(np.abs(h - h[0]))))
    acceptance(
        7,
        "bec-deterministic-integrity: energy drift",
        worst < 1e-6,
        f"max energy drift = {worst:.2e}",
    )


def test_criterion_7b_integrator_order(acceptance):
    def endpoint(dt):
        params = BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=dt, t_max=20.0)
        traj = integrate_deterministic(params)
        return np.array([traj.s[-1], traj.x[-1]])

    reference = endpoint(1e-5)
    err_coarse = np.max(np.abs(endpoint(8e-3) - reference))
    err_fine = np.max(np.abs(endpoint(4e-3) - reference))
    order = math.log2(err_coarse / err_fine)
    acceptance(
        7,
        "bec-deterministic-integrity: step-halving order",
        3.5 < order < 4.5,
        f"measured order = {order:.2f}",
    )


def test_criterion_8_regime_dichotomy(acceptance):
    sub = integrate_deterministic(
        BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=200.0)
    )
    sup = integrate_deterministic(
        BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=200.0)
    )
    sub_bounded = bool(np.all(sub.s < 0.0))
    sup_crosses = bool(np.any(sup.s >= 0.0))
    acceptance(
        8,
        "regime-dichotomy",
        sub_bounded and sup_crosses,
        f"subcritical max s = {float(np.max(sub.s)):.4f}, supercritical crosses = {sup_crosses}",
    )


@pytest.fixture(scope="module")
def ensemble_sub():
    params = BecParams(
        b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=100.0, n_paths=2000, seed=ENSEMBLE_SEED
    )
    return ensemble_interference(params)


@pytest.fixture(scope="module")
def ensemble_sup():
    params = BecParams(
        b=0.5, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=100.0, n_paths=2000, seed=ENSEMBLE_SEED
    )
    return ensemble_interference(params)


@pytest.fixture(scope="module")
def sigma_sweep():
    runs = {}
    for sigma in (0.2, 0.1, 0.05):
        params = BecParams(
            b=0.25, sigma=sigma, s0=-0.9, x0=0.0, dt=1e-3, t_max=20.0, n_paths=4000,
            seed=ENSEMBLE_SEED,
        )
        runs[sigma] = ensemble_interference(params)
    return runs


def test_criterion_9a_antisymmetry(acceptance, ensemble_sub, ensemble_sup):
    worst = max(
        float(np.max(np.abs(ensemble_sub.q1 + ensemble_sub.q2))),
        float(np.max(np.abs(ensemble_sup.q1 + ensemble_sup.q2))),
    )
    acceptance(
        9,
        "stochastic-properties: antisymmetric factors",
        worst < 1e-14,
        f"max |q1 + q2| = {worst:.2e}",
    )


def test_criterion_9b_supercritical_fluctuations(acceptance, ensemble_sub, ensemble_sup):
    var_sub = float(np.var(ensemble_sub.q1))
    var_sup = float(np.var(ensemble_sup.q1))
    acceptance(
        9,
        "stochastic-properties: supercritical fluctuations larger",
        var_sup > var_sub,
        f"time-variance {var_sup:.2e} (supercritical) vs {var_sub:.2e} (subcritical)",
    )


def test_criterion_9c_noise_strength_limit(acceptance, sigma_sweep):
    peaks = {}
    errors = {}
    for sigma, run in sigma_sweep.items():
        k = int(np.argmax(np.abs(run.q1)))
        peaks[sigma] = float(np.abs(run.q1[k]))
        errors[sigma] = float(run.std_err1[k])
    ok = True
    for hi, lo in ((0.2, 0.1), (0.1, 0.05)):
        ok = ok and peaks[hi] > peaks[lo] - 2.0 * (errors[hi] + errors[lo])
    acceptance(
        9,
        "stochastic-properties: interference shrinks with noise",
        ok,
        "max|q1| = " + ", ".join(f"{peaks[s]:.4f} (sigma={s})" for s in (0.2, 0.1, 0.05)),
    )


def test_criterion_10_verify_determinism(acceptance, tmp_path):
    # A minimal env keeps a caller's QPROB_SEED / QPROB_THREADS out of the
    # child; PYTHONPATH points at the very qprob this process imported, so
    # the child runs the code under test whether it is installed or not.
    package_root = str(Path(qprob.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "4"):
        # Each run writes its own report.  The report echoes --out, so both
        # runs pass the same relative name, each from its own directory.
        run_dir = tmp_path / f"threads_{threads}"
        run_dir.mkdir()
        report = run_dir / "verify.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qprob.cli", "verify", "--seed", "7", "--out", report.name],
            capture_output=True,
            cwd=run_dir,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "QPROB_THREADS": threads},
        )
        if proc.returncode != 0 or not report.is_file():
            acceptance(
                10,
                "verify-run-determinism",
                False,
                f"QPROB_THREADS={threads} exited {proc.returncode}"
                f"{'' if report.is_file() else ' without a report'}: {proc.stderr.decode()}",
            )
        outputs.append((proc.stdout, report.read_bytes()))
    identical = outputs[0] == outputs[1]
    acceptance(
        10,
        "verify-run-determinism",
        identical,
        f"stdout and report bytes identical across QPROB_THREADS (exit 0, {len(outputs[0][1])} report bytes)",
    )
