import math
import multiprocessing

import numpy as np
import pytest

from qprob import becsim
from qprob.becsim import (
    BecParams,
    DenominatorVanishes,
    Regime,
    StepRejected,
    critical_amplitude,
    ensemble_interference,
    hamiltonian,
    integrate_deterministic,
    integrate_sde,
    path_noise_generator,
    regime_classify,
)


def polar_rk4(params):
    """Oracle: classical RK4 stepped directly in (s, x), clamped off the pole."""
    b, dt, clamp = params.b, params.dt, 1.0 - 1e-12
    s_out = np.empty(params.n_steps + 1)
    x_out = np.empty(params.n_steps + 1)
    s, x = params.s0, params.x0
    s_out[0], x_out[0] = s, x

    def deriv(si, xi):
        sc = min(clamp, max(-clamp, si))
        root = math.sqrt(1.0 - sc * sc)
        return -b * root * math.sin(xi), si * (1.0 + b * math.cos(xi) / root)

    for k in range(1, params.n_steps + 1):
        d1s, d1x = deriv(s, x)
        d2s, d2x = deriv(s + 0.5 * dt * d1s, x + 0.5 * dt * d1x)
        d3s, d3x = deriv(s + 0.5 * dt * d2s, x + 0.5 * dt * d2x)
        d4s, d4x = deriv(s + dt * d3s, x + dt * d3x)
        s += dt * (d1s + 2.0 * d2s + 2.0 * d3s + d4s) / 6.0
        x += dt * (d1x + 2.0 * d2x + 2.0 * d3x + d4x) / 6.0
        s_out[k], x_out[k] = s, x
    return s_out, x_out


def polar_heun(params, path_index):
    """Oracle: stochastic Heun stepped directly in (s, x) on one path's noise, clamped off the pole."""
    b, dt, clamp = params.b, params.dt, 1.0 - 1e-12
    generator = path_noise_generator(params.seed, path_index)
    dw = params.sigma * math.sqrt(dt) * generator.standard_normal(params.n_steps)
    s_out = np.empty(params.n_steps + 1)
    x_out = np.empty(params.n_steps + 1)
    s, x = params.s0, params.x0
    s_out[0], x_out[0] = s, x

    def deriv(si, xi):
        sc = min(clamp, max(-clamp, si))
        root = math.sqrt(1.0 - sc * sc)
        return -b * root * math.sin(xi), si * (1.0 + b * math.cos(xi) / root)

    for k in range(params.n_steps):
        d1s, d1x = deriv(s, x)
        d2s, d2x = deriv(s + dt * d1s, x + dt * d1x + dw[k])
        s += 0.5 * dt * (d1s + d2s)
        x += 0.5 * dt * (d1x + d2x) + dw[k]
        s_out[k + 1], x_out[k + 1] = s, x
    return s_out, x_out


def test_energy_is_conserved_symbolically():
    """Independent oracle: the energy's time derivative vanishes on the flow."""
    import sympy as sp

    s, x, b = sp.symbols("s x b", real=True)
    h = s**2 / 2 - b * sp.sqrt(1 - s**2) * sp.cos(x)
    ds_dt = -b * sp.sqrt(1 - s**2) * sp.sin(x)
    dx_dt = s * (1 + b * sp.cos(x) / sp.sqrt(1 - s**2))
    dh_dt = sp.diff(h, s) * ds_dt + sp.diff(h, x) * dx_dt
    assert sp.simplify(dh_dt) == 0


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="s0"):
            BecParams(b=0.1, sigma=0.0, s0=1.0, x0=0.0)
        with pytest.raises(ValueError, match="step"):
            BecParams(b=0.1, sigma=0.0, s0=0.5, x0=0.0, dt=0.0)
        with pytest.raises(ValueError, match="horizon"):
            BecParams(b=0.1, sigma=0.0, s0=0.5, x0=0.0, dt=1.0, t_max=0.5)
        with pytest.raises(ValueError, match="pumping"):
            BecParams(b=-0.1, sigma=0.0, s0=0.5, x0=0.0)
        with pytest.raises(ValueError, match="noise"):
            BecParams(b=0.1, sigma=-0.1, s0=0.5, x0=0.0)

    @pytest.mark.parametrize("name", ["b", "sigma", "s0", "x0", "dt", "t_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, name, value):
        fields = dict(b=0.1, sigma=0.1, s0=0.5, x0=0.0, dt=1e-3, t_max=1.0)
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BecParams(**fields)

    def test_step_count_is_capped(self):
        fields = dict(b=0.1, sigma=0.1, s0=0.5, x0=0.0, dt=1.0)
        assert BecParams(**fields, t_max=float(becsim.MAX_STEPS)).n_steps == becsim.MAX_STEPS
        with pytest.raises(ValueError, match=f"needs {becsim.MAX_STEPS + 1} steps"):
            BecParams(**fields, t_max=float(becsim.MAX_STEPS + 1))
        with pytest.raises(ValueError, match="needs inf steps"):
            BecParams(**{**fields, "dt": 5e-324}, t_max=1.0)

    def test_path_count_is_capped(self):
        fields = dict(b=0.1, sigma=0.1, s0=0.5, x0=0.0, dt=1e-3, t_max=1.0)
        assert BecParams(**fields, n_paths=becsim.MAX_PATHS).n_paths == becsim.MAX_PATHS
        with pytest.raises(ValueError, match=f"at most {becsim.MAX_PATHS} are allowed"):
            BecParams(**fields, n_paths=becsim.MAX_PATHS + 1)

    def test_step_grid(self):
        params = BecParams(b=0.1, sigma=0.0, s0=0.5, x0=0.0, dt=1e-3, t_max=2.0)
        assert params.n_steps == 2000
        times = params.times()
        assert len(times) == 2001
        assert np.all(np.diff(times) > 0)


class TestCriticalAmplitude:
    def test_reference_value(self):
        assert critical_amplitude(-0.9, 0.0) == pytest.approx(0.28206, abs=5e-4)

    def test_zero_imbalance(self):
        assert critical_amplitude(0.0, 0.0) == 0.0

    def test_full_imbalance_gives_upper_bound(self):
        assert critical_amplitude(1.0, 0.0) == 0.5
        assert critical_amplitude(-1.0, 2.3) == 0.5

    def test_range_for_zero_phase(self):
        for s0 in np.linspace(-0.99, 0.99, 21):
            assert 0.0 <= critical_amplitude(float(s0), 0.0) <= 0.5

    def test_vanishing_denominator(self):
        with pytest.raises(DenominatorVanishes):
            critical_amplitude(0.0, math.pi)

    def test_rejects_non_finite_state(self):
        for s0, x0 in ((math.nan, 0.0), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                critical_amplitude(s0, x0)


class TestRegimeClassify:
    def test_subcritical_is_rabi(self):
        assert regime_classify(0.25, -0.9, 0.0) is Regime.RABI

    def test_supercritical_is_josephson(self):
        assert regime_classify(0.5, -0.9, 0.0) is Regime.JOSEPHSON

    def test_exact_critical(self):
        bc = critical_amplitude(-0.9, 0.0)
        assert regime_classify(bc, -0.9, 0.0) is Regime.CRITICAL

    def test_non_finite_is_not_critical(self):
        for b, s0 in ((math.nan, -0.9), (math.inf, -0.9), (0.25, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                regime_classify(b, s0, 0.0)


class TestDeterministic:
    def test_free_rotation_without_pumping(self):
        params = BecParams(b=0.0, sigma=0.0, s0=0.4, x0=0.2, dt=1e-3, t_max=5.0)
        traj = integrate_deterministic(params)
        assert np.all(traj.s == 0.4)
        assert np.max(np.abs(traj.x - (0.2 + 0.4 * traj.times))) < 1e-10

    def test_origin_is_fixed_point(self):
        params = BecParams(b=0.3, sigma=0.0, s0=0.0, x0=0.0, dt=1e-3, t_max=2.0)
        traj = integrate_deterministic(params)
        assert np.all(traj.s == 0.0)
        assert np.all(traj.x == 0.0)

    @pytest.mark.parametrize("b", [0.25, 0.5])
    def test_energy_drift(self, b):
        params = BecParams(b=b, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=100.0)
        traj = integrate_deterministic(params)
        h = hamiltonian(traj.s, traj.x, b)
        assert np.max(np.abs(h - h[0])) < 1e-6

    def test_fourth_order_convergence(self):
        # steps coarse enough that truncation error dominates rounding noise
        def endpoint(dt):
            params = BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=dt, t_max=20.0)
            traj = integrate_deterministic(params)
            return np.array([traj.s[-1], traj.x[-1]])

        reference = endpoint(1e-4)
        err_coarse = np.max(np.abs(endpoint(8e-3) - reference))
        err_fine = np.max(np.abs(endpoint(4e-3) - reference))
        order = math.log2(err_coarse / err_fine)
        assert 3.5 < order < 4.5

    def test_start_next_to_pole_completes(self):
        # the Bloch form has no pole: the start that aborted polar RK4 runs through
        params = BecParams(b=1.0, sigma=0.0, s0=1.0 - 1e-10, x0=-math.pi / 2, dt=1e-3, t_max=1.0)
        traj = integrate_deterministic(params)
        assert np.all(np.isfinite(traj.s)) and np.all(np.isfinite(traj.x))
        assert np.max(np.abs(traj.s)) <= 1.0
        h = hamiltonian(traj.s, traj.x, params.b)
        assert np.max(np.abs(h - h[0])) < 1e-9

    @pytest.mark.parametrize("b", [0.25, 0.5])
    def test_matches_polar_rk4(self, b):
        params = BecParams(b=b, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=200.0)
        traj = integrate_deterministic(params)
        s_ref, x_ref = polar_rk4(params)
        assert np.max(np.abs(traj.s - s_ref)) < 1e-9
        assert np.max(np.abs(traj.x - x_ref)) < 1e-9

    def test_non_finite_state_is_rejected(self):
        # a step this coarse for pumping this strong overflows the state
        params = BecParams(b=1e300, sigma=0.0, s0=0.5, x0=0.3, dt=1.0, t_max=10.0)
        with pytest.raises(StepRejected, match="non-finite") as excinfo:
            integrate_deterministic(params)
        assert "np.float64" not in str(excinfo.value)

    def test_zero_crossing_dichotomy(self):
        sub = integrate_deterministic(
            BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=200.0)
        )
        sup = integrate_deterministic(
            BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=200.0)
        )
        assert np.all(sub.s < 0.0)
        assert np.any(sup.s >= 0.0)

    def test_zero_crossing_dichotomy_dense_grid(self):
        # same dichotomy on a ten times finer grid backs the coarse runs
        sub = integrate_deterministic(
            BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-4, t_max=200.0)
        )
        sup = integrate_deterministic(
            BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-4, t_max=200.0)
        )
        assert np.all(sub.s < 0.0)
        assert np.any(sup.s >= 0.0)

    def test_crossing_threshold_matches_critical_amplitude(self):
        # energy argument: s can reach 0 iff the pumping is supercritical
        bc = critical_amplitude(-0.9, 0.0)
        h0_sub = hamiltonian(-0.9, 0.0, bc - 0.01)
        h0_sup = hamiltonian(-0.9, 0.0, bc + 0.01)
        assert h0_sub > bc - 0.01  # energy at s=0 unreachable
        assert h0_sup < bc + 0.01  # reachable


class TestStochastic:
    def test_zero_noise_path_is_the_deterministic_curve(self):
        params = BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=20.0, n_paths=1)
        lane = integrate_sde(params, 0)
        rk4 = integrate_deterministic(params)
        assert np.array_equal(lane.s, rk4.s)
        assert np.array_equal(lane.x, rk4.x)

    @pytest.mark.parametrize("b", [0.25, 0.5])
    def test_matches_polar_heun_away_from_pole(self, b):
        # same noise, two schemes of strong order one: the paths agree to O(dt)
        params = BecParams(b=b, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=2.0, n_paths=8, seed=4)
        for i in range(params.n_paths):
            path = integrate_sde(params, i)
            s_ref, x_ref = polar_heun(params, i)
            assert np.max(np.abs(path.s - s_ref)) < 1e-4
            assert np.max(np.abs(path.x - x_ref)) < 5e-4

    def test_start_next_to_pole_completes(self):
        # the start that aborted the polar scheme: every path runs through
        params = BecParams(
            b=1.0, sigma=0.1, s0=1.0 - 1e-10, x0=-math.pi / 2, dt=1e-3, t_max=1.0, n_paths=4
        )
        for i in range(params.n_paths):
            path = integrate_sde(params, i)
            assert np.all(np.isfinite(path.s)) and np.all(np.isfinite(path.x))
            assert np.max(np.abs(path.s)) <= 1.0
        result = ensemble_interference(params)
        assert np.all(np.isfinite(result.p1)) and np.all(np.isfinite(result.std_err1))
        assert np.all((result.p1 >= 0.0) & (result.p1 <= 1.0))
        assert result.max_norm_drift < 1e-12

    def test_zero_noise_matches_rk4_over_short_horizon(self):
        params = BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.02, n_paths=1)
        heun = integrate_sde(params, 0)
        rk4 = integrate_deterministic(params)
        assert np.max(np.abs(heun.s - rk4.s)) < 1e-9
        assert np.max(np.abs(heun.x - rk4.x)) < 1e-9

    def test_bit_identical_replay(self):
        params = BecParams(b=0.25, sigma=0.15, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, seed=99)
        first = integrate_sde(params, 3)
        second = integrate_sde(params, 3)
        assert np.array_equal(first.s, second.s)
        assert np.array_equal(first.x, second.x)

    def test_distinct_paths_differ(self):
        params = BecParams(b=0.25, sigma=0.15, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, seed=99)
        assert not np.array_equal(integrate_sde(params, 0).s, integrate_sde(params, 1).s)

    def test_noise_stream_statistics(self):
        # accumulated increments behave like a Wiener process: the ensemble
        # mean at fixed t stays within four standard errors of zero
        sigma, dt, n_steps, n_paths = 0.1, 1e-3, 1000, 10_000
        totals = np.empty(n_paths)
        for i in range(n_paths):
            totals[i] = path_noise_generator(2024, i).standard_normal(n_steps).sum()
        mean_w = sigma * math.sqrt(dt) * float(totals.mean())
        t = n_steps * dt
        assert abs(mean_w) < 4.0 * sigma * math.sqrt(t) / math.sqrt(n_paths)


class TestEnsemble:
    def test_zero_noise_gives_zero_interference(self):
        params = BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=2.0, n_paths=50)
        result = ensemble_interference(params)
        assert np.all(result.q1 == 0.0)
        assert np.all(result.q2 == 0.0)
        assert np.all(result.std_err1 == 0.0)

    def test_population_and_interference_identities(self):
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=2.0, n_paths=100, seed=5)
        result = ensemble_interference(params)
        assert np.all(result.p1 + result.p2 == 1.0)
        assert np.all(result.f1 + result.f2 == 1.0)
        assert np.max(np.abs(result.q1 + result.q2)) < 1e-14
        assert np.array_equal(result.q1, result.p1 - result.f1)
        assert np.array_equal(result.q2, result.p2 - result.f2)

    def test_rerun_is_bit_identical(self):
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, n_paths=100, seed=5)
        first = ensemble_interference(params)
        second = ensemble_interference(params)
        assert np.array_equal(first.p1, second.p1)
        assert np.array_equal(first.q1, second.q1)
        assert np.array_equal(first.std_err1, second.std_err1)

    def test_worker_count_does_not_change_results(self):
        # 1500 paths span two fixed chunks, so the pool actually engages
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=1500, seed=11)
        serial = ensemble_interference(params, workers=1)
        parallel = ensemble_interference(params, workers=2)
        assert np.array_equal(serial.p1, parallel.p1)
        assert np.array_equal(serial.q1, parallel.q1)
        assert np.array_equal(serial.std_err1, parallel.std_err1)

    def test_single_path_matches_ensemble_member(self):
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=3, seed=8)
        lone = integrate_sde(params, 1)
        assert lone.s.shape == (params.n_steps + 1,)
        assert abs(lone.s[0] - params.s0) == 0.0
        # the ensemble mean of s is the mean of the single paths it is built from
        mean_s = np.mean([integrate_sde(params, i).s for i in range(params.n_paths)], axis=0)
        result = ensemble_interference(params)
        assert np.max(np.abs(mean_s - (1.0 - 2.0 * result.p1))) < 1e-14

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reference_curve_is_the_zero_noise_path(self, workers):
        # 1500 paths span two chunks; f(t) is the noiseless curve, which is
        # also what the scheme of p(t) gives with the noise off
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=1500, seed=11)
        quiet = BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=1, seed=11)
        result = ensemble_interference(params, workers=workers)
        assert np.array_equal(result.f1, 0.5 * (1.0 - integrate_deterministic(quiet).s))
        assert np.array_equal(result.f1, 0.5 * (1.0 - integrate_sde(quiet, 0).s))

    @pytest.mark.parametrize("n_paths", [64, 1100])
    def test_std_err_matches_two_pass(self, n_paths):
        # early on var(s) << mean(s)^2, where a one-pass variance cancels;
        # 1100 paths span two chunks of unequal size, which the merge must not lose
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.05, n_paths=n_paths, seed=5)
        paths = np.array([integrate_sde(params, i).s for i in range(n_paths)])
        two_pass = 0.5 * np.sqrt(np.sum((paths - paths.mean(axis=0)) ** 2, axis=0) / (n_paths - 1) / n_paths)
        result = ensemble_interference(params)
        assert result.std_err1[0] == 0.0
        assert np.all(two_pass[1:] > 0.0)
        assert np.max(np.abs(result.std_err1[1:] / two_pass[1:] - 1.0)) < 1e-8
        assert np.max(np.abs(result.p1 - 0.5 * (1.0 - paths.mean(axis=0)))) < 1e-14

    def test_pool_is_capped_at_usable_cpus(self, monkeypatch):
        requested = []

        class RecordingPool:
            # runs the chunks in this process: no worker is ever started
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, items):
                return [func(*item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(becsim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        params = BecParams(
            b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.002,
            n_paths=3 * 1024 + 1, seed=3,
        )
        pooled = ensemble_interference(params, workers=1000)
        assert requested == [2]
        serial = ensemble_interference(params, workers=1)
        assert requested == [2]
        assert np.array_equal(pooled.p1, serial.p1)

    def test_needs_two_paths(self):
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, n_paths=1)
        with pytest.raises(ValueError, match="two paths"):
            ensemble_interference(params)
