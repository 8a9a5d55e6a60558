import hashlib
import math
import multiprocessing
import tracemalloc
import weakref

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
    group_noise_generator,
    hamiltonian,
    integrate_deterministic,
)


def lane_s(params, path_index):
    """One noisy path's s: the ensemble kernel on a single lane."""
    return becsim._bloch_lanes(params, path_index, path_index + 1)[0]


def replay_lanes(params, lo, hi, limit=becsim.SMALL_ANGLE):
    """Oracle: the lanes [lo, hi) stepped one expression at a time in (u, v, s),
    with the signs and operation order of :func:`integrate_deterministic`.

    A noise angle takes its cosine and sine from the small-angle polynomials
    where |angle| <= ``limit`` and from np.cos and np.sin elsewhere, so a
    negative ``limit`` sends every angle to np.cos and np.sin.  Returns the
    per-step mean of s, as the kernel reduces it, with s0 at step 0.
    """
    n, b, dt, lanes = params.n_steps, params.b, params.dt, becsim.GROUP_LANES
    half, sixth = 0.5 * dt, dt / 6.0
    first = lo // lanes
    streams = [group_noise_generator(params.seed, g) for g in range(first, -(-hi // lanes))]
    cols = slice(lo - first * lanes, hi - first * lanes)
    angles = np.hstack([gen.standard_normal((n, lanes)) for gen in streams])[:, cols] * (params.sigma * math.sqrt(dt))
    cos, sin = np.cos(angles), np.sin(angles)
    small = np.abs(angles) <= limit
    small_sin = angles[small]
    small_cos = np.empty_like(small_sin)
    becsim._small_angle_cos_sin(small_sin, small_cos, np.empty_like(small_sin))
    cos[small], sin[small] = small_cos, small_sin
    r = math.sqrt(1.0 - params.s0 * params.s0)
    width = hi - lo
    u, v, s = np.full(width, r * math.cos(params.x0)), np.full(width, r * math.sin(params.x0)), np.full(width, params.s0)
    paths = np.empty((n, width))
    for k in range(n):
        c, sn = cos[k], sin[k]
        u, v = u * c - v * sn, v * c + u * sn
        k1u, k1v, k1s = s * v, s * (u + b), b * v
        u2, v2, s2 = u - half * k1u, v + half * k1v, s - half * k1s
        k2u, k2v, k2s = s2 * v2, s2 * (u2 + b), b * v2
        u3, v3, s3 = u - half * k2u, v + half * k2v, s - half * k2s
        k3u, k3v, k3s = s3 * v3, s3 * (u3 + b), b * v3
        u4, v4, s4 = u - dt * k3u, v + dt * k3v, s - dt * k3s
        u = u - sixth * (k1u + 2.0 * (k2u + k3u) + s4 * v4)
        v = v + sixth * (k1v + 2.0 * (k2v + k3v) + s4 * (u4 + b))
        s = s - sixth * (k1s + 2.0 * (k2s + k3s) + b * v4)
        paths[k] = s
    return np.concatenate(([params.s0], np.add.reduce(paths, axis=1) / width))


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
    """Oracle: stochastic Heun stepped directly in (s, x) on one path's noise,
    clamped off the pole; returns s."""
    b, dt, clamp = params.b, params.dt, 1.0 - 1e-12
    group, column = divmod(path_index, becsim.GROUP_LANES)
    normals = group_noise_generator(params.seed, group).standard_normal((params.n_steps, becsim.GROUP_LANES))
    dw = params.sigma * math.sqrt(dt) * normals[:, column]
    s_out = np.empty(params.n_steps + 1)
    s, x = params.s0, params.x0
    s_out[0] = s

    def deriv(si, xi):
        sc = min(clamp, max(-clamp, si))
        root = math.sqrt(1.0 - sc * sc)
        return -b * root * math.sin(xi), si * (1.0 + b * math.cos(xi) / root)

    for k in range(params.n_steps):
        d1s, d1x = deriv(s, x)
        d2s, d2x = deriv(s + dt * d1s, x + dt * d1x + dw[k])
        s += 0.5 * dt * (d1s + d2s)
        x += 0.5 * dt * (d1x + d2x) + dw[k]
        s_out[k + 1] = s
    return s_out


def test_energy_is_conserved_symbolically():
    """Independent oracle: the energy's time derivative vanishes on the flow,
    the polar flow pushed through (u, v) is the Bloch flow, and the Bloch
    energy s^2/2 - b u is conserved by it."""
    import sympy as sp

    s, x, b = sp.symbols("s x b", real=True)
    h = s**2 / 2 - b * sp.sqrt(1 - s**2) * sp.cos(x)
    ds_dt = -b * sp.sqrt(1 - s**2) * sp.sin(x)
    dx_dt = s * (1 + b * sp.cos(x) / sp.sqrt(1 - s**2))
    dh_dt = sp.diff(h, s) * ds_dt + sp.diff(h, x) * dx_dt
    assert sp.simplify(dh_dt) == 0

    u = sp.sqrt(1 - s**2) * sp.cos(x)
    v = sp.sqrt(1 - s**2) * sp.sin(x)
    du_dt = sp.diff(u, s) * ds_dt + sp.diff(u, x) * dx_dt
    dv_dt = sp.diff(v, s) * ds_dt + sp.diff(v, x) * dx_dt
    assert sp.simplify(du_dt - (-s * v)) == 0
    assert sp.simplify(dv_dt - s * (u + b)) == 0
    assert sp.simplify(ds_dt - (-b * v)) == 0

    bu, bv, bs = sp.symbols("u v s", real=True)
    bloch_h = bs**2 / 2 - b * bu
    flow = {bu: -bs * bv, bv: bs * (bu + b), bs: -b * bv}
    assert sp.expand(sum(sp.diff(bloch_h, c) * rate for c, rate in flow.items())) == 0


#: SHA-256 of (mean, m2, drift) from ``_bloch_lanes`` over 700 steps (one
#: full and one partial noise block) at sigma = 0.1, by (b, width).  Widths
#: 63 and 65 sit either side of a noise group.  With ANGLE_BITS and
#: CURVE_BITS they pin both integrators' bits: a change that moves one needs
#: a new KERNEL.
LANE_BITS = {
    (0.25, 1): "4faef19fe7d297e295362c4cd0da5d39cde648856c43b1de12620c476d73cea4",
    (0.25, 63): "2f40be7c8026f2ea1daaab5127c6e6ef16a574f7c4d0825a11a7d60a1a70eb24",
    (0.25, 65): "80651161584b17509201f2cae1ffe3fe5c06e67e0a61d839d46c18786a69fc25",
    (0.25, 200): "7c30118921e540446bfa005001ff47ea7880504023043aadf08f77105522f988",
    (0.25, 1024): "623d2154efe749044b035c01422105b72239bfcf7d777bbc7839260982f3f013",
    (0.5, 1): "0c70b5df75ecc2e8bd9d41b2eff43e1a40a1f12d6c336bfaaac0c5d8edf361de",
    (0.5, 63): "c8844ca9893fe5e67f4829f83f83fc5253b067763ff6ce5ccabca7fb20b2d762",
    (0.5, 65): "c3d8feb3da6361b1f5c029d690e83c6ebacc33c09005e5a8177ebadbcd4a5f47",
    (0.5, 200): "401be161fecaf37cfceb70b3f52bea1ca9a4c7a5a2194bf1d130c8d4533add2a",
    (0.5, 1024): "704e5e498f2d19b87b9acafa37837106a614eca967a62392f827c36256a032a5",
}

#: The same digest at larger noise angles, by (sigma, b, width).  At
#: sigma = 0.6 every angle stays within SMALL_ANGLE and takes the small-angle
#: polynomials, and enough of their values differ from np.cos and np.sin
#: that every row but (0.6, 0.5, 65) moves if they take libm instead.  At
#: 1.5 about 3.5 % of the angles exceed SMALL_ANGLE and take np.cos and
#: np.sin.
ANGLE_BITS = {
    (0.6, 0.25, 65): "0b19511a2c2ebb6c672694ed5738c778624a2e2abd8421d3b64e3aab79f077a5",
    (0.6, 0.25, 200): "eb2b2ed9e682d87d27e6f822109a3d22696c51af0d6596eb79b3aab25335101d",
    (0.6, 0.25, 1024): "2c516de0e837c165e7c311913491263fb88fb72863d71503fd7cbd7f20b3e7b7",
    (0.6, 0.5, 65): "7d0c1d9fcc9b7300b743202c47ffa7fec9c48dd1fee189a63ab4225809c4bc7f",
    (0.6, 0.5, 200): "2bdd3e7348f559ebc37540c811b7249d930be6e3dc8a1797c0af1c5372e39828",
    (0.6, 0.5, 1024): "9d18882d7d0ebba695f83f566f06d681c2d48c85e6f6bec07c99605e3b6182e8",
    (1.5, 0.25, 1): "76463aaa3ecca904e1cca4bb2038aaa9e041fa11b871ae5356754bba00c194fe",
    (1.5, 0.25, 200): "ee4bf3080e524af3d931bc15a7db50ad58be1406b37390d3f676562da7bf2e25",
    (1.5, 0.5, 1): "21e420fd33ab91acf0564e2759d829c28902b2bcd9e7a0fe04ca06a3f466ce7b",
    (1.5, 0.5, 200): "d2b5b265fefe46062a08ea3995ed827eb19c756a9a5240358e806c9581c0f5b8",
}

#: SHA-256 of (u, v, s) from ``integrate_deterministic`` over t = 20, by (b, x0).
CURVE_BITS = {
    (0.25, 0.0): "959b9887d40346f85d8c58e3244cc99aa10928e8bae46af7e395f1d2cd39cd47",
    (0.25, 0.3): "64a9a93cd979c36e00590fa272c7a568400939bef93e1cdea2db7367f689a793",
    (0.5, 0.0): "f55ecb10688ec8879367bf7678e5dc36d5aed615c4fcefc1d1ceadf228783111",
    (0.5, 0.3): "d3c9ee629feefdeac93422a32d55673fe92f72d91d58a92fe69b3cc2b8e54d32",
}

#: The scheme these bits belong to.
GOLDEN_KERNEL = (
    "bloch-lie-rk4/sfc64-groups/taylor-per-angle: exact (u, v) rotation by sigma dW, then classical RK4 "
    "of the Bloch drift; dW from one SFC64 stream per 64-path group; the rotation's cosine and sine from "
    "degree-8 and degree-9 Taylor polynomials where |sigma dW| <= 0.1, and from libm where it is larger"
)


def lanes_digest(sigma, b, width):
    params = BecParams(b=b, sigma=sigma, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.7, n_paths=max(width, 2), seed=5)
    assert params.n_steps == 700
    mean, m2, drift = becsim._bloch_lanes(params, 0, width)
    return hashlib.sha256(mean.tobytes() + m2.tobytes() + np.float64(drift).tobytes()).hexdigest()


class TestGoldenBits:
    @pytest.mark.parametrize("b, width", sorted(LANE_BITS))
    def test_lanes(self, b, width):
        assert (becsim.KERNEL, lanes_digest(0.1, b, width)) == (GOLDEN_KERNEL, LANE_BITS[b, width])

    @pytest.mark.parametrize("sigma, b, width", sorted(ANGLE_BITS))
    def test_lanes_at_larger_angles(self, sigma, b, width):
        assert (becsim.KERNEL, lanes_digest(sigma, b, width)) == (GOLDEN_KERNEL, ANGLE_BITS[sigma, b, width])

    @pytest.mark.parametrize("b, x0", sorted(CURVE_BITS))
    def test_noiseless_curve(self, b, x0):
        traj = integrate_deterministic(BecParams(b=b, sigma=0.0, s0=-0.9, x0=x0, dt=1e-3, t_max=20.0))
        digest = hashlib.sha256(traj.u.tobytes() + traj.v.tobytes() + traj.s.tobytes()).hexdigest()
        assert (becsim.KERNEL, digest) == (GOLDEN_KERNEL, CURVE_BITS[b, x0])


class TestSmallAngles:
    def test_polynomials_are_within_one_ulp_of_libm(self):
        theta = np.linspace(-becsim.SMALL_ANGLE, becsim.SMALL_ANGLE, 400_001)
        cos, sin = np.empty_like(theta), theta.copy()
        becsim._small_angle_cos_sin(sin, cos, np.empty_like(theta))
        for got, want in ((cos, np.cos(theta)), (sin, np.sin(theta))):
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
        at_zero = np.zeros(3)
        cos0 = np.empty(3)
        becsim._small_angle_cos_sin(at_zero, cos0, np.empty(3))
        assert np.all(cos0 == 1.0) and np.all(at_zero == 0.0)

    @pytest.mark.parametrize("sigma, b, lo, hi, other", [
        (0.6, 0.25, 0, 200, None),
        (1.5, 0.25, 0, 200, -1.0),
        (1.5, 0.5, 37, 237, -1.0),
        (5.0, 0.25, 3, 4, math.inf),
    ])
    def test_each_angle_takes_its_own_route(self, sigma, b, lo, hi, other):
        # an angle takes the polynomials where |angle| <= SMALL_ANGLE and
        # np.cos and np.sin elsewhere, whatever the other angles of its block;
        # ``other`` is the limit of a replay whose route the kernel must not
        # match (-1: every angle through libm; inf: through the polynomials).
        # At 0.6 the mean of s is the same on either route.
        params = BecParams(b=b, sigma=sigma, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.7, n_paths=hi, seed=5)
        mean = becsim._bloch_lanes(params, lo, hi)[0]
        assert np.array_equal(mean, replay_lanes(params, lo, hi))
        if other is not None:
            assert not np.array_equal(mean, replay_lanes(params, lo, hi, limit=other))


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
        assert Regime.of(0.25, critical_amplitude(-0.9, 0.0)) is Regime.RABI

    def test_supercritical_is_josephson(self):
        assert Regime.of(0.5, critical_amplitude(-0.9, 0.0)) is Regime.JOSEPHSON

    def test_exact_critical(self):
        bc = critical_amplitude(-0.9, 0.0)
        assert Regime.of(bc, bc) is Regime.CRITICAL

    def test_non_finite_is_not_critical(self):
        for b, s0 in ((math.nan, -0.9), (math.inf, -0.9), (0.25, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                Regime.of(b, critical_amplitude(s0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            Regime.of(0.3, math.nan)


class TestDeterministic:
    def test_free_rotation_without_pumping(self):
        params = BecParams(b=0.0, sigma=0.0, s0=0.4, x0=0.2, dt=1e-3, t_max=5.0)
        traj = integrate_deterministic(params)
        assert np.all(traj.s == 0.4)
        phase = np.unwrap(np.arctan2(traj.v, traj.u))
        assert np.max(np.abs(phase - (0.2 + 0.4 * params.times()))) < 1e-10

    def test_origin_is_fixed_point(self):
        params = BecParams(b=0.3, sigma=0.0, s0=0.0, x0=0.0, dt=1e-3, t_max=2.0)
        traj = integrate_deterministic(params)
        assert np.all(traj.s == 0.0)
        assert np.all(traj.u == 1.0)
        assert np.all(traj.v == 0.0)

    def test_start_next_to_pole_completes(self):
        # the Bloch form has no pole: the start that aborted polar RK4 runs through
        params = BecParams(b=1.0, sigma=0.0, s0=1.0 - 1e-10, x0=-math.pi / 2, dt=1e-3, t_max=1.0)
        traj = integrate_deterministic(params)
        assert all(np.all(np.isfinite(a)) for a in (traj.u, traj.v, traj.s))
        assert np.max(np.abs(traj.s)) <= 1.0
        h = hamiltonian(traj.s, traj.u, params.b)
        assert np.max(np.abs(h - h[0])) < 1e-9

    @pytest.mark.parametrize("b", [0.25, 0.5])
    def test_matches_polar_rk4(self, b):
        params = BecParams(b=b, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=200.0)
        traj = integrate_deterministic(params)
        s_ref, x_ref = polar_rk4(params)
        r_ref = np.sqrt(1.0 - s_ref * s_ref)
        for got, want in ((traj.u, r_ref * np.cos(x_ref)), (traj.v, r_ref * np.sin(x_ref)), (traj.s, s_ref)):
            assert np.max(np.abs(got - want)) < 1e-9

    def test_non_finite_state_is_rejected(self):
        # a step this coarse for pumping this strong overflows the state
        params = BecParams(b=1e300, sigma=0.0, s0=0.5, x0=0.3, dt=1.0, t_max=10.0)
        with pytest.raises(StepRejected, match="non-finite") as excinfo:
            integrate_deterministic(params)
        assert "np.float64" not in str(excinfo.value)

    def test_zero_crossing_dichotomy_dense_grid(self):
        # criterion 8's dichotomy on a ten times finer grid backs its dt = 1e-3 runs
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
        u0 = math.sqrt(1.0 - 0.9**2)
        h0_sub = hamiltonian(-0.9, u0, bc - 0.01)
        h0_sup = hamiltonian(-0.9, u0, bc + 0.01)
        assert h0_sub > bc - 0.01  # energy at s=0 unreachable
        assert h0_sup < bc + 0.01  # reachable


class TestStochastic:
    def test_zero_noise_path_is_the_deterministic_curve(self):
        params = BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=20.0, n_paths=2)
        assert np.array_equal(lane_s(params, 0), integrate_deterministic(params).s)

    @pytest.mark.parametrize("b", [0.25, 0.5])
    def test_matches_polar_heun_away_from_pole(self, b):
        # same noise, two schemes of strong order one: the paths agree to O(dt)
        params = BecParams(b=b, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=2.0, n_paths=8, seed=4)
        for i in range(params.n_paths):
            assert np.max(np.abs(lane_s(params, i) - polar_heun(params, i))) < 1e-4

    def test_start_next_to_pole_completes(self):
        # the start that aborted the polar scheme: every path runs through
        params = BecParams(
            b=1.0, sigma=0.1, s0=1.0 - 1e-10, x0=-math.pi / 2, dt=1e-3, t_max=1.0, n_paths=4
        )
        for i in range(params.n_paths):
            s = lane_s(params, i)
            assert np.all(np.isfinite(s))
            assert np.max(np.abs(s)) <= 1.0
        result = ensemble_interference(params)
        assert np.all(np.isfinite(result.p1)) and np.all(np.isfinite(result.std_err1))
        assert np.all((result.p1 >= 0.0) & (result.p1 <= 1.0))
        assert result.max_norm_drift < 1e-12

    def test_bit_identical_replay(self):
        params = BecParams(b=0.25, sigma=0.15, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, seed=99)
        assert np.array_equal(lane_s(params, 3), lane_s(params, 3))

    def test_distinct_paths_differ(self):
        params = BecParams(b=0.25, sigma=0.15, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, seed=99)
        assert not np.array_equal(lane_s(params, 0), lane_s(params, 1))

    def test_unaligned_range_is_the_mean_of_its_lone_lanes(self):
        # [37, 237) starts and ends inside a noise group and runs two noise
        # blocks, so each lane reads its own column at an offset and a pad;
        # at sigma = 1.5 every block also has angles that take np.cos and np.sin
        for sigma in (0.1, 1.5):
            params = BecParams(b=0.25, sigma=sigma, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.6, n_paths=237, seed=5)
            mean, m2, drift = becsim._bloch_lanes(params, 37, 237)
            lone = [becsim._bloch_lanes(params, i, i + 1) for i in range(37, 237)]
            paths = np.array([s for s, _, _ in lone])
            assert np.max(np.abs(mean - paths.mean(axis=0))) < 1e-14
            assert np.allclose(m2, ((paths - paths.mean(axis=0)) ** 2).sum(axis=0), rtol=1e-10, atol=1e-15)
            assert drift == max(d for _, _, d in lone)

    def test_traced_peak_is_the_two_noise_blocks(self):
        # two 4 MiB noise blocks (512 steps by 1024 lanes) and 1.5 MiB besides:
        # drawing into a separate buffer, or a copying reshape, adds a third
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.6, n_paths=1024, seed=5)
        tracemalloc.start()
        try:
            becsim._bloch_lanes(params, 0, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 2**20

    def test_noise_stream_statistics(self):
        # accumulated increments behave like a Wiener process: the ensemble
        # mean at fixed t stays within four standard errors of zero
        sigma, dt, n_steps, n_paths = 0.1, 1e-3, 1000, 10_000
        groups = -(-n_paths // becsim.GROUP_LANES)
        totals = np.concatenate([
            group_noise_generator(2024, g).standard_normal((n_steps, becsim.GROUP_LANES)).sum(axis=0)
            for g in range(groups)
        ])[:n_paths]
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
        # 2100 paths span three fixed chunks (1024, 1024, 52): two chunks merge
        # to the same bits in either order, three need the fixed order; at
        # sigma = 1.5 some angles of every noise block take np.cos and np.sin
        for sigma in (0.1, 1.5):
            params = BecParams(b=0.25, sigma=sigma, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=2100, seed=11)
            serial = ensemble_interference(params, workers=1)
            parallel = ensemble_interference(params, workers=2)
            assert np.array_equal(serial.p1, parallel.p1)
            assert np.array_equal(serial.q1, parallel.q1)
            assert np.array_equal(serial.std_err1, parallel.std_err1)

    def test_single_path_matches_ensemble_member(self):
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=3, seed=8)
        lone = lane_s(params, 1)
        assert lone.shape == (params.n_steps + 1,)
        assert abs(lone[0] - params.s0) == 0.0
        # the ensemble mean of s is the mean of the single paths it is built from
        mean_s = np.mean([lane_s(params, i) for i in range(params.n_paths)], axis=0)
        result = ensemble_interference(params)
        assert np.max(np.abs(mean_s - (1.0 - 2.0 * result.p1))) < 1e-14

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reference_curve_is_the_zero_noise_path(self, workers):
        # 1500 paths span two chunks; f(t) is the noiseless curve, which is
        # also what the scheme of p(t) gives with the noise off
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=1500, seed=11)
        quiet = BecParams(b=0.25, sigma=0.0, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.5, n_paths=2, seed=11)
        result = ensemble_interference(params, workers=workers)
        assert np.array_equal(result.f1, 0.5 * (1.0 - integrate_deterministic(quiet).s))
        assert np.array_equal(result.f1, 0.5 * (1.0 - lane_s(quiet, 0)))

    @pytest.mark.parametrize("n_paths", [64, 1100])
    def test_std_err_matches_two_pass(self, n_paths):
        # early on var(s) << mean(s)^2, where a one-pass variance cancels;
        # 1100 paths span two chunks of unequal size, which the merge must not lose
        params = BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.05, n_paths=n_paths, seed=5)
        paths = np.array([lane_s(params, i) for i in range(n_paths)])
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

            def imap(self, func, items):
                return map(func, items)

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

    def test_chunks_are_merged_as_they_arrive(self, monkeypatch):
        # a fake kernel over five chunks, serial: when a chunk starts, the
        # merge may still hold the previous chunk's partial but no older one
        partials, alive = [], []

        def fake_lanes(params, lo, hi):
            alive.append(sum(any(ref() is not None for ref in refs) for refs in partials))
            mean, m2 = np.full(params.n_steps + 1, -0.5), np.zeros(params.n_steps + 1)
            partials.append((weakref.ref(mean), weakref.ref(m2)))
            return mean, m2, 0.0

        monkeypatch.setattr(becsim, "_bloch_lanes", fake_lanes)
        params = BecParams(
            b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=0.002,
            n_paths=4 * 1024 + 1, seed=3,
        )
        result = ensemble_interference(params, workers=1)
        assert len(alive) == 5
        assert max(alive) <= 1
        assert np.all(result.p1 == 0.75)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError) as excinfo:
            BecParams(b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=1.0, n_paths=1)
        assert str(excinfo.value) == f"1 paths asked for; at least 2 and at most {becsim.MAX_PATHS} are allowed"
