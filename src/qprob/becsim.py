"""Two-mode condensate dynamics and the time-resolved interference factor.

The population imbalance s and phase difference x obey

    ds/dt = -b * sqrt(1 - s^2) * sin(x)
    dx    =  s * (1 + b * cos(x) / sqrt(1 - s^2)) dt + sigma dW

with pumping amplitude b and phase noise of strength sigma.  Without noise
the motion conserves H(s, x) = s^2/2 - b*sqrt(1-s^2)*cos(x) and splits into
two regimes around a critical pumping amplitude set by the initial
conditions: bounded oscillations of s below it, zero-crossing oscillations
above it.

Mode populations are (1 -+ s)/2.  Averaging them over a noisy ensemble gives
p_n(t); the same dynamics with the noise switched off gives the classical
curve f_n(t); their difference is the interference factor q_n(t).

Everything is integrated in Cartesian Bloch coordinates
u = sqrt(1-s^2) cos(x), v = sqrt(1-s^2) sin(x), where the noiseless flow

    du/dt = -s v,   dv/dt = s (u + b),   ds/dt = -b v

is polynomial (the bosonic Josephson model of Smerzi, Fantoni, Giovanazzi
and Shenoy, PRL 79, 4950 (1997)) and has no pole at |s| = 1, and where the
phase noise is an exact rotation of (u, v) by sigma dW.  A noisy step
applies that rotation and then one classical RK4 step of the flow, the
same RK4 step that integrates the noiseless curve.

Noisy paths are keyed by (seed, path index) through a counter-based
generator, which makes every ensemble bit-reproducible no matter how paths
are scheduled.  Each fixed-size path chunk yields its per-step mean and
centred sum of squares; the chunks are merged in chunk order, so a worker
pool of any size produces identical output.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Paths per reduction chunk; fixed so that worker counts cannot influence
#: floating-point summation order.
CHUNK_PATHS = 1024

#: Steps per noise block inside the path kernel; a block holds one row of
#: cosines and one row of sines of the noise angles per step.
_NOISE_BLOCK = 512

#: Largest step count a run may ask for, checked before anything is
#: allocated.  It is five times the 2e6 steps of the finest run in the
#: acceptance suite; the noiseless curve alone then takes 160 MB.
MAX_STEPS = 10**7

#: Largest path count a run may ask for, checked before anything is
#: allocated.  It is 250 times the 4,000 paths of the largest ensemble in the
#: acceptance suite; at the default 1e5 steps such a run is 1e11 path-steps,
#: about three hours of one CPU at 100 ns a path-step.
MAX_PATHS = 10**6

#: The scheme of every noisy path, as named in reports.
KERNEL = "bloch-lie-rk4: exact (u, v) rotation by sigma dW, then classical RK4 of the Bloch drift"


class StepRejected(RuntimeError):
    """The state of a path turned non-finite: the step is far too coarse
    for the dynamics."""


class DenominatorVanishes(ValueError):
    """The critical-amplitude denominator is too close to zero."""


class Regime(Enum):
    RABI = "Rabi"
    JOSEPHSON = "Josephson"
    CRITICAL = "Critical"


@dataclass(frozen=True)
class BecParams:
    """Integration setup: dynamics, grid, ensemble size and seed.

    Times are dimensionless; the horizon is realized as round(t_max/dt)
    steps of exactly dt, at most :data:`MAX_STEPS` of them, and at most
    :data:`MAX_PATHS` paths are run.
    """

    b: float
    sigma: float
    s0: float
    x0: float
    dt: float = 1e-3
    t_max: float = 100.0
    n_paths: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("b", "sigma", "s0", "x0", "dt", "t_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not abs(self.s0) < 1.0:
            raise ValueError(f"initial imbalance must satisfy |s0| < 1, got {self.s0!r}")
        if not self.dt > 0.0:
            raise ValueError(f"time step must be positive, got {self.dt!r}")
        if not self.t_max > self.dt:
            raise ValueError(f"horizon {self.t_max!r} must exceed the step {self.dt!r}")
        steps = self.t_max / self.dt
        if not (math.isfinite(steps) and round(steps) <= MAX_STEPS):
            raise ValueError(
                f"horizon {self.t_max!r} at step {self.dt!r} needs {steps:.15g} steps; "
                f"at most {MAX_STEPS} are allowed"
            )
        if self.b < 0.0:
            raise ValueError(f"pumping amplitude must be nonnegative, got {self.b!r}")
        if self.sigma < 0.0:
            raise ValueError(f"noise strength must be nonnegative, got {self.sigma!r}")
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths!r}")
        if self.n_paths > MAX_PATHS:
            raise ValueError(f"{self.n_paths!r} paths asked for; at most {MAX_PATHS} are allowed")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """One solution sampled on the step grid."""

    times: np.ndarray
    s: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble populations, their noiseless counterparts and the interference factors.

    By construction p1 + p2 = 1 and f1 + f2 = 1 hold exactly and
    q_n = p_n - f_n entrywise; std_err1 is the standard error of p1 across
    paths.  max_norm_drift is the largest |u^2 + v^2 + s^2 - 1| of any path
    at the end of any noise block (0 when sigma is 0 and no path runs).
    """

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    n_paths: int
    std_err1: np.ndarray
    max_norm_drift: float = 0.0


def critical_amplitude(s0: float, x0: float, tol: float = 1e-12) -> float:
    """Pumping amplitude separating the two oscillation regimes.

    Equals s0^2 / (2 * (1 + sqrt(1 - s0^2) * cos(x0))); ranges over [0, 1/2]
    for x0 = 0 as |s0| sweeps [0, 1].
    """
    if not (math.isfinite(s0) and math.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got s0={s0!r}, x0={x0!r}")
    if abs(s0) > 1.0:
        raise ValueError(f"initial imbalance must satisfy |s0| <= 1, got {s0!r}")
    denominator = 2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - s0 * s0)) * math.cos(x0))
    if denominator <= tol:
        raise DenominatorVanishes(
            f"critical amplitude undefined: denominator {denominator:.3e} at s0={s0}, x0={x0}"
        )
    return s0 * s0 / denominator


def regime_classify(b: float, s0: float, x0: float, tol: float = 1e-9) -> Regime:
    """Which side of the critical amplitude the pumping lies on."""
    if not math.isfinite(b):
        raise ValueError(f"pumping amplitude must be finite, got {b!r}")
    bc = critical_amplitude(s0, x0)
    if b < bc - tol:
        return Regime.RABI
    if b > bc + tol:
        return Regime.JOSEPHSON
    return Regime.CRITICAL


def hamiltonian(s, x, b: float):
    """Conserved energy of the noiseless motion, for scalars or arrays of s and x."""
    return 0.5 * s * s - b * np.sqrt(1.0 - s * s) * np.cos(x)


def integrate_deterministic(params: BecParams) -> Trajectory:
    """Classical fourth-order Runge-Kutta solution of the noiseless system.

    Steps the polynomial Bloch flow in (u, v, s), so no step evaluates a
    trigonometric function or a square root and nothing is singular at
    |s| = 1.  The phase x is accumulated from each step's rotation of
    (u, v) and so is continuous, not wrapped.  The noise strength in
    ``params`` is ignored.  A state that turns non-finite (only possible
    for a step far too coarse for the dynamics) raises
    :class:`StepRejected`.
    """
    n = params.n_steps
    b = params.b
    dt = params.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    s_out = np.empty(n + 1)
    x_out = np.empty(n + 1)
    s, x = params.s0, params.x0
    s_out[0], x_out[0] = s, x
    r = math.sqrt(1.0 - s * s)
    u, v = r * math.cos(x), r * math.sin(x)
    atan2 = math.atan2
    for k in range(1, n + 1):
        k1u, k1v, k1s = -s * v, s * (u + b), -b * v
        u2, v2, s2 = u + half * k1u, v + half * k1v, s + half * k1s
        k2u, k2v, k2s = -s2 * v2, s2 * (u2 + b), -b * v2
        u3, v3, s3 = u + half * k2u, v + half * k2v, s + half * k2s
        k3u, k3v, k3s = -s3 * v3, s3 * (u3 + b), -b * v3
        u4, v4, s4 = u + dt * k3u, v + dt * k3v, s + dt * k3s
        u_new = u + sixth * (k1u + 2.0 * (k2u + k3u) - s4 * v4)
        v_new = v + sixth * (k1v + 2.0 * (k2v + k3v) + s4 * (u4 + b))
        s += sixth * (k1s + 2.0 * (k2s + k3s) - b * v4)
        x += atan2(u * v_new - v * u_new, u * u_new + v * v_new)
        u, v = u_new, v_new
        s_out[k] = s
        x_out[k] = x
    _require_finite(dt, s_out, x_out)
    return Trajectory(times=params.times(), s=s_out, x=x_out)


def _require_finite(dt: float, *series: np.ndarray | None) -> None:
    finite = np.logical_and.reduce([np.isfinite(a) for a in series if a is not None])
    if not finite.all():
        k = int(np.argmin(finite))
        raise StepRejected(f"state became non-finite at t={float(k * dt)!r}")


def path_noise_generator(seed: int, path_index: int) -> np.random.Generator:
    """The counter-based stream feeding one path's noise increments.

    Keyed by (seed, path index); the k-th draw is the increment of step k,
    so the stream does not depend on how paths are scheduled.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _bloch_lanes(params: BecParams, path_lo: int, path_hi: int, phase: bool = False):
    """Integrate the noisy paths [path_lo, path_hi) side by side, one lane each.

    Each step is a Lie splitting: first the exact solution of dx = sigma dW,
    a rotation of (u, v) by the step's noise angle; then one classical RK4
    step of the Bloch drift, in the operation order of
    :func:`integrate_deterministic`, so a lane without noise reproduces it
    bit for bit.  Lanes never mix, so a path gives the same bits in any
    range.  Returns the per-step mean and centred sum of squares of s over
    the lanes, the largest norm drift |u^2 + v^2 + s^2 - 1| at the end of
    any noise block, and, with ``phase``, the continuous phase of the first
    lane (else None).  A state that turns non-finite raises
    :class:`StepRejected`.
    """
    n = params.n_steps
    width = path_hi - path_lo
    sig_sqdt = params.sigma * math.sqrt(params.dt)
    # Per-step cost at narrow widths is call overhead, so constants are
    # arrays, every view is made before the loop and outputs are positional.
    # Broadcasting a column costs more than reading a full array, so the
    # per-row constants are stored full width.
    b, two = np.array([params.b]), np.array([2.0])
    half, full, sixth = (
        np.repeat([[-h], [h], [-h]], width, axis=1)
        for h in (0.5 * params.dt, params.dt, params.dt / 6.0)
    )
    flip = np.repeat([[-1.0], [1.0]], width, axis=1)
    mul, add = np.multiply, np.add
    # Rows u, v, s.  The slopes are stored as (s v, s (u + b), b v): the
    # signs of du/dt = -s v and ds/dt = -b v ride on the step constants.
    y, stage, k1, k2, k3, k4 = np.empty((6, 3, width))
    r = math.sqrt(1.0 - params.s0 * params.s0)
    y[0], y[1], y[2] = r * math.cos(params.x0), r * math.sin(params.x0), params.s0
    u, v, s = y
    uv, vu, stage_uv, rot = y[:2], y[1::-1], stage[:2], k4[:2]
    y_rows, stage_rows, k1_rows, k2_rows, k3_rows, k4_rows = (
        tuple(a) for a in (y, stage, k1, k2, k3, k4)
    )
    dev = np.empty(width)
    mean, m2 = np.empty((2, n + 1))
    mean[0], m2[0] = params.s0, 0.0
    drift = 0.0
    x = np.full(n + 1, params.x0) if phase else None

    def slopes(state, k):
        su, sv, ss = state
        ku, kv, ks = k
        mul(ss, sv, ku)
        add(su, b, kv)
        mul(ss, kv, kv)
        mul(sv, b, ks)

    generators = [path_noise_generator(params.seed, i) for i in range(path_lo, path_hi)]
    cos_block, sin_block = np.empty((2, min(_NOISE_BLOCK, n), width))
    k = 0
    # a non-finite state is reported once, after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            block = min(_NOISE_BLOCK, n - k)
            angles = sin_block[:block]
            for i, gen in enumerate(generators):
                angles[:, i] = gen.standard_normal(block)
            angles *= sig_sqdt
            if phase:
                # each step's angle waits in x until that step adds the phase
                x[k + 1:k + block + 1] = angles[:, 0]
            np.cos(angles, cos_block[:block])
            np.sin(angles, angles)
            for cos_t, sin_t in zip(cos_block[:block], angles):
                # (u, v) -> (u cos - v sin, v cos + u sin)
                mul(vu, sin_t, rot)
                mul(rot, flip, rot)
                mul(uv, cos_t, stage_uv)
                add(stage_uv, rot, uv)
                slopes(y_rows, k1_rows)
                mul(k1, half, stage)
                add(y, stage, stage)
                slopes(stage_rows, k2_rows)
                mul(k2, half, stage)
                add(y, stage, stage)
                slopes(stage_rows, k3_rows)
                mul(k3, full, stage)
                add(y, stage, stage)
                slopes(stage_rows, k4_rows)
                add(k2, k3, k2)
                mul(k2, two, k2)
                add(k1, k2, k1)
                add(k1, k4, k1)
                mul(k1, sixth, k1)
                k += 1
                if phase:
                    u0, v0 = float(u[0]), float(v[0])
                add(y, k1, y)
                if phase:
                    u1, v1 = float(u[0]), float(v[0])
                    x[k] = x[k - 1] + x[k] + math.atan2(u0 * v1 - v0 * u1, u0 * u1 + v0 * v1)
                level = s.sum() / width
                np.subtract(s, level, dev)
                mean[k] = level
                m2[k] = np.dot(dev, dev)
            drift = max(drift, float(np.max(np.abs((y * y).sum(axis=0) - 1.0))))
    _require_finite(params.dt, mean, m2, x)
    return mean, m2, drift, x


def integrate_sde(params: BecParams, path_index: int) -> Trajectory:
    """One stochastic path, bit-reproducible for a fixed (seed, path index).

    The path is one lane of the ensemble kernel, so it carries the very
    bits that path contributes to :func:`ensemble_interference`; its x is
    the continuous phase, x0 plus each step's noise angle and drift turn.
    """
    if path_index < 0:
        raise ValueError(f"path index must be nonnegative, got {path_index}")
    s, _, _, x = _bloch_lanes(params, path_index, path_index + 1, phase=True)
    return Trajectory(times=params.times(), s=s, x=x)


def ensemble_interference(params: BecParams, workers: int = 1) -> EnsembleResult:
    """Ensemble-averaged populations and interference factors.

    p_n(t) averages the per-path populations; f_n(t) is
    :func:`integrate_deterministic`, which a noiseless lane reproduces bit
    for bit, so the interference factor vanishes identically when sigma is
    zero (then every path is the noiseless curve and no path is run).  The
    chunks' means and centred sums of squares are merged in fixed order
    (Chan, Golub and LeVeque, 1983), making the output independent of
    ``workers``; the pool never has more processes than chunks or usable
    CPUs.
    """
    if params.n_paths < 2:
        raise ValueError(f"ensemble needs at least two paths, got {params.n_paths}")
    n = params.n_paths
    s_det = integrate_deterministic(params).s
    if params.sigma == 0.0:
        mean_s, m2, drift = s_det, np.zeros(params.n_steps + 1), 0.0
    else:
        chunks = [(params, lo, min(lo + CHUNK_PATHS, n)) for lo in range(0, n, CHUNK_PATHS)]
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        processes = min(workers, len(chunks), cpus)
        if processes > 1:
            with multiprocessing.Pool(processes) as pool:
                partials = pool.starmap(_bloch_lanes, chunks)
        else:
            partials = [_bloch_lanes(*chunk) for chunk in chunks]
        mean_s, m2, count = 0.0, 0.0, 0
        drift = max(part[2] for part in partials)
        for (_, lo, hi), (part_mean, part_m2, _, _) in zip(chunks, partials):
            width = hi - lo
            total = count + width
            delta = part_mean - mean_s
            mean_s = mean_s + delta * (width / total)
            m2 = m2 + part_m2 + delta * delta * (count * width / total)
            count = total

    p1 = 0.5 * (1.0 - mean_s)
    f1 = 0.5 * (1.0 - s_det)
    q1 = p1 - f1
    p2 = 1.0 - p1
    f2 = 1.0 - f1
    q2 = p2 - f2
    std_err1 = 0.5 * np.sqrt(m2 / (n - 1) / n)
    return EnsembleResult(
        times=params.times(), p1=p1, p2=p2, f1=f1, f2=f2, q1=q1, q2=q2,
        n_paths=n, std_err1=std_err1, max_norm_drift=drift,
    )
