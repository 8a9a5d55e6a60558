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

The noiseless motion alone is integrated in Cartesian Bloch coordinates
u = sqrt(1-s^2) cos(x), v = sqrt(1-s^2) sin(x), where the flow

    du/dt = -s v,   dv/dt = s (u + b),   ds/dt = -b v

is polynomial (the bosonic Josephson model of Smerzi, Fantoni, Giovanazzi
and Shenoy, PRL 79, 4950 (1997)) and has no pole at |s| = 1.

Noisy paths are integrated in (s, x) with the stochastic Heun scheme (the
noise enters additively, so the Ito and Stratonovich readings agree) and
are keyed by (seed, path index) through a counter-based generator, which
makes every ensemble bit-reproducible no matter how paths are scheduled.
Ensemble sums are accumulated over fixed-size path chunks combined in chunk
order, so a worker pool of any size produces identical output.  The
noiseless reference curve is one more lane of the first chunk, run on the
same scheme with its noise held at zero.
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
#: increments per step.
_NOISE_BLOCK = 1024

#: |s| at or beyond this aborts a path: the square root becomes singular.
_S_ABORT = 1.0 - 1e-9

#: |s| is clamped to this inside square-root evaluation only.
_S_CLAMP = 1.0 - 1e-12


class StepRejected(RuntimeError):
    """A noisy path or the noiseless reference lane drove |s| into the
    singular band around 1, or the noiseless state became non-finite.

    ``path_index`` names the noisy path, and is None for the noiseless
    curve.
    """

    def __init__(self, message: str, path_index: int | None = None):
        super().__init__(message)
        self.path_index = path_index


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
    steps of exactly dt.
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
        if self.b < 0.0:
            raise ValueError(f"pumping amplitude must be nonnegative, got {self.b!r}")
        if self.sigma < 0.0:
            raise ValueError(f"noise strength must be nonnegative, got {self.sigma!r}")
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths!r}")

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
    paths.
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


def hamiltonian(s: float, x: float, b: float) -> float:
    """Conserved energy of the noiseless motion."""
    return 0.5 * s * s - b * math.sqrt(1.0 - s * s) * math.cos(x)


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
    finite = np.isfinite(s_out) & np.isfinite(x_out)
    if not finite.all():
        k = int(np.argmin(finite))
        raise StepRejected(f"noiseless state became non-finite at t={float(k * dt)!r}")
    return Trajectory(times=params.times(), s=s_out, x=x_out)


def path_noise_generator(seed: int, path_index: int) -> np.random.Generator:
    """The counter-based stream feeding one path's noise increments.

    Keyed by (seed, path index); the k-th draw is the increment of step k,
    so the stream does not depend on how paths are scheduled.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _heun_paths(params: BecParams, path_lo: int, path_hi: int, reference: bool = False):
    """Stochastic Heun integration of the path range [path_lo, path_hi).

    The same Wiener increment enters predictor and corrector; with additive
    noise this is strong first order.  With ``reference`` one more lane
    runs after the paths with its noise held at zero: the noiseless curve
    on exactly the scheme of the noisy paths.  Every lane's arithmetic is
    independent of the others', so a path gives the same bits in any range.
    Returns the per-step sums of s and s^2 over the noisy lanes and the
    (s, x) history of the last lane.
    """
    n = params.n_steps
    width = path_hi - path_lo
    lanes = width + reference
    sig_sqdt = params.sigma * math.sqrt(params.dt)
    # Per-step cost at narrow widths is call overhead, which Python-float
    # operands and the out= keyword raise; so constants enter as one-element
    # arrays and outputs positionally (np.maximum/np.minimum take out= only).
    neg_b, pos_b, one, lo, hi, dt, half_dt = (
        np.array([v]) for v in
        (-params.b, params.b, 1.0, -_S_CLAMP, _S_CLAMP, params.dt, 0.5 * params.dt)
    )
    mul, add = np.multiply, np.add
    s = np.full(lanes, params.s0)
    x = np.full(lanes, params.x0)
    sp, xp, d1s, d1x, d2s, d2x, root, tmp = np.empty((8, lanes))
    noisy = s[:width]
    sum_s = np.zeros(n + 1)
    sum_s2 = np.zeros(n + 1)
    s_last = np.empty(n + 1)
    x_last = np.empty(n + 1)
    sum_s[0] = noisy.sum()
    sum_s2[0] = np.dot(noisy, noisy)
    s_last[0], x_last[0] = s[-1], x[-1]

    def drift(s_in, x_in, ds, dx):
        # -b * root * sin(x) and s * (1 + b * cos(x) / root), operation for
        # operation as written, so the bits match the plain-operator form;
        # maximum/minimum clamp like np.clip at a fraction of its call cost
        np.maximum(s_in, lo, out=root)
        np.minimum(root, hi, out=root)
        mul(root, root, root)
        np.subtract(one, root, root)
        np.sqrt(root, root)
        mul(root, neg_b, ds)
        np.sin(x_in, tmp)
        mul(ds, tmp, ds)
        np.cos(x_in, tmp)
        mul(tmp, pos_b, tmp)
        np.divide(tmp, root, tmp)
        add(tmp, one, tmp)
        mul(s_in, tmp, dx)

    generators = None
    if params.sigma > 0.0:
        generators = [path_noise_generator(params.seed, i) for i in range(path_lo, path_hi)]
    # one row of increments per step; the reference lane's column stays 0
    noise = np.zeros((min(_NOISE_BLOCK, n), lanes))
    k = 0
    while k < n:
        block = min(_NOISE_BLOCK, n - k)
        if generators is not None:
            for i, gen in enumerate(generators):
                noise[:block, i] = gen.standard_normal(block)
            noise[:block] *= sig_sqdt
        for dw in noise[:block]:
            drift(s, x, d1s, d1x)
            mul(d1s, dt, sp)
            add(s, sp, sp)
            mul(d1x, dt, xp)
            add(x, xp, xp)
            add(xp, dw, xp)
            drift(sp, xp, d2s, d2x)
            add(d1s, d2s, d1s)
            mul(d1s, half_dt, d1s)
            add(s, d1s, s)
            add(d1x, d2x, d1x)
            mul(d1x, half_dt, d1x)
            add(x, d1x, x)
            add(x, dw, x)
            k += 1
            np.abs(s, tmp)
            worst = int(tmp.argmax())
            if tmp[worst] >= _S_ABORT:
                where = ("the noiseless reference path" if worst == width
                         else f"path {path_lo + worst}")
                raise StepRejected(
                    f"|s| reached {float(s[worst])!r} at t={float(k * params.dt)!r} on {where}",
                    path_index=None if worst == width else path_lo + worst,
                )
            if width:
                sum_s[k] = noisy.sum()
                sum_s2[k] = np.dot(noisy, noisy)
            s_last[k] = s[-1]
            x_last[k] = x[-1]
    return sum_s, sum_s2, s_last, x_last


def integrate_sde(params: BecParams, path_index: int) -> Trajectory:
    """One stochastic path, bit-reproducible for a fixed (seed, path index)."""
    if path_index < 0:
        raise ValueError(f"path index must be nonnegative, got {path_index}")
    _, _, s, x = _heun_paths(params, path_index, path_index + 1)
    return Trajectory(times=params.times(), s=s, x=x)


def ensemble_interference(params: BecParams, workers: int = 1) -> EnsembleResult:
    """Ensemble-averaged populations and interference factors.

    p_n(t) averages the per-path populations; f_n(t) is the same scheme run
    without noise, as one extra lane of the first chunk, so the
    interference factor vanishes identically when sigma is zero (all paths
    then coincide with the noiseless curve, so only that lane runs and is
    used directly instead of summing N identical copies).  Chunk sums are
    combined in fixed order, making the output independent of ``workers``;
    the pool never has more processes than chunks or usable CPUs.
    """
    if params.n_paths < 2:
        raise ValueError(f"ensemble needs at least two paths, got {params.n_paths}")
    n = params.n_paths
    if params.sigma == 0.0:
        chunks = [(params, 0, 0, True)]
    else:
        chunks = [
            (params, lo, min(lo + CHUNK_PATHS, n), lo == 0)
            for lo in range(0, n, CHUNK_PATHS)
        ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(workers, len(chunks), cpus)
    if processes > 1:
        with multiprocessing.Pool(processes) as pool:
            partials = pool.starmap(_heun_paths, chunks)
    else:
        partials = [_heun_paths(*chunk) for chunk in chunks]
    s_det = partials[0][2]

    if params.sigma == 0.0:
        mean_s = s_det
        variance = np.zeros(params.n_steps + 1)
    else:
        sum_s = np.zeros(params.n_steps + 1)
        sum_s2 = np.zeros(params.n_steps + 1)
        for part_s, part_s2, _, _ in partials:
            sum_s += part_s
            sum_s2 += part_s2
        mean_s = sum_s / n
        variance = np.maximum(sum_s2 - sum_s * mean_s, 0.0) / (n - 1)

    p1 = 0.5 * (1.0 - mean_s)
    f1 = 0.5 * (1.0 - s_det)
    q1 = p1 - f1
    p2 = 1.0 - p1
    f2 = 1.0 - f1
    q2 = p2 - f2
    std_err1 = 0.5 * np.sqrt(variance / n)
    return EnsembleResult(
        times=params.times(), p1=p1, p2=p2, f1=f1, f2=f2, q1=q1, q2=q2,
        n_paths=n, std_err1=std_err1,
    )
