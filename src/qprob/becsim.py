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
and Shenoy, PRL 79, 4950 (1997)), has no pole at |s| = 1 and conserves
H = s^2/2 - b u, and where the phase noise is an exact rotation of (u, v)
by sigma dW.  A noisy step applies that rotation and then one classical
RK4 step of the flow, the same RK4 step that integrates the noiseless
curve.  The integrated state (u, v, s) is also the output: a noiseless
trajectory is returned as (u, v, s), whose continuous phase is
unwrap(arctan2(v, u)), and an ensemble reduces s alone.  The ensemble's
lanes step (-u, v, s), in which every sign of the flow sits inside a
product; negation is exact, so a lane holds the bits of (u, v, s) with u
negated.  The rotation's cosine and sine come from Taylor polynomials of
degree 8 and 9, within one ulp of np.cos and np.sin, where a 64-path
group's block of noise angles stays within |sigma dW| <= 0.1, and from
np.cos and np.sin elsewhere.

Noisy paths draw their noise in groups of 64: the stream of group g is
keyed by (seed, g), and path i reads column i % 64 of group i // 64, so a
path draws the same increments in any range and every ensemble is
bit-reproducible no matter how paths are scheduled.  Each fixed-size path
chunk yields its per-step mean and centred sum of squares; the chunks are
merged in chunk order, so a worker pool of any size produces identical
output.
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

#: Paths per noise stream: one stream fills a (steps, GROUP_LANES) array row
#: by row, a column per path.
GROUP_LANES = 64

#: Largest step count a run may ask for, checked before anything is
#: allocated.  It is five times the 2e6 steps of the finest run in the
#: acceptance suite; the noiseless curve alone then takes 160 MB.
MAX_STEPS = 10**7

#: Largest path count a run may ask for, checked before anything is
#: allocated.  It is 250 times the 4,000 paths of the largest ensemble in the
#: acceptance suite; at the default 1e5 steps such a run is 1e11 path-steps,
#: about three hours of one CPU at 100 ns a path-step.
MAX_PATHS = 10**6

#: The critical amplitude is undefined where its denominator is this small.
CRITICAL_DENOMINATOR_TOL = 1e-12

#: A pumping amplitude this close to the critical one is classed as critical.
REGIME_TOL = 1e-9

#: Largest noise angle |sigma dW| whose cosine and sine may come from
#: Taylor polynomials: at 0.1 the first omitted terms, 0.1^10/10! and
#: 0.1^11/11!, lie below a quarter of an ulp.
SMALL_ANGLE = 0.1

#: Coefficients of z^4 ... z of cos and of z^4 ... z of (sin(a) - a)/a,
#: with z = a^2, highest first for Horner's rule.
_COS_TAYLOR = (1.0 / 40320.0, -1.0 / 720.0, 1.0 / 24.0, -0.5)
_SIN_TAYLOR = (1.0 / 362880.0, -1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)

#: Noise angles per polynomial tile: one group's noise block, 256 KiB.
_ANGLE_TILE = _NOISE_BLOCK * GROUP_LANES

#: The scheme of every noisy path, as named in reports.
KERNEL = (
    "bloch-lie-rk4/sfc64-groups/taylor-small-angles: exact (u, v) rotation by sigma dW, then classical RK4 "
    "of the Bloch drift; dW from one SFC64 stream per 64-path group; the rotation's cosine and sine from "
    "degree-8 and degree-9 Taylor polynomials where a group's noise block has |sigma dW| <= 0.1"
)


class StepRejected(ArithmeticError):
    """The state of a path turned non-finite: the step is far too coarse
    for the dynamics."""


class DenominatorVanishes(ArithmeticError):
    """The critical-amplitude denominator is too close to zero."""


class Regime(Enum):
    RABI = "Rabi"
    JOSEPHSON = "Josephson"
    CRITICAL = "Critical"

    @classmethod
    def of(cls, b: float, critical: float) -> Regime:
        """Which side of the critical amplitude ``critical`` the pumping ``b`` lies on."""
        if b < critical - REGIME_TOL:
            return cls.RABI
        if b > critical + REGIME_TOL:
            return cls.JOSEPHSON
        return cls.CRITICAL


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
    """One solution in Bloch coordinates, sampled at ``params.times()``.

    The continuous phase is ``np.unwrap(np.arctan2(v, u))``.
    """

    u: np.ndarray
    v: np.ndarray
    s: np.ndarray


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


def critical_amplitude(s0: float, x0: float) -> float:
    """Pumping amplitude separating the two oscillation regimes.

    Equals s0^2 / (2 * (1 + sqrt(1 - s0^2) * cos(x0))); ranges over [0, 1/2]
    for x0 = 0 as |s0| sweeps [0, 1].
    """
    if not (math.isfinite(s0) and math.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got s0={s0!r}, x0={x0!r}")
    if abs(s0) > 1.0:
        raise ValueError(f"initial imbalance must satisfy |s0| <= 1, got {s0!r}")
    denominator = 2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - s0 * s0)) * math.cos(x0))
    if denominator <= CRITICAL_DENOMINATOR_TOL:
        raise DenominatorVanishes(
            f"critical amplitude undefined: denominator {denominator:.3e} at s0={s0}, x0={x0}"
        )
    return s0 * s0 / denominator


def regime_classify(b: float, s0: float, x0: float) -> Regime:
    """Which side of the critical amplitude the pumping lies on."""
    if not math.isfinite(b):
        raise ValueError(f"pumping amplitude must be finite, got {b!r}")
    return Regime.of(b, critical_amplitude(s0, x0))


def hamiltonian(s, u, b: float):
    """Conserved energy s^2/2 - b u of the noiseless Bloch flow, for scalars
    or arrays of s and u."""
    return 0.5 * s * s - b * u


def integrate_deterministic(params: BecParams) -> Trajectory:
    """Classical fourth-order Runge-Kutta solution of the noiseless system.

    Steps the polynomial Bloch flow in (u, v, s), so no step evaluates a
    trigonometric function or a square root and nothing is singular at
    |s| = 1.  The noise strength in ``params`` is ignored.  A state that
    turns non-finite (only possible for a step far too coarse for the
    dynamics) raises :class:`StepRejected`.
    """
    n = params.n_steps
    b = params.b
    dt = params.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    # s is allocated first: in the order u, v, s the peak resident memory of
    # `qprob verify` was 4 % higher
    s_out, u_out, v_out = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    # a memoryview stores a float in about half the time of array indexing
    s_store, u_store, v_store = memoryview(s_out), memoryview(u_out), memoryview(v_out)
    s = params.s0
    r = math.sqrt(1.0 - s * s)
    u, v = r * math.cos(params.x0), r * math.sin(params.x0)
    s_out[0], u_out[0], v_out[0] = s, u, v
    # The slopes are stored as (s v, s (u + b), b v), as in the lanes: the
    # signs of du/dt = -s v and ds/dt = -b v ride on the updates, and since
    # negation is exact, u - h*a equals u + h*(-a) bit for bit.
    for k in range(1, n + 1):
        k1u, k1v, k1s = s * v, s * (u + b), b * v
        u2, v2, s2 = u - half * k1u, v + half * k1v, s - half * k1s
        k2u, k2v, k2s = s2 * v2, s2 * (u2 + b), b * v2
        u3, v3, s3 = u - half * k2u, v + half * k2v, s - half * k2s
        k3u, k3v, k3s = s3 * v3, s3 * (u3 + b), b * v3
        u4, v4, s4 = u - dt * k3u, v + dt * k3v, s - dt * k3s
        u -= sixth * (k1u + 2.0 * (k2u + k3u) + s4 * v4)
        v += sixth * (k1v + 2.0 * (k2v + k3v) + s4 * (u4 + b))
        s -= sixth * (k1s + 2.0 * (k2s + k3s) + b * v4)
        s_store[k] = s
        u_store[k] = u
        v_store[k] = v
    _require_finite(dt, s_out, u_out, v_out)
    return Trajectory(u=u_out, v=v_out, s=s_out)


def _require_finite(dt: float, *series: np.ndarray) -> None:
    finite = np.logical_and.reduce([np.isfinite(a) for a in series])
    if not finite.all():
        k = int(np.argmin(finite))
        raise StepRejected(f"state became non-finite at t={float(k * dt)!r}")


def group_noise_generator(seed: int, group: int) -> np.random.Generator:
    """The stream feeding the noise increments of paths
    [GROUP_LANES * group, GROUP_LANES * (group + 1)).

    Keyed by (seed, group); its normals fill a (steps, GROUP_LANES) array
    row-major, so path i draws column i % GROUP_LANES of group
    i // GROUP_LANES and the stream does not depend on how paths are
    scheduled.
    """
    sequence = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(group,))
    return np.random.Generator(np.random.SFC64(sequence))


def _small_angle_cos_sin(angles: np.ndarray, cos_out: np.ndarray, z: np.ndarray) -> None:
    """Cosines of ``angles`` into ``cos_out`` and their sines in place, by
    Horner's rule on the Taylor polynomials of degree 8 and 9, for
    |angle| <= :data:`SMALL_ANGLE`; ``z`` is scratch of the same shape.

    There each value lies within one ulp of ``np.cos`` and ``np.sin``, and
    an angle of 0 gives exactly (1, 0).
    """
    mul, add = np.multiply, np.add
    mul(angles, angles, z)
    # sin = a + a z (-1/6 + z (1/120 + ...)), built in cos_out
    mul(z, _SIN_TAYLOR[0], cos_out)
    for c in _SIN_TAYLOR[1:]:
        add(cos_out, c, cos_out)
        mul(cos_out, z, cos_out)
    mul(cos_out, angles, cos_out)
    add(angles, cos_out, angles)
    # cos = 1 + z (-1/2 + z (1/24 + ...))
    mul(z, _COS_TAYLOR[0], cos_out)
    for c in _COS_TAYLOR[1:]:
        add(cos_out, c, cos_out)
        mul(cos_out, z, cos_out)
    add(cos_out, 1.0, cos_out)


def _bloch_lanes(params: BecParams, path_lo: int, path_hi: int):
    """Integrate the noisy paths [path_lo, path_hi) side by side, one lane each.

    Each step is a Lie splitting: first the exact solution of dx = sigma dW,
    a rotation of (u, v) by the step's noise angle; then one classical RK4
    step of the Bloch drift, in the operation order of
    :func:`integrate_deterministic`, so a lane without noise reproduces it
    bit for bit.  The lanes hold U = -u in place of u.  The noise angles of
    each 512-step block take their cosines and sines from
    :func:`_small_angle_cos_sin` where the block of their 64-path group stays
    within :data:`SMALL_ANGLE`, and from np.cos and np.sin where it does not;
    the choice is the group's, so lanes never mix and a path gives the same
    bits in any range.  Returns the per-step mean and centred sum of squares
    of s over the lanes and the largest norm drift |u^2 + v^2 + s^2 - 1| at
    the end of any noise block.  A state that turns non-finite raises
    :class:`StepRejected`.
    """
    n = params.n_steps
    width = path_hi - path_lo
    sig_sqdt = params.sigma * math.sqrt(params.dt)
    # Per-step cost at narrow widths is call overhead, so every view is made
    # before the loop and outputs are positional.  The lanes carry U = -u in
    # place of u, which turns the drift into
    #     dU/dt = s v,   dv/dt = s (b - U),   ds/dt = v (-b):
    # every sign sits inside a product, so each step constant is one 0-d
    # array, and since negation is exact the bits are those of (u, v, s).
    # Every call takes operands of one shape or a 0-d constant: a row
    # broadcast against a block of rows costs more than two row calls.
    b, neg_b = np.array(params.b), np.array(-params.b)
    half, full, sixth = np.array(0.5 * params.dt), np.array(params.dt), np.array(params.dt / 6.0)
    mul, add, sub = np.multiply, np.add, np.subtract
    # Rows U, v, s; the slopes are stored in the same order.  The six
    # arrays start 640 bytes apart modulo 4 KiB: at widths that are a
    # multiple of 512 they would otherwise share their low 12 address bits,
    # and a load that matches an earlier store in those bits waits for it
    # (4K aliasing), which cost 10 % of the kernel at 1024 lanes on an
    # x86-64 host.
    pitch = 3 * width + (80 - 3 * width) % 512
    arena = np.empty(6 * pitch)
    y, stage, k1, k2, k3, k4 = (arena[i * pitch:i * pitch + 3 * width].reshape(3, width) for i in range(6))
    r = math.sqrt(1.0 - params.s0 * params.s0)
    y[0], y[1], y[2] = -(r * math.cos(params.x0)), r * math.sin(params.x0), params.s0
    y_rows, stage_rows, k1_rows, k2_rows, k3_rows, k4_rows = (
        tuple(a) for a in (y, stage, k1, k2, k3, k4)
    )
    (big_u, v, s), (u_cos, v_cos, _), (v_sin, u_sin, _) = y_rows, stage_rows, k4_rows
    mean, m2 = np.empty((2, n + 1))
    mean[0], m2[0] = params.s0, 0.0
    drift = 0.0

    def slopes(state, k):
        su, sv, ss = state
        ku, kv, ks = k
        mul(ss, sv, ku)
        sub(b, su, kv)
        mul(ss, kv, kv)
        mul(sv, neg_b, ks)

    # The noise blocks span whole groups; the lanes are columns
    # [offset, offset + width) of them.
    first, offset = divmod(path_lo, GROUP_LANES)
    generators = [group_noise_generator(params.seed, g) for g in range(first, -(-path_hi // GROUP_LANES))]
    groups = len(generators)
    cos_block, sin_block = np.empty((2, min(_NOISE_BLOCK, n), groups * GROUP_LANES))
    scratch = np.empty(min(_ANGLE_TILE, cos_block.size))
    k = 0
    # a non-finite state is reported once, after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            block = min(_NOISE_BLOCK, n - k)
            # Each group draws its (block, GROUP_LANES) rows into one
            # contiguous slab of the free cosine block; one copy interleaves
            # the slabs into per-step rows of the sine block.
            draws = cos_block[:block].reshape(groups, block, GROUP_LANES)
            for gen, slab in zip(generators, draws):
                gen.standard_normal(out=slab)
            # A group's largest |angle| picks the route of all its cosines
            # and sines, so a path takes the same route in any range.
            extremes = draws.reshape(groups, -1)
            large = np.maximum(extremes.max(axis=1), -extremes.min(axis=1)) * sig_sqdt > SMALL_ANGLE
            normals = sin_block[:block].reshape(block, groups, GROUP_LANES)
            np.copyto(normals, draws.transpose(1, 0, 2))
            # The polynomials run on contiguous tiles of the whole padded
            # block: padding included, that beat them on the strided lane
            # view at 200 lanes.  Any large group is then redone.
            outliers = normals[:, large] * sig_sqdt
            flat_angles, flat_cos = sin_block[:block].reshape(-1), cos_block[:block].reshape(-1)
            for lo in range(0, flat_angles.size, _ANGLE_TILE):
                tile = flat_angles[lo:lo + _ANGLE_TILE]
                tile *= sig_sqdt
                _small_angle_cos_sin(tile, flat_cos[lo:lo + _ANGLE_TILE], scratch[:tile.size])
            if outliers.size:
                cos_block[:block].reshape(block, groups, GROUP_LANES)[:, large] = np.cos(outliers)
                normals[:, large] = np.sin(outliers)
            angles = sin_block[:block, offset:offset + width]
            spent = cos_block[:block, offset:offset + width]
            for cos_t, sin_t in zip(spent, angles):
                # (U, v) -> (U cos + v sin, v cos - U sin), the rotation of
                # (u, v) by the noise angle
                mul(v, sin_t, v_sin)
                mul(big_u, sin_t, u_sin)
                mul(big_u, cos_t, u_cos)
                mul(v, cos_t, v_cos)
                add(u_cos, v_sin, big_u)
                sub(v_cos, u_sin, v)
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
                add(k2, k2, k2)
                add(k1, k2, k1)
                add(k1, k4, k1)
                mul(k1, sixth, k1)
                k += 1
                add(y, k1, y)
                # the spent cosines of this step keep its s for the reduction
                np.copyto(cos_t, s)
            # Row by row the same sums, differences and dot products as a
            # reduction after every step, so the same bits.
            levels = mean[k - block + 1:k + 1]
            np.add.reduce(spent, axis=1, out=levels)
            levels /= width
            spent -= levels[:, None]
            m2[k - block + 1:k + 1] = (spent[:, None, :] @ spent[:, :, None]).ravel()
            drift = max(drift, float(np.max(np.abs((y * y).sum(axis=0) - 1.0))))
    _require_finite(params.dt, mean, m2)
    return mean, m2, drift


def _bloch_chunk(chunk: tuple[BecParams, int, int]):
    """:func:`_bloch_lanes` on one (params, path_lo, path_hi) chunk, for ``Pool.imap``."""
    return _bloch_lanes(*chunk)


def _merge_chunks(chunks, partials):
    """Merge the chunks' means and centred sums of squares in chunk order
    (Chan, Golub and LeVeque, 1983), each as it arrives, so the merge holds
    one chunk's partial at a time.  Returns the mean, the centred sum of
    squares and the largest norm drift."""
    mean_s, m2, count, drift = 0.0, 0.0, 0, 0.0
    for (_, lo, hi), (part_mean, part_m2, part_drift) in zip(chunks, partials):
        width = hi - lo
        total = count + width
        delta = part_mean - mean_s
        mean_s = mean_s + delta * (width / total)
        m2 = m2 + part_m2 + delta * delta * (count * width / total)
        count = total
        drift = max(drift, part_drift)
    return mean_s, m2, drift


def ensemble_interference(params: BecParams, workers: int = 1) -> EnsembleResult:
    """Ensemble-averaged populations and interference factors.

    p_n(t) averages the per-path populations; f_n(t) is
    :func:`integrate_deterministic`, which a noiseless lane reproduces bit
    for bit, so the interference factor vanishes identically when sigma is
    zero (then every path is the noiseless curve and no path is run).  The
    chunks are merged in fixed order as they arrive, making the output
    independent of ``workers``; the pool never has more processes than
    chunks or usable CPUs.
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
                mean_s, m2, drift = _merge_chunks(chunks, pool.imap(_bloch_chunk, chunks))
        else:
            mean_s, m2, drift = _merge_chunks(chunks, map(_bloch_chunk, chunks))

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
