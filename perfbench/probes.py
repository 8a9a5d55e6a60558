"""Probes: single layers measured in isolation at the sizes the roadmap baseline quotes.

Each probe times direct calls into one public function of ``qprob`` with
tracing off and reports the median per call (or per step).  They run in the
traced run of every workload, so one command reproduces the whole baseline.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Any, Callable

import numpy as np

from qprob import becsim, events, prospects, quarterlaw, uncertain, verify

from workloads import ENSEMBLE_REGIMES, ENSEMBLE_SEED, VERIFY_SEED, Size, complex_normal, mixed_matrix

DIMS = (4, 16, 64)


def _wall(call: Callable[[], Any]) -> float:
    t0 = time.perf_counter_ns()
    call()
    return (time.perf_counter_ns() - t0) * 1e-9


def _median_us(call: Callable[[], Any], reps: int) -> float:
    call()
    return statistics.median(_wall(call) for _ in range(reps)) * 1e6


def becsim_probes(size: Size) -> dict[str, float]:
    """Serial, 2-worker and reference-only ensemble calls at the ensemble workload's size."""
    params = becsim.BecParams(
        b=ENSEMBLE_REGIMES[0], sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3,
        t_max=size.ensemble_tmax, n_paths=size.ensemble_paths, seed=ENSEMBLE_SEED,
    )
    quiet = dataclasses.replace(params, sigma=0.0)
    serial = _wall(lambda: becsim.ensemble_interference(params, workers=1))
    pooled = _wall(lambda: becsim.ensemble_interference(params, workers=2))
    reference = _wall(lambda: becsim.ensemble_interference(quiet, workers=1))
    steps = params.n_steps
    return {
        "becsim.ns_per_path_step": (serial - reference) / (params.n_paths * steps) * 1e9,
        "becsim.reference_us_per_step": reference / steps * 1e6,
        "becsim.serial_fraction": reference / serial,
        "becsim.parallel_efficiency": serial / (2.0 * pooled),
    }


def library_probes(size: Size) -> dict[str, float]:
    """DensityOperator and prospect_probabilities at d = 4, 16, 64, and q_split_numeric."""
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for d in DIMS:
        m = int(round(d ** 0.5))
        matrix = mixed_matrix(rng, d)
        reps = max(size.probe_reps // (4 if d == 64 else 1), 1)
        out[f"probe.events.DensityOperator.us.d{d}"] = _median_us(lambda: events.DensityOperator(matrix), reps)
        state = prospects.CompositeState(rho=events.DensityOperator(matrix), dim_a=m, dim_b=m)
        weights = uncertain.ModeWeights.normalized(complex_normal(rng, m))
        out[f"probe.prospects.prospect_probabilities.us.d{d}"] = _median_us(
            lambda: prospects.prospect_probabilities(state, weights, mode="raw"), size.probe_reps
        )
    dists = [
        quarterlaw.BetaPairDistribution(*rng.uniform(0.3, 10.0, size=4), lambda_plus=0.5, lambda_minus=0.5)
        for _ in range(20)
    ]
    out["probe.quarterlaw.q_split_numeric.us"] = statistics.median(
        _wall(lambda: quarterlaw.q_split_numeric(dist, tol=1e-10)) * 1e6 for dist in dists
    )
    return out


def verify_group_probes() -> dict[str, float]:
    """Wall time of each ``verify`` check group on its own, serial, at the workload's seed."""
    return {
        f"verify.{group}.s": _wall(lambda: verify.run_checks(VERIFY_SEED, group_filter=group, workers=1))
        for group in verify.GROUPS
    }
