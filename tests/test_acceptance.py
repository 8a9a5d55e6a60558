"""Acceptance gate: every criterion at its stated tolerance.

Every check of the invariant registry ``qprob.verify.CHECKS`` runs here on
streams of its own: the numbered ones are criteria 1-6, 7a and 8, the
others just assert.  Criteria 7b, 9 and 10 are tested below.  Each criterion
reports one summary line via the ``acceptance`` fixture; the stochastic
ensembles share module-scoped fixtures because they dominate the runtime.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qprob
from qprob import becsim, verify
from qprob.becsim import BecParams, ensemble_interference, integrate_deterministic

#: Root seed of the registered checks' streams.
ACCEPTANCE_SEED = 20240601

#: Independent streams per registered check; each check's own sample count
#: times this is the acceptance sample size.
STREAMS = 4

#: Fixed ensemble seed for the stochastic criteria: the seed the README
#: gives for the paper figures.
ENSEMBLE_SEED = 4

#: Workers for the ensemble fixtures; the output is the same for any count.
WORKERS = os.cpu_count() or 1


def _check_id(criterion, check):
    """``<criterion>-<check>`` for a numbered row, the bare check name otherwise."""
    name = check.__name__.removeprefix("_check_")
    return name if criterion is None else f"{criterion}-{name}"


@pytest.fixture(scope="module")
def shared_run():
    """One run for every registered check, so the becsim rows share their curves."""
    return verify.Run()


def test_registry_numbers_criteria_1_to_8():
    assert {criterion for _, criterion, *_ in verify.CHECKS if criterion is not None} == set(range(1, 9))


def test_registry_labels_are_unique():
    labels = [(group, name) for group, _, name, _ in verify.CHECKS]
    assert len(set(labels)) == len(labels)


def test_registry_groups_in_report_order():
    assert verify.GROUPS == ("events", "uncertain", "prospects", "quarterlaw", "becsim")


def test_readme_table_lists_the_numbered_checks():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = set(re.findall(r"^\| `([a-z]+/[a-z0-9-]+)` \| (\d+)\b", readme, flags=re.M))
    assert table == {
        (f"{group}/{name}", str(criterion))
        for group, criterion, name, _ in verify.CHECKS
        if criterion is not None
    }


def test_corrupt_fails_only_the_normalization_check():
    failed = [f"{r.group}/{r.name}" for r in verify.run_checks(7, corrupt=True) if not r.passed]
    assert failed == ["prospects/probability-normalization"]


def test_verify_integrates_each_noiseless_curve_once_per_call(monkeypatch):
    steps = []
    real = becsim.integrate_deterministic

    def counting(params):
        steps.append(params.n_steps)
        return real(params)

    monkeypatch.setattr(becsim, "integrate_deterministic", counting)
    # criteria 7a and 8 share one t <= 200 curve per regime; the ensemble
    # check adds its own t <= 10 reference curve
    assert all(r.passed for r in verify.run_checks(7, group_filter="becsim"))
    first = sum(steps)
    assert first <= 410_000
    # a second call integrates as much again: nothing is cached across calls
    verify.run_checks(7, group_filter="becsim")
    assert sum(steps) == 2 * first
    # on one run, the first curve reader integrates both regimes to t = 200
    # and the second reads them without integrating
    steps.clear()
    run = verify.Run()
    rng = np.random.default_rng(0)
    verify._check_energy_conservation(rng, run)
    assert sum(steps) == 400_000
    verify._check_regime_dichotomy(rng, run)
    assert sum(steps) == 400_000


def test_a_nan_fails_the_checks_it_reaches(monkeypatch):
    real = verify.prospect_probabilities

    def nan_interference(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, q=np.full_like(result.q, np.nan))

    monkeypatch.setattr(verify, "prospect_probabilities", nan_interference)
    failed = {r.name for r in verify.run_checks(7, group_filter="prospects") if not r.passed}
    assert failed == {
        "interference-decomposition-reference-values",
        "probability-normalization",
        "interference-vanishes-for-product-states",
        "interference-vanishes-for-maximally-entangled-states",
        "entangled-state-interference-witness",
    }


@pytest.mark.parametrize(
    "index",
    range(len(verify.CHECKS)),
    ids=[_check_id(criterion, check) for _, criterion, _, check in verify.CHECKS],
)
def test_criterion(acceptance, shared_run, index):
    group, criterion, name, check = verify.CHECKS[index]
    # the becsim checks draw nothing from their stream
    streams = 1 if group == "becsim" else STREAMS
    results = [
        check(np.random.default_rng([ACCEPTANCE_SEED, index, stream]), shared_run)
        for stream in range(streams)
    ]
    passed = all(ok for ok, _ in results)
    summary = f"{streams} stream(s): " + " | ".join(dict.fromkeys(detail for _, detail in results))
    if criterion is None:
        assert passed, f"{group}/{name} failed: {summary}"
    else:
        acceptance(criterion, name, passed, summary)


def test_criterion_7b_integrator_order(acceptance):
    def endpoint(dt):
        params = BecParams(b=0.5, sigma=0.0, s0=-0.9, x0=0.0, dt=dt, t_max=20.0)
        traj = integrate_deterministic(params)
        return np.array([traj.u[-1], traj.v[-1], traj.s[-1]])

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


@pytest.fixture(scope="module")
def ensemble_sub():
    params = BecParams(
        b=0.25, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=100.0, n_paths=2000, seed=ENSEMBLE_SEED
    )
    return ensemble_interference(params, workers=WORKERS)


@pytest.fixture(scope="module")
def ensemble_sup():
    params = BecParams(
        b=0.5, sigma=0.1, s0=-0.9, x0=0.0, dt=1e-3, t_max=100.0, n_paths=2000, seed=ENSEMBLE_SEED
    )
    return ensemble_interference(params, workers=WORKERS)


@pytest.fixture(scope="module")
def sigma_sweep():
    runs = {}
    for sigma in (0.2, 0.1, 0.05):
        params = BecParams(
            b=0.25, sigma=sigma, s0=-0.9, x0=0.0, dt=1e-3, t_max=20.0, n_paths=4000,
            seed=ENSEMBLE_SEED,
        )
        runs[sigma] = ensemble_interference(params, workers=WORKERS)
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
    # A minimal env keeps the caller's environment, QPROB_THREADS included,
    # out of the child; PYTHONPATH points at the very qprob this process
    # imported, so the child runs the code under test whether it is
    # installed or not.
    # verify's 200-path ensemble is one chunk, so its run starts no pool; the
    # bec-sim run has two chunks of becsim.CHUNK_PATHS, so at QPROB_THREADS=4
    # it merges them from a worker pool.
    package_root = str(Path(qprob.__file__).resolve().parent.parent)
    paths = becsim.CHUNK_PATHS + 76
    commands = {
        "verify": (["verify", "--seed", "7", "--out", "verify.json"], ["verify.json"]),
        "bec-sim": (
            ["bec-sim", "--paths", str(paths), "--tmax", "1", "--seed", "4", "--out", "sim.csv", "--report", "sim.json"],
            ["sim.csv", "sim.json"],
        ),
    }
    outputs = {name: [] for name in commands}
    for threads in ("1", "4"):
        # Each run writes its own files.  Reports echo their paths, so both
        # runs pass the same relative names, each from its own directory.
        run_dir = tmp_path / f"threads_{threads}"
        run_dir.mkdir()
        for name, (argv, files) in commands.items():
            proc = subprocess.run(
                [sys.executable, "-m", "qprob.cli", *argv],
                capture_output=True,
                cwd=run_dir,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "QPROB_THREADS": threads},
            )
            missing = [f for f in files if not (run_dir / f).is_file()]
            if proc.returncode != 0 or missing:
                acceptance(
                    10,
                    "verify-run-determinism",
                    False,
                    f"{name} at QPROB_THREADS={threads} exited {proc.returncode}"
                    f"{f' without {missing}' if missing else ''}: {proc.stderr.decode()}",
                )
            outputs[name].append([proc.stdout] + [(run_dir / f).read_bytes() for f in files])
    differing = [name for name, runs in outputs.items() if runs[0] != runs[1]]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pool = f"on {min(4, 2, cpus)} pool workers" if cpus > 1 else "serially, as one usable CPU starts no pool"
    acceptance(
        10,
        "verify-run-determinism",
        not differing,
        f"verify (stdout, {len(outputs['verify'][0][1])}-byte report) and bec-sim (CSV, report) outputs"
        f" {'differ for ' + ' and '.join(differing) if differing else 'identical'} across QPROB_THREADS 1 and 4;"
        f" bec-sim's {paths} paths in two chunks ran {pool}",
    )
