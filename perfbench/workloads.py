"""The benchmark's three workloads: inputs from a seed, one run, and the correctness gate.

Every workload is a closed loop with one client: each operation starts when
the previous one has returned.  An operation is one ``bec-sim`` regime run
(``ensemble``), one ``verify`` command (``verify``, whose checks are counted
one by one as attempted operations) or one library operation (``library``).
Operation latency covers only the call into ``qprob``; checking the output
happens afterwards, outside the timer.

All names of ``qprob`` are resolved through their module at call time, so
the span wrappers of :mod:`spans` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qprob import cli, events, prospects, quarterlaw, uncertain

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "ensemble_reference.json"

# The paper's two regime figures, shortened to t = 5 so that one regime
# takes about a second; 2048 paths are two full 1024-path chunks, one per
# worker.  Seed 4 is the acceptance suite's ensemble seed: at the paper's
# horizon t = 100 other seeds drive paths into the |s| = 1 pole.
ENSEMBLE_REGIMES = (0.25, 0.5)
ENSEMBLE_SEED = 4
ENSEMBLE_DT = 1e-3
ENSEMBLE_STRIDE = 100
ENSEMBLE_THREADS = 2
VERIFY_SEED = 7
VERIFY_THREADS = 1

#: f1 is deterministic; 1e-6 is ten times the gap between the Heun curve and
#: the RK4 solution at dt = 1e-3, so a second-order scheme change passes.
F1_ABS_TOL = 1e-6
#: p1 is a Monte Carlo mean; it may move by this many standard errors.
P1_STDERR_TOL = 5.0
#: p1 + p2 = 1, q = p - f and q1 + q2 = 0 hold up to rounding only.
ROUNDING_TOL = 1e-15


@dataclass(frozen=True)
class Size:
    ensemble_paths: int
    ensemble_tmax: float
    library_ops: int
    probe_reps: int


FULL = Size(ensemble_paths=2048, ensemble_tmax=5.0, library_ops=2000, probe_reps=200)
TINY = Size(ensemble_paths=2048, ensemble_tmax=0.5, library_ops=40, probe_reps=5)


@dataclass
class Outcome:
    """One workload run: summed operation wall and CPU time, latencies and the gate."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_us: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def cpu_seconds() -> float:
    """User plus system CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(outcome: Outcome, call: Callable[[], Any]) -> Any:
    """Run one operation, adding its wall and CPU time to ``outcome``."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter_ns()
    value = call()
    elapsed_ns = time.perf_counter_ns() - t0
    outcome.cpu_s += cpu_seconds() - cpu0
    outcome.wall_s += elapsed_ns * 1e-9
    outcome.op_us.append(elapsed_ns * 1e-3)
    return value


def call_cli(argv: list[str], threads: int) -> tuple[int | None, str, str]:
    """``qprob.cli.main`` in-process with captured streams; None marks a crash."""
    os.environ["QPROB_THREADS"] = str(threads)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the workload loop must go on and count the failure
            err.write(traceback.format_exc())
            code = None
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- ensemble


def ensemble_steps(size: Size) -> int:
    return int(round(size.ensemble_tmax / ENSEMBLE_DT))


def ensemble_argv(b: float, size: Size, csv: Path) -> list[str]:
    return [
        "bec-sim", f"--b={b}", "--s0=-0.9", "--x0=0", "--sigma=0.1", f"--dt={ENSEMBLE_DT}",
        f"--tmax={size.ensemble_tmax}", f"--paths={size.ensemble_paths}",
        f"--stride={ENSEMBLE_STRIDE}", f"--seed={ENSEMBLE_SEED}", f"--out={csv}", "--plot",
    ]


def ensemble_inputs(seed: int, size: Size, workdir: Path, fault: bool) -> dict[str, Any]:
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    rows = ensemble_steps(size) // ENSEMBLE_STRIDE + 1
    regimes = []
    for b in ENSEMBLE_REGIMES:
        ref = reference["regimes"][str(b)]
        f1 = np.array(ref["f1"][:rows])
        if fault:
            f1 = f1 + 1e-3
        regimes.append({
            "b": b,
            "csv": workdir / f"b{b}.csv",
            "argv": ensemble_argv(b, size, workdir / f"b{b}.csv"),
            "rows": rows,
            "f1": f1,
            "p1": np.array(ref["p1"][:rows]),
        })
    return {"regimes": regimes, "threads": ENSEMBLE_THREADS}


def check_ensemble_csv(text: str, regime: dict[str, Any]) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "t,p1,p2,f1,f2,q1,q2,stderr1":
        return ["CSV header missing"]
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if table.shape != (regime["rows"], 8):
        return [f"CSV has shape {table.shape}, expected ({regime['rows']}, 8)"]
    problems = []
    if not np.all(np.isfinite(table)):
        problems.append("non-finite value in CSV")
    t, p1, p2, f1, f2, q1, q2, se = table.T
    for label, gap in (
        ("p1 + p2 - 1", p1 + p2 - 1.0),
        ("q1 - (p1 - f1)", q1 - (p1 - f1)),
        ("q2 - (p2 - f2)", q2 - (p2 - f2)),
        ("q1 + q2", q1 + q2),
    ):
        worst = float(np.max(np.abs(gap)))
        if not worst <= ROUNDING_TOL:
            problems.append(f"|{label}| reaches {worst:.3e}")
    f_gap = float(np.max(np.abs(f1 - regime["f1"])))
    if not f_gap <= F1_ABS_TOL:
        problems.append(f"f1 off the reference by {f_gap:.3e}")
    p_excess = np.abs(p1 - regime["p1"]) - (P1_STDERR_TOL * se + 1e-12)
    if not np.all(p_excess <= 0.0):
        k = int(np.argmax(p_excess))
        problems.append(f"p1 at t={t[k]:g} off the reference by more than {P1_STDERR_TOL:g} stderr1")
    return problems


def run_ensemble(inp: dict[str, Any], threads: int | None = None) -> Outcome:
    outcome = Outcome(outputs={"csv": [], "stderr1_sq": [], "step_rejected": 0})
    for regime in inp["regimes"]:
        outcome.attempted += 1
        code, _, err = timed(outcome, lambda: call_cli(regime["argv"], threads or inp["threads"]))
        if code != 0:
            found = re.search(r"numerical failure \(path (\d+)\)", err)
            if found:
                outcome.outputs["step_rejected"] += 1
                outcome.fail(f"b={regime['b']}: StepRejected on path {found.group(1)}")
            else:
                outcome.fail(f"b={regime['b']}: exit {code}: {err.strip()[-300:]}")
            continue
        text = regime["csv"].read_text(encoding="utf-8")
        svg = regime["csv"].with_suffix(".svg")
        problems = check_ensemble_csv(text, regime)
        if not (svg.is_file() and svg.read_text(encoding="utf-8").rstrip().endswith("</svg>")):
            problems.append("SVG plot missing")
        if problems:
            outcome.fail(f"b={regime['b']}: " + "; ".join(problems))
            continue
        outcome.outputs["csv"].append(text)
        se = np.array([float(line.rsplit(",", 1)[1]) for line in text.splitlines()[2:]])
        outcome.outputs["stderr1_sq"].extend((se * se).tolist())
    return outcome


# ------------------------------------------------------------------ verify


def verify_inputs(seed: int, size: Size, workdir: Path, fault: bool) -> dict[str, Any]:
    argv = ["verify", "--seed", str(VERIFY_SEED)] + (["--corrupt-state"] if fault else [])
    return {"argv": argv, "threads": VERIFY_THREADS}


def run_verify(inp: dict[str, Any], threads: int | None = None) -> Outcome:
    outcome = Outcome()
    code, out, err = timed(outcome, lambda: call_cli(inp["argv"], threads or inp["threads"]))
    outcome.outputs["stdout"] = out
    results = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    outcome.attempted = max(len(results), 1)
    for line in results:
        if line.startswith("FAIL "):
            outcome.fail(line)
    summary = f"{len(results) - outcome.failed}/{len(results)} checks passed"
    if outcome.failed == 0 and (code != 0 or summary not in out):
        outcome.failed = outcome.attempted
        outcome.failures.append(f"verify exit {code}: {err.strip()[-300:]}")
    return outcome


# ----------------------------------------------------------------- library

# Composite operations cycle through factor sizes and state kinds so that
# every seed gives the same mix; one operation in ten is a quarter-law one.
LIBRARY_FACTORS = (2, 4, 8)
LIBRARY_KINDS = ("pure", "mixed", "product", "maxent")
LIBRARY_WEIGHTS = 3


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def mixed_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = complex_normal(rng, (dim, dim))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def hermitian_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = complex_normal(rng, (dim, dim))
    return 0.5 * (g + g.conj().T)


def library_inputs(seed: int, size: Size, workdir: Path, fault: bool) -> dict[str, Any]:
    rng = np.random.default_rng(seed)
    # Quarter-law shapes in [0.3, 10] and masses in [0.2, 0.8] come from a
    # Latin hypercube: quadrature cost depends strongly on the shapes, and
    # even coverage keeps the latency tail from hinging on a few draws.
    n_quarter = size.library_ops // 10
    strata = [(rng.permutation(n_quarter) + rng.uniform(size=n_quarter)) / n_quarter for _ in range(5)]
    shapes = 0.3 + 9.7 * np.array(strata[:4]).T
    masses = 0.2 + 0.6 * strata[4]
    ops: list[dict[str, Any]] = []
    composite = 0
    for i in range(size.library_ops):
        if i % 10 == 9:
            k = i // 10
            ops.append({"kind": "quarter", "shapes": shapes[k].tolist(), "lambda_plus": float(masses[k])})
            continue
        m = LIBRARY_FACTORS[composite % len(LIBRARY_FACTORS)]
        kind = LIBRARY_KINDS[(composite // len(LIBRARY_FACTORS)) % len(LIBRARY_KINDS)]
        composite += 1
        op: dict[str, Any] = {"kind": kind, "m": m}
        if kind == "pure":
            v = complex_normal(rng, m * m)
            op["matrix"] = np.outer(v, v.conj()) / np.vdot(v, v).real
        elif kind == "mixed":
            op["matrix"] = mixed_matrix(rng, m * m)
        elif kind == "product":
            op["a"], op["b"] = mixed_matrix(rng, m), mixed_matrix(rng, m)
        op["weights"] = [complex_normal(rng, m) for _ in range(LIBRARY_WEIGHTS)]
        op["ha"], op["hb"] = hermitian_matrix(rng, m), hermitian_matrix(rng, m)
        op["n"] = int(rng.integers(m))
        op["alphas"] = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
        ops.append(op)
    return {"ops": ops, "oracle_shift": 1e-3 if fault else 0.0, "threads": 1}


def composite_op(op: dict[str, Any]) -> dict[str, Any]:
    m = op["m"]
    if op["kind"] == "product":
        state = prospects.product_state(events.DensityOperator(op["a"]), events.DensityOperator(op["b"]))
    elif op["kind"] == "maxent":
        state = prospects.max_entangled_state(m)
    else:
        state = prospects.CompositeState(rho=events.DensityOperator(op["matrix"]), dim_a=m, dim_b=m)
    weights = [uncertain.ModeWeights.normalized(w) for w in op["weights"]]
    families = [
        (prospects.prospect_probabilities(state, w, mode="raw"),
         prospects.prospect_probabilities(state, w, mode="normalized"))
        for w in weights
    ]
    marginal_a = prospects.partial_trace(state, "A")
    marginal_b = prospects.partial_trace(state, "B")
    obs_a = events.Observable.from_matrix(op["ha"])
    obs_b = events.Observable.from_matrix(op["hb"])
    rotated = prospects.composite_in_eigenbasis(state, obs_a, obs_b)
    union = prospects.standard_union_probability(state, op["n"], op["alphas"])
    unc = uncertain.uncertain_probability(marginal_a, uncertain.UncertainUnion(obs_a, weights[0]))
    return {
        "state": state, "families": families, "marginals": (marginal_a, marginal_b),
        "obs": (obs_a, obs_b), "rotated": rotated, "union": union, "uncertain": unc,
    }


def check_composite(op: dict[str, Any], res: dict[str, Any]) -> list[str]:
    m = op["m"]
    rho = res["state"].matrix
    problems = []

    def gap(label: str, value: float, tol: float) -> None:
        if not value <= tol:
            problems.append(f"{label} = {value:.3e}")

    for raw, norm in res["families"]:
        gap("raw |p - f - q|", float(np.max(np.abs(raw.p - raw.f - raw.q))), 1e-12)
        gap("normalized |sum p - 1|", abs(float(norm.p.sum()) - 1.0), 1e-10)
        gap("normalized |sum f - 1|", abs(float(norm.f.sum()) - 1.0), 1e-10)
        gap("normalized |sum q|", abs(float(norm.q.sum())), 1e-10)
        if op["kind"] == "product":
            gap("product-state normalized |q|", float(np.max(np.abs(norm.q))), 1e-12)
        if op["kind"] == "maxent":
            gap("max-entangled raw |q|", float(np.max(np.abs(raw.q))), 1e-12)
    blocks = rho.reshape(m, m, m, m)
    gap("marginal A", float(np.max(np.abs(res["marginals"][0].matrix - np.trace(blocks, axis1=1, axis2=3)))), 1e-12)
    gap("marginal B", float(np.max(np.abs(res["marginals"][1].matrix - np.trace(blocks, axis1=0, axis2=2)))), 1e-12)
    u = np.kron(res["obs"][0].spectral.eigenvectors, res["obs"][1].spectral.eigenvectors)
    gap("rotated state", float(np.max(np.abs(res["rotated"].matrix - u.conj().T @ rho @ u))), 1e-12)
    diag = rho.diagonal().real
    expected_union = sum(diag[op["n"] * m + alpha] for alpha in op["alphas"])
    gap("standard union", abs(res["union"] - expected_union), 1e-12)
    unc = res["uncertain"]
    gap("uncertain |p - diagonal - interference|", abs(unc.p - unc.diagonal - unc.interference), 1e-12)
    if not 0.0 <= unc.p <= 1.0:
        problems.append(f"uncertain p = {unc.p!r} outside [0, 1]")
    return problems


def quarter_op(op: dict[str, Any]) -> tuple[Any, float]:
    alpha, beta, mu, nu = op["shapes"]
    dist = quarterlaw.BetaPairDistribution(
        alpha=alpha, beta=beta, mu=mu, nu=nu,
        lambda_plus=op["lambda_plus"], lambda_minus=1.0 - op["lambda_plus"],
    )
    return quarterlaw.q_split_numeric(dist, tol=1e-10), quarterlaw.pdf_normalization(dist, tol=1e-10)


def check_quarter(op: dict[str, Any], res: tuple[Any, float], shift: float) -> list[str]:
    alpha, beta, mu, nu = op["shapes"]
    lam = op["lambda_plus"]
    closed_plus = alpha * lam / (alpha + beta) + shift
    closed_minus = -mu * (1.0 - lam) / (mu + nu)
    split, mass = res
    worst = max(abs(split.q_plus - closed_plus), abs(split.q_minus - closed_minus))
    problems = []
    if not worst <= 1e-8:
        problems.append(f"quadrature off the closed form by {worst:.3e}")
    if not abs(mass - 1.0) <= 1e-8:
        problems.append(f"density integrates to {mass!r}")
    return problems


def run_library(inp: dict[str, Any], threads: int | None = None) -> Outcome:
    outcome = Outcome()
    for index, op in enumerate(inp["ops"]):
        outcome.attempted += 1
        quarter = op["kind"] == "quarter"
        try:
            res = timed(outcome, lambda: quarter_op(op) if quarter else composite_op(op))
        except Exception as exc:  # an error is one failed operation, not a crash
            outcome.fail(f"op {index} ({op['kind']}): {type(exc).__name__}: {exc}")
            continue
        problems = check_quarter(op, res, inp["oracle_shift"]) if quarter else check_composite(op, res)
        if problems:
            outcome.fail(f"op {index} ({op['kind']}): " + "; ".join(problems))
    return outcome


WORKLOADS: dict[str, tuple[Callable[..., dict[str, Any]], Callable[..., Outcome]]] = {
    "ensemble": (ensemble_inputs, run_ensemble),
    "verify": (verify_inputs, run_verify),
    "library": (library_inputs, run_library),
}


def mean_stderr1_sq(outcome: Outcome) -> float:
    """Mean of stderr1^2 over the CSV rows with t > 0 (0 for workloads without CSV)."""
    sq = outcome.outputs.get("stderr1_sq") or []
    return math.fsum(sq) / len(sq) if sq else 0.0
