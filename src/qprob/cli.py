"""Command-line interface.

Subcommands: ``measure`` (projective outcome probabilities), ``prospect``
(composite-event p/f/q families), ``quarter-law`` (closed-form and
quadrature moments of the interference distribution), ``bec-sim``
(two-mode condensate ensemble) and ``verify`` (the invariant suites).

Flag values override config-file values, which override built-in defaults;
the effective configuration is echoed into every JSON report.  Reports
carry no timestamps, so a rerun with the same inputs is byte-identical.

Exit codes: 0 success, 1 invariant failure, 2 input validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, becsim, quarterlaw, svgplot, verify
from .events import DensityOperator, Observable, event_probability
from .linalg import NoConvergenceError, NotHermitianError
from .prospects import (
    CompositeState,
    DegenerateProspectError,
    max_entangled_state,
    product_state,
    prospect_probabilities,
)
from .sampling import random_density
from .uncertain import ModeWeights

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: Maximum tolerated weight-normalization error in strict mode.
STRICT_WEIGHT_TOL = 1e-10


class CliError(Exception):
    """Input validation failure (exit code 2)."""


def _env_seed() -> int:
    raw = os.environ.get("QPROB_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"QPROB_SEED must be an integer, got {raw!r}") from exc


def _env_workers() -> int:
    raw = os.environ.get("QPROB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise CliError(f"QPROB_THREADS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise CliError(f"QPROB_THREADS must be positive, got {workers}")
    return workers


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return config


#: Config keys by JSON type; a bool is neither an integer nor a number.  Null
#: is accepted only where the default is null.
_TYPED_KEYS = (
    (("paths", "stride", "seed", "m", "dim"), int, "an integer"),
    (("b", "sigma", "s0", "x0", "dt", "tmax"), (int, float), "a number"),
    (("plot", "strict", "corrupt-state"), bool, "true or false"),
)


def _effective_config(defaults: dict[str, Any], config: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults < config file < explicitly given flags, and check the types."""
    unknown = set(config) - set(defaults)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(defaults)
    merged.update(config)
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    for keys, kind, name in _TYPED_KEYS:
        for key in keys:
            value = merged.get(key)
            if value is None and defaults.get(key) is None:
                continue
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise CliError(f"{key} must be {name}, got {value!r}")
    if not isinstance(merged.get("rows", []), list):
        raise CliError(f"rows must be a list of alpha,beta,mu,nu,lambda_plus strings, got {merged['rows']!r}")
    return merged


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _write_json_report(path: str | None, report: dict[str, Any]) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"report holds a non-finite value: {exc}") from exc
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _report_skeleton(command: str, config: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "config": config,
        "meta": {"tool": "qprob", "version": __version__},
    }


def _parse_complex_list(text: str) -> np.ndarray:
    try:
        values = [complex(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"cannot parse complex entries from {text!r}: {exc}") from exc
    if not values:
        raise CliError(f"no entries found in {text!r}")
    return np.array(values, dtype=np.complex128)


def _parse_weights(text: str, strict: bool) -> ModeWeights:
    values = _parse_complex_list(text)
    total = float(np.sum(np.abs(values) ** 2))
    if strict and abs(total - 1.0) >= STRICT_WEIGHT_TOL:
        raise CliError(f"weights are not normalized (squared sum {total!r}) and --strict is set")
    try:
        return ModeWeights.normalized(values)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _matrix_from_json(obj: dict[str, Any], path: str) -> np.ndarray:
    if "matrix_re" not in obj:
        raise CliError(f"state file {path} lacks the 'matrix_re' field")
    re = np.asarray(obj["matrix_re"], dtype=float)
    im_raw = obj.get("matrix_im")
    im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise CliError(f"state file {path} must hold square real/imaginary parts of equal shape")
    return re + 1j * im


def _load_state_file(path: str) -> tuple[np.ndarray, int | None, int | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"state file {path} must hold a JSON object")
    matrix = _matrix_from_json(obj, path)
    return matrix, obj.get("dim_a"), obj.get("dim_b")


# ---------------------------------------------------------------- measure


_MEASURE_DEFAULTS: dict[str, Any] = {"state": "maxmix", "dim": 2, "out": None, "seed": None}


def _cmd_measure(args: argparse.Namespace) -> int:
    config = _effective_config(_MEASURE_DEFAULTS, _load_config(args.config), args)
    seed = config["seed"] if config["seed"] is not None else _env_seed()
    spec = str(config["state"])
    dim = config["dim"]
    if dim < 1:
        raise CliError(f"dimension must be positive, got {dim}")
    try:
        if spec.startswith("diag:"):
            probs = [float(x) for x in spec[5:].split(",")]
            rho = DensityOperator.diagonal(probs)
        elif spec.startswith("pure:"):
            rho = DensityOperator.pure(_parse_complex_list(spec[5:]))
        elif spec.startswith("file:"):
            matrix, _, _ = _load_state_file(spec[5:])
            rho = DensityOperator(matrix)
        elif spec == "maxmix":
            rho = DensityOperator.maximally_mixed(dim)
        elif spec == "random":
            rho = random_density(np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF), dim)
        else:
            raise CliError(f"unknown state spec {spec!r}; use diag:..., pure:..., file:..., maxmix or random")
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    obs = Observable.standard(rho.dim)
    probabilities = [event_probability(rho, obs, n) for n in range(rho.dim)]
    total = float(sum(probabilities))
    config["seed"] = seed
    report = _report_skeleton("measure", config)
    report["result"] = {
        "probabilities": probabilities,
        "sum": total,
        "checks": {
            "sums_to_one": bool(abs(total - 1.0) < 1e-10),
            "all_in_unit_interval": bool(all(0.0 <= p <= 1.0 for p in probabilities)),
        },
    }
    _write_json_report(config["out"], report)
    return EXIT_OK


# --------------------------------------------------------------- prospect


_PROSPECT_DEFAULTS: dict[str, Any] = {
    "preset": "bell-like",
    "m": 2,
    "state-file": None,
    "weights": None,
    "strict": False,
    "mode": "raw",
    "out": None,
    "seed": None,
}


def _prospect_state_from_config(config: dict[str, Any], seed: int) -> CompositeState:
    preset = str(config["preset"])
    if preset == "bell-like":
        amplitudes = np.array([0.5, 0.5, 0.5, -0.5], dtype=np.complex128)
        return CompositeState(rho=DensityOperator.pure(amplitudes), dim_a=2, dim_b=2)
    if preset == "max-entangled":
        return max_entangled_state(config["m"])
    if preset == "product":
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        return product_state(random_density(rng, config["m"]), random_density(rng, config["m"]))
    if preset == "file":
        path = config["state-file"]
        if not path:
            raise CliError("preset 'file' needs --state-file")
        matrix, dim_a, dim_b = _load_state_file(path)
        if dim_a is None or dim_b is None:
            raise CliError(f"state file {path} must carry 'dim_a' and 'dim_b'")
        try:
            return CompositeState(rho=DensityOperator(matrix), dim_a=int(dim_a), dim_b=int(dim_b))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError(f"unknown preset {preset!r}; use product, max-entangled, bell-like or file")


def _cmd_prospect(args: argparse.Namespace) -> int:
    config = _effective_config(_PROSPECT_DEFAULTS, _load_config(args.config), args)
    seed = config["seed"] if config["seed"] is not None else _env_seed()
    config["seed"] = seed
    state = _prospect_state_from_config(config, seed)
    if config["weights"] is None:
        weights = ModeWeights.normalized(np.ones(state.dim_b))
        config["weights"] = ",".join("1" for _ in range(state.dim_b))
    else:
        weights = _parse_weights(str(config["weights"]), config["strict"])
    if weights.dim != state.dim_b:
        raise CliError(f"weight length {weights.dim} does not match second factor {state.dim_b}")

    raw = prospect_probabilities(state, weights, mode="raw")
    normalized = prospect_probabilities(state, weights, mode="normalized")
    checks = {
        "raw_p_equals_f_plus_q": bool(np.max(np.abs(raw.p - raw.f - raw.q)) < 1e-12),
        "normalized_p_sums_to_one": bool(abs(float(normalized.p.sum()) - 1.0) < 1e-10),
        "normalized_f_sums_to_one": bool(abs(float(normalized.f.sum()) - 1.0) < 1e-10),
        "normalized_q_sums_to_zero": bool(abs(float(normalized.q.sum())) < 1e-10),
        "interference_within_unit_band": bool(np.max(np.abs(normalized.q)) <= 1.0),
    }
    report = _report_skeleton("prospect", config)
    report["result"] = {
        "mode": config["mode"],
        "raw": {"p": raw.p.tolist(), "f": raw.f.tolist(), "q": raw.q.tolist()},
        "normalized": {
            "p": normalized.p.tolist(),
            "f": normalized.f.tolist(),
            "q": normalized.q.tolist(),
        },
        "checks": checks,
    }
    _write_json_report(config["out"], report)
    return EXIT_OK


# ------------------------------------------------------------ quarter-law


_QUARTER_DEFAULTS: dict[str, Any] = {
    "symmetric": "0.5,1,2,5",
    "rows": [],
    "out": None,
    "report": None,
}


def _cmd_quarter_law(args: argparse.Namespace) -> int:
    config = _effective_config(_QUARTER_DEFAULTS, _load_config(args.config), args)
    table: list[tuple[float, float, float, float, float]] = []
    symmetric = str(config["symmetric"]).strip()
    if symmetric:
        for part in symmetric.split(","):
            try:
                alpha = float(part)
            except ValueError as exc:
                raise CliError(f"bad symmetric shape {part!r}") from exc
            table.append((alpha, alpha, alpha, alpha, 0.5))
    for row in config["rows"]:
        parts = [p for p in str(row).split(",") if p.strip()]
        if len(parts) != 5:
            raise CliError(f"--row needs alpha,beta,mu,nu,lambda_plus, got {row!r}")
        try:
            table.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise CliError(f"bad row {row!r}: {exc}") from exc
    if not table:
        raise CliError("no rows to tabulate; give --symmetric or --row")

    lines = ["alpha,beta,mu,nu,lambdaPlus,qPlus,qMinus,residual"]
    for alpha, beta, mu, nu, lambda_plus in table:
        try:
            dist = quarterlaw.BetaPairDistribution(
                alpha=alpha, beta=beta, mu=mu, nu=nu,
                lambda_plus=lambda_plus, lambda_minus=1.0 - lambda_plus,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        split = quarterlaw.q_split_closed(dist)
        residual = quarterlaw.zero_mean_residual(dist)
        lines.append(
            ",".join(
                _format_float(v)
                for v in (alpha, beta, mu, nu, lambda_plus, split.q_plus, split.q_minus, residual)
            )
        )
    text = "\n".join(lines) + "\n"
    if config["out"] is None:
        sys.stdout.write(text)
    else:
        Path(config["out"]).write_text(text, encoding="utf-8")
    if config["report"] is not None:
        report = _report_skeleton("quarter-law", {k: v for k, v in config.items() if k != "rows"})
        report["config"]["rows"] = list(config["rows"])
        report["result"] = {"rows_written": len(table), "csv": config["out"]}
        _write_json_report(config["report"], report)
    return EXIT_OK


# ---------------------------------------------------------------- bec-sim


_BEC_DEFAULTS: dict[str, Any] = {
    "b": 0.25,
    "s0": -0.9,
    "x0": 0.0,
    "sigma": 0.1,
    "dt": 1e-3,
    "tmax": 100.0,
    "paths": 2000,
    "stride": 100,
    "seed": None,
    "out": None,
    "report": None,
    "plot": False,
}


def _cmd_bec_sim(args: argparse.Namespace) -> int:
    config = _effective_config(_BEC_DEFAULTS, _load_config(args.config), args)
    seed = config["seed"] if config["seed"] is not None else _env_seed()
    config["seed"] = seed
    stride = config["stride"]
    if stride < 1:
        raise CliError(f"stride must be positive, got {stride}")
    if config["plot"] and config["out"] is None:
        raise CliError("--plot needs --out to derive the SVG path")
    try:
        params = becsim.BecParams(
            b=float(config["b"]),
            sigma=float(config["sigma"]),
            s0=float(config["s0"]),
            x0=float(config["x0"]),
            dt=float(config["dt"]),
            t_max=float(config["tmax"]),
            n_paths=config["paths"],
            seed=seed,
        )
        bc = becsim.critical_amplitude(params.s0, params.x0)
        regime = becsim.regime_classify(params.b, params.s0, params.x0)
    except becsim.DenominatorVanishes as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    result = becsim.ensemble_interference(params, workers=_env_workers())

    idx = range(0, params.n_steps + 1, stride)
    lines = ["t,p1,p2,f1,f2,q1,q2,stderr1"]
    for k in idx:
        lines.append(
            ",".join(
                _format_float(v)
                for v in (
                    result.times[k], result.p1[k], result.p2[k], result.f1[k],
                    result.f2[k], result.q1[k], result.q2[k], result.std_err1[k],
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if config["out"] is None:
        sys.stdout.write(text)
    else:
        Path(config["out"]).write_text(text, encoding="utf-8")

    svg_path = None
    if config["plot"]:
        svg_path = str(Path(config["out"]).with_suffix(".svg"))
        caption = (
            f"interference factor, pumping b = {params.b:g} "
            f"(critical value {bc:.3f}, {regime.value} regime)"
        )
        svg = svgplot.line_plot(
            result.times[:: stride], result.q1[:: stride],
            title=caption, x_label="dimensionless time", y_label="q1(t)",
        )
        Path(svg_path).write_text(svg, encoding="utf-8")

    report = _report_skeleton("bec-sim", config)
    report["meta"]["kernel"] = becsim.KERNEL
    report["result"] = {
        "critical_amplitude": bc,
        "regime": regime.value,
        "rows": len(lines) - 1,
        "csv": config["out"],
        "svg": svg_path,
        "max_abs_q1": float(np.max(np.abs(result.q1))),
    }
    if config["report"] is not None:
        _write_json_report(config["report"], report)
    elif config["out"] is not None:
        # CSV went to a file, so the report can use stdout without clashing.
        _write_json_report(None, report)
    return EXIT_OK


# ----------------------------------------------------------------- verify


_VERIFY_DEFAULTS: dict[str, Any] = {
    "filter": None,
    "seed": None,
    "out": None,
    "corrupt-state": False,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _effective_config(_VERIFY_DEFAULTS, _load_config(args.config), args)
    seed = config["seed"] if config["seed"] is not None else _env_seed()
    config["seed"] = seed
    try:
        results = verify.run_checks(
            seed,
            group_filter=config["filter"],
            corrupt=config["corrupt-state"],
            workers=_env_workers(),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{status} {result.group}/{result.name}: {result.detail}\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    if config["out"] is not None:
        report = _report_skeleton("verify", config)
        report["result"] = {
            "checks": [
                {"group": r.group, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        _write_json_report(config["out"], report)
    if failed:
        sys.stderr.write(f"invariant failure: {failed[0].group}/{failed[0].name}\n")
        return EXIT_INVARIANT
    return EXIT_OK


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprob",
        description="Quantum probabilities for multimode systems: measurements, prospects, interference and condensate dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="projective outcome probabilities of a state")
    measure.add_argument("--config", help="JSON config file")
    measure.add_argument("--state", help="diag:p1,p2,... | pure:c1,c2,... | file:PATH | maxmix | random")
    measure.add_argument("--dim", type=int, help="dimension for maxmix/random states")
    measure.add_argument("--seed", type=int, help="seed for the random state spec")
    measure.add_argument("--out", help="write the JSON report here instead of stdout")

    prospect = sub.add_parser("prospect", help="composite-event probability families p, f, q")
    prospect.add_argument("--config", help="JSON config file")
    prospect.add_argument("--preset", choices=["product", "max-entangled", "bell-like", "file"])
    prospect.add_argument("--m", type=int, help="modes per factor for max-entangled/product presets")
    prospect.add_argument("--state-file", dest="state_file", help="composite state JSON for preset 'file'")
    prospect.add_argument("--weights", help="comma-separated complex amplitudes over the second factor")
    prospect.add_argument("--strict", action="store_true", default=None,
                          help="reject weights whose squared sum is not 1 instead of normalizing")
    group = prospect.add_mutually_exclusive_group()
    group.add_argument("--normalized", dest="mode", action="store_const", const="normalized")
    group.add_argument("--raw", dest="mode", action="store_const", const="raw")
    prospect.add_argument("--seed", type=int)
    prospect.add_argument("--out", help="write the JSON report here instead of stdout")

    quarter = sub.add_parser("quarter-law", help="tabulate interference-distribution moments")
    quarter.add_argument("--config", help="JSON config file")
    quarter.add_argument("--symmetric", help="comma list of shapes tabulated as symmetric rows")
    quarter.add_argument("--row", dest="rows", action="append",
                         help="explicit alpha,beta,mu,nu,lambdaPlus row (repeatable)")
    quarter.add_argument("--out", help="CSV output path (stdout otherwise)")
    quarter.add_argument("--report", help="optional JSON report path")

    bec = sub.add_parser("bec-sim", help="two-mode condensate ensemble simulation")
    bec.add_argument("--config", help="JSON config file")
    bec.add_argument("--b", type=float, help="pumping amplitude")
    bec.add_argument("--s0", type=float, help="initial population imbalance")
    bec.add_argument("--x0", type=float, help="initial phase difference")
    bec.add_argument("--sigma", type=float, help="phase noise strength")
    bec.add_argument("--dt", type=float, help="time step")
    bec.add_argument("--tmax", type=float, help="horizon")
    bec.add_argument("--paths", type=int, help="ensemble size")
    bec.add_argument("--stride", type=int, help="emit every stride-th step")
    bec.add_argument("--seed", type=int)
    bec.add_argument("--out", help="CSV output path (stdout otherwise)")
    bec.add_argument("--report", help="JSON report path")
    bec.add_argument("--plot", action="store_true", default=None,
                     help="emit an SVG of q1(t) next to the CSV")

    ver = sub.add_parser("verify", help="run the library invariant suites")
    ver.add_argument("--config", help="JSON config file")
    ver.add_argument("--filter", choices=list(verify.GROUPS), help="restrict to one check group")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--out", help="JSON report path")
    ver.add_argument("--corrupt-state", dest="corrupt_state", action="store_true", default=None,
                     help="test-only: inject a fault to exercise the failure path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "measure": _cmd_measure,
        "prospect": _cmd_prospect,
        "quarter-law": _cmd_quarter_law,
        "bec-sim": _cmd_bec_sim,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (becsim.StepRejected, quarterlaw.QuadratureError, NotHermitianError,
            NoConvergenceError, DegenerateProspectError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
