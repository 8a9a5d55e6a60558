"""Command-line interface.

Subcommands: ``measure`` (projective outcome probabilities), ``prospect``
(composite-event p/f/q families), ``quarter-law`` (closed-form moments
of the interference distribution), ``bec-sim``
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


class CliError(Exception):
    """Input validation failure (exit code 2)."""


def _env_int(name: str, default: str) -> int:
    raw = os.environ.get(name, default)
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"{name} must be an integer, got {raw!r}") from exc


def _env_workers() -> int:
    workers = _env_int("QPROB_THREADS", "1")
    if workers < 1:
        raise CliError(f"QPROB_THREADS must be positive, got {workers}")
    return workers


def _read_json_object(path: str, what: str) -> dict[str, Any]:
    """The JSON object in the file ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"{what} {path} must hold a JSON object")
    return obj


def _has_type(value: Any, kind: Any) -> bool:
    """Whether a JSON value is of an option type (see :data:`_COMMANDS`)."""
    if isinstance(kind, tuple):
        return value in kind
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list of strings"}


def _effective_config(command: str, args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults < config file < given flags, check every value's type,
    and take a null seed from ``QPROB_SEED``."""
    options = _COMMANDS[command][2]
    config = {} if args.config is None else _read_json_object(args.config, "config")
    unknown = set(config) - {name for name, *_ in options}
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for name, kind, default, _ in options:
        flag = getattr(args, name.replace("-", "_"))
        value = config.get(name, default) if flag is None else flag
        if not (value is None and default is None or _has_type(value, kind)):
            expected = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _TYPE_NAMES[kind]
            raise CliError(f"{name} must be {expected}, got {value!r}")
        merged[name] = value
    if "seed" in merged and merged["seed"] is None:
        merged["seed"] = _env_int("QPROB_SEED", "0")
    return merged


def _csv_row(values) -> str:
    """One CSV row, each float with the 17 significant digits that round-trip it."""
    return ",".join(f"{x:.17g}" for x in values)


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_json_report(path: str | None, report: dict[str, Any]) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"report holds a non-finite value: {exc}") from exc
    _write_text(path, text)


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
    if strict:
        ModeWeights(values)  # refuses weights whose squared sum is not 1
    return ModeWeights.normalized(values)


def _matrix_from_json(obj: dict[str, Any], path: str) -> np.ndarray:
    if "matrix_re" not in obj:
        raise CliError(f"state file {path} lacks the 'matrix_re' field")
    try:
        re = np.asarray(obj["matrix_re"], dtype=float)
        im_raw = obj.get("matrix_im")
        im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"state file {path} holds a non-numeric matrix: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise CliError(f"state file {path} must hold square real/imaginary parts of equal shape")
    return re + 1j * im


def _load_state_file(path: str) -> tuple[np.ndarray, dict[str, Any]]:
    """The matrix of a state file, and the file's JSON object."""
    obj = _read_json_object(path, "state file")
    return _matrix_from_json(obj, path), obj


# ---------------------------------------------------------------- measure


def _cmd_measure(config: dict[str, Any]) -> int:
    spec = config["state"]
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
            rho = DensityOperator(_load_state_file(spec[5:])[0])
        elif spec == "maxmix":
            rho = DensityOperator.maximally_mixed(dim)
        elif spec == "random":
            rho = random_density(np.random.default_rng(config["seed"] & 0xFFFFFFFFFFFFFFFF), dim)
        else:
            raise CliError(f"unknown state spec {spec!r}; use diag:..., pure:..., file:..., maxmix or random")
    except ValueError as exc:  # so a NotHermitianError input exits 2, not 3
        raise CliError(str(exc)) from exc
    obs = Observable.standard(rho.dim)
    probabilities = [event_probability(rho, obs, n) for n in range(rho.dim)]
    total = float(sum(probabilities))
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


def _prospect_state_from_config(config: dict[str, Any]) -> CompositeState:
    preset = config["preset"]
    if preset == "bell-like":
        amplitudes = np.array([0.5, 0.5, 0.5, -0.5], dtype=np.complex128)
        return CompositeState(rho=DensityOperator.pure(amplitudes), dim_a=2, dim_b=2)
    if preset == "max-entangled":
        return max_entangled_state(config["m"])
    if preset == "product":
        rng = np.random.default_rng(config["seed"] & 0xFFFFFFFFFFFFFFFF)
        return product_state(random_density(rng, config["m"]), random_density(rng, config["m"]))
    path = config["state-file"]
    if not path:
        raise CliError("preset 'file' needs --state-file")
    matrix, obj = _load_state_file(path)
    for field in ("dim_a", "dim_b"):
        if not _has_type(obj.get(field), int):
            raise CliError(f"state file {path}: {field} must be an integer, got {obj.get(field)!r}")
    try:
        return CompositeState(rho=DensityOperator(matrix), dim_a=obj["dim_a"], dim_b=obj["dim_b"])
    except ValueError as exc:  # so a NotHermitianError input exits 2, not 3
        raise CliError(str(exc)) from exc


def _cmd_prospect(config: dict[str, Any]) -> int:
    state = _prospect_state_from_config(config)
    if config["weights"] is None:
        weights = ModeWeights.normalized(np.ones(state.dim_b))
        config["weights"] = ",".join("1" for _ in range(state.dim_b))
    else:
        weights = _parse_weights(config["weights"], config["strict"])

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


def _cmd_quarter_law(config: dict[str, Any]) -> int:
    table: list[tuple[float, float, float, float, float]] = []
    symmetric = config["symmetric"].strip()
    if symmetric:
        for part in symmetric.split(","):
            try:
                alpha = float(part)
            except ValueError as exc:
                raise CliError(f"bad symmetric shape {part!r}") from exc
            table.append((alpha, alpha, alpha, alpha, 0.5))
    for row in config["rows"]:
        parts = [p for p in row.split(",") if p.strip()]
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
        dist = quarterlaw.BetaPairDistribution(
            alpha=alpha, beta=beta, mu=mu, nu=nu,
            lambda_plus=lambda_plus, lambda_minus=1.0 - lambda_plus,
        )
        split = quarterlaw.q_split_closed(dist)
        residual = quarterlaw.zero_mean_residual(dist)
        lines.append(_csv_row((alpha, beta, mu, nu, lambda_plus, split.q_plus, split.q_minus, residual)))
    _write_text(config["out"], "\n".join(lines) + "\n")
    if config["report"] is not None:
        report = _report_skeleton("quarter-law", config)
        report["result"] = {"rows_written": len(table), "csv": config["out"]}
        _write_json_report(config["report"], report)
    return EXIT_OK


# ---------------------------------------------------------------- bec-sim


def _cmd_bec_sim(config: dict[str, Any]) -> int:
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
            seed=config["seed"],
        )
        bc = becsim.critical_amplitude(params.s0, params.x0)
        regime = becsim.regime_classify(params.b, params.s0, params.x0)
    except becsim.DenominatorVanishes as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OverflowError) as exc:  # an integer beyond the float range overflows
        raise CliError(str(exc)) from exc
    # the step count is known once the params are valid; the plot needs two rows
    if config["plot"] and stride > params.n_steps:
        raise CliError(f"--plot needs two rows, but --stride {stride} exceeds the {params.n_steps} steps")

    result = becsim.ensemble_interference(params, workers=_env_workers())

    columns = (result.times, result.p1, result.p2, result.f1, result.f2, result.q1, result.q2, result.std_err1)
    lines = ["t,p1,p2,f1,f2,q1,q2,stderr1"]
    lines += [_csv_row(column[k] for column in columns) for k in range(0, params.n_steps + 1, stride)]
    _write_text(config["out"], "\n".join(lines) + "\n")

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
        _write_text(svg_path, svg)

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


def _cmd_verify(config: dict[str, Any]) -> int:
    results = verify.run_checks(
        config["seed"],
        group_filter=config["filter"],
        corrupt=config["corrupt-state"],
        workers=_env_workers(),
    )
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


#: Every subcommand: its handler, its help and its options, each option once
#: as (name, type, default, help).  The name is both the config key and the
#: flag; a ``list`` option is a repeatable flag named in the singular.  The
#: type binds flags and config values alike: ``int``, ``float`` (any JSON
#: number), ``bool``, ``str``, ``list`` (of strings) or a tuple of the allowed
#: strings.  A bool is no number, and null passes only where the default is null.
_COMMANDS: dict[str, tuple[Any, str, tuple[tuple[str, Any, Any, str], ...]]] = {
    "measure": (_cmd_measure, "projective outcome probabilities of a state", (
        ("state", str, "maxmix", "diag:p1,p2,... | pure:c1,c2,... | file:PATH | maxmix | random"),
        ("dim", int, 2, "dimension for maxmix/random states"),
        ("seed", int, None, "seed for the random state spec"),
        ("out", str, None, "write the JSON report here instead of stdout"),
    )),
    "prospect": (_cmd_prospect, "composite-event probability families p, f, q", (
        ("preset", ("product", "max-entangled", "bell-like", "file"), "bell-like", "composite state"),
        ("m", int, 2, "modes per factor for max-entangled/product presets"),
        ("state-file", str, None, "composite state JSON for preset 'file'"),
        ("weights", str, None, "comma-separated complex amplitudes over the second factor"),
        ("strict", bool, False, "reject weights whose squared sum is not 1 instead of normalizing"),
        ("seed", int, None, "seed for the product preset"),
        ("out", str, None, "write the JSON report here instead of stdout"),
    )),
    "quarter-law": (_cmd_quarter_law, "tabulate interference-distribution moments", (
        ("symmetric", str, "0.5,1,2,5", "comma list of shapes tabulated as symmetric rows"),
        ("rows", list, [], "explicit alpha,beta,mu,nu,lambdaPlus row (repeatable)"),
        ("out", str, None, "CSV output path (stdout otherwise)"),
        ("report", str, None, "optional JSON report path"),
    )),
    "bec-sim": (_cmd_bec_sim, "two-mode condensate ensemble simulation", (
        ("b", float, 0.25, "pumping amplitude"),
        ("s0", float, -0.9, "initial population imbalance"),
        ("x0", float, 0.0, "initial phase difference"),
        ("sigma", float, 0.1, "phase noise strength"),
        ("dt", float, 1e-3, "time step"),
        ("tmax", float, 100.0, "horizon"),
        ("paths", int, 2000, "ensemble size"),
        ("stride", int, 100, "emit every stride-th step"),
        ("seed", int, None, "seed of the noise stream"),
        ("out", str, None, "CSV output path (stdout otherwise)"),
        ("report", str, None, "JSON report path"),
        ("plot", bool, False, "emit an SVG of q1(t) next to the CSV"),
    )),
    "verify": (_cmd_verify, "run the library invariant suites", (
        ("filter", verify.GROUPS, None, "restrict to one check group"),
        ("seed", int, None, "seed of the check streams"),
        ("out", str, None, "JSON report path"),
        ("corrupt-state", bool, False, "test-only: inject a fault to exercise the failure path"),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprob",
        description="Quantum probabilities for multimode systems: measurements, prospects, interference and condensate dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, options) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=command_help)
        for name, kind, _, option_help in (("config", str, None, "JSON config file"), *options):
            if kind is bool:
                spec = {"action": "store_true", "default": None}
            elif kind is list:
                spec = {"action": "append", "dest": name}
                name = name.removesuffix("s")
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": None if kind is str else kind}
            cmd.add_argument(f"--{name}", help=option_help, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_effective_config(args.command, args))
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
