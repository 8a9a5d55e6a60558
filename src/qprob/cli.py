"""Command-line interface.

Subcommands: ``measure`` (projective outcome probabilities), ``prospect``
(composite-event p/f/q families), ``quarter-law`` (closed-form moments
of the interference distribution), ``bec-sim``
(two-mode condensate ensemble) and ``verify`` (the invariant suites).

Flag values override config-file values, which override built-in defaults;
the effective configuration is echoed into every JSON report.  Reports
carry no timestamps, so a rerun with the same inputs is byte-identical.

Exit codes: 0 success, 1 invariant failure, 2 invalid input, 3 numerical
failure.  An exception's class is its exit code: a ``ValueError`` exits 2
(``NotHermitianError``, any other refused input), an ``ArithmeticError``
exits 3 (``StepRejected``, ``DenominatorVanishes``, ``DegenerateProspectError``,
``QuadratureError``, ``NoConvergenceError``, a non-finite report value).
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
from .prospects import CompositeState, bell_like_state, max_entangled_state, product_state, prospect_probabilities
from .sampling import random_density
from .uncertain import ModeWeights

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _env_workers() -> int:
    raw = os.environ.get("QPROB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"QPROB_THREADS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ValueError(f"QPROB_THREADS must be positive, got {workers}")
    return workers


def _read_json_object(path: str, what: str) -> dict[str, Any]:
    """The JSON object in the file ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
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
    """Merge defaults < config file < given flags and check every value's type."""
    options = _COMMANDS[command][2]
    config = {} if args.config is None else _read_json_object(args.config, "config")
    unknown = set(config) - {name for name, *_ in options}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for name, kind, default, _ in options:
        flag = getattr(args, name.replace("-", "_"))
        value = config.get(name, default) if flag is None else flag
        if not (value is None and default is None or _has_type(value, kind)):
            expected = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _TYPE_NAMES[kind]
            raise ValueError(f"{name} must be {expected}, got {value!r}")
        merged[name] = value
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
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _refuse_shared_outputs(*paths: str | None) -> None:
    """Refuse output paths (``None`` is stdout) of which two resolve to one file."""
    resolved = [Path(path).resolve() for path in paths if path is not None]
    for k, path in enumerate(resolved):
        if path in resolved[:k]:
            raise ValueError(f"two outputs would write the same file {path}")


def _write_report(path: str | None, command: str, config: dict[str, Any], result: dict[str, Any], **meta: Any) -> None:
    """Write the JSON report ``{command, config, meta, result}`` of a command
    to the file ``path``, or to stdout when there is none; ``meta`` adds keys
    to the report's tool and version."""
    meta = {"tool": "qprob", "version": __version__, **meta}
    report = {"command": command, "config": config, "meta": meta, "result": result}
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"report holds a non-finite value: {exc}") from exc
    _write_text(path, text)


def _parse_list(text: str, what: str, kind: type = float, count: int | None = None) -> list:
    """The numbers of the comma-separated list ``text``, each read by ``kind``
    (``float`` or ``complex``), empty entries skipped: one or more of them, or
    exactly ``count``.  ``what`` names the input in the error."""
    values = []
    for entry in text.split(","):
        entry = entry.strip()
        if entry:
            try:
                values.append(kind(entry))
            except ValueError:
                raise ValueError(f"{what} entry {entry!r} is not a number") from None
    if not values or count not in (None, len(values)):
        raise ValueError(f"{what} needs {count or 'one or more'} entries, got {len(values)} in {text!r}")
    return values


def _load_state_file(path: str) -> tuple[np.ndarray, dict[str, Any]]:
    """The matrix of a state file, and the file's JSON object."""
    obj = _read_json_object(path, "state file")
    if "matrix_re" not in obj:
        raise ValueError(f"state file {path} lacks the 'matrix_re' field")
    try:
        re = np.asarray(obj["matrix_re"], dtype=float)
        im_raw = obj.get("matrix_im")
        im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state file {path} holds a non-numeric matrix: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError(f"state file {path} must hold square real/imaginary parts of equal shape")
    return re + 1j * im, obj


# ---------------------------------------------------------------- measure


def _cmd_measure(config: dict[str, Any]) -> int:
    spec = config["state"]
    if spec.startswith("diag:"):
        rho = DensityOperator.diagonal(_parse_list(spec[5:], "--state diag:"))
    elif spec.startswith("pure:"):
        rho = DensityOperator.pure(_parse_list(spec[5:], "--state pure:", complex))
    elif spec.startswith("file:"):
        rho = DensityOperator(_load_state_file(spec[5:])[0])
    elif spec == "maxmix":
        rho = DensityOperator.maximally_mixed(config["dim"])
    elif spec == "random":
        rho = random_density(np.random.default_rng(config["seed"] & 0xFFFFFFFFFFFFFFFF), config["dim"])
    else:
        raise ValueError(f"unknown state spec {spec!r}; use diag:..., pure:..., file:..., maxmix or random")
    obs = Observable.standard(rho.dim)
    probabilities = [event_probability(rho, obs, n) for n in range(rho.dim)]
    total = float(sum(probabilities))
    _write_report(config["out"], "measure", config, {
        "probabilities": probabilities,
        "sum": total,
        "checks": {
            "sums_to_one": bool(abs(total - 1.0) < 1e-10),
            "all_in_unit_interval": bool(all(0.0 <= p <= 1.0 for p in probabilities)),
        },
    })
    return EXIT_OK


# --------------------------------------------------------------- prospect


def _prospect_state_from_config(config: dict[str, Any]) -> CompositeState:
    preset = config["preset"]
    if preset == "bell-like":
        return bell_like_state()
    if preset == "max-entangled":
        return max_entangled_state(config["m"])
    if preset == "product":
        rng = np.random.default_rng(config["seed"] & 0xFFFFFFFFFFFFFFFF)
        return product_state(random_density(rng, config["m"]), random_density(rng, config["m"]))
    path = config["state-file"]
    if not path:
        raise ValueError("preset 'file' needs --state-file")
    matrix, obj = _load_state_file(path)
    for field in ("dim_a", "dim_b"):
        if not _has_type(obj.get(field), int):
            raise ValueError(f"state file {path}: {field} must be an integer, got {obj.get(field)!r}")
    return CompositeState(rho=DensityOperator(matrix), dim_a=obj["dim_a"], dim_b=obj["dim_b"])


def _cmd_prospect(config: dict[str, Any]) -> int:
    state = _prospect_state_from_config(config)
    given = config["weights"] is not None
    if not given:  # equal weights, echoed into the report
        config["weights"] = ",".join(["1"] * state.dim_b)
    values = _parse_list(config["weights"], "--weights", complex)
    if given and config["strict"]:
        ModeWeights(values)  # refuses weights whose squared sum is not 1
    weights = ModeWeights.normalized(values)

    raw = prospect_probabilities(state, weights, mode="raw")
    normalized = prospect_probabilities(state, weights, mode="normalized")
    checks = {
        "raw_p_equals_f_plus_q": bool(np.max(np.abs(raw.p - raw.f - raw.q)) < 1e-12),
        "normalized_p_sums_to_one": bool(abs(float(normalized.p.sum()) - 1.0) < 1e-10),
        "normalized_f_sums_to_one": bool(abs(float(normalized.f.sum()) - 1.0) < 1e-10),
        "normalized_q_sums_to_zero": bool(abs(float(normalized.q.sum())) < 1e-10),
        "interference_within_unit_band": bool(np.max(np.abs(normalized.q)) <= 1.0),
    }
    _write_report(config["out"], "prospect", config, {
        "raw": {"p": raw.p.tolist(), "f": raw.f.tolist(), "q": raw.q.tolist()},
        "normalized": {
            "p": normalized.p.tolist(),
            "f": normalized.f.tolist(),
            "q": normalized.q.tolist(),
        },
        "checks": checks,
    })
    return EXIT_OK


# ------------------------------------------------------------ quarter-law


def _cmd_quarter_law(config: dict[str, Any]) -> int:
    _refuse_shared_outputs(config["out"], config["report"])
    symmetric = config["symmetric"]  # an empty value means no symmetric rows
    shapes = _parse_list(symmetric, "--symmetric") if symmetric.strip() else []
    table = [(alpha, alpha, alpha, alpha, 0.5) for alpha in shapes]
    table += [tuple(_parse_list(row, "--row", count=5)) for row in config["rows"]]
    if not table:
        raise ValueError("no rows to tabulate; give --symmetric or --row")

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
        _write_report(config["report"], "quarter-law", config, {"rows_written": len(table), "csv": config["out"]})
    return EXIT_OK


# ---------------------------------------------------------------- bec-sim


def _cmd_bec_sim(config: dict[str, Any]) -> int:
    stride = config["stride"]
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if config["plot"] and config["out"] is None:
        raise ValueError("--plot needs --out to derive the SVG path")
    svg_path = str(Path(config["out"]).with_suffix(".svg")) if config["plot"] else None
    _refuse_shared_outputs(config["out"], config["report"], svg_path)
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
    except OverflowError as exc:  # a JSON integer beyond the float range is invalid input
        raise ValueError(str(exc)) from exc
    bc = becsim.critical_amplitude(params.s0, params.x0)
    regime = becsim.Regime.of(params.b, bc)
    # the step count is known once the params are valid; the plot needs two rows
    if config["plot"] and stride > params.n_steps:
        raise ValueError(f"--plot needs two rows, but --stride {stride} exceeds the {params.n_steps} steps")

    result = becsim.ensemble_interference(params, workers=_env_workers())

    columns = (result.times, result.p1, result.p2, result.f1, result.f2, result.q1, result.q2, result.std_err1)
    lines = ["t,p1,p2,f1,f2,q1,q2,stderr1"]
    lines += [_csv_row(column[k] for column in columns) for k in range(0, params.n_steps + 1, stride)]
    _write_text(config["out"], "\n".join(lines) + "\n")

    if svg_path is not None:
        caption = (
            f"interference factor, pumping b = {params.b:g} "
            f"(critical value {bc:.3f}, {regime.value} regime)"
        )
        svg = svgplot.line_plot(
            result.times[:: stride], result.q1[:: stride],
            title=caption, x_label="dimensionless time", y_label="q1(t)",
        )
        _write_text(svg_path, svg)

    # the report goes to --report, else to stdout once the CSV went to a file
    if config["report"] is not None or config["out"] is not None:
        _write_report(config["report"], "bec-sim", config, {
            "critical_amplitude": bc,
            "regime": regime.value,
            "rows": len(lines) - 1,
            "csv": config["out"],
            "svg": svg_path,
            "max_abs_q1": float(np.max(np.abs(result.q1))),
        }, kernel=becsim.KERNEL)
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
        _write_report(config["out"], "verify", config, {
            "checks": [
                {"group": r.group, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        })
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
        ("seed", int, 0, "seed for the random state spec"),
        ("out", str, None, "write the JSON report here instead of stdout"),
    )),
    "prospect": (_cmd_prospect, "composite-event probability families p, f, q", (
        ("preset", ("product", "max-entangled", "bell-like", "file"), "bell-like", "composite state"),
        ("m", int, 2, "modes per factor for max-entangled/product presets"),
        ("state-file", str, None, "composite state JSON for preset 'file'"),
        ("weights", str, None, "comma-separated complex amplitudes over the second factor"),
        ("strict", bool, False, "reject weights whose squared sum is not 1 instead of normalizing"),
        ("seed", int, 0, "seed for the product preset"),
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
        ("seed", int, 0, "seed of the noise stream"),
        ("out", str, None, "CSV output path (stdout otherwise)"),
        ("report", str, None, "JSON report path"),
        ("plot", bool, False, "emit an SVG of q1(t) next to the CSV"),
    )),
    "verify": (_cmd_verify, "run the library invariant suites", (
        ("filter", verify.GROUPS, None, "restrict to one check group"),
        ("seed", int, 0, "seed of the check streams"),
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
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
