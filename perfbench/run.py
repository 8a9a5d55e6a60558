"""Benchmark of qprob: three workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble|verify|library --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload is set up, run once as a discarded warm-up,
then run back to back for ``--seconds`` seconds; the end-to-end metrics of
BENCHMARK.json are printed.  With ``--trace 1`` it is run once untraced and
once with spans around the public functions of ``qprob`` (see spans.py),
followed by the determinism comparison and the probes of probes.py; the
per-layer metrics are printed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON report with the machine fingerprint, seeds,
sample counts and any failures.

The program is always imported from ``src/`` of this checkout, never from
an installed copy; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread everywhere, so no run uses more threads than QPROB_THREADS
# workers; set before numpy is first imported, and inherited by the pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Fresh processes that repeat the set-up, for the median behind setup_s.
SETUP_REPEATS = 4

#: Untraced/traced run pairs behind trace.overhead_share.
TRACE_PAIRS = 3


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "verify", "library"))
    parser.add_argument("--seed", required=True, type=int, help="seed of the generated inputs")
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--tiny", action="store_true", help="self-check size (selfcheck.py)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-check: make every gate of the workload see a wrong result")
    parser.add_argument("--setup-only", action="store_true", help="print the set-up seconds and exit")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import numpy and qprob from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import qprob
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {src}: {exc}") from exc
    if Path(qprob.__file__).resolve().parent != (src / "qprob").resolve():
        raise BenchError(f"qprob resolved to {qprob.__file__}, not to {src}")


def attach_units(values: dict[str, float], section: str) -> dict[str, dict[str, Any]]:
    """The values under the names and units BENCHMARK.json declares for ``section``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise BenchError(f"{section} mismatch: missing {sorted(set(names) - set(values))}, "
                         f"undeclared {sorted(set(values) - set(names))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def fingerprint() -> dict[str, Any]:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
    }


def repeat_setup(args: argparse.Namespace) -> float:
    """Set-up seconds measured in a fresh interpreter running this script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up repeat failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


def totals(outcomes) -> tuple[int, int, list[str]]:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [f for o in outcomes for f in o.failures][:20]
    return attempted, failed, failures


def tail_percentile(n: int) -> float:
    """99, or the highest percentile that still leaves ten samples beyond it (at least the median)."""
    return min(99.0, max(50.0, 100.0 * (n - 10) / n))


def timed_metrics(args, run, inputs, setup_s: float) -> tuple[dict[str, float], list, dict[str, Any]]:
    import numpy as np

    setups = [setup_s] + [repeat_setup(args) for _ in range(SETUP_REPEATS)]
    warm = run(inputs)
    runs = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(run(inputs))
        now = time.perf_counter()
        # Stop when the next run would end past the window.
        if now - start + (now - t0) > args.seconds:
            break
    latencies = np.array([us for o in runs for us in o.op_us])
    tail = tail_percentile(latencies.size)
    p99 = float(np.percentile(latencies, tail))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(o.wall_s for o in runs),
        "cpu_s": statistics.median(o.cpu_s for o in runs),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(latencies) / sum(o.wall_s for o in runs),
        "op_p50_us": float(np.percentile(latencies, 50)),
        "op_p99_us": p99,
    }
    samples = {
        "setup_samples": len(setups),
        "runs": len(runs),
        "operations": int(latencies.size),
        "op_p99_us_percentile": tail,
        "operations_beyond_p99": int(np.sum(latencies > p99)),
        "measured_s": time.perf_counter() - start,
    }
    return values, [warm] + runs, samples


def traced_metrics(workload: str, run, inputs, size) -> tuple[dict[str, float], list, dict[str, Any]]:
    import probes
    import spans
    from workloads import ENSEMBLE_REGIMES, ensemble_steps, mean_stderr1_sq

    # Untraced and traced runs alternate, so that the overhead is a ratio of
    # medians taken over the same stretch of time; the spans of the last
    # traced run give the per-layer figures.
    outcomes = [run(inputs)]
    plain_runs, traced_runs = [], []
    for _ in range(TRACE_PAIRS):
        plain_runs.append(run(inputs))
        recorder = spans.Spans()
        with spans.instrument(recorder):
            traced_runs.append(run(inputs))
    outcomes += plain_runs + traced_runs
    plain, traced = plain_runs[-1], traced_runs[-1]
    plain_wall = statistics.median(o.wall_s for o in plain_runs)
    plain_cpu = statistics.median(o.cpu_s for o in plain_runs)

    # Determinism: the same outputs at QPROB_THREADS 1 and 2.
    mismatches = 0
    if workload == "ensemble":
        serial = run(inputs, threads=1)
        outcomes.append(serial)
        a, b = serial.outputs["csv"], traced.outputs["csv"]
        mismatches = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    elif workload == "verify":
        other = run(inputs, threads=2)
        outcomes.append(other)
        mismatches = int(other.outputs["stdout"] != traced.outputs["stdout"])
    traced.failed += mismatches
    if mismatches:
        traced.failures.append(f"{mismatches} output(s) differ between QPROB_THREADS 1 and 2")

    summary = recorder.summary()

    def field(name: str, key: str) -> float:
        return summary[name][key] if name in summary else 0

    def mean_us(name: str) -> float:
        return summary[name]["total_s"] / summary[name]["calls"] * 1e6 if name in summary else 0.0

    def tag_us(name: str, tag: int) -> float:
        times = summary.get(name, {}).get("by_tag", {}).get(tag)
        return statistics.fmean(times) if times else 0.0

    deterministic = summary.get("becsim.integrate_deterministic")
    values: dict[str, float] = {
        "becsim.ensemble_interference.self_s": field("becsim.ensemble_interference", "self_s"),
        "becsim.integrate_deterministic.us_per_step": (
            deterministic["total_s"] * 1e6
            / sum(steps * len(times) for steps, times in deterministic["by_tag"].items())
            if deterministic else 0.0
        ),
        "becsim.integrate_deterministic.calls": field("becsim.integrate_deterministic", "calls"),
        "becsim.step_rejected": sum(o.outputs.get("step_rejected", 0) for o in outcomes),
        "cli.main.self_s": field("cli.main", "self_s"),
        "cli.csv_bytes": sum(len(text.encode("utf-8")) for text in traced.outputs.get("csv", [])),
        "cli.determinism_mismatches": mismatches,
        "svgplot.line_plot.self_s": field("svgplot.line_plot", "self_s"),
        "sampling.random_density.self_s": field("sampling.random_density", "self_s"),
        "sampling.random_density.calls": field("sampling.random_density", "calls"),
        "quarterlaw.q_split_numeric.us": mean_us("quarterlaw.q_split_numeric"),
        "quarterlaw.q_split_numeric.calls": field("quarterlaw.q_split_numeric", "calls"),
        "quarterlaw.pdf_normalization.us": mean_us("quarterlaw.pdf_normalization"),
        "quarterlaw.pdf_normalization.calls": field("quarterlaw.pdf_normalization", "calls"),
        "prospects.prospect_probabilities.calls": field("prospects.prospect_probabilities", "calls"),
        "prospects.mode_pfq.us": mean_us("prospects.mode_pfq"),
        "prospects.partial_trace.us": mean_us("prospects.partial_trace"),
        "prospects.composite_in_eigenbasis.us": mean_us("prospects.composite_in_eigenbasis"),
        "prospects.standard_union_probability.us": mean_us("prospects.standard_union_probability"),
        "events.DensityOperator.calls": field("events.DensityOperator", "calls"),
        "events.Observable.from_matrix.us": mean_us("events.Observable.from_matrix"),
        "uncertain.ModeWeights.us": mean_us("uncertain.ModeWeights"),
        "uncertain.uncertain_probability.us": mean_us("uncertain.uncertain_probability"),
        "linalg.hermitian_eigen.self_s": field("linalg.hermitian_eigen", "self_s"),
        "linalg.hermitian_eigen.calls": field("linalg.hermitian_eigen", "calls"),
        "linalg.kron.calls": field("linalg.kron", "calls"),
        "trace.overhead_share": statistics.median(o.wall_s for o in traced_runs) / plain_wall - 1.0,
        "trace.span_coverage": recorder.top_level_s() / traced.wall_s,
        "path_steps_per_s": 0.0,
        "work_normalized_variance": plain_cpu * mean_stderr1_sq(plain),
    }
    for d in probes.DIMS:
        values[f"prospects.prospect_probabilities.us.d{d}"] = tag_us("prospects.prospect_probabilities", d)
        values[f"events.DensityOperator.us.d{d}"] = tag_us("events.DensityOperator", d)
    if workload == "ensemble":
        path_steps = len(ENSEMBLE_REGIMES) * size.ensemble_paths * ensemble_steps(size)
        values["path_steps_per_s"] = path_steps / plain_wall
    values.update(probes.becsim_probes(size))
    values.update(probes.library_probes(size))
    values.update(probes.verify_group_probes())
    attempted, failed, _ = totals(outcomes)
    values["failed_share"] = failed / attempted
    samples = {
        "spans": len(recorder.spans),
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": plain_wall,
        "trace_pairs": TRACE_PAIRS,
    }
    return values, outcomes, samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    start = time.perf_counter()
    try:
        import_program()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    make_inputs, run = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        inputs = make_inputs(args.seed, size, Path(tmp), args.inject_fault)
        os.environ["QPROB_THREADS"] = str(inputs["threads"])
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(repr(setup_s))
            return 0
        try:
            if args.trace:
                values, outcomes, samples = traced_metrics(args.workload, run, inputs, size)
                metrics = attach_units(values, "per_layer")
            else:
                values, outcomes, samples = timed_metrics(args, run, inputs, setup_s)
                metrics = attach_units(values, "end_to_end")
        except BenchError as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 1
    attempted, failed, failures = totals(outcomes)
    for name, metric in metrics.items():
        print(f"{args.workload:9s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seeds": {
            "ensemble": {"bec-sim --seed": workloads.ENSEMBLE_SEED},
            "verify": {"verify --seed": workloads.VERIFY_SEED},
            "library": {"numpy default_rng": args.seed},
        }[args.workload],
        "qprob_threads": inputs["threads"],
        "size": size.__dict__,
        "samples": samples,
        "failures": failures,
        "machine": fingerprint(),
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
