"""Fast self-check of the benchmark at a tiny size (under two minutes).

Checks, by running run.py as a benchmark harness would:

- every workload prints exactly the metrics BENCHMARK.json declares, each
  with its unit, in both the timed and the traced mode, and passes its gate;
- the traced run covers at least 95 % of the workload's time with spans;
- an injected fault is counted as failed operations, not as a crash:
  ``verify --corrupt-state``, a wrong quarter-law oracle in ``library`` and
  a shifted f1 reference in ``ensemble``;
- without the program next to it, the benchmark exits non-zero and prints
  no result.

Run from the repository root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*flags: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.1", "--tiny", *flags]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout


def result_of(code: int, stdout: str, what: str) -> dict:
    if code != 0:
        raise AssertionError(f"{what}: exit {code}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        raise AssertionError(f"{what}: attempted/failed {result['attempted']!r}/{result['failed']!r}")
    return result


def check_metrics(result: dict, section: str, what: str) -> None:
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != declared:
        raise AssertionError(f"{what}: printed {printed} but BENCHMARK.json declares {declared}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not (isinstance(value, float) and math.isfinite(value)):
            raise AssertionError(f"{what}: {name} = {value!r}")
        if section == "end_to_end" and value == 0.0:
            raise AssertionError(f"{what}: end-to-end metric {name} is 0")


def main() -> int:
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            what = f"{workload} --trace {trace}"
            result = result_of(*bench("--workload", workload, "--trace", trace), what)
            check_metrics(result, section, what)
            if not (result["correct"] and result["failed"] == 0):
                raise AssertionError(f"{what}: gate failed: {result}")
            if trace == "1" and result["metrics"]["trace.span_coverage"]["value"] < 0.95:
                raise AssertionError(f"{what}: spans cover less than 95 % of the workload")
            print(f"ok  {what}: {len(result['metrics'])} metrics, {result['attempted']} operations")

        what = f"{workload} --inject-fault"
        result = result_of(*bench("--workload", workload, "--inject-fault"), what)
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"{what}: the fault was not counted: {result}")
        print(f"ok  {what}: {result['failed']} of {result['attempted']} operations counted as failed")

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        code, stdout = bench("--workload", WORKLOADS[0], cwd=Path(tmp))
        if code == 0 or stdout.strip():
            raise AssertionError(f"without src/ the benchmark exited {code} and printed {stdout[-200:]!r}")
    print("ok  without the program: exit", code, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
