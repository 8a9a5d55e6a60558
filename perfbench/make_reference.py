"""Regenerate ensemble_reference.json: f1, p1 and stderr1 of both ensemble regimes.

The stored values come from the commit that defined the benchmark; the
ensemble gate compares later commits against them (f1 tightly, p1 within a
few stderr1).  Rewrite the file only when the reference itself must move,
and say why in the change that does it.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    os.environ.update(run.THREAD_ENV)
    run.import_program()
    import workloads

    size = workloads.FULL
    regimes = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as tmp:
        for b in workloads.ENSEMBLE_REGIMES:
            argv = workloads.ensemble_argv(b, size, Path(tmp) / f"b{b}.csv")
            code, _, err = workloads.call_cli(argv, workloads.ENSEMBLE_THREADS)
            if code != 0:
                sys.stderr.write(err)
                return 1
            text = (Path(tmp) / f"b{b}.csv").read_text(encoding="utf-8")
            rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
            regimes[str(b)] = {
                "argv": argv[:-2],
                "f1": [row[3] for row in rows],
                "p1": [row[1] for row in rows],
                "stderr1": [row[7] for row in rows],
            }
    text = json.dumps({"regimes": regimes}, indent=1) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
