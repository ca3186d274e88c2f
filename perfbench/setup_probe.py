"""Set-up probe: one fresh interpreter imports the CLI and resolves a workload.

``run.py`` starts this script several times and times each from process
start to the line it prints, which is when the first timed operation would
be ready.  Usage: ``python3 perfbench/setup_probe.py <workload>``.
"""

import json
import sys
import time

started = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro.cli  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402

workloads.build(sys.argv[1])
print(json.dumps({"import_s": imported - started}), flush=True)
