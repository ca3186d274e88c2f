#!/usr/bin/env python3
"""Re-record ``reference.json``: envelope digests and exact counts per workload.

Run only when a change is *meant* to alter results or counts, and say so in
the change; every benchmark run checks its outputs against this file::

    python3 perfbench/record.py [--workload decide|learn|sweep ...]
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=("decide", "learn", "sweep"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import layers
    import workloads

    reference = workloads.load_reference() if workloads.REFERENCE_PATH.exists() else {}
    for name in args.workload or workloads.WORKLOADS:
        workload = workloads.build(name)
        scratch = run.WORK_DIR / "record"
        scratch.mkdir(parents=True, exist_ok=True)
        tracer = layers.LayerTracer()
        runner = workloads.Runner(workload, scratch, None, tracer=tracer)
        try:
            records = run.traced_cycles(workload, runner, tracer, random.Random(0), 0.0)
        finally:
            shutil.rmtree(run.WORK_DIR, ignore_errors=True)
        if runner.tally.failed:
            print("\n".join(runner.tally.failures), file=sys.stderr)
            return 1
        reference[name] = {
            "digests": dict(sorted(runner.seen_digests.items())),
            "counts": {count: records[0][count] for count in run.EXACT_COUNTS},
        }
        print(f"{name}: {len(runner.seen_digests)} envelope(s), counts {reference[name]['counts']}")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
