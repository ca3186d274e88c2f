#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decide|learn|sweep \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` is a separate run that wraps each layer (see ``layers.py``)
and reports per-layer self time and exact counts per cycle.  The seed fixes
the order in which a cycle computes its items.  Human-readable lines go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the harness runs one process on the serial backend.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 7

#: Counts that must repeat bit for bit in every traced cycle.
EXACT_COUNTS = (
    "distributed.mini_rounds",
    "distributed.messages",
    "distributed.deliveries",
    "mwis.local_calls",
    "sweep.store_puts",
    "dynamics.events",
)

#: Traced layer -> per-layer metric name of its self time.
SELF_TIME_METRICS = {
    "graph.topology": "graph.topology_s",
    "graph.extended": "graph.extended_s",
    "graph.neighborhoods": "graph.neighborhoods_s",
    "distributed.ptas_init": "distributed.ptas_init_s",
    "distributed.decide": "distributed.decide_s",
    "mwis.local": "mwis.local_s",
    "mwis.exact": "mwis.exact_s",
    "core.select": "core.select_s",
    "core.observe": "core.observe_s",
    "channels.sample": "channels.sample_s",
    "sim.loop": "sim.loop_self_s",
    "dynamics.apply": "dynamics.apply_s",
    "faults.engine": "faults.engine_s",
    "sweep.plan": "sweep.plan_s",
    "sweep.store_put": "sweep.store_put_s",
    "sweep.store_load": "sweep.store_load_s",
    "sweep.store_lookup": "sweep.store_lookup_s",
    "sweep.assemble": "sweep.assemble_s",
    "spec.envelope": "spec.envelope_s",
}

#: Traced layer -> per-layer metric name of its call count.
CALL_METRICS = {
    "graph.neighborhoods": "graph.neighborhoods_calls",
    "mwis.local": "mwis.local_calls",
    "mwis.exact": "mwis.exact_calls",
}

#: Counts gathered by the wrappers' hooks, reported under the same name.
HOOK_COUNTS = (
    "distributed.decisions",
    "distributed.mini_rounds",
    "distributed.messages",
    "distributed.deliveries",
    "dynamics.events",
    "sweep.store_puts",
    "sweep.store_loads",
    "sweep.store_bytes_written",
    "sweep.store_bytes_read",
)

#: ``protocol.phase`` span attribute -> per-layer metric name.
PHASES = {
    "WB": "distributed.phase_wb_s",
    "LD": "distributed.phase_ld_s",
    "LB": "distributed.phase_lb_s",
}

#: Unit of every metric either mode can report.
UNITS: Dict[str, str] = {
    "work_per_ref_s": "1/s",
    "warm_units_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep.cache_hit_ratio": "ratio",
    "sweep.store_bytes_written": "B",
    "sweep.store_bytes_read": "B",
    "warm.compute_calls": "count",
}

#: End-to-end metric names as the workload's users know them.
WORK_NAMES = {"decide": "vertices_per_s", "learn": "slots_per_s", "sweep": "cold_units_per_s"}


def unit_of(name: str) -> str:
    """Unit of a metric: seconds for ``*_s``, else a count unless listed."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name == "obs.trace_overhead":
        return "s"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decide", "learn", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str) -> Tuple[List[float], List[float], List[float]]:
    """Start :data:`SETUP_PROBES` fresh interpreters one after another.

    Returns each probe's time from process start until it reported ready,
    in wall-clock and in reference seconds (see ``hostspeed.py``), and the
    time each spent importing ``repro.cli``.
    """
    import hostspeed

    setup, setup_ref, imports = [], [], []
    host_s = hostspeed.probe_s()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            setup.append(time.perf_counter() - started)
            probe.stdout.read()
            probe.wait(timeout=120)
        if probe.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {probe.returncode}")
        before, host_s = host_s, hostspeed.probe_s()
        setup_ref.append(hostspeed.to_reference(setup[-1], (before + host_s) / 2))
        imports.append(json.loads(line)["import_s"])
    return setup, setup_ref, imports


def _order(workload, rng: random.Random) -> list:
    order = list(workload.items)
    rng.shuffle(order)
    return order


def timed_run(workload, runner, rng: random.Random, seconds: float) -> None:
    """Fill the warm store and one whole cycle, then cycles until ``seconds``."""
    deadline = time.perf_counter() + seconds
    runner.fill(_order(workload, rng))
    runner.cycle(_order(workload, rng))
    while time.perf_counter() < deadline:
        runner.cycle(_order(workload, rng), deadline=deadline)


def traced_cycles(
    workload, runner, tracer, rng: random.Random, seconds: float
) -> List[Dict[str, float]]:
    """Fill the warm store untraced, then whole traced cycles until ``seconds``.

    Returns one record per traced cycle.
    """
    from repro.obs import use_observer
    from repro.obs.trace import TracingObserver

    records = []
    deadline = time.perf_counter() + seconds
    runner.fill(_order(workload, rng))
    tracer.install()
    try:
        while not records or time.perf_counter() < deadline:
            tracer.reset()
            observer = TracingObserver()
            runner.tally.check_s = 0.0
            started = time.perf_counter()
            with use_observer(observer):
                runner.cycle(_order(workload, rng))
            wall = time.perf_counter() - started - runner.tally.check_s
            record: Dict[str, float] = {"traced.cycle_s": wall}
            for layer, name in SELF_TIME_METRICS.items():
                record[name] = tracer.self_s.get(layer, 0.0)
            for layer, name in CALL_METRICS.items():
                record[name] = tracer.calls.get(layer, 0)
            for name in HOOK_COUNTS:
                record[name] = tracer.counts.get(name, 0)
            spans = observer.spans()
            for phase, name in PHASES.items():
                record[name] = sum(
                    span.duration_s
                    for span in spans
                    if span.name == "protocol.phase" and span.attrs.get("phase") == phase
                )
            lookups = tracer.counts.get("sweep.store_lookups", 0)
            record["sweep.cache_hit_ratio"] = (
                tracer.counts.get("sweep.store_hits", 0) / lookups if lookups else 0.0
            )
            record["unattributed_s"] = wall - tracer.attributed_s()
            record["_wrapper_calls"] = tracer.wrapper_calls()
            record["_spans"] = len(spans)
            records.append(record)
    finally:
        tracer.uninstall()
    return records


def trace_metrics(records, runner, reference, import_s: List[float]) -> Dict[str, float]:
    """Per-cycle means of the traced records, with the exact-count checks."""
    import layers

    tally = runner.tally
    for name in EXACT_COUNTS:
        values = {record[name] for record in records}
        expected = reference["counts"].get(name)
        if values != {expected}:
            tally.fail(
                f"exact count {name}: cycles gave {sorted(values)}, "
                f"reference.json {expected}"
            )
    for message in runner.tracer.violations:
        tally.fail(message)
    if tally.warm_compute_calls:
        tally.fail(f"warm replays made {tally.warm_compute_calls} protocol/simulation call(s)")
    metrics = {
        name: statistics.fmean(record[name] for record in records)
        for name in records[0]
        if not name.startswith("_")
    }
    per_call = layers.wrapper_cost_s()
    per_span = layers.span_cost_s()
    metrics["obs.trace_overhead"] = statistics.fmean(
        record["_wrapper_calls"] * per_call + record["_spans"] * per_span for record in records
    )
    metrics["import.repro_cli_s"] = statistics.median(import_s)
    metrics["warm.compute_calls"] = tally.warm_compute_calls / len(records)
    return metrics


def _timing(seconds: List[float]) -> str:
    """Sample count, fastest, mean, median and (given ten samples beyond it) p90."""
    if not seconds:
        return "no successful samples"
    text = (
        f"n={len(seconds)} min {min(seconds) * 1e3:.3f} ms, "
        f"mean {statistics.fmean(seconds) * 1e3:.3f} ms, "
        f"median {statistics.median(seconds) * 1e3:.3f} ms"
    )
    if len(seconds) >= 100:
        text += f", p90 {statistics.quantiles(seconds, n=10)[-1] * 1e3:.3f} ms"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    setup_s, setup_ref_s, import_s = measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401  - the import every probe timed
    import layers
    import workloads

    workload = workloads.build(args.workload)
    reference = workloads.load_reference()[args.workload]
    rng = random.Random(args.seed)
    scratch = WORK_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = layers.LayerTracer() if args.trace else None
    runner = workloads.Runner(workload, scratch, reference["digests"], tracer=tracer)
    try:
        runner.warm_up()
        if args.trace:
            records = traced_cycles(workload, runner, tracer, rng, args.seconds)
            metrics = trace_metrics(records, runner, reference, import_s)
        else:
            timed_run(workload, runner, rng, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    tally = runner.tally

    if not args.trace:
        complete = all(tally.item_s.get(item.key) for item in workload.items) and tally.warm_s
        metrics = {
            "work_per_ref_s": tally.work_per_ref_s(workload) if complete else 0.0,
            "warm_units_per_ref_s": tally.warm_units_per_ref_s(workload) if complete else 0.0,
            "setup_s": statistics.median(setup_ref_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"{workload.name}.{WORK_NAMES[workload.name]} = {metrics['work_per_ref_s']:.6g} 1/s"
              f"  (work_per_ref_s: {workload.work_unit} per reference second at each"
              " item's median)")
        if complete:
            print(f"  wall clock: {tally.work_per_s(workload):.6g} {workload.work_unit}"
                  " per second at each item's mean time")
        for item in workload.items:
            print(f"  cold {item.key}: {item.work} {workload.work_unit}, "
                  f"wall {_timing(tally.item_s.get(item.key, []))}; "
                  f"reference {_timing(tally.item_ref_s.get(item.key, []))}")
        print(f"{workload.name}.warm_units_per_ref_s = {metrics['warm_units_per_ref_s']:.6g} 1/s"
              f"  (median replay of {workload.replay_units} units in reference seconds)")
        print(f"  warm replays: wall {_timing(tally.warm_s)}; "
              f"reference {_timing(tally.warm_ref_s)}")
        print(f"{workload.name}.setup_s = {metrics['setup_s']:.6g} s"
              f"  (median of {len(setup_s)} fresh interpreters in reference seconds: "
              + ", ".join(f"{value:.3f}" for value in setup_ref_s) + ")")
        print(f"  wall clock: median {statistics.median(setup_s):.6g} s ("
              + ", ".join(f"{value:.3f}" for value in setup_s) + ")")
        print(f"{workload.name}.peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    else:
        print(f"{workload.name}: {len(records)} traced cycle(s); per-cycle means")
        for name in sorted(metrics):
            print(f"{workload.name}.{name} = {metrics[name]:.6g} {unit_of(name)}")
    print(f"{workload.name}.error_rate = {tally.failed / max(tally.attempted, 1):.6g}"
          f"  ({tally.failed} failed of {tally.attempted} operations)")
    for message in tally.failures:
        print(f"FAILED: {message}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
