#!/usr/bin/env python3
"""Sensitivity self-test: injected delays must move the right metric only.

Uses the benchmark's own layer wrappers (``layers.py``) to add a sleep to
one layer and measures, with and without it, interleaved so host noise hits
both sides alike:

* a delay in ``DistributedRobustPTAS.run`` must move ``learn.work_per_ref_s``
  (slots per reference second) beyond its bound and leave ``sweep.warm_units_per_ref_s``
  within its bound;
* a delay in ``ResultStore.load`` must do the reverse.

Bounds come from ``BENCHMARK.json``.  Exits 0 when all four checks hold.
Usage: ``python3 perfbench/sensitivity.py`` (about a minute).
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run

DECIDE_DELAY_S = 0.010
LOAD_DELAY_S = 0.002
COLD_PAIRS = 4
WARM_PAIRS = 40


def _bounds() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def _paired(tracer, layer: str, delay: float, measure, pairs: int):
    """Median of ``measure()`` without and with the delay, in ABBA order."""
    base, injected = [], []
    for index in range(pairs):
        for inject in (False, True) if index % 2 == 0 else (True, False):
            tracer.delays[layer] = delay if inject else 0.0
            (injected if inject else base).append(measure())
    tracer.delays.clear()
    return statistics.median(base), statistics.median(injected)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import hostspeed
    import layers
    import workloads
    from repro.sweep.store import ResultStore

    bounds = _bounds()
    tracer = layers.LayerTracer()
    run.WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="sensitivity-", dir=run.WORK_DIR))
    learn = workloads.build("learn")
    sweep = workloads.build("sweep")
    reference = workloads.load_reference()
    learn_runner = workloads.Runner(learn, scratch, reference["learn"]["digests"], tracer)
    sweep_runner = workloads.Runner(sweep, scratch, reference["sweep"]["digests"], tracer)

    def learn_work_per_ref_s() -> float:
        store = ResultStore(tempfile.mkdtemp(dir=scratch))
        ref_s = 0.0
        for item in learn.items:
            before = hostspeed.probe_s()
            seconds = learn_runner.operation([item.plan], store, item.key)
            if seconds is None:
                raise RuntimeError("; ".join(learn_runner.tally.failures))
            ref_s += hostspeed.to_reference(seconds, (before + hostspeed.probe_s()) / 2)
        return sum(item.work for item in learn.items) / ref_s

    def sweep_warm_units_per_ref_s() -> float:
        host_s = hostspeed.probe_s()
        seconds = sweep_runner.operation(list(sweep.replay), sweep_runner.warm_store)
        if seconds is None:
            raise RuntimeError("; ".join(sweep_runner.tally.failures))
        return sweep.replay_units / hostspeed.to_reference(seconds, host_s)

    tracer.install()
    try:
        sweep_runner.fill(list(sweep.items))
        if sweep_runner.tally.failed:
            raise RuntimeError("; ".join(sweep_runner.tally.failures))
        decide, load = "distributed.decide", "sweep.store_load"
        learn_work = (
            "learn.work_per_ref_s", learn_work_per_ref_s, COLD_PAIRS, "work_per_ref_s"
        )
        sweep_warm = (
            "sweep.warm_units_per_ref_s",
            sweep_warm_units_per_ref_s,
            WARM_PAIRS,
            "warm_units_per_ref_s",
        )
        # (layer, delay, measured metric, whether it must move beyond its bound)
        checks = [
            (decide, DECIDE_DELAY_S, learn_work, True),
            (decide, DECIDE_DELAY_S, sweep_warm, False),
            (load, LOAD_DELAY_S, sweep_warm, True),
            (load, LOAD_DELAY_S, learn_work, False),
        ]
        failures = 0
        for layer, delay, (label, measure, pairs, metric), must_move in checks:
            base, injected = _paired(tracer, layer, delay, measure, pairs)
            change = 1.0 - injected / base
            bound = bounds[metric]
            moved = change > bound
            ok = moved == must_move
            failures += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} delay {delay * 1e3:g} ms in {layer}: {label} "
                f"{base:.6g} -> {injected:.6g} ({change:+.1%} worse; bound {bound:.0%}, "
                f"expected {'beyond' if must_move else 'within'})"
            )
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
