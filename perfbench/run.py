"""End-to-end, layer-attributed benchmark of the ATNN training and serving paths.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads (see each module's docstring for why it was chosen):

* ``train`` (``train_workload.py``): Algorithm 1 at paper and default
  tower sizes, Algorithm 2 at paper size, and cold-start reads.
* ``serve_warm`` (``serve_workloads.py``): open loop of recommends and
  event batches over a warm 20k-item catalogue, telemetry armed.
* ``arrivals_ivf`` (``serve_workloads.py``): closed loop of new-arrival
  inserts, refreshes and recommends on an IVF-indexed engine.

Every workload reports the same end-to-end metrics, because each run
must print all of them: ``setup_s`` (median of several set-ups; input
generation excluded; for ``train`` also the discarded warm-up epochs),
``peak_rss_growth_mb`` (the highest resident size during the first
set-up and the timed run, above the resident size once the inputs exist;
see ``measure.reset_peak_rss``) and three latencies and a rate whose
meaning depends on the workload, so that each training phase and each
serving path has a bounded figure of its own:

=====================  ===================  ====================  ===================
metric                 train                serve_warm            arrivals_ivf
=====================  ===================  ====================  ===================
``update_ms``          p75 of an            p50 of an event       p50 of
                       Algorithm-1 step,    batch, from its due   ``add_arrivals``
                       paper dims           time until            until the batch is
                                            ``top_k`` has it      retrievable
``update_rate_per_s``  Algorithm-1          events per second     arrivals per second
                       samples/s, default   of batch service      of insert time
                       preset dims          time
``update2_ms``         p75 of an            p50 of ``refresh()``  p50 of ``ingest``
                       Algorithm-2 step,    after an event        and ``refresh()``
                       paper dims           batch                 after an arrival
                                                                  batch
``read_ms``            p75 of a 512-row     p50 of a recommend,   p50 of an IVF
                       cold-start scoring   from its due time     recommend
                       call
=====================  ===================  ====================  ===================

``train_workload.STEP_PERCENTILE`` says why training takes the 75th
percentile.  Tails (the highest of p99/p90/p75 with at least ten samples
beyond it) are reported on the detail line only; ``measure.TAIL_LADDER``
says why.
A JSON line before the result carries the environment fingerprint, and
another the workload's own figures (per-phase samples/s, AUC, recall,
freshness, queue wait, generator lag, operations
attempted/succeeded/failed) with sample counts.

With ``--trace 1`` the run first repeats the untraced run as a
reference, then runs once more with spans recorded around each layer's
public callables (``spans.py``) and prints per-layer metrics instead
(``report.py``): self times that add up to the timed wall time, counts,
ratios and the tracing overhead.  The spans are written as a Chrome/Perfetto JSON and
the self-time table as text under ``.perfbench/``.

``--size tiny`` runs every workload in seconds for the benchmark's own
test (``test_perfbench.py``).  The last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.  On a 2-CPU host a second
# OpenBLAS thread helps or not depending on what the other CPU is doing:
# with two threads the same default-preset training phase stepped in
# 20 ms in one run and 27 ms in the next; with one it took 25-27.6 ms.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _result(correct, ops, metrics) -> str:
    return json.dumps(
        {"correct": bool(correct), "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve_warm", "arrivals_ivf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from measure import Ops, fingerprint, peak_rss_mb, reset_peak_rss
    from report import layer_metrics, per_layer_units, self_time_table
    from serve_workloads import ArrivalsIvfWorkload, ServeWarmWorkload
    from spans import Instrumentation, SpanRecorder
    from train_workload import TrainWorkload

    workloads = {w.name: w for w in (TrainWorkload, ServeWarmWorkload, ArrivalsIvfWorkload)}
    print(json.dumps({"fingerprint": fingerprint(ROOT)}))
    workload = workloads[args.workload](args.seed, args.seconds, args.size)
    started = time.perf_counter()
    workload.generate()
    generate_s = time.perf_counter() - started
    inputs_rss_mb = reset_peak_rss()
    ops = Ops()

    def discard(state):
        if hasattr(workload, "discard"):
            workload.discard(state)
        state.clear()
        gc.collect()

    def setup():
        started = time.perf_counter()
        state = workload.setup()
        # A workload that prepares inputs inside set-up reports the time
        # of its program calls alone.
        return state, state.pop("setup_s", time.perf_counter() - started)

    state, first_setup_s = setup()
    setups = [first_setup_s]
    measured = workload.run(state, ops)
    peak_growth_mb = peak_rss_mb() - inputs_rss_mb
    discard(state)
    # The further set-ups for the setup_s median come after the run and
    # after its peak memory is read: the heap that a discarded set-up
    # leaves behind is reused unevenly, and made the peak of a set-up run
    # after it wander by 20% from one run to the next.
    for _ in range(0 if args.trace else workload.setup_repeats - 1):
        state, seconds = setup()
        setups.append(seconds)
        discard(state)
    if measured["complete"] and hasattr(workload, "verify") and not args.trace:
        workload.verify(measured, ops)

    if not args.trace:
        if not measured["complete"]:
            print(json.dumps({"failures": ops.failures}), file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(setups) + measured.get("lazy_setup_s", 0.0),
            "peak_rss_growth_mb": peak_growth_mb,
        }
        metrics.update(workload.end_to_end(measured))
        detail = workload.detail(measured)
        detail["generate_s"] = generate_s
        detail["setup_runs_s"] = setups
        detail["inputs_rss_mb"] = inputs_rss_mb
        detail["operations"] = {
            "attempted": ops.attempted,
            "succeeded": ops.attempted - ops.failed,
            "failed": ops.failed,
        }
        print(json.dumps({"detail": detail, "failures": ops.failures}))
        units = {"setup_s": "s", "peak_rss_growth_mb": "MB", "update_rate_per_s": "1/s"}
        result = {name: {"value": value, "unit": units.get(name, "ms")} for name, value in metrics.items()}
        print(_result(ops.failed == 0, ops, result))
        return 0

    recorder = SpanRecorder()
    serving_model = getattr(workload, "model", None)
    if serving_model is not None:
        recorder.register_model(serving_model, serving=True)
    instrumentation = Instrumentation(recorder).install(nn_layers=serving_model is None)
    try:
        with recorder.phase_scope("setup"):
            state = workload.setup()
        traced = workload.run(state, ops, recorder)
    finally:
        instrumentation.remove()
    discard(state)
    if not (measured["complete"] and traced["complete"]):
        print(json.dumps({"failures": ops.failures}), file=sys.stderr)
        return 1
    table = self_time_table(recorder)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    recorder.write_chrome_trace(f"{stem}.trace.json")
    Path(f"{stem}.layers.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    values = layer_metrics(recorder, measured, traced)
    units = per_layer_units()
    result = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(_result(ops.failed == 0, ops, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
