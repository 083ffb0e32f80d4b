"""Per-layer metrics and the self-time table of a traced run.

Self-time rows (``<layer>_s``) cover the timed phases; ``setup.*`` rows
cover one traced set-up.  ``<phase>.<path>.<layer>_s`` splits the
training layers by phase and by Algorithm-1/2 path (``enc``: the
``L_i``/``L_r`` update, ``gen``: the ``L_g + lambda * L_s`` update).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from spans import ROOT
from train_workload import PHASES as TRAIN_PHASES

TRAIN_LAYERS = (
    "nn.embeddings",
    "nn.cross",
    "nn.deep_mlp",
    "nn.head_mlp",
    "core.scoring_head",
    "nn.loss",
    "nn.backward",
    "nn.optim_step",
)
SELF_LAYERS = (
    "data.batch_wait",
    "core.tower_input",
    *TRAIN_LAYERS,
    "nn.grad_clip",
    "core.user_tower",
    "core.encoder",
    "core.generator",
    "core.score",
    "serving.event_columns",
    "serving.store_ingest",
    "serving.store_features",
    "retrieval.search",
    "retrieval.add",
    "retrieval.update",
    "retrieval.rebuild",
    "retrieval.repartition",
    "clustering.kmeans",
    "obs.monitor",
    "obs.slo",
    "obs.flight",
    "bench.idle",
    "bench.check",
)
ENTRIES = ("ingest", "refresh", "top_k", "recommend", "add_arrivals")
SETUP_LAYERS = (
    "serving.event_columns",
    "serving.store_ingest",
    "obs.monitor",
    "core.user_tower",
    "core.generator",
    "core.encoder",
    "retrieval.rebuild",
    "clustering.kmeans",
)
COUNTS = (
    "nn.steps",
    "core.user_tower_rows",
    "core.encoder_rows",
    "core.generator_rows",
    "retrieval.searches",
    "retrieval.inserts",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{layer}_s": "s" for layer in SELF_LAYERS}
    units.update({f"serving.{entry}_self_s": "s" for entry in ENTRIES})
    for phase in TRAIN_PHASES:
        for path in ("enc", "gen"):
            units.update({f"{phase}.{path}.{layer}_s": "s" for layer in TRAIN_LAYERS})
    units.update({f"setup.{layer}_s": "s" for layer in SETUP_LAYERS})
    units.update({"setup.clustering.kmeans_calls": "count", "setup.trace.unattributed_s": "s"})
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "retrieval.repartitions": "count",
            "clustering.kmeans_calls": "count",
            "obs.alerts_fired": "count",
            "serving.rescored_share": "ratio",
            "serving.topk_cache_hit_ratio": "ratio",
            "serving.queue_wait_p99_ms": "ms",
            "serving.generator_lag_ms": "ms",
            "trace.unattributed_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def layer_metrics(recorder, reference, traced) -> Dict[str, float]:
    """Per-layer values of a traced run against its untraced reference."""
    self_times = recorder.self_times()
    span_counts = recorder.span_counts()

    def self_s(name, setup=False, phase=None, path=None):
        return sum(
            value
            for (span_phase, span_path, span), value in self_times.items()
            if span == name
            and (span_phase == "setup") == setup
            and (phase is None or span_phase == phase)
            and (path is None or span_path == path)
        )

    def timed_count(name, table):
        return sum(value for (phase, key), value in table.items() if key == name and phase != "setup")

    values = {f"{layer}_s": self_s(layer) for layer in SELF_LAYERS}
    for entry in ENTRIES:
        values[f"serving.{entry}_self_s"] = self_s(f"serving.{entry}")
    for phase in TRAIN_PHASES:
        for path in ("enc", "gen"):
            for layer in TRAIN_LAYERS:
                values[f"{phase}.{path}.{layer}_s"] = self_s(layer, phase=phase, path=path)
    for layer in SETUP_LAYERS:
        values[f"setup.{layer}_s"] = self_s(layer, setup=True)
    values["setup.clustering.kmeans_calls"] = span_counts.get(("setup", "clustering.kmeans"), 0)
    values["setup.trace.unattributed_s"] = self_s(ROOT, setup=True)
    for name in COUNTS:
        values[name] = timed_count(name, recorder.counts)
    values["retrieval.repartitions"] = timed_count("retrieval.repartition", span_counts)
    values["clustering.kmeans_calls"] = timed_count("clustering.kmeans", span_counts)
    values["obs.alerts_fired"] = traced.get("alerts_fired", 0)
    warm = timed_count("serving.warm_slots", recorder.counts)
    values["serving.rescored_share"] = values["core.encoder_rows"] / warm if warm else 0.0
    top_k_calls = timed_count("serving.top_k", span_counts)
    searches = timed_count("serving.topk_searches", recorder.counts)
    values["serving.topk_cache_hit_ratio"] = 1.0 - searches / top_k_calls if top_k_calls else 0.0
    for key, source in (("serving.queue_wait_p99_ms", "queue_wait"), ("serving.generator_lag_ms", "lag")):
        sample = traced.get(source) or [0.0]
        values[key] = float(np.percentile(sample, 99)) * 1e3
    values["trace.unattributed_s"] = self_s(ROOT)
    values["trace.overhead_ratio"] = traced["busy_s"] / reference["busy_s"]
    return values


def self_time_table(recorder) -> str:
    """Self seconds per phase and layer; each phase's rows add up to its wall."""
    walls = recorder.phase_walls()
    by_phase: Dict[str, Dict[str, float]] = {}
    for (phase, _, name), value in recorder.self_times().items():
        rows = by_phase.setdefault(phase, {})
        rows[name] = rows.get(name, 0.0) + value
    lines = []
    for phase, rows in by_phase.items():
        wall = walls[phase]
        total = sum(rows.values())
        if abs(total - wall) > 1e-6 * max(1.0, wall):
            raise AssertionError(f"phase {phase}: self times {total} != wall {wall}")
        lines.append(f"phase {phase}: wall {wall:.4f} s, sum of self times {total:.4f} s")
        for name, value in sorted(rows.items(), key=lambda item: -item[1]):
            label = "trace.unattributed" if name == ROOT else name
            lines.append(f"  {label:<28} {value:10.4f} s  {100 * value / wall:6.2f} %")
    return "\n".join(lines)
