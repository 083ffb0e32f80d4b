"""In-memory span recording around the public callables of each layer.

The traced run wraps, for its duration only, the public entry points of
every layer the workloads drive (module ``forward`` methods,
``Tensor.backward``, ``Optimizer.step``, the loss functions, the serving
engine, statistics store, MIPS indexes, k-means and the telemetry
monitors).  Each call becomes a span ``(name, start, end, parent,
request, phase, path)``.  Nothing inside ``src/`` is edited: the wrappers
are installed on the classes and module globals and removed afterwards.
Training traces the autograd layers below each tower; serving traces each
tower as one leaf span named after the engine path that calls it
(``core.encoder``, ``core.generator``, ``core.user_tower``).

A layer's self time is its span's duration minus the time covered by its
child spans.  Self times of all spans in a phase, plus the remainder no
span covers (``trace.unattributed_s``), add up to the phase's wall time
exactly, because the phase itself is the root span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.clustering import kmeans
from repro.core.heads import ConcatMLPHead, WeightedDotHead
from repro.core.popularity import PopularityPredictor
from repro.core.towers import Tower
from repro.nn.layers import MLP, CrossNetwork, EmbeddingBag, FeatureEmbeddings
from repro.nn.losses import binary_cross_entropy, mean_squared_error, similarity_loss
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor
from repro.obs.flight import FlightRecorder
from repro.obs.quality import QualityMonitor
from repro.obs.slo import SLOTracker
from repro.retrieval import BruteForceIndex, IVFIndex
from repro.serving.engine import RealTimeEngine
from repro.serving.events import event_columns
from repro.serving.feature_store import ItemStatisticsStore

_NAME, _START, _END, _PARENT, _REQUEST, _PHASE, _PATH = range(7)

ROOT = "bench.phase"


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.request = 0
        self.phase = ""
        self.path = ""
        # id(module) -> span name, for modules whose role depends on where
        # they sit in the model (deep vs head MLP, which tower).
        self.roles: Dict[int, str] = {}
        self.origin = time.perf_counter()

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.request, self.phase, self.path]
        )
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    @contextmanager
    def phase_scope(self, phase: str, path: str = ""):
        """Root span of one phase; its self time is the unattributed rest."""
        self.phase, self.path = phase, path
        with self.span(ROOT):
            yield

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, name)] += amount

    def parent_name(self) -> str:
        """Name of the innermost open span (the caller's layer)."""
        return self.spans[self.stack[-1]][_NAME] if self.stack else ""

    def register_model(self, model, serving: bool) -> None:
        """Name the towers and MLPs of ``model`` by their role.

        In training every tower's own work (input assembly) is
        ``core.tower_input`` and its layers are traced below it.  In
        serving the towers are leaf spans named after the engine path that
        calls them, so ``core.encoder_s`` is the whole encoder forward.
        """
        tower_roles = {"item_encoder": "core.encoder", "generator": "core.generator"}
        for path, module in model.named_modules():
            if isinstance(module, ConcatMLPHead):
                self.roles[id(module.mlp)] = "core.scoring_head"
            if not isinstance(module, Tower):
                continue
            if serving:
                # The user tower is ``user_tower`` in ATNN, ``group_tower``
                # in the multi-task model.
                self.roles[id(module)] = tower_roles.get(path, "core.user_tower")
            else:
                self.roles[id(module)] = "core.tower_input"
            encoder = module.encoder
            deep = encoder if isinstance(encoder, MLP) else encoder.deep
            self.roles[id(deep)] = "nn.deep_mlp"
            self.roles[id(module.head)] = "nn.head_mlp"

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[Tuple[str, str, str], float]:
        """Self seconds keyed by ``(phase, path, name)``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        totals: Dict[Tuple[str, str, str], float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            own = span[_END] - span[_START] - child[index]
            totals[(span[_PHASE], span[_PATH], span[_NAME])] += own
        return totals

    def phase_walls(self) -> Dict[str, float]:
        walls: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[_NAME] == ROOT:
                walls[span[_PHASE]] += span[_END] - span[_START]
        return walls

    def span_counts(self) -> Dict[Tuple[str, str], int]:
        """Outermost-call counts keyed by ``(phase, name)``."""
        counts: Dict[Tuple[str, str], int] = defaultdict(int)
        for span in self.spans:
            parent = span[_PARENT]
            if parent >= 0 and self.spans[parent][_NAME] == span[_NAME]:
                continue
            counts[(span[_PHASE], span[_NAME])] += 1
        return counts

    def write_chrome_trace(self, destination) -> None:
        """One Chrome/Perfetto ``traceEvents`` JSON of every span."""
        events = [
            {
                "name": span[_NAME],
                "ph": "X",
                "ts": (span[_START] - self.origin) * 1e6,
                "dur": (span[_END] - span[_START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span": index,
                    "parent": span[_PARENT],
                    "request": span[_REQUEST],
                    "phase": span[_PHASE],
                    "path": span[_PATH],
                },
            }
            for index, span in enumerate(self.spans)
        ]
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _rows(features) -> int:
    return len(next(iter(features.values())))


def _span_wrapper(
    recorder: SpanRecorder,
    function: Callable,
    name: Optional[str] = None,
    resolve: Optional[Callable] = None,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_name = resolve(args) if resolve is not None else name
        if before is not None:
            before(span_name, args)
        index = recorder.enter(span_name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.exit(index)
            if after is not None:
                after(span_name, args)

    return wrapper


class Instrumentation:
    """Installs the span wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def _method(self, cls, attribute: str, **options) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, staticmethod):
            replacement = staticmethod(
                _span_wrapper(self.recorder, original.__func__, **options)
            )
        else:
            replacement = _span_wrapper(self.recorder, original, **options)
        setattr(cls, attribute, replacement)
        self._undo.append((cls, attribute, original))

    def _function(self, function: Callable, name: str) -> None:
        """Rebind ``function`` in every loaded ``repro`` module."""
        replacement = _span_wrapper(self.recorder, function, name=name)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is function:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, function))

    def install(self, nn_layers: bool) -> "Instrumentation":
        """Wrap every layer; ``nn_layers`` adds the autograd layers below
        the towers (training), which serving traces as whole towers."""
        rec = self.recorder
        roles = rec.roles

        def role(default):
            return lambda args: roles.get(id(args[0]), default)

        def count_rows(name, args):
            if name in ("core.encoder", "core.generator", "core.user_tower"):
                rec.count(name + "_rows", _rows(args[1]))

        def count_step(name, args):
            # One outermost Optimizer.step ends one Algorithm-1/2 update;
            # the two updates of a batch alternate encoder -> generator.
            if rec.parent_name() != "nn.optim_step":
                rec.count("nn.steps")
                if rec.path:
                    rec.path = "gen" if rec.path == "enc" else "enc"

        def count_search(name, args):
            query = args[1]
            rec.count("retrieval.searches", 1 if query.ndim == 1 else query.shape[0])
            if rec.parent_name() == "serving.top_k":
                rec.count("serving.topk_searches")

        def count_insert(name, args):
            rec.count("retrieval.inserts", len(args[1]))

        self._method(Tower, "forward", resolve=role("core.tower_input"), before=count_rows)
        if nn_layers:
            self._method(FeatureEmbeddings, "forward", name="nn.embeddings")
            self._method(EmbeddingBag, "forward", name="nn.embeddings")
            self._method(CrossNetwork, "forward", name="nn.cross")
            self._method(MLP, "forward", resolve=role("nn.mlp"))
            self._method(WeightedDotHead, "forward", name="core.scoring_head")
            self._method(ConcatMLPHead, "forward", name="core.scoring_head")
            for loss in (binary_cross_entropy, mean_squared_error, similarity_loss):
                self._function(loss, "nn.loss")
            self._method(Tensor, "backward", name="nn.backward")
            self._method(Optimizer, "step", name="nn.optim_step", after=count_step)
            self._method(Optimizer, "clip_gradients", name="nn.grad_clip")
        # Serving engine entry points and the layers below them.
        for entry, span in (
            ("ingest", "serving.ingest"),
            ("refresh", "serving.refresh"),
            ("top_k", "serving.top_k"),
            ("recommend_for_user", "serving.recommend"),
            ("add_arrivals", "serving.add_arrivals"),
        ):
            self._method(RealTimeEngine, entry, name=span)
        self._function(event_columns, "serving.event_columns")
        self._method(ItemStatisticsStore, "ingest", name="serving.store_ingest")
        self._method(ItemStatisticsStore, "feature_columns", name="serving.store_features")
        self._method(PopularityPredictor, "score_item_vectors", name="core.score")
        for index_cls in (BruteForceIndex, IVFIndex):
            self._method(index_cls, "search", name="retrieval.search", before=count_search)
            self._method(index_cls, "add", name="retrieval.add", before=count_insert)
            self._method(index_cls, "update", name="retrieval.update")
            self._method(index_cls, "rebuild", name="retrieval.rebuild")
        self._method(IVFIndex, "repartition", name="retrieval.repartition")
        self._function(kmeans, "clustering.kmeans")
        # Telemetry.
        for method in (
            "attach_catalogue",
            "observe_serving_batch",
            "observe_scores",
            "observe_divergence",
            "evaluate",
        ):
            self._method(QualityMonitor, method, name="obs.monitor")
        for method in ("on_request", "observe_quality", "evaluate"):
            self._method(SLOTracker, method, name="obs.slo")
        for method in ("on_request", "on_alert"):
            self._method(FlightRecorder, method, name="obs.flight")
        return self

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
