"""The serving workloads: ``serve_warm`` (open loop) and ``arrivals_ivf``.

Both serve a paper-dimension ATNN that input generation trains briefly,
through ``RealTimeEngine`` with its default configuration apart from the
index kind.  Inputs (worlds, catalogues, event batches, schedules) are
generated from the seed before anything is timed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List

import numpy as np

from measure import Ops, percentile_ms, same_ranking, summarize
from repro.core import ATNN, ATNNTrainer, TowerConfig
from repro.data.synthetic.tmall import TmallConfig, generate_tmall_world
from repro.nn.tensor import no_grad
from repro.obs import TelemetrySession
from repro.serving.engine import EngineConfig, RealTimeEngine
from repro.serving.events import Event, EventKind, event_columns, generate_event_stream

K = 100


def _world_and_model(seed: int, tmall: Dict[str, int], train_rows: int):
    world = generate_tmall_world(TmallConfig(seed=seed, **tmall))
    model = ATNN(world.schema, TowerConfig.paper(), rng=np.random.default_rng(seed))
    ATNNTrainer(epochs=1, batch_size=512, dtype=np.float32, seed=seed).fit(
        model, world.interactions.subset(np.arange(train_rows))
    )
    return world, model


def _user_rows(world, rng, count: int) -> List[Dict[str, np.ndarray]]:
    picks = rng.integers(0, world.config.n_users, size=count)
    columns = world.users.columns
    return [{name: column[u : u + 1] for name, column in columns.items()} for u in picks]


def _queries(model, users: Dict[int, Dict[str, np.ndarray]]) -> Dict[int, np.ndarray]:
    """Each user's MIPS query as the engine forms it: head weight times user vector."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return {
                key: model.scoring_head.weight.data * model.user_vectors(user).data[0]
                for key, user in users.items()
            }
    finally:
        model.train(was_training)


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
SERVE_SIZES = {
    "full": {
        "tmall": dict(n_users=2000, n_items=3000, n_new_items=20_000, n_interactions=30_000),
        "train_rows": 4096,
        "history_views": 600_000,
        "recommend_rate": 40.0,
        "batch_cadence_s": 0.2,
        "batch_views": 400,
    },
    "tiny": {
        "tmall": dict(n_users=300, n_items=400, n_new_items=2000, n_interactions=5000),
        "train_rows": 1024,
        "history_views": 20_000,
        "recommend_rate": 60.0,
        "batch_cadence_s": 0.2,
        "batch_views": 100,
    },
}
# One recommend in this many is re-checked against an exact MIPS.
CHECK_EVERY = 20
# Events per ingest call while set-up replays the history: few enough
# that the Event objects built for one call (about 4 MB) add little to
# the peak memory the program is charged with.
HISTORY_BATCH = 20_000


class ServeWarmWorkload:
    """Open loop over a warm 20k-item catalogue with telemetry armed.

    Why: exercises ``repro.serving`` (ingest, incremental refresh through
    the encoder, top-k and recommend through the brute-force index) and
    the ``repro.obs`` monitor, SLO tracker and flight recorder.
    Recommends arrive on a seeded Poisson schedule; event batches arrive
    on a fixed cadence and each is followed by ``refresh()`` and
    ``top_k(100)``.  Recommends that queue behind a refresh set the tail.
    At 40 recommends/s and a batch every 0.2 s the engine is about 30%
    busy on a 2-CPU host: busy enough that refreshes delay recommends, idle
    enough that a noisy neighbour does not turn into a growing backlog.
    """

    name = "serve_warm"
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float, size: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.size = SERVE_SIZES[size]

    def generate(self) -> None:
        size = self.size
        rng = np.random.default_rng(self.seed + 1)
        self.world, self.model = _world_and_model(self.seed, size["tmall"], size["train_rows"])
        self.user_group = self.world.active_user_group(0.25)
        slots = np.arange(len(self.world.new_items))
        # Kept as columns: a million live Event objects would make every
        # full collection of the cyclic GC in the timed phase scan them.
        self.history = event_columns(
            generate_event_stream(self.world, slots, size["history_views"], rng)
        )
        # A Poisson process conditioned on its count, so every seed
        # samples the same number of recommends.
        count = round(size["recommend_rate"] * self.seconds)
        self.recommend_due = np.sort(rng.uniform(0.0, self.seconds, size=count))
        self.recommend_users = _user_rows(self.world, rng, self.recommend_due.size)
        # The serving model no longer changes, so the queries of the checked
        # recommends are formed here: the check then runs no program code
        # that the traced run would count as a layer.
        self.check_queries = _queries(
            self.model,
            {i: self.recommend_users[i] for i in range(0, count, CHECK_EVERY)},
        )
        cadence = size["batch_cadence_s"]
        self.batch_due = np.arange(cadence / 2, self.seconds, cadence)
        self.batches = [
            generate_event_stream(self.world, slots, size["batch_views"], rng)
            for _ in self.batch_due
        ]

    def setup(self):
        """Engine, history ingest in batches, first full refresh.

        ``setup_s`` counts the engine calls only, not turning the history
        columns back into Event objects batch by batch.
        """
        session = TelemetrySession(monitor=True, slo=True, flight=True).start()
        start = time.perf_counter()
        engine = RealTimeEngine(self.model, self.world.new_items, self.user_group)
        busy = time.perf_counter() - start
        kinds, items, users, stamps = self.history
        for first in range(0, kinds.size, HISTORY_BATCH):
            window = slice(first, first + HISTORY_BATCH)
            events = [
                Event(EventKind.ALL[kind], item, None if user < 0 else user, stamp)
                for kind, item, user, stamp in zip(
                    kinds[window].tolist(),
                    items[window].tolist(),
                    users[window].tolist(),
                    stamps[window].tolist(),
                )
            ]
            start = time.perf_counter()
            engine.ingest(events)
            busy += time.perf_counter() - start
        start = time.perf_counter()
        engine.refresh()
        busy += time.perf_counter() - start
        return {"engine": engine, "session": session, "setup_s": busy}

    def discard(self, state) -> None:
        state["session"].stop()

    def run(self, state, ops: Ops, recorder=None) -> Dict[str, object]:
        engine = state["engine"]
        threshold = engine.config.warm_view_threshold
        timeline = sorted(
            [(float(due), 1, i) for i, due in enumerate(self.batch_due)]
            + [(float(due), 0, i) for i, due in enumerate(self.recommend_due)]
        )
        recommend, fresh, refresh, queue_wait, lag = [], [], [], [], []
        busy = batch_busy = 0.0
        events = 0
        scope = recorder.phase_scope("serve") if recorder else nullcontext()
        with scope:
            origin = time.perf_counter() + 0.05
            for offset, kind, i in timeline:
                due = origin + offset
                now = time.perf_counter()
                if now < due:
                    # Spin, not sleep: a sleeping vCPU is descheduled by
                    # the hypervisor and wakes a varying 0.1-3 ms late,
                    # which showed as run-to-run noise in every latency.
                    with recorder.span("bench.idle") if recorder else nullcontext():
                        while time.perf_counter() < due:
                            pass
                    start = time.perf_counter()
                    lag.append(start - due)
                    queue_wait.append(0.0)
                else:
                    start = now
                    queue_wait.append(start - due)
                if recorder:
                    recorder.request += 1
                ops.attempt()
                try:
                    if kind == 0:
                        served = engine.recommend_for_user(self.recommend_users[i], K)
                    else:
                        events += engine.ingest(self.batches[i])
                        ingested = time.perf_counter()
                        engine.refresh()
                        refresh.append(time.perf_counter() - ingested)
                        served = engine.top_k(K)
                except Exception as error:  # the loop must go on; the op failed
                    ops.fail(f"{'recommend' if kind == 0 else 'batch'} {i}: {error!r}")
                    continue
                end = time.perf_counter()
                busy += end - start
                if kind == 0:
                    recommend.append(end - due)
                else:
                    fresh.append(end - due)
                    batch_busy += end - start
                with recorder.span("bench.check") if recorder else nullcontext():
                    if kind == 0:
                        if i % CHECK_EVERY == 0:
                            ops.check(
                                same_ranking(served, engine.index.vectors @ self.check_queries[i], K),
                                f"recommend {i}: differs from exact MIPS",
                            )
                    else:
                        scores = engine.last_scores
                        ops.check(
                            bool(np.isfinite(scores).all()) and same_ranking(served, scores, K),
                            f"batch {i}: non-finite scores or top_k differs from exact order",
                        )
                        if recorder:
                            recorder.count("serving.warm_slots", engine.store.warm_slots(threshold).size)
            wall = time.perf_counter() - (origin - 0.05)
        return {
            "complete": bool(recommend) and bool(fresh),
            "recommend": recommend,
            "fresh": fresh,
            "refresh": refresh,
            "queue_wait": queue_wait,
            "lag": lag,
            "busy_s": busy,
            "batch_busy_s": batch_busy,
            "wall_s": wall,
            "events": events,
            "alerts_fired": state["session"].registry.counter("alerts.fired").value,
            "warm_share": engine.store.warm_slots(threshold).size / len(engine.catalogue),
        }

    def end_to_end(self, m) -> Dict[str, float]:
        return {
            "update_rate_per_s": m["events"] / m["batch_busy_s"],
            "update_ms": percentile_ms(m["fresh"]),
            "update2_ms": percentile_ms(m["refresh"]),
            "read_ms": percentile_ms(m["recommend"]),
        }

    def detail(self, m) -> Dict[str, object]:
        out: Dict[str, object] = {}
        out.update(summarize("recommend", m["recommend"]))
        out.update(summarize("freshness", m["fresh"]))
        out.update(summarize("refresh", m["refresh"]))
        out.update(summarize("queue_wait", m["queue_wait"]))
        out.update(summarize("generator_lag", m["lag"]))
        out["recommend_rate_per_s"] = self.size["recommend_rate"]
        out["batch_cadence_s"] = self.size["batch_cadence_s"]
        out["utilisation"] = m["busy_s"] / m["wall_s"]
        out["warm_share_at_end"] = m["warm_share"]
        out["alerts_fired"] = m["alerts_fired"]
        return out


# ----------------------------------------------------------------------
# arrivals_ivf
# ----------------------------------------------------------------------
ARRIVAL_SIZES = {
    "full": {
        "tmall": dict(n_users=1000, n_items=2000, n_new_items=5000, n_interactions=20_000),
        "train_rows": 4096,
        "catalogue": 25_000,
        "iterations_per_s": 10,
        "arrival_batch": 500,
        "batch_views": 500,
        "recommends_per_iteration": 10,
    },
    "tiny": {
        "tmall": dict(n_users=300, n_items=400, n_new_items=1000, n_interactions=5000),
        "train_rows": 1024,
        "catalogue": 2000,
        "iterations_per_s": 2.5,
        "arrival_batch": 100,
        "batch_views": 100,
        "recommends_per_iteration": 2,
    },
}
# Mean recall@100 of the IVF index against the brute-force twin at the
# default nprobe was 1.0 on every seed tried: the best-scoring profiles
# recur many times in the resampled catalogue and share partitions.
# Probing partitions at random would give about nprobe/nlist = 0.05.
RECALL_FLOOR = 0.2
# The twin replays every state change but only every REPLAY_EVERY-th
# recommend, which is enough for a recall estimate.
REPLAY_EVERY = 5


class _ResampledBehaviour:
    """The parts of a world ``generate_event_stream`` reads, for resampled rows.

    Slot ``s`` of a resampled catalogue is the world's new item
    ``rows[s]``, so it draws views by that item's popularity.
    """

    def __init__(self, world, rows: np.ndarray) -> None:
        self.config = world.config
        self.user_activity = world.user_activity
        self.new_item_popularity = world.new_item_popularity[rows]


class ArrivalsIvfWorkload:
    """Closed loop of new-arrival inserts into an IVF-indexed engine.

    Why: exercises ``repro.retrieval`` writes beside reads and the
    ``repro.core.clustering`` k-means behind the IVF build, with almost no
    encoder work (new items are cold) and no telemetry.  Each iteration
    adds a batch of arrivals, ingests an event batch, refreshes, and
    serves k=100 recommends.

    The mix per iteration: 500 arrivals, the batch size of the probe
    that motivated this workload; 500 views (one per arrival, so
    behaviour grows with the catalogue) drawn by the repository's own
    behaviour model, ``generate_event_stream``, with its funnel of
    clicks, carts, favourites and purchases; 10 recommends, the same 50
    views per recommend as ``serve_warm``.  The catalogue and the arrivals
    are seeded resamples of a smaller world's new-item profile rows, so
    equal profiles recur and recall counts ties as hits.
    """

    name = "arrivals_ivf"
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float, size: str) -> None:
        self.seed = seed
        self.size = ARRIVAL_SIZES[size]
        self.iterations = max(1, round(seconds * self.size["iterations_per_s"]))

    def generate(self) -> None:
        size = self.size
        rng = np.random.default_rng(self.seed + 2)
        self.world, self.model = _world_and_model(self.seed, size["tmall"], size["train_rows"])
        self.user_group = self.world.active_user_group(0.25)
        n_start, batch = size["catalogue"], size["arrival_batch"]
        rows = rng.integers(0, len(self.world.new_items), size=n_start + self.iterations * batch)
        self.catalogue = self.world.new_items.subset(rows[:n_start])
        self.arrivals = [
            self.world.new_items.subset(rows[n_start + j * batch : n_start + (j + 1) * batch])
            for j in range(self.iterations)
        ]
        behaviour = _ResampledBehaviour(self.world, rows)
        self.event_batches = [
            generate_event_stream(behaviour, np.arange(n_start + (j + 1) * batch), size["batch_views"], rng)
            for j in range(self.iterations)
        ]
        per = size["recommends_per_iteration"]
        self.recommend_users = _user_rows(self.world, rng, self.iterations * per)

    def _engine(self, index_kind: str) -> RealTimeEngine:
        engine = RealTimeEngine(
            self.model, self.catalogue, self.user_group, EngineConfig(index_kind=index_kind)
        )
        engine.refresh()
        return engine

    def setup(self):
        return {"engine": self._engine("ivf")}

    def run(self, state, ops: Ops, recorder=None) -> Dict[str, object]:
        engine = state["engine"]
        per = self.size["recommends_per_iteration"]
        arrival, cycle, recommend, served_ids = [], [], [], []
        busy = 0.0
        items = 0
        scope = recorder.phase_scope("arrivals") if recorder else nullcontext()
        with scope:
            for j in range(self.iterations):
                if recorder:
                    recorder.request += 1
                ops.attempt()
                start = time.perf_counter()
                try:
                    slots = engine.add_arrivals(self.arrivals[j])
                    arrival.append(time.perf_counter() - start)
                    items += len(slots)
                    ops.check(
                        len(engine.index) == len(engine.catalogue),
                        f"iteration {j}: index size {len(engine.index)} != catalogue "
                        f"{len(engine.catalogue)}",
                    )
                    ops.attempt()
                    inserted = time.perf_counter()
                    engine.ingest(self.event_batches[j])
                    engine.refresh()
                    cycle.append(time.perf_counter() - inserted)
                    ops.check(bool(np.isfinite(engine.last_scores).all()), f"iteration {j}: non-finite scores")
                except Exception as error:  # the loop must go on; the op failed
                    ops.fail(f"iteration {j}: {error!r}")
                busy += time.perf_counter() - start
                for r in range(per):
                    user = self.recommend_users[j * per + r]
                    if recorder:
                        recorder.request += 1
                    ops.attempt()
                    start = time.perf_counter()
                    try:
                        ids = engine.recommend_for_user(user, K)
                    except Exception as error:  # the loop must go on; the op failed
                        ops.fail(f"recommend {j}.{r}: {error!r}")
                        served_ids.append(None)
                        continue
                    end = time.perf_counter()
                    recommend.append(end - start)
                    busy += end - start
                    served_ids.append(ids)
                    ops.check(
                        ids.shape == (K,) and np.unique(ids).size == K and int(ids.max()) < len(engine.catalogue),
                        f"recommend {j}.{r}: malformed ids",
                    )
        return {
            "complete": bool(arrival) and bool(recommend),
            "arrival": arrival,
            "cycle": cycle,
            "recommend": recommend,
            "served": served_ids,
            "items": items,
            "busy_s": busy,
            "repartitions": engine.index.repartitions,
        }

    def verify(self, m, ops: Ops) -> None:
        """Replay the run on a brute-force twin; recall@100 of the IVF answers.

        A served item is a hit when its exact score reaches the twin's
        100th best: which of several equal-scored copies an index returns
        is arbitrary.
        """
        twin = self._engine("bruteforce")
        per = self.size["recommends_per_iteration"]
        replayed = [
            position
            for position in range(0, self.iterations * per, REPLAY_EVERY)
            if m["served"][position] is not None
        ]
        queries = _queries(self.model, {p: self.recommend_users[p] for p in replayed})
        recalls = []
        for j in range(self.iterations):
            twin.add_arrivals(self.arrivals[j])
            twin.ingest(self.event_batches[j])
            twin.refresh()
            for position in range(j * per, (j + 1) * per):
                if position in queries:
                    scores = twin.index.vectors @ queries[position]
                    kth = np.partition(scores, scores.size - K)[scores.size - K]
                    tolerance = 1e-5 * (float(np.abs(scores).max()) + 1e-12)
                    recalls.append(float(np.mean(scores[m["served"][position]] >= kth - tolerance)))
        m["recall"] = float(np.mean(recalls))
        ops.attempt()
        ops.check(m["recall"] >= RECALL_FLOOR, f"ivf_recall_at_100 {m['recall']:.3f} < {RECALL_FLOOR}")

    def end_to_end(self, m) -> Dict[str, float]:
        return {
            "update_rate_per_s": m["items"] / sum(m["arrival"]),
            "update_ms": percentile_ms(m["arrival"]),
            "update2_ms": percentile_ms(m["cycle"]),
            "read_ms": percentile_ms(m["recommend"]),
        }

    def detail(self, m) -> Dict[str, object]:
        out: Dict[str, object] = {}
        out.update(summarize("arrival", m["arrival"]))
        out.update(summarize("ingest_refresh", m["cycle"]))
        out.update(summarize("ivf_recommend", m["recommend"]))
        if "recall" in m:
            out["ivf_recall_at_100"] = m["recall"]
            out["ivf_recall_floor"] = RECALL_FLOOR
        out["iterations"] = self.iterations
        out["repartitions"] = m["repartitions"]
        return out
