"""Shared measurement helpers: percentiles, operation accounting, fingerprint."""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import InteractionDataset

# Tails go to the detail line only, as the highest percentile of
# TAIL_LADDER with at least TAIL_MIN_BEYOND samples beyond it.  Between
# runs on a shared 2-CPU virtual machine the p90 and p99 tails spread
# 0.3-0.8 (interquartile range over median of ten runs), beyond the 0.25
# regression bound an end-to-end metric may have; medians spread 0.04-0.16.
TAIL_LADDER = (99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def percentile_ms(seconds: Sequence[float], q: float = 50.0) -> float:
    return float(np.percentile(seconds, q)) * 1e3


def summarize(name: str, seconds: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample in ms, with the sample count.

    With too few samples for any percentile of the ladder (the tiny
    mode), the tail is the maximum and ``<name>_tail_pct`` says 100.
    """
    values = np.asarray(seconds, dtype=np.float64) * 1e3
    supported = [q for q in TAIL_LADDER if values.size * (1 - q / 100) >= TAIL_MIN_BEYOND]
    q = supported[0] if supported else 100.0
    return {
        f"{name}_p50_ms": float(np.percentile(values, 50)),
        f"{name}_tail_ms": float(np.percentile(values, q)),
        f"{name}_tail_pct": q,
        f"{name}_samples": int(values.size),
    }


class Ops:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """Fail one already-attempted operation unless ``ok``."""
        if not ok:
            self.fail(what)
        return ok


def same_ranking(served: np.ndarray, scores: np.ndarray, k: int) -> bool:
    """Whether ``served`` is the exact top-``k`` of ``scores``, best first.

    Ties and float rounding are allowed to reorder items whose scores agree
    to within a relative 1e-5.
    """
    served = np.asarray(served)
    if served.shape != (k,) or np.unique(served).size != k:
        return False
    if not np.isfinite(scores[served]).all():
        return False
    tolerance = 1e-5 * (float(np.abs(scores).max()) + 1e-12)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    chosen = scores[served]
    return bool((chosen >= kth - tolerance).all() and (np.diff(chosen) <= tolerance).all())


class TimedBatches(InteractionDataset):
    """A training set that times the trainer between the batches it hands out.

    ``step_seconds[i]`` is the time from handing out batch ``i`` until the
    trainer asks for the next one: one whole step (both alternating
    updates of Algorithm 1/2).  With a span recorder, the time spent
    producing each batch is traced as ``data.batch_wait``.
    """

    def __init__(self, dataset: InteractionDataset, recorder=None) -> None:
        super().__init__(dataset.schema, dataset.features, dataset.labels)
        self.recorder = recorder
        self.step_seconds: List[float] = []
        self.step_epoch: List[int] = []
        self.epoch = -1

    def iter_batches(self, *args, **kwargs):
        self.epoch += 1
        inner = super().iter_batches(*args, **kwargs)
        recorder = self.recorder
        handed: Optional[float] = None
        while True:
            resumed = time.perf_counter()
            if handed is not None:
                self.step_seconds.append(resumed - handed)
                self.step_epoch.append(self.epoch)
            index = recorder.enter("data.batch_wait") if recorder else -1
            try:
                batch = next(inner, None)
            finally:
                if recorder:
                    recorder.exit(index)
            if batch is None:
                return
            if recorder:
                recorder.request += 1
            handed = time.perf_counter()
            yield batch


def _status_mb(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError(f"/proc/self/status has no {field}")


def reset_peak_rss() -> float:
    """Start a new peak-memory mark and return the resident size now, in MB.

    Garbage is collected and freed heap handed back to the kernel first,
    so inputs generated before the call count only with what stays
    resident, not with the transient objects built while making them.
    Writing 5 to ``clear_refs`` resets the kernel's ``VmHWM``.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Highest resident size since the last :func:`reset_peak_rss`, in MB."""
    return _status_mb("VmHWM")


def _blas() -> Dict[str, object]:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info: Dict[str, object] = {
        "name": config.get("name"),
        "version": config.get("version"),
        "threads": None,
    }
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    """Where and on what the run happened."""
    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_commit": _git_commit(root),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
