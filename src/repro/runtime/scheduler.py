"""Clip-level scheduling over worker pools.

:class:`ClipScheduler` fans a multi-clip workload out over a configurable
pool — serial, thread-backed, or process-backed — while preserving input
order and per-clip semantics.  Clips are independent by construction
(executor and policy state reset at clip boundaries), so every backend
returns results identical to the serial path; the pool only changes
wall-clock time.

Worker amortization: each worker builds its pipeline once from the
shipped :class:`~repro.runtime.spec.PipelineSpec` (process initializer /
thread-local), so per-clip cost excludes network construction.  The
parent warms the model cache first so workers never race to train.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..core import EVA2Pipeline
from ..core.pipeline import PipelineResult
from ..video.generator import VideoClip
from .spec import PipelineSpec

__all__ = [
    "SchedulerConfig",
    "ClipScheduler",
    "ShardPool",
    "ShardCrashError",
    "blas_thread_share",
    "deal_shard_budget",
    "limit_blas_threads",
]


def deal_shard_budget(
    lane_names: Sequence[str],
    lane_counts: Mapping[str, int],
    budget: int,
) -> Dict[str, int]:
    """Deal a worker budget round-robin across lanes, capped per lane.

    Shards assigned here are concurrent queue consumers, so the total
    never exceeds ``budget``, and a lane never receives more shards
    than it has requests (``lane_counts``) — an extra shard could not
    admit anything, and its executors/plan compile aren't free.  Used
    by shared-admission serving to size each lane's fleet.
    """
    shards = {name: 0 for name in lane_names}
    while budget > 0:
        assigned = False
        for name in lane_names:
            if budget > 0 and shards[name] < lane_counts[name]:
                shards[name] += 1
                budget -= 1
                assigned = True
        if not assigned:
            break
    return shards


class ShardCrashError(RuntimeError):
    """A shard process died (or stopped progressing) mid-serve.

    Raised instead of hanging or silently dropping work: the message
    names what was lost and ``lost`` carries the request seqs whose
    results never arrived.
    """

    def __init__(self, message: str, lost: Sequence = ()):
        super().__init__(message)
        self.lost = tuple(lost)


def blas_thread_share(cores: int, processes: int, current: int) -> int:
    """BLAS threads for one of ``processes`` concurrent BLAS-running
    processes on ``cores`` usable cores.

    An even share of the cores, at least one thread, and never more
    than the ``current`` pool — an operator's lower
    ``OPENBLAS_NUM_THREADS`` still wins.  Dividing by the process count
    (rather than forcing one thread) keeps a lone process at its full
    pool while N processes stop oversubscribing the cores N-fold.
    """
    return max(1, min(current, cores // max(1, processes)))


#: ``(get, set)`` thread-count symbols, numpy's scipy-openblas wheel
#: (64-bit interface) first, then a system OpenBLAS build.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_api():
    """``(get, set)`` of the OpenBLAS loaded in this process, or None.

    Finds the library through ``/proc/self/maps`` (numpy loads it with
    local symbol binding, so a global lookup misses it).  None where
    that file is missing or no OpenBLAS is loaded (MKL, Accelerate).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[-1] for fields in map(str.split, maps)
                if len(fields) >= 6
                and "openblas" in os.path.basename(fields[-1]).lower()
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: reuses its handle
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def limit_blas_threads(processes: int) -> Optional[int]:
    """Size this process's OpenBLAS pool to its share of the cores.

    Called at the entry of every child process that runs BLAS beside
    ``processes - 1`` siblings (pool initializers, supervised shards),
    before any network is built, so plan compilation and the fused-GEMM
    probe see the thread count the process will serve with.  Returns
    the resulting pool size, or None — changing nothing — when no
    OpenBLAS is loaded.
    """
    api = _openblas_thread_api()
    if api is None:
        return None
    get, set_ = api
    current = get()
    threads = blas_thread_share(_usable_cores(), processes, current)
    if threads != current:
        set_(threads)
    return threads


_BACKENDS = ("auto", "serial", "thread", "process")

#: pipeline of the current worker process (set by the pool initializer).
_WORKER_PIPELINE: Optional[EVA2Pipeline] = None


def _init_process_worker(spec: PipelineSpec, workers: int) -> None:
    global _WORKER_PIPELINE
    limit_blas_threads(workers)
    _WORKER_PIPELINE = spec.build()


def _run_in_process_worker(clip: VideoClip) -> PipelineResult:
    return _WORKER_PIPELINE.run_clip(clip)


@dataclass(frozen=True)
class SchedulerConfig:
    """How to spread a workload over workers."""

    #: pool size; <= 1 means serial.
    workers: int = 0
    #: 'serial', 'thread', 'process', or 'auto' (process pool when the
    #: host has more than one core and more than one worker is requested).
    backend: str = "auto"

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def resolve(self, num_clips: int) -> str:
        """The concrete backend for a workload of ``num_clips``."""
        if self.workers <= 1 or num_clips <= 1:
            return "serial"  # a pool of one is just the serial path
        if self.backend != "auto":
            return self.backend
        return "process" if (os.cpu_count() or 1) > 1 else "serial"


class ShardPool:
    """Order-preserving map of picklable shard tasks over a worker pool.

    The scheduler/serving hybrid the serving layer shards lanes with:
    each task describes one lane shard (spec, capacity, assigned
    requests), the mapped function builds a warm
    :class:`~repro.runtime.serving.LaneWorker` inside the worker — its
    own network and inference plan, never a pickled live one — and runs
    the shard's serve loop.  ``backend`` resolution reuses
    :class:`SchedulerConfig`: ``process`` realizes shard concurrency on
    separate cores, ``serial`` runs shards inline (single-core hosts,
    deterministic debugging), ``auto`` picks between them by core count.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None):
        self.config = config or SchedulerConfig()

    def map(self, fn, tasks: Sequence) -> List:
        """``[fn(task) for task in tasks]``, possibly across processes.

        ``fn`` must be a module-level function and every task picklable
        when the process backend resolves.  Results keep task order.
        Process workers size their BLAS pool to their share of the
        cores (:func:`limit_blas_threads`) before running a task.
        """
        tasks = list(tasks)
        backend = self.config.resolve(len(tasks))
        if backend == "process":
            workers = min(self.config.workers, len(tasks))
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=limit_blas_threads,
                initargs=(workers,),
            ) as pool:
                return list(pool.map(fn, tasks))
        if backend == "thread":
            with ThreadPoolExecutor(
                max_workers=min(self.config.workers, len(tasks))
            ) as pool:
                return list(pool.map(fn, tasks))
        return [fn(task) for task in tasks]


class ClipScheduler:
    """Order-preserving map of a pipeline over many clips."""

    def __init__(self, spec: PipelineSpec, config: Optional[SchedulerConfig] = None):
        self.spec = spec
        self.config = config or SchedulerConfig()

    def run(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        """Process every clip; results arrive in input order.

        All backends produce identical results — clips never share state —
        so callers may treat backend purely as a throughput knob.
        """
        backend = self.config.resolve(len(clips))
        if backend == "serial":
            return self._run_serial(clips)
        if backend == "thread":
            return self._run_threads(clips)
        return self._run_processes(clips)

    # ------------------------------------------------------------------ #
    def _run_serial(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        pipeline = self.spec.build()
        return pipeline.run_clips(clips)

    def _run_threads(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        # Pipelines hold per-clip state (stored key frame, scratch
        # buffers), so each thread gets its own, built once and reused
        # for every clip that lands on that thread.
        self.spec.warm()
        local = threading.local()

        def run_one(clip: VideoClip) -> PipelineResult:
            if not hasattr(local, "pipeline"):
                local.pipeline = self.spec.build()
            return local.pipeline.run_clip(clip)

        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            return list(pool.map(run_one, clips))

    def _run_processes(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        self.spec.warm()  # workers load the cache instead of racing to train
        with ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_init_process_worker,
            initargs=(self.spec, self.config.workers),
        ) as pool:
            return list(pool.map(_run_in_process_worker, clips))
