"""Process-pool helpers shared by the sharded serving paths.

* :func:`deal_shard_budget` sizes each lane's shard fleet under
  shared admission.
* :class:`ShardCrashError` is what a serve raises instead of hanging
  when a shard process dies or stalls.
* :func:`limit_blas_threads` sizes a child process's OpenBLAS pool to
  its share of the usable cores (:func:`blas_thread_share`), so N
  shard processes do not oversubscribe the host N-fold.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, Mapping, Optional, Sequence

__all__ = [
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
    ``processes - 1`` siblings (the static shard pool, supervised shards),
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

