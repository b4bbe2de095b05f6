"""Process-pool helpers shared by the sharded serving paths.

* :func:`deal_shard_budget` sizes each lane's shard fleet under
  shared admission.
* :class:`ShardCrashError` is what a serve raises instead of hanging
  when a shard process dies or stalls.
* :func:`single_blas_thread` runs a block on a one-thread OpenBLAS
  pool.  Every runtime step runs inside it (lockstep, every serving
  backend, every shard process): the runtime's parallelism lives in
  shard processes, never inside a GEMM, whose second BLAS thread burns
  a core without shortening a step.  Offline ``InferencePlan.run`` and
  the serial seed oracle keep the caller's pool.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Dict, Iterator, Mapping, Sequence

__all__ = [
    "ShardCrashError",
    "deal_shard_budget",
    "single_blas_thread",
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


#: ``(get, set)`` thread-count symbols, numpy's scipy-openblas wheel
#: (64-bit interface) first, then a system OpenBLAS build.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_api():
    """``(get, set)`` of the OpenBLAS loaded in this process, or None.

    Finds the library through ``/proc/self/maps`` (numpy loads it with
    local symbol binding, so a global lookup misses it).  None where
    that file is missing or no OpenBLAS is loaded (MKL, Accelerate).
    Looked up once per process (forked children inherit the answer);
    the runtime modules import numpy, so its BLAS is loaded by the
    first call.
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


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with this process's OpenBLAS pool at one thread.

    Restores the caller's pool on exit, exceptions included, and nests
    (an inner scope finds one thread and leaves it).  Does nothing when
    no OpenBLAS thread API is loaded (MKL, Accelerate).
    """
    api = _openblas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
