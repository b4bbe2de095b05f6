"""In-memory span recorder wrapped around the library's public layer calls.

Nothing here edits the library: :func:`install` replaces public
functions with timing wrappers from the outside.  Each wrapper uses
``functools.wraps``, which copies the wrapped function's ``__dict__``,
so the ``reads``/``writes`` effect sets that ``core.stages._effects``
attaches survive and the stage graph's conflict analysis is unchanged.

The lifecycle graph is built once per shape and memoised by
``frame_lifecycle_graph`` (an ``lru_cache``), which captures the stage
function objects at its first call; :func:`install` therefore refuses
to run after that call.  Process shards fork or re-import the library
in another process, so their spans never reach this recorder.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, List, Optional

from benchmath import Span

#: the lifecycle stages, in graph order.
STAGES = ("rfbme", "decide", "cnn_prefix", "warp", "cnn_suffix", "record")
#: step entry points: one serve round runs both phases of every lane.
STEP_SPANS = ("step.begin", "step.finish")
FLUSH_SPAN = "prefix_service.flush"


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        rows: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``rows(*args)`` counts work."""
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next
                tracer._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    Span(
                        sid, name, start, end, parent,
                        threading.get_ident(),
                        rows(*args, **kwargs) if rows is not None else 0,
                        id(args[0]) if args else 0,
                    )
                )

        return traced


def _keys(batch, decisions, *_):
    return sum(1 for is_key in decisions if is_key)


def _predicted(batch, decisions, *_):
    return sum(1 for is_key in decisions if not is_key)


def _rfbme_pairs(batch):
    return sum(1 for k in range(len(batch)) if batch.slot(k).executor.has_key)


def _frames(batch, *_):
    return len(batch)


def _step_rows(executor, batch, *_, **__):
    return len(batch)


def install(tracer: Tracer) -> None:
    """Wrap the six lifecycle stages, the prefix flush and step entries."""
    import repro.core.stages as stages
    from repro.runtime.prefix_service import PrefixService
    from repro.runtime.stage_graph import StageExecutor, frame_lifecycle_graph

    if frame_lifecycle_graph.cache_info().currsize:
        raise RuntimeError(
            "frame_lifecycle_graph already captured the stage functions; "
            "install the tracer before the first graph is built"
        )
    counts = {
        "rfbme": _rfbme_pairs,
        "decide": _frames,
        "cnn_prefix": _keys,
        "warp": _predicted,
        "cnn_suffix": _frames,
        "record": _frames,
    }
    for name in STAGES:
        attr = f"stage_{name}"
        setattr(stages, attr, tracer.wrap(getattr(stages, attr), name,
                                          rows=counts[name]))
    PrefixService.flush = tracer.wrap(PrefixService.flush, FLUSH_SPAN)
    StageExecutor.begin_step = tracer.wrap(
        StageExecutor.begin_step, "step.begin", rows=_step_rows
    )
    StageExecutor.finish_step = tracer.wrap(
        StageExecutor.finish_step, "step.finish"
    )
