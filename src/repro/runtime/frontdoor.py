"""The serving front door: ingestion, backpressure, autoscaling, config.

Serving-systems practice says the front door — admission, backpressure,
elasticity — is where a deployment wins or loses tail latency.  This
module is that layer for the EVA2 serving runtime, split into four
pieces that :class:`~repro.runtime.serving.ServingRuntime` composes:

* :class:`RequestSource` and its adapters (:class:`ListSource`,
  :class:`IteratorSource`, :class:`QueueSource`,
  :class:`AsyncQueueSource`) — *streaming ingestion*.
  ``ServingRuntime.serve()`` accepts any of them (or a plain list /
  iterator / generator / :class:`asyncio.Queue`, coerced by
  :func:`as_request_source`): a source yields ``(seq, request)`` pairs
  in nondecreasing arrival order, and the historical list path is just
  one adapter that pre-sorts by ``(arrival_time, submission order)``.
* :class:`FrontDoor` — the bounded admission buffer between a source
  and a serve loop.  It validates routing and duplicate ids as traffic
  enters, exposes ``take(depth, now)`` for the loops to pull due
  arrivals, and enforces *queue-depth watermarks*: past ``max_pending``
  queued-but-unadmitted requests it stops pulling (a backpressure
  pause) until the loop drains back to ``resume_pending``.  Push-side
  backpressure is :class:`BackpressureError`, raised by a bounded
  :meth:`QueueSource.submit`.
* :class:`AutoscalePolicy` — a *pure function* from observed state
  (live shards, admission-queue depth, deadline slack, the sustained
  streak so far) to a target shard count, with hysteresis on both
  directions so transient spikes don't thrash the fleet.
  :class:`Autoscaler` is the thin stateful wrapper that carries streaks
  per lane and records every change as a :class:`ScaleEvent`; the DES
  and supervised-process backends both drive it.
* :class:`ServerConfig` — the validated configuration object that
  replaced ``ServingRuntime.__init__``'s keyword knobs.

Scaling never changes results: the bit-identity contract (every served
clip identical to its serial run) holds regardless of when shards were
spawned or drained, which is what makes elasticity safe to apply.
"""

from __future__ import annotations

import asyncio
import queue as queue_module
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .scheduler import _usable_cores
from .supervision import FaultPlan, SupervisorConfig

__all__ = [
    "BackpressureError",
    "RequestSource",
    "ListSource",
    "IteratorSource",
    "QueueSource",
    "AsyncQueueSource",
    "as_request_source",
    "FrontDoor",
    "ScaleEvent",
    "AutoscaleDecision",
    "AutoscalePolicy",
    "Autoscaler",
    "ServerConfig",
]


class BackpressureError(RuntimeError):
    """A bounded ingestion buffer refused a submission.

    Raised by :meth:`QueueSource.submit` when the source already holds
    ``maxsize`` unpulled requests — the push-side half of the front
    door's backpressure (the pull side is the watermark pause in
    :class:`FrontDoor`).  Producers should retry after the server
    drains, or widen ``maxsize`` if the burst is expected.
    """


# -------------------------------------------------------------------- #
# request sources — streaming ingestion adapters
# -------------------------------------------------------------------- #
class RequestSource:
    """A stream of clip requests in nondecreasing arrival order.

    Subclasses implement :meth:`_next_pair` returning the next
    ``(seq, request)`` or ``None`` when nothing is available *now*;
    :attr:`finished` says whether "nothing now" means "never again".
    The base class enforces the one ordering contract every serve loop
    relies on: arrivals must be nondecreasing across pulls (lists are
    pre-sorted by their adapter; live streams must submit in arrival
    order).
    """

    def __init__(self):
        self._count = 0
        self._last_arrival: Optional[float] = None

    # -- subclass surface ------------------------------------------- #
    def _next_pair(self) -> Optional[Tuple[int, object]]:
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """Whether the source can never yield another request."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further pulls yield nothing."""

    # -- shared contract -------------------------------------------- #
    def _take_seq(self) -> int:
        seq = self._count
        self._count += 1
        return seq

    def pull(self) -> Optional[Tuple[int, object]]:
        """The next ``(seq, request)``, or None if nothing is ready."""
        pair = self._next_pair()
        if pair is None:
            return None
        seq, request = pair
        arrival = request.arrival_time
        if self._last_arrival is not None and arrival < self._last_arrival:
            raise ValueError(
                f"request {request.request_id!r} arrives at {arrival}, "
                f"before the previously pulled arrival "
                f"{self._last_arrival}; a streaming source must yield "
                f"requests in nondecreasing arrival order (list traffic "
                f"is sorted automatically)"
            )
        self._last_arrival = arrival
        return seq, request


class ListSource(RequestSource):
    """The historical list path as one adapter.

    Pre-sorts ``(submission index, request)`` by ``(arrival_time,
    submission index)``, so seqs remain submission positions and a
    report's ``records`` stay in submission order.
    """

    def __init__(self, requests: Sequence):
        super().__init__()
        self.requests = list(requests)
        self._pairs = deque(sorted(
            enumerate(self.requests),
            key=lambda item: (item[1].arrival_time, item[0]),
        ))
        self._count = len(self.requests)  # seqs are preassigned

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        return self._pairs.popleft() if self._pairs else None

    @property
    def finished(self) -> bool:
        return not self._pairs


class IteratorSource(RequestSource):
    """Wrap any iterator/generator of requests (``None`` ends it)."""

    def __init__(self, iterable: Iterable):
        super().__init__()
        self._iterator: Optional[Iterator] = iter(iterable)

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        if self._iterator is None:
            return None
        request = next(self._iterator, None)
        if request is None:
            self._iterator = None
            return None
        return self._take_seq(), request

    @property
    def finished(self) -> bool:
        return self._iterator is None

    def close(self) -> None:
        self._iterator = None


class QueueSource(RequestSource):
    """A bounded submit/serve handoff — the push side of backpressure.

    Producers (any thread) call :meth:`submit`; past ``maxsize``
    unpulled requests that raises :class:`BackpressureError` instead of
    growing without bound.  Call :meth:`close` after the last submit so
    the serve loop knows the stream ended; until then an empty queue
    means "nothing *yet*" and the loop waits in real time.
    """

    def __init__(self, maxsize: Optional[int] = None):
        super().__init__()
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._queue: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        self._closed = False

    def submit(self, request) -> None:
        if self._closed:
            raise ValueError("cannot submit to a closed QueueSource")
        if (self.maxsize is not None
                and self._queue.qsize() >= self.maxsize):
            raise BackpressureError(
                f"QueueSource is full ({self.maxsize} queued "
                f"request(s)); retry after the server drains"
            )
        self._queue.put(request)

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        try:
            request = self._queue.get_nowait()
        except queue_module.Empty:
            return None
        return self._take_seq(), request

    @property
    def finished(self) -> bool:
        return self._closed and self._queue.empty()

    def close(self) -> None:
        self._closed = True


class AsyncQueueSource(RequestSource):
    """Adapt an :class:`asyncio.Queue` fed by producer coroutines.

    The serve loop pulls with ``get_nowait`` (it never awaits), so the
    producing event loop must run concurrently (or have finished
    filling the queue).  Call :meth:`close` after the last put — until
    then an empty queue means "nothing yet", not end-of-stream.
    """

    def __init__(self, async_queue: "asyncio.Queue"):
        super().__init__()
        self._queue = async_queue
        self._closed = False

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        try:
            request = self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None
        if request is None:  # producer-side end-of-stream sentinel
            self._closed = True
            return None
        return self._take_seq(), request

    @property
    def finished(self) -> bool:
        return self._closed and self._queue.empty()

    def close(self) -> None:
        self._closed = True


def as_request_source(requests) -> RequestSource:
    """Coerce whatever ``serve()`` was handed into a request source."""
    if isinstance(requests, RequestSource):
        return requests
    if isinstance(requests, (list, tuple)):
        return ListSource(requests)
    if isinstance(requests, asyncio.Queue):
        return AsyncQueueSource(requests)
    if isinstance(requests, Iterable):
        return IteratorSource(requests)
    raise TypeError(
        f"serve() accepts a sequence of requests, an iterator/generator, "
        f"an asyncio.Queue, or a RequestSource; got "
        f"{type(requests).__name__}"
    )


# -------------------------------------------------------------------- #
# the front door proper — validation, watermarks, lane bookkeeping
# -------------------------------------------------------------------- #
class FrontDoor:
    """Bounded, validated admission between a source and a serve loop.

    The door owns ingestion-time correctness (routing failures and
    duplicate request ids surface here — eagerly for list traffic,
    keeping the historical fail-fast behaviour; incrementally for
    streams) and the pull-side watermark: :meth:`take` stops pulling
    once ``depth`` (the loop's queued-but-unadmitted count) reaches
    ``max_pending`` and resumes when it drains to ``resume_pending``.
    Hysteresis means the door toggles once per excursion, not once per
    request; ``backpressure_pauses`` counts the excursions.
    """

    def __init__(
        self,
        source: RequestSource,
        router,
        max_pending: Optional[int] = None,
        resume_pending: Optional[int] = None,
    ):
        self.source = source
        self.router = router
        self.max_pending = max_pending
        if max_pending is None:
            self.resume_pending = 0
        elif resume_pending is None:
            self.resume_pending = max_pending // 2
        else:
            self.resume_pending = resume_pending
        self._paused = False
        self._peeked: Optional[Tuple[int, object]] = None
        self._seen: Dict[object, int] = {}
        self.pulled = 0
        self.backpressure_pauses = 0
        if isinstance(source, ListSource):
            # List traffic keeps the historical contract: every routing
            # or duplicate-id failure surfaces before serving starts.
            for position, request in enumerate(source.requests):
                router.lane_for(request)
                self._check_duplicate(request, position)

    # ---------------------------------------------------------------- #
    def _check_duplicate(self, request, position: int) -> None:
        from .serving import DuplicateRequestError

        try:
            first = self._seen.setdefault(request.request_id, position)
        except TypeError:
            return  # unhashable ids cannot be checked cheaply
        if first != position:
            raise DuplicateRequestError(
                f"duplicate request_id {request.request_id!r}: "
                f"submissions #{first} and #{position} both use it; "
                f"records are keyed by id, so aliased requests would "
                f"silently merge"
            )

    def _fill_peek(self) -> Optional[Tuple[int, object]]:
        if self._peeked is None:
            pair = self.source.pull()
            if pair is not None:
                seq, request = pair
                self.router.lane_for(request)  # reject before buffering
                if not isinstance(self.source, ListSource):
                    self._check_duplicate(request, seq)
                self._peeked = pair
        return self._peeked

    # ---------------------------------------------------------------- #
    @property
    def exhausted(self) -> bool:
        """No buffered request and the source can yield no more."""
        return self._fill_peek() is None and self.source.finished

    @property
    def starved(self) -> bool:
        """Nothing available *now* from a source that is still open."""
        return self._fill_peek() is None and not self.source.finished

    def next_arrival(self) -> Optional[float]:
        """Arrival time of the next pullable request (None = none yet)."""
        pair = self._fill_peek()
        return pair[1].arrival_time if pair is not None else None

    def lane_of(self, request) -> str:
        return self.router.lane_for(request)

    def take(
        self, depth: int, now: Optional[float] = None
    ) -> List[Tuple[int, object]]:
        """Pull every request due at ``now`` that the watermark allows.

        ``depth`` is the loop's current queued-but-unadmitted count;
        the watermark compares against ``depth`` plus what this call
        already pulled.  ``now=None`` ignores arrival times (the DES
        loop orders events by arrival itself).  Progress is guaranteed:
        at ``depth == 0`` the door always resumes, so a paused serve
        can never deadlock against its own backpressure.
        """
        out: List[Tuple[int, object]] = []
        while True:
            pair = self._fill_peek()
            if pair is None:
                break
            if now is not None and pair[1].arrival_time > now:
                break
            queued = depth + len(out)
            if self.max_pending is not None:
                if self._paused:
                    if queued <= self.resume_pending:
                        self._paused = False
                    else:
                        break
                if queued >= self.max_pending:
                    self._paused = True
                    self.backpressure_pauses += 1
                    break
            self._peeked = None
            self.pulled += 1
            out.append(pair)
        return out

    def drain_per_lane(self) -> Dict[str, List[Tuple[int, object]]]:
        """Pull *everything* into per-lane lists (fixed sharded fleets).

        Fixed shared-admission fleets need the full request set up
        front (shard-budget dealing, and the supervisor's release
        schedule), so they drain the source — streaming traffic is
        consumed whole, watermarks do not apply.  Each lane's list is
        in source order, which is arrival order (ties in submission
        order).
        """
        per_lane: Dict[str, List[Tuple[int, object]]] = {
            name: [] for name in self.router.specs
        }
        while True:
            pair = self._fill_peek()
            if pair is None:
                if self.source.finished:
                    break
                raise ValueError(
                    "this backend needs the full trace up front, but the "
                    "request source is still open; close() it after the "
                    "last submit, or serve with an autoscaling/in-process "
                    "configuration that streams"
                )
            self._peeked = None
            self.pulled += 1
            per_lane[self.lane_of(pair[1])].append(pair)
        return per_lane


# -------------------------------------------------------------------- #
# autoscaling — pure policy, thin stateful wrapper
# -------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision that changed a lane's shard count."""

    lane: str
    #: decision time on the deciding loop's (virtual) clock.
    time: float
    from_shards: int
    to_shards: int
    #: "queue-depth" / "deadline-slack" for growth, "idle" for shrink.
    reason: str
    #: the admission-queue depth that drove the decision.
    queue_depth: int = 0


@dataclass(frozen=True)
class AutoscaleDecision:
    """What the policy wants: a target and the streak to carry forward."""

    target: int
    streak: int
    reason: str = "hold"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Pure-function shard-count policy with two-sided hysteresis.

    :meth:`decide` maps observed state to a target shard count and is
    referentially transparent — same inputs, same decision, no clock,
    no hidden counters — so it unit-tests as a plain function and both
    serving backends (inline DES and supervised processes) share it
    verbatim.  Pressure is queue depth *per live shard*; a sustained
    excursion above ``high_depth`` grows by one, a sustained stretch at
    or below ``low_depth`` shrinks by one, and ``sustain_up`` /
    ``sustain_down`` observations of hysteresis keep one bursty step
    from thrashing the fleet (scale-down is deliberately the slower
    side: spare shards are cheap, cold starts are not).  A lane whose
    earliest pending deadline has ``slack_floor`` or less of slack
    grows immediately — deadline pressure outranks depth hysteresis.
    """

    min_shards: int = 1
    max_shards: int = 4
    #: grow when depth per live shard sustains >= this.
    high_depth: float = 2.0
    #: shrink when depth per live shard sustains <= this.
    low_depth: float = 0.25
    #: consecutive high-pressure observations before growing.
    sustain_up: int = 2
    #: consecutive low-pressure observations before shrinking.
    sustain_down: int = 8
    #: grow immediately when the earliest pending deadline has this
    #: little slack left (seconds); <= 0 only fires on already-due work.
    slack_floor: float = 0.0

    def __post_init__(self):
        if self.min_shards < 1:
            raise ValueError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        if self.low_depth < 0 or self.high_depth <= self.low_depth:
            raise ValueError(
                f"need high_depth > low_depth >= 0, got "
                f"high_depth={self.high_depth}, low_depth={self.low_depth}"
            )
        if self.sustain_up < 1 or self.sustain_down < 1:
            raise ValueError(
                f"sustain_up/sustain_down must be >= 1, got "
                f"{self.sustain_up}/{self.sustain_down}"
            )

    def decide(
        self,
        shards: int,
        queue_depth: int,
        streak: int = 0,
        deadline_slack: Optional[float] = None,
    ) -> AutoscaleDecision:
        """Target shard count for one observation — a pure function.

        ``shards`` is the lane's live (non-draining) shard count,
        ``queue_depth`` its admission backlog, ``streak`` the signed
        sustained-pressure counter returned by the previous decision
        (positive = consecutive high, negative = consecutive low), and
        ``deadline_slack`` the seconds until the earliest pending
        deadline (None = no deadlines waiting).
        """
        pressure = queue_depth / max(shards, 1)
        urgent = (
            queue_depth > 0
            and deadline_slack is not None
            and deadline_slack <= self.slack_floor
        )
        if urgent or pressure >= self.high_depth:
            streak = streak + 1 if streak > 0 else 1
            needed = 1 if urgent else self.sustain_up
            if streak >= needed and shards < self.max_shards:
                return AutoscaleDecision(
                    target=shards + 1,
                    streak=0,
                    reason="deadline-slack" if urgent else "queue-depth",
                )
        elif pressure <= self.low_depth:
            streak = streak - 1 if streak < 0 else -1
            if -streak >= self.sustain_down and shards > self.min_shards:
                return AutoscaleDecision(
                    target=shards - 1, streak=0, reason="idle"
                )
        else:
            streak = 0
        # Clamp to the configured band.  The min-shards floor also
        # self-heals a lane whose live fleet dropped to zero (crashes
        # outpacing the supervisor): the restore is a scale decision,
        # not a "hold".
        target = min(max(shards, self.min_shards), self.max_shards)
        if target != shards:
            reason = "min-shards" if target > shards else "max-shards"
            return AutoscaleDecision(target=target, streak=streak,
                                     reason=reason)
        return AutoscaleDecision(target=target, streak=streak)


class Autoscaler:
    """Per-lane streak state and the :class:`ScaleEvent` log.

    The only mutable autoscaling state: the policy itself stays pure.
    Both serving backends call :meth:`observe` at admission boundaries
    and act on the returned target (spawn via the supervisor's respawn
    machinery, or drain an idle shard).
    """

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self.events: List[ScaleEvent] = []
        self._streaks: Dict[str, int] = {}

    def observe(
        self,
        lane: str,
        shards: int,
        queue_depth: int,
        now: float,
        deadline_slack: Optional[float] = None,
    ) -> int:
        """The lane's target shard count after this observation."""
        decision = self.policy.decide(
            shards,
            queue_depth,
            streak=self._streaks.get(lane, 0),
            deadline_slack=deadline_slack,
        )
        self._streaks[lane] = decision.streak
        if decision.target != shards:
            self.events.append(ScaleEvent(
                lane=lane,
                time=now,
                from_shards=shards,
                to_shards=decision.target,
                reason=decision.reason,
                queue_depth=queue_depth,
            ))
        return decision.target


# -------------------------------------------------------------------- #
# server configuration
# -------------------------------------------------------------------- #
_SHARD_BACKENDS = ("auto", "serial", "process")


@dataclass(frozen=True)
class ServerConfig:
    """Validated configuration for :class:`ServingRuntime`.

    Collapses the historical keyword knobs into one object.  Field
    validation happens here; *plan/lane* validation — which needs the router —
    happens when the runtime is constructed with a spec.
    """

    #: per-shard slot capacity (continuous batch width).
    max_batch: int = 8
    #: fixed shard count (1 = in-process); superseded by ``autoscale``.
    serve_workers: int = 1
    #: shard pool backend: "serial", "process", or "auto" (process when
    #: more than one core is usable and more than one shard runs).
    shard_backend: str = "auto"
    #: sharded request assignment; "shared" (one admission queue per
    #: lane) is the only mode, and any other value raises.
    admission: str = "shared"
    #: deterministic fault injection (sharded serving only).
    fault_plan: FaultPlan = None  # normalized to FaultPlan() below
    #: failure detection / recovery knobs.
    supervisor: SupervisorConfig = None  # normalized below
    #: injectable monotonic clock for in-process / inline serving.
    clock: Optional[Callable[[], float]] = None
    #: elastic shard pool: grow/shrink per lane between the policy's
    #: min_shards and max_shards from observed queue depth and deadline
    #: slack.  None = fixed ``serve_workers`` shards.
    autoscale: Optional[AutoscalePolicy] = None
    #: release arrivals to process shards by logical timestamps instead
    #: of real sleeps, so large simulated traces run at full speed (the
    #: in-process and inline-DES loops are already virtual-time).
    virtual_time: bool = False
    #: pull-side watermark: stop ingesting past this many queued
    #: requests (None = unbounded, the historical behaviour) …
    max_pending: Optional[int] = None
    #: … and resume once the queue drains to this (default: half).
    resume_pending: Optional[int] = None
    #: fuse coincident key-frame CNN prefixes across lanes (and across
    #: inline-DES simulated shards) into one ``run_prefix`` batch per
    #: step.  Bit-identical either way; False restores per-lane calls.
    prefix_coalesce: bool = True
    #: content-addressed prefix activation cache budget in MiB (0 = off).
    #: Keyed by frame digest + network weight version, so repeated
    #: frames skip the prefix entirely and live weight swaps invalidate
    #: without draining.
    prefix_cache_mb: float = 0.0
    #: inference plan family every lane runs under ("float64",
    #: "float32", "int8", "q16"); None keeps each lane spec's own dtype.
    inference_dtype: Optional[str] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.serve_workers < 1:
            raise ValueError(
                f"serve_workers must be >= 1, got {self.serve_workers}"
            )
        if self.admission == "static":
            raise ValueError(
                "static admission was removed: every sharded serve "
                "uses one shared admission queue per lane "
                "(admission='shared')"
            )
        if self.admission != "shared":
            raise ValueError(
                f"admission must be 'shared', got {self.admission!r}"
            )
        if self.shard_backend not in _SHARD_BACKENDS:
            raise ValueError(
                f"shard_backend must be one of {_SHARD_BACKENDS}, got "
                f"{self.shard_backend!r}"
            )
        object.__setattr__(self, "max_batch", int(self.max_batch))
        object.__setattr__(self, "serve_workers", int(self.serve_workers))
        object.__setattr__(self, "virtual_time", bool(self.virtual_time))
        if self.fault_plan is None:
            object.__setattr__(self, "fault_plan", FaultPlan())
        if self.supervisor is None:
            object.__setattr__(self, "supervisor", SupervisorConfig())
        object.__setattr__(self, "prefix_coalesce",
                           bool(self.prefix_coalesce))
        object.__setattr__(self, "prefix_cache_mb",
                           float(self.prefix_cache_mb))
        if self.prefix_cache_mb < 0:
            raise ValueError(
                f"prefix_cache_mb must be >= 0 (0 = off), got "
                f"{self.prefix_cache_mb}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 (None = unbounded), got "
                f"{self.max_pending}"
            )
        if self.resume_pending is not None:
            if self.max_pending is None:
                raise ValueError(
                    "resume_pending needs max_pending (there is no "
                    "watermark to resume from)"
                )
            if not 0 <= self.resume_pending < self.max_pending:
                raise ValueError(
                    f"need 0 <= resume_pending < max_pending, got "
                    f"resume_pending={self.resume_pending}, "
                    f"max_pending={self.max_pending}"
                )
        if self.inference_dtype is not None:
            # Canonicalize here so every consumer (router, report,
            # prefix-cache keys) sees one spelling per family.
            from ..nn.inference import resolve_plan_dtype

            object.__setattr__(
                self, "inference_dtype",
                resolve_plan_dtype(self.inference_dtype),
            )

    @property
    def pool_workers(self) -> int:
        """The worker budget backend resolution sizes pools against."""
        if self.autoscale is not None:
            return max(self.serve_workers, self.autoscale.max_shards)
        return self.serve_workers

    def resolve_shard_backend(self, num_shards: int) -> str:
        """``"serial"`` or ``"process"`` for a pool of ``num_shards``."""
        if self.pool_workers <= 1 or num_shards <= 1:
            return "serial"  # a pool of one is just the inline path
        if self.shard_backend != "auto":
            return self.shard_backend
        return "process" if _usable_cores() > 1 else "serial"

    @property
    def sharded(self) -> bool:
        """Whether this config serves through shard workers at all."""
        return self.serve_workers > 1 or self.autoscale is not None

