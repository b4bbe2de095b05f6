"""Fault tolerance for sharded serving: supervision, shedding, injection.

Three concerns live here, all downstream of one fact about this
pipeline: every clip's execution is deterministic and bit-identical
regardless of batch-mates or shard assignment, so *re-executing* a lost
request on another shard is exactly replayable — failover is safe by
construction, and the only job of this module is to notice failures and
re-dispatch explicitly.

* :class:`FaultPlan` / :class:`FaultEvent` — deterministic fault
  injection.  A plan is a seeded, picklable set of events ("kill shard
  k at virtual time t", "stall a shard for d steps", "drop the next
  ack") honoured by *both* serving backends: the inline discrete-event
  loop fires events against per-shard virtual clocks, and the process
  backend ships each shard its own slice of the plan to fire against
  its real post-release clock.  Plans round-trip through JSON so a
  failing chaos run can be replayed from an artifact.
* :class:`SupervisorConfig` / :class:`ShardSupervisor` — the parent-side
  supervisor for the shared-admission process backend.  Shards heartbeat
  and acknowledge every completed request; the parent detects a crashed
  (dead process) or stalled (silent past ``heartbeat_timeout``) shard,
  re-dispatches its unacknowledged requests to surviving shards — or to
  a respawned one, bounded by ``max_respawns`` — and records every
  failover as a :class:`FailoverEvent`.  Dispatch is credit-based (at
  most ``capacity`` unacknowledged requests per shard) and
  deadline-ordered, so the parent owns admission policy and a shard
  owns only its resident batch.
* Deadlines and shedding — a :class:`~repro.runtime.serving.ClipRequest`
  with a ``deadline`` that passes while the request is still queued is
  *shed*: dropped with an explicit :class:`ShedRecord` (whose
  ``error`` is a named :class:`RequestShedError`) instead of served
  late or silently dropped.  Admission among due requests is
  earliest-deadline-first.

The supervised child protocol runs over one duplex
``multiprocessing.Pipe`` per shard, and both ends block on it (the
parent in ``multiprocessing.connection.wait`` over every shard's pipe
and process sentinel, a shard in ``poll`` until its next heartbeat is
due) instead of polling on a fixed tick::

    child -> parent: ("ready",)
                     ("beat",)              throttled to beat_interval
                     ("ack", seq, record)   per completion
                     ("done", tail)         final counters
    parent -> child: ("go", t0)     release, clock base = parent time t0
                     ("skip", dt)   virtual-time jump: advance clock dt
                     seq            dispatch: run request ``seq``
                     None           retire sentinel

A dispatch names a submission seq, never ships the request: every
shard task carries its lane's ``{seq: ClipRequest}`` table, known before
any shard is spawned (under ``fork`` the child inherits it for free;
respawned and autoscaled shards are forked later from the same parent
and hold it too).  Every parent -> child message is a few bytes, so the
parent never blocks on a stalled shard's pipe.  A dead shard shows up
as end-of-file on its pipe or as its process sentinel; a send to a dead
shard is that shard's crash, never an error out of ``serve()``.

Virtual-time admission (``ShardSupervisor(virtual_time=True)``): when
every shard is idle and the next arrival is in the future, the parent
*jumps* its logical clock to that arrival instead of sleeping, and
broadcasts ``("skip", dt)`` so every shard advances its own clock by the
same ``dt`` (a shard's clock base just moves back).  All deadlines,
shedding, and admission stamps live on the logical timeline, so a large
simulated trace serves in real time proportional to its busy time, not
its simulated duration.  *Liveness* stays on the real clock — a jump
must never read as heartbeat silence — and ack timeouts are unaffected
because a jump only happens with zero dispatches in flight.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .scheduler import ShardCrashError, single_blas_thread
from .spec import PipelineSpec

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "SupervisorConfig",
    "ShardSupervisor",
    "SupervisionResult",
    "RequestShedError",
    "ShedRecord",
    "FailoverEvent",
]

#: the fault kinds both backends honour.
FAULT_KINDS = ("kill", "stall", "drop_ack")


class RequestShedError(RuntimeError):
    """A request was shed: its deadline passed before service began.

    Never raised during a serve — shedding is a per-request *outcome*,
    not a run failure.  :attr:`ShedRecord.error` materializes one so
    callers who want an exception per shed request (the CLI's verify
    path, a caller promoting sheds to failures) get a named type with
    the full context attached.
    """

    def __init__(self, request_id: object, lane: str, arrival_time: float,
                 deadline: float, shed_time: float):
        self.request_id = request_id
        self.lane = lane
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.shed_time = shed_time
        super().__init__(
            f"request {request_id!r} shed on lane {lane!r}: deadline "
            f"{deadline:.6f}s passed unserved at t={shed_time:.6f}s "
            f"(arrived {arrival_time:.6f}s)"
        )


@dataclass(frozen=True)
class ShedRecord:
    """One shed request: who, where, and when the deadline lapsed."""

    seq: int
    request_id: object
    lane: str
    arrival_time: float
    deadline: float
    #: when the shed was decided, on the shedding loop's clock.
    shed_time: float
    #: shard whose admission boundary shed it; -1 = the parent
    #: supervisor (process backend sheds before dispatch).
    shard: int = -1

    @property
    def error(self) -> RequestShedError:
        return RequestShedError(
            self.request_id, self.lane, self.arrival_time, self.deadline,
            self.shed_time,
        )


@dataclass(frozen=True)
class FailoverEvent:
    """One detected shard failure and what was re-dispatched."""

    lane: str
    shard: int
    #: detection time on the supervising loop's clock.
    time: float
    #: "crash" (process died / DES kill) or "stall" (heartbeat silence).
    reason: str
    #: submission seqs whose in-flight work was re-dispatched.
    seqs: Tuple[int, ...]
    #: whether a replacement shard was spawned for this failure.
    respawned: bool = False


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault against one shard's (virtual) clock.

    ``kill`` terminates the shard at ``at``; ``stall`` freezes it for
    ``steps`` lockstep steps (inline DES, scaled by the shard's measured
    step time) or ``seconds`` (process backend, a literal sleep) — a
    stall longer than the supervisor's ``heartbeat_timeout`` is
    indistinguishable from death and is failed over as one; ``drop_ack``
    loses the acknowledgement of the next request the shard completes
    at or after ``at``, so the supervisor retries it after
    ``ack_timeout``.
    """

    kind: str
    at: float
    lane: str = "default"
    shard: int = 0
    steps: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.kind == "stall" and self.steps <= 0 and self.seconds <= 0:
            raise ValueError("a stall needs steps > 0 or seconds > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable set of injected faults.

    Events are stored sorted by fire time so iteration order never
    depends on construction order; a plan (with its seed) round-trips
    through JSON for CI artifacts, and :meth:`for_shard` slices out the
    events one shard must honour.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: the seed that generated this plan (None for hand-built plans) —
    #: carried for provenance in dumped artifacts.
    seed: Optional[int] = None

    def __post_init__(self):
        ordered = tuple(sorted(
            self.events,
            key=lambda e: (e.at, e.lane, e.shard, e.kind),
        ))
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def lanes(self) -> Tuple[str, ...]:
        return tuple(sorted({event.lane for event in self.events}))

    def for_shard(self, lane: str, shard: int) -> Tuple[FaultEvent, ...]:
        """The events (fire-time order) targeting one shard."""
        return tuple(
            event for event in self.events
            if event.lane == lane and event.shard == shard
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        lanes: Sequence[str] = ("default",),
        shards_per_lane: int = 2,
        horizon: float = 1.0,
        kills: int = 1,
        stalls: int = 1,
        drops: int = 1,
        stall_steps: Tuple[int, int] = (2, 8),
        stall_seconds: float = 0.0,
    ) -> "FaultPlan":
        """A reproducible chaos plan over ``[0, horizon)`` seconds.

        Kills never target every shard of a lane — at least one original
        shard always survives, so a seeded plan cannot manufacture a
        total-loss run (hand-built plans still can, for testing the
        explicit :class:`~repro.runtime.scheduler.ShardCrashError`
        path).  Same seed and shape, same plan, on any host.
        """
        if shards_per_lane < 1:
            raise ValueError(
                f"shards_per_lane must be >= 1, got {shards_per_lane}"
            )
        rng = np.random.default_rng(seed)
        lanes = tuple(lanes)
        targets = [(lane, s) for lane in lanes for s in range(shards_per_lane)]

        def moment() -> float:
            return float(rng.uniform(0.05, 0.95) * horizon)

        events: List[FaultEvent] = []
        kill_budget = {lane: shards_per_lane - 1 for lane in lanes}
        killable = list(targets)
        for _ in range(kills):
            viable = [t for t in killable if kill_budget[t[0]] > 0]
            if not viable:
                break
            lane, shard = viable[int(rng.integers(len(viable)))]
            kill_budget[lane] -= 1
            killable.remove((lane, shard))
            events.append(FaultEvent("kill", at=moment(), lane=lane, shard=shard))
        for _ in range(stalls):
            lane, shard = targets[int(rng.integers(len(targets)))]
            events.append(FaultEvent(
                "stall", at=moment(), lane=lane, shard=shard,
                steps=int(rng.integers(stall_steps[0], stall_steps[1] + 1)),
                seconds=float(stall_seconds),
            ))
        for _ in range(drops):
            lane, shard = targets[int(rng.integers(len(targets)))]
            events.append(FaultEvent("drop_ack", at=moment(), lane=lane,
                                     shard=shard))
        return cls(events=tuple(events), seed=seed)

    # ---------------------------------------------------------------- #
    # JSON round-trip, for replaying a failing chaos run from CI.
    # ---------------------------------------------------------------- #
    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FaultPlan":
        return cls(
            events=tuple(FaultEvent(**event) for event in data["events"]),
            seed=data.get("seed"),
        )

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(json.load(handle))


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-detection and recovery knobs for supervised serving."""

    #: a shard silent for this long (no heartbeat; DES: declared stall
    #: duration) is considered dead and failed over.
    heartbeat_timeout: float = 30.0
    #: replacement shards the supervisor may spawn per serve; a lane
    #: that loses every shard with no budget left raises
    #: :class:`~repro.runtime.scheduler.ShardCrashError` instead of
    #: hanging.
    max_respawns: int = 1
    #: a dispatched request unacknowledged for this long is retried
    #: (defaults to 4x the heartbeat timeout — a live shard that lost
    #: only an ack, never the work).
    ack_timeout: Optional[float] = None
    #: how often a supervised shard heartbeats (process backend).
    beat_interval: float = 0.05
    #: hard no-progress bound: a supervised serve that neither acks,
    #: sheds, dispatches, nor detects a failure for this long is
    #: aborted with :class:`ShardCrashError` — a supervised run never
    #: hangs.
    drain_timeout: float = 120.0

    def __post_init__(self):
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.ack_timeout is not None and self.ack_timeout <= 0:
            raise ValueError(
                f"ack_timeout must be > 0, got {self.ack_timeout}"
            )
        if self.beat_interval <= 0:
            raise ValueError(
                f"beat_interval must be > 0, got {self.beat_interval}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {self.drain_timeout}"
            )

    @property
    def resolved_ack_timeout(self) -> float:
        return (
            self.ack_timeout if self.ack_timeout is not None
            else 4.0 * self.heartbeat_timeout
        )


# -------------------------------------------------------------------- #
# shared backlog bookkeeping (inline DES loop and process supervisor)
# -------------------------------------------------------------------- #
@dataclass
class _PendingEntry:
    """One undispatched (or re-dispatched) request in a lane backlog."""

    seq: int
    request: object  # ClipRequest; untyped to avoid a serving import
    lane: str
    #: earliest time this entry may be dispatched: the arrival time, or
    #: the failover/retry time for re-dispatched entries.
    available: float
    attempts: int = 1
    #: the outcome label its eventual record carries ("served",
    #: "failover", "retried") — rewritten when the entry re-enters the
    #: backlog through a recovery path.
    outcome: str = "served"
    #: when the current attempt was dispatched (process backend).
    dispatch_time: float = 0.0


def _edf_key(entry: _PendingEntry) -> Tuple[float, float, int]:
    """Earliest-deadline-first admission order (slack ordering).

    Deadline-less requests sort after every deadlined one; ties fall
    back to arrival order then submission order, which makes the
    no-deadline case exactly the historical FIFO admission.
    """
    deadline = getattr(entry.request, "deadline", None)
    return (
        deadline if deadline is not None else math.inf,
        entry.request.arrival_time,
        entry.seq,
    )


def _shed_expired(
    entries: List[_PendingEntry], now: float, shard: int = -1
) -> Tuple[List[_PendingEntry], List[ShedRecord]]:
    """Split a backlog into survivors and newly shed entries.

    A request is shed the moment its deadline passes while it is still
    waiting for a slot — service that has not begun by the deadline can
    no longer meet it.  Admitted requests are never shed: they run to
    completion and their record simply shows a missed deadline.
    """
    kept: List[_PendingEntry] = []
    shed: List[ShedRecord] = []
    for entry in entries:
        deadline = getattr(entry.request, "deadline", None)
        if deadline is not None and deadline <= now:
            shed.append(ShedRecord(
                seq=entry.seq,
                request_id=entry.request.request_id,
                lane=entry.lane,
                arrival_time=entry.request.arrival_time,
                deadline=deadline,
                shed_time=now,
                shard=shard,
            ))
        else:
            kept.append(entry)
    return kept, shed


# -------------------------------------------------------------------- #
# the supervised shard child
# -------------------------------------------------------------------- #
@dataclass(frozen=True)
class SupervisedShardTask:
    """Everything a supervised shard process needs (picklable)."""

    lane: str
    shard: int
    spec: PipelineSpec
    capacity: int
    #: the child end of this shard's duplex pipe to the parent.
    conn: object
    #: the lane's ``{seq: ClipRequest}`` table; a dispatch sends the seq.
    requests: Mapping[int, object]
    #: this shard's slice of the fault plan, on its post-release clock.
    faults: Tuple[FaultEvent, ...] = ()
    beat_interval: float = 0.05
    #: prefix-service knobs (each process owns an independent cache;
    #: counters come home in the shard's tail message).
    prefix_coalesce: bool = True
    prefix_cache_mb: float = 0.0


@single_blas_thread()
def _run_supervised_shard(task: SupervisedShardTask) -> None:
    """Shard main: build, sync clocks, then admit/step/ack until retired.

    Runs its whole life on one BLAS thread, like every runtime step.
    Builds its own :class:`~repro.runtime.serving.LaneWorker` (network
    and plan compile stay out of latency accounting), reports ready,
    and blocks for the parent's ``("go", t0)`` — its clock base is set
    so readings land on the parent's timeline (``CLOCK_MONOTONIC`` is
    system-wide, so this holds up to message skew; a respawned shard
    gets the parent's *current* time and joins the same timeline).
    Every completed request is acknowledged with its full
    :class:`~repro.runtime.serving.RequestRecord`; injected faults fire
    against the shard's own clock: ``kill`` is ``os._exit`` (a real
    crash — no cleanup, no goodbyes), ``stall`` a literal sleep with
    heartbeats suppressed, ``drop_ack`` a swallowed acknowledgement.
    An idle shard sleeps in ``poll`` until a message arrives or its
    next heartbeat (or injected fault) is due.
    """
    from collections import deque

    from .serving import LaneWorker, _finalize_step

    conn = task.conn
    worker = LaneWorker(
        task.lane, task.spec, task.capacity, shard=task.shard,
        prefix_coalesce=task.prefix_coalesce,
        prefix_cache_mb=task.prefix_cache_mb,
    )
    conn.send(("ready",))
    go = conn.recv()  # parent always answers with go or a sentinel
    if go is None:
        conn.send(("done", {}))
        return
    start = time.perf_counter() - float(go[1])

    def now() -> float:
        return time.perf_counter() - start

    kills = deque(e for e in task.faults if e.kind == "kill")
    stalls = deque(e for e in task.faults if e.kind == "stall")
    drops = deque(e for e in task.faults if e.kind == "drop_ack")

    done: Dict[int, object] = {}
    busy = 0.0
    idle = 0.0
    steps = 0
    mean_step = 1e-3
    last_beat = -math.inf
    draining = False

    def receive() -> None:
        nonlocal start, draining
        item = conn.recv()
        if item is None:
            draining = True
        elif isinstance(item, tuple):  # ("skip", dt): the clock leaps
            start -= float(item[1])
        else:
            worker.admit(item, task.requests[item], now())

    while True:
        current = now()
        while stalls and stalls[0].at <= current:
            event = stalls.popleft()
            time.sleep(
                event.seconds if event.seconds > 0
                else event.steps * mean_step
            )
            current = now()
        if kills and kills[0].at <= current:
            os._exit(23)  # injected crash: no cleanup, no final ack
        if current - last_beat >= task.beat_interval:
            conn.send(("beat",))
            last_beat = current
        while not draining and worker.has_free_slot() and conn.poll():
            receive()
        if worker.has_active():
            step_start = time.perf_counter()
            finished = worker.step()
            duration = time.perf_counter() - step_start
            busy += duration
            mean_step = duration
            steps += 1
            _finalize_step(worker, finished, now(), done)
            for resident in finished:
                record = done.pop(resident.seq)
                if drops and drops[0].at <= now():
                    drops.popleft()  # the ack is lost; the work was not
                else:
                    conn.send(("ack", resident.seq, record))
        elif draining:
            break
        else:
            # Idle: sleep on the pipe until the next heartbeat or
            # injected fault is due.
            wake = last_beat + task.beat_interval
            if kills:
                wake = min(wake, kills[0].at)
            if stalls:
                wake = min(wake, stalls[0].at)
            wait_start = time.perf_counter()
            arrived = conn.poll(max(0.0, wake - now()))
            idle += time.perf_counter() - wait_start
            if arrived:
                receive()
    prefix = worker.prefix_service.stats
    conn.send(("done", {
        "wall": busy,
        "idle": idle,
        "steps": steps,
        "prefix_fused": prefix.fused_batches,
        "prefix_hits": prefix.hits,
        "prefix_misses": prefix.misses,
        "prefix_evictions": prefix.evictions,
        "prefix_saved_macs": prefix.saved_macs,
    }))


# -------------------------------------------------------------------- #
# the parent-side supervisor
# -------------------------------------------------------------------- #
@dataclass
class SupervisionResult:
    """What a supervised serve produced, for report aggregation."""

    outcomes: List[object]  # List[serving._ShardOutcome]
    shed: List[ShedRecord]
    failover_events: List[FailoverEvent]
    retries: int
    failovers: int
    respawns: int
    #: autoscaling decisions that changed a lane's shard count (empty
    #: without an autoscaler).
    scale_events: List[object] = field(default_factory=list)


@dataclass
class _ShardState:
    """Parent-side view of one supervised shard process."""

    lane: str
    shard: int
    process: object
    #: the parent end of this shard's duplex pipe.
    conn: object
    ready: bool = False
    released: bool = False
    alive: bool = True
    done: bool = False
    #: retire sentinel sent (by the autoscaler, or at the end of the
    #: serve): finishing residents, admits nothing new, retires when
    #: empty.
    draining: bool = False
    #: last sign of life, on the REAL clock (``time.perf_counter()``) —
    #: virtual-time jumps must never read as heartbeat silence.
    last_beat: float = 0.0
    tail: Optional[dict] = None
    in_flight: Dict[int, _PendingEntry] = field(default_factory=dict)
    records: Dict[int, object] = field(default_factory=dict)


def _wait_shards(states: Sequence[_ShardState],
                 timeout: float) -> List[_ShardState]:
    """Block until a shard's pipe is readable or its process exits.

    Returns the shards that woke (pipe data, end-of-file, or process
    sentinel), in ``states`` order; an empty list once ``timeout``
    seconds pass with no event.
    """
    from multiprocessing.connection import wait

    handles = [s.conn for s in states] + [s.process.sentinel for s in states]
    woke = set(wait(handles, timeout))
    return [
        s for s in states if s.conn in woke or s.process.sentinel in woke
    ]


class ShardSupervisor:
    """Supervised shared-admission serving over real shard processes.

    The parent is dispatcher and failure detector in one loop: it
    releases requests at their arrival times, dispatches them
    earliest-deadline-first to the lane shard with the most free
    capacity (credit = ``capacity`` minus unacknowledged dispatches),
    sheds whatever expires while queued, and watches each shard's
    process liveness and heartbeats.  A dead or silent shard's
    unacknowledged requests go back into the backlog — their eventual
    records are flagged ``"failover"`` — and, when the lane would
    otherwise be shardless, a replacement is spawned (bounded by
    ``max_respawns``).  An unacknowledged request on a *live* shard is
    retried after ``ack_timeout`` (the drop-ack case); duplicate acks
    are idempotent because re-execution is bit-identical.  Total loss —
    a lane with work but no shards and no respawn budget — terminates
    everything and raises
    :class:`~repro.runtime.scheduler.ShardCrashError`; a run never
    hangs (``drain_timeout`` bounds any no-progress stretch).  Between
    events the parent sleeps in ``multiprocessing.connection.wait`` on
    every shard's pipe and process sentinel, until the nearest timed
    event (arrival, deadline, ack or heartbeat timeout, autoscale
    cadence), at most ``beat_interval``.
    """

    def __init__(
        self,
        specs: Mapping[str, PipelineSpec],
        capacity: int,
        config: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        virtual_time: bool = False,
        autoscaler: Optional[object] = None,
        prefix_coalesce: bool = True,
        prefix_cache_mb: float = 0.0,
    ):
        self.specs = dict(specs)
        self.capacity = capacity
        self.config = config or SupervisorConfig()
        self.plan = fault_plan or FaultPlan()
        #: prefix-service knobs forwarded to every shard process.
        self.prefix_coalesce = bool(prefix_coalesce)
        self.prefix_cache_mb = float(prefix_cache_mb)
        #: release arrivals by logical timestamps: idle gaps are jumped
        #: (a ``("skip", dt)`` broadcast) instead of slept.
        self.virtual_time = bool(virtual_time)
        #: a :class:`~repro.runtime.frontdoor.Autoscaler`; when set, the
        #: supervisor grows lanes through its spawn machinery and
        #: shrinks them by draining idle shards (not charged against
        #: ``max_respawns`` — scaling is not failure recovery).
        self.autoscaler = autoscaler

    # ---------------------------------------------------------------- #
    def serve(
        self,
        per_lane: Mapping[str, Sequence[Tuple[int, object]]],
        lane_shards: Mapping[str, int],
    ) -> SupervisionResult:
        import multiprocessing

        # Every shard of a lane carries the lane's request table, so a
        # dispatch only names a seq.
        tables = {lane: dict(items) for lane, items in per_lane.items()}
        shards: List[_ShardState] = []
        try:
            def spawn(lane: str, shard: int) -> _ShardState:
                conn, child_conn = multiprocessing.Pipe()
                task = SupervisedShardTask(
                    lane=lane,
                    shard=shard,
                    spec=self.specs[lane],
                    capacity=self.capacity,
                    conn=child_conn,
                    requests=tables[lane],
                    faults=self.plan.for_shard(lane, shard),
                    beat_interval=self.config.beat_interval,
                    prefix_coalesce=self.prefix_coalesce,
                    prefix_cache_mb=self.prefix_cache_mb,
                )
                process = multiprocessing.Process(
                    target=_run_supervised_shard, args=(task,), daemon=True,
                    name=f"shard {lane}/{shard}",
                )
                process.start()
                # Only the child holds its end now: end-of-file on
                # ``conn`` means the shard is gone.
                child_conn.close()
                state = _ShardState(lane, shard, process, conn)
                shards.append(state)
                return state

            for lane, count in lane_shards.items():
                for shard in range(count):
                    spawn(lane, shard)
            return self._serve_loop(per_lane, lane_shards, spawn, shards)
        finally:
            for state in shards:
                if state.process.is_alive():
                    state.process.terminate()
            for state in shards:
                state.process.join(timeout=5)
                state.conn.close()

    # ---------------------------------------------------------------- #
    def _serve_loop(self, per_lane, lane_shards, spawn, shards):
        config = self.config
        ack_timeout = config.resolved_ack_timeout

        # Build before release: wait until every shard reports ready so
        # no shard's records carry a sibling's build time.  A shard that
        # dies *building* is a systemic failure (its siblings share the
        # spec), surfaced immediately rather than supervised around.
        build_deadline = time.perf_counter() + 300
        while any(not s.ready for s in shards):
            building = [s for s in shards if not s.ready]
            remaining = build_deadline - time.perf_counter()
            if remaining <= 0:
                raise ShardCrashError(
                    "supervised shards failed to report ready within 300s"
                )
            for state in _wait_shards(building, remaining):
                try:
                    # "ready" is the only message a shard sends unreleased.
                    state.ready = (state.conn.poll()
                                   and state.conn.recv() == ("ready",))
                except (EOFError, ConnectionError):
                    state.ready = False
                if not state.ready:
                    state.process.join(timeout=5)
                    raise ShardCrashError(
                        f"shard {state.lane}/{state.shard} died while "
                        f"building (exit code {state.process.exitcode}); "
                        f"nothing was dispatched",
                    )

        base = time.perf_counter()
        offset = 0.0  # virtual seconds jumped over idle gaps

        def now() -> float:
            return time.perf_counter() - base + offset

        pending: List[_PendingEntry] = [
            _PendingEntry(seq=seq, request=request, lane=lane,
                          available=request.arrival_time)
            for lane, items in per_lane.items()
            for seq, request in items
        ]
        resolved: Dict[int, object] = {}
        shed: List[ShedRecord] = []
        failover_events: List[FailoverEvent] = []
        counters = {"retries": 0, "failovers": 0, "respawns": 0}
        next_shard = dict(lane_shards)
        last_progress = now()
        last_observe = 0.0  # real-clock autoscale observation throttle

        def fail_shard(state: _ShardState, reason: str) -> None:
            if not state.alive:
                return
            state.alive = False
            if state.process.is_alive():
                state.process.terminate()
            detect = now()
            seqs = tuple(sorted(state.in_flight))
            for seq in seqs:
                entry = state.in_flight.pop(seq)
                entry.attempts += 1
                entry.outcome = "failover"
                entry.available = detect
                pending.append(entry)
            counters["failovers"] += len(seqs)
            lane_live = [
                s for s in shards
                if s.lane == state.lane and s.alive and not s.done
                and not s.draining
            ]
            lane_work = seqs or any(
                e.lane == state.lane for e in pending
            ) or any(
                s.lane == state.lane and s.in_flight for s in shards
            )
            respawned = False
            if (not lane_live and lane_work
                    and counters["respawns"] < config.max_respawns):
                spawn(state.lane, next_shard[state.lane])
                next_shard[state.lane] += 1
                counters["respawns"] += 1
                respawned = True  # released when its "ready" arrives
            failover_events.append(FailoverEvent(
                lane=state.lane, shard=state.shard, time=detect,
                reason=reason, seqs=seqs, respawned=respawned,
            ))

        def send(state: _ShardState, message) -> bool:
            """Send one message; a dead shard's broken pipe is its crash."""
            try:
                state.conn.send(message)
            except ConnectionError:
                fail_shard(state, "crash")
                return False
            return True

        def release(state: _ShardState) -> None:
            if send(state, ("go", now())):
                state.released = True
                state.last_beat = time.perf_counter()

        def handle(state: _ShardState, message) -> bool:
            """Apply one child message; True if it was progress."""
            kind = message[0]
            if kind == "beat":
                state.last_beat = time.perf_counter()
                return False
            if kind == "ready":  # a respawned or scaled-up shard came up
                state.ready = True
                if not state.draining:
                    release(state)
                return True
            if kind == "ack":
                _, seq, record = message
                state.last_beat = time.perf_counter()
                if seq in resolved:
                    return False  # duplicate of a retried request
                entry = state.in_flight.pop(seq, None)
                if entry is None:
                    # The request was retried elsewhere after an ack
                    # timeout, but the original attempt finished after
                    # all; results are bit-identical, so first ack wins.
                    entry = self._retract(pending, shards, seq)
                record.outcome = entry.outcome if entry else "served"
                record.attempts = entry.attempts if entry else 1
                resolved[seq] = record
                state.records[seq] = record
                return True
            if kind == "done":
                state.done = True
                state.tail = message[1]
                return True
            return False

        def receive(state: _ShardState) -> None:
            """Apply everything waiting on a woken shard's pipe; its
            end-of-file or process exit before "done" is a crash."""
            nonlocal last_progress
            try:
                while state.alive and not state.done and state.conn.poll():
                    if handle(state, state.conn.recv()):
                        last_progress = now()
            except (EOFError, ConnectionError):
                gone = True
            else:
                gone = not state.process.is_alive()
            if gone and state.alive and not state.done:
                fail_shard(state, "crash")
                last_progress = now()

        def next_wake() -> float:
            """Seconds to the nearest timed event, capped at the beat."""
            current = now()
            real = time.perf_counter()
            wake = config.beat_interval
            for entry in pending:
                if entry.available > current:  # due-but-blocked waits
                    wake = min(wake, entry.available - current)
                deadline = getattr(entry.request, "deadline", None)
                if deadline is not None:
                    wake = min(wake, deadline - current)
            for state in shards:
                if not state.alive or state.done:
                    continue
                for entry in state.in_flight.values():
                    wake = min(wake, entry.dispatch_time + ack_timeout - current)
                if state.released:
                    wake = min(
                        wake,
                        state.last_beat + config.heartbeat_timeout - real,
                    )
            if self.autoscaler is not None:
                wake = min(wake, last_observe + config.beat_interval - real)
            return max(wake, 0.0)

        for state in list(shards):
            release(state)

        # ---------------- the dispatch/monitor loop ---------------- #
        while pending or any(s.in_flight for s in shards):
            watched = [s for s in shards if s.alive and not s.done]
            for state in _wait_shards(watched, next_wake()):
                receive(state)
            current = now()
            pending, newly_shed = _shed_expired(pending, current)
            if newly_shed:
                shed.extend(newly_shed)
                last_progress = current
            # Retry unacknowledged dispatches on shards that still look
            # alive — the ack (not the shard) may be what was lost.
            for state in shards:
                if not state.alive:
                    continue
                for seq in [
                    s for s, e in state.in_flight.items()
                    if current - e.dispatch_time > ack_timeout
                ]:
                    entry = state.in_flight.pop(seq)
                    entry.attempts += 1
                    entry.outcome = "retried"
                    entry.available = current
                    pending.append(entry)
                    counters["retries"] += 1
                    last_progress = current
            # Liveness: heartbeat silence on a released shard is a
            # stall, failed over exactly like a crash (which the wait
            # above already caught as end-of-file or process exit).
            for state in list(shards):
                if (state.alive and not state.done and state.released
                        and time.perf_counter() - state.last_beat
                        > config.heartbeat_timeout):
                    # Real-clock silence: virtual jumps never trip this.
                    fail_shard(state, "stall")
                    last_progress = now()
            # Autoscale: observe each lane's due backlog and deadline
            # slack on the real beat cadence.  Growth reuses the spawn
            # machinery without charging the respawn budget; shrink
            # marks the emptiest shard draining and sends its sentinel
            # — the FIFO pipe guarantees earlier dispatches are served
            # and acked before the child retires.
            if (self.autoscaler is not None
                    and time.perf_counter() - last_observe
                    >= config.beat_interval):
                last_observe = time.perf_counter()
                current = now()
                for lane in sorted(self.specs):
                    live = [
                        s for s in shards
                        if s.lane == lane and s.alive and not s.done
                        and not s.draining
                    ]
                    due = [
                        e for e in pending
                        if e.lane == lane and e.available <= current
                    ]
                    slack = min(
                        (getattr(e.request, "deadline", None) - current
                         for e in due
                         if getattr(e.request, "deadline", None) is not None),
                        default=None,
                    )
                    target = self.autoscaler.observe(
                        lane, len(live), len(due), current,
                        deadline_slack=slack,
                    )
                    if target > len(live):
                        for _ in range(target - len(live)):
                            spawn(lane, next_shard[lane])
                            next_shard[lane] += 1
                    elif target < len(live):
                        victims = [s for s in live if s.released]
                        for _ in range(len(live) - target):
                            if not victims:
                                break
                            victim = min(
                                victims,
                                key=lambda s: (len(s.in_flight), -s.shard),
                            )
                            victims.remove(victim)
                            victim.draining = True
                            send(victim, None)
            # A lane with work but no shards left: explicit total loss.
            # An autoscaled fleet self-heals instead — the policy clamp
            # restores the lane to min_shards on the next observation,
            # with drain_timeout as the backstop.
            lanes_with_work = {e.lane for e in pending} | {
                s.lane for s in shards if s.in_flight
            }
            for lane in sorted(lanes_with_work):
                if self.autoscaler is not None:
                    break
                if not any(
                    s.lane == lane and s.alive and not s.done for s in shards
                ):
                    lost = sorted(
                        e.seq for e in pending if e.lane == lane
                    )
                    raise ShardCrashError(
                        f"lane {lane!r} lost every shard with "
                        f"{len(lost)} request(s) unresolved (seqs {lost}) "
                        f"and no respawn budget left "
                        f"(max_respawns={config.max_respawns})",
                        lost=lost,
                    )
            # Virtual-time admission: with zero dispatches in flight
            # anywhere and only future arrivals pending, jump the
            # logical clock to the next arrival and broadcast the same
            # gap to every released shard instead of sleeping it out.
            if (self.virtual_time and pending
                    and not any(s.in_flight for s in shards)):
                earliest = min(e.available for e in pending)
                if earliest > now():
                    delta = earliest - now()
                    offset += delta
                    for state in list(shards):
                        if state.alive and state.released and not state.done:
                            send(state, ("skip", delta))
                    last_progress = now()
            # Dispatch: deadline order, to the emptiest shard (credit =
            # capacity minus unacknowledged dispatches on that shard).
            current = now()
            due = sorted(
                (e for e in pending if e.available <= current),
                key=_edf_key,
            )
            for entry in due:
                candidates = [
                    s for s in shards
                    if s.lane == entry.lane and s.alive and s.released
                    and not s.done and not s.draining
                    and len(s.in_flight) < self.capacity
                ]
                if not candidates:
                    continue
                target = min(
                    candidates, key=lambda s: (len(s.in_flight), s.shard)
                )
                if not send(target, entry.seq):
                    continue  # stays pending; the shard was failed over
                pending.remove(entry)
                entry.dispatch_time = current
                target.in_flight[entry.seq] = entry
                last_progress = current
            if now() - last_progress > config.drain_timeout:
                unresolved = sorted(
                    [e.seq for e in pending]
                    + [s2 for s in shards for s2 in s.in_flight]
                )
                raise ShardCrashError(
                    f"supervised serve made no progress for "
                    f"{config.drain_timeout:.0f}s with seqs {unresolved} "
                    f"unresolved; aborting instead of hanging",
                    lost=unresolved,
                )

        # Retire: sentinel every live shard, collect their tails.  A
        # shard that died after its last ack is a crash with nothing to
        # re-dispatch, whether the sentinel's send or the wait finds it.
        for state in list(shards):
            if state.alive and not state.done:
                state.draining = True
                send(state, None)
        drain_deadline = time.perf_counter() + min(config.drain_timeout, 60)
        while True:
            watched = [s for s in shards if s.alive and not s.done]
            remaining = drain_deadline - time.perf_counter()
            if not watched or remaining <= 0:
                break
            for state in _wait_shards(watched, remaining):
                receive(state)

        from .serving import _ShardOutcome

        outcomes = []
        for state in shards:
            tail = state.tail or {}
            outcomes.append(_ShardOutcome(
                lane=state.lane,
                shard=state.shard,
                records=state.records,
                wall_seconds=tail.get("wall", 0.0),
                idle_seconds=tail.get("idle", 0.0),
                steps=tail.get("steps", 0),
                prefix_fused_batches=tail.get("prefix_fused", 0),
                prefix_cache_hits=tail.get("prefix_hits", 0),
                prefix_cache_misses=tail.get("prefix_misses", 0),
                prefix_cache_evictions=tail.get("prefix_evictions", 0),
                prefix_saved_macs=tail.get("prefix_saved_macs", 0),
            ))
        return SupervisionResult(
            outcomes=outcomes,
            shed=shed,
            failover_events=failover_events,
            retries=counters["retries"],
            failovers=counters["failovers"],
            respawns=counters["respawns"],
            scale_events=list(
                self.autoscaler.events
            ) if self.autoscaler is not None else [],
        )

    # ---------------------------------------------------------------- #
    @staticmethod
    def _retract(pending: List[_PendingEntry], shards: List[_ShardState],
                 seq: int) -> Optional[_PendingEntry]:
        """Pull a retried seq back out of wherever it waits now."""
        for entry in pending:
            if entry.seq == seq:
                pending.remove(entry)
                return entry
        for state in shards:
            if seq in state.in_flight:
                return state.in_flight.pop(seq)
        return None
