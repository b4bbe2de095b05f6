"""Streaming serving — a routing front end over sharded lane workers.

The serving layer is split along the line a deployment would draw:

* :class:`Router` — the front end.  Owns the lane registry (one
  :class:`~repro.runtime.spec.PipelineSpec` per lane), buckets incoming
  requests into shape-compatible lanes (by frame shape, or lane name
  when shapes are ambiguous), and rejects unrouteable traffic with a
  :class:`LaneRoutingError` that names every registered lane.  Pure
  bookkeeping — it never touches an executor.
* :class:`LaneWorker` — the back end.  One *shard* of one lane: warm
  executor slots, the lane's compiled inference plan, and the admission
  queue, all driving the declared stage graph
  (:func:`~repro.runtime.stage_graph.frame_lifecycle_graph`) one step at
  a time through a :class:`~repro.runtime.stage_graph.StageExecutor`.
  A worker runs in-process, or — because its execution state is the
  picklable :class:`~repro.core.stages.LaneState` recipe away from a
  spec — inside a worker process, where it builds **its own** network
  and plan (plan-per-worker ownership: live plans never cross a process
  boundary; see :meth:`~repro.nn.network.Network.__getstate__`).
* :class:`ServingRuntime` — the facade that composes them.
  ``serve_workers=1`` (default) runs every lane's worker in-process
  under one virtual clock — the continuous-batching behaviour of PR 3,
  bit-identical and within its throughput envelope.  ``serve_workers=N``
  shards lanes across a process pool: each lane gets
  ``ceil(N / num_lanes)`` shards.  ``admission="static"`` splits each
  lane's requests round-robin in arrival order and every shard serves
  its slice independently; ``admission="shared"`` keeps one admission
  queue per lane that all of the lane's shards pull from, so an idle
  shard *steals* the next pending request — the tail-latency fix for
  skewed traffic.

Continuous batching semantics are unchanged from PR 3: requests wait in
per-lane FIFO queues and join the running batch at step boundaries; a
clip's slot is released the moment its last frame is served and the next
queued request takes it over; any occupancy up to capacity runs against
the same compiled plan geometry.  The correctness contract is also
unchanged — and is what makes sharding safe: every served clip's
outputs, key-frame decisions, and op counts are bit-identical to running
that clip alone through the serial pipeline, regardless of which
batch-mates (or which shard) shared its steps.

Time is virtual per serve loop: arrivals are honoured against a
monotonic clock, idle stretches with no arrival due are skipped rather
than slept, and ``wall_seconds`` counts busy time only.  A sharded
report aggregates under the concurrent-deployment model — shards run
side by side, so the aggregate busy/idle time is the *slowest shard's*
and throughput divides total frames by it; with the process backend on
enough cores that is also the elapsed time you observe.

Failure domains (see :mod:`repro.runtime.supervision` and
ARCHITECTURE.md): requests may carry a ``deadline`` — queued past it
they are *shed* with an explicit
:class:`~repro.runtime.supervision.ShedRecord`, and admission among
waiting requests is earliest-deadline-first on every path.  The
shared-admission backends are additionally *supervised*: the process
backend runs under a
:class:`~repro.runtime.supervision.ShardSupervisor` (heartbeats, acks,
failover, bounded respawn), the inline DES loop simulates the same
supervisor against virtual clocks, and both honour a deterministic
:class:`~repro.runtime.supervision.FaultPlan` for chaos testing.
Failed-over work re-executes bit-identically — the serving contract
makes recovery exactly replayable.

Traffic enters through the *front door*
(:mod:`repro.runtime.frontdoor`): ``serve()`` accepts any
:class:`~repro.runtime.frontdoor.RequestSource` (a list is one adapter),
ingestion is bounded by queue-depth watermarks
(:class:`~repro.runtime.frontdoor.BackpressureError` on the push side),
an :class:`~repro.runtime.frontdoor.AutoscalePolicy` can grow and
shrink a lane's shard pool from observed queue depth and deadline
slack, and configuration lives in one validated
:class:`~repro.runtime.frontdoor.ServerConfig`.  ``serve()`` dispatches on a
resolved :class:`~repro.runtime.frontdoor.Backend` — in-process loop,
static shards, or shared admission — instead of branching inline.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.pipeline import FrameRecord, PipelineResult
from ..core.stages import LaneSlot, LaneState, PlanHandle, StepBatch
from ..hardware.fixed_point import QuantSavings
from ..nn.inference import (
    quantized_savings,
    resolve_plan_dtype,
)
from ..video.generator import VideoClip
from .batched import WorkloadResult
from .frontdoor import (
    Autoscaler,
    Backend,
    FrontDoor,
    ListSource,
    RequestSource,
    ScaleEvent,
    ServerConfig,
    as_request_source,
)
from .prefix_service import PrefixService, PrefixStats
from .scheduler import ShardCrashError, deal_shard_budget, single_blas_thread
from .spec import PipelineSpec
from .stage_graph import StageExecutor, frame_lifecycle_graph
from .supervision import (
    FailoverEvent,
    FaultPlan,
    ShardSupervisor,
    ShedRecord,
    SupervisorConfig,
    _edf_key,
    _PendingEntry,
    _shed_expired,
)

__all__ = [
    "ClipRequest",
    "RequestRecord",
    "ServingReport",
    "ServingRuntime",
    "ServerConfig",
    "Backend",
    "Router",
    "LaneWorker",
    "LaneRoutingError",
    "DuplicateRequestError",
    "ShardInfo",
]

#: latency percentiles the report surfaces (tails matter under load).
PERCENTILES = (50, 95, 99)


class LaneRoutingError(KeyError, ValueError):
    """A request could not be routed to any registered lane.

    Subclasses both :class:`KeyError` (unknown lane names are lookup
    failures) and :class:`ValueError` (shape mismatches are value
    failures), so existing callers catching either keep working; the
    message always names every registered lane and its frame shape.
    """

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0] if self.args else ""


class DuplicateRequestError(ValueError):
    """Two submitted requests share one ``request_id``.

    Records are keyed by request id downstream (verification, shed
    bookkeeping, failover re-dispatch), so aliased ids would silently
    merge two requests' accounting; the serve refuses up front and the
    message names both offending submission positions.
    """


@dataclass(frozen=True)
class ClipRequest:
    """One clip submitted to the serving runtime."""

    request_id: object
    clip: VideoClip
    #: when the request becomes visible to the server, in seconds on the
    #: runtime's (virtual) clock.
    arrival_time: float = 0.0
    #: explicit lane name; None routes by frame shape.
    lane: Optional[str] = None
    #: absolute time (same clock as ``arrival_time``) by which the
    #: first output must exist.  None = no deadline.  A request still
    #: queued when its deadline passes is *shed* — dropped with an
    #: explicit :class:`~repro.runtime.supervision.ShedRecord` outcome
    #: rather than served late; admission among waiting requests is
    #: earliest-deadline-first.
    deadline: Optional[float] = None

    def __post_init__(self):
        if len(self.clip) < 1:
            raise ValueError(f"request {self.request_id!r} has an empty clip")
        if self.arrival_time < 0:
            raise ValueError(
                f"arrival_time must be >= 0, got {self.arrival_time}"
            )
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ValueError(
                f"request {self.request_id!r} deadline ({self.deadline}) "
                f"must be after its arrival ({self.arrival_time})"
            )


@dataclass
class RequestRecord:
    """Full accounting for one served request."""

    request_id: object
    lane: str
    arrival_time: float
    #: when the clip joined the running batch (a step boundary).
    admit_time: float
    #: when its first frame's output existed.
    first_output_time: float
    #: when its last frame's output existed and the slot was released.
    finish_time: float
    result: PipelineResult
    #: which shard of the lane served it (0 when unsharded).
    shard: int = 0
    #: how the request reached completion: "served" (first dispatch
    #: succeeded), "failover" (re-dispatched after its shard died), or
    #: "retried" (re-dispatched after an acknowledgement was lost).
    #: Results are bit-identical in every case — the label is purely
    #: provenance.
    outcome: str = "served"
    #: dispatch attempts (1 = no recovery was needed).
    attempts: int = 1
    #: the request's deadline, copied for accounting (None = none).
    deadline: Optional[float] = None

    @property
    def num_frames(self) -> int:
        return len(self.result)

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the first output beat the deadline (None = no deadline).

        Admitted requests always run to completion, so a recovered
        (failover/retried) request can finish past its deadline — that
        shows up here, never as a silent drop.
        """
        if self.deadline is None:
            return None
        return self.first_output_time <= self.deadline

    @property
    def enqueue_latency(self) -> float:
        """Seconds spent queued before joining the batch."""
        return self.admit_time - self.arrival_time

    @property
    def time_to_first_frame(self) -> float:
        """Seconds from arrival to the first served output."""
        return self.first_output_time - self.arrival_time

    @property
    def service_seconds(self) -> float:
        return self.finish_time - self.admit_time

    @property
    def frames_per_second(self) -> float:
        """This clip's service rate while resident in the batch."""
        return (
            self.num_frames / self.service_seconds
            if self.service_seconds > 0
            else 0.0
        )


@dataclass
class ShardInfo:
    """What one lane shard did during a sharded serve."""

    lane: str
    shard: int
    requests: int
    frames: int
    #: busy seconds of this shard's serve loop (its own clock).
    wall_seconds: float
    idle_seconds: float
    steps: int
    #: fused prefix batches this shard's service executed (0 when the
    #: shard ran without a prefix service or nothing coincided).
    prefix_fused_batches: int = 0
    #: prefix-cache hits / misses / evictions on this shard's service.
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_cache_evictions: int = 0
    #: prefix MACs the cache hits avoided.
    prefix_saved_macs: int = 0

    @property
    def frames_per_second(self) -> float:
        """Frames per busy second of this shard: a busy-time *model*.

        Idle time, set-up and transport are excluded, so it reads well
        above the frames per wall-clock second a client sees; measure
        wall-clock throughput (``perfbench/run.py``) for that.
        """
        return self.frames / self.wall_seconds if self.wall_seconds else 0.0


@dataclass
class ServingReport:
    """What one serving run did, per request and in aggregate."""

    #: per-request accounting, in submission order.
    records: List[RequestRecord]
    #: busy wall-clock seconds (idle gaps with no arrival due are skipped,
    #: not counted).  For a sharded run this is the slowest shard's busy
    #: time — shards run concurrently, so it is the aggregate's divisor.
    wall_seconds: float
    #: virtual seconds skipped while idle (slowest shard's, when sharded).
    idle_seconds: float
    #: lockstep steps executed across all lanes and shards.
    steps: int
    #: per-lane slot capacity the runtime was configured with.
    max_batch: int
    #: worker processes the run was sharded over (1 = in-process).
    serve_workers: int = 1
    #: per-shard accounting (empty for in-process runs).
    shards: List[ShardInfo] = field(default_factory=list)
    #: how sharded requests were assigned: "static" round-robin slices
    #: or a "shared" per-lane admission queue (work stealing).
    admission: str = "static"
    #: requests dropped because their deadline passed while queued —
    #: explicit rejections, never silent.  ``records`` holds completed
    #: requests only; every submission is exactly one of the two.
    shed: List[ShedRecord] = field(default_factory=list)
    #: re-dispatches after a lost acknowledgement (the work may have
    #: run; only the ack vanished).
    retries: int = 0
    #: requests re-dispatched because their shard crashed or stalled.
    failovers: int = 0
    #: replacement shards spawned after failures.
    respawns: int = 0
    #: every detected shard failure, in detection order.
    failover_events: List[FailoverEvent] = field(default_factory=list)
    #: every autoscaling decision that changed a lane's shard count,
    #: in decision order (empty without an autoscale policy).
    scale_events: List[ScaleEvent] = field(default_factory=list)
    #: ingestion pauses: excursions past the front door's ``max_pending``
    #: watermark (0 = unbounded or never reached).
    backpressure_pauses: int = 0
    #: fused ``run_prefix`` batches: coincident key frames from more
    #: than one lane/shard executed as one plan call (0 with the prefix
    #: service off or nothing coinciding).
    prefix_fused_batches: int = 0
    #: content-addressed prefix-cache hits / misses / evictions
    #: (0/0/0 with ``prefix_cache_mb=0``).
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_cache_evictions: int = 0
    #: prefix MACs the cache hits avoided recomputing.
    prefix_saved_macs: int = 0
    #: plan family each lane ran under, by lane name ("float64",
    #: "float32", "int8", "q16") — lanes can mix dtypes.
    lane_dtypes: Dict[str, str] = field(default_factory=dict)
    #: estimated MAC-energy / traffic savings per *quantized* lane
    #: (float lanes are absent — there is nothing to compare).
    lane_quant_savings: Dict[str, QuantSavings] = field(default_factory=dict)

    @property
    def num_requests(self) -> int:
        return len(self.records)

    @property
    def num_shed(self) -> int:
        return len(self.shed)

    def outcome_counts(self) -> Dict[str, int]:
        """Completed-request outcomes plus the shed count, by label."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        if self.shed:
            counts["shed"] = len(self.shed)
        return counts

    @property
    def total_frames(self) -> int:
        return sum(record.num_frames for record in self.records)

    @property
    def frames_per_second(self) -> float:
        """Steady-state throughput: frames served per busy second.

        Sharded runs divide by the slowest shard's busy time, so for
        them this is a *model* of concurrent deployment, not a
        measurement: it leaves out idle time, shard start-up, transport
        and cores shared between shards, and under bursty, partial load
        it reads several times above the measured wall-clock f/s.
        Measure wall-clock throughput (``perfbench/run.py``) for a
        speed claim.
        """
        return self.total_frames / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mean_occupancy(self) -> float:
        """Average clips resident per step (frames served per step)."""
        return self.total_frames / self.steps if self.steps else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-cache lookups answered from the cache."""
        lookups = self.prefix_cache_hits + self.prefix_cache_misses
        return self.prefix_cache_hits / lookups if lookups else 0.0

    def enqueue_latencies(self) -> np.ndarray:
        return np.array([record.enqueue_latency for record in self.records])

    def times_to_first_frame(self) -> np.ndarray:
        return np.array([record.time_to_first_frame for record in self.records])

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of enqueue latency and time-to-first-frame (s).

        Keys are ``enqueue_p50`` … ``ttff_p99``.  Means alone hide tail
        latency under load; these are what the CLI and the serving
        benchmark surface.

        A report with zero completed requests has no tails: the result
        is explicitly the **empty dict** (``np.percentile`` over empty
        samples would raise) — callers must treat a missing key as "no
        data", never as zero latency.
        """
        out: Dict[str, float] = {}
        if not self.records:
            return out
        series = {
            "enqueue": self.enqueue_latencies(),
            "ttff": self.times_to_first_frame(),
        }
        for prefix, values in series.items():
            for p in PERCENTILES:
                out[f"{prefix}_p{p}"] = float(np.percentile(values, p))
        return out

    def workload_result(self) -> WorkloadResult:
        """The per-clip results as a :class:`WorkloadResult`.

        Request order is submission order, so this compares directly
        (``matches``) against a serial/lockstep run of the same clips —
        sharded or not.  Shed requests have no result and are absent:
        with a nonempty ``shed`` list, compare per-record by request id
        against the serial run instead of positionally.
        """
        # dtype only carries over when every lane agrees on one — a
        # mixed deployment has no single workload-level answer.
        dtypes = set(self.lane_dtypes.values())
        shared = dtypes.pop() if len(dtypes) == 1 else "float64"
        return WorkloadResult(
            results=[record.result for record in self.records],
            wall_seconds=self.wall_seconds,
            path="serving",
            workers=self.serve_workers,
            prefix_fused_batches=self.prefix_fused_batches,
            prefix_cache_hits=self.prefix_cache_hits,
            prefix_cache_misses=self.prefix_cache_misses,
            prefix_cache_evictions=self.prefix_cache_evictions,
            prefix_saved_macs=self.prefix_saved_macs,
            dtype=shared,
            quant_savings=next(
                iter(self.lane_quant_savings.values()), None
            ) if len(self.lane_dtypes) == 1 else None,
        )

    def summary_rows(self) -> List[List[object]]:
        """Rows for the CLI / bench summary table."""
        rows: List[List[object]] = [
            ["path", "serving"],
            ["requests", self.num_requests],
            ["frames", self.total_frames],
            ["busy s", round(self.wall_seconds, 3)],
            ["idle s (skipped)", round(self.idle_seconds, 3)],
            ["frames/s", round(self.frames_per_second, 1)],
            ["steps", self.steps],
            ["mean occupancy", round(self.mean_occupancy, 2)],
            ["serve workers", self.serve_workers],
        ]
        if self.serve_workers > 1:
            rows.append(["admission", self.admission])
        for name in sorted(self.lane_dtypes):
            if self.lane_dtypes[name] == "float64":
                continue
            rows.append([f"lane {name} dtype", self.lane_dtypes[name]])
            savings = self.lane_quant_savings.get(name)
            if savings is not None:
                rows.append(
                    [
                        f"lane {name} est. MAC energy/traffic",
                        f"{savings.mac_energy_ratio:.2f}x / "
                        f"{savings.traffic_ratio:.2f}x",
                    ]
                )
        if self.shed or self.retries or self.failovers or self.respawns:
            rows.append(["shed", self.num_shed])
            rows.append(["retries", self.retries])
            rows.append(["failovers", self.failovers])
            rows.append(["respawns", self.respawns])
            recovered = sum(
                1 for record in self.records if record.outcome != "served"
            )
            rows.append(["recovered requests", recovered])
        missed = [
            record for record in self.records if record.met_deadline is False
        ]
        if missed:
            rows.append(["missed deadlines (served late)", len(missed)])
        if self.scale_events:
            peak = max(event.to_shards for event in self.scale_events)
            rows.append(["scale events", len(self.scale_events)])
            rows.append(["peak shards", peak])
        if self.backpressure_pauses:
            rows.append(["backpressure pauses", self.backpressure_pauses])
        if (self.prefix_fused_batches or self.prefix_cache_hits
                or self.prefix_cache_misses):
            rows.append(["prefix batches fused", self.prefix_fused_batches])
            rows.append(
                ["prefix cache hits/misses",
                 f"{self.prefix_cache_hits}/{self.prefix_cache_misses}"]
            )
            rows.append(["prefix hit rate", round(self.prefix_hit_rate, 3)])
            if self.prefix_cache_evictions:
                rows.append(
                    ["prefix cache evictions", self.prefix_cache_evictions]
                )
            if self.prefix_saved_macs:
                rows.append(
                    ["prefix MMACs saved",
                     round(self.prefix_saved_macs / 1e6, 1)]
                )
        for key, value in self.latency_percentiles().items():
            # rsplit: percentile keys are "<metric>_p<NN>" and a metric
            # name may itself contain underscores.
            prefix, pct = key.rsplit("_", 1)
            rows.append([f"{prefix} {pct} ms", round(value * 1e3, 2)])
        for shard in self.shards:
            rows.append(
                [
                    f"shard {shard.lane}/{shard.shard}",
                    f"{shard.requests} req, {shard.frames} frames, "
                    f"{round(shard.frames_per_second, 1)} f/s",
                ]
            )
        return rows


@dataclass
class _Resident:
    """Request bookkeeping for one occupied slot.

    Execution state (executor, policy, cursor) lives in the worker's
    :class:`~repro.core.stages.LaneState`; this is the serving-side
    record of who occupies the slot and when.
    """

    seq: int
    request: ClipRequest
    admit_time: float
    first_output_time: Optional[float] = None
    records: List[FrameRecord] = field(default_factory=list)


class LaneWorker:
    """One shard of one lane: slots, plan, queue, and the stage graph.

    Holds the lane's picklable execution state
    (:class:`~repro.core.stages.LaneState`: warm executor slots, plan
    handle, per-clip cursors) plus the serving bookkeeping (admission
    queue, per-slot residents), and advances everything one lifecycle
    step at a time by running the declared stage graph at the current
    occupancy.

    A worker is cheap to build from its spec, which is how the sharded
    path works: the parent ships ``(lane, spec, capacity, requests)`` to
    a worker process and the process builds its own worker — its own
    network, its own compiled plan.
    """

    def __init__(self, name: str, spec: PipelineSpec, capacity: int,
                 shard: int = 0, prefix_coalesce: bool = True,
                 prefix_cache_mb: float = 0.0):
        spec.require_planned("LaneWorker")
        self.name = name
        self.spec = spec
        self.capacity = capacity
        self.shard = shard
        #: the worker's prefix service (fused key-frame batches +
        #: content-addressed cache).  Built per worker here; runtime
        #: serve paths that share one service across workers — the
        #: in-process loop and the inline DES — overwrite the attribute
        #: with the shared instance before serving.
        self.prefix_service = PrefixService(
            coalesce=prefix_coalesce, cache_mb=prefix_cache_mb
        )
        network = spec.shared_network()
        self.frame_shape: Tuple[int, int] = tuple(network.input_shape[1:])
        # Slots hold warm executors for the worker's lifetime; admitted
        # clips borrow one and release it on departure.
        slots = []
        for _ in range(capacity):
            executor = spec.build_executor(network)
            executor.reset()
            slots.append(LaneSlot(executor=executor))
        plan_handle = PlanHandle(network, spec.dtype)
        plan_handle.resolve(capacity)  # compile at capacity up front
        self.state = LaneState(slots=slots, plan=plan_handle)
        self.graph = frame_lifecycle_graph()
        self.executor = StageExecutor(self.graph)
        #: the in-flight (positions, env) between ``begin_step`` and its
        #: ``finish_step``.
        self._round = None
        self.residents: List[Optional[_Resident]] = [None] * capacity
        self.queue: "deque[Tuple[int, ClipRequest]]" = deque()

    # -------------------------------------------------------------- #
    @property
    def plan(self):
        """The lane's live inference plan."""
        return self.state.plan.resolve()

    def has_free_slot(self) -> bool:
        return any(resident is None for resident in self.residents)

    def has_active(self) -> bool:
        return any(resident is not None for resident in self.residents)

    def active_residents(self) -> List[_Resident]:
        return [resident for resident in self.residents if resident is not None]

    def admit(self, seq: int, request: ClipRequest, now: float) -> None:
        """Seat ``request`` in a free slot, fresh-executor state."""
        index = self.residents.index(None)
        slot = self.state.slots[index]
        slot.executor.reset()  # identical start state to a fresh serial run
        slot.policy = self.spec.build_policy()
        slot.policy.reset()
        slot.cursor = 0
        self.residents[index] = _Resident(seq, request, now)

    def _build_batch(self, positions: List[int]) -> StepBatch:
        """The step batch at the slot cursors."""
        return StepBatch(
            state=self.state,
            positions=positions,
            frames=[
                self.residents[i].request.clip.frames[self.state.slots[i].cursor]
                for i in positions
            ],
            plan=self.state.plan.resolve(len(positions)),
            prefix_service=self.prefix_service,
        )

    def step(self) -> List[_Resident]:
        """Serve one frame of every resident clip; return departures.

        One pass of the stage executor at current occupancy: batched
        RFBME over the slots with a stored key, per-clip decisions at
        clip-local cursors, then the batched CNN stages.  Slots whose
        clip finished release their executor and free up for the next
        admission.
        """
        self.begin_step(register=False)
        return self.finish_step()

    def begin_step(self, register: bool = True) -> None:
        """Phase 1 of a serve round: RFBME + this step's decisions.

        Builds the step batch and runs the stage executor up to the
        coalescing barrier — so the step's key-frame decisions are
        final — and, with ``register=True``, registers
        the key rows with the worker's prefix service for the round's
        :meth:`~repro.runtime.prefix_service.PrefixService.flush`.  Must
        be paired with exactly one :meth:`finish_step`.
        """
        positions = [
            i for i, resident in enumerate(self.residents) if resident is not None
        ]
        batch = self._build_batch(positions)
        env = self.executor.begin_step(batch)
        self._round = (positions, env)
        if register and self.prefix_service is not None:
            self.prefix_service.prepare(batch, env.get("decisions"))

    def finish_step(self) -> List[_Resident]:
        """Phase 2 of a serve round: CNN stages and bookkeeping."""
        positions, env = self._round
        self._round = None
        self.executor.finish_step(env)
        finished: List[_Resident] = []
        for k, i in enumerate(positions):
            resident = self.residents[i]
            resident.records.append(env["records"][k])
            slot = self.state.slots[i]
            slot.cursor += 1
            if slot.cursor >= len(resident.request.clip):
                slot.executor.release()
                slot.policy = None
                self.residents[i] = None
                finished.append(resident)
        return finished

    def serve_shard(
        self,
        assigned: Sequence[Tuple[int, ClipRequest]],
        clock: Optional[Callable[[], float]] = None,
    ) -> "_ShardOutcome":
        """Run the full serve loop for this shard's slice of traffic.

        The single-worker form of the loop :class:`ServingRuntime` runs
        across all in-process workers: same admission discipline, same
        virtual-time idle skipping, on this shard's own clock.
        """
        clock = clock or time.perf_counter
        if self.prefix_service is not None:
            self.prefix_service.reset_stats()
        # Router-less pair door: seqs are preassigned by the parent, so
        # the shard replays its slice without validation or watermarks.
        door = FrontDoor(_PairSource(assigned))
        done, wall, idle, steps, shed = _serve_loop(
            [self], lambda request: self, door, clock,
            prefix_service=self.prefix_service,
        )
        prefix = (
            self.prefix_service.stats if self.prefix_service is not None
            else None
        )
        return _ShardOutcome(
            lane=self.name,
            shard=self.shard,
            records=done,
            wall_seconds=wall,
            idle_seconds=idle,
            steps=steps,
            shed=shed,
            prefix_fused_batches=prefix.fused_batches if prefix else 0,
            prefix_cache_hits=prefix.hits if prefix else 0,
            prefix_cache_misses=prefix.misses if prefix else 0,
            prefix_cache_evictions=prefix.evictions if prefix else 0,
            prefix_saved_macs=prefix.saved_macs if prefix else 0,
        )

    def release(self) -> None:
        """Drop resident state and hand plan scratch back."""
        self._round = None
        for index, resident in enumerate(self.residents):
            if resident is not None:
                self.state.slots[index].executor.release()
                self.state.slots[index].policy = None
                self.residents[index] = None
        self.queue.clear()
        self.state.plan.resolve().shrink(1)


class _PairSource(RequestSource):
    """Replay preassigned ``(seq, request)`` pairs (a shard's slice).

    Unlike :class:`~repro.runtime.frontdoor.ListSource`, seqs are the
    parent's submission numbers, not list positions — the shard's
    records must key by them so the aggregate stays in submission
    order.
    """

    def __init__(self, pairs: Sequence[Tuple[int, ClipRequest]]):
        super().__init__()
        self._pairs = deque(sorted(
            pairs, key=lambda item: (item[1].arrival_time, item[0])
        ))

    def _next_pair(self) -> Optional[Tuple[int, ClipRequest]]:
        return self._pairs.popleft() if self._pairs else None

    @property
    def finished(self) -> bool:
        return not self._pairs


class Router:
    """Serving front end: lane registry, shape bucketing, shard assignment.

    Pure routing — admission timing and execution belong to the workers.
    A request routes by explicit lane name, or by frame shape when the
    shape identifies exactly one lane; anything else raises
    :class:`LaneRoutingError` naming every registered lane.
    """

    def __init__(self, specs: Mapping[str, PipelineSpec]):
        if not specs:
            raise ValueError("at least one lane spec is required")
        self.specs: Dict[str, PipelineSpec] = dict(specs)
        self.frame_shapes: Dict[str, Tuple[int, int]] = {
            name: tuple(spec.shared_network().input_shape[1:])
            for name, spec in self.specs.items()
        }
        self._by_shape: Dict[Tuple[int, int], List[str]] = {}
        for name, shape in self.frame_shapes.items():
            self._by_shape.setdefault(shape, []).append(name)

    def describe_lanes(self) -> str:
        """``name=shape`` for every registered lane (error messages)."""
        return ", ".join(
            f"{name}={self.frame_shapes[name]}" for name in self.specs
        )

    def lane_for(self, request: ClipRequest) -> str:
        """The lane name that will serve ``request`` (shape bucketing)."""
        shape = tuple(request.clip.frames.shape[1:])
        if request.lane is not None:
            if request.lane not in self.specs:
                raise LaneRoutingError(
                    f"unknown lane {request.lane!r}; registered lanes: "
                    f"{self.describe_lanes()}"
                )
            if shape != self.frame_shapes[request.lane]:
                raise LaneRoutingError(
                    f"request {request.request_id!r} has {shape} frames; "
                    f"lane {request.lane!r} serves "
                    f"{self.frame_shapes[request.lane]} (registered lanes: "
                    f"{self.describe_lanes()})"
                )
            return request.lane
        names = self._by_shape.get(shape, [])
        if not names:
            raise LaneRoutingError(
                f"no lane serves frame shape {shape}; registered lanes: "
                f"{self.describe_lanes()}"
            )
        if len(names) > 1:
            raise LaneRoutingError(
                f"frame shape {shape} matches lanes {names}; set "
                f"ClipRequest.lane (registered lanes: {self.describe_lanes()})"
            )
        return names[0]

    def partition(
        self, requests: Sequence[ClipRequest]
    ) -> Dict[str, List[Tuple[int, ClipRequest]]]:
        """Requests per lane, ``(submission seq, request)`` in arrival
        order (stable on submission order for ties)."""
        ordered = sorted(
            enumerate(requests),
            key=lambda item: (item[1].arrival_time, item[0]),
        )
        per_lane: Dict[str, List[Tuple[int, ClipRequest]]] = {
            name: [] for name in self.specs
        }
        for seq, request in ordered:
            per_lane[self.lane_for(request)].append((seq, request))
        return per_lane


@dataclass
class _ShardOutcome:
    """What one shard's serve loop returned (picklable)."""

    lane: str
    shard: int
    records: Dict[int, RequestRecord]
    wall_seconds: float
    idle_seconds: float
    steps: int
    #: requests this shard shed at its admission boundary.
    shed: List[ShedRecord] = field(default_factory=list)
    #: per-shard prefix-service counters (0s when shards shared one
    #: service — the aggregate then reads the service directly).
    prefix_fused_batches: int = 0
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_cache_evictions: int = 0
    prefix_saved_macs: int = 0

    def info(self) -> ShardInfo:
        """This outcome's report row — the one place it is derived."""
        return ShardInfo(
            lane=self.lane,
            shard=self.shard,
            requests=len(self.records),
            frames=sum(
                record.num_frames for record in self.records.values()
            ),
            wall_seconds=self.wall_seconds,
            idle_seconds=self.idle_seconds,
            steps=self.steps,
            prefix_fused_batches=self.prefix_fused_batches,
            prefix_cache_hits=self.prefix_cache_hits,
            prefix_cache_misses=self.prefix_cache_misses,
            prefix_cache_evictions=self.prefix_cache_evictions,
            prefix_saved_macs=self.prefix_saved_macs,
        )


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs to serve one lane shard."""

    lane: str
    shard: int
    spec: PipelineSpec
    capacity: int
    assigned: Tuple[Tuple[int, ClipRequest], ...]
    #: prefix-service knobs, rebuilt per process (a cache never crosses
    #: a process boundary — each shard owns its own).
    prefix_coalesce: bool = True
    prefix_cache_mb: float = 0.0


@single_blas_thread()
def _run_shard(task: _ShardTask) -> _ShardOutcome:
    """Build a warm worker for the shard and serve its slice, on one
    BLAS thread (like every runtime step).

    Module-level so the static-admission process pool can ship it to
    worker processes; construction (network load, plan compile at
    capacity) happens before the shard's clock starts, so shard busy
    time measures serving, not setup.
    """
    worker = LaneWorker(
        task.lane, task.spec, task.capacity, shard=task.shard,
        prefix_coalesce=task.prefix_coalesce,
        prefix_cache_mb=task.prefix_cache_mb,
    )
    return worker.serve_shard(task.assigned)


def _admission_key(seq: int, request: ClipRequest) -> Tuple[float, float, int]:
    """Earliest-deadline-first admission order for a ``(seq, request)``.

    Deadline-less requests sort last by deadline and fall back to
    arrival then submission order — exactly the historical FIFO — so
    slack ordering only reorders traffic that actually has slack.
    """
    return (
        request.deadline if request.deadline is not None else float("inf"),
        request.arrival_time,
        seq,
    )


def _finalize_step(
    worker: "LaneWorker",
    finished: Sequence[_Resident],
    current: float,
    done: Dict[int, RequestRecord],
) -> None:
    """Post-step accounting shared by every serve loop.

    Stamps first-output times (for residents and departures alike) at
    ``current`` on the loop's clock and turns each departure into its
    :class:`RequestRecord`.  One definition, so the static, stealing,
    and discrete-event loops can never drift apart in how they account
    a step.
    """
    for resident in worker.active_residents():
        if resident.first_output_time is None:
            resident.first_output_time = current
    for resident in finished:
        if resident.first_output_time is None:
            resident.first_output_time = current
        done[resident.seq] = RequestRecord(
            request_id=resident.request.request_id,
            lane=worker.name,
            arrival_time=resident.request.arrival_time,
            admit_time=resident.admit_time,
            first_output_time=resident.first_output_time,
            finish_time=current,
            result=PipelineResult(records=resident.records),
            shard=worker.shard,
            deadline=resident.request.deadline,
        )


def _serve_work_stealing(
    workers: List[LaneWorker],
    pending_by_lane: Mapping[str, Sequence[Tuple[int, ClipRequest]]],
    clock: Callable[[], float],
    fault_plan: Optional[FaultPlan] = None,
    supervisor: Optional[SupervisorConfig] = None,
    spawn_worker: Optional[Callable[[str, int], LaneWorker]] = None,
    door: Optional[FrontDoor] = None,
    autoscaler: Optional[Autoscaler] = None,
    prefix_service: Optional[PrefixService] = None,
) -> Tuple[List[_ShardOutcome], List[ShedRecord], List[FailoverEvent],
           Dict[str, int]]:
    """Discrete-event serve loop: concurrent shards, shared lane queues.

    Simulates N shards running side by side in one thread: each shard
    keeps its own virtual clock (the sum of its real step durations plus
    idle skips), and at every event the shard with the earliest
    actionable time acts — shedding expired requests, admitting due
    ones earliest-deadline-first from its *lane's* shared backlog while
    it has free slots, then stepping its residents.  A request is
    therefore admitted by whichever shard reaches a free slot earliest
    in virtual time: work stealing under the same concurrent-shard
    model the static path's per-shard loops realize, deterministic
    given step durations, honouring an injected clock.

    This loop is also the inline backend for deterministic fault
    injection — the simulated twin of the process backend's
    :class:`~repro.runtime.supervision.ShardSupervisor`, firing the
    same ``fault_plan`` against per-shard virtual clocks: a ``kill``
    ends the shard at its fire time and the residents' requests are
    re-dispatched (outcome ``"failover"``) once the virtual supervisor
    notices — ``heartbeat_timeout`` after death; a ``stall`` freezes
    the shard's clock for its duration, or fails it over exactly like a
    kill when the stall exceeds ``heartbeat_timeout`` (silence and
    death are indistinguishable to a supervisor); a ``drop_ack``
    discards a completed record and re-dispatches the request after
    ``ack_timeout`` (outcome ``"retried"``).  Re-execution is
    bit-identical by the serving contract, so every recovery is exactly
    replayable.  A lane that loses every shard spawns a replacement via
    ``spawn_worker`` while ``max_respawns`` budget remains; past that,
    remaining work raises an explicit
    :class:`~repro.runtime.scheduler.ShardCrashError` — never a hang.

    With a ``door`` the lane backlogs are fed incrementally from the
    front door (streaming sources serve without being drained up
    front, and ingestion honours the door's watermark); with an
    ``autoscaler`` each admission boundary also observes its lane —
    backlog depth per live shard, earliest-deadline slack — and acts on
    the policy's target: growth spawns a shard via ``spawn_worker``
    (not counted as a respawn), shrinkage marks the least-loaded sibling
    *draining* — it steps its residents to completion, admits nothing
    new, and retires once empty.  Scaling never touches results: every
    admitted request runs the same bit-identical serve regardless of
    when its shard was spawned.

    With a ``prefix_service`` the simulation also coalesces *across
    simulated shards*: when other live, active shards are tied with the
    acting shard at exactly its event time (the lockstep the injected
    deterministic clocks produce), the whole cohort steps as one
    two-phase round — every member's key decisions first, one fused
    prefix flush, then every member's CNN stages — and each member is
    charged the full round duration (tied shards stay tied, keeping
    event order deterministic).  The shared service also shares its
    content cache across all simulated shards.  Results are
    bit-identical either way.

    Returns ``(outcomes, shed, failover events, counters)`` with one
    outcome per worker (dead and respawned shards included) in spawn
    order and ``counters`` keying ``retries``/``failovers``/``respawns``.
    """
    config = supervisor or SupervisorConfig()
    plan = fault_plan or FaultPlan()
    lane_pending: Dict[str, List[_PendingEntry]] = {
        name: [
            _PendingEntry(seq=seq, request=request, lane=name,
                          available=request.arrival_time)
            for seq, request in items
        ]
        for name, items in pending_by_lane.items()
    }
    virtual = {worker: 0.0 for worker in workers}
    busy = {worker: 0.0 for worker in workers}
    idle = {worker: 0.0 for worker in workers}
    steps = {worker: 0 for worker in workers}
    records: Dict[LaneWorker, Dict[int, RequestRecord]] = {
        worker: {} for worker in workers
    }
    mean_step = {worker: 1e-3 for worker in workers}
    kills = {
        worker: deque(plan.for_shard(worker.name, worker.shard))
        for worker in workers
    }
    for worker in workers:
        kills[worker] = deque(
            e for e in kills[worker] if e.kind == "kill"
        )
    stalls = {
        worker: deque(
            e for e in plan.for_shard(worker.name, worker.shard)
            if e.kind == "stall"
        )
        for worker in workers
    }
    drops = {
        worker: deque(
            e for e in plan.for_shard(worker.name, worker.shard)
            if e.kind == "drop_ack"
        )
        for worker in workers
    }
    alive = set(workers)
    draining: set = set()
    in_flight: Dict[int, _PendingEntry] = {}
    shed: List[ShedRecord] = []
    failover_events: List[FailoverEvent] = []
    counters = {"retries": 0, "failovers": 0, "respawns": 0}

    def add_worker(lane: str, at: float, scale: bool = False) -> LaneWorker:
        shard_index = max(w.shard for w in workers if w.name == lane) + 1
        replacement = spawn_worker(lane, shard_index)
        workers.append(replacement)
        for table, default in (
            (virtual, at), (busy, 0.0), (idle, 0.0), (steps, 0),
            (mean_step, 1e-3),
        ):
            table[replacement] = default
        records[replacement] = {}
        kills[replacement] = deque()
        stalls[replacement] = deque()
        drops[replacement] = deque()
        alive.add(replacement)
        if not scale:  # autoscale growth is not failure recovery
            counters["respawns"] += 1
        return replacement

    def fail_worker(worker: LaneWorker, death_time: float,
                    reason: str) -> None:
        """Kill a shard at ``death_time`` on its clock and fail it over.

        The virtual supervisor notices ``heartbeat_timeout`` later;
        the residents' requests rejoin the lane backlog at that
        detection time, partial per-frame work discarded (their
        re-execution is bit-identical from frame zero).
        """
        detect = death_time + config.heartbeat_timeout
        seqs = []
        for resident in worker.active_residents():
            entry = in_flight.pop(resident.seq)
            entry.attempts += 1
            entry.outcome = "failover"
            entry.available = detect
            lane_pending[worker.name].append(entry)
            seqs.append(resident.seq)
        counters["failovers"] += len(seqs)
        alive.discard(worker)
        respawned = False
        if (
            spawn_worker is not None
            and not any(w.name == worker.name for w in alive)
            and lane_pending[worker.name]
            and counters["respawns"] < config.max_respawns
        ):
            add_worker(worker.name, detect)
            respawned = True
        failover_events.append(FailoverEvent(
            lane=worker.name, shard=worker.shard, time=detect,
            reason=reason, seqs=tuple(sorted(seqs)), respawned=respawned,
        ))

    while True:
        if door is not None:
            # Feed lane backlogs from the front door; depth is the
            # queued-but-unadmitted total the watermark bounds.
            depth = sum(len(entries) for entries in lane_pending.values())
            for seq, request in door.take(depth):
                lane = door.lane_of(request)
                lane_pending[lane].append(_PendingEntry(
                    seq=seq, request=request, lane=lane,
                    available=request.arrival_time,
                ))
        chosen = None
        chosen_key = None
        for worker in workers:
            if worker not in alive:
                continue
            if worker in draining:
                if not worker.has_active():
                    # Drained dry: retire from the fleet.
                    alive.discard(worker)
                    draining.discard(worker)
                    continue
                key = (virtual[worker], worker.name, worker.shard)
            else:
                entries = lane_pending[worker.name]
                if worker.has_active():
                    key = (virtual[worker], worker.name, worker.shard)
                elif entries:
                    key = (
                        max(virtual[worker],
                            min(e.available for e in entries)),
                        worker.name,
                        worker.shard,
                    )
                else:
                    continue
            if chosen_key is None or key < chosen_key:
                chosen, chosen_key = worker, key
        if chosen is None:
            if door is not None and not door.exhausted:
                # A live source with nothing submitted yet: the only
                # place this loop touches real time — there is no
                # virtual event to jump to until traffic exists.
                if door.starved:
                    time.sleep(0.001)
                continue
            stranded = {
                name: entries for name, entries in lane_pending.items()
                if entries
            }
            if not stranded:
                break
            # Lanes with work but no live shard and no respawn budget
            # (in-budget respawns happen at failover time): explicit.
            lost = sorted(
                entry.seq
                for entries in stranded.values()
                for entry in entries
            )
            lanes = ", ".join(sorted(stranded))
            raise ShardCrashError(
                f"lane(s) {lanes} lost every shard with {len(lost)} "
                f"request(s) unresolved (seqs {lost}) and no respawn "
                f"budget left (max_respawns={config.max_respawns})",
                lost=lost,
            )
        worker = chosen
        event_time = chosen_key[0]
        # Injected faults fire before the shard acts at this boundary.
        if kills[worker] and kills[worker][0].at <= event_time:
            event = kills[worker].popleft()
            fail_worker(worker, max(event.at, virtual[worker]), "crash")
            continue
        if stalls[worker] and stalls[worker][0].at <= event_time:
            event = stalls[worker].popleft()
            duration = (
                event.seconds if event.seconds > 0
                else event.steps * mean_step[worker]
            )
            if duration > config.heartbeat_timeout:
                # Silent past the heartbeat: indistinguishable from
                # death, failed over as one (the stalled shard is
                # terminated; its residents re-dispatch).
                fail_worker(worker, max(event.at, virtual[worker]),
                            "stall")
                continue
            begin = max(virtual[worker], event.at)
            idle[worker] += (begin - virtual[worker]) + duration
            virtual[worker] = begin + duration
            continue
        entries = lane_pending[worker.name]
        if event_time > virtual[worker]:
            # Idle until the next arrival: skip virtually, never sleep.
            idle[worker] += event_time - virtual[worker]
            virtual[worker] = event_time
        kept, newly_shed = _shed_expired(
            entries, virtual[worker], shard=worker.shard
        )
        if newly_shed:
            lane_pending[worker.name] = entries = kept
            shed.extend(newly_shed)
        if autoscaler is not None and worker not in draining:
            # One observation per admission boundary: backlog depth per
            # live shard plus the earliest pending deadline's slack.
            live = [
                w for w in alive
                if w.name == worker.name and w not in draining
            ]
            slack = min(
                (e.request.deadline - virtual[worker]
                 for e in entries if e.request.deadline is not None),
                default=None,
            )
            target = autoscaler.observe(
                worker.name, len(live), len(entries), virtual[worker],
                deadline_slack=slack,
            )
            if target > len(live) and spawn_worker is not None:
                add_worker(worker.name, virtual[worker], scale=True)
            elif target < len(live):
                # Drain the least-loaded sibling (never the acting
                # shard if another exists): it finishes its residents,
                # admits nothing new, and retires once empty.
                victim = min(
                    [w for w in live if w is not worker] or live,
                    key=lambda w: (len(w.active_residents()), -w.shard),
                )
                draining.add(victim)
        while worker not in draining and worker.has_free_slot():
            due = [e for e in entries if e.available <= virtual[worker]]
            if not due:
                break
            entry = min(due, key=_edf_key)
            entries.remove(entry)
            worker.admit(entry.seq, entry.request, virtual[worker])
            in_flight[entry.seq] = entry
        if not worker.has_active():
            continue

        def account(member: LaneWorker, finished: List[_Resident],
                    duration: float) -> None:
            """Charge one stepped shard and settle its departures."""
            virtual[member] += duration
            busy[member] += duration
            steps[member] += 1
            mean_step[member] = duration
            _finalize_step(member, finished, virtual[member],
                           records[member])
            for resident in finished:
                entry = in_flight.pop(resident.seq)
                if drops[member] and drops[member][0].at <= virtual[member]:
                    # The ack is lost: the completed record never
                    # reaches the supervisor, which re-dispatches after
                    # ack_timeout.
                    drops[member].popleft()
                    del records[member][resident.seq]
                    entry.attempts += 1
                    entry.outcome = "retried"
                    entry.available = (
                        virtual[member] + config.resolved_ack_timeout
                    )
                    lane_pending[member.name].append(entry)
                    counters["retries"] += 1
                else:
                    record = records[member][resident.seq]
                    record.outcome = entry.outcome
                    record.attempts = entry.attempts

        cohort = [worker]
        if prefix_service is not None and prefix_service.coalesce:
            # Live, active shards tied at exactly this event time step
            # as one fused round (no pending fault may be due: fault
            # firing stays at the shard's own turn).
            cohort += [
                other for other in workers
                if other is not worker
                and other in alive
                and other.has_active()
                and virtual[other] == event_time
                and not (kills[other] and kills[other][0].at <= event_time)
                and not (stalls[other] and stalls[other][0].at <= event_time)
            ]
        if len(cohort) > 1:
            step_start = clock()
            for member in cohort:
                member.begin_step()
            prefix_service.flush()
            round_finished = [
                (member, member.finish_step()) for member in cohort
            ]
            duration = clock() - step_start
            # Concurrent-barrier model: every member pays the full
            # round, so tied shards stay tied (deterministic order).
            for member, finished in round_finished:
                account(member, finished, duration)
        else:
            step_start = clock()
            finished = worker.step()
            duration = clock() - step_start
            account(worker, finished, duration)
    outcomes = [
        _ShardOutcome(
            lane=worker.name,
            shard=worker.shard,
            records=records[worker],
            wall_seconds=busy[worker],
            idle_seconds=idle[worker],
            steps=steps[worker],
        )
        for worker in workers
    ]
    return outcomes, shed, failover_events, counters


def _serve_loop(
    workers: Sequence[LaneWorker],
    route: Callable[[ClipRequest], LaneWorker],
    door: FrontDoor,
    clock: Callable[[], float],
    prefix_service: Optional[PrefixService] = None,
) -> Tuple[Dict[int, RequestRecord], float, float, int, List[ShedRecord]]:
    """The continuous-batching serve loop over a set of lane workers.

    Traffic arrives through the ``door`` (nondecreasing arrival order —
    the source contract).  Requests become visible at their
    ``arrival_time``; admission and eviction happen at step boundaries;
    when no worker has a resident and no arrival is due, virtual time
    jumps to the next arrival instead of spinning (a *live* source with
    nothing submitted yet is the one place the loop waits in real
    time).  The door's watermark bounds how much traffic is pulled
    ahead of admission.  Queued requests whose deadline passes before
    admission are shed at the boundary (explicit :class:`ShedRecord`,
    never served late), and admission among waiting requests is
    earliest-deadline-first — deadline-less traffic keeps the
    historical FIFO order exactly.

    ``prefix_service`` — the workers' shared
    :class:`~repro.runtime.prefix_service.PrefixService` (every worker's
    ``prefix_service`` attribute must be this instance) — turns each
    multi-worker step round into two phases: every active worker
    ``begin_step`` calls (RFBME + key decisions), the service
    flushes once (fusing coincident key-frame prefixes across lanes
    into one plan call and answering repeats from the content cache),
    then every worker ``finish_step`` calls.  Bit-identical to per-worker
    stepping; with one active worker the loop falls back to plain
    ``step()`` and the service still serves its cache on the direct
    path.
    Returns ``(records by seq, busy seconds, idle seconds, steps,
    shed)``.
    """
    done: Dict[int, RequestRecord] = {}
    shed: List[ShedRecord] = []
    steps = 0
    skipped = 0.0
    start = clock()

    def now() -> float:
        return (clock() - start) + skipped

    while not door.exhausted or any(
        worker.queue or worker.has_active() for worker in workers
    ):
        current = now()
        depth = sum(len(worker.queue) for worker in workers)
        for seq, request in door.take(depth, now=current):
            route(request).queue.append((seq, request))
        for worker in workers:
            if worker.queue and any(
                request.deadline is not None
                for _, request in worker.queue
            ):
                entries = [
                    _PendingEntry(seq=seq, request=request,
                                  lane=worker.name, available=current)
                    for seq, request in worker.queue
                ]
                kept, newly_shed = _shed_expired(
                    entries, current, shard=worker.shard
                )
                if newly_shed:
                    shed.extend(newly_shed)
                    worker.queue = deque(
                        (entry.seq, entry.request) for entry in kept
                    )
            while worker.queue and worker.has_free_slot():
                index = min(
                    range(len(worker.queue)),
                    key=lambda i: _admission_key(*worker.queue[i]),
                )
                seq, request = worker.queue[index]
                del worker.queue[index]
                worker.admit(seq, request, current)
        if not any(worker.has_active() for worker in workers):
            # Idle with work still to come: skip ahead to the next
            # arrival instead of spinning.
            next_arrival = door.next_arrival()
            if next_arrival is not None:
                gap = next_arrival - current
                if gap > 0:
                    skipped += gap
            elif door.starved and not any(
                worker.queue for worker in workers
            ):
                # Live source, nothing submitted yet: no virtual event
                # exists to jump to, so wait briefly in real time.
                time.sleep(0.001)
            continue
        active = [worker for worker in workers if worker.has_active()]
        if (
            prefix_service is not None
            and prefix_service.coalesce
            and len(active) > 1
        ):
            # Two-phase round: decisions for every lane first, one
            # fused/cached prefix flush, then the CNN stages per lane.
            for worker in active:
                worker.begin_step()
            prefix_service.flush()
            for worker in active:
                finished = worker.finish_step()
                steps += 1
                _finalize_step(worker, finished, now(), done)
            continue
        for worker in active:
            finished = worker.step()
            steps += 1
            _finalize_step(worker, finished, now(), done)
    wall = clock() - start
    return done, wall, skipped, steps, shed


class ServingRuntime:
    """Serve clip requests with continuous batching, optionally sharded.

    ``spec`` is a single :class:`PipelineSpec` (one lane named
    ``"default"``) or a mapping of lane name to spec for heterogeneous
    deployments.  ``max_batch`` is the per-shard slot capacity: a shard
    never holds more than ``max_batch`` resident clips, and its
    inference plan is compiled once at that capacity.

    ``serve_workers`` selects the execution shape: ``1`` (default) runs
    every lane in-process under one virtual clock; ``N > 1`` shards
    lanes across a worker pool — each lane split into ``ceil(N /
    num_lanes)`` shards, requests assigned round-robin in arrival order,
    results aggregated into one :class:`ServingReport`.  Results are
    bit-identical either way; sharding only changes wall-clock time and
    latency accounting (each shard keeps its own clock).
    ``shard_backend`` (see
    :meth:`~repro.runtime.frontdoor.ServerConfig.resolve_shard_backend`):
    ``process`` realizes shard concurrency, ``serial`` runs shards
    inline — useful on single-core hosts, where the report still
    aggregates under the concurrent model (slowest shard's busy time);
    ``auto`` picks between them by usable core count.

    ``admission`` selects how a sharded run assigns requests to a lane's
    shards.  ``"static"`` (default) splits each lane's traffic
    round-robin in arrival order — the PR 4 shape, fully independent
    shards.  ``"shared"`` keeps one admission queue per lane that every
    shard of the lane pulls from, so an idle shard *steals* the next
    pending request instead of idling beside a backlogged sibling —
    under skewed traffic (e.g. long clips landing on one shard's slice)
    that is what fixes tail latency.  Inline (``serial``-resolved)
    shared-admission runs execute as a deterministic discrete-event
    simulation of concurrent shards (per-shard virtual clocks, the
    injected ``clock`` honoured); the ``process`` backend realizes the
    shared queue with a real cross-process queue on the real clock
    (arrivals released by the parent, no virtual-time skipping).
    Admission policy never changes results: per-clip bit identity holds
    regardless of which shard served a clip.

    ``clock`` is injectable (monotonic seconds) for deterministic tests
    and applies to unsharded and inline-shard serving; process shards
    always use :func:`time.perf_counter` (unless ``virtual_time``
    releases arrivals by logical timestamps).

    Configuration lives in one validated
    :class:`~repro.runtime.frontdoor.ServerConfig` —
    ``ServingRuntime(spec, ServerConfig(...))``.
    """

    def __init__(
        self,
        spec: Union[PipelineSpec, Mapping[str, PipelineSpec]],
        config: Optional[ServerConfig] = None,
    ):
        if isinstance(spec, PipelineSpec):
            specs: Dict[str, PipelineSpec] = {"default": spec}
        else:
            specs = dict(spec)
        if config is None:
            config = ServerConfig()
        elif not isinstance(config, ServerConfig):
            raise TypeError(
                f"config must be a ServerConfig, got {type(config).__name__}"
            )
        for lane_spec in specs.values():
            lane_spec.require_planned("ServingRuntime")
        #: the validated :class:`ServerConfig` this runtime serves under.
        self.config = config
        if config.inference_dtype is not None:
            # One dtype for every lane (per-lane dtypes come from per-lane
            # specs).
            specs = {
                name: replace(lane_spec, dtype=config.inference_dtype)
                for name, lane_spec in specs.items()
            }
        self.router = Router(specs)
        # Plan/lane validation happens here — the one place that always
        # has the router — not in ServerConfig, which a caller may build
        # long before any spec exists.
        _validate_fault_plan(config, self.router)
        self._workers: Optional[Dict[str, LaneWorker]] = None
        #: the shared prefix service of an in-flight inline DES serve
        #: (respawned/scaled shards spawned mid-serve must join it).
        self._des_prefix_service: Optional[PrefixService] = None

    # -- config accessors (the knobs' historical names) ------------- #
    @property
    def max_batch(self) -> int:
        return self.config.max_batch

    @property
    def serve_workers(self) -> int:
        return self.config.serve_workers

    @property
    def admission(self) -> str:
        return self.config.admission

    @property
    def fault_plan(self) -> FaultPlan:
        return self.config.fault_plan

    @property
    def supervisor(self) -> SupervisorConfig:
        return self.config.supervisor

    @property
    def clock(self) -> Callable[[], float]:
        return self.config.clock or time.perf_counter

    # -------------------------------------------------------------- #
    @property
    def lanes(self) -> Dict[str, LaneWorker]:
        """In-process lane workers, built on first use.

        Sharded serves never touch these (worker processes build their
        own); in-process serves reuse them across calls so executors and
        plans stay warm.
        """
        if self._workers is None:
            self._workers = {
                name: LaneWorker(
                    name, lane_spec, self.max_batch,
                    prefix_coalesce=self.config.prefix_coalesce,
                    prefix_cache_mb=self.config.prefix_cache_mb,
                )
                for name, lane_spec in self.router.specs.items()
            }
        return self._workers

    def _build_prefix_service(self) -> PrefixService:
        """A fresh shared service for one serve (per-serve counters)."""
        return PrefixService(
            coalesce=self.config.prefix_coalesce,
            cache_mb=self.config.prefix_cache_mb,
        )

    def lane_for(self, request: ClipRequest) -> LaneWorker:
        """The in-process worker that would serve ``request``."""
        return self.lanes[self.router.lane_for(request)]

    def resolve_backend(self) -> Backend:
        """The one backend this config serves through.

        ``serve()`` dispatches here: the in-process loop (a single
        worker per lane, no elasticity), static shard slices, or the
        shared-admission family — which is also where autoscaling and
        fault injection live, as backend capabilities.
        """
        if self.config.autoscale is None and self.config.serve_workers == 1:
            return InProcessBackend(self)
        if self.config.admission == "static":
            return StaticShardBackend(self)
        return SharedAdmissionBackend(self)

    @single_blas_thread()
    def serve(self, requests) -> ServingReport:
        """Serve a request stream on one BLAS thread; returns
        per-request accounting.

        ``requests`` is anything :func:`as_request_source` accepts: a
        sequence (the historical path — routing and duplicate-id
        failures surface before any serving starts), an iterator or
        generator, an :class:`asyncio.Queue`, or a
        :class:`~repro.runtime.frontdoor.RequestSource` such as a
        bounded :class:`~repro.runtime.frontdoor.QueueSource`.  The
        resolved backend then serves everything the front door yields.
        """
        source = as_request_source(requests)
        door = FrontDoor(
            source,
            router=self.router,
            max_pending=self.config.max_pending,
            resume_pending=self.config.resume_pending,
        )
        try:
            report = self.resolve_backend().serve(door)
        finally:
            source.close()
        report.backpressure_pauses = door.backpressure_pauses
        return report

    # -------------------------------------------------------------- #
    def _lane_quant_info(self):
        """(lane → plan family, lane → savings estimate) for the report.

        Derived from the lane specs, not the workers: the estimate is
        pure shape arithmetic, so sharded backends get it without
        shipping anything across the process boundary.
        """
        dtypes: Dict[str, str] = {}
        savings: Dict[str, QuantSavings] = {}
        for name, spec in self.router.specs.items():
            dtypes[name] = resolve_plan_dtype(spec.dtype)
            estimate = quantized_savings(spec.shared_network(), spec.dtype)
            if estimate is not None:
                savings[name] = estimate
        return dtypes, savings

    def _serve_in_process(self, door: FrontDoor) -> ServingReport:
        workers = list(self.lanes.values())
        # One shared service across every in-process lane: coincident
        # key frames fuse cross-lane and the content cache is global.
        service = self._build_prefix_service()
        for worker in workers:
            worker.prefix_service = service
        done, wall, idle, steps, shed = _serve_loop(
            workers, self.lane_for, door, self.clock,
            prefix_service=service,
        )
        lane_dtypes, lane_savings = self._lane_quant_info()
        return ServingReport(
            records=[done[seq] for seq in sorted(done)],
            wall_seconds=wall,
            idle_seconds=idle,
            steps=steps,
            max_batch=self.max_batch,
            serve_workers=1,
            admission=self.admission,
            shed=sorted(shed, key=lambda record: record.seq),
            prefix_fused_batches=service.stats.fused_batches,
            prefix_cache_hits=service.stats.hits,
            prefix_cache_misses=service.stats.misses,
            prefix_cache_evictions=service.stats.evictions,
            prefix_saved_macs=service.stats.saved_macs,
            lane_dtypes=lane_dtypes,
            lane_quant_savings=lane_savings,
        )

    def _serve_sharded(
        self, per_lane: Dict[str, List[Tuple[int, ClipRequest]]]
    ) -> ServingReport:
        """Static assignment: slice each lane and serve on the pool."""
        shards_per_lane = -(-self.serve_workers // len(self.router.specs))
        tasks: List[_ShardTask] = []
        for name, lane_spec in self.router.specs.items():
            lane_spec.warm()  # workers load the cache, never race to train
            lane_requests = per_lane[name]
            for shard in range(shards_per_lane):
                assigned = tuple(lane_requests[shard::shards_per_lane])
                if not assigned:
                    continue  # an empty shard has nothing to build
                tasks.append(
                    _ShardTask(
                        name, shard, lane_spec, self.max_batch, assigned,
                        prefix_coalesce=self.config.prefix_coalesce,
                        prefix_cache_mb=self.config.prefix_cache_mb,
                    )
                )
        if self.config.resolve_shard_backend(len(tasks)) == "serial":
            # Inline shards run in this process, so the injected clock
            # (deterministic tests) is honoured; each shard still gets
            # its own serve loop and its own busy/idle accounting (and,
            # mirroring the process backend, its own prefix cache).
            outcomes = [
                LaneWorker(
                    task.lane, task.spec, task.capacity, shard=task.shard,
                    prefix_coalesce=task.prefix_coalesce,
                    prefix_cache_mb=task.prefix_cache_mb,
                ).serve_shard(task.assigned, clock=self.clock)
                for task in tasks
            ]
        else:
            workers = min(self.config.pool_workers, len(tasks))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_run_shard, tasks))

        return self._aggregate_shards(outcomes)

    def _aggregate_shards(
        self,
        outcomes: Sequence[_ShardOutcome],
        shed: Sequence[ShedRecord] = (),
        failover_events: Sequence[FailoverEvent] = (),
        retries: int = 0,
        failovers: int = 0,
        respawns: int = 0,
        scale_events: Sequence[ScaleEvent] = (),
        prefix: Optional[PrefixStats] = None,
    ) -> ServingReport:
        """One report from per-shard outcomes, under the concurrent
        model: the slowest shard bounds the run, and its idle time is
        the one paired with that wall (mixing fields from different
        shards would describe a timeline no shard had).

        ``prefix`` carries the counters of a service *shared* across
        the shards (the inline DES); without it the per-shard counters
        are summed (independent services, the static/process paths)."""
        done: Dict[int, RequestRecord] = {}
        all_shed = list(shed)
        for outcome in outcomes:
            done.update(outcome.records)
            all_shed.extend(outcome.shed)
        shards = [outcome.info() for outcome in outcomes]
        slowest = max(shards, key=lambda s: s.wall_seconds, default=None)
        lane_dtypes, lane_savings = self._lane_quant_info()
        return ServingReport(
            records=[done[seq] for seq in sorted(done)],
            wall_seconds=slowest.wall_seconds if slowest else 0.0,
            idle_seconds=slowest.idle_seconds if slowest else 0.0,
            steps=sum(s.steps for s in shards),
            max_batch=self.max_batch,
            serve_workers=self.serve_workers,
            shards=shards,
            admission=self.admission,
            shed=sorted(all_shed, key=lambda record: record.seq),
            retries=retries,
            failovers=failovers,
            respawns=respawns,
            failover_events=list(failover_events),
            scale_events=list(scale_events),
            prefix_fused_batches=(
                prefix.fused_batches if prefix is not None
                else sum(s.prefix_fused_batches for s in shards)
            ),
            prefix_cache_hits=(
                prefix.hits if prefix is not None
                else sum(s.prefix_cache_hits for s in shards)
            ),
            prefix_cache_misses=(
                prefix.misses if prefix is not None
                else sum(s.prefix_cache_misses for s in shards)
            ),
            prefix_cache_evictions=(
                prefix.evictions if prefix is not None
                else sum(s.prefix_cache_evictions for s in shards)
            ),
            prefix_saved_macs=(
                prefix.saved_macs if prefix is not None
                else sum(s.prefix_saved_macs for s in shards)
            ),
            lane_dtypes=lane_dtypes,
            lane_quant_savings=lane_savings,
        )

    def _spawn_lane_worker(self, lane: str, shard: int) -> LaneWorker:
        worker = LaneWorker(lane, self.router.specs[lane],
                            self.max_batch, shard=shard,
                            prefix_coalesce=self.config.prefix_coalesce,
                            prefix_cache_mb=self.config.prefix_cache_mb)
        if self._des_prefix_service is not None:
            # Mid-serve spawns (respawn, autoscale growth) join the
            # DES-wide shared service: one cache, fused cohorts.
            worker.prefix_service = self._des_prefix_service
        return worker

    def _serve_shared(self, door: FrontDoor) -> ServingReport:
        """Sharded serving over shared per-lane admission queues.

        Inline (``serial``-resolved) runs simulate the concurrent shards
        with the discrete-event loop — deterministic, injected-clock
        friendly, and directly comparable to the static path's
        per-shard timelines.  The ``process`` backend realizes the
        shared queue for real: the parent holds the queue and, at each
        request's arrival time, sends its seq down the pipe of the lane
        shard with the most free credit (work stealing at request
        granularity, real clock — or logical timestamps under
        ``virtual_time``).

        With an autoscale policy each lane starts at the policy's
        ``min_shards`` and grows/shrinks from observed queue depth and
        deadline slack; the inline form streams straight from the front
        door, so an open (live) source can be served elastically without
        being drained up front.
        """
        config = self.config
        for lane_spec in self.router.specs.values():
            lane_spec.warm()  # workers load the cache, never race to train
        if config.autoscale is not None:
            return self._serve_autoscaled(door)
        per_lane = door.drain_per_lane()
        # Shards here are *concurrent* queue consumers (the process pool
        # is sized to the task count), so — unlike the static path's
        # per-lane ceil — the total never exceeds serve_workers: the
        # budget is dealt round-robin across lanes, and a shard beyond a
        # lane's request count is never built (it could not admit
        # anything, and its executors/plan compile aren't free).
        lane_names = list(self.router.specs)
        lane_shards = deal_shard_budget(
            lane_names,
            {name: len(per_lane[name]) for name in lane_names},
            self.serve_workers,
        )
        num_tasks = sum(lane_shards.values())
        if self.config.resolve_shard_backend(num_tasks) == "process":
            return self._serve_shared_process(per_lane, lane_shards)
        service = self._build_prefix_service()
        self._des_prefix_service = service
        try:
            workers = [
                self._spawn_lane_worker(name, shard)
                for name, count in lane_shards.items()
                for shard in range(count)
            ]
            pending_by_lane = {
                name: list(per_lane[name]) for name in self.router.specs
            }
            outcomes, shed, failover_events, counters = _serve_work_stealing(
                workers, pending_by_lane, self.clock,
                fault_plan=self.fault_plan, supervisor=self.supervisor,
                spawn_worker=self._spawn_lane_worker,
                prefix_service=service,
            )
        finally:
            self._des_prefix_service = None
        return self._aggregate_shards(
            outcomes, shed=shed, failover_events=failover_events,
            retries=counters["retries"], failovers=counters["failovers"],
            respawns=counters["respawns"],
            prefix=service.stats,
        )

    def _serve_autoscaled(self, door: FrontDoor) -> ServingReport:
        """Elastic shared admission: min_shards per lane, policy-grown."""
        config = self.config
        policy = config.autoscale
        autoscaler = Autoscaler(policy)
        if config.resolve_shard_backend(config.pool_workers) == "process":
            # The supervisor owns spawn/drain; it needs the full trace
            # for release scheduling, so streaming sources are drained
            # (closed sources only — an open one raises in the door).
            per_lane = door.drain_per_lane()
            lane_shards = {
                name: min(policy.min_shards, len(items)) if items else 0
                for name, items in per_lane.items()
            }
            return self._serve_shared_process(
                per_lane, lane_shards, autoscaler=autoscaler
            )
        service = self._build_prefix_service()
        self._des_prefix_service = service
        try:
            workers = [
                self._spawn_lane_worker(name, shard)
                for name in self.router.specs
                for shard in range(policy.min_shards)
            ]
            outcomes, shed, failover_events, counters = _serve_work_stealing(
                workers, {name: [] for name in self.router.specs}, self.clock,
                fault_plan=self.fault_plan, supervisor=self.supervisor,
                spawn_worker=self._spawn_lane_worker,
                door=door, autoscaler=autoscaler,
                prefix_service=service,
            )
        finally:
            self._des_prefix_service = None
        return self._aggregate_shards(
            outcomes, shed=shed, failover_events=failover_events,
            retries=counters["retries"], failovers=counters["failovers"],
            respawns=counters["respawns"],
            scale_events=autoscaler.events,
            prefix=service.stats,
        )

    def _serve_shared_process(
        self,
        per_lane: Dict[str, List[Tuple[int, ClipRequest]]],
        lane_shards: Dict[str, int],
        autoscaler: Optional[Autoscaler] = None,
    ) -> ServingReport:
        """Shared admission on real processes, under shard supervision.

        The parent *is* the shared queue now: a
        :class:`~repro.runtime.supervision.ShardSupervisor` releases
        requests at their arrival times (real clock — or by logical
        timestamps under ``virtual_time``, jumping idle gaps instead of
        sleeping them), dispatches them earliest-deadline-first to
        whichever shard of the lane has the most free capacity, and
        recovers from crashed/stalled shards by re-dispatching
        unacknowledged requests — bit-identical by the serving
        contract.  Deadline shedding, failover, retries, respawns, and
        scale events all land in the report's explicit counters.
        """
        supervisor = ShardSupervisor(
            self.router.specs, self.max_batch,
            config=self.supervisor, fault_plan=self.fault_plan,
            virtual_time=self.config.virtual_time,
            autoscaler=autoscaler,
            prefix_coalesce=self.config.prefix_coalesce,
            prefix_cache_mb=self.config.prefix_cache_mb,
        )
        result = supervisor.serve(per_lane, lane_shards)
        return self._aggregate_shards(
            result.outcomes,
            shed=result.shed,
            failover_events=result.failover_events,
            retries=result.retries,
            failovers=result.failovers,
            respawns=result.respawns,
            scale_events=result.scale_events,
        )

    def close(self) -> None:
        """Evict all residents and shrink lane plans to capacity 1."""
        if self._workers:
            for worker in self._workers.values():
                worker.release()


def _validate_fault_plan(config: ServerConfig, router: Router) -> None:
    """Structural and lane validation for an injected fault plan.

    The one home for both checks — it always has the router, so the
    unknown-lane message can list ``Router.describe_lanes()`` (a bare
    :class:`ServerConfig` cannot).  Faults require a supervised
    backend: fixed shared-admission shards, or an elastic pool whose
    ``max_shards`` leaves a survivor to fail over to.
    """
    if not config.fault_plan:
        return
    elastic = config.autoscale is not None and config.autoscale.max_shards >= 2
    if (config.serve_workers < 2 and not elastic) \
            or config.admission != "shared":
        raise ValueError(
            "fault_plan requires serve_workers >= 2 and "
            "admission='shared' (the supervised backends); got "
            f"serve_workers={config.serve_workers}, "
            f"admission={config.admission!r}"
        )
    unknown = [
        lane for lane in config.fault_plan.lanes()
        if lane not in router.specs
    ]
    if unknown:
        raise ValueError(
            f"fault_plan targets unknown lane(s) {unknown}; "
            f"registered lanes: {router.describe_lanes()}"
        )


class InProcessBackend(Backend):
    """All lanes in one process under one virtual clock (PR 3 shape)."""

    name = "in-process"
    capabilities = frozenset(
        {"streaming", "watermarks", "virtual-time"}
    )

    def serve(self, door: FrontDoor) -> ServingReport:
        return self.runtime._serve_in_process(door)


class StaticShardBackend(Backend):
    """Round-robin slices, fully independent shards (PR 4 shape).

    Slices are fixed at dispatch time, so this backend needs the whole
    trace up front — the door is drained, not streamed.
    """

    name = "static-shards"
    capabilities = frozenset({"sharded"})

    def serve(self, door: FrontDoor) -> ServingReport:
        return self.runtime._serve_sharded(door.drain_per_lane())


class SharedAdmissionBackend(Backend):
    """Shared per-lane queues: work stealing, supervision, elasticity.

    The capability home for everything that needs a shared queue —
    fault injection, autoscaling, virtual-time process admission —
    realized inline as a deterministic DES (``serial``-resolved) or on
    supervised worker processes (``process``-resolved).
    """

    name = "shared-admission"
    capabilities = frozenset(
        {"sharded", "work-stealing", "fault-injection", "autoscale",
         "streaming", "watermarks", "virtual-time"}
    )

    def serve(self, door: FrontDoor) -> ServingReport:
        return self.runtime._serve_shared(door)
