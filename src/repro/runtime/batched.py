"""Lockstep multi-clip execution and workload-level results.

:class:`BatchedPipeline` advances every clip of a workload one frame at a
time, in lockstep, collapsing per-clip work into whole-batch calls at
every stage of the frame lifecycle:

* **RFBME** — the motion estimations of all ready clips run as one
  :meth:`~repro.core.rfbme.RFBMEEngine.estimate_batch` call (one compiled
  producer pass over the stacked pairs, one vectorized consumer).
* **Key frames** — clips whose policy chose precise execution run the
  CNN prefix as one batched
  :class:`~repro.nn.inference.InferencePlan` call instead of B
  batch-of-1 forwards.
* **Predicted frames** — stored activations are stacked and warped by
  one :func:`~repro.core.warp.warp_activation_batch` call (cached
  coordinate grids, four gathers for the whole batch).
* **Suffix** — the per-frame CNN tail runs once over the concatenated
  key and predicted activations.

Each step executes as the declared stage graph of
:func:`~repro.runtime.stage_graph.frame_lifecycle_graph` over a
:class:`~repro.core.stages.LaneState` — the same graph the serving
workers run.  Key-frame decisions stay per clip, and every batched
stage is bitwise equal to its per-clip form (the inference plan keeps
BLAS calls at serial shapes unless fusing is proven bit-identical on
the host), so a lockstep run reproduces the serial
:meth:`~repro.core.EVA2Pipeline.run_clips` results exactly: same
outputs, same key-frame decisions, same op counts.  Executor
construction, policy setup, and all workspace allocation happen once per
workload instead of per clip (or per frame).  A ``cnn_engine="legacy"``
spec is refused: the layer-by-layer engine is the serial seed oracle.

:class:`WorkloadResult` aggregates the per-clip
:class:`~repro.core.pipeline.PipelineResult` records with the throughput
statistics (frames/sec, key fraction, total adder ops) that the CLI and
the runtime benchmarks report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.pipeline import FrameRecord, PipelineResult
from ..core.stages import LaneSlot, LaneState, PlanHandle, StepBatch
from ..hardware.fixed_point import QuantSavings
from ..nn.inference import quantized_savings, resolve_plan_dtype
from ..video.generator import VideoClip
from .prefix_service import PrefixService
from .scheduler import single_blas_thread
from .spec import PipelineSpec
from .stage_graph import StageExecutor, frame_lifecycle_graph

__all__ = [
    "WorkloadResult",
    "BatchedPipeline",
    "run_workload",
    "execute_batched_step",
]

def execute_batched_step(plan, entries) -> List[FrameRecord]:
    """One lockstep step with whole-batch CNN execution.

    ``entries`` is a sequence of ``(executor, policy, frame, frame_index,
    estimation)`` tuples — one per clip taking part in this step, where
    ``frame_index`` is the clip-local frame number (policies see the same
    index they would in a serial run) and ``estimation`` is the clip's
    RFBME result for this frame (None before its first key frame).  All
    executors must share one network, target, and AMC config, and
    ``plan`` must have capacity for ``len(entries)``.

    This is now a thin compatibility wrapper over the stage graph
    (:func:`~repro.runtime.stage_graph.frame_lifecycle_graph`): it builds
    a transient :class:`~repro.core.stages.LaneState` from the entries,
    seeds the precomputed estimations (so the ``rfbme`` stage is
    skipped), and runs the remaining stages.  Every stage is bitwise
    equal to the per-clip path, so the returned records — aligned with
    ``entries`` — match serial execution exactly.
    """
    state = LaneState(
        slots=[
            LaneSlot(executor=executor, policy=policy, cursor=index)
            for executor, policy, _, index, _ in entries
        ]
    )
    batch = StepBatch(
        state=state,
        positions=range(len(entries)),
        frames=[frame for _, _, frame, _, _ in entries],
        plan=plan,
    )
    env = frame_lifecycle_graph().run(
        batch, seed={"estimations": [entry[4] for entry in entries]}
    )
    return env["records"]


@dataclass
class WorkloadResult:
    """All per-clip results of one workload plus throughput accounting."""

    results: List[PipelineResult]
    #: wall-clock seconds spent executing (excludes clip generation).
    wall_seconds: float
    #: which execution path produced this ("serial", "lockstep", ...).
    path: str
    #: serving shards used (1 for serial and lockstep).
    workers: int = 1
    #: lifecycle steps executed (0 for paths without a step executor).
    steps: int = 0
    #: prefix executions that fused requests from more than one lane.
    prefix_fused_batches: int = 0
    #: content-addressed prefix cache hits (0 when the cache is off).
    prefix_cache_hits: int = 0
    #: prefix cache misses (counted only when a cache is configured).
    prefix_cache_misses: int = 0
    #: entries evicted from the prefix cache by the LRU bound.
    prefix_cache_evictions: int = 0
    #: prefix MACs skipped by cache hits (hardware-model accounting).
    prefix_saved_macs: int = 0
    #: plan family the CNN ran under ("float64", "float32", "int8", "q16").
    dtype: str = "float64"
    #: estimated MAC-energy / traffic savings for quantized dtypes.
    quant_savings: Optional[QuantSavings] = None

    @property
    def num_clips(self) -> int:
        return len(self.results)

    @property
    def total_frames(self) -> int:
        return sum(len(result) for result in self.results)

    @property
    def frames_per_second(self) -> float:
        return self.total_frames / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def num_key_frames(self) -> int:
        return sum(result.num_key_frames for result in self.results)

    @property
    def key_fraction(self) -> float:
        """Fraction of all frames executed precisely (the paper's 'keys')."""
        return self.num_key_frames / max(self.total_frames, 1)

    @property
    def total_estimation_ops(self) -> int:
        """Total RFBME adder ops across the workload (energy-model input)."""
        return sum(
            record.estimation_ops.total
            for result in self.results
            for record in result.records
            if record.estimation_ops is not None
        )

    def outputs(self) -> np.ndarray:
        """(total_frames, num_outputs) network outputs, clip-major order."""
        if not self.results:
            return np.empty((0, 0))
        return np.concatenate([result.outputs() for result in self.results])

    def key_mask(self) -> np.ndarray:
        """(total_frames,) key-frame decisions, clip-major order."""
        if not self.results:
            return np.empty(0, dtype=bool)
        return np.concatenate([result.key_mask() for result in self.results])

    def matches(self, other: "WorkloadResult") -> bool:
        """Whether two runs produced identical outputs, decisions, and ops.

        The equivalence check the runtime benchmark enforces between the
        serial and batched/vectorized paths.
        """
        return (
            self.total_frames == other.total_frames
            and np.array_equal(self.key_mask(), other.key_mask())
            and np.array_equal(self.outputs(), other.outputs())
            and self.total_estimation_ops == other.total_estimation_ops
        )

    def summary_rows(self) -> List[List[object]]:
        """Rows for the CLI / bench summary table."""
        return [
            ["path", self.path],
            ["clips", self.num_clips],
            ["frames", self.total_frames],
            ["wall s", round(self.wall_seconds, 3)],
            ["frames/s", round(self.frames_per_second, 1)],
            ["key fraction", round(self.key_fraction, 3)],
            ["RFBME adds", self.total_estimation_ops],
        ] + (
            [["prefix batches fused", self.prefix_fused_batches]]
            if self.prefix_fused_batches
            else []
        ) + (
            [
                [
                    "prefix cache hits/misses",
                    f"{self.prefix_cache_hits}/{self.prefix_cache_misses}",
                ]
            ]
            if self.prefix_cache_hits or self.prefix_cache_misses
            else []
        ) + (
            [["prefix MMACs saved", round(self.prefix_saved_macs / 1e6, 1)]]
            if self.prefix_saved_macs
            else []
        ) + (
            [["dtype", self.dtype]] if self.dtype != "float64" else []
        ) + (
            [
                [
                    "est. MAC energy ratio",
                    round(self.quant_savings.mac_energy_ratio, 2),
                ],
                [
                    "est. traffic ratio",
                    round(self.quant_savings.traffic_ratio, 2),
                ],
            ]
            if self.quant_savings is not None
            else []
        )


class BatchedPipeline:
    """Run a multi-clip workload in lockstep with batched hot paths.

    CNN execution (prefix, warp, suffix) runs as whole-batch calls; a
    ``cnn_engine="legacy"`` spec raises
    :class:`~repro.runtime.spec.LegacyEngineError`.

    ``prefix_cache_mb`` > 0 attaches a content-addressed
    :class:`~repro.runtime.prefix_service.PrefixService` cache to every
    step: key frames whose pixels were already run through this
    network's prefix reuse the stored activation (bit-identical by
    construction).  Lockstep already batches coincident key frames
    within a step, so the service runs with coalescing off — the cache
    is the knob that pays here.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        prefix_cache_mb: float = 0.0,
    ):
        spec.require_planned("BatchedPipeline")
        self.spec = spec
        if prefix_cache_mb < 0:
            raise ValueError(
                f"prefix_cache_mb must be >= 0, got {prefix_cache_mb}"
            )
        self.prefix_cache_mb = float(prefix_cache_mb)

    @single_blas_thread()
    def run_workload(self, clips: Sequence[VideoClip]) -> WorkloadResult:
        """Process every clip on one BLAS thread; bit-identical to the
        serial path, which keeps the caller's pool."""
        start = time.perf_counter()
        network = self.spec.shared_network()  # executors never mutate it
        # One slot per clip.  Slot 0's executor lends its RFBME engine to
        # the whole lane (identical geometry, shared scratch workspace).
        state = LaneState(
            slots=[
                LaneSlot(
                    executor=self.spec.build_executor(network),
                    policy=self.spec.build_policy(),
                )
                for _ in clips
            ],
            plan=PlanHandle(network, self.spec.dtype),
        )
        for slot in state.slots:
            slot.executor.reset()
            slot.policy.reset()
        executor = StageExecutor(frame_lifecycle_graph())
        plan = state.plan.resolve(len(clips)) if clips else None
        # Lockstep already fuses coincident key frames within a step, so
        # the service is pure cache here (coalesce off).
        service = (
            PrefixService(coalesce=False, cache_mb=self.prefix_cache_mb)
            if self.prefix_cache_mb > 0 and plan is not None
            else None
        )

        # Clip lengths fix each step's positions; frame index == cursor.
        max_frames = max((len(clip) for clip in clips), default=0)
        records: List[List[FrameRecord]] = [[] for _ in clips]
        for index in range(max_frames):
            positions = [i for i in range(len(clips)) if index < len(clips[i])]
            batch = StepBatch(
                state=state,
                positions=positions,
                frames=[clips[i].frames[index] for i in positions],
                plan=plan,
                prefix_service=service,
            )
            env = executor.step(batch)
            for k, i in enumerate(positions):
                records[i].append(env["records"][k])
                state.slots[i].cursor += 1
        results = [PipelineResult(records=r) for r in records]
        wall = time.perf_counter() - start
        return WorkloadResult(
            results=results,
            wall_seconds=wall,
            path="lockstep",
            steps=max_frames,
            prefix_fused_batches=service.stats.fused_batches if service else 0,
            prefix_cache_hits=service.stats.hits if service else 0,
            prefix_cache_misses=service.stats.misses if service else 0,
            prefix_cache_evictions=service.stats.evictions if service else 0,
            prefix_saved_macs=service.stats.saved_macs if service else 0,
            dtype=resolve_plan_dtype(self.spec.dtype),
            quant_savings=quantized_savings(network, self.spec.dtype),
        )


def run_workload(
    spec: PipelineSpec,
    clips: Sequence[VideoClip],
    batch: bool = True,
    prefix_cache_mb: float = 0.0,
) -> WorkloadResult:
    """Execute a workload in lockstep (``batch``, default) or serially.

    ``prefix_cache_mb`` forwards to :class:`BatchedPipeline` (> 0
    enables the content-addressed prefix cache on the lockstep path;
    the serial path ignores it).  Both paths return identical per-clip
    results; only the serial path runs a ``cnn_engine="legacy"`` spec.
    """
    lockstep = (
        BatchedPipeline(spec, prefix_cache_mb=prefix_cache_mb) if batch else None
    )
    dtype = resolve_plan_dtype(spec.dtype)
    savings = quantized_savings(spec.shared_network(), spec.dtype)
    if lockstep is not None:
        return lockstep.run_workload(clips)
    start = time.perf_counter()
    results = spec.build().run_clips(clips)
    wall = time.perf_counter() - start
    return WorkloadResult(
        results=results,
        wall_seconds=wall,
        path="serial",
        dtype=dtype,
        quant_savings=savings,
    )
