"""The frame lifecycle as pure stage functions over explicit lane state.

The paper's pipeline (Fig. 6) is a sequence of distinct phases — RFBME
motion estimation, the key-frame decision, the CNN prefix for key
frames, activation warping for predicted frames, the CNN suffix for
everyone.  Earlier releases executed that lifecycle as one opaque
function whose state lived in closures; this module makes each phase a
*pure stage function* over an explicit, picklable :class:`LaneState`, so
the runtime layer can schedule the phases (a
:class:`~repro.runtime.stage_graph.StageGraph`) and ship lane state to
worker processes (sharded serving).

Contracts:

* **Explicit state.**  A stage reads and writes only its arguments: the
  :class:`StepBatch` working set (which slots take part in this step,
  their frames, the resolved inference plan) and the values produced by
  earlier stages.  The only state mutation is the one the lifecycle
  defines — a key frame's pixels/activation being adopted by its
  executor in :func:`stage_cnn_prefix`.
* **Declared effects.**  Besides its dataflow inputs/outputs, every
  stage declares which :class:`LaneState` *resources* it writes
  (:data:`KEY_STATE`, :data:`POLICY_STATE`, :data:`ENGINE_SCRATCH`,
  :data:`PLAN_SCRATCH`).  Dataflow orders stages within a step; the
  write sets are checked by
  :meth:`StageGraph.run(enforce_writes=True)
  <repro.runtime.stage_graph.StageGraph.run>`, which fails a stage that
  mutates persistent lane state it never declared.
* **Bit identity.**  Each stage performs exactly the array operations of
  the monolithic lockstep step it was extracted from, in the same order,
  so running the stages in sequence reproduces the previous
  ``execute_batched_step`` — and therefore the serial per-clip pipeline
  — bit for bit.  ``tests/test_stages.py`` asserts the slice-by-slice
  equivalence.
* **Picklability.**  :class:`LaneState` round-trips through ``pickle``:
  executors drop their lazily rebuilt RFBME engines, networks drop their
  compiled inference plans, and :class:`PlanHandle` re-resolves the plan
  from the network's cache on the other side.  Shipping a lane to a
  worker process preserves behaviour exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .amc import AMCExecutor
from .keyframe import KeyFramePolicy
from .pipeline import FrameRecord
from .rfbme import RFBMEEngine, RFBMEResult
from .warp import scale_to_activation, warp_activation_batch

__all__ = [
    "PlanHandle",
    "LaneSlot",
    "LaneState",
    "StepBatch",
    "KEY_STATE",
    "POLICY_STATE",
    "CURSOR_STATE",
    "ENGINE_SCRATCH",
    "PLAN_SCRATCH",
    "RESOURCES",
    "CHECKED_RESOURCES",
    "fingerprint_resource",
    "stage_rfbme",
    "stage_decide",
    "stage_cnn_prefix",
    "stage_warp",
    "stage_cnn_suffix",
    "stage_record",
]

# --------------------------------------------------------------------- #
# LaneState resources (declared write sets)
# --------------------------------------------------------------------- #
#: the executors' stored key pixels and target activations.
KEY_STATE = "key_state"
#: the per-slot key-frame policies' inter-frame state.
POLICY_STATE = "policy_state"
#: the per-slot clip-local frame cursors.  Stages only ever read
#: cursors; the driver advances them between steps.
CURSOR_STATE = "cursor_state"
#: the RFBME engine's producer/consumer workspaces.  Scratch: contents
#: never outlive one stage invocation.
ENGINE_SCRATCH = "engine_scratch"
#: the compiled inference plan's im2col/GEMM scratch.  Scratch, same as
#: above.
PLAN_SCRATCH = "plan_scratch"

#: every declared resource, in a stable order.
RESOURCES = (KEY_STATE, POLICY_STATE, CURSOR_STATE, ENGINE_SCRATCH,
             PLAN_SCRATCH)

#: resources with *persistent* content, cheap enough to fingerprint —
#: what ``StageGraph.run(enforce_writes=True)`` verifies a stage left
#: untouched unless declared in its write set.  The scratch resources
#: are exempt by definition (their contents are dead between stages).
CHECKED_RESOURCES = (KEY_STATE, POLICY_STATE, CURSOR_STATE)

def _effects(writes=()):
    """Attach a declared LaneState write set to a stage function."""

    def mark(fn):
        fn.writes = frozenset(writes)
        return fn

    return mark


def fingerprint_resource(batch: "StepBatch", resource: str):
    """A cheap equality token for one checked resource of one step batch.

    Used by the write-set enforcement mode of
    :meth:`~repro.runtime.stage_graph.StageGraph.run`: two fingerprints
    differ iff the resource's observable content changed.  Returns
    ``None`` for scratch resources (exempt) and non-``StepBatch`` seeds.
    """
    import zlib

    if not isinstance(batch, StepBatch):
        return None
    if resource == KEY_STATE:
        tokens = []
        for k in range(len(batch)):
            executor = batch.slot(k).executor
            if executor.has_key:
                tokens.append(
                    (
                        zlib.crc32(executor.stored_pixels().tobytes()),
                        zlib.crc32(executor.key_activation.tobytes()),
                    )
                )
            else:
                tokens.append(None)
        return tuple(tokens)
    if resource == POLICY_STATE:
        return tuple(
            repr(vars(batch.slot(k).policy))
            if batch.slot(k).policy is not None
            else None
            for k in range(len(batch))
        )
    if resource == CURSOR_STATE:
        return tuple(batch.slot(k).cursor for k in range(len(batch)))
    return None


@dataclass
class PlanHandle:
    """Picklable reference to a network's cached inference plan.

    Holding a live :class:`~repro.nn.inference.InferencePlan` inside lane
    state would pin megabytes of scratch into every pickle and bypass
    :meth:`~repro.nn.network.Network.load_state_dict` invalidation, so
    lane state stores this handle instead and re-resolves per step — a
    dict lookup through :meth:`~repro.nn.network.Network.inference_plan`,
    which grows capacity in place when the step needs more rows.
    """

    network: object
    dtype: str = "float64"

    def resolve(self, min_batch: int = 1):
        """The live plan, grown to at least ``min_batch`` capacity."""
        return self.network.inference_plan(max_batch=min_batch, dtype=self.dtype)


@dataclass
class LaneSlot:
    """One executor slot of a lane: warm executor, policy, clip cursor.

    ``policy`` is ``None`` while the slot is free (serving keeps
    executors warm across occupants); ``cursor`` is the clip-local index
    of the next frame to serve, which is what policies must see for
    results to match a serial run.
    """

    executor: AMCExecutor
    policy: Optional[KeyFramePolicy] = None
    cursor: int = 0


@dataclass
class LaneState:
    """Picklable execution state of one lane: slots plus the plan handle.

    This is everything the stage functions need that outlives a single
    step — the warm executor slots (with their stored key pixels and
    activations), the per-slot policies and cursors, and the handle to
    the lane's compiled inference plan.  Clips and request bookkeeping
    stay with the caller; pickling a ``LaneState`` mid-stream and
    resuming on the other side continues bit-identically.
    """

    slots: List[LaneSlot] = field(default_factory=list)
    plan: Optional[PlanHandle] = None

    @property
    def engine(self) -> RFBMEEngine:
        """The lane's shared RFBME engine (slot 0's, by convention).

        All slots share one geometry, so one engine's scratch workspace
        serves the whole lane — the same sharing the serving and lockstep
        runtimes have always used.
        """
        return self.slots[0].executor.rfbme_engine

    def occupied(self) -> List[int]:
        """Slot positions currently holding a clip (policy attached)."""
        return [i for i, slot in enumerate(self.slots) if slot.policy is not None]


@dataclass
class StepBatch:
    """The working set of one lifecycle step.

    ``positions`` index into ``state.slots`` (the slots taking part in
    this step, in slot order); ``frames`` holds each position's frame at
    its current cursor; ``plan`` is the lane's resolved inference plan.

    ``prefix_service`` routes ``cnn_prefix`` through a shared
    :class:`~repro.runtime.prefix_service.PrefixService` (cross-lane
    fused batches + content-addressed cache); ``None`` keeps the
    direct per-batch ``plan.run_prefix`` call.
    """

    state: LaneState
    positions: Sequence[int]
    frames: Sequence[np.ndarray]
    plan: object
    prefix_service: Optional[object] = None

    def __len__(self) -> int:
        return len(self.positions)

    def slot(self, k: int) -> LaneSlot:
        return self.state.slots[self.positions[k]]

    def cursor(self, k: int) -> int:
        """Position ``k``'s clip-local frame index for this step."""
        return self.slot(k).cursor


# --------------------------------------------------------------------- #
# stage functions
# --------------------------------------------------------------------- #
@_effects(writes={ENGINE_SCRATCH})
def stage_rfbme(batch: StepBatch) -> List[Optional[RFBMEResult]]:
    """Batched RFBME for every slot with a stored key frame.

    Returns estimations aligned with ``batch.positions`` (``None`` for
    slots still waiting on their first key frame).  One
    :meth:`~repro.core.rfbme.RFBMEEngine.estimate_batch` call covers the
    whole step on the lane engine, exactly as the monolithic lockstep
    step did.
    """
    ready = [
        k for k in range(len(batch)) if batch.slot(k).executor.has_key
    ]
    results = batch.state.engine.estimate_batch(
        [
            (batch.slot(k).executor.stored_pixels(), batch.frames[k])
            for k in ready
        ]
    )
    estimations: List[Optional[RFBMEResult]] = [None] * len(batch)
    for k, estimation in zip(ready, results):
        estimations[k] = estimation
    return estimations


@_effects(writes={POLICY_STATE})
def stage_decide(
    batch: StepBatch, estimations: Sequence[Optional[RFBMEResult]]
) -> List[bool]:
    """Per-clip key-frame decisions at clip-local cursors."""
    return [
        batch.slot(k).policy.decide(batch.cursor(k), estimations[k])
        for k in range(len(batch))
    ]


@_effects(writes={KEY_STATE, PLAN_SCRATCH})
def stage_cnn_prefix(
    batch: StepBatch, decisions: Sequence[bool]
) -> Optional[np.ndarray]:
    """One batched CNN-prefix call for this step's key frames.

    Each key slot adopts its row (pixels + target activation) — the
    state mutation the lifecycle defines for a key frame.  Returns the
    stacked key activations, or ``None`` when no slot chose a key.
    """
    keys = [k for k, is_key in enumerate(decisions) if is_key]
    if not keys:
        return None
    if batch.prefix_service is not None:
        key_acts = batch.prefix_service.run_prefix(batch, keys)
    else:
        target = batch.slot(keys[0]).executor.target
        frames = np.stack([batch.frames[k] for k in keys])[:, None]
        key_acts = batch.plan.run_prefix(frames, target)
    for row, k in enumerate(keys):
        batch.slot(k).executor.adopt_key(batch.frames[k], key_acts[row])
    return key_acts


@_effects()
def stage_warp(
    batch: StepBatch,
    decisions: Sequence[bool],
    estimations: Sequence[Optional[RFBMEResult]],
) -> Optional[np.ndarray]:
    """Stacked predicted activations: warped (or memoized) key state.

    One :func:`~repro.core.warp.warp_activation_batch` call covers every
    predicted slot; memoize mode reuses the stacked stored activations
    untouched (§IV-E1).  Returns ``None`` when every slot chose a key.
    """
    preds = [k for k, is_key in enumerate(decisions) if not is_key]
    if not preds:
        return None
    executor0 = batch.slot(preds[0]).executor
    stored = np.stack([batch.slot(k).executor.key_activation for k in preds])
    if executor0.config.mode == "memoize":
        return stored
    fields = [
        scale_to_activation(estimations[k].field, batch.slot(k).executor.rf)
        for k in preds
    ]
    return warp_activation_batch(
        stored,
        fields,
        interpolation=executor0.config.interpolation,
        fixed_point=executor0.config.fixed_point,
    )


@_effects(writes={PLAN_SCRATCH})
def stage_cnn_suffix(
    batch: StepBatch,
    decisions: Sequence[bool],
    key_acts: Optional[np.ndarray],
    pred_acts: Optional[np.ndarray],
) -> np.ndarray:
    """One CNN-suffix call over the concatenated key/predicted rows.

    Returns outputs aligned with ``batch.positions`` (rows copied back
    from the key-then-predicted execution order, bitwise unchanged).
    """
    if key_acts is not None and pred_acts is not None:
        suffix_in = np.concatenate(
            [key_acts, pred_acts.astype(key_acts.dtype, copy=False)]
        )
    elif key_acts is not None:
        suffix_in = key_acts
    else:
        suffix_in = pred_acts
    target = batch.slot(0).executor.target
    outputs = batch.plan.run_suffix(suffix_in, target)

    keys = [k for k, is_key in enumerate(decisions) if is_key]
    preds = [k for k, is_key in enumerate(decisions) if not is_key]
    aligned = np.empty((len(batch),) + outputs.shape[1:], dtype=outputs.dtype)
    for row, k in enumerate(keys + preds):
        aligned[k] = outputs[row]
    return aligned


@_effects()
def stage_record(
    batch: StepBatch,
    decisions: Sequence[bool],
    estimations: Sequence[Optional[RFBMEResult]],
    outputs: np.ndarray,
) -> List[FrameRecord]:
    """Per-frame trace records, aligned with ``batch.positions``."""
    return [
        FrameRecord.from_step(
            batch.cursor(k),
            decisions[k],
            outputs[k : k + 1],
            estimations[k],
        )
        for k in range(len(batch))
    ]
