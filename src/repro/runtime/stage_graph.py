"""Declared stage graphs over the frame lifecycle — and their executor.

:class:`StageGraph` turns the lockstep step from an inlined call
sequence into a *schedulable object*: named :class:`Stage`\\ s with typed
dataflow inputs/outputs **and** declared :class:`~repro.core.stages`
resource write sets, topologically scheduled from their
declarations (declaration order only breaks ties), validated at
construction, and executed over a shared value environment.  The stage
bodies are the pure functions of :mod:`repro.core.stages`; this module
declares how they wire together and *when* they run.

One graph covers the lifecycle, ``rfbme → decide → cnn_prefix → warp →
cnn_suffix → record``: the key-frame branch runs the batched CNN prefix,
the predicted branch warps stored activations, and one suffix call
covers both.

Validation raises *named* errors so callers can tell failure modes
apart: :class:`UndeclaredInputError` (an input no stage produces),
:class:`DuplicateOutputError` (two producers for one value),
:class:`StageCycleError` (no topological order exists), and — at run
time, opt-in — :class:`WriteSetViolationError` (a stage mutated lane
state it never declared).

**Execution.**  :class:`StageExecutor` runs a graph one step at a time,
split in two phases at the ``cnn_prefix`` barrier: :meth:`~StageExecutor.
begin_step` runs everything up to the key-frame decisions, and
:meth:`~StageExecutor.finish_step` runs the CNN stages onward.  A serve
round begins every lane's step, lets a shared
:class:`~repro.runtime.prefix_service.PrefixService` fuse their key
frames, then finishes each lane; :meth:`~StageExecutor.step` is exactly
the two phases back to back, so both shapes are bit-identical to
running the schedule straight through.

Seeding: :meth:`StageGraph.run` accepts precomputed values; a stage
whose outputs are all seeded is skipped.  That is how callers that
already ran RFBME (e.g. :func:`~repro.runtime.batched.
execute_batched_step`'s entries) reuse the rest of the graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import stages as _stages
from ..core.stages import CHECKED_RESOURCES, StepBatch, fingerprint_resource

__all__ = [
    "Stage",
    "StageGraph",
    "StageExecutor",
    "frame_lifecycle_graph",
    "StageGraphError",
    "StageCycleError",
    "UndeclaredInputError",
    "DuplicateOutputError",
    "WriteSetViolationError",
]

#: the seed value every graph starts from (the step's working set).
_SEED = "batch"


class StageGraphError(ValueError):
    """Base class for stage-graph declaration and execution errors."""


class UndeclaredInputError(StageGraphError):
    """A stage consumes a value that no stage produces (and no seed supplies)."""


class DuplicateOutputError(StageGraphError):
    """Two stages declare the same output value."""


class StageCycleError(StageGraphError):
    """The declared dataflow has no topological order."""


class WriteSetViolationError(StageGraphError):
    """A stage mutated a lane-state resource outside its declared write set."""


@dataclass(frozen=True)
class Stage:
    """One declared stage: a pure function with named inputs/outputs.

    ``writes`` is the stage's declared :class:`~repro.core.stages`
    resource write set — defaulted from the ``writes`` attribute its
    function was declared with (see ``core.stages._effects``), empty
    otherwise.  Dataflow names order stages within a step; the write set
    is what :meth:`StageGraph.run` checks with ``enforce_writes``.
    """

    name: str
    fn: Callable
    #: environment names passed positionally to ``fn``.
    inputs: Tuple[str, ...]
    #: environment names bound to ``fn``'s return value (one name binds
    #: the value itself; several unpack it).
    outputs: Tuple[str, ...]
    #: lane-state resources the stage may mutate.
    writes: frozenset = field(default=None)

    def __post_init__(self):
        if not self.outputs:
            raise StageGraphError(f"stage {self.name!r} declares no outputs")
        if self.writes is None:
            object.__setattr__(
                self, "writes", frozenset(getattr(self.fn, "writes", ()))
            )


class StageGraph:
    """A validated, topologically scheduled set of stages.

    Stages may be declared in any order; construction builds the
    dataflow schedule from their inputs/outputs (Kahn's algorithm,
    declaration order breaking ties, so an already-ordered declaration
    executes exactly as written).  Validation names its failure modes:
    every input must be the ``batch`` seed or some stage's output
    (:class:`UndeclaredInputError`), no two stages may produce the same
    value (:class:`DuplicateOutputError`), and the dependency relation
    must be acyclic (:class:`StageCycleError`) — the properties that
    make the graph safe to reschedule.
    """

    def __init__(self, graph_stages: Sequence[Stage]):
        declared = tuple(graph_stages)
        producers: Dict[str, Stage] = {}
        for stage in declared:
            for name in stage.outputs:
                if name == _SEED or name in producers:
                    raise DuplicateOutputError(
                        f"stage {stage.name!r} would redefine {[name]}"
                    )
                producers[name] = stage
        for stage in declared:
            missing = [
                name
                for name in stage.inputs
                if name != _SEED and name not in producers
            ]
            if missing:
                raise UndeclaredInputError(
                    f"stage {stage.name!r} consumes {missing} which no "
                    f"stage produces (producible: "
                    f"{sorted(producers) + [_SEED]})"
                )
        # Kahn's algorithm, stable on declaration order.
        schedule: List[Stage] = []
        available = {_SEED}
        remaining = list(declared)
        while remaining:
            ready = next(
                (
                    stage
                    for stage in remaining
                    if all(name in available for name in stage.inputs)
                ),
                None,
            )
            if ready is None:
                cycle = [stage.name for stage in remaining]
                raise StageCycleError(
                    f"stages {cycle} form a dependency cycle: none of "
                    f"their input sets is satisfiable"
                )
            remaining.remove(ready)
            available.update(ready.outputs)
            schedule.append(ready)
        self.stages: Tuple[Stage, ...] = tuple(schedule)
        self.produces = frozenset(available - {_SEED})

    def __iter__(self):
        return iter(self.stages)

    # ------------------------------------------------------------------ #
    def _run_stages(
        self,
        stages: Sequence[Stage],
        env: Dict[str, object],
        enforce_writes: bool = False,
    ) -> None:
        """Execute ``stages`` over ``env``, skipping fully seeded ones."""
        for stage in stages:
            if all(name in env for name in stage.outputs):
                continue
            if enforce_writes:
                batch = env.get(_SEED)
                guarded = [
                    resource
                    for resource in CHECKED_RESOURCES
                    if resource not in stage.writes
                ]
                before = {
                    resource: fingerprint_resource(batch, resource)
                    for resource in guarded
                }
            result = stage.fn(*[env[name] for name in stage.inputs])
            if enforce_writes:
                for resource in guarded:
                    if fingerprint_resource(batch, resource) != before[resource]:
                        raise WriteSetViolationError(
                            f"stage {stage.name!r} mutated resource "
                            f"{resource!r} outside its declared write set "
                            f"{sorted(stage.writes)}"
                        )
            if len(stage.outputs) == 1:
                env[stage.outputs[0]] = result
            else:
                env.update(zip(stage.outputs, result))

    def run(
        self,
        batch: StepBatch,
        seed: Optional[Mapping[str, object]] = None,
        enforce_writes: bool = False,
    ) -> Dict[str, object]:
        """Execute the graph for one step; returns the full environment.

        ``seed`` supplies precomputed values; stages whose outputs are
        all present (seeded) are skipped, which keeps re-running work the
        caller already did impossible by construction.
        ``enforce_writes`` fingerprints the checked lane-state resources
        around every stage and raises :class:`WriteSetViolationError` on
        an undeclared mutation — a debugging/testing mode, off on hot
        paths.
        """
        env: Dict[str, object] = {_SEED: batch}
        if seed:
            env.update(seed)
        self._run_stages(self.stages, env, enforce_writes=enforce_writes)
        return env


class StageExecutor:
    """Step executor over one :class:`StageGraph`, split at a barrier.

    Each step runs the graph's schedule once, sequentially, in two
    phases: :meth:`begin_step` runs the stages before ``cnn_prefix`` (on
    the lifecycle graphs, ``rfbme`` and ``decide``) and
    :meth:`finish_step` runs ``cnn_prefix`` onward.  Graphs without a
    ``cnn_prefix`` stage run everything in phase 1.  The executor holds
    no per-step state, so one instance may serve a lane for its whole
    lifetime.
    """

    def __init__(self, graph: StageGraph):
        self.graph = graph
        barrier = next(
            (i for i, stage in enumerate(graph.stages)
             if stage.name == "cnn_prefix"),
            len(graph.stages),
        )
        self._pre = graph.stages[:barrier]
        self._post = graph.stages[barrier:]

    def step(
        self,
        batch: StepBatch,
        seed: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Execute one full step; returns its environment."""
        return self.finish_step(self.begin_step(batch, seed))

    def begin_step(
        self,
        batch: StepBatch,
        seed: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Phase 1 of a step: everything up to the ``cnn_prefix`` barrier.

        On the lifecycle graphs the returned env already holds this
        step's final ``decisions``.  A serve round may ``begin_step``
        every lane, hand their key-frame requests to a shared
        :class:`~repro.runtime.prefix_service.PrefixService`, flush it
        once, and only then :meth:`finish_step` each lane.
        """
        env: Dict[str, object] = {_SEED: batch}
        if seed:
            env.update(seed)
        self.graph._run_stages(self._pre, env)
        return env

    def finish_step(self, env: Dict[str, object]) -> Dict[str, object]:
        """Phase 2 of a step: the barrier onward.

        ``cnn_prefix`` consults the batch's prefix service, if any, for
        rows staged by the round's flush.
        """
        self.graph._run_stages(self._post, env)
        return env


@functools.lru_cache(maxsize=None)
def frame_lifecycle_graph() -> StageGraph:
    """The EVA2 frame lifecycle as a stage graph.

    Whole-batch CNN execution: one prefix call for coincident key
    frames, one warp batch, one suffix call.  The graph is a stateless
    declaration, so it is built once and shared by every caller
    (lockstep and serving run the same object).
    """
    return StageGraph([
        Stage("rfbme", _stages.stage_rfbme, ("batch",), ("estimations",)),
        Stage("decide", _stages.stage_decide, ("batch", "estimations"),
              ("decisions",)),
        Stage("cnn_prefix", _stages.stage_cnn_prefix,
              ("batch", "decisions"), ("key_acts",)),
        Stage("warp", _stages.stage_warp,
              ("batch", "decisions", "estimations"), ("pred_acts",)),
        Stage("cnn_suffix", _stages.stage_cnn_suffix,
              ("batch", "decisions", "key_acts", "pred_acts"), ("outputs",)),
        Stage("record", _stages.stage_record,
              ("batch", "decisions", "estimations", "outputs"), ("records",)),
    ])
