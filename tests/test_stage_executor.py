"""Stage-graph scheduling and the two-phase step executor.

:class:`~repro.runtime.stage_graph.StageGraph` is a dependency-driven
schedule: stages are topologically ordered from their declared
inputs/outputs, validation failures raise *named* errors, and declared
write sets are enforced on demand.
:class:`~repro.runtime.stage_graph.StageExecutor` runs one step at a
time, split at the ``cnn_prefix`` barrier into ``begin_step`` and
``finish_step``.
"""

import pytest

from repro.core.stages import (
    ENGINE_SCRATCH,
    KEY_STATE,
    PLAN_SCRATCH,
    POLICY_STATE,
)
from repro.runtime import (
    ClipRequest,
    DuplicateOutputError,
    LaneWorker,
    PipelineSpec,
    Stage,
    StageCycleError,
    StageExecutor,
    StageGraph,
    StageGraphError,
    UndeclaredInputError,
    WriteSetViolationError,
    frame_lifecycle_graph,
    synthetic_workload,
)

NETWORK = "mini_fasterm"


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK, policy="static", interval=2)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(3, num_frames=6, base_seed=4)


def _stage(name, fn, inputs, outputs, writes=()):
    return Stage(name, fn, tuple(inputs), tuple(outputs), frozenset(writes))


class TestValidationErrors:
    """Each declaration failure mode raises its own named error."""

    def test_cycle_detected(self):
        a = _stage("a", lambda batch, y: 1, ("batch", "y"), ("x",))
        b = _stage("b", lambda batch, x: 2, ("batch", "x"), ("y",))
        with pytest.raises(StageCycleError, match="cycle"):
            StageGraph([a, b])

    def test_self_cycle_detected(self):
        loop = _stage("loop", lambda batch, x: x, ("batch", "x"), ("x",))
        with pytest.raises(StageCycleError):
            StageGraph([loop])

    def test_undeclared_input(self):
        with pytest.raises(UndeclaredInputError, match="consumes"):
            StageGraph(
                [_stage("a", lambda batch, x: x, ("batch", "missing"), ("y",))]
            )

    def test_duplicate_output_producer(self):
        a = _stage("a", lambda batch: 1, ("batch",), ("x",))
        b = _stage("b", lambda batch: 2, ("batch",), ("x",))
        with pytest.raises(DuplicateOutputError, match="redefine"):
            StageGraph([a, b])

    def test_seed_name_cannot_be_produced(self):
        with pytest.raises(DuplicateOutputError):
            StageGraph([_stage("a", lambda batch: 1, ("batch",), ("batch",))])

    def test_all_named_errors_are_value_errors(self):
        for error in (StageCycleError, UndeclaredInputError,
                      DuplicateOutputError, WriteSetViolationError):
            assert issubclass(error, StageGraphError)
            assert issubclass(error, ValueError)


class TestTopologicalSchedule:
    def test_out_of_order_declaration_is_scheduled(self):
        """Declaration order no longer constrains execution order."""
        consume = _stage("consume", lambda batch, x: x + 1, ("batch", "x"),
                         ("y",))
        produce = _stage("produce", lambda batch: 41, ("batch",), ("x",))
        graph = StageGraph([consume, produce])
        assert [stage.name for stage in graph] == ["produce", "consume"]
        assert graph.run(batch=None)["y"] == 42

    def test_declaration_order_breaks_ties(self):
        stages = [
            _stage(name, lambda batch: 1, ("batch",), (f"out_{name}",))
            for name in ("c", "a", "b")
        ]
        graph = StageGraph(stages)
        assert [stage.name for stage in graph] == ["c", "a", "b"]


class TestWriteSetEnforcement:
    def _occupied_batch(self, spec, clips):
        worker = LaneWorker("default", spec, capacity=len(clips))
        for i, clip in enumerate(clips):
            worker.admit(i, ClipRequest(request_id=i, clip=clip), now=0.0)
            worker.step()
        return worker._build_batch(
            [i for i, r in enumerate(worker.residents) if r is not None]
        )

    def test_undeclared_policy_mutation_raises(self, spec, clips):
        batch = self._occupied_batch(spec, clips)

        def rogue(batch):
            batch.slot(0).policy._frames_since_key += 1  # undeclared write
            return "done"

        graph = StageGraph([_stage("rogue", rogue, ("batch",), ("x",))])
        with pytest.raises(WriteSetViolationError, match="policy_state"):
            graph.run(batch, enforce_writes=True)

    def test_undeclared_key_state_mutation_raises(self, spec, clips):
        batch = self._occupied_batch(spec, clips)

        def rogue(batch):
            batch.slot(0).executor.reset()  # drops stored key state
            return "done"

        graph = StageGraph([_stage("rogue", rogue, ("batch",), ("x",))])
        with pytest.raises(WriteSetViolationError, match="key_state"):
            graph.run(batch, enforce_writes=True)

    def test_declared_mutation_passes(self, spec, clips):
        """A stage whose write set covers its mutation is accepted."""
        batch = self._occupied_batch(spec, clips)

        def declared(batch):
            batch.slot(0).policy._frames_since_key += 1
            return "done"

        graph = StageGraph(
            [_stage("declared", declared, ("batch",), ("x",),
                    writes={POLICY_STATE})]
        )
        assert graph.run(batch, enforce_writes=True)["x"] == "done"

    def test_lifecycle_graph_honours_its_declarations(self, spec, clips):
        """The real frame lifecycle runs clean under full enforcement —
        every mutation it performs is one it declared."""
        batch = self._occupied_batch(spec, clips)
        env = frame_lifecycle_graph().run(
            batch, enforce_writes=True
        )
        assert len(env["records"]) == len(batch)

    def test_effects_default_from_stage_functions(self):
        """Stages inherit the write sets their functions declare."""
        graph = frame_lifecycle_graph()
        by_name = {stage.name: stage for stage in graph}
        assert by_name["rfbme"].writes == {ENGINE_SCRATCH}
        assert by_name["decide"].writes == {POLICY_STATE}
        assert by_name["cnn_prefix"].writes == {KEY_STATE, PLAN_SCRATCH}
        assert by_name["warp"].writes == frozenset()
        assert by_name["cnn_suffix"].writes == {PLAN_SCRATCH}
        assert by_name["record"].writes == frozenset()


class TestStageExecutor:
    def _toy_graph(self, log, barrier="b"):
        """a → ``barrier`` → c over integer 'batches'."""

        def stage_a(batch):
            log.append(("a", batch))
            return batch * 10

        def stage_b(batch, x):
            log.append((barrier, batch))
            return x + 1

        def stage_c(batch, y):
            log.append(("c", batch))
            return y * 2

        return StageGraph(
            [
                _stage("a", stage_a, ("batch",), ("x",)),
                _stage(barrier, stage_b, ("batch", "x"), ("y",)),
                _stage("c", stage_c, ("batch", "y"), ("z",)),
            ]
        )

    def test_step_runs_schedule_in_order(self):
        log = []
        env = StageExecutor(self._toy_graph(log)).step(3)
        assert env["z"] == 62
        assert log == [("a", 3), ("b", 3), ("c", 3)]

    def test_phases_split_at_cnn_prefix(self):
        """begin_step stops before the barrier; finish_step runs the
        rest — together exactly one step."""
        log = []
        executor = StageExecutor(self._toy_graph(log, barrier="cnn_prefix"))
        env = executor.begin_step(3)
        assert log == [("a", 3)] and "y" not in env
        assert executor.finish_step(env)["z"] == 62
        assert log == [("a", 3), ("cnn_prefix", 3), ("c", 3)]

    def test_graph_without_barrier_runs_in_phase_one(self):
        log = []
        executor = StageExecutor(self._toy_graph(log))
        env = executor.begin_step(3)
        assert env["z"] == 62
        assert executor.finish_step(env) is env
        assert len(log) == 3

    def test_lifecycle_barrier_follows_decide(self, spec, clips):
        """On the lifecycle graph phase 1 ends with final decisions and
        no CNN output yet."""
        batch = TestWriteSetEnforcement()._occupied_batch(spec, clips)
        executor = StageExecutor(frame_lifecycle_graph())
        env = executor.begin_step(batch)
        assert set(env) == {"batch", "estimations", "decisions"}
        assert len(executor.finish_step(env)["records"]) == len(batch)

    def test_seed_skips_stages_in_executor(self):
        log = []
        executor = StageExecutor(self._toy_graph(log))
        env = executor.step(3, seed={"x": 100})
        assert env["z"] == 202
        assert ("a", 3) not in log
