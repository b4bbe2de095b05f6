"""Runtime-layer tests: spec building, workload construction, shard
backends, and the lockstep BatchedPipeline — including the contract that
every execution path produces results identical to the serial loop."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import EVA2Pipeline, MatchErrorPolicy, StaticPolicy
from repro.runtime import (
    BatchedPipeline,
    ClipRequest,
    LaneWorker,
    LegacyEngineError,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    poisson_arrival_times,
    run_workload,
    slack_deadlines,
    synthetic_workload,
)
from repro.nn.inference import InferencePlan
from repro.runtime import scheduler
from repro.runtime import serving as serving_module
from repro.runtime.scheduler import _openblas_thread_api, single_blas_thread
from repro.runtime.supervision import SupervisedShardTask, _run_supervised_shard

NETWORK = "mini_fasterm"


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(4, num_frames=6, base_seed=7)


@pytest.fixture(scope="module")
def serial_result(spec, workload):
    return run_workload(spec, workload, batch=False)


class TestPipelineSpec:
    def test_build_produces_pipeline(self, spec):
        pipeline = spec.build()
        assert isinstance(pipeline, EVA2Pipeline)
        assert isinstance(pipeline.policy, MatchErrorPolicy)

    def test_policy_selection(self):
        assert isinstance(
            PipelineSpec(policy="static", interval=3).build_policy(), StaticPolicy
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec(policy="oracle")

    def test_bad_rfbme_backend_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineSpec(rfbme_backend="batch")

    def test_bad_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineSpec(mode="teleport")

    def test_unknown_network_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineSpec(network="mini_fastrm")

    def test_paper_mode_defaults(self):
        assert PipelineSpec(network="mini_alexnet").amc_config().mode == "memoize"
        assert PipelineSpec(network="mini_fasterm").amc_config().mode == "warp"

    def test_picklable(self, spec):
        import pickle

        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSyntheticWorkload:
    def test_deterministic(self):
        a = synthetic_workload(3, num_frames=4, base_seed=5)
        b = synthetic_workload(3, num_frames=4, base_seed=5)
        for clip_a, clip_b in zip(a, b):
            np.testing.assert_array_equal(clip_a.frames, clip_b.frames)

    def test_mixes_scenarios(self):
        clips = synthetic_workload(6, num_frames=4)
        assert len({clip.scenario for clip in clips}) > 1

    def test_scenario_restriction(self):
        clips = synthetic_workload(3, num_frames=4, scenarios=["static"])
        assert {clip.scenario for clip in clips} == {"static"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            synthetic_workload(0)


class TestPoissonArrivals:
    def test_seed_stability(self):
        assert poisson_arrival_times(16, rate=100.0, seed=9) == \
            poisson_arrival_times(16, rate=100.0, seed=9)

    def test_seeds_diverge(self):
        assert poisson_arrival_times(16, rate=100.0, seed=1) != \
            poisson_arrival_times(16, rate=100.0, seed=2)

    def test_monotone_nondecreasing(self):
        arrivals = poisson_arrival_times(32, rate=250.0, seed=4)
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert all(t > 0 for t in arrivals)

    def test_zero_arrivals_is_empty(self):
        assert poisson_arrival_times(0, rate=10.0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="num_arrivals"):
            poisson_arrival_times(-1, rate=10.0)

    @pytest.mark.parametrize("rate", [0.0, -3.5])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            poisson_arrival_times(4, rate=rate)


class TestSlackDeadlines:
    def test_plain_slack(self):
        assert slack_deadlines([0.0, 0.5, 1.25], slack=0.1) == \
            [0.1, 0.6, 1.35]

    def test_jitter_bounds_and_determinism(self):
        arrivals = poisson_arrival_times(24, rate=100.0, seed=3)
        a = slack_deadlines(arrivals, slack=0.2, jitter=0.05, seed=8)
        b = slack_deadlines(arrivals, slack=0.2, jitter=0.05, seed=8)
        assert a == b
        for arrival, deadline in zip(arrivals, a):
            assert arrival + 0.2 <= deadline < arrival + 0.25

    def test_empty_arrivals(self):
        assert slack_deadlines([], slack=1.0) == []

    def test_nonpositive_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            slack_deadlines([0.0], slack=0.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            slack_deadlines([0.0], slack=1.0, jitter=-0.1)


def _assert_identical(result, reference):
    assert result.matches(reference)
    for got, want in zip(result.results, reference.results):
        np.testing.assert_array_equal(got.outputs(), want.outputs())
        np.testing.assert_array_equal(got.key_mask(), want.key_mask())


def _serve_sharded(spec, clips, serve_workers, backend="process"):
    """A sharded serve, as a WorkloadResult."""
    runtime = ServingRuntime(
        spec,
        ServerConfig(max_batch=2, serve_workers=serve_workers,
                     shard_backend=backend),
    )
    requests = [
        ClipRequest(request_id=i, clip=clip) for i, clip in enumerate(clips)
    ]
    return runtime.serve(requests).workload_result()


class TestSchedulerBackends:
    """Shard backend resolution (``ServerConfig.resolve_shard_backend``)
    and the sharded serves it selects."""

    def test_serial(self, spec, workload, serial_result):
        _assert_identical(
            _serve_sharded(spec, workload, 2, backend="serial"), serial_result
        )

    def test_processes_match_serial(self, spec, workload, serial_result):
        _assert_identical(_serve_sharded(spec, workload, 2), serial_result)

    def test_process_backend_mid_run_completion(self, spec):
        """Ragged-length clips finish at different times mid-run on each
        shard; per-clip results stay identical and input-ordered."""
        mixed = (
            synthetic_workload(2, num_frames=8, base_seed=2)
            + synthetic_workload(3, num_frames=3, base_seed=21)
            + synthetic_workload(2, num_frames=5, base_seed=33)
        )
        serial = run_workload(spec, mixed, batch=False)
        pooled = _serve_sharded(spec, mixed, 2)
        assert [len(r) for r in pooled.results] == [8, 8, 3, 3, 3, 5, 5]
        _assert_identical(pooled, serial)

    def test_process_backend_more_workers_than_clips(self, spec, workload,
                                                     serial_result):
        """A pool wider than the workload builds no empty shards and
        stays exact."""
        pooled = _serve_sharded(spec, workload, len(workload) + 2)
        _assert_identical(pooled, serial_result)

    def test_auto_resolution(self):
        assert ServerConfig(serve_workers=1).resolve_shard_backend(8) == "serial"
        assert ServerConfig(
            serve_workers=4, shard_backend="process"
        ).resolve_shard_backend(8) == "process"
        assert ServerConfig(serve_workers=4).resolve_shard_backend(1) == "serial"

    def test_auto_counts_usable_cores(self, monkeypatch):
        """``auto`` sizes against the cores this process may run on, not
        the host's: one usable core of eight resolves to serial."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ServerConfig(serve_workers=2).resolve_shard_backend(2) == "serial"

    def test_explicit_backend_with_no_workers_runs_serially(self):
        """An explicit pool backend with one worker is the inline path,
        not a one-process pool."""
        config = ServerConfig(shard_backend="process")
        assert config.resolve_shard_backend(4) == "serial"

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="shard_backend"):
            ServerConfig(shard_backend="quantum")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(serve_workers=-1)


@pytest.fixture
def blas_pool():
    """The OpenBLAS pool size getter, with the pool widened to two
    threads for the test (so narrowing shows even where the default
    pool is one) and the caller's pool restored afterwards."""
    api = _openblas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS set_num_threads symbol in this process")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def plan_pools(monkeypatch, blas_pool):
    """The pool size seen by every ``InferencePlan._execute`` call."""
    seen = []
    execute = InferencePlan._execute

    def spy(plan, x, start, stop):
        seen.append(blas_pool())
        return execute(plan, x, start, stop)

    monkeypatch.setattr(InferencePlan, "_execute", spy)
    return seen


class TestSingleBlasThread:
    def test_one_thread_inside_then_restored(self, blas_pool):
        with single_blas_thread():
            assert blas_pool() == 1
        assert blas_pool() == 2

    def test_restored_when_the_block_raises(self, blas_pool):
        with pytest.raises(RuntimeError, match="boom"):
            with single_blas_thread():
                assert blas_pool() == 1
                raise RuntimeError("boom")
        assert blas_pool() == 2

    def test_nests(self, blas_pool):
        with single_blas_thread():
            with single_blas_thread():
                assert blas_pool() == 1
            assert blas_pool() == 1
        assert blas_pool() == 2

    def test_no_op_without_thread_api(self, monkeypatch):
        api = _openblas_thread_api()
        before = api[0]() if api is not None else None
        monkeypatch.setattr(scheduler, "_openblas_thread_api", lambda: None)
        with single_blas_thread():
            if api is not None:
                assert api[0]() == before  # left alone
        with pytest.raises(RuntimeError, match="boom"):
            with single_blas_thread():
                raise RuntimeError("boom")

    def test_lookup_is_cached(self):
        assert _openblas_thread_api() is _openblas_thread_api()

    @pytest.mark.parametrize("batch,pool", [(True, 1), (False, 2)])
    def test_run_workload_pool(self, spec, workload, plan_pools, blas_pool,
                               batch, pool):
        """Lockstep plan calls run on one thread; the serial oracle
        keeps the caller's pool.  Either way the caller's pool is left
        as it was."""
        run_workload(spec, workload, batch=batch)
        assert plan_pools and set(plan_pools) == {pool}
        assert blas_pool() == 2

    @pytest.mark.parametrize("config", [
        ServerConfig(max_batch=2),
        ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial"),
    ], ids=["in_process", "shared_admission"])
    def test_serve_runs_on_one_thread(self, spec, workload, serial_result,
                                      plan_pools, blas_pool, config):
        requests = [
            ClipRequest(request_id=i, clip=clip)
            for i, clip in enumerate(workload)
        ]
        served = ServingRuntime(spec, config).serve(requests)
        assert plan_pools and set(plan_pools) == {1}
        assert blas_pool() == 2
        _assert_identical(served.workload_result(), serial_result)

    def test_forked_supervised_shard_runs_on_one_thread(
        self, spec, monkeypatch, blas_pool
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        reports = context.SimpleQueue()

        class PoolProbe:
            """Stands in for the shard's LaneWorker: reports the pool the
            shard would build and serve with, then exits the child."""

            def __init__(self, *args, **kwargs):
                reports.put(blas_pool())
                os._exit(0)

        monkeypatch.setattr(serving_module, "LaneWorker", PoolProbe)
        task = SupervisedShardTask(
            lane="a", shard=0, spec=spec, capacity=2, conn=None, requests={}
        )
        child = context.Process(target=_run_supervised_shard, args=(task,))
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert reports.get() == 1
        assert blas_pool() == 2  # the parent's pool is untouched


class TestBatchedPipeline:
    def test_lockstep_matches_serial(self, spec, workload, serial_result):
        """Default lockstep (batched RFBME + batched CNN) is bit-identical
        to the serial loop: outputs, key decisions, op counts."""
        lockstep = BatchedPipeline(spec).run_workload(workload)
        _assert_identical(lockstep, serial_result)
        assert lockstep.path == "lockstep"

    def test_batched_runtimes_reject_legacy_engine(self, workload):
        """The legacy engine is the serial oracle only: every batched
        runtime refuses it by name before building anything."""
        legacy = PipelineSpec(network=NETWORK, cnn_engine="legacy")
        for build in (
            lambda: BatchedPipeline(legacy),
            lambda: run_workload(legacy, workload, batch=True),
            lambda: ServingRuntime(legacy),
            lambda: ServingRuntime({"a": PipelineSpec(network=NETWORK),
                                    "b": legacy}),
            lambda: LaneWorker("default", legacy, capacity=2),
        ):
            with pytest.raises(LegacyEngineError, match="batch=False"):
                build()

    def test_legacy_oracle_matches_planned_serial(self, workload,
                                                  serial_result):
        """The seed oracle's CNN half (the layer-by-layer legacy engine)
        and the planned engine agree bit for bit on the serial path."""
        legacy = PipelineSpec(network=NETWORK, cnn_engine="legacy")
        _assert_identical(
            run_workload(legacy, workload, batch=False), serial_result
        )

    def test_memoize_network_lockstep_matches_serial(self):
        """Cross-clip CNN batching with memoization (classification
        networks) is bit-identical too."""
        spec = PipelineSpec(network="mini_alexnet")
        spec.warm()
        clips = synthetic_workload(4, num_frames=6, base_seed=3)
        serial = run_workload(spec, clips, batch=False)
        lockstep = run_workload(spec, clips, batch=True)
        _assert_identical(lockstep, serial)

    def test_float32_same_decisions_bounded_outputs(self, spec, workload):
        """float32 mode: RFBME stays float64, so key decisions and op
        counts are identical; CNN outputs drift within float32 bounds."""
        f32 = PipelineSpec(network=NETWORK, dtype="float32")
        want = run_workload(spec, workload, batch=True)
        got = run_workload(f32, workload, batch=True)
        np.testing.assert_array_equal(got.key_mask(), want.key_mask())
        assert got.total_estimation_ops == want.total_estimation_ops
        np.testing.assert_allclose(
            got.outputs(), want.outputs(), rtol=2e-4, atol=2e-4
        )

    def test_float32_batched_matches_float32_serial(self, workload):
        """Within float32 mode, lockstep batching is still bit-identical
        to the float32 serial loop."""
        f32 = PipelineSpec(network=NETWORK, dtype="float32")
        serial = run_workload(f32, workload, batch=False)
        lockstep = run_workload(f32, workload, batch=True)
        _assert_identical(lockstep, serial)

    def test_float32_requires_planned_engine(self):
        with pytest.raises(ValueError):
            PipelineSpec(network=NETWORK, cnn_engine="legacy", dtype="float32")

    def test_ragged_clip_lengths(self, spec, serial_result):
        """Clips of different lengths run in lockstep without padding."""
        clips = synthetic_workload(2, num_frames=5, base_seed=1) + synthetic_workload(
            2, num_frames=3, base_seed=9
        )
        lockstep = BatchedPipeline(spec).run_workload(clips)
        serial = run_workload(spec, clips, batch=False)
        assert [len(r) for r in lockstep.results] == [5, 5, 3, 3]
        _assert_identical(lockstep, serial)

    def test_loop_backend_matches_default(self, workload, serial_result):
        """The seed loop implementation and the vectorized default agree
        end to end: outputs, key decisions, and op counts."""
        loop_spec = PipelineSpec(network=NETWORK, rfbme_backend="loop")
        loop_result = run_workload(loop_spec, workload, batch=False)
        _assert_identical(loop_result, serial_result)


class TestWorkloadResult:
    def test_throughput_stats(self, serial_result, workload):
        assert serial_result.num_clips == len(workload)
        assert serial_result.total_frames == sum(len(c) for c in workload)
        assert serial_result.frames_per_second > 0
        assert 0.0 < serial_result.key_fraction <= 1.0
        assert serial_result.total_estimation_ops > 0

    def test_outputs_shape(self, serial_result):
        outputs = serial_result.outputs()
        assert outputs.shape[0] == serial_result.total_frames
        assert serial_result.key_mask().shape == (serial_result.total_frames,)

    def test_summary_rows(self, serial_result):
        rows = dict((row[0], row[1]) for row in serial_result.summary_rows())
        assert rows["clips"] == serial_result.num_clips
        assert rows["frames"] == serial_result.total_frames

    def test_empty_workload_accessors(self):
        from repro.runtime import WorkloadResult

        empty = WorkloadResult(results=[], wall_seconds=0.0, path="serial")
        assert empty.total_frames == 0
        assert empty.outputs().shape[0] == 0
        assert empty.key_mask().shape == (0,)
        assert empty.matches(empty)

    def test_matches_detects_difference(self, spec, workload, serial_result):
        other = run_workload(
            PipelineSpec(network=NETWORK, policy="always"), workload, batch=False
        )
        assert not serial_result.matches(other)
