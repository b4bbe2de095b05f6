"""Runtime-layer tests: spec building, workload construction, scheduler
backends, and the lockstep BatchedPipeline — including the contract that
every execution path produces results identical to the serial loop."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import EVA2Pipeline, MatchErrorPolicy, StaticPolicy
from repro.runtime import (
    BatchedPipeline,
    ClipScheduler,
    PipelineSpec,
    SchedulerConfig,
    poisson_arrival_times,
    run_workload,
    slack_deadlines,
    synthetic_workload,
)
from repro.runtime.scheduler import (
    _openblas_thread_api,
    _usable_cores,
    blas_thread_share,
    limit_blas_threads,
)

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


class TestSchedulerBackends:
    def test_serial(self, spec, workload, serial_result):
        results = ClipScheduler(spec, SchedulerConfig(backend="serial")).run(workload)
        for got, want in zip(results, serial_result.results):
            np.testing.assert_array_equal(got.outputs(), want.outputs())

    def test_threads_match_serial(self, spec, workload, serial_result):
        threaded = run_workload(
            spec, workload, scheduler=SchedulerConfig(workers=2, backend="thread")
        )
        _assert_identical(threaded, serial_result)
        assert threaded.path == "thread"
        assert threaded.workers == 2

    def test_processes_match_serial(self, spec, workload, serial_result):
        pooled = run_workload(
            spec, workload, scheduler=SchedulerConfig(workers=2, backend="process")
        )
        _assert_identical(pooled, serial_result)
        assert pooled.path == "process"

    def test_process_backend_mid_run_completion(self, spec):
        """Ragged-length clips finish at different times mid-run; workers
        are recycled onto the remaining clips and per-clip results stay
        identical and input-ordered."""
        mixed = (
            synthetic_workload(2, num_frames=8, base_seed=2)
            + synthetic_workload(3, num_frames=3, base_seed=21)
            + synthetic_workload(2, num_frames=5, base_seed=33)
        )
        serial = run_workload(spec, mixed, batch=False)
        pooled = run_workload(
            spec, mixed, scheduler=SchedulerConfig(workers=2, backend="process")
        )
        assert [len(r) for r in pooled.results] == [8, 8, 3, 3, 3, 5, 5]
        _assert_identical(pooled, serial)

    def test_process_backend_more_workers_than_clips(self, spec, workload,
                                                     serial_result):
        """A pool wider than the workload leaves workers idle, not wrong."""
        pooled = run_workload(
            spec,
            workload,
            scheduler=SchedulerConfig(workers=len(workload) + 2,
                                      backend="process"),
        )
        _assert_identical(pooled, serial_result)

    def test_auto_resolution(self):
        assert SchedulerConfig(workers=0).resolve(8) == "serial"
        assert SchedulerConfig(workers=4, backend="thread").resolve(8) == "thread"
        assert SchedulerConfig(workers=4).resolve(1) == "serial"

    def test_explicit_backend_with_no_workers_runs_serially(
        self, spec, workload, serial_result
    ):
        """An explicit pool backend with workers <= 1 is the serial path,
        not a zero-worker pool crash."""
        config = SchedulerConfig(backend="thread")
        assert config.resolve(len(workload)) == "serial"
        results = ClipScheduler(spec, config).run(workload)
        for got, want in zip(results, serial_result.results):
            np.testing.assert_array_equal(got.outputs(), want.outputs())

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(backend="quantum")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(workers=-1)


def _limited_blas_pool(processes):
    """Child entry: apply the share rule, then read the pool back."""
    returned = limit_blas_threads(processes)
    return returned, _openblas_thread_api()[0]()


class TestBlasThreadShare:
    @pytest.mark.parametrize("cores,processes,expected", [
        (1, 1, 1), (1, 2, 1), (1, 4, 1),
        (2, 1, 2), (2, 2, 1), (2, 4, 1),
        (8, 1, 8), (8, 2, 4), (8, 4, 2),
    ])
    def test_even_share_of_the_cores(self, cores, processes, expected):
        assert blas_thread_share(cores, processes, current=64) == expected
        # Never above the pool the process already has, never below 1.
        for current in (1, 2, 3):
            assert blas_thread_share(cores, processes, current) == min(
                expected, current
            )

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_forked_child_pool_is_limited(self, processes):
        api = _openblas_thread_api()
        if api is None:
            pytest.skip("no OpenBLAS set_num_threads symbol in this process")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        before = api[0]()
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            returned, pool_size = pool.submit(
                _limited_blas_pool, processes
            ).result(timeout=60)
        expected = blas_thread_share(_usable_cores(), processes, before)
        assert returned == pool_size == expected
        assert api[0]() == before  # the parent's pool is untouched


class TestBatchedPipeline:
    def test_lockstep_matches_serial(self, spec, workload, serial_result):
        """Default lockstep (batched RFBME + batched CNN) is bit-identical
        to the serial loop: outputs, key decisions, op counts."""
        lockstep = BatchedPipeline(spec).run_workload(workload)
        _assert_identical(lockstep, serial_result)
        assert lockstep.path == "lockstep"

    def test_lockstep_without_cnn_batching_matches_serial(
        self, spec, workload, serial_result
    ):
        """The PR 1 execution shape (batched RFBME, per-clip CNN) still
        produces identical results."""
        lockstep = BatchedPipeline(spec, cnn_batching=False).run_workload(workload)
        _assert_identical(lockstep, serial_result)

    def test_legacy_engine_and_pr1_profile_match(self, workload, serial_result):
        """The legacy CNN engine + pr1 RFBME host profile — the runtime
        benchmark's baseline — reproduces the same results bit for bit."""
        legacy = PipelineSpec(
            network=NETWORK, cnn_engine="legacy", rfbme_profile="pr1"
        )
        for batch in (False, True):
            result = run_workload(legacy, workload, batch=batch)
            _assert_identical(result, serial_result)

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

    def test_cnn_batching_requires_planned_engine(self):
        legacy = PipelineSpec(network=NETWORK, cnn_engine="legacy")
        with pytest.raises(ValueError):
            BatchedPipeline(legacy, cnn_batching=True)

    def test_float32_requires_planned_engine(self):
        with pytest.raises(ValueError):
            PipelineSpec(network=NETWORK, cnn_engine="legacy", dtype="float32")

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec(network=NETWORK, rfbme_profile="pr2")

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


class TestPipelinedLockstep:
    """pipeline_depth=2: step t+1's RFBME/decide overlap step t's CNN
    stages on a double-buffered engine — bit-identical at any depth."""

    def test_pipelined_matches_serial(self, spec, workload, serial_result):
        piped = BatchedPipeline(spec, pipeline_depth=2).run_workload(workload)
        _assert_identical(piped, serial_result)

    def test_spec_depth_reaches_lockstep(self, workload, serial_result):
        """run_workload picks the depth up from the spec (the CLI path)."""
        piped_spec = PipelineSpec(network=NETWORK, pipeline_depth=2)
        piped = run_workload(piped_spec, workload, batch=True)
        _assert_identical(piped, serial_result)

    def test_pipelined_ragged_lengths(self, spec):
        """Clips departing the lockstep mid-stream shrink the in-flight
        batches; the pipeline keeps every remaining step overlapped."""
        clips = synthetic_workload(2, num_frames=7, base_seed=2) + \
            synthetic_workload(2, num_frames=3, base_seed=13)
        serial = run_workload(spec, clips, batch=False)
        piped = BatchedPipeline(spec, pipeline_depth=2).run_workload(clips)
        _assert_identical(piped, serial)

    def test_pipelined_memoize_network(self):
        memo = PipelineSpec(network="mini_alexnet", pipeline_depth=2)
        memo.warm()
        clips = synthetic_workload(3, num_frames=5, base_seed=6)
        serial = run_workload(memo, clips, batch=False)
        piped = run_workload(memo, clips, batch=True)
        _assert_identical(piped, serial)

    def test_pipelined_legacy_engine(self, workload, serial_result):
        """The legacy graph's overlap window is just `record`, but the
        executor path must stay bit-identical there too."""
        legacy = PipelineSpec(
            network=NETWORK, cnn_engine="legacy", pipeline_depth=2
        )
        piped = run_workload(legacy, workload, batch=True)
        _assert_identical(piped, serial_result)

    def test_depth_beyond_two_behaves_as_two(self, spec, workload,
                                             serial_result):
        piped = BatchedPipeline(spec, pipeline_depth=4).run_workload(workload)
        _assert_identical(piped, serial_result)

    def test_bad_depth_rejected(self, spec):
        with pytest.raises(ValueError, match="pipeline_depth"):
            BatchedPipeline(spec, pipeline_depth=0)
        with pytest.raises(ValueError, match="pipeline_depth"):
            PipelineSpec(network=NETWORK, pipeline_depth=0)


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
