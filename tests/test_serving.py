"""Serving-runtime tests: continuous batching, lanes, accounting.

The central contract mirrors the lockstep one, but is strictly harder:
clips join and leave the batch at arbitrary step boundaries, so every
clip must be bit-identical to its serial run *regardless of which
batch-mates shared its steps* — admission order, occupancy changes, and
evictions must never leak into results.
"""

import itertools

import numpy as np
import pytest

from repro.runtime import (
    ClipRequest,
    LaneRoutingError,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    poisson_arrival_times,
    run_workload,
    synthetic_workload,
)

NETWORK = "mini_fasterm"


class FakeClock:
    """A manually advanced clock; each reading moves time forward a tick.

    The tick stands in for step execution time so admission interleaves
    with service deterministically, without real sleeps.
    """

    def __init__(self, tick: float = 0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(8, num_frames=6, base_seed=11)


@pytest.fixture(scope="module")
def serial_result(spec, clips):
    return run_workload(spec, clips, batch=False)


def _requests(clips, arrivals=None, **kwargs):
    arrivals = arrivals if arrivals is not None else itertools.repeat(0.0)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t, **kwargs)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]


def _assert_identical(report, reference):
    got = report.workload_result()
    assert got.matches(reference)
    for served, want in zip(got.results, reference.results):
        np.testing.assert_array_equal(served.outputs(), want.outputs())
        np.testing.assert_array_equal(served.key_mask(), want.key_mask())


class TestBitIdentity:
    def test_oversubscribed_server_matches_serial(self, spec, clips, serial_result):
        """More requests than slots: continuous refill, identical bits."""
        report = ServingRuntime(spec, ServerConfig(max_batch=3)).serve(_requests(clips))
        _assert_identical(report, serial_result)

    def test_single_slot_server_matches_serial(self, spec, clips, serial_result):
        """max_batch=1 degenerates to serial service, one clip at a time."""
        report = ServingRuntime(spec, ServerConfig(max_batch=1)).serve(_requests(clips))
        _assert_identical(report, serial_result)
        assert report.mean_occupancy == 1.0

    def test_staggered_arrivals_match_serial(self, spec, clips, serial_result):
        """Clips joining mid-flight (slots partially busy) change nothing."""
        arrivals = poisson_arrival_times(len(clips), rate=2000.0, seed=3)
        report = ServingRuntime(spec, ServerConfig(max_batch=4)).serve(
            _requests(clips, arrivals)
        )
        _assert_identical(report, serial_result)

    def test_ragged_lengths_evict_mid_flight(self, spec):
        """Short clips evict while long ones continue; refills join the
        surviving residents; every clip still bit-identical."""
        mixed = (
            synthetic_workload(2, num_frames=9, base_seed=1)
            + synthetic_workload(3, num_frames=3, base_seed=5)
            + synthetic_workload(2, num_frames=6, base_seed=8)
        )
        serial = run_workload(spec, mixed, batch=False)
        report = ServingRuntime(spec, ServerConfig(max_batch=3)).serve(_requests(mixed))
        _assert_identical(report, serial)

    def test_memoize_network_serving(self):
        """Classification (memoize mode) serves bit-identically too."""
        spec = PipelineSpec(network="mini_alexnet")
        spec.warm()
        clips = synthetic_workload(5, num_frames=5, base_seed=2)
        serial = run_workload(spec, clips, batch=False)
        report = ServingRuntime(spec, ServerConfig(max_batch=2)).serve(_requests(clips))
        _assert_identical(report, serial)

    def test_full_width_server_matches_serial(self, spec):
        """The serving benchmark's max-batch-16 shape is covered by the
        gating suite too — large-occupancy identity must block a merge,
        not just turn a benchmark job amber."""
        clips = synthetic_workload(20, num_frames=4, base_seed=17)
        serial = run_workload(spec, clips, batch=False)
        report = ServingRuntime(spec, ServerConfig(max_batch=16)).serve(_requests(clips))
        _assert_identical(report, serial)

    def test_batch_mates_do_not_change_results(self, spec, clips):
        """The same clip served alone and served amid shuffled traffic
        produces the same bits — the serving invariant stated directly."""
        target = clips[0]
        alone = ServingRuntime(spec, ServerConfig(max_batch=4)).serve(_requests([target]))
        shuffled = list(clips[1:]) + [target]
        crowded = ServingRuntime(spec, ServerConfig(max_batch=4)).serve(_requests(shuffled))
        want = alone.records[0].result
        got = crowded.records[len(shuffled) - 1].result
        np.testing.assert_array_equal(got.outputs(), want.outputs())
        np.testing.assert_array_equal(got.key_mask(), want.key_mask())


class TestSharded:
    """serve_workers >= 2: lanes shard across a worker pool, and every
    served clip stays bit-identical to its serial single-clip run."""

    def test_single_lane_two_shards_match_serial(self, spec, clips,
                                                 serial_result):
        """One lane replicated into two shards (requests round-robin)."""
        runtime = ServingRuntime(
            spec, ServerConfig(max_batch=3, serve_workers=2, shard_backend="serial")
        )
        report = runtime.serve(_requests(clips))
        _assert_identical(report, serial_result)
        assert report.serve_workers == 2
        assert len(report.shards) == 2
        assert sum(shard.requests for shard in report.shards) == len(clips)

    def test_two_lanes_one_shard_each_match_serial(self, spec, clips,
                                                   serial_result):
        """Two lanes, two workers: each lane becomes exactly one shard."""
        runtime = ServingRuntime(
            {"cam0": spec, "cam1": spec},
            ServerConfig(max_batch=3,
            serve_workers=2,
            shard_backend="serial"),
        )
        requests = [
            ClipRequest(i, clip, lane=f"cam{i % 2}")
            for i, clip in enumerate(clips)
        ]
        report = runtime.serve(requests)
        _assert_identical(report, serial_result)
        assert {shard.lane for shard in report.shards} == {"cam0", "cam1"}
        assert all(shard.shard == 0 for shard in report.shards)

    def test_process_pool_shards_match_serial(self, spec):
        """The real multiprocess path: workers build their own network
        and plan (plan-per-worker), results aggregate bit-identically.

        Shard processes serve on one BLAS thread while the serial
        reference ran at this process's default pool.  The second input
        runs supervised shards at batches of 4, so the float64 plans
        probe and run fused GEMMs on one thread."""
        inputs = [
            (synthetic_workload(4, num_frames=4, base_seed=23),
             ServerConfig(max_batch=2, serve_workers=2,
                          shard_backend="process")),
            (synthetic_workload(8, num_frames=4, base_seed=29),
             ServerConfig(max_batch=4, serve_workers=2,
                          shard_backend="process", admission="shared")),
        ]
        for clips, config in inputs:
            serial = run_workload(spec, clips, batch=False)
            report = ServingRuntime(spec, config).serve(_requests(clips))
            _assert_identical(report, serial)
            assert report.serve_workers == 2
            assert report.steps < report.total_frames  # batched steps ran

    def test_sharded_ragged_and_staggered_match_serial(self, spec):
        """The PR 3 identity gauntlet on the sharded path: ragged clip
        lengths, staggered arrivals, mid-flight evictions per shard."""
        mixed = (
            synthetic_workload(2, num_frames=9, base_seed=1)
            + synthetic_workload(3, num_frames=3, base_seed=5)
            + synthetic_workload(2, num_frames=6, base_seed=8)
        )
        serial = run_workload(spec, mixed, batch=False)
        arrivals = poisson_arrival_times(len(mixed), rate=2000.0, seed=3)
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial")
        ).serve(_requests(mixed, arrivals))
        _assert_identical(report, serial)

    def test_sharded_records_in_submission_order(self, spec, clips):
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial")
        ).serve(_requests(clips))
        assert [record.request_id for record in report.records] == list(
            range(len(clips))
        )

    def test_shard_accounting_aggregates(self, spec, clips):
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial")
        ).serve(_requests(clips))
        assert report.total_frames == sum(len(clip) for clip in clips)
        assert report.steps == sum(shard.steps for shard in report.shards)
        # Concurrent model: the slowest shard bounds the run.
        assert report.wall_seconds == max(
            shard.wall_seconds for shard in report.shards
        )
        assert report.frames_per_second > 0
        rows = dict((row[0], row[1]) for row in report.summary_rows())
        assert rows["serve workers"] == 2

    def test_bad_serve_workers_rejected(self, spec):
        with pytest.raises(ValueError, match="serve_workers"):
            ServingRuntime(spec, ServerConfig(max_batch=2, serve_workers=0))

    def test_bad_shard_backend_rejected(self, spec):
        with pytest.raises(ValueError, match="backend"):
            ServingRuntime(spec, ServerConfig(max_batch=2, serve_workers=2,
                           shard_backend="gpu"))

    def test_thread_backend_refused(self, spec):
        """Thread shards would share one plan's scratch (the cached
        network is process-global) and break bit identity — refused at
        construction, not discovered as wrong bits."""
        with pytest.raises(ValueError, match="thread"):
            ServingRuntime(spec, ServerConfig(max_batch=2, serve_workers=2,
                           shard_backend="thread"))

    def test_injected_clock_reaches_inline_shards(self, spec, clips):
        """shard_backend='serial' honours the injected clock, so sharded
        latency accounting is deterministic in tests."""
        clock = FakeClock()
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=clock, serve_workers=2,
            shard_backend="serial"),
        ).serve(_requests(clips[:4]))
        # FakeClock ticks 1ms per reading; real clocks would be ~µs.
        assert report.wall_seconds >= 0.001
        assert clock.now > 0.0
        for record in report.records:
            assert record.finish_time >= record.admit_time


class TestSharedAdmission:
    """admission='shared': one admission queue per lane, every shard of
    the lane steals from it.  Assignment policy must never leak into
    results — the per-clip identity contract is the same as static's."""

    def test_inline_two_shards_match_serial(self, spec, clips,
                                            serial_result):
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial",
            admission="shared"),
        ).serve(_requests(clips))
        _assert_identical(report, serial_result)
        assert report.admission == "shared"
        assert len(report.shards) == 2
        assert sum(shard.requests for shard in report.shards) == len(clips)

    def test_two_lanes_shared_queues_match_serial(self, spec, clips,
                                                  serial_result):
        runtime = ServingRuntime(
            {"cam0": spec, "cam1": spec},
            ServerConfig(max_batch=3,
            serve_workers=2,
            shard_backend="serial",
            admission="shared"),
        )
        requests = [
            ClipRequest(i, clip, lane=f"cam{i % 2}")
            for i, clip in enumerate(clips)
        ]
        report = runtime.serve(requests)
        _assert_identical(report, serial_result)
        assert {shard.lane for shard in report.shards} == {"cam0", "cam1"}

    def test_idle_shard_steals_skewed_backlog(self, spec):
        """Interleaved long/short clips: static round-robin pins the
        longs on one shard; the shared queue spreads them, so no shard
        serves more than ~the balanced share of frames."""
        longs = synthetic_workload(4, num_frames=8, base_seed=3)
        shorts = synthetic_workload(4, num_frames=2, base_seed=19)
        clips = [clip for pair in zip(longs, shorts) for clip in pair]
        serial = run_workload(spec, clips, batch=False)
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial",
            admission="shared"),
        ).serve(_requests(clips))
        _assert_identical(report, serial)
        frames = sorted(shard.frames for shard in report.shards)
        total = sum(frames)
        # Static round-robin would put all 32 long frames on one shard
        # (32 vs 8); stealing keeps the split near even.
        assert frames[-1] < 0.75 * total

    def test_process_backend_stealing_matches_serial(self, spec):
        clips = synthetic_workload(4, num_frames=4, base_seed=23)
        serial = run_workload(spec, clips, batch=False)
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="process",
            admission="shared"),
        ).serve(_requests(clips))
        _assert_identical(report, serial)
        assert report.serve_workers == 2
        assert report.admission == "shared"

    def test_shared_accounting_aggregates(self, spec, clips):
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial",
            admission="shared"),
        ).serve(_requests(clips))
        assert report.total_frames == sum(len(clip) for clip in clips)
        assert report.steps == sum(shard.steps for shard in report.shards)
        assert report.wall_seconds == max(
            shard.wall_seconds for shard in report.shards
        )
        rows = dict((row[0], row[1]) for row in report.summary_rows())
        assert rows["admission"] == "shared"

    def test_records_in_submission_order(self, spec, clips):
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial",
            admission="shared"),
        ).serve(_requests(clips))
        assert [record.request_id for record in report.records] == list(
            range(len(clips))
        )

    def test_arrival_times_respected(self, spec, clips):
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock(), serve_workers=2,
            shard_backend="serial", admission="shared"),
        ).serve(_requests(clips[:4], [0.0, 0.0, 5.0, 5.0]))
        for record in report.records:
            assert record.admit_time >= record.arrival_time
            assert record.enqueue_latency >= 0.0

    def test_shard_budget_never_exceeds_serve_workers(self, spec, clips,
                                                      serial_result):
        """Shared shards run concurrently (the pool is sized to them),
        so the budget is dealt across lanes and capped at serve_workers
        — unlike static's per-lane ceil, which may queue excess tasks."""
        runtime = ServingRuntime(
            {"cam0": spec, "cam1": spec},
            ServerConfig(max_batch=2,
            serve_workers=3,
            shard_backend="serial",
            admission="shared"),
        )
        requests = [
            ClipRequest(i, clip, lane=f"cam{i % 2}")
            for i, clip in enumerate(clips)
        ]
        report = runtime.serve(requests)
        _assert_identical(report, serial_result)
        assert len(report.shards) == 3

    def test_shared_report_admission_field(self, spec, clips):
        """Every serve path stamps the configured admission mode."""
        in_process = ServingRuntime(
            spec, ServerConfig(max_batch=3, admission="shared")
        ).serve(_requests(clips[:2]))
        assert in_process.admission == "shared"

    def test_bad_admission_rejected(self, spec):
        with pytest.raises(ValueError, match="admission"):
            ServingRuntime(spec, ServerConfig(max_batch=2, admission="dynamic"))

    def test_shared_with_one_worker_is_in_process(self, spec, clips,
                                                  serial_result):
        """serve_workers=1 has a single worker per lane — shared and
        static admission coincide, served by the in-process loop."""
        report = ServingRuntime(
            spec, ServerConfig(max_batch=3, admission="shared")
        ).serve(_requests(clips))
        _assert_identical(report, serial_result)
        assert report.serve_workers == 1


class TestPercentiles:
    def test_latency_percentiles_keys_and_order(self, spec, clips):
        report = ServingRuntime(spec, ServerConfig(max_batch=2)).serve(_requests(clips))
        percentiles = report.latency_percentiles()
        assert sorted(percentiles) == [
            "enqueue_p50", "enqueue_p95", "enqueue_p99",
            "ttff_p50", "ttff_p95", "ttff_p99",
        ]
        assert percentiles["enqueue_p50"] <= percentiles["enqueue_p95"]
        assert percentiles["enqueue_p95"] <= percentiles["enqueue_p99"]
        assert percentiles["ttff_p50"] <= percentiles["ttff_p99"]

    def test_percentiles_surface_in_summary(self, spec, clips):
        report = ServingRuntime(spec, ServerConfig(max_batch=2)).serve(_requests(clips))
        labels = {row[0] for row in report.summary_rows()}
        for label in ("enqueue p50 ms", "enqueue p99 ms", "ttff p99 ms"):
            assert label in labels

    def test_empty_report_has_no_percentiles(self, spec):
        report = ServingRuntime(spec, ServerConfig(max_batch=2)).serve([])
        assert report.latency_percentiles() == {}

    def test_underscored_metric_names_round_trip(self, spec, clips,
                                                 monkeypatch):
        """Percentile keys are ``<metric>_p<NN>`` and a metric name may
        itself contain underscores: the summary split must peel only the
        *last* segment (a ``split("_")`` regression once rendered
        ``queue_wait_p50`` as ``queue wait_p50``)."""
        from repro.runtime.serving import ServingReport

        report = ServingRuntime(spec, ServerConfig(max_batch=2)).serve(
            _requests(clips)
        )
        monkeypatch.setattr(
            ServingReport, "latency_percentiles",
            lambda self: {"queue_wait_p50": 0.0015, "ttff_p99": 0.2},
        )
        rows = dict((row[0], row[1]) for row in report.summary_rows())
        assert rows["queue_wait p50 ms"] == 1.5
        assert rows["ttff p99 ms"] == 200.0

    def test_zero_completed_requests_explicit_empty(self):
        """A report with zero completed requests returns the explicit
        empty dict — never an np.percentile crash on empty samples —
        and every aggregate accessor stays well-defined."""
        from repro.runtime import ServingReport

        report = ServingReport(
            records=[], wall_seconds=0.0, idle_seconds=0.0, steps=0,
            max_batch=4,
        )
        assert report.latency_percentiles() == {}
        assert report.enqueue_latencies().shape == (0,)
        assert report.times_to_first_frame().shape == (0,)
        assert report.frames_per_second == 0.0
        assert report.mean_occupancy == 0.0
        labels = {row[0] for row in report.summary_rows()}
        assert "enqueue p50 ms" not in labels  # no fabricated zeros


class TestAdmission:
    def test_fifo_admission_within_lane(self, spec, clips):
        """With one slot, service order is arrival order."""
        runtime = ServingRuntime(spec, ServerConfig(max_batch=1, clock=FakeClock()))
        arrivals = [0.0, 0.0, 0.0, 0.0]
        report = runtime.serve(_requests(clips[:4], arrivals))
        finishes = [record.finish_time for record in report.records]
        assert finishes == sorted(finishes)
        admits = [record.admit_time for record in report.records]
        assert admits == sorted(admits)

    def test_arrival_times_respected(self, spec, clips):
        """A request is never admitted before it arrives."""
        arrivals = [0.0, 5.0, 10.0]
        report = ServingRuntime(spec, ServerConfig(max_batch=4, clock=FakeClock())).serve(
            _requests(clips[:3], arrivals)
        )
        for record in report.records:
            assert record.admit_time >= record.arrival_time
            assert record.enqueue_latency >= 0.0

    def test_idle_gaps_are_skipped_not_slept(self, spec, clips):
        """Widely spaced arrivals: virtual time jumps, busy time stays
        small, and the gap lands in idle_seconds."""
        arrivals = [0.0, 100.0]
        report = ServingRuntime(spec, ServerConfig(max_batch=2, clock=FakeClock())).serve(
            _requests(clips[:2], arrivals)
        )
        assert report.idle_seconds >= 99.0
        assert report.wall_seconds < 50.0
        _ = report.summary_rows()  # accounting renders

    def test_queue_wait_appears_in_enqueue_latency(self, spec, clips):
        """With one slot and simultaneous arrivals, later requests wait
        at least one full service time."""
        report = ServingRuntime(spec, ServerConfig(max_batch=1, clock=FakeClock())).serve(
            _requests(clips[:3])
        )
        latencies = report.enqueue_latencies()
        assert latencies[0] < latencies[1] < latencies[2]

    def test_records_in_submission_order(self, spec, clips):
        arrivals = [3.0, 0.0, 1.0]
        report = ServingRuntime(spec, ServerConfig(max_batch=1, clock=FakeClock())).serve(
            _requests(clips[:3], arrivals)
        )
        assert [record.request_id for record in report.records] == [0, 1, 2]


class TestLanes:
    def test_two_named_lanes_serve_their_traffic(self, clips):
        """Heterogeneous deployments: each lane batches only its own
        shape/network-compatible clips, results still serial-identical."""
        warp = PipelineSpec(network=NETWORK)
        memo = PipelineSpec(network="mini_alexnet")
        for lane_spec in (warp, memo):
            lane_spec.warm()
        runtime = ServingRuntime({"warp": warp, "memo": memo}, ServerConfig(max_batch=2))
        requests = [
            ClipRequest(i, clip, lane="warp" if i % 2 else "memo")
            for i, clip in enumerate(clips[:6])
        ]
        report = runtime.serve(requests)
        assert {record.lane for record in report.records} == {"warp", "memo"}
        for record, request in zip(report.records, requests):
            serial = run_workload(
                warp if request.lane == "warp" else memo,
                [request.clip],
                batch=False,
            )
            np.testing.assert_array_equal(
                record.result.outputs(), serial.results[0].outputs()
            )
            np.testing.assert_array_equal(
                record.result.key_mask(), serial.results[0].key_mask()
            )

    def test_shape_mismatch_rejected(self, spec, clips):
        runtime = ServingRuntime(spec, ServerConfig(max_batch=2))
        bad = ClipRequest(0, _shrunk(clips[0]), lane="default")
        with pytest.raises(ValueError, match="serves"):
            runtime.serve([bad])

    def test_unrouteable_shape_rejected(self, spec, clips):
        runtime = ServingRuntime(spec, ServerConfig(max_batch=2))
        with pytest.raises(ValueError, match="no lane serves"):
            runtime.serve([ClipRequest(0, _shrunk(clips[0]))])

    def test_ambiguous_shape_needs_explicit_lane(self, clips):
        """Two lanes with the same frame shape: routing by shape alone is
        refused, explicit lane names work."""
        specs = {
            "a": PipelineSpec(network=NETWORK),
            "b": PipelineSpec(network="mini_alexnet"),
        }
        runtime = ServingRuntime(specs, ServerConfig(max_batch=2))
        with pytest.raises(ValueError, match="set ClipRequest.lane"):
            runtime.serve([ClipRequest(0, clips[0])])
        report = runtime.serve([ClipRequest(0, clips[0], lane="a")])
        assert report.records[0].lane == "a"

    def test_unknown_lane_rejected(self, spec, clips):
        runtime = ServingRuntime(spec, ServerConfig(max_batch=2))
        with pytest.raises(KeyError):
            runtime.serve([ClipRequest(0, clips[0], lane="express")])

    def test_routing_errors_name_registered_lanes(self, clips):
        """Every routing failure is a LaneRoutingError whose message
        names each registered lane and its frame shape — never a bare
        KeyError a caller has to decode."""
        specs = {
            "warp": PipelineSpec(network=NETWORK),
            "memo": PipelineSpec(network="mini_alexnet"),
        }
        runtime = ServingRuntime(specs, ServerConfig(max_batch=2))
        shape = str(tuple(clips[0].frames.shape[1:]))

        with pytest.raises(LaneRoutingError) as unknown:
            runtime.serve([ClipRequest(0, clips[0], lane="express")])
        message = str(unknown.value)
        assert "unknown lane 'express'" in message
        assert "registered lanes" in message
        assert f"warp={shape}" in message and f"memo={shape}" in message

        with pytest.raises(LaneRoutingError) as unrouteable:
            runtime.serve([ClipRequest(0, _shrunk(clips[0]))])
        message = str(unrouteable.value)
        assert "no lane serves frame shape (32, 32)" in message
        assert f"warp={shape}" in message and f"memo={shape}" in message

        with pytest.raises(LaneRoutingError) as mismatch:
            runtime.serve([ClipRequest(7, _shrunk(clips[0]), lane="warp")])
        message = str(mismatch.value)
        assert "request 7 has (32, 32) frames" in message
        assert f"lane 'warp' serves {shape}" in message

    def test_routing_error_catchable_as_keyerror_and_valueerror(self, spec,
                                                                clips):
        """Back-compat: the old error types still catch the new one."""
        runtime = ServingRuntime(spec, ServerConfig(max_batch=2))
        bad = [ClipRequest(0, clips[0], lane="express")]
        for exc_type in (KeyError, ValueError, LaneRoutingError):
            with pytest.raises(exc_type):
                runtime.serve(bad)


class TestLifecycle:
    def test_close_shrinks_plan_and_clears_slots(self, spec, clips):
        runtime = ServingRuntime(spec, ServerConfig(max_batch=4))
        runtime.serve(_requests(clips[:4]))
        lane = runtime.lanes["default"]
        assert lane.plan.max_batch >= 4
        runtime.close()
        assert lane.plan.max_batch == 1
        assert not lane.has_active()
        # The runtime still serves correctly after a close (plan regrows).
        report = runtime.serve(_requests(clips[:2]))
        assert report.num_requests == 2

    def test_runtime_reusable_across_serve_calls(self, spec, clips, serial_result):
        runtime = ServingRuntime(spec, ServerConfig(max_batch=3))
        first = runtime.serve(_requests(clips))
        second = runtime.serve(_requests(clips))
        _assert_identical(first, serial_result)
        _assert_identical(second, serial_result)

    def test_empty_request_list(self, spec):
        report = ServingRuntime(spec, ServerConfig(max_batch=2)).serve([])
        assert report.num_requests == 0
        assert report.total_frames == 0
        assert report.steps == 0

    def test_occupancy_tracks_load(self, spec, clips):
        """All-at-once traffic onto ample slots runs near-full occupancy."""
        report = ServingRuntime(spec, ServerConfig(max_batch=4)).serve(_requests(clips[:4]))
        assert report.mean_occupancy == pytest.approx(4.0)

    def test_report_stats_consistent(self, spec, clips):
        report = ServingRuntime(spec, ServerConfig(max_batch=3)).serve(_requests(clips))
        assert report.total_frames == sum(len(clip) for clip in clips)
        assert report.frames_per_second > 0
        assert report.max_batch == 3
        for record in report.records:
            assert record.finish_time >= record.first_output_time
            assert record.first_output_time >= record.admit_time
            assert record.frames_per_second > 0


class TestValidation:
    def test_empty_clip_rejected(self, clips):
        empty = clips[0].frames[:0]
        with pytest.raises(ValueError, match="empty clip"):
            ClipRequest(0, _clip_with(clips[0], empty))

    def test_negative_arrival_rejected(self, clips):
        with pytest.raises(ValueError, match="arrival_time"):
            ClipRequest(0, clips[0], arrival_time=-1.0)

    def test_bad_max_batch_rejected(self, spec):
        with pytest.raises(ValueError):
            ServingRuntime(spec, ServerConfig(max_batch=0))

    def test_no_lanes_rejected(self):
        with pytest.raises(ValueError):
            ServingRuntime({})


def _shrunk(clip):
    """The same clip at a smaller resolution (no lane can serve it)."""
    return _clip_with(clip, clip.frames[:, :32, :32])


def _clip_with(clip, frames):
    from repro.video.generator import VideoClip

    return VideoClip(
        frames=frames,
        annotations=clip.annotations[: frames.shape[0]],
        scenario=clip.scenario,
    )
