"""Fault-tolerance tests: supervision, shedding, deterministic injection.

The differential contract extends serving's bit-identity one: a serve
with injected faults (shard kills, stalls, dropped acks) must complete
every non-shed request with results bit-identical to the fault-free
serial run, and every recovery must be *accounted* — failover/retry
counters exact, shed requests named, nothing silently dropped and
nothing hung.  The inline discrete-event backend makes the whole thing
deterministic (FakeClock virtual time), so every scenario here is
replayable; the process-backend tests fire kills, stalls, dropped acks
and seeded plans at real shard processes, and check the pipe transport
itself (no busy-waiting, sends to dead shards), under a watchdog.

CI hooks (mirroring the churn-fuzz harness):

* ``REPRO_CHAOS_SEEDS`` — space/comma-separated seed list overriding the
  default set, so CI can matrix one seed per job.
* ``REPRO_CHAOS_TRACE_DIR`` — when set, each fault plan is dumped there
  as JSON *before* the assertions run, so a failing seed's plan survives
  as an artifact (replayable via ``FaultPlan.load``).
"""

import multiprocessing
import os
import resource
import threading
import time

import numpy as np
import pytest

from repro.core.sad_kernel import get_kernel
from repro.runtime import serving as serving_module
from repro.runtime import supervision
from repro.runtime import (
    ClipRequest,
    DuplicateRequestError,
    FaultEvent,
    FaultPlan,
    PipelineSpec,
    RequestShedError,
    ServerConfig,
    ServingRuntime,
    ShardCrashError,
    SupervisorConfig,
    run_workload,
    synthetic_workload,
)

NETWORK = "mini_fasterm"
DEFAULT_SEEDS = (0, 1, 2)

#: RFBME host lanes the chaos fuzz runs in (see test_churn_fuzz).
LANES = [
    pytest.param(
        "kernel",
        marks=pytest.mark.skipif(
            get_kernel() is None, reason="compiled SAD kernel unavailable"
        ),
    ),
    pytest.param("batched"),
]


def _chaos_seeds():
    env = os.environ.get("REPRO_CHAOS_SEEDS", "").replace(",", " ").split()
    return tuple(int(token) for token in env) if env else DEFAULT_SEEDS


class FakeClock:
    """Manually advanced clock (see test_serving): each reading moves
    time one tick, so the inline DES is fully deterministic."""

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


def _requests(clips, arrivals=None, deadlines=None):
    arrivals = arrivals or [0.002 * i for i in range(len(clips))]
    deadlines = deadlines or [None] * len(clips)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t, deadline=d)
        for i, (clip, t, d) in enumerate(zip(clips, arrivals, deadlines))
    ]


def _serve_faulted(spec, requests, plan, supervisor=None, capacity=2,
                   backend="serial"):
    """A 2-shard shared-admission serve with ``plan`` injected."""
    runtime = ServingRuntime(
        spec,
        ServerConfig(max_batch=capacity,
        serve_workers=2,
        shard_backend=backend,
        admission="shared",
        clock=FakeClock(),
        fault_plan=plan,
        supervisor=supervisor or SupervisorConfig(
            heartbeat_timeout=0.003, max_respawns=1
        )),
    )
    return runtime.serve(requests)


def _within_watchdog(serve, timeout=240):
    """Run ``serve()`` on a daemon thread; a hang fails, errors re-raise."""
    outcome = {}

    def run():
        try:
            outcome["value"] = serve()
        except BaseException as error:  # noqa: BLE001 — re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "supervised process serve hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _process_runtime(spec, supervisor, plan=None, virtual_time=False):
    """Two supervised shard processes, shared admission, capacity 2."""
    return ServingRuntime(
        spec,
        ServerConfig(max_batch=2,
        serve_workers=2,
        shard_backend="process",
        admission="shared",
        fault_plan=plan,
        virtual_time=virtual_time,
        supervisor=supervisor),
    )


def _assert_identical_by_id(report, requests, serial):
    """Every completed request bit-identical to its serial run, keyed by
    request id — positional matching would silently misattribute results
    the moment anything is shed or reordered."""
    expected = {
        request.request_id: result
        for request, result in zip(requests, serial.results)
    }
    assert report.records, "serve completed nothing"
    for record in report.records:
        want = expected[record.request_id]
        np.testing.assert_array_equal(record.result.outputs(), want.outputs())
        np.testing.assert_array_equal(
            record.result.key_mask(), want.key_mask()
        )


def _assert_recovery_accounted(report):
    """Counters agree with per-record and per-event accounting exactly."""
    by_outcome = report.outcome_counts()
    assert report.failovers == sum(
        len(event.seqs) for event in report.failover_events
    )
    assert by_outcome.get("failover", 0) <= report.failovers
    assert sum(by_outcome.values()) == len(report.records)
    assert report.num_shed == len(report.shed)


class TestInlineFaultDifferential:
    """The DES backend honours fault plans deterministically."""

    def test_kill_fails_over_bit_identical(self, spec, clips, serial_result):
        plan = FaultPlan(events=(
            FaultEvent("kill", at=0.008, lane="default", shard=1),
        ))
        requests = _requests(clips)
        report = _serve_faulted(spec, requests, plan)
        assert len(report.records) == len(clips)
        assert report.failovers == 1
        (event,) = report.failover_events
        assert (event.lane, event.shard, event.reason) == ("default", 1, "crash")
        assert event.seqs == (2,)
        assert report.outcome_counts() == {"served": 7, "failover": 1}
        recovered = next(
            r for r in report.records if r.outcome == "failover"
        )
        assert recovered.attempts == 2
        _assert_recovery_accounted(report)
        _assert_identical_by_id(report, requests, serial_result)

    def test_kill_is_deterministic(self, spec, clips):
        plan = FaultPlan(events=(
            FaultEvent("kill", at=0.008, lane="default", shard=1),
        ))
        first = _serve_faulted(spec, _requests(clips), plan)
        second = _serve_faulted(spec, _requests(clips), plan)
        assert first.failover_events == second.failover_events
        assert first.outcome_counts() == second.outcome_counts()
        for a, b in zip(first.records, second.records):
            assert (a.request_id, a.outcome, a.shard, a.attempts) == \
                (b.request_id, b.outcome, b.shard, b.attempts)
            np.testing.assert_array_equal(
                a.result.outputs(), b.result.outputs()
            )

    def test_dropped_ack_is_retried(self, spec, clips, serial_result):
        plan = FaultPlan(events=(
            FaultEvent("drop_ack", at=0.01, lane="default", shard=0),
        ))
        requests = _requests(clips)
        report = _serve_faulted(
            spec, requests, plan,
            supervisor=SupervisorConfig(
                heartbeat_timeout=0.003, ack_timeout=0.005, max_respawns=1
            ),
        )
        assert report.retries == 1
        assert report.failovers == 0
        assert report.outcome_counts() == {"served": 7, "retried": 1}
        assert len(report.records) == len(clips)
        _assert_identical_by_id(report, requests, serial_result)

    def test_long_stall_fails_over_as_stall(self, spec, clips, serial_result):
        plan = FaultPlan(events=(
            FaultEvent("stall", at=0.008, lane="default", shard=1, steps=50),
        ))
        requests = _requests(clips)
        report = _serve_faulted(spec, requests, plan)
        assert report.failover_events
        assert {e.reason for e in report.failover_events} == {"stall"}
        assert len(report.records) == len(clips)
        _assert_recovery_accounted(report)
        _assert_identical_by_id(report, requests, serial_result)

    def test_short_stall_is_tolerated(self, spec, clips, serial_result):
        """A stall inside the heartbeat window is latency, not death."""
        plan = FaultPlan(events=(
            FaultEvent("stall", at=0.008, lane="default", shard=1, steps=2),
        ))
        requests = _requests(clips)
        report = _serve_faulted(spec, requests, plan)
        assert report.failovers == 0
        assert not report.failover_events
        assert len(report.records) == len(clips)
        _assert_identical_by_id(report, requests, serial_result)

    def test_total_loss_raises_named_error(self, spec, clips):
        plan = FaultPlan(events=(
            FaultEvent("kill", at=0.006, lane="default", shard=0),
            FaultEvent("kill", at=0.008, lane="default", shard=1),
        ))
        with pytest.raises(ShardCrashError, match="respawn budget") as info:
            _serve_faulted(
                spec, _requests(clips), plan,
                supervisor=SupervisorConfig(
                    heartbeat_timeout=0.003, max_respawns=0
                ),
            )
        assert info.value.lost, "error must name the unresolved requests"

    def test_respawn_recovers_total_loss(self, spec, clips, serial_result):
        plan = FaultPlan(events=(
            FaultEvent("kill", at=0.006, lane="default", shard=0),
            FaultEvent("kill", at=0.008, lane="default", shard=1),
        ))
        requests = _requests(clips)
        report = _serve_faulted(spec, requests, plan)
        assert report.respawns == 1
        assert any(event.respawned for event in report.failover_events)
        assert {info.shard for info in report.shards} == {0, 1, 2}
        assert len(report.records) == len(clips)
        _assert_recovery_accounted(report)
        _assert_identical_by_id(report, requests, serial_result)

    def test_fault_plan_requires_sharded_shared_admission(self, spec):
        plan = FaultPlan(events=(FaultEvent("kill", at=0.01),))
        with pytest.raises(ValueError, match="shared"):
            ServingRuntime(spec, ServerConfig(max_batch=2, fault_plan=plan))

    def test_fault_plan_unknown_lane_rejected(self, spec):
        plan = FaultPlan(events=(FaultEvent("kill", at=0.01, lane="hd"),))
        with pytest.raises(ValueError, match="lane"):
            ServingRuntime(
                spec, ServerConfig(max_batch=2, serve_workers=2, admission="shared",
                shard_backend="serial", fault_plan=plan),
            )


class TestSeededChaosFuzz:
    """Seeded end-to-end chaos: a generated plan of kills, stalls, and
    ack drops against the deterministic DES, differentially checked."""

    @pytest.mark.parametrize("backend", LANES)
    @pytest.mark.parametrize("seed", _chaos_seeds())
    def test_chaos_differential(self, seed, backend, clips):
        plan = FaultPlan.seeded(
            seed, shards_per_lane=2, horizon=0.02,
            kills=1, stalls=1, drops=1, stall_steps=(2, 4),
        )
        trace_dir = os.environ.get("REPRO_CHAOS_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            plan.dump(os.path.join(
                trace_dir, f"chaos_seed{seed}_{backend}.json"
            ))
        spec = PipelineSpec(network=NETWORK, rfbme_backend=backend)
        spec.warm()
        serial = run_workload(spec, clips, batch=False)
        requests = _requests(clips)
        report = _serve_faulted(
            spec, requests, plan,
            supervisor=SupervisorConfig(
                heartbeat_timeout=0.003, ack_timeout=0.005, max_respawns=2
            ),
        )
        assert len(report.records) == len(clips), (
            f"seed {seed}: {len(clips) - len(report.records)} request(s) "
            f"lost (plan: {plan.to_json()})"
        )
        _assert_recovery_accounted(report)
        _assert_identical_by_id(report, requests, serial)

    @pytest.mark.parametrize("seed", _chaos_seeds())
    def test_chaos_on_processes(self, seed, spec, clips, serial_result):
        """The same seeded plan shape against real shard processes: a
        kill is ``os._exit``, a stall a literal sleep past
        ``heartbeat_timeout``, a dropped ack a real retry.  How many
        failovers and retries follow depends on timing, so only
        completion, accounting and bit identity are asserted."""
        plan = FaultPlan.seeded(
            seed, shards_per_lane=2, horizon=0.1,
            kills=1, stalls=1, drops=1, stall_seconds=2.0,
        )
        trace_dir = os.environ.get("REPRO_CHAOS_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            plan.dump(os.path.join(
                trace_dir, f"chaos_seed{seed}_process.json"
            ))
        requests = _requests(clips)
        runtime = _process_runtime(
            spec,
            SupervisorConfig(
                heartbeat_timeout=1.0, ack_timeout=1.0, max_respawns=2,
                drain_timeout=60.0,
            ),
            plan,
        )
        report = _within_watchdog(lambda: runtime.serve(requests))
        assert len(report.records) == len(clips), (
            f"seed {seed}: {len(clips) - len(report.records)} request(s) "
            f"lost (plan: {plan.to_json()})"
        )
        _assert_recovery_accounted(report)
        _assert_identical_by_id(report, requests, serial_result)

    def test_seeded_plans_are_reproducible(self, tmp_path):
        plan = FaultPlan.seeded(42, shards_per_lane=2, horizon=0.5)
        assert plan == FaultPlan.seeded(42, shards_per_lane=2, horizon=0.5)
        assert plan != FaultPlan.seeded(43, shards_per_lane=2, horizon=0.5)
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_seeded_kills_never_wipe_a_lane(self):
        for seed in range(20):
            plan = FaultPlan.seeded(
                seed, shards_per_lane=2, horizon=1.0, kills=5
            )
            killed = {
                (e.lane, e.shard) for e in plan.events if e.kind == "kill"
            }
            assert len(killed) <= 1, "a seeded plan must leave a survivor"


class TestProcessChaos:
    """The acceptance demo: fault one of two real shard processes mid-
    trace; every request completes bit-identically, the recovery is
    accounted exactly, and the serve cannot hang (watchdog-bounded)."""

    def test_kill_one_process_shard(self, spec, clips, serial_result):
        plan = FaultPlan(events=(
            FaultEvent("kill", at=0.001, lane="default", shard=1),
        ))
        requests = _requests(clips, arrivals=[0.0] * len(clips))
        runtime = _process_runtime(
            spec,
            SupervisorConfig(
                heartbeat_timeout=5.0, max_respawns=0, drain_timeout=60.0
            ),
            plan,
        )
        report = _within_watchdog(lambda: runtime.serve(requests))
        assert len(report.records) == len(clips)
        assert report.failover_events, "the kill was never detected"
        assert {(e.lane, e.shard, e.reason) for e in report.failover_events} \
            == {("default", 1, "crash")}
        _assert_recovery_accounted(report)
        assert report.outcome_counts().get("failover", 0) == report.failovers
        _assert_identical_by_id(report, requests, serial_result)

    def test_long_stall_fails_over_as_stall(self, spec, clips, serial_result):
        """A real sleep past heartbeat_timeout is failed over as a stall:
        the silent shard is terminated, its work re-dispatched."""
        plan = FaultPlan(events=(
            FaultEvent("stall", at=0.001, lane="default", shard=1,
                       seconds=20.0),
        ))
        requests = _requests(clips, arrivals=[0.0] * len(clips))
        runtime = _process_runtime(
            spec,
            SupervisorConfig(
                heartbeat_timeout=1.0, max_respawns=0, drain_timeout=60.0
            ),
            plan,
        )
        report = _within_watchdog(lambda: runtime.serve(requests))
        assert len(report.records) == len(clips)
        assert [(e.lane, e.shard, e.reason)
                for e in report.failover_events] == [("default", 1, "stall")]
        assert report.retries == 0
        _assert_recovery_accounted(report)
        assert report.outcome_counts().get("failover", 0) == report.failovers
        _assert_identical_by_id(report, requests, serial_result)

    def test_dropped_ack_is_retried(self, spec, clips, serial_result):
        """A real shard swallows one ack: the parent retries that request
        after ack_timeout and nothing is failed over."""
        plan = FaultPlan(events=(
            FaultEvent("drop_ack", at=0.0, lane="default", shard=0),
        ))
        requests = _requests(clips, arrivals=[0.0] * len(clips))
        runtime = _process_runtime(
            spec,
            SupervisorConfig(
                heartbeat_timeout=5.0, ack_timeout=2.0, max_respawns=0,
                drain_timeout=60.0,
            ),
            plan,
        )
        report = _within_watchdog(lambda: runtime.serve(requests))
        assert report.retries == 1
        assert report.failovers == 0
        assert not report.failover_events
        assert report.outcome_counts() == {"served": 7, "retried": 1}
        _assert_identical_by_id(report, requests, serial_result)


class _KillPeerBefore:
    """The parent end of one shard's pipe, wrapped so the shard process
    is SIGKILLed (and reaped) just before a chosen message is sent: the
    send then meets a dead peer, deterministically."""

    def __init__(self, conn, shard_name, trigger):
        self._conn = conn
        self._shard_name = shard_name
        self._trigger = trigger

    def send(self, message):
        if self._trigger(message):
            for process in multiprocessing.active_children():
                if process.name == self._shard_name:
                    process.kill()
                    process.join(timeout=10)
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestProcessTransport:
    """The pipe transport itself: no busy-waiting, and a send to a shard
    that already died is that shard's crash, never an error."""

    def test_parent_does_not_spin(self, spec, clips, monkeypatch):
        """A due backlog blocked on credit, then a sparse real-clock
        trace: the parent sleeps between events instead of polling.

        The CPU bound catches a loop that never sleeps; the count of
        zero-timeout waits also catches one that spins only while the
        backlog waits for credit (a phase too short to move the CPU)."""
        workload = clips + synthetic_workload(3, num_frames=6, base_seed=59)
        arrivals = [0.0] * len(clips) + [0.6, 1.2, 1.8]
        requests = _requests(workload, arrivals=arrivals)
        runtime = _process_runtime(
            spec, SupervisorConfig(heartbeat_timeout=5.0, max_respawns=0)
        )
        timeouts = []
        real_wait = supervision._wait_shards

        def counted_wait(states, timeout):
            timeouts.append(timeout)
            return real_wait(states, timeout)

        monkeypatch.setattr(supervision, "_wait_shards", counted_wait)

        def parent_cpu():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        def timed():
            cpu = parent_cpu()
            wall = time.perf_counter()
            report = runtime.serve(requests)
            return report, parent_cpu() - cpu, time.perf_counter() - wall

        report, cpu, wall = _within_watchdog(timed)
        assert len(report.records) == len(requests)
        assert wall > 1.8
        assert cpu < 0.5 * wall, (
            f"parent burned {cpu:.2f}s CPU in a {wall:.2f}s serve"
        )
        spins = sum(timeout == 0 for timeout in timeouts)
        assert spins <= 10, f"{spins} of {len(timeouts)} waits never slept"
        _assert_identical_by_id(
            report, requests, run_workload(spec, workload, batch=False)
        )

    def test_shard_dying_while_building_raises(self, spec, clips,
                                               monkeypatch):
        """A shard that dies before reporting ready is a systemic
        failure (its siblings share the spec): raised by name, with the
        exit code, before anything is dispatched."""
        runtime = _process_runtime(spec, SupervisorConfig(max_respawns=0))

        def die_building(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(serving_module, "LaneWorker", die_building)
        with pytest.raises(ShardCrashError, match="building.*exit code 3"):
            _within_watchdog(lambda: runtime.serve(_requests(clips[:2])))

    @pytest.mark.parametrize("trigger", ["retire", "skip"])
    def test_send_to_dead_shard_is_a_crash(self, spec, clips, serial_result,
                                           monkeypatch, trigger):
        """Shard 1 dies right before the parent's retire sentinel (or a
        virtual-time skip broadcast) reaches it: serve() returns, the
        death is recorded as a crash with nothing to re-dispatch."""
        if trigger == "retire":
            arrivals = [0.0, 0.0]
            wanted = lambda message: message is None  # noqa: E731
        else:
            arrivals = [0.0, 50.0]  # shard 1 idles; the gap is jumped
            wanted = lambda message: (  # noqa: E731
                isinstance(message, tuple) and message[0] == "skip"
            )
        real_pipe = multiprocessing.Pipe
        made = []

        def pipe():
            parent, child = real_pipe()
            made.append(parent)
            if len(made) == 2:  # shard 1's pipe: spawned second
                parent = _KillPeerBefore(parent, "shard default/1", wanted)
            return parent, child

        monkeypatch.setattr(multiprocessing, "Pipe", pipe)
        requests = _requests(clips[:2], arrivals=arrivals)
        runtime = _process_runtime(
            spec, SupervisorConfig(heartbeat_timeout=5.0, max_respawns=0),
            virtual_time=trigger == "skip",
        )
        report = _within_watchdog(lambda: runtime.serve(requests))
        assert len(made) == 2
        assert len(report.records) == 2
        assert [(e.shard, e.reason, e.seqs, e.respawned)
                for e in report.failover_events] == [(1, "crash", (), False)]
        assert report.failovers == 0
        _assert_recovery_accounted(report)
        _assert_identical_by_id(report, requests, serial_result)


class TestShedding:
    """Deadline contract: still-queued past the deadline = shed with a
    named record; admitted = always served, late or not."""

    def test_queued_past_deadline_is_shed(self, spec):
        # Two blockers occupy both slots for 6 steps; the deadlined
        # request arrives behind them and expires before a slot frees.
        blockers = synthetic_workload(2, num_frames=6, base_seed=11)
        late = synthetic_workload(1, num_frames=6, base_seed=31)
        requests = _requests(
            blockers + late,
            arrivals=[0.0, 0.0, 0.002],
            deadlines=[None, None, 0.004],
        )
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock())
        ).serve(requests)
        assert report.num_shed == 1
        (record,) = report.shed
        assert record.request_id == 2
        assert record.deadline == 0.004
        assert record.lane == "default"
        assert len(report.records) == 2
        assert {r.request_id for r in report.records} == {0, 1}

    def test_shed_record_materializes_named_error(self, spec):
        blockers = synthetic_workload(2, num_frames=6, base_seed=11)
        late = synthetic_workload(1, num_frames=6, base_seed=31)
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock())
        ).serve(_requests(
            blockers + late,
            arrivals=[0.0, 0.0, 0.002],
            deadlines=[None, None, 0.004],
        ))
        error = report.shed[0].error
        assert isinstance(error, RequestShedError)
        assert "deadline" in str(error) and "shed" in str(error)
        assert error.request_id == 2
        assert error.deadline == 0.004

    def test_admitted_request_is_served_late_not_shed(self, spec):
        clips = synthetic_workload(1, num_frames=6, base_seed=11)
        # Admitted at the first boundary (before the deadline), first
        # output after it: a missed deadline, never a drop.
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock())
        ).serve(_requests(clips, arrivals=[0.0], deadlines=[0.0015]))
        assert report.num_shed == 0
        (record,) = report.records
        assert record.met_deadline is False
        assert record.outcome == "served"

    def test_met_deadline_accounting(self, spec):
        clips = synthetic_workload(1, num_frames=6, base_seed=11)
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock())
        ).serve(_requests(clips, arrivals=[0.0], deadlines=[10.0]))
        (record,) = report.records
        assert record.met_deadline is True
        no_deadline = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock())
        ).serve(_requests(clips, arrivals=[0.0]))
        assert no_deadline.records[0].met_deadline is None

    def test_admission_is_earliest_deadline_first(self, spec):
        # One slot, one blocker; two waiters with inverted deadline vs
        # arrival order — the tighter deadline must be admitted first.
        blocker = synthetic_workload(1, num_frames=6, base_seed=11)
        waiters = synthetic_workload(2, num_frames=4, base_seed=47)
        requests = _requests(
            blocker + waiters,
            arrivals=[0.0, 0.002, 0.003],
            deadlines=[None, 10.0, 5.0],
        )
        report = ServingRuntime(
            spec, ServerConfig(max_batch=1, clock=FakeClock())
        ).serve(requests)
        assert report.num_shed == 0
        by_id = {r.request_id: r for r in report.records}
        assert by_id[2].admit_time < by_id[1].admit_time

    def test_deadline_before_arrival_rejected(self):
        clip = synthetic_workload(1, num_frames=2)[0]
        with pytest.raises(ValueError, match="deadline"):
            ClipRequest(
                request_id=0, clip=clip, arrival_time=1.0, deadline=0.5
            )


class TestDuplicateRequestIds:
    def test_duplicate_ids_rejected_naming_both(self, spec):
        clips = synthetic_workload(3, num_frames=2, base_seed=11)
        requests = _requests(clips)
        requests[2] = ClipRequest(
            request_id=0, clip=clips[2], arrival_time=0.004
        )
        with pytest.raises(DuplicateRequestError, match=r"#0.*#2"):
            ServingRuntime(spec, ServerConfig(max_batch=2)).serve(requests)

    def test_distinct_unhashable_ids_allowed(self, spec):
        clips = synthetic_workload(2, num_frames=2, base_seed=11)
        requests = [
            ClipRequest(request_id=["a", i], clip=clip, arrival_time=0.0)
            for i, clip in enumerate(clips)
        ]
        report = ServingRuntime(
            spec, ServerConfig(max_batch=2, clock=FakeClock())
        ).serve(requests)
        assert len(report.records) == 2
