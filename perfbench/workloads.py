"""The benchmark's workloads, driven through the library's public API.

Every workload is built from ``--seed`` alone: the seed picks the clips
and the arrival times, and the library only ever sees those inputs.
Each one runs repetitions of the same unit of work for the measured
window, checks every repetition's outputs, and returns per-repetition
figures plus pooled per-request samples.  Why each workload exists is
recorded in ``BENCHMARK.json``.

Arrival times are absolute offered rates in frames per second of a
fixed ladder, never rates scaled from a capacity probe, so a faster or
slower program meets exactly the same traffic.
"""

from __future__ import annotations

import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

NETWORK = "mini_fasterm"
#: one frame period of a 30 fps camera: the time-to-first-frame limit.
TTFF_LIMIT_MS = 1000.0 / 30.0

# lockstep_adaptive: 16 clips, long enough for about a second per pass.
LOCKSTEP_CLIPS = 16
LOCKSTEP_FRAMES = 96

# serve_poisson: short clips on one lane, a fixed geometric ladder of
# offered frame rates (sqrt 2 apart) spanning saturation (~2000 f/s on
# a 2-core x86 host).  The gated latencies are read at REFERENCE_FPS.
POISSON_CLIPS = 48
POISSON_FRAMES = 8
POISSON_MAX_BATCH = 16
POISSON_MAX_PENDING = 16
LADDER_FPS = (500.0, 707.0, 1000.0, 1414.0, 2000.0, 2828.0, 4000.0)
#: the rung the gated latency is read at, about half of saturation, and
#: its trace length (a larger pool steadies the percentile).
REFERENCE_FPS = 1000.0
REFERENCE_REQUESTS = 4 * POISSON_CLIPS

# serve_repeated_int8: two lanes carry the same repeated-scene clips.
INT8_CLIPS = 8
INT8_FRAMES = 16
INT8_STRETCH = 4
INT8_MAX_BATCH = 8
INT8_OFFERED_FPS = 6000.0
INT8_CACHE_MB = 64.0
TOP1_FLOOR = 0.98

# serve_sharded: bursts on two real shard processes, 160 offered f/s,
# about half of what the two shards serve on a 2-core host.  Saturated,
# their default-threaded BLAS calls oversubscribe the cores and served
# f/s swings about three times as far as host speed does; at half load
# wall time is the arrivals plus shard spawn and the last burst's drain,
# and cpu_ms_per_frame still carries the oversubscription.
SHARDED_CLIPS = 48
SHARDED_FRAMES = 8
SHARDED_BURST = 8
SHARDED_PERIOD = 0.4
SHARDED_SPREAD = 0.02


def cpu_seconds() -> float:
    """CPU seconds of this process plus every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Rep:
    """One repetition of a workload's unit of work."""

    frames: int
    wall: float
    cpu: float
    requests: int
    failed: int = 0
    #: per-request samples (seconds): ttff, frame gap, queue wait.
    ttff: List[float] = field(default_factory=list)
    gap: List[float] = field(default_factory=list)
    wait: List[float] = field(default_factory=list)
    #: named exact counts and measured side values.
    extra: Dict[str, float] = field(default_factory=dict)

    def add(self, other: "Rep") -> None:
        """Fold ``other`` in: totals add, samples pool."""
        self.frames += other.frames
        self.wall += other.wall
        self.cpu += other.cpu
        self.requests += other.requests
        self.failed += other.failed
        self.ttff += other.ttff
        self.gap += other.gap
        self.wait += other.wait
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value


def _timed(call):
    """(result, wall seconds, cpu seconds) of ``call()``."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, cpu_seconds() - cpu0


def _same_clip(got, want) -> bool:
    """Bit-identical outputs, key decisions and RFBME op counts."""
    ops = [r.estimation_ops.total if r.estimation_ops else -1
           for r in got.records]
    ref = [r.estimation_ops.total if r.estimation_ops else -1
           for r in want.records]
    return (
        len(got) == len(want)
        and np.array_equal(got.key_mask(), want.key_mask())
        and np.array_equal(got.outputs(), want.outputs())
        and ops == ref
    )


def _request_samples(rep: Rep, report) -> None:
    for record in report.records:
        rep.ttff.append(record.first_output_time - record.arrival_time)
        rep.wait.append(record.admit_time - record.arrival_time)
        if record.num_frames > 1:
            rep.gap.append(
                (record.finish_time - record.first_output_time)
                / (record.num_frames - 1)
            )


def _report_counts(rep: Rep, report) -> None:
    served = report.workload_result()
    rep.extra.update(
        steps=report.steps,
        shed=report.num_shed,
        backpressure_pauses=report.backpressure_pauses,
        prefix_hits=report.prefix_cache_hits,
        prefix_misses=report.prefix_cache_misses,
        prefix_evictions=report.prefix_cache_evictions,
        prefix_fused=report.prefix_fused_batches,
        prefix_saved_macs=report.prefix_saved_macs,
        adder_ops=served.total_estimation_ops,
        key_frames=served.num_key_frames,
        retries=report.retries,
        failovers=report.failovers,
        respawns=report.respawns,
    )


class Workload:
    """Inputs and reference outputs for one seed; ``rep()`` runs once."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rep_index = 0
        self.matched = 0
        self.checked = 0

    def rep(self) -> Rep:
        rep = self._rep()
        self.rep_index += 1
        return rep

    def _rep(self) -> Rep:
        raise NotImplementedError

    def start_measuring(self) -> None:
        """Drop figures pooled during warm-up (output checks are kept)."""

    def _rng_seed(self, *salt: int) -> int:
        return (self.seed * 1_000_003 + hash(salt)) % (2**32)

    def quality(self) -> Dict[str, float]:
        return {"output_match_frac": self.matched / max(self.checked, 1)}

    def spec(self):
        raise NotImplementedError


class LockstepAdaptive(Workload):
    name = "lockstep_adaptive"

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.runtime import PipelineSpec, run_workload, synthetic_workload

        self._run = run_workload
        self._spec = PipelineSpec(network=NETWORK, policy="match_error")
        self.clips = synthetic_workload(
            LOCKSTEP_CLIPS, num_frames=LOCKSTEP_FRAMES, base_seed=seed * 1000
        )
        self.reference = run_workload(self._spec, self.clips, batch=False)

    def spec(self):
        return self._spec

    def _rep(self) -> Rep:
        result, wall, cpu = _timed(
            lambda: self._run(self._spec, self.clips, batch=True)
        )
        good = [
            _same_clip(got, want)
            for got, want in zip(result.results, self.reference.results)
        ]
        self.matched += sum(good)
        self.checked += len(good)
        rep = Rep(
            frames=result.total_frames,
            wall=wall,
            cpu=cpu,
            requests=len(self.clips),
            failed=len(good) - sum(good),
            # The batch API hands every clip's outputs back at return.
            ttff=[wall] * len(self.clips),
        )
        rep.extra.update(
            steps=result.steps,
            adder_ops=result.total_estimation_ops,
            key_frames=result.num_key_frames,
        )
        return rep


class _Served(Workload):
    """Shared request bookkeeping for the serving workloads."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.last_report = None

    def _serve(self, runtime, requests, reference) -> Rep:
        try:
            report, wall, cpu = _timed(lambda: runtime.serve(requests))
        except Exception:  # a failed serve fails every request it carried
            traceback.print_exc(file=sys.stderr)
            return Rep(frames=0, wall=0.0, cpu=0.0, requests=len(requests),
                       failed=len(requests))
        by_id = {record.request_id: record for record in report.records}
        good = 0
        for request in requests:
            record = by_id.get(request.request_id)
            if record is not None and self._accept(
                request.request_id, record.result, reference
            ):
                good += 1
        self.matched += good
        self.checked += len(requests)
        rep = Rep(
            frames=report.total_frames,
            wall=wall,
            cpu=cpu,
            requests=len(requests),
            failed=len(requests) - good,
        )
        _request_samples(rep, report)
        _report_counts(rep, report)
        rep.extra["modeled_fps"] = report.frames_per_second
        if report.shards:
            busy = [shard.wall_seconds for shard in report.shards]
            rep.extra.update(
                shard_busy_max=max(busy),
                shard_balance=min(busy) / max(busy) if max(busy) else 0.0,
            )
        self.last_report = report
        return rep

    def _accept(self, request_id, result, reference) -> bool:
        return _same_clip(result, reference[request_id])


class ServePoisson(_Served):
    name = "serve_poisson"

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.runtime import (
            ClipRequest,
            PipelineSpec,
            ServerConfig,
            ServingRuntime,
            poisson_arrival_times,
            run_workload,
            synthetic_workload,
        )

        self._spec = PipelineSpec(network=NETWORK, policy="match_error")
        self.clips = synthetic_workload(
            POISSON_CLIPS, num_frames=POISSON_FRAMES, base_seed=seed * 1000
        )
        serial = run_workload(self._spec, self.clips, batch=False)
        # Request i carries clip i mod POISSON_CLIPS.
        self.reference = {
            i: serial.results[i % POISSON_CLIPS]
            for i in range(REFERENCE_REQUESTS)
        }
        self.runtime = ServingRuntime(
            self._spec,
            ServerConfig(max_batch=POISSON_MAX_BATCH,
                         max_pending=POISSON_MAX_PENDING),
        )
        self._request = ClipRequest
        self._arrivals = poisson_arrival_times
        #: per-rung pooled samples and per-sweep backlog slopes.
        self.rungs: Dict[float, Rep] = {}
        self.slopes: Dict[float, List[float]] = {}
        self.start_measuring()

    def spec(self):
        return self._spec

    def start_measuring(self) -> None:
        for rate in LADDER_FPS:
            self.rungs[rate] = Rep(0, 0.0, 0.0, 0)
            self.slopes[rate] = []

    def requests(self, rate: float):
        count = REFERENCE_REQUESTS if rate == REFERENCE_FPS else POISSON_CLIPS
        arrivals = self._arrivals(
            count,
            rate=rate / POISSON_FRAMES,
            seed=self._rng_seed(int(rate), self.rep_index),
        )
        return [
            self._request(request_id=i, clip=self.clips[i % POISSON_CLIPS],
                          arrival_time=arrival)
            for i, arrival in enumerate(arrivals)
        ]

    def _rep(self) -> Rep:
        from benchmath import backlog_slope

        sweep = Rep(0, 0.0, 0.0, 0)
        for rate in LADDER_FPS:
            rep = self._serve(self.runtime, self.requests(rate), self.reference)
            if rep.frames:
                records = self.last_report.records
                self.slopes[rate].append(backlog_slope(
                    [r.arrival_time for r in records],
                    [r.admit_time - r.arrival_time for r in records],
                ))
            self.rungs[rate].add(rep)
            if rate != REFERENCE_FPS:
                # The sweep's latency samples are the reference rung's.
                rep.ttff, rep.gap = [], []
            sweep.add(rep)
        return sweep


class ServeRepeatedInt8(_Served):
    name = "serve_repeated_int8"

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.runtime import (
            ClipRequest,
            PipelineSpec,
            ServerConfig,
            ServingRuntime,
            poisson_arrival_times,
            run_workload,
            static_stretch_workload,
        )

        self._spec = PipelineSpec(network=NETWORK, policy="always")
        clips = static_stretch_workload(
            INT8_CLIPS, num_frames=INT8_FRAMES, stretch=INT8_STRETCH,
            base_seed=seed * 1000,
        )
        # Requests 2i / 2i+1 carry clip i on cam0 / cam1.
        self.clips = [clip for clip in clips for _ in range(2)]
        float_ref = run_workload(self._spec, clips, batch=False)
        self.float_reference = {
            i: float_ref.results[i // 2] for i in range(len(self.clips))
        }
        self.runtime = ServingRuntime(
            {"cam0": self._spec, "cam1": self._spec},
            ServerConfig(max_batch=INT8_MAX_BATCH, prefix_coalesce=True,
                         prefix_cache_mb=INT8_CACHE_MB,
                         inference_dtype="int8"),
        )
        self.plan = self._spec.shared_network().inference_plan(
            INT8_MAX_BATCH, "int8"
        )
        self._int8_spec = replace(self._spec, dtype="int8")
        self._request = ClipRequest
        self._arrivals = poisson_arrival_times
        self.max_err = 0.0
        self.top1_hits = 0
        self.top1_raw = 0
        self.top1_total = 0

    def spec(self):
        return self._int8_spec

    def _accept(self, request_id, result, reference) -> bool:
        want = reference[request_id].outputs()
        got = result.outputs()
        if got.shape != want.shape:
            return False
        bound = self.plan.tolerance.max_abs_error
        err = float(np.max(np.abs(got - want)))
        self.max_err = max(self.max_err, err)
        # The contract's top-1 leg, as ``repro serve --verify-tolerance``
        # defines it: a flip on a frame whose reference top-1/top-2 margin
        # is within twice the error bound is one the bound allows.
        matched = got.argmax(axis=1) == want.argmax(axis=1)
        top2 = np.sort(want, axis=1)[:, -2:]
        near_tie = (top2[:, 1] - top2[:, 0]) <= 2 * bound
        self.top1_raw += int(np.sum(matched))
        self.top1_hits += int(np.sum(matched | near_tie))
        self.top1_total += len(got)
        return err <= bound

    def _rep(self) -> Rep:
        arrivals = self._arrivals(
            len(self.clips),
            rate=INT8_OFFERED_FPS / INT8_FRAMES,
            seed=self._rng_seed(self.rep_index),
        )
        requests = [
            self._request(request_id=i, clip=clip, arrival_time=t,
                          lane=f"cam{i % 2}")
            for i, (clip, t) in enumerate(zip(self.clips, arrivals))
        ]
        return self._serve(self.runtime, requests, self.float_reference)

    def quality(self):
        bound = self.plan.tolerance.max_abs_error
        return {
            **super().quality(),
            "top1_agreement": self.top1_hits / max(self.top1_total, 1),
            "top1_agreement_raw": self.top1_raw / max(self.top1_total, 1),
            "tolerance_headroom": bound / self.max_err if self.max_err
            else math.inf,
            "max_abs_err": self.max_err,
            "fallback_layers": len(self.plan.quant_fallback_layers),
        }


class ServeSharded(_Served):
    name = "serve_sharded"

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.runtime import (
            ClipRequest,
            PipelineSpec,
            ServerConfig,
            ServingRuntime,
            bursty_arrival_times,
            run_workload,
            synthetic_workload,
        )

        self._spec = PipelineSpec(network=NETWORK, policy="match_error")
        self.clips = synthetic_workload(
            SHARDED_CLIPS, num_frames=SHARDED_FRAMES, base_seed=seed * 1000
        )
        serial = run_workload(self._spec, self.clips, batch=False)
        self.reference = dict(enumerate(serial.results))
        self.runtime = ServingRuntime(
            self._spec,
            ServerConfig(max_batch=POISSON_MAX_BATCH, serve_workers=2,
                         shard_backend="process", admission="shared"),
        )
        self._request = ClipRequest
        self._arrivals = bursty_arrival_times

    def spec(self):
        return self._spec

    def _rep(self) -> Rep:
        arrivals = self._arrivals(
            len(self.clips), burst_size=SHARDED_BURST, period=SHARDED_PERIOD,
            spread=SHARDED_SPREAD, seed=self._rng_seed(self.rep_index),
        )
        requests = [
            self._request(request_id=i, clip=clip, arrival_time=t)
            for i, (clip, t) in enumerate(zip(self.clips, arrivals))
        ]
        return self._serve(self.runtime, requests, self.reference)


WORKLOADS = {
    cls.name: cls
    for cls in (LockstepAdaptive, ServePoisson, ServeRepeatedInt8, ServeSharded)
}


# --------------------------------------------------------------------- #
# set-up probe: a fresh interpreter up to its first served frame
# --------------------------------------------------------------------- #
def setup_probe(name: str) -> Dict[str, float]:
    """Monotonic timestamps of each set-up phase, ending at a first frame.

    Called as the first thing in a fresh interpreter; input generation
    (one tiny clip) is timed separately so it can be left out.
    """
    clock = time.monotonic
    import repro.runtime as rt

    stamps = {"imported": clock()}
    spec = rt.PipelineSpec(
        network=NETWORK,
        policy="always" if name == "serve_repeated_int8" else "match_error",
    )
    network = spec.shared_network()
    stamps["model_loaded"] = clock()
    if name == "lockstep_adaptive":
        network.inference_plan(LOCKSTEP_CLIPS, "float64")
    elif name == "serve_poisson":
        network.inference_plan(POISSON_MAX_BATCH, "float64")
    elif name == "serve_repeated_int8":  # int8 calibration runs here
        network.inference_plan(INT8_MAX_BATCH, "int8")
    # (serve_sharded: each shard process compiles its own plan.)
    stamps["plan_compiled"] = clock()
    before = clock()
    clip = rt.synthetic_workload(1, num_frames=1, base_seed=0)[0]
    stamps["input_s"] = clock() - before
    if name == "lockstep_adaptive":
        rt.run_workload(spec, [clip] * LOCKSTEP_CLIPS, batch=True)
    else:
        config = {
            "serve_poisson": rt.ServerConfig(max_batch=POISSON_MAX_BATCH),
            "serve_repeated_int8": rt.ServerConfig(
                max_batch=INT8_MAX_BATCH, prefix_cache_mb=INT8_CACHE_MB,
                inference_dtype="int8",
            ),
            "serve_sharded": rt.ServerConfig(
                max_batch=POISSON_MAX_BATCH, serve_workers=2,
                shard_backend="process", admission="shared",
            ),
        }[name]
        lanes = (
            {"cam0": spec, "cam1": spec}
            if name == "serve_repeated_int8" else spec
        )
        requests = [
            rt.ClipRequest(request_id=0, clip=clip,
                           lane="cam0" if isinstance(lanes, dict) else None)
        ]
        rt.ServingRuntime(lanes, config).serve(requests)
    stamps["first_frame"] = clock()
    return stamps


# --------------------------------------------------------------------- #
# modeled (never measured) figures
# --------------------------------------------------------------------- #
def modeled(spec, key_fraction: float) -> Dict[str, float]:
    """Paper-hardware model figures for this workload's key fraction."""
    from repro.hardware.vpu import VPUModel
    from repro.nn.inference import quantized_savings

    network = spec.shared_network()
    target = spec.build_executor(network).target
    prefix, suffix = network.prefix_macs(target), network.suffix_macs(target)
    vpu = VPUModel("fasterm").average_frame_cost(key_fraction)
    savings = quantized_savings(network, spec.dtype)
    return {
        "macs_per_frame": key_fraction * prefix + suffix,
        "vpu_energy_mj_per_frame": vpu.energy_mj,
        "mac_energy_ratio": savings.mac_energy_ratio if savings else 1.0,
    }
