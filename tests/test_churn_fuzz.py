"""Churn-fuzz differential harness: serving under churn vs ground truth.

Each seed derives a complete serving scenario — clip count, ragged
lengths (forcing mid-flight evictions), a scenario mix with hard scene
cuts spliced at step boundaries, lane capacity, and a bursty Poisson
arrival trace (forcing mid-flight admissions) — then serves it three
ways: per-clip serial (ground truth), plain serving, and serving with
the content-addressed prefix cache on (``prefix_cache_mb=16``), whose
entries are inserted and looked up while slots are admitted and evicted
around them.  Every path must produce bit-identical frames, key-frame
decisions, and per-clip RFBME op counts.  A failing seed is a real bug
in slot reuse, admission bookkeeping or the prefix cache, never fuzz
noise: everything is deterministic given the seed.

CI hooks:

* ``REPRO_FUZZ_SEEDS`` — space/comma-separated seed list overriding the
  default set, so CI can matrix one seed per job.
* ``REPRO_FUZZ_TRACE_DIR`` — when set, each scenario is dumped there as
  JSON *before* the assertions run, so the trace of a failing seed
  survives as an artifact.
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.sad_kernel import get_kernel
from repro.runtime import (
    ClipRequest,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    run_workload,
    synthetic_workload,
)
from repro.video import generate_clip, scenario, scenario_names
from repro.video.generator import VideoClip

NETWORK = "mini_fasterm"
DEFAULT_SEEDS = (0, 1, 2, 3)
_POLICIES = ("match_error", "static", "motion")


def _fuzz_seeds():
    env = os.environ.get("REPRO_FUZZ_SEEDS", "").replace(",", " ").split()
    return tuple(int(token) for token in env) if env else DEFAULT_SEEDS


#: RFBME host lanes the differential runs in; the compiled lane skips
#: where the kernel is unavailable (e.g. under REPRO_FORCE_NUMPY=1).
LANES = [
    pytest.param(
        "kernel",
        marks=pytest.mark.skipif(
            get_kernel() is None, reason="compiled SAD kernel unavailable"
        ),
    ),
    pytest.param("batched"),
]


class FakeClock:
    """Manually advanced clock (see test_serving): each reading moves
    time one tick, so admission interleaves with service deterministically."""

    def __init__(self, tick: float = 0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def _requests(clips, arrivals=None):
    arrivals = arrivals if arrivals is not None else itertools.repeat(0.0)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]


def _spliced_clip(first, second, seed, num_frames):
    """A clip with a hard scene cut: two scenarios spliced mid-stream.

    The cut lands on a frame boundary — exactly where serving admits and
    evicts — so adaptive policies flip to a key frame right where slot
    membership may be changing."""
    cut = num_frames // 2
    head = generate_clip(scenario(first), seed=seed, num_frames=cut)
    tail = generate_clip(
        scenario(second), seed=seed + 1, num_frames=num_frames - cut
    )
    return VideoClip(
        frames=np.concatenate([head.frames, tail.frames]),
        annotations=list(head.annotations) + list(tail.annotations),
        scenario=f"{first}+cut:{second}",
    )


def _make_scenario(seed):
    """Derive one full serving scenario from a seed (pure function)."""
    rng = np.random.default_rng(seed)
    names = list(scenario_names())
    num_clips = int(rng.integers(6, 10))
    capacity = int(rng.integers(2, 5))
    policy = _POLICIES[int(rng.integers(len(_POLICIES)))]

    clips = []
    clip_meta = []
    for i in range(num_clips):
        num_frames = int(rng.integers(2, 9))
        name = names[int(rng.integers(len(names)))]
        clip_seed = int(rng.integers(0, 10_000))
        if num_frames >= 4 and rng.random() < 0.35:
            other = names[int(rng.integers(len(names)))]
            clip = _spliced_clip(name, other, clip_seed, num_frames)
        else:
            clip = generate_clip(
                scenario(name), seed=clip_seed, num_frames=num_frames
            )
        clips.append(clip)
        clip_meta.append(
            {"scenario": clip.scenario, "seed": clip_seed, "frames": num_frames}
        )

    # Bursty Poisson trace: exponential gaps sized against the FakeClock
    # tick, with occasional zero-gap bursts so several admissions hit
    # one step boundary at once.
    arrivals = []
    t = 0.0
    while len(arrivals) < num_clips:
        t += float(rng.exponential(0.004))
        burst = 1 + int(rng.integers(0, 3)) if rng.random() < 0.35 else 1
        for _ in range(min(burst, num_clips - len(arrivals))):
            arrivals.append(round(t, 6))

    return {
        "seed": seed,
        "capacity": capacity,
        "policy": policy,
        "clips": clip_meta,
        "arrivals": arrivals,
    }, clips


def _dump_trace(label, trace):
    trace_dir = os.environ.get("REPRO_FUZZ_TRACE_DIR")
    if not trace_dir:
        return
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{label}.json").write_text(json.dumps(trace, indent=2))


def _spec(backend, policy, cnn_engine="planned"):
    spec = PipelineSpec(
        network=NETWORK,
        policy=policy,
        rfbme_backend=backend,
        cnn_engine=cnn_engine,
    )
    spec.warm()
    return spec


def _serve(spec, clips, arrivals, capacity, prefix_cache_mb=0.0):
    runtime = ServingRuntime(
        spec,
        ServerConfig(max_batch=capacity, clock=FakeClock(),
                     prefix_cache_mb=prefix_cache_mb),
    )
    return runtime.serve(_requests(clips, arrivals))


def _assert_identical(report, reference):
    """Bit-identity per clip: outputs, key decisions, and op counts."""
    got = report.workload_result()
    assert got.matches(reference)
    for served, want in zip(got.results, reference.results):
        np.testing.assert_array_equal(served.outputs(), want.outputs())
        np.testing.assert_array_equal(served.key_mask(), want.key_mask())
        assert _clip_ops(served) == _clip_ops(want)


def _clip_ops(result):
    return sum(
        record.estimation_ops.total
        for record in result.records
        if record.estimation_ops is not None
    )


@pytest.mark.parametrize("backend", LANES)
@pytest.mark.parametrize("seed", _fuzz_seeds())
def test_churn_fuzz_differential(seed, backend):
    """The serving contract, fuzzed: a seeded churn trace served plain
    and with the prefix cache is bit-identical to its serial run."""
    trace, clips = _make_scenario(seed)
    _dump_trace(f"fuzz_seed{seed}_{backend}", trace)

    spec = _spec(backend, trace["policy"])
    serial = run_workload(spec, clips, batch=False)

    plain = _serve(spec, clips, trace["arrivals"], trace["capacity"])
    _assert_identical(plain, serial)

    cached = _serve(
        spec, clips, trace["arrivals"], trace["capacity"], prefix_cache_mb=16
    )
    _assert_identical(cached, serial)
    # Every key frame consults the cache, so lookups must have happened.
    assert cached.prefix_cache_hits + cached.prefix_cache_misses > 0


class TestForcedChurn:
    """Deterministic worst-case trace: a partly filled lane whose late
    wave of admissions lands while the early residents are mid-clip."""

    @pytest.fixture(scope="class")
    def churn_trace(self):
        # Capacity 3 but only 2 residents at t=0; the late wave of
        # admissions lands mid-flight and changes membership repeatedly.
        early = synthetic_workload(2, num_frames=8, base_seed=31)
        late = synthetic_workload(3, num_frames=5, base_seed=47)
        clips = early + late
        arrivals = [0.0, 0.0, 0.006, 0.012, 0.018]
        return clips, arrivals

    @pytest.mark.parametrize(
        "cnn_engine, policy",
        [
            ("planned", "match_error"),
            ("planned", "static"),
        ],
    )
    def test_identity_holds(self, churn_trace, cnn_engine, policy):
        clips, arrivals = churn_trace
        spec = _spec(None, policy, cnn_engine=cnn_engine)
        serial = run_workload(spec, clips, batch=False)
        report = _serve(spec, clips, arrivals, capacity=3)
        _assert_identical(report, serial)
