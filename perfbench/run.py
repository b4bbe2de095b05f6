"""The repository benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload lockstep_adaptive --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the per-layer metrics in a separate traced run
(spans wrapped around the library's public stage, flush and step entry
points from ``spans.py``) next to an untraced one, and reports the
tracing overhead between them.  Every metric is printed by name with its
unit and a tag — ``measured``, ``modeled`` (a cost model, never gated)
or ``count`` (exact) — and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics ``BENCHMARK.json`` declares for the mode.  Full results, the host
fingerprint and (traced) a Chrome trace-event file go to
``perfbench/out/``.

Process layout: this orchestrating process never imports the library.
It starts fresh interpreters for the set-up probes (``setup_s`` is the
median of ``SETUP_PROBES`` of them, interpreter start to first served
frame) and one interpreter per measured run, so set-up, peak memory and
CPU time are each measured on a process that did nothing else.

``--heldout`` maps ``--seed n`` to a seed outside the range used while
the benchmark and its workloads were tuned (``HELDOUT_BASE + n``), for
checking a claimed gain on inputs nobody tuned against.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchmath import (  # noqa: E402
    Rung,
    chrome_trace,
    max_supported_percentile,
    pooled_tail,
    reconcile,
    samples_needed,
    self_times,
    sustainable_rate,
)

SETUP_PROBES = 5
HELDOUT_BASE = 1_000_000
#: wall-clock budget for one child process (the whole run must end in 180 s).
CHILD_TIMEOUT = 75
OUT_DIR = os.path.join(HERE, "out")

#: metric name -> (unit, tag).  Tags: measured / modeled / count.
UNITS = {
    "fps": ("frames/s", "measured"),
    "ttff_p50_ms": ("ms", "measured"),
    "ttff_p95_ms": ("ms", "measured"),
    "frame_gap_p50_ms": ("ms", "measured"),
    "frame_gap_p95_ms": ("ms", "measured"),
    "sustainable_fps": ("frames/s", "measured"),
    "failed_frac": ("ratio", "count"),
    "output_match_frac": ("ratio", "count"),
    "top1_agreement": ("ratio", "measured"),
    "tolerance_headroom": ("ratio", "measured"),
    "top1_agreement_raw": ("ratio", "measured"),
    "setup_s": ("s", "measured"),
    "peak_rss_mb": ("MB", "measured"),
    "cpu_ms_per_frame": ("ms", "measured"),
    "rfbme.busy_ms_per_frame": ("ms", "measured"),
    "rfbme.pairs": ("count", "count"),
    "rfbme.adder_ops": ("count", "count"),
    "decide.key_fraction": ("ratio", "count"),
    "decide.busy_ms_per_frame": ("ms", "measured"),
    "cnn_prefix.busy_ms_per_key": ("ms", "measured"),
    "cnn_prefix.rows_per_call": ("rows", "count"),
    "cnn_prefix.calls": ("count", "count"),
    "cnn_suffix.busy_us_per_row": ("us", "measured"),
    "warp.busy_us_per_row": ("us", "measured"),
    "record.busy_us_per_frame": ("us", "measured"),
    "step.count": ("count", "count"),
    "step.busy_ms_p50": ("ms", "measured"),
    "step.rows_mean": ("rows", "count"),
    "step.reconcile_frac": ("ratio", "measured"),
    "serving.queue_wait_p50_ms": ("ms", "measured"),
    "serving.queue_wait_p95_ms": ("ms", "measured"),
    "serving.occupancy_mean": ("rows", "count"),
    "serving.loop_overhead_frac": ("ratio", "measured"),
    "frontdoor.backpressure_pauses": ("count", "count"),
    "prefix_service.hit_rate": ("ratio", "count"),
    "prefix_service.hits": ("count", "count"),
    "prefix_service.misses": ("count", "count"),
    "prefix_service.evictions": ("count", "count"),
    "prefix_service.fused_batches": ("count", "count"),
    "prefix_service.saved_mmacs": ("MMAC", "count"),
    "prefix_service.flush_busy_ms_per_frame": ("ms", "measured"),
    "quant.fallback_layers": ("count", "count"),
    "quant.max_abs_err": ("abs", "measured"),
    "setup.import_s": ("s", "measured"),
    "setup.model_load_s": ("s", "measured"),
    "setup.plan_compile_s": ("s", "measured"),
    "setup.shard_spawn_s": ("s", "measured"),
    "supervision.shard_busy_max_s": ("s", "measured"),
    "supervision.shard_balance": ("ratio", "measured"),
    "supervision.unaccounted_frac": ("ratio", "measured"),
    "supervision.failovers": ("count", "count"),
    "supervision.retries": ("count", "count"),
    "supervision.respawns": ("count", "count"),
    "supervision.modeled_fps": ("frames/s", "modeled"),
    "trace.overhead_frac": ("ratio", "measured"),
    "modeled.macs_per_frame": ("MAC", "modeled"),
    "modeled.vpu_energy_mj_per_frame": ("mJ", "modeled"),
    "modeled.mac_energy_ratio": ("ratio", "modeled"),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# child roles (these import the library)
# --------------------------------------------------------------------- #
def _import_library() -> None:
    """Put this checkout's ``src`` first on the path and verify it won."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(
            f"imported repro from {repro.__file__}, not from {src}"
        )


def role_setup(workload: str) -> None:
    _import_library()
    from workloads import setup_probe

    print(json.dumps(setup_probe(workload)))


def _host() -> dict:
    import ctypes
    import glob

    import numpy

    from repro.core.sad_kernel import get_kernel, kernel_available

    kernel = get_kernel()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel_available": kernel_available(),
        "vnni": bool(kernel is not None and kernel.has_vnni),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": sys.version.split()[0],
    }


def _step_busy(spans) -> List[float]:
    """Per-step busy seconds: each executor's begin/finish pairs."""
    open_begin: Dict[int, list] = {}
    busy = []
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "step.begin":
            open_begin.setdefault(span.owner, []).append(span)
        elif span.name == "step.finish" and open_begin.get(span.owner):
            begin = open_begin[span.owner].pop(0)
            busy.append(begin.duration + span.duration)
    return busy


def _per_layer(workload, reps, spans, frames) -> Dict[str, float]:
    from spans import FLUSH_SPAN, STAGES, STEP_SPANS

    n = len(reps)
    total = {}
    rows = {}
    calls = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        rows[span.name] = rows.get(span.name, 0) + span.rows
        if span.rows:
            calls[span.name] = calls.get(span.name, 0) + 1

    def extra(key):
        return sum(rep.extra.get(key, 0) for rep in reps)

    served = workload.name != "lockstep_adaptive"
    keys = rows.get("cnn_prefix", 0)
    steps = [s for s in spans if s.name == "step.begin"]
    step_wall = sum(total.get(name, 0.0) for name in STEP_SPANS)
    flush_top = sum(
        s.duration for s in spans if s.name == FLUSH_SPAN and s.parent is None
    )
    serve_wall = sum(rep.wall for rep in reps)
    waits = [w for rep in reps for w in rep.wait]
    lookups = extra("prefix_hits") + extra("prefix_misses")
    quality = workload.quality()
    return {
        "rfbme.busy_ms_per_frame": total.get("rfbme", 0.0) * 1e3 / frames,
        "rfbme.pairs": rows.get("rfbme", 0) / n,
        "rfbme.adder_ops": extra("adder_ops") / n,
        "decide.key_fraction": extra("key_frames") / frames,
        "decide.busy_ms_per_frame": total.get("decide", 0.0) * 1e3 / frames,
        "cnn_prefix.busy_ms_per_key": (
            total.get("cnn_prefix", 0.0) * 1e3 / keys if keys else 0.0
        ),
        "cnn_prefix.rows_per_call": (
            keys / calls["cnn_prefix"] if calls.get("cnn_prefix") else 0.0
        ),
        "cnn_prefix.calls": calls.get("cnn_prefix", 0) / n,
        "cnn_suffix.busy_us_per_row": (
            total.get("cnn_suffix", 0.0) * 1e6 / rows["cnn_suffix"]
            if rows.get("cnn_suffix") else 0.0
        ),
        "warp.busy_us_per_row": (
            total.get("warp", 0.0) * 1e6 / rows["warp"]
            if rows.get("warp") else 0.0
        ),
        "record.busy_us_per_frame": total.get("record", 0.0) * 1e6 / frames,
        # Shard processes run outside the tracer: their step counts come
        # from ServingReport.steps instead.
        "step.count": len(steps) / n if steps else extra("steps") / n,
        "step.busy_ms_p50": _median(_step_busy(spans)) * 1e3,
        "step.rows_mean": (
            sum(s.rows for s in steps) / len(steps) if steps
            else frames / extra("steps") if extra("steps") else 0.0
        ),
        "step.reconcile_frac": reconcile(
            spans, STEP_SPANS, STAGES, (FLUSH_SPAN,)
        ),
        "serving.queue_wait_p50_ms": (
            pooled_tail(waits, 50).value * 1e3 if served and waits else 0.0
        ),
        "serving.queue_wait_p95_ms": (
            pooled_tail(waits, 95).value * 1e3 if served and waits else 0.0
        ),
        "serving.occupancy_mean": (
            frames / extra("steps") if served and extra("steps") else 0.0
        ),
        "serving.loop_overhead_frac": (
            1.0 - (step_wall + flush_top) / serve_wall
            if served and serve_wall and step_wall else 0.0
        ),
        "frontdoor.backpressure_pauses": extra("backpressure_pauses") / n,
        "prefix_service.hit_rate": (
            extra("prefix_hits") / lookups if lookups else 0.0
        ),
        "prefix_service.hits": extra("prefix_hits") / n,
        "prefix_service.misses": extra("prefix_misses") / n,
        "prefix_service.evictions": extra("prefix_evictions") / n,
        "prefix_service.fused_batches": extra("prefix_fused") / n,
        "prefix_service.saved_mmacs": extra("prefix_saved_macs") / n / 1e6,
        "prefix_service.flush_busy_ms_per_frame": (
            total.get(FLUSH_SPAN, 0.0) * 1e3 / frames
        ),
        "quant.fallback_layers": quality.get("fallback_layers", 0),
        "quant.max_abs_err": quality.get("max_abs_err", 0.0),
    }


def role_measure(workload_name: str, seed: int, seconds: float,
                 traced: bool) -> None:
    _import_library()
    import resource

    import workloads as wl

    tracer = None
    if traced:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload = wl.WORKLOADS[workload_name](seed)
    workload.rep()  # warm-up: plans at full width, caches, kernels
    workload.start_measuring()
    if tracer is not None:
        tracer.reset()
    reps = []
    start = time.perf_counter()
    while len(reps) < 3 or time.perf_counter() - start < seconds:
        reps.append(workload.rep())
    frames = sum(rep.frames for rep in reps)
    attempted = sum(rep.requests for rep in reps)
    failed = sum(rep.failed for rep in reps)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    quality = workload.quality()

    ttff = [t for rep in reps for t in rep.ttff]
    gaps = [g for rep in reps for g in rep.gap]
    metrics = {
        "fps": _median([rep.frames / rep.wall for rep in reps if rep.wall]),
        "cpu_ms_per_frame": _median(
            [rep.cpu * 1e3 / rep.frames for rep in reps if rep.frames]
        ),
        "peak_rss_mb": (own + kids) / 1024.0,
        "failed_frac": failed / max(attempted, 1),
        "output_match_frac": quality["output_match_frac"],
    }
    tails = {}
    for name, samples in (("ttff", ttff), ("frame_gap", gaps)):
        for p in (50, 95):
            if samples:
                tail = pooled_tail(samples, p)
                metrics[f"{name}_p{p}_ms"] = tail.value * 1e3
                tails[f"{name}_p{p}_ms"] = {
                    "n": tail.n, "beyond": tail.beyond,
                    "supported": tail.supported,
                    "needed": samples_needed(p),
                    "highest_supported_p": max_supported_percentile(tail.n),
                }
    ladder = []
    if workload_name == "serve_poisson":
        rungs = []
        for rate in wl.LADDER_FPS:
            pooled = workload.rungs[rate]
            p95 = pooled_tail(pooled.ttff, 95)
            rung = Rung(rate, p95.value * 1e3, _median(workload.slopes[rate]),
                        pooled.failed)
            rungs.append(rung)
            ladder.append({
                "offered_fps": rate,
                "served_fps": pooled.frames / pooled.wall if pooled.wall else 0,
                "ttff_p50_ms": pooled_tail(pooled.ttff, 50).value * 1e3,
                "ttff_p95_ms": rung.p95_ms,
                "p95_supported": p95.supported,
                "queue_wait_p50_ms": pooled_tail(pooled.wait, 50).value * 1e3,
                "backlog_slope": rung.backlog_slope,
                "backlog_growing": rung.backlog_growing,
                "failed": pooled.failed,
                "passes": rung.passes(wl.TTFF_LIMIT_MS),
            })
        metrics["sustainable_fps"] = sustainable_rate(rungs, wl.TTFF_LIMIT_MS)
    if workload_name == "serve_repeated_int8":
        metrics["top1_agreement"] = quality["top1_agreement"]
        metrics["tolerance_headroom"] = quality["tolerance_headroom"]
        metrics["top1_agreement_raw"] = quality["top1_agreement_raw"]
    # Supervision figures come from ShardInfo/ServingReport: the shard
    # processes run outside the tracer.  In-process workloads have no
    # shards and report 0.
    busy = [rep.extra.get("shard_busy_max", 0.0) for rep in reps]
    metrics.update({
        "supervision.shard_busy_max_s": _median(busy),
        "supervision.shard_balance": _median(
            [rep.extra.get("shard_balance", 0.0) for rep in reps]
        ),
        "supervision.unaccounted_frac": _median(
            [1.0 - b / rep.wall for b, rep in zip(busy, reps) if b]
        ),
        "supervision.failovers": sum(r.extra.get("failovers", 0) for r in reps),
        "supervision.retries": sum(r.extra.get("retries", 0) for r in reps),
        "supervision.respawns": sum(r.extra.get("respawns", 0) for r in reps),
        # The report's busy-time model (slowest shard when sharded),
        # beside the measured ``fps``.
        "supervision.modeled_fps": _median(
            [rep.extra.get("modeled_fps", 0.0) for rep in reps]
        ),
    })
    key_fraction = sum(rep.extra.get("key_frames", 0) for rep in reps) / frames
    for name, value in wl.modeled(workload.spec(), key_fraction).items():
        metrics[f"modeled.{name}"] = value

    quality_ok = quality["output_match_frac"] == 1.0
    if workload_name == "serve_repeated_int8":
        quality_ok = (
            quality["top1_agreement"] >= wl.TOP1_FLOOR
            and quality["tolerance_headroom"] >= 1.0
        )
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "reps": len(reps),
        "frames": frames,
        "attempted": attempted,
        "failed": failed,
        "shed": sum(rep.extra.get("shed", 0) for rep in reps),
        "correct": failed == 0 and quality_ok,
        "metrics": metrics,
        "tails": tails,
        "ladder": ladder,
        "host": _host(),
    }
    if tracer is not None:
        from spans import FLUSH_SPAN, STEP_SPANS

        spans = tracer.spans
        result["metrics"].update(_per_layer(workload, reps, spans, frames))
        selfs = self_times(spans)
        # A serve round is both phases of every lane's step plus the
        # prefix flush between them.
        round_wall = sum(
            s.duration for s in spans
            if s.name in STEP_SPANS or (s.name == FLUSH_SPAN and s.parent is None)
        )
        result["self_time_share"] = {
            name: value / round_wall if round_wall else 0.0
            for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])
        }
        result["trace_events"] = chrome_trace(spans) + _request_events(
            workload
        )
    print(json.dumps(result))


def _request_events(workload) -> List[dict]:
    """Request spans from the last serve's ``RequestRecord`` timestamps.

    Times are on the serve loop's own clock (idle gaps skipped), so they
    sit on their own process row rather than the stage timeline.
    """
    report = getattr(workload, "last_report", None)
    if report is None:
        return []
    events = []
    for record in report.records:
        for name, start, end in (
            ("queued", record.arrival_time, record.admit_time),
            ("to_first_frame", record.admit_time, record.first_output_time),
            ("streaming", record.first_output_time, record.finish_time),
        ):
            events.append({
                "name": name, "ph": "X", "ts": start * 1e6,
                "dur": max(end - start, 0.0) * 1e6, "pid": 2,
                "tid": hash(record.request_id) % 10_000,
                "args": {"request": str(record.request_id),
                         "lane": record.lane},
            })
    return events


# --------------------------------------------------------------------- #
# orchestration (no library import)
# --------------------------------------------------------------------- #
class ChildError(RuntimeError):
    pass


def _child(args: List[str], timeout: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py")] + args
    # Its own process group, so a timeout also stops any shard processes
    # the child started.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{' '.join(args)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr[-4000:])
        raise ChildError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _setup(workload: str) -> Dict[str, float]:
    """Median set-up phases over fresh interpreters (seconds)."""
    phases: Dict[str, List[float]] = {}
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        stamps = _child(["--role", "setup", "--workload", workload],
                        CHILD_TIMEOUT)
        values = {
            "setup_s": stamps["first_frame"] - launched - stamps["input_s"],
            "setup.import_s": stamps["imported"] - launched,
            "setup.model_load_s": stamps["model_loaded"] - stamps["imported"],
            "setup.plan_compile_s": (
                stamps["plan_compiled"] - stamps["model_loaded"]
            ),
            # Spawn to first frame; in-process workloads spawn no shard.
            "setup.shard_spawn_s": (
                stamps["first_frame"] - stamps["plan_compiled"]
                - stamps["input_s"] if workload == "serve_sharded" else 0.0
            ),
        }
        for key, value in values.items():
            phases.setdefault(key, []).append(value)
    return {key: _median(values) for key, values in phases.items()}


def _print_table(metrics: Dict[str, float], listed: set, title: str) -> None:
    """Every metric; ``listed`` marks those BENCHMARK.json declares."""
    print(f"== {title}")
    print(f"{'metric':44s} {'value':>16s}  {'unit':9s} {'tag':9s} listed")
    for name in sorted(metrics):
        unit, tag = UNITS.get(name, ("", "measured"))
        value = metrics[name]
        print(f"{name:44s} {value:16.6g}  {unit:9s} {tag:9s} "
              f"{'yes' if name in listed else ''}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    declared = _declared()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup = _setup(workload)
    base_args = ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds)]
    untraced = _child(["--role", "measure"] + base_args, CHILD_TIMEOUT)
    result = dict(untraced)
    metrics = dict(untraced["metrics"])
    metrics.update(setup)
    listed = [m["name"] for m in declared[
        "per_layer" if trace else "end_to_end"]]
    if trace:
        traced = _child(["--role", "measure", "--traced"] + base_args,
                        CHILD_TIMEOUT)
        events = traced.pop("trace_events")
        trace_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
        with open(trace_path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        layer = {k: v for k, v in traced["metrics"].items() if k not in metrics}
        layer["trace.overhead_frac"] = (
            1.0 - traced["metrics"]["fps"] / metrics["fps"]
        )
        metrics.update(layer)
        result["traced_fps"] = traced["metrics"]["fps"]
        result["self_time_share"] = traced["self_time_share"]
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
        result["correct"] = result["correct"] and traced["correct"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
    result["metrics"] = metrics
    result["heldout"] = seed >= HELDOUT_BASE
    with open(os.path.join(
        OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"
    ), "w") as handle:
        json.dump(result, handle, indent=1)

    host = result["host"]
    print(f"workload {workload}  seed {seed}  reps {result['reps']}  "
          f"frames {result['frames']}  requests sent {result['attempted']}  "
          f"succeeded {result['attempted'] - result['failed']}  "
          f"failed {result['failed']} (shed {result['shed']})")
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    print(f"why: {why[workload]}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    for name, tail in result["tails"].items():
        print(f"{name}: n={tail['n']} beyond={tail['beyond']} "
              f"(needs {tail['needed']}) supported={tail['supported']} "
              f"highest supported p{tail['highest_supported_p']:.1f}")
    for rung in result["ladder"]:
        print("ladder " + "  ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in rung.items()))
    if workload == "serve_sharded":
        print("per-layer numbers for serve_sharded come from ShardInfo and "
              "ServingReport: the shard processes run outside the tracer")
    if trace:
        print("self time, share of round wall (steps + flush): " + "  ".join(
            f"{name}={share:.3f}"
            for name, share in result["self_time_share"].items()))
        print(f"trace events: {result['trace_file']}")
    _print_table(metrics, set(listed), "metrics")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": UNITS[name][0]}
            for name in listed
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="use seed HELDOUT_BASE + --seed")
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no library source under {ROOT}/src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(WORKLOADS)}")
    seed = HELDOUT_BASE + args.seed if args.heldout else args.seed
    if args.role == "setup":
        role_setup(args.workload)
        return 0
    if args.role == "measure":
        role_measure(args.workload, seed, args.seconds, args.traced)
        return 0
    try:
        line = run(args.workload, seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
