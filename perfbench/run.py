"""Refactor → store → progressive-retrieval benchmark: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload roi_sessions --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with the program unmodified and prints every
end-to-end metric of BENCHMARK.json. ``--trace 1`` alternates untraced
and traced passes, prints every per-layer metric, and writes the spans
to ``.perfbench/trace-<workload>-seed<seed>.json``. The last line of
standard output is the result object; the line before it carries the
sample counts, any failures and the environment fingerprint. See
README.md for the workloads, the metrics and how the layers interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per run, each of its own data (seeds ``3 × seed + i``);
#: ``setup_s`` is their median and passes cycle through them, so one
#: run's figures average over three inputs.
SETUP_REPS = 3
#: Caller-thread step time no layer span explains, as a share of the
#: summed step wall, above which a traced read workload fails.
UNACCOUNTED_BOUND = 0.10

#: Spans each workload must record in its traced passes. A workload
#: whose listed layer records no span means an instrumentation point
#: was missed or renamed, and the traced run fails.
EXERCISED = {
    "refactor_write": (
        "core.refactor.refactor", "decompose.level_weights",
        "decompose.decompose", "bitplane.encode", "lossless.compress",
        "lossless.huffman_encode", "core.store.put",
    ),
    "qoi_staircase": (
        "core.service.retrieve_qoi", "core.reconstruct.reconstruct",
        "core.planner.plan", "core.store.get", "lossless.decompress",
        "lossless.huffman_decode", "bitplane.apply_planes",
        "bitplane.finalize", "decompose.recompose", "qoi.estimate_error",
    ),
    "roi_sessions": (
        "core.service.session_step", "core.tiling.reconstruct",
        "pipeline.run", "core.reconstruct.fetch",
        "core.reconstruct.decode_step", "core.planner.plan",
        "core.store.get", "core.faults.injected_wait",
        "lossless.decompress", "lossless.huffman_decode",
        "bitplane.apply_planes", "bitplane.finalize", "decompose.recompose",
    ),
}
READ_WORKLOADS = ("qoi_staircase", "roi_sessions")


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(workload, setups, passes) -> dict:
    import numpy as np

    steps = [s for p in passes for s in p.steps]
    first = [s.ms for s in steps if s.first]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if workload.name == "refactor_write":
        refactor_mbps = statistics.median(
            p.write_bytes / p.write_s / 1e6 for p in passes)
        stored = sum(p.counters["stored_bytes"] for p in passes)
        raw = sum(p.write_bytes for p in passes)
    else:
        refactor_mbps = statistics.median(
            s.raw_bytes / s.refactor_s / 1e6 for s in setups)
        stored = sum(s.stored_bytes for s in setups)
        raw = sum(s.raw_bytes for s in setups)
    return {
        "setup_s": statistics.median(s.setup_s for s in setups),
        "refactor_mbps": refactor_mbps,
        "compression_ratio": raw / stored,
        "retrieve_mbps": sum(s.out_bytes for s in steps)
        / (sum(s.ms for s in steps) / 1e3) / 1e6,
        "first_step_ms_p50": statistics.median(first),
        "step_ms_p50": statistics.median(s.ms for s in steps),
        "step_ms_p90": float(np.percentile([s.ms for s in steps], 90)),
        "fetch_bits_per_value": 8.0 * sum(s.cold_bytes for s in steps)
        / sum(s.values for s in steps),
        "ok_frac": 1.0 - failed / attempted,
    }


def normalized(metrics: dict, workload: str, setup_factor: float,
               run_factor: float) -> dict:
    """Timings in reference seconds (see ``speed.py``); counts as is.

    Each timing is scaled by the reference timed next to the work it
    comes from: the set-ups, or the passes (whose writes give
    ``refactor_mbps`` on refactor_write).
    """
    out = dict(metrics)
    out["setup_s"] *= setup_factor
    for name in ("first_step_ms_p50", "step_ms_p50", "step_ms_p90"):
        out[name] *= run_factor
    out["retrieve_mbps"] /= run_factor
    out["refactor_mbps"] /= (run_factor if workload == "refactor_write"
                             else setup_factor)
    return out


def per_layer(workload, tracer, traced, untraced) -> dict:
    import spans as sp

    n = len(traced)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def seconds(name):
        return sum(s.duration for s in by_name.get(name, ())) / n

    def calls(name):
        return len(by_name.get(name, ())) / n

    def work(name):
        return sum(s.work for s in by_name.get(name, ())) / n

    def counter(key):
        return sum(p.counters.get(key, 0) for p in traced) / n

    huffman_s = seconds("lossless.huffman_decode")
    account = sp.account_steps(tracer.spans, tracer.caller)
    injected = seconds("core.faults.injected_wait")
    exposed = account.exposed_fetch_s / n
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    return {
        "lossless.huffman_decode_s": huffman_s,
        "lossless.huffman_decode_calls": calls("lossless.huffman_decode"),
        "lossless.huffman_decode_mbps":
            work("lossless.huffman_decode") / huffman_s / 1e6
            if huffman_s else 0.0,
        "lossless.other_decode_s": seconds("lossless.other_decode"),
        "lossless.compress_s": seconds("lossless.compress"),
        "lossless.huffman_encode_s": seconds("lossless.huffman_encode"),
        "decompose.level_weights_s": seconds("decompose.level_weights"),
        "decompose.decompose_s": seconds("decompose.decompose"),
        "decompose.recompose_s": seconds("decompose.recompose"),
        "bitplane.encode_s": seconds("bitplane.encode"),
        "bitplane.apply_planes_s": seconds("bitplane.apply_planes"),
        "bitplane.finalize_s": seconds("bitplane.finalize"),
        "bitplane.planes_applied": work("bitplane.apply_planes"),
        "qoi.estimate_error_s": seconds("qoi.estimate_error"),
        "qoi.iterations": counter("qoi.iterations"),
        "core.planner.plan_s": seconds("core.planner.plan"),
        "core.planner.plans": calls("core.planner.plan"),
        "core.store.get_s": seconds("core.store.get"),
        "core.store.gets": calls("core.store.get"),
        "core.store.get_bytes": work("core.store.get"),
        "core.store.put_s": seconds("core.store.put"),
        "core.store.puts": calls("core.store.put"),
        "core.store.put_bytes": work("core.store.put"),
        "core.faults.injected_wait_s": injected,
        "core.service.cache_hit_rate_bytes": counter("cache_hit_rate_bytes"),
        "core.service.cache_misses": counter("cache_misses"),
        "core.service.prefetch_hits": counter("prefetch_hits"),
        "pipeline.exposed_fetch_s": exposed,
        "pipeline.hidden_fetch_frac":
            1.0 - exposed / injected if injected else 0.0,
        "core.reconstruct.decoded_groups":
            calls("lossless.huffman_decode") + calls("lossless.other_decode"),
        "core.reconstruct.decode_state_bytes": counter("decode_state_bytes"),
        "core.tiling.tiles_touched": counter("tiles_touched"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unaccounted_frac":
            account.unaccounted_s / account.wall_s
            if workload.name in READ_WORKLOADS else 0.0,
    }


def write_trace(path: Path, tracer, workload: str, seed: int) -> None:
    names = sorted({s.name for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    # Thread 0 is the caller (client) thread.
    threads = {tracer.caller: 0}
    for s in tracer.spans:
        threads.setdefault(s.thread, len(threads))
    payload = {
        "workload": workload,
        "seed": seed,
        "names": names,
        "columns": ["id", "name", "start", "end", "parent", "step",
                    "thread", "work"],
        "spans": [[s.id, index[s.name], s.start, s.end, s.parent, s.step,
                   threads[s.thread], s.work] for s in tracer.spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def measure(args, bench: dict) -> tuple[dict, dict, list[str]]:
    import repro.lossless.hybrid as hybrid
    import spans as sp
    from speed import SpeedReference
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.slow_huffman_ms:
        sp.inject_delay(hybrid._DECODERS, "huffman",
                        args.slow_huffman_ms / 1e3)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    setup_speed, speed = SpeedReference(), SpeedReference()
    try:
        setups = []
        for i in range(SETUP_REPS):
            setup_speed.sample(3)
            setups.append(workload.setup(args.seed * SETUP_REPS + i,
                                         workdir / f"setup{i}"))
        setup_speed.sample(3)
        workload.warm_up(setups[0].state)
        tracer = sp.Tracer()
        instrumentation = sp.Instrumentation(tracer)
        traced, untraced = [], []
        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or not untraced
               or (args.trace and not traced)):
            n = len(traced) + len(untraced)
            state = setups[n % len(setups)].state
            if args.trace and len(untraced) > len(traced):
                with instrumentation.active():
                    traced.append(workload.run_pass(state, tracer))
            else:
                untraced.append(
                    workload.run_pass(state, tracer, speed.sample))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = traced + untraced
    failures = [f for p in passes for f in p.failures]
    problems = list(failures)
    if args.trace:
        metrics = per_layer(workload, tracer, traced, untraced)
        declared = bench["per_layer"]
        seen = {s.name for s in tracer.spans}
        problems += [f"traced run recorded no {name!r} span"
                     for name in EXERCISED[workload.name] if name not in seen]
        if metrics["trace.unaccounted_frac"] > UNACCOUNTED_BOUND:
            problems.append(
                f"spans leave {metrics['trace.unaccounted_frac']:.1%} of "
                f"the step wall unaccounted (bound {UNACCOUNTED_BOUND:.0%})")
        write_trace(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json",
                    tracer, workload.name, args.seed)
    else:
        raw = end_to_end(workload, setups, untraced)
        metrics = normalized(raw, workload.name, setup_speed.factor,
                             speed.factor)
        declared = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"computed metrics {sorted(metrics)} do not match "
            f"BENCHMARK.json {sorted(units)}")
    steps = [s for p in untraced for s in p.steps]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slow_huffman_ms": args.slow_huffman_ms,
        "fingerprint": fingerprint(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"setups": len(setups), "steps": len(steps),
                    "first_steps": sum(s.first for s in steps)},
        "setup_s": [s.setup_s for s in setups],
        "pass_s": [p.wall_s for p in untraced],
        "reference_kernel_s": {"setup": setup_speed.median_s,
                               "run": speed.median_s},
        "raw_metrics": None if args.trace else raw,
        "attempted": sum(p.attempted for p in passes),
        "failures": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": detail["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, detail, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the result and detail as JSON here")
    parser.add_argument("--slow-huffman-ms", type=float, default=0.0,
                        help="self-test only: sleep this long in every "
                             "Huffman decode")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    # The workloads measure the library's default (serial) execution
    # backend; an inherited override would change what is measured.
    os.environ.pop("REPRO_BACKEND", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    result, detail, problems = measure(args, bench)
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"result": result, "detail": detail},
                                       indent=1))
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
