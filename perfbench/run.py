"""Benchmark for contragenic: three workloads, end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
checkout the script sits in; without it the benchmark exits with code 2 and
prints no result.  Each workload is one process with one closed-loop client:
the next op starts only when the previous one has returned.

``--trace 0`` runs passes over freshly generated inputs until ``--seconds``
have elapsed in passes (and at least the workload's minimum op count are
done), and reports the end-to-end metrics.  Their times are rescaled to a
fixed reference speed of the machine, from its speed sampled all through
the timed work (``speed.py``); the measured times are on the info line.
``--trace 1`` runs one fixed pass untraced, then every op of it untraced
and straight after traced, and reports the per-layer metrics, with
measured times; the traced runs' time minus the untraced runs' is the
tracing overhead.  The last line of
standard output is the result object; the line before it describes the
inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 140.0  # no pass starts later than this after start-up, to end within 180 s
STARTED = time.perf_counter()

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def setup_samples(name: str, seed: int) -> tuple[float, float, list[float], list[float]]:
    """Median set-up time at reference speed and median import time, over
    fresh interpreters.

    For the streams a sample is import plus cache warming, timed inside the
    child; for sweep-cold it is the child's whole life (interpreter start plus
    ``import contragenic.cli``) less the time it spends after that, timed
    from here.  Each sample is scaled by the speed the child samples after
    its import (``speed.py``).  Also returns the scaled and the measured
    samples.
    """
    from speed import REFERENCE_S
    from workloads import child_env

    samples, measured, imports = [], [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", "--workload", name],
            cwd=ROOT, env=child_env(seed), capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr[-2000:]}")
        info = json.loads(done.stdout.splitlines()[-1])
        sample = wall - info["outside_s"] if name == "sweep-cold" else info["setup_s"]
        measured.append(sample)
        samples.append(sample * REFERENCE_S / info["unit_s"])
        imports.append(info["import_s"])
    return statistics.median(samples), statistics.median(imports), samples, measured


def timed_pass(workload, items: list, scaled: bool = True):
    """Run every item once, back to back.

    Returns the pass's elapsed time, every op's latency at reference speed
    (``speed.py``; the measured latency when ``scaled`` is false), every
    op's measured latency and the outputs.  In-process ops are sampled here;
    an op that runs in a child is sampled by the child, which reports its
    speed and the time it spent outside the op.
    """
    from speed import REFERENCE_S, Sampler

    spans, outputs = [], []
    sampler = Sampler() if scaled and not workload.in_child else contextlib.nullcontext()
    start = time.perf_counter()
    with sampler:
        for item in items:
            t0 = time.perf_counter()
            try:
                out = workload.run(item)
            except Exception:  # a failing op is counted, the stream goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
    elapsed = time.perf_counter() - start
    latencies, measured = [], []
    for (t0, t1), out in zip(spans, outputs):
        latency, at_reference = t1 - t0, t1 - t0
        if isinstance(sampler, Sampler):
            latency, at_reference = sampler.scale(t0, t1)
        elif workload.in_child and out is not None and out.returncode == 0:
            unit_s, outside_s = workload.speed_reading(out)
            latency = at_reference = t1 - t0 - outside_s
            if scaled:
                at_reference = latency * REFERENCE_S / unit_s
        measured.append(latency)
        latencies.append(at_reference)
    return elapsed, latencies, measured, outputs


def verify_pass(workload, items: list, outputs: list) -> tuple[int, int]:
    """Number of failed ops and the largest coefficient bit length seen."""
    failed, bits = 0, 0
    for item, out in zip(items, outputs):
        if out is None:
            failed += 1
            continue
        ok, reason, item_bits = workload.verify(item, out)
        bits = max(bits, item_bits)
        if not ok:
            failed += 1
            print(f"verification failed: {reason}", file=sys.stderr)
    return failed, bits


def traced_run(workload, items, tracer, trace_out: Path, info: dict):
    """One untraced pass, then every op untraced and straight after traced.

    The first pass fills what the ops cache lazily (ball moments), so each
    op's untraced and traced runs start from the same state, and the sum of
    their differences is the tracing overhead.  Running the two back to back
    op by op, rather than as two passes, keeps most of the machine's drift
    (``speed.py``) out of that difference.  The untraced runs after the
    first pass are only timed: their output files are overwritten by the
    traced runs.

    Returns the span data, ops attempted (first pass and traced runs), ops
    failed and the largest output coefficient bit length.  The sweep traces
    inside its child process, which writes its spans to ``trace_out``.
    """
    _, _, _, outputs = timed_pass(workload, items, scaled=False)
    failed, bits = verify_pass(workload, items, outputs)
    untraced, traced, outputs = [], [], []
    for op, item in enumerate(items):
        _, _, [latency], _ = timed_pass(workload, [item], scaled=False)
        untraced.append(latency)
        item["traced"] = True
        if tracer is not None:
            tracer.op = op
            tracer.start()
        _, _, [latency], [out] = timed_pass(workload, [item], scaled=False)
        if tracer is not None:
            tracer.stop()
        traced.append(latency)
        outputs.append(out)
    if tracer is not None:
        tracer.uninstall()
        data = tracer.dump()
    elif trace_out.is_file():
        data = json.loads(trace_out.read_text(encoding="utf-8"))
    else:
        raise RuntimeError("the traced sweep wrote no spans")
    more_failed, more_bits = verify_pass(workload, items, outputs)
    untraced_wall, traced_wall = sum(untraced), sum(traced)
    info.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                trace_overhead_s=traced_wall - untraced_wall)
    return data, 2 * len(items), failed + more_failed, max(bits, more_bits)


def timed_runs(workload, rng, seconds: float, rusage_who: int, info: dict):
    """Whole passes until ``seconds`` have elapsed in passes and the minimum
    op count is reached.

    Returns the end-to-end values except ``setup_s``, ops attempted, ops
    failed and the properties of every input.  Times are at reference speed
    (``speed.py``); the measured ones go to ``info``.
    """
    latencies, measured, walls, elapsed, seen = [], [], [], [], []
    attempted = failed = bits = 0
    while ((sum(elapsed) < seconds or attempted < workload.min_ops)
           and time.perf_counter() - STARTED < DEADLINE_S):
        items = workload.generate(rng, len(walls))
        pass_elapsed, pass_latencies, pass_measured, outputs = timed_pass(workload, items)
        peak_kb = resource.getrusage(rusage_who).ru_maxrss
        pass_failed, pass_bits = verify_pass(workload, items, outputs)
        walls.append(sum(pass_latencies))
        elapsed.append(pass_elapsed)
        latencies += pass_latencies
        measured += pass_measured
        attempted += len(items)
        failed += pass_failed
        bits = max(bits, pass_bits)
        seen += [{k: item[k] for k in ("degrees", "terms", "bits") if k in item}
                 for item in items]
    p90 = percentile(latencies, 0.9)
    info.update(passes=len(walls), pass_walls_s=walls, pass_elapsed_s=elapsed,
                latency_samples=len(latencies),
                samples_beyond_p90=sum(1 for v in latencies if v > p90),
                measured_latency_p50_ms=1000 * percentile(measured, 0.5),
                measured_latency_p90_ms=1000 * percentile(measured, 0.9),
                speed_factor_median=statistics.median(
                    s / m for s, m in zip(latencies, measured) if m > 0),
                output_coeff_bits_max=bits)
    values = {
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / sum(walls),
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * p90,
        "verified_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    return values, attempted, failed, seen


def run_workload(args, workdir: Path) -> dict:
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS, SweepCold

    cls = WORKLOADS[args.workload]
    trace_out = workdir / "child-spans.json"
    workload = (SweepCold(workdir, args.seed, trace_out) if cls is SweepCold
                else cls(workdir))
    rng = random.Random(args.seed)
    setup_s, import_s, setup_list, setup_measured = setup_samples(args.workload, args.seed)

    # the streams trace their own cache warming too; the sweep traces its child
    tracer = None
    if args.trace and cls is not SweepCold:
        tracer = Tracer()
        tracer.install()
        tracer.start()
    workload.warm()
    if tracer is not None:
        tracer.stop()

    self_test = workload.self_test(random.Random(args.seed))
    for case, ok in self_test:
        print(f"self-test {'ok' if ok else 'FAILED'}: {case}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "setup_samples_s": setup_list, "setup_measured_s": setup_measured,
            "self_test_ok": all(ok for _, ok in self_test)}
    if args.trace:
        items = workload.generate(rng, 0)
        data, attempted, failed, bits = traced_run(workload, items, tracer, trace_out, info)
        metrics = per_layer_metrics(data, import_s, bits)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(data), encoding="utf-8")
        info.update(inputs=workload.properties(items),
                    spans_file=str(spans_path.relative_to(ROOT)))
    else:
        who = resource.RUSAGE_CHILDREN if cls is SweepCold else resource.RUSAGE_SELF
        values, attempted, failed, seen = timed_runs(workload, rng, args.seconds, who, info)
        values["setup_s"] = setup_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        info["inputs"] = workload.properties(seen)
    info["failed_ratio"] = failed / attempted
    print(json.dumps(info))
    return {"correct": failed == 0 and info["self_test_ok"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decompose-dense", "project-nonharmonic", "sweep-cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contragenic" / "__init__.py").is_file():
        print(f"error: no contragenic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
