"""Measure a baseline: every workload over several seeds, twice, plus traced runs.

  python3 perfbench/baseline.py [--seeds 1-10] [--sets 2] [--out perfbench/baseline.json]

Run from the repository root.  Each set runs every workload once per seed.
For each set and end-to-end metric it records the values, the median and the
quartile spread (q3 - q1) / median as ``statistics.quantiles(values, n=4)``
gives the quartiles, next to the metric's bound from BENCHMARK.json, and
the same for the measured (unscaled) set-up time and median latency and for
the speed factor (``speed.py``).  For
every later set it records how much worse its median is than the first
set's, as a share of the first median, next to the same bound.  The traced
run is made twice on the first seed, to check that its per-layer counts
repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr[-2000:]}")
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return info, result


def commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last seed")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs of the seeds")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    report = {"commit": commit(), "nproc": os.cpu_count(),
              "python": platform.python_version(), "platform": platform.platform(),
              "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    names = [w["name"] for w in bench["workloads"]]
    sets: dict = {name: [] for name in names}
    for number in range(args.sets):
        for workload in names:
            runs = []
            for seed in seeds:
                info, result = run(bench, workload, seed, 0)
                print(f"set {number + 1}", workload, seed, json.dumps(result["metrics"]),
                      file=sys.stderr)
                runs.append((info, result))
            sets[workload].append(runs)

    for workload in names:
        summaries = []
        for runs in sets[workload]:
            metrics = {}
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for _, r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                metrics[name] = {"unit": runs[0][1]["metrics"][name]["unit"],
                                 "median": median, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / median if median else 0.0,
                                 "bound": bound, "values": values}
            measured = {}
            for name, values in (
                    ("setup_s", [statistics.median(i["setup_measured_s"]) for i, _ in runs]),
                    ("latency_p50_ms", [i["measured_latency_p50_ms"] for i, _ in runs]),
                    ("speed_factor", [i["speed_factor_median"] for i, _ in runs])):
                q1, median, q3 = statistics.quantiles(values, n=4)
                measured[name] = {"median": median, "spread": (q3 - q1) / median,
                                  "values": values}
            summaries.append({
                "end_to_end": metrics,
                "measured": measured,
                "all_correct": all(r["correct"] for _, r in runs),
                "attempted": [r["attempted"] for _, r in runs],
                "failed": [r["failed"] for _, r in runs],
            })
        first = summaries[0]["end_to_end"]
        agreement = {}
        for summary in summaries[1:]:
            for name, m in summary["end_to_end"].items():
                change = (m["median"] - first[name]["median"]) / first[name]["median"]
                worse = change if lower_better[name] else -change
                agreement.setdefault(name, []).append(
                    {"worse_by": worse, "bound": bounds[name],
                     "within": worse <= bounds[name]})
        info, result = run(bench, workload, seeds[0], 1)
        _, again = run(bench, workload, seeds[0], 1)
        counts = [k for k, v in result["metrics"].items() if v["unit"] == "count"]
        report["workloads"][workload] = {
            "sets": summaries,
            "median_agreement": agreement,
            "inputs_first_seed": sets[workload][0][0][0]["inputs"],
            "traced": {"seed": seeds[0], "correct": result["correct"],
                       "untraced_wall_s": info["untraced_wall_s"],
                       "traced_wall_s": info["traced_wall_s"],
                       "trace_overhead_s": info["trace_overhead_s"],
                       "inputs": info["inputs"],
                       "counts_repeat_exactly": all(
                           result["metrics"][k] == again["metrics"][k] for k in counts),
                       "per_layer": {k: v["value"] for k, v in result["metrics"].items()}},
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, data in report["workloads"].items():
        for number, summary in enumerate(data["sets"], start=1):
            for name, m in summary["end_to_end"].items():
                print(f"set {number} {workload:20s} {name:16s} median {m['median']:.5g} "
                      f"{m['unit']:5s} spread {m['spread']:.4f} (bound {m['bound']})")
            for name, m in summary["measured"].items():
                print(f"set {number} {workload:20s} measured {name:16s} "
                      f"median {m['median']:.5g} spread {m['spread']:.4f}")
        for name, changes in data["median_agreement"].items():
            for c in changes:
                print(f"{workload:20s} {name:16s} later set worse by {c['worse_by']:+.4f} "
                      f"(bound {c['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
