"""Child process for the benchmark: one set-up sample or one cold sweep.

  child.py setup --workload NAME
      import contragenic.cli, warm the workload's caches, print the times
  child.py sweep --max-degree D --out DIR [--trace-out PATH]
      run ``check --suite gram`` then ``--suite bergman`` in this fresh
      interpreter; with --trace-out, trace both and write the spans to PATH

Both print one JSON line with ``import_s`` (time to import contragenic.cli),
``unit_s``, the mean unit time sampled after the import (``speed.py``; None
for a traced sweep, which is not sampled), and ``outside_s``, the seconds
after the import that were not the work, which the parent takes off the
child's life.  A set-up child also prints ``setup_s``: import plus warming,
less sampling.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: sampled after a set-up child's work, which may be too short to hold a sample
TRAILING_SAMPLES_S = 0.1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--workload")
    parser.add_argument("--max-degree", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import contragenic.cli

    imported = time.perf_counter()
    import_s = imported - t0
    # imported only now, so that import_s is untouched
    from speed import Sampler

    if args.mode == "setup":
        from workloads import WORKLOADS

        with Sampler() as sampler:
            start = time.perf_counter()
            WORKLOADS[args.workload].warm()
            end = time.perf_counter()
            time.sleep(TRAILING_SAMPLES_S)
        work_s = end - start - sampler.sampling_s(start, end)
        print(json.dumps({"import_s": import_s, "setup_s": import_s + work_s,
                          "unit_s": sampler.mean_unit_s(),
                          "outside_s": time.perf_counter() - imported - work_s}))
        return 0

    tracer = sampler = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
    else:
        sampler = Sampler()
    codes = []
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        for suite in ("gram", "bergman"):
            out = str(Path(args.out) / f"{suite}.json")
            codes.append(contragenic.cli.main(
                ["check", "--suite", suite, "--max-degree", str(args.max_degree),
                 "--output", out]))
        end = time.perf_counter()
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(dict(tracer.dump(), import_s=import_s), handle)
    work_s = end - start - (sampler.sampling_s(start, end) if sampler else 0.0)
    print(json.dumps({"import_s": import_s, "codes": codes,
                      "unit_s": sampler.unit_s(start, end) if sampler else None,
                      "outside_s": time.perf_counter() - imported - work_s}))
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
