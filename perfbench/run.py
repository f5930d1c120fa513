"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload md_drift --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the checkout this file sits in.  ``--trace 0`` prints the end-to-end
metrics (tracing off); ``--trace 1`` prints the per-layer metrics of a
traced pass and writes its spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  Each workload runs in a
process of its own, so ``peak_rss_mb`` is that workload's peak.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it say what ran.  Exit status is non-zero, with no result
line, when the library is missing or a workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    tracer = Tracer(TRACE_DIR / f"spill-{os.getpid()}") if args.trace else None
    outcome = workload.run(args.seed, args.seconds, tracer)
    values = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [m["name"] for m in group if m["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 3

    print(f"workload {workload.name}: {workload.why}")
    for line in outcome.summary:
        print(line)
    for metric in group:
        print(f"  {metric['name']:<30} {values[metric['name']]:.6g} {metric['unit']}")
    if outcome.trace is not None:
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        outcome.trace.write(path, outcome.trace_origin, {"metrics": values})
        print(f"  spans written to {path.relative_to(ROOT)} (missing targets: {outcome.trace.missing})")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in group
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
