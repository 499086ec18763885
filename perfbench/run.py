"""The bench of record: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-o2 --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (BENCHMARK.json lists both sets, perfbench/rationale.json says
which layer metric should move which end-to-end metric on which
workload).  ``--quick`` shrinks every workload to a few seconds of
work for the self-test; quick results are stamped as such and are not
comparable with full ones.

Every run checks its outputs after the timed part.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a report with the provenance stamp,
the workload's user-level metrics with sample counts, and any
correctness mismatch.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import (
    ROOT,
    ProgramMissing,
    make_work_dir,
    provenance,
    remove_work_dir,
    require_program,
)

WORKLOADS = ("campaign-o2", "serve-mixed", "lint-attack")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def workload_module(name: str):
    if name == "campaign-o2":
        import wl_campaign as module
    elif name == "serve-mixed":
        import wl_serve as module
    else:
        import wl_attack as module
    return module


def build_metrics(declared: list, measured: dict, trace: bool) -> dict:
    """Every declared metric with its unit.  A per-layer metric the
    workload does not measure is a layer it bypasses: it reads 0.  An
    end-to-end metric must always be measured."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured and not trace:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        out[name] = {"value": float(measured.get(name, 0.0)),
                     "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (self-test only)")
    args = parser.parse_args(argv)

    try:
        require_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    module = workload_module(args.workload)
    work = make_work_dir()
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace),
                            args.quick, work)
    finally:
        remove_work_dir(work)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = build_metrics(declared, result.metrics, bool(args.trace))
    bypassed = sorted(m["name"] for m in declared
                      if m["name"] not in result.metrics)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, args.quick),
        "inputs_digest": result.inputs_digest,
        "named": result.named,
        "notes": result.notes,
        "bypassed_layers": bypassed,
        "mismatches": result.mismatches,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    correct = not result.mismatches
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    sys.stdout.flush()
    if not correct:
        for line in result.mismatches[:20]:
            print(f"mismatch: {line}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
