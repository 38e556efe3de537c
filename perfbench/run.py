"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Workloads: ``batch``, ``http-point``, ``tenant-storm``, ``durable-ingest``
(see NOTES.md).  ``--trace 0`` measures the end-to-end metrics.
``--trace 1`` runs the workload once untraced and once with the layer
wrappers installed, and reports the per-layer metrics of the traced
pass, the workload breakdowns of the untraced one, and the tracing
overhead (traced minus untraced) of every end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full report (environment, phases, details).  Spans of a
traced run are written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "batch": "batch_workload",
    "http-point": "http_point",
    "tenant-storm": "tenant_storm",
    "durable-ingest": "durable_ingest",
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run the workload (twice when tracing) and assemble the report.

    ``sizes`` (a :class:`common.Sizes`) defaults to the full sizes; the
    smoke test passes reduced ones.
    """
    import importlib

    import common
    from common import Phases
    from metrics import E2E, PER_LAYER, UNITS, check_complete
    from tracer import Tracer

    module = importlib.import_module(WORKLOADS[workload])
    sizes = sizes or common.FULL
    untraced = module.run(seed, seconds, None, sizes)
    phases = Phases()
    phases.merge(untraced.phases, "")
    details = {"untraced": untraced.details}
    if trace:
        tracer = Tracer().install()
        try:
            traced = module.run(seed, seconds, tracer, sizes)
        finally:
            tracer.uninstall()
        os.makedirs(common.RUNS_DIR, exist_ok=True)
        span_file = os.path.join(common.RUNS_DIR, f"{workload}-seed{seed}-spans.jsonl")
        tracer.dump(span_file)
        phases.merge(traced.phases, "traced-")
        values = dict(traced.layers)
        values.update(untraced.breakdown)
        for name, _ in E2E:
            # peak_rss_mb has none: the high-water mark of one process
            # only rises, so the second pass cannot be compared with the first.
            if f"overhead.{name}" in UNITS:
                values[f"overhead.{name}"] = traced.e2e[name] - untraced.e2e[name]
        names = [name for name, _ in PER_LAYER]
        details.update(traced=traced.details, spans=len(tracer.spans), span_file=span_file)
    else:
        values = dict(untraced.e2e)
        names = [name for name, _ in E2E]
    check_complete(values, names)
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in names}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "workload": workload,
        "trace": int(trace),
        "environment": common.environment(seed),
        "phases": phases.counts,
        "failure_reasons": phases.reasons,
        "details": details,
        "result": {
            "correct": phases.failed == 0 and finite,
            "attempted": phases.attempted,
            "failed": phases.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
