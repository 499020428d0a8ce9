#!/usr/bin/env python3
"""End-to-end benchmark of the City-Hunter reproduction.

Runs one workload against the program under ``src/`` of the checkout
this file sits in, prints every metric by name with its unit and every
correctness verdict, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured for
``--seconds`` with nothing wrapped; with ``--trace 1`` they are the
per-layer ones from a separate traced pass.  Workloads, metrics and the
traced output are described in ``perfbench/README.md``.

Usage::

    python3 perfbench/run.py --workload paper_hours --seed 1 --seconds 15 --trace 0

The run is hermetic: every ``REPRO_*`` variable is cleared, parameters
are passed explicitly, and run artefacts (``timings.json``,
``metrics.json``, the trace) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _hermetic_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ARTIFACT_DIR"] = str(OUT / "artifacts")


def _value(v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("metric value %r is not finite" % v)
    return v


def report(outcome, names, workload: str) -> dict:
    """Print the human-readable lines; return the final JSON document."""
    from workloads import peak_rss_mb

    metrics = dict(outcome.metrics)
    metrics.setdefault("peak_rss_mb", peak_rss_mb())
    attempted = max(1, int(outcome.attempted))
    failed = min(attempted, int(outcome.failed))
    metrics.setdefault("failed_fraction", failed / attempted)
    for note in outcome.notes:
        print("note  %s" % note)
    tally = {}
    for name, ok, detail in outcome.checks:
        key = (name, ok, "" if ok else detail)
        tally[key] = tally.get(key, 0) + 1
    for (name, ok, detail), times in tally.items():
        print("check %-4s %s%s%s" % ("ok" if ok else "FAIL", name,
                                     " x%d" % times if times > 1 else "",
                                     " (%s)" % detail if detail else ""))
    doc_metrics = {}
    for name, unit in names.items():
        value = _value(metrics.get(name, 0.0))
        doc_metrics[name] = {"value": value, "unit": unit}
        print("metric %s = %.6g %s" % (name, value, unit))
    print("workload %s: %s, %d attempted, %d failed"
          % (workload, "correct" if outcome.correct else "INCORRECT",
             attempted, failed))
    return {
        "correct": bool(outcome.correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": doc_metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    _hermetic_env()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("perfbench: imported %s, not the checkout's program"
              % repro.__file__, file=sys.stderr)
        return 2
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, Ctx

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    ctx = Ctx(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    outcome = WORKLOADS[args.workload](ctx)
    if outcome.trace_doc is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / ("trace-%s.json" % args.workload)
        path.write_text(json.dumps(outcome.trace_doc, indent=1) + "\n")
        print("wrote %s" % path.relative_to(ROOT))
    doc = report(outcome, PER_LAYER if args.trace else END_TO_END, args.workload)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
