"""Benchmark of the synthesis pipeline: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload decompose-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``decompose-cold`` - in-process ``synthesize(strategy="decompose")``
  calls on fresh placements of pinned 50-arc islands, no cache;
- ``batch-warm`` - ``run_batch`` over a corpus whose placement results
  a cold pass in set-up wrote to the shared persistent cache;
- ``serve-mixed`` - open-loop HTTP traffic against a ``repro serve``
  subprocess: repeats of the eight conformance instances plus fresh
  exact instances.

Every timed result is checked (Definition 2.4 validator, certified
zero gap for decompose, cost equal to its pinned value to rel 1e-9);
one failed check makes the run exit 1.  The last line of standard
output is the result object; the line before it is the environment
block.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones and writes the layer table to
``perfbench/out/<workload>-seed<seed>-layers.json``.

Metric names and units come from ``BENCHMARK.json``.  Every workload
reports every metric.  Per-layer times and counts are per workload
operation: one synthesize call (decompose-cold), one pass over the
corpus (batch-warm), one request (serve-mixed); ``cache.load_s``,
``cache.entries_loaded`` and ``cache.bytes`` describe one load of the
whole store after the run.  A layer a workload does not exercise
reads 0.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decompose-cold", "batch-warm", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import repro  # noqa: F401  (the import cost belongs to set-up)

    from perfbench import batch_warm, decompose_cold, layers, serve_mixed
    from perfbench.common import OUT_DIR, environment, metric_units

    import_s = time.perf_counter() - _STARTED
    runner = {
        "decompose-cold": decompose_cold.run,
        "batch-warm": batch_warm.run,
        "serve-mixed": serve_mixed.run,
    }[args.workload]
    trace = bool(args.trace)
    outcome = runner(args.seed, args.seconds, trace, import_s)

    env = environment(args.workload, args.seed, args.seconds, trace)
    end_to_end, per_layer = metric_units()
    units = per_layer if trace else end_to_end
    values = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    missing = [] if trace else sorted(set(end_to_end) - set(outcome.metrics))
    for name in missing:
        outcome.fail(f"end-to-end metric {name} was not measured")
    if trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-layers.json"
        path.write_text(json.dumps({
            "env": env,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            "spans": outcome.layer_table,
            "notes": outcome.notes,
        }, indent=2) + "\n")
        print(layers.format_table(f"layer table: {args.workload} (seed {args.seed})",
                                  outcome.layer_table, values, env), file=sys.stderr)
        print(f"perfbench: layer table written to {path}", file=sys.stderr)
    for message in outcome.failures:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    failed = min(len(outcome.failures), max(outcome.attempted, 1))
    result = {
        "correct": not outcome.failures,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
