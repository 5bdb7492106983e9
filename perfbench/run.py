"""moltiers benchmark: one command per workload, every metric by name and unit.

    python3 perfbench/run.py --workload corpus-annotate --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.
Workloads:

* corpus-annotate: `moltiers annotate` on a file of unique molecules with
  malformed lines mixed in (two-phase fit, worker pool, JSONL write).
* online-annotate: one closed-loop client, each request
  `ComplexityAnnotator.transform([smiles])`, drawn Zipf(1.1) from a pool.
* curriculum: `moltiers schedule` for staged10 and mixed on an annotated
  JSONL with the paper's tier proportions, then contrastive-loss steps.

With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
traced run carries the per-layer metrics.  Workload-specific figures
(corpus_mol_per_s, request_p99_us, staged10_ids_per_s, mixed_ids_per_s,
loss_steps_per_s, failed_frac, raw unscaled values) are printed as report
lines.  Human-readable lines come first;
the last line of standard output is the JSON result.  Scratch files and
spans go to .perfbench-work/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus-annotate", "online-annotate", "curriculum")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "moltiers" / "__init__.py"
    if not package.is_file():
        print(f"error: no package source at {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    import moltiers
    if Path(moltiers.__file__).resolve() != package.resolve():
        print(f"error: imported moltiers from {moltiers.__file__}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        ROOT, work)
    started = time.perf_counter()
    e2e, per_layer = workloads.WORKLOADS[args.workload](run)
    run.meta.update(harness.run_metadata(args.seed), workload=args.workload,
                    seconds=args.seconds, trace=args.trace,
                    elapsed_s=time.perf_counter() - started)

    outcomes = run.outcomes
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value, unit in run.report:
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<28} {outcomes.failed_frac:>14.6g} "
          f"({outcomes.failed} of {outcomes.attempted} operations)")
    for reason in outcomes.reasons:
        print(f"  failure: {reason}")
    if args.trace:
        units = per_layer_units()
        missing = set(units) ^ set(per_layer)
        if missing:
            raise RuntimeError(f"per-layer metrics out of step: {sorted(missing)}")
        metrics = {k: harness.metric(per_layer[k], units[k]) for k in units}
        run.tracer.write(work / "spans.jsonl")
    else:
        metrics = {k: harness.metric(e2e[k], u) for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print("meta " + json.dumps(run.meta, sort_keys=True))
    harness.emit({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
