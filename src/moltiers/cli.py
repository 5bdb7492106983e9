"""Command-line interface.

Subcommands: prevalence, annotate, schedule, stats, loss-check.
Each option declares its default once, on its ``add_argument``; the tier
options are generated from ``TierConfig``'s fields.  A ``--config`` file
(plain ``key = value`` lines with ``#`` comments) supplies defaults for the
chosen subcommand's value-taking options, and argv is parsed again over
them, so options resolve as flag > config file > built-in default and a
file value is converted, or rejected as a usage error, by the option's type
and its choices.  ``annotate`` is one ``pipeline.run_annotate`` call, with
or without a ``--prevalence`` table.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from itertools import accumulate
from pathlib import Path

from .errors import EmptyCorpus, MissingTierField, MoltiersError
from .featurizer import ComplexityAnnotator
from .fgroups import FGLibrary, top_k_groups
from .pipeline import (
    fit_prevalence_streaming,
    iter_input,
    load_prevalence,
    read_annotated,
    run_annotate,
    save_prevalence,
)
from .scheduler import (
    REGIMES,
    ScheduleSpec,
    TierIndex,
    active_tiers,
    baseline_budget,
    epoch_views,
    sample_epoch,
    tier_weights_mixed,
)
from .tiering import TIERS, TierConfig, tier_histogram

log = logging.getLogger("moltiers")


def load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _annotator_from_args(args: argparse.Namespace) -> ComplexityAnnotator:
    # built first, so invalid thresholds fail before any file is read
    config = TierConfig.from_attributes(args)
    library = FGLibrary.from_json(args.library) if args.library else None
    return ComplexityAnnotator(**asdict(config), library=library)


def _input_records(args: argparse.Namespace):
    return iter_input(args.input, args.format, args.smiles_column, args.delimiter)


def cmd_prevalence(args: argparse.Namespace) -> int:
    annotator = _annotator_from_args(args)
    stats = fit_prevalence_streaming(_input_records(args), annotator)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_prevalence(annotator.prevalence_, outdir / "prevalence.tsv")
    top = top_k_groups(annotator.prevalence_, args.top_k)
    (outdir / "top_groups.txt").write_text("\n".join(top) + "\n", encoding="utf-8")
    log.info("prevalence over %d molecules (%d skipped) -> %s",
             stats.written, stats.skipped, outdir)
    for name in top:
        print(f"{name}\t{annotator.prevalence_.prevalence[name]:.6f}")
    return 0


@contextmanager
def _replace_on_success(path: Path):
    """A text file that replaces ``path`` only if the block completes.

    It is written next to ``path``, so the final rename is atomic; on any
    failure it is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_annotate(args: argparse.Namespace) -> int:
    annotator = _annotator_from_args(args)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.prevalence:
        annotator.set_prevalence(load_prevalence(args.prevalence))
    else:
        log.info("no prevalence table given; fitting it in the annotate pass")
    t0 = time.perf_counter()
    with _replace_on_success(out_path) as out:
        try:
            stats = run_annotate(
                _input_records(args), annotator, out,
                workers=args.workers, chunk_size=args.chunk_size,
                include_trace=args.trace, library_path=args.library,
            )
        except EmptyCorpus as exc:
            # raised before any record is written, so the output is empty
            log.info("%s; wrote empty output", exc)
            return 0
    dt = time.perf_counter() - t0
    log.info("annotated %d molecules (skipped %d malformed) in %.2fs",
             stats.written, stats.skipped, dt)
    return 0


def _parse_tier_counts(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 5:
        raise ValueError("--tier-counts needs five comma-separated integers")
    return tuple(int(p.replace("_", "")) for p in parts)


def cmd_schedule(args: argparse.Namespace) -> int:
    spec = ScheduleSpec(args.regime, args.epochs, args.hard_start, args.seed)
    if args.tier_counts:
        counts = _parse_tier_counts(args.tier_counts)
        index = None
    else:
        if not args.annotated:
            raise MissingTierField("schedule needs --annotated or --tier-counts")
        pairs = []
        for row in read_annotated(args.annotated):
            if "tier" not in row or "id" not in row:
                raise MissingTierField(f"record without tier/id: {row}")
            pairs.append((int(row["id"]), TIERS.index(row["tier"])))
        index = TierIndex.from_pairs(pairs)
        counts = index.counts()

    views = epoch_views(counts, spec)
    total = sum(views)
    base = baseline_budget(counts, spec.epochs)
    if not base:
        raise EmptyCorpus("no molecules to schedule")
    ratio = float(total / base)
    mixed = spec.regime == "mixed"
    if mixed:
        labels = [f"rho={tier_weights_mixed(e, spec.epochs, spec.hard_start)[2]:.4f}"
                  for e in range(spec.epochs)]
    else:
        labels = ["{" + ",".join(f"T{t}" for t in sorted(
            active_tiers(spec.regime, e, spec.epochs))) + "}"
            for e in range(spec.epochs)]

    print(f"regime={spec.regime} epochs={spec.epochs} seed={spec.seed}")
    print(f"tier counts: {dict(zip(TIERS, counts))}")
    print(f"{'epoch':>5}  {'active':<24} {'views':>14}")
    for e, (label, size) in enumerate(zip(labels, views)):
        shown = f"{float(size):.1f}" if mixed else f"{size:d}"
        print(f"{e:>5}  {label:<24} {shown:>14}")
    print(f"total molecule-views: {total}")
    print(f"baseline (all tiers x {spec.epochs} epochs): {base}")
    print(f"budget ratio: {ratio:.4f}")

    number = float if mixed else int
    summary = {
        "regime": spec.regime,
        "epochs": spec.epochs,
        "seed": spec.seed,
        "hard_start": spec.hard_start,
        "tier_counts": list(counts),
        "per_epoch": [
            {"epoch": e, "active": label, "views": number(size),
             "cumulative_views": number(cumulative)}
            for e, (label, size, cumulative)
            in enumerate(zip(labels, views, accumulate(views)))
        ],
        "total_views": number(total),
        "total_views_exact": str(total),
        "baseline_views": base,
        "ratio": ratio,
    }
    if not args.output_dir:
        return 0
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "schedule_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    if index is not None and not args.no_manifests:
        for e in range(spec.epochs):
            manifest = sample_epoch(index, spec, e)
            path = outdir / f"manifest_epoch_{e:03d}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for mol_id in manifest.sampled_ids:
                    fh.write(json.dumps(
                        {"epoch": e, "regime": spec.regime, "id": mol_id},
                        separators=(",", ":"),
                    ) + "\n")
            log.info("epoch %d manifest: %d ids -> %s", e, manifest.size, path)
    return 0


def _percentiles(values, probs=(25, 50, 75)):
    import numpy as np

    arr = np.asarray(values, dtype=float)
    return [float(np.percentile(arr, p)) for p in probs]


def cmd_stats(args: argparse.Namespace) -> int:
    import numpy as np

    rows = list(read_annotated(args.annotated))
    if not rows:
        raise EmptyCorpus(f"no records in {args.annotated}")
    report: dict = {"n": len(rows)}
    for key in ("mw", "bertz_ct", "n_ring"):
        arr = np.asarray([r[key] for r in rows], dtype=float)
        report[key] = {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "p99": float(np.percentile(arr, 99)),
        }
    hist = tier_histogram(r["tier"] for r in rows)
    report["tier_histogram"] = hist
    per_tier = {}
    for tier in TIERS:
        values = [r["bertz_ct"] for r in rows if r["tier"] == tier]
        if values:
            q25, q50, q75 = _percentiles(values)
            per_tier[tier] = {"n": len(values), "q25": q25, "median": q50, "q75": q75}
    report["bertz_ct_per_tier"] = per_tier

    print(f"records: {report['n']}")
    for key in ("mw", "bertz_ct", "n_ring"):
        s = report[key]
        print(f"{key:>9}: mean {s['mean']:.2f}  median {s['median']:.2f}  "
              f"p99 {s['p99']:.2f}")
    print(f"{'tier':>5} {'count':>9}  bertz_ct q25/median/q75")
    for tier in TIERS:
        q = per_tier.get(tier)
        quartiles = (
            f"{q['q25']:.2f} / {q['median']:.2f} / {q['q75']:.2f}" if q else "-"
        )
        print(f"{tier:>5} {hist[tier]:>9}  {quartiles}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n",
                                   encoding="utf-8")
    return 0


def cmd_loss_check(args: argparse.Namespace) -> int:
    # numpy is imported only by the commands that use it
    from .check import run_gradient_suite, run_property_suite
    from .losses import load_embeddings, pairwise_distance_correlation

    results = run_gradient_suite(args.seeds) + run_property_suite()
    failed = 0
    for result in results:
        print(result.line())
        failed += not result.passed
    if args.matrix_a and args.matrix_b:
        a = load_embeddings(args.matrix_a)
        b = load_embeddings(args.matrix_b)
        rho, r = pairwise_distance_correlation(a, b, args.n_pairs, args.seed)
        print(f"pairwise-distance correlation: spearman={rho:.4f} pearson={r:.4f} "
              f"({args.n_pairs} pairs, seed {args.seed})")
    if failed:
        raise MoltiersError(f"{failed} loss checks failed")
    return 0


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The moltiers parser; ``config`` values become defaults of the
    subcommands' value-taking options, and other keys are ignored."""
    parser = argparse.ArgumentParser(
        prog="moltiers",
        description="Molecular complexity descriptors, curriculum tiers, "
                    "schedules, and loss kernels.",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="corpus (.smi/.csv/.tsv)")
        p.add_argument("--format", choices=("auto", "smi", "delimited"),
                       default="auto")
        p.add_argument("--smiles-column", default="smiles")
        p.add_argument("--delimiter")
        p.add_argument("--library", help="functional-group library JSON")

    def add_tier_config(p):
        for field in fields(TierConfig):
            p.add_argument("--" + field.name.replace("_", "-"),
                           type=type(field.default), default=field.default)

    p = sub.add_parser("prevalence", help="compute group prevalence P(f)")
    add_io(p)
    add_tier_config(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_prevalence)

    p = sub.add_parser("annotate", help="descriptor + tier JSONL per molecule")
    add_io(p)
    add_tier_config(p)
    p.add_argument("--output", required=True)
    p.add_argument("--prevalence", help="prevalence.tsv from the prevalence step")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--chunk-size", type=int, default=256)
    p.add_argument("--trace", action="store_true",
                   help="include the tier rule trace in each record")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("schedule", help="per-epoch manifests and budget report")
    p.add_argument("--annotated", help="annotate output (JSONL with id+tier)")
    p.add_argument("--tier-counts", dest="tier_counts",
                   help="five counts, e.g. 268,107370,153955,703283,35124 "
                        "(budget report only)")
    p.add_argument("--regime", choices=REGIMES, default="staged10")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--hard-start", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.add_argument("--no-manifests", action="store_true")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("stats", help="summary statistics of an annotated file")
    p.add_argument("--annotated", required=True)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("loss-check", help="gradient and invariant self-checks")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--matrix-a")
    p.add_argument("--matrix-b")
    p.add_argument("--n-pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_loss_check)

    for p in sub.choices.values():
        takes_value = {a.dest for a in p._actions if a.option_strings and a.nargs != 0}
        p.set_defaults(**{k: v for k, v in (config or {}).items() if k in takes_value})
    return parser


def _check_choices(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject a config-file value outside its option's ``choices`` as a
    usage error; argparse checks ``choices`` only for values in argv."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    for action in sub._actions:
        value = getattr(args, action.dest, None)
        if action.choices is not None and value not in action.choices:
            sub.error(f"argument {'/'.join(action.option_strings)}: invalid "
                      f"choice: {value!r} (choose from "
                      + ", ".join(map(repr, action.choices)) + ")")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        if args.config:
            # the file's values are defaults, so a flag given in argv wins
            parser = build_parser(load_config(args.config))
            args = parser.parse_args(argv)
            _check_choices(parser, args)
        if hasattr(args, "seed") or hasattr(args, "workers"):
            log.info("seed=%s workers=%s", getattr(args, "seed", "-"),
                     getattr(args, "workers", "-"))
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code in (0, None) else 1
    except (MoltiersError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
