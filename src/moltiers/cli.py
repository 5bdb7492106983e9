"""Command-line interface.

Subcommands: prevalence, annotate, schedule, stats.
Each option declares its default once, on its ``add_argument``; the tier
options are generated from ``TierConfig``'s fields.  A ``--config`` file
(plain ``key = value`` lines with ``#`` comments) supplies defaults for the
chosen subcommand's value-taking options, and argv is parsed again over
them, so options resolve as flag > config file > built-in default and a
file value is converted, or rejected as a usage error, by the option's type
and its choices.  ``annotate`` is one ``pipeline.run_annotate`` call, with
or without a ``--prevalence`` table.  Each command imports what only it
needs when it runs: the commands that read SMILES load the SMILES,
descriptor and pool modules, so ``schedule`` and ``stats`` load only the
record reader and, for ``schedule``, the scheduler; ``annotate`` and
``prevalence`` load no scheduler (nor its ``fractions`` arithmetic).
Messages go to the current ``sys.stderr`` as ``LEVEL moltiers: message``
lines, written by ``log``, a small reporter: no command loads ``logging``,
and none installs a handler.  Each ``main`` call sets the reporter's level,
INFO, or DEBUG with ``-v``.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import EmptyCorpus, MoltiersError
from .records import STAT_FIELDS, read_stat_columns, read_tier_ids
from .tiering import REGIMES, TIERS, TierConfig

if TYPE_CHECKING:
    from .featurizer import ComplexityAnnotator

DEBUG, INFO, ERROR = 10, 20, 40

# manifests a schedule writes in one pass over the ids, each an open file:
# a long --epochs runs as several passes, far below any open-file limit
OPEN_MANIFESTS = 64


class _Reporter:
    """``LEVEL moltiers: message`` lines on the current ``sys.stderr``, the
    message ``%``-formatted with its args, for levels at or above ``level``.
    A missing stderr (``None``) or one that fails to write loses the line,
    not the run."""

    def __init__(self) -> None:
        self.level = INFO

    def _write(self, level: int, name: str, msg: str, args: tuple) -> None:
        stream = sys.stderr
        if level < self.level or stream is None:
            return
        try:
            stream.write(f"{name} moltiers: {msg % args if args else msg}\n")
            stream.flush()
        except OSError:
            pass

    def debug(self, msg: str, *args) -> None:
        self._write(DEBUG, "DEBUG", msg, args)

    def info(self, msg: str, *args) -> None:
        self._write(INFO, "INFO", msg, args)

    def error(self, msg: str, *args) -> None:
        self._write(ERROR, "ERROR", msg, args)


log = _Reporter()


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
    from .featurizer import ComplexityAnnotator
    from .fgroups import FGLibrary

    # built first, so invalid thresholds fail before any file is read
    config = TierConfig.from_attributes(args)
    library = FGLibrary.from_json(args.library) if args.library else None
    return ComplexityAnnotator(**config._asdict(), library=library)


def _input_records(args: argparse.Namespace):
    from .pipeline import iter_input

    return iter_input(args.input, args.format, args.smiles_column, args.delimiter)


def cmd_prevalence(args: argparse.Namespace) -> int:
    from .fgroups import top_k_groups
    from .pipeline import fit_prevalence_streaming, write_prevalence

    annotator = _annotator_from_args(args)
    stats = fit_prevalence_streaming(_input_records(args), annotator)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # both files are renamed into place only after both are written and
    # closed, so a failure leaves the earlier pair as it was
    with _replace_all_on_success([outdir / "prevalence.tsv",
                                  outdir / "top_groups.txt"]) as (table_out, top_out):
        write_prevalence(annotator.prevalence_, table_out)
        top = top_k_groups(annotator.prevalence_, args.top_k)
        top_out.writelines(name + "\n" for name in top)
    log.info("prevalence over %d molecules (%d skipped) -> %s",
             stats.written, stats.skipped, outdir)
    for name in top:
        print(f"{name}\t{annotator.prevalence_.prevalence[name]:.6f}")
    return 0


@contextmanager
def _replace_all_on_success(paths: list[Path]):
    """Text files, one per path, that replace ``paths`` only if the block
    completes.

    Each is written next to its path, so each rename is atomic.  Every file
    is closed, and so flushed, before the first is renamed: on any failure,
    a write or a close included, all of them are removed and ``paths`` are
    left as they were.
    """
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w", encoding="utf-8"))
                   for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _replace_on_success(path: Path):
    """A text file that replaces ``path`` only if the block completes."""
    with _replace_all_on_success([path]) as (out,):
        yield out


def cmd_annotate(args: argparse.Namespace) -> int:
    from .pipeline import AnnotateStats, input_format, load_prevalence, run_annotate

    annotator = _annotator_from_args(args)
    if args.prevalence:
        annotator.set_prevalence(load_prevalence(args.prevalence))
    else:
        log.info("no prevalence table given; fitting it in the annotate pass")
    log.debug("annotate: %s read as %s, %d worker(s), chunks of %d, table %s",
              args.input, input_format(args.input, args.format), args.workers,
              args.chunk_size, f"read from {args.prevalence}" if args.prevalence
              else "fitted in the pass")
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with _replace_on_success(out_path) as out:
        try:
            stats = run_annotate(_input_records(args), annotator, out,
                                 workers=args.workers, chunk_size=args.chunk_size,
                                 include_trace=args.trace)
        except EmptyCorpus as exc:
            # raised before any record is written, so the output is empty
            stats = AnnotateStats(skipped=exc.skipped)
    dt = time.perf_counter() - t0
    log.info("annotated %d molecules (skipped %d malformed) in %.2fs",
             stats.written, stats.skipped, dt)
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from .scheduler import (
        ScheduleSpec,
        TierIndex,
        active_tiers,
        baseline_budget,
        epoch_views,
        tier_weights_mixed,
        write_manifests,
    )

    if not args.annotated and not args.tier_counts:
        log.error("schedule: give --annotated or --tier-counts")
        return 1
    if args.annotated and args.tier_counts:
        log.error("schedule: --annotated and --tier-counts exclude each other; "
                  "give one")
        return 1
    # ScheduleSpec takes these pairs, and they fail only in the per-epoch
    # arithmetic, after --annotated has been read; check them first
    if args.regime == "staged10" and args.epochs != 10:
        log.error("schedule: --regime staged10 needs --epochs 10, got %d",
                  args.epochs)
        return 1
    if args.regime == "mixed" and args.epochs < 2:
        log.error("schedule: --regime mixed needs --epochs of at least 2, "
                  "got %d", args.epochs)
        return 1
    spec = ScheduleSpec(args.regime, args.epochs, args.hard_start, args.seed)
    if args.tier_counts:
        counts = args.tier_counts
        index = None
    else:
        t0 = time.perf_counter()
        index = TierIndex.from_ids(*read_tier_ids(args.annotated))
        counts = index.counts()
        log.debug("schedule: read %d records from %s in %.3fs", sum(counts),
                  args.annotated, time.perf_counter() - t0)

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
    # every file is renamed into place whole: the manifests of a pass once
    # all of them are written and closed, and the summary last, so a failed
    # run into a fresh directory leaves no summary
    if index is not None and not args.no_manifests:
        t0 = time.perf_counter()
        for first in range(0, spec.epochs, OPEN_MANIFESTS):
            epochs = range(first, min(first + OPEN_MANIFESTS, spec.epochs))
            paths = [outdir / f"manifest_epoch_{e:03d}.jsonl" for e in epochs]
            with _replace_all_on_success(paths) as outs:
                sizes = write_manifests(index, spec, epochs, outs)
            for e, size, path in zip(epochs, sizes, paths):
                log.info("epoch %d manifest: %d ids -> %s", e, size, path)
        log.debug("schedule: wrote %d manifests to %s in %.3fs", spec.epochs,
                  outdir, time.perf_counter() - t0)
    with _replace_on_success(outdir / "schedule_summary.json") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import numpy as np

    columns = read_stat_columns(args.annotated)
    if not columns.tiers:
        raise EmptyCorpus(f"no records in {args.annotated}")
    report: dict = {"n": len(columns.tiers)}
    for key in STAT_FIELDS:
        arr = np.frombuffer(getattr(columns, key), dtype=float)
        report[key] = {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "p99": float(np.percentile(arr, 99)),
        }
    tiers = np.frombuffer(columns.tiers, dtype=np.uint8)
    bertz_ct = np.frombuffer(columns.bertz_ct, dtype=float)
    hist = {tier: int(np.count_nonzero(tiers == t)) for t, tier in enumerate(TIERS)}
    report["tier_histogram"] = hist
    per_tier = {}
    for t, tier in enumerate(TIERS):
        if hist[tier]:
            q25, q50, q75 = map(float, np.percentile(bertz_ct[tiers == t],
                                                     (25, 50, 75)))
            per_tier[tier] = {"n": hist[tier], "q25": q25, "median": q50, "q75": q75}
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
        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        with _replace_on_success(json_path) as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    return 0


def _one_char(text: str) -> str:
    if len(text) > 1:  # csv's limit; an empty delimiter means the default
        raise argparse.ArgumentTypeError(f"{text!r} is not one character")
    return text


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _parse_tier_counts(text: str) -> tuple[int, ...]:
    """An argparse type: five non-negative integers, separated by commas or
    semicolons."""
    parts = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    try:
        counts = tuple(int(p.replace("_", "")) for p in parts)
    except ValueError:
        counts = ()
    if len(counts) != 5 or min(counts) < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not five non-negative integers")
    return counts


def _unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The moltiers parser; ``config`` values become defaults of the
    subcommands' value-taking options, and other keys are ignored."""
    parser = argparse.ArgumentParser(
        prog="moltiers",
        description="Molecular complexity descriptors, curriculum tiers "
                    "and schedules.",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="corpus (.smi/.csv/.tsv)")
        p.add_argument("--format", choices=("auto", "smi", "delimited"),
                       default="auto")
        p.add_argument("--smiles-column", default="smiles")
        p.add_argument("--delimiter", type=_one_char)
        p.add_argument("--library", help="functional-group library JSON")

    def add_tier_config(p):
        for name, default in TierConfig._field_defaults.items():
            p.add_argument("--" + name.replace("_", "-"),
                           type=type(default), default=default)

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
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--chunk-size", type=_positive_int, default=256)
    p.add_argument("--trace", action="store_true",
                   help="include the tier rule trace in each record")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("schedule", help="per-epoch manifests and budget report")
    p.add_argument("--annotated", help="annotate output (JSONL with id+tier)")
    p.add_argument("--tier-counts", type=_parse_tier_counts,
                   help="five counts, e.g. 268,107370,153955,703283,35124 "
                        "(budget report only)")
    p.add_argument("--regime", choices=REGIMES, default="staged10")
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.add_argument("--hard-start", type=_unit_float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.add_argument("--no-manifests", action="store_true")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("stats", help="summary statistics of an annotated file")
    p.add_argument("--annotated", required=True)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_stats)

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
        log.level = DEBUG if args.verbose else INFO
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
