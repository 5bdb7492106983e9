"""Corpus ingestion and the fan-out/fan-in parallel annotation pipeline.

Both annotate runs go through one mapper, ``_map_chunks``: it cuts the
record stream into chunks and applies a chunk function to each, in-process
for one worker or from one pool otherwise.  Pool workers each build an
immutable annotator once, from the caller's parameters, library file and
prevalence table (if fitted), and chunks come back through an
order-preserving imap, so output is byte-identical for any worker count or
chunk size.

* ``run_annotate`` maps ``annotate_chunk`` under a fixed prevalence table
  (the ``annotate --prevalence`` path).
* ``run_annotate_one_pass`` maps ``describe_chunk`` and needs no table.
  Each molecule is parsed and described once; the parent sums group counts
  into the table while it spills each chunk's descriptor cores to an
  anonymous temp file, then re-reads the chunks in input order and adds
  rarity, tier and JSON.  Its output is byte-identical to ``fit`` followed
  by ``run_annotate``.
"""

from __future__ import annotations

import csv
import json
import multiprocessing as mp
import pickle
import tempfile
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .errors import EmptyCorpus, MissingTierField
from .featurizer import UNANNOTATABLE, ComplexityAnnotator, record_to_dict
from .fgroups import FGLibrary, PrevalenceTable, prevalence_from_counts

ChunkFn = Callable[[list[tuple[int, str]], ComplexityAnnotator], object]


def detect_format(path: str | Path, fmt: str = "auto") -> str:
    if fmt != "auto":
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix == ".smi":
        return "smi"
    if suffix in (".csv", ".tsv"):
        return "delimited"
    return "smi"


def iter_input(
    path: str | Path,
    fmt: str = "auto",
    smiles_column: str = "smiles",
    delimiter: str | None = None,
) -> Iterator[tuple[int, str]]:
    """Yield (row id, smiles) pairs; blank rows are skipped silently."""
    fmt = detect_format(path, fmt)
    if fmt == "smi":
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                token = line.split(None, 1)[0] if line.strip() else ""
                if token:
                    yield i, token
        return
    if fmt != "delimited":
        raise ValueError(f"unknown input format {fmt!r}")
    delim = delimiter or ("\t" if str(path).endswith(".tsv") else ",")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delim)
        header = next(reader, None)
        if header is None:
            return
        lowered = [h.strip().lower() for h in header]
        if smiles_column.lower() not in lowered:
            raise MissingTierField(
                f"no {smiles_column!r} column in {path} (found {header})"
            )
        col = lowered.index(smiles_column.lower())
        for i, row in enumerate(reader):
            if col < len(row) and row[col].strip():
                yield i, row[col].strip()


def chunked(items: Iterable, size: int) -> Iterator[list]:
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def dumps_record(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


_WORKER: ComplexityAnnotator | None = None


def _init_worker(
    params: dict, library_path: str | None, table: PrevalenceTable | None
) -> None:
    global _WORKER
    library = FGLibrary.from_json(library_path) if library_path else None
    _WORKER = ComplexityAnnotator(library=library, **params)
    if table is not None:
        _WORKER.set_prevalence(table)


def _worker_chunk(fn: ChunkFn, chunk: list[tuple[int, str]]):
    assert _WORKER is not None
    return fn(chunk, _WORKER)


def _map_chunks(
    fn: ChunkFn,
    records: Iterable[tuple[int, str]],
    annotator: ComplexityAnnotator,
    workers: int,
    chunk_size: int,
    library_path: str | None,
) -> Iterator:
    """``fn(chunk, annotator)`` per chunk, in input order.

    With one worker the chunks run in-process on ``annotator``; otherwise a
    pool runs them on per-process copies built from its parameters, its
    prevalence table if fitted, and the library at ``library_path``.  Close
    the generator when done with it: that ends the pool.
    """
    chunks = chunked(records, chunk_size)
    if workers <= 1:
        for chunk in chunks:
            yield fn(chunk, annotator)
        return
    if annotator.library is not None and library_path is None:
        raise ValueError(
            "a custom pattern library needs library_path so worker "
            "processes can load it"
        )
    # loaded before the pool forks, so workers inherit the default library
    # instead of each building a private copy (about 1 MB less summed RSS
    # at 2 workers)
    annotator._lib()
    params = {k: v for k, v in annotator.get_params().items() if k != "library"}
    table = getattr(annotator, "prevalence_", None)
    with mp.get_context().Pool(
        workers,
        initializer=_init_worker,
        initargs=(params, library_path, table),
    ) as pool:
        yield from pool.imap(partial(_worker_chunk, fn), chunks)


def annotate_chunk(
    chunk: list[tuple[int, str]],
    annotator: ComplexityAnnotator,
    include_trace: bool,
) -> tuple[list[str], int]:
    """JSON lines for one chunk plus the count of unannotatable entries."""
    lines: list[str] = []
    skipped = 0
    for mol_id, smiles in chunk:
        try:
            record, label = annotator.annotate_one(smiles)
        except UNANNOTATABLE:
            skipped += 1
            continue
        lines.append(
            dumps_record(record_to_dict(mol_id, smiles, record, label, include_trace))
        )
    return lines, skipped


def describe_chunk(
    chunk: list[tuple[int, str]], annotator: ComplexityAnnotator
) -> tuple[bytes, Counter, int, int]:
    """Descriptor cores for one chunk, pickled, with its group tallies.

    Returns one pickled (id, smiles, core) per described molecule, joined;
    molecules per group; the number described; and the number of
    unannotatable entries.  Pickling each core as it is made keeps only one
    chunk's bytes, not its objects, alive in the worker.
    """
    pickles = []
    groups: Counter = Counter()
    skipped = 0
    for mol_id, smiles in chunk:
        try:
            core = annotator.describe(smiles)
        except UNANNOTATABLE:
            skipped += 1
            continue
        groups.update(core.fg_names)
        pickles.append(pickle.dumps((mol_id, smiles, core), pickle.HIGHEST_PROTOCOL))
    return b"".join(pickles), groups, len(pickles), skipped


@dataclass
class AnnotateStats:
    written: int = 0
    skipped: int = 0


def run_annotate(
    records: Iterable[tuple[int, str]],
    annotator: ComplexityAnnotator,
    out: TextIO,
    workers: int = 1,
    chunk_size: int = 256,
    include_trace: bool = False,
    library_path: str | None = None,
) -> AnnotateStats:
    """Annotate a stream, preserving input order for any worker count."""
    annotator._check_fitted()
    stats = AnnotateStats()
    annotate = partial(annotate_chunk, include_trace=include_trace)
    with closing(_map_chunks(annotate, records, annotator, workers, chunk_size,
                             library_path)) as results:
        for lines, skipped in results:
            stats.skipped += skipped
            for line in lines:
                out.write(line + "\n")
                stats.written += 1
    return stats


def run_annotate_one_pass(
    records: Iterable[tuple[int, str]],
    annotator: ComplexityAnnotator,
    out: TextIO,
    workers: int = 1,
    chunk_size: int = 256,
    include_trace: bool = False,
    library_path: str | None = None,
) -> AnnotateStats:
    """Fit prevalence and annotate a stream, describing each molecule once.

    Same output as ``fit`` on the stream followed by ``run_annotate``, and
    leaves ``annotator`` fitted on the stream.  Raises ValueError on invalid
    tier parameters before reading ``records``, and EmptyCorpus, before
    writing anything, when no entry can be annotated.
    """
    annotator.tier_config()
    stats = AnnotateStats()
    groups: Counter = Counter()
    size = 0
    with tempfile.TemporaryFile() as spill:
        with closing(_map_chunks(describe_chunk, records, annotator, workers,
                                 chunk_size, library_path)) as results:
            for blob, chunk_groups, described, skipped in results:
                spill.write(blob)
                groups.update(chunk_groups)
                size += described
                stats.skipped += skipped
        annotator.set_prevalence(
            prevalence_from_counts(groups, size, annotator._lib())
        )
        annotator.n_skipped_ = stats.skipped
        spill.seek(0)
        for _ in range(size):
            mol_id, smiles, core = pickle.load(spill)
            record, label = annotator.finish(core)
            out.write(dumps_record(
                record_to_dict(mol_id, smiles, record, label, include_trace)
            ) + "\n")
            stats.written += 1
    return stats


def fit_prevalence_streaming(
    records: Iterable[tuple[int, str]], annotator: ComplexityAnnotator
) -> AnnotateStats:
    """First pass of the two-phase pipeline: learn prevalence from a stream."""
    annotator.fit(smiles for _, smiles in records)
    return AnnotateStats(written=annotator.n_fitted_, skipped=annotator.n_skipped_)


def save_prevalence(table: PrevalenceTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# corpus_size={table.corpus_size}\n")
        for name in sorted(table.prevalence):
            fh.write(f"{name}\t{table.prevalence[name]!r}\n")


def load_prevalence(path: str | Path) -> PrevalenceTable:
    prevalence: dict[str, float] = {}
    corpus_size = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "corpus_size=" in line:
                    corpus_size = int(line.split("corpus_size=")[1])
                continue
            name, value = line.split("\t")
            prevalence[name] = float(value)
    if not prevalence:
        raise EmptyCorpus(f"no prevalence rows in {path}")
    return PrevalenceTable(prevalence, corpus_size)


def read_annotated(path: str | Path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
