"""Corpus ingestion and the fan-out/fan-in parallel annotation pipeline.

``run_annotate`` is the one annotate run.  It cuts the record stream into
chunks and hands them to one mapper, ``_chunk_mapper``, which runs a chunk
function in-process for one worker, or otherwise from one pool that lives
for the whole run.  Pool workers each build an annotator once, from the
caller's parameters and library file; every task carries the caller's
prevalence table, if it has one, and results come back in input order, so
output is byte-identical for any worker count or chunk size.

* With a prevalence table, each chunk is described and finished in one task
  (``annotate_chunk``).
* Without one, the run fits the table in the same pass: each molecule is
  parsed and described once (``describe_chunk``), the parent spills the
  pickled chunks to an anonymous temp file while it sums their group counts
  into the table, and the spilled chunks then go back through the same pool
  to be finished (``finish_chunk``).  The output is byte-identical to
  ``fit`` followed by a run with the fitted annotator.

The parent only routes chunks and writes lines.  A worker that dies ends
the run with WorkerDied.
"""

from __future__ import annotations

import csv
import json
import multiprocessing as mp
import pickle
import tempfile
from collections import Counter, deque
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .descriptors import DescriptorCore
from .errors import EmptyCorpus, MissingTierField, WorkerDied
from .featurizer import UNANNOTATABLE, ComplexityAnnotator, record_to_dict
from .fgroups import FGLibrary, PrevalenceTable, prevalence_from_counts

ChunkFn = Callable[[object, ComplexityAnnotator], object]


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


def _init_worker(params: dict, library_path: str | None) -> None:
    global _WORKER
    library = FGLibrary.from_json(library_path) if library_path else None
    _WORKER = ComplexityAnnotator(library=library, **params)


def _worker_chunk(fn: ChunkFn, table: PrevalenceTable | None, chunk):
    assert _WORKER is not None
    if table is not None and getattr(_WORKER, "prevalence_", None) != table:
        _WORKER.set_prevalence(table)
    return fn(chunk, _WORKER)


@contextmanager
def _chunk_mapper(
    annotator: ComplexityAnnotator, workers: int, library_path: str | None
) -> Iterator[Callable[[ChunkFn, Iterable], Iterator]]:
    """A ``map_chunks(fn, chunks)`` yielding ``fn(chunk, annotator)`` per
    chunk, in input order: in-process for one worker, otherwise from one
    pool, alive for the whole block, of annotators built from
    ``annotator``'s parameters and the library at ``library_path``."""
    if workers <= 1:
        yield lambda fn, chunks: (fn(chunk, annotator) for chunk in chunks)
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
    # imported here, so commands that start no pool do not load it
    from concurrent.futures import ProcessPoolExecutor

    # fork: spawn cost about 0.2 s more per 2,500-molecule command at 2
    # workers, and with fork the executor starts every worker before its
    # manager thread, so no thread is running when the process forks
    pool = ProcessPoolExecutor(workers, mp.get_context("fork"),
                               _init_worker, (params, library_path))

    def map_chunks(fn: ChunkFn, chunks: Iterable) -> Iterator:
        # at most two chunks in flight per worker; each task carries the
        # table the annotator holds when the task is submitted
        pending: deque = deque()
        done = 0
        try:
            for chunk in chunks:
                table = getattr(annotator, "prevalence_", None)
                pending.append(pool.submit(_worker_chunk, fn, table, chunk))
                if len(pending) >= 2 * workers:
                    yield pending.popleft().result()
                    done += 1
            while pending:
                yield pending.popleft().result()
                done += 1
        except BrokenExecutor as exc:
            name = getattr(fn, "func", fn).__name__
            raise WorkerDied(f"a worker process died; {name} lost chunk "
                             f"{done} (counting from 0)") from exc

    try:
        yield map_chunks
    finally:
        pool.shutdown(cancel_futures=True)


Described = list[tuple[int, str, DescriptorCore]]


def _describe(
    chunk: list[tuple[int, str]], annotator: ComplexityAnnotator
) -> tuple[Described, int]:
    """(id, smiles, core) per describable entry, and the count of the rest."""
    described: Described = []
    skipped = 0
    for mol_id, smiles in chunk:
        try:
            described.append((mol_id, smiles, annotator.describe(smiles)))
        except UNANNOTATABLE:
            skipped += 1
    return described, skipped


def _finish(
    described: Described,
    skipped: int,
    annotator: ComplexityAnnotator,
    include_trace: bool,
) -> tuple[list[str], int]:
    lines = [
        dumps_record(record_to_dict(mol_id, smiles, *annotator.finish(core),
                                    include_trace))
        for mol_id, smiles, core in described
    ]
    return lines, skipped


def annotate_chunk(
    chunk: list[tuple[int, str]],
    annotator: ComplexityAnnotator,
    include_trace: bool,
) -> tuple[list[str], int]:
    """JSON lines for one chunk plus the count of unannotatable entries."""
    return _finish(*_describe(chunk, annotator), annotator, include_trace)


def describe_chunk(
    chunk: list[tuple[int, str]], annotator: ComplexityAnnotator
) -> tuple[bytes, Counter, int, int]:
    """One chunk described but not finished: ``_describe``'s result pickled
    as one object, molecules per group, the number described and the number
    of unannotatable entries."""
    described, skipped = _describe(chunk, annotator)
    groups = Counter(name for _, _, core in described for name in core.fg_names)
    blob = pickle.dumps((described, skipped), pickle.HIGHEST_PROTOCOL)
    return blob, groups, len(described), skipped


def finish_chunk(
    blob: bytes, annotator: ComplexityAnnotator, include_trace: bool
) -> tuple[list[str], int]:
    """``annotate_chunk``'s result for a chunk that ``describe_chunk`` pickled."""
    return _finish(*pickle.loads(blob), annotator, include_trace)


def _describe_and_fit(
    map_chunks: Callable[[ChunkFn, Iterable], Iterator],
    chunks: Iterable,
    annotator: ComplexityAnnotator,
) -> Iterator[bytes]:
    """Describe every chunk, fit ``annotator`` on their group counts, then
    yield the described chunks in input order from a spill file."""
    groups: Counter = Counter()
    lengths: list[int] = []
    size = skipped = 0
    with tempfile.TemporaryFile() as spill:
        for blob, chunk_groups, described, chunk_skipped in map_chunks(
                describe_chunk, chunks):
            lengths.append(spill.write(blob))
            groups.update(chunk_groups)
            size += described
            skipped += chunk_skipped
        annotator.set_prevalence(
            prevalence_from_counts(groups, size, annotator._lib())
        )
        annotator.n_skipped_ = skipped
        spill.seek(0)
        for length in lengths:
            yield spill.read(length)


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
    """Annotate a stream, preserving input order for any worker count.

    With a fitted annotator (``fit`` or ``set_prevalence``) each chunk is
    described and finished in one task.  Otherwise the run fits the table in
    the same pass and leaves ``annotator`` fitted on the stream, with the
    output of ``fit`` followed by a fitted run.  Raises ValueError on invalid
    tier parameters before reading ``records``, and EmptyCorpus, before
    writing anything, when an unfitted run finds nothing to annotate.
    """
    annotator.tier_config()
    stats = AnnotateStats()
    with _chunk_mapper(annotator, workers, library_path) as map_chunks:
        chunks = chunked(records, chunk_size)
        finish = annotate_chunk
        if not hasattr(annotator, "prevalence_"):
            chunks = _describe_and_fit(map_chunks, chunks, annotator)
            finish = finish_chunk
        finish = partial(finish, include_trace=include_trace)
        for lines, skipped in map_chunks(finish, chunks):
            stats.skipped += skipped
            stats.written += len(lines)
            if lines:
                out.write("\n".join(lines) + "\n")
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
