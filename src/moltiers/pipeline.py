"""Corpus ingestion and the fan-out/fan-in parallel annotation pipeline.

``run_annotate`` is the one annotate run.  It cuts the record stream into
chunks and hands them to one mapper, ``_chunk_mapper``: ``workers``
processes, the caller included, share the chunks.  With one worker the
caller runs every chunk; with N it runs every N-th chunk itself, beside a
pool of N - 1 processes that lives for the whole run.  Pool workers are
forked from the caller and inherit its annotator, library and fitted table
included; a task carries only the chunk function and the chunk, and
results come back in input order, so output is byte-identical for any
worker count or chunk size.

* With a prevalence table, each chunk is described and finished in one task
  (``annotate_chunk``).
* Without one, the run fits the table in the same pass: each molecule is
  parsed and described once (``describe_chunk``), the caller spills the
  pickled chunks to an anonymous temp file while it sums their group counts
  into the table, and the spilled chunks then go back through the same
  mapper to be finished (``finish_chunk``, given the table the workers were
  forked without).  The output is byte-identical to ``fit`` then a fitted
  run.

Besides its share of the chunks, the caller routes the rest and writes
every line.  A pool worker that dies ends the run with WorkerDied.
"""

from __future__ import annotations

import csv
import multiprocessing as mp
import pickle
import tempfile
from collections import Counter, deque
from concurrent.futures import BrokenExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

from .descriptors import DescriptorCore
from .errors import EmptyCorpus, MalformedLine, MissingTierField, WorkerDied
from .featurizer import UNANNOTATABLE, ComplexityAnnotator, record_to_dict
from .fgroups import PrevalenceTable, prevalence_from_counts
from .records import dumps_record, scan_records

ChunkFn = Callable[[object, ComplexityAnnotator], object]


def iter_input(
    path: str | Path,
    fmt: str = "auto",
    smiles_column: str = "smiles",
    delimiter: str | None = None,
) -> Iterator[tuple[int, str]]:
    """Yield (row id, smiles) pairs; blank rows are skipped silently.  The
    ``auto`` format reads .csv and .tsv files as delimited, others as smi.
    A leading UTF-8 byte-order mark, as spreadsheet programs write, is
    dropped."""
    if fmt == "auto":
        fmt = "delimited" if Path(path).suffix.lower() in (".csv", ".tsv") else "smi"
    if fmt == "smi":
        with open(path, encoding="utf-8-sig") as fh:
            for i, line in enumerate(fh):
                token = line.split(None, 1)[0] if line.strip() else ""
                if token:
                    yield i, token
        return
    if fmt != "delimited":
        raise ValueError(f"unknown input format {fmt!r}")
    delim = delimiter or ("\t" if str(path).endswith(".tsv") else ",")
    with open(path, encoding="utf-8-sig", newline="") as fh:
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


_WORKER: ComplexityAnnotator | None = None


def _init_worker(annotator: ComplexityAnnotator) -> None:
    global _WORKER
    _WORKER = annotator


def _worker_chunk(fn: ChunkFn, chunk):
    return fn(chunk, _WORKER)


@contextmanager
def _chunk_mapper(
    annotator: ComplexityAnnotator, workers: int
) -> Iterator[Callable[[ChunkFn, Iterable], Iterator]]:
    """A ``map_chunks(fn, chunks)`` yielding ``fn(chunk, annotator)`` per
    chunk, in input order, from ``workers`` processes, the caller included.

    One worker runs every chunk in-process.  Otherwise one pool of
    ``workers - 1`` processes, alive for the whole block, inherits
    ``annotator`` as it is at the first submit, and the caller runs chunk k
    itself when ``k % workers == workers - 1``.  The share is fixed: a
    caller that took a chunk only when the pool was full would leave the
    pool a longer queue to drain at the end of the input while it waited.
    The caller runs its chunk once the pool holds the next round of chunks
    too, so each pool process has a chunk queued behind the one it runs.
    At most ``2 * workers`` chunks are read but not yet yielded, so each
    pool process has at most two chunks in flight."""
    if workers <= 1:
        yield lambda fn, chunks: (fn(chunk, annotator) for chunk in chunks)
        return
    # loaded before the pool forks, so workers inherit the default library
    # instead of each building a private copy (about 1 MB less summed RSS
    # at 2 workers)
    annotator._lib()
    # imported here, so commands that start no pool do not load it
    from concurrent.futures import Future, ProcessPoolExecutor

    # fork: spawn cost about 0.2 s more per 2,500-molecule command at 2
    # workers, and with fork the executor starts every worker before its
    # manager thread, so no thread is running when the process forks; the
    # forked workers share the caller's annotator instead of unpickling it
    pool = ProcessPoolExecutor(workers - 1, mp.get_context("fork"),
                               _init_worker, (annotator,))

    def map_chunks(fn: ChunkFn, chunks: Iterable) -> Iterator:
        # per chunk read and not yet yielded, a future of its result
        pending: deque[Future] = deque()
        mine = None  # the caller's chunk read but not yet run, and its future
        done = 0
        try:
            for k, chunk in enumerate(chunks):
                if k % workers == workers - 1:
                    mine = Future(), chunk
                    pending.append(mine[0])
                else:
                    pending.append(pool.submit(_worker_chunk, fn, chunk))
                    if mine and k % workers == workers - 2:
                        future, held = mine
                        future.set_result(fn(held, annotator))
                        mine = None
                if len(pending) >= 2 * workers:
                    yield pending.popleft().result()
                    done += 1
            if mine:
                future, held = mine
                future.set_result(fn(held, annotator))
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
    blob: bytes, annotator: ComplexityAnnotator, table: PrevalenceTable,
    include_trace: bool,
) -> tuple[list[str], int]:
    """``annotate_chunk``'s result, under ``table``, for a chunk that
    ``describe_chunk`` pickled."""
    if getattr(annotator, "prevalence_", None) != table:
        annotator.set_prevalence(table)
    return _finish(*pickle.loads(blob), annotator, include_trace)


def _describe_and_fit(
    map_chunks: Callable[[ChunkFn, Iterable], Iterator],
    chunks: Iterable,
    annotator: ComplexityAnnotator,
    spill: BinaryIO,
) -> Iterator[bytes]:
    """Describe every chunk into ``spill`` and fit ``annotator`` on their
    group counts; returns the described chunks, read back in input order."""
    groups: Counter = Counter()
    lengths: list[int] = []
    size = skipped = 0
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
    return (spill.read(length) for length in lengths)


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
) -> AnnotateStats:
    """Annotate a stream, preserving input order for any worker count.

    Pool workers use ``annotator`` itself, its library included.  With a
    fitted annotator (``fit`` or ``set_prevalence``) each chunk is described
    and finished in one task.  Otherwise the run fits the table in the same
    pass and leaves ``annotator`` fitted on the stream, with the output of
    ``fit`` followed by a fitted run.  Raises ValueError on invalid tier
    parameters before reading ``records``, and EmptyCorpus, before writing
    anything, when an unfitted run finds nothing to annotate.
    """
    annotator.tier_config()
    stats = AnnotateStats()
    with _chunk_mapper(annotator, workers) as map_chunks, ExitStack() as stack:
        chunks = chunked(records, chunk_size)
        finish = partial(annotate_chunk, include_trace=include_trace)
        if not hasattr(annotator, "prevalence_"):
            spill = stack.enter_context(tempfile.TemporaryFile())
            chunks = _describe_and_fit(map_chunks, chunks, annotator, spill)
            finish = partial(finish_chunk, table=annotator.prevalence_,
                             include_trace=include_trace)
        for lines, skipped in map_chunks(finish, chunks):
            stats.skipped += skipped
            stats.written += len(lines)
            if lines:
                out.write("\n".join(lines) + "\n")
    return stats


def fit_prevalence_streaming(
    records: Iterable[tuple[int, str]], annotator: ComplexityAnnotator
) -> AnnotateStats:
    """Fit the annotator's prevalence table on the SMILES of ``(id, smiles)``
    records, as the ``prevalence`` command does; counts fitted and skipped."""
    annotator.fit(smiles for _, smiles in records)
    return AnnotateStats(written=annotator.n_fitted_, skipped=annotator.n_skipped_)


def write_prevalence(table: PrevalenceTable, out: TextIO) -> None:
    """The table as ``load_prevalence`` reads it: a corpus-size comment, then
    one ``name<TAB>prevalence`` row per group, in name order."""
    out.write(f"# corpus_size={table.corpus_size}\n")
    for name in sorted(table.prevalence):
        out.write(f"{name}\t{table.prevalence[name]!r}\n")


def load_prevalence(path: str | Path) -> PrevalenceTable:
    """The table ``write_prevalence`` wrote.  Raises MalformedLine, naming
    the line, for a row that is not ``name<TAB>prevalence`` with a
    prevalence in [0, 1], a row whose name an earlier row has, a
    ``corpus_size`` that is not a count, or a second ``corpus_size`` line.  A table with no rows, the one
    fitted with an empty library, must have its ``corpus_size`` line:
    without either, the file is no table (EmptyCorpus)."""
    prevalence: dict[str, float] = {}
    corpus_size = None
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line.startswith("#") and "corpus_size=" in line:
                    if corpus_size is not None:
                        raise MalformedLine(f"{path}:{n}: a second corpus_size line")
                    corpus_size = int(line.split("corpus_size=")[1])
                    if corpus_size < 0:
                        raise ValueError
                elif line and not line.startswith("#"):
                    name, value = line.split("\t")
                    if name in prevalence:
                        raise MalformedLine(f"{path}:{n}: group {name!r} appears twice")
                    prevalence[name] = float(value)
                    if not 0.0 <= prevalence[name] <= 1.0:  # nan too
                        raise ValueError
            except ValueError:
                raise MalformedLine(f"{path}:{n}: {line!r} is not name<TAB>prevalence"
                                    " in [0, 1] or # corpus_size=<count>") from None
    if corpus_size is None:
        if not prevalence:
            raise EmptyCorpus(f"no prevalence rows or corpus_size line in {path}")
        corpus_size = 0
    return PrevalenceTable(prevalence, corpus_size)


def read_annotated(path: str | Path) -> Iterator[dict]:
    """The records of an annotated JSONL file, skipping blank lines.

    Raises MalformedLine, naming ``path:line``, for a line that is not a
    JSON object.
    """
    for n, _, row in scan_records(path, match_layout=False):
        if type(row) is not dict:
            raise MalformedLine(f"{path}:{n}: not a JSON record")
        yield row
