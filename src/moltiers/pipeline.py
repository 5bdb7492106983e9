"""Corpus ingestion and the fan-out/fan-in parallel annotation pipeline.

``run_annotate`` is the one annotate run.  It cuts the record stream into
chunks and hands them to one mapper, ``_chunk_mapper``: ``workers``
processes, the caller included, share the chunks.  With one worker the
caller runs every chunk; with N it forks N - 1 worker processes that live
for the whole run and runs every N-th chunk itself.  The workers inherit
the caller's annotator, library and fitted table included.  Each worker has
two pipes: the caller writes length-prefixed pickled ``(fn, chunk)`` tasks
to one and reads an ``("ok", result)`` or ``("err", exception)`` frame per
task from the other.  Results come back in input order, so output is
byte-identical for any worker count or chunk size.

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
every line.  A worker that dies ends the run with WorkerDied; an exception
raised in a worker's chunk is raised again in the caller.
"""

from __future__ import annotations

import os
import pickle
import select
import tempfile
from collections import Counter, deque
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

from .descriptors import DescriptorCore
from .errors import EmptyCorpus, MalformedLine, MissingTierField, WorkerDied
from .featurizer import UNANNOTATABLE, ComplexityAnnotator, record_to_dict
from .fgroups import PrevalenceTable, prevalence_from_counts
from .records import dumps_record, scan_records

ChunkFn = Callable[[object, ComplexityAnnotator], object]


def input_format(path: str | Path, fmt: str = "auto") -> str:
    """The format, ``smi`` or ``delimited``, ``iter_input`` reads as."""
    if fmt != "auto":
        return fmt
    return "delimited" if Path(path).suffix.lower() in (".csv", ".tsv") else "smi"


def iter_input(
    path: str | Path,
    fmt: str = "auto",
    smiles_column: str = "smiles",
    delimiter: str | None = None,
) -> Iterator[tuple[int, str]]:
    """Yield (row id, smiles) pairs; blank rows are skipped silently.  The
    ``auto`` format reads .csv and .tsv files, in any case, as delimited,
    split on tabs for .tsv and on commas otherwise, and others as smi.
    A leading UTF-8 byte-order mark, as spreadsheet programs write, is
    dropped."""
    fmt = input_format(path, fmt)
    if fmt == "smi":
        with open(path, encoding="utf-8-sig") as fh:
            for i, line in enumerate(fh):
                token = line.split(None, 1)[0] if line.strip() else ""
                if token:
                    yield i, token
        return
    if fmt != "delimited":
        raise ValueError(f"unknown input format {fmt!r}")
    import csv  # only delimited input loads it

    delim = delimiter or ("\t" if Path(path).suffix.lower() == ".tsv" else ",")
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


_HEADER = 8  # bytes of the big-endian length before each pickled frame
_READ_SIZE = 1 << 16  # bytes asked of a result pipe per read


def _frame(obj) -> bytes:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(_HEADER, "big") + data


def _error_frame(exc: Exception) -> bytes:
    """``("err", exc)``, or ``("err", RuntimeError(repr(exc)))`` when
    ``exc`` does not survive a pickle round trip."""
    try:
        frame = _frame(("err", exc))
        pickle.loads(frame[_HEADER:])
    except Exception:
        frame = _frame(("err", RuntimeError(repr(exc))))
    return frame


def _serve(tasks: int, results: int, annotator: ComplexityAnnotator) -> None:
    """A forked worker's loop: for each ``(fn, chunk)`` task read from
    ``tasks``, write ``("ok", fn(chunk, annotator))`` or ``("err",
    exception)`` to ``results``, until ``tasks`` reaches EOF."""
    with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
        while header := inbox.read(_HEADER):
            fn, chunk = pickle.loads(inbox.read(int.from_bytes(header, "big")))
            try:
                reply = _frame(("ok", fn(chunk, annotator)))
            except Exception as exc:
                reply = _error_frame(exc)
            outbox.write(reply)
            outbox.flush()


class _Worker:
    """A process forked to run ``_serve``, with the caller's ends of its two
    pipes: ``tasks`` (non-blocking) and ``results``.  ``inbox`` holds result
    bytes read but not yet taken, ``sent`` the (function name, chunk
    number) of each task without a taken result, in order."""

    __slots__ = ("pid", "tasks", "results", "inbox", "sent", "eof")

    def __init__(self, annotator: ComplexityAnnotator, others: list[_Worker]):
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            task_r, self.tasks, self.results, result_w = fds
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                # another child holding a task pipe's write end would keep
                # that worker from seeing EOF
                for fd in (self.tasks, self.results,
                           *(fd for w in others for fd in (w.tasks, w.results))):
                    os.close(fd)
                _serve(task_r, result_w, annotator)
                code = 0
            finally:
                # never the caller's exit path: no flush of its buffers, no
                # finally block of its stack
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        os.set_blocking(self.tasks, False)
        self.inbox = bytearray()
        self.sent: deque[tuple[str, int]] = deque()
        self.eof = False

    def died(self) -> WorkerDied:
        name, k = self.sent[0]
        return WorkerDied(f"a worker process died; {name} lost chunk {k} "
                          "(counting from 0)")

    def drain(self) -> None:
        data = os.read(self.results, _READ_SIZE)
        if data:
            self.inbox += data
        else:
            self.eof = True

    def send(self, frame: bytes, task: tuple[str, int], pool: list[_Worker]) -> None:
        """Write one task frame.  While the task pipe is full, read every
        worker's result pipe, so that the caller never waits on a worker
        that waits for the caller to read its result."""
        self.sent.append(task)
        view = memoryview(frame)
        while view:
            try:
                view = view[os.write(self.tasks, view):]
            except BlockingIOError:
                waiting = select.poll()
                waiting.register(self.tasks, select.POLLOUT)
                readers = {w.results: w for w in pool if not w.eof}
                for fd in readers:
                    waiting.register(fd, select.POLLIN)
                for fd, _ in waiting.poll():
                    if fd in readers:
                        readers[fd].drain()
            except BrokenPipeError:
                raise self.died() from None

    def receive(self) -> object:
        """The result of the oldest task without one; the exception its
        chunk raised is raised here."""
        while True:
            if len(self.inbox) >= _HEADER:
                end = _HEADER + int.from_bytes(self.inbox[:_HEADER], "big")
                if len(self.inbox) >= end:
                    break
            if self.eof:
                raise self.died()
            self.drain()
        status, value = pickle.loads(self.inbox[_HEADER:end])
        del self.inbox[:end]
        self.sent.popleft()
        if status == "err":
            raise value
        return value


@contextmanager
def _chunk_mapper(
    annotator: ComplexityAnnotator, workers: int
) -> Iterator[Callable[[ChunkFn, Iterable], Iterator]]:
    """A ``map_chunks(fn, chunks)`` yielding ``fn(chunk, annotator)`` per
    chunk, in input order, from ``workers`` processes, the caller included.

    One worker runs every chunk in-process.  Otherwise the caller forks
    ``workers - 1`` processes on entry, alive for the whole block, which
    inherit ``annotator`` as it is then.  Each has two pipes: the caller
    writes length-prefixed pickled ``(fn, chunk)`` tasks to one, and the
    worker writes an ``("ok", result)`` or ``("err", exception)`` frame per
    task to the other.  The caller runs chunk k itself when ``k % workers
    == workers - 1`` and sends the rest to worker ``k % workers``.  The
    share is fixed: a caller that took a chunk only when the workers were
    busy would leave them a longer queue to drain at the end of the input
    while it waited.  The caller runs its chunk once the next round of
    chunks is sent too, so each worker has a chunk queued behind the one it
    runs.  At most ``2 * workers`` chunks are read but not yet yielded, so
    each worker has at most two chunks in flight.

    A worker's exception is raised in the caller as itself, or as a
    RuntimeError carrying its repr when it cannot be pickled.  EOF or a
    broken pipe from a worker is WorkerDied, naming the chunk it lost.  On
    every exit the pipes are closed, which ends each worker's loop, and
    every worker is reaped."""
    if workers <= 1:
        yield lambda fn, chunks: (fn(chunk, annotator) for chunk in chunks)
        return
    # loaded before the fork, so workers inherit the default library
    # instead of each building a private copy (about 1 MB less summed RSS
    # at 2 workers)
    annotator._lib()
    pool: list[_Worker] = []

    def map_chunks(fn: ChunkFn, chunks: Iterable) -> Iterator:
        name = getattr(fn, "func", fn).__name__
        # per chunk read and not yet yielded, a call returning its result
        pending: deque[Callable[[], object]] = deque()
        held = None  # the caller's chunk read but not yet run, and its box
        for k, chunk in enumerate(chunks):
            if k % workers == workers - 1:
                held = chunk, []
                pending.append(held[1].pop)
            else:
                worker = pool[k % workers]
                worker.send(_frame((fn, chunk)), (name, k), pool)
                pending.append(worker.receive)
                if held and k % workers == workers - 2:
                    held[1].append(fn(held[0], annotator))
                    held = None
            if len(pending) >= 2 * workers:
                yield pending.popleft()()
        if held:
            held[1].append(fn(held[0], annotator))
        while pending:
            yield pending.popleft()()

    try:
        for _ in range(workers - 1):
            pool.append(_Worker(annotator, pool))
        yield map_chunks
    finally:
        for worker in pool:
            os.close(worker.tasks)
            os.close(worker.results)
        for worker in pool:
            os.waitpid(worker.pid, 0)


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
    if not size:
        raise EmptyCorpus("prevalence requires at least one molecule", skipped)
    annotator.set_prevalence(
        prevalence_from_counts(groups, size, annotator._lib())
    )
    annotator.n_skipped_ = skipped
    spill.seek(0)
    return (spill.read(length) for length in lengths)


class AnnotateStats:
    """Molecules written and entries skipped; a run counts into one."""

    def __init__(self, written: int = 0, skipped: int = 0):
        self.written = written
        self.skipped = skipped

    def __eq__(self, other: object) -> bool:
        if type(other) is not AnnotateStats:
            return NotImplemented
        return (self.written, self.skipped) == (other.written, other.skipped)

    def __repr__(self) -> str:
        return f"AnnotateStats(written={self.written}, skipped={self.skipped})"


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
    anything and with the count of skipped entries, when an unfitted run
    finds nothing to annotate.
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
    ``corpus_size`` that is not a count, or a second ``corpus_size`` line.
    A table with no rows, the one fitted with an empty library, must have
    its ``corpus_size`` line: without either, the file is no table
    (EmptyCorpus)."""
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
