"""The one-pass annotate run (no prevalence table given).

It must write exactly what ``prevalence`` followed by ``annotate
--prevalence`` writes, derive the same table as ``fit``, and describe each
input molecule once.
"""

from __future__ import annotations

import ast
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from moltiers.cli import main
from moltiers.errors import EmptyCorpus, MoltiersError, PrevalenceMismatch
from moltiers.featurizer import ComplexityAnnotator
from moltiers.fgroups import FGLibrary
from moltiers.pipeline import _chunk_mapper, chunked, iter_input, run_annotate
from moltiers.synth import generate_corpus

MALFORMED = ["((bad", "C1CC", "Xx", "[H][H]", "C[C@@H"]


def corpus_lines(n: int, seed: int) -> list[str]:
    """Synthetic molecules with the malformed entries spread through them."""
    lines = list(generate_corpus(n, seed=seed))
    step = max(1, len(lines) // len(MALFORMED))
    for k, bad in enumerate(MALFORMED):
        lines.insert(k * step + 1, bad)
    return lines


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "corpus.smi"
    path.write_text("\n".join(corpus_lines(700, seed=31)) + "\n")
    return path


@pytest.fixture()
def small_library(tmp_path):
    """The first twelve default patterns as a custom library file."""
    payload = json.loads(
        resources.files("moltiers").joinpath("data/functional_groups.json")
        .read_text(encoding="utf-8")
    )
    payload["patterns"] = payload["patterns"][:12]
    path = tmp_path / "library.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def empty_library(tmp_path):
    path = tmp_path / "empty_library.json"
    path.write_text('{"patterns": []}')
    return path


def annotate_both_ways(corpus, tmp_path, *flags, library=None) -> tuple[bytes, bytes]:
    """(one-pass output, prevalence + annotate --prevalence output)."""
    library_flags = ["--library", str(library)] if library else []
    one_pass = tmp_path / "one_pass.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(one_pass),
                 *flags, *library_flags]) == 0
    prev_dir = tmp_path / "prev"
    assert main(["prevalence", "--input", str(corpus), "--output-dir",
                 str(prev_dir), *library_flags]) == 0
    fixed = tmp_path / "fixed.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(fixed),
                 "--prevalence", str(prev_dir / "prevalence.tsv"),
                 *flags, *library_flags]) == 0
    return one_pass.read_bytes(), fixed.read_bytes()


class TestEquivalence:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_matches_prevalence_then_annotate(self, corpus, tmp_path, workers):
        one_pass, fixed = annotate_both_ways(corpus, tmp_path, "--workers", workers,
                                             "--chunk-size", "64")
        assert one_pass == fixed
        assert one_pass.count(b"\n") == 700

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_trace(self, corpus, tmp_path, workers):
        one_pass, fixed = annotate_both_ways(corpus, tmp_path, "--workers", workers,
                                             "--trace")
        assert one_pass == fixed
        assert all("rule_trace" in json.loads(line)
                   for line in one_pass.decode().splitlines())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_custom_library(self, corpus, small_library, tmp_path, workers):
        one_pass, fixed = annotate_both_ways(corpus, tmp_path, "--workers", workers,
                                             library=small_library)
        assert one_pass == fixed
        names = set(FGLibrary.from_json(small_library).names())
        for line in one_pass.decode().splitlines():
            assert set(json.loads(line)["fg_names"]) <= names

    def test_empty_library_names_no_group(self, corpus, empty_library, tmp_path):
        """An empty --library is used as given, not swapped for the default
        one, at any worker count."""
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.jsonl"
            assert main(["annotate", "--input", str(corpus), "--output", str(out),
                         "--library", str(empty_library), "--workers", workers,
                         "--chunk-size", "64"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0].decode().splitlines()]
        assert len(rows) == 700
        assert all(r["n_fg"] == 0 and r["fg_names"] == [] for r in rows)

    def test_empty_library_prevalence_has_no_group_rows(self, corpus,
                                                        empty_library, tmp_path):
        prev_dir = tmp_path / "prev"
        assert main(["prevalence", "--input", str(corpus), "--output-dir",
                     str(prev_dir), "--library", str(empty_library)]) == 0
        assert (prev_dir / "prevalence.tsv").read_text() == "# corpus_size=700\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_empty_library_table_reads_back(self, corpus, empty_library,
                                           tmp_path, workers):
        # the table of an empty library has no rows, only its corpus size
        one_pass, fixed = annotate_both_ways(corpus, tmp_path, "--workers", workers,
                                             library=empty_library)
        assert one_pass == fixed
        assert one_pass.count(b"\n") == 700

    def test_worker_counts_and_chunk_sizes_agree(self, corpus):
        pairs = list(iter_input(corpus))
        outputs = set()
        for workers, chunk in ((1, 256), (1, 7), (2, 64), (3, 5)):
            sink = io.StringIO()
            stats = run_annotate(iter(pairs), ComplexityAnnotator(), sink,
                                 workers=workers, chunk_size=chunk)
            assert (stats.written, stats.skipped) == (700, len(MALFORMED))
            outputs.add(sink.getvalue())
        assert len(outputs) == 1

    @pytest.mark.parametrize("fitted", [True, False], ids=["fitted", "unfitted"])
    def test_workers_inherit_custom_library(self, corpus, small_library, fitted):
        """Pool workers use the caller's annotator, library included: the
        library file is not read again once the annotator is built."""
        pairs = list(iter_input(corpus))
        library = FGLibrary.from_json(small_library)
        annotators = {workers: ComplexityAnnotator(library=library)
                      for workers in (1, 2)}
        small_library.unlink()
        outputs = {}
        for workers, annotator in annotators.items():
            if fitted:
                annotator.fit(s for _, s in pairs)
            sink = io.StringIO()
            run_annotate(iter(pairs), annotator, sink, workers=workers,
                         chunk_size=64)
            outputs[workers] = sink.getvalue()
        assert outputs[2] == outputs[1]
        rows = [json.loads(line) for line in outputs[1].splitlines()]
        assert len(rows) == 700
        assert set().union(*(r["fg_names"] for r in rows)) <= set(library.names())

    def test_workers_use_the_tier_flags(self, corpus, tmp_path):
        """Pool workers annotate with the caller's tier parameters, with and
        without a prevalence table."""
        assert main(["prevalence", "--input", str(corpus), "--output-dir",
                     str(tmp_path / "p")]) == 0
        table = ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
        tier_flags = ["--top-k", "3", "--s-threshold", "2", "--fg-low", "1"]

        def annotate(name, *flags):
            out = tmp_path / f"{name}.jsonl"
            assert main(["annotate", "--input", str(corpus), "--output", str(out),
                         "--trace", *flags]) == 0
            return out.read_bytes()

        outputs = {
            annotate(f"w{workers}-{k}", "--workers", workers, *tier_flags, *extra)
            for workers in ("1", "2") for k, extra in enumerate(([], table))
        }
        assert len(outputs) == 1
        assert outputs != {annotate("default", "--workers", "2")}

    @pytest.mark.parametrize("with_table", [False, True])
    def test_config_file_equals_flags(self, corpus, tmp_path, with_table):
        """Every tier parameter, workers and chunk size read from a config
        file give the bytes of the same flags; an on/off key is ignored."""
        values = {"rarity_threshold": "0.5", "top_k": "3", "s_threshold": "2",
                  "ct_per_ha_threshold": "20.5", "min_rings_t3": "2",
                  "fg_low": "1", "fg_mid_lo": "2", "fg_mid_hi": "4",
                  "workers": "2", "chunk_size": "64"}
        config = tmp_path / "run.conf"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                          + "trace = true\n")
        flags = [x for k, v in values.items() for x in ("--" + k.replace("_", "-"), v)]
        table = []
        if with_table:
            assert main(["prevalence", "--input", str(corpus), "--output-dir",
                         str(tmp_path / "p")]) == 0
            table = ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]

        def annotate(name, config_flags, flags):
            out = tmp_path / f"{name}.jsonl"
            assert main([*config_flags, "annotate", "--input", str(corpus),
                         "--output", str(out), *table, *flags]) == 0
            return out.read_bytes()

        from_file = annotate("file", ["--config", str(config)], [])
        assert from_file == annotate("flags", [], flags)
        assert from_file != annotate("default", [], [])
        assert b"rule_trace" not in from_file


class TestDerivedTable:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_equals_fit(self, corpus, workers):
        pairs = list(iter_input(corpus))
        one_pass = ComplexityAnnotator()
        sink = io.StringIO()
        run_annotate(iter(pairs), one_pass, sink, workers=workers, chunk_size=50)
        fitted = ComplexityAnnotator().fit(s for _, s in pairs)
        assert one_pass.prevalence_ == fitted.prevalence_
        assert one_pass.top_groups_ == fitted.top_groups_
        assert (one_pass.n_fitted_, one_pass.n_skipped_) == (
            fitted.n_fitted_, fitted.n_skipped_)
        expected = io.StringIO()
        run_annotate(iter(pairs), fitted, expected)
        assert sink.getvalue() == expected.getvalue()

    def test_nothing_annotatable_raises_before_writing(self):
        sink = io.StringIO()
        with pytest.raises(EmptyCorpus) as raised:
            run_annotate(iter(enumerate(MALFORMED)), ComplexityAnnotator(), sink)
        assert sink.getvalue() == ""
        assert raised.value.skipped == len(MALFORMED)


class TestCli:
    def test_only_malformed_writes_empty_file(self, tmp_path):
        bad = tmp_path / "bad.smi"
        bad.write_text("\n".join(MALFORMED) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["annotate", "--input", str(bad), "--output", str(out),
                     "--workers", "2"]) == 0
        assert out.read_text() == ""

    def test_only_malformed_replaces_existing_file(self, tmp_path):
        bad = tmp_path / "bad.smi"
        bad.write_text("\n".join(MALFORMED) + "\n")
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n")
        assert main(["annotate", "--input", str(bad), "--output", str(out)]) == 0
        assert out.read_text() == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fixed_table", [False, True])
    def test_only_malformed_reports_its_skips(self, corpus, tmp_path, capsys,
                                              workers, fixed_table):
        # with a table or fitting one, a file with nothing to annotate
        # succeeds with an empty output and the usual line, skips counted
        bad = tmp_path / "bad.smi"
        bad.write_text("C1CC\nX\n")
        flags = ["--workers", workers]
        if fixed_table:
            assert main(["prevalence", "--input", str(corpus),
                         "--output-dir", str(tmp_path / "p")]) == 0
            flags += ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
        out = tmp_path / "out.jsonl"
        assert main(["annotate", "--input", str(bad), "--output", str(out),
                     *flags]) == 0
        assert out.read_text() == ""
        assert "annotated 0 molecules (skipped 2 malformed)" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fixed_table", [False, True])
    def test_heavy_atom_free_line_is_skipped(self, tmp_path, capsys, workers,
                                             fixed_table):
        corpus = tmp_path / "h2.smi"
        corpus.write_text("CCO\n[H][H]\nc1ccccc1O\n")
        flags = ["--workers", workers]
        if fixed_table:
            assert main(["prevalence", "--input", str(corpus),
                         "--output-dir", str(tmp_path / "p")]) == 0
            table = (tmp_path / "p" / "prevalence.tsv").read_text()
            assert table.startswith("# corpus_size=2\n")
            flags += ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
        out = tmp_path / "out.jsonl"
        assert main(["annotate", "--input", str(corpus), "--output", str(out),
                     *flags]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == [0, 2]
        assert "annotated 2 molecules (skipped 1 malformed)" in capsys.readouterr().err


class TestMismatchedTable:
    """A table without a library group is a data error, found before any
    output is written."""

    @pytest.fixture()
    def table_without_amide(self, corpus, tmp_path):
        assert main(["prevalence", "--input", str(corpus), "--output-dir",
                     str(tmp_path / "p")]) == 0
        path = tmp_path / "p" / "prevalence.tsv"
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(r for r in rows if not r.startswith("amide\t")))
        return path

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cli_exits_2_without_output(self, corpus, tmp_path, capsys,
                                        table_without_amide, workers):
        out = tmp_path / "out.jsonl"
        assert main(["annotate", "--input", str(corpus), "--output", str(out),
                     "--prevalence", str(table_without_amide),
                     "--workers", workers]) == 2
        assert not out.exists()
        assert list(tmp_path.glob(".out.jsonl*")) == []
        assert "amide" in capsys.readouterr().err

    def test_set_prevalence_names_missing_groups(self):
        table = ComplexityAnnotator().fit(["CC(=O)NC", "CCO"]).prevalence_
        del table.prevalence["amide"]
        del table.prevalence["urea"]
        with pytest.raises(PrevalenceMismatch, match="amide, urea"):
            ComplexityAnnotator().set_prevalence(table)

    def test_set_prevalence_names_groups_outside_library(self):
        table = ComplexityAnnotator().fit(["CC(=O)NC", "CCO"]).prevalence_
        table.prevalence["zz_made_up"] = 0.5
        table.prevalence["aa_made_up"] = 0.0
        with pytest.raises(PrevalenceMismatch,
                           match="has 2 group[(]s[)] outside the library: "
                                 "aa_made_up, zz_made_up$"):
            ComplexityAnnotator().set_prevalence(table)


@pytest.mark.parametrize("with_table", [False, True])
def test_caller_runs_every_third_chunk_at_three_workers(corpus, tmp_path,
                                                        monkeypatch, with_table):
    """At three workers the caller describes and finishes exactly the
    molecules of chunks k = 2 (mod 3), the forked workers all others, and
    the bytes are those of an in-process run."""
    table = []
    if with_table:
        assert main(["prevalence", "--input", str(corpus), "--output-dir",
                     str(tmp_path / "p")]) == 0
        table = ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
    expected = tmp_path / "expected.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(expected),
                 "--workers", "1", *table]) == 0
    caller_ids = {mol_id for k, chunk in enumerate(chunked(iter_input(corpus), 64))
                  if k % 3 == 2 for mol_id, _ in chunk}
    written = [json.loads(line)["id"] for line in expected.read_text().splitlines()]
    caller_records = sum(mol_id in caller_ids for mol_id in written)
    parent = os.getpid()
    calls = {"describe": 0, "finish": 0}

    def counted(name):
        real = getattr(ComplexityAnnotator, name)

        def wrapper(self, arg):
            if os.getpid() == parent:
                calls[name] += 1
            return real(self, arg)
        monkeypatch.setattr(ComplexityAnnotator, name, wrapper)

    counted("describe")
    counted("finish")
    out = tmp_path / "out.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(out),
                 "--workers", "3", "--chunk-size", "64", *table]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert calls == {"describe": len(caller_ids), "finish": caller_records}
    assert 0 < caller_records < len(written) / 2


# chunks the input iterator of the mapper test has handed out so far
_READ: list[int] = []


def _chunk_pid_and_read(chunk, annotator):
    return chunk, os.getpid(), len(_READ)


@pytest.mark.parametrize("workers", [2, 3])
def test_chunk_mapper_order_process_and_read_ahead(workers):
    """Results come back in chunk order; chunk k runs in the caller exactly
    when k % workers == workers - 1, once the pool holds the next round of
    chunks too, and the rest in at most workers - 1 forked processes; the
    input is read at most 2 * workers chunks ahead of the last yielded
    result."""
    n = 20
    _READ.clear()

    def chunks():
        for k in range(n):
            _READ.append(k)
            yield k

    yielded, pool_pids, ahead = [], set(), []
    with _chunk_mapper(ComplexityAnnotator(), workers) as map_chunks:
        for k, pid, read in map_chunks(_chunk_pid_and_read, chunks()):
            ahead.append(len(_READ) - len(yielded))
            yielded.append(k)
            if k % workers == workers - 1:
                assert pid == os.getpid(), k
                assert read == min(k + workers, n), k
            else:
                assert pid != os.getpid(), k
                pool_pids.add(pid)
    assert yielded == list(range(n))
    assert 1 <= len(pool_pids) <= workers - 1
    assert max(ahead) == 2 * workers


def _pid_or_raise(chunk, annotator):
    k, raised = chunk
    if raised == "ValueError":
        raise ValueError(f"chunk {k}")
    if raised == "unpicklable":
        raise ValueError(lambda: k)
    return os.getpid()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("where, raised, expected", [
    ("worker", "ValueError", ValueError),
    ("worker", "unpicklable", RuntimeError),
    ("caller", "ValueError", ValueError),
])
def test_chunk_mapper_raises_a_chunks_exception_and_reaps(workers, where, raised,
                                                          expected):
    """An exception raised in a chunk reaches the caller as itself, or as a
    RuntimeError carrying its repr when it cannot be pickled, and no forked
    worker outlives the block."""
    bad = 2 * workers + (workers - 1 if where == "caller" else 0)
    chunks = [(k, raised if k == bad else None) for k in range(4 * workers)]
    pids = set()
    with pytest.raises(expected) as info:
        with _chunk_mapper(ComplexityAnnotator(), workers) as map_chunks:
            for pid in map_chunks(_pid_or_raise, chunks):
                pids.add(pid)
    assert (f"chunk {bad}" if raised == "ValueError"
            else "ValueError(<function") in str(info.value)
    forked = pids - {os.getpid()}
    assert len(forked) == workers - 1
    for pid in forked:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# Runs `moltiers` with ComplexityAnnotator.describe patched so that each
# pool worker exits at its n-th call, n the first argument; forked workers
# inherit the patch.
DYING_WORKER = """
import os, sys
from moltiers.cli import main
from moltiers.featurizer import ComplexityAnnotator

parent = os.getpid()
die_at = int(sys.argv[1])
describe = ComplexityAnnotator.describe
calls = 0

def dying(self, smiles):
    global calls
    if os.getpid() != parent:
        calls += 1
        if calls == die_at:
            os._exit(9)
    return describe(self, smiles)

ComplexityAnnotator.describe = dying
sys.exit(main(sys.argv[2:]))
"""


def child_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    import moltiers

    src = str(Path(moltiers.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_in_session(argv: list[str], timeout_s: float) -> tuple[int, str]:
    """(exit code, stderr) of ``python argv`` run in a session of its own;
    a run still going after ``timeout_s`` fails the test, and so does any
    process left in the session once the run has exited."""
    proc = subprocess.Popen(
        [sys.executable, *argv], env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"annotate still running after {timeout_s} s")
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return proc.returncode, err
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a process outlived annotate in its session")


@pytest.fixture(scope="module")
def large_corpus(tmp_path_factory):
    """12,000 molecules, their prevalence table and their --workers 1
    output; a chunk of 3,000 of them pickles to more than a pipe holds."""
    root = tmp_path_factory.mktemp("large")
    corpus = root / "corpus.smi"
    corpus.write_text("\n".join(generate_corpus(12000, seed=3)) + "\n")
    assert main(["prevalence", "--input", str(corpus), "--output-dir",
                 str(root / "p")]) == 0
    assert main(["annotate", "--input", str(corpus), "--output",
                 str(root / "w1.jsonl"), "--workers", "1"]) == 0
    return corpus, root / "p" / "prevalence.tsv", (root / "w1.jsonl").read_bytes()


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("workers, chunk_size", [(2, 3000), (3, 5000)])
def test_large_chunks_do_not_deadlock(large_corpus, tmp_path, workers,
                                      chunk_size, with_table):
    """Task and result frames larger than a pipe holds: the caller must not
    block on a full task pipe while the worker blocks on a full result
    pipe.  Run in a child interpreter, so a deadlock fails by timing out."""
    corpus, table, expected = large_corpus
    out = tmp_path / "out.jsonl"
    argv = ["-m", "moltiers.cli", "annotate", "--input", str(corpus),
            "--output", str(out), "--workers", str(workers),
            "--chunk-size", str(chunk_size)]
    if with_table:
        argv += ["--prevalence", str(table)]
    code, err = run_in_session(argv, timeout_s=120)
    assert code == 0, err
    assert out.read_bytes() == expected


class TestDeadWorker:
    """A pool worker that dies ends the run with exit 2 and no output, and
    leaves no process behind.

    The run happens in a child interpreter, so a pool that waits forever
    fails the test by timing out instead of hanging the suite.
    """

    TIMEOUT_S = 60

    def annotate(self, die_at: int, argv: list[str]) -> tuple[int, str]:
        return run_in_session(["-c", DYING_WORKER, str(die_at), *argv],
                              self.TIMEOUT_S)

    @pytest.mark.parametrize("with_table", [False, True])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_exits_2_and_leaves_destination(self, tmp_path, workers,
                                            with_table):
        corpus = tmp_path / "corpus.smi"
        corpus.write_text("\n".join(generate_corpus(3000, seed=12)) + "\n")
        table = []
        if with_table:
            assert main(["prevalence", "--input", str(corpus), "--output-dir",
                         str(tmp_path / "p")]) == 0
            table = ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
        out = tmp_path / "out.jsonl"
        argv = ["annotate", "--input", str(corpus), "--output", str(out),
                "--workers", str(workers), *table]
        code, err = self.annotate(300, argv)
        assert code == 2, err
        assert "worker process died" in err
        assert not out.exists()
        out.write_text("earlier output\n")
        assert self.annotate(300, argv)[0] == 2
        assert out.read_text() == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.smi", "out.jsonl"] + (["p"] if with_table else []))

    @pytest.mark.parametrize("with_table", [False, True])
    def test_task_write_to_dead_worker(self, large_corpus, tmp_path,
                                       with_table):
        """The worker dies at its first describe call, inside chunk 0, so
        the caller's write of chunk 2, larger than a pipe holds, meets a
        broken pipe."""
        corpus, table, _ = large_corpus
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n")
        argv = ["annotate", "--input", str(corpus), "--output", str(out),
                "--workers", "2", "--chunk-size", "3000"]
        if with_table:
            argv += ["--prevalence", str(table)]
        code, err = self.annotate(1, argv)
        assert code == 2, err
        assert "lost chunk 0 " in err
        assert out.read_text() == "earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestNoPartialOutput:
    """A failed annotate run leaves the destination as it found it."""

    @pytest.fixture()
    def fail_after_100(self, monkeypatch):
        finish = ComplexityAnnotator.finish
        calls = []

        def failing(self, core):
            calls.append(core)
            if len(calls) > 100:
                raise MoltiersError("injected failure")
            return finish(self, core)

        monkeypatch.setattr(ComplexityAnnotator, "finish", failing)
        return calls

    def test_no_new_destination(self, corpus, tmp_path, fail_after_100):
        out = tmp_path / "out.jsonl"
        assert main(["annotate", "--input", str(corpus), "--output",
                     str(out)]) == 2
        assert len(fail_after_100) == 101
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.smi"]

    def test_existing_destination_untouched(self, corpus, tmp_path,
                                            fail_after_100):
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n")
        assert main(["annotate", "--input", str(corpus), "--output",
                     str(out)]) == 2
        assert out.read_text() == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.smi", "out.jsonl"]

    def test_success_replaces_destination(self, corpus, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n")
        assert main(["annotate", "--input", str(corpus), "--output",
                     str(out)]) == 0
        assert out.read_text().count("\n") == 700
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.smi", "out.jsonl"]


def test_cli_import_leaves_numpy_unloaded():
    code = ("import sys, moltiers.cli; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "from moltiers import nt_xent, LinearMap; "
            "assert 'numpy' in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_cli_import_loads_no_smiles_or_descriptor_module():
    # schedule and stats run on what `import moltiers.cli` loads
    code = ("import sys, moltiers.cli; "
            "loaded = sorted(m for m in ('moltiers.smiles', 'moltiers.graph', "
            "'moltiers.descriptors', 'moltiers.featurizer', 'moltiers.pipeline') "
            "if m in sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_annotate_imports_load_no_scheduler():
    # annotate and prevalence run on what these imports load
    code = ("import sys, moltiers.cli, moltiers.pipeline; "
            "loaded = sorted(m for m in ('moltiers.scheduler', 'fractions') "
            "if m in sys.modules); "
            "assert not loaded, loaded; "
            "from moltiers.scheduler import REGIMES; "
            "from moltiers.tiering import REGIMES as named; "
            "assert REGIMES is named")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_annotate_with_workers_loads_no_multiprocessing(corpus, tmp_path):
    # the forked workers leave through os._exit, so only the caller asserts
    code = ("import sys; from moltiers.cli import main; "
            "assert main(sys.argv[1:]) == 0; "
            "loaded = sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code, "annotate", "--input", str(corpus),
                    "--output", str(tmp_path / "out.jsonl"), "--workers", "2"],
                   check=True, env=child_env())


def _command_argv(command: list[str], corpus: Path, tmp_path: Path) -> list[str]:
    """``command`` with its input and output options: annotate and
    prevalence read ``corpus``, schedule and stats a 50-record file."""
    if command[0] == "annotate":
        return [*command, "--input", str(corpus), "--output",
                str(tmp_path / "out.jsonl")]
    if command[0] == "prevalence":
        return ["prevalence", "--input", str(corpus), "--output-dir",
                str(tmp_path / "p")]
    annotated = tmp_path / "annotated.jsonl"
    annotated.write_text("".join(
        f'{{"id":{i},"tier":"T{i % 5}","mw":{i}.5,"bertz_ct":{2 * i},"n_ring":1}}\n'
        for i in range(50)))
    if command[0] == "stats":
        return ["stats", "--annotated", str(annotated)]
    return ["schedule", "--annotated", str(annotated), "--regime", "mixed",
            "--output-dir", str(tmp_path / "s")]


def _assert_child_loads_none(argv: list[str], modules: tuple[str, ...]) -> None:
    """Run ``main(argv)`` in a child interpreter, which fails unless it
    returns 0 with none of ``modules`` imported."""
    code = ("import sys; from moltiers.cli import main; "
            "assert main(sys.argv[2:]) == 0; "
            "loaded = sorted(m for m in sys.argv[1].split(',') "
            "if m in sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code, ",".join(modules), *argv],
                   check=True, env=child_env())


@pytest.mark.parametrize("command", [
    ["annotate", "--workers", "1"], ["annotate", "--workers", "2"],
    ["prevalence"], ["schedule"]], ids=["annotate-1", "annotate-2",
                                        "prevalence", "schedule"])
def test_commands_load_no_dataclasses_or_inspect(command, corpus, tmp_path):
    # records, results and configs are named tuples or plain classes:
    # dataclasses would load inspect, ast, dis and tokenize at start-up
    _assert_child_loads_none(_command_argv(command, corpus, tmp_path),
                             ("dataclasses", "inspect"))


@pytest.mark.parametrize("command", [
    ["annotate", "--workers", "1"], ["annotate", "--workers", "2"],
    ["prevalence"], ["schedule"], ["stats"]],
    ids=["annotate-1", "annotate-2", "prevalence", "schedule", "stats"])
def test_commands_load_no_logging_or_csv(command, corpus, tmp_path):
    # the CLI writes its own stderr lines: logging would load traceback,
    # linecache, tokenize, textwrap and string; only delimited input
    # loads csv
    _assert_child_loads_none(_command_argv(command, corpus, tmp_path),
                             ("logging", "csv"))


def test_delimited_input_annotates_without_logging(corpus, tmp_path):
    rows = corpus.read_text().split()
    table = tmp_path / "corpus.csv"
    table.write_text("smiles\n" + "".join(f"{row}\n" for row in rows))
    argv = _command_argv(["annotate"], table, tmp_path)
    _assert_child_loads_none(argv, ("logging",))
    assert main(["annotate", "--input", str(corpus), "--output",
                 str(tmp_path / "smi.jsonl")]) == 0
    assert (tmp_path / "out.jsonl").read_bytes() == \
        (tmp_path / "smi.jsonl").read_bytes()


@pytest.mark.parametrize("stderr", ["closed", "broken-pipe"])
def test_annotate_succeeds_without_a_working_stderr(corpus, tmp_path, stderr):
    """Its INFO lines are lost, not the run: a closed fd 2 leaves
    ``sys.stderr`` None, and a write to a pipe nobody reads fails with
    EPIPE."""
    assert main(["annotate", "--input", str(corpus), "--output",
                 str(tmp_path / "expected.jsonl")]) == 0
    out = tmp_path / "out.jsonl"
    argv = [sys.executable, "-m", "moltiers.cli", "annotate", "--input",
            str(corpus), "--output", str(out), "--workers", "2"]
    if stderr == "closed":
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *argv],
                              env=child_env())
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, env=child_env(), stderr=write_end)
        finally:
            os.close(write_end)
    assert proc.returncode == 0
    assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_every_public_name_resolves():
    import moltiers

    code = ("import moltiers; from moltiers import *; "
            "missing = [n for n in moltiers.__all__ if n not in globals()]; "
            "assert not missing, missing")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())
    for name in moltiers.__all__:
        assert getattr(moltiers, name) is not None, name
    assert set(moltiers.__all__) <= set(dir(moltiers))
    with pytest.raises(AttributeError):
        getattr(moltiers, "no_such_name")


def perfbench_imports() -> list[tuple[str, str, str, set[str]]]:
    """(file:line, module, name, attributes the file reads off that name)
    for every ``from moltiers... import name`` in perfbench, in a function
    body or at module level."""
    found = []
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        attributes: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                attributes.setdefault(node.value.id, set()).add(node.attr)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "moltiers"):
                for alias in node.names:
                    found.append((f"{path.name}:{node.lineno}", node.module,
                                  alias.name,
                                  attributes.get(alias.asname or alias.name, set())))
    return found


def test_every_name_perfbench_imports_resolves():
    """perfbench is frozen between benchmark changes: each package name it
    imports, and each attribute it reads off one (``TierIndex.from_pairs``),
    must still exist."""
    imports = perfbench_imports()
    found = {(where.split(":")[0], module, name)
             for where, module, name, _ in imports}
    # these two are imported only inside function bodies
    assert ("workloads.py", "moltiers.pipeline", "dumps_record") in found
    assert ("test_harness.py", "moltiers.scheduler", "TierIndex") in found
    missing = []
    for where, module, name, attributes in imports:
        namespace = importlib.import_module(module)
        if not hasattr(namespace, name):
            missing.append(f"{where}: {module}.{name}")
            continue
        value = getattr(namespace, name)
        missing += [f"{where}: {module}.{name}.{attr}" for attr in sorted(attributes)
                    if not hasattr(value, attr)]
    assert not missing, missing


def test_graph_counts_perfbench_reads_allocate_nothing():
    """perfbench's traced probe counts ``len(graph.atoms)`` and
    ``len(graph.bonds)`` on each graph the annotator describes: they are
    the graph's own per-atom and per-bond lists, read without building
    anything, on parsed and on aromaticity-promoted graphs alike."""
    import moltiers
    from moltiers.graph import perceive_aromaticity
    from moltiers.smiles import parse_smiles

    assert "Atom" not in moltiers.__all__
    assert "Bond" not in moltiers.__all__

    def shim(g):
        return len(g.atoms), len(g.bonds)

    def arrays(g):
        return len(g.elements), len(g.ends)

    def grown(read, graphs):
        """Bytes held after, and at most during, ``read`` of each graph,
        beyond what the same loop over the arrays holds."""
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        for g in graphs:
            read(g)
        current, peak = tracemalloc.get_traced_memory()
        return current - before, peak - before

    texts = ["[H]", "CC(=O)[O-].[Na+]", "C1=CC=CC=C1O", "[nH]1cccc1"]
    shim(parse_smiles("C")), arrays(parse_smiles("C"))  # first calls
    tracemalloc.start()
    try:
        parsed = [parse_smiles(text) for text in texts]
        graphs = parsed + [perceive_aromaticity(g) for g in parsed]
        assert graphs[6] is not parsed[2]  # the Kekulé ring was promoted
        # the first read of each graph: nothing is built on first access
        assert grown(shim, graphs) == grown(arrays, graphs)
    finally:
        tracemalloc.stop()
    assert [shim(g) for g in graphs] == [arrays(g) for g in graphs]
    assert [shim(g) for g in parsed] == [(1, 0), (5, 3), (7, 7), (5, 5)]


@pytest.fixture()
def parse_calls(monkeypatch):
    """The texts passed to parse_smiles in this process, in call order."""
    import moltiers.smiles

    real = moltiers.smiles.parse_smiles
    calls = []

    def counting(text):
        calls.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("moltiers") and \
                getattr(module, "parse_smiles", None) is real:
            monkeypatch.setattr(module, "parse_smiles", counting)
    return calls


def test_one_pass_parses_each_line_once(corpus, tmp_path, parse_calls):
    """Annotating without a table must not re-parse the corpus."""
    out = tmp_path / "out.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(out),
                 "--workers", "1"]) == 0
    assert len(parse_calls) == len(list(iter_input(corpus)))


@pytest.mark.parametrize("bad", [["--fg-low", "9"], ["--top-k", "0"]])
@pytest.mark.parametrize("command", ["prevalence", "annotate", "annotate-prevalence"])
def test_invalid_tier_flags_fail_before_reading(command, bad, corpus, tmp_path,
                                                parse_calls):
    """Invalid thresholds are a data error before the first parse, and
    nothing is written."""
    assert main(["prevalence", "--input", str(corpus), "--output-dir",
                 str(tmp_path / "p")]) == 0
    del parse_calls[:]
    dest = tmp_path / "dest"
    argv = {
        "prevalence": ["prevalence", "--output-dir", str(dest)],
        "annotate": ["annotate", "--output", str(dest / "out.jsonl")],
        "annotate-prevalence": ["annotate", "--output", str(dest / "out.jsonl"),
                                "--prevalence", str(tmp_path / "p" / "prevalence.tsv")],
    }[command]
    assert main([*argv, "--input", str(corpus), *bad]) == 2
    assert parse_calls == []
    assert not dest.exists()


@pytest.mark.parametrize("run", ["fit", "one_pass"])
def test_invalid_tier_params_fail_before_reading(run, corpus, parse_calls):
    annotator = ComplexityAnnotator(fg_low=9)
    pairs = list(iter_input(corpus))
    sink = io.StringIO()
    with pytest.raises(ValueError, match="fg_low"):
        if run == "fit":
            annotator.fit(s for _, s in pairs)
        else:
            run_annotate(iter(pairs), annotator, sink)
    assert parse_calls == []
    assert sink.getvalue() == ""
