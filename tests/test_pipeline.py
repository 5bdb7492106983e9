"""The one-pass annotate run (no prevalence table given).

It must write exactly what ``prevalence`` followed by ``annotate
--prevalence`` writes, derive the same table as ``fit``, and describe each
input molecule once.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from moltiers.cli import main
from moltiers.errors import EmptyCorpus, MoltiersError, PrevalenceMismatch
from moltiers.featurizer import ComplexityAnnotator
from moltiers.fgroups import FGLibrary
from moltiers.pipeline import iter_input, run_annotate
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
    def test_custom_library_needs_path_for_workers(self, corpus, small_library,
                                                   fitted):
        annotator = ComplexityAnnotator(library=FGLibrary.from_json(small_library))
        if fitted:
            annotator.fit(s for _, s in iter_input(corpus))
        sink = io.StringIO()
        with pytest.raises(ValueError, match="library_path"):
            run_annotate(iter_input(corpus), annotator, sink, workers=2)
        assert sink.getvalue() == ""

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
        with pytest.raises(EmptyCorpus):
            run_annotate(iter(enumerate(MALFORMED)), ComplexityAnnotator(), sink)
        assert sink.getvalue() == ""


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
    def test_heavy_atom_free_line_is_skipped(self, tmp_path, caplog, workers,
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
        with caplog.at_level("INFO", logger="moltiers"):
            assert main(["annotate", "--input", str(corpus), "--output", str(out),
                         *flags]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == [0, 2]
        assert "annotated 2 molecules (skipped 1 malformed)" in caplog.text


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
    def test_cli_exits_2_without_output(self, corpus, tmp_path, caplog,
                                        table_without_amide, workers):
        out = tmp_path / "out.jsonl"
        assert main(["annotate", "--input", str(corpus), "--output", str(out),
                     "--prevalence", str(table_without_amide),
                     "--workers", workers]) == 2
        assert not out.exists()
        assert list(tmp_path.glob(".out.jsonl*")) == []
        assert "amide" in caplog.text

    def test_set_prevalence_names_missing_groups(self):
        table = ComplexityAnnotator().fit(["CC(=O)NC", "CCO"]).prevalence_
        del table.prevalence["amide"]
        del table.prevalence["urea"]
        with pytest.raises(PrevalenceMismatch, match="amide, urea"):
            ComplexityAnnotator().set_prevalence(table)


@pytest.mark.parametrize("with_table", [False, True])
def test_parent_never_finishes_at_two_workers(corpus, tmp_path, monkeypatch,
                                              with_table):
    """With a pool, every record is finished in a worker, never in the
    parent, and the bytes are those of an in-process run."""
    table = []
    if with_table:
        assert main(["prevalence", "--input", str(corpus), "--output-dir",
                     str(tmp_path / "p")]) == 0
        table = ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
    expected = tmp_path / "expected.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(expected),
                 "--workers", "1", *table]) == 0
    parent = os.getpid()
    finish = ComplexityAnnotator.finish

    def workers_only(self, core):
        assert os.getpid() != parent, "finish called in the parent process"
        return finish(self, core)

    monkeypatch.setattr(ComplexityAnnotator, "finish", workers_only)
    out = tmp_path / "out.jsonl"
    assert main(["annotate", "--input", str(corpus), "--output", str(out),
                 "--workers", "2", "--chunk-size", "64", *table]) == 0
    assert out.read_bytes() == expected.read_bytes()


# Runs `moltiers` with ComplexityAnnotator.describe patched so that each
# pool worker exits at its 300th call; forked workers inherit the patch.
DYING_WORKER = """
import os, sys
from moltiers.cli import main
from moltiers.featurizer import ComplexityAnnotator

parent = os.getpid()
describe = ComplexityAnnotator.describe
calls = 0

def dying(self, smiles):
    global calls
    if os.getpid() != parent:
        calls += 1
        if calls == 300:
            os._exit(9)
    return describe(self, smiles)

ComplexityAnnotator.describe = dying
sys.exit(main(sys.argv[1:]))
"""


def child_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    import moltiers

    src = str(Path(moltiers.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


class TestDeadWorker:
    """A pool worker that dies ends the run with exit 2 and no output.

    The run happens in a child interpreter, so a pool that waits forever
    fails the test by timing out instead of hanging the suite.
    """

    TIMEOUT_S = 60

    def annotate(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-c", DYING_WORKER, *argv], env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"annotate still running after {self.TIMEOUT_S} s")
        return proc.returncode, err

    @pytest.mark.parametrize("with_table", [False, True])
    def test_exits_2_and_leaves_destination(self, tmp_path, with_table):
        corpus = tmp_path / "corpus.smi"
        corpus.write_text("\n".join(generate_corpus(3000, seed=12)) + "\n")
        table = []
        if with_table:
            assert main(["prevalence", "--input", str(corpus), "--output-dir",
                         str(tmp_path / "p")]) == 0
            table = ["--prevalence", str(tmp_path / "p" / "prevalence.tsv")]
        out = tmp_path / "out.jsonl"
        argv = ["annotate", "--input", str(corpus), "--output", str(out),
                "--workers", "2", *table]
        code, err = self.annotate(argv)
        assert code == 2, err
        assert "worker process died" in err
        assert not out.exists()
        out.write_text("earlier output\n")
        assert self.annotate(argv)[0] == 2
        assert out.read_text() == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.smi", "out.jsonl"] + (["p"] if with_table else []))


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
