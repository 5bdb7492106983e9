from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moltiers.cli as cli_module
import moltiers.fgroups as fgroups_module
import moltiers.pipeline as pipeline_module
from moltiers.cli import main
from moltiers.errors import EmptyCorpus, MalformedLine, MissingTierField
from moltiers.featurizer import ComplexityAnnotator
from moltiers.fgroups import PrevalenceTable
from moltiers.pipeline import (
    iter_input,
    load_prevalence,
    run_annotate,
    write_prevalence,
)
from moltiers.synth import generate_corpus

# stdout and schedule_summary.json of `schedule --tier-counts <paper counts>`
# for every regime at two hard starts plus a 7-epoch mixed run, as written
# before the per-epoch budget moved into scheduler.epoch_views
SCHEDULE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "schedule_golden.json").read_text()
)


# SHA-256 of the ten manifests, concatenated in epoch order, of
# `schedule --regime mixed --seed 3` on write_tier_records' file, as the
# per-id draw and json.dumps writer produced them
MIXED_SEED3_MANIFEST_SHA256 = (
    "2aa2feb54fde608df7008032129572b70e921e5bcd8bb12e618a480b80ce4141")


def write_tier_records(path: Path, n: int = 3000) -> None:
    """An annotated file that depends on no descriptor: ids with gaps,
    negative ids and ids above 2**64, in shuffled order, each with a tier
    from a fixed integer rule."""
    lines = []
    for k in range(n):
        mol_id = (k * 3 - 1000) if k % 10 else 2**64 + k
        tier = (k * 2654435761 >> 7) % 5
        lines.append((k * 7919 % n, json.dumps({"id": mol_id, "tier": f"T{tier}"})))
    path.write_text("".join(line + "\n" for _, line in sorted(lines)))


class FailsAtClose:
    """A file that takes every write, then fails when it is closed, as a
    full disk often shows first when a buffer is flushed at close."""

    def __init__(self, fh):
        self.fh = fh
        self.write = fh.write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        raise OSError(28, "No space left on device")


def fail_at_close(monkeypatch, name: str) -> None:
    """Make each file the CLI opens whose path holds ``name`` fail when it
    is closed."""
    real_open = open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FailsAtClose(fh) if name in str(path) else fh

    monkeypatch.setattr(cli_module, "open", failing_open, raising=False)


@pytest.fixture()
def smi_file(tmp_path):
    path = tmp_path / "corpus.smi"
    lines = ["CCO", "CC(=O)O", "c1ccccc1", "((bad", "Clc1ccccc1"]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("name,smiles\nethanol,CCO\nbenzene,c1ccccc1\nblank,\n")
    return path


class TestInputReaders:
    def test_smi(self, smi_file):
        rows = list(iter_input(smi_file))
        assert rows == [(0, "CCO"), (1, "CC(=O)O"), (2, "c1ccccc1"),
                        (3, "((bad"), (4, "Clc1ccccc1")]

    def test_smi_takes_first_token(self, tmp_path):
        path = tmp_path / "named.smi"
        path.write_text("CCO ethanol\nc1ccccc1 benzene\n")
        assert [s for _, s in iter_input(path)] == ["CCO", "c1ccccc1"]

    def test_csv_column(self, csv_file):
        rows = list(iter_input(csv_file))
        assert rows == [(0, "CCO"), (1, "c1ccccc1")]

    def test_tsv(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("smiles\tname\nCCO\tethanol\n")
        assert list(iter_input(path)) == [(0, "CCO")]

    @pytest.mark.parametrize("name, delimiter", [("corpus.TSV", "\t"),
                                                 ("corpus.Tsv", "\t"),
                                                 ("corpus.CSV", ",")])
    def test_upper_case_suffix_picks_its_delimiter(self, tmp_path, name,
                                                    delimiter):
        # the suffix, in any case, decides both the format and the
        # delimiter; the other delimiter appears inside a field
        other = "," if delimiter == "\t" else "\t"
        path = tmp_path / name
        path.write_text(f"name{delimiter}smiles\n"
                        f"ethanol{other} absolute{delimiter}CCO\n")
        assert list(iter_input(path)) == [(0, "CCO")]

    def test_smi_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.smi"
        path.write_text("\ufeffCCO\nCCN\n", encoding="utf-8")
        assert list(iter_input(path)) == [(0, "CCO"), (1, "CCN")]

    def test_csv_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffsmiles,name\nCCO,ethanol\n", encoding="utf-8")
        assert list(iter_input(path)) == [(0, "CCO")]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MissingTierField, match="no 'smiles' column"):
            list(iter_input(path))

    @pytest.mark.parametrize("name, fmt", [("empty.csv", "auto"),
                                           ("empty.tsv", "delimited")])
    def test_empty_delimited_file_yields_nothing(self, tmp_path, name, fmt):
        # no header, so no column to look for and no row
        path = tmp_path / name
        path.write_text("")
        assert list(iter_input(path, fmt)) == []

    def test_unknown_format_rejected(self, smi_file):
        with pytest.raises(ValueError, match="unknown input format 'sdf'"):
            list(iter_input(smi_file, "sdf"))


class TestPrevalenceIO:
    def test_round_trip(self, tmp_path):
        annotator = ComplexityAnnotator().fit(["CC(=O)O", "CCO", "CCCCCC"])
        path = tmp_path / "prev.tsv"
        with open(path, "w", encoding="utf-8") as out:
            write_prevalence(annotator.prevalence_, out)
        table = load_prevalence(path)
        assert table.corpus_size == 3
        assert table.prevalence == annotator.prevalence_.prevalence

    def test_table_without_rows_needs_its_corpus_size(self, smi_file, tmp_path,
                                                     capsys):
        # the table an empty library fits: read back, but a data error for
        # a library with groups; a file with neither part is no table
        table = tmp_path / "rows_none.tsv"
        table.write_text("# corpus_size=5\n")
        assert load_prevalence(table) == PrevalenceTable({}, 5)
        out = tmp_path / "out" / "annotated.jsonl"
        assert main(["annotate", "--input", str(smi_file), "--output", str(out),
                     "--prevalence", str(table)]) == 2
        assert "lacks 31 library group(s)" in capsys.readouterr().err
        assert not out.parent.exists()
        blank = tmp_path / "blank.tsv"
        blank.write_text("# fitted elsewhere\n\n")
        with pytest.raises(EmptyCorpus):
            load_prevalence(blank)
        assert main(["annotate", "--input", str(smi_file), "--output", str(out),
                     "--prevalence", str(blank)]) == 2
        assert not out.parent.exists()

    @pytest.mark.parametrize("line", [
        "hydroxyl\tnan", "hydroxyl\tinf", "hydroxyl\t1.5", "hydroxyl\t-0.25",
        "hydroxyl 0.5", "hydroxyl\t0.5\t0.5", "# corpus_size=many",
        "# corpus_size=-3",
    ], ids=["nan", "inf", "above-1", "negative", "no-tab", "three-fields",
            "corpus-size", "negative-corpus-size"])
    def test_corrupt_line_is_data_error_before_output(self, smi_file, tmp_path,
                                                      capsys, line):
        assert main(["prevalence", "--input", str(smi_file), "--output-dir",
                     str(tmp_path / "p")]) == 0
        table = tmp_path / "p" / "prevalence.tsv"
        rows = table.read_text().splitlines()
        key = "# corpus_size=" if line.startswith("#") else "hydroxyl\t"
        at = next(i for i, row in enumerate(rows) if row.startswith(key))
        rows[at] = line
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out" / "annotated.jsonl"
        assert main(["annotate", "--input", str(smi_file), "--output", str(out),
                     "--prevalence", str(table)]) == 2
        assert f"{table}:{at + 1}: {line!r} is not name<TAB>prevalence in " \
            "[0, 1] or # corpus_size=<count>" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_repeated_row_is_data_error_before_output(self, smi_file, tmp_path,
                                                      capsys):
        assert main(["prevalence", "--input", str(smi_file), "--output-dir",
                     str(tmp_path / "p")]) == 0
        table = tmp_path / "p" / "prevalence.tsv"
        rows = table.read_text().splitlines()
        n = len(rows) + 1
        table.write_text("\n".join(rows + ["hydroxyl\t0.25"]) + "\n")
        out = tmp_path / "out" / "annotated.jsonl"
        assert main(["annotate", "--input", str(smi_file), "--output", str(out),
                     "--prevalence", str(table)]) == 2
        assert (f"{table}:{n}: group 'hydroxyl' appears twice"
                in capsys.readouterr().err)
        assert not out.parent.exists()

    def test_second_corpus_size_line_is_data_error_before_output(
            self, smi_file, tmp_path, capsys):
        # a second corpus_size line would silently replace the first
        two = tmp_path / "two.tsv"
        two.write_text("# corpus_size=10\n# corpus_size=99\n")
        with pytest.raises(MalformedLine, match=f"{two}:2: a second corpus_size line"):
            load_prevalence(two)
        assert main(["prevalence", "--input", str(smi_file), "--output-dir",
                     str(tmp_path / "p")]) == 0
        table = tmp_path / "p" / "prevalence.tsv"
        rows = table.read_text().splitlines()
        assert len(rows) == 32
        table.write_text("\n".join(rows + ["# corpus_size=3"]) + "\n")
        out = tmp_path / "out" / "annotated.jsonl"
        assert main(["annotate", "--input", str(smi_file), "--output", str(out),
                     "--prevalence", str(table)]) == 2
        assert f"{table}:33: a second corpus_size line" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_group_outside_library_is_data_error_before_output(self, tmp_path,
                                                               capsys):
        # a default-library table picks alkene and aniline into its top 6,
        # and the first 12 default patterns cannot match either
        corpus = tmp_path / "corpus.smi"
        corpus.write_text("\n".join(generate_corpus(300, seed=7)) + "\n")
        payload = json.loads((Path(fgroups_module.__file__).parent / "data"
                              / "functional_groups.json").read_text())
        extra = sorted(p["name"] for p in payload["patterns"][12:])
        payload["patterns"] = payload["patterns"][:12]
        library = tmp_path / "library.json"
        library.write_text(json.dumps(payload))
        assert main(["prevalence", "--input", str(corpus), "--output-dir",
                     str(tmp_path / "p")]) == 0
        out = tmp_path / "out" / "annotated.jsonl"
        assert main(["annotate", "--input", str(corpus), "--output", str(out),
                     "--library", str(library), "--prevalence",
                     str(tmp_path / "p" / "prevalence.tsv")]) == 2
        assert (f"prevalence table has {len(extra)} group(s) outside the "
                "library: " + ", ".join(extra)) in capsys.readouterr().err
        assert {"alkene", "aniline"} <= set(extra)
        assert not out.parent.exists()


def _pair_pattern(**bond) -> dict:
    """A two-atom pattern named x with ``bond`` as its one bond."""
    return {"patterns": [{"name": "x",
                          "atoms": [{"elements": ["C"]}, {"elements": ["O"]}],
                          "bonds": [{"a": 0, "b": 1, "orders": ["single"],
                                     **bond}]}]}


# a library file's text and what the data error says after its path
MALFORMED_LIBRARIES = {
    "no-patterns": ("{}", 'a library is a JSON object with a "patterns" list'),
    "not-an-object": ("[1]", 'a library is a JSON object with a "patterns" list'),
    "no-atoms": ('{"patterns": [{"name": "x"}]}',
                 "pattern 'x': an entry lacks \"atoms\""),
    "entry-not-object": ('{"patterns": [1]}', "pattern #0: 1 is not a JSON object"),
    "elements-not-list": ('{"patterns": [{"name": "x", "atoms": [{"elements": 5}], '
                          '"bonds": []}]}', "pattern 'x': \"elements\" is 5"),
    "endpoint-outside": (json.dumps(_pair_pattern(b=2)),
                         "pattern 'x': bond 0-2 does not join two of its 2 atoms"),
    "self-bond": (json.dumps(_pair_pattern(b=0)),
                  "pattern 'x': bond 0-0 does not join two of its 2 atoms"),
    "unknown-order": (json.dumps(_pair_pattern(orders=["quadruple"])),
                      "pattern 'x': unknown bond order 'quadruple'"),
    "bool-endpoint": (json.dumps(_pair_pattern(a=True, b=0)),
                      "pattern 'x': \"a\" is True"),
    "name-twice": ('{"patterns": [{"name": "x", "atoms": [{"elements": ["C"]}], '
                   '"bonds": []}, {"name": "x", "atoms": [{"elements": ["O"]}], '
                   '"bonds": []}]}', "pattern 'x' appears twice"),
    "not-json": ('{"patterns": [', "Expecting value"),
}


@pytest.mark.parametrize("case", MALFORMED_LIBRARIES)
@pytest.mark.parametrize("command", ["annotate", "prevalence"])
def test_malformed_library_is_data_error_before_output(command, case, smi_file,
                                                       tmp_path):
    import subprocess
    import sys

    text, message = MALFORMED_LIBRARIES[case]
    library = tmp_path / "library.json"
    library.write_text(text)
    out = tmp_path / "out"
    target = (["--output", str(out / "annotated.jsonl")] if command == "annotate"
              else ["--output-dir", str(out)])
    run = subprocess.run(
        [sys.executable, "-m", "moltiers.cli", command, "--input", str(smi_file),
         "--library", str(library), *target],
        capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert f"{library}: {message}" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


class TestWorkerDeterminism:
    def test_fresh_interpreters_byte_identical(self, tmp_path):
        # separate processes get different string-hash seeds; output must not
        # depend on set iteration order
        import subprocess
        import sys

        corpus = tmp_path / "c.smi"
        corpus.write_text("\n".join(generate_corpus(300, seed=5)) + "\n")
        outputs = []
        for k, workers in ((0, "1"), (1, "3")):
            out = tmp_path / f"out{k}.jsonl"
            subprocess.run(
                [sys.executable, "-m", "moltiers.cli", "annotate",
                 "--input", str(corpus), "--output", str(out),
                 "--workers", workers],
                check=True, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_one_vs_many_workers(self):
        corpus = list(enumerate(generate_corpus(600, seed=23)))
        annotator = ComplexityAnnotator().fit(s for _, s in corpus)
        outputs = []
        for workers, chunk in ((1, 64), (4, 64), (4, 17), (8, 5)):
            sink = io.StringIO()
            run_annotate(iter(corpus), annotator, sink, workers=workers,
                         chunk_size=chunk)
            outputs.append(sink.getvalue())
        assert len(set(outputs)) == 1


class TestCli:
    def run(self, *argv) -> int:
        return main(list(argv))

    def test_prevalence_and_annotate(self, smi_file, tmp_path):
        outdir = tmp_path / "prev"
        assert self.run("prevalence", "--input", str(smi_file),
                        "--output-dir", str(outdir)) == 0
        assert (outdir / "prevalence.tsv").exists()
        top = (outdir / "top_groups.txt").read_text().splitlines()
        assert len(top) == 6

        out = tmp_path / "annotated.jsonl"
        assert self.run("annotate", "--input", str(smi_file),
                        "--output", str(out),
                        "--prevalence", str(outdir / "prevalence.tsv")) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4  # one malformed line skipped
        assert [r["id"] for r in rows] == [0, 1, 2, 4]
        assert all("tier" in r for r in rows)

    @pytest.mark.parametrize("stage", ["write_prevalence", "top_k_groups"])
    def test_prevalence_failure_keeps_earlier_pair(self, stage, smi_file,
                                                   tmp_path, monkeypatch):
        outdir = tmp_path / "prev"
        assert self.run("prevalence", "--input", str(smi_file),
                        "--output-dir", str(outdir)) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        # the command imports both when it runs, from these modules
        module = {"write_prevalence": pipeline_module,
                  "top_k_groups": fgroups_module}[stage]
        real = getattr(module, stage)

        def fail_after(*args):
            real(*args)
            raise OSError("no space left on device")

        # the table is written in full before either failure
        monkeypatch.setattr(module, stage, fail_after)
        other = tmp_path / "other.smi"
        other.write_text("CCN\nCC#N\nCCS\n")
        assert self.run("prevalence", "--input", str(other),
                        "--output-dir", str(outdir), "--top-k", "2") == 2
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_failed_prevalence_close_leaves_the_earlier_pair(self, smi_file, tmp_path,
                                                             capsys, monkeypatch):
        # the table fails when it is closed, after both files are written:
        # neither replaces the earlier pair
        outdir = tmp_path / "prev"
        assert self.run("prevalence", "--input", str(smi_file),
                        "--output-dir", str(outdir)) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        fail_at_close(monkeypatch, "prevalence.tsv")
        assert self.run("prevalence", "--input", str(smi_file), "--top-k", "2",
                        "--output-dir", str(outdir)) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_verbose_is_set_on_every_call(self, smi_file, csv_file, tmp_path,
                                          capsys):
        """-v adds DEBUG lines to the call it is given, and only to that one,
        in one process."""
        def debug_lines(*argv) -> list[str]:
            assert self.run(*argv) == 0
            return [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("DEBUG ")]

        table = tmp_path / "prev" / "prevalence.tsv"
        assert self.run("prevalence", "--input", str(smi_file),
                        "--output-dir", str(table.parent)) == 0
        out = tmp_path / "annotated.jsonl"
        plain = ["annotate", "--input", str(smi_file), "--output", str(out)]
        assert debug_lines(*plain) == []
        assert debug_lines("-v", *plain) == [
            f"DEBUG moltiers: annotate: {smi_file} read as smi, 1 worker(s), "
            "chunks of 256, table fitted in the pass"]
        assert debug_lines("-v", "annotate", "--input", str(csv_file),
                           "--output", str(tmp_path / "csv.jsonl"),
                           "--prevalence", str(table), "--workers", "2",
                           "--chunk-size", "7") == [
            f"DEBUG moltiers: annotate: {csv_file} read as delimited, "
            f"2 worker(s), chunks of 7, table read from {table}"]
        assert debug_lines(*plain) == []

        sched = tmp_path / "sched"
        schedule = ["schedule", "--annotated", str(out), "--output-dir", str(sched)]
        assert debug_lines(*schedule) == []
        read, wrote = debug_lines("-v", *schedule)
        assert re.fullmatch(rf"DEBUG moltiers: schedule: read 4 records from "
                            rf"{re.escape(str(out))} in \d+\.\d{{3}}s", read)
        assert re.fullmatch(rf"DEBUG moltiers: schedule: wrote 10 manifests to "
                            rf"{re.escape(str(sched))} in \d+\.\d{{3}}s", wrote)
        assert debug_lines(*schedule) == []

    def test_main_leaves_logging_alone(self, smi_file, tmp_path):
        """main configures no logging: the root logger of the program that
        calls it keeps its handlers and level.  Checked in a fresh
        interpreter, since pytest's own root handlers would hide a
        ``logging.basicConfig`` call here."""
        from test_pipeline import child_env

        code = ("import logging, sys; from moltiers.cli import main; "
                "root = logging.getLogger(); "
                "before = (list(root.handlers), root.level); "
                "assert main(sys.argv[1:]) == 0; "
                "assert main(['schedule', '--tier-counts', 'x']) == 1; "
                "assert (list(root.handlers), root.level) == before; "
                "assert logging.getLogger('moltiers').handlers == []")
        subprocess.run([sys.executable, "-c", code, "-v", "annotate", "--input",
                        str(smi_file), "--output", str(tmp_path / "out.jsonl")],
                       check=True, env=child_env())

    def test_annotate_two_phase_and_trace(self, smi_file, tmp_path):
        out = tmp_path / "annotated.jsonl"
        assert self.run("annotate", "--input", str(smi_file),
                        "--output", str(out), "--trace") == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all("rule_trace" in r for r in rows)

    def test_schedule_with_counts(self, tmp_path, capsys):
        outdir = tmp_path / "sched"
        assert self.run("schedule", "--tier-counts",
                        "268,107370,153955,703283,35124",
                        "--regime", "staged10", "--epochs", "10",
                        "--output-dir", str(outdir)) == 0
        captured = capsys.readouterr().out
        assert "5740728" in captured
        assert "0.5741" in captured
        summary = json.loads((outdir / "schedule_summary.json").read_text())
        assert summary["total_views"] == 5740728
        assert summary["baseline_views"] == 10000000
        assert round(summary["ratio"], 4) == 0.5741

    def test_schedule_manifests(self, smi_file, tmp_path):
        annotated = tmp_path / "ann.jsonl"
        self.run("annotate", "--input", str(smi_file), "--output", str(annotated))
        outdir = tmp_path / "manifests"
        assert self.run("schedule", "--annotated", str(annotated),
                        "--regime", "additive", "--epochs", "5",
                        "--output-dir", str(outdir)) == 0
        files = sorted(outdir.glob("manifest_epoch_*.jsonl"))
        assert len(files) == 5
        last = [json.loads(l) for l in files[-1].read_text().splitlines()]
        assert {r["id"] for r in last} == {0, 1, 2, 4}

    def test_stats(self, smi_file, tmp_path, capsys):
        annotated = tmp_path / "ann.jsonl"
        self.run("annotate", "--input", str(smi_file), "--output", str(annotated))
        report_path = tmp_path / "stats.json"
        assert self.run("stats", "--annotated", str(annotated),
                        "--json", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["n"] == 4
        assert sum(report["tier_histogram"].values()) == 4
        assert "mean" in report["mw"]

    def test_stats_json_into_new_directory(self, smi_file, tmp_path, capsys):
        annotated = tmp_path / "ann.jsonl"
        self.run("annotate", "--input", str(smi_file), "--output", str(annotated))
        assert self.run("stats", "--annotated", str(annotated)) == 0
        printed = capsys.readouterr().out
        report_path = tmp_path / "new_dir" / "stats.json"
        assert self.run("stats", "--annotated", str(annotated),
                        "--json", str(report_path)) == 0
        assert capsys.readouterr().out == printed
        assert json.loads(report_path.read_text())["n"] == 4

    def test_stats_json_failed_write_keeps_earlier_file(self, smi_file, tmp_path,
                                                        monkeypatch):
        annotated = tmp_path / "ann.jsonl"
        self.run("annotate", "--input", str(smi_file), "--output", str(annotated))
        report_path = tmp_path / "stats.json"
        report_path.write_text("earlier\n")
        dumps = json.dumps
        # a lone surrogate cannot be encoded, so the write fails once the
        # file is open
        monkeypatch.setattr(json, "dumps", lambda *a, **k: dumps(*a, **k) + "\ud800")
        assert self.run("stats", "--annotated", str(annotated),
                        "--json", str(report_path)) == 2
        assert report_path.read_text() == "earlier\n"
        assert list(tmp_path.glob(".stats.json*")) == []

    @pytest.mark.parametrize("record, message", [
        ("{not json", "not a JSON record"),
        ('["T1"]', "not a JSON record"),
        ('{"id":2,"tier":"T1","bertz_ct":1.5,"n_ring":0}', "record lacks mw"),
        ('{"id":2,"tier":"T1","mw":16.0,"n_ring":0}', "record lacks bertz_ct"),
        ('{"id":2,"tier":"T1","mw":16.0,"bertz_ct":1.5}', "record lacks n_ring"),
        ('{"id":2,"mw":16.0,"bertz_ct":1.5,"n_ring":0}', "record lacks tier"),
        ('{"id":2,"tier":"T9","mw":16.0,"bertz_ct":1.5,"n_ring":0}',
         "tier is not one of T0-T4"),
        ('{"id":2,"tier":"T1","mw":"x","bertz_ct":1.5,"n_ring":0}', "mw is not a number"),
        ('{"id":2,"tier":"T1","mw":null,"bertz_ct":1.5,"n_ring":0}', "mw is not a number"),
        ('{"id":2,"tier":"T1","mw":16.0,"bertz_ct":true,"n_ring":0}',
         "bertz_ct is not a number"),
        ('{"id":2,"tier":"T1","mw":16.0,"bertz_ct":1.5,"n_ring":[0]}',
         "n_ring is not a number"),
        ('{"id":2,"tier":"T1","mw":16.0,"bertz_ct":1e999,"n_ring":0}',
         "bertz_ct is not a finite number"),
        ('{"id":2,"tier":"T1","mw":-1e999,"bertz_ct":1.5,"n_ring":0}',
         "mw is not a finite number"),
        ('{"id":2,"tier":"T1","mw":16.0,"bertz_ct":1.5,"n_ring":NaN}',
         "n_ring is not a finite number"),
        ('{"id":2,"tier":"T1","mw":Infinity,"bertz_ct":1.5,"n_ring":0}',
         "mw is not a finite number"),
    ], ids=["not-json", "not-an-object", "no-mw", "no-bertz_ct", "no-n_ring",
            "no-tier", "tier-T9", "mw-string", "mw-null", "bertz_ct-true",
            "n_ring-list", "bertz_ct-1e999", "mw--1e999", "n_ring-NaN",
            "mw-Infinity"])
    def test_stats_bad_record_is_data_error(self, smi_file, tmp_path, capsys,
                                            record, message):
        annotated = tmp_path / "ann.jsonl"
        self.run("annotate", "--input", str(smi_file), "--output", str(annotated))
        with open(annotated, "a") as fh:
            fh.write("\n" + record + "\n")
        report_path = tmp_path / "stats.json"
        assert self.run("stats", "--annotated", str(annotated),
                        "--json", str(report_path)) == 2
        captured = capsys.readouterr()
        assert f"{annotated}:6: {message}" in captured.err
        assert captured.out == ""
        assert not report_path.exists()

    @pytest.mark.parametrize("source", ["flags", "annotated-in-file",
                                        "counts-in-file"])
    def test_schedule_annotated_and_tier_counts_is_usage_error(
            self, tmp_path, capsys, source):
        annotated = tmp_path / "ann.jsonl"
        write_tier_records(annotated, n=50)
        config = tmp_path / "run.conf"
        flags = {"annotated": str(annotated), "tier_counts": "1,1,1,1,1"}
        in_file = {"flags": (), "annotated-in-file": ("annotated",),
                   "counts-in-file": ("tier_counts",)}[source]
        config.write_text("".join(f"{k} = {flags[k]}\n" for k in in_file))
        argv = ["--config", str(config), "schedule"]
        for key, value in flags.items():
            if key not in in_file:
                argv += ["--" + key.replace("_", "-"), value]
        outdir = tmp_path / "sched"
        assert self.run(*argv, "--output-dir", str(outdir)) == 1
        captured = capsys.readouterr()
        assert "--annotated and --tier-counts exclude each other" in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize("regime, config", [("staged10", ""),
                                                ("mixed", "epochs = 1\n")])
    def test_schedule_without_source_is_usage_error(
            self, tmp_path, capsys, regime, config):
        """Checked first: the regime's epoch count is not reported, even
        when it is wrong too."""
        path = tmp_path / "run.conf"
        path.write_text(config)
        outdir = tmp_path / "sched"
        assert self.run("--config", str(path), "schedule", "--regime", regime,
                        "--output-dir", str(outdir)) == 1
        captured = capsys.readouterr()
        assert "give --annotated or --tier-counts" in captured.err
        assert "--epochs" not in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize("value", [
        "1,1,1,1", "1,1,1,1,1,1", "1,1,1,1,-1", "1,1,1,1,x", "1,1,1,1,1.5",
        ",,,,", "",
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_tier_counts_is_usage_error(self, tmp_path, capsys,
                                                  value, source):
        config = tmp_path / "run.conf"
        config.write_text(f"tier_counts = {value}\n")
        argv = (["--config", str(config), "schedule"] if source == "config"
                else ["schedule", "--tier-counts", value])
        outdir = tmp_path / "sched"
        assert self.run(*argv, "--output-dir", str(outdir)) == 1
        captured = capsys.readouterr()
        assert (f"argument --tier-counts: {value.strip()!r} is not five "
                "non-negative integers") in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    def test_tier_counts_separators(self, capsys):
        assert cli_module._parse_tier_counts(" 268, 107_370;0 ,1;2 ") == (
            268, 107370, 0, 1, 2)
        assert self.run("schedule", "--regime", "additive", "--epochs", "2",
                        "--tier-counts", "1;2;3;4;5") == 0
        out = capsys.readouterr().out
        assert "tier counts: {'T0': 1, 'T1': 2, 'T2': 3, 'T3': 4, 'T4': 5}" in out
        assert "total molecule-views: 4" in out  # T0, then T0 and T1

    @pytest.mark.parametrize("regime, epochs, message", [
        ("staged10", "5", "--regime staged10 needs --epochs 10, got 5"),
        ("staged10", "11", "--regime staged10 needs --epochs 10, got 11"),
        ("mixed", "1", "--regime mixed needs --epochs of at least 2, got 1"),
    ])
    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("molecules", ["annotated", "tier-counts"])
    def test_schedule_regime_epochs_mismatch_is_usage_error(
            self, tmp_path, capsys, regime, epochs, message, source,
            molecules):
        """Found from the options alone: the --annotated file named here
        does not exist, so reading it first would exit 2."""
        config = tmp_path / "run.conf"
        config.write_text(f"regime = {regime}\nepochs = {epochs}\n")
        argv = (["--config", str(config), "schedule"] if source == "config"
                else ["schedule", "--regime", regime, "--epochs", epochs])
        argv += (["--annotated", str(tmp_path / "absent.jsonl")]
                 if molecules == "annotated" else ["--tier-counts", "1,1,1,1,1"])
        outdir = tmp_path / "sched"
        assert self.run(*argv, "--output-dir", str(outdir)) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("epochs", "0", "'0' is not a positive integer"),
        ("epochs", "-2", "'-2' is not a positive integer"),
        ("hard_start", "-0.1", "'-0.1' is not in [0, 1]"),
        ("hard_start", "1.5", "'1.5' is not in [0, 1]"),
        ("hard_start", "nan", "'nan' is not in [0, 1]"),
        ("hard_start", "x", "invalid float value: 'x'"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_schedule_epochs_and_hard_start_out_of_range_are_usage_errors(
            self, tmp_path, capsys, option, value, message, source):
        flag = "--" + option.replace("_", "-")
        config = tmp_path / "run.conf"
        config.write_text(f"{option} = {value}\n")
        argv = (["schedule", flag, value] if source == "flag"
                else ["--config", str(config), "schedule"])
        outdir = tmp_path / "sched"
        assert self.run(*argv, "--tier-counts", "1,1,1,1,1",
                        "--output-dir", str(outdir)) == 1
        captured = capsys.readouterr()
        assert f"argument {flag}: {message}" in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    def test_config_file_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("regime = additive\nepochs = 5\n# comment\n")
        assert self.run("--config", str(config), "schedule",
                        "--tier-counts", "1,1,1,1,1") == 0
        out = capsys.readouterr().out
        assert "regime=additive epochs=5" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("epochs = 5\n")
        assert self.run("--config", str(config), "schedule",
                        "--tier-counts", "1,1,1,1,1",
                        "--epochs", "10", "--regime", "staged10") == 0
        assert "epochs=10" in capsys.readouterr().out

    def test_schedule_config_file_equals_flags(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("regime = mixed\nhard_start = 0.25\nseed = 7\n"
                          "epochs = 7\n")
        counts = ["--tier-counts", "268,107370,153955,703283,35124"]
        results = []
        for name, argv in (
            ("file", ["--config", str(config), "schedule", *counts]),
            ("flags", ["schedule", *counts, "--regime", "mixed",
                       "--hard-start", "0.25", "--seed", "7", "--epochs", "7"]),
        ):
            assert self.run(*argv, "--output-dir", str(tmp_path / name)) == 0
            results.append((capsys.readouterr().out,
                            (tmp_path / name / "schedule_summary.json").read_bytes()))
        assert results[0] == results[1]
        assert "regime=mixed epochs=7 seed=7" in results[0][0]

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        """A value the option's type rejects exits 1 from the file as from
        the flag, with argparse's message."""
        config = tmp_path / "run.conf"
        config.write_text("epochs = x\n")
        assert self.run("--config", str(config), "schedule",
                        "--tier-counts", "1,1,1,1,1") == 1
        assert "argument --epochs: invalid int value: 'x'" in capsys.readouterr().err
        assert self.run("schedule", "--tier-counts", "1,1,1,1,1",
                        "--epochs", "x") == 1
        assert "argument --epochs: invalid int value: 'x'" in capsys.readouterr().err

    def test_config_value_outside_choices_is_usage_error(self, tmp_path,
                                                          smi_file, capsys):
        """A file value outside its option's choices exits 1 with argparse's
        message, as the flag does, before any output is written."""
        config = tmp_path / "run.conf"
        config.write_text("regime = bogus\nformat = bogus\n")
        for flag in ([], ["--regime", "bogus"]):
            config_flags = [] if flag else ["--config", str(config)]
            assert self.run(*config_flags, "schedule", "--tier-counts",
                            "1,1,1,1,1", *flag) == 1
            assert ("argument --regime: invalid choice: 'bogus'"
                    in capsys.readouterr().err)
        out = tmp_path / "out.jsonl"
        for flag in ([], ["--format", "bogus"]):
            config_flags = [] if flag else ["--config", str(config)]
            assert self.run(*config_flags, "annotate", "--input", str(smi_file),
                            "--output", str(out), *flag) == 1
            assert ("argument --format: invalid choice: 'bogus'"
                    in capsys.readouterr().err)
        assert not out.exists()
        # a key that only another subcommand takes is still ignored
        assert self.run("--config", str(config), "stats", "--annotated",
                        str(tmp_path / "missing.jsonl")) == 2

    @pytest.mark.parametrize("command", ["prevalence", "annotate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_long_delimiter_is_usage_error(self, csv_file, tmp_path, capsys,
                                           command, source):
        out = ["--output-dir", str(tmp_path / "p")] if command == "prevalence" \
            else ["--output", str(tmp_path / "out.jsonl")]
        if source == "flag":
            argv = [command, "--input", str(csv_file), *out, "--delimiter", "ab"]
        else:
            config = tmp_path / "run.conf"
            config.write_text("delimiter = ab\n")
            argv = ["--config", str(config), command, "--input", str(csv_file),
                    *out]
        assert self.run(*argv) == 1
        assert "argument --delimiter: 'ab' is not one character" in \
            capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.csv"] + (["run.conf"] if source == "config" else []))

    @pytest.mark.parametrize("option", ["rarity-threshold", "ct-per-ha-threshold"])
    def test_nan_threshold_is_data_error(self, smi_file, tmp_path, capsys, option):
        """NaN passes no threshold rule, so taking it would shift the tiers."""
        out = tmp_path / "out.jsonl"
        assert self.run("annotate", "--input", str(smi_file), "--output", str(out),
                        "--" + option, "nan") == 2
        assert "thresholds must be positive" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.smi"]

    @pytest.mark.parametrize("option, value", [
        ("workers", "0"), ("workers", "-2"),
        ("chunk_size", "0"), ("chunk_size", "-5"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_workers_and_chunk_size_below_one_are_usage_errors(
            self, smi_file, tmp_path, capsys, option, value, source):
        flag = "--" + option.replace("_", "-")
        out = ["--input", str(smi_file), "--output", str(tmp_path / "out.jsonl")]
        if source == "flag":
            argv = ["annotate", *out, flag, value]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"{option} = {value}\n")
            argv = ["--config", str(config), "annotate", *out]
        assert self.run(*argv) == 1
        assert f"argument {flag}: '{value}' is not a positive integer" in \
            capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_usage_error_exit_1(self, capsys):
        assert self.run("schedule", "--bogus-flag") == 1
        assert self.run() == 1
        capsys.readouterr()
        # the loss kernels are checked by the test suite, not by a command
        assert self.run("loss-check") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'loss-check'" in captured.err

    def test_help_lists_the_four_commands(self, capsys):
        assert self.run("--help") == 0
        usage = capsys.readouterr().out
        assert re.search(r"\{(.*?)\}", usage).group(1).split(",") == [
            "prevalence", "annotate", "schedule", "stats"]

    def test_data_error_exit_2(self, tmp_path):
        assert self.run("annotate", "--input", str(tmp_path / "missing.smi"),
                        "--output", str(tmp_path / "out.jsonl")) == 2
        # no source at all is a usage error (exit 1); a source that cannot
        # be read is a data error
        assert self.run("schedule", "--annotated",
                        str(tmp_path / "missing.jsonl")) == 2

    def test_empty_input_annotate(self, tmp_path):
        empty = tmp_path / "empty.smi"
        empty.write_text("")
        out = tmp_path / "out.jsonl"
        # empty input: empty output, success
        assert self.run("annotate", "--input", str(empty),
                        "--output", str(out)) == 0
        assert out.read_text() == ""

    def test_prevalence_with_empty_library_writes_empty_top_groups(self, smi_file,
                                                                   tmp_path):
        library = tmp_path / "empty_library.json"
        library.write_text('{"patterns": []}')
        outdir = tmp_path / "prev"
        assert self.run("prevalence", "--input", str(smi_file),
                        "--output-dir", str(outdir), "--library", str(library)) == 0
        # one line per group, so no group leaves no line, not one blank line
        assert (outdir / "top_groups.txt").read_bytes() == b""
        assert (outdir / "prevalence.tsv").read_text().startswith("# corpus_size=")

    def test_empty_input_prevalence_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.smi"
        empty.write_text("")
        assert self.run("prevalence", "--input", str(empty),
                        "--output-dir", str(tmp_path / "p")) == 2


class TestScheduleOutput:
    @pytest.mark.parametrize(
        "case", SCHEDULE_GOLDEN["cases"],
        ids=lambda case: "-".join(case["flags"][1::2]),
    )
    def test_golden(self, case, tmp_path, capsys):
        assert main(["schedule", "--tier-counts", SCHEDULE_GOLDEN["tier_counts"],
                     *case["flags"], "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == case["stdout"]
        assert (tmp_path / "schedule_summary.json").read_bytes() == \
            case["schedule_summary.json"].encode()

    @pytest.mark.parametrize("record, message", [
        ('{"id":2,"tier":"T9"}', "not a JSON record with an integer id"),
        ('{"id":"x","tier":"T1"}', "not a JSON record with an integer id"),
        ('{"id":2.5,"tier":"T1"}', "not a JSON record with an integer id"),
        ('{"id":2', "not a JSON record with an integer id"),
        ('{"id":2}', "not a JSON record with an integer id"),
        ('["T1"]', "not a JSON record with an integer id"),
        ('{"id":0,"tier":"T3"}', "id 0 appears twice"),
    ], ids=["tier-T9", "string-id", "float-id", "not-json", "no-tier",
            "not-an-object", "repeated-id"])
    def test_bad_annotated_record_is_data_error(self, tmp_path, capsys,
                                                record, message):
        annotated = tmp_path / "ann.jsonl"
        annotated.write_text('{"id":0,"tier":"T0"}\n\n{"id":1,"tier":"T2"}\n'
                             + record + "\n")
        outdir = tmp_path / "sched"
        assert main(["schedule", "--annotated", str(annotated),
                     "--output-dir", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert f"{annotated}:4: {message}" in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    def test_mixed_manifest_digest(self, tmp_path):
        annotated = tmp_path / "ann.jsonl"
        write_tier_records(annotated)
        outdir = tmp_path / "sched"
        assert main(["schedule", "--annotated", str(annotated), "--regime", "mixed",
                     "--seed", "3", "--output-dir", str(outdir)]) == 0
        digest = hashlib.sha256()
        for e in range(10):
            digest.update((outdir / f"manifest_epoch_{e:03d}.jsonl").read_bytes())
        assert digest.hexdigest() == MIXED_SEED3_MANIFEST_SHA256

    def test_failed_manifest_write_leaves_whole_files_only(self, tmp_path, capsys,
                                                           monkeypatch):
        annotated = tmp_path / "ann.jsonl"
        write_tier_records(annotated, 500)
        real_open = open

        class DiskFull:
            """Passes half of each write to the file, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return DiskFull(fh) if "manifest_epoch_003" in str(path) else fh

        monkeypatch.setattr(cli_module, "open", failing_open, raising=False)
        outdir = tmp_path / "sched"
        # all ten epochs are one pass, renamed into place only when it ends
        assert main(["schedule", "--annotated", str(annotated),
                     "--output-dir", str(outdir)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(outdir) == []
        # in passes of two epochs, the pass of epochs 2 and 3 fails and the
        # one before it is in place whole
        monkeypatch.setattr(cli_module, "OPEN_MANIFESTS", 2)
        assert main(["schedule", "--annotated", str(annotated),
                     "--output-dir", str(outdir)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(outdir)) == [
            f"manifest_epoch_{e:03d}.jsonl" for e in range(2)]
        for e in range(2):
            text = (outdir / f"manifest_epoch_{e:03d}.jsonl").read_text()
            assert text.endswith("}\n")
            assert all(json.loads(line)["epoch"] == e for line in text.splitlines())

    def test_failed_manifest_close_leaves_no_manifest_of_its_pass(self, tmp_path,
                                                                 capsys, monkeypatch):
        # the epochs closed before the failing one are not renamed either
        annotated = tmp_path / "ann.jsonl"
        write_tier_records(annotated, 500)
        fail_at_close(monkeypatch, "manifest_epoch_003")
        outdir = tmp_path / "sched"
        assert main(["schedule", "--annotated", str(annotated),
                     "--output-dir", str(outdir)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(outdir) == []

    @pytest.mark.parametrize("regime, epochs, cap", [
        ("additive", 150, None), ("mixed", 7, 3), ("anti", 5, 1)])
    def test_manifests_in_passes_equal_one_epoch_at_a_time(self, tmp_path, capsys,
                                                           monkeypatch, regime,
                                                           epochs, cap):
        # more epochs than OPEN_MANIFESTS run as several passes over the ids
        from moltiers.scheduler import ScheduleSpec, TierIndex, sample_epoch, write_manifest

        if cap is not None:
            monkeypatch.setattr(cli_module, "OPEN_MANIFESTS", cap)
        annotated = tmp_path / "ann.jsonl"
        write_tier_records(annotated, 400)
        outdir = tmp_path / "sched"
        assert main(["schedule", "--annotated", str(annotated), "--regime", regime,
                     "--epochs", str(epochs), "--seed", "4",
                     "--output-dir", str(outdir)]) == 0
        err = capsys.readouterr().err
        rows = [json.loads(line) for line in annotated.read_text().splitlines()]
        index = TierIndex.from_pairs((r["id"], int(r["tier"][1])) for r in rows)
        spec = ScheduleSpec(regime, epochs, 0.1, 4)
        assert sorted(os.listdir(outdir)) == sorted(
            [f"manifest_epoch_{e:03d}.jsonl" for e in range(epochs)]
            + ["schedule_summary.json"])
        for e in range(epochs):
            out = io.StringIO()
            manifest = sample_epoch(index, spec, e)
            write_manifest(out, manifest)
            path = outdir / f"manifest_epoch_{e:03d}.jsonl"
            assert path.read_text() == out.getvalue(), e
            assert f"epoch {e} manifest: {manifest.size} ids -> {path}\n" in err

    @pytest.mark.parametrize("regime", ["staged10", "mixed"])
    @pytest.mark.parametrize("source", ["annotated", "tier-counts"])
    def test_zero_molecules_is_data_error(self, regime, source, tmp_path, capsys):
        if source == "annotated":
            empty = tmp_path / "empty.jsonl"
            empty.write_text("")
            flags = ["--annotated", str(empty)]
        else:
            flags = ["--tier-counts", "0,0,0,0,0"]
        outdir = tmp_path / "sched"
        assert main(["schedule", *flags, "--regime", regime,
                     "--output-dir", str(outdir)]) == 2
        assert capsys.readouterr().out == ""
        assert not (outdir / "schedule_summary.json").exists()
        assert list(outdir.glob("manifest_epoch_*")) == []
