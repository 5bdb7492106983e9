from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from moltiers.cli import main
from moltiers.featurizer import ComplexityAnnotator
from moltiers.pipeline import (
    iter_input,
    load_prevalence,
    run_annotate,
    save_prevalence,
)
from moltiers.synth import generate_corpus

# stdout and schedule_summary.json of `schedule --tier-counts <paper counts>`
# for every regime at two hard starts plus a 7-epoch mixed run, as written
# before the per-epoch budget moved into scheduler.epoch_views
SCHEDULE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "schedule_golden.json").read_text()
)


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

    def test_missing_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(Exception):
            list(iter_input(path))


class TestPrevalenceIO:
    def test_round_trip(self, tmp_path):
        annotator = ComplexityAnnotator().fit(["CC(=O)O", "CCO", "CCCCCC"])
        path = tmp_path / "prev.tsv"
        save_prevalence(annotator.prevalence_, path)
        table = load_prevalence(path)
        assert table.corpus_size == 3
        assert table.prevalence == annotator.prevalence_.prevalence


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

    def test_loss_check_quick(self, capsys):
        assert self.run("loss-check", "--seeds", "3") == 0
        out = capsys.readouterr().out
        assert "nt_xent" in out and "FAIL" not in out

    def test_loss_check_with_matrices(self, tmp_path, capsys):
        import numpy as np

        from moltiers.losses import save_embeddings

        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 4))
        save_embeddings(tmp_path / "a.txt", a)
        save_embeddings(tmp_path / "b.txt", a * 2.0)
        assert self.run("loss-check", "--seeds", "2",
                        "--matrix-a", str(tmp_path / "a.txt"),
                        "--matrix-b", str(tmp_path / "b.txt"),
                        "--n-pairs", "50") == 0
        assert "spearman=1.0000" in capsys.readouterr().out

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

    def test_usage_error_exit_1(self):
        assert self.run("schedule", "--bogus-flag") == 1
        assert self.run() == 1

    def test_data_error_exit_2(self, tmp_path):
        assert self.run("annotate", "--input", str(tmp_path / "missing.smi"),
                        "--output", str(tmp_path / "out.jsonl")) == 2
        assert self.run("schedule", "--regime", "staged10") == 2

    def test_empty_input_annotate(self, tmp_path):
        empty = tmp_path / "empty.smi"
        empty.write_text("")
        out = tmp_path / "out.jsonl"
        # empty input: empty output, success
        assert self.run("annotate", "--input", str(empty),
                        "--output", str(out)) == 0
        assert out.read_text() == ""

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
