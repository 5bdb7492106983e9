"""Acceptance criteria, one test per criterion.

Each criterion prints a single PASS/FAIL line (collected into the terminal
summary) and enforces its stated tolerance and runtime bound.
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np
import pytest

import conftest
from conftest import SUITE_PREVALENCE, TOP6

from moltiers.cli import main as cli_main
from moltiers.descriptors import descriptor_core, finish_record
from moltiers.errors import SmilesError
from moltiers.featurizer import ComplexityAnnotator
from moltiers.fgroups import PrevalenceTable, default_library
from moltiers.losses import (
    LinearMap,
    LossParams,
    hybrid_loss,
    l2_normalize_rows,
    nt_xent,
    pairwise_distance_correlation,
    siglip_loss,
)
from moltiers.pipeline import annotate_chunk, chunked, run_annotate
from moltiers.scheduler import ScheduleSpec, TierIndex, sample_epoch
from moltiers.smiles import parse_smiles
from moltiers.synth import generate_corpus
from moltiers.tiering import assign_tier

from builders import atoms_of
from oracles import (
    assert_isomorphic,
    brute_aromatic_substitution,
    brute_bertz_ct,
    brute_conjugation_extent,
    brute_present,
    brute_scaffold,
    brute_spearman,
    finite_difference,
    max_rel_error,
)
from smiles_writer import write_smiles_mapped
from tier_suite import SUITE_CONFIG, TIER_SUITE

LIB = default_library()
PAPER_COUNTS = "268,107370,153955,703283,35124"


def record(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LOG.append(f"[{status}] criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_budget_arithmetic(tmp_path, capsys):
    t0 = time.perf_counter()
    outdir = tmp_path / "sched"
    code = cli_main([
        "schedule", "--tier-counts", PAPER_COUNTS, "--regime", "staged10",
        "--epochs", "10", "--output-dir", str(outdir),
    ])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    summary = json.loads((outdir / "schedule_summary.json").read_text())
    ok = (
        code == 0
        and summary["total_views"] == 5_740_728
        and summary["total_views_exact"] == "5740728"
        and summary["baseline_views"] == 10_000_000
        and round(summary["ratio"], 4) == 0.5741
        and "total molecule-views: 5740728" in out
        and elapsed < 1.0
    )
    record(1, "staged10 budget arithmetic", ok,
           f"views={summary['total_views']} ratio={summary['ratio']:.7f} "
           f"in {elapsed:.3f}s")


def test_criterion_2_tier_rule_suite():
    t0 = time.perf_counter()
    table = PrevalenceTable(dict(SUITE_PREVALENCE), 1000)
    correct = 0
    failures = []
    for smiles, tier, trace in TIER_SUITE:
        rec = finish_record(descriptor_core(parse_smiles(smiles)), table)
        label = assign_tier(rec, TOP6, SUITE_CONFIG)
        if (label.tier, label.rule_trace) == (tier, trace):
            correct += 1
        else:
            failures.append((smiles, label))
    elapsed = time.perf_counter() - t0
    ok = correct == 20 and elapsed < 1.0
    record(2, "20-molecule tier suite", ok,
           f"{correct}/20 with matching traces in {elapsed:.3f}s"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_descriptor_oracles():
    t0 = time.perf_counter()
    table = PrevalenceTable(dict(SUITE_PREVALENCE), 1000)
    rng = random.Random(2024)
    worst = 0.0
    for smiles, _, _ in TIER_SUITE:
        graph = parse_smiles(smiles)
        rec = finish_record(descriptor_core(graph), table)
        from moltiers.graph import perceive_aromaticity

        perceived = perceive_aromaticity(graph)
        n_ha = sum(1 for a in atoms_of(perceived) if a.element != "H")
        scaffold = brute_scaffold(perceived, rng)
        d_scaf = min(1.0, max(0.0, 1.0 - len(scaffold) / n_ha))
        groups = brute_present(perceived, LIB)
        rarity = (
            sum(1.0 - table.prevalence[g] for g in groups) / len(groups)
            if groups else 0.0
        )
        worst = max(
            worst,
            abs(rec.d_scaf - d_scaf),
            abs(rec.rarity - rarity),
            abs(rec.conjugation - brute_conjugation_extent(perceived)),
            abs(rec.arom_sub - brute_aromatic_substitution(perceived)),
            abs(rec.bertz_ct - brute_bertz_ct(perceived)),
        )
        assert rec.fg_names == groups, smiles
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    record(3, "descriptor brute-force oracles", ok,
           f"max |diff| = {worst:.2e} over 20 molecules in {elapsed:.2f}s")


def test_criterion_4_gradient_checks():
    t0 = time.perf_counter()
    n_choices, d_choices = (2, 4, 8), (4, 8)
    worst = 0.0
    for seed in range(100):
        n = n_choices[seed % 3]
        d = d_choices[seed % 2]
        rng = np.random.default_rng(seed)
        v1 = l2_normalize_rows(rng.normal(size=(n, d)))
        v2 = l2_normalize_rows(rng.normal(size=(n, d)))
        res = nt_xent(v1, v2, 0.07)
        worst = max(
            worst,
            max_rel_error(
                res.grad_v1,
                finite_difference(lambda m: nt_xent(m, v2, 0.07).loss, v1),
            ),
            max_rel_error(
                res.grad_v2,
                finite_difference(lambda m: nt_xent(v1, m, 0.07).loss, v2),
            ),
        )

        s, b = float(rng.uniform(0.5, 2.0)), float(rng.normal())
        sig = siglip_loss(v1, v2, s, b)
        worst = max(
            worst,
            max_rel_error(
                sig.grad_v,
                finite_difference(lambda m: siglip_loss(m, v2, s, b).loss, v1),
            ),
            max_rel_error(
                sig.grad_t,
                finite_difference(lambda m: siglip_loss(v1, m, s, b).loss, v2),
            ),
        )

        dg = 2 * d
        g = rng.normal(size=(n, dg))
        proj = LinearMap(rng.normal(size=(d, dg)), rng.normal(size=d))
        head = LinearMap(rng.normal(size=(1, d)), rng.normal(size=1))
        y = rng.normal(size=n)
        params = LossParams(bias=b, scale=s)
        hyb = hybrid_loss(v1, g, proj, head, y, params)

        def hloss(v=v1, w=proj.weight, pb=proj.bias, hw=head.weight,
                  hb=head.bias):
            return hybrid_loss(v, g, LinearMap(w, pb), LinearMap(hw, hb), y,
                               params).loss

        worst = max(
            worst,
            max_rel_error(hyb.grad_v,
                          finite_difference(lambda m: hloss(v=m), v1)),
            max_rel_error(hyb.grad_proj_weight,
                          finite_difference(lambda m: hloss(w=m), proj.weight)),
            max_rel_error(hyb.grad_proj_bias,
                          finite_difference(lambda m: hloss(pb=m), proj.bias)),
            max_rel_error(hyb.grad_head_weight,
                          finite_difference(lambda m: hloss(hw=m), head.weight)),
            max_rel_error(hyb.grad_head_bias,
                          finite_difference(lambda m: hloss(hb=m), head.bias)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    record(4, "loss gradients vs central differences", ok,
           f"max rel err = {worst:.2e} over 100 seeds in {elapsed:.1f}s")


def test_criterion_5_hybrid_degenerate_identity():
    rng = np.random.default_rng(77)
    v = l2_normalize_rows(rng.normal(size=(6, 8)))
    head = LinearMap(rng.normal(size=(1, 8)), rng.normal(size=1))
    y = (v @ head.weight.T + head.bias)[:, 0]
    identity = LinearMap(np.eye(8), np.zeros(8))
    params = LossParams(bias=0.4, scale=1.3)
    res = hybrid_loss(v, v, identity, head, y, params)
    ref = siglip_loss(v, v, params.scale, params.bias).loss
    diff = abs(res.loss - ref)
    record(5, "hybrid degenerate identity", diff <= 1e-12,
           f"|hybrid - siglip| = {diff:.2e}")


def test_criterion_6_correlation_kernel():
    rng = np.random.default_rng(99)
    a = rng.normal(size=(40, 8))
    rho_i, r_i = pairwise_distance_correlation(a, a.copy(), 500, seed=1)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rho_q, r_q = pairwise_distance_correlation(a, a @ q, 500, seed=2)
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [1.0, 3.0, 2.0, 4.0, 5.0]
    from moltiers.losses import spearman

    oracle_diff = abs(
        spearman(np.array(x), np.array(y)) - brute_spearman(x, y)
    )
    worst = max(abs(rho_i - 1), abs(r_i - 1), abs(rho_q - 1), abs(r_q - 1),
                oracle_diff)
    record(6, "pairwise-distance correlation", worst <= 1e-12,
           f"identity/rotation/oracle max dev = {worst:.2e}")


def test_criterion_7_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    corpus_path = tmp_path / "corpus10k.smi"
    corpus_path.write_text(
        "\n".join(generate_corpus(10_000, seed=2024)) + "\n"
    )
    prev_dir = tmp_path / "prev"
    assert cli_main(["prevalence", "--input", str(corpus_path),
                     "--output-dir", str(prev_dir)]) == 0
    outputs = []
    for workers in (1, 16):
        out = tmp_path / f"annotated_w{workers}.jsonl"
        code = cli_main([
            "annotate", "--input", str(corpus_path), "--output", str(out),
            "--prevalence", str(prev_dir / "prevalence.tsv"),
            "--workers", str(workers),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0 and elapsed < 60.0
    record(7, "1 vs 16 worker byte-identical annotate", ok,
           f"{len(outputs[0]):,} bytes in {elapsed:.1f}s")


def test_criterion_8_throughput():
    t0 = time.perf_counter()
    corpus = list(generate_corpus(10_000, seed=7))
    annotator = ComplexityAnnotator().fit(corpus)
    pairs = list(enumerate(corpus))
    annotate_chunk(pairs[:64], annotator, False)  # warm-up

    t1 = time.perf_counter()
    for chunk in chunked(pairs, 256):
        annotate_chunk(chunk, annotator, False)
    t2 = time.perf_counter()
    single = len(pairs) / (t2 - t1)

    ok_single = single >= 2308.0
    detail = f"single-thread {single:,.0f} mol/s (target 2,308)"

    cores = os.cpu_count() or 1
    if cores >= 8:
        import io

        t3 = time.perf_counter()
        run_annotate(iter(pairs), annotator, io.StringIO(), workers=8,
                     chunk_size=256)
        t4 = time.perf_counter()
        multi = len(pairs) / (t4 - t3)
        efficiency = (multi / single) / 8
        ok = ok_single and efficiency >= 0.5
        detail += f"; 8-worker efficiency {efficiency:.2f} (target 0.50)"
        elapsed = time.perf_counter() - t0
        record(8, "descriptor throughput", ok and elapsed < 120.0,
               detail + f" in {elapsed:.1f}s")
    else:
        elapsed = time.perf_counter() - t0
        record(8, "descriptor throughput (single-thread half)",
               ok_single and elapsed < 120.0, detail + f" in {elapsed:.1f}s")
        pytest.skip(
            f"8-worker efficiency >= 0.5 needs >= 8 CPU cores; host has "
            f"{cores}, capping theoretical efficiency at {cores}/8 = "
            f"{cores / 8:.2f}"
        )


def test_criterion_8b_parallel_sanity_at_available_cores():
    # scaled-down stand-in for the 8-worker check on small hosts: the pool
    # path must beat the serial path at the native core count
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip("needs at least 2 cores")
    import io

    corpus = list(enumerate(generate_corpus(10_000, seed=8)))
    annotator = ComplexityAnnotator().fit(s for _, s in corpus)
    annotate_chunk(corpus[:64], annotator, False)
    t0 = time.perf_counter()
    for chunk in chunked(corpus, 256):
        annotate_chunk(chunk, annotator, False)
    t1 = time.perf_counter()
    run_annotate(iter(corpus), annotator, io.StringIO(),
                 workers=min(8, cores), chunk_size=256)
    t2 = time.perf_counter()
    speedup = (t1 - t0) / (t2 - t1)
    assert speedup > 1.1, f"parallel speedup only {speedup:.2f}x"


def test_criterion_9_mixed_schedule_statistics():
    n = 100_000
    index = TierIndex({3: range(n)})
    spec = ScheduleSpec("mixed", 10, 0.1, seed=31337)
    epoch0 = sample_epoch(index, spec, 0)
    epoch9 = sample_epoch(index, spec, 9)
    sigma = (n * 0.1 * 0.9) ** 0.5
    dev = abs(epoch0.size - 10_000)
    ok = dev <= 3 * sigma and epoch9.size == n
    record(9, "mixed-schedule sampling statistics", ok,
           f"epoch0 {epoch0.size} (exp 10,000, 3-sigma {3 * sigma:.0f}), "
           f"epoch9 {epoch9.size}/{n}")


def test_criterion_10_parser_fuzz_and_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(0xF00D)
    crashes = 0
    for _ in range(1_000_000):
        text = rng.randbytes(rng.randrange(0, 48)).decode("latin-1")
        try:
            parse_smiles(text)
        except SmilesError:
            pass
        except Exception:
            crashes += 1
    round_trip_failures = 0
    for smiles in generate_corpus(10_000, seed=2024):
        g1 = parse_smiles(smiles)
        text, order = write_smiles_mapped(g1)
        try:
            assert_isomorphic(g1, parse_smiles(text), order)
        except AssertionError:
            round_trip_failures += 1
    elapsed = time.perf_counter() - t0
    ok = crashes == 0 and round_trip_failures == 0 and elapsed < 300.0
    record(10, "parser fuzz + corpus round-trip", ok,
           f"1,000,000 fuzz strings, 0 crashes expected (got {crashes}); "
           f"10,000 round-trips, {round_trip_failures} failures; "
           f"{elapsed:.1f}s")
