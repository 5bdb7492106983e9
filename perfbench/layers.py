"""Per-layer probes for the traced run.

Every probe times calls into the package's public functions from outside,
one span per call, so the per-layer numbers need no tracing inside the
package.  Each workload runs every probe on its own inputs.  Probes read
their timings back from the spans, so they need an enabled tracer.
"""

from __future__ import annotations

import io
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from moltiers.descriptors import (
    DescriptorRecord,
    aromatic_substitution_complexity,
    bertz_ct,
    conjugation_extent,
    fg_rarity,
    scaffold_decoration,
)
from moltiers.errors import SmilesError
from moltiers.featurizer import ComplexityAnnotator, record_to_dict
from moltiers.fgroups import default_library, present_groups
from moltiers.graph import perceive_aromaticity, ring_info, structural_counts
from moltiers.losses import (
    LinearMap,
    hybrid_loss,
    l2_normalize_rows,
    nt_xent,
    pairwise_distance_correlation,
    siglip_loss,
)
from moltiers.pipeline import (
    dumps_record,
    fit_prevalence_streaming,
    read_annotated,
    run_annotate,
)
from moltiers.scheduler import (
    ScheduleSpec,
    TierIndex,
    budget,
    sample_epoch,
    tier_weights_mixed,
)
from moltiers.smiles import parse_smiles
from moltiers.tiering import TIERS, assign_tier

from harness import Tracer, median

EPOCHS = 10
HARD_START = 0.1

# span name -> per-layer metric, reported as mean self time per call in us
MOLECULE_SPANS = {
    "smiles.parse": "smiles.parse_us",
    "graph.ring_info": "graph.ring_info_us",
    "graph.aromaticity": "graph.aromaticity_us",
    "graph.counts": "graph.counts_us",
    "fgroups.present_groups": "fgroups.present_groups_us",
    "descriptors.d_scaf": "descriptors.d_scaf_us",
    "descriptors.rarity": "descriptors.rarity_us",
    "descriptors.conjugation": "descriptors.conjugation_us",
    "descriptors.arom_sub": "descriptors.arom_sub_us",
    "descriptors.bertz_ct": "descriptors.bertz_ct_us",
    "tiering.assign": "tiering.assign_us",
    "featurizer.annotate_one": "featurizer.annotate_one_us",
    "featurizer.transform": "featurizer.transform_us",
    "pipeline.serialize": "pipeline.serialize_us",
}

LOSS_BATCH = 256
LOSS_DIM = 128
CORRELATION_PAIRS = 2000


def _serialize(mol_id, smiles, record, label) -> str:
    return dumps_record(record_to_dict(mol_id, smiles, record, label))


def _one_molecule(tracer: Tracer, req: int, smiles: str, annotator, library):
    """Every per-molecule public call for one input, each timed on its own.

    Returns (graph, ring info, groups), or None when the SMILES is rejected.
    """
    call = tracer.call
    root = tracer.begin("molecule", req)
    try:
        try:
            graph = call("smiles.parse", parse_smiles, smiles)
        except SmilesError:
            return None
        rings = call("graph.ring_info", ring_info, graph)
        mol = call("graph.aromaticity", perceive_aromaticity, graph, rings)
        counts = call("graph.counts", structural_counts, mol)
        groups = call("fgroups.present_groups", present_groups, mol, library)
        record = DescriptorRecord(
            d_scaf=call("descriptors.d_scaf", scaffold_decoration, mol, rings),
            rarity=call("descriptors.rarity", fg_rarity, mol,
                        annotator.prevalence_, library, groups),
            conjugation=call("descriptors.conjugation", conjugation_extent, mol),
            arom_sub=call("descriptors.arom_sub", aromatic_substitution_complexity,
                          mol, rings),
            bertz_ct=call("descriptors.bertz_ct", bertz_ct, mol),
            counts=counts,
            n_fg=len(groups),
            fg_names=groups,
        )
        call("tiering.assign", assign_tier, record, annotator.top_groups_,
             annotator.tier_config())
        full, label = call("featurizer.annotate_one", annotator.annotate_one, smiles)
        call("featurizer.transform", annotator.transform, [smiles])
        call("pipeline.serialize", _serialize, req, smiles, full, label)
        return graph, rings, groups
    finally:
        tracer.end(root)


def molecule_layers(sample: list[tuple[int, str]], annotator: ComplexityAnnotator,
                    tracer: Tracer) -> dict[str, float]:
    """Per-molecule layer times, work counts and the tracing overhead.

    Each molecule runs once untraced and once traced, back to back in
    alternating order, so drift in machine speed cancels out of the overhead:
    the traced runs' extra wall time as a share of the untraced runs'.
    """
    library = default_library()
    quiet = Tracer(False)
    for req, smiles in sample[:50]:
        _one_molecule(quiet, req, smiles, annotator, library)
    first_span = len(tracer.spans)
    clock = time.perf_counter_ns
    untraced = traced = 0
    atoms = bonds = rings_found = groups_found = parsed = 0
    for k, (req, smiles) in enumerate(sample):
        order = (quiet, tracer) if k % 2 == 0 else (tracer, quiet)
        for t in order:
            t0 = clock()
            found = _one_molecule(t, req, smiles, annotator, library)
            if t is tracer:
                traced += clock() - t0
            else:
                untraced += clock() - t0
        if found is None:
            continue
        graph, rings, groups = found
        parsed += 1
        atoms += len(graph.atoms)
        bonds += len(graph.bonds)
        rings_found += len(rings.rings)
        groups_found += len(groups)
    sums = tracer.totals(first_span)
    out = {}
    for span_name, metric in MOLECULE_SPANS.items():
        n, total = sums.get(span_name, (0, 0))
        out[metric] = total / n / 1000.0 if n else 0.0
    per = max(parsed, 1)
    out.update({
        "smiles.atoms_per_mol": atoms / per,
        "smiles.bonds_per_mol": bonds / per,
        "graph.rings_per_mol": rings_found / per,
        "fgroups.groups_per_mol": groups_found / per,
        "fgroups.hit_ratio": groups_found / (per * len(library)),
        "smiles.error_frac": (len(sample) - parsed) / max(len(sample), 1),
        "trace.overhead_frac": traced / untraced - 1.0,
    })
    return out


def pipeline_layers(pairs: list[tuple[int, str]], workers: int,
                    tracer: Tracer) -> dict[str, float]:
    """Two-phase pipeline stages: streaming fit, pool annotate, and the
    single-process annotate that is the parallel-efficiency base."""
    annotator = ComplexityAnnotator()
    span = tracer.begin("pipeline.fit")
    fit_prevalence_streaming(iter(pairs), annotator)
    tracer.end(span)
    fit_s = _last_duration(tracer)
    span = tracer.begin("pipeline.annotate_pool")
    pool = run_annotate(iter(pairs), annotator, io.StringIO(), workers=workers)
    tracer.end(span)
    pool_s = _last_duration(tracer)
    span = tracer.begin("pipeline.annotate_single")
    single = run_annotate(iter(pairs), annotator, io.StringIO(), workers=1)
    tracer.end(span)
    single_s = _last_duration(tracer)
    pool_rate = pool.written / pool_s
    single_rate = single.written / single_s
    return {
        "pipeline.fit_s": fit_s,
        "pipeline.annotate_s": pool_s,
        "pipeline.serial_share": fit_s / (fit_s + pool_s),
        "pipeline.pool_mol_per_s": pool_rate,
        "pipeline.single_mol_per_s": single_rate,
        "pipeline.parallel_efficiency": pool_rate / (single_rate * workers),
    }


def _last_duration(tracer: Tracer) -> float:
    span = tracer.spans[-1]
    return (span[2] - span[1]) / 1e9


def mixed_draws(counts, epochs: int = EPOCHS, hard_start: float = HARD_START) -> int:
    """Hash draws the mixed regime makes: one per molecule of every tier whose
    inclusion probability lies strictly between 0 and 1, per epoch."""
    draws = 0
    for e in range(epochs):
        weights = tier_weights_mixed(e, epochs, hard_start)
        draws += sum(c for c, w in zip(counts, weights) if 0.0 < w < 1.0)
    return draws


def write_manifest(path: Path, epoch: int, regime: str, ids) -> None:
    """The schedule command's manifest line format, one JSON object per id."""
    with open(path, "w", encoding="utf-8") as fh:
        for mol_id in ids:
            fh.write(json.dumps({"epoch": epoch, "regime": regime, "id": mol_id},
                                separators=(",", ":")) + "\n")


def scheduler_layers(annotated: Path, seed: int, workdir: Path,
                     tracer: Tracer) -> dict[str, float]:
    """Schedule stages on an annotated JSONL, in the order the schedule
    command runs them; manifest writing replays the command's line format."""
    def timed(name, fn, *args):
        result = tracer.call(name, fn, *args)
        return result, _last_duration(tracer)

    rows, read_s = timed("pipeline.read_annotated",
                         lambda: list(read_annotated(annotated)))
    index, index_s = timed("scheduler.index_build", lambda: TierIndex.from_pairs(
        (int(r["id"]), TIERS.index(r["tier"])) for r in rows))
    counts = index.counts()
    specs = {
        "staged10": ScheduleSpec("staged10", EPOCHS, HARD_START, seed),
        "mixed": ScheduleSpec("mixed", EPOCHS, HARD_START, seed),
    }
    _, budget_s = timed("scheduler.budget",
                        lambda: [budget(counts, spec) for spec in specs.values()])
    out = {
        "pipeline.read_annotated_s": read_s,
        "scheduler.index_build_s": index_s,
        "scheduler.budget_ms": budget_s * 1000.0,
        "scheduler.draws": float(mixed_draws(counts)),
    }
    write_s = 0.0
    for regime, spec in specs.items():
        manifests, sample_s = timed(
            f"scheduler.sample_{regime}",
            lambda: [sample_epoch(index, spec, e) for e in range(EPOCHS)])
        out[f"scheduler.sample_{regime}_s"] = sample_s
        for m in manifests:
            path = workdir / f"probe_{regime}_{m.epoch:03d}.jsonl"
            _, dt = timed("scheduler.manifest_write", write_manifest,
                          path, m.epoch, regime, m.sampled_ids)
            write_s += dt
    out["scheduler.manifest_write_s"] = write_s
    return out


# -- loss kernels -----------------------------------------------------------

def loss_inputs(seed: int) -> dict:
    """Seeded unit-norm student/teacher rows and the hybrid maps."""
    rng = np.random.default_rng(seed)
    n, d = LOSS_BATCH, LOSS_DIM
    return {
        "v1": l2_normalize_rows(rng.standard_normal((n, d))),
        "v2": l2_normalize_rows(rng.standard_normal((n, d))),
        "proj": LinearMap(rng.standard_normal((d, d)) / np.sqrt(d), np.zeros(d)),
        "head": LinearMap(rng.standard_normal((1, d)) / np.sqrt(d), np.zeros(1)),
        "y": rng.standard_normal(n),
    }


def loss_step(x: dict, tracer: Tracer) -> bool:
    """One training step's kernels with gradients; True when all finite."""
    a = tracer.call("losses.nt_xent", nt_xent, x["v1"], x["v2"])
    b = tracer.call("losses.siglip", siglip_loss, x["v1"], x["v2"])
    c = tracer.call("losses.hybrid", hybrid_loss, x["v1"], x["v2"], x["proj"],
                    x["head"], x["y"])
    arrays = (a.grad_v1, a.grad_v2, b.grad_v, b.grad_t, c.grad_v,
              c.grad_proj_weight, c.grad_proj_bias, c.grad_head_weight,
              c.grad_head_bias)
    scalars = (a.loss, b.loss, b.grad_scale, b.grad_bias, c.loss)
    return bool(np.isfinite(scalars).all()
                and all(np.isfinite(arr).all() for arr in arrays))


def correlation(x: dict, seed: int, tracer: Tracer) -> bool:
    rho, r = tracer.call("losses.correlation", pairwise_distance_correlation,
                         x["v1"], x["v2"], CORRELATION_PAIRS, seed)
    return all(np.isfinite(v) and -1.0 <= v <= 1.0 for v in (rho, r))


def _matmul_cost(shapes) -> tuple[int, int]:
    """(flops, float64 bytes read and written) of (m, k, n) matmuls."""
    flops = sum(2 * m * k * n for m, k, n in shapes)
    moved = sum(8 * (m * k + k * n + m * n) for m, k, n in shapes)
    return flops, moved


def loss_step_cost(n: int = LOSS_BATCH, d: int = LOSS_DIM) -> tuple[int, int]:
    """Computed matmul cost of one step: similarity plus two gradient
    products in each of nt_xent and siglip, and in hybrid the projection,
    its inner siglip, the head and the two weight gradients."""
    pairwise = [(n, d, n), (n, n, d), (n, n, d)]
    hybrid = [(n, d, d)] + pairwise + [(n, d, 1), (1, n, d), (d, n, d)]
    return _matmul_cost(pairwise + pairwise + hybrid)


def loss_layers(seed: int, tracer: Tracer, steps: int = 20) -> dict[str, float]:
    x = loss_inputs(seed)
    quiet = Tracer(False)
    for _ in range(2):
        loss_step(x, quiet)
        correlation(x, seed, quiet)
    first_span = len(tracer.spans)
    for step in range(steps):
        span = tracer.begin("losses.step", req=step)
        loss_step(x, tracer)
        tracer.end(span)
    correlation(x, seed, tracer)
    times: dict[str, list[float]] = {}
    for span in tracer.spans[first_span:]:
        times.setdefault(span[0], []).append((span[2] - span[1]) / 1e6)
    flops, moved = loss_step_cost()
    return {
        "losses.nt_xent_ms": median(times["losses.nt_xent"]),
        "losses.siglip_ms": median(times["losses.siglip"]),
        "losses.hybrid_ms": median(times["losses.hybrid"]),
        "losses.correlation_ms": median(times["losses.correlation"]),
        "losses.flops_per_step": float(flops),
        "losses.bytes_per_step": float(moved),
    }


def budget_exact(counts, regime: str, seed: int) -> int | Fraction:
    return budget(counts, ScheduleSpec(regime, EPOCHS, HARD_START, seed))

