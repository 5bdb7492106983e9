"""The three workloads: corpus-annotate, online-annotate and curriculum.

Each workload sets up its seeded inputs several times (setup_s is the
median), runs its measured loop for the given seconds, checks every output,
and in a traced run adds the per-layer probes on its own inputs.

Every workload reports the same four end-to-end metrics, each read in its
own terms:

    metric            corpus-annotate      online-annotate   curriculum
    throughput_per_s  molecules written /  requests / s      manifest ids /
                      command wall                           command wall
    latency_p50_ms    whole command        one request       one loss step
    peak_rss_mb       annotate process     client process    max(client, median
                      tree (pool incl.)                      schedule tree)
    setup_s           median of repeated set-ups of the workload's inputs

Times and rates are scaled to nominal host speed (harness.HostSpeed); the
raw values are printed in the report lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from moltiers.featurizer import RECORD_FIELDS, ComplexityAnnotator
from moltiers.pipeline import fit_prevalence_streaming, iter_input
from moltiers.tiering import TIERS

import inputs
import layers
from harness import (
    HostSpeed,
    Outcomes,
    Tracer,
    median,
    nproc,
    percentile,
    run_command,
    self_peak_rss_kb,
    tail_percentile,
)

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
MIXED_SIGMAS = 5.0           # an exact sampler exceeds 3 sigma on ~0.3% of seeds
CORPUS_VALID = 2500          # valid molecules in the corpus-annotate file
ONLINE_POOL = 5000           # unique molecules requests are drawn from
ONLINE_STREAM = 60_000       # pre-drawn request indices, cycled if exhausted
ONLINE_SEGMENT = 1000        # requests between popularity re-rankings
ONLINE_MAX_REQUESTS = 1 << 20  # latency buffer size; the loop stops when full
CURRICULUM_TOTAL = 25_000    # annotated records (paper tier counts / 40)
LOSS_STEPS_PER_ROUND = 40
MOLECULE_SAMPLE = 400        # molecules in the traced per-molecule pass
PIPELINE_SAMPLE = 1000       # molecules in the pipeline-stage probe

DIGESTS = Path(__file__).with_name("digests.json")
ANNOTATE_LOG = re.compile(r"annotated (\d+) molecules \(skipped (\d+) malformed\)")


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    outcomes: Outcomes = field(default_factory=Outcomes)
    host: HostSpeed = field(default_factory=HostSpeed)
    setup_host: HostSpeed = field(default_factory=HostSpeed)
    tracer: Tracer = field(init=False)
    report: list[tuple[str, float, str]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tracer = Tracer(self.trace)

    def env(self) -> dict:
        src = str(self.root / "src")
        old = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "moltiers.cli", *args]

    def note(self, name: str, value: float, unit: str) -> None:
        self.report.append((name, value, unit))

    def end_to_end(self, setup_s: float, peak_rss_mb: float, rate: float,
                   p50_s: float) -> dict:
        """End-to-end metrics at nominal host speed; raw values go to the report."""
        f = self.host.factor
        self.note("host.speed_factor", f, "ratio")
        self.note("host.setup_speed_factor", self.setup_host.factor, "ratio")
        self.note("raw.setup_s", setup_s, "s")
        self.note("raw.throughput_per_s", rate, "1/s")
        self.note("raw.latency_p50_ms", p50_s * 1000.0, "ms")
        self.meta["host_ref_s"] = [round(s, 6) for s in self.host.samples]
        return {
            "setup_s": setup_s / self.setup_host.factor,
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": rate * f,
            "latency_p50_ms": p50_s * 1000.0 / f,
        }

    def host_layers(self) -> dict:
        return {"host.ref_ms": median(self.host.samples) * 1000.0}


def timed_setup(run: Run, fn):
    """Run set-up at least SETUP_MIN_REPEATS times and until SETUP_MIN_S has
    passed, sampling host speed after each; keep the last result and return
    the median time."""
    times: list[float] = []
    while (len(times) < SETUP_MIN_REPEATS
           or sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        run.setup_host.sample()
    return result, median(times)


def latency_notes(run: Run, prefix: str, values_us: list[float]) -> None:
    """Median plus the highest percentile with ten samples beyond it."""
    run.note(f"{prefix}_p50_us", median(values_us), "us")
    tail = tail_percentile(len(values_us))
    if tail is not None:
        label = f"{tail:g}".replace(".", "_")
        run.note(f"{prefix}_p{label}_us", percentile(values_us, tail), "us")
    run.note(f"{prefix}_samples", len(values_us), "count")
    run.meta.setdefault("percentile_samples", {})[prefix] = len(values_us)


# -- corpus-annotate --------------------------------------------------------

def check_corpus_output(data: bytes, lines: list[str], injected: int,
                        skipped: int | None, reference: ComplexityAnnotator,
                        check_ids: list[int], digest: str | None) -> list[str]:
    """Problems with one annotate output; empty when it is correct.

    The records for `check_ids` must match, byte for byte, a single-process
    annotate_one -> record_to_dict -> dumps_record under the reference
    annotator's prevalence table.
    """
    from moltiers.pipeline import dumps_record
    from moltiers.featurizer import record_to_dict

    problems = []
    valid_ids = [i for i, line in enumerate(lines) if line not in inputs.MALFORMED]
    out_lines = data.decode("utf-8").splitlines()
    if len(out_lines) != len(valid_ids):
        problems.append(f"wrote {len(out_lines)} records for {len(valid_ids)} valid lines")
    if skipped != injected:
        problems.append(f"skipped {skipped}, injected {injected} malformed")
    ids = []
    for k, text in enumerate(out_lines):
        try:
            row = json.loads(text)
        except ValueError:
            problems.append(f"output line {k} is not JSON")
            continue
        if tuple(row) != RECORD_FIELDS:
            problems.append(f"output line {k} fields out of RECORD_FIELDS order")
        mol_id = row.get("id")
        ids.append(mol_id)
        if not (isinstance(mol_id, int) and 0 <= mol_id < len(lines)
                and row.get("smiles") == lines[mol_id]):
            problems.append(f"output line {k} smiles does not match its id")
    if ids != valid_ids:
        problems.append("ids not in input order")
    by_id = dict(zip(ids, out_lines))
    for mol_id in check_ids:
        record, label = reference.annotate_one(lines[mol_id])
        expected = dumps_record(record_to_dict(mol_id, lines[mol_id], record, label))
        if by_id.get(mol_id) != expected:
            problems.append(f"record {mol_id} differs from the in-process reference")
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        problems.append("output digest differs from the stored digest")
    return problems


def stored_digest(workload: str, seed: int, size: int) -> str | None:
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if entry and entry["seed"] == seed and entry["size"] == size:
        return entry["sha256"]
    return None


def corpus_annotate(run: Run) -> tuple[dict, dict]:
    workers = nproc()
    corpus = run.work / "corpus.smi"

    def setup():
        lines, injected = inputs.corpus_lines(CORPUS_VALID, run.seed)
        inputs.write_lines(corpus, lines)
        return lines, injected

    (lines, injected), setup_s = timed_setup(run, setup)
    run.meta.update(input_lines=len(lines), malformed_injected=injected,
                    workers=workers)

    argv = run.cli("annotate", "--input", corpus.name, "--output", "out.jsonl",
                   "--workers", str(workers))
    commands = []  # (ok, wall_s, written, peak_kb, (sha256, skipped))
    outputs: dict[tuple[str, int | None], bytes] = {}
    run.host.sample()
    deadline = time.perf_counter() + run.seconds
    while True:
        (run.work / "out.jsonl").unlink(missing_ok=True)
        span = run.tracer.begin("command.annotate", req=len(commands))
        res = run_command(argv, run.env(), run.work)
        run.tracer.end(span)
        data = (run.work / "out.jsonl").read_bytes() if res.returncode == 0 else b""
        found = ANNOTATE_LOG.search(res.stderr)
        skipped = int(found.group(2)) if found else None
        key = (hashlib.sha256(data).hexdigest(), skipped)
        outputs.setdefault(key, data)
        commands.append((res.returncode == 0, res.wall_s, data.count(b"\n"),
                         res.peak_rss_kb, key))
        run.host.sample()
        if time.perf_counter() >= deadline:
            break

    reference = ComplexityAnnotator()
    fit_prevalence_streaming(iter_input(corpus), reference)
    valid_ids = [i for i, line in enumerate(lines) if line not in inputs.MALFORMED]
    expected_digest = stored_digest(run.workload, run.seed, CORPUS_VALID)
    problems = {
        key: check_corpus_output(data, lines, injected, key[1], reference,
                                 valid_ids, expected_digest)
        for key, data in outputs.items()
    }
    for ok, _, _, _, key in commands:
        bad = problems[key]
        run.outcomes.record(ok and not bad, "; ".join(bad[:3]) or "command failed")
    run.meta["digest_checked"] = expected_digest is not None

    good = [c for c in commands if c[0]]
    walls = [c[1] for c in good] or [float("nan")]
    rate = sum(c[2] for c in good) / sum(walls) if good else float("nan")
    rss_mb = median([c[3] for c in good]) / 1024.0 if good else float("nan")
    run.meta["command_walls_s"] = [round(c[1], 4) for c in commands]
    run.note("corpus_mol_per_s", rate, "mol/s")
    run.note("commands", len(commands), "count")
    run.meta["percentile_samples"] = {"command_wall": len(walls)}
    e2e = run.end_to_end(setup_s, rss_mb, rate, median(walls))
    if not run.trace:
        return e2e, {}

    pairs = list(iter_input(corpus))
    sample = sorted(random.Random(run.seed + 1).sample(pairs, MOLECULE_SAMPLE))
    per_layer = layers.molecule_layers(sample, reference, run.tracer)
    per_layer.update(layers.pipeline_layers(pairs, workers, run.tracer))
    per_layer.update(layers.scheduler_layers(run.work / "out.jsonl", run.seed,
                                             run.work, run.tracer))
    per_layer.update(layers.loss_layers(run.seed, run.tracer))
    valid = [line for line in lines if line not in inputs.MALFORMED]
    per_layer["input.duplicate_share"] = 1.0 - len(set(valid)) / len(valid)
    per_layer["input.repeat_share"] = per_layer["input.duplicate_share"]
    per_layer.update(run.host_layers())
    return e2e, per_layer


# -- online-annotate --------------------------------------------------------

def online_annotate(run: Run) -> tuple[dict, dict]:
    def setup():
        pool = inputs.unique_smiles(ONLINE_POOL, random.Random(run.seed))
        annotator = ComplexityAnnotator().fit(pool)
        stream = inputs.zipf_stream(ONLINE_POOL, ONLINE_STREAM, run.seed + 1,
                                    ONLINE_SEGMENT)
        return pool, annotator, stream

    (pool, annotator, stream), setup_s = timed_setup(run, setup)
    run.meta.update(pool_size=len(pool), zipf_s=inputs.ZIPF_S, clients=1,
                    loop="closed", rerank_every=ONLINE_SEGMENT)

    tracer = run.tracer
    first: dict[str, dict] = {}
    # preallocated, so the client's own memory does not grow with request rate
    latencies_ns = array("q", bytes(8 * ONLINE_MAX_REQUESTS))
    requested: set[int] = set()
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(run.seconds * 1e9)
    reference_ns = 0
    k = 0
    while k < ONLINE_MAX_REQUESTS and clock() < deadline:
        if k % ONLINE_SEGMENT == 0:
            reference_ns += int(run.host.sample() * 1e9)
        smiles = pool[stream[k % ONLINE_STREAM]]
        span = tracer.begin("request", req=k)
        t0 = clock()
        try:
            out = tracer.call("featurizer.transform", annotator.transform, [smiles])
        except Exception as exc:  # a raising request is a failed operation
            out = exc
        t1 = clock()
        tracer.end(span)
        latencies_ns[k] = t1 - t0
        requested.add(stream[k % ONLINE_STREAM])
        run.outcomes.record(*check_online_result(out, smiles, first))
        k += 1
    wall_s = (clock() - start - reference_ns) / 1e9
    rss_mb = self_peak_rss_kb() / 1024.0

    latencies_us = [ns / 1000.0 for ns in latencies_ns[:k]]
    repeat_share = 1.0 - len(requested) / k
    rate = len(latencies_us) / wall_s
    run.note("requests_per_s", rate, "1/s")
    latency_notes(run, "request", latencies_us)
    run.note("input.repeat_share", repeat_share, "ratio")
    e2e = run.end_to_end(setup_s, rss_mb, rate, median(latencies_us) / 1e6)
    if not run.trace:
        return e2e, {}

    sample = [(i, pool[stream[i]]) for i in range(MOLECULE_SAMPLE)]
    per_layer = layers.molecule_layers(sample, annotator, run.tracer)
    per_layer.update(layers.pipeline_layers(list(enumerate(pool[:PIPELINE_SAMPLE])),
                                            nproc(), run.tracer))
    annotated = run.work / "online.jsonl"
    with open(annotated, "w", encoding="utf-8") as fh:
        for idx in sorted(requested):
            if pool[idx] in first:
                row = dict(first[pool[idx]], id=idx)
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    per_layer.update(layers.scheduler_layers(annotated, run.seed, run.work, run.tracer))
    per_layer.update(layers.loss_layers(run.seed, run.tracer))
    per_layer["input.duplicate_share"] = 1.0 - len(set(pool)) / len(pool)
    per_layer["input.repeat_share"] = repeat_share
    per_layer.update(run.host_layers())
    return e2e, per_layer


def check_online_result(out, smiles: str, first: dict[str, dict]) -> tuple[bool, str]:
    """One request's result: a single well-formed record, identical to the
    first answer for the same SMILES."""
    if not isinstance(out, list) or len(out) != 1:
        return False, f"request for {smiles!r} returned {out!r:.80}"
    row = out[0]
    if tuple(row) != RECORD_FIELDS:
        return False, "record fields out of RECORD_FIELDS order"
    if row["tier"] not in TIERS:
        return False, f"tier {row['tier']!r} outside T0-T4"
    if row["smiles"] != smiles:
        return False, "record smiles differs from the request"
    seen = first.setdefault(smiles, row)
    if seen is not row and seen != row:
        return False, f"repeated request for {smiles!r} changed its record"
    return True, ""


# -- curriculum -------------------------------------------------------------

def manifest_sizes(outdir: Path) -> list[int]:
    sizes = []
    for e in range(layers.EPOCHS):
        path = outdir / f"manifest_epoch_{e:03d}.jsonl"
        sizes.append(path.read_bytes().count(b"\n") if path.exists() else -1)
    return sizes


# The paper's staged10 tier sets, independent of the package's own table.
STAGED10_TIERS = ((0, 1),) * 3 + ((0, 1, 2),) * 2 + ((0, 1, 2, 3),) * 3 \
    + ((0, 1, 2, 3, 4),) * 2


def mixed_expectation(counts: list[int]) -> tuple[Fraction, float]:
    """Exact expected mixed total and its standard deviation: T0-T1 always
    in, T2-T4 each kept with probability 0.1 + 0.9 * e / 9 at epoch e."""
    simple, complex_ = sum(counts[:2]), sum(counts[2:])
    mean = Fraction(0)
    var = Fraction(0)
    for e in range(layers.EPOCHS):
        rho = Fraction(1, 10) + Fraction(9, 10) * Fraction(e, layers.EPOCHS - 1)
        mean += simple + complex_ * rho
        var += complex_ * rho * (1 - rho)
    return mean, float(var) ** 0.5


def check_schedule(regime: str, sizes: list[int], counts: list[int],
                   seed: int) -> list[str]:
    """Manifest sizes against budgets worked out here, and against the
    package's own budget()."""
    if min(sizes) < 0:
        return [f"{regime}: manifest missing"]
    total = sum(sizes)
    reported = layers.budget_exact(counts, regime, seed)
    if regime == "mixed":
        mean, sigma = mixed_expectation(counts)
        problems = []
        if reported != mean:
            problems.append(f"mixed budget() {reported} != expected {mean}")
        if abs(total - mean) > MIXED_SIGMAS * sigma:
            problems.append(f"mixed total {total} beyond {MIXED_SIGMAS:g} sigma "
                            f"({sigma:.1f}) of {mean}")
        if sizes[-1] != sum(counts):
            problems.append(f"mixed last epoch {sizes[-1]} ids, expected {sum(counts)}")
        return problems
    want = [sum(counts[t] for t in tiers) for tiers in STAGED10_TIERS]
    problems = [f"{regime} epoch {e}: {size} ids, expected {w}"
                for e, (size, w) in enumerate(zip(sizes, want)) if size != w]
    if total != reported or reported != sum(want):
        problems.append(f"{regime} total {total}, budget() {reported}, "
                        f"expected {sum(want)}")
    return problems


def curriculum(run: Run) -> tuple[dict, dict]:
    annotated = run.work / "annotated.jsonl"
    (counts, smiles), setup_s = timed_setup(
        run, lambda: inputs.write_annotated(annotated, CURRICULUM_TOTAL, run.seed))
    run.meta.update(records=CURRICULUM_TOTAL, tier_counts=counts,
                    loss_batch=layers.LOSS_BATCH, loss_dim=layers.LOSS_DIM,
                    loss_steps_per_round=LOSS_STEPS_PER_ROUND)
    x = layers.loss_inputs(run.seed)
    tracer = run.tracer

    rounds = []  # per round: {regime: (ok, wall, ids, peak_kb)}
    step_ms: list[float] = []
    loss_walls: list[float] = []
    deadline = time.perf_counter() + run.seconds
    while True:
        r = len(rounds)
        result = {}
        for regime in ("staged10", "mixed"):
            outdir = run.work / f"schedule_{regime}"
            shutil.rmtree(outdir, ignore_errors=True)
            argv = run.cli("schedule", "--annotated", annotated.name,
                           "--regime", regime, "--epochs", str(layers.EPOCHS),
                           "--seed", str(run.seed), "--output-dir", outdir.name)
            span = tracer.begin(f"command.schedule_{regime}", req=r)
            res = run_command(argv, run.env(), run.work)
            tracer.end(span)
            sizes = manifest_sizes(outdir)
            bad = [] if res.returncode == 0 else [f"{regime} exit {res.returncode}"]
            bad += check_schedule(regime, sizes, counts, run.seed)
            run.outcomes.record(not bad, "; ".join(bad[:3]))
            result[regime] = (not bad, res.wall_s, sum(sizes), res.peak_rss_kb)
            run.host.sample()
        rounds.append(result)
        t_loss = time.perf_counter()
        for _ in range(LOSS_STEPS_PER_ROUND):
            span = tracer.begin("losses.step", req=r)
            t0 = time.perf_counter_ns()
            ok = layers.loss_step(x, tracer)
            step_ms.append((time.perf_counter_ns() - t0) / 1e6)
            tracer.end(span)
            run.outcomes.record(ok, "non-finite loss or gradient")
        loss_walls.append(time.perf_counter() - t_loss)
        run.host.sample()
        run.outcomes.record(layers.correlation(x, run.seed, tracer),
                            "correlation outside [-1, 1] or not finite")
        if time.perf_counter() >= deadline:
            break

    def rate(regimes) -> float:
        """Manifest ids written per second of schedule-command wall time."""
        ok = [rd[g] for rd in rounds for g in regimes if rd[g][0]]
        return sum(c[2] for c in ok) / sum(c[1] for c in ok) if ok else float("nan")

    mean, sigma = mixed_expectation(counts)
    run.note("mixed_total_max_abs_z",
             max(abs(rd["mixed"][2] - mean) / sigma for rd in rounds), "sigma")
    ids_rate = rate(("staged10", "mixed"))
    run.meta["command_walls_s"] = [[round(rd[g][1], 4) for g in rd] for rd in rounds]
    run.note("staged10_ids_per_s", rate(("staged10",)), "1/s")
    run.note("mixed_ids_per_s", rate(("mixed",)), "1/s")
    run.note("loss_steps_per_s", len(step_ms) / sum(loss_walls), "1/s")
    latency_notes(run, "loss_step", [ms * 1000.0 for ms in step_ms])
    run.note("rounds", len(rounds), "count")
    peaks = [rd[g][3] for rd in rounds for g in rd if rd[g][0]]
    rss_kb = max(self_peak_rss_kb(), median(peaks) if peaks else 0)
    e2e = run.end_to_end(setup_s, rss_kb / 1024.0, ids_rate, median(step_ms) / 1000.0)
    if not run.trace:
        return e2e, {}

    rng = random.Random(run.seed + 1)
    sample = sorted(rng.sample(list(enumerate(smiles)), MOLECULE_SAMPLE))
    fit_on = [s for _, s in sample]
    annotator = ComplexityAnnotator().fit(fit_on)
    per_layer = layers.molecule_layers(sample, annotator, run.tracer)
    per_layer.update(layers.pipeline_layers(
        list(enumerate(smiles[:PIPELINE_SAMPLE])), nproc(), run.tracer))
    per_layer.update(layers.scheduler_layers(annotated, run.seed, run.work, run.tracer))
    per_layer.update(layers.loss_layers(run.seed, run.tracer))
    per_layer["input.duplicate_share"] = 1.0 - len(set(smiles)) / len(smiles)
    per_layer["input.repeat_share"] = 0.0
    per_layer.update(run.host_layers())
    return e2e, per_layer


WORKLOADS = {
    "corpus-annotate": corpus_annotate,
    "online-annotate": online_annotate,
    "curriculum": curriculum,
}
