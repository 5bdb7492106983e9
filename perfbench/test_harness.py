"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from harness import Outcomes, Tracer, percentile, self_times_ns, tail_percentile  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_outcomes_count_failed_checks_against_attempts():
    out = Outcomes()
    for ok in (True, True, False, True):
        out.record(ok, "bad record")
    assert (out.attempted, out.failed, out.failed_frac) == (4, 1, 0.25)
    assert out.reasons == ["bad record"]
    assert Outcomes().failed_frac == 1.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["request", 0, 100, -1, 7],
        ["parse", 10, 30, 0, 7],
        ["match", 20, 50, 0, 7],     # overlaps parse: union is 10..50
        ["inner", 25, 35, 2, 7],
    ]
    assert self_times_ns(spans) == [60, 20, 20, 10]


def test_tracer_nests_spans_and_shares_the_request_id():
    tracer = Tracer(True)
    root = tracer.begin("request", req=3)
    assert tracer.call("child", lambda a, b: a + b, 1, 2) == 3
    tracer.end(root)
    (name0, s0, e0, p0, r0), (name1, s1, e1, p1, r1) = tracer.spans
    assert (name0, p0, r0) == ("request", -1, 3)
    assert (name1, p1, r1) == ("child", 0, 3)
    assert s0 <= s1 <= e1 <= e0
    assert tracer.totals()["request"][0] == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    span = tracer.begin("x")
    assert tracer.call("y", len, "abc") == 3
    tracer.end(span)
    assert tracer.spans == []


def test_host_speed_factor_is_median_reference_time_over_nominal():
    host = harness.HostSpeed()
    host.samples = [harness.REF_NOMINAL_S * f for f in (1.0, 2.0, 1.5)]
    assert host.factor == pytest.approx(1.5)
    assert host.sample() > 0 and len(host.samples) == 4


def test_metric_names_follow_the_pattern():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.check_metric_name(name) == name
    for bad in ("", "a b", "_lead", "ümlaut", "x" * 65, "semi;colon"):
        with pytest.raises(ValueError):
            harness.check_metric_name(bad)


# -- output checks ------------------------------------------------------------

def _annotated_corpus(n_valid: int = 120, seed: int = 5):
    import inputs
    from moltiers.featurizer import ComplexityAnnotator
    from moltiers.pipeline import fit_prevalence_streaming, run_annotate

    lines, injected = inputs.corpus_lines(n_valid, seed)
    pairs = list(enumerate(lines))
    annotator = ComplexityAnnotator()
    fit_prevalence_streaming(iter(pairs), annotator)
    sink = io.StringIO()
    stats = run_annotate(iter(pairs), annotator, sink, workers=1)
    assert stats.skipped == injected > 0
    return lines, injected, annotator, sink.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def corpus():
    return _annotated_corpus()


def _check(corpus, data, skipped=None, digest=None):
    import workloads

    lines, injected, annotator, _ = corpus
    ids = [json.loads(t)["id"] for t in corpus[3].decode().splitlines()]
    return workloads.check_corpus_output(
        data, lines, injected, injected if skipped is None else skipped,
        annotator, ids[::7], digest)


def test_correct_corpus_output_passes(corpus):
    import hashlib

    data = corpus[3]
    assert _check(corpus, data, digest=hashlib.sha256(data).hexdigest()) == []


def test_flipped_record_is_reported(corpus):
    rows = corpus[3].decode().splitlines()
    row = json.loads(rows[0])
    row["tier"] = "T4" if row["tier"] != "T4" else "T0"
    rows[0] = json.dumps(row, separators=(",", ":"))
    problems = _check(corpus, ("\n".join(rows) + "\n").encode())
    assert any("differs from the in-process reference" in p for p in problems)


@pytest.mark.parametrize("mutate, expect", [
    (lambda rows: rows[1:], "records for"),
    (lambda rows: [rows[1], rows[0]] + rows[2:], "input order"),
    (lambda rows: [json.dumps(dict(reversed(json.loads(rows[0]).items())))] + rows[1:],
     "RECORD_FIELDS"),
])
def test_damaged_output_is_reported(corpus, mutate, expect):
    rows = mutate(corpus[3].decode().splitlines())
    problems = _check(corpus, ("\n".join(rows) + "\n").encode())
    assert any(expect in p for p in problems), problems


def test_wrong_skip_count_and_digest_are_reported(corpus):
    problems = _check(corpus, corpus[3], skipped=corpus[1] - 1, digest="0" * 64)
    assert any("skipped" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_online_check_rejects_changed_repeat_and_bad_tier():
    import workloads
    from moltiers.featurizer import ComplexityAnnotator

    annotator = ComplexityAnnotator().fit(["CCO", "c1ccccc1O", "CC(=O)N"])
    first: dict = {}
    row = annotator.transform(["CCO"])
    assert workloads.check_online_result(row, "CCO", first) == (True, "")
    assert workloads.check_online_result(annotator.transform(["CCO"]), "CCO", first)[0]
    changed = [dict(row[0], bertz_ct=row[0]["bertz_ct"] + 1.0)]
    assert not workloads.check_online_result(changed, "CCO", first)[0]
    bad_tier = [dict(annotator.transform(["CC(=O)N"])[0], tier="T5")]
    assert not workloads.check_online_result(bad_tier, "CC(=O)N", {})[0]
    assert not workloads.check_online_result([], "CCO", {})[0]
    assert not workloads.check_online_result(ValueError("x"), "CCO", {})[0]


def test_schedule_checks_use_exact_budgets():
    import layers
    import workloads
    from moltiers.scheduler import ScheduleSpec, TierIndex, sample_epoch

    counts = [3, 40, 60, 200, 20]
    staged = [sum(counts[t] for t in tiers) for tiers in
              ((0, 1),) * 3 + ((0, 1, 2),) * 2 + ((0, 1, 2, 3),) * 3 + ((0, 1, 2, 3, 4),) * 2]
    assert workloads.check_schedule("staged10", staged, counts, 0) == []
    assert workloads.check_schedule("staged10", [staged[0] + 1] + staged[1:], counts, 0)
    ids = iter(range(sum(counts)))
    index = TierIndex({t: [next(ids) for _ in range(c)] for t, c in enumerate(counts)})
    spec = ScheduleSpec("mixed", 10, 0.1, 4)
    mixed = [sample_epoch(index, spec, e).size for e in range(10)]
    assert workloads.check_schedule("mixed", mixed, counts, 4) == []
    assert workloads.check_schedule("mixed", [m + 100 for m in mixed], counts, 4)
    assert layers.mixed_draws(counts) == 9 * (60 + 200 + 20)


def test_loss_step_cost_matches_the_closed_form():
    import layers

    n, d = 8, 4
    flops, moved = layers.loss_step_cost(n, d)
    assert flops == 18 * n * n * d + 4 * n * d * d + 4 * n * d
    assert moved > 0
    assert layers.loss_step(layers.loss_inputs(0), Tracer(False))


def test_corpus_lines_are_seeded_and_unique():
    import inputs

    a, injected = inputs.corpus_lines(300, 9)
    assert (a, injected) == inputs.corpus_lines(300, 9)
    valid = [s for s in a if s not in inputs.MALFORMED]
    assert len(valid) == len(set(valid)) == 300
    assert injected == len(a) - 300 > 0
    assert sum(inputs.scaled_tier_counts(25_000)) == 25_000
