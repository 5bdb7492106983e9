from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import moltiers.scheduler as scheduler_module
from moltiers.errors import EpochOutOfRange, Staged10RequiresTenEpochs
from moltiers.scheduler import (
    _mix64,
    _mix64_lanes,
    _pack,
    EpochManifest,
    ScheduleSpec,
    TierIndex,
    active_tiers,
    REGIMES,
    baseline_budget,
    budget,
    epoch_views,
    sample_epoch,
    tier_weights_mixed,
    uniform_draw,
    write_manifest,
    write_manifests,
)
from oracles import reference_manifest_text, reference_sample_epoch

PAPER_COUNTS = (268, 107_370, 153_955, 703_283, 35_124)


class TestActiveTiers:
    def test_additive_progression(self):
        assert active_tiers("additive", 0, 10) == frozenset({0})
        assert active_tiers("additive", 1, 10) == frozenset({0, 1})
        assert active_tiers("additive", 4, 10) == frozenset(range(5))
        assert active_tiers("additive", 9, 10) == frozenset(range(5))

    def test_staged10(self):
        expect = {
            0: {0, 1}, 1: {0, 1}, 2: {0, 1},
            3: {0, 1, 2}, 4: {0, 1, 2},
            5: {0, 1, 2, 3}, 6: {0, 1, 2, 3}, 7: {0, 1, 2, 3},
            8: {0, 1, 2, 3, 4}, 9: {0, 1, 2, 3, 4},
        }
        for e, tiers in expect.items():
            assert active_tiers("staged10", e, 10) == frozenset(tiers)

    def test_staged10_requires_ten(self):
        with pytest.raises(Staged10RequiresTenEpochs):
            active_tiers("staged10", 0, 8)

    def test_standard_and_anti(self):
        assert active_tiers("standard", 0, 10) == frozenset({0})
        assert active_tiers("standard", 9, 10) == frozenset(range(5))
        assert active_tiers("anti", 0, 10) == frozenset({4})
        assert active_tiers("anti", 3, 10) == frozenset({3, 4})
        assert active_tiers("anti", 9, 10) == frozenset(range(5))

    def test_epoch_bounds(self):
        with pytest.raises(EpochOutOfRange):
            active_tiers("additive", 10, 10)
        with pytest.raises(EpochOutOfRange):
            active_tiers("additive", -1, 10)

    @pytest.mark.parametrize("regime", ["additive", "staged10", "standard", "anti"])
    def test_monotone_pool_growth(self, regime):
        for e in range(9):
            assert active_tiers(regime, e, 10) <= active_tiers(regime, e + 1, 10)

    def test_mixed_has_no_tier_set(self):
        with pytest.raises(ValueError):
            active_tiers("mixed", 0, 10)


class TestMixedWeights:
    def test_hard_start(self):
        assert tier_weights_mixed(0, 10, 0.1) == (1.0, 1.0, 0.1, 0.1, 0.1)

    def test_endpoint_exactly_one(self):
        assert tier_weights_mixed(9, 10, 0.1) == (1.0,) * 5

    def test_midpoint_alpha_zero(self):
        weights = tier_weights_mixed(4, 9, 0.0)  # e=(E-1)/2
        assert weights[2] == pytest.approx(0.5, abs=1e-12)

    def test_requires_two_epochs(self):
        with pytest.raises(ValueError):
            tier_weights_mixed(0, 1, 0.1)


class TestSampling:
    def test_additive_epoch0_size(self):
        index = TierIndex({0: range(268), 1: range(1000, 1100)})
        manifest = sample_epoch(index, ScheduleSpec("additive", 10), 0)
        assert manifest.size == 268

    def test_deterministic_includes_every_active_molecule_once(self):
        index = TierIndex({t: range(t * 100, t * 100 + 10) for t in range(5)})
        manifest = sample_epoch(index, ScheduleSpec("staged10", 10), 3)
        assert manifest.size == 30
        assert manifest.sampled_ids == sorted(set(manifest.sampled_ids))

    def test_mixed_alpha_one_takes_all(self):
        index = TierIndex({t: range(t * 50, t * 50 + 50) for t in range(5)})
        for e in range(10):
            manifest = sample_epoch(index, ScheduleSpec("mixed", 10, 1.0), e)
            assert manifest.size == 250

    def test_mixed_binomial_concentration(self):
        n = 10_000
        index = TierIndex({3: range(n)})
        manifest = sample_epoch(index, ScheduleSpec("mixed", 10, 0.1, seed=5), 0)
        sigma = (n * 0.1 * 0.9) ** 0.5
        assert abs(manifest.size - n * 0.1) <= 3 * sigma

    def test_mixed_endpoint_takes_all(self):
        index = TierIndex({4: range(1000)})
        manifest = sample_epoch(index, ScheduleSpec("mixed", 10, 0.1, seed=5), 9)
        assert manifest.size == 1000

    def test_mixed_reproducible_and_seed_sensitive(self):
        index = TierIndex({2: range(5000)})
        a1 = sample_epoch(index, ScheduleSpec("mixed", 10, 0.3, seed=1), 2)
        a2 = sample_epoch(index, ScheduleSpec("mixed", 10, 0.3, seed=1), 2)
        b = sample_epoch(index, ScheduleSpec("mixed", 10, 0.3, seed=2), 2)
        assert a1.sampled_ids == a2.sampled_ids
        assert a1.sampled_ids != b.sampled_ids
        expected = 5000 * (0.3 + 0.7 * 2 / 9)
        sigma = (5000 * 0.45 * 0.55) ** 0.5
        assert abs(b.size - expected) <= 4 * sigma

    def test_outputs_sorted_subset(self):
        index = TierIndex({0: [7, 3, 11], 3: [2, 9]})
        manifest = sample_epoch(index, ScheduleSpec("additive", 10), 9)
        assert manifest.sampled_ids == [2, 3, 7, 9, 11]


def _oracle_ids_by_tier() -> dict[int, list[int]]:
    """400 ids spread over the tiers: zero, negatives, ids above 2**64."""
    rng = random.Random(11)
    ids = [0, -1, -7, -2**64 - 3, 2**64, 2**64 + 1, 2**80 + 3, 2**63, 2**63 - 1]
    ids += rng.sample(range(-10**6, 10**6), 391)
    by_tier: dict[int, list[int]] = {t: [] for t in range(5)}
    for k, mol_id in enumerate(ids):
        by_tier[k % 5 if k < 45 else rng.randrange(5)].append(mol_id)
    return by_tier


class TestSamplingOracle:
    """sample_epoch and write_manifest against a per-id uniform_draw and a
    per-line json.dumps."""

    @pytest.mark.parametrize("epochs", [2, 10])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_ids_and_bytes_equal_reference(self, regime, epochs):
        by_tier = _oracle_ids_by_tier()
        index = TierIndex(by_tier)
        if regime == "staged10" and epochs != 10:
            spec = ScheduleSpec(regime, epochs)
            with pytest.raises(Staged10RequiresTenEpochs):
                sample_epoch(index, spec, 0)
            with pytest.raises(Staged10RequiresTenEpochs):
                reference_sample_epoch(by_tier, spec, 0)
            return
        for seed in (0, 7, -3, 2**64 + 5):
            for hard_start in (0.0, 0.1, 0.37, 1.0):
                spec = ScheduleSpec(regime, epochs, hard_start, seed)
                for e in range(epochs):
                    manifest = sample_epoch(index, spec, e)
                    expected = reference_sample_epoch(by_tier, spec, e)
                    assert manifest.sampled_ids == expected, (seed, hard_start, e)
                    out = io.StringIO()
                    write_manifest(out, manifest)
                    assert out.getvalue() == \
                        reference_manifest_text(e, regime, expected)

    def test_mixed_draws_are_not_trivial(self):
        # the oracle comparison above must see partial selections
        by_tier = _oracle_ids_by_tier()
        spec = ScheduleSpec("mixed", 10, 0.37, 2**64 + 5)
        ids = set(reference_sample_epoch(by_tier, spec, 3))
        complex_ids = [m for t in (2, 3, 4) for m in by_tier[t]]
        assert 0 < sum(m in ids for m in complex_ids) < len(complex_ids)
        assert any(m in ids for m in complex_ids if m < 0 or m >= 2**64)

    def test_mixed_draws_follow_replaced_ids(self, monkeypatch):
        # the index keeps each id's seed hash between epochs; ids that
        # replace the index's must be hashed again, and the kept hashes
        # follow the seed and the block size they were made with
        by_tier = _oracle_ids_by_tier()
        index = TierIndex(by_tier)
        spec = ScheduleSpec("mixed", 10, 0.1, 7)
        sample_epoch(index, spec, 1)
        replaced = {**by_tier, 3: [m + 1 for m in by_tier[3]]}
        new = TierIndex(replaced)
        assert len(new.ids) == len(index.ids)
        index.ids, index.tiers = new.ids, new.tiers
        assert sample_epoch(index, spec, 2).sampled_ids == \
            reference_sample_epoch(replaced, spec, 2)
        other = spec._replace(seed=8)
        assert sample_epoch(index, other, 2).sampled_ids == \
            reference_sample_epoch(replaced, other, 2)
        monkeypatch.setattr(scheduler_module, "DRAW_BLOCK", 7)
        assert sample_epoch(index, other, 2).sampled_ids == \
            reference_sample_epoch(replaced, other, 2)

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
    def test_manifest_blocks_join_to_the_same_bytes(self, block, monkeypatch):
        monkeypatch.setattr(scheduler_module, "MANIFEST_BLOCK", block)
        for ids in ([], [5], [3, -1, 2**70, 0, 9]):
            manifest = EpochManifest(4, "anti", ids)
            out = io.StringIO()
            write_manifest(out, manifest)
            assert out.getvalue() == reference_manifest_text(4, "anti", ids)


class TestManifestPass:
    """write_manifests, in passes of at most 64 epochs as the CLI runs it,
    against a per-id uniform_draw and a per-line json.dumps."""

    @pytest.mark.parametrize("regime, epochs", [
        (regime, epochs) for regime in REGIMES for epochs in (2, 10, 150)
        if regime != "staged10" or epochs == 10])
    def test_bytes_equal_reference(self, regime, epochs, monkeypatch):
        by_tier = _oracle_ids_by_tier()
        spec = ScheduleSpec(regime, epochs, 0.37, 2**64 + 5)
        want = [reference_manifest_text(e, regime,
                                        reference_sample_epoch(by_tier, spec, e))
                for e in range(epochs)]
        for block in (1, 2, 3):
            monkeypatch.setattr(scheduler_module, "DRAW_BLOCK", block)
            index = TierIndex(by_tier)
            for first in range(0, epochs, 64):
                epoch_range = range(first, min(first + 64, epochs))
                outs = [io.StringIO() for _ in epoch_range]
                sizes = write_manifests(index, spec, epoch_range, outs)
                for e, out, size in zip(epoch_range, outs, sizes):
                    assert out.getvalue() == want[e], (block, e)
                    assert size == want[e].count("\n")

    def test_pass_equals_sample_epoch_and_write_manifest(self):
        index = TierIndex(_oracle_ids_by_tier())
        for regime in REGIMES:
            spec = ScheduleSpec(regime, 10, 0.0, 3)
            outs = [io.StringIO() for _ in range(10)]
            write_manifests(index, spec, range(10), outs)
            for e, out in enumerate(outs):
                one = io.StringIO()
                write_manifest(one, sample_epoch(index, spec, e))
                assert out.getvalue() == one.getvalue(), (regime, e)

    def test_empty_index_writes_nothing(self):
        outs = [io.StringIO(), io.StringIO()]
        assert write_manifests(TierIndex({}), ScheduleSpec("mixed", 2), range(2),
                               outs) == [0, 0]
        assert [out.getvalue() for out in outs] == ["", ""]


M64 = 2**64 - 1


def _lanes(x: int, n: int) -> list[int]:
    """The n lanes of a packed int, after checking that each high half and
    everything above the last lane is zero."""
    assert x >> (128 * n) == 0
    assert all(x >> (128 * i + 64) & M64 == 0 for i in range(n))
    return [x >> (128 * i) & M64 for i in range(n)]


def _top_bit_values(count: int) -> list[int]:
    """Values whose first or second splitmix64 product sets bit 127 of its
    lane: the largest products a lane holds."""
    rng = random.Random(3)
    found: list[int] = []
    while len(found) < count:
        v = rng.getrandbits(64)
        x = (v + 0x9E3779B97F4A7C15) & M64
        p1 = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
        x = p1 & M64
        p2 = (x ^ (x >> 27)) * 0x94D049BB133111EB
        if p1 >> 127 or p2 >> 127:
            found.append(v)
    return found


def _unmix64(h: int) -> int:
    """The x with ``_mix64(x) == h``: splitmix64's finaliser is a bijection."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    x = unshift(h, 31)
    x = unshift(x * pow(0x94D049BB133111EB, -1, 2**64) & M64, 27)
    x = unshift(x * pow(0xBF58476D1CE4E5B9, -1, 2**64) & M64, 30)
    return (x - 0x9E3779B97F4A7C15) & M64


class TestLaneKernel:
    EDGES = [0, 1, 2**63, M64, M64 - 0x9E3779B97F4A7C15,
             M64 - 0x9E3779B97F4A7C15 + 1, 2**63 - 1, 0x5555555555555555]

    @pytest.mark.parametrize("values", [
        EDGES, EDGES[::-1], [M64] * 7, _top_bit_values(64), [0], [M64]])
    def test_equals_scalar_lane_by_lane(self, values):
        mixed = _mix64_lanes(_pack(values), len(values))
        assert _lanes(mixed, len(values)) == [_mix64(v) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, M64), min_size=1, max_size=40))
    def test_equals_scalar_property(self, values):
        mixed = _mix64_lanes(_pack(values), len(values))
        assert _lanes(mixed, len(values)) == [_mix64(v) for v in values]

    def test_pack_masks_to_64_bits(self):
        values = [-1, -2**64 - 3, 2**64, 2**80 + 3, 5]
        assert _lanes(_pack(values), 5) == [v & M64 for v in values]
        assert _pack([]) == 0

    def test_draws_on_the_limit(self):
        """Ids made to draw exactly around each epoch's limit: kept below
        ``ceil(rho * 2**53) << 11``, dropped from it on, as uniform_draw
        decides."""
        spec = ScheduleSpec("mixed", 10, 0.37, 7)
        key = _mix64(7)
        assert all(_mix64(_unmix64(h)) == h for h in (0, 1, M64, key))
        for e in range(9):
            rho = tier_weights_mixed(e, 10, 0.37)[2]
            limit = math.ceil(rho * 2**53)
            drawn = {(limit << 11) - 2049: True, (limit << 11) - 2048: True,
                     (limit << 11) - 1: True, limit << 11: False,
                     (limit << 11) + 1: False, (limit << 11) + 2047: False}
            ids = {_unmix64(_unmix64(d) ^ (e + 1)) ^ key: kept
                   for d, kept in drawn.items()}
            assert [uniform_draw(7, m, e) < rho for m in ids] == list(ids.values())
            by_tier = {2: list(ids)}
            assert sample_epoch(TierIndex(by_tier), spec, e).sampled_ids == \
                sorted(m for m, kept in ids.items() if kept)

    @pytest.mark.parametrize("size", ["empty", "one", "block-1", "block",
                                      "block+1"])
    def test_blocks_join_to_the_same_draws(self, size, monkeypatch):
        block = 5
        monkeypatch.setattr(scheduler_module, "DRAW_BLOCK", block)
        n = {"empty": 0, "one": 1, "block-1": block - 1, "block": block,
             "block+1": block + 1}[size]
        # distinct ids from below -2**64 to above 2**64
        rng = random.Random(n)
        ids = iter([k * 2**60 - 2**64 + rng.getrandbits(60)
                    for k in range(8 * block)])
        by_tier = {0: [next(ids)], 1: [], 2: [next(ids) for _ in range(n)],
                   3: [next(ids) for _ in range(2 * block + n)],
                   4: [next(ids) for _ in range(3 * block + 1)]}
        index = TierIndex(by_tier)
        for seed in (0, 3, -3, 2**64 + 5):
            spec = ScheduleSpec("mixed", 10, 0.37, seed)
            for e in range(10):
                assert sample_epoch(index, spec, e).sampled_ids == \
                    reference_sample_epoch(by_tier, spec, e), (seed, e)


class TestUniformDraw:
    def test_range_and_determinism(self):
        values = [uniform_draw(42, i, 3) for i in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [uniform_draw(42, i, 3) for i in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.03

    def test_epoch_changes_draws(self):
        a = [uniform_draw(1, i, 0) for i in range(100)]
        b = [uniform_draw(1, i, 1) for i in range(100)]
        assert a != b


class TestBudget:
    def test_staged10_paper_counts(self):
        assert budget(PAPER_COUNTS, ScheduleSpec("staged10", 10)) == 5_740_728

    def test_additive_paper_counts(self):
        assert budget(PAPER_COUNTS, ScheduleSpec("additive", 10)) == 7_334_375

    def test_baseline(self):
        assert baseline_budget(PAPER_COUNTS, 10) == 10_000_000

    def test_ratio(self):
        total = budget(PAPER_COUNTS, ScheduleSpec("staged10", 10))
        ratio = total / baseline_budget(PAPER_COUNTS, 10)
        assert round(ratio, 6) == 0.574073

    def test_mixed_alpha_one(self):
        counts = (100, 100, 100, 100, 100)
        assert budget(counts, ScheduleSpec("mixed", 10, 1.0)) == 10 * 500

    def test_mixed_exact_fraction(self):
        # sum of ramps over 10 epochs at alpha=1/10 is 11/2 exactly
        counts = (0, 0, 2, 0, 0)
        value = budget(counts, ScheduleSpec("mixed", 10, 0.1))
        assert value == Fraction(11, 1)

    def test_anti_standard_symmetry(self):
        counts = (1, 2, 3, 4, 5)
        assert budget(counts, ScheduleSpec("standard", 10)) == budget(
            counts[::-1], ScheduleSpec("anti", 10)
        )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            budget((1, 2, 3), ScheduleSpec("additive", 10))
        with pytest.raises(ValueError):
            budget((1, 2, 3, -1, 5), ScheduleSpec("additive", 10))


class TestEpochViews:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("hard_start", [0.1, 0.25])
    def test_sums_to_budget(self, regime, hard_start):
        spec = ScheduleSpec(regime, 10, hard_start)
        views = epoch_views(PAPER_COUNTS, spec)
        assert len(views) == 10
        assert sum(views) == budget(PAPER_COUNTS, spec)

    def test_staged10_paper_counts(self):
        assert epoch_views(PAPER_COUNTS, ScheduleSpec("staged10", 10)) == [
            107_638, 107_638, 107_638,
            261_593, 261_593,
            964_876, 964_876, 964_876,
            1_000_000, 1_000_000,
        ]

    def test_mixed_exact_fractions(self):
        views = epoch_views((0, 0, 9, 0, 0), ScheduleSpec("mixed", 4, 0.1))
        assert views == [Fraction(9, 10), Fraction(36, 10), Fraction(63, 10), 9]
        assert all(isinstance(v, Fraction) for v in views)


class TestSpecValidation:
    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            ScheduleSpec("bogus", 10)

    def test_bad_hard_start(self):
        with pytest.raises(ValueError):
            ScheduleSpec("mixed", 10, 1.5)

    def test_tier_index_counts(self):
        index = TierIndex.from_pairs([(0, 0), (1, 0), (2, 3)])
        assert index.counts() == (2, 0, 0, 1, 0)
        assert sum(index.counts()) == 3

    @pytest.mark.parametrize("bad", [True, False, 2.5, 7.0, "7", None],
                             ids=["true", "false", "float", "whole-float",
                                  "string", "none"])
    def test_tier_index_rejects_non_integer_id(self, bad):
        # a bool would be written as "id":True, a float fails deep in _pack
        with pytest.raises(TypeError, match=f"molecule id {bad!r} is not an integer"):
            TierIndex.from_pairs([(5, 2), (bad, 2), (3, 0)])
        with pytest.raises(TypeError, match=f"molecule id {bad!r}"):
            TierIndex({4: [bad]})

    def test_tier_index_holds_ids_in_order_with_their_tiers(self):
        index = TierIndex.from_pairs([(5, 2), (3, 0), (2**70, 1), (-1, 4)])
        assert index.ids == [-1, 3, 5, 2**70]
        assert index.tiers == bytes([4, 0, 2, 1])
        assert TierIndex({2: [5], 0: [3], 1: [2**70], 4: [-1]}).ids == index.ids
        # ids read in rising order are kept as they are
        ids = [1, 4, 9]
        assert TierIndex.from_ids(ids, bytearray([0, 0, 3])).ids is ids
        with pytest.raises(ValueError, match="tier index 5 is not one of 0-4"):
            TierIndex.from_pairs([(1, 0), (2, 5)])
        # the CLI's constructor checks the tier bytes too: a byte of 5 or
        # more would be left out of every manifest and of counts()
        for tiers in (b"\x00\x05", bytearray([9, 1])):
            with pytest.raises(ValueError, match="is not one of 0-4"):
                TierIndex.from_ids([1, 2], tiers)
        with pytest.raises(ValueError, match="2 ids but 1 tier"):
            TierIndex.from_ids([1, 2], b"\x00")

    def test_tier_index_stores_numpy_ids_as_ints(self):
        import numpy as np

        index = TierIndex.from_pairs([(np.int64(7), 2), (5, 2), (np.uint8(3), 0)])
        assert index.ids == [3, 5, 7]
        assert index.tiers == bytes([0, 2, 2])
        assert {type(i) for i in index.ids} == {int}
        out = io.StringIO()
        write_manifest(out, sample_epoch(index, ScheduleSpec("mixed", 10, 0.5), 9))
        assert out.getvalue() == "".join(
            f'{{"epoch":9,"regime":"mixed","id":{i}}}\n' for i in (3, 5, 7))
        # epoch 0 at a hard start of 0.5 packs the T2 ids for the draw
        spec = ScheduleSpec("mixed", 10, 0.5, 4)
        plain = TierIndex.from_pairs([(7, 2), (5, 2), (3, 0)])
        assert sample_epoch(index, spec, 0) == sample_epoch(plain, spec, 0)
