from __future__ import annotations

from fractions import Fraction

import pytest

from moltiers.errors import EpochOutOfRange, Staged10RequiresTenEpochs
from moltiers.scheduler import (
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
)

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
        assert index.total() == 3
