from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltiers.descriptors import DescriptorRecord, descriptor_core, finish_record
from moltiers.graph import StructuralCounts
from moltiers.smiles import parse_smiles
from moltiers.synth import generate_corpus
from moltiers.tiering import TIERS, TierConfig, TierLabel, assign_tier

from conftest import TOP6
from tier_suite import SUITE_CONFIG, TIER_SUITE


def make_record(
    n_het=1, n_sc=0, rarity=0.0, arom_sub=0, bertz_ct=10.0, n_ha=10,
    n_ring=0, n_fg=0, fg_names=frozenset(), d_scaf=0.5, conjugation=0,
) -> DescriptorRecord:
    return DescriptorRecord(
        d_scaf=d_scaf,
        rarity=rarity,
        conjugation=conjugation,
        arom_sub=arom_sub,
        bertz_ct=bertz_ct,
        counts=StructuralCounts(n_ha, n_het, n_ring, n_sc, 100.0),
        n_fg=n_fg,
        fg_names=frozenset(fg_names),
    )


def describe(smiles: str, table) -> DescriptorRecord:
    return finish_record(descriptor_core(parse_smiles(smiles)), table)


def tier_histogram(labels) -> dict[str, int]:
    """Counts per tier, labels or tier names; always all five keys."""
    hist = {tier: 0 for tier in TIERS}
    for label in labels:
        tier = label if isinstance(label, str) else label.tier
        hist[tier] += 1
    return hist


class TestSuite:
    def test_twenty_molecules(self, suite_prevalence):
        for smiles, tier, trace in TIER_SUITE:
            record = describe(smiles, suite_prevalence)
            label = assign_tier(record, TOP6, SUITE_CONFIG)
            assert (label.tier, label.rule_trace) == (tier, trace), smiles

    def test_covers_every_clause(self):
        traces = {trace for _, _, trace in TIER_SUITE}
        assert traces == {
            "t0_pure_hydrocarbon", "t4_stereocenter", "t4_rare_groups",
            "t3_substitution_complexity", "t3_ct_density", "t1_common_groups",
            "t2_multi_group", "t2_fallback", "t3_fallback",
        }
        assert len(TIER_SUITE) == 20
        fallbacks = [t for _, _, t in TIER_SUITE if t.endswith("fallback")]
        assert len(fallbacks) == 3


class TestRuleOrder:
    def test_hydrocarbon_always_t0(self):
        # n_het=0 wins no matter how extreme the other descriptors are
        record = make_record(n_het=0, n_sc=5, rarity=1.0, arom_sub=99,
                             bertz_ct=1e6, n_ring=12, n_fg=31)
        assert assign_tier(record, TOP6).tier == "T0"

    def test_stereo_over_everything_but_t0(self):
        record = make_record(n_sc=1, rarity=0.0, n_fg=1,
                             fg_names=frozenset({"hydroxyl"}))
        label = assign_tier(record, TOP6)
        assert (label.tier, label.rule_trace) == ("T4", "t4_stereocenter")

    def test_rarity_threshold_inclusive(self):
        assert assign_tier(make_record(rarity=0.9), TOP6).tier == "T4"
        assert assign_tier(make_record(rarity=0.8999), TOP6).tier != "T4"

    def test_substitution_strictly_greater(self):
        assert assign_tier(make_record(arom_sub=5), TOP6).tier == "T3"
        label = assign_tier(
            make_record(arom_sub=4, n_fg=1, fg_names=frozenset({"ether"})), TOP6
        )
        assert label.tier == "T1"

    def test_ct_density_needs_rings(self):
        cfg = TierConfig(ct_per_ha_threshold=1.5)
        dense = make_record(bertz_ct=100.0, n_ha=10, n_ring=3)
        sparse_rings = make_record(bertz_ct=100.0, n_ha=10, n_ring=2)
        assert assign_tier(dense, TOP6, cfg).rule_trace == "t3_ct_density"
        assert assign_tier(sparse_rings, TOP6, cfg).tier != "T3"

    def test_t1_requires_subset_of_top6(self):
        inside = make_record(n_fg=2, fg_names=frozenset({"ether", "amide"}))
        outside = make_record(n_fg=2, fg_names=frozenset({"ether", "thiol"}))
        assert assign_tier(inside, TOP6).tier == "T1"
        label = assign_tier(outside, TOP6)
        assert (label.tier, label.rule_trace) == ("T2", "t2_fallback")

    def test_top_groups_as_frozenset_or_set_share_one_label(self):
        common = make_record(n_fg=1, fg_names={"hydroxyl"})
        labels = [assign_tier(common, top) for top in
                  (frozenset({"hydroxyl", "amine"}), {"hydroxyl"}, TOP6 | {"hydroxyl"})]
        assert labels[0].tier == "T1"
        assert all(label is labels[0] for label in labels)
        assert assign_tier(common, set()) is assign_tier(common, frozenset({"amine"}))
        assert assign_tier(common, set()).rule_trace == "t2_fallback"

    def test_t2_window(self):
        mid = make_record(n_fg=4, fg_names=frozenset({"a", "b", "c", "d"}))
        assert assign_tier(mid, TOP6).rule_trace == "t2_multi_group"
        high = make_record(n_fg=6, fg_names=frozenset("abcdef"))
        assert assign_tier(high, TOP6).rule_trace == "t3_fallback"

    def test_spec_rule_examples(self, suite_prevalence):
        hexane = describe("CCCCCC", suite_prevalence)
        assert assign_tier(hexane, TOP6).tier == "T0"
        chiral = describe("C[C@H](N)C(=O)O", suite_prevalence)
        assert assign_tier(chiral, TOP6).tier == "T4"
        ethanol = describe("CCO", suite_prevalence)
        label = assign_tier(ethanol, TOP6)
        assert (label.tier, label.rule_trace) == ("T1", "t1_common_groups")


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        n_het=st.integers(0, 10),
        n_sc=st.integers(0, 3),
        rarity=st.floats(0, 1),
        arom_sub=st.integers(0, 10),
        ct=st.floats(0, 1000),
        n_ring=st.integers(0, 6),
        n_fg=st.integers(0, 12),
    )
    def test_total_and_deterministic(self, n_het, n_sc, rarity, arom_sub, ct,
                                     n_ring, n_fg):
        record = make_record(
            n_het=n_het, n_sc=n_sc, rarity=rarity, arom_sub=arom_sub,
            bertz_ct=ct, n_ring=n_ring, n_fg=n_fg,
            fg_names=frozenset(f"g{i}" for i in range(n_fg)),
        )
        first = assign_tier(record, TOP6)
        second = assign_tier(record, TOP6)
        assert first == second
        assert first.tier in TIERS

    def test_stereo_monotone(self, suite_prevalence):
        for smiles in generate_corpus(120, seed=31):
            record = describe(smiles, suite_prevalence)
            if record.counts.n_het == 0:
                continue
            flipped = record._replace(counts=record.counts._replace(n_sc=1))
            assert assign_tier(flipped, TOP6).tier == "T4"


class TestHistogram:
    def test_empty(self):
        assert tier_histogram([]) == {t: 0 for t in TIERS}

    def test_small(self):
        labels = [TierLabel("T0", "x")] * 3 + [TierLabel("T4", "y")]
        assert tier_histogram(labels) == {
            "T0": 3, "T1": 0, "T2": 0, "T3": 0, "T4": 1,
        }

    def test_accepts_plain_strings(self):
        assert tier_histogram(["T1", "T1", "T3"])["T1"] == 2

    def test_partition_sums(self, suite_prevalence):
        corpus = list(generate_corpus(200, seed=32))
        labels = []
        for smiles in corpus:
            record = describe(smiles, suite_prevalence)
            labels.append(assign_tier(record, TOP6))
        hist = tier_histogram(labels)
        assert sum(hist.values()) == len(corpus)

    def test_suite_histogram(self, suite_prevalence):
        labels = [
            assign_tier(
                describe(s, suite_prevalence),
                TOP6, SUITE_CONFIG,
            )
            for s, _, _ in TIER_SUITE
        ]
        hist = tier_histogram(labels)
        assert hist == {"T0": 3, "T1": 4, "T2": 5, "T3": 4, "T4": 4}


class TestConfig:
    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            TierConfig(fg_low=3, fg_mid_lo=3)
        with pytest.raises(ValueError):
            TierConfig(fg_mid_lo=6, fg_mid_hi=5)
        with pytest.raises(ValueError):
            TierConfig(rarity_threshold=0.0)

    @pytest.mark.parametrize("field", ["rarity_threshold", "ct_per_ha_threshold",
                                       "s_threshold", "min_rings_t3", "top_k"])
    @pytest.mark.parametrize("value", [float("nan"), 0, -1.5])
    def test_nan_or_not_positive_threshold_rejected(self, field, value):
        # NaN fails every comparison, so only `not value > 0` catches it
        with pytest.raises(ValueError, match="thresholds must be positive"):
            TierConfig(**{field: value})

    def test_infinite_threshold_switches_its_rule_off(self):
        config = TierConfig(rarity_threshold=float("inf"),
                            ct_per_ha_threshold=float("inf"))
        rare = make_record(rarity=0.99, n_fg=1, fg_names=frozenset({"ether"}))
        assert assign_tier(rare, TOP6).tier == "T4"
        assert assign_tier(rare, TOP6, config).tier == "T1"
        dense = make_record(bertz_ct=1e9, n_ha=10, n_ring=3, n_fg=1,
                            fg_names=frozenset({"ether"}))
        assert assign_tier(dense, TOP6).rule_trace == "t3_ct_density"
        assert assign_tier(dense, TOP6, config).tier == "T1"
