"""The package's records, results and configs: built by keyword in field
order, compared by value, pickled whole, and immutable unless the package
counts into them."""

from __future__ import annotations

import pickle

import pytest

from moltiers.descriptors import DescriptorCore, DescriptorRecord
from moltiers.fgroups import (
    AtomConstraint,
    BondConstraint,
    FunctionalGroupPattern,
    PrevalenceTable,
)
from moltiers.graph import RingInfo, ScaffoldResult, StructuralCounts
from moltiers.pipeline import AnnotateStats
from moltiers.scheduler import EpochManifest, ScheduleSpec
from moltiers.tiering import TierConfig, TierLabel

COUNTS = StructuralCounts(n_ha=3, n_het=1, n_ring=0, n_sc=0, mw=46.07)
ATOMS = [AtomConstraint(frozenset({"C"})), AtomConstraint(frozenset({"O"}), max_deg=1)]
BONDS = [BondConstraint(0, 1, frozenset({1}))]

# (class, keyword arguments in field order, one field changed, immutable)
CASES = [
    (StructuralCounts, dict(n_ha=3, n_het=1, n_ring=0, n_sc=0, mw=46.07),
     ("n_sc", 1), True),
    (RingInfo, dict(ring_atoms=frozenset({0, 1, 2}), ring_bonds=frozenset({0, 1, 2}),
                    rings=[(0, 1, 2)], n_ring=1), ("n_ring", 2), True),
    (ScaffoldResult, dict(scaffold_atoms=frozenset({0, 1}), n_scaffold=2,
                          is_empty=False), ("n_scaffold", 3), True),
    (DescriptorCore, dict(d_scaf=0.5, conjugation=0, arom_sub=0, bertz_ct=2.0,
                          counts=COUNTS, n_fg=1, fg_names=frozenset({"hydroxyl"})),
     ("bertz_ct", 3.0), True),
    (DescriptorRecord, dict(d_scaf=0.5, rarity=0.25, conjugation=0, arom_sub=0,
                            bertz_ct=2.0, counts=COUNTS, n_fg=1,
                            fg_names=frozenset({"hydroxyl"})),
     ("rarity", 0.5), True),
    (TierLabel, dict(tier="T1", rule_trace="t1_common_groups"), ("tier", "T2"), True),
    (AtomConstraint, dict(elements=frozenset({"O"}), aromatic=False, min_deg=1,
                          max_deg=2), ("max_deg", None), True),
    (BondConstraint, dict(a=0, b=1, orders=frozenset({1, 2})), ("b", 2), True),
    (PrevalenceTable, dict(prevalence={"hydroxyl": 0.5}, corpus_size=4),
     ("corpus_size", 5), True),
    (EpochManifest, dict(epoch=2, regime="mixed", sampled_ids=[3, 5]),
     ("epoch", 3), True),
    (TierConfig, dict(rarity_threshold=0.8, top_k=5, s_threshold=3,
                      ct_per_ha_threshold=40.0, min_rings_t3=2, fg_low=1,
                      fg_mid_lo=2, fg_mid_hi=4), ("top_k", 6), True),
    (ScheduleSpec, dict(regime="mixed", epochs=5, hard_start=0.25, seed=7),
     ("seed", 8), True),
    (AnnotateStats, dict(written=3, skipped=1), ("skipped", 2), False),
    (FunctionalGroupPattern, dict(name="hydroxyl", atoms=ATOMS, bonds=BONDS),
     ("name", "alcohol"), False),
]


@pytest.mark.parametrize("cls, kwargs, changed, immutable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type(cls, kwargs, changed, immutable):
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert [getattr(value, name) for name in kwargs] == list(kwargs.values())
    if hasattr(cls, "_fields"):
        assert cls._fields == tuple(kwargs)
    field, other = changed
    assert value != cls(**{**kwargs, field: other})
    copy = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls and copy == value
    if immutable:
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        assert getattr(value, field) == kwargs[field]
    else:
        setattr(value, field, other)
        assert value == cls(**{**kwargs, field: other})


@pytest.mark.parametrize("cls, bad", [
    (TierConfig, dict(fg_low=9)),
    (TierConfig, dict(top_k=0)),
    (TierConfig, dict(rarity_threshold=float("nan"))),
    (ScheduleSpec, dict(regime="bogus")),
    (ScheduleSpec, dict(epochs=0)),
    (ScheduleSpec, dict(hard_start=1.5)),
])
def test_configs_check_every_construction(cls, bad):
    # positional, keyword, _replace and _make all run the checks, as the
    # dataclass's __post_init__ did for its constructor and replace()
    valid = cls()
    merged = {**valid._asdict(), **bad}
    with pytest.raises(ValueError):
        cls(**bad)
    with pytest.raises(ValueError):
        cls(*merged.values())
    with pytest.raises(ValueError):
        valid._replace(**bad)
    with pytest.raises(ValueError):
        cls._make(merged.values())


def test_tier_config_defaults_are_the_annotators():
    from moltiers.featurizer import ComplexityAnnotator

    params = ComplexityAnnotator().get_params()
    assert params.pop("library") is None
    assert params == TierConfig()._asdict() == TierConfig._field_defaults
