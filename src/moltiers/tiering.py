"""Deterministic curriculum tier assignment (T0-T4)."""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # only annotations name it, so tiering loads no descriptor code
    from .descriptors import DescriptorRecord

TIERS = ("T0", "T1", "T2", "T3", "T4")

# the curriculum regimes a schedule can run; here, not in the scheduler, so
# the CLI offers them without loading the schedule arithmetic
REGIMES = ("additive", "staged10", "mixed", "standard", "anti")


class _TierFields(NamedTuple):
    rarity_threshold: float = 0.9
    top_k: int = 6
    s_threshold: int = 4
    ct_per_ha_threshold: float = 50.0
    min_rings_t3: int = 3
    fg_low: int = 2
    fg_mid_lo: int = 3
    fg_mid_hi: int = 5


class TierConfig(_TierFields):
    """The tier rule thresholds; every way of building one, ``_replace``
    and unpickling included, runs ``_validate``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TierConfig:
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, iterable) -> TierConfig:
        return cls(*iterable)

    def _validate(self) -> None:
        if not (self.fg_low < self.fg_mid_lo <= self.fg_mid_hi):
            raise ValueError("require fg_low < fg_mid_lo <= fg_mid_hi")
        # `not value > 0` rejects NaN, which every comparison fails; inf
        # passes and switches its rule off
        for value in (self.rarity_threshold, self.s_threshold,
                      self.ct_per_ha_threshold, self.min_rings_t3, self.top_k):
            if not value > 0:
                raise ValueError("thresholds must be positive")

    @classmethod
    def from_attributes(cls, obj: object) -> TierConfig:
        """The config whose fields are ``obj``'s attributes of the same names."""
        return cls(*_field_values(obj))


_field_values = attrgetter(*TierConfig._fields)


class TierLabel(NamedTuple):
    tier: str
    rule_trace: str


# One shared label per rule: assign_tier hands these out, never a new one
_T0_HYDROCARBON = TierLabel("T0", "t0_pure_hydrocarbon")
_T4_STEREOCENTER = TierLabel("T4", "t4_stereocenter")
_T4_RARE_GROUPS = TierLabel("T4", "t4_rare_groups")
_T3_SUBSTITUTION = TierLabel("T3", "t3_substitution_complexity")
_T3_CT_DENSITY = TierLabel("T3", "t3_ct_density")
_T1_COMMON_GROUPS = TierLabel("T1", "t1_common_groups")
_T2_MULTI_GROUP = TierLabel("T2", "t2_multi_group")
_T2_FALLBACK = TierLabel("T2", "t2_fallback")
_T3_FALLBACK = TierLabel("T3", "t3_fallback")


def assign_tier(
    record: DescriptorRecord,
    top_groups: frozenset[str] | set[str],
    config: TierConfig = TierConfig(),
) -> TierLabel:
    """First-match tier rules, evaluated in fixed order.

    Hydrocarbons always land in T0; stereo or rare chemistry carves out T4
    before the broad positional-complexity tier T3; anything matching no
    explicit clause falls back by group count.
    """
    counts = record.counts
    if counts.n_het == 0:
        return _T0_HYDROCARBON
    if counts.n_sc > 0:
        return _T4_STEREOCENTER
    if record.rarity >= config.rarity_threshold:
        return _T4_RARE_GROUPS
    if record.arom_sub > config.s_threshold:
        return _T3_SUBSTITUTION
    if (
        counts.n_ha > 0
        and record.bertz_ct / counts.n_ha > config.ct_per_ha_threshold
        and counts.n_ring >= config.min_rings_t3
    ):
        return _T3_CT_DENSITY
    if record.n_fg <= config.fg_low and record.fg_names <= top_groups:
        return _T1_COMMON_GROUPS
    if (
        config.fg_mid_lo <= record.n_fg <= config.fg_mid_hi
        and record.arom_sub <= config.s_threshold
    ):
        return _T2_MULTI_GROUP
    if record.n_fg <= config.fg_mid_hi:
        return _T2_FALLBACK
    return _T3_FALLBACK
