"""Curriculum schedules: active tier sets, mixed-regime weights, per-epoch
manifests, and exact sample-budget arithmetic.

Mixed-regime sampling uses a counter-style hash of (seed, molecule id,
epoch), so manifests are reproducible and independent of worker count or
iteration order.  ``uniform_draw`` defines a draw one id at a time;
``sample_epoch`` takes the same bits for a block of ids at once, each id's
64-bit hash state in its own 128-bit lane of one Python int.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import EpochOutOfRange, Staged10RequiresTenEpochs
from .tiering import REGIMES

N_TIERS = 5

# manifest lines joined per write, ~160 KB of text: bounds the text held in
# memory at once; at 1 << 16 a 25,000-record schedule peaked ~2.7 MB higher,
# and 1M ids wrote 20% slower
MANIFEST_BLOCK = 1 << 12

# ids hashed per packed int, 16 bytes each: bounds the memory of the lane
# arithmetic; at 1M ids, blocks of 1 << 12 to 1 << 14 sample equally fast
# and larger ones hold more memory and run no faster
DRAW_BLOCK = 1 << 12

_M64 = 0xFFFFFFFFFFFFFFFF

_STAGED10 = (
    (0, 1), (0, 1), (0, 1),
    (0, 1, 2), (0, 1, 2),
    (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3),
    (0, 1, 2, 3, 4), (0, 1, 2, 3, 4),
)


class _ScheduleFields(NamedTuple):
    regime: str = "staged10"
    epochs: int = 10
    hard_start: float = 0.1
    seed: int = 0


class ScheduleSpec(_ScheduleFields):
    """A schedule's regime, length, hard-start fraction and seed; every way
    of building one, ``_replace`` and unpickling included, checks them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ScheduleSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.hard_start <= 1.0:
            raise ValueError("hard_start must lie in [0, 1]")
        return self

    @classmethod
    def _make(cls, iterable) -> ScheduleSpec:
        return cls(*iterable)


class EpochManifest(NamedTuple):
    epoch: int
    regime: str
    sampled_ids: list[int]

    @property
    def size(self) -> int:
        return len(self.sampled_ids)


def active_tiers(regime: str, epoch: int, epochs: int) -> frozenset[int]:
    """Tier indices in the active pool for the deterministic regimes."""
    if not 0 <= epoch < epochs:
        raise EpochOutOfRange(f"epoch {epoch} outside [0, {epochs})")
    if regime == "additive":
        return frozenset(range(min(epoch, N_TIERS - 1) + 1))
    if regime == "staged10":
        if epochs != 10:
            raise Staged10RequiresTenEpochs(f"staged10 needs 10 epochs, got {epochs}")
        return frozenset(_STAGED10[epoch])
    if regime == "standard":
        stage = min(N_TIERS - 1, (epoch * N_TIERS) // epochs)
        return frozenset(range(stage + 1))
    if regime == "anti":
        stage = min(N_TIERS - 1, (epoch * N_TIERS) // epochs)
        return frozenset(range(N_TIERS - 1 - stage, N_TIERS))
    raise ValueError(f"regime {regime!r} has no deterministic tier set")


def tier_weights_mixed(
    epoch: int, epochs: int, hard_start: float = 0.1
) -> tuple[float, ...]:
    """Inclusion probability per tier: simple tiers stay at 1, complex tiers
    ramp linearly from the hard-start fraction to 1 at the final epoch."""
    if epochs < 2:
        raise ValueError("mixed regime needs at least 2 epochs")
    if not 0 <= epoch < epochs:
        raise EpochOutOfRange(f"epoch {epoch} outside [0, {epochs})")
    if epoch == epochs - 1:
        ramp = 1.0  # exact endpoint; float rounding must not exclude anyone
    else:
        ramp = hard_start + (1.0 - hard_start) * epoch / (epochs - 1)
    return (1.0, 1.0, ramp, ramp, ramp)


def _mix64(x: int) -> int:
    # splitmix64 finaliser
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def uniform_draw(seed: int, mol_id: int, epoch: int) -> float:
    """Deterministic Uniform[0, 1) keyed by (seed, molecule, epoch)."""
    h = _mix64(_mix64(_mix64(seed & _M64) ^ mol_id) ^ (epoch + 1))
    return (h >> 11) / float(1 << 53)


# Packed lanes: n values below 2**64 held in one int, value i in bits
# [128 i, 128 i + 64) and the high half of each lane zero.  A sum then
# carries, and a product of two 64-bit factors grows, only into its own
# lane's high half; a right shift moves the next lane's low bits only into
# that high half.  Each step masks the high halves before a carry, product
# or shift could cross into another lane.

@lru_cache(maxsize=8)
def _lane_constants(n: int) -> tuple[int, int, int]:
    """``ones`` (1 in every lane), the low-half ``mask`` and splitmix64's
    increment in every lane, for n lanes; shared by every block of n."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    return ones, ones * _M64, ones * 0x9E3779B97F4A7C15


def _pack(values: Sequence[int]) -> int:
    """``value & (2**64 - 1)`` of each value in its own lane, in order."""
    lanes = array("Q", bytes(16 * len(values)))
    try:
        lanes[::2] = array("Q", values)
    except OverflowError:  # a negative id or one above 2**64 - 1
        lanes[::2] = array("Q", [v & _M64 for v in values])
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _mix64_lanes(x: int, n: int) -> int:
    """``_mix64`` of each of the n lanes of ``x``."""
    _, mask, increment = _lane_constants(n)
    x = (x + increment) & mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


def _plain_id(mol_id) -> int:
    """An integer id of any type (a numpy integer) as a plain int; a bool or
    a non-integer id is a TypeError naming it, since a manifest writes each
    id's ``str``."""
    if not isinstance(mol_id, bool):
        try:
            return operator.index(mol_id)
        except TypeError:
            pass
    raise TypeError(f"molecule id {mol_id!r} is not an integer")


def _sorted_ids(ids: Sequence[int]) -> tuple[int, ...]:
    if set(map(type, ids)) <= {int}:  # the common case, checked in one pass
        return tuple(sorted(ids))
    return tuple(sorted(map(_plain_id, ids)))


class TierIndex:
    """Molecule ids grouped by tier, kept as sorted tuples of plain ints."""

    def __init__(self, ids_by_tier: Mapping[int, Sequence[int]]):
        self.ids_by_tier: dict[int, tuple[int, ...]] = {
            t: _sorted_ids(ids_by_tier.get(t, ())) for t in range(N_TIERS)
        }
        # tier -> (seed key, the ids hashed, their hashes); see _keyed_hashes
        self._keyed: dict[int, tuple[int, tuple[int, ...], list[int]]] = {}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "TierIndex":
        """Build from (molecule id, tier index) pairs."""
        by_tier: dict[int, list[int]] = {t: [] for t in range(N_TIERS)}
        for mol_id, tier in pairs:
            by_tier[tier].append(mol_id)
        return cls(by_tier)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.ids_by_tier[t]) for t in range(N_TIERS))

    def _keyed_hashes(self, key: int, tier: int) -> list[int]:
        """``_mix64(key ^ id)`` for each id of the tier, packed in lanes,
        one int per ``DRAW_BLOCK`` ids in order: the part of a mixed-regime
        draw that does not change with the epoch.  The last key's hashes are
        kept per tier, so the epochs of one schedule hash each id once."""
        ids = self.ids_by_tier[tier]
        kept = self._keyed.get(tier)
        if kept is None or kept[0] != key or kept[1] is not ids:
            hashes = []
            for start in range(0, len(ids), DRAW_BLOCK):
                block = ids[start:start + DRAW_BLOCK]
                n = len(block)
                keys = _lane_constants(n)[0] * key
                hashes.append(_mix64_lanes(_pack(block) ^ keys, n))
            kept = (key, ids, hashes)
            self._keyed[tier] = kept
        return kept[2]


def _drawn_below(index: TierIndex, key: int, tier: int, salt: int,
                 limit: int) -> Iterator[bytes]:
    """Per ``DRAW_BLOCK`` of the tier's ids, one byte per id: 1 when
    ``_mix64(_mix64(key ^ id) ^ salt)`` is below ``limit`` (at most 2**64),
    else 0.  ``2**64 + limit - 1 - drawn`` lies in [limit, 2**64 + limit),
    so it borrows from no other lane, and its bit 64 is set exactly when
    ``drawn < limit``."""
    size = len(index.ids_by_tier[tier])
    lanes: dict[int, tuple[int, int]] = {}  # lane count -> (salts, tops)
    for start, h in zip(range(0, size, DRAW_BLOCK), index._keyed_hashes(key, tier)):
        n = min(DRAW_BLOCK, size - start)
        if n not in lanes:
            ones = _lane_constants(n)[0]
            lanes[n] = (ones * salt, ones * ((1 << 64) + limit - 1))
        salts, tops = lanes[n]
        drawn = _mix64_lanes(h ^ salts, n)
        yield (tops - drawn).to_bytes(16 * n, "little")[8::16]


def sample_epoch(index: TierIndex, spec: ScheduleSpec, epoch: int) -> EpochManifest:
    """Molecule ids active at the epoch, in ascending id order.

    A mixed-regime molecule is kept when ``uniform_draw(seed, id, epoch)``
    falls below its tier's weight rho, with the same bits: the seed's hash
    is taken once per call, the id's hash once per seed
    (``TierIndex._keyed_hashes``), and each epoch hashes a whole block of
    ids in packed lanes.  The draw is compared in integer units: ``h >> 11``
    is below 2**53 and ``rho * 2**53`` is exact, so ``h >> 11 < rho * 2**53``
    exactly when ``h < ceil(rho * 2**53) << 11``.
    """
    ids: list[int] = []
    if spec.regime == "mixed":
        weights = tier_weights_mixed(epoch, spec.epochs, spec.hard_start)
        key = _mix64(spec.seed & _M64)
        for tier in range(N_TIERS):
            rho = weights[tier]
            if rho >= 1.0:
                ids.extend(index.ids_by_tier[tier])
                continue
            if rho <= 0.0:
                continue
            limit = math.ceil(rho * 2.0**53) << 11
            flags = _drawn_below(index, key, tier, epoch + 1, limit)
            ids.extend(compress(index.ids_by_tier[tier], chain.from_iterable(flags)))
    else:
        for tier in sorted(active_tiers(spec.regime, epoch, spec.epochs)):
            ids.extend(index.ids_by_tier[tier])
    ids.sort()
    return EpochManifest(epoch, spec.regime, ids)


def write_manifest(fh: TextIO, manifest: EpochManifest) -> None:
    """Write the manifest as JSON lines ``{"epoch":e,"regime":r,"id":i}``,
    one per sampled id, in the manifest's order.

    Every line of an epoch shares its prefix, so the lines are formatted
    from it rather than serialised one by one; ``str`` of an int is its
    JSON text.
    """
    prefix = '{"epoch":%d,"regime":%s,"id":' % (manifest.epoch,
                                                json.dumps(manifest.regime))
    between = "}\n" + prefix
    ids = manifest.sampled_ids
    for start in range(0, len(ids), MANIFEST_BLOCK):
        block = ids[start:start + MANIFEST_BLOCK]
        fh.write(prefix + between.join(map(str, block)) + "}\n")


def epoch_views(
    tier_counts: Sequence[int], spec: ScheduleSpec
) -> list[int] | list[Fraction]:
    """Molecule-views in each epoch.

    Deterministic regimes give exact integers.  The mixed regime gives the
    exact expected count of each epoch as a Fraction (the hard-start
    fraction is read through its decimal representation, so 0.1 means
    exactly 1/10).
    """
    if len(tier_counts) != N_TIERS:
        raise ValueError("expected five tier counts")
    if any(c < 0 for c in tier_counts):
        raise ValueError("tier counts must be >= 0")
    if spec.regime == "mixed":
        if spec.epochs < 2:
            raise ValueError("mixed regime needs at least 2 epochs")
        alpha = Fraction(str(spec.hard_start))
        simple = sum(tier_counts[:2])
        complex_ = sum(tier_counts[2:])
        return [
            simple + complex_ * (alpha + (1 - alpha) * Fraction(e, spec.epochs - 1))
            for e in range(spec.epochs)
        ]
    return [
        sum(tier_counts[t] for t in active_tiers(spec.regime, e, spec.epochs))
        for e in range(spec.epochs)
    ]


def budget(tier_counts: Sequence[int], spec: ScheduleSpec) -> int | Fraction:
    """Total molecule-views over all epochs: the sum of ``epoch_views``."""
    return sum(epoch_views(tier_counts, spec))


def baseline_budget(tier_counts: Sequence[int], epochs: int) -> int:
    """All tiers active every epoch (the non-curriculum reference)."""
    return epochs * sum(tier_counts)
