"""Curriculum schedules: active tier sets, mixed-regime weights, per-epoch
manifests, and exact sample-budget arithmetic.

A ``TierIndex`` holds each molecule id once, as plain ints in ascending
order, with one tier byte per id.  An epoch is a 0/1 mask over each block
of ids (``_epoch_masks``).  A deterministic regime translates the tier
bytes through its active tier set.  The mixed regime uses a counter-style
hash of (seed, molecule id, epoch), so manifests are reproducible and
independent of worker count or iteration order: ``uniform_draw`` defines a
draw one id at a time, and the masks take the same bits for a block of ids
at once, each id's 64-bit hash state in its own 128-bit lane of one Python
int.  ``sample_epoch`` keeps the ids one epoch's masks select;
``write_manifests`` writes several epochs in one ascending pass, making
each id's text once per block.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import EpochOutOfRange, Staged10RequiresTenEpochs
from .tiering import REGIMES

N_TIERS = 5

# manifest lines joined per write, ~160 KB of text: bounds the text held in
# memory at once; at 1 << 16 a 25,000-record schedule peaked ~2.7 MB higher,
# and 1M ids wrote 20% slower
MANIFEST_BLOCK = 1 << 12

# ids per mask block, and per packed int of the lane arithmetic at 16 bytes
# each: bounds the memory of a block's hashes and id texts; at 1M ids,
# blocks of 1 << 12 to 1 << 14 sample equally fast and larger ones hold
# more memory and run no faster
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


def _tier_table(tiers: Iterable[int]) -> bytes:
    """A ``bytes.translate`` table: 1 for a tier index in ``tiers``, else 0."""
    table = bytearray(256)
    for t in tiers:
        table[t] = 1
    return bytes(table)


_SIMPLE = _tier_table((0, 1))  # the tiers every mixed-regime epoch keeps
_TIER_INDICES = bytes(range(N_TIERS))  # the tier bytes TierIndex accepts


class TierIndex:
    """Molecule ids in ascending order, as plain ints (``ids``), with each
    id's tier index in the byte at its position (``tiers``)."""

    def __init__(self, ids_by_tier: Mapping[int, Iterable[int]]):
        ids: list = []
        tiers = bytearray()
        for t in range(N_TIERS):
            ids.extend(ids_by_tier.get(t, ()))
            tiers += bytes([t]) * (len(ids) - len(tiers))
        self._set(ids, tiers)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> TierIndex:
        """Build from (molecule id, tier index) pairs."""
        ids = []
        tiers = bytearray()
        for mol_id, tier in pairs:
            ids.append(mol_id)
            tiers.append(tier)
        return cls.from_ids(ids, tiers)

    @classmethod
    def from_ids(cls, ids: Sequence[int], tiers: bytes | bytearray) -> TierIndex:
        """Build from ids in any order and one tier index (0-4) per id, as
        ``records.read_tier_ids`` gives them.  Ids that already ascend, as
        ``annotate`` writes them, are kept as they are, without a sort."""
        index = cls.__new__(cls)
        index._set(ids, tiers)
        return index

    def _set(self, ids: Sequence[int], tiers: bytes | bytearray) -> None:
        if len(ids) != len(tiers):
            raise ValueError(f"{len(ids)} ids but {len(tiers)} tier indices")
        bad = tiers.translate(None, _TIER_INDICES)
        if bad:
            raise ValueError(f"tier index {bad[0]} is not one of 0-{N_TIERS - 1}")
        if not set(map(type, ids)) <= {int}:  # checked in one pass
            ids = list(map(_plain_id, ids))
        if not all(map(operator.le, ids, islice(ids, 1, None))):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids = list(map(ids.__getitem__, order))
            tiers = bytes(map(tiers.__getitem__, order))
        self.ids: Sequence[int] = ids
        self.tiers = bytes(tiers)
        # (ids hashed, seed key, block size, hashes) for sample_epoch; see
        # _keyed_hashes
        self._keyed: tuple[Sequence[int], int, int, list[int]] | None = None

    def counts(self) -> tuple[int, ...]:
        return tuple(self.tiers.count(t) for t in range(N_TIERS))

    def _keyed_hashes(self, key: int, size: int) -> list[int]:
        """``_keyed_block(key, block)`` for each block of ``size`` ids: the
        part of a mixed-regime draw that does not change with the epoch.
        The last key's hashes are kept, 16 bytes per id, so the epochs that
        ``sample_epoch`` samples one call at a time hash each id once; ids
        that replace ``ids`` are hashed again."""
        ids = self.ids
        kept = self._keyed
        if kept is None or kept[0] is not ids or kept[1:3] != (key, size):
            kept = self._keyed = (ids, key, size, [
                _keyed_block(key, ids[start:start + size])
                for start in range(0, len(ids), size)])
        return kept[3]


def _keyed_block(key: int, block: Sequence[int]) -> int:
    """``_mix64(key ^ id)`` of each id of the block, packed in lanes."""
    n = len(block)
    return _mix64_lanes(_pack(block) ^ _lane_constants(n)[0] * key, n)


def _mixed_limit(spec: ScheduleSpec, epoch: int) -> int | None:
    """The epoch's T2-T4 draw limit: a T2-T4 id is kept when
    ``_mix64(_mix64(key ^ id) ^ (epoch + 1))`` is below it.  None when the
    weight rho is 1 (every id kept) and 0 when it is 0 (no T2-T4 id kept).
    The draw ``h >> 11`` is below 2**53 and ``rho * 2**53`` is exact, so
    ``h >> 11 < rho * 2**53`` exactly when ``h < ceil(rho * 2**53) << 11``."""
    rho = tier_weights_mixed(epoch, spec.epochs, spec.hard_start)[2]
    if rho >= 1.0:
        return None
    if rho <= 0.0:
        return 0
    return math.ceil(rho * 2.0**53) << 11


def _epoch_masks(index: TierIndex, spec: ScheduleSpec, epochs: Sequence[int],
                 size: int, keep_hashes: bool = False
                 ) -> Iterator[tuple[Sequence[int], list[bytes]]]:
    """Per block of ``size`` of the index's ids, in order: the block, and
    for each of ``epochs`` one byte per id of it, 1 when the epoch samples
    the id and 0 when not.

    A deterministic regime's mask is the ``translate`` of the block's tier
    bytes.  A mixed-regime block hashes its ids with the seed once, then
    each epoch hashes that with its salt in the same lanes: the T2-T4 ids
    drawn below the epoch's limit are kept, as ``uniform_draw`` decides,
    and T0-T1 ids always.  ``2**64 + limit - 1 - drawn`` lies in
    [limit, 2**64 + limit), so it borrows from no other lane, and its bit
    64 is set exactly when ``drawn < limit``; a T0-T1 id's byte is set by
    an OR.  With ``keep_hashes``, the seed hashes are the index's
    kept ones (``TierIndex._keyed_hashes``).
    """
    ids, tiers = index.ids, index.tiers
    if spec.regime != "mixed":
        tables = [_tier_table(active_tiers(spec.regime, e, spec.epochs))
                  for e in epochs]
        for start in range(0, len(ids), size):
            block_tiers = tiers[start:start + size]
            yield ids[start:start + size], [block_tiers.translate(table)
                                            for table in tables]
        return
    limits = [_mixed_limit(spec, e) for e in epochs]
    key = _mix64(spec.seed & _M64)
    drawn = [(e + 1, limit) for e, limit in zip(epochs, limits) if limit]
    hashes = index._keyed_hashes(key, size) if keep_hashes and drawn else None
    lanes: dict[int, list[tuple[int, int]]] = {}  # n -> per draw (salts, tops)
    for k, start in enumerate(range(0, len(ids), size)):
        block = ids[start:start + size]
        n = len(block)
        simple = tiers[start:start + size].translate(_SIMPLE)
        drawn_masks = []
        if drawn:
            if n not in lanes:
                ones = _lane_constants(n)[0]
                lanes[n] = [(ones * salt, ones * ((1 << 64) + limit - 1))
                            for salt, limit in drawn]
            h = hashes[k] if hashes is not None else _keyed_block(key, block)
            always = int.from_bytes(simple, "little")
            for salts, tops in lanes[n]:
                below = (tops - _mix64_lanes(h ^ salts, n)).to_bytes(16 * n, "little")
                drawn_masks.append((int.from_bytes(below[8::16], "little") | always)
                                   .to_bytes(n, "little"))
        next_drawn = iter(drawn_masks).__next__
        yield block, [b"\x01" * n if limit is None else next_drawn() if limit
                      else simple for limit in limits]


def sample_epoch(index: TierIndex, spec: ScheduleSpec, epoch: int) -> EpochManifest:
    """Molecule ids active at the epoch, in ascending id order.

    A deterministic regime's ids are those whose tier byte its active tier
    set translates to 1.  A mixed-regime molecule is kept when
    ``uniform_draw(seed, id, epoch)`` falls below its tier's weight rho,
    with the same bits (``_epoch_masks``); the seed's hash of each id is
    kept by the index between calls.
    """
    if spec.regime != "mixed":
        mask = index.tiers.translate(
            _tier_table(active_tiers(spec.regime, epoch, spec.epochs)))
        ids = list(compress(index.ids, mask) if 0 in mask else index.ids)
        return EpochManifest(epoch, spec.regime, ids)
    ids = []
    for block, (mask,) in _epoch_masks(index, spec, (epoch,), DRAW_BLOCK,
                                       keep_hashes=True):
        ids += block if 0 not in mask else compress(block, mask)
    return EpochManifest(epoch, spec.regime, ids)


def _manifest_format(epoch: int, regime: str) -> tuple[str, str]:
    """The text before an epoch's first id, and between two of its ids."""
    prefix = '{"epoch":%d,"regime":%s,"id":' % (epoch, json.dumps(regime))
    return prefix, "}\n" + prefix


def _manifest_lines(form: tuple[str, str], texts: Iterable[str]) -> str:
    """The manifest lines of id texts, at least one, in ``form``.  Every
    line of an epoch shares its prefix, so the lines are formatted from it
    rather than serialised one by one; ``str`` of an int is its JSON text."""
    prefix, between = form
    return prefix + between.join(texts) + "}\n"


def write_manifest(fh: TextIO, manifest: EpochManifest) -> None:
    """Write the manifest as JSON lines ``{"epoch":e,"regime":r,"id":i}``,
    one per sampled id, in the manifest's order."""
    form = _manifest_format(manifest.epoch, manifest.regime)
    ids = manifest.sampled_ids
    for start in range(0, len(ids), MANIFEST_BLOCK):
        fh.write(_manifest_lines(form, map(str, ids[start:start + MANIFEST_BLOCK])))


def write_manifests(index: TierIndex, spec: ScheduleSpec, epochs: Sequence[int],
                    outs: Sequence[TextIO]) -> list[int]:
    """Write the manifest of each of ``epochs`` to its file in ``outs``, in
    one ascending pass over the index, and return their sizes.  Each block's
    ids are turned into text once, and each epoch writes the texts its mask
    keeps; the bytes equal ``write_manifest`` of each ``sample_epoch``."""
    forms = [_manifest_format(e, spec.regime) for e in epochs]
    sizes = [0] * len(forms)
    for block, masks in _epoch_masks(index, spec, epochs, DRAW_BLOCK):
        texts = list(map(str, block))
        for k, (mask, fh, form) in enumerate(zip(masks, outs, forms)):
            kept = mask.count(1)
            if kept:
                fh.write(_manifest_lines(
                    form, texts if kept == len(texts) else compress(texts, mask)))
                sizes[k] += kept
    return sizes


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
