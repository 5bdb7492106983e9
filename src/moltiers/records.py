"""Annotated records: the fixed JSONL schema, its writer and its one reader.

``annotate`` writes one compact JSON object per molecule, its fields in
``RECORD_FIELDS`` order (``dumps_record``, plus ``rule_trace`` with
``--trace``).  ``scan_records`` reads such a file back, one line at a time.
It first matches each line against that exact layout with one pattern
(``record_layout()``, compiled on first use), which accepts only text that
``json.loads`` accepts and captures the values the readers need as the same
text ``json.loads`` would convert.
Any other non-blank line (spaced separators, reordered keys, escaped
strings, ``NaN``, extra fields, or no record at all) goes through
``json.loads``, so either path yields the same values and the same errors.

The readers built on it:

* ``read_tier_ids`` for ``schedule``: the ids of each tier, checked for an
  integer id, a tier T0-T4 and no repeated id;
* ``read_stat_columns`` for ``stats``: ``mw``, ``bertz_ct`` and ``n_ring``
  as float columns plus one tier byte per record;
* ``pipeline.read_annotated``: every record as a dict.
"""

from __future__ import annotations

import functools
import json
import math
import re
from array import array
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import MalformedLine
from .tiering import TIERS

RECORD_FIELDS = (
    "id", "smiles", "d_scaf", "rarity", "conjugation", "arom_sub", "bertz_ct",
    "n_ha", "n_het", "n_ring", "n_sc", "n_fg", "mw", "fg_names", "tier",
)

# the fields read_stat_columns keeps, in the order it checks them
STAT_FIELDS = ("mw", "bertz_ct", "n_ring")


def dumps_record(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


# The JSON grammar, less what the readers could not hand over as text.
# Digits are spelled [0-9], since \d also matches other scripts' digits,
# which JSON rejects.  A string holds no escape and no control character,
# so its text is its value.  An integer part keeps at most 100 digits,
# well inside any int() digit limit that json.loads would hit, and float()
# of such an integer's text equals float() of json.loads' int.  A captured
# "-0" is left to json.loads, whose int 0 is not float("-0").  An optional
# part is written (?:...|), which the regex engine runs faster than
# (?:...)?.  No possessive quantifier or atomic group: Python 3.10 has
# neither.
_FRACTION_EXPONENT = r"(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"
_NUMBER = r"-?(?:0|[1-9][0-9]{0,99})" + _FRACTION_EXPONENT
_STRING = r'"[^"\\\x00-\x1f]*"'
_FLOAT = r"((?:-?(?:[1-9][0-9]{0,99}|0(?=[.eE]))|0)" + _FRACTION_EXPONENT + ")"
_VALUES = {  # every other field is a _NUMBER
    "id": r"(-?(?:0|[1-9][0-9]{0,99}))",
    "smiles": _STRING,
    "bertz_ct": _FLOAT,
    "n_ring": _FLOAT,
    "mw": _FLOAT,
    "fg_names": rf"\[(?:{_STRING}(?:,{_STRING})*|)\]",
    "tier": '"(T[0-4])"',
}


@functools.cache
def record_layout() -> re.Pattern:
    """The pattern a compact record line matches whole, compiled on first
    use: the compile takes a few milliseconds, which every command that
    imports this module but reads no record would otherwise pay.

    Groups: 1 id, 2 bertz_ct, 3 n_ring, 4 mw, 5 tier.
    """
    return re.compile(
        r"\{"
        + ",".join(f'"{name}":' + _VALUES.get(name, _NUMBER) for name in RECORD_FIELDS)
        + f'(?:,"rule_trace":{_STRING}|)' + r"\}\n?"
    )


_TIER_INDEX = {tier: t for t, tier in enumerate(TIERS)}


def scan_records(path: str | Path, match_layout: bool = True
                 ) -> Iterator[tuple[int, re.Match | None, object]]:
    """(line number, match, None) for each line of ``path`` that the record
    layout matches whole, and (line number, None, ``json.loads`` value, or
    None for text that is not JSON) for every other non-blank line.  With
    ``match_layout`` false, every non-blank line goes through ``json.loads``."""
    match = record_layout().fullmatch if match_layout else _no_match
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            found = match(line)
            if found is not None:
                yield n, found, None
            elif line.strip():
                try:
                    value = json.loads(line)
                except ValueError:
                    value = None
                yield n, None, value


def _no_match(line: str) -> None:
    return None


def read_tier_ids(path: str | Path) -> dict[int, list[int]]:
    """Tier index -> the ids of that tier, in file order.

    Raises MalformedLine, naming the line, for a record without an integer
    id and a tier T0-T4, or with an earlier record's id.  ``annotate``
    writes ids in rising order, so each id is only compared with the last
    one until an id is not above it; from there a set of the ids read
    holds the check.
    """
    by_tier: dict[int, list[int]] = {t: [] for t in range(len(TIERS))}
    append = {tier: ids.append for tier, ids in zip(TIERS, by_tier.values())}
    last = -math.inf
    seen: set[int] | None = None
    for n, found, row in scan_records(path):
        if found is not None:
            mol_id, tier = int(found[1]), found[5]
        else:
            try:
                mol_id, tier = row["id"], row["tier"]
            except (LookupError, TypeError):
                mol_id = None
            if type(mol_id) is not int or tier not in TIERS:
                raise MalformedLine(f"{path}:{n}: not a JSON record with an "
                                    "integer id and a tier T0-T4")
        if seen is None:
            if mol_id > last:
                last = mol_id
                append[tier](mol_id)
                continue
            seen = set(chain.from_iterable(by_tier.values()))
        if mol_id in seen:
            raise MalformedLine(f"{path}:{n}: id {mol_id} appears twice")
        seen.add(mol_id)
        append[tier](mol_id)
    return by_tier


class StatColumns(NamedTuple):
    """``STAT_FIELDS`` as float columns, and each record's tier index."""

    mw: array
    bertz_ct: array
    n_ring: array
    tiers: bytearray


def read_stat_columns(path: str | Path) -> StatColumns:
    """The ``stats`` fields of every record, about 25 bytes a record.

    Raises MalformedLine, naming the line, for a line that is not a JSON
    object, or a record that lacks a ``STAT_FIELDS`` field or the tier, has
    a tier outside T0-T4, or a ``STAT_FIELDS`` value that is not a number.
    """
    columns = StatColumns(array("d"), array("d"), array("d"), bytearray())
    add_mw, add_ct, add_ring, add_tier = (column.append for column in columns)
    for n, found, row in scan_records(path):
        if found is not None:
            add_ct(float(found[2]))
            add_ring(float(found[3]))
            add_mw(float(found[4]))
            add_tier(_TIER_INDEX[found[5]])
            continue
        if type(row) is not dict:
            raise MalformedLine(f"{path}:{n}: not a JSON record")
        missing = [f for f in (*STAT_FIELDS, "tier") if f not in row]
        if missing:
            raise MalformedLine(f"{path}:{n}: record lacks " + ", ".join(missing))
        if row["tier"] not in TIERS:
            raise MalformedLine(f"{path}:{n}: tier is not one of T0-T4")
        mw, bertz_ct, n_ring = (_float(row[f], f"{path}:{n}: {f}") for f in STAT_FIELDS)
        add_mw(mw)
        add_ct(bertz_ct)
        add_ring(n_ring)
        add_tier(_TIER_INDEX[row["tier"]])
    return columns


def _float(value: object, where: str) -> float:
    # bool is an int subclass, but JSON true is not a number
    if type(value) not in (int, float):
        raise MalformedLine(f"{where} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise MalformedLine(f"{where} is too large for a float") from None
