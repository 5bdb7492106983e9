"""Annotated records: the fixed JSONL schema, its writer and its one reader.

``annotate`` writes one compact JSON object per molecule, its fields in
``RECORD_FIELDS`` order (``dumps_record``, plus ``rule_trace`` with
``--trace``).  ``scan_records`` reads such a file back in blocks of whole
lines, about ``READ_BLOCK`` characters (16 KB) each.  A reader matches a
block with one ``findall`` of a multi-line form of that exact layout
(``block_layout(captured)``), which captures only the values the reader
needs.  The layout accepts only text that ``json.loads`` accepts, and
captures each value as the same text ``json.loads`` would convert.  When
the pattern matches every line of a block, the block needs no per-line
work.  Otherwise every non-blank line of that block (spaced separators,
reordered keys, escaped strings, ``NaN``, extra fields, or no record at
all) goes through ``json.loads``.  So both paths yield the same values,
and the same errors with the same line numbers.  The patterns are
compiled on first use.

The readers built on it:

* ``read_tier_ids`` for ``schedule``: the ids in file order with one tier
  byte per record, checked for an integer id, a tier T0-T4 and no repeated
  id;
* ``read_stat_columns`` for ``stats``: ``mw``, ``bertz_ct`` and ``n_ring``
  as float columns, checked finite, plus one tier byte per record;
* ``pipeline.read_annotated``: every record as a dict, each line through
  ``json.loads``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from array import array
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedLine
from .tiering import TIERS

RECORD_FIELDS = (
    "id", "smiles", "d_scaf", "rarity", "conjugation", "arom_sub", "bertz_ct",
    "n_ha", "n_het", "n_ring", "n_sc", "n_fg", "mw", "fg_names", "tier",
)

# the fields read_stat_columns keeps, in the order it checks them
STAT_FIELDS = ("mw", "bertz_ct", "n_ring")

# characters of whole lines read and matched at once, ~60 records of ~270
# characters: on 25,000 records, blocks of 16 to 64 KB read equally fast
# and 1 MB blocks 5-10% slower; the heap a read leaves behind grows with
# the block, and at 2M records `stats` peaked at 101.9 MB with 1 MB blocks,
# 93.4 MB with 64 KB ones and 93.2 MB, as line by line, with 16 KB ones
READ_BLOCK = 1 << 14


def dumps_record(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


# The JSON grammar, less what the readers could not hand over as text.
# Digits are spelled [0-9], since \d also matches other scripts' digits,
# which JSON rejects.  A string holds no escape and no control character,
# so its text is its value.  An integer part keeps at most 100 digits,
# well inside any int() digit limit that json.loads would hit, and float()
# of such an integer's text equals float() of json.loads' int.  A "-0"
# bertz_ct, n_ring or mw is left to json.loads, whose int 0 is not
# float("-0").  An optional part is written (?:...|), which the regex
# engine runs faster than (?:...)?.  No possessive quantifier or atomic
# group: Python 3.10 has neither.  No value holds a group of its own;
# _layout adds one around each value a reader captures.
_FRACTION_EXPONENT = r"(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"
_NUMBER = r"-?(?:0|[1-9][0-9]{0,99})" + _FRACTION_EXPONENT
_STRING = r'"[^"\\\x00-\x1f]*"'
_FLOAT = r"(?:-?(?:[1-9][0-9]{0,99}|0(?=[.eE]))|0)" + _FRACTION_EXPONENT
_VALUES = {  # every other field is a _NUMBER
    "id": r"-?(?:0|[1-9][0-9]{0,99})",
    "smiles": _STRING,
    "bertz_ct": _FLOAT,
    "n_ring": _FLOAT,
    "mw": _FLOAT,
    "fg_names": rf"\[(?:{_STRING}(?:,{_STRING})*|)\]",
    "tier": '"T[0-4]"',
}


def _layout(captured: tuple[str, ...]) -> str:
    """The compact record as a pattern, one group around the value of each
    field in ``captured`` (a string's without its quotes), in record order."""
    fields = []
    for name in RECORD_FIELDS:
        value = _VALUES.get(name, _NUMBER)
        if name in captured:
            value = f'"({value[1:-1]})"' if value[0] == '"' else f"({value})"
        fields.append(f'"{name}":{value}')
    return r"\{" + ",".join(fields) + f'(?:,"rule_trace":{_STRING}|)' + r"\}"


@functools.cache
def block_layout(captured: tuple[str, ...]) -> re.Pattern:
    """The compact record as a whole line of a block (``^...$`` in
    ``re.MULTILINE``), capturing the fields in ``captured``, compiled on
    first use: the compile takes a few milliseconds, which every command
    that imports this module but reads no record would otherwise pay.  No
    value spans a newline, so each match is one whole line, and a block's
    ``findall`` finds as many matches as the block has lines exactly when
    every line is a compact record."""
    return re.compile("^" + _layout(captured) + "$", re.MULTILINE)


_TIER_INDEX = {tier: t for t, tier in enumerate(TIERS)}
# the digit of each tier's name -> its index
_TIER_DIGITS = bytes.maketrans(b"01234", bytes(range(len(TIERS))))


def _tier_bytes(names: tuple[str, ...]) -> bytes:
    """The tier index of each tier name T0-T4, one byte each."""
    return "".join(names).encode()[1::2].translate(_TIER_DIGITS)


# (line number, json.loads value, or None for text that is not JSON)
Row = tuple[int, object]


def scan_records(path: str | Path, layout: re.Pattern | None = None
                 ) -> Iterator[tuple[int, list | None, Iterable[Row]]]:
    """Per block of whole lines of ``path``: (its first line number, the
    ``layout.findall`` of the block, ()) when ``layout`` matches every line,
    else (first line number, None, a row for each non-blank line).  Without
    ``layout``, every block gives rows.

    A byte that is not UTF-8 raises UnicodeDecodeError after the rows of
    the lines before it, as reading one line at a time would."""
    first = 1
    with open(path, encoding="utf-8") as fh:
        while True:
            try:
                lines = fh.readlines(READ_BLOCK)
            except UnicodeDecodeError:
                # the lines read before the bad byte are lost with the
                # block: the rest of the file is read again one line at a
                # time, whose rows end in the same error
                yield first, None, _rows_from(path, first)
                return
            if not lines:
                return
            if layout is not None:
                found = layout.findall("".join(lines))
                if len(found) == len(lines):
                    yield first, found, ()
                    first += len(lines)
                    continue
            yield first, None, _rows(lines, first)
            first += len(lines)


def _rows(lines: Iterable[str], first: int) -> Iterator[Row]:
    for n, line in enumerate(lines, first):
        if line.strip():
            try:
                value = json.loads(line)
            except ValueError:
                value = None
            yield n, value


def _rows_from(path: str | Path, first: int) -> Iterator[Row]:
    """The rows of ``path`` from line ``first`` on, its lines read one at a
    time, so a decode error is raised where that reading raises it."""
    with open(path, encoding="utf-8") as fh:
        yield from _rows(islice(fh, first - 1, None), first)


class TierIds(NamedTuple):
    """A file's ids in file order, and one tier index per id."""

    ids: list[int]
    tiers: bytearray


def read_tier_ids(path: str | Path) -> TierIds:
    """The ids of ``path`` in file order, each with its tier index.

    Raises MalformedLine, naming the line, for a record without an integer
    id and a tier T0-T4, or with an earlier record's id.  ``annotate``
    writes ids in rising order, so while they rise, a block of ids is
    only compared with itself and the id before it; from the first id that
    is not above the one before, a set of the ids read holds the check.
    """
    ids: list[int] = []
    tiers = bytearray()
    last = -math.inf
    seen: set[int] | None = None
    for first, found, rows in scan_records(path, block_layout(("id", "tier"))):
        if found is not None:
            id_texts, tier_names = zip(*found)
            block = list(map(int, id_texts))
            if seen is None and block[0] > last and all(
                    map(operator.lt, block, islice(block, 1, None))):
                last = block[-1]
            else:
                if seen is None:
                    seen = set(ids)
                size = len(seen)
                seen.update(block)
                if len(seen) - size < len(block):
                    _raise_repeat(path, ids, block, first)
            ids += block
            tiers += _tier_bytes(tier_names)
            continue
        for n, row in rows:
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
                    ids.append(mol_id)
                    tiers.append(_TIER_INDEX[tier])
                    continue
                seen = set(ids)
            if mol_id in seen:
                raise MalformedLine(f"{path}:{n}: id {mol_id} appears twice")
            seen.add(mol_id)
            ids.append(mol_id)
            tiers.append(_TIER_INDEX[tier])
    return TierIds(ids, tiers)


def _raise_repeat(path: str | Path, earlier: list[int], block: list[int],
                  first: int) -> None:
    """Raise MalformedLine for the first id of ``block`` (lines ``first``
    on) that an earlier record holds."""
    seen = set(earlier)
    for n, mol_id in enumerate(block, first):
        if mol_id in seen:
            raise MalformedLine(f"{path}:{n}: id {mol_id} appears twice")
        seen.add(mol_id)


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
    a tier outside T0-T4, or a ``STAT_FIELDS`` value that is not a finite
    number.
    """
    columns = StatColumns(array("d"), array("d"), array("d"), bytearray())
    add_mw, add_ct, add_ring, add_tier = (column.append for column in columns)
    layout = block_layout(("bertz_ct", "n_ring", "mw", "tier"))
    for first, found, rows in scan_records(path, layout):
        if found is not None:
            bertz_ct, n_ring, mw, tier_names = zip(*found)
            columns.bertz_ct.extend(map(float, bertz_ct))
            columns.n_ring.extend(map(float, n_ring))
            columns.mw.extend(map(float, mw))
            # an exponent past a float's range reads as inf, so the block's
            # sum is inf or NaN; finite values whose sum overflows are
            # looked at one by one and pass
            block = [column[-len(found):] for column in columns[:3]]
            if not math.isfinite(sum(map(sum, block))):
                _check_finite(path, first, block)
            columns.tiers.extend(_tier_bytes(tier_names))
            continue
        for n, row in rows:
            if type(row) is not dict:
                raise MalformedLine(f"{path}:{n}: not a JSON record")
            missing = [f for f in (*STAT_FIELDS, "tier") if f not in row]
            if missing:
                raise MalformedLine(f"{path}:{n}: record lacks " + ", ".join(missing))
            if row["tier"] not in TIERS:
                raise MalformedLine(f"{path}:{n}: tier is not one of T0-T4")
            mw, bertz_ct, n_ring = (_float(row[f], f"{path}:{n}: {f}")
                                    for f in STAT_FIELDS)
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
        value = float(value)
    except OverflowError:
        raise MalformedLine(f"{where} is too large for a float") from None
    if not math.isfinite(value):  # NaN, Infinity, or an exponent like 1e999
        raise MalformedLine(f"{where} is not a finite number")
    return value


def _check_finite(path: str | Path, first: int, block: list[array]) -> None:
    """Raise MalformedLine for the first value of ``block`` (the
    ``STAT_FIELDS`` columns of lines ``first`` on) that is not finite."""
    for n, values in enumerate(zip(*block), first):
        for name, value in zip(STAT_FIELDS, values):
            _float(value, f"{path}:{n}: {name}")
