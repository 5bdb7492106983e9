"""The annotated-record reader: a line the layout pattern matches and the
same line through ``json.loads`` give the same values, a line the pattern
rejects gives what ``json.loads`` gives, and every rejection keeps its
message."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moltiers.cli import main
import moltiers.records as records_module
from moltiers.errors import MalformedLine
from moltiers.pipeline import read_annotated
from moltiers.records import (
    RECORD_FIELDS,
    dumps_record,
    read_stat_columns,
    read_tier_ids,
    record_layout,
)
from moltiers.tiering import TIERS

from oracles import reference_records, reference_stats_report

NOT_A_TIER_RECORD = "not a JSON record with an integer id and a tier T0-T4"


def record(mol_id: int = 0, **changes) -> dict:
    """A record in the schema's field order, with ``changes`` applied."""
    row = dict(zip(RECORD_FIELDS, (
        mol_id, "CCO", 0.25, 0.5, 2, 1, 17.25, 3, 1, 0, 0, 1, 46.069,
        ["hydroxyl"], "T1")))
    row.update(changes)
    return row


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def assert_reads_like_json(path: Path) -> None:
    """Both readers give what json.loads of every line gives; floats are
    compared bit for bit, so -0.0 and 0.0 differ."""
    rows = [row for _, row in reference_records(path)]
    assert read_tier_ids(path) == {
        t: [r["id"] for r in rows if r["tier"] == tier] for t, tier in enumerate(TIERS)}
    columns = read_stat_columns(path)
    for key in ("mw", "bertz_ct", "n_ring"):
        want = array("d", (float(r[key]) for r in rows))
        assert getattr(columns, key).tobytes() == want.tobytes(), key
    assert columns.tiers == bytearray(TIERS.index(r["tier"]) for r in rows)


# Lines json.loads reads, around a compact record on either side.  matched:
# whether the layout pattern takes the line (False: json.loads reads it).
JSON_LINES = {
    "spaced-separators": (json.dumps(record(7)), False),
    "escaped-smiles": (dumps_record(record(7, smiles="C/C=C/C"))
                       .replace("C/C=C/C", r"C\/C=C\/C"), False),
    "unicode-escape": (dumps_record(record(7, smiles="Cé")), False),
    "raw-unicode": (json.dumps(record(7, smiles="Cé"), separators=(",", ":"),
                               ensure_ascii=False), True),
    "reordered-keys": (dumps_record(dict(reversed(record(7).items()))), False),
    "exponent": (dumps_record(record(7, bertz_ct=1e-05, mw=1.5e300)), True),
    "upper-exponent": (dumps_record(record(7)).replace("17.25", "1725E-2"), True),
    "negative-zero-float": (dumps_record(record(7, mw=-0.0, n_ring=-0.0)), True),
    "negative-zero-int": (dumps_record(record(7)).replace('"n_ring":0', '"n_ring":-0'),
                          False),
    "nan": (dumps_record(record(7, mw=float("nan"))), False),
    "infinity": (dumps_record(record(7, bertz_ct=float("inf"))), False),
    "extra-field": (dumps_record({**record(7), "source": "zinc"}), False),
    "rule-trace": (dumps_record({**record(7), "rule_trace": "t1_common_groups"}), True),
    "no-groups": (dumps_record(record(7, fg_names=[])), True),
    "id-above-2**64": (dumps_record(record(2**70 + 3)), True),
    "id-of-150-digits": (dumps_record(record(10**149 + 1)), False),
    "mw-of-150-digits": (dumps_record(record(7, mw=10**149 + 1)), False),
    "n_ha-of-150-digits": (dumps_record(record(7, n_ha=10**149 + 1)), False),
    "trailing-space": (dumps_record(record(7)) + "  ", False),
}


@pytest.mark.parametrize("line, matched", JSON_LINES.values(), ids=JSON_LINES)
def test_line_reads_as_json_reads_it(tmp_path, line, matched):
    assert (record_layout().fullmatch(line + "\n") is not None) == matched
    path = write_lines(tmp_path / "ann.jsonl", [
        dumps_record(record(3, tier="T0")), line, dumps_record(record(9, tier="T4"))])
    assert_reads_like_json(path)


def test_integer_past_the_digit_limit_is_left_to_json(tmp_path):
    line = dumps_record(record(7)).replace('"n_ha":3', '"n_ha":' + "9" * 5000)
    assert record_layout().fullmatch(line) is None
    path = write_lines(tmp_path / "ann.jsonl", [line])
    try:
        json.loads(line)
    except ValueError:  # int() digit limit: the line is not read as a record
        with pytest.raises(MalformedLine, match=NOT_A_TIER_RECORD):
            read_tier_ids(path)
    else:
        assert read_tier_ids(path) == {0: [], 1: [7], 2: [], 3: [], 4: []}


def test_blank_lines_are_skipped(tmp_path):
    path = write_lines(tmp_path / "ann.jsonl", [
        "", dumps_record(record(1)), "   ", "\t", dumps_record(record(2, tier="T3")), ""])
    assert read_tier_ids(path) == {0: [], 1: [1], 2: [], 3: [2], 4: []}
    assert len(read_stat_columns(path).tiers) == 2
    assert [r["id"] for r in read_annotated(path)] == [1, 2]
    assert_reads_like_json(path)


def test_read_annotated_yields_whole_records(tmp_path):
    rows = [record(1), {**record(2), "rule_trace": "t0_pure_hydrocarbon"}]
    path = write_lines(tmp_path / "ann.jsonl",
                       [dumps_record(rows[0]), "", json.dumps(rows[1])])
    assert list(read_annotated(path)) == rows
    write_lines(path, [dumps_record(rows[0]), "[1]"])
    with pytest.raises(MalformedLine, match=f"{path}:2: not a JSON record$"):
        list(read_annotated(path))


@pytest.mark.parametrize("line", [
    dumps_record(record(1)).replace('"id":1', '"id":1.0'),
    dumps_record(record(1)).replace('"id":1', '"id":true'),
    dumps_record(record(1)).replace('"id":1', '"id":01'),
    dumps_record(record(1))[:-7],
    dumps_record(record(1)).replace('"T1"', '"T5"'),
    dumps_record(record(1)).replace('"tier":"T1"', '"tier":null'),
    dumps_record(record(1)).replace('"n_ha":3', '"n_ha":3\u0663'),
    dumps_record(record(1)).replace('"n_ha":3', '"n_ha":03'),
    dumps_record(record(1)).replace('"n_ha":3', '"n_ha":3.'),
    dumps_record(record(1)).replace('"n_ha":3', '"n_ha":3e'),
    dumps_record(record(1, smiles="C\tC")).replace("\\t", "\t"),
], ids=["float-id", "bool-id", "leading-zero-id", "truncated", "tier-T5", "null-tier",
        "arabic-indic-digit", "leading-zero", "no-fraction-digit", "no-exponent-digit",
        "raw-tab-in-string"])
def test_rejected_record_keeps_its_message(tmp_path, line):
    path = write_lines(tmp_path / "ann.jsonl", [dumps_record(record(0)), line])
    with pytest.raises(MalformedLine) as err:
        read_tier_ids(path)
    assert str(err.value) == f"{path}:2: {NOT_A_TIER_RECORD}"


@pytest.mark.parametrize("ids, line, repeated", [
    ([0, 1, 2, 2], 4, 2),       # the first id out of order is the repeat
    ([0, 5, 3, 7, 3], 5, 3),    # after an id out of order
    ([0, 5, 3, 0], 4, 0),       # an id read while ids rose
    ([-4, 2**70, -4], 3, -4),
], ids=["while-rising", "after-out-of-order", "earlier-rising-id", "huge"])
def test_repeated_id_names_its_second_line(tmp_path, ids, line, repeated):
    path = write_lines(tmp_path / "ann.jsonl",
                       [dumps_record(record(m)) for m in ids])
    with pytest.raises(MalformedLine) as err:
        read_tier_ids(path)
    assert str(err.value) == f"{path}:{line}: id {repeated} appears twice"


def test_ids_out_of_order_keep_file_order(tmp_path):
    ids = [5, 3, 9, -1, 4, 100, 6]
    path = write_lines(tmp_path / "ann.jsonl", [
        dumps_record(record(m, tier=TIERS[m % 2])) for m in ids])
    assert read_tier_ids(path) == {
        t: [m for m in ids if m % 2 == t] for t in range(len(TIERS))}


@pytest.mark.parametrize("change, message", [
    ({"tier": "T9"}, "tier is not one of T0-T4"),
    ({"tier": ["T1"]}, "tier is not one of T0-T4"),
    ({"mw": "x"}, "mw is not a number"),
    ({"mw": None}, "mw is not a number"),
    ({"bertz_ct": True}, "bertz_ct is not a number"),
    ({"n_ring": [1]}, "n_ring is not a number"),
    ({"mw": 10**400}, "mw is too large for a float"),
], ids=["tier-T9", "tier-list", "mw-string", "mw-null", "bertz_ct-true",
        "n_ring-list", "mw-huge-int"])
def test_stat_value_errors_name_the_line(tmp_path, change, message):
    path = write_lines(tmp_path / "ann.jsonl", [
        dumps_record(record(0)), "", dumps_record(record(1, **change))])
    with pytest.raises(MalformedLine) as err:
        read_stat_columns(path)
    assert str(err.value) == f"{path}:3: {message}"


def test_stats_report_equals_whole_record_reference(tmp_path, capsys):
    rng = random.Random(5)
    lines = []
    for k in range(400):
        row = record(k, bertz_ct=rng.random() * 300.0, n_ring=rng.randint(0, 4),
                     mw=rng.choice([rng.random() * 500.0, rng.randint(10, 900)]),
                     tier=rng.choice(TIERS[1:]))
        lines.append(json.dumps(row) if k % 7 == 0 else dumps_record(row))
    path = write_lines(tmp_path / "ann.jsonl", lines)
    report = tmp_path / "stats.json"
    assert main(["stats", "--annotated", str(path), "--json", str(report)]) == 0
    want = reference_stats_report(path)
    assert report.read_text() == json.dumps(want, indent=2) + "\n"
    assert want["tier_histogram"]["T0"] == 0
    out = capsys.readouterr().out
    assert out.startswith("records: 400\n")
    assert "   T0         0  -\n" in out


# -- properties ---------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.integers(min_value=-10**120, max_value=10**120),
)
TEXT = st.text(max_size=12)


@st.composite
def records(draw, mol_id=st.integers(min_value=-2**70, max_value=2**70)):
    row = {}
    for name in RECORD_FIELDS:
        if name == "id":
            row[name] = draw(mol_id)
        elif name == "smiles":
            row[name] = draw(TEXT)
        elif name == "fg_names":
            row[name] = draw(st.lists(TEXT, max_size=4))
        elif name == "tier":
            row[name] = draw(st.sampled_from(TIERS))
        else:
            row[name] = draw(NUMBERS)
    if draw(st.booleans()):
        row["rule_trace"] = draw(TEXT)
    return row


def plain(row: dict) -> bool:
    """Whether the layout pattern must take the record's compact line: no
    string needs an escape, no float is NaN or infinite, and no integer
    runs past 100 digits."""
    texts = [row["smiles"], *row["fg_names"], row.get("rule_trace", "")]
    return (all(json.dumps(t)[1:-1] == t for t in texts)
            and all(v == v and abs(v) != float("inf")
                    for v in row.values() if type(v) is float)
            and all(len(str(abs(v))) <= 100 for v in row.values() if type(v) is int))


def assert_groups_equal_json(found, line: str) -> None:
    row = json.loads(line)
    assert int(found[1]) == row["id"]
    for group, key in ((2, "bertz_ct"), (3, "n_ring"), (4, "mw")):
        assert repr(float(found[group])) == repr(float(row[key])), key
    assert found[5] == row["tier"]


@given(records())
@settings(max_examples=300, deadline=None)
def test_layout_match_equals_json(row):
    line = dumps_record(row) + "\n"
    found = record_layout().fullmatch(line)
    assert (found is not None) == plain(row)
    if found is not None:
        assert_groups_equal_json(found, line)


@given(st.lists(records(), max_size=12, unique_by=lambda r: r["id"]))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_both_paths_read_a_file_alike(tmp_path, rows):
    lines = [dumps_record(r) if k % 3 else json.dumps(r) for k, r in enumerate(rows)]
    assert_reads_like_json(write_lines(tmp_path / "ann.jsonl", lines))


# characters that change what a JSON line means
EDITS = '"\\,:{}[]-+.eE019 \t\x00\x1fNT/u'


@given(records(), st.data())
@settings(max_examples=500, deadline=None)
def test_layout_accepts_only_json(row, data):
    """An edited compact line that the pattern still takes is JSON, and
    holds what the pattern captured."""
    line = dumps_record(row)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(line)))
        char = data.draw(st.sampled_from(EDITS))
        cut = data.draw(st.integers(0, 1))
        line = line[:at] + char + line[at + cut:]
    found = record_layout().fullmatch(line)
    if found is not None:
        assert_groups_equal_json(found, line)


# Counts the patterns compiled while the annotate and prevalence commands'
# modules are imported, then while the layout is first used, one JSON list each.
_IMPORT_PROBE = """
import json, re
compiled = []
real = re.compile

def counting(pattern, flags=0):
    compiled.append(str(pattern))
    return real(pattern, flags)

re.compile = counting
import moltiers.cli, moltiers.pipeline
print(json.dumps(compiled))
compiled.clear()
from moltiers.records import record_layout
record_layout()
print(json.dumps(compiled))
"""


def test_importing_the_pipeline_compiles_no_layout():
    env = dict(os.environ, PYTHONPATH=str(Path(records_module.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    on_import, on_first_use = map(json.loads, out.splitlines())
    layout = record_layout().pattern
    assert layout not in on_import
    assert on_first_use == [layout]


def test_layout_is_compiled_once():
    assert record_layout() is records_module.record_layout()
    with pytest.raises(AttributeError, match="NO_SUCH_NAME"):
        records_module.NO_SUCH_NAME
