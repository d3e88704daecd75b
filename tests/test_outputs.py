import csv
import hashlib
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascool.outputs import (
    check_entry,
    format_blocks,
    format_rows,
    hash_manifest,
    render_table,
    write_table,
)

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.797e308, -1.797e308, 0.1, 1.0]


def cell_text(value, precision):
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


@pytest.mark.parametrize("precision", [1, 6, 12, 17])
def test_cells_render_as_per_cell_format(tmp_path, precision):
    # rows of mixed cell types, so many row templates are built and reused
    rng = random.Random(precision)
    floats = EDGE_FLOATS + [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-310, 308) for _ in range(500)]
    pool = floats + [np.float64(v) for v in floats[:60]] + [0, -7, 2**70, True, "ok", "a,b", "50%", ""]
    rows = [tuple(rng.choice(pool) for _ in range(4)) for _ in range(400)] + [["", 1.5, "x", 3]]
    header = ("a", "b", "c", "d")
    expected = [[cell_text(v, precision) for v in row] for row in rows]

    write_table(tmp_path / "t.csv", header, rows, precision, "csv", note="stopped")
    # a str cell with a comma is one quoted CSV field (RFC 4180)
    quoted = [[f'"{c}"' if "," in c else c for c in cells] for cells in expected]
    csv_lines = [",".join(header), *(",".join(cells) for cells in quoted), "# stopped"]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(csv_lines) + "\n").encode()

    write_table(tmp_path / "t.json", header, rows, precision, "json")
    payload = {"columns": list(header), "rows": expected}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_bytes() == text.encode()


def test_csv_quotes_str_cells_per_rfc4180(tmp_path):
    rows = [(1.5, "a,b", 'say "hi"'), (2.5, "two\nlines", "ok"), (3.5, "cr\r", "")]
    write_table(tmp_path / "t.csv", ("x", "s", "t"), rows, 12)
    with (tmp_path / "t.csv").open(newline="", encoding="utf-8") as handle:
        read = list(csv.reader(handle))
    assert read == [
        ["x", "s", "t"], ["1.5", "a,b", 'say "hi"'], ["2.5", "two\nlines", "ok"], ["3.5", "cr\r", ""]
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_runs_of_repeated_cell_types(tmp_path, fmt):
    # a row reuses the previous row's template only while its cell types repeat
    rows = [(1.5, 2.5)] * 3 + [(1.5, "a,b")] * 2 + [(0.5, 2.5), ("", 7), ("", 8), (1.5, "c")]
    write_table(tmp_path / "t", ("x", "y"), rows, 12, fmt)
    expected = [[cell_text(v, 12) for v in row] for row in rows]
    if fmt == "csv":
        lines = ["x,y", *(",".join(f'"{c}"' if "," in c else c for c in cells) for cells in expected)]
        assert (tmp_path / "t").read_text(encoding="utf-8") == "\n".join(lines) + "\n"
    else:
        assert json.loads((tmp_path / "t").read_text(encoding="utf-8"))["rows"] == expected


@pytest.mark.parametrize(
    "header,rows,note",
    [
        (("x", "y"), [], None),
        ((), [], "stopped early"),
        (("x",), [()], None),
        (("t", "s"), [(0.5, 'say "hi"'), (1.5, "back\\slash"), (2.5, "tab\tnl\ncr\r\x00\x1f\x7f")], None),
        (("t", "s", "n"), [(0.5, "caf\u00e9 \u03c9\u2080 \U0001f600", ""), (math.nan, "", 3)], 'n\u00e9 "x"\\'),
        (("caf\u00e9", 'q"'), [(1.5, True), (-0.0, 2**70), ("", "")], "integration_error: (at t = 2)"),
    ],
)
def test_json_table_is_the_indented_dump_byte_for_byte(tmp_path, header, rows, note):
    # the writer lays out json.dumps(indent=2, sort_keys=True) itself, cell by C-encoded cell
    write_table(tmp_path / "t.json", header, rows, 12, "json", note)
    payload = {"columns": list(header), "rows": [[cell_text(v, 12) for v in row] for row in rows]}
    if note is not None:
        payload["note"] = note
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_row_blocks_join_into_one_table(tmp_path, fmt):
    # blocks of consecutive rows, empty ones included, join into the block of all
    # the rows, which frames into the table's bytes; a CSV row of one empty cell is
    # still a line of its own
    rows = [(0.5, "a,b"), ("",), (), (1.5, 2), ("",)]
    write_table(tmp_path / "t", ("x", "y"), rows, 12, fmt, "stopped")
    for cut in range(len(rows) + 1):
        blocks = [format_rows(rows[:cut], 12, fmt), "", format_rows(rows[cut:], 12, fmt)]
        assert render_table(("x", "y"), "".join(blocks), fmt, "stopped").encode() == (tmp_path / "t").read_bytes()


@settings(derandomize=True, database=None, max_examples=200)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308]) | st.floats()] * width),
            max_size=12,
        ).map(lambda rows: (width, rows))
    ),
    st.floats(),
    st.sampled_from([6, 12, 17]),
    st.sampled_from(["csv", "json"]),
)
def test_blocks_of_float_columns_are_format_rows(table, constant, precision, fmt):
    # any of a row's columns, in any order, and the constant past its end give format_rows'
    # bytes, and blocks cut at any row join into the uncut block
    width, rows = table
    columns = [(0, *range(1, width)), (0, *range(width, 0, -1)), (width - 1, width, 0)]
    expected = [format_rows([[(*row, constant)[k] for k in cols] for row in rows], precision, fmt) for cols in columns]
    assert format_blocks(rows, columns, precision, fmt, constant) == expected
    for cut in range(len(rows) + 1):
        head, tail = (format_blocks(part, columns, precision, fmt, constant) for part in (rows[:cut], rows[cut:]))
        assert [h + t for h, t in zip(head, tail)] == expected


def test_hash_manifest_is_sha256_of_the_file_bytes(tmp_path):
    # more than 1 MiB is the size that used to be hashed in two chunks
    files = {"empty.csv": b"", "sub/large.bin": random.Random(0).randbytes((1 << 20) + 7)}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    manifest = hash_manifest(tmp_path, [tmp_path / "sub/large.bin", tmp_path / "empty.csv"])
    assert list(manifest) == ["empty.csv", "sub/large.bin"]
    assert manifest == {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def test_hash_manifest_falls_back_to_hashlib(tmp_path, monkeypatch):
    # the manifest hashes with CPython's built-in _sha2 (3.12+) or _sha256 (3.10, 3.11); blocked,
    # hashlib's sha256 stands in and gives the same map
    files = {"a.csv": b"t,value\n0,1\n", "sub/b.json": b"{}\n"}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    paths = [tmp_path / name for name in files]
    sha256, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    built_in = hash_manifest(tmp_path, paths)
    assert calls == []
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert hash_manifest(tmp_path, paths) == built_in == {name: sha256(data).hexdigest() for name, data in files.items()}
    assert calls == list(files.values())


@pytest.mark.parametrize(
    "kind, target, tolerance, edges",
    [
        # each edge is exactly the tolerance away, and the edges and the steps beyond
        # them differ from the target by exactly representable amounts
        ("rel", 1.0, 0.25, (0.75, 1.25)),
        ("rel", -4.0, 0.25, (-5.0, -3.0)),
        ("abs", 3.0, 0.5, (2.5, 3.5)),
        ("abs", 0.0, 1e-300, (-1e-300, 1e-300)),
    ],
)
def test_check_entry_passes_at_the_tolerance_and_fails_one_step_beyond(kind, target, tolerance, edges):
    low, high = edges
    for value, passed in [
        (target, True),
        (low, True),
        (high, True),
        (math.nextafter(low, -math.inf), False),
        (math.nextafter(high, math.inf), False),
    ]:
        entry = check_entry("x", value, target, tolerance, kind)
        assert entry["passed"] is passed, (value, entry)


def test_check_entry_upper_is_strict():
    assert check_entry("x", math.nextafter(2.0, -math.inf), 2.0, 0.1, "upper")["passed"] is True
    assert check_entry("x", 2.0, 2.0, 0.1, "upper")["passed"] is False
    assert check_entry("x", 2.05, 2.0, 0.1, "upper")["passed"] is False  # the tolerance is ignored


@pytest.mark.parametrize("kind", ["rel", "abs", "upper"])
def test_check_entry_fails_a_nan_value(kind):
    entry = check_entry("x", math.nan, 1.0, 1e300, kind)
    assert entry["passed"] is False
    assert entry.keys() == {"name", "value", "target", "tolerance", "kind", "passed"}


def test_check_entry_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown check kind 'lower'"):
        check_entry("x", 1.0, 2.0, 0.1, "lower")
