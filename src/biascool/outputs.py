"""Deterministic CSV/JSON emission and the reproduction manifest.

Float cells are ``%.{precision}g``, the digits of :func:`format_float`, in
blocks of rows of mixed cells from :func:`format_rows` or of floats from
:func:`format_blocks` (one %-operation on a row template per block),
framed alike by :func:`render_table`; files end with a newline and use LF
endings, and JSON is sorted -- two runs of the same config produce
byte-identical files, which the manifest check relies on.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Sequence
from itertools import chain
from pathlib import Path


def format_float(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _csv_field(text: str) -> str:
    """A cell's text as one CSV field: quoted per RFC 4180 if it holds , " or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: json.dumps' own string encoder (the C one where available)
_json_str = json.encoder.encode_basestring_ascii


def _row_template(cells: Sequence[str], fmt: str) -> str:
    """A row's text (or %-template): its separator, then its cells, joined by commas (CSV) or quoted (JSON)."""
    if fmt == "csv":
        return "\n" + ",".join(cells)
    return ",\n    " + _json_array([f'"{c}"' for c in cells], "    ")


def _json_array(items: Sequence[str], indent: str) -> str:
    """Encoded items as the JSON array json.dumps(indent=2) writes at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def write_table(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    precision: int,
    fmt: str = "csv",
    note: str | None = None,
) -> None:
    """Write a table as CSV (default) or as a columnar JSON document."""
    write_text(path, render_table(header, format_rows(rows, precision, fmt), fmt, note))


def format_rows(rows: Iterable[Sequence], precision: int, fmt: str) -> str:
    """A table's rows as one block of text, which ``render_table`` frames.

    Each row's text starts with the separator the document puts before it,
    and no rows give an empty block.  A float cell is ``%.{precision}g``, and
    any other cell is its ``str()``, quoted for CSV or escaped for JSON.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    quote = _csv_field if fmt == "csv" else lambda text: _json_str(text)[1:-1]  # _row_template quotes it
    number = f"%.{precision}g"
    return "".join(
        _row_template([number % c if isinstance(c, float) else quote(str(c)) for c in row], fmt)
        for row in rows
    )


def format_blocks(rows: Sequence[tuple], columns: Iterable[Sequence[int]], precision: int, fmt: str,
                  constant: float = 0.0) -> list[str]:
    """``format_rows``' block of each selection of the float ``rows``' columns, from one %-operation each.

    Column 0 is formatted once for every block; a column past the rows' end is ``constant``.
    """
    number, width = f"%.{precision}g", len(rows[0]) if rows else 1
    cells = list(chain.from_iterable(rows))
    texts = [list(map(number.__mod__, cells[::width]))] + [cells[k::width] for k in range(1, width)]
    blocks = []
    for cols in columns:
        used = [texts[k] for k in cols if k < width]
        table = [None] * (len(used) * len(rows))
        for i, column in enumerate(used):
            table[i :: len(used)] = column
        specs = ["%s" if k == 0 else number if k < width else number % constant for k in cols]
        blocks.append(_row_template(specs, fmt) * len(rows) % tuple(table))
    return blocks


def render_table(header: Sequence[str], rows: str, fmt: str, note: str | None) -> str:
    """A table's file text, CSV or a columnar JSON document: its block of ``rows`` (``format_rows``' text), framed.

    The frame is the header, the note and JSON's brackets.  JSON is the bytes
    of ``json.dumps(payload, indent=2, sort_keys=True)`` with every cell a
    string, laid out here instead, because an indented dump runs json's
    pure-Python encoder.  ``note`` (say, why the table stops early) is a
    trailing ``# note`` line in CSV and a ``"note"`` key in JSON.
    """
    if fmt == "csv":
        return ",".join(header) + rows + ("" if note is None else f"\n# {note}") + "\n"
    text = '{\n  "columns": ' + _json_array([_json_str(h) for h in header], "  ")
    if note is not None:
        text += ',\n  "note": ' + _json_str(note)
    # the first row's separator, less its comma, opens the array
    return text + ',\n  "rows": ' + ("[" + rows[1:] + "\n  ]" if rows else "[]") + "\n}\n"


def write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 with LF endings on every platform, creating the parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def write_json(path: Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def hash_manifest(out_dir: Path, files: Iterable[Path]) -> dict[str, str]:
    """Relative path -> SHA-256 content hash, sorted by path.

    The hash is CPython's built-in one, ``_sha2`` from 3.12 and ``_sha256`` before: ``hashlib``
    would load OpenSSL, several ms for a few files.  Without it, ``hashlib``'s stands in.
    """
    try:
        sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        from hashlib import sha256

    entries = {
        path.relative_to(out_dir).as_posix(): sha256(path.read_bytes()).hexdigest()
        for path in files
    }
    return dict(sorted(entries.items()))


def tf_label(t_final: float) -> str:
    """Stable filename tag for a ramp time (e.g. 0.5 -> 'tf0.5')."""
    return "tf" + format_float(t_final, 12)


def check_entry(name: str, value: float, target: float, tolerance: float, kind: str) -> dict:
    """One hard-check record.

    kind 'rel'/'abs': |value - target| within tolerance (relative or
    absolute); kind 'upper': value strictly below target (tolerance
    ignored, kept for a uniform record shape).
    """
    if kind == "rel":
        passed = abs(value - target) <= tolerance * abs(target)
    elif kind == "abs":
        passed = abs(value - target) <= tolerance
    elif kind == "upper":
        passed = value < target
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return {
        "name": name,
        "value": value,
        "target": target,
        "tolerance": tolerance,
        "kind": kind,
        "passed": bool(passed),
    }

