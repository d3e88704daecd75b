"""Deterministic CSV/JSON emission and the reproduction manifest.

Table cells are rendered by :func:`render_table` with ``%.{precision}g``
for floats, the same digits as :func:`format_float`; files end with a
newline and use LF endings, and JSON is sorted -- two runs of the same
config produce byte-identical files, which the manifest check relies on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence


def format_float(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _cell_formats(types: tuple[type, ...], precision: int) -> tuple[str, ...]:
    """%-format of each cell: %g for floats, empty for None, str() for the rest."""
    return tuple(
        f"%.{precision}g" if issubclass(t, float) else "%.0s" if t is type(None) else "%s"
        for t in types
    )


def _csv_field(text: str) -> str:
    """A str cell as one CSV field: quoted per RFC 4180 if it holds , " or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: json.dumps' own string encoder (the C one where available)
_json_str = json.encoder.encode_basestring_ascii


def _json_cell(value) -> str:
    """A %s-formatted cell as the JSON string json.dumps writes for it."""
    return _json_str("%s" % value)


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
    write_text(path, render_table(header, rows, precision, fmt, note))


def render_table(
    header: Sequence[str],
    rows: Iterable[Sequence],
    precision: int,
    fmt: str = "csv",
    note: str | None = None,
) -> str:
    """A table's file text: CSV (default) or a columnar JSON document.

    Each row is rendered with a %-template built from its cell types,
    together with the positions of the cells that need quoting -- str
    cells in CSV, %s cells in JSON -- so rows of floats pay nothing for
    it; the template is kept while the cell types repeat the previous
    row's and rebuilt when they change.  JSON is the bytes of
    ``json.dumps(payload, indent=2, sort_keys=True)`` with every cell a
    string, laid out here instead, because an indented dump runs json's
    pure-Python encoder.  ``note`` (say, why the table stops early) is a
    trailing ``# note`` line in CSV and a ``"note"`` key in JSON.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    csv = fmt == "csv"
    quote = _csv_field if csv else _json_cell
    formatted = []
    last_types = None
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types != last_types:  # most rows repeat the previous row's cell types
            last_types = types
            cells = _cell_formats(types, precision)
            if csv:
                quoted = tuple(i for i, t in enumerate(types) if issubclass(t, str))
                template = ",".join(cells)
            else:  # %g and empty cells need no JSON escapes, so they are quoted in place
                quoted = tuple(i for i, c in enumerate(cells) if c == "%s")
                template = _json_array([c if c == "%s" else f'"{c}"' for c in cells], "    ")
        if quoted:
            row = tuple(quote(c) if i in quoted else c for i, c in enumerate(row))
        formatted.append(template % row)
    if csv:
        lines = [",".join(header), *formatted]
        if note is not None:
            lines.append(f"# {note}")
        text = "\n".join(lines) + "\n"
    else:
        text = '{\n  "columns": ' + _json_array([_json_str(h) for h in header], "  ")
        if note is not None:
            text += ',\n  "note": ' + _json_str(note)
        text += ',\n  "rows": ' + _json_array(formatted, "  ") + "\n}\n"
    return text


def write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8, creating the parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json(path: Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def hash_manifest(out_dir: Path, files: Iterable[Path]) -> dict[str, str]:
    """Relative path -> SHA-256 content hash, sorted by path."""
    entries = {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
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

