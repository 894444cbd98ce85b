"""Tabular file ingestion: CSV, TSV/TXT, JSON, and Markdown pipe tables.

Every reader funnels into the same two steps: parse the file into a
:class:`Table` of raw string cells, then coerce one column (or all
numeric columns) into a validated, sorted sample. Parsing is pure per
file content; format detection is by extension only. A file that cannot
be opened, decoded or split into fields raises :class:`DataFormatError`.

Each column that is read is turned into numbers in one pass, and both
the decision that it is numeric and its sample are taken from that
pass. Numeric coercion accepts integers, decimals, and scientific
notation. Locale decimal commas are not recognized. Empty cells are
skipped silently; non-empty cells that fail to parse (or parse to
non-finite values) are dropped and reported with a count via
``warnings``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError
from .kde import as_sample

__all__ = ["Table", "read_data", "parse_markdown_table", "SUPPORTED_EXTENSIONS"]

SUPPORTED_EXTENSIONS = (".csv", ".tsv", ".txt", ".json", ".md")

# A column is auto-selectable when at least this share of its non-empty
# cells parses as a finite number.
NUMERIC_SHARE = 0.9


@dataclass(frozen=True)
class Table:
    """Parsed tabular text: ordered column names and raw string cells."""

    column_names: tuple[str, ...]
    columns: dict[str, list[str]]

    def __post_init__(self):
        names = tuple(str(n).strip() for n in self.column_names)
        if len(set(names)) != len(names):
            raise DataFormatError("table: duplicate column names after trimming")
        cells = {str(n).strip(): v for n, v in self.columns.items()}
        if set(cells) != set(names):
            raise DataFormatError("table: column names and cell columns disagree")
        if len({len(v) for v in cells.values()}) > 1:
            raise DataFormatError("table: columns have unequal lengths")
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "columns", cells)


def _parse_number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_column(cells: list[str]) -> tuple[list[float], int]:
    """The finite numbers among ``cells`` and the count of non-empty cells that are not."""
    cells = [c for c in (cell.strip() for cell in cells) if c != ""]
    numeric = [v for v in map(_parse_number, cells) if v is not None]
    return numeric, len(cells) - len(numeric)


def _is_numeric(numeric: list[float], dropped: int) -> bool:
    return bool(numeric) and len(numeric) / (len(numeric) + dropped) >= NUMERIC_SHARE


def _coerce_column(name: str, numeric: list[float], dropped: int, origin: str) -> np.ndarray:
    if dropped:
        warnings.warn(
            f"{origin}: column {name!r}: dropped {dropped} non-numeric cell(s)",
            stacklevel=3,
        )
    if len(numeric) < 2:
        raise DataFormatError(f"{origin}: column {name!r}: fewer than 2 numeric values")
    return as_sample(numeric)


def _rows_to_table(names: list[str], rows: list[list[str]]) -> Table:
    """The named columns of ``rows``; a short row's missing cells are empty."""
    columns = {n: [r[i] if i < len(r) else "" for r in rows] for i, n in enumerate(names)}
    return Table(column_names=tuple(names), columns=columns)


def _read_delimited(path: Path, delimiter: str) -> Table:
    """A CSV or TSV table; a first row of numbers and empty cells is data, not a header."""
    with open(path, newline="", encoding="utf-8") as f:
        if delimiter == ",":
            reader = csv.reader(f)
        else:
            reader = csv.reader(f, delimiter=delimiter, quoting=csv.QUOTE_NONE)
        rows = [r for r in reader if any(map(str.strip, r))]
    if not rows:
        raise DataFormatError(f"{path.name}: no data rows")
    head = [c.strip() for c in rows[0]]
    if all(_parse_number(c) is not None for c in head if c != ""):
        return _rows_to_table([f"col{i}" for i in range(len(head))], rows)
    return _rows_to_table(head, rows[1:])


def _read_json(path: Path) -> Table:
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path.name}: invalid JSON: {e}", line=e.lineno) from e
    except (ValueError, RecursionError) as e:  # an integer past Python's digit limit, or nesting too deep
        raise DataFormatError(f"{path.name}: invalid JSON: {e}") from e

    def to_cells(seq) -> list[str]:
        return ["" if v is None else str(v) for v in seq]

    if isinstance(payload, list) and all(isinstance(v, (int, float, type(None))) for v in payload):
        return Table(column_names=("values",), columns={"values": to_cells(payload)})
    if isinstance(payload, list) and payload and all(isinstance(v, dict) for v in payload):
        names = list(payload[0].keys())
        if any(list(row.keys()) != names for row in payload):
            raise DataFormatError(f"{path.name}: objects in array have differing keys")
        return Table(
            column_names=tuple(names),
            columns={n: to_cells(row[n] for row in payload) for n in names},
        )
    if isinstance(payload, dict) and payload and all(isinstance(v, list) for v in payload.values()):
        names = list(payload.keys())
        return Table(column_names=tuple(names), columns={n: to_cells(payload[n]) for n in names})
    raise DataFormatError(
        f"{path.name}: expected an array of numbers, an array of uniform objects, "
        "or an object of arrays"
    )


_DELIMITER_CELL = re.compile(r"^:?-+:?$")
_PIPE = re.compile(r"(?<!\\)\|")  # a cell boundary: a pipe not escaped as \|


def _split_pipe_row(line: str) -> list[str]:
    parts = _PIPE.split(line)
    stripped = line.strip()
    if stripped.startswith("|"):
        parts = parts[1:]
    if stripped.endswith("|") and not stripped.endswith("\\|"):
        parts = parts[:-1]
    return [p.replace("\\|", "|").strip() for p in parts]


def parse_markdown_table(text: str) -> Table:
    """Parse the first pipe table in ``text``.

    Requires a header row, a delimiter row of dashes with optional
    alignment colons, and at least one data row. The row above the
    delimiter row is always the header, even when its cells are numbers.
    Pipes escaped as ``\\|`` stay inside their cell.
    """
    lines = text.splitlines()
    header_at = None
    for i, line in enumerate(lines):
        if "|" in line and line.strip():
            header_at = i
            break
    if header_at is None:
        raise DataFormatError("markdown: no pipe table found")
    names = _split_pipe_row(lines[header_at])
    if header_at + 1 >= len(lines):
        raise DataFormatError("markdown: missing delimiter row", line=header_at + 2)
    delim_cells = _split_pipe_row(lines[header_at + 1])
    if not delim_cells or not all(_DELIMITER_CELL.match(c) for c in delim_cells):
        raise DataFormatError("markdown: malformed delimiter row", line=header_at + 2)
    rows = []
    for line in lines[header_at + 2 :]:
        if "|" not in line or not line.strip():
            break
        rows.append(_split_pipe_row(line))
    if not rows:
        raise DataFormatError("markdown: table has no data rows", line=header_at + 3)
    return _rows_to_table(names, [r for r in rows if any(r)])  # cells are stripped


def _read_markdown(path: Path) -> Table:
    return parse_markdown_table(path.read_text(encoding="utf-8"))


_READERS = {
    ".csv": lambda p: _read_delimited(p, ","),
    ".tsv": lambda p: _read_delimited(p, "\t"),
    ".txt": lambda p: _read_delimited(p, "\t"),
    ".json": _read_json,
    ".md": _read_markdown,
}


def read_table(path) -> Table:
    """Parse ``path`` into a :class:`Table`, detecting the format by extension.

    A missing file, or one that cannot be read, decoded or parsed, raises
    :class:`DataFormatError` naming the path.
    """
    path = Path(path)
    ext = path.suffix.lower()
    if ext not in _READERS:
        raise ValidationError(
            f"{path.name}: unknown extension {ext!r}; supported: {', '.join(SUPPORTED_EXTENSIONS)}"
        )
    if not path.exists():
        raise DataFormatError(f"{path}: file not found")
    try:
        return _READERS[ext](path)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataFormatError(f"{path}: cannot read file: {e}") from e


def read_data(path, column: str | None = None, return_all: bool = False):
    """Load a numeric sample (sorted array) from a tabular file.

    Each column read is parsed once, and that one pass decides both
    whether the column is numeric and what its sample is. With
    ``column``, coerce exactly that column. Otherwise walk the columns
    left to right and stop at the first one whose non-empty cells are at
    least 90% numeric; later columns are not parsed. With ``return_all``
    (which takes precedence over ``column``), return
    ``[(name, sample), ...]`` for every numeric column instead. A file
    that cannot be read raises :class:`DataFormatError`.
    """
    path = Path(path)
    table = read_table(path)
    origin = path.name
    if return_all:
        parsed = [(n, *_parse_column(table.columns[n])) for n in table.column_names]
        numeric = [c for c in parsed if _is_numeric(*c[1:])]
        if not numeric:
            raise DataFormatError(f"{origin}: no numeric columns")
        return [(c[0], _coerce_column(*c, origin)) for c in numeric]
    if column is not None:
        if column not in table.columns:
            raise DataFormatError(
                f"{origin}: column {column!r} not found; have {list(table.column_names)}"
            )
        return _coerce_column(column, *_parse_column(table.columns[column]), origin)
    for name in table.column_names:
        if _is_numeric(*(parsed := _parse_column(table.columns[name]))):
            return _coerce_column(name, *parsed, origin)
    raise DataFormatError(f"{origin}: no numeric column to select")
