"""Tabular file ingestion: CSV, TSV/TXT, JSON, and Markdown pipe tables.

Every reader funnels into the same two steps: parse the file into a
:class:`Table` of raw cells, then coerce one column (or all numeric
columns) into its finite numbers, which ``read_data`` validates and
sorts, and which the CLI passes unsorted to the library call that does.
CSV, TSV and Markdown cells are strings; JSON cells keep the decoded
numbers (``int`` and ``float``) and strings as they are, ``null`` is the
empty cell, and any other value (``true``, ``false``, an array or an
object) is its ``str()``. Parsing is pure per file content; format
detection is by extension only. A file that cannot be opened, decoded or
split into fields raises :class:`DataFormatError`.

Each column that is read is turned into numbers in one pass, and both
the decision that it is numeric and its sample are taken from that
pass. A cell is a number when Python's ``float`` accepts it (after
stripping surrounding whitespace) and the value is finite. Empty cells
are skipped silently; non-empty cells that are not numbers are dropped
and reported with a count via ``warnings``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from operator import contains
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
    """Parsed tabular text: ordered column names and raw cells.

    Cells are strings, except that a JSON file's numbers stay ``int`` and
    ``float`` values.
    """

    column_names: tuple[str, ...]
    columns: dict[str, list[str | int | float]]

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


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _parse_column(cells: list) -> tuple[np.ndarray, int]:
    """The finite numbers among ``cells`` and the count of non-empty cells that are not."""
    # strings are stripped and empty ones skipped; numbers are never empty
    cells = [s for c in cells if (s := c.strip() if c.__class__ is str else c) != ""]
    numbers, converted = [], map(float, cells)
    while True:  # one pass: a cell that raises is dropped, and the pass goes on after it
        try:
            numbers.extend(converted)
            break
        except (ValueError, OverflowError):
            pass
    numbers = np.array(numbers, dtype=np.float64)
    numbers = numbers[np.isfinite(numbers)]
    return numbers, len(cells) - numbers.size


def _is_numeric(numeric: np.ndarray, dropped: int) -> bool:
    return numeric.size > 0 and numeric.size / (numeric.size + dropped) >= NUMERIC_SHARE


def _coerce_column(name: str, numeric: np.ndarray, dropped: int, origin: str) -> np.ndarray:
    if dropped:
        warnings.warn(f"{origin}: column {name!r}: dropped {dropped} non-numeric cell(s)", stacklevel=4)
    if numeric.size < 2:
        raise DataFormatError(f"{origin}: column {name!r}: fewer than 2 numeric values")
    return numeric


def _gather_table(names: list[str], cells: np.ndarray, starts: np.ndarray,
                  sizes: np.ndarray) -> Table:
    """The named columns of rows whose cells are ``cells[starts[i]:starts[i] + sizes[i]]``.

    A short row's missing cells are empty, and a long row's extra cells
    are ignored.
    """
    padded = np.append(cells, "")  # index -1: the cell a short row lacks
    columns = {n: padded[np.where(i < sizes, starts + i, -1)].tolist() for i, n in enumerate(names)}
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
    if all(map(_is_number, filter(None, head))):
        names = [f"col{i}" for i in range(len(head))]
    else:
        names, rows = head, rows[1:]
    sizes = np.fromiter(map(len, rows), np.intp, len(rows))
    cells = np.fromiter(chain.from_iterable(rows), object)
    return _gather_table(names, cells, np.cumsum(sizes) - sizes, sizes)


_JSON_KEPT = {int, float, str}


def _read_json(path: Path) -> Table:
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path.name}: invalid JSON: {e}", line=e.lineno) from e
    except (ValueError, RecursionError) as e:  # an integer past Python's digit limit, or nesting too deep
        raise DataFormatError(f"{path.name}: invalid JSON: {e}") from e

    def to_cells(seq) -> list:
        # numbers and strings are kept, null is the empty cell, and anything
        # else (true, false, an array or an object) becomes its str()
        return ["" if v is None else v if v.__class__ in _JSON_KEPT else str(v) for v in seq]

    if isinstance(payload, list) and set(map(type, payload)) <= {int, float, bool, type(None)}:
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
# While a table is split, _ESCAPED_PIPE stands in for "\|" and _CUT marks a cell boundary;
# splitlines() leaves neither character in a line, so neither can be taken for text.
_ESCAPED_PIPE, _CUT = "\r", "\x1e"


def _split_pipe_rows(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stripped cells of pipe-table rows in one flat array, and each row's start and size there.

    ``text`` holds the rows, stripped and joined by newlines. A pipe at
    either end of a row bounds no cell (a row that is one pipe has no
    cells), and ``\\|`` is a pipe inside a cell.
    """
    text = text.replace("\\|", _ESCAPED_PIPE).replace("|", _CUT).replace(_ESCAPED_PIPE, "|")
    # every row gets one outer cut at each end: add one, and drop it again where the row had its own
    text = f"\n{text}\n".replace("\n", f"\n{_CUT}").replace(f"\n{_CUT}{_CUT}", f"\n{_CUT}")
    text = text.replace("\n", f"{_CUT}\n").replace(f"{_CUT}{_CUT}\n", f"{_CUT}\n")
    # the space that usually pads a cell goes in bulk, so that most cells need no strip of their own
    text = text.replace(f" {_CUT}", _CUT).replace(f"{_CUT} ", _CUT)
    tokens = text[2:-2].split(_CUT)  # "", the cells of row 0, "\n", the cells of row 1, ..., ""
    del text  # let the joined rows go before the stripped cells are made
    breaks = np.flatnonzero(np.array(tokens, dtype=object) == "\n")
    cells = np.fromiter(map(str.strip, tokens), object, len(tokens))
    starts = np.append(0, breaks) + 1
    return cells, starts, np.append(breaks, cells.size - 1) - starts


def parse_markdown_table(text: str) -> Table:
    """Parse the first pipe table in ``text``.

    Requires a header row, a delimiter row of dashes with optional
    alignment colons, and at least one data row. The row above the
    delimiter row is always the header, even when its cells are numbers.
    Pipes escaped as ``\\|`` stay inside their cell.
    """
    if not isinstance(text, str):
        raise DataFormatError(f"markdown: expected text, got {type(text).__name__}")
    lines = text.splitlines()
    piped = [*map(contains, lines, repeat("|")), False]  # the table ends where the text does
    if True not in piped:
        raise DataFormatError("markdown: no pipe table found")
    header_at = piped.index(True)
    if header_at + 1 >= len(lines):
        raise DataFormatError("markdown: missing delimiter row", line=header_at + 2)
    end = piped.index(False, header_at + 2)
    rows = "\n".join(map(str.strip, lines[header_at:end]))
    del lines, piped  # the table's rows are all that is used from here on
    cells, starts, sizes = _split_pipe_rows(rows)
    names, delimiter = (cells[s : s + n].tolist() for s, n in zip(starts[:2], sizes[:2]))
    if not delimiter or not all(map(_DELIMITER_CELL.match, delimiter)):
        raise DataFormatError("markdown: malformed delimiter row", line=header_at + 2)
    if end == header_at + 2:
        raise DataFormatError("markdown: table has no data rows", line=header_at + 3)
    starts, sizes = starts[2:], sizes[2:]
    filled = np.append(0, np.cumsum(cells != ""))
    kept = filled[starts + sizes] > filled[starts]  # rows with a non-empty cell
    return _gather_table(names, cells, starts[kept], sizes[kept])


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
    numbers = _read_numbers(path, column, return_all)
    return [(name, as_sample(v)) for name, v in numbers] if return_all else as_sample(numbers)


def _read_numbers(path, column: str | None = None, return_all: bool = False):
    """:func:`read_data` short of ``as_sample``: the chosen columns' finite numbers, unsorted."""
    path = Path(path)
    table = read_table(path)
    origin = path.name
    if return_all:
        parsed = [(n, *_parse_column(table.columns[n])) for n in table.column_names]
        numeric = [c for c in parsed if _is_numeric(*c[1:])]
        if not numeric:
            raise DataFormatError(f"{origin}: no numeric columns")
        columns = []  # a loop, not a comprehension: the warning's stacklevel counts frames
        for c in numeric:
            columns.append((c[0], _coerce_column(*c, origin)))
        return columns
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
