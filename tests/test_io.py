import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modality.io as io_mod
from modality import (
    DataFormatError,
    ModalityError,
    ValidationError,
    parse_markdown_table,
    read_data,
)
from modality.io import Table, read_table


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_csv_named_column(tmp_path):
    path = _write(tmp_path, "data.csv", "value\n1\n2\n3\n")
    np.testing.assert_array_equal(read_data(path, column="value"), [1.0, 2.0, 3.0])


def test_csv_result_is_sorted(tmp_path):
    path = _write(tmp_path, "data.csv", "v\n3\n1\n2\n")
    np.testing.assert_array_equal(read_data(path), [1.0, 2.0, 3.0])


def test_tsv_auto_selects_numeric_column(tmp_path):
    rows = "\n".join(f"id{i}\t{i * 1.5}" for i in range(10))
    path = _write(tmp_path, "data.tsv", "id\tmeas\n" + rows + "\n")
    out = read_data(path)
    np.testing.assert_allclose(out, np.arange(10) * 1.5)


def test_first_numeric_column_wins(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b\n1,10\n2,20\n3,30\n")
    np.testing.assert_array_equal(read_data(path), [1.0, 2.0, 3.0])


def test_json_array_of_objects(tmp_path):
    path = _write(tmp_path, "data.json", json.dumps([{"v": 1.5}, {"v": 2.5}]))
    np.testing.assert_array_equal(read_data(path, column="v"), [1.5, 2.5])


def test_json_flat_array(tmp_path):
    path = _write(tmp_path, "data.json", "[3, 1, 2]")
    np.testing.assert_array_equal(read_data(path), [1.0, 2.0, 3.0])


def test_json_object_of_arrays(tmp_path):
    path = _write(tmp_path, "data.json", json.dumps({"x": [1, 2, 4], "label": ["a", "b", "c"]}))
    np.testing.assert_array_equal(read_data(path, column="x"), [1.0, 2.0, 4.0])


def test_json_rejects_other_shapes(tmp_path):
    path = _write(tmp_path, "data.json", json.dumps({"nested": {"x": 1}}))
    with pytest.raises(DataFormatError):
        read_data(path)


@pytest.mark.parametrize("text,reason", [
    pytest.param("[" + "7" * 5000 + ", 1.5]", "digits", id="integer_past_digit_limit"),
    pytest.param("[" * 100_000 + "]" * 100_000, "recursion", id="nested_too_deep"),
])
def test_json_the_decoder_rejects_is_a_data_format_error(tmp_path, text, reason):
    path = _write(tmp_path, "data.json", text)
    with pytest.raises(DataFormatError, match=f"data.json: invalid JSON: .*{reason}"):
        read_data(path)


def test_markdown_file(tmp_path):
    path = _write(tmp_path, "data.md", "# title\n\n|x|\n|-|\n|1|\n|2|\n")
    np.testing.assert_array_equal(read_data(path), [1.0, 2.0])


def test_markdown_numeric_header_is_a_header(tmp_path):
    path = _write(tmp_path, "data.md", "| 2020 |\n|---:|\n| 5 |\n| 7 |\n| 9 |\n")
    assert read_table(path).columns == {"2020": ["5", "7", "9"]}
    np.testing.assert_array_equal(read_data(path), [5.0, 7.0, 9.0])


def test_unknown_extension(tmp_path):
    path = _write(tmp_path, "data.xyz", "1\n2\n")
    with pytest.raises(ValidationError, match="extension"):
        read_data(path)


def test_column_not_found(tmp_path):
    path = _write(tmp_path, "data.csv", "a\n1\n2\n")
    with pytest.raises(DataFormatError, match="not found"):
        read_data(path, column="b")


def test_no_numeric_column(tmp_path):
    path = _write(tmp_path, "data.csv", "a\nfoo\nbar\n")
    with pytest.raises(DataFormatError, match="numeric"):
        read_data(path)


def test_fewer_than_two_values(tmp_path):
    path = _write(tmp_path, "data.csv", "a\n1\n")
    with pytest.raises(DataFormatError, match="fewer than 2"):
        read_data(path)


def test_non_numeric_cells_dropped_with_warning(tmp_path):
    path = _write(tmp_path, "data.csv", "a\n1\n2\nn/a\n3\n4\n5\n6\n7\n8\n9\n10\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        out = read_data(path, column="a")
    assert out.size == 10


@pytest.mark.parametrize("kwargs", [
    pytest.param({"column": "a"}, id="a"),
    pytest.param({"column": None}, id="None"),
    pytest.param({"return_all": True}, id="return_all"),
])
def test_dropped_cell_warning_points_at_the_caller(tmp_path, kwargs):
    path = _write(tmp_path, "data.csv", "a\n1\n2\nn/a\n3\n4\n5\n6\n7\n8\n9\n10\n")
    with pytest.warns(UserWarning, match="dropped 1") as caught:
        read_data(path, **kwargs)
    assert [w.filename for w in caught] == [__file__]


def test_empty_cells_skipped_silently(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b\n1,x\n,y\n3,z\n")
    out = read_data(path, column="a")
    np.testing.assert_array_equal(out, [1.0, 3.0])


def test_return_all_numeric_columns(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b,c\n1,x,10\n2,y,20\n")
    out = read_data(path, return_all=True)
    assert [name for name, _ in out] == ["a", "c"]
    np.testing.assert_array_equal(out[1][1], [10.0, 20.0])


def test_return_all_with_no_numeric_columns(tmp_path):
    path = _write(tmp_path, "data.csv", "a\nx\ny\n")
    with pytest.raises(DataFormatError):
        read_data(path, return_all=True)


def test_headerless_numeric_file(tmp_path):
    path = _write(tmp_path, "data.txt", "1.5\n2.5\n0.5\n")
    np.testing.assert_array_equal(read_data(path), [0.5, 1.5, 2.5])


def test_scientific_notation_and_infinities(tmp_path):
    path = _write(tmp_path, "data.csv", "a\n1e-3\n2.5E2\ninf\n-4\n")
    with pytest.warns(UserWarning):  # inf dropped as non-finite
        out = read_data(path, column="a")
    np.testing.assert_allclose(out, [-4.0, 1e-3, 250.0])


def test_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(8)
    x = np.sort(rng.normal(0.0, 1.0, 100))
    payload = "value\n" + "\n".join(repr(float(v)) for v in x) + "\n"
    path = _write(tmp_path, "round.csv", payload)
    np.testing.assert_array_equal(read_data(path, column="value"), x)


def test_same_bytes_same_sample(tmp_path):
    payload = "v\n5\n2\n9\n"
    a = read_data(_write(tmp_path, "a.csv", payload))
    b = read_data(_write(tmp_path, "b.csv", payload))
    np.testing.assert_array_equal(a, b)


def test_parse_markdown_minimal():
    table = parse_markdown_table("|x|\n|-|\n|1|\n|2|")
    assert table.column_names == ("x",)
    assert table.columns["x"] == ["1", "2"]


def test_parse_markdown_alignment_colons():
    table = parse_markdown_table("| a | b |\n|:-:|---:|\n| 1 | 2 |\n")
    assert table.column_names == ("a", "b")
    assert table.columns["b"] == ["2"]


def test_parse_markdown_escaped_pipe():
    table = parse_markdown_table("|name|v|\n|-|-|\n|a\\|b|1|\n")
    assert table.columns["name"] == ["a|b"]


def test_parse_markdown_missing_delimiter_row():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_markdown_table("|x|\n|1|\n|2|")


def test_parse_markdown_no_table():
    with pytest.raises(DataFormatError):
        parse_markdown_table("just some text\n")


def test_parse_markdown_table_embedded_in_prose():
    text = "intro text\n\n| x | y |\n| - | - |\n| 1 | a |\n| 2 | b |\n\nmore text\n"
    table = parse_markdown_table(text)
    assert table.columns["x"] == ["1", "2"]


def test_table_rejects_duplicate_names():
    with pytest.raises(DataFormatError):
        Table(column_names=("a", "a "), columns={"a": ["1"], "a ": ["2"]})


def test_table_rejects_ragged_columns():
    with pytest.raises(DataFormatError):
        Table(column_names=("a", "b"), columns={"a": ["1"], "b": ["1", "2"]})


def test_ragged_rows_pad_short_and_ignore_extra_cells(tmp_path):
    # recorded before the column comprehension replaced the per-row loop
    want = {"a": ["1", "4", "6"], "b": ["2", "5", "7"], "c": ["3", "", "8"]}
    texts = {
        "r.csv": "a,b,c\n1,2,3\n4,5\n6,7,8,9\n",
        "r.md": "| a | b | c |\n|---|---|---|\n| 1 | 2 | 3 |\n| 4 | 5 |\n| 6 | 7 | 8 | 9 |\n",
    }
    for name, text in texts.items():
        table = read_table(_write(tmp_path, name, text))
        assert table.column_names == ("a", "b", "c")
        assert table.columns == want
    table = read_table(_write(tmp_path, "h.csv", "1,2,3\n4,5\n6,7,8,9\n"))
    assert table.columns == {"col0": want["a"], "col1": want["b"], "col2": want["c"]}
    table = read_table(_write(tmp_path, "b.tsv", "a\tb\n1\t2\n \t \n\t\n3\n"))  # blank rows dropped
    assert table.columns == {"a": ["1", "3"], "b": ["2", ""]}


def test_read_table_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        read_table(tmp_path / "nope.csv")


def test_each_cell_is_parsed_once(tmp_path, monkeypatch):
    values = [f"{i}.5" for i in range(12)]
    values[4] = ""
    rows = "".join(f"{v}\tname{i}\n" for i, v in enumerate(values))
    path = _write(tmp_path, "data.tsv", "value\tlabel\n" + rows)
    calls = []
    # every conversion of a cell to a number in the reader goes through the module's name `float`
    monkeypatch.setattr(io_mod, "float", lambda cell: calls.append(cell) or float(cell),
                        raising=False)
    assert read_data(path).size == 11
    # the header check stops at the first name that is not a number, and the
    # text column after the selected one is never parsed
    assert calls == ["value"] + [v for v in values if v]


# --- the one-pass reader against the two-pass rule it replaced ---------------

def _old_table(path):
    """``read_table``, but with JSON cells made as they were before they held numbers."""
    if path.suffix != ".json":
        return read_table(path)
    payload = json.loads(path.read_text(encoding="utf-8"))  # an object of arrays
    return Table(column_names=tuple(payload), columns={
        name: ["" if v is None else str(v) for v in cells] for name, cells in payload.items()})


def _two_pass_read(path, column=None, return_all=False):
    """``read_data`` by the two-pass rule: pick the columns whose non-empty
    cells are at least 90% finite numbers, then parse the chosen ones again."""
    table = _old_table(path)
    origin = path.name

    def number(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    def nonempty(name):
        return [c for c in (cell.strip() for cell in table.columns[name]) if c != ""]

    def share(name):
        cells = nonempty(name)
        return sum(1 for c in cells if number(c) is not None) / len(cells) if cells else 0.0

    def coerce(name):
        values = [number(c) for c in nonempty(name)]
        numeric = [v for v in values if v is not None]
        if len(values) > len(numeric):
            warnings.warn(f"{origin}: column {name!r}: dropped {len(values) - len(numeric)} "
                          "non-numeric cell(s)")
        if len(numeric) < 2:
            raise DataFormatError(f"{origin}: column {name!r}: fewer than 2 numeric values")
        return np.sort(np.array(numeric))

    names = [n for n in table.column_names if share(n) >= 0.9]
    if return_all:
        if not names:
            raise DataFormatError(f"{origin}: no numeric columns")
        return [(n, coerce(n)) for n in names]
    if column is not None:
        if column not in table.columns:
            raise DataFormatError(
                f"{origin}: column {column!r} not found; have {list(table.column_names)}"
            )
        return coerce(column)
    if not names:
        raise DataFormatError(f"{origin}: no numeric column to select")
    return coerce(names[0])


def _outcome(read, path, **kwargs):
    """What a reader returns or raises, and the warnings it gives, as plain values.

    Samples are compared by their bytes, which also tells -0.0 from 0.0.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path, **kwargs)
        except ModalityError as e:
            result = (type(e), str(e))
    if isinstance(result, np.ndarray):
        result = result.tobytes()
    elif isinstance(result, list):
        result = [(name, sample.tobytes()) for name, sample in result]
    return result, [(w.category, str(w.message)) for w in caught]


_NUMBER = st.one_of(st.integers(-99, 99).map(str), st.floats(-1e6, 1e6).map(repr))
_NUMERIC_CELL = st.one_of(_NUMBER, _NUMBER.map(lambda s: f"  {s} "))
_ODD_CELL = st.sampled_from(["", "   ", "inf", "-inf", "nan", "1e400", "n/a", "abc", "1_000",
                             "\u0661\u0662\u0663", "+.5", "5.", "1e-400", "-0.0", "0x10", "True"])
_ANY_CELL = st.one_of(_NUMERIC_CELL, _ODD_CELL)
_TEXT_POOLS = [_NUMERIC_CELL, _ANY_CELL, _ODD_CELL]

# JSON cells are written as JSON text: a number, a string, or one of the other values
_JSON_ONLY = st.sampled_from(["true", "false", "null", "NaN", "Infinity", "1" + "0" * 400,
                              "0", "0.0", "-0", "-0.0", '" 4 "', "[1]"])
_JSON_NUMERIC = st.one_of(_NUMBER, _NUMERIC_CELL.map(json.dumps))
_JSON_ODD = st.one_of(_ODD_CELL.map(json.dumps), _JSON_ONLY)
_JSON_POOLS = [_JSON_NUMERIC, st.one_of(_JSON_NUMERIC, _JSON_ODD), _JSON_ODD]


@st.composite
def _tables(draw, pools):
    """Column names (None for a headerless table) and columns of cells."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    columns = [
        draw(st.lists(draw(st.sampled_from(pools)), min_size=height, max_size=height))
        for _ in range(width)
    ]
    names = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(["a", "b", "value", "x y", "id"]), min_size=width, max_size=width,
        unique=True)))
    return names, columns


def _table_text(ext, names, columns):
    if ext == ".json":  # the cells are JSON text already
        keys = names or [f"col{i}" for i in range(len(columns))]
        fields = (f"{json.dumps(k)}: [{', '.join(cells)}]" for k, cells in zip(keys, columns))
        return "{" + ", ".join(fields) + "}"
    rows = ([names] if names else []) + [list(row) for row in zip(*columns)]
    if ext == ".md":
        lines = ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines[:1] + ["|" + "---|" * len(columns)] + lines[1:]) + "\n"
    return "".join(("," if ext == ".csv" else "\t").join(row) + "\n" for row in rows)


@settings(max_examples=100, deadline=None)
@given(table=_tables(_TEXT_POOLS), json_table=_tables(_JSON_POOLS),
       pick=st.sampled_from(["a", "value", "col0", "col1", "missing"]))
def test_one_pass_matches_two_pass_rule(tmp_path_factory, table, json_table, pick):
    folder = tmp_path_factory.mktemp("one_pass")
    for ext in (".csv", ".tsv", ".md", ".json"):
        path = folder / f"table{ext}"
        path.write_text(_table_text(ext, *(json_table if ext == ".json" else table)),
                        encoding="utf-8")
        for kwargs in ({}, {"column": pick}, {"return_all": True},
                       {"column": pick, "return_all": True}):
            assert _outcome(read_data, path, **kwargs) == _outcome(_two_pass_read, path, **kwargs)


# --- the bulk Markdown splitter against the per-row parser it replaced -------

_PIPE = re.compile(r"(?<!\\)\|")  # a cell boundary: a pipe not escaped as \|


def _split_pipe_row(line):
    parts = _PIPE.split(line)
    stripped = line.strip()
    if stripped.startswith("|"):
        parts = parts[1:]
    if stripped.endswith("|") and not stripped.endswith("\\|"):
        parts = parts[:-1]
    return [p.replace("\\|", "|").strip() for p in parts]


def parse_markdown_by_rows(text):
    """``parse_markdown_table`` as it was written before the bulk split: a regex split per row."""
    lines = text.splitlines()
    header_at = next((i for i, line in enumerate(lines) if "|" in line and line.strip()), None)
    if header_at is None:
        raise DataFormatError("markdown: no pipe table found")
    names = _split_pipe_row(lines[header_at])
    if header_at + 1 >= len(lines):
        raise DataFormatError("markdown: missing delimiter row", line=header_at + 2)
    delim_cells = _split_pipe_row(lines[header_at + 1])
    if not delim_cells or not all(re.match(r"^:?-+:?$", c) for c in delim_cells):
        raise DataFormatError("markdown: malformed delimiter row", line=header_at + 2)
    rows = []
    for line in lines[header_at + 2:]:
        if "|" not in line or not line.strip():
            break
        rows.append(_split_pipe_row(line))
    if not rows:
        raise DataFormatError("markdown: table has no data rows", line=header_at + 3)
    rows = [r for r in rows if any(r)]
    columns = {n: [r[i] if i < len(r) else "" for r in rows] for i, n in enumerate(names)}
    return Table(column_names=tuple(names), columns=columns)


_MD_CELL = st.sampled_from(["", " ", "1", "-2.5", " 3e4 ", "a", "x y", "a\\|b", "\\|", "c\\|",
                            "\\|d", "e\\", "\\\\", "\u3000f\t", "|"])
_MD_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _md_rows(draw, width):
    """Pipe-table lines of up to ``width + 2`` cells, each with or without outer pipes."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        cells = draw(st.lists(_MD_CELL, max_size=width + 2))
        lead, trail = draw(st.booleans()), draw(st.booleans())
        row = ("|" if lead else "") + "|".join(cells) + ("|" if trail else "")
        rows.append(draw(_MD_PAD) + row + draw(_MD_PAD))
    return rows


@st.composite
def _markdown_texts(draw):
    """Irregular pipe tables, with prose around them and a blank line or prose after."""
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(["a", "b", " c ", "2020", "x\\|y", ""]),
                          min_size=1, max_size=width, unique=True))
    header = ("| " if draw(st.booleans()) else "") + " | ".join(names) + draw(
        st.sampled_from([" |", "", " \\|"]))
    delimiter = draw(st.sampled_from(["|---" * width + "|", ":-:|" * width, "|--:" * width,
                                      "|-|x|", "", "|"]))
    body = draw(_md_rows(width))
    if draw(st.booleans()):  # all-empty rows and a row empty but for an extra cell
        body.insert(draw(st.integers(0, len(body))), "|" * draw(st.integers(1, width + 2)))
        body.insert(draw(st.integers(0, len(body))), "|" * (width + 1) + " z |")
    before = draw(st.sampled_from([[], ["intro text", ""]]))
    after = draw(st.sampled_from([[], [""], ["more text"], ["", "| 9 | 9 |"]]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(before + [header, delimiter] + body + after)


def _parsed(parse, text):
    try:
        return parse(text)
    except DataFormatError as e:
        return (type(e), str(e))


@settings(max_examples=300, deadline=None)
@given(text=_markdown_texts())
@example(text="|a|b|\n|-|-|\n|1\\||2|\n|3|4\\|\n")  # an escaped pipe ends a cell, and a row
@example(text="a | b\n--|--\n1 | 2\n| 3 | 4 |\n5|\n|6\n")  # rows with and without outer pipes
@example(text="|a|b|c|\n|-|-|-|\n|1|\n|1|2|3|4|5|\n")  # a short row and a long row
@example(text="|a|b|\n|-|-|\n| | | x |\n| | |\n|\n||\n|7|8|\n")  # an extra cell keeps a row
@example(text="|a|\n|-|\n|1|\n\n|2|\n")  # a blank line ends the table
@example(text="|a|\n|-|\n|1|\nprose\n|2|\n")  # and so does prose
@example(text="|\n|-|\n|1|\n")  # a header that is one pipe has no cells
@example(text="|a|\n\n|1|\n")  # an empty delimiter row
def test_markdown_bulk_split_matches_per_row_parser(text):
    assert _parsed(parse_markdown_table, text) == _parsed(parse_markdown_by_rows, text)


def test_json_cells_keep_numbers(tmp_path):
    text = '{"v": [1, 2.5, -0.0, null, true, "3", " 4 ", [1], 1' + "0" * 400 + "]}"
    table = read_table(_write(tmp_path, "data.json", text))
    assert table.columns["v"] == [1, 2.5, -0.0, "", "True", "3", " 4 ", "[1]", 10**400]
    assert [type(c) for c in table.columns["v"][:3]] == [int, float, float]
    with pytest.warns(UserWarning, match="dropped 3"):  # True, [1] and 10**400
        out = read_data(_write(tmp_path, "data.json", text), column="v")
    assert out.tobytes() == np.array([-0.0, 1.0, 2.5, 3.0, 4.0]).tobytes()
    flat = read_table(_write(tmp_path, "flat.json", "[0, 0.0, false, null]"))
    assert flat.columns == {"values": [0, 0.0, "False", ""]}
