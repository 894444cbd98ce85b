import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    parse = io_mod._parse_number
    monkeypatch.setattr(io_mod, "_parse_number", lambda cell: calls.append(cell) or parse(cell))
    assert read_data(path).size == 11
    # the header check stops at the first name that is not a number, and the
    # text column after the selected one is never parsed
    assert calls == ["value"] + [v for v in values if v]


# --- the one-pass reader against the two-pass rule it replaced ---------------

def _two_pass_read(path, column=None, return_all=False):
    """``read_data`` by the two-pass rule: pick the columns whose non-empty
    cells are at least 90% finite numbers, then parse the chosen ones again."""
    table = read_table(path)
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
    """What a reader returns or raises, and the warnings it gives, as plain values."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path, **kwargs)
        except ModalityError as e:
            result = (type(e), str(e))
    if isinstance(result, np.ndarray):
        result = result.tolist()
    elif isinstance(result, list):
        result = [(name, sample.tolist()) for name, sample in result]
    return result, [(w.category, str(w.message)) for w in caught]


_NUMBER = st.one_of(st.integers(-99, 99).map(str), st.floats(-1e6, 1e6).map(repr))
_NUMERIC_CELL = st.one_of(_NUMBER, _NUMBER.map(lambda s: f"  {s} "))
_ODD_CELL = st.sampled_from(["", "   ", "inf", "-inf", "nan", "1e400", "n/a", "abc"])
_ANY_CELL = st.one_of(_NUMERIC_CELL, _ODD_CELL)


@st.composite
def _tables(draw):
    """Column names (None for a headerless table) and columns of string cells."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    columns = [
        draw(st.lists(draw(st.sampled_from([_NUMERIC_CELL, _ANY_CELL, _ODD_CELL])),
                      min_size=height, max_size=height))
        for _ in range(width)
    ]
    names = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(["a", "b", "value", "x y", "id"]), min_size=width, max_size=width,
        unique=True)))
    return names, columns


def _table_text(ext, names, columns):
    if ext == ".json":
        keys = names or [f"col{i}" for i in range(len(columns))]
        return json.dumps(dict(zip(keys, columns)))
    rows = ([names] if names else []) + [list(row) for row in zip(*columns)]
    if ext == ".md":
        lines = ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines[:1] + ["|" + "---|" * len(columns)] + lines[1:]) + "\n"
    return "".join(("," if ext == ".csv" else "\t").join(row) + "\n" for row in rows)


@settings(max_examples=100, deadline=None)
@given(table=_tables(), pick=st.sampled_from(["a", "value", "col0", "col1", "missing"]))
def test_one_pass_matches_two_pass_rule(tmp_path_factory, table, pick):
    folder = tmp_path_factory.mktemp("one_pass")
    for ext in (".csv", ".tsv", ".md", ".json"):
        path = folder / f"table{ext}"
        path.write_text(_table_text(ext, *table), encoding="utf-8")
        for kwargs in ({}, {"column": pick}, {"return_all": True},
                       {"column": pick, "return_all": True}):
            assert _outcome(read_data, path, **kwargs) == _outcome(_two_pass_read, path, **kwargs)
