from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import csv_read_prices
from spotcov import HestonConfig, PricePath, build_uniform_grid, simulate_heston2d
from spotcov.csvio import read_prices, write_prices, write_rows
from spotcov.errors import CsvFormatError, InvalidArgument

DATA = Path(__file__).parent / "data"


def _csv(tmp_path, text: str, name: str = "p.csv") -> Path:
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", 1, "file is empty"),
        ("date,asset_1\n0,0\n1,0\n2,0\n", 1, "first column must be 'time'"),
        ("\n0,0\n1,0\n2,0\n", 1, "first column must be 'time'"),
        ("time\n0\n1\n2\n", 1, "need at least one asset column"),
        ("time,asset_1\n0,0\n1,0\n", 3, "need at least 3 observation rows"),
        ("time,asset_1\n0,0\n0.5,0\n\n1,0,7\n", 5, "expected 2 fields, got 3"),
        ("time,asset_1,asset_2\n0,0,0\n\n\n0.5,0\n1,0,0\n", 5, "expected 3 fields, got 2"),
        ("time,asset_1\n0,0\n\n0.5,oops\n1,0\n", 4, "non-numeric value"),
        ("time,asset_1\n0,0\n0.5,1\n1,2\n\n1.5,3\n2,x\n", 7, "non-numeric value"),
        ('time,asset_1\n0,0\n0.5,""\n1,0\n', 3, "non-numeric value"),
        ("time,asset_1\n0,0\n0.5,0\n1.0,0\n\ninf,0\n", 6, "non-uniform timestamps: time inf is not finite"),
        ("time,asset_1\n0,0\n0.5,0\n1.0,0\nnan,0\n", 5, "non-uniform timestamps: time nan is not finite"),
        ("time,asset_1,asset_2\n0,0,0\n0.5,0,1\n\n1.0,2,nan\n1.5,inf,3\n", 5, "price values are not finite"),
        ("time,asset_1\n0,0\n\n0.5,0\n\n1.0,-inf\n", 6, "price values are not finite"),
    ],
    ids=[
        "empty", "first-column", "blank-header", "time-only", "two-rows",
        "extra-field-after-blank", "missing-field-after-blanks", "word-after-blank",
        "word-last-row", "empty-field", "inf-last-time", "nan-last-time",
        "nan-price-after-blank", "inf-price-after-blanks",
    ],
)
def test_malformed_file_names_its_line(tmp_path, text, line, message):
    with pytest.raises(CsvFormatError) as exc:
        read_prices(_csv(tmp_path, text))
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "times",
    [
        ["0.0", "0.4", "1.0"],
        ["0.5", "1.0", "1.5"],
        ["0.0", "-1.0", "-2.0"],
        ["0.0", "nan", "1.0"],
        # unequal steps at any scale: the tolerance is relative to T
        ["0", "1e-10", "9e-10", "1e-9"],
        ["0", "0.1", "0.9", "1.0"],
        ["0", "1e8", "9e8", "1e9"],
    ],
    ids=["uneven", "late-start", "negative-end", "nan-time", "uneven-1e-9", "uneven-1", "uneven-1e9"],
)
def test_nonuniform_times_rejected(tmp_path, times):
    text = "time,asset_1\n" + "".join(f"{t},0.0\n" for t in times)
    with pytest.raises(InvalidArgument, match="non-uniform"):
        read_prices(_csv(tmp_path, text))


@pytest.mark.parametrize("T", [1e-9, 1.0, 1e9])
def test_uniform_times_accepted_at_any_scale(tmp_path, T):
    grid = build_uniform_grid(T, 4)
    text = "time,asset_1\n" + "".join(f"{t!r},0.0\n" for t in grid.points.tolist())
    prices = read_prices(_csv(tmp_path, text))
    assert prices.grid.T == T and prices.grid.n == 4


def test_quoted_crlf_with_blank_lines_parses_like_plain(tmp_path):
    rows = [["0.0", "1.5", "-2.25"], ["0.5", "1e-3", "7"], ["1.0", "-0.0", "3.125"], ["1.5", "2", "0.1"]]
    plain = "time,asset_1,asset_2\n" + "".join(",".join(r) + "\n" for r in rows)
    quoted = '"time","asset_1",asset_2\r\n\r\n' + "".join(
        ",".join(f'"{x}"' for x in r) + "\r\n" + ("\r\n" if i % 2 else "") for i, r in enumerate(rows)
    )
    a = read_prices(_csv(tmp_path, plain, "plain.csv"))
    b = read_prices(_csv(tmp_path, quoted, "quoted.csv"))
    assert a.grid.points.tobytes() == b.grid.points.tobytes()
    assert a.values.tobytes() == b.values.tobytes()
    assert b.values.shape == (4, 2)


def test_write_prices_matches_fixture_file(tmp_path):
    sim = simulate_heston2d(HestonConfig(), build_uniform_grid(2.0, 240), seed=424242)
    write_prices(tmp_path / "p.csv", sim.prices)
    assert (tmp_path / "p.csv").read_bytes() == (DATA / "fixture_prices.csv").read_bytes()


def test_fixture_file_round_trips(tmp_path):
    write_prices(tmp_path / "p.csv", read_prices(DATA / "fixture_prices.csv"))
    assert (tmp_path / "p.csv").read_bytes() == (DATA / "fixture_prices.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(1, 4)), elements=st.floats()))
def test_float_array_body_is_the_csv_writers_bytes(tmp_path_factory, rows):
    # one repr of the whole body against repr(float) per cell through csv.writer
    folder = tmp_path_factory.mktemp("rows")
    header = [f"c{j}" for j in range(rows.shape[1])]
    write_rows(folder / "array.csv", header, rows)
    write_rows(folder / "lists.csv", header, rows.tolist())
    assert (folder / "array.csv").read_bytes() == (folder / "lists.csv").read_bytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    T=st.floats(min_value=1e-12, max_value=1e12),
    values=st.integers(2, 12).flatmap(
        lambda n: st.integers(1, 3).flatmap(lambda d: arrays(np.float64, (n + 1, d), elements=_finite))
    ),
)
def test_write_read_round_trip_is_bitwise(tmp_path_factory, T, values):
    path = tmp_path_factory.mktemp("rt") / "p.csv"
    prices = PricePath(grid=build_uniform_grid(T, values.shape[0] - 1), values=values)
    write_prices(path, prices)
    back = read_prices(path)
    assert back.grid.points.tobytes() == prices.grid.points.tobytes()
    assert back.values.tobytes() == prices.values.tobytes()


# Cells a drawn file may put in place of a number: a word, spellings that
# float() reads and np.loadtxt does not, non-finite values and an empty cell.
_ODD_CELLS = ["x", "1_0", "\uff11", "nan", "inf", "-inf", ""]


@st.composite
def _price_files(draw) -> str:
    """A prices CSV of repr floats: the header may be wider or narrower than
    the rows, fields may be quoted or padded, lines end in LF or CRLF, blank
    lines may sit anywhere, and a few cells or row widths may be wrong."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    T = draw(st.floats(1e-6, 1e6))
    times = build_uniform_grid(T, n).points.tolist() if n >= 2 else [0.0, T][: n + 1]
    rows = [[repr(t)] + [repr(draw(_finite)) for _ in range(d)] for t in times]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, d))
        rows[i][j] = draw(st.sampled_from(_ODD_CELLS))
    if draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0.0"]
    header = ["time"] + [f"asset_{k + 1}" for k in range(d + draw(st.sampled_from([0] * 6 + [-1, 1])))]

    def cell(x: str) -> str:
        pad = draw(st.sampled_from(["", "", " ", "  "]))
        x = pad + x + pad[::-1] if draw(st.booleans()) else x
        return f'"{x}"' if draw(st.booleans()) else x

    text = ""
    for fields in [header] + rows:
        text += ",".join(map(cell, fields)) + draw(st.sampled_from(["\n", "\r\n"]))
        text += draw(st.sampled_from(["", "", "", "\n", "\r\n", "\n\r\n"]))
    return text


def _outcome(read, path):
    try:
        prices = read(path)
    except CsvFormatError as e:
        return "CsvFormatError", e.line, str(e)
    except InvalidArgument as e:
        return "InvalidArgument", str(e)
    return prices.grid.T, prices.grid.n, prices.grid.points.tobytes(), prices.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=_price_files())
def test_reader_matches_the_csv_reader_oracle(tmp_path_factory, text):
    path = _csv(tmp_path_factory.mktemp("oracle"), text)
    assert _outcome(read_prices, path) == _outcome(csv_read_prices, path)
