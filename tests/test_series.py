import math
import os
import threading
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.stats import chi2

from fractal_xcorr import (
    AlignedPair,
    InputError,
    TimeSeries,
    describe,
    load_csv,
    log_returns,
)


def test_timeseries_rejects_non_finite():
    with pytest.raises(InputError, match="index 2"):
        TimeSeries([1.0, 2.0, np.nan, 4.0], label="a")
    with pytest.raises(InputError, match="index 0"):
        TimeSeries([np.inf, 1.0], label="b")


def test_timeseries_rejects_two_dimensional_values():
    with pytest.raises(InputError, match=r"^series 'a': values must be one-dimensional$"):
        TimeSeries(np.ones((2, 5)), label="a")


def test_aligned_pair_validation():
    x = TimeSeries(np.zeros(30), label="x")
    with pytest.raises(InputError, match="align"):
        AlignedPair(x, TimeSeries(np.zeros(31), label="y"))
    with pytest.raises(InputError, match="too short"):
        AlignedPair(TimeSeries(np.zeros(5)), TimeSeries(np.zeros(5)))


def test_load_csv_with_header(tmp_path):
    p = tmp_path / "prices.csv"
    p.write_text("date,close\n1,100.0\n2,101.5\n3,99.25\n")
    s = load_csv(p, "close")
    assert s.label == "close"
    assert np.allclose(s.values, [100.0, 101.5, 99.25])
    by_index = load_csv(p, 1)
    assert np.array_equal(by_index.values, s.values)


def test_load_csv_headerless_and_errors(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("1.0\n2.0\n3.0\n")
    assert np.allclose(load_csv(p, 0).values, [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="no column named"):
        load_csv(p, "close")

    bad = tmp_path / "bad.csv"
    bad.write_text("v\n1.0\noops\n3.0\n")
    with pytest.raises(InputError, match="row 3"):
        load_csv(bad, "v")
    with pytest.raises(InputError, match="no such file"):
        load_csv(tmp_path / "missing.csv", 0)


def test_log_returns():
    prices = TimeSeries([100.0, 110.0, 99.0], label="p")
    r = log_returns(prices)
    assert len(r) == 2
    assert r.values == pytest.approx([np.log(1.1), np.log(0.9)])
    with pytest.raises(InputError, match="index 1"):
        log_returns(TimeSeries([1.0, 0.0, 2.0]))
    with pytest.raises(InputError, match="index 0"):
        log_returns(TimeSeries([-1.0, 2.0]))
    with pytest.raises(InputError, match=r"^series 'p': need at least 2 prices$"):
        log_returns(TimeSeries([100.0], label="p"))


def test_describe_moments():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(500)
    d = describe(TimeSeries(v))
    assert d.min == v.min() and d.max == v.max()
    assert d.mean == pytest.approx(v.mean())
    assert d.std_dev == pytest.approx(v.std(ddof=1))
    dev = v - v.mean()
    m2 = np.mean(dev**2)
    assert d.skewness == pytest.approx(np.mean(dev**3) / m2**1.5)
    assert d.kurtosis == pytest.approx(np.mean(dev**4) / m2**2)
    jb = 500 * (d.skewness**2 / 6 + (d.kurtosis - 3) ** 2 / 24)
    assert d.jarque_bera_statistic == pytest.approx(jb)
    assert d.jarque_bera_p_value == pytest.approx(chi2.sf(jb, 2))


def test_describe_gaussian_accepts_heavy_tail_rejects():
    rng = np.random.default_rng(9)
    gauss = describe(TimeSeries(rng.standard_normal(5000)))
    assert gauss.jarque_bera_p_value > 0.01
    heavy = describe(TimeSeries(rng.standard_t(df=3, size=5000)))
    assert heavy.jarque_bera_p_value < 1e-6
    assert heavy.kurtosis > gauss.kurtosis


def test_describe_shape_moments_match_exact_rational_moments():
    # Student-t returns whose sample skewness is far enough from zero that
    # its relative error measures rounding, not cancellation of the sum
    rng = np.random.default_rng(27)
    v = 1e-3 * rng.standard_t(df=5, size=5_000)
    d = describe(TimeSeries(v))
    exact = [Fraction(float(x)) for x in v]
    mean = sum(exact) / len(exact)
    m2, m3, m4 = (sum((x - mean) ** k for x in exact) / len(exact) for k in (2, 3, 4))
    with localcontext() as ctx:
        ctx.prec = 40
        m2_dec, m3_dec = (Decimal(m.numerator) / m.denominator for m in (m2, m3))
        skew = m3_dec / m2_dec ** Decimal("1.5")
    kurt = m4 / m2**2
    assert abs(skew) > 0.05
    assert abs(Fraction(d.skewness) / Fraction(skew) - 1) < 1e-14
    assert abs(Fraction(d.kurtosis) / kurt - 1) < 1e-14


def test_describe_degenerate_series():
    d = describe(TimeSeries(np.full(50, 2.5)))
    assert d.std_dev == 0.0
    assert np.isnan(d.skewness) and np.isnan(d.kurtosis)
    assert np.isnan(d.jarque_bera_statistic)
    with pytest.raises(InputError, match="at least 8"):
        describe(TimeSeries(np.arange(5.0)))


@pytest.mark.parametrize("values", [np.zeros(30), np.r_[np.zeros(20), 1e-170],
                                    np.r_[np.zeros(10), 1e-110]],
                         ids=["zeros", "variance_underflows", "moment_powers_underflow"])
def test_describe_vanishing_variance_nan_shape_without_warning(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the 0/0 moments
        d = describe(TimeSeries(values))
    assert d.std_dev == math.sqrt(np.sum((values - values.mean()) ** 2) / (values.size - 1))
    assert all(np.isnan(v) for v in (d.skewness, d.kurtosis, d.jarque_bera_statistic,
                                     d.jarque_bera_p_value))


# -- load_csv against the previous row-by-row loader --------------------------

def reference_load_csv(path, column):
    """The loader as it was before the vectorised parse, kept verbatim as the
    reference for values, labels and error messages."""
    import csv

    def _is_number(token):
        try:
            float(token)
        except ValueError:
            return False
        return True

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [
                row for row in csv.reader(fh)
                if row and any(c.strip() for c in row) and not row[0].lstrip().startswith("#")
            ]
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    if not rows:
        raise InputError(f"{path}: empty file")

    header = None
    if not all(_is_number(c.strip()) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]

    if isinstance(column, int) or (isinstance(column, str) and column.lstrip("-").isdigit()):
        idx = int(column)
        if idx < 0 or (rows and idx >= len(rows[0])):
            raise InputError(f"{path}: no column at index {idx}")
        label = header[idx] if header and idx < len(header) else f"col{idx}"
    else:
        if header is None or column not in header:
            raise InputError(f"{path}: no column named {column!r}")
        idx = header.index(column)
        label = column

    if len(rows) < 2:
        raise InputError(f"{path}: need at least 2 data rows, got {len(rows)}")

    values = np.empty(len(rows))
    offset = 2 if header is not None else 1
    for i, row in enumerate(rows):
        if idx >= len(row):
            raise InputError(f"{path}: row {i + offset} has no column {idx}")
        cell = row[idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise InputError(f"{path}: non-numeric cell {cell!r} in row {i + offset}") from None
        if not np.isfinite(v):
            raise InputError(f"{path}: non-finite value {cell!r} in row {i + offset}")
        values[i] = v
    return TimeSeries(values, label=label)


def _outcome(loader, path, column):
    try:
        s = loader(path, column)
    except InputError as exc:
        return "error", str(exc)
    return s.label, s.values


def assert_same_as_reference(path, column):
    want = _outcome(reference_load_csv, path, column)
    got = _outcome(load_csv, path, column)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
    else:
        assert np.array_equal(got[1], want[1])


LOADER_CASES = {
    "header": "minute,close\n0,100.0\n1,99.9946332045206\n2,100.25\n",
    "headerless": "1.0\n2.5\n-3e-4\n",
    "comments": "# source: test\nv\n  # indented note\n1.0\n#2.0\n3.0\n",
    "blank_rows": "\nv\n\n1.0\n   \n\t\n2.0\n \r\n3.0\n\n",
    "comma_only_rows": ",\nv,w\n , \n1,2\n,,\n3,4\n",
    "crlf": "v,w\r\n1.5,2\r\n2.5,3\r\n# c\r\n\r\n3.5,4\r\n",
    "lone_cr": "v\r1.0\r2.0\r3.0\r",
    "no_final_newline": "v\n1.0\n2.0",
    "quoted": '"v","w"\n"1.5",2\n"2.5",3\n',
    "quoted_comment_cell": 'v,w\n"#x",1\n1,2\n2,3\n',
    "quoted_newline": 'v,w\n1,"a\nb"\n2,3\n3,4\n',
    "extra_columns": "v\n1,9,9\n2\n3,x\n",
    "spaces": "  v , w \n 1.0 ,  2 \n 3 , 4\n",
    "non_numeric": "v\n1.0\noops\n3.0\n",
    "non_finite_nan": "v\n1.0\nnan\n3.0\n",
    "non_finite_inf": "v,w\n1,2\n3,-inf\n",
    "overflow": "v\n1.0\n1e500\n",
    "missing_cell": "v,w\n1,2\n3\n5,6\n",
    "empty_cell": "v,w\n1,2\n3,\n5,6\n",
    "underscore_digits": "v\n1_000\n2\n",
    "empty": "\n# only a comment\n\n",
    "one_row": "v\n1.0\n",
    "header_only": "v,w\n",
    "non_ascii_space": "v\n1.0\n2.0\xa0\n3.0\n",
    "tab_only_row": "v\n1.0\n\t\n2.0\n",
    "empty_lines": "v,w\n1,2\n\n3,4\n\n\n5,6\n\n",
    "empty_line_after_header": "v\n\n1.0\n2.0\n",
}


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
@pytest.mark.parametrize("column", [0, 1, "1", "v", "w", "close", -1, 7])
def test_load_csv_matches_reference(tmp_path, name, column):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(LOADER_CASES[name].encode())
    assert_same_as_reference(p, column)


def test_load_csv_matches_reference_on_random_files(tmp_path):
    cells = ["1.5", " 2 ", "-3e-2", "7", "nan", "inf", "x", "", " ", "#c", '"4"',
             '"#q"', "1e500", "1_0", "+.5"]
    ends = ["\n", "\r\n", "\r"]
    rng = np.random.default_rng(2024)
    p = tmp_path / "fuzz.csv"
    for _ in range(400):
        lines = ["a,b" if rng.random() < 0.5 else ""]
        for _ in range(rng.integers(0, 7)):
            k = rng.integers(1, 4)
            lines.append(",".join(rng.choice(cells, size=k)))
        text = "".join(ln + ends[rng.integers(0, 3)] for ln in lines)
        p.write_bytes(text.encode())
        for column in (0, 1, "a", "b"):
            assert_same_as_reference(p, column)


CSV_TOKENS = [*"0123456789.,-+eE#\"\r\n ", "nan", "inf", "close"]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(st.sampled_from(CSV_TOKENS), max_size=60).map("".join),
       column=st.sampled_from([0, 1, "1", "close", -1]))
def test_load_csv_returns_a_series_or_raises_input_error(tmp_path, text, column):
    p = tmp_path / "fuzz.csv"
    p.write_bytes(text.encode())
    try:
        series = load_csv(p, column)
    except InputError:
        return
    assert isinstance(series, TimeSeries) and len(series) >= 2


def test_load_csv_plain_files_take_the_vector_parse(tmp_path, monkeypatch):
    import fractal_xcorr.series as series

    def row_reader(*args):
        raise AssertionError("row-by-row reader used")

    monkeypatch.setattr(series, "_parse_rows", row_reader)
    for name in ("header", "headerless", "comments", "blank_rows", "crlf", "lone_cr",
                 "extra_columns", "spaces"):
        p = tmp_path / f"{name}.csv"
        p.write_bytes(LOADER_CASES[name].encode())
        load_csv(p, 0)


def test_load_csv_error_messages_name_the_row(tmp_path):
    cases = {
        "non_numeric": ("v", "non-numeric cell 'oops' in row 3"),
        "non_finite_nan": ("v", "non-finite value 'nan' in row 3"),
        "non_finite_inf": ("w", "non-finite value '-inf' in row 3"),
        "missing_cell": ("w", "row 3 has no column 1"),
    }
    for name, (column, message) in cases.items():
        p = tmp_path / f"{name}.csv"
        p.write_bytes(LOADER_CASES[name].encode())
        with pytest.raises(InputError, match=message):
            load_csv(p, column)


def test_load_csv_unreadable_path_raises_input_error(tmp_path):
    with pytest.raises(InputError) as info:
        load_csv(tmp_path, "close")
    assert str(info.value) == f"{tmp_path}: cannot read (Is a directory)"


# -- the vectorised line parse against the reference loader -------------------

LOADER_CHARS = [*".,-+eE_#\"\r\n \t\x0b\x0c\x1c\x85\xa0\u2028", "nan", "inf", "1e500"]
LOADER_TOKENS = [*"0123456789", *LOADER_CHARS]
LOADER_NUMBERS = ["1.5", "2", "-3e-2", "+.5", "7", "0"]
LOADER_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n \n"]


def _inject(text_and_edits):
    text, edits = text_and_edits
    for pos, token in edits:
        pos %= len(text) + 1
        text = text[:pos] + token + text[pos:]
    return text


# A soup of tokens, rows of cells built from them, or a loadable numeric
# file with a few tokens injected, so that both failing and loadable files
# are drawn.
_token_soup = st.lists(st.sampled_from(LOADER_TOKENS), max_size=60).map("".join)
_cell = st.lists(st.sampled_from(["", *LOADER_NUMBERS, *LOADER_TOKENS]),
                 min_size=1, max_size=3).map("".join)
_row = st.lists(_cell, min_size=1, max_size=3).map(",".join)
_rows = st.lists(st.tuples(_row, st.sampled_from(LOADER_ENDS)), max_size=8).map(
    lambda rows: "".join(cells + end for cells, end in rows))
_numeric_row = st.lists(st.sampled_from(LOADER_NUMBERS), min_size=2, max_size=2).map(",".join)
_injected = st.tuples(
    st.tuples(st.sampled_from(["", "v,close\n"]),
              st.lists(_numeric_row, min_size=2, max_size=8).map("\n".join)).map("".join),
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from(LOADER_CHARS)), max_size=3),
).map(_inject)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.sampled_from(["", "v,close\n", "v,close\r\n", "# prices\n",
                               "# prices\nv,close\n"]),
       body=st.one_of(_token_soup, _rows, _injected),
       final_newline=st.booleans(),
       column=st.sampled_from([0, 1, "1", "v", "close", -1]))
@example(header="", body="1\r2\n3\n4", final_newline=True, column=0)  # CR in line 1
@example(header="v,close\n", body="1\x0c2,3\n4,5\n6,7", final_newline=False, column=0)
@example(header="", body="1,2\u20283,4\n5,6\n7,8", final_newline=True, column=1)
@example(header="", body="1,2\n3,4\n \n", final_newline=True, column=0)
def test_load_csv_equals_reference_on_drawn_text(tmp_path, header, body, final_newline,
                                                 column):
    text = header + body
    text = text + "\n" if final_newline else text.rstrip("\r\n")
    p = tmp_path / "drawn.csv"
    p.write_bytes(text.encode())
    assert_same_as_reference(p, column)


def _paper_sized_prices(n_returns=35_608, seed=35):
    """minute,close text with repr floats, laid out as the benchmark's price
    files, and the close values as float() of each cell."""
    rng = np.random.default_rng(seed)
    returns = 1e-3 * rng.standard_normal(n_returns)
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    rows = [f"{i},{float(p)!r}" for i, p in enumerate(prices)]
    text = "minute,close\n" + "".join(r + "\n" for r in rows)
    return text, np.array([float(r.split(",")[1]) for r in rows])


def _refuse(*args):
    raise AssertionError("row-by-row reader used")


def _commented(text):
    lines = text.split("\n")
    return "# gold, 1-minute closes\n" + "\n".join(
        ln if i % 997 else f"# block {i}\n{ln}" for i, ln in enumerate(lines))


def _blank_lines(text):
    lines = text.split("\n")
    return "\n".join(ln if i % 1009 else f"\n \t\n{ln}" for i, ln in enumerate(lines)) + "\n\n"


# The paper-sized price file laid out in other ways that hold the same values.
PAPER_SIZED_VARIANTS = {
    "plain": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "lone_cr": lambda text: text.replace("\n", "\r"),
    "commented": _commented,
    "blank_lines": _blank_lines,
    "bom": lambda text: "\ufeff" + text,
    "non_ascii_header": lambda text: text.replace("minute,", "min\u00fcte,", 1),
}


def _paper_sized_variant(name):
    """The paper-sized price file as bytes, laid out as ``name`` says, and the
    close values it holds."""
    text, want = _paper_sized_prices()
    return PAPER_SIZED_VARIANTS[name](text).encode(), want


@pytest.mark.parametrize("name", list(PAPER_SIZED_VARIANTS))
def test_load_csv_paper_sized_variants_take_the_vector_parse(tmp_path, monkeypatch, name):
    import fractal_xcorr.series as series

    data, want = _paper_sized_variant(name)
    p = tmp_path / f"{name}.csv"
    p.write_bytes(data)
    monkeypatch.setattr(series, "_parse_rows", _refuse)
    got = load_csv(p, "close")
    assert got.label == "close" and len(got) == 35_609
    assert got.values.tobytes() == want.tobytes()


def test_load_csv_plain_file_with_empty_lines_takes_the_vector_parse(tmp_path, monkeypatch):
    import fractal_xcorr.series as series

    monkeypatch.setattr(series, "_parse_rows", _refuse)
    p = tmp_path / "empty_lines.csv"
    p.write_bytes(LOADER_CASES["empty_lines"].encode())
    got = load_csv(p, "w")
    assert got.label == "w" and got.values.tolist() == [2.0, 4.0, 6.0]


@pytest.mark.parametrize("name", ["plain", "crlf", "lone_cr", "commented", "bom"])
def test_load_csv_paper_sized_file_peaks_below_twice_its_size(tmp_path, name):
    import tracemalloc

    data, want = _paper_sized_variant(name)
    p = tmp_path / f"{name}.csv"
    p.write_bytes(data)
    tracemalloc.start()
    try:
        got = load_csv(p, "close")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.values.tobytes() == want.tobytes()
    assert peak < 2 * len(data), f"peak {peak} B for a {len(data)} B file"


@pytest.mark.parametrize("where", ["early", "late", "cut_short"])
def test_load_csv_invalid_utf8_names_its_byte(tmp_path, where):
    data, _ = _paper_sized_variant("plain")
    if where == "cut_short":  # the file ends inside a two-byte sequence
        at, data = len(data), data + b"\xc3"
    else:
        at = 5 if where == "early" else len(data) - 20
        data = data[:at] + b"\xff" + data[at + 1:]
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(InputError) as info:
        load_csv(p, "close")
    assert str(info.value) == f"{p}: not UTF-8 text (byte {at})"


# -- which files np.loadtxt reads again from their path -----------------------

@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("name", ["header", "headerless", "spaces", "non_numeric"])
def test_load_csv_plain_text_with_a_compressed_suffix(tmp_path, suffix, name):
    # np.loadtxt would open such a path as a compressed file
    p = tmp_path / f"{name}.csv{suffix}"
    p.write_bytes(LOADER_CASES[name].encode())
    for column in (0, 1, "v", "w"):
        assert_same_as_reference(p, column)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_load_csv_reads_a_named_pipe_once(tmp_path):
    text = LOADER_CASES["header"]
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode())
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    got = []
    writer = threading.Thread(target=write, daemon=True)
    reader = threading.Thread(target=lambda: got.append(_outcome(load_csv, fifo, "close")),
                              daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():  # waiting for a second writer: give it an empty one
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
        pytest.fail("load_csv opened the named pipe a second time")
    writer.join(timeout=30)
    assert not writer.is_alive()
    want = _outcome(reference_load_csv, plain, "close")
    assert got[0][0] == want[0] == "close"
    assert np.array_equal(got[0][1], want[1])


def test_load_csv_paper_sized_plain_file_reaches_loadtxt_as_its_path(tmp_path, monkeypatch):
    import fractal_xcorr.series as series

    data, want = _paper_sized_variant("plain")
    p = tmp_path / "plain.csv"
    p.write_bytes(data)
    sources = []
    loadtxt = np.loadtxt

    def recording_loadtxt(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(series.np, "loadtxt", recording_loadtxt)
    got = load_csv(p, "close")
    assert sources == [str(p)]
    assert got.values.tobytes() == want.tobytes()


def test_load_csv_relative_path_that_parses_as_a_url(tmp_path, monkeypatch):
    # np.loadtxt would fetch a path string with a scheme and a host as a URL
    p = tmp_path / "nosuch:" / "host" / "prices.csv"
    p.parent.mkdir(parents=True)
    p.write_bytes(LOADER_CASES["header"].encode())
    monkeypatch.chdir(tmp_path)
    assert_same_as_reference("nosuch://host/prices.csv", "close")
