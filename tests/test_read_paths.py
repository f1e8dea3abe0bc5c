"""Differential tests: `read_table`, which parses blocks of plain rows with
`np.loadtxt` and the rest through `csv.reader` in one pass, against the
cell-by-cell csv reader it replaced (kept in oracles.py), on a str and on a
file.  Values must match bit for bit, header and labels exactly, and every
`ValidationError` message word for word."""

import contextlib
import csv
import io
import itertools
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import feed

from dendrowave import tree, ultrametric
from dendrowave.cli import _parse, main
from dendrowave.tree import ValidationError, read_text
from dendrowave.ultrametric import (
    _PLAIN_BYTES,
    _lines,
    matrix_from_csv,
    matrix_to_csv,
    read_table,
    write_table,
)

# np.loadtxt warns on an empty input, which the block path must never give it
pytestmark = pytest.mark.filterwarnings("error")

SOURCES = ("str", "stringio", "file")

NUMBERS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), format(v, ".12g")])
)
PLAIN = st.text(alphabet="0123456789+-.eE", min_size=1, max_size=5)
# spellings that `float` and `np.loadtxt` may read differently, or not at all
ODD = st.sampled_from(
    ["1_0", "infinity", "nan", "1e400", " 1.5", "0x1p3", "１", "\xa01", "-0", ".5", "1.", "e5", ""]
)
NAMES = st.one_of(
    st.sampled_from(["a", " b ", "", "x y", "a,b", 'say "hi"', "a\rb", "a\nb", "a\0b", "\ud800"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
# names that csv.reader reads as they stand
PLAIN_NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='",\r\n\0'), max_size=4)


def encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


@contextlib.contextmanager
def handle(text: str, source: str):
    """``text`` itself, in a `io.StringIO`, or in a file opened as `read_table` wants it."""
    if source != "file":
        yield text if source == "str" else io.StringIO(text, newline="")
        return
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh


def outcome(reader, text: str, labelled: bool, source: str = "str"):
    """What a reader makes of a table: its parts with the values' bits, or its error.

    The "stringio" and "file" sources give the reader a handle holding ``text``.
    """
    try:
        with handle(text, source) as fh:
            header, labels, values = reader(fh, labelled)
    except ValidationError as exc:
        return "error", str(exc)
    return header, labels, values.shape, values.view(np.int64).tolist()


def same_as_cells(text: str, labelled: bool, source: str) -> bool:
    return outcome(read_table, text, labelled, source) == outcome(oracles.read_table_cells, text, labelled)


def is_plain(text: str, labelled: bool, source: str) -> bool:
    """Whether `read_table` reads the whole table by `np.loadtxt`: no error, and no `_cell_block`."""
    with mock.patch.object(ultrametric, "_cell_block", wraps=ultrametric._cell_block) as spy:
        got = outcome(read_table, text, labelled, source)
    return got[0] != "error" and not spy.called


# (cells a block, source): every listed table is read each way
WAYS = list(itertools.product((37, tree._BLOCK_CELLS), SOURCES))


def quoted(name: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="", quoting=csv.QUOTE_ALL).writerow([name])
    return buf.getvalue()


FAULTS = ("header", "cell", "label", "width", "line end")


@st.composite
def tables(draw):
    """CSV text of a table and whether it has a label column.

    The table is drawn clean, finite numbers and unquoted labels that the
    block path reads, and then gets up to two faults: an odd header name,
    an odd or unparsable cell, a quoted or odd label, a row of the wrong
    width, or a lone "\\r" line end.
    """
    labelled = draw(st.booleans())
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 20))
    header = [draw(PLAIN_NAMES) for _ in range(width + labelled)]
    labels = [draw(PLAIN_NAMES) for _ in range(n)]
    rows = [[draw(NUMBERS) for _ in range(width)] for _ in range(n)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * (n + 1)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        if fault == "header":
            header[draw(st.integers(0, width + labelled - 1))] = draw(st.one_of(NAMES, NAMES.map(quoted)))
        elif fault == "line end":
            ends[draw(st.integers(0, n))] = "\r"
        elif n:
            r = draw(st.integers(0, n - 1))
            if fault == "cell" and rows[r]:  # a "width" fault may have emptied the row
                rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.one_of(PLAIN, ODD))
            elif fault == "label":
                labels[r] = draw(st.one_of(NAMES, NAMES.map(quoted)))
            else:
                rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    lines = [",".join(header)] + [
        ",".join([label] + row if labelled else row) for label, row in zip(labels, rows)
    ]
    if draw(st.booleans()):
        ends[-1] = ""
    text = ""
    for line, end in zip(lines, ends):
        text += line + end
        if end and draw(st.integers(0, 9)) == 0:
            text += newline  # a blank line
    return text, labelled


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from([1, 7, 37, tree._BLOCK_CELLS]), st.sampled_from(SOURCES))
def test_read_table_matches_the_cell_reader(table, block_cells, source):
    text, labelled = table
    assume(source != "file" or encodable(text))
    with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
        assert same_as_cells(text, labelled, source)


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(1, 8), st.sampled_from(SOURCES))
def test_cells_over_the_csv_field_limit_are_refused_alike(table, limit, source):
    text, labelled = table
    assume(source != "file" or encodable(text))
    old = csv.field_size_limit(limit)
    try:
        assert same_as_cells(text, labelled, source)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize(
    "text, labelled, plain",
    [
        ("ab,c\n1.25,-1e5\n", False, True),  # every cell as long as the limit
        ("ab,c\n1.25,12345\n", False, False),
        ("ab,c\n1,2\n1.234,5\n", False, False),
        ("abcde,c\n1,2\n", False, False),
        ("l,a\nr,1\nabcd,2\n", True, True),
        ("l,a\nr,1\nabcde,2\n", True, False),
        ("l,a\nr,12345\n", True, False),
    ],
)
def test_cells_over_the_csv_field_limit(text, labelled, plain):
    old = csv.field_size_limit(4)
    try:
        for source in SOURCES:
            assert is_plain(text, labelled, source) == plain, source
            assert same_as_cells(text, labelled, source), source
    finally:
        csv.field_size_limit(old)


def test_loadtxt_and_float_agree_on_every_short_plain_cell():
    alphabet = _PLAIN_BYTES.decode().replace(",", "")
    for size in (1, 2, 3):
        for chars in itertools.product(alphabet, repeat=size):
            cell = "".join(chars)
            try:
                want = np.float64(float(cell)).view(np.int64)
            except ValueError:
                want = None
            try:
                got = np.loadtxt([cell], delimiter=",", comments=None, ndmin=2)[0, 0].view(np.int64)
            except ValueError:
                got = None
            assert got == want, cell


WRITTEN = "a,b\n1,2.5\n-0,1e-300\n"


@pytest.mark.parametrize(
    "text, labelled",
    [
        (WRITTEN, False),
        (WRITTEN.replace("\n", "\r\n"), False),
        ("a,b\n\n1,2\n\n\n3,4", False),
        ('"x, y",b\n1,2\n', False),
        ("label,a,b\n r1 ,1,2\nr2,3,4\n", True),
        ("label,a\nαβ,1\n,2\n", True),
        ("a\n1\n2\n", False),
        ("a,b\n1,2\r3,4\n", False),  # lines split at a lone "\r" too
        ("a,b\r1,2\r", False),  # the header line ends in a lone "\r"
        ("a,b\n", False),  # no body
        ("a,b\n\n\n", False),
        ("a,b", False),
        ("\na,b\n1,2\n", False),  # the header is not the first line
        ('"a\nb",c\n1,2\n', False),  # nor the whole first line
    ],
)
def test_plain_tables_take_the_block_path(text, labelled):
    for block_cells, source in WAYS:
        with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
            assert is_plain(text, labelled, source), (block_cells, source)
            assert same_as_cells(text, labelled, source), (block_cells, source)


@pytest.mark.parametrize(
    "text, labelled",
    [
        ('label,a\n"r,1",2\n', True),  # a quoted label
        ("a,b\n1,\xa02\n", False),
        ("a,b\n1,1_0\n", False),
        ("a,b\n1,１\n", False),
        ("a,b\n1,inf\n", False),
        ("a,b\n1,1e400\n", False),
        ("a,b\n1\n", False),  # a short row
        ("label\nr1\n", True),  # no value column
        ("label,a\nr1\n", True),
        ("label,a\nr\r1,2\n", True),  # a lone "\r" in a label
        ("label,a\nr\x001,2\n", True),  # csv.reader refuses NUL before Python 3.11
        ("a\n\ud800\n", False),  # a lone surrogate, which cannot be encoded
        ("a\rb,c\n1,2\n", False),
    ],
)
def test_other_tables_fall_back_to_the_cell_reader(text, labelled):
    for block_cells, source in WAYS:
        if source == "file" and not encodable(text):
            continue  # a lone surrogate cannot be written to a file
        with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
            assert not is_plain(text, labelled, source), (block_cells, source)
            assert same_as_cells(text, labelled, source), (block_cells, source)


@pytest.mark.parametrize(
    "text, labelled",
    [
        ("a,b\r\n1,2\r\n3,4\r\n", False),
        ("a,b\r\n1,2\r3,4\r5,6\r7,8\n", False),  # more lines than "\n"
        ("a,b\n1,2\r\n\r3,4\r", False),  # a blank line that is a lone "\r"
        ("l,a\nr1,1\rr2,2\r\n\r\nr3,3", True),
        ("l,a\nr1,1\rr2\r\n", True),  # a short row after a lone "\r"
    ],
)
def test_lines_end_where_csv_reader_ends_rows(text, labelled):
    for block_cells, source in WAYS:
        with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
            assert same_as_cells(text, labelled, source), (block_cells, source)


@pytest.mark.parametrize(
    "line, want",
    [("1,x,2", "row 51, column 2: could not parse 'x'"), ("1,2", "row 51: expected 3 values, got 2")],
    ids=["cell", "width"],
)
def test_a_fault_in_a_late_block(line, want):
    # 60 rows of three values: at 37 cells a block, row 51 is in the fifth block
    lines = ["a,b,c"] + [f"{i},{i + 0.5},-{i}e-3" for i in range(60)]
    lines[50] = line
    text = "\n".join(lines) + "\n"
    for block_cells, source in WAYS:
        with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
            assert outcome(read_table, text, False, source) == ("error", want), (block_cells, source)
            assert same_as_cells(text, False, source), (block_cells, source)


def test_written_tables_read_back_through_the_block_path():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-300, 300, size=(300, 7))
    buf = io.StringIO()
    write_table(buf, ["row"] + [f"c{j}" for j in range(7)], values, [f"r {i}" for i in range(300)])
    text = buf.getvalue()
    with mock.patch.object(tree, "_BLOCK_CELLS", 64):
        assert is_plain(text, True, "stringio")
        assert same_as_cells(text, True, "stringio")


def test_a_quoted_label_switches_to_csv_mid_table():
    # 60 rows of a label and two values: at 37 cells a block, 12 rows a block,
    # so the first three blocks are parsed plain and the rest through csv
    lines = ["l,a,b"] + [f"r{i},{i},{i / 7!r}" for i in range(60)]
    lines[40] = '"r,39",39,1'
    text = "\n".join(lines) + "\n"
    with mock.patch.object(tree, "_BLOCK_CELLS", 37):
        for source in SOURCES:
            with mock.patch.object(ultrametric, "_plain_block", wraps=ultrametric._plain_block) as plain, \
                    mock.patch.object(ultrametric, "_cell_block", wraps=ultrametric._cell_block) as cells:
                _, labels, shape, _ = outcome(read_table, text, True, source)
            assert plain.call_count == 4, source  # the fourth block is the first not plain
            assert [len(call.args[0]) for call in cells.call_args_list] == [12, 12, 0], source
            assert labels[39] == "r,39" and shape == (60, 2), source
            assert same_as_cells(text, True, source), source


@pytest.mark.parametrize(
    "late, want",
    [("1,2", "row 47: expected 3 values, got 2"), ('1,2,"3', "not a CSV table: field larger than field limit (100)")],
    ids=["width", "csv"],
)
def test_an_early_bad_cell_is_outranked_by_a_later_fault(late, want):
    # 60 rows of three values, 12 rows a block at 37 cells: a bad cell in
    # block 1, then a short row in block 4, or a quote left open there, whose
    # field runs on to the end of the text, past the field size limit
    lines = ["a,b,c"] + [f"{i},{i + 0.5},-{i}e-3" for i in range(60)]
    lines[3], lines[46] = "1,x,2", late
    text = "\n".join(lines) + "\n"
    old = csv.field_size_limit(100)
    try:
        for block_cells, source in WAYS:
            with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
                assert outcome(read_table, text, False, source) == ("error", want), (block_cells, source)
                assert same_as_cells(text, False, source), (block_cells, source)
    finally:
        csv.field_size_limit(old)


def big_table(rows: int = 3000) -> str:
    """A plain labelled table of more than 8 KB, past a text file's first decode chunk."""
    return "l,a,b\n" + "".join(f"r{i},{i},{i / 7!r}\n" for i in range(rows))


@pytest.mark.parametrize("quoted", [False, True], ids=["block-path", "cell-path"])
def test_bad_utf8_is_located_from_the_start_of_the_file(tmp_path, capsys, quoted):
    text = big_table()
    if quoted:  # csv.reader reads from the first block on, and meets the byte
        text = text.replace("r0,", '"r,0",', 1)
    raw = text.encode("utf-8")
    path = tmp_path / "bad.csv"
    for at in (3, 9000, 40000, len(raw) - 1):
        assert at < len(raw)
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        want = f"{path}: byte {at}: not UTF-8 text"
        with pytest.raises(ValidationError) as exc:
            read_text(path)
        assert str(exc.value) == want
        with pytest.raises(ValidationError) as exc:
            _parse(path, read_table, True)
        assert str(exc.value) == want
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_read_whole(tmp_path):
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    M = np.arange(16.0).reshape(4, 4)
    text = "a,b,c,d\n" + "".join(",".join(map(repr, row)) + "\n" for row in M.tolist())
    writer = feed(path, text.encode("utf-8"))
    labels, read = _parse(path, matrix_from_csv)
    writer.join(10)
    assert labels == ["a", "b", "c", "d"] and np.array_equal(read, M)
    raw = big_table().encode("utf-8")
    writer = feed(path, raw[:9000] + b"\xff" + raw[9000:])
    with pytest.raises(ValidationError) as exc:
        _parse(path, read_table, True)
    writer.join(10)
    assert str(exc.value) == f"{path}: byte 9000: not UTF-8 text"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab,\r\n\x85\u2028", max_size=40))
def test_a_str_splits_into_lines_as_a_file_does(text):
    assert list(_lines(text)) == list(io.StringIO(text, newline=""))


def peak_beyond_values(text: str) -> int:
    """Bytes that `matrix_from_csv` of ``text`` peaks at beyond its values, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with mock.patch.object(tree, "_BLOCK_CELLS", 4096):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            labels, values = matrix_from_csv(text)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert outcome(read_table, text, False) == outcome(oracles.read_table_cells, text, False)
    return peak - values.nbytes


def written_matrix() -> str:
    M = np.random.default_rng(8).uniform(size=(600, 600))
    return matrix_to_csv(M, [f"p{i}" for i in range(600)])


def test_a_str_is_read_without_a_copy_of_its_text():
    text = written_matrix()
    peak = peak_beyond_values(text)
    assert peak < len(text) / 4, f"{peak} bytes at the peak for {len(text)} characters"


def test_a_str_that_is_not_plain_is_read_a_block_of_cells_at_a_time():
    header, _, body = written_matrix().partition("\n")
    text = header + "\n" + body.replace(",", ", ")  # csv.reader's from the first block
    peak = peak_beyond_values(text)
    # a block of 4096 cells as Python strs, not every cell of the table
    assert peak < 1 << 20, f"{peak} bytes at the peak for {len(text)} characters"
