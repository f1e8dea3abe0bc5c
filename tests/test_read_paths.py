"""Differential tests: `read_table`, whose plain tables are parsed in row blocks
by `np.loadtxt`, against the cell-by-cell csv reader it replaced (kept in
oracles.py).  Values must match bit for bit, header and labels exactly, and
every `ValidationError` message word for word."""

import csv
import io
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from dendrowave import tree
from dendrowave.tree import ValidationError
from dendrowave.ultrametric import _PLAIN_BYTES, _read_plain, read_table, write_table

# np.loadtxt warns on an empty input, which the block path must never give it
pytestmark = pytest.mark.filterwarnings("error")

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


def outcome(reader, text: str, labelled: bool):
    """What a reader makes of a table: its parts with the values' bits, or its error."""
    try:
        header, labels, values = reader(text, labelled)
    except ValidationError as exc:
        return "error", str(exc)
    return header, labels, values.shape, values.view(np.int64).tolist()


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
            if fault == "cell":
                rows[r][draw(st.integers(0, width - 1))] = draw(st.one_of(PLAIN, ODD))
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
@given(tables(), st.sampled_from([1, 7, 37, tree._BLOCK_CELLS]))
def test_read_table_matches_the_cell_reader(table, block_cells):
    text, labelled = table
    with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
        assert outcome(read_table, text, labelled) == outcome(oracles.read_table_cells, text, labelled)


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(1, 8))
def test_cells_over_the_csv_field_limit_are_refused_alike(table, limit):
    text, labelled = table
    old = csv.field_size_limit(limit)
    try:
        assert outcome(read_table, text, labelled) == outcome(oracles.read_table_cells, text, labelled)
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
        assert (_read_plain(text, labelled) is not None) == plain
        assert outcome(read_table, text, labelled) == outcome(oracles.read_table_cells, text, labelled)
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
    ],
)
def test_plain_tables_take_the_block_path(text, labelled):
    assert _read_plain(text, labelled) is not None
    assert outcome(read_table, text, labelled) == outcome(oracles.read_table_cells, text, labelled)


@pytest.mark.parametrize(
    "text, labelled",
    [
        ("a,b\r1,2\r", False),  # a lone "\r" ends a row too
        ("a,b\n1,2\r3,4\n", False),
        ('label,a\n"r,1",2\n', True),  # a quoted label
        ("a,b\n1,\xa02\n", False),
        ("a,b\n1,1_0\n", False),
        ("a,b\n1,１\n", False),
        ("a,b\n1,inf\n", False),
        ("a,b\n1,1e400\n", False),
        ("a,b\n1\n", False),  # a short row
        ("a,b\n", False),  # no body
        ("a,b\n\n\n", False),
        ("a,b", False),
        ("\na,b\n1,2\n", False),  # the header is not the first line
        ('"a\nb",c\n1,2\n', False),  # nor the whole first line
        ("label\nr1\n", True),  # no value column
        ("label,a\nr1\n", True),
        ("label,a\nr\r1,2\n", True),  # a lone "\r" in a label
        ("label,a\nr\x001,2\n", True),  # csv.reader refuses NUL before Python 3.11
        ("a\n\ud800\n", False),  # a lone surrogate, which cannot be encoded
        ("a\rb,c\n1,2\n", False),
    ],
)
def test_other_tables_fall_back_to_the_cell_reader(text, labelled):
    assert _read_plain(text, labelled) is None
    assert outcome(read_table, text, labelled) == outcome(oracles.read_table_cells, text, labelled)


def test_written_tables_read_back_through_the_block_path():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-300, 300, size=(300, 7))
    buf = io.StringIO()
    write_table(buf, ["row"] + [f"c{j}" for j in range(7)], values, [f"r {i}" for i in range(300)])
    text = buf.getvalue()
    with mock.patch.object(tree, "_BLOCK_CELLS", 64):
        plain = _read_plain(text, True)
    assert plain is not None
    assert outcome(lambda *_: plain, text, True) == outcome(oracles.read_table_cells, text, True)
