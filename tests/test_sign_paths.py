"""C.csv read from its bytes, and copied by `filter`.

`read_signs` reads a file in the form `save_bundle` writes from its bytes,
and any other through `_read_signs`, the text reader.  The two must give
the same int8 signs and labels, or the same message, on mutated sign files;
a file the byte path takes must be the text `write_table` writes, which is
what lets `filter` copy it.  The last tests drive `transform`, `filter` and
`padic decode` over labels that csv must quote, and `transform`, `filter`,
`cluster` and `check` over data whose header names csv must quote.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import dendrograms

from dendrowave import cli, tables, tree
from dendrowave.haar import inverse
from dendrowave.tables import _read_signs, _write_cophenetic, read_signs, read_table, write_table
from dendrowave.tree import (
    ValidationError,
    _parse,
    branch_signs,
    build_from_merges,
    load_json,
    random_dendrogram,
    save_json,
)
from dendrowave.ultrametric import matrix_from_csv

# the characters a label may hold that csv quotes, escapes or strips, and the empty label
LABEL_CHARS = " ,\"'\t\n\r;é"
LABELS = st.text(alphabet=LABEL_CHARS + "ab", max_size=3)
UNQUOTED = st.text(alphabet=" '\t;éab", max_size=3)  # labels csv writes as they stand


def written(signs: np.ndarray, labels) -> bytes:
    """A C.csv's bytes as `save_bundle` writes them."""
    buf = io.StringIO(newline="")
    header = ["terminal"] + [f"cluster_{k}" for k in range(1, signs.shape[1] + 1)]
    write_table(buf, header, signs, labels)
    return buf.getvalue().encode("utf-8")


def outcome(reader, path: Path):
    """The signs' dtype and values and the labels ``reader`` reads from ``path``, or its message."""
    try:
        signs, labels = _parse(path, reader)[:2]
    except ValidationError as exc:
        return str(exc)
    return signs.dtype, signs.tolist(), labels


def one_of(raw: bytes, old: bytes, data) -> int | None:
    """The start of a drawn occurrence of ``old`` in ``raw``, or None if it has none."""
    at = [i for i in range(len(raw)) if raw.startswith(old, i)]
    return data.draw(st.sampled_from(at), label=f"at {old!r}") if at else None


def replaced(raw: bytes, old: bytes, new: bytes, data) -> bytes:
    i = one_of(raw, old, data)
    return raw if i is None else raw[:i] + new + raw[i + len(old):]


def inserted(raw: bytes, new: bytes, data) -> bytes:
    i = data.draw(st.integers(0, len(raw)), label="at")
    return raw[:i] + new + raw[i:]


def short_row(raw: bytes, data) -> bytes:
    """One cell, from a comma to the next comma or line end, taken out."""
    i = one_of(raw, b",", data)
    if i is None:
        return raw
    ends = [j for j in (raw.find(b",", i + 1), raw.find(b"\n", i + 1)) if j >= 0]
    return raw[:i] + raw[min(ends, default=len(raw)):]


# each a mutation of a written file's bytes that `read_signs` must read as `_read_signs` does
MUTATIONS = {
    "crlf": lambda raw, data: raw.replace(b"\n", b"\r\n"),
    "one-crlf": lambda raw, data: replaced(raw, b"\n", b"\r\n", data),
    "lone-cr": lambda raw, data: replaced(raw, b"\n", b"\r", data),
    "quote": lambda raw, data: inserted(raw, b'"', data),
    "float": lambda raw, data: replaced(raw, b",1", b",1.0", data),
    "plus": lambda raw, data: replaced(raw, b",1", b",+1", data),
    "minus-zero": lambda raw, data: replaced(raw, b",0", b",-0", data),
    "space": lambda raw, data: replaced(raw, b",0", b", 0", data),
    "bad-sign": lambda raw, data: replaced(raw, b",1", data.draw(st.sampled_from([b",2", b",300", b",-2"])), data),
    "blank-line": lambda raw, data: replaced(raw, b"\n", b"\n\n", data),
    "short-row": short_row,
    "long-row": lambda raw, data: replaced(raw, b"\n", b",0\n", data),
    "not-utf8": lambda raw, data: inserted(raw, data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])), data),
    "nul": lambda raw, data: inserted(raw, b"\0", data),
    "no-line-end": lambda raw, data: raw[:-1],
    "label-byte": lambda raw, data: replaced(
        raw, b"\n", b"\n" + data.draw(st.sampled_from([b"\r", b"\0", b'"', b"\xff", b",", b"\n"])), data
    ),
    "extra-row": lambda raw, data: raw + raw[raw.rfind(b"\n", 0, -1) + 1:],
    "blank-last-line": lambda raw, data: raw + b"\n",
    "header": lambda raw, data: replaced(raw, b"cluster_1", data.draw(st.sampled_from([b"cluster_01", b"c"])), data),
    "byte": lambda raw, data: replaced(
        raw, raw[data.draw(st.integers(0, len(raw) - 1), label="byte at"):][:1],
        data.draw(st.sampled_from([b"0", b"1", b"-", b",", b"\n", b"\r", b'"', b" ", b".", b"+", b"a"])), data,
    ),
}


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12), st.data())
def test_the_byte_path_reads_what_the_text_reader_reads(n, data):
    # csv.reader refuses a field past its size limit, so a label may be too long
    limit = csv.field_size_limit(data.draw(st.sampled_from([2, csv.field_size_limit()]), label="limit"))
    try:
        read_alike(n, data)
    finally:
        csv.field_size_limit(limit)


def read_alike(n: int, data) -> None:
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    signs = rng.integers(-1, 2, size=(n, n - 1)).astype(np.int8)
    labels = data.draw(st.lists(st.one_of(UNQUOTED, LABELS), min_size=n, max_size=n), label="labels")
    raw = written(signs, labels)
    for name in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2), label="mutations"):
        raw = MUTATIONS[name](raw, data)
    # a block as small as one row puts most faults past the first block
    block = data.draw(st.sampled_from([1, 7, 37, tree._BLOCK_CELLS]), label="block cells")
    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(tree, "_BLOCK_CELLS", block):
        path = Path(scratch) / "C.csv"
        path.write_bytes(raw)
        want = outcome(_read_signs, path)
        assert outcome(read_signs, path) == want
        if not isinstance(want, str) and _parse(path, read_signs)[2]:  # the form save_bundle writes
            assert raw == written(np.array(want[1], dtype=np.int8).reshape(len(want[2]), -1), want[2])


CLEAN = b"terminal,cluster_1,cluster_2\nx1,1,1\nx2,-1,1\nx3,0,-1\n"
# files a byte away from the form save_bundle writes, which the byte path leaves to the text reader
NOT_WRITTEN = {
    "quoted-label": CLEAN.replace(b"x2", b'"x2"'),
    "cr-in-label": CLEAN.replace(b"x2", b"x\r2"),
    "cr-starts-a-label": CLEAN.replace(b"x2", b"\rx2"),
    "crlf": CLEAN.replace(b"\n", b"\r\n"),
    "nul-in-label": CLEAN.replace(b"x2", b"x\x002"),
    "not-utf8-label": CLEAN.replace(b"x2", b"x\xff2"),
    "blank-line": CLEAN.replace(b"\nx2", b"\n\nx2"),
    "blank-last-line": CLEAN + b"\n",
    "no-line-end": CLEAN[:-1],
    "float": CLEAN.replace(b"x1,1", b"x1,1.0"),
    "plus": CLEAN.replace(b"x1,1", b"x1,+1"),
    "minus-zero": CLEAN.replace(b"x3,0", b"x3,-0"),
    "space": CLEAN.replace(b"x3,0", b"x3, 0"),
    "bad-sign": CLEAN.replace(b"x3,0", b"x3,2"),
    "short-row": CLEAN.replace(b"x3,0,-1", b"x3,0"),
    "long-row": CLEAN.replace(b"x3,0,-1", b"x3,0,-1,0"),
    "missing-row": CLEAN[: CLEAN.index(b"x3")],
    "extra-row": CLEAN + b"x4,0,0\n",
    "a-row-missing-its-cells-elsewhere": CLEAN[: CLEAN.index(b"x3")].replace(b"x1,1,1", b"x1,1,1,0,0"),
    "header": CLEAN.replace(b"cluster_2", b"cluster_3"),
    "label-past-the-field-limit": CLEAN.replace(b"x2", b"a-long-label"),
}


@pytest.mark.parametrize("block", [1, tree._BLOCK_CELLS])
@pytest.mark.parametrize("case", sorted(NOT_WRITTEN))
def test_a_file_not_as_written_is_left_to_the_text_reader(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", block)
    path = tmp_path / "C.csv"
    path.write_bytes(NOT_WRITTEN[case])
    returned, byte_signs = [], tables._byte_signs
    monkeypatch.setattr(tables, "_byte_signs", lambda raw: returned.append(byte_signs(raw)) or returned[-1])
    limit = csv.field_size_limit(len("cluster_2"))  # no longer than the header's names
    try:
        assert outcome(read_signs, path) == outcome(_read_signs, path)
    finally:
        csv.field_size_limit(limit)
    assert returned == [None]


@pytest.mark.parametrize("n", [2, 9, 40])
def test_a_written_sign_file_takes_the_byte_path(tmp_path, monkeypatch, n):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", 64)  # a block of one or a few rows
    d = random_dendrogram(n, n)
    path = tmp_path / "C.csv"
    path.write_bytes(written(branch_signs(d), d.labels))
    with mock.patch.object(tables, "_read_signs", side_effect=AssertionError("text reader used")):
        signs, labels, exact = _parse(path, read_signs)
    assert exact and labels == list(d.labels) and np.array_equal(signs, branch_signs(d))
    assert signs.dtype == np.int8


def test_a_str_is_read_by_the_text_reader():
    d = random_dendrogram(6, 1)
    text = written(branch_signs(d), d.labels).decode("utf-8")
    signs, labels, exact = read_signs(text)
    assert not exact and labels == list(d.labels) and np.array_equal(signs, branch_signs(d))


# a C.csv whose header names its first two columns the other way round
MISNAMED_COLUMNS = b"terminal,cluster_2,cluster_1,cluster_3\nx1,1,0,1\nx2,-1,0,1\nx3,0,1,-1\nx4,0,-1,-1\n"


def test_a_sign_file_whose_header_misnames_a_column_is_refused(tmp_path, capsys):
    path = tmp_path / "C.csv"
    path.write_bytes(MISNAMED_COLUMNS)
    message = "row 1, column 2: expected cluster_1, got 'cluster_2'"
    assert outcome(read_signs, path) == outcome(_read_signs, path) == f"{path}: {message}"
    with pytest.raises(ValidationError) as exc:
        read_signs(MISNAMED_COLUMNS.decode())
    assert str(exc.value) == message
    assert cli.main(["padic", "decode", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# ------------------------------------------------------------------ filter

def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


@pytest.fixture
def bundle(tmp_path):
    tree_path = tmp_path / "tree.json"
    save_json(random_dendrogram(30, 7), tree_path)
    out = tmp_path / "bundle"
    assert run(["transform", "-", tree_path, "--mode", "indicator", "--out", out]) == 0
    return out


def test_filter_copies_a_sign_file_that_transform_wrote(tmp_path, bundle):
    with mock.patch.object(cli, "_write_csv", wraps=cli._write_csv) as writes:
        assert run(["filter", bundle, "--value", "3", "--out", tmp_path / "f"]) == 0
    assert all(call.args[0].name != "C.csv" for call in writes.call_args_list)
    assert (tmp_path / "f" / "filtered" / "C.csv").read_bytes() == (bundle / "C.csv").read_bytes()


# edits of a written C.csv that read the same, so filter writes it anew
SAME_SIGNS = {
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "float-cells": lambda raw: raw.replace(b",1\n", b",1.0\n").replace(b",-1,", b",-1.0,"),
    "quoted-label": lambda raw: raw.replace(b"\nx1,", b'\n"x1",', 1),
}


@pytest.mark.parametrize("edit", sorted(SAME_SIGNS))
def test_filter_writes_a_sign_file_in_another_form_anew(tmp_path, bundle, edit):
    c_path = bundle / "C.csv"
    text = c_path.read_bytes()
    c_path.write_bytes(SAME_SIGNS[edit](text))
    assert c_path.read_bytes() != text
    assert run(["filter", bundle, "--value", "3", "--out", tmp_path / "f"]) == 0
    assert (tmp_path / "f" / "filtered" / "C.csv").read_bytes() == text


def swap_lines(raw: bytes, i: int, j: int) -> bytes:
    lines = raw.split(b"\n")
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


# edits of a bundle's names that keep every value, each refused with the message it names
MISNAMED = {
    "C-label-renamed": (
        "C.csv",
        lambda raw: raw.replace(b"\nx1,", b"\nother,", 1),
        "row 2: expected dendrogram.json's terminal 'x1', got 'other'",
    ),
    "D-rows-swapped": (
        "D.csv", lambda raw: swap_lines(raw, 1, 2), "row 2: expected 'cluster_1', got 'cluster_2'"
    ),
    "D-row-renamed": (
        "D.csv",
        lambda raw: raw.replace(b"\ncluster_5,", b"\nrank_5,"),
        "row 6: expected 'cluster_5', got 'rank_5'",
    ),
    "smooth-header-swapped": (
        "smooth.csv",
        lambda raw: raw.replace(b"x1,x2,", b"x2,x1,", 1),
        "row 1, column 1: expected D.csv's 'x1', got 'x2'",
    ),
}


@pytest.mark.parametrize("case", sorted(MISNAMED))
def test_filter_refuses_a_bundle_whose_names_are_not_its_own(tmp_path, capsys, bundle, case):
    name, edit, message = MISNAMED[case]
    path = bundle / name
    raw = path.read_bytes()
    path.write_bytes(edit(raw))
    assert path.read_bytes() != raw
    assert cli.main(["filter", str(bundle), "--value", "3", "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "f").exists()


def test_filter_names_dendrogram_json_when_a_terminal_there_is_renamed(tmp_path, capsys, bundle):
    """Either file may be the one edited, so the message names both."""
    path = bundle / "dendrogram.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["terminals"][0] = "other"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["filter", str(bundle), "--value", "3", "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bundle / 'C.csv'}: row 2: expected dendrogram.json's terminal 'other', got 'x1'\n"
    assert not (tmp_path / "f").exists()


def test_filter_into_the_bundle_it_reads(tmp_path, bundle):
    assert run(["filter", bundle, "--value", "3", "--out", tmp_path]) == 0
    filtered = tmp_path / "filtered"
    before = {p.name: p.read_bytes() for p in filtered.iterdir()}
    assert run(["filter", filtered, "--value", "3", "--out", tmp_path]) == 0
    assert {p.name: p.read_bytes() for p in filtered.iterdir()} == before
    assert before["C.csv"] == (bundle / "C.csv").read_bytes()


# ------------------------------------------------------------- labels with "\r"

@pytest.mark.parametrize("labels", [("a", "b\rc"), ("1", "\r"), ("", "\r"), ("\r\n", "\n")])
def test_labels_with_a_carriage_return_come_back(tmp_path, labels):
    tree_path = tmp_path / "tree.json"
    d = random_dendrogram(2, 0, labels=labels)
    save_json(d, tree_path)
    out = tmp_path / "w"
    assert run(["transform", "-", tree_path, "--mode", "indicator", "--out", out]) == 0
    assert run(["filter", out, "--value", "1", "--out", tmp_path / "f"]) == 0
    assert run(["padic", "decode", out / "C.csv", "--out", tmp_path / "d"]) == 0
    assert load_json(tmp_path / "d" / "dendrogram.json").labels == labels
    assert cli.load_bundle(tmp_path / "f" / "filtered")[0].tree.labels == labels


def test_header_names_with_a_carriage_return_are_quoted():
    d = random_dendrogram(3, 2, labels=["a\rb", "c", "e\r\nd"])  # inner: header names are read stripped
    buf = io.StringIO(newline="")
    _write_cophenetic(buf, d)
    assert matrix_from_csv(buf.getvalue())[0] == list(d.labels)
    buf = io.StringIO(newline="")
    write_table(buf, list(d.labels), np.eye(3))
    assert read_table(buf.getvalue())[0] == list(d.labels)


# ------------------------------------------------------------ the round trip

@settings(max_examples=200, deadline=None)
@given(dendrograms(min_n=2, max_n=12), st.data())
def test_transform_filter_and_decode_give_back_the_labels(d, data):
    labels = data.draw(st.lists(LABELS, min_size=d.n_terminals, max_size=d.n_terminals, unique=True))
    d = build_from_merges(d.merges, labels=labels)
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        save_json(d, base / "tree.json")
        out, filtered, decoded = base / "w", base / "f", base / "d"
        assert run(["transform", "-", base / "tree.json", "--mode", "indicator", "--check", "--out", out]) == 0
        keep = d.n_terminals - 1
        assert run(["filter", out, "--rule", "keep-k", "--value", keep, "--out", filtered]) == 0
        w, features = cli.load_bundle(filtered / "filtered")
        assert w.tree.labels == tuple(labels) and features == list(labels)
        assert np.allclose(inverse(w), np.eye(d.n_terminals))
        assert (filtered / "filtered" / "C.csv").read_bytes() == (out / "C.csv").read_bytes()
        assert run(["padic", "decode", out / "C.csv", "--out", decoded]) == 0
        assert load_json(decoded / "dendrogram.json") == load_json(out / "dendrogram.json")
        assert load_json(decoded / "dendrogram.json").labels == tuple(labels)


@settings(max_examples=60, deadline=None)
@given(dendrograms(min_n=2, max_n=12), st.data())
def test_ultrametric_transform_filter_and_cluster_check_round_trip(d, data):
    m = data.draw(st.integers(1, 3), label="features")
    names = data.draw(st.lists(LABELS, min_size=m, max_size=m), label="names")  # data.csv's header
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.integers(-99, 100, size=(d.n_terminals, m))
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        save_json(d, base / "tree.json")
        with open(base / "data.csv", "w", encoding="utf-8", newline="") as fh:
            write_table(fh, names, X)
        out, filtered = base / "w", base / "f"
        assert run(["transform", base / "data.csv", base / "tree.json", "--check", "--out", out]) == 0
        keep = d.n_terminals - 1
        assert run(["filter", out, "--rule", "keep-k", "--value", keep, "--out", filtered]) == 0
        w, features = cli.load_bundle(filtered / "filtered")
        assert features == [name.strip() for name in names]  # header names are read stripped
        assert np.allclose(inverse(w), X, rtol=0, atol=1e-8)
        assert run(["cluster", base / "data.csv", "--out", base / "c"]) == 0
        assert run(["check", base / "c" / "cophenetic.csv"]) == 0
