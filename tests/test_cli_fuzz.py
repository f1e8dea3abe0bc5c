"""Fuzz every CSV and JSON input of the CLI: one mutated file, then `cli.main`.

Each example copies valid inputs and mutates one file: a CSV gets one cell
replaced by a drawn token or a byte that is not UTF-8 inserted; a JSON
document gets one value replaced, one key dropped, itself wrapped in a
list, or its text truncated.  Then it runs a command that reads the file.
Whatever the input, no exception may escape, the exit code is 0, 1 or 2,
no RuntimeWarning is raised, and an exit-2 message starts with ``error:``
and names the file.
"""

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrowave.cli import main, save_bundle
from dendrowave.demo import walkthrough_tree
from dendrowave.haar import forward_weighted
from dendrowave.tree import save_json
from dendrowave.ultrametric import cophenetic, matrix_to_csv

# (file to mutate, argv with {d} for the input directory and {o} for the output one)
TARGETS = {
    "cluster-data": ("data.csv", ["cluster", "{d}/data.csv", "--out", "{o}"]),
    "transform-data": ("data.csv", ["transform", "{d}/data.csv", "{d}/tree.json", "--out", "{o}"]),
    "filter-C": ("bundle/C.csv", ["filter", "{d}/bundle", "--value", "2", "--out", "{o}"]),
    "filter-D": ("bundle/D.csv", ["filter", "{d}/bundle", "--value", "2", "--out", "{o}"]),
    "filter-smooth": ("bundle/smooth.csv", ["filter", "{d}/bundle", "--value", "2", "--out", "{o}"]),
    "decode-C": ("indicator/C.csv", ["padic", "decode", "{d}/indicator/C.csv", "--out", "{o}"]),
    "check-matrix": ("matrix.csv", ["check", "{d}/matrix.csv"]),
}

TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "", "1.0", "300", "1,0"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"), max_size=6),
)
NOT_UTF8 = st.sampled_from([b"\x80", b"\xc0", b"\xfe", b"\xff"])

FILTER = ["filter", "{d}/{b}", "--value", "2", "--out", "{o}"]
# (JSON file to mutate, with {b} for its bundle, and the commands that read it)
JSON_TARGETS = {
    "tree": ("tree.json", [
        ["transform", "{d}/data.csv", "{d}/tree.json", "--out", "{o}"],
        ["check", "{d}/tree.json"],
        ["padic", "encode", "{d}/tree.json"],
        ["padic", "dilate", "{d}/tree.json", "--all"],
    ]),
    **{f"{b}-{name}": (f"{b}/{name}.json", [FILTER])
       for b in ("bundle", "indicator", "weighted") for name in ("dendrogram", "meta")},
}

JSON_VALUES = st.recursive(
    st.one_of(
        st.sampled_from([None, True, False, 1e308, -1e308, float("nan"), 10**30, 0, -1, 2]),
        st.text(max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _assert_exits_cleanly(argv: list[str], path: Path) -> None:
    """``argv`` raises no RuntimeWarning and exits 0, 1 or 2, an exit 2 naming ``path``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and path.name in err, err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A data CSV, its tree, an ultrametric bundle, an indicator bundle and a matrix."""
    base = tmp_path_factory.mktemp("inputs")
    tree = walkthrough_tree()
    save_json(tree, base / "tree.json")
    X = np.random.default_rng(96).normal(size=(tree.n_terminals, 2))
    rows = ["f1,f2"] + [",".join(format(v, ".12g") for v in row) for row in X]
    (base / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (base / "matrix.csv").write_text(matrix_to_csv(cophenetic(tree), tree.labels), encoding="utf-8")
    for out, argv in (
        ("bundle", ["transform", str(base / "data.csv"), str(base / "tree.json")]),
        ("indicator", ["transform", "-", str(base / "tree.json"), "--mode", "indicator"]),
    ):
        assert _run([*argv, "--out", str(base / out)])[0] == 0
    save_bundle(forward_weighted(X, tree), ["f1", "f2"], base / "weighted")  # meta.json lists child_sizes
    return base


def _places(doc, at=()):
    """The path of keys and indices to every value in a JSON document, the document's own first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, (*at, key))


def _mutated_json(raw: bytes, data) -> bytes:
    """One value replaced, one key dropped, the document wrapped in a list, or its text truncated."""
    doc = json.loads(raw)
    edit = data.draw(st.sampled_from(["replace", "drop", "wrap", "truncate"]), label="edit")
    if edit == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    if edit == "wrap":
        return json.dumps([doc]).encode("utf-8")
    keyed = edit == "drop"  # a key of an object, else any value but the document itself
    places = [at for at in _places(doc) if at and (isinstance(at[-1], str) or not keyed)]
    at = data.draw(st.sampled_from(places), label="place")
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if edit == "drop":
        del parent[at[-1]]
    else:
        parent[at[-1]] = data.draw(JSON_VALUES, label="value")
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TARGETS)), st.data())
def test_mutated_csv_inputs_exit_cleanly(inputs, target, data):
    name, argv = TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "in"
        shutil.copytree(inputs, work)
        path = work / name
        raw = path.read_bytes()
        if data.draw(st.booleans(), label="insert a non-UTF-8 byte"):
            at = data.draw(st.integers(0, len(raw)), label="offset")
            raw = raw[:at] + data.draw(NOT_UTF8) + raw[at:]
        else:
            lines = raw.decode("utf-8").split("\n")
            row = data.draw(st.integers(0, len(lines) - 2), label="row")
            cells = lines[row].split(",")
            cells[data.draw(st.integers(0, len(cells) - 1), label="column")] = data.draw(TOKENS)
            lines[row] = ",".join(cells)
            raw = "\n".join(lines).encode("utf-8")
        path.write_bytes(raw)
        _assert_exits_cleanly([a.format(d=work, o=Path(tmp) / "out") for a in argv], path)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(JSON_TARGETS)), st.data())
def test_mutated_json_inputs_exit_cleanly(inputs, target, data):
    name, commands = JSON_TARGETS[target]
    argv = data.draw(st.sampled_from(commands), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "in"
        shutil.copytree(inputs, work)
        path = work / name
        path.write_bytes(_mutated_json(path.read_bytes(), data))
        bundle = name.split("/")[0]
        _assert_exits_cleanly([a.format(d=work, b=bundle, o=Path(tmp) / "out") for a in argv], path)
