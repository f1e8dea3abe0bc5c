"""Fuzz every CSV input of the CLI: one mutated cell or byte, then `cli.main`.

Each example copies valid inputs, replaces one cell with a drawn token or
inserts a byte that is not UTF-8, and runs the command that reads the
file.  Whatever the input, no exception may escape, the exit code is 0, 1
or 2, no RuntimeWarning is raised, and an exit-2 message starts with
``error:`` and names the file.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrowave.cli import main
from dendrowave.demo import walkthrough_tree
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


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


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
    return base


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TARGETS)), st.data())
def test_mutated_csv_inputs_exit_cleanly(inputs, target, data):
    name, argv = TARGETS[target]
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch) / "in"
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = _run([a.format(d=work, o=Path(scratch) / "out") for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and path.name in err, err
