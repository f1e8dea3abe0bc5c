"""Differential tests: the codec paths that work by node id against the code
they replaced (kept in oracles.py).

`decode` builds one candidate tree and checks the matrix against its
branch signs in row blocks, `to_json` writes the schema directly, `inverse` descends into rows
indexed by node id and every CSV table is written by `write_table`, which
formats each distinct value once.  Trees, messages, text and bytes must be
identical; floats must be bit-identical.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import random_trees
from strategies import dendrograms

from dendrowave import tree, ultrametric
from dendrowave.cli import load_bundle, main, save_bundle
from dendrowave.haar import forward, forward_indicator, forward_weighted, hard_threshold, inverse
from dendrowave.padic import PAdicCode, _candidate, decode, encode
from dendrowave.tree import (
    ValidationError,
    build_from_merges,
    load_json,
    random_dendrogram,
    terminal,
    to_json,
)
from dendrowave.ultrametric import cophenetic, matrix_to_csv

ODD_LABELS = ['say "hi"', "a,b", "back\\slash", "café", "雪", "tab\there", "x", "new\nline"]
FEATURES = ["plain", "a,b", 'q"uote', " spaced "]


def sample_trees(with_levels=False):
    rng = np.random.default_rng(7)
    yield random_dendrogram(1, rng, with_levels=with_levels)
    yield from random_trees(25, 30, seed=71, with_levels=with_levels)
    for n in (2, 3, 9, 40):
        yield oracles.caterpillar(n, rng, with_levels=with_levels)


def same_outcome(mat, labels=None):
    """`decode` and `decode_columns` give the same tree or the same message."""
    try:
        want = oracles.decode_columns(mat, labels=labels)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            decode(mat, labels=labels)
        assert str(got.value) == str(exc)
        return False
    got = decode(mat, labels=labels)
    assert (got.merges, got.labels) == (want.merges, want.labels)
    return True


def mutations(C: np.ndarray, rng: np.random.Generator):
    """Matrices one edit away from a tree's branch signs."""
    n, m = C.shape
    if m == 0:
        return
    i, k = int(rng.integers(n)), int(rng.integers(m))
    rows = np.flatnonzero(C[:, k])
    for name, edit in (
        ("flipped sign", lambda M: M.__setitem__((rows[0], k), -M[rows[0], k])),
        ("zeroed cell", lambda M: M.__setitem__((rows[-1], k), 0)),
        ("negated column", lambda M: M.__setitem__((slice(None), k), -M[:, k])),
        ("any cell", lambda M: M.__setitem__((i, k), rng.integers(-1, 2))),
        ("missing -1", lambda M: M.__setitem__((slice(None), k), np.abs(M[:, k]))),
        ("missing +1", lambda M: M.__setitem__((slice(None), k), -np.abs(M[:, k]))),
    ):
        bad = C.copy()
        edit(bad)
        yield name, bad
    if m >= 2:
        a, b = rng.choice(m, size=2, replace=False)
        swapped = C.copy()
        swapped[:, [a, b]] = swapped[:, [b, a]]
        yield "swapped columns", swapped
        # column k marks rows of two different subtrees with the same sign
        laminar = C.copy()
        laminar[:, k] = 0
        laminar[[0, n - 1], k] = 1
        laminar[rows[0], k] = -1
        yield "non-laminar column", laminar
    for value in (-128, 127, 2, -2):
        odd = C.copy()
        odd[i, k] = value
        yield f"cell {value}", odd
    for dtype in (np.int64, float, bool, object, complex):
        yield f"{dtype.__name__} matrix", C.astype(dtype)
        yield f"{dtype.__name__} matrix with a cell -2", odd.astype(dtype)
    yield "uint8 view", C.view(np.uint8)
    for name, (a, b) in (("adjacent", (min(i, n - 2), min(i, n - 2) + 1)), ("far", (0, n - 1))):
        swapped = C.copy()
        swapped[[a, b]] = swapped[[b, a]]
        yield f"{name} rows swapped", swapped
    yield "shuffled rows", C[rng.permutation(n)]


def test_decode_matches_the_column_check_on_trees_and_mutations():
    rng = np.random.default_rng(72)
    accepted = rejected = 0
    for d in sample_trees():
        codes, C = encode(d)
        assert same_outcome(C, labels=d.labels)
        assert same_outcome(codes, labels=d.labels)
        for _, bad in mutations(C, rng):
            if same_outcome(bad):
                accepted += 1
            else:
                rejected += 1
    assert accepted > 30 and rejected > 100


@settings(max_examples=60, deadline=None)
@given(dendrograms(min_n=1, max_n=16))
def test_decode_matches_the_column_check_on_hypothesis_trees(d):
    codes, C = encode(d)
    assert same_outcome(C, labels=d.labels)
    assert same_outcome(codes)
    for _, bad in mutations(C, np.random.default_rng(d.n_terminals)):
        same_outcome(bad)


def test_decode_across_many_row_blocks(monkeypatch):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", 5)
    rng = np.random.default_rng(75)
    for d in sample_trees():
        codes, C = encode(d)
        assert same_outcome(C, labels=d.labels)
        for _, bad in mutations(C, rng):
            same_outcome(bad)


@pytest.mark.parametrize("shape", ["random", "caterpillar"])
def test_decode_of_600_terminals_at_the_real_block_size(shape):
    rng = np.random.default_rng(76)
    d = random_dendrogram(600, rng) if shape == "random" else oracles.caterpillar(600, rng)
    _, C = encode(d)
    assert len(tree._row_blocks(600, 599)) > 1
    assert same_outcome(C, labels=d.labels)
    for _, bad in mutations(C, rng):
        same_outcome(bad)


@pytest.mark.parametrize("block_cells", [5, tree._BLOCK_CELLS])
def test_candidate_matches_the_union_find_candidate(monkeypatch, block_cells):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(77)
    for d in sample_trees():
        _, C = encode(d)
        got = _candidate(C, d.labels)
        assert got == oracles.decode_candidate(C, d.labels) and tree._has_signs(got, C)
        for _, bad in mutations(C, rng):
            if bad.dtype == np.int8:
                got = _candidate(bad, None)
                accepted = got is not None and tree._has_signs(got, bad)
                assert (got if accepted else None) == oracles.decode_candidate(bad)


def test_decode_of_one_terminal():
    for mat in (np.zeros((1, 0), dtype=np.int8), np.zeros((1, 0))):
        assert same_outcome(mat, labels=["solo"])
    assert decode([PAdicCode(())]).labels == ("x1",)


def test_decode_names_a_wrong_label_count():
    _, C = encode(random_dendrogram(2, 1))
    with pytest.raises(ValidationError, match="^5 labels given for 2 terminals$"):
        decode(C, labels=list("abcde"))
    # a bad column is still named first
    with pytest.raises(ValidationError, match="column cluster_1: both signs"):
        decode(np.abs(C), labels=list("abcde"))
    # other label errors are unchanged
    assert not same_outcome(C, labels=["a", "a"])


def test_decode_needs_a_code():
    with pytest.raises(ValidationError, match="^need at least one code$"):
        decode([])


def test_to_json_writes_what_json_dumps_writes():
    labelled = build_from_merges(
        random_dendrogram(len(ODD_LABELS), 3).merges, labels=ODD_LABELS
    )
    trees = [*sample_trees(), *sample_trees(with_levels=True), labelled]
    levels = range(1, len(ODD_LABELS))
    trees.append(build_from_merges(labelled.merges, levels=levels, labels=ODD_LABELS))
    for d in trees:
        for indent in (None, 0, 2, 4):
            assert to_json(d, indent) == oracles.to_json_dumps(d, indent)


def test_inverse_is_bit_identical_to_the_dict_descent():
    rng = np.random.default_rng(73)
    for d in sample_trees():
        X = rng.normal(size=(d.n_terminals, 3)) * 10.0 ** rng.integers(-3, 4)
        for w in (forward(X, d), forward_weighted(X, d), forward(X, d, orient=False)):
            assert np.array_equal(inverse(w), oracles.inverse_dict(w))
            for rule, value in (("keep-k", d.n_clusters // 2), ("absolute", 0.5)):
                kept = hard_threshold(w, rule, value)
                assert np.array_equal(inverse(kept), oracles.inverse_dict(kept))


def test_branch_csv_bytes_match_the_cell_writer(tmp_path):
    labelled = build_from_merges(
        random_dendrogram(len(ODD_LABELS), 4).merges, labels=ODD_LABELS
    )
    for d in [*sample_trees(), labelled]:
        w = forward(np.ones((d.n_terminals, 1)), d)
        save_bundle(w, ["f"], tmp_path / "fast")
        oracles.write_branch_csv_cells(tmp_path / "cells.csv", w)
        assert (tmp_path / "fast" / "C.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def assert_same_bytes(got, want):
    assert got.read_bytes() == want.read_bytes(), got.name


@pytest.mark.parametrize("block_cells", [37, tree._BLOCK_CELLS])
def test_bundle_tables_match_the_cell_writers(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(78)
    labelled = build_from_merges(
        random_dendrogram(len(ODD_LABELS), 5).merges, labels=ODD_LABELS
    )
    empty_labels = [
        build_from_merges([], labels=[""]),
        build_from_merges([(terminal(2), terminal(1))], labels=["", 'q"']),
    ]
    negative_zeros = 0
    for d in [*sample_trees(), labelled, *empty_labels]:
        X = rng.normal(size=(d.n_terminals, len(FEATURES))) * 10.0 ** rng.integers(-6, 7)
        X[:, 0] = -0.0  # a column of -0.0 keeps a smooth of -0.0
        for w, features in (
            (forward(X, d), FEATURES),
            (hard_threshold(forward(X.round(), d), "keep-k", d.n_clusters // 2), FEATURES),
            (forward_indicator(d), list(d.labels)),
        ):
            save_bundle(w, features, tmp_path / "fast")
            oracles.write_branch_csv_cells(tmp_path / "C.csv", w)
            oracles.write_detail_csv_cells(tmp_path / "D.csv", w, features)
            oracles.write_smooth_csv_cells(tmp_path / "smooth.csv", w, features)
            for name in ("C.csv", "D.csv", "smooth.csv"):
                assert_same_bytes(tmp_path / "fast" / name, tmp_path / name)
            negative_zeros += (tmp_path / "smooth.csv").read_text(encoding="utf-8").count("\n-0,")
    assert negative_zeros >= 2 * len(empty_labels)


@pytest.mark.filterwarnings("ignore:single produced merge levels:UserWarning")
@pytest.mark.parametrize("block_cells", [37, tree._BLOCK_CELLS])
def test_cli_tables_match_the_cell_writers(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(79)
    data, out = tmp_path / "data.csv", tmp_path / "out"
    uses = set()
    for n, linkage in ((2, "average"), (9, "single"), (16, "single"), (30, "ward")):
        if linkage == "single":  # integer data: tied merge levels leave the ranks
            rows = [[str(v) for v in row] for row in rng.integers(-2, 3, size=(n, 4)).tolist()]
        else:
            X = rng.normal(size=(n, 4))
            X[0, 0] = -0.0
            rows = [[repr(v) for v in row] for row in X.tolist()]
        oracles.write_csv_cells(data, [FEATURES] + rows)
        assert main(["cluster", str(data), "--linkage", linkage, "--out", str(out)]) == 0
        d = load_json(out / "dendrogram.json")
        use = "levels" if d.levels is not None else "ranks"
        uses.add(use)
        want = oracles.matrix_to_csv_cells(cophenetic(d, use=use), d.labels)
        assert (out / "cophenetic.csv").read_bytes() == want.encode("utf-8")

        bundle = out / "bundle"
        assert main(["transform", str(data), str(out / "dendrogram.json"), "--out", str(bundle)]) == 0
        args = ["filter", str(bundle), "--rule", "keep-k", "--value", "1", "--out", str(out)]
        assert main(args) == 0
        w, features = load_bundle(bundle)
        rec = inverse(hard_threshold(w, "keep-k", 1))
        oracles.write_reconstruction_csv_cells(tmp_path / "rec.csv", rec, features)
        assert_same_bytes(out / "reconstruction.csv", tmp_path / "rec.csv")
    assert uses == {"levels", "ranks"}


def test_check_validates_once_and_builds_one_spanning_tree(tmp_path, capsys):
    d = random_dendrogram(12, 74, with_levels=True)
    labels = [f"p{i}" for i in range(12)]
    path = tmp_path / "m.csv"
    counted = {
        name: mock.patch.object(ultrametric, name, wraps=getattr(ultrametric, name))
        for name in ("_checked_matrix", "_subdominant")
    }
    path.write_text(matrix_to_csv(cophenetic(d, use="levels"), labels), encoding="utf-8")
    with counted["_checked_matrix"] as checked, counted["_subdominant"] as built:
        assert main(["check", str(path)]) == 0
    assert "ultrametric: PASS" in capsys.readouterr().out
    assert (checked.call_count, built.call_count) == (1, 1)

    # a violation in row 0 fails without the spanning tree
    M = cophenetic(d, use="levels")
    M[0, 1] = M[1, 0] = M.max() * 2
    path.write_text(matrix_to_csv(M, labels), encoding="utf-8")
    with counted["_checked_matrix"] as checked, counted["_subdominant"] as built:
        assert main(["check", str(path)]) == 1
    assert "ultrametric: FAIL" in capsys.readouterr().out
    assert (checked.call_count, built.call_count) == (1, 0)
