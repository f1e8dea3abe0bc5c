"""Differential tests: `check`'s matrix paths, built on the subdominant
ultrametric, against the row, anchor and loop scans they replaced (kept in
oracles.py), with exact equality of verdicts, witnesses and censuses."""

import warnings

import numpy as np
import pytest

import oracles
from conftest import random_trees

from dendrowave import tree, ultrametric
from dendrowave.cli import main
from dendrowave.hcluster import agglomerate, pairwise_euclidean
from dendrowave.tree import ValidationError, random_dendrogram
from dendrowave.ultrametric import (
    canonical_form,
    cophenetic,
    is_ultrametric,
    matrix_from_csv,
    matrix_to_csv,
    subdominant,
    triangle_classify,
)

TOLS = (0, 1e-9)


def tie_heavy(M: np.ndarray) -> np.ndarray:
    """An ultrametric with many equal levels: a non-decreasing map of one."""
    return np.floor(M / 3.0) if M.dtype.kind in "iu" else np.floor(2.0 * M)


def check_matrices(count: int, seed: int):
    """Ultrametrics, ties, single cells raised or lowered, near-ultrametrics."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, 28))
        d = random_dendrogram(n, rng, with_levels=True)
        ranks, levels = cophenetic(d), cophenetic(d, use="levels")
        kind = t % 6
        if kind == 0:
            yield ranks
        elif kind == 1:
            yield levels
        elif kind == 2:
            yield tie_heavy(ranks if t % 12 == 2 else levels)
        elif kind == 3:
            M = tie_heavy(ranks).astype(float) if t % 12 == 3 else levels.copy()
            if n > 2:
                i, j = rng.choice(n, 2, replace=False)
                step = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                M[i, j] = M[j, i] = max(0.0, M[i, j] + step)
            yield M
        elif kind == 4:
            # passes within 1e-9 but not exactly
            noise = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)) * 1e-11, 1)
            yield levels * (1.0 + noise + noise.T)
        else:
            yield pairwise_euclidean(rng.normal(size=(n, 2)))


def assert_same_verdict(got, want):
    assert (got.ok, got.witness, got.detail) == (want.ok, want.witness, want.detail)


def census(c):
    return (c.equilateral, c.isosceles_small_base, c.violating)


@pytest.fixture(params=[None, 37], ids=["one-block", "many-blocks"])
def blocks(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(tree, "_BLOCK_CELLS", request.param)


def test_is_ultrametric_matches_row_scan(blocks):
    verdicts = set()
    for M in check_matrices(180, seed=601):
        for tol in TOLS:
            got = is_ultrametric(M, tol)
            assert_same_verdict(got, oracles.is_ultrametric_rows(M, tol))
            verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_triangle_classify_matches_anchor_scan(blocks):
    for M in check_matrices(180, seed=602):
        for tol in TOLS + (0.05,):
            got = triangle_classify(M, tol)
            assert census(got) == census(oracles.triangle_classify_anchors(M, tol))


def test_canonical_form_matches_cell_loops(blocks):
    rng = np.random.default_rng(603)
    failing = 0
    for M in check_matrices(120, seed=604):
        n = M.shape[0]
        orders = (subdominant(M).order, rng.permutation(n), np.arange(n)[::-1])
        for order in orders:
            for tol in TOLS:
                A, got = canonical_form(M, order, tol)
                want_A, want = oracles.canonical_form_loops(M, order, tol)
                assert np.array_equal(A, want_A)
                assert_same_verdict(got, want)
                failing += not got.ok
    assert failing > 100


def test_ultrametrics_are_counted_from_the_tree(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the O(n^3) census ran on an ultrametric")

    monkeypatch.setattr(ultrametric, "_anchor_census", no_scan)
    for d in random_trees(40, 30, seed=605, with_levels=True):
        for M in (cophenetic(d), cophenetic(d, use="levels"), tie_heavy(cophenetic(d, "levels"))):
            for tol in TOLS + (0.05, 0.5):
                want = oracles.triangle_classify_anchors(M, tol)
                assert census(triangle_classify(M, tol)) == census(want)


def test_subdominant_lies_below_and_equals_only_ultrametrics():
    for M in check_matrices(90, seed=607):
        n = M.shape[0]
        sub = subdominant(M)
        U = sub.matrix()
        assert np.all(U <= M)
        assert np.array_equal(U, M) == (census(oracles.triangle_classify_anchors(M, 0))[2] == 0)
        assert is_ultrametric(U, tol=0).ok
        assert np.all(np.diff(sub.levels) >= 0)
        assert sorted(sub.order.tolist()) == list(range(n))


def test_subdominant_matches_scipy_single_linkage():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    distance = pytest.importorskip("scipy.spatial.distance")
    sparse = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(608)
    for t in range(60):
        n = int(rng.integers(2, 40))
        if t % 2:
            M = pairwise_euclidean(rng.normal(size=(n, 3)))
        else:
            M = np.triu(rng.integers(1, 5, size=(n, n)), 1).astype(float)
            M += M.T
        condensed = distance.squareform(M, checks=False)
        U = distance.squareform(hierarchy.cophenet(hierarchy.linkage(condensed, "single")))
        sub = subdominant(M)
        assert np.array_equal(sub.matrix(), U)
        # off-diagonal entries are positive, so the sparse MST sees every edge
        mst = sparse.minimum_spanning_tree(M)
        assert np.array_equal(np.sort(mst.data), sub.levels)


def test_small_matrices_and_bad_tolerances():
    for n in (1, 2):
        M = np.zeros((n, n)) + (1.0 - np.eye(n))
        assert is_ultrametric(M).ok
        assert census(triangle_classify(M)) == (0, 0, 0)
        assert canonical_form(M, list(range(n)))[1].ok
        assert subdominant(M).order.tolist() == list(range(n))
    with pytest.raises(ValidationError, match="at least one point"):
        subdominant(np.zeros((0, 0)))
    M = cophenetic(next(random_trees(1, 6, seed=609)))
    for check in (is_ultrametric, triangle_classify):
        with pytest.raises(ValidationError, match="tol"):
            check(M, -1e-9)
    with pytest.raises(ValidationError, match="tol"):
        canonical_form(M, list(range(M.shape[0])), float("nan"))


def oracle_check(labels, M) -> tuple[int, str]:
    """`check` on a matrix as it ran on the scans and the single-linkage order."""
    fmt = lambda v: format(float(v), ".12g")  # noqa: E731
    lines, failures = [], 0
    verdict = oracles.is_ultrametric_rows(M)
    if verdict:
        lines.append("ultrametric: PASS")
    else:
        failures += 1
        x, y, z = verdict.witness
        lines += [
            "ultrametric: FAIL",
            f"  witness: ({labels[x]},{labels[y]},{labels[z]}) with "
            f"d({labels[x]},{labels[z]}) = {fmt(M[x, z])} > max({fmt(M[x, y])}, {fmt(M[y, z])})",
        ]
    c = oracles.triangle_classify_anchors(M)
    lines.append(
        f"triangles: equilateral={c.equilateral} "
        f"isosceles-small-base={c.isosceles_small_base} violating={c.violating}"
    )
    if verdict:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            order = [i - 1 for i in agglomerate(M, "single").leaf_order()]
        canon = oracles.canonical_form_loops(M, order)[1]
        lines.append(f"canonical layout under single-linkage order: {'PASS' if canon else 'FAIL'}")
        failures += not canon
    return int(failures > 0), "\n".join(lines) + "\n"


def test_check_prints_what_the_scans_print(tmp_path, capsys):
    path = tmp_path / "m.csv"
    codes = set()
    for M in check_matrices(60, seed=610):
        n = M.shape[0]
        if n < 2:
            continue
        labels = [f"p{i}" for i in range(n)]
        path.write_text(matrix_to_csv(M, labels), encoding="utf-8")
        labels, read = matrix_from_csv(path.read_text(encoding="utf-8"))
        code, text = oracle_check(labels, read)
        assert main(["check", str(path)]) == code
        assert capsys.readouterr().out == text
        codes.add(code)
    assert codes == {0, 1}


def test_check_passes_a_one_point_matrix(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("a\n0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "canonical layout under single-linkage order: PASS"
    )
