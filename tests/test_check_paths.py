"""Differential tests: `check`'s matrix paths, built on the subdominant
ultrametric, against the row, anchor and loop scans they replaced (kept in
oracles.py), with exact equality of verdicts, witnesses and censuses."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import feed, random_trees

from dendrowave import cli, tree, ultrametric
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


CENSUS_TOLS = (0, 1e-9, 0.05, 0.5)


def census_matrices():
    """Data, integer, Hamming and `check_matrices` families, duplicates and near ties."""
    rng = np.random.default_rng(613)
    yield from check_matrices(48, seed=614)
    for t in range(36):
        n = int(rng.integers(3, 31))
        kind = t % 6
        if kind == 0:
            yield pairwise_euclidean(rng.normal(size=(n, 5)))
        elif kind == 1:
            M = np.triu(rng.integers(0, 6, size=(n, n)), 1)
            yield M + M.T
        elif kind == 2:
            bits = rng.integers(0, 2, size=(n, 8))
            yield (bits[:, None] != bits).sum(axis=-1)
        elif kind == 3:  # duplicate points: zero cells off the diagonal
            X = rng.normal(size=(n, 2))
            yield pairwise_euclidean(X[rng.integers(0, max(2, n // 2), size=n)])
        elif kind == 4:  # cells a rounding step or a tolerance apart
            M = np.triu(1.0 + rng.integers(0, 3, size=(n, n)) * rng.choice([1e-16, 1e-10, 0.04]), 1)
            yield M + M.T
        else:
            yield np.zeros((n, n))


@pytest.fixture(scope="module")
def census_cases():
    """Every census matrix at every tolerance, with its census by the anchor oracle."""
    cases = [(M, tol, census(oracles.triangle_classify_anchors(M, tol)))
             for M in census_matrices() for tol in CENSUS_TOLS]
    for M, tol, want in cases:
        if M.shape[0] <= 30:
            assert census(oracles.triangle_classify(M, tol)) == want
    return cases


@pytest.mark.parametrize("window_pairs", [0.0, 1e12], ids=["anchor-fallback", "windows"])
def test_census_matches_the_oracles(census_cases, blocks, window_pairs, monkeypatch):
    monkeypatch.setattr(ultrametric, "_WINDOW_PAIRS", window_pairs)
    anchors = []
    anchor_census = ultrametric._anchor_census
    monkeypatch.setattr(ultrametric, "_anchor_census", lambda *a: anchors.append(1) or anchor_census(*a))
    for M, tol, want in census_cases:
        assert census(triangle_classify(M, tol)) == want
    assert bool(anchors) == (window_pairs == 0.0)


def test_the_anchor_loop_never_runs_on_data(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the O(n^3) anchor loop ran on data")

    rng = np.random.default_rng(615)
    for n in (3, 10, 40, 90):
        M = pairwise_euclidean(rng.normal(size=(n, 5)))
        wants = {tol: census(oracles.triangle_classify_anchors(M, tol)) for tol in TOLS}
        with monkeypatch.context() as patch:
            patch.setattr(ultrametric, "_anchor_census", no_scan)
            for tol in TOLS:
                assert census(triangle_classify(M, tol)) == wants[tol]


def test_tie_heavy_matrices_fall_back_to_the_anchor_loop(monkeypatch):
    calls = []
    anchor_census = ultrametric._anchor_census
    monkeypatch.setattr(ultrametric, "_anchor_census", lambda *a: calls.append(1) or anchor_census(*a))
    d = random_dendrogram(60, np.random.default_rng(616))
    ranks = cophenetic(d).astype(float)
    constant = 1.0 - np.eye(60)
    for M in (ranks, constant):
        M[3, 7] = M[7, 3] = M[3, 7] + 1.0
        assert census(triangle_classify(M)) == census(oracles.triangle_classify_anchors(M))
    assert len(calls) == 2


def test_the_census_of_data_builds_no_square_temporary():
    M = pairwise_euclidean(np.random.default_rng(617).normal(size=(2000, 5)))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        c = triangle_classify(M)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert c.violating > 0.99 * c.total
    assert peak < M.nbytes / 4, f"{peak} bytes at the peak, the matrix has {M.nbytes}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-9, "0.1", None],
                         ids=["inf", "nan", "negative", "text", "none"])
def test_tolerances_that_are_not_finite_nonnegative_numbers_are_refused(tol):
    # three duplicate points, so an infinite tol meets 0 * inf
    M = np.array([[0, 0, 0, 2], [0, 0, 0, 2], [0, 0, 0, 2], [2, 2, 2, 0.0]])
    for check in (is_ultrametric, triangle_classify, lambda M, tol: canonical_form(M, range(4), tol)):
        with pytest.raises(ValidationError, match="tol must be a finite nonnegative number"):
            check(M, tol)


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


def test_check_builds_no_permuted_copy(tmp_path, capsys, monkeypatch):
    def permuted(*args, **kwargs):
        raise AssertionError("check permuted the whole matrix")

    monkeypatch.setattr(ultrametric, "canonical_form", permuted)
    monkeypatch.setattr(cli, "canonical_form", permuted, raising=False)
    path = tmp_path / "m.csv"
    codes = set()
    for M in check_matrices(30, seed=611):
        n = M.shape[0]
        if n < 2:
            continue
        path.write_text(matrix_to_csv(M, [f"p{i}" for i in range(n)]), encoding="utf-8")
        code, text = oracle_check(*matrix_from_csv(path.read_text(encoding="utf-8")))
        assert main(["check", str(path)]) == code
        assert capsys.readouterr().out == text
        codes.add(code)
    assert codes == {0, 1}


def test_is_ultrametric_builds_no_square_temporary():
    d = random_dendrogram(1000, np.random.default_rng(612), with_levels=True)
    M = cophenetic(d, use="levels")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert is_ultrametric(M).ok
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < M.nbytes, f"{peak} bytes at the peak, the matrix has {M.nbytes}"


# within 1e-9 of an ultrametric, since the verdict compares a triangle's longest
# side with the next longest times 1 + tol, yet not laid out within 1e-9 in its
# single-linkage order, since the layout compares neighbouring cells within tol
# times the larger of the two
NEAR_TIES = """a,b,c,d
0,0,0.999999999139,1.00000000018
0,0,0.999999999923,0.999999999272
0.999999999139,0.999999999923,0,1.00000000046
1.00000000018,0.999999999272,1.00000000046,0
"""


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
def test_an_ultrametric_can_fail_its_layout(tmp_path, capsys, pipe):
    if pipe and not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes")
    path = tmp_path / "near.csv"
    if pipe:
        os.mkfifo(path)
        writer = feed(path, NEAR_TIES.encode("utf-8"))
    else:
        path.write_text(NEAR_TIES, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    if pipe:
        writer.join(10)
    out = capsys.readouterr().out
    assert out == (
        "ultrametric: PASS\n"
        "triangles: equilateral=0 isosceles-small-base=4 violating=0\n"
        "canonical layout under single-linkage order: FAIL\n"
    )
    assert oracle_check(*matrix_from_csv(NEAR_TIES)) == (1, out)
