"""Differential tests: the numpy clustering and ultrametric paths against the
pair and triple scans they replaced (kept in oracles.py), with exact equality."""

import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import random_trees
from strategies import dissimilarities

from dendrowave import hcluster, tree
from dendrowave.hcluster import (
    LINKAGES,
    _agglomerate_core,
    _euclidean,
    agglomerate,
    merge_levels,
    pairwise_euclidean,
)
from dendrowave.tables import _write_cophenetic
from dendrowave.tree import ValidationError, _node_ref, cluster, terminal
from dendrowave.ultrametric import (
    cophenetic,
    is_ultrametric,
    matrix_to_csv,
    triangle_classify,
)


def sample_matrices(count: int, seed: int):
    """Euclidean, squared Euclidean, tie-heavy integer and grid Manhattan matrices."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 32))
        kind = t % 4
        if kind < 2:
            M = pairwise_euclidean(rng.normal(size=(n, 3)))
            yield M**2 if kind else M
        elif kind == 2:
            M = np.triu(rng.integers(0, 4, size=(n, n)), 1).astype(float)
            yield M + M.T
        else:
            G = rng.integers(0, 3, size=(n, 2))
            yield np.abs(G[:, None] - G[None]).sum(axis=-1).astype(float)


def condensed(M):
    """The pairs i < j of M in scipy's `pdist` order: a fresh vector the core may overwrite."""
    return M[np.triu_indices(len(M), 1)]


def bits(levels):
    return np.array(levels, dtype=float).view(np.int64)


def assert_core_matches_oracle(M):
    """The condensed core against the square core and the pair scan, levels bit for bit."""
    for name in LINKAGES:
        kids, levels = _agglomerate_core(condensed(M), len(M), name)
        square_kids, square_levels = oracles.agglomerate_square(M, name)
        assert kids == square_kids, name
        assert np.array_equal(bits(levels), bits(square_levels)), name
        merges = [(_node_ref(a, len(M)), _node_ref(b, len(M))) for a, b in kids]
        want_merges, want_levels = oracles.agglomerate_core(M, name)
        assert merges == want_merges, name
        assert np.array_equal(bits(levels), bits(want_levels)), name


def test_agglomerate_matches_pair_scan():
    for M in sample_matrices(120, seed=301):
        assert_core_matches_oracle(M)


@settings(max_examples=60, deadline=None)
@given(dissimilarities())
def test_agglomerate_matches_pair_scan_hypothesis(M):
    assert_core_matches_oracle(M)


def test_tie_made_by_an_update_goes_to_the_lower_slot():
    # merging {2, 4} at 1 turns d(1, {2, 4}) into 0.5 * 2.5 + 0.5 * 2 - 0.25 * 1
    # = 2, tying d(1, 3) = 2; the pair (1, {2, 4}) is lexicographically first
    M = np.array(
        [
            [0.0, 2.5, 2.0, 2.0],
            [2.5, 0.0, 5.0, 1.0],
            [2.0, 5.0, 0.0, 5.0],
            [2.0, 1.0, 5.0, 0.0],
        ]
    )
    kids, levels = _agglomerate_core(condensed(M), 4, "median_wpgmc")
    assert tuple(_node_ref(i, 4) for i in kids[1]) == (terminal(1), cluster(1))
    assert levels[:2] == [1.0, 2.0]
    assert_core_matches_oracle(M)


def test_agglomerate_reads_only_the_upper_triangle():
    # validate_dissimilarity accepts tiny asymmetry; both cores read i < j
    rng = np.random.default_rng(302)
    M = pairwise_euclidean(rng.normal(size=(12, 2)))
    M[np.tril_indices(12, -1)] *= 1 + 1e-12
    assert_core_matches_oracle(M)


def test_merge_levels_match_scipy():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    # scipy updates ward, centroid and median on unsquared Euclidean
    # distances, which equals our recurrence on squared ones
    methods = {
        "single": "single",
        "complete": "complete",
        "average": "average",
        "ward": "ward",
        "centroid": "centroid",
        "median_wpgmc": "median",
    }
    rng = np.random.default_rng(303)
    for _ in range(60):
        n = int(rng.integers(3, 30))
        M = pairwise_euclidean(rng.normal(size=(n, 3)))
        for name, method in methods.items():
            want = hierarchy.linkage(squareform(M, checks=False), method=method)[:, 2]
            if name in ("ward", "centroid", "median_wpgmc"):
                got = np.sqrt(merge_levels(M**2, name))
            else:
                got = np.array(merge_levels(M, name))
            assert np.allclose(np.sort(got), np.sort(want), rtol=1e-9, atol=1e-12), name


def test_pairwise_euclidean_blocks_match_one_shot(monkeypatch):
    rng = np.random.default_rng(304)
    X = rng.normal(size=(600, 8))
    assert len(tree._row_blocks(600, X.size)) >= 3  # rows of n * m differences each
    assert np.array_equal(pairwise_euclidean(X), oracles.pairwise_euclidean(X))
    monkeypatch.setattr(tree, "_BLOCK_CELLS", 50)
    for n, m in ((1, 3), (9, 1), (23, 5), (17, 200)):
        X = rng.normal(size=(n, m)) * 10.0
        assert np.array_equal(pairwise_euclidean(X), oracles.pairwise_euclidean(X))
    line = [0.0, 3.0, 4.0]
    assert np.array_equal(pairwise_euclidean(line), oracles.pairwise_euclidean(line))


def census(c):
    return (c.equilateral, c.isosceles_small_base, c.violating)


def test_triangle_census_matches_triple_loop():
    for M in sample_matrices(80, seed=306):
        for tol in (0, 1e-9, 0.05):
            assert census(triangle_classify(M, tol)) == census(oracles.triangle_classify(M, tol))
    for d in random_trees(20, 14, seed=307):
        M = cophenetic(d)
        assert census(triangle_classify(M, 0)) == census(oracles.triangle_classify(M, 0))


@settings(max_examples=60, deadline=None)
@given(dissimilarities(min_n=1))
def test_triangle_census_matches_triple_loop_hypothesis(M):
    assert census(triangle_classify(M)) == census(oracles.triangle_classify(M))


def broken_ultrametrics(seed: int):
    rng = np.random.default_rng(seed)
    for d in random_trees(40, 16, seed=seed):
        M = cophenetic(d)
        if d.n_terminals > 2:
            i, j = rng.choice(d.n_terminals, 2, replace=False)
            M[i, j] = M[j, i] = M[i, j] + int(rng.integers(1, 3))
        yield M


def test_is_ultrametric_verdict_matches_oracle():
    failing = 0
    matrices = list(broken_ultrametrics(308)) + list(sample_matrices(40, seed=309))
    for M in matrices:
        for tol in (0, 1e-9):
            got, want = is_ultrametric(M, tol), oracles.is_ultrametric(M, tol)
            assert (got.ok, got.witness, got.detail) == (want.ok, want.witness, want.detail)
            failing += not got.ok
    assert failing > len(matrices)  # most verdicts carry a witness to compare


@settings(max_examples=60, deadline=None)
@given(dissimilarities(min_n=1))
def test_is_ultrametric_verdict_matches_oracle_hypothesis(M):
    got, want = is_ultrametric(M), oracles.is_ultrametric(M)
    assert (got.ok, got.witness, got.detail) == (want.ok, want.witness, want.detail)


def test_tie_heavy_linkages_raise_no_runtime_warning():
    M = np.full((9, 9), 2.0)
    np.fill_diagonal(M, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)
        assert_core_matches_oracle(M)
        for name in LINKAGES:
            hcluster.agglomerate(M, name)


def test_matrix_csv_matches_the_cell_writer():
    rng = np.random.default_rng(310)
    for n in (0, 1, 2, 9, 40):
        labels = [f"x{i}" for i in range(n)]
        if n > 2:
            labels[1], labels[2] = 'a,"b"', " spaced "
        ints = rng.integers(-3, 1000, size=(n, n))
        floats = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-12, 12, size=(n, n))
        signed_zeros = np.zeros((n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
        for M in (ints, ints.astype(np.uint16), floats, floats.astype(np.float32), signed_zeros):
            assert matrix_to_csv(M, labels) == oracles.matrix_to_csv_cells(M, labels)
    for d in random_trees(20, 30, seed=311, with_levels=True):
        for M in (cophenetic(d), cophenetic(d, use="levels")):
            assert matrix_to_csv(M, d.labels) == oracles.matrix_to_csv_cells(M, d.labels)


def test_condensed_core_matches_the_square_core_on_larger_matrices():
    rng = np.random.default_rng(312)
    for n in (120, 257):
        M = pairwise_euclidean(rng.normal(size=(n, 4)))
        ties = np.triu(rng.integers(0, 5, size=(n, n)), 1).astype(float)
        for D in (M, M**2, ties + ties.T):
            for name in LINKAGES:
                kids, levels = _agglomerate_core(condensed(D), len(D), name)
                square_kids, square_levels = oracles.agglomerate_square(D, name)
                assert kids == square_kids, name
                assert np.array_equal(bits(levels), bits(square_levels)), name


@pytest.mark.parametrize("block_cells", [37, tree._BLOCK_CELLS])
def test_condensed_euclidean_is_the_upper_triangle(monkeypatch, block_cells):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(313)
    cases = [rng.normal(size=(n, m)) for n, m in ((2, 1), (3, 5), (40, 3), (61, 8))]
    cases += [np.ldexp(rng.normal(size=(30, 4)), k) for k in (400, 600, 1000)]
    cases.append(np.array([[2e200], [0.0], [5e199], [-1e308], [1e308]]))  # one distance overflows
    for X in cases:
        V = _euclidean(X, condensed=True)
        assert V.shape == (len(X) * (len(X) - 1) // 2,)
        assert np.array_equal(V, condensed(pairwise_euclidean(X)), equal_nan=True)


def test_agglomerate_leaves_its_input_unchanged():
    for M in sample_matrices(24, seed=314):
        M[np.tril_indices(len(M), -1)] *= 1 + 1e-12  # only the upper triangle is read
        before = M.copy()
        for name in LINKAGES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                agglomerate(M, name)
            merge_levels(M, name)
            assert np.array_equal(M, before), name


def test_clustering_input_builds_no_square_index():
    n = 2000
    M = pairwise_euclidean(np.random.default_rng(315).normal(size=(n, 3)))
    tracemalloc.start()
    try:
        V, _ = hcluster._clustering_input(M, "average")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(V, condensed(M))
    # np.triu_indices alone would hold two int64 indices per pair, twice the vector
    assert peak < 1.5 * V.nbytes


def test_a_wrong_label_count_is_refused_before_clustering():
    M = pairwise_euclidean([0.0, 1.0, 3.0, 7.0, 15.0])
    with mock.patch.object(hcluster, "_agglomerate_core") as core:
        with pytest.raises(ValidationError) as err:
            agglomerate(M, "average", labels=["a", "b"])
    assert str(err.value) == "2 labels for a 5-row matrix"
    assert core.call_count == 0
    assert agglomerate(M, "average", labels="abcde").labels == tuple("abcde")


@pytest.mark.parametrize("block_cells", [37, tree._BLOCK_CELLS])
def test_cophenetic_writer_matches_the_matrix_writer(monkeypatch, block_cells):
    monkeypatch.setattr(tree, "_BLOCK_CELLS", block_cells)
    trees = list(random_trees(30, 40, seed=316, with_levels=True))
    trees.append(oracles.caterpillar(25, np.random.default_rng(317), with_levels=True))
    trees.append(tree.build_from_merges([], labels=['a,"b"']))
    pair = [(terminal(2), terminal(1))]
    trees.append(tree.build_from_merges(pair, labels=[" x", "y,"], levels=[0.0]))
    for d in trees:
        for use in ("ranks", "levels"):
            buf = io.StringIO()
            _write_cophenetic(buf, d, use)
            assert buf.getvalue() == matrix_to_csv(cophenetic(d, use), d.labels), use
