import numpy as np
import pytest

import oracles

from dendrowave.hcluster import (
    LINKAGES,
    _euclidean,
    agglomerate,
    merge_levels,
    pairwise_euclidean,
    validate_dissimilarity,
)
from dendrowave.tree import ValidationError, cluster, terminal
from dendrowave.ultrametric import cophenetic, is_ultrametric


def test_pairwise_euclidean_line():
    M = pairwise_euclidean([0.0, 3.0, 4.0])
    assert np.allclose(M, [[0, 3, 4], [3, 0, 1], [4, 1, 0]])
    assert np.array_equal(M, M.T)


def test_pairwise_euclidean_matches_double_loop():
    rng = np.random.default_rng(61)
    X = rng.normal(size=(12, 4))
    M = pairwise_euclidean(X)
    for i in range(12):
        for j in range(12):
            want = float(np.sqrt(((X[i] - X[j]) ** 2).sum()))
            assert abs(M[i, j] - want) <= 1e-12


@pytest.mark.parametrize("m", range(1, 10))
def test_euclidean_cells_have_the_bits_of_one_reduce_over_the_features(monkeypatch, m):
    """Below 8 features the squares are summed a column at a time, from 8 by one 3-d reduce."""
    monkeypatch.setattr("dendrowave.tree._BLOCK_CELLS", 256)  # many row blocks
    rng = np.random.default_rng(m)
    for n in rng.integers(2, 60, size=4).tolist():
        X = rng.normal(size=(n, m)) * rng.exponential(size=(n, m)) * 10.0 ** rng.integers(-3, 4)
        want = oracles.pairwise_euclidean(X)
        assert np.array_equal(_euclidean(X), want)
        assert np.array_equal(_euclidean(X, condensed=True), want[np.triu_indices(n, 1)])


def test_single_linkage_three_points():
    d = agglomerate(pairwise_euclidean([0.0, 3.0, 4.0]), "single")
    assert d.merges[0] == (terminal(2), terminal(3))
    assert d.merges[1] == (terminal(1), cluster(1))
    assert d.levels == (1.0, 3.0)


def test_average_linkage_three_points():
    d = agglomerate(pairwise_euclidean([0.0, 3.0, 4.0]), "average")
    assert d.merges[0] == (terminal(2), terminal(3))
    assert d.levels == (1.0, 3.5)


def test_complete_linkage_three_points():
    d = agglomerate(pairwise_euclidean([0.0, 3.0, 4.0]), "complete")
    assert d.levels == (1.0, 4.0)


def test_single_vs_complete_four_points():
    M = pairwise_euclidean([0.0, 1.0, 3.0, 7.0])
    lo = agglomerate(M, "single")
    hi = agglomerate(M, "complete")
    assert lo.merges == hi.merges
    assert lo.levels == (1.0, 2.0, 4.0)
    assert hi.levels == (1.0, 3.0, 7.0)
    assert lo.merges[0] == (terminal(1), terminal(2))
    assert lo.merges[1] == (cluster(1), terminal(3))
    assert lo.merges[2] == (cluster(2), terminal(4))


def test_two_points():
    d = agglomerate(np.array([[0.0, 5.0], [5.0, 0.0]]), "ward")
    assert d.n_terminals == 2
    assert d.levels == (5.0,)


def test_children_stored_smallest_member_first():
    rng = np.random.default_rng(62)
    for _ in range(20):
        X = rng.normal(size=(int(rng.integers(3, 12)), 3))
        d = agglomerate(pairwise_euclidean(X), "average")
        for k in range(1, d.n_clusters + 1):
            a, b = d.children(k)
            assert min(d.term_set(a)) < min(d.term_set(b))


def test_every_linkage_yields_ultrametric_ranks():
    import warnings

    rng = np.random.default_rng(63)
    X = rng.normal(size=(10, 2))
    M = pairwise_euclidean(X)
    for name in LINKAGES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            d = agglomerate(M, name)
        verdict = is_ultrametric(cophenetic(d, use="ranks"), tol=0)
        assert verdict.ok, name


def test_ward_levels_give_ultrametric_cophenetic():
    rng = np.random.default_rng(64)
    X = rng.normal(size=(14, 3))
    d = agglomerate(pairwise_euclidean(X) ** 2, "ward")
    assert d.levels is not None
    assert is_ultrametric(cophenetic(d, use="levels")).ok


def test_centroid_inversion_drops_levels():
    # a tight near-equilateral triangle: the new centroid lands closer to
    # the third point than the first pair was to each other
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.75]])
    M = pairwise_euclidean(X)
    with pytest.warns(UserWarning, match="levels dropped"):
        d = agglomerate(M, "centroid")
    assert d.levels is None
    assert d.merges[0] == (terminal(1), terminal(2))
    raw = merge_levels(M, "centroid")
    assert len(raw) == 2 and raw[1] < raw[0]


def test_tie_break_is_lexicographic():
    M = np.full((4, 4), 5.0)
    np.fill_diagonal(M, 0.0)
    M[0, 1] = M[1, 0] = 1.0
    M[2, 3] = M[3, 2] = 1.0
    with pytest.warns(UserWarning, match="levels dropped"):
        d = agglomerate(M, "single")
    assert d.merges[0] == (terminal(1), terminal(2))
    assert d.merges[1] == (terminal(3), terminal(4))
    assert d.merges[2] == (cluster(1), cluster(2))


def test_permutation_invariance_of_cophenetic_levels():
    rng = np.random.default_rng(65)
    X = rng.normal(size=(9, 3))
    M = pairwise_euclidean(X)
    perm = rng.permutation(9)
    d = agglomerate(M, "average")
    dp = agglomerate(M[np.ix_(perm, perm)], "average")
    U = cophenetic(d, use="levels")
    Up = cophenetic(dp, use="levels")
    assert np.allclose(Up, U[np.ix_(perm, perm)], atol=1e-9)


def test_merge_levels_matches_agglomerate():
    rng = np.random.default_rng(66)
    X = rng.normal(size=(8, 2))
    M = pairwise_euclidean(X)
    d = agglomerate(M, "complete")
    assert d.levels == tuple(merge_levels(M, "complete"))


def test_labels_pass_through():
    d = agglomerate(
        pairwise_euclidean([0.0, 3.0, 4.0]), "single", labels=("a", "b", "c")
    )
    assert d.labels == ("a", "b", "c")


def test_validation_rejections():
    with pytest.raises(ValidationError, match="symmetric"):
        validate_dissimilarity([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError, match="zero diagonal"):
        validate_dissimilarity([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValidationError, match="nonnegative"):
        validate_dissimilarity([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError, match="square"):
        validate_dissimilarity([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        validate_dissimilarity([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValidationError, match="unknown linkage"):
        agglomerate(np.zeros((2, 2)), "nearest")
    with pytest.raises(ValidationError, match="n >= 2"):
        agglomerate(np.zeros((1, 1)), "single")
