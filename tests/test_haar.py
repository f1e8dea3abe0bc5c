from dataclasses import fields

import numpy as np
import pytest

from conftest import random_trees

from dendrowave.haar import (
    MODE_INDICATOR,
    MODE_ULTRAMETRIC,
    WaveletDecomposition,
    detail_norms,
    forward,
    forward_indicator,
    forward_weighted,
    hard_threshold,
    inverse,
    inverse_weighted,
    reconstruct_matrix_form,
)
from dendrowave.tree import (
    ValidationError,
    apply_swap,
    branch_signs,
    build_from_merges,
    canonical_orient,
    cluster,
    random_dendrogram,
    terminal,
)


def smooth_oracle(d, X, node):
    """Recursive pairwise-averaging profile of a node (independent of forward)."""
    if node.is_terminal:
        return X[node.index - 1].astype(float)
    a, b = d.children(node.index)
    return (smooth_oracle(d, X, a) + smooth_oracle(d, X, b)) / 2.0


def test_two_terminal_values():
    d = build_from_merges([(terminal(1), terminal(2))])
    X = np.array([[3.0], [1.0]])
    w = forward(X, d)
    assert w.smooth[0] == 2.0
    assert w.details[0, 0] == 1.0
    assert np.array_equal(w.branch_codes, np.array([[1], [-1]], dtype=np.int8))
    assert np.array_equal(inverse(w), X)


def test_demo_indicator_matches_branch_signs(demo8):
    w = forward_indicator(demo8)
    assert w.mode == MODE_INDICATOR
    assert np.array_equal(w.branch_codes, branch_signs(demo8))
    # pairwise averaging leaves each terminal with weight 2^-depth
    depths = (4, 4, 3, 4, 4, 3, 2, 2)
    assert np.array_equal(w.smooth, np.array([0.5**k for k in depths]))
    assert w.smooth.sum() == 1.0
    # detail rows of the identity carry equal mass on both sides
    row_sums = w.details.sum(axis=1)
    assert np.max(np.abs(row_sums)) <= 1e-12
    assert np.array_equal(inverse(w), np.eye(8))


def test_indicator_row_sums_stay_zero_for_larger_trees():
    rng = np.random.default_rng(31)
    for n in (2, 3, 17, 64, 128):
        d = random_dendrogram(n, rng)
        w = forward_indicator(d)
        assert np.max(np.abs(w.details.sum(axis=1))) <= 1e-12


def test_forward_matches_recursive_oracle():
    rng = np.random.default_rng(32)
    for d in random_trees(25, 12, seed=33):
        X = rng.normal(size=(d.n_terminals, 3))
        c = canonical_orient(d)
        w = forward(X, d)
        assert np.allclose(w.smooth, smooth_oracle(c, X, c.root), atol=1e-12)
        for k in range(1, c.n_clusters + 1):
            a, b = c.children(k)
            want = (smooth_oracle(c, X, a) - smooth_oracle(c, X, b)) / 2.0
            assert np.allclose(w.details[k - 1], want, atol=1e-12)


def test_roundtrip_random():
    rng = np.random.default_rng(34)
    for d in random_trees(100, 32, seed=35):
        X = rng.normal(size=(d.n_terminals, int(rng.integers(1, 5))))
        w = forward(X, d)
        assert np.max(np.abs(inverse(w) - X)) < 1e-9


def test_vector_input_becomes_column():
    d = build_from_merges([(terminal(1), terminal(2))])
    w = forward([3.0, 1.0], d)
    assert w.details.shape == (1, 1)


def test_matrix_identity_two_ways():
    rng = np.random.default_rng(36)
    for d in random_trees(25, 16, seed=37):
        X = rng.normal(size=(d.n_terminals, 2))
        w = forward(X, d)
        direct = w.branch_codes.astype(float) @ w.details + np.tile(
            w.smooth, (d.n_terminals, 1)
        )
        assert np.max(np.abs(direct - X)) <= 1e-12
        assert np.max(np.abs(reconstruct_matrix_form(w) - X)) <= 1e-12
        assert np.max(np.abs(inverse(w) - reconstruct_matrix_form(w))) <= 1e-12


def test_masks_collapse_to_identical_output():
    d = random_dendrogram(5, np.random.default_rng(38))
    X = np.random.default_rng(39).normal(size=(5, 3))
    base = forward(X, d)
    for bits in range(2**4):
        mask = tuple(bool(bits >> j & 1) for j in range(4))
        w = forward(X, apply_swap(d, mask))
        assert np.array_equal(w.branch_codes, base.branch_codes)
        assert np.array_equal(w.details, base.details)
        assert np.array_equal(w.smooth, base.smooth)


def test_swap_without_canonicalization_flips_signs():
    d = canonical_orient(random_dendrogram(6, np.random.default_rng(40)))
    X = np.random.default_rng(41).normal(size=(6, 2))
    base = forward(X, d, orient=False)
    flipped = forward(X, apply_swap(d, (True, False, False, False, False)), orient=False)
    assert np.array_equal(flipped.details[0], -base.details[0])
    assert np.array_equal(flipped.branch_codes[:, 0], -base.branch_codes[:, 0])
    assert np.array_equal(flipped.details[1:], base.details[1:])
    assert np.array_equal(flipped.smooth, base.smooth)
    assert np.max(np.abs(reconstruct_matrix_form(flipped) - X)) <= 1e-12


def test_threshold_zero_is_bit_exact_identity():
    rng = np.random.default_rng(42)
    d = random_dendrogram(12, rng)
    w = forward(rng.normal(size=(12, 4)), d)
    t = hard_threshold(w, "absolute", 0.0)
    assert np.array_equal(t.details, w.details)
    assert np.array_equal(t.smooth, w.smooth)


def test_threshold_absolute_zeroes_small_entries():
    rng = np.random.default_rng(43)
    d = random_dendrogram(10, rng)
    w = forward(rng.normal(size=(10, 3)), d)
    t = hard_threshold(w, "absolute", 0.5)
    kept = np.abs(w.details) >= 0.5
    assert np.array_equal(t.details[kept], w.details[kept])
    assert np.all(t.details[~kept] == 0.0)


def test_keep_zero_reconstructs_pure_smooth():
    rng = np.random.default_rng(44)
    d = random_dendrogram(9, rng)
    X = rng.normal(size=(9, 2))
    w = forward(X, d)
    flat = inverse(hard_threshold(w, "keep-k", 0))
    assert np.allclose(flat, np.tile(w.smooth, (9, 1)))


def test_keep_all_is_lossless():
    rng = np.random.default_rng(45)
    d = random_dendrogram(9, rng)
    X = rng.normal(size=(9, 2))
    w = forward(X, d)
    assert np.array_equal(
        hard_threshold(w, "keep-k", 8).details, w.details
    )


def test_keep_k_sweep_ends_lossless():
    # the branch-sign columns are not orthogonal, so the error need not fall
    # at every step; it must still vanish once every row is kept
    rng = np.random.default_rng(46)
    d = random_dendrogram(14, rng)
    X = rng.normal(size=(14, 3))
    w = forward(X, d)
    errors = [
        float(np.linalg.norm(inverse(hard_threshold(w, "keep-k", k)) - X))
        for k in range(14)
    ]
    assert errors[0] == pytest.approx(
        float(np.linalg.norm(np.tile(w.smooth, (14, 1)) - X)), abs=1e-9
    )
    assert errors[-1] <= 1e-9
    assert min(errors) == errors[-1]


def test_keep_k_keeps_largest_rows():
    rng = np.random.default_rng(47)
    d = random_dendrogram(10, rng)
    w = forward(rng.normal(size=(10, 3)), d)
    norms = np.linalg.norm(w.details, axis=1)
    t = hard_threshold(w, "keep-k", 3)
    kept = {i for i in range(9) if np.any(t.details[i])}
    expected = set(sorted(range(9), key=lambda i: (-norms[i], i))[:3])
    assert kept == expected


def test_cluster_norm_rule():
    rng = np.random.default_rng(48)
    d = random_dendrogram(10, rng)
    w = forward(rng.normal(size=(10, 3)), d)
    norms = np.linalg.norm(w.details, axis=1)
    cut = float(np.median(norms))
    t = hard_threshold(w, "cluster-norm", cut)
    for i in range(9):
        if norms[i] >= cut:
            assert np.array_equal(t.details[i], w.details[i])
        else:
            assert np.all(t.details[i] == 0.0)


def test_threshold_rejections():
    rng = np.random.default_rng(49)
    d = random_dendrogram(5, rng)
    w = forward(rng.normal(size=(5, 2)), d)
    with pytest.raises(ValidationError):
        hard_threshold(w, "soft", 1.0)
    with pytest.raises(ValidationError):
        hard_threshold(w, "absolute", -1.0)
    with pytest.raises(ValidationError):
        hard_threshold(w, "keep-k", 7)


@pytest.mark.parametrize("rule", ["absolute", "cluster-norm"])
def test_threshold_rejects_nan(rule):
    rng = np.random.default_rng(50)
    w = forward(rng.normal(size=(5, 2)), random_dendrogram(5, rng))
    with pytest.raises(ValidationError, match="threshold must be >= 0, got nan"):
        hard_threshold(w, rule, float("nan"))


def test_detail_norms_ordering():
    rng = np.random.default_rng(50)
    d = random_dendrogram(8, rng)
    w = forward(rng.normal(size=(8, 3)), d)
    norms = detail_norms(w)
    assert norms.shape == (7,)
    assert np.allclose(norms, np.linalg.norm(w.details, axis=1))


def test_weighted_two_terminals_matches_sizes():
    d = build_from_merges([(terminal(1), terminal(2))])
    X = np.array([[3.0], [1.0]])
    w = forward_weighted(X, d)
    assert w.is_weighted
    assert np.array_equal(w.child_sizes, np.array([[1, 1]]))
    assert w.smooth[0] == 2.0
    assert np.array_equal(inverse(w), X)


def test_weighted_smooth_is_the_plain_mean():
    rng = np.random.default_rng(51)
    for d in random_trees(25, 14, seed=52):
        X = rng.normal(size=(d.n_terminals, 3))
        w = forward_weighted(X, d)
        assert np.allclose(w.smooth, X.mean(axis=0), atol=1e-12)


def test_weighted_three_chain_details():
    d = build_from_merges(
        [(terminal(1), terminal(2)), (cluster(1), terminal(3))]
    )
    X = np.array([[6.0], [2.0], [1.0]])
    w = forward_weighted(X, d)
    s1 = (6.0 + 2.0) / 2.0
    root = (2 * s1 + 1.0) / 3.0
    assert w.details[0, 0] == pytest.approx((6.0 - s1), abs=1e-12)
    assert w.details[1, 0] == pytest.approx(s1 - root, abs=1e-12)
    assert w.smooth[0] == pytest.approx(root, abs=1e-12)


def test_weighted_roundtrip_random():
    rng = np.random.default_rng(53)
    for d in random_trees(60, 24, seed=54):
        X = rng.normal(size=(d.n_terminals, int(rng.integers(1, 4))))
        w = forward_weighted(X, d)
        assert np.max(np.abs(inverse(w) - X)) < 1e-9
        assert np.max(np.abs(inverse_weighted(w) - X)) < 1e-9


def test_weighted_rejects_matrix_form():
    rng = np.random.default_rng(55)
    d = random_dendrogram(6, rng)
    w = forward_weighted(rng.normal(size=(6, 2)), d)
    with pytest.raises(ValidationError):
        reconstruct_matrix_form(w)


def test_weighted_decomposition_reads_its_child_sizes_from_the_tree():
    rng = np.random.default_rng(57)
    for d in random_trees(20, 30, seed=58):
        X = rng.normal(size=(d.n_terminals, 2))
        w = forward_weighted(X, d)
        assert [f.name for f in fields(w)] == ["tree", "details", "smooth", "mode", "is_weighted"]
        assert "child_sizes" not in vars(w) and w.child_sizes.shape == (d.n_clusters, 2)
        assert np.array_equal(w.child_sizes.sum(axis=1), w.tree.layout.size)
        rewrapped = WaveletDecomposition(w.tree, w.details, w.smooth, w.mode, True)
        assert np.array_equal(inverse(rewrapped), inverse(w))
        assert forward(X, d).child_sizes is None


def test_inverse_weighted_needs_sizes():
    rng = np.random.default_rng(56)
    d = random_dendrogram(6, rng)
    w = forward(rng.normal(size=(6, 2)), d)
    with pytest.raises(ValidationError):
        inverse_weighted(w)


def test_forward_shape_errors():
    d = build_from_merges([(terminal(1), terminal(2))])
    with pytest.raises(ValidationError):
        forward(np.zeros((3, 2)), d)
    with pytest.raises(ValidationError):
        forward(np.zeros((2, 2, 2)), d)
    with pytest.raises(ValidationError):
        forward(np.zeros((2, 2)), d, mode="fancy")


def test_decomposition_validation(demo8):
    C = branch_signs(demo8)
    with pytest.raises(ValidationError):
        WaveletDecomposition(demo8, np.zeros((6, 2)), np.zeros(2), MODE_ULTRAMETRIC)
    w = WaveletDecomposition(demo8, np.zeros((7, 2)), np.zeros(2), MODE_ULTRAMETRIC)
    assert w.order == (1, 2, 3, 4, 5, 6, 7)
    assert w.n_features == 2 and w.n_terminals == 8
    assert w.branch_codes is C and "branch_codes" not in vars(w)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "change, message",
    [
        ({"tree": "demo.json"}, r"tree must be a Dendrogram, got str"),
        ({"details": np.full((7, 2), "x")}, r"details must be an array of real numbers"),
        ({"details": np.full((7, 2), np.nan)}, r"details contains non-finite entries"),
        ({"smooth": [0.0, np.inf]}, r"smooth contains non-finite entries"),
        ({"details": np.zeros((7, 1)), "smooth": np.zeros((1, 1))},
         r"smooth must be 1-d, got shape \(1, 1\)"),
        ({"details": [[0.0, 0.0]] * 6}, r"details must be \(n-1\) x m"),
        ({"is_weighted": 1}, r"is_weighted must be a bool, got 1"),
        ({"is_weighted": "yes"}, r"is_weighted must be a bool, got 'yes'"),
    ],
    ids=["tree-text", "details-text", "details-nan", "smooth-inf", "smooth-2d",
         "details-list-short", "weighted-int", "weighted-text"],
)
def test_decomposition_arguments_are_refused(demo8, change, message):
    args = dict(tree=demo8, details=np.zeros((7, 2)), smooth=np.zeros(2), mode=MODE_ULTRAMETRIC)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        WaveletDecomposition(**{**args, **change})


def test_decomposition_reads_lists_and_numbers_held_as_text(demo8):
    w = forward_weighted(np.random.default_rng(5).normal(size=(8, 2)), demo8)
    listed = WaveletDecomposition(w.tree, w.details.tolist(), [str(v) for v in w.smooth],
                                  w.mode, is_weighted=True)
    assert listed.child_sizes.dtype == w.child_sizes.dtype
    assert listed.details.dtype == listed.smooth.dtype == np.float64
    assert np.array_equal(inverse_weighted(listed), inverse_weighted(w))
