"""Differential tests: the Haar transform in waves of equal-height clusters
against the per-rank loops it replaced (kept in oracles.py).

Each wave merges every cluster of one height in one numpy step, with the
same per-element arithmetic as the rank loop, so details, smooths, child
sizes and reconstructions must be bit-identical, not merely close.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_trees
from strategies import dendrograms

import dendrowave.tree
from dendrowave.haar import (
    _checked_data,
    _plain_merge,
    _weighted_merge,
    forward,
    forward_indicator,
    forward_weighted,
    hard_threshold,
    inverse,
    inverse_weighted,
)
from dendrowave.padic import decode, encode
from dendrowave.pway import random_pway_tree, unfold
from dendrowave.tree import (
    ValidationError,
    branch_signs,
    build_from_merges,
    cluster,
    random_dendrogram,
    terminal,
)


def chain(n: int, cluster_first: bool):
    """A caterpillar whose every merge puts the growing cluster first or second."""
    merges, left = [], terminal(1)
    for k in range(1, n):
        pair = (left, terminal(k + 1))
        merges.append(pair if cluster_first else pair[::-1])
        left = cluster(k)
    return build_from_merges(merges)


def balanced(levels: int):
    """The complete binary tree on 2**levels terminals, merged level by level."""
    nodes, merges = [terminal(i) for i in range(1, 2**levels + 1)], []
    while len(nodes) > 1:
        nxt = []
        for a, b in zip(nodes[::2], nodes[1::2]):
            merges.append((a, b))
            nxt.append(cluster(len(merges)))
        nodes = nxt
    return build_from_merges(merges)


def sample_trees():
    rng = np.random.default_rng(91)
    yield random_dendrogram(1, rng)
    yield random_dendrogram(2, rng)
    yield from random_trees(30, 80, seed=92)
    yield random_dendrogram(600, rng)
    for n in (2, 3, 17, 130):
        yield chain(n, cluster_first=True)
        yield chain(n, cluster_first=False)
        yield oracles.caterpillar(n, rng)
    for levels in (1, 2, 5, 8):
        yield balanced(levels)
    for arity in (3, 5):
        for internal in (1, 4, 60):
            yield unfold(random_pway_tree(internal, arity, rng))


def heights(d):
    """Each cluster's longest path down to a terminal, by rank - 1, from the merges."""
    height = {}
    for k, (a, b) in enumerate(d.merges, start=1):
        height[k] = 1 + max(0 if c.is_terminal else height[c.index] for c in (a, b))
    return np.array([height[k] for k in range(1, d.n_terminals)], dtype=np.int64)


def assert_same_as_rank_loop(X, d, orient=True):
    tree = d.canonical if orient else d
    data = _checked_data(X, tree)
    for transform, merge in ((forward, _plain_merge), (forward_weighted, _weighted_merge)):
        w = transform(X, d, orient=orient)
        details, final, sizes = oracles.ascend_ranks(data, tree, merge)
        assert np.array_equal(w.details, details)
        assert np.array_equal(w.smooth, final)
        if transform is forward_weighted:
            assert w.child_sizes.dtype == sizes.dtype
            assert np.array_equal(w.child_sizes, sizes)
        assert_inverse_same(w)
        for rule, value in (("keep-k", d.n_clusters // 3), ("absolute", 0.4), ("cluster-norm", 1)):
            assert_inverse_same(hard_threshold(w, rule, value))


def assert_inverse_same(w):
    got = inverse(w)
    assert np.array_equal(got, oracles.inverse_ranks(w))
    # the rows themselves, not a view into the (2n - 1)-row working buffer
    assert got.base is None and got.flags.owndata
    assert got.shape == (w.n_terminals, w.n_features)


def test_waves_match_the_rank_loops_bit_for_bit():
    rng = np.random.default_rng(93)
    for d in sample_trees():
        X = rng.normal(size=(d.n_terminals, 3)) * 10.0 ** rng.integers(-3, 4)
        assert_same_as_rank_loop(X, d)
        assert_same_as_rank_loop(X, d, orient=False)
        assert_same_as_rank_loop(X[:, 0], d)  # 1-D data is one feature


def test_indicator_transform_matches_the_rank_loop():
    for d in sample_trees():
        if d.n_terminals > 200:
            continue
        for orient in (True, False):
            w = forward_indicator(d, orient=orient)
            tree = d.canonical if orient else d
            details, final, _ = oracles.ascend_ranks(np.eye(d.n_terminals), tree, _plain_merge)
            assert np.array_equal(w.details, details) and np.array_equal(w.smooth, final)
            assert_inverse_same(w)


@settings(max_examples=150, deadline=None)
@given(dendrograms(min_n=1, max_n=24), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_waves_match_the_rank_loops_on_hypothesis_trees(d, m, seed):
    X = np.random.default_rng(seed).normal(size=(d.n_terminals, m))
    assert_same_as_rank_loop(X, d)
    assert_same_as_rank_loop(X, d, orient=False)


def test_every_wave_sits_above_its_children():
    for d in sample_trees():
        n, waves = d.n_terminals, d._waves
        # slots in (height, rank) order
        assert np.array_equal(waves.order, np.lexsort((np.arange(n - 1), heights(d))))
        height = np.append(np.zeros(n, dtype=np.int64), heights(d)[waves.order])  # by row
        assert np.array_equal(waves.order[waves.slot], np.arange(n - 1))
        size = np.append(np.ones(n), d.layout.size[waves.order])  # by row
        filled = []
        for a, b, na, nb, slots in waves.steps:
            rows = np.atleast_1d(n + np.arange(n - 1)[slots])
            filled.extend(rows.tolist())
            level = np.unique(height[rows])
            assert level.size == 1  # one height per wave, a contiguous run of slots
            for kids, sizes in ((a, na), (b, nb)):
                assert (height[np.atleast_1d(kids)] < level).all()
                assert np.array_equal(np.ravel(sizes), size[np.atleast_1d(kids)])
            assert np.array_equal(size[rows], size[np.atleast_1d(a)] + size[np.atleast_1d(b)])
        assert filled == list(range(n, 2 * n - 1))  # the waves fill the slots in order


def test_wave_counts_are_the_tree_height():
    for n in (2, 3, 50, 257):
        for cluster_first in (True, False):
            assert len(chain(n, cluster_first)._waves.steps) == n - 1
    for levels in range(1, 9):
        assert len(balanced(levels)._waves.steps) == levels
    assert random_dendrogram(1, 1)._waves.steps == ()


def test_single_cluster_waves_hold_python_scalars():
    steps = chain(6, cluster_first=False)._waves.steps
    for step in steps:
        assert [type(v) for v in step] == [int, int, float, float, int]
    wide = balanced(3)._waves.steps[0]
    assert isinstance(wide[4], slice) and wide[2].shape == (4, 1)


def test_branch_signs_are_cached_read_only_and_shared():
    d = random_dendrogram(40, 95)
    signs = branch_signs(d)
    assert signs is branch_signs(d)
    assert not signs.flags.writeable
    with pytest.raises(ValueError):
        signs[0, 0] = 0
    assert np.array_equal(signs, oracles.branch_signs(d))
    X = np.random.default_rng(96).normal(size=(40, 2))
    canon = d.canonical
    w, ww = forward(X, d), forward_weighted(X, d)
    _, C = encode(d)
    assert w.branch_codes is ww.branch_codes is C is branch_signs(canon)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_dendrogram(50, 103),
        lambda: chain(40, cluster_first=False),
        lambda: oracles.caterpillar(40, np.random.default_rng(104)),
        lambda: random_dendrogram(1, 105),
        lambda: random_dendrogram(2, 106),
    ],
    ids=["random", "chain", "caterpillar", "one-terminal", "two-terminals"],
)
def test_the_transforms_build_no_branch_codes(make):
    d = make()
    X = np.random.default_rng(107).normal(size=(d.n_terminals, 3))
    w, ww = forward(X, d), forward_weighted(X, d)
    forward_indicator(d)
    inverse(w)
    inverse_weighted(ww)
    for rule, value in (("absolute", 0.5), ("keep-k", 0), ("cluster-norm", 1.0)):
        inverse(hard_threshold(w, rule, value))
    assert "_signs" not in vars(d) and "_signs" not in vars(d.canonical)
    assert "branch_codes" not in vars(w) and "branch_codes" not in vars(ww)
    C = w.branch_codes  # C is built on its first read, from the tree
    assert C is ww.branch_codes is branch_signs(w.tree)
    assert not C.flags.writeable
    assert np.array_equal(C, oracles.branch_signs(w.tree))


def test_the_transform_pass_holds_no_n_by_n_matrix():
    n = 4096
    d = random_dendrogram(n, 108)
    X = np.random.default_rng(109).normal(size=(n, 4))
    d.canonical._waves  # the layout and the waves are built once per tree, outside the pass
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        w = forward(X, d)
        inverse(w)
        inverse(forward_weighted(X, d))
        hard_threshold(w, "keep-k", 10)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < n * n / 4, f"{peak} bytes at the peak, C would hold {n * n}"


def test_decode_leaves_no_signs_on_the_tree_it_returns():
    d = random_dendrogram(30, 97)
    _, C = encode(d)
    back = decode(C.copy(), labels=d.labels)
    assert "_signs" not in vars(back)
    assert back.merges == d.canonical.merges


def at_mean_depth(c: int):
    """A tree whose cluster sizes sum to exactly c per terminal (c >= 2).

    It is a caterpillar on k terminals, whose sizes sum to (k - 1)(k + 2) / 2,
    with a cherry in place of some of its side leaves.  A cherry for the leaf
    at depth i adds a terminal and i + 2 to the sum, so the cherries must make
    up c * k minus the caterpillar's sum out of the values i + 2 - c = 1, 2,
    ..., k + 1 - c, which a greedy pick from the largest does.
    """
    for k in itertools.count(c):
        rest, top = c * k - (k - 1) * (k + 2) // 2, k + 1 - c
        if 0 <= rest <= top * (top + 1) // 2:
            break
    cherries = set()
    for v in range(top, 0, -1):
        if v <= rest:
            cherries.add(v + c - 2)
            rest -= v
    leaves = iter(range(1, k + len(cherries) + 1))
    merges, below = [], terminal(next(leaves))
    for depth in range(k - 1, 0, -1):  # the side leaf merged at each step, bottom up
        side = terminal(next(leaves))
        if depth in cherries:
            merges.append((side, terminal(next(leaves))))
            side = cluster(len(merges))
        merges.append((below, side))
        below = cluster(len(merges))
    return build_from_merges(merges)


def signs_built_with(d, depth: int):
    """``d``'s branch signs, built afresh with `_SCATTER_DEPTH` set to ``depth``."""
    vars(d).pop("_signs", None)
    with mock.patch.object(dendrowave.tree, "_SCATTER_DEPTH", depth):
        signs = branch_signs(d)
    assert signs.dtype == np.int8 and signs.flags.c_contiguous and not signs.flags.writeable
    return signs


# 0 runs the sum down the rows on every tree with a cluster, 10**9 the scatter on every tree
PATHS = [0, dendrowave.tree._SCATTER_DEPTH, 10**9]


@pytest.mark.parametrize("depth", PATHS)
def test_both_sign_builds_match_the_set_oracle(depth):
    for d in sample_trees():
        assert np.array_equal(signs_built_with(d, depth), oracles.branch_signs(d))


@settings(max_examples=100, deadline=None)
@given(dendrograms(min_n=1, max_n=30), st.sampled_from(PATHS))
def test_both_sign_builds_match_on_hypothesis_trees(d, depth):
    assert np.array_equal(signs_built_with(d, depth), oracles.branch_signs(d))


def test_the_same_tree_gives_the_same_signs_down_both_builds():
    rng = np.random.default_rng(102)
    for d in (random_dendrogram(300, rng), oracles.caterpillar(120, rng), balanced(6)):
        summed, scattered = signs_built_with(d, 0), signs_built_with(d, 10**9)
        assert np.array_equal(summed, scattered)
        assert np.array_equal(summed, oracles.branch_signs(d))


def test_a_tree_at_the_depth_cutoff_is_scattered_and_one_above_is_summed():
    c = dendrowave.tree._SCATTER_DEPTH
    d = at_mean_depth(c)
    assert d.layout.size.sum() == c * d.n_terminals
    real = dendrowave.tree._scattered_signs
    for depth, scattered in ((c, True), (c - 1, False)):
        with mock.patch.object(dendrowave.tree, "_scattered_signs", wraps=real) as spy:
            signs = signs_built_with(d, depth)
        assert spy.called == scattered
        assert np.array_equal(signs, oracles.branch_signs(d))
    for c in (2, 3, 17, 64):
        d = at_mean_depth(c)
        assert d.layout.size.sum() == c * d.n_terminals


def keep_k_oracle(details, k):
    """The rows keep-k keeps, picked with the sort it used before `np.lexsort`."""
    norms = np.linalg.norm(details, axis=1)
    return sorted(sorted(range(len(norms)), key=lambda i: (-norms[i], i))[:k])


def test_keep_k_keeps_the_same_rows_as_the_sort_with_ties_to_lower_rank():
    rng = np.random.default_rng(98)
    for d in random_trees(20, 40, seed=99):
        X = rng.integers(-2, 3, size=(d.n_terminals, 2)).astype(float)  # many equal norms
        w = forward(X, d)
        for k in range(d.n_clusters + 1):
            kept = hard_threshold(w, "keep-k", k)
            rows = np.flatnonzero(np.any(kept.details != 0, axis=1)).tolist()
            want = [i for i in keep_k_oracle(w.details, k) if np.any(w.details[i] != 0)]
            assert rows == want
            assert np.array_equal(kept.details[rows], w.details[rows])
            assert np.array_equal(hard_threshold(w, "keep-k", float(k)).details, kept.details)


NOT_NUMBERS = [
    pytest.param("abc", id="text"),
    pytest.param(None, id="none"),
    pytest.param(1 + 1j, id="complex"),
    pytest.param(np.complex128(2 + 0j), id="numpy-complex"),
]


@pytest.mark.parametrize(
    "value", [2.5, float("nan"), float("inf"), True, np.True_, -0.5, *NOT_NUMBERS]
)
def test_keep_k_rejects_a_value_that_is_not_an_integer(value):
    w = forward(np.arange(6.0), random_dendrogram(6, 100))
    with pytest.raises(ValidationError, match="keep-k needs an integer"):
        hard_threshold(w, "keep-k", value)


@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize("rule", ["absolute", "cluster-norm"])
def test_a_threshold_that_is_not_a_number_is_refused(rule, value):
    w = forward(np.arange(6.0), random_dendrogram(6, 100))
    with pytest.raises(ValidationError) as exc:
        hard_threshold(w, rule, value)
    assert str(exc.value) == f"threshold must be a real number, got {value!r}"


@pytest.mark.parametrize("rule, text", [("absolute", "0.5"), ("cluster-norm", "1.5"), ("keep-k", "2")])
def test_a_threshold_held_as_text_is_read_as_its_number(rule, text):
    w = forward(np.arange(12.0).reshape(6, 2) ** 2, random_dendrogram(6, 100))
    want = hard_threshold(w, rule, float(text))
    assert np.array_equal(hard_threshold(w, rule, text).details, want.details)


def test_keep_k_out_of_range_is_still_located():
    w = forward(np.arange(6.0), random_dendrogram(6, 101))
    for k in (-1, 6, np.int64(9)):
        with pytest.raises(ValidationError, match=r"keep-k needs 0 <= k <= 5"):
            hard_threshold(w, "keep-k", k)
