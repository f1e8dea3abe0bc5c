"""Differential tests: the layout-backed tree paths against the oracles they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_trees
from strategies import dendrograms

from dendrowave.padic import cluster_code, decode, encode
from dendrowave.pway import random_pway_tree, unfold
from dendrowave.tree import (
    ValidationError,
    branch_signs,
    canonical_orient,
    cluster,
    random_dendrogram,
    terminal,
)
from dendrowave.ultrametric import cophenetic


def all_nodes(d):
    return [terminal(i) for i in range(1, d.n_terminals + 1)] + [
        cluster(k) for k in range(1, d.n_clusters + 1)
    ]


def sample_trees(with_levels=False):
    rng = np.random.default_rng(2024)
    yield random_dendrogram(1, rng, with_levels=with_levels)
    yield from random_trees(30, 24, seed=91, with_levels=with_levels)
    for n in (2, 3, 9, 40):
        yield oracles.caterpillar(n, rng, with_levels=with_levels)


def assert_matches_oracles(d):
    assert canonical_orient(d) == oracles.canonical_orient(d)
    assert np.array_equal(branch_signs(d), oracles.branch_signs(d))
    assert d.leaf_order() == oracles.leaf_order(d)
    sets = oracles.term_sets(d)
    for node in all_nodes(d):
        assert d.term_set(node) == sets[node]
        assert cluster_code(d, node) == oracles.cluster_code(d, node)
    parents = oracles.parent_rank(d)
    for i in range(1, d.n_terminals + 1):
        for j in range(i + 1, d.n_terminals + 1):
            assert d.lca(i, j) == d.lca(j, i) == oracles.lca(d, i, j, parents)
    assert np.array_equal(cophenetic(d), oracles.cophenetic(d))
    if d.levels is not None:
        got = cophenetic(d, use="levels")
        assert got.dtype == float
        assert np.array_equal(got, oracles.cophenetic(d, use="levels"))
    _, C = encode(d)
    assert decode(C, labels=d.labels) == oracles.decode(C, labels=d.labels)


def test_layout_matches_oracles_on_random_and_caterpillar_trees():
    for d in sample_trees(with_levels=True):
        assert_matches_oracles(d)


@settings(max_examples=60, deadline=None)
@given(dendrograms(min_n=1, max_n=14, levels=True))
def test_layout_matches_oracles_on_generated_trees(d):
    assert_matches_oracles(d)


@pytest.mark.parametrize("use", ["ranks", "levels"])
def test_cophenetic_holds_only_its_result(use):
    d = random_dendrogram(1000, np.random.default_rng(78), with_levels=True)
    d.layout  # built before the measurement
    tracemalloc.start()
    try:
        M = cophenetic(d, use=use)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * M.nbytes


def test_layout_arrays_describe_the_stored_order():
    for d in sample_trees():
        lay = d.layout
        n = d.n_terminals
        assert lay.order.tolist() == list(oracles.leaf_order(d))
        assert np.array_equal(lay.order[lay.pos], np.arange(1, n + 1))
        assert np.array_equal(lay.size, lay.hi - lay.lo)
        assert np.array_equal(lay.gaps[lay.mid - 1], np.arange(1, n))
        sets = oracles.term_sets(d)
        for k in range(1, n):
            assert lay.low[k - 1] == min(sets[cluster(k)])
        assert d.layout is lay  # built once per tree
        with pytest.raises(ValueError):
            lay.gaps[...] = 0


def assert_layout_is_the_oracles(d):
    want = oracles.build_layout(d.merges, d.n_terminals)
    for name, arr in want.items():
        assert np.array_equal(getattr(d.layout, name), arr), name


def test_canonical_layout_shares_sizes_and_lows_with_its_source():
    swapped = 0
    for d in sample_trees(with_levels=True):
        c = canonical_orient(d)
        assert_layout_is_the_oracles(c)
        if c is not d:
            swapped += 1
            assert c.layout.size is d.layout.size and c.layout.low is d.layout.low
            assert c.layout.height is d.layout.height
    assert swapped > 20


HEIGHT_TREES = {
    "random": lambda n, rng: random_dendrogram(n, rng),
    "caterpillar": lambda n, rng: oracles.caterpillar(n, rng),
    "unfolded": lambda n, rng: unfold(random_pway_tree(max(1, n // 3), int(rng.integers(3, 6)), rng)),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(HEIGHT_TREES)), st.integers(1, 60), st.integers(0, 2**32 - 1))
@example("random", 1, 0)  # one terminal: no clusters, no heights
@example("caterpillar", 1, 0)
def test_layout_heights_are_the_longest_paths_down(kind, n, seed):
    d = HEIGHT_TREES[kind](n, np.random.default_rng(seed))
    height = d.layout.height
    assert height.dtype == np.int64 and not height.flags.writeable
    assert np.array_equal(height, oracles.cluster_heights(d.merges))
    c = d.canonical
    assert np.array_equal(c.layout.height, oracles.cluster_heights(c.merges))
    if c is not d:  # a child swap changes no height, so the canonical layout shares the array
        assert c.layout.height is height



@settings(max_examples=60, deadline=None)
@given(dendrograms(min_n=1, max_n=14))
def test_canonical_layout_matches_the_oracle_on_generated_trees(d):
    assert_layout_is_the_oracles(canonical_orient(d))


def test_canonical_tree_is_returned_unchanged():
    for d in random_trees(10, 16, seed=92):
        c = canonical_orient(d)
        assert canonical_orient(c) is c


def malformed_matrices(rng):
    """Valid branch-code matrices with one local defect, plus random ones."""
    for d in random_trees(40, 10, seed=93):
        _, C = encode(d)
        n, m = C.shape
        if m == 0:
            continue
        i, k = int(rng.integers(n)), int(rng.integers(m))
        for v in (-1, 0, 1):
            if v != C[i, k]:
                bad = C.copy()
                bad[i, k] = v
                yield bad
        if m >= 2:
            yield C[:, rng.permutation(m)]
        yield C[rng.permutation(n)]
        yield rng.integers(-1, 2, size=(n, m)).astype(np.int8)


def test_decode_rejects_what_the_oracle_rejects():
    rng = np.random.default_rng(94)
    rejected = 0
    for mat in malformed_matrices(rng):
        try:
            want = oracles.decode(mat)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                decode(mat)
            assert str(got.value) == str(exc)
            rejected += 1
        else:
            assert decode(mat) == want
    assert rejected > 100


def test_cophenetic_levels_match_scipy():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    distance = pytest.importorskip("scipy.spatial.distance")
    for d in sample_trees(with_levels=True):
        n = d.n_terminals
        if n < 2:
            continue

        def node_id(ref):
            return ref.index - 1 if ref.is_terminal else n + ref.index - 1

        Z = np.array(
            [
                [node_id(a), node_id(b), d.levels[k - 1], len(d.term_set(cluster(k)))]
                for k, (a, b) in enumerate(d.merges, start=1)
            ],
            dtype=float,
        )
        want = distance.squareform(hierarchy.cophenet(Z))
        assert np.array_equal(cophenetic(d, use="levels"), want)
