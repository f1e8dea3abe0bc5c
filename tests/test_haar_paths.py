"""Differential tests: the Haar transform in waves of equal-height clusters
against the per-rank loops it replaced (kept in oracles.py).

Each wave merges every cluster of one height in one numpy step, with the
same per-element arithmetic as the rank loop, so details, smooths, child
sizes and reconstructions must be bit-identical, not merely close.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_trees, traced_peak
from strategies import dendrograms

import dendrowave.tree
from dendrowave import haar
from dendrowave.haar import (
    _checked_data,
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
    _RUN_STEP,
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
    yield chain(_RUN_STEP + 2, cluster_first=False)  # a run of two steps, the second of one cluster
    yield oracles.caterpillar(2 * _RUN_STEP + 40, rng)
    yield spine([3, 1, 2, 1, 1, 4, 1, 1, 1, 2, 1, 1, 1, 1, 1], rng)


def spine(sides, rng):
    """A chain of clusters, each merging the one below with a random subtree of the next size."""
    merges, top, n = [], None, 0
    for size in sides:
        base = len(merges)
        for pair in random_dendrogram(size, rng).merges:
            merges.append(tuple(terminal(c.index + n) if c.is_terminal else cluster(c.index + base) for c in pair))
        side, n = cluster(len(merges)) if size > 1 else terminal(n + 1), n + size
        if top is not None:
            merges.append((top, side) if rng.integers(2) else (side, top))
        top = cluster(len(merges)) if merges else side
    return build_from_merges(merges)


def assert_same_as_rank_loop(X, d, orient=True):
    tree = d.canonical if orient else d
    data = _checked_data(X, tree)
    for transform, merge in ((forward, oracles.plain_merge), (forward_weighted, oracles.weighted_sum_merge)):
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


def run_length(step) -> int:
    """The number of one-cluster waves a run step holds, 0 for a step that is no run."""
    *_, run = step
    return 0 if run is None else len(run[0])


def chain_runs(d) -> list[int]:
    """Lengths of the maximal runs of two or more one-cluster waves, a run's steps taken together."""
    lengths = (run_length(step) for step in d._waves.steps)
    return [sum(run) for single, run in itertools.groupby(lengths, key=bool) if single]


def test_runs_of_one_cluster_waves_of_any_length_match_the_rank_loop():
    # balanced(2) ends in a lone one-cluster wave, its root; one more terminal makes a run of two
    on_top = build_from_merges([*balanced(2).merges, (cluster(3), terminal(5))])
    trees = {0: [chain(2, True), balanced(2)], 11: [chain(12, True)]}
    for waves in (2, 3, 4, 5):  # short runs, in both child orders
        trees[waves] = [chain(waves + 1, True), chain(waves + 1, False)]
    trees[2].append(on_top)
    rng = np.random.default_rng(94)
    for length, ds in trees.items():
        for d in ds:
            assert chain_runs(d) == chain_runs(d.canonical) == ([length] if length else [])
            assert_same_as_rank_loop(rng.normal(size=(d.n_terminals, 3)), d)


def test_indicator_transform_matches_the_rank_loop():
    for d in sample_trees():
        if d.n_terminals > 200:
            continue
        for orient in (True, False):
            w = forward_indicator(d, orient=orient)
            tree = d.canonical if orient else d
            details, final, _ = oracles.ascend_ranks(np.eye(d.n_terminals), tree, oracles.plain_merge)
            assert np.array_equal(w.details, details) and np.array_equal(w.smooth, final)
            assert_inverse_same(w)


@settings(max_examples=150, deadline=None)
@given(dendrograms(min_n=1, max_n=24), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_waves_match_the_rank_loops_on_hypothesis_trees(d, m, seed):
    X = np.random.default_rng(seed).normal(size=(d.n_terminals, m))
    assert_same_as_rank_loop(X, d)
    assert_same_as_rank_loop(X, d, orient=False)


RUN_TREES = {
    "chain": lambda n, rng: chain(n, cluster_first=bool(rng.integers(2))),
    "caterpillar": lambda n, rng: oracles.caterpillar(n, rng),
    "spine": lambda n, rng: spine(rng.integers(1, 5, size=max(1, n // 2)).tolist(), rng),
    "unfolded": lambda n, rng: unfold(random_pway_tree(max(1, n // 3), int(rng.integers(3, 6)), rng)),
}

# `forward` ascends every run of the first three in one accumulate; a long enough run of
# FALLBACK_DATA fails the bit check and merges one cluster at a time
RUN_DATA = {
    "integers": lambda rng, shape: rng.integers(-99, 100, size=shape).astype(float),
    "signed-zeros": lambda rng, shape: rng.choice([0.0, -0.0], size=shape),
    "normal": lambda rng, shape: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4),
    "subnormal": lambda rng, shape: rng.integers(-9, 10, size=shape) * 5e-324,
    "past-2**512": lambda rng, shape: rng.normal(size=shape) * 2.0 ** rng.integers(600, 1000),
    "near-max": lambda rng, shape: rng.normal(size=shape) * 2.0**1021,
}
FALLBACK_DATA = {"subnormal", "past-2**512", "near-max"}


def same_bits(x, y) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()  # -0.0 and 0.0 differ too


def assert_runs_match_the_rank_loops(X, d, orient):
    tree = d.canonical if orient else d
    with np.errstate(over="ignore", invalid="ignore"):
        details, final, _ = oracles.ascend_ranks(X, tree, oracles.plain_merge)
        if not (np.isfinite(details).all() and np.isfinite(final).all()):  # `forward` halves first
            details, final, _ = oracles.ascend_ranks(X, tree, oracles.halved_merge)
        w = forward(X, d, orient=orient)
        assert same_bits(w.details, details) and same_bits(w.smooth, final)
        assert same_bits(inverse(w), oracles.inverse_ranks(w))
        details, final, _ = oracles.ascend_ranks(X, tree, oracles.weighted_sum_merge)
    if not (np.isfinite(details).all() and np.isfinite(final).all()):
        with pytest.raises(ValidationError, match="overflows a float"):
            forward_weighted(X, d, orient=orient)
        return
    w = forward_weighted(X, d, orient=orient)
    assert same_bits(w.details, details) and same_bits(w.smooth, final)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(inverse(w), oracles.inverse_ranks(w))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RUN_TREES)),
    st.integers(2, 700),
    st.sampled_from(sorted(RUN_DATA)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_runs_match_the_rank_loops_bit_for_bit_on_any_data(kind, n, family, m, seed):
    rng = np.random.default_rng(seed)
    d = RUN_TREES[kind](n, rng)
    X = RUN_DATA[family](rng, (d.n_terminals, m))
    for orient in (True, False):
        assert_runs_match_the_rank_loops(X, d, orient)


@pytest.mark.parametrize("name", ["_plain_merge", "_weighted_merge"])
def test_a_run_merges_one_cluster_at_a_time_only_for_data_it_cannot_scale(monkeypatch, name):
    real, merged_rows = getattr(haar, name), []

    def spy(sa, sb):
        merged_rows.append(np.ndim(sa))  # 1: one cluster's row, 2: a whole run
        return real(sa, sb)

    monkeypatch.setattr(haar, name, spy)
    transform = forward if name == "_plain_merge" else forward_weighted
    rng = np.random.default_rng(112)
    for family, make in RUN_DATA.items():
        for d in (chain(_RUN_STEP + 90, cluster_first=True), oracles.caterpillar(600, rng)):
            merged_rows.clear()
            X = make(rng, (d.n_terminals, 2))
            try:
                transform(X, d)
            except ValidationError:  # the weighted sums of near-max data overflow
                assert (name, family) == ("_weighted_merge", "near-max")
            assert merged_rows.count(2) >= 1  # every step of these trees is a run
            assert (1 in merged_rows) == (name == "_plain_merge" and family in FALLBACK_DATA), family


@pytest.mark.parametrize("cluster_first", [True, False], ids=["cluster-first", "cluster-second"])
@pytest.mark.parametrize("waves", [2, 3, 4, 5])
def test_short_runs_are_one_step_and_match_the_rank_loops_on_any_data(monkeypatch, waves, cluster_first):
    d = chain(waves + 1, cluster_first)
    for tree in (d, d.canonical):
        (step,) = tree._waves.steps
        assert run_length(step) == waves
    real, merged_rows = haar._plain_merge, []

    def spy(sa, sb):
        merged_rows.append(np.ndim(sa))  # 1: one cluster's row, 2: a whole run
        return real(sa, sb)

    monkeypatch.setattr(haar, "_plain_merge", spy)
    rng = np.random.default_rng(120 + waves)
    for family, make in RUN_DATA.items():
        for _ in range(5):
            X = make(rng, (d.n_terminals, 3))
            merged_rows.clear()
            for orient in (True, False):
                assert_runs_match_the_rank_loops(X, d, orient)
            # normal floats scale exactly, so only the other data may merge one cluster at a time
            assert family in FALLBACK_DATA or 1 not in merged_rows, family


def test_the_weighted_sums_stay_within_the_tolerance_of_the_weighted_means():
    rng = np.random.default_rng(110)
    trees = [
        *random_trees(20, 300, seed=111),
        oracles.caterpillar(3000, rng),
        chain(2 * _RUN_STEP + 7, cluster_first=False),
        balanced(9),
        unfold(random_pway_tree(300, 4, rng)),
    ]
    for d in trees:
        for scale in (1e-6, 1.0, 1e6):
            X = rng.normal(size=(d.n_terminals, 3)) * scale
            w = forward_weighted(X, d)
            details, final, _ = oracles.ascend_ranks(X, w.tree, oracles.weighted_mean_merge)
            tol = 1e-12 * max(1.0, np.abs(X).max())  # the two differ by a few ulps of the largest row
            assert np.abs(w.details - details).max() <= tol
            assert np.abs(w.smooth - final).max() <= tol


def test_every_wave_sits_above_its_children():
    for d in sample_trees():
        n, waves = d.n_terminals, d._waves
        # slots in (height, rank) order
        assert np.array_equal(waves.order, np.lexsort((np.arange(n - 1), oracles.cluster_heights(d.merges))))
        height = np.append(np.zeros(n, dtype=np.int64), oracles.cluster_heights(d.merges)[waves.order])  # by row
        assert np.array_equal(waves.order[waves.slot], np.arange(n - 1))
        size = np.append(np.ones(n), d.layout.size[waves.order])  # by row
        filled, lengths = [], []
        for step in waves.steps:
            a, b, slots, run = step
            rows = n + np.arange(n - 1)[slots]
            filled.extend(rows.tolist())
            level, lengths = height[rows], lengths + [run_length(step)]
            if lengths[-1]:  # one-cluster waves: each the only cluster of its height, a child of the next
                assert lengths[-1] >= 2
                assert (np.bincount(height)[level] == 1).all() and (np.diff(level) == 1).all()
            else:
                assert np.unique(level).size == 1  # one height per wave, a contiguous run of slots
            if run is not None:
                first, merged_in = run
                assert first.shape == (rows.size, 1) and first.dtype == bool and first[0, 0]
                assert np.array_equal(np.where(first[:, 0], a, b)[1:], rows[:-1])
                assert np.array_equal(merged_in, np.append(a[0], np.where(first[:, 0], b, a)))
            for kids in (a, b):
                assert (height[kids] < level).all()
            assert np.array_equal(size[rows], size[a] + size[b])
        assert filled == list(range(n, 2 * n - 1))  # the waves fill the slots in order
        # runs are maximal: two steps of one-cluster waves meet only where a run is cut,
        # at a multiple of `_RUN_STEP` waves
        waves_below, below_single = 0, False
        for (_, _, slots, _), length in zip(waves.steps, lengths):
            single = slots.stop - slots.start == 1 or length > 0
            assert not (single and below_single) or waves_below % _RUN_STEP == 0
            waves_below, below_single = waves_below + (length or 1), single
        assert max(lengths, default=0) <= _RUN_STEP


def wave_count(d) -> int:
    """The number of waves the steps hold: one per wider wave, one per cluster of a run."""
    return sum(run_length(step) or 1 for step in d._waves.steps)


def test_wave_counts_are_the_tree_height():
    for n in (2, 3, 4, 5, 6, 50, 257, _RUN_STEP + 2, _RUN_STEP + 3, 2 * _RUN_STEP + 2):
        # a run in pieces of `_RUN_STEP` waves, each one step
        pieces = [min(_RUN_STEP, n - 1 - at) for at in range(0, n - 1, _RUN_STEP)]
        for cluster_first in (True, False):
            d = chain(n, cluster_first)
            assert wave_count(d) == n - 1
            assert [run_length(step) or 1 for step in d._waves.steps] == pieces
    for levels in range(1, 9):
        assert wave_count(balanced(levels)) == len(balanced(levels)._waves.steps) == levels
    assert random_dendrogram(1, 1)._waves.steps == ()


def test_every_step_holds_two_int_arrays_and_a_slice():
    for d in (*sample_trees(), chain(3, True), chain(4, False)):
        for a, b, slots, run in d._waves.steps:
            assert isinstance(slots, slice) and slots.step is None
            for kids in (a, b):
                assert isinstance(kids, np.ndarray) and kids.dtype == np.int64
                assert kids.shape == (slots.stop - slots.start,)
            assert run is None or isinstance(run, tuple)
    root = balanced(3)._waves.steps[-1]  # a lone one-cluster wave: one-row arrays and a one-slot slice
    assert root[2] == slice(6, 7) and root[0].shape == root[1].shape == (1,) and root[3] is None
    wide = balanced(3)._waves.steps[0]
    assert wide[2] == slice(0, 4) and wide[0].shape == wide[1].shape == (4,) and wide[3] is None
    (step,) = chain(6, cluster_first=False)._waves.steps  # the growing cluster always second
    a, b, slots, (first, merged_in) = step
    assert slots == slice(0, 5) and a.shape == b.shape == (5,) and first.shape == (5, 1)
    assert first.ravel().tolist() == [True, False, False, False, False]
    assert merged_in.tolist() == [a[0], b[0], *a[1:].tolist()]


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
    X = np.random.default_rng(109).normal(size=(n, 4))
    for d in (random_dendrogram(n, 108), oracles.caterpillar(n, np.random.default_rng(113))):
        d.canonical._waves  # the layout and the waves are built once per tree, outside the pass

        def transform_pass():
            w = forward(X, d)
            inverse(w)
            inverse(forward_weighted(X, d))
            hard_threshold(w, "keep-k", 10)

        _, peak = traced_peak(transform_pass)
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


def test_the_summed_sign_build_holds_one_matrix():
    n = 1024
    d = oracles.caterpillar(n, np.random.default_rng(114))
    assert d.layout.size.sum() > dendrowave.tree._SCATTER_DEPTH * n  # summed, not scattered
    signs, peak = traced_peak(lambda: branch_signs(d))
    assert signs.shape == (n, n - 1)
    assert peak < 1.5 * n * (n - 1), f"{peak} bytes at the peak, the signs have {signs.nbytes}"


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
