import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_trees
from strategies import dendrograms

from dendrowave.tree import (
    Dendrogram,
    ValidationError,
    apply_swap,
    branch_signs,
    build_from_merges,
    canonical_orient,
    cluster,
    default_labels,
    from_json,
    load_json,
    random_dendrogram,
    save_json,
    terminal,
    to_json,
)


def lca_oracle(d: Dendrogram, i: int, j: int) -> int:
    """Lowest rank whose terminal set contains both i and j."""
    for k in range(1, d.n_clusters + 1):
        members = d.term_set(cluster(k))
        if i in members and j in members:
            return k
    raise AssertionError("root must contain every pair")


def test_node_ref_basics():
    x = terminal(3)
    q = cluster(2)
    assert x.is_terminal and not q.is_terminal
    assert x.rank == 0 and q.rank == 2
    assert repr(x) == "x3" and repr(q) == "q2"
    with pytest.raises(ValidationError):
        terminal(0)
    with pytest.raises(ValidationError):
        cluster(-1)


def test_default_labels():
    assert default_labels(3) == ("x1", "x2", "x3")


def test_demo_term_sets(demo8):
    assert demo8.term_set(cluster(1)) == frozenset({1, 2})
    assert demo8.term_set(cluster(2)) == frozenset({1, 2, 3})
    assert demo8.term_set(cluster(4)) == frozenset({4, 5, 6})
    assert demo8.term_set(cluster(5)) == frozenset(range(1, 7))
    assert demo8.term_set(cluster(7)) == frozenset(range(1, 9))
    assert demo8.term_set(terminal(5)) == frozenset({5})


def test_demo_lca(demo8):
    assert demo8.lca(1, 2) == cluster(1)
    assert demo8.lca(1, 3) == cluster(2)
    assert demo8.lca(1, 4) == cluster(5)
    assert demo8.lca(7, 8) == cluster(6)
    assert demo8.lca(3, 7) == cluster(7)
    with pytest.raises(ValidationError):
        demo8.lca(4, 4)


def test_lca_matches_term_set_oracle():
    for d in random_trees(30, 12, seed=11):
        n = d.n_terminals
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert d.lca(i, j) == cluster(lca_oracle(d, i, j))


def test_leaf_order_demo(demo8):
    assert demo8.leaf_order() == (1, 2, 3, 4, 5, 6, 7, 8)


def test_leaf_order_is_a_permutation():
    for d in random_trees(40, 16, seed=12):
        order = d.leaf_order()
        assert sorted(order) == list(range(1, d.n_terminals + 1))


def test_single_terminal_tree():
    d = build_from_merges([], labels=("only",))
    assert d.n_terminals == 1 and d.n_clusters == 0
    assert d.root == terminal(1)
    assert d.leaf_order() == (1,)
    assert from_json(to_json(d)) == d


def test_build_rejects_reused_child():
    with pytest.raises(ValidationError, match="rank 2"):
        build_from_merges(
            [(terminal(1), terminal(2)), (cluster(1), terminal(1))],
            labels=("a", "b", "c"),
        )


def test_build_rejects_out_of_range_terminal():
    with pytest.raises(ValidationError, match="out of range"):
        build_from_merges([(terminal(1), terminal(5))], labels=("a", "b"))


def test_build_rejects_forward_cluster_reference():
    with pytest.raises(ValidationError, match="rank 1"):
        build_from_merges(
            [(cluster(2), terminal(1)), (cluster(1), terminal(2))],
            labels=("a", "b", "c"),
        )


def test_build_rejects_a_merge_of_other_than_two_children():
    with pytest.raises(ValidationError, match=r"^rank 1: expected 2 children, got 3$"):
        build_from_merges([(terminal(1), terminal(2), terminal(3))])
    with pytest.raises(ValidationError, match=r"^rank 2: expected 2 children, got 1$"):
        build_from_merges([[terminal(1), terminal(2)], [cluster(1)]])


def test_build_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="distinct"):
        build_from_merges([(terminal(1), terminal(2))], labels=("a", "a"))


def test_levels_must_increase():
    merges = [(terminal(1), terminal(2)), (cluster(1), terminal(3))]
    build_from_merges(merges, levels=[1.0, 2.0])
    with pytest.raises(ValidationError, match="rank 2"):
        build_from_merges(merges, levels=[2.0, 2.0])
    with pytest.raises(ValidationError, match="finite"):
        build_from_merges(merges, levels=[1.0, float("nan")])
    with pytest.raises(ValidationError, match="one entry per merge"):
        build_from_merges(merges, levels=[1.0])


@pytest.mark.parametrize("bad", [None, "x", [1.0]])
def test_a_level_that_is_no_number_is_named_by_its_rank(bad):
    merges = [(terminal(1), terminal(2)), (cluster(1), terminal(3))]
    want = rf"^rank 2: level {re.escape(repr(bad))} is not a number$"
    for build in (
        lambda: Dendrogram(("a", "b", "c"), merges, [1.0, bad]),
        lambda: build_from_merges(merges, [1.0, bad]),
    ):
        with pytest.raises(ValidationError, match=want):
            build()


def test_a_level_too_large_for_a_float_is_named_by_its_rank(demo8):
    levels = [1, 2, 10**400, 4, 5, 6, 7]
    doc = json.loads(to_json(demo8))
    doc["levels"] = levels
    for build in (
        lambda: from_json(json.dumps(doc)),
        lambda: Dendrogram(demo8.labels, demo8.merges, levels),
        lambda: build_from_merges(demo8.merges, levels),
    ):
        with pytest.raises(ValidationError, match=r"^rank 3: level 10{400} is too large"):
            build()


def test_level_of(demo8):
    with pytest.raises(ValidationError, match="no levels"):
        demo8.level_of(1)
    merges = [(terminal(1), terminal(2)), (cluster(1), terminal(3))]
    d = build_from_merges(merges, levels=[0.5, 2.0])
    assert d.level_of(2) == 2.0


def test_apply_swap_is_an_involution(demo8):
    mask = (True, False, True, True, False, False, True)
    swapped = apply_swap(demo8, mask)
    assert swapped != demo8
    assert apply_swap(swapped, mask) == demo8
    # membership structure is untouched
    for k in range(1, 8):
        assert swapped.term_set(cluster(k)) == demo8.term_set(cluster(k))


def test_apply_swap_identity_mask(demo8):
    assert apply_swap(demo8, (False,) * 7) == demo8


def test_canonical_orient_demo_is_fixed_point(demo8):
    assert canonical_orient(demo8) == demo8


def test_canonical_orient_collapses_every_mask(demo8):
    canon = canonical_orient(demo8)
    n_bits = demo8.n_clusters
    for bits in range(2**n_bits):
        mask = tuple(bool(bits >> j & 1) for j in range(n_bits))
        assert canonical_orient(apply_swap(demo8, mask)) == canon


def test_canonical_puts_smallest_terminal_first():
    for d in random_trees(40, 16, seed=13):
        c = canonical_orient(d)
        for k in range(1, c.n_clusters + 1):
            a, b = c.children(k)
            assert min(c.term_set(a)) < min(c.term_set(b))


@settings(max_examples=60, deadline=None)
@given(dendrograms(max_n=10))
def test_canonical_orient_idempotent(d):
    once = canonical_orient(d)
    assert canonical_orient(once) == once


def test_canonical_trees_are_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        d = random_dendrogram(30, 14)
        oriented = canonical_orient(d)
        assert oriented is not d and canonical_orient(d) is oriented
        assert canonical_orient(oriented) is oriented
        gone = weakref.ref(oriented)
        del d, oriented
        assert gone() is None

        fixed = build_from_merges([(terminal(1), terminal(2)), (cluster(1), terminal(3))])
        assert canonical_orient(fixed) is fixed
        gone = weakref.ref(fixed)
        del fixed
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_branch_signs_demo(demo8):
    C = branch_signs(demo8)
    assert C.shape == (8, 7)
    assert C.dtype == np.int8
    expected = np.array(
        [
            [1, 1, 0, 0, 1, 0, 1],
            [-1, 1, 0, 0, 1, 0, 1],
            [0, -1, 0, 0, 1, 0, 1],
            [0, 0, 1, 1, -1, 0, 1],
            [0, 0, -1, 1, -1, 0, 1],
            [0, 0, 0, -1, -1, 0, 1],
            [0, 0, 0, 0, 0, 1, -1],
            [0, 0, 0, 0, 0, -1, -1],
        ],
        dtype=np.int8,
    )
    assert np.array_equal(C, expected)


def test_branch_signs_column_support():
    for d in random_trees(30, 14, seed=14):
        C = branch_signs(d)
        for k in range(1, d.n_clusters + 1):
            nonzero = {i + 1 for i in np.nonzero(C[:, k - 1])[0]}
            assert nonzero == set(d.term_set(cluster(k)))
            a, _ = d.children(k)
            plus = {i + 1 for i in np.nonzero(C[:, k - 1] == 1)[0]}
            assert plus == set(d.term_set(a))


@settings(max_examples=60, deadline=None)
@given(dendrograms(max_n=10, levels=True))
def test_json_roundtrip(d):
    assert from_json(to_json(d)) == d


def test_json_file_roundtrip(tmp_path, demo8):
    path = tmp_path / "tree.json"
    save_json(demo8, path)
    assert load_json(path) == demo8


def test_json_schema_shape(demo8):
    doc = json.loads(to_json(demo8))
    assert doc["format"] == "dendrogram"
    assert doc["n_terminals"] == 8
    assert doc["terminals"][0] == "x1"
    first = doc["merges"][0]
    assert first["rank"] == 1
    assert first["children"] == [{"terminal": 1}, {"terminal": 2}]
    assert "levels" not in doc


def test_from_json_reports_duplicate_rank(demo8):
    doc = json.loads(to_json(demo8))
    doc["merges"][1]["rank"] = 1
    with pytest.raises(ValidationError, match="rank 1"):
        from_json(json.dumps(doc))


def test_from_json_reports_missing_rank(demo8):
    doc = json.loads(to_json(demo8))
    doc["merges"] = doc["merges"][:-1]
    with pytest.raises(ValidationError):
        from_json(json.dumps(doc))


def test_from_json_rejects_junk():
    with pytest.raises(ValidationError):
        from_json("not json at all {")
    with pytest.raises(ValidationError, match="dendrogram"):
        from_json("[]")
    with pytest.raises(ValidationError, match="dendrogram"):
        from_json('{"format": "something-else"}')


def _doc(n_terminals, merges, **extra):
    labels = [f"x{i}" for i in range(1, n_terminals + 1)]
    doc = {"format": "dendrogram", "n_terminals": n_terminals, "terminals": labels}
    doc["merges"] = [{"rank": k, "children": kids} for k, kids in enumerate(merges, start=1)]
    return {**doc, **extra}


PAIR = [{"terminal": 1}, {"terminal": 2}]


@pytest.mark.parametrize(
    "doc, where",
    [
        (_doc(2, [[{"terminal": True}, {"terminal": 2}]]), r"merges\[0\]: bad node"),
        (_doc(3, [PAIR, [{"cluster": True}, {"terminal": 3}]]), r"merges\[1\]: bad node"),
        ({**_doc(2, [PAIR]), "merges": [{"rank": True, "children": PAIR}]}, r"merges\[0\]: rank True"),
        ({**_doc(1, []), "n_terminals": True}, "n_terminals says True"),
        (_doc(2, [PAIR], levels=[True]), "levels: expected a list of numbers"),
    ],
    ids=["terminal", "cluster", "rank", "n_terminals", "levels"],
)
def test_from_json_rejects_booleans_as_integers(doc, where):
    text = json.dumps(doc)
    with pytest.raises(ValidationError, match=where):
        from_json(text)
    # the same document with 1 in place of true is valid
    from_json(text.replace("true", "1"))


def test_node_ref_rejects_booleans():
    with pytest.raises(ValidationError, match="terminal index must be an integer, got True"):
        terminal(True)
    with pytest.raises(ValidationError, match="cluster index must be an integer"):
        cluster(True)


def test_random_dendrogram_reproducible():
    a = random_dendrogram(9, np.random.default_rng(7), with_levels=True)
    b = random_dendrogram(9, np.random.default_rng(7), with_levels=True)
    assert a == b
    assert a.levels is not None and len(a.levels) == 8


@pytest.mark.parametrize("n", [2.5, "3", None, True, np.True_, 0, -3])
def test_random_dendrogram_size_must_be_a_positive_integer(n):
    with pytest.raises(ValidationError, match=r"^n must be an integer >= 1, got "):
        random_dendrogram(n)


def test_random_dendrogram_takes_a_numpy_integer_size():
    d = random_dendrogram(np.int64(5), 9)
    assert d.n_terminals == 5 and d == random_dendrogram(5, 9)


def test_random_dendrogram_is_valid():
    rng = np.random.default_rng(8)
    for n in (2, 3, 17, 40):
        d = random_dendrogram(n, rng)
        assert d.n_terminals == n
        assert d.term_set(d.root) == frozenset(range(1, n + 1))
