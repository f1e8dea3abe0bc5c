"""Differential tests: trees stored as their table of child node ids against
the NodeRef-walking code they replaced (kept in oracles.py).

The validator, the layout, JSON, reorientation, decoding, dilation and
unfolding all work on the id table now; their verdicts, messages, arrays,
trees and text must be identical to the oracles'.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strategies import dendrograms
from test_haar_paths import balanced, chain

from dendrowave import pway, tree
from dendrowave.padic import cluster_code, decode, dilate_tree, encode, pdistance, pnorm
from dendrowave.pway import PWayTree, build_pway, random_pway_tree, unfold
from dendrowave.tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    build_from_merges,
    canonical_orient,
    cluster,
    from_json,
    random_dendrogram,
    terminal,
    to_json,
)

ARITIES = (2, 3, 5)
HUGE = 10**30


def sample_trees():
    rng = np.random.default_rng(140)
    yield random_dendrogram(1, rng)
    yield random_dendrogram(2, rng)
    for n in (3, 9, 40, 300):
        yield random_dendrogram(n, rng, with_levels=n % 2 == 1)
    for n in (3, 17, 130):
        yield oracles.caterpillar(n, rng, with_levels=True)
        yield chain(n, cluster_first=False)
    for levels in (1, 3, 6):
        yield balanced(levels)
    for arity in (3, 5):
        for internal in (1, 5, 40):
            yield unfold(random_pway_tree(internal, arity, rng))


def verdict(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


def assert_same_tree(d: Dendrogram, want: Dendrogram):
    assert d == want and hash(d) == hash(want)
    assert d.labels == want.labels and d.levels == want.levels
    assert d.merges == want.merges
    assert np.array_equal(d.kids, want.kids)


# ------------------------------------------------------------------ validator

def pway_trees(arity, rng, count):
    for _ in range(count):
        yield random_pway_tree(int(rng.integers(1, 9)), arity, rng)


def mutated(t, rng, kind):
    """``t``'s merge list with one defect, where the oracle sees it."""
    merges = [list(kids) for kids in t.merges]
    refs = [node for kids in merges for node in kids]
    k, side = int(rng.integers(len(merges))), int(rng.integers(t.arity))
    if kind == "reused":
        merges[k][side] = refs[int(rng.integers(len(refs)))]
    elif kind == "terminal":
        merges[k][side] = terminal(t.n_terminals + int(rng.integers(1, 3)))
    elif kind == "forward":
        merges[k][side] = cluster(k + 1 + int(rng.integers(2)))
    elif kind == "count":
        merges[k] = merges[k][:-1] if rng.integers(2) else merges[k] + [terminal(1)]
    elif kind == "huge":
        merges[k][side] = terminal(HUGE) if rng.integers(2) else cluster(HUGE + 1)
    return tuple(tuple(kids) for kids in merges)


KINDS = ("reused", "terminal", "forward", "count", "huge")


@pytest.mark.parametrize("arity", ARITIES)
@pytest.mark.parametrize("kind", KINDS)
def test_constructors_give_the_oracle_message(arity, kind):
    rng = np.random.default_rng(150 + arity)
    rejected = 0
    for t in pway_trees(arity, rng, 60):
        merges = mutated(t, rng, kind)
        want = verdict(lambda: oracles.check_merges(t.labels, merges, arity))
        assert verdict(lambda: oracles.check_merges_marked(merges, t.n_terminals, arity)) == want
        assert verdict(lambda: PWayTree(arity, t.labels, merges)) == want
        assert verdict(lambda: build_pway(arity, merges, labels=t.labels)) == want
        if arity == 2:
            assert verdict(lambda: Dendrogram(t.labels, merges)) == want
        if arity == 2 and kind != "count":  # it unpacks every merge into a pair
            assert verdict(lambda: build_from_merges(merges, labels=t.labels)) == want
        rejected += want is not None
    assert rejected > (10 if kind == "reused" else 50)


@pytest.mark.parametrize("arity", ARITIES)
def test_validator_names_missing_and_dangling_nodes(arity):
    """Merge lists a merge short leave nodes out, which a constructor's counts never do."""
    rng = np.random.default_rng(160 + arity)
    seen = set()
    # a root over p clusters of p terminals each: without it, clusters dangle
    groups = [tuple(terminal(g * arity + i) for i in range(1, arity + 1)) for g in range(arity)]
    bushy = build_pway(arity, groups + [tuple(cluster(k) for k in range(1, arity + 1))])
    for t in [bushy, *pway_trees(arity, rng, 80)]:
        n = t.n_terminals
        for drop in (len(t.merges) - 1, int(rng.integers(len(t.merges)))):
            merges = t.merges[:drop] + t.merges[drop + 1 :]
            want = verdict(lambda: oracles.check_merges(t.labels, merges, arity))
            refs = [r for kids in merges for r in kids]
            ids = tree._table([r.is_terminal for r in refs], [r.index for r in refs], n, arity)
            got = verdict(lambda: tree._check_ids(ids, n, arity))
            assert got == want
            seen.add(want and want.split()[0])
    assert {"terminal", "cluster"} <= seen


@pytest.mark.parametrize("arity", ARITIES)
def test_huge_indices_keep_their_exact_value(arity):
    t = random_pway_tree(4, arity, 170)
    merges = [list(kids) for kids in t.merges]
    merges[2][0] = terminal(HUGE)
    n = t.n_terminals
    want = f"rank 3: terminal {HUGE} out of range 1..{n}"
    assert verdict(lambda: build_pway(arity, merges, labels=t.labels)) == want
    doc = json.loads(pway.to_json(t))
    doc["merges"][2]["children"][0] = {"terminal": HUGE}
    assert verdict(lambda: pway.from_json(json.dumps(doc))) == want
    if arity == 2:
        assert verdict(lambda: Dendrogram(t.labels, merges)) == want
        doc = json.loads(to_json(build_from_merges(t.merges, labels=t.labels)))
        doc["merges"][2]["children"][0] = {"terminal": HUGE}
        assert verdict(lambda: from_json(json.dumps(doc))) == want
        doc["merges"][2]["children"][0] = {"cluster": HUGE}
        assert verdict(lambda: from_json(json.dumps(doc))) == (
            f"rank 3: child cluster q{HUGE} must rank below 3"
        )


@pytest.mark.parametrize("read, write, arity", [
    (from_json, lambda: to_json(random_dendrogram(6, 171)), 2),
    (pway.from_json, lambda: pway.to_json(random_pway_tree(4, 3, 172)), 3),
    (pway.from_json, lambda: pway.to_json(random_pway_tree(4, 5, 173)), 5),
])
@pytest.mark.parametrize("kind", ["terminal", "cluster"])
@pytest.mark.parametrize("index", [0, -1, -3])
def test_json_locates_an_index_below_one(read, write, arity, kind, index):
    doc = json.loads(write())
    doc["merges"][3]["children"][1] = {kind: index}
    with pytest.raises(ValidationError) as got:
        read(json.dumps(doc))
    assert str(got.value) == f"merges[3]: {kind} index must be >= 1, got {index}"
    # an earlier entry's fault still comes first
    doc["merges"][1]["children"] = []
    with pytest.raises(ValidationError, match=r"^merges\[1\]: children must list"):
        read(json.dumps(doc))


# --------------------------------------------------------------------- layout

def test_layout_and_merges_match_the_noderef_builders():
    for d in sample_trees():
        lay, want = d.layout, oracles.build_layout(d.merges, d.n_terminals)
        for name, arr in want.items():
            assert np.array_equal(getattr(lay, name), arr), name
            assert getattr(lay, name).dtype == arr.dtype
        assert lay.kids is d.kids and not d.kids.flags.writeable
        assert build_from_merges(d.merges, d.levels, d.labels).merges == d.merges
        assert all(type(pair) is tuple and len(pair) == 2 for pair in d.merges)


@settings(max_examples=60, deadline=None)
@given(dendrograms(min_n=1, max_n=14, levels=True))
def test_hypothesis_trees_match_the_oracles(d):
    want = oracles.build_layout(d.merges, d.n_terminals)
    assert all(np.array_equal(getattr(d.layout, k), v) for k, v in want.items())
    assert_same_tree(canonical_orient(d), oracles.canonical_orient(d))
    assert to_json(d) == oracles.to_json_dumps(d)
    if d.n_clusters:
        assert_same_tree(dilate_tree(d), oracles.dilate_tree(d))


# ------------------------------------------------------- identity and pickling

def test_every_constructor_gives_equal_trees():
    for d in sample_trees():
        made = Dendrogram(d.labels, d.merges, d.levels)
        parsed = from_json(to_json(d))
        ids = Dendrogram(d.labels, np.array(d.kids), d.levels)
        for other in (made, parsed, ids, pickle.loads(pickle.dumps(d))):
            assert_same_tree(other, d)
            assert repr(other) == (
                f"Dendrogram(labels={d.labels!r}, merges={d.merges!r}, levels={d.levels!r})"
            )
        relabelled = Dendrogram(tuple(f"y{i}" for i in range(d.n_terminals)), d.merges, d.levels)
        assert relabelled != d and made != d.labels
        if d.n_clusters:
            swapped = tree.apply_swap(d, [1] + [0] * (d.n_clusters - 1))
            assert swapped != d and np.array_equal(swapped.kids[0], d.kids[0, ::-1])


def test_noderef_has_slots_and_keeps_its_checks():
    ref = terminal(3)
    assert not hasattr(ref, "__dict__")
    with pytest.raises(ValidationError, match=r"^terminal index must be an integer >= 1, got True$"):
        terminal(True)
    with pytest.raises(ValidationError, match=r"^cluster index must be an integer >= 1, got 2.0$"):
        cluster(2.0)
    with pytest.raises(ValidationError, match=r"^cluster index must be an integer >= 1, got 0$"):
        cluster(0)
    assert NodeRef("cluster", np.int64(4)) == cluster(4)
    for node in (ref, cluster(7)):
        back = pickle.loads(pickle.dumps(node))
        assert back == node and hash(back) == hash(node) and repr(back) == repr(node)


INDEX_TYPES = (int, np.int8, np.int32, np.int64, np.uint64)


@settings(max_examples=40, deadline=None)
@given(dendrograms(levels=True))
def test_numpy_integer_indices_give_the_answers_of_ints(d):
    n, m = d.n_terminals, d.n_clusters

    def answers(as_index):
        ts, ks = [as_index(i) for i in range(1, n + 1)], [as_index(k) for k in range(1, m + 1)]
        nodes = [terminal(i) for i in ts] + [cluster(k) for k in ks]
        assert all(type(node.index) is int for node in nodes)
        return (
            [pnorm(d, node) for node in nodes],
            [pdistance(a, b, d=d) for a, b in zip(nodes, nodes[1:] + nodes[:1])],
            [cluster_code(d, node) for node in nodes],
            [d.span(node) for node in nodes],
            [d.term_set(node) for node in nodes],
            [d.lca(i, j) for a, i in enumerate(ts) for j in ts[a + 1 :]],
            [d.label_of(i) for i in ts],
            [d.children(k) for k in ks],
            [d.level_of(k) for k in ks],
        )

    want = answers(int)
    for kind in INDEX_TYPES[1:]:
        assert answers(kind) == want
    bad = [1.5, "2", True, np.True_] + [kind(v) for kind in INDEX_TYPES for v in (0, m + 1)]
    for rank in bad:
        for call in (d.children, d.level_of):
            with pytest.raises(ValidationError):
                call(rank)


def test_pickled_trees_are_equal_read_only_and_revalidated():
    d = random_dendrogram(30, 180, with_levels=True)
    for source in (d, build_from_merges(d.merges, d.levels, d.labels), from_json(to_json(d))):
        back = pickle.loads(pickle.dumps(source))
        assert back == d and hash(back) == hash(d) and not back.kids.flags.writeable
    t = random_pway_tree(6, 3, 181)
    back = pickle.loads(pickle.dumps(t))
    assert back == t and hash(back) == hash(t) and back.merges == t.merges
    assert repr(back) == f"PWayTree(arity=3, labels={t.labels!r}, merges={t.merges!r})"


def test_constructors_store_labels_and_levels_as_tuples():
    d = random_dendrogram(9, 182, with_levels=True)
    t = random_pway_tree(4, 3, 183)
    labels, levels = list(d.labels), list(d.levels)
    made = [
        Dendrogram(labels, list(d.merges), levels),
        Dendrogram(labels, d.merges, np.array(levels)),
        Dendrogram(labels, np.array(d.kids), np.array(levels)),
        PWayTree(3, list(t.labels), list(t.merges)),
        PWayTree(3, list(t.labels), np.array(t.kids)),
    ]
    wants = [build_from_merges(d.merges, levels, d.labels)] * 3
    wants += [build_pway(3, t.merges, t.labels)] * 2
    labels.append("extra")
    for got, want in zip(made, wants):
        assert got == want and hash(got) == hash(want)
        assert pickle.dumps(got) == pickle.dumps(want) and pickle.loads(pickle.dumps(got)) == want
        assert type(got.labels) is tuple and got.n_terminals == want.n_terminals
        if isinstance(got, Dendrogram):
            assert type(got.levels) is tuple and all(type(v) is float for v in got.levels)
    assert made[1] == made[2] and hash(made[1]) == hash(made[2])


def binary_json_trees():
    rng = np.random.default_rng(184)
    yield random_dendrogram(1, rng)
    yield random_dendrogram(1, rng, with_levels=True, labels=['only "one"'])
    for n in (2, 3, 11, 90):
        yield random_dendrogram(n, rng, with_levels=n % 2 == 1)
        yield oracles.caterpillar(n, rng, with_levels=n % 2 == 0)
    yield random_dendrogram(5, rng, with_levels=True, labels=["é", "\t", "a\\b", "\u2603", "\x00"])


def pway_json_trees():
    rng = np.random.default_rng(185)
    for arity in (2, 3, 4, 5):
        yield PWayTree(arity, ("only",), ())
        for internal in (1, 2, 9, 60):
            yield random_pway_tree(internal, arity, rng)
        t = random_pway_tree(5, arity, rng)
        yield PWayTree(np.int64(arity), t.labels, t.kids)  # the arity is written as an int
    yield random_pway_tree(3, 4, rng, labels=[f"{c}\n" for c in "éabcdefghi"])


@pytest.mark.parametrize("indent", [2, None, 0, "\t"])
def test_both_formats_write_what_json_dumps_writes(indent):
    for d in binary_json_trees():
        assert to_json(d, indent) == oracles.to_json_dumps(d, indent)
    for t in pway_json_trees():
        assert pway.to_json(t, indent) == oracles.pway_to_json_dumps(t, indent)
        assert pway.from_json(pway.to_json(t, indent)) == t


# ------------------------------------------------------- producers on the table

def test_reorientation_decode_dilation_and_unfolding_match_the_oracles():
    for d in sample_trees():
        assert_same_tree(canonical_orient(d), oracles.canonical_orient(d))
        assert to_json(d) == oracles.to_json_dumps(d)
        assert to_json(d, indent=None) == oracles.to_json_dumps(d, indent=None)
        if not d.n_clusters:
            continue
        mask = [k % 3 == 0 for k in range(d.n_clusters)]
        swapped = tree.apply_swap(d, mask)
        want = tuple((b, a) if bit else (a, b) for (a, b), bit in zip(d.merges, mask))
        assert swapped.merges == want
        C = encode(d)[1]
        assert_same_tree(decode(C, labels=d.labels), oracles.decode(C, labels=d.labels))
        assert_same_tree(dilate_tree(d), oracles.dilate_tree(d))


def test_unfold_and_term_sets_match_the_oracles():
    rng = np.random.default_rng(190)
    for arity in (2, 3, 5):
        for internal in (1, 2, 7, 40):
            t = random_pway_tree(internal, arity, rng)
            assert_same_tree(unfold(t), oracles.unfold(t))
            for k in range(1, internal + 1):
                assert t.term_set(cluster(k)) == oracles.pway_term_set(t, cluster(k))
    big = random_pway_tree(999, 3, 191)
    assert big.n_terminals == 1999
    for node in (cluster(1), cluster(500), cluster(999), terminal(1999)):
        assert big.term_set(node) == oracles.pway_term_set(big, node)
