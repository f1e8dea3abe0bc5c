"""Differential tests: p-way trees on the binary core against the code they
replaced (kept in oracles.py).

`PWayTree` validates with the byte-marking validator of `Dendrogram`,
answers `term_set` from its unfolded binary tree, draws random trees
through the loop `random_dendrogram` uses and reads JSON through the same
merge reader.  Verdicts, messages, sets and trees must be identical.
"""

import json

import numpy as np
import pytest

import oracles

from dendrowave import pway, tree
from dendrowave.pway import PWayTree, build_pway, random_pway_tree
from dendrowave.tree import (
    Dendrogram,
    ValidationError,
    cluster,
    random_dendrogram,
    terminal,
)

ARITIES = (2, 3, 5)


def mutated(t: PWayTree, rng: np.random.Generator, kind: int):
    """``t``'s merge list with one defect of the given kind."""
    merges = [list(kids) for kids in t.merges]
    refs = [node for kids in t.merges for node in kids]
    k = int(rng.integers(len(merges)))
    side = int(rng.integers(t.arity))
    if kind == 0:  # a node merged twice, another never
        merges[k][side] = refs[int(rng.integers(len(refs)))]
    elif kind == 1:  # a terminal beyond n
        merges[k][side] = terminal(t.n_terminals + int(rng.integers(1, 3)))
    elif kind == 2:  # a cluster that does not rank below its parent
        merges[k][side] = cluster(k + 1 + int(rng.integers(2)))
    elif rng.integers(2):  # one child too few
        del merges[k][side]
    else:  # one child too many
        merges[k].append(terminal(1))
    return tuple(tuple(kids) for kids in merges)


def verdict(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("arity", ARITIES)
def test_validator_matches_the_set_based_oracle(arity):
    rng = np.random.default_rng(100 + arity)
    rejected = 0
    for i in range(200):
        t = random_pway_tree(int(rng.integers(1, 9)), arity, rng)
        merges = mutated(t, rng, i % 4)
        want = verdict(lambda: oracles.check_merges(t.labels, merges, arity))
        assert verdict(lambda: PWayTree(arity, t.labels, merges)) == want
        if arity == 2:
            assert verdict(lambda: Dendrogram(t.labels, merges)) == want
        rejected += want is not None
    assert rejected > 150


def chain(n_internal: int, arity: int) -> PWayTree:
    """The deepest p-way tree: each rank merges the previous cluster with p - 1 terminals."""
    merges, nxt = [], 1
    for k in range(1, n_internal + 1):
        fresh = [terminal(i) for i in range(nxt, nxt + arity - (1 if k > 1 else 0))]
        nxt += len(fresh)
        merges.append(tuple(fresh) if k == 1 else (cluster(k - 1), *fresh))
    return build_pway(arity, merges)


def sample_pway_trees():
    rng = np.random.default_rng(120)
    for arity in (3, 5):
        for n_internal in (1, 2, 7, 30):
            yield random_pway_tree(n_internal, arity, rng)
    yield chain(60, 3)
    yield chain(25, 5)


def test_term_set_matches_the_rebuilding_oracle():
    for t in sample_pway_trees():
        nodes = [terminal(i) for i in range(1, t.n_terminals + 1)]
        nodes += [cluster(k) for k in range(1, t.n_internal + 1)]
        for node in nodes:
            assert t.term_set(node) == oracles.pway_term_set(t, node)
        for node in (terminal(t.n_terminals + 1), cluster(t.n_internal + 1)):
            with pytest.raises(ValidationError) as got:
                t.term_set(node)
            assert verdict(lambda: oracles.pway_term_set(t, node)) == str(got.value)


def test_random_dendrogram_draws_as_its_own_loop_did():
    for seed in range(12):
        for n in (1, 2, 3, 17, 64):
            for levels in (False, True):
                want = oracles.random_dendrogram(n, seed, with_levels=levels)
                assert random_dendrogram(n, seed, with_levels=levels) == want
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for n in (5, 9, 30):
        assert random_dendrogram(n, rng_a, True) == oracles.random_dendrogram(n, rng_b, True)


@pytest.mark.parametrize("arity", ARITIES)
def test_random_pway_tree_draws_as_its_own_loop_did(arity):
    for seed in range(12):
        for n_internal in (1, 2, 9, 40):
            want = tuple(oracles.random_pway_merges(n_internal, arity, seed))
            assert random_pway_tree(n_internal, arity, seed).merges == want
    rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
    for n_internal in (3, 8, 20):
        want = tuple(oracles.random_pway_merges(n_internal, arity, rng_b))
        assert random_pway_tree(n_internal, arity, rng_a).merges == want


def binary_doc():
    return json.loads(tree.to_json(random_dendrogram(6, 130)))


def pway_doc():
    return json.loads(pway.to_json(random_pway_tree(4, 3, 131)))


READERS = [
    pytest.param(binary_doc, tree.from_json, 5, 2, id="binary"),
    pytest.param(pway_doc, pway.from_json, 4, 3, id="pway"),
]


@pytest.mark.parametrize("doc, read, t, arity", READERS)
@pytest.mark.parametrize("rank", [0, -1, "2", 1.0, None, True, "t + 1"])
def test_json_names_a_bad_rank(doc, read, t, arity, rank):
    d = doc()
    d["merges"][2]["rank"] = t + 1 if rank == "t + 1" else rank
    shown = repr(d["merges"][2]["rank"])
    with pytest.raises(ValidationError) as got:
        read(json.dumps(d))
    assert str(got.value) == f"merges[2]: rank {shown} is not an integer rank in 1..{t}"


@pytest.mark.parametrize("doc, read, t, arity", READERS)
@pytest.mark.parametrize("change", [-1, 1])
def test_json_names_a_wrong_child_count(doc, read, t, arity, change):
    d = doc()
    kids = d["merges"][1]["children"]
    d["merges"][1]["children"] = kids[:-1] if change < 0 else kids + [{"terminal": 1}]
    with pytest.raises(ValidationError) as got:
        read(json.dumps(d))
    assert str(got.value) == f"merges[1]: children must list exactly {arity} nodes"


def test_json_names_a_missing_rank():
    d = binary_doc()
    del d["merges"][2]
    with pytest.raises(ValidationError, match=r"^missing merges for ranks \[3\]$"):
        tree.from_json(json.dumps(d))
    # p-way documents count their ranks by their merges, so a gap leaves
    # the top rank out of range
    d = pway_doc()
    del d["merges"][1]
    with pytest.raises(ValidationError) as got:
        pway.from_json(json.dumps(d))
    assert str(got.value) == "merges[2]: rank 4 is not an integer rank in 1..3"

