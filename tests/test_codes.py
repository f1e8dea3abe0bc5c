"""Differential tests: p-adic codes held as int8 rows and the cached canonical
tree against the dense-tuple codes and per-call orientation they replaced."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_trees, traced_peak
from strategies import coeff_vectors, dendrograms

from dendrowave.padic import (
    PAdicCode,
    cluster_code,
    decode,
    dilate,
    encode,
    padd,
    pdistance,
    poly_from_code,
)
from dendrowave.tree import (
    Dendrogram,
    ValidationError,
    apply_swap,
    branch_signs,
    canonical_orient,
    cluster,
    random_dendrogram,
    terminal,
)


def sample_trees():
    rng = np.random.default_rng(4040)
    yield random_dendrogram(1, rng)
    yield from random_trees(25, 30, seed=41)
    for n in (2, 3, 12, 48):
        yield oracles.caterpillar(n, rng)


def all_nodes(d):
    return [terminal(i) for i in range(1, d.n_terminals + 1)] + [
        cluster(k) for k in range(1, d.n_clusters + 1)
    ]


def assert_code_matches(new: PAdicCode, old: oracles.TupleCode):
    assert new.coeffs == old.coeffs
    assert all(type(c) is int for c in new.coeffs)
    assert new.base == old.base
    assert new == PAdicCode(old.coeffs, old.base)
    assert hash(new) == hash(PAdicCode(old.coeffs, old.base))
    assert new.n_terminals == old.n_terminals
    assert new.is_null == old.is_null
    assert new.support() == old.support()
    assert new.to_string() == old.to_string()
    assert new.to_string("3") == old.to_string("3")
    assert new.decimal() == old.decimal()
    assert new.decimal(2) == old.decimal(2)
    assert poly_from_code(new) == {j: c for j, c in enumerate(old.coeffs, start=1) if c}
    assert dilate(new).coeffs == oracles.dilate_tuples(old).coeffs


def assert_codes_match_oracles(d, base=3, pairs=60, seed=0):
    codes, C = encode(d, base)
    old_codes, old_C = oracles.encode(d, base)
    assert np.array_equal(C, old_C)
    assert C is branch_signs(canonical_orient(d)) and not C.flags.writeable
    assert len(codes) == len(old_codes) == d.n_terminals
    for row, new, old in zip(C, codes, old_codes):
        assert new == PAdicCode(row.tolist(), base)
        assert type(new.digits) is bytes and type(new.base) is int
        assert_code_matches(new, old)
    assert encode(d, np.int64(base))[0] == codes

    # cluster codes give equal and null codes too, so `==` is tested both ways
    nodes = all_nodes(d)
    new_all = codes + [cluster_code(d, cluster(k), base) for k in range(1, d.n_clusters + 1)]
    old_all = old_codes + [
        oracles.TupleCode(oracles.cluster_code(d, cluster(k), base).coeffs, base)
        for k in range(1, d.n_clusters + 1)
    ]
    for node, new, old in zip(nodes, new_all, old_all):
        assert new == cluster_code(d, node, base)
        assert_code_matches(new, old)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(new_all), size=(pairs, 2)).tolist()
    picks += [[i, i] for i in range(min(len(new_all), 4))]
    for i, j in picks:
        a, b, oa, ob = new_all[i], new_all[j], old_all[i], old_all[j]
        assert (a == b) == (oa == ob)
        assert (hash(a) == hash(b)) or a != b
        assert padd(a, b).coeffs == oracles.padd_tuples(oa, ob).coeffs
        assert pdistance(a, b) == oracles.pdistance_tuples(oa, ob)
        assert pdistance(nodes[i], nodes[j], d=d, base=base) == pdistance(a, b)

    assert decode(codes, labels=d.labels) == decode(C, labels=d.labels)


def test_codes_match_the_tuple_oracle_on_random_and_caterpillar_trees():
    for s, d in enumerate(sample_trees()):
        assert_codes_match_oracles(d, base=3 if s % 2 else 5, seed=s)


@settings(max_examples=60, deadline=None)
@given(dendrograms(min_n=1, max_n=14), st.integers(2, 7))
def test_codes_match_the_tuple_oracle_on_generated_trees(d, base):
    assert_codes_match_oracles(d, base=base, pairs=20)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(coeff_vectors(m), coeff_vectors(m))),
       st.integers(2, 7))
def test_pdistance_matches_the_tuple_oracle_on_any_two_codes(pair, base):
    """Equal codes, null codes and supports that never meet come up often at these lengths."""
    a, b = pair
    want = oracles.pdistance_tuples(oracles.TupleCode(a, base), oracles.TupleCode(b, base))
    assert pdistance(PAdicCode(a, base), PAdicCode(b, base)) == want
    assert pdistance(PAdicCode(a, np.int64(base)), PAdicCode(b, base)) == want


def test_cluster_code_rejects_unknown_nodes():
    d = random_dendrogram(5, 3)
    for node in (terminal(6), cluster(5)):
        with pytest.raises(ValidationError, match="unknown node"):
            cluster_code(d, node)


def test_code_surface_is_unchanged():
    code = PAdicCode((1, 0, -1))
    assert repr(code) == "PAdicCode(coeffs=(1, 0, -1), base=3)"
    assert code.digits == b"\x01\x00\xff"
    assert PAdicCode(b"\x01\x00\xff") == code
    assert PAdicCode((1, 0, -1), base=5) != code
    assert code != (1, 0, -1)
    assert len({code, PAdicCode([1, 0, -1]), PAdicCode(np.array([1, 0, -1]))}) == 1
    assert pickle.loads(pickle.dumps(code)) == code
    with pytest.raises(AttributeError):
        code.base = 5
    with pytest.raises(AttributeError):
        code.extra = 1


def test_codes_from_encode_are_rows_of_the_sign_matrix():
    rng = np.random.default_rng(4050)
    trees = (random_dendrogram(2, rng), random_dendrogram(200, rng), oracles.caterpillar(200, rng))
    for d in trees:
        codes, C = encode(d, 5)
        for row, code in zip(C, codes):
            assert np.shares_memory(code._row, row)
            alike = PAdicCode(row.tolist(), 5)
            assert code == alike and hash(code) == hash(alike)
            # a copy or a pickle carries the digits alone, never the matrix
            for twin in (pickle.loads(pickle.dumps(code)), copy.copy(code), copy.deepcopy(code)):
                assert twin == code and hash(twin) == hash(code)
                assert not np.shares_memory(twin._row, C)


def test_a_pickled_code_holds_its_digits_and_base_only():
    n = 2048
    codes, C = encode(random_dendrogram(n, 4051))
    for code in codes[:3]:
        assert len(pickle.dumps(code)) < n + 200, f"C has {C.nbytes} bytes"


def test_encode_of_a_tree_whose_signs_are_built_copies_no_row():
    n = 2048
    d = random_dendrogram(n, 4052)
    C = branch_signs(canonical_orient(d))
    (codes, same), peak = traced_peak(lambda: encode(d))
    assert same is C and len(codes) == n
    assert peak < n * (n - 1) / 8, f"{peak} bytes at the peak, C has {C.nbytes}"


@pytest.mark.parametrize(
    "coeffs, power, shown",
    [
        ((True, 0), 1, "True"),
        ((0, False), 2, "False"),
        ((1, np.True_), 2, "True"),
        ((0, 2, 0), 2, "2"),
        ((0, 0, -2), 3, "-2"),
        ((0, 300), 2, "300"),
        (b"\x00\x01\x02", 3, "2"),
        (b"\x80", 1, "-128"),
    ],
)
def test_codes_name_the_power_of_a_bad_digit(coeffs, power, shown):
    with pytest.raises(ValidationError) as exc:
        PAdicCode(coeffs)
    assert str(exc.value) == f"coefficient of p^{power} must be -1, 0 or +1, got {shown}"


def test_bool_base_is_rejected():
    with pytest.raises(ValidationError, match="base"):
        PAdicCode((1, 0), base=True)


def test_decode_checks_code_lengths():
    codes, _ = encode(random_dendrogram(4, 5))
    with pytest.raises(ValidationError, match="4 codes need length 3, got 2"):
        decode(codes[:3] + [PAdicCode((1, -1))])


def test_canonical_tree_is_built_once():
    for d in sample_trees():
        c = canonical_orient(d)
        assert canonical_orient(d) is c
        assert canonical_orient(c) is c
        assert c == oracles.canonical_orient(d)
        assert d.canonical is c


def test_every_swap_mask_canonicalises_to_one_tree():
    rng = np.random.default_rng(42)
    for d in sample_trees():
        want = oracles.canonical_orient(d)
        m = d.n_clusters
        if m <= 7:
            masks = itertools.product((False, True), repeat=m)
        else:
            masks = (rng.integers(0, 2, size=m).astype(bool).tolist() for _ in range(40))
        for mask in masks:
            swapped = apply_swap(d, mask)
            assert canonical_orient(swapped) == want
            assert encode(swapped)[0] == encode(d)[0]


def test_validation_matches_the_set_based_oracle():
    """Random defects in valid merge lists get the oracle's verdict and message."""
    rng = np.random.default_rng(7)
    rejected = 0
    for d in random_trees(150, 9, seed=43):
        merges = [list(pair) for pair in d.merges]
        refs = [node for pair in d.merges for node in pair]
        k = int(rng.integers(len(merges)))
        side = int(rng.integers(2))
        kind = int(rng.integers(4))
        if kind == 0:  # a node merged twice, another never
            merges[k][side] = refs[int(rng.integers(len(refs)))]
        elif kind == 1:  # a terminal beyond n
            merges[k][side] = terminal(d.n_terminals + int(rng.integers(1, 3)))
        elif kind == 2:  # a cluster that does not rank below its parent
            merges[k][side] = cluster(k + 1 + int(rng.integers(2)))
        else:  # a merge of one node
            merges[k] = merges[k][:1]
        merges = tuple(tuple(pair) for pair in merges)
        try:
            oracles.check_merges(d.labels, merges)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                Dendrogram(d.labels, merges)
            assert str(got.value) == str(exc)
            rejected += 1
        else:
            assert Dendrogram(d.labels, merges).merges == merges
    assert rejected > 100
