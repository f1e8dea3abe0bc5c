import json
from fractions import Fraction

import numpy as np
import pytest

from dendrowave.haar import forward, inverse
from dendrowave.pway import (
    B3_SPLINE,
    BOX,
    TRIANGLE,
    PWayTree,
    ScalingFilter,
    build_pway,
    convolve_filters,
    from_json,
    random_pway_tree,
    scaling_filters,
    to_json,
    unfold,
)
from dendrowave.tree import ValidationError, cluster, terminal


def test_single_three_way_node():
    t = build_pway(3, [(terminal(1), terminal(2), terminal(3))])
    assert t.n_terminals == 3 and t.n_internal == 1
    d = unfold(t)
    assert d.merges == (
        (terminal(1), terminal(2)),
        (cluster(1), terminal(3)),
    )


def test_two_level_three_way():
    t = build_pway(
        3,
        [
            (terminal(1), terminal(2), terminal(3)),
            (cluster(1), terminal(4), terminal(5)),
        ],
    )
    d = unfold(t)
    assert d.merges == (
        (terminal(1), terminal(2)),
        (cluster(1), terminal(3)),
        (cluster(2), terminal(4)),
        (cluster(3), terminal(5)),
    )
    # top of each chain carries the p-way node's terminal set
    assert d.term_set(cluster(2)) == t.term_set(cluster(1))
    assert d.term_set(cluster(4)) == t.term_set(cluster(2))


def test_binary_pway_unfolds_to_itself():
    t = build_pway(
        2,
        [
            (terminal(1), terminal(2)),
            (cluster(1), terminal(3)),
        ],
    )
    d = unfold(t)
    assert d.merges == t.merges
    assert d.labels == t.labels


def test_unfold_preserves_the_cluster_family():
    rng = np.random.default_rng(81)
    for arity in (3, 5):
        for _ in range(20):
            t = random_pway_tree(int(rng.integers(1, 6)), arity, rng)
            d = unfold(t)
            binary_family = {
                d.term_set(cluster(k)) for k in range(1, d.n_clusters + 1)
            }
            for k in range(1, t.n_internal + 1):
                members = t.term_set(cluster(k))
                assert members in binary_family
                assert members == d.term_set(cluster(k * (arity - 1)))


def test_unfold_feeds_the_transform():
    rng = np.random.default_rng(82)
    t = random_pway_tree(4, 3, rng)
    d = unfold(t)
    X = rng.normal(size=(d.n_terminals, 2))
    w = forward(X, d)
    assert np.max(np.abs(inverse(w) - X)) < 1e-9


def test_labels_flow_through_unfold():
    t = build_pway(3, [(terminal(1), terminal(2), terminal(3))], labels=("a", "b", "c"))
    assert unfold(t).labels == ("a", "b", "c")


def test_pway_validation():
    with pytest.raises(ValidationError, match="arity"):
        PWayTree(1, ("a",), ())
    with pytest.raises(ValidationError, match="labels"):
        build_pway(3, [(terminal(1), terminal(2), terminal(3))], labels=("a", "b"))
    with pytest.raises(ValidationError, match="expected 3 children"):
        build_pway(3, [(terminal(1), terminal(2))])
    with pytest.raises(ValidationError, match="already merged"):
        PWayTree(
            3,
            ("a", "b", "c", "d", "e"),
            (
                (terminal(1), terminal(2), terminal(3)),
                (cluster(1), terminal(4), terminal(4)),
            ),
        )
    with pytest.raises(ValidationError, match="out of range"):
        build_pway(3, [(terminal(1), terminal(2), terminal(9))])


def test_term_set_rejects_unknown_nodes():
    t = build_pway(3, [(terminal(1), terminal(2), terminal(3))])
    with pytest.raises(ValidationError):
        t.term_set(cluster(2))
    with pytest.raises(ValidationError):
        t.term_set(terminal(4))


def test_random_pway_reproducible():
    a = random_pway_tree(3, 5, np.random.default_rng(83))
    b = random_pway_tree(3, 5, np.random.default_rng(83))
    assert a == b
    assert a.n_terminals == 3 * 4 + 1


def test_filter_catalog_exact_values():
    catalog = scaling_filters()
    assert catalog["box"].coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert catalog["triangle"].coefficients == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert catalog["b3_spline"].coefficients == (
        Fraction(1, 16),
        Fraction(1, 4),
        Fraction(3, 8),
        Fraction(1, 4),
        Fraction(1, 16),
    )


def test_filters_arise_from_box_convolutions():
    assert convolve_filters(BOX.coefficients, BOX.coefficients) == TRIANGLE.coefficients
    twice = convolve_filters(TRIANGLE.coefficients, BOX.coefficients)
    assert convolve_filters(twice, BOX.coefficients) == B3_SPLINE.coefficients


def test_filter_sums_are_one():
    for f in scaling_filters().values():
        assert sum(f.coefficients, Fraction(0)) == 1


def test_filter_validation():
    with pytest.raises(ValidationError, match="sum to 1"):
        ScalingFilter("broken", (Fraction(1, 2), Fraction(1, 4)))


def test_pway_json_roundtrip():
    rng = np.random.default_rng(84)
    t = random_pway_tree(3, 3, rng)
    assert from_json(to_json(t)) == t


def test_pway_json_errors():
    with pytest.raises(ValidationError):
        from_json("{}")
    with pytest.raises(ValidationError):
        from_json('{"format": "pway_tree", "arity": 1}')


@pytest.mark.parametrize(
    "merge, where",
    [
        ({"rank": True, "children": [{"terminal": 1}, {"terminal": 2}]}, "integer rank"),
        ({"rank": 1, "children": [{"terminal": True}, {"terminal": 2}]}, r"merges\[0\]: bad node"),
    ],
    ids=["rank", "terminal"],
)
def test_pway_json_rejects_booleans_as_integers(merge, where):
    doc = {"format": "pway_tree", "arity": 2, "terminals": ["a", "b"], "merges": [merge]}
    with pytest.raises(ValidationError, match=where):
        from_json(json.dumps(doc))
    from_json(json.dumps(doc).replace("true", "1"))


def test_pway_json_checks_n_terminals_when_present():
    doc = json.loads(to_json(random_pway_tree(3, 3, np.random.default_rng(85))))
    assert doc["n_terminals"] == 7
    for bad in (99, True):
        with pytest.raises(ValidationError, match=f"n_terminals says {bad!r} but 7 labels given"):
            from_json(json.dumps({**doc, "n_terminals": bad}))
    del doc["n_terminals"]
    assert from_json(json.dumps(doc)).n_terminals == 7


ARITY_ERROR = r"^arity must be an integer >= 2, got "


@pytest.mark.parametrize("arity", [2.5, "3", None, True, np.True_, 1, 0, -3])
def test_arity_must_be_an_integer_of_at_least_two(arity):
    with pytest.raises(ValidationError, match=ARITY_ERROR):
        build_pway(arity, [(terminal(1), terminal(2))])
    with pytest.raises(ValidationError, match=ARITY_ERROR):
        random_pway_tree(3, arity)
    with pytest.raises(ValidationError, match=ARITY_ERROR):
        PWayTree(arity, ("a", "b", "c"), ((terminal(1), terminal(2), terminal(3)),))
    if not isinstance(arity, np.generic):  # from_json keeps its located message
        doc = {"format": "pway_tree", "arity": arity, "terminals": ["a"], "merges": []}
        with pytest.raises(ValidationError, match=r"^arity: expected an integer >= 2, got "):
            from_json(json.dumps(doc))


@pytest.mark.parametrize("n_internal", [2.5, "3", None, True, np.True_, 0, -3])
def test_random_pway_size_must_be_a_positive_integer(n_internal):
    with pytest.raises(ValidationError, match=r"^n_internal must be an integer >= 1, got "):
        random_pway_tree(n_internal, 3)


def test_numpy_integer_arity_is_stored_as_an_int():
    merges = ((terminal(1), terminal(2), terminal(3)),)
    t = PWayTree(np.int64(3), ("a", "b", "c"), merges)
    assert type(t.arity) is int and t == build_pway(3, merges, ("a", "b", "c"))
    assert json.loads(to_json(t))["arity"] == 3 and from_json(to_json(t)) == t
    for made in (build_pway(np.int32(3), merges), random_pway_tree(4, np.uint8(3), 86)):
        assert type(made.arity) is int and made.n_terminals == 2 * made.n_internal + 1
    assert random_pway_tree(np.int64(4), 3, 87) == random_pway_tree(4, 3, 87)
