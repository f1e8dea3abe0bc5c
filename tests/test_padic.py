from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_trees
from strategies import coeff_vectors, dendrograms

from dendrowave.padic import (
    PAdicCode,
    cluster_code,
    code_from_decimal,
    decode,
    dilate,
    dilate_tree,
    dilation_operator_norm,
    dilation_steps_to_null,
    encode,
    padd,
    parse_code,
    pdistance,
    pmultiply,
    pnorm,
    poly_from_code,
    power_repr,
)
from dendrowave.tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    canonical_orient,
    cluster,
    random_dendrogram,
    terminal,
)

GOLDEN_CODES = (
    "+p^1+p^2+p^5+p^7",
    "-p^1+p^2+p^5+p^7",
    "-p^2+p^5+p^7",
    "+p^3+p^4-p^5+p^7",
    "-p^3+p^4-p^5+p^7",
    "-p^4-p^5+p^7",
    "+p^6-p^7",
    "-p^6-p^7",
)

GOLDEN_MATRIX = np.array(
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

GOLDEN_DECIMALS = (2442, 2436, 2421, 2052, 1998, 1863, -1458, -2916)

GOLDEN_CLUSTER_CODES = (
    "+p^2+p^5+p^7",
    "+p^5+p^7",
    "+p^4-p^5+p^7",
    "-p^5+p^7",
    "+p^7",
    "-p^7",
    "0",
)


def lca_node(d: Dendrogram, u: NodeRef, v: NodeRef) -> NodeRef:
    su, sv = d.term_set(u), d.term_set(v)
    if su <= sv:
        return v
    if sv <= su:
        return u
    both = su | sv
    for k in range(1, d.n_clusters + 1):
        if both <= d.term_set(cluster(k)):
            return cluster(k)
    raise AssertionError("root contains everything")


def all_nodes(d: Dendrogram) -> list[NodeRef]:
    return [terminal(i) for i in range(1, d.n_terminals + 1)] + [
        cluster(k) for k in range(1, d.n_clusters + 1)
    ]


def test_demo_codes_match_golden(demo8):
    codes, signs = encode(demo8)
    assert [c.to_string() for c in codes] == list(GOLDEN_CODES)
    assert np.array_equal(signs, GOLDEN_MATRIX)


def test_demo_decimals(demo8):
    codes, _ = encode(demo8)
    # independent evaluation of the same power sums
    oracle = [sum(c * 3**j for j, c in enumerate(code.coeffs, start=1)) for code in codes]
    assert [code.decimal() for code in codes] == oracle
    assert tuple(oracle) == GOLDEN_DECIMALS
    assert len(set(oracle)) == len(oracle)


def test_encode_is_orientation_invariant(demo8):
    from dendrowave.tree import apply_swap

    flipped = apply_swap(demo8, (True, False, True, False, True, False, True))
    codes, signs = encode(flipped)
    assert [c.to_string() for c in codes] == list(GOLDEN_CODES)
    assert np.array_equal(signs, GOLDEN_MATRIX)


def test_base_two_collision():
    a = PAdicCode((1, 0), base=2)
    b = PAdicCode((-1, 1), base=2)
    assert a.decimal() == b.decimal() == 2
    assert a.decimal(base=3) == 3
    assert b.decimal(base=3) == 6


def test_unanimity_sums(demo8):
    codes, _ = encode(demo8)

    def s(i, j):
        return padd(codes[i - 1], codes[j - 1]).to_string()

    assert s(1, 2) == "+p^2+p^5+p^7"
    assert s(1, 3) == "+p^5+p^7"
    assert s(1, 7) == "0"
    assert s(3, 6) == "+p^7"
    assert s(5, 8) == "0"


@settings(max_examples=80, deadline=None)
@given(coeff_vectors(6), coeff_vectors(6), coeff_vectors(6))
def test_padd_properties(ca, cb, cc):
    a, b, c = PAdicCode(ca), PAdicCode(cb), PAdicCode(cc)
    assert padd(a, b) == padd(b, a)
    assert padd(padd(a, b), c) == padd(a, padd(b, c))
    assert padd(a, a) == a
    null = PAdicCode((0,) * 6)
    assert padd(a, null).is_null


def test_padd_context_mismatch():
    with pytest.raises(ValidationError):
        padd(PAdicCode((1, 0)), PAdicCode((1, 0, 0)))
    with pytest.raises(ValidationError):
        padd(PAdicCode((1, 0), base=3), PAdicCode((1, 0), base=5))


def test_cluster_codes_golden(demo8):
    got = [cluster_code(demo8, cluster(k)).to_string() for k in range(1, 8)]
    assert got == list(GOLDEN_CLUSTER_CODES)
    assert cluster_code(demo8, cluster(7)).is_null


def test_cluster_code_of_terminal_is_own_code(demo8):
    codes, _ = encode(demo8)
    for i in range(1, 9):
        assert cluster_code(demo8, terminal(i)) == codes[i - 1]


def test_fold_and_root_path_agree_everywhere():
    # cluster_code raises if its two computations disagree
    for d in random_trees(25, 12, seed=21):
        for node in all_nodes(d):
            cluster_code(d, node)


def test_sum_of_two_nodes_is_their_lca_code():
    for d in random_trees(25, 10, seed=22):
        c = canonical_orient(d)
        nodes = all_nodes(c)
        for u in nodes:
            for v in nodes:
                if u == v or c.term_set(u) & c.term_set(v):
                    continue
                joined = padd(cluster_code(c, u), cluster_code(c, v))
                assert joined == cluster_code(c, lca_node(c, u, v))


def test_norm_of_sum_never_exceeds_larger_norm():
    for d in random_trees(20, 10, seed=23):
        c = canonical_orient(d)
        nodes = all_nodes(c)
        for u in nodes:
            for v in nodes:
                if u == v or c.term_set(u) & c.term_set(v):
                    continue
                lca = lca_node(c, u, v)
                assert pnorm(c, lca) <= max(pnorm(c, u), pnorm(c, v))


def test_pmultiply():
    assert pmultiply({1: 1}, {1: 1}, 8) == {2: 1}
    assert pmultiply({0: 1}, {1: 1, 4: -1}, 8) == {1: 1, 4: -1}
    assert pmultiply({1: 1, 2: 1}, {1: 1, 2: -1}, 8) == {2: 1, 4: -1}
    # powers past p^(n-1) fall off the truncation edge
    assert pmultiply({3: 1}, {3: 1}, 4) == {}
    assert pmultiply({}, {2: 1}, 8) == {}


def test_poly_from_code(demo8):
    codes, _ = encode(demo8)
    assert poly_from_code(codes[0]) == {1: 1, 2: 1, 5: 1, 7: 1}


def test_dilation_worked_example():
    code = PAdicCode((1, 1, 0, 0, 1, 0, 1), base=2)
    assert code.to_string("2") == "+2^1+2^2+2^5+2^7"
    assert dilate(code).to_string("2") == "+2^1+2^4+2^6"


def test_dilation_drains_every_demo_code(demo8):
    codes, _ = encode(demo8)
    for code in codes:
        assert dilation_steps_to_null(code) == 7
    null = PAdicCode((0,) * 7)
    assert dilation_steps_to_null(null) == 0
    assert dilate(null) == null


def test_dilate_keeps_a_code_of_one_terminal_empty():
    assert dilate(PAdicCode(())) == PAdicCode(())
    (code,), _ = encode(random_dendrogram(1, 0))
    assert dilate(code).n_terminals == code.n_terminals == 1
    for d in random_trees(10, 12, seed=29):  # every dilation keeps the code's length
        for code in encode(d)[0]:
            assert dilate(code).n_terminals == d.n_terminals


def test_steps_to_null_is_highest_power():
    for d in random_trees(20, 12, seed=24):
        codes, _ = encode(d)
        for code in codes:
            assert dilation_steps_to_null(code) == max(code.support())
            assert dilation_steps_to_null(code) <= d.n_terminals - 1


def test_dilate_tree_demo(demo8):
    small = dilate_tree(demo8)
    assert small.n_terminals == 7
    assert small.labels[0] == "x1+x2"
    assert small.labels[1:] == ("x3", "x4", "x5", "x6", "x7", "x8")
    # old rank-2 merge (q1, x3) becomes the new first merge (fused, x3)
    assert small.children(1) == (terminal(1), terminal(2))
    assert small.term_set(cluster(1)) == frozenset({1, 2})


def test_dilate_tree_matches_code_dilation():
    for d in random_trees(20, 10, seed=25):
        c = canonical_orient(d)
        old_codes, _ = encode(c)
        small = dilate_tree(c)
        new_codes, _ = encode(small)
        a, b = c.children(1)
        for new_i in range(1, small.n_terminals + 1):
            old_i = new_i if new_i < b.index else new_i + 1
            want = dilate(old_codes[old_i - 1]).coeffs[: small.n_terminals - 1]
            assert new_codes[new_i - 1].coeffs == want
        # the fused terminal sits where the kept child was
        fused = new_codes[a.index - 1]
        assert fused.coeffs == dilate(old_codes[b.index - 1]).coeffs[: small.n_terminals - 1]


def test_dilate_tree_stops_at_one_terminal():
    with pytest.raises(ValidationError):
        dilate_tree(Dendrogram(labels=("x1",), merges=()))


def test_norms_golden(demo8):
    assert pnorm(demo8, terminal(1)) == 1
    assert pnorm(demo8, cluster(2)) == Fraction(1, 9)
    assert pnorm(demo8, cluster(4)) == Fraction(1, 81)
    assert pnorm(demo8, cluster(7)) == 0
    assert dilation_operator_norm() == 3
    assert dilation_operator_norm(5) == 5


def test_norm_of_a_numpy_rank_is_exact():
    """A numpy index is stored as a Python int, so p**rank cannot wrap around int64."""
    d = random_dendrogram(50, 4)
    for rank in (40, np.int64(40), np.uint64(40)):
        assert pnorm(d, cluster(rank), 3) == Fraction(1, 3**40)
    assert pdistance(cluster(np.int32(40)), cluster(np.int8(41)), d=d) == pdistance(cluster(40), cluster(41), d=d)


def test_power_repr():
    assert power_repr(Fraction(0), 3) == "0"
    assert power_repr(Fraction(1), 3) == "1"
    assert power_repr(Fraction(1, 9), 3) == "p^-2"
    assert power_repr(Fraction(3), 3) == "p^1"
    assert power_repr(Fraction(2), 3) == "2"


def test_distances_golden(demo8):
    pairs = {
        (1, 2): Fraction(1, 3),
        (1, 4): Fraction(1, 243),
        (1, 5): Fraction(1, 243),
        (3, 6): Fraction(1, 243),
        (5, 8): Fraction(1, 2187),
    }
    for (i, j), want in pairs.items():
        assert pdistance(terminal(i), terminal(j), demo8) == want
    assert pdistance(cluster(1), cluster(3), demo8) == Fraction(1, 243)
    assert pdistance(cluster(2), cluster(6), demo8) == Fraction(1, 2187)


def test_distance_conventions(demo8):
    codes, _ = encode(demo8)
    assert pdistance(codes[0], codes[0]) == 0
    # the null code shares support with nothing: coarsest distance
    assert pdistance(terminal(1), cluster(7), demo8) == Fraction(1, 3**7)
    with pytest.raises(ValidationError):
        pdistance(terminal(1), terminal(2))


def test_terminal_distance_is_lca_rank():
    for d in random_trees(25, 12, seed=26):
        for i in range(1, d.n_terminals + 1):
            for j in range(i + 1, d.n_terminals + 1):
                r = d.lca(i, j).rank
                assert pdistance(terminal(i), terminal(j), d) == Fraction(1, 3**r)


def test_distance_triangles_are_isosceles():
    # Every triple is isosceles: the two smallest distances coincide, so
    # d(x,z) >= min(d(x,y), d(y,z)) holds throughout.  Taking -log_p turns
    # these values into the cophenetic rank matrix, which satisfies the
    # usual max-side inequality; that direction is covered by
    # test_terminal_distance_is_lca_rank together with the cophenetic tests.
    for d in random_trees(15, 9, seed=27):
        codes, _ = encode(d)
        n = d.n_terminals
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    sides = sorted(
                        (
                            pdistance(codes[i], codes[j]),
                            pdistance(codes[i], codes[k]),
                            pdistance(codes[j], codes[k]),
                        )
                    )
                    assert sides[0] == sides[1] <= sides[2]
                    assert sides[2] >= sides[0]


def test_string_roundtrip(demo8):
    codes, _ = encode(demo8)
    for code in codes:
        assert parse_code(code.to_string(), 8) == code
        assert parse_code(code.to_string("3"), 8) == code
    assert parse_code("0", 8).is_null


def test_parse_code_errors():
    with pytest.raises(ValidationError, match="exponent"):
        parse_code("+p^9", 8)
    with pytest.raises(ValidationError, match="repeated"):
        parse_code("+p^1-p^1", 8)
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_code("p^1", 8)
    with pytest.raises(ValidationError, match="symbol"):
        parse_code("+q^1", 8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_code("+p^1x+p^2", 4), "cannot parse code at 'x+p^2'"),
        (lambda: code_from_decimal(10, 4, 5), "10 is not the value of any code in base 5"),
        (lambda: decode(np.zeros(3)), "branch codes must form a 2-d matrix"),
        (lambda: decode(np.zeros((3, 3))), "matrix must be n x (n-1), got 3 x 3"),
    ],
    ids=["parse-gap", "decimal-digit", "decode-1d", "decode-square"],
)
def test_refusals_name_their_fault(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_code("0", -1), "n_terminals must be an integer >= 1, got -1"),
        (lambda: parse_code("0", 0), "n_terminals must be an integer >= 1, got 0"),
        (lambda: parse_code("+p^1", 2.0), "n_terminals must be an integer >= 1, got 2.0"),
        (lambda: parse_code("0", True), "n_terminals must be an integer >= 1, got True"),
        (lambda: code_from_decimal(0, -2), "n_terminals must be an integer >= 1, got -2"),
        (lambda: code_from_decimal(0, 4.0), "n_terminals must be an integer >= 1, got 4.0"),
        (lambda: code_from_decimal(3.0, 3), "value must be an integer, got 3.0"),
        (lambda: code_from_decimal(True, 3), "value must be an integer, got True"),
        (lambda: code_from_decimal("3", 3), "value must be an integer, got '3'"),
        (lambda: power_repr(float("nan"), 3), "value must be a rational number, got nan"),
        (lambda: power_repr(float("inf"), 3), "value must be a rational number, got inf"),
        (lambda: power_repr(float("-inf"), 3), "value must be a rational number, got -inf"),
        (lambda: power_repr("abc", 3), "value must be a rational number, got 'abc'"),
        (lambda: power_repr("1/0", 3), "value must be a rational number, got '1/0'"),
        (lambda: power_repr(None, 3), "value must be a rational number, got None"),
        (lambda: parse_code(5, 3), "text must be a str, got 5"),
        (lambda: parse_code(b"0", 3), "text must be a str, got b'0'"),
    ],
    ids=["parse-negative", "parse-zero", "parse-float", "parse-bool", "decimal-negative", "decimal-float-count",
         "decimal-float", "decimal-bool", "decimal-text", "power-nan", "power-inf", "power-minus-inf",
         "power-text", "power-zero-denominator", "power-none", "parse-int-text", "parse-bytes-text"],
)
def test_the_code_builders_refuse_bad_arguments(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_the_code_builders_take_numpy_integers_and_one_terminal():
    assert code_from_decimal(np.int64(-3), np.int64(3)) == PAdicCode((-1, 0))
    assert parse_code("0", 1) == code_from_decimal(0, 1) == PAdicCode(())
    assert power_repr(np.int64(9), 3) == "p^2" and power_repr(0.25, 2) == "p^-2"


@settings(max_examples=100, deadline=None)
@given(coeff_vectors(7))
def test_decimal_roundtrip_base_three(coeffs):
    code = PAdicCode(coeffs)
    assert code_from_decimal(code.decimal(), 8) == code


def test_code_from_decimal_rejections():
    with pytest.raises(ValidationError, match="base 2"):
        code_from_decimal(2, 8, base=2)
    with pytest.raises(ValidationError, match="p\\^0"):
        code_from_decimal(1, 8)
    with pytest.raises(ValidationError):
        code_from_decimal(2, 8)
    with pytest.raises(ValidationError, match="beyond"):
        code_from_decimal(3**9, 8)
    assert code_from_decimal(0, 8).is_null


def test_decode_golden_matrix(demo8):
    assert decode(GOLDEN_MATRIX, labels=demo8.labels) == demo8


def test_decode_inverts_encode():
    for d in random_trees(40, 20, seed=28):
        codes, signs = encode(d)
        want = canonical_orient(d)
        assert decode(signs, labels=d.labels) == want
        assert decode(codes, labels=d.labels) == want


def test_decode_rejects_non_laminar():
    bad = np.array([[1, 1], [-1, 0], [0, -1]], dtype=np.int8)
    with pytest.raises(ValidationError, match="column cluster_2:"):
        decode(bad)


def test_decode_rejects_bad_entries():
    with pytest.raises(ValidationError):
        decode(np.array([[2, 1], [-1, 1], [0, -1]], dtype=np.int8))
    with pytest.raises(ValidationError):
        decode(np.array([[1, 1], [1, 1], [0, -1]], dtype=np.int8))


def test_code_validation():
    with pytest.raises(ValidationError):
        PAdicCode((2, 0))
    with pytest.raises(ValidationError):
        PAdicCode((1, 0), base=1)


BAD_BASES = [0, 1, -3, 2.5, True, np.True_, "3"]


@pytest.mark.parametrize("base", BAD_BASES, ids=repr)
def test_every_call_that_takes_a_base_rejects_a_bad_one(demo8, base):
    codes, _ = encode(demo8)
    calls = [
        lambda: PAdicCode((1, 0, -1), base),
        lambda: encode(demo8, base),
        lambda: cluster_code(demo8, cluster(2), base),
        lambda: pnorm(demo8, cluster(2), base),
        lambda: pnorm(demo8, terminal(1), base),
        lambda: pdistance(codes[0], codes[1], base=base),
        lambda: pdistance(terminal(1), terminal(2), demo8, base),
        lambda: code_from_decimal(3, 4, base),
        lambda: codes[0].decimal(base),
        lambda: power_repr(Fraction(0), base),
        lambda: dilation_operator_norm(base),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^base must be an integer >= 2, got "):
            call()


def test_a_numpy_integer_base_gives_what_the_python_int_gives():
    d = random_dendrogram(70, 29)
    top = d.n_clusters
    for base in (np.int64(3), np.int32(5), np.uint8(2)):
        p = int(base)
        codes, _ = encode(d, base)
        want, _ = encode(d, p)
        assert codes == want and all(type(c.base) is int for c in codes)
        assert [c.decimal() for c in codes] == [c.decimal(base) for c in want]
        assert PAdicCode((1, 0, -1), base).base == p
        for k in (1, top // 2, top - 1, top):
            assert pnorm(d, cluster(k), base) == pnorm(d, cluster(k), p)
            assert cluster_code(d, cluster(k), base) == cluster_code(d, cluster(k), p)
        for i, j in ((1, 2), (3, d.n_terminals), (d.n_terminals - 1, 5)):
            got = pdistance(terminal(i), terminal(j), d, base)
            assert got == pdistance(terminal(i), terminal(j), d, p) > 0
            assert pdistance(codes[i - 1], codes[j - 1]) == got
        assert pdistance(terminal(1), cluster(top), d, base) == Fraction(1, p**top)
        assert power_repr(Fraction(1, p**7), base) == "p^-7"
        assert dilation_operator_norm(base) == p
    value = encode(d)[0][0].decimal()
    assert code_from_decimal(value, d.n_terminals, np.int64(3)) == encode(d)[0][0]
