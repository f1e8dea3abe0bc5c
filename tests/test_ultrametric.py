import numpy as np
import pytest

from conftest import random_trees

from dendrowave.hcluster import agglomerate, pairwise_euclidean
from dendrowave.tree import ValidationError, build_from_merges, terminal, cluster
from dendrowave.ultrametric import (
    ball,
    canonical_form,
    check_ball_axioms,
    cophenetic,
    distance_from_proximity,
    is_ultrametric,
    matrix_from_csv,
    matrix_to_csv,
    proximity_from_distance,
    triangle_classify,
)

EUCLID_LINE = pairwise_euclidean([0.0, 3.0, 4.0])


def test_cophenetic_ranks_demo(demo8):
    M = cophenetic(demo8)
    assert M.dtype == np.int64
    assert list(M[0]) == [0, 1, 2, 5, 5, 5, 7, 7]
    assert list(M[6]) == [7, 7, 7, 7, 7, 7, 0, 6]
    assert np.array_equal(M, M.T)


def test_cophenetic_levels():
    d = build_from_merges(
        [(terminal(1), terminal(2)), (cluster(1), terminal(3))],
        levels=[0.5, 2.5],
    )
    M = cophenetic(d, use="levels")
    assert np.allclose(M, [[0, 0.5, 2.5], [0.5, 0, 2.5], [2.5, 2.5, 0]])


def test_cophenetic_levels_require_levels(demo8):
    with pytest.raises(ValidationError, match="no levels"):
        cophenetic(demo8, use="levels")
    with pytest.raises(ValidationError):
        cophenetic(demo8, use="heights")


def test_cophenetic_ranks_always_pass_exactly():
    for d in random_trees(60, 16, seed=71):
        assert is_ultrametric(cophenetic(d), tol=0).ok


def test_cophenetic_levels_always_pass():
    for d in random_trees(40, 12, seed=72, with_levels=True):
        assert is_ultrametric(cophenetic(d, use="levels"), tol=0).ok


def test_euclidean_line_fails_with_usable_witness():
    verdict = is_ultrametric(EUCLID_LINE)
    assert not verdict.ok
    x, y, z = verdict.witness
    assert EUCLID_LINE[x, z] > max(EUCLID_LINE[x, y], EUCLID_LINE[y, z])
    assert "max" in verdict.detail or ">" in verdict.detail


def test_tolerance_absorbs_tiny_noise(demo8):
    M = cophenetic(demo8).astype(float)
    rng = np.random.default_rng(73)
    noise = rng.uniform(-1e-12, 1e-12, size=M.shape)
    noise = (noise + noise.T) / 2
    np.fill_diagonal(noise, 0.0)
    assert is_ultrametric(M + noise, tol=1e-9).ok
    assert not is_ultrametric(M + noise, tol=0).ok or np.allclose(noise, 0)


def test_triangle_census_demo(demo8):
    census = triangle_classify(cophenetic(demo8))
    assert census.equilateral == 0
    assert census.isosceles_small_base == 56
    assert census.violating == 0
    assert census.total == 56


def test_triangle_census_equilateral():
    M = np.ones((4, 4)) - np.eye(4)
    census = triangle_classify(M)
    assert census.equilateral == 4
    assert census.total == 4


def test_triangle_census_flags_violations():
    census = triangle_classify(EUCLID_LINE)
    assert census.violating == 1
    assert census.total == 1


def test_census_agrees_with_validator():
    rng = np.random.default_rng(74)
    for d in random_trees(20, 10, seed=75):
        M = cophenetic(d)
        assert triangle_classify(M, tol=0).violating == 0
    for _ in range(10):
        X = rng.normal(size=(7, 2))
        M = pairwise_euclidean(X)
        violating = triangle_classify(M).violating
        assert (violating == 0) == is_ultrametric(M).ok


def test_canonical_form_demo_leaf_order(demo8):
    M = cophenetic(demo8)
    A, verdict = canonical_form(M, list(range(8)))
    assert verdict.ok
    assert np.array_equal(A, M)


def test_canonical_form_random_trees_under_own_leaf_order():
    for d in random_trees(30, 12, seed=76):
        M = cophenetic(d)
        order = [i - 1 for i in d.leaf_order()]
        _, verdict = canonical_form(M, order)
        assert verdict.ok


def test_canonical_form_rejects_bad_order(demo8):
    M = cophenetic(demo8)
    A, verdict = canonical_form(M, [0, 3, 1, 2, 4, 5, 6, 7])
    assert not verdict.ok
    assert verdict.witness is not None
    with pytest.raises(ValidationError, match="permutation"):
        canonical_form(M, [0, 0, 1, 2, 3, 4, 5, 6])


def test_canonical_form_rejects_non_ultrametric_layouts():
    _, verdict = canonical_form(EUCLID_LINE, [0, 2, 1])
    assert not verdict.ok


def test_balls_demo(demo8):
    M = cophenetic(demo8)
    assert ball(M, 0, 0) == frozenset({0})
    assert ball(M, 0, 1) == frozenset({0, 1})
    assert ball(M, 0, 2) == frozenset({0, 1, 2})
    assert ball(M, 0, 5) == frozenset(range(6))
    assert ball(M, 0, 7) == frozenset(range(8))
    assert ball(M, 7, 6) == frozenset({6, 7})


def test_ball_rejections(demo8):
    M = cophenetic(demo8)
    with pytest.raises(ValidationError):
        ball(M, 9, 1)
    with pytest.raises(ValidationError):
        ball(M, 0, -1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda M: is_ultrametric(M, tol=True), "tol must be a finite nonnegative number, got True"),
        (lambda M: triangle_classify(M, tol=False), "tol must be a finite nonnegative number, got False"),
        (lambda M: canonical_form(M, range(8), tol=True), "tol must be a finite nonnegative number, got True"),
        (lambda M: ball(M, 0, True), "radius must be a real number other than NaN, got True"),
        (lambda M: check_ball_axioms(M, radii=[True]), "radius must be a real number other than NaN, got True"),
        (lambda M: check_ball_axioms(M, radii=[1, False]), "radius must be a real number other than NaN, got False"),
    ],
    ids=["is_ultrametric", "triangle_classify", "canonical_form", "ball", "ball-axioms", "ball-axioms-later"],
)
def test_a_bool_is_no_tolerance_or_radius(demo8, call, message):
    with pytest.raises(ValidationError) as exc:
        call(cophenetic(demo8))
    assert str(exc.value) == message


def test_ball_axioms_random_trees():
    for d in random_trees(15, 12, seed=77):
        assert check_ball_axioms(cophenetic(d)).ok
    for d in random_trees(10, 8, seed=78, with_levels=True):
        assert check_ball_axioms(cophenetic(d, use="levels")).ok


def test_ball_axioms_refuse_non_ultrametric():
    with pytest.raises(ValidationError, match="not ultrametric"):
        check_ball_axioms(EUCLID_LINE)


def test_proximity_duality(demo8):
    M = cophenetic(demo8).astype(float)
    P = proximity_from_distance(M)
    assert np.all(np.isposinf(np.diag(P)))
    back = distance_from_proximity(P)
    assert np.allclose(back, M)
    n = M.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    assert P[i, k] >= min(P[i, j], P[j, k]) - 1e-12


def test_matrix_csv_roundtrip(demo8):
    M = cophenetic(demo8)
    text = matrix_to_csv(M, demo8.labels)
    labels, back = matrix_from_csv(text)
    assert labels == list(demo8.labels)
    assert np.array_equal(back, M.astype(float))
    assert text.splitlines()[0] == "x1,x2,x3,x4,x5,x6,x7,x8"


def test_matrix_csv_errors():
    with pytest.raises(ValidationError, match="row 3, column 2"):
        matrix_from_csv("a,b\n0,1\n1,oops\n")
    with pytest.raises(ValidationError, match="rows follow"):
        matrix_from_csv("a,b\n0,1\n")
    with pytest.raises(ValidationError, match="empty"):
        matrix_from_csv("")
    with pytest.raises(ValidationError, match="expected 2 values"):
        matrix_from_csv("a,b\n0,1,2\n1,0\n")
    with pytest.raises(ValidationError, match=r"^1 labels for a 2-row matrix$"):
        matrix_to_csv(np.zeros((2, 2)), ["a"])


def test_is_ultrametric_input_checks():
    with pytest.raises(ValidationError, match="symmetric"):
        is_ultrametric([[0.0, 1.0], [2.0, 0.0]])
    single = is_ultrametric(np.zeros((1, 1)))
    assert single.ok


def test_cophenetic_composes_with_clustering():
    rng = np.random.default_rng(79)
    X = rng.normal(size=(11, 3))
    d = agglomerate(pairwise_euclidean(X), "complete")
    assert is_ultrametric(cophenetic(d, use="levels")).ok
