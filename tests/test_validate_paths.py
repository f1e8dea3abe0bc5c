"""Differential tests: the one row-block square-matrix validator against the
two whole-matrix validators it replaced, and the ball axioms, validated
once, against the check that validated again for every ball (both kept in
oracles.py).  Also `check` of a dendrogram JSON, whose verdict now follows
from the tree's own validation, against the cophenetic verdict it no
longer computes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_trees

from dendrowave import cli, tree, ultrametric
from dendrowave.cli import main
from dendrowave.demo import walkthrough_tree
from dendrowave.haar import forward, forward_weighted
from dendrowave.hcluster import agglomerate, pairwise_euclidean, validate_dissimilarity
from dendrowave.pway import random_pway_tree, unfold
from dendrowave.tree import ValidationError, from_json, random_dendrogram, save_json, to_json
from dendrowave.ultrametric import (
    _checked_matrix,
    ball,
    canonical_form,
    check_ball_axioms,
    cophenetic,
    distance_from_proximity,
    is_ultrametric,
    proximity_from_distance,
)

# the ways each dtype can break a rule at one drawn cell (i, j)
BREAKS = {
    "int": ("asymmetric", "diagonal", "negative"),
    "bool": ("asymmetric", "diagonal"),
    "float": ("asymmetric", "diagonal", "negative", "nan", "inf", "near-symmetric", "minus-zero"),
}


def _break(M: np.ndarray, how: str, i: int, j: int) -> None:
    if how == "asymmetric":
        M[i, j] = not M[j, i] if M.dtype == bool else M[j, i] + 1
    elif how == "diagonal":
        M[i, i] = 1
    elif how == "negative":
        M[i, j] = M[j, i] = -1
    elif how == "nan":
        M[i, j] = np.nan
    elif how == "inf":
        M[i, j] = M[j, i] = np.inf
    elif how == "near-symmetric":  # within np.allclose's tolerance, so only exact checks object
        M[i, j] = M[j, i] * (1 + 1e-12) + 1e-13
    else:  # -0.0 is zero and not negative
        M[i, j] = M[j, i] = -0.0


@st.composite
def matrices(draw):
    """An int, bool or float matrix, square or not, with up to four rules broken."""
    kind = draw(st.sampled_from(sorted(BREAKS)))
    n = draw(st.integers(0, 12))
    values = {
        "int": st.integers(0, 9),
        "bool": st.booleans(),
        "float": st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e-300, 7.25, 100.0]),
    }[kind]
    M = np.zeros((n, n), dtype={"int": np.int64, "bool": bool, "float": float}[kind])
    upper = np.triu_indices(n, 1)
    M[upper] = draw(st.lists(values, min_size=len(upper[0]), max_size=len(upper[0])))
    M = M | M.T if kind == "bool" else M + M.T
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        cell = st.integers(0, n - 1)
        _break(M, draw(st.sampled_from(BREAKS[kind])), draw(cell), draw(cell))
    shape = draw(st.sampled_from(["square"] * 4 + ["wide", "flat", "stacked"]))
    if shape == "wide":
        return M[:, 1:]
    return M.ravel() if shape == "flat" else M[None] if shape == "stacked" else M


def outcome(check, M):
    """The message a check raises, or the dtype, shape and bytes it returns."""
    try:
        out = check(M)
    except ValidationError as exc:
        return str(exc)
    return out.dtype.str, out.shape, out.tobytes()


@settings(max_examples=400, deadline=None)
@given(matrices(), st.booleans(), st.sampled_from([37, tree._BLOCK_CELLS]))
def test_validator_matches_the_whole_matrix_checks(M, as_list, block_cells):
    given_M = M.tolist() if as_list else M
    with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
        got = outcome(_checked_matrix, given_M)
        assert got == outcome(oracles.checked_matrix_whole, given_M)
        assert outcome(validate_dissimilarity, given_M) == outcome(
            oracles.validate_dissimilarity_whole, given_M
        )
        if not isinstance(got, str) and not as_list:
            assert _checked_matrix(M) is M


@pytest.mark.parametrize("block_cells", [37, tree._BLOCK_CELLS])
@pytest.mark.parametrize("kind, how", [(kind, how) for kind in BREAKS for how in BREAKS[kind]])
def test_each_rule_broken_alone(kind, how, block_cells):
    dtype = {"int": np.int64, "bool": bool, "float": float}[kind]
    M = cophenetic(random_dendrogram(20, 4)).astype(dtype)
    _break(M, how, 17, 3)
    with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
        got = outcome(_checked_matrix, M), outcome(validate_dissimilarity, M)
        assert got == (
            outcome(oracles.checked_matrix_whole, M),
            outcome(oracles.validate_dissimilarity_whole, M),
        )
    want = {
        "asymmetric": ("is not symmetric", "is not symmetric"),
        "diagonal": ("needs a zero diagonal", "needs a zero diagonal"),
        "negative": ("distances must be nonnegative", "dissimilarities must be nonnegative"),
        "nan": ("contains non-finite entries", "contains non-finite entries"),
        "inf": ("contains non-finite entries", "contains non-finite entries"),
        "near-symmetric": ("is not symmetric", None),
        "minus-zero": (None, None),
    }[how]
    for message, expected in zip(got, want):
        assert expected in message if expected else not isinstance(message, str)


@pytest.mark.parametrize("block_cells", [37, tree._BLOCK_CELLS])
def test_the_first_rule_broken_anywhere_is_raised(block_cells):
    M = cophenetic(random_dendrogram(40, 5, with_levels=True), use="levels")
    with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
        assert len(tree._row_blocks(40, 40)) == (40 if block_cells == 37 else 1)
        cases = [
            # (first row's break, last row's break, the message)
            ("asymmetric", "nan", "distance matrix contains non-finite entries"),
            ("diagonal", "asymmetric", "distance matrix is not symmetric"),
            ("negative", "diagonal", "distance matrix needs a zero diagonal"),
        ]
        for early, late, message in cases:
            A = M.copy()
            _break(A, early, 0, 1)
            _break(A, late, 39, 38)
            with pytest.raises(ValidationError) as exc:
                _checked_matrix(A)
            assert str(exc.value) == message == outcome(oracles.checked_matrix_whole, A)


def test_float_matrices_are_kept_not_copied():
    M = cophenetic(random_dendrogram(30, 6, with_levels=True), use="levels")
    assert ultrametric._Distances(M).A is M
    assert validate_dissimilarity(M) is M
    assert _checked_matrix(M) is M


MALFORMED = {
    "ragged": [[0.0, 1.0], [1.0]],
    "complex": [[0, 1 + 1j], [1 - 1j, 0]],
    "complex, real-valued": np.zeros((3, 3), dtype=complex),
    "complex objects": np.array([[0, 1j], [1j, 0]], dtype=object),
    "text": [["0", "a"], ["a", "0"]],
    "dates": np.zeros((2, 2), dtype="datetime64[D]"),
}

CHECKS = {
    "validate_dissimilarity": validate_dissimilarity,
    "agglomerate": lambda M: agglomerate(M, "single"),
    "is_ultrametric": is_ultrametric,
    "ball": lambda M: ball(M, 0, 1),
    "check_ball_axioms": check_ball_axioms,
}


@pytest.mark.parametrize("bad", sorted(MALFORMED))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_malformed_matrices_raise_a_validation_error(check, bad):
    noun = "dissimilarity" if check in ("validate_dissimilarity", "agglomerate") else "distance"
    with pytest.raises(ValidationError, match=f"^{noun} matrix must be an array of real numbers$"):
        CHECKS[check](MALFORMED[bad])


def test_numbers_as_text_read_as_the_floats_they_spell():
    M = cophenetic(random_dendrogram(9, 3, with_levels=True), use="levels")
    text = M.astype(str)
    assert is_ultrametric(text) == is_ultrametric(M)
    assert ball(text, 0, M[0, 4]) == ball(M, 0, M[0, 4])
    assert check_ball_axioms(text) == check_ball_axioms(M)
    want = outcome(oracles.validate_dissimilarity_whole, text)
    assert outcome(validate_dissimilarity, text) == want == outcome(validate_dissimilarity, M)


DATA = {
    "forward": lambda X: forward(X, random_dendrogram(3, 1)),
    "forward_weighted": lambda X: forward_weighted(X, random_dendrogram(3, 1)),
    "pairwise_euclidean": pairwise_euclidean,
}
MALFORMED_DATA = {
    "ragged": [[1.0, 2.0], [3.0], [4.0, 5.0]],
    "complex": np.full((3, 2), 1 + 1j),
    "complex, real-valued": np.ones((3, 2), dtype=complex),
    "text": [["a"], ["b"], ["c"]],
}


@pytest.mark.parametrize("bad", sorted(MALFORMED_DATA))
@pytest.mark.parametrize("check", sorted(DATA))
def test_malformed_data_raise_a_validation_error(check, bad):
    with pytest.raises(ValidationError, match="^data must be an array of real numbers$"):
        DATA[check](MALFORMED_DATA[bad])


@pytest.mark.parametrize("check", sorted(DATA))
def test_data_keep_their_shape_and_finiteness_messages(check):
    DATA[check]([["0", "1"], ["2", "3"], ["4", "5"]])  # numbers as text are read as floats
    for bad, message in (
        ([[0.0, 1.0], [np.inf, 1.0], [2.0, 3.0]], "data contains non-finite entries"),
        ([[0.0, 1.0], [2.0, 3.0], [4.0, np.nan]], "data contains non-finite entries"),
        (np.zeros((3, 2, 1)), "expected a 2-d data matrix, got shape (3, 2, 1)"),
    ):
        with pytest.raises(ValidationError) as exc:
            DATA[check](bad)
        assert str(exc.value) == message


@pytest.mark.parametrize("transform", [forward, forward_weighted])
def test_data_need_one_row_per_terminal(transform):
    d = random_dendrogram(3, 1)
    with pytest.raises(ValidationError) as exc:
        transform(np.zeros((2, 2)), d)
    assert str(exc.value) == "data must have one row per terminal (3), got shape (2, 2)"
    with pytest.raises(ValidationError) as exc:  # a non-finite cell is named before the row count
        transform([[np.nan, 0.0]], d)
    assert str(exc.value) == "data contains non-finite entries"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda M: ball(M, True, 1), "center must be an integer, got True"),
        (lambda M: ball(M, 0.5, 1), "center must be an integer, got 0.5"),
        (lambda M: ball(M, 0, "a"), "radius must be a real number other than NaN, got 'a'"),
        (lambda M: ball(M, 0, np.nan), "radius must be a real number other than NaN, got nan"),
        (
            lambda M: check_ball_axioms(M, radii=[1, "x"]),
            "radius must be a real number other than NaN, got 'x'",
        ),
        (lambda M: check_ball_axioms(M, radii=5), "radii must be an iterable of real numbers, got 5"),
        pytest.param(
            lambda M: check_ball_axioms(np.zeros((0, 0)), radii=[1, np.nan]),
            "radius must be a real number other than NaN, got nan",
            id="empty-matrix-nan-radius",
        ),
        pytest.param(
            lambda M: canonical_form(M, 5), "order must be a permutation of 0..2", id="order-not-iterable"
        ),
        (lambda M: canonical_form(M, [0.0, 1.0, 2.0]), "order must be a permutation of 0..2"),
        (lambda M: canonical_form(M[:2, :2], [True, False]), "order must be a permutation of 0..1"),
        (lambda M: proximity_from_distance(-M), "distances must be nonnegative"),
        (
            lambda M: distance_from_proximity(M + 1j),
            "proximities must be an array of real numbers",
        ),
    ],
)
def test_ball_layout_and_proximity_arguments_are_checked(call, message):
    M = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    with pytest.raises(ValidationError) as exc:
        call(M)
    assert str(exc.value) == message


# ------------------------------------------------------------------------ balls

def ball_cases():
    """Rank and level matrices, near-ultrametrics and explicit radii, with a negative one."""
    rng = np.random.default_rng(71)
    for d in random_trees(36, 12, seed=72, with_levels=True):
        n = d.n_terminals
        ranks, levels = cophenetic(d), cophenetic(d, use="levels")
        noise = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)) * 1e-11, 1)
        near = levels * (1.0 + noise + noise.T)  # passes is_ultrametric, not always the balls
        yield ranks, None
        yield levels, None
        yield near, None
        yield ranks, [0, 1.5, n - 1, n + 3]
        yield levels, sorted(rng.choice(levels.ravel(), 3)) + [float(levels.max()) * 2]
        yield ranks, [1, -1, 2]
        yield near, [float(near[0, -1]), -0.5]


def ball_outcome(check, M, radii):
    """The message a ball check raises, or its verdict's fields."""
    try:
        v = check(M, radii)
    except ValidationError as exc:
        return str(exc)
    return v.ok, v.witness, v.detail


def test_ball_axioms_match_the_per_ball_check():
    seen = set()
    for M, radii in ball_cases():
        with mock.patch.object(ultrametric, "_checked_matrix", wraps=_checked_matrix) as checked:
            got = ball_outcome(check_ball_axioms, M, radii)
        assert checked.call_count == 1
        assert got == ball_outcome(oracles.check_ball_axioms_per_ball, M, radii)
        seen.add(got if isinstance(got, str) else got[0])
    assert seen == {True, False, "radius must be nonnegative"}


def test_ball_axioms_of_cophenetic_matrices_build_at_most_one_ball_per_radius(monkeypatch):
    radii_seen = []
    one_ball = ultrametric._ball
    monkeypatch.setattr(ultrametric, "_ball", lambda A, c, r: radii_seen.append(r) or one_ball(A, c, r))
    trees = list(random_trees(30, 40, seed=75, with_levels=True))
    trees.append(random_dendrogram(300, 76, with_levels=True))
    for d in trees:
        for M in (cophenetic(d), cophenetic(d, use="levels")):
            values = np.unique(M).tolist()
            for radii in (None, values[:3] + [values[-1] * 2, 0.5]):
                radii_seen.clear()
                assert check_ball_axioms(M, radii).ok
                assert len(radii_seen) == len(set(radii_seen)) <= len(values if radii is None else radii)
    assert check_ball_axioms(np.zeros((0, 0)), [0, 1.5]).ok


def test_ball_axioms_refuse_a_non_ultrametric_after_one_validation():
    M = np.array([[0, 3, 4], [3, 0, 1], [4, 1, 0]])
    with mock.patch.object(ultrametric, "_checked_matrix", wraps=_checked_matrix) as checked:
        with pytest.raises(ValidationError, match="not ultrametric"):
            check_ball_axioms(M)
    assert checked.call_count == 1


# ----------------------------------------------------------- check dendrogram.json

def verdict_trees():
    """Random, caterpillar, unfolded p-way and demo trees, each read back from JSON."""
    rng = np.random.default_rng(73)
    trees = list(random_trees(40, 30, seed=74, with_levels=True))
    trees += [oracles.caterpillar(n, rng) for n in (1, 2, 3, 17, 40)]
    for arity in (3, 5):
        trees += [unfold(random_pway_tree(int(rng.integers(1, 8)), arity, rng)) for _ in range(5)]
    trees.append(walkthrough_tree())
    return [from_json(to_json(d)) for d in trees]


def test_a_validated_tree_passes_as_its_cophenetic_ranks_do(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check built the cophenetic matrix")

    path = tmp_path / "tree.json"
    for d in verdict_trees():
        verdict = is_ultrametric(cophenetic(d), tol=0)
        assert verdict
        save_json(d, path)
        with monkeypatch.context() as patched:
            patched.setattr(ultrametric, "cophenetic", refuse)
            patched.setattr(cli, "is_ultrametric", refuse)
            assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"dendrogram: {d.n_terminals} terminals, {d.n_clusters} ranked merges\n"
            f"levels: {'present' if d.levels is not None else 'absent'}\n"
            f"cophenetic ranks ultrametric: {'PASS' if verdict else 'FAIL'}\n"
        )
