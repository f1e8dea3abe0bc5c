"""Finite data near the float maximum: tolerance products that round up to
inf, transforms whose sums overflow, and distances whose squares would.
Every result must be right and no RuntimeWarning may be raised."""

import numpy as np
import pytest

import oracles
from conftest import random_trees

from dendrowave import cli
from dendrowave.cli import main
from dendrowave.haar import forward, forward_weighted, inverse
from dendrowave.hcluster import pairwise_euclidean
from dendrowave.tree import (
    ValidationError,
    build_from_merges,
    cluster,
    random_dendrogram,
    save_json,
    terminal,
)
from dendrowave.ultrametric import (
    TriangleCensus,
    canonical_form,
    cophenetic,
    is_ultrametric,
    triangle_classify,
)

pytestmark = pytest.mark.filterwarnings("error")

BIG = 1.7976931348623157e308  # the largest float


@pytest.mark.parametrize("tol, size", [(1e308, 10.0), (1e300, 1e300)], ids=["huge-tol", "huge-entries"])
def test_tolerance_products_past_the_float_maximum(tol, size):
    # within so wide a tolerance every matrix is an ultrametric, every
    # triangle equilateral and every order a canonical layout
    euclidean = pairwise_euclidean(np.random.default_rng(4).uniform(size=(12, 2)))
    ranks = cophenetic(random_dendrogram(12, np.random.default_rng(3))).astype(float)
    for M in (euclidean * size, ranks * size):
        assert is_ultrametric(M, tol)
        assert triangle_classify(M, tol) == TriangleCensus(12 * 11 * 10 // 6, 0, 0)
        assert canonical_form(M, range(12), tol)[1]


def test_check_a_matrix_whose_entries_reach_the_float_maximum(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text(f"a,b,c\n0,{BIG!r},1e308\n{BIG!r},0,{BIG!r}\n1e308,{BIG!r},0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0] == "ultrametric: PASS"


# x1 and x2 merge first, so the sum of their smooths overflows
TREE = build_from_merges([(terminal(1), terminal(2)), (cluster(1), terminal(3))])
HUGE = np.array([[1.5e308, 1.0], [1.6e308, 2.0], [-1.7e308, 3.0]])


def three_leaves(tmp_path) -> str:
    path = tmp_path / "tree.json"
    save_json(TREE, path)
    return str(path)


def test_a_transform_whose_sums_overflow_is_refused():
    # the weighted merge sums |a| s_a + |b| s_b, which has no halved form
    with pytest.raises(ValidationError, match="overflows a float"):
        forward_weighted(HUGE, TREE)


def test_the_plain_transform_halves_first_only_where_a_sum_overflows(tmp_path, capsys):
    w = forward(HUGE, TREE)
    details, final, _ = oracles.ascend_ranks(HUGE, w.tree, oracles.halved_merge)
    assert np.array_equal(w.details, details) and np.array_equal(w.smooth, final)
    assert np.isfinite(w.details).all() and np.allclose(inverse(w), HUGE, rtol=1e-15, atol=0)
    data = tmp_path / "huge.csv"
    data.write_text("f1,f2\n" + "".join(f"{a!r},{b!r}\n" for a, b in HUGE.tolist()), encoding="utf-8")
    assert main(["transform", str(data), three_leaves(tmp_path), "--out", str(tmp_path / "w")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unit", [1.0, 1e300, 5e-324], ids=["normal", "large", "subnormal"])
def test_accepted_data_keep_the_bits_of_the_plain_merge(unit):
    rng = np.random.default_rng(11)
    differs = False  # whether halving first would have changed some bits
    for d in random_trees(40, 30, seed=12):
        X = rng.integers(-99, 100, size=(d.n_terminals, 3)) * unit
        w = forward(X, d)
        details, final, _ = oracles.ascend_ranks(X, w.tree, oracles.plain_merge)
        assert np.array_equal(w.details, details) and np.array_equal(w.smooth, final)
        differs |= not np.array_equal(oracles.ascend_ranks(X, w.tree, oracles.halved_merge)[0], details)
    assert differs == (unit == 5e-324)


def test_a_round_trip_error_of_nan_fails_the_check(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data.csv"
    data.write_text("f1\n1\n2\n4\n", encoding="utf-8")
    monkeypatch.setattr(cli, "inverse", lambda w: np.full((3, 1), np.nan))
    assert main(["transform", str(data), three_leaves(tmp_path), "--check", "--out", str(tmp_path / "w")]) == 1
    captured = capsys.readouterr()
    assert "round-trip max abs error: nan" in captured.out and "check passed" not in captured.out
    assert "check FAILED" in captured.err


@pytest.mark.parametrize("scale", [1e7, 1e8], ids=["1e7", "1e8"])
def test_the_round_trip_check_is_relative_to_the_data_scale(tmp_path, capsys, monkeypatch, scale):
    X = np.random.default_rng(1).normal(size=(40, 3)) * scale
    data = tmp_path / "data.csv"
    np.savetxt(data, X, fmt="%.17g", delimiter=",", header="f1,f2,f3", comments="")
    assert main(["cluster", str(data), "--linkage", "average", "--out", str(tmp_path / "run")]) == 0
    args = ["transform", str(data), str(tmp_path / "run" / "dendrogram.json"), "--check"]
    assert main(args + ["--out", str(tmp_path / "w")]) == 0
    assert capsys.readouterr().out.endswith("check passed\n")
    # off by 1e-6 of the data's scale still fails
    exact = cli.inverse
    monkeypatch.setattr(cli, "inverse", lambda w: exact(w) + 1e-6 * np.abs(X).max())
    assert main(args + ["--out", str(tmp_path / "off")]) == 1
    captured = capsys.readouterr()
    assert "check passed" not in captured.out and "check FAILED" in captured.err


def test_data_within_one_keep_the_absolute_round_trip_bound(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data.csv"
    data.write_text("f1\n0.5\n-0.25\n1\n", encoding="utf-8")
    exact = cli.inverse
    monkeypatch.setattr(cli, "inverse", lambda w: exact(w) + 2e-9)
    assert main(["transform", str(data), three_leaves(tmp_path), "--check", "--out", str(tmp_path / "w")]) == 1
    assert "check FAILED: reconstruction error above 1e-09 " in capsys.readouterr().err


def test_distances_between_huge_points_are_finite():
    X = np.array([[2e200], [0.0], [5e199], [-1e308], [1e308]])
    M = pairwise_euclidean(X)
    assert np.array_equal(M[:4, :4], np.abs(X[:4] - X[:4].T))
    assert M[4, 1] == 1e308 and np.isinf(M[4, 3])  # 2e308 is past the float maximum
    # measured in units of a power of two, huge data scale exactly
    Y = np.random.default_rng(6).normal(size=(20, 4))
    for k in (400, 600, 1000):
        assert np.array_equal(pairwise_euclidean(np.ldexp(Y, k)), np.ldexp(pairwise_euclidean(Y), k))


def test_cluster_huge_points(tmp_path, capsys):
    data = tmp_path / "far.csv"
    data.write_text("f1\n2e200\n0\n5e199\n", encoding="utf-8")
    assert main(["cluster", str(data), "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "run" / "cophenetic.csv").read_text().splitlines()[1] == "0,1.5e+200,1.5e+200"
    # squared, the distance 2e200 is past the float maximum
    assert main(["cluster", str(data), "--squared", "--out", str(tmp_path / "sq")]) == 2
    assert capsys.readouterr().err == f"error: {data}: the squared distance between rows 2 and 3 is not finite\n"
