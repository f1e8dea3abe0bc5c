import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dendrowave import cli, hcluster, ultrametric
from dendrowave.cli import load_bundle, main, save_bundle
from dendrowave.haar import forward, forward_weighted, inverse
from dendrowave.demo import load_demo
from dendrowave.tree import ValidationError, load_json, random_dendrogram, save_json, to_json
from dendrowave.ultrametric import cophenetic, matrix_to_csv

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def demo_json(tmp_path, demo8):
    path = tmp_path / "demo.json"
    save_json(demo8, path)
    return str(path)


def write_points(tmp_path, values, name="points.csv"):
    path = tmp_path / name
    rows = ["v"] + [str(v) for v in values]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def write_data(tmp_path, X, name="data.csv"):
    path = tmp_path / name
    header = ",".join(f"f{i + 1}" for i in range(X.shape[1]))
    lines = [header] + [",".join(format(v, ".12g") for v in row) for row in X]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_cluster_happy_path(tmp_path, capsys):
    data = write_points(tmp_path, [0.0, 3.0, 4.0])
    out = tmp_path / "run"
    assert main(["cluster", data, "--linkage", "single", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "3 observations with single linkage" in text
    tree = load_json(out / "dendrogram.json")
    assert tree.levels == (1.0, 3.0)
    coph = (out / "cophenetic.csv").read_text(encoding="utf-8")
    assert coph.splitlines()[0] == "x1,x2,x3"


def test_cluster_outputs_are_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(91)
    data = write_data(tmp_path, rng.normal(size=(6, 3)))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cluster", data, "--linkage", "average", "--out", str(out1)]) == 0
    assert main(["cluster", data, "--linkage", "average", "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("dendrogram.json", "cophenetic.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cluster_needs_two_rows(tmp_path, capsys):
    data = write_points(tmp_path, [1.0])
    assert main(["cluster", data, "--out", str(tmp_path / "o")]) == 2
    assert "need n >= 2" in capsys.readouterr().err


def test_cluster_reports_bad_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("v\n1.0\nxyz\n", encoding="utf-8")
    assert main(["cluster", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "row 3, column 1" in err and "'xyz'" in err


@pytest.mark.parametrize(
    "values, squared, pair",
    [
        ([0.0, 1e308, -1e308, 1.0], False, "distance between rows 3 and 4"),
        ([0.0, 1.0, 1e308, 2.0, -1e308], False, "distance between rows 4 and 6"),
        ([1.0, 2.0, 3.0, 1e200], True, "squared distance between rows 2 and 5"),
    ],
)
def test_cluster_names_the_first_rows_whose_distance_is_not_finite(tmp_path, capsys, values, squared, pair):
    data = write_points(tmp_path, values)
    argv = ["cluster", data, "--out", str(tmp_path / "o")] + ["--squared"] * squared
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {data}: the {pair} is not finite\n"
    assert not (tmp_path / "o").exists()


def test_cluster_squared_changes_levels(tmp_path, capsys):
    data = write_points(tmp_path, [0.0, 3.0, 4.0])
    out = tmp_path / "sq"
    assert main(["cluster", data, "--squared", "--out", str(out)]) == 0
    capsys.readouterr()
    tree = load_json(out / "dendrogram.json")
    assert tree.levels == (1.0, 9.0)


def test_cluster_prints_dropped_levels_as_one_warning_line(tmp_path, capsys):
    data = write_points(tmp_path, [0.0, 1.0, 2.0, 5.0])  # single linkage ties at level 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cluster", data, "--linkage", "single", "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: single produced merge levels that are not strictly increasing; "
        "levels dropped, ranks keep the merge order\n"
    )
    assert captured.out.endswith("cophenetic.csv (cophenetic ranks)\n")


def test_cluster_builds_no_square_matrix(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cluster built an n x n matrix")

    for module, name in ((hcluster, "pairwise_euclidean"), (hcluster, "validate_dissimilarity"),
                         (ultrametric, "cophenetic"), (ultrametric, "write_table"),
                         (cli, "write_table")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr("dendrowave.tree._BLOCK_CELLS", 4096)  # blocks far smaller than the matrix
    n = 1200
    data = write_data(tmp_path, np.random.default_rng(92).normal(size=(n, 5)))
    tracemalloc.start()
    try:
        assert main(["cluster", data, "--linkage", "average", "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # the condensed distances are half a square matrix of floats
    assert peak < 0.6 * n * n * 8


def test_transform_indicator_writes_golden_branch_codes(tmp_path, capsys, demo_json):
    out = tmp_path / "w"
    assert main(["transform", "-", demo_json, "--mode", "indicator",
                 "--check", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "check passed" in captured.out
    assert "round-trip max abs error" in captured.out
    assert "recursive vs matrix form max abs error" in captured.out
    assert captured.err == ""
    lines = (out / "C.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "terminal,cluster_1,cluster_2,cluster_3,cluster_4,cluster_5,cluster_6,cluster_7"
    assert lines[1] == "x1,1,1,0,0,1,0,1"
    assert lines[8] == "x8,0,0,0,0,0,-1,-1"
    for name in ("D.csv", "smooth.csv", "dendrogram.json", "meta.json"):
        assert (out / name).exists()


def test_transform_indicator_warns_when_data_given(tmp_path, capsys, demo_json):
    data = write_points(tmp_path, list(range(8)))
    out = tmp_path / "w"
    assert main(["transform", data, demo_json, "--mode", "indicator", "--out", str(out)]) == 0
    assert "ignoring" in capsys.readouterr().err


def test_transform_ultrametric_roundtrip(tmp_path, capsys, demo_json, demo8):
    rng = np.random.default_rng(92)
    X = rng.normal(size=(8, 3))
    data = write_data(tmp_path, X)
    out = tmp_path / "w"
    assert main(["transform", data, demo_json, "--check", "--out", str(out)]) == 0
    assert "check passed" in capsys.readouterr().out
    w, features = load_bundle(out)
    direct = forward(X, demo8)
    assert features == ["f1", "f2", "f3"]
    assert np.array_equal(w.branch_codes, direct.branch_codes)
    assert np.allclose(w.details, direct.details, atol=1e-9)
    assert np.allclose(w.smooth, direct.smooth, atol=1e-9)


def test_transform_ultrametric_requires_data(tmp_path, capsys, demo_json):
    assert main(["transform", "-", demo_json, "--out", str(tmp_path / "w")]) == 2
    assert "needs a data CSV" in capsys.readouterr().err


def test_transform_names_a_data_file_with_the_wrong_row_count(tmp_path, capsys, demo_json):
    data = write_data(tmp_path, np.ones((7, 2)))
    assert main(["transform", data, demo_json, "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: expected 8 observation rows, one per terminal, got 7\n"


def make_bundle(tmp_path, demo_json, capsys):
    rng = np.random.default_rng(93)
    data = write_data(tmp_path, rng.normal(size=(8, 2)))
    out = tmp_path / "bundle"
    assert main(["transform", data, demo_json, "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_filter_sweep(tmp_path, capsys, demo_json):
    out = make_bundle(tmp_path, demo_json, capsys)
    assert main(["filter", str(out), "--sweep"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip().startswith("k=")]
    assert len(lines) == 8
    assert lines[0].strip().startswith("k=0:")
    last = float(lines[-1].split(":")[1])
    assert last <= 1e-9


def test_filter_keep_k(tmp_path, capsys, demo_json):
    out = make_bundle(tmp_path, demo_json, capsys)
    dest = tmp_path / "filtered_run"
    assert main(["filter", str(out), "--rule", "keep-k", "--value", "3",
                 "--out", str(dest)]) == 0
    text = capsys.readouterr().out
    assert "detail rows changed" in text
    assert (dest / "filtered" / "D.csv").exists()
    assert (dest / "reconstruction.csv").exists()
    w, _ = load_bundle(dest / "filtered")
    kept = int(np.sum(np.any(w.details != 0.0, axis=1)))
    assert kept == 3


def test_filter_absolute_zero_is_identity(tmp_path, capsys, demo_json):
    out = make_bundle(tmp_path, demo_json, capsys)
    dest = tmp_path / "zero"
    assert main(["filter", str(out), "--rule", "absolute", "--value", "0",
                 "--out", str(dest)]) == 0
    text = capsys.readouterr().out
    assert "0 detail rows changed" in text
    assert (out / "D.csv").read_bytes() == (dest / "filtered" / "D.csv").read_bytes()


def test_filter_needs_value(tmp_path, capsys, demo_json):
    out = make_bundle(tmp_path, demo_json, capsys)
    assert main(["filter", str(out)]) == 2
    assert "--value is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rule, value, message",
    [
        ("absolute", "abc", "--value 'abc': rule absolute needs a number"),
        ("cluster-norm", "abc", "--value 'abc': rule cluster-norm needs a number"),
        ("keep-k", "abc", "--value 'abc': rule keep-k needs an integer"),
        ("keep-k", "2.5", "--value '2.5': rule keep-k needs an integer"),
        ("absolute", "nan", "threshold must be >= 0, got nan"),
        ("cluster-norm", "nan", "threshold must be >= 0, got nan"),
    ],
)
def test_filter_rejects_a_bad_value(tmp_path, capsys, demo_json, rule, value, message):
    out = make_bundle(tmp_path, demo_json, capsys)
    dest = tmp_path / "bad"
    assert main(["filter", str(out), "--rule", rule, "--value", value, "--out", str(dest)]) == 2
    assert message in capsys.readouterr().err
    assert not (dest / "filtered").exists()


@pytest.mark.parametrize(
    "rule, value",
    [("keep-k", "2.5"), ("keep-k", "99"), ("keep-k", "-1"), ("absolute", "-1"),
     ("cluster-norm", "nan")],
)
def test_rejected_filter_leaves_no_output_directory(tmp_path, capsys, demo_json, rule, value):
    out = make_bundle(tmp_path, demo_json, capsys)
    dest = tmp_path / "never" / "made"
    assert main(["filter", str(out), "--rule", rule, "--value", value, "--out", str(dest)]) == 2
    assert capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_padic_encode(capsys, demo_json):
    assert main(["padic", "encode", demo_json]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "base p = 3"
    assert out[1] == "x1 = +p^1+p^2+p^5+p^7 (2442)"
    assert out[8] == "x8 = -p^6-p^7 (-2916)"


def test_padic_dist_and_norm(capsys, demo_json):
    assert main(["padic", "dist", demo_json, "x1", "x2"]) == 0
    assert capsys.readouterr().out.strip() == "p^-1"
    assert main(["padic", "dist", demo_json, "q1", "q3"]) == 0
    assert capsys.readouterr().out.strip() == "p^-5"
    assert main(["padic", "norm", demo_json, "q2"]) == 0
    assert capsys.readouterr().out.strip() == "p^-2"
    assert main(["padic", "norm", demo_json, "x1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["padic", "norm", demo_json, "q7"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_padic_unknown_node(capsys, demo_json):
    assert main(["padic", "dist", demo_json, "x1", "nosuch"]) == 2
    assert "unknown node" in capsys.readouterr().err


def test_padic_dilate_all_base_two(capsys, demo_json):
    assert main(["padic", "--base", "2", "dilate", demo_json, "--all"]) == 0
    captured = capsys.readouterr()
    assert "base 2" in captured.err
    first = captured.out.splitlines()[0]
    assert first == "x1: +2^1+2^2+2^5+2^7 -> +2^1+2^4+2^6"


@pytest.mark.parametrize("base", ["0", "1", "-3", "2.5"])
@pytest.mark.parametrize(
    "command", [["norm", "q2"], ["dist", "x1", "q3"], ["encode"], ["dilate", "--all"], ["dilate", "q2"]]
)
def test_padic_rejects_a_base_below_two_or_not_an_integer(capsys, demo_json, base, command):
    assert main(["padic", f"--base={base}", command[0], demo_json, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value" in captured.err if base == "2.5" else (
        captured.err == f"error: base must be an integer >= 2, got {base}\n"
    )


def test_padic_dilate_single_node(capsys, demo_json):
    assert main(["padic", "dilate", demo_json, "q2"]) == 0
    assert capsys.readouterr().out.strip() == "+3^5+3^7 -> +3^4+3^6"


def test_padic_decode_restores_tree(tmp_path, capsys, demo_json, demo8):
    out = tmp_path / "w"
    assert main(["transform", "-", demo_json, "--mode", "indicator", "--out", str(out)]) == 0
    dest = tmp_path / "decoded"
    assert main(["padic", "decode", str(out / "C.csv"), "--out", str(dest)]) == 0
    text = capsys.readouterr().out
    assert "decoded 8 terminals, 7 clusters" in text
    rebuilt = load_json(dest / "dendrogram.json")
    assert rebuilt == demo8
    written = (dest / "dendrogram.json").read_text(encoding="utf-8")
    assert written == to_json(demo8) + "\n"


def test_check_demo_matches_golden(capsys):
    assert main(["check", "--demo", "fig2"]) == 0
    out = capsys.readouterr().out
    want = (GOLDEN_DIR / "demo_walkthrough.txt").read_text(encoding="utf-8")
    assert out == want


def test_check_unknown_demo(capsys):
    assert main(["check", "--demo", "nope"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_load_demo_refuses_an_unknown_name():
    with pytest.raises(ValidationError, match="^unknown demo 'nope'; available: fig2$"):
        load_demo("nope")


def test_check_matrix_pass(tmp_path, capsys, demo8):
    M = cophenetic(demo8)
    path = tmp_path / "coph.csv"
    path.write_text(matrix_to_csv(M, demo8.labels), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ultrametric: PASS" in out
    assert "equilateral=0 isosceles-small-base=56 violating=0" in out
    assert "canonical layout under single-linkage order: PASS" in out


def test_check_matrix_fail_names_witness(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text("a,b,c\n0,3,4\n3,0,1\n4,1,0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ultrametric: FAIL" in out
    assert "witness: (" in out
    assert "violating=1" in out


def test_check_dendrogram_json(capsys, demo_json):
    assert main(["check", demo_json]) == 0
    out = capsys.readouterr().out
    assert "8 terminals, 7 ranked merges" in out
    assert "levels: absent" in out
    assert "cophenetic ranks ultrametric: PASS" in out


def test_check_needs_input(capsys):
    assert main(["check"]) == 2
    assert "needs a matrix CSV" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_file_exits_two(tmp_path, capsys):
    ghost = str(tmp_path / "nowhere.json")
    assert main(["check", ghost]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["padic", "encode", ghost]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "dendrowave" in capsys.readouterr().out


def test_outdir_env_fallback(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("DENDROWAVE_OUTDIR", str(target))
    data = write_points(tmp_path, [0.0, 3.0, 4.0])
    assert main(["cluster", data]) == 0
    capsys.readouterr()
    assert (target / "dendrogram.json").exists()
    assert (target / "cophenetic.csv").exists()


def _edit_cell(text: str, row: int, col: int, value: str) -> str:
    """Replace one cell of a CSV text, counting rows and columns from 1."""
    lines = text.split("\n")
    cells = lines[row - 1].split(",")
    cells[col - 1] = value
    lines[row - 1] = ",".join(cells)
    return "\n".join(lines)


def _swap(lines: list, a: int, b: int) -> list:
    """The lines with lines a and b exchanged, counting from 1."""
    lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    return lines


def _json_edit(change):
    """An edit of a JSON file's bytes: ``change`` alters the parsed document in place."""

    def edit(raw: bytes) -> bytes:
        doc = json.loads(raw)
        change(doc)
        return json.dumps(doc).encode("utf-8")

    return edit


# a document nested deeper than the decoder recurses
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000

# a fault of a dendrogram JSON file, and the start of its located message
JSON_FAULTS = {
    "truncated": (lambda b: b[: len(b) // 2], "not valid JSON: "),
    "nested": (lambda b: DEEP_JSON, "not valid JSON: "),
    "format": (_json_edit(lambda d: d.update(format="pway_tree")), "expected a dendrogram document\n"),
    "merges": (_json_edit(lambda d: d.update(merges={})), "merges: expected a list\n"),
    "node": (
        _json_edit(lambda d: d["merges"][3]["children"].__setitem__(0, {"terminal": 0})),
        "merges[3]: terminal index must be >= 1, got 0\n",
    ),
}

MALFORMED_BUNDLES = {
    **{
        f"tree-{fault}": ("dendrogram.json", edit, f"dendrogram.json: {message}")
        for fault, (edit, message) in JSON_FAULTS.items()
    },
    "meta-truncated": ("meta.json", lambda b: b[: len(b) // 2], "meta.json: not valid JSON: "),
    "meta-nested": ("meta.json", lambda b: DEEP_JSON, "meta.json: not valid JSON: "),
    "meta-format": (
        "meta.json",
        _json_edit(lambda d: d.update(format="dendrogram")),
        "meta.json: expected a decomposition document\n",
    ),
    "smooth-header-only": (
        "smooth.csv", lambda b: b.split(b"\n")[0] + b"\n", "smooth.csv: expected one row"
    ),
    "smooth-one-feature-short": (
        "smooth.csv",
        lambda b: b"\n".join(line.rsplit(b",", 1)[0] for line in b.split(b"\n")),
        "smooth.csv: expected one row of 2 smooth values, one per feature, got 1 x 1",
    ),
    "D-quote-swallows-the-rows": (
        "D.csv",
        lambda b: _edit_cell(b.decode(), 1, 1, '"').encode(),
        "D.csv: expected 7 detail rows, one per merge, got 0",
    ),
    "meta-list": ("meta.json", lambda b: b"[]\n", "meta.json: expected a decomposition document\n"),
    "D-not-utf8": ("D.csv", lambda b: b.replace(b"\n", b"\n\xff", 1), "D.csv: byte "),
    "C-cell-300": (
        "C.csv",
        lambda b: _edit_cell(b.decode(), 2, 2, "300").encode(),
        "C.csv: row 2, column 2: expected -1, 0 or +1, got '300'",
    ),
    "C-sign-flipped": (
        "C.csv",
        lambda b: _edit_cell(b.decode(), 2, 2, "-1").encode(),
        "C.csv: row 2, column 2: sign -1 differs from the dendrogram's 1",
    ),
    "C-rows-swapped": (
        "C.csv",
        lambda b: b"\n".join(_swap(b.split(b"\n"), 5, 6)),
        "C.csv: row 5, column 4: sign -1 differs from the dendrogram's 1",
    ),
    "D-not-finite": (
        "D.csv",
        lambda b: _edit_cell(b.decode(), 2, 2, "inf").encode(),
        "D.csv: row 2, column 2: expected a finite number",
    ),
    "C-header-only": (
        "C.csv", lambda b: b.split(b"\n")[0] + b"\n", "C.csv: expected a header row plus terminal rows\n"
    ),
    "C-of-a-smaller-tree": (
        "C.csv",
        lambda b: b"\n".join(b",".join(line.split(b",")[:3]) for line in b.split(b"\n")[:4]) + b"\n",
        "C.csv: rows do not match the dendrogram\n",
    ),
    "C-one-column-too-wide": (
        "C.csv",
        lambda b: b.replace(b"\n", b",0\n"),
        "C.csv: row 1: expected 8 columns for 8 terminals, got 9",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_malformed_bundles_exit_two(tmp_path, capsys, demo_json, case):
    name, edit, message = MALFORMED_BUNDLES[case]
    out = make_bundle(tmp_path, demo_json, capsys)
    path = out / name
    path.write_bytes(edit(path.read_bytes()))
    for argv in (["--sweep"], ["--value", "2"]):
        assert main(["filter", str(out), *argv, "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err, err


JSON_READERS = {
    "transform": lambda tree: ["transform", "-", tree, "--mode", "indicator"],
    "padic-encode": lambda tree: ["padic", "encode", tree],
    "padic-dist": lambda tree: ["padic", "dist", tree, "x1", "x2"],
    "padic-norm": lambda tree: ["padic", "norm", tree, "q1"],
    "padic-dilate": lambda tree: ["padic", "dilate", tree, "--all"],
    "check": lambda tree: ["check", tree],
}


@pytest.mark.parametrize("fault", sorted(JSON_FAULTS))
@pytest.mark.parametrize("command", sorted(JSON_READERS))
def test_json_tree_errors_name_the_file(tmp_path, capsys, demo_json, command, fault):
    edit, message = JSON_FAULTS[fault]
    path = tmp_path / "bad.json"
    path.write_bytes(edit(Path(demo_json).read_bytes()))
    assert main(JSON_READERS[command](str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: {message}")
    assert captured.err.count("\n") == 1, captured.err


def _set_child_sizes(out, sizes):
    meta_path = out / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["child_sizes"] = sizes
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


def test_bundle_child_sizes_must_be_the_subtree_sizes(tmp_path, capsys, demo_json, demo8):
    out = make_bundle(tmp_path, demo_json, capsys)
    for sizes, message in (
        ([[0, 0]] * 7, "child_sizes of rank 1 are [0, 0], but its subtrees hold [1, 1]"),
        ([[True, True]] + [[0, 0]] * 6, "child_sizes of rank 1 are [True, True]"),
        ([[1.0, 1.0]] + [[0, 0]] * 6, "child_sizes of rank 1 are [1.0, 1.0]"),
        ([[1, 1]] * 6, "one pair per merge (7)"),
        ("sizes", "one pair per merge (7)"),
    ):
        _set_child_sizes(out, sizes)
        assert main(["filter", str(out), "--sweep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'meta.json'}: ") and message in err, err


META_FAULTS = {
    "n_terminals-wrong": ({"n_terminals": 99}, "n_terminals says 99, but dendrogram.json holds 8\n"),
    "n_terminals-bool": ({"n_terminals": True}, "n_terminals says True, but dendrogram.json holds 8\n"),
    "n_terminals-float": ({"n_terminals": 8.0}, "n_terminals says 8.0, but dendrogram.json holds 8\n"),
    "n_features-wrong": ({"n_features": 7}, "n_features says 7, but D.csv holds 2\n"),
    "n_features-text": ({"n_features": "2"}, "n_features says '2', but D.csv holds 2\n"),
    "features-too-many": (
        {"features": ["a", "b", "c"]},
        "features says ['a', 'b', 'c'], but D.csv holds ['f1', 'f2']\n",
    ),
    "features-swapped": ({"features": ["f2", "f1"]}, "features says ['f2', 'f1'], but "),
    "features-text": ({"features": "f1,f2"}, "features says 'f1,f2', but "),
    "features-numbers": ({"features": [1, 2]}, "features says [1, 2], but "),
    "features-null": ({"features": None}, "features says None, but "),
    "mode-unknown": ({"mode": "x"}, "unknown mode 'x'\n"),
    "mode-list": ({"mode": ["ultrametric"]}, "unknown mode ['ultrametric']\n"),
}


@pytest.mark.parametrize("case", sorted(META_FAULTS))
def test_bundle_meta_fields_must_say_what_the_bundle_holds(tmp_path, capsys, demo_json, case):
    change, message = META_FAULTS[case]
    out = make_bundle(tmp_path, demo_json, capsys)
    path = out / "meta.json"
    path.write_bytes(_json_edit(lambda doc: doc.update(change))(path.read_bytes()))
    for argv in (["--sweep"], ["--value", "2", "--out", str(tmp_path / "f")]):
        assert main(["filter", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {message}")
        assert captured.err.count("\n") == 1, captured.err
    assert not (tmp_path / "f").exists()


def test_bundle_meta_count_may_not_be_a_bool(tmp_path, capsys, demo_json):
    data = write_data(tmp_path, np.arange(8.0)[:, None])
    out = tmp_path / "one-feature"
    assert main(["transform", data, demo_json, "--out", str(out)]) == 0
    assert main(["filter", str(out), "--sweep"]) == 0
    path = out / "meta.json"
    path.write_bytes(_json_edit(lambda doc: doc.update(n_features=True))(path.read_bytes()))
    capsys.readouterr()
    assert main(["filter", str(out), "--sweep"]) == 2
    assert capsys.readouterr().err == f"error: {path}: n_features says True, but D.csv holds 1\n"


def test_bundle_meta_may_leave_out_its_fields(tmp_path, capsys, demo_json):
    out = make_bundle(tmp_path, demo_json, capsys)
    assert main(["filter", str(out), "--sweep"]) == 0
    want = capsys.readouterr().out
    (out / "meta.json").write_text('{"format": "decomposition"}', encoding="utf-8")
    assert main(["filter", str(out), "--sweep"]) == 0
    assert capsys.readouterr().out == want


def padded_indicator_bundle(tmp_path, capsys, labels):
    """The indicator bundle of a random tree whose labels carry surrounding blanks."""
    tree = tmp_path / "padded.json"
    save_json(random_dendrogram(len(labels), 7, labels=labels), tree)
    out = tmp_path / "indicator"
    assert main(["transform", "-", str(tree), "--mode", "indicator", "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_indicator_bundle_of_padded_labels_loads(tmp_path, capsys):
    """D.csv's header reads each name stripped, so meta.json's unstripped labels still
    match, and filter writes the names as meta.json holds them."""
    labels = [" a", "b\t", "c", '"d,e"']
    out = padded_indicator_bundle(tmp_path, capsys, labels)
    assert json.loads((out / "meta.json").read_text(encoding="utf-8"))["features"] == labels
    dest = tmp_path / "f"
    assert main(["filter", str(out), "--value", "1", "--out", str(dest)]) == 0
    capsys.readouterr()
    meta = json.loads((dest / "filtered" / "meta.json").read_text(encoding="utf-8"))
    assert meta["features"] == labels
    header = (out / "D.csv").read_text(encoding="utf-8").splitlines()[0]
    assert (dest / "filtered" / "D.csv").read_text(encoding="utf-8").splitlines()[0] == header
    assert (dest / "reconstruction.csv").read_text(encoding="utf-8").splitlines()[0] == header[8:]
    assert load_bundle(dest / "filtered")[1] == labels


def test_padic_decode_keeps_the_terminal_labels_as_written(tmp_path, capsys):
    out = padded_indicator_bundle(tmp_path, capsys, [" a", "b\t", "c"])
    dest = tmp_path / "decoded"
    assert main(["padic", "decode", str(out / "C.csv"), "--out", str(dest)]) == 0
    capsys.readouterr()
    decoded, written = (json.loads((d / "dendrogram.json").read_text(encoding="utf-8")) for d in (dest, out))
    assert decoded["terminals"] == written["terminals"] == [" a", "b\t", "c"]
    assert load_json(dest / "dendrogram.json") == load_json(out / "dendrogram.json")


def test_weighted_bundle_with_its_child_sizes_loads(tmp_path, capsys, demo8):
    X = np.random.default_rng(95).normal(size=(8, 2))
    w = forward_weighted(X, demo8)
    out = tmp_path / "weighted"
    save_bundle(w, ["f1", "f2"], out)
    loaded, _ = load_bundle(out)
    assert np.array_equal(loaded.child_sizes, w.child_sizes)
    assert np.allclose(inverse(loaded), X)
    assert main(["filter", str(out), "--sweep"]) == 0
    capsys.readouterr()


def test_non_utf8_inputs_exit_two(tmp_path, capsys, demo_json):
    for name in ("tree.json", "matrix.csv"):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe")
        assert main(["check", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err


def test_check_names_a_level_too_large_for_a_float(tmp_path, capsys, demo8):
    doc = json.loads(to_json(demo8))
    doc["levels"] = [1, 10**400, 3, 4, 5, 6, 7]
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: rank 2: level {10**400} is too large for a float\n"


@pytest.mark.parametrize("command", ["cluster", "transform"])
def test_non_finite_data_cell_is_located(tmp_path, capsys, demo_json, command):
    data = write_data(tmp_path, np.arange(16.0).reshape(8, 2))
    Path(data).write_text(_edit_cell(Path(data).read_text(), 4, 2, "nan"), encoding="utf-8")
    args = [data, demo_json] if command == "transform" else [data]
    assert main([command, *args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: row 4, column 2: expected a finite number, got 'nan'\n"


def test_check_matrix_parse_errors_exit_two_and_name_the_file(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    for text, where in (
        ("a,b,c\n0,3,nan\n3,0,3\n4,3,0\n", "row 2, column 3: expected a finite number, got 'nan'"),
        ("a,b,c\n0,3,4\n3,0,3\n4,3,oops\n", "row 4, column 3: could not parse 'oops'"),
    ):
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {where}\n"


def test_check_matrix_content_failures_exit_one(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    for text, message in (
        ("a,b\n0,1\n2,0\n", "is not symmetric"),
        ("a,b\n1,1\n1,0\n", "needs a zero diagonal"),
    ):
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert f"matrix check FAILED: distance matrix {message}" in capsys.readouterr().out


def test_padic_decode_rejects_a_header_wider_than_its_rows(tmp_path, capsys, demo_json):
    out = tmp_path / "w"
    assert main(["transform", "-", demo_json, "--mode", "indicator", "--out", str(out)]) == 0
    capsys.readouterr()
    c_path = out / "C.csv"
    lines = c_path.read_text(encoding="utf-8").split("\n")
    c_path.write_text("\n".join([lines[0] + ",cluster_8"] + lines[1:]), encoding="utf-8")
    assert main(["padic", "decode", str(c_path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"error: {c_path}: row 2: expected 9 values, got 8\n"


@pytest.mark.parametrize("cell", ["300", "0.5", "-2", "1e-300"])
def test_padic_decode_names_a_bad_sign_past_the_first_row_block(
    tmp_path, capsys, monkeypatch, cell
):
    monkeypatch.setattr("dendrowave.tree._BLOCK_CELLS", 64)  # one row of the 40 x 39 C a block
    tree = tmp_path / "tree.json"
    save_json(random_dendrogram(40, 5), tree)
    out = tmp_path / "w"
    assert main(["transform", "-", str(tree), "--mode", "indicator", "--out", str(out)]) == 0
    c_path = out / "C.csv"
    assert main(["padic", "decode", str(c_path), "--out", str(tmp_path / "d")]) == 0
    assert load_json(tmp_path / "d" / "dendrogram.json") == load_json(out / "dendrogram.json")
    capsys.readouterr()
    rows = [line.split(",") for line in c_path.read_text(encoding="utf-8").splitlines()]
    # file row 30 holds the first bad cell in row order; later ones, in any column, come second
    for i, j in ((29, 6), (29, 9), (30, 1), (39, 39)):
        rows[i][j] = cell
    c_path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    assert main(["padic", "decode", str(c_path), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {c_path}: row 30, column 7: expected -1, 0 or +1, got {cell!r}\n"


def test_padic_decode_names_the_failing_column_by_its_header(tmp_path, capsys, demo_json):
    out = tmp_path / "w"
    assert main(["transform", "-", demo_json, "--mode", "indicator", "--out", str(out)]) == 0
    capsys.readouterr()
    c_path = out / "C.csv"
    lines = c_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[1] == "cluster_1"
    # file column 2, cluster_1, loses its -1 cells
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[1] = "0" if row[1] == "-1" else row[1]
    c_path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    assert main(["padic", "decode", str(c_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {c_path}: column cluster_1: both signs must appear\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["padic", "dilate", "{tree}"], "dilate needs a node name or --all"),
        (["check", "{tree}.txt"], "cannot tell matrix CSV from dendrogram JSON: {tree}.txt"),
        # decode reads no base, so it neither takes one nor warns of base 2
        *[(["padic", "--base", base, "decode", "{tree}"],
           "argument --base: not allowed with decode, which reads no base") for base in "23"],
    ],
    ids=["dilate-nothing", "check-extension", "decode-base-2", "decode-base-3"],
)
def test_arguments_the_parser_passes_are_refused(capsys, demo_json, argv, message):
    assert main([arg.format(tree=demo_json) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message.format(tree=demo_json)}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--demo", "fig2", "{tree}"], "argument input: not allowed with argument --demo"),
        (["filter", "{bundle}", "--sweep", "--value", "3"],
         "argument --value: not allowed with argument --sweep"),
        (["padic", "dilate", "{tree}", "q2", "--all"],
         "argument --all: not allowed with argument node"),
    ],
    ids=["check-demo-and-input", "filter-sweep-and-value", "dilate-node-and-all"],
)
def test_arguments_that_would_be_ignored_are_refused(tmp_path, capsys, demo_json, argv, message):
    bundle = make_bundle(tmp_path, demo_json, capsys)
    assert main([arg.format(tree=demo_json, bundle=bundle) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f": error: {message}\n")


@pytest.mark.parametrize("node, message", [
    ({"terminal": 0}, "merges[3]: terminal index must be >= 1, got 0"),
    ({"cluster": -3}, "merges[3]: cluster index must be >= 1, got -3"),
    ({"terminal": 10**30}, "rank 4: terminal 1000000000000000000000000000000 out of range 1..8"),
])
def test_padic_encode_locates_a_bad_node_index(tmp_path, capsys, demo_json, node, message):
    doc = json.loads(Path(demo_json).read_text(encoding="utf-8"))
    doc["merges"][3]["children"][0] = node
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["padic", "encode", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {bad}: {message}\n"


def test_main_calls_in_a_row_match_each_call_alone(tmp_path, capsys, demo_json):
    """One parser serves every call in a process: what a call prints and returns
    does not depend on the calls before it."""
    data = write_data(tmp_path, np.random.default_rng(4).normal(size=(5, 2)))
    calls = [
        ["cluster", data, "--linkage", "average", "--out", str(tmp_path / "c")],
        ["padic", "--base", "5", "encode", demo_json],
        ["filter", str(tmp_path / "c"), "--value", "1"],  # not a bundle: exit 2
        ["padic", "encode"],  # a usage error: exit 2
        ["check", "--demo", "fig2"],
        ["cluster", data, "--out", str(tmp_path / "c")],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _, _ in alone] == [0, 0, 2, 2, 0, 0]
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == alone


def test_a_patched_command_runs_after_the_parser_is_built(monkeypatch, capsys):
    assert main(["check", "--demo", "fig2"]) == 0
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert main(["check", "--demo", "fig2"]) == 7
    capsys.readouterr()
