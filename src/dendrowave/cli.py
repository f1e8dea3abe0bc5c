"""Command-line pipeline: cluster, transform, filter, padic, check.

Conventions shared by every subcommand: CSV files are comma separated
with a header row, UTF-8, decimal points; dendrograms travel as JSON
only; floats print with 12 significant digits while rationals stay exact.
Files are written into --out, else $DENDROWAVE_OUTDIR, else the working
directory.  Exit codes: 0 success, 1 a validation failure (for example a
matrix that is not ultrametric), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .demo import demo_names, load_demo, walkthrough_text
from .haar import (
    THRESHOLD_RULES,
    WaveletDecomposition,
    forward,
    forward_indicator,
    hard_threshold,
    inverse,
    reconstruct_matrix_form,
)
from .hcluster import LINKAGES, _euclidean, _linkage_tree
from .padic import (
    cluster_code,
    decode,
    dilate,
    encode,
    pdistance,
    pnorm,
    power_repr,
)
from .tree import (
    Dendrogram,
    ValidationError,
    _json_document,
    _parse,
    branch_signs,
    cluster,
    load_json,
    save_json,
    terminal,
)
from .ultrametric import (
    _Distances,
    _layout_verdict,
    _write_cophenetic,
    is_ultrametric,
    matrix_from_csv,
    read_table,
    subdominant,
    triangle_classify,
    write_table,
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _outdir(args) -> Path:
    path = getattr(args, "out", None) or os.environ.get("DENDROWAVE_OUTDIR") or "."
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------- CSV

def _write_csv(path: Path, header: list[str], values, labels=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, header, values, labels)


def _read_signs(text) -> tuple[np.ndarray, list[str]]:
    """Branch-code CSV as written by transform: a label column, then n - 1 sign columns."""
    header, labels, C = read_table(text, labelled=True)
    n = len(labels)
    if n < 1:
        raise ValidationError("expected a header row plus terminal rows")
    if len(header) != n - 1:
        raise ValidationError(
            f"row 1: expected {n} columns for {n} terminals, got {len(header) + 1}"
        )
    bad = np.argwhere((C != -1) & (C != 0) & (C != 1))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValidationError(
            f"row {i + 2}, column {j + 2}: expected -1, 0 or +1, got {format(C[i, j], 'g')!r}"
        )
    return C.astype(np.int8), labels


# -------------------------------------------------------------------- bundles

def save_bundle(w: WaveletDecomposition, features: list[str], outdir: Path) -> list[Path]:
    """Write C.csv, D.csv, smooth.csv, dendrogram.json and meta.json."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "C": outdir / "C.csv",
        "D": outdir / "D.csv",
        "smooth": outdir / "smooth.csv",
        "tree": outdir / "dendrogram.json",
        "meta": outdir / "meta.json",
    }
    clusters = [f"cluster_{k}" for k in w.order]  # C's columns and D's rows
    _write_csv(paths["C"], ["terminal"] + clusters, w.branch_codes, w.tree.labels)
    _write_csv(paths["D"], ["cluster"] + features, w.details, clusters)
    _write_csv(paths["smooth"], features, w.smooth[None])
    save_json(w.tree, paths["tree"])
    meta = {
        "format": "decomposition",
        "mode": w.mode,
        "n_terminals": w.n_terminals,
        "n_features": w.n_features,
        "features": features,
        "child_sizes": None if w.child_sizes is None else w.child_sizes.astype(np.int64).tolist(),
    }
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return list(paths.values())


def _child_sizes(sizes, tree: Dendrogram, where: Path) -> np.ndarray:
    """The bundle's child sizes, which must be the tree's own subtree sizes."""
    lay = tree.layout
    want = np.stack((lay.mid - lay.lo, lay.hi - lay.mid), axis=1)
    if not isinstance(sizes, list) or len(sizes) != len(want):
        raise ValidationError(f"{where}: child_sizes must list one pair per merge ({len(want)})")
    for k, (got, pair) in enumerate(zip(sizes, want.tolist()), start=1):
        if got != pair or any(isinstance(v, bool) for v in got):
            raise ValidationError(
                f"{where}: child_sizes of rank {k} are {got!r}, but its subtrees hold {pair}"
            )
    return want


def load_bundle(bundle_dir: str) -> tuple[WaveletDecomposition, list[str]]:
    """Read a bundle written by `save_bundle` and check it against its own tree.

    C must be the tree's branch signs, smooth.csv must hold one row, and
    child sizes, when present, must be the tree's subtree sizes.
    """
    base = Path(bundle_dir)
    meta_path = base / "meta.json"
    meta = _parse(meta_path, _json_document, "decomposition")
    tree = load_json(base / "dendrogram.json")
    c_path = base / "C.csv"
    C, _ = _parse(c_path, _read_signs)
    if C.shape[0] != tree.n_terminals:
        raise ValidationError(f"{c_path}: rows do not match the dendrogram")
    signs = branch_signs(tree)  # cached on the tree: the decomposition below reads it
    if not np.array_equal(C, signs):
        i, j = np.argwhere(C != signs)[0].tolist()
        raise ValidationError(
            f"{c_path}: row {i + 2}, column {j + 2}: sign {C[i, j]} differs from "
            f"the dendrogram's {signs[i, j]}"
        )
    d_path = base / "D.csv"
    features, _, D = _parse(d_path, read_table, True)
    if D.shape[0] != tree.n_clusters:
        raise ValidationError(
            f"{d_path}: expected {tree.n_clusters} detail rows, one per merge, got {D.shape[0]}"
        )
    smooth_path = base / "smooth.csv"
    _, _, smooth = _parse(smooth_path, read_table)
    if smooth.shape != (1, D.shape[1]):
        raise ValidationError(
            f"{smooth_path}: expected one row of {D.shape[1]} smooth values, "
            f"one per feature, got {smooth.shape[0]} x {smooth.shape[1]}"
        )
    sizes = meta.get("child_sizes")
    child_sizes = None if sizes is None else _child_sizes(sizes, tree, meta_path)
    w = WaveletDecomposition(
        tree, D, smooth[0], meta.get("mode", "ultrametric"), child_sizes=child_sizes
    )
    return w, features


# ------------------------------------------------------------------- commands

def cmd_cluster(args) -> int:
    _, _, X = _parse(args.data, read_table)
    if X.shape[0] < 2:
        raise ValidationError(f"{args.data}: need n >= 2 observation rows")
    diss = _euclidean(X, condensed=True)  # the pairs i < j only, which the core overwrites
    if args.squared:
        with np.errstate(over="ignore"):  # an infinite square is refused as non-finite
            np.square(diss, out=diss)
    if not np.isfinite(diss.max()):  # NaN propagates to the maximum, and no distance is -inf
        raise ValidationError("dissimilarity matrix contains non-finite entries")
    tree, note = _linkage_tree(diss, X.shape[0], args.linkage)
    if note:
        print(f"warning: {note}", file=sys.stderr)
    del diss  # the core overwrote it; freed before the files are written
    outdir = _outdir(args)
    tree_path = outdir / "dendrogram.json"
    coph_path = outdir / "cophenetic.csv"
    save_json(tree, tree_path)
    use = "levels" if tree.levels is not None else "ranks"
    with open(coph_path, "w", encoding="utf-8", newline="") as fh:
        _write_cophenetic(fh, tree, use)
    print(f"clustered {X.shape[0]} observations with {args.linkage} linkage")
    print(f"wrote {tree_path}")
    print(f"wrote {coph_path} (cophenetic {use})")
    return 0


def cmd_transform(args) -> int:
    tree = load_json(args.tree)
    if args.mode == "indicator":
        if args.data != "-":
            print(
                "warning: indicator mode transforms the identity matrix; "
                f"ignoring {args.data}",
                file=sys.stderr,
            )
        w = forward_indicator(tree)
        features = list(w.tree.labels)
    else:
        if args.data == "-":
            raise ValidationError("ultrametric mode needs a data CSV")
        features, _, X = _parse(args.data, read_table)
        if X.shape[0] != tree.n_terminals:
            raise ValidationError(
                f"{args.data}: expected {tree.n_terminals} observation rows, "
                f"one per terminal, got {X.shape[0]}"
            )
        w = forward(X, tree)
    outdir = _outdir(args)
    for path in save_bundle(w, features, outdir):
        print(f"wrote {path}")
    if args.check:
        direct = inverse(w)
        matrix_form = reconstruct_matrix_form(w)
        original = np.eye(tree.n_terminals) if args.mode == "indicator" else X
        err_direct = float(np.abs(direct - original).max(initial=0.0))
        err_paths = float(np.abs(direct - matrix_form).max(initial=0.0))
        print(f"round-trip max abs error: {_fmt(err_direct)}")
        print(f"recursive vs matrix form max abs error: {_fmt(err_paths)}")
        tol = 1e-9 * max(1.0, float(np.abs(original).max(initial=0.0)))
        if not err_direct < tol:  # NaN fails too
            print(
                f"check FAILED: reconstruction error above {_fmt(tol)}"
                " (1e-9 x max(1, largest |entry| of the data))",
                file=sys.stderr,
            )
            return 1
        print("check passed")
    return 0


def cmd_filter(args) -> int:
    w, features = load_bundle(args.bundle)
    if args.sweep:
        print("keep-k sweep (Frobenius error against the full reconstruction):")
        full = inverse(w)
        for k in range(w.details.shape[0] + 1):
            rec = inverse(hard_threshold(w, "keep-k", k))
            err = float(np.linalg.norm(rec - full))
            print(f"  k={k}: {_fmt(err)}")
        return 0
    if args.value is None:
        raise ValidationError("--value is required unless --sweep is given")
    integer = args.rule == "keep-k"
    try:
        value = int(args.value) if integer else float(args.value)
    except ValueError:
        need = "an integer" if integer else "a number"
        raise ValidationError(f"--value {args.value!r}: rule {args.rule} needs {need}") from None
    filtered = hard_threshold(w, args.rule, value)
    outdir = _outdir(args)  # only once the filter is accepted
    full = inverse(w)
    rec = inverse(filtered)
    bundle_dir = outdir / "filtered"
    for path in save_bundle(filtered, features, bundle_dir):
        print(f"wrote {path}")
    rec_path = outdir / "reconstruction.csv"
    _write_csv(rec_path, features, rec)
    print(f"wrote {rec_path}")
    zeroed = int(np.sum(np.any(filtered.details != w.details, axis=1)))
    print(f"rule {args.rule}, value {args.value}: {zeroed} detail rows changed")
    print(f"Frobenius error: {_fmt(float(np.linalg.norm(rec - full)))}")
    print(f"max abs error: {_fmt(float(np.abs(rec - full).max(initial=0.0)))}")
    return 0


def _node_by_name(tree: Dendrogram, name: str):
    if name in tree.labels:
        return terminal(tree.labels.index(name) + 1)
    m = re.fullmatch(r"q(\d+)", name)
    if m and 1 <= int(m.group(1)) <= tree.n_clusters:
        return cluster(int(m.group(1)))
    raise ValidationError(f"unknown node {name!r} (terminal label or q<rank>)")


def cmd_padic(args) -> int:
    base = args.base
    if base == 2:
        print(
            "warning: base 2 decimal values can collide; use base >= 3 "
            "to keep codes distinct",
            file=sys.stderr,
        )
    if args.padic_cmd == "decode":
        tree = _parse(args.matrix, lambda text: decode(*_read_signs(text)))
        outdir = _outdir(args)
        path = outdir / "dendrogram.json"
        save_json(tree, path)
        print(f"decoded {tree.n_terminals} terminals, {tree.n_clusters} clusters")
        print(f"wrote {path}")
        return 0

    tree = load_json(args.tree)
    if args.padic_cmd == "encode":
        codes, _ = encode(tree, base)
        print(f"base p = {base}")
        for i, code in enumerate(codes, start=1):
            print(f"{tree.labels[i - 1]} = {code.to_string()} ({code.decimal()})")
        return 0
    if args.padic_cmd == "dist":
        a = _node_by_name(tree, args.a)
        b = _node_by_name(tree, args.b)
        print(power_repr(pdistance(a, b, d=tree, base=base), base))
        return 0
    if args.padic_cmd == "norm":
        node = _node_by_name(tree, args.node)
        print(power_repr(pnorm(tree, node, base), base))
        return 0
    # dilate
    if args.all:
        codes, _ = encode(tree, base)
        sym = str(base)
        for i, code in enumerate(codes, start=1):
            print(
                f"{tree.labels[i - 1]}: {code.to_string(sym)} -> "
                f"{dilate(code).to_string(sym)}"
            )
        return 0
    if not args.node:
        raise ValidationError("dilate needs a node name or --all")
    node = _node_by_name(tree, args.node)
    code = cluster_code(tree, node, base)
    sym = str(base)
    print(f"{code.to_string(sym)} -> {dilate(code).to_string(sym)}")
    return 0


def cmd_check(args) -> int:
    if args.demo:
        load_demo(args.demo)  # an unknown name is refused
        print(walkthrough_text(), end="")
        return 0
    if not args.input:
        raise ValidationError("check needs a matrix CSV, a dendrogram JSON, or --demo")
    path = args.input
    if path.endswith(".json"):
        tree = load_json(path)
        print(f"dendrogram: {tree.n_terminals} terminals, {tree.n_clusters} ranked merges")
        print(f"levels: {'present' if tree.levels is not None else 'absent'}")
        # a validated tree's LCA ranks obey rank(x, z) <= max(rank(x, y), rank(y, z))
        print("cophenetic ranks ultrametric: PASS")
        return 0
    if not path.endswith(".csv"):
        raise ValidationError(f"cannot tell matrix CSV from dendrogram JSON: {path}")
    labels, M = _parse(path, matrix_from_csv)
    try:
        D = _Distances(M)  # validated once, its spanning tree built at most once
        verdict = is_ultrametric(D)
    except ValidationError as exc:
        print(f"matrix check FAILED: {exc}")
        return 1
    if verdict:
        print("ultrametric: PASS")
    else:
        x, y, z = verdict.witness
        print("ultrametric: FAIL")
        print(
            f"  witness: ({labels[x]},{labels[y]},{labels[z]}) with "
            f"d({labels[x]},{labels[z]}) = {_fmt(M[x, z])} > "
            f"max({_fmt(M[x, y])}, {_fmt(M[y, z])})"
        )
    census = triangle_classify(D)
    print(
        f"triangles: equilateral={census.equilateral} "
        f"isosceles-small-base={census.isosceles_small_base} "
        f"violating={census.violating}"
    )
    if verdict:
        canon = D.exact or _layout_verdict(D, subdominant(D).order)  # U passes in its own order
        print(f"canonical layout under single-linkage order: {'PASS' if canon else 'FAIL'}")
        return 0 if canon else 1
    return 1


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrowave",
        description="Dendrogram wavelets, p-adic codes, and ultrametric checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="agglomerate a data CSV into a dendrogram")
    p_cluster.add_argument("data", help="observation CSV (header row, one row per item)")
    p_cluster.add_argument(
        "--linkage", default="single", choices=sorted(LINKAGES), help="merge criterion"
    )
    p_cluster.add_argument(
        "--squared",
        action="store_true",
        help="feed squared Euclidean distances (classical ward/centroid/median)",
    )
    p_cluster.add_argument("--out", help="output directory")

    p_transform = sub.add_parser("transform", help="run the wavelet transform")
    p_transform.add_argument("data", help="observation CSV, or - in indicator mode")
    p_transform.add_argument("tree", help="dendrogram JSON")
    p_transform.add_argument(
        "--mode", default="ultrametric", choices=("ultrametric", "indicator")
    )
    p_transform.add_argument(
        "--check",
        action="store_true",
        help="verify the round trip below 1e-9 x max(1, largest |entry| of the data)",
    )
    p_transform.add_argument("--out", help="output directory")

    p_filter = sub.add_parser("filter", help="hard-threshold a decomposition bundle")
    p_filter.add_argument("bundle", help="directory written by transform")
    p_filter.add_argument("--rule", default="keep-k", choices=THRESHOLD_RULES)
    one_run = p_filter.add_mutually_exclusive_group()
    one_run.add_argument("--value", help="threshold t, or k for keep-k")
    one_run.add_argument(
        "--sweep", action="store_true", help="print the full keep-k error table"
    )
    p_filter.add_argument("--out", help="output directory")

    p_padic = sub.add_parser("padic", help="codes, sums, distances, norms, dilation")
    p_padic.add_argument("--base", type=int, default=3, help="the prime-like base p")
    padic_sub = p_padic.add_subparsers(dest="padic_cmd", required=True)

    pp_encode = padic_sub.add_parser("encode", help="print every terminal code")
    pp_encode.add_argument("tree", help="dendrogram JSON")

    pp_dist = padic_sub.add_parser("dist", help="distance between two nodes")
    pp_dist.add_argument("tree", help="dendrogram JSON")
    pp_dist.add_argument("a", help="terminal label or q<rank>")
    pp_dist.add_argument("b", help="terminal label or q<rank>")

    pp_norm = padic_sub.add_parser("norm", help="norm of one node")
    pp_norm.add_argument("tree", help="dendrogram JSON")
    pp_norm.add_argument("node", help="terminal label or q<rank>")

    pp_dilate = padic_sub.add_parser("dilate", help="multiply codes by 1/p")
    pp_dilate.add_argument("tree", help="dendrogram JSON")
    which = pp_dilate.add_mutually_exclusive_group()
    which.add_argument("node", nargs="?", help="terminal label or q<rank>")
    which.add_argument("--all", action="store_true", help="dilate every terminal")

    pp_decode = padic_sub.add_parser("decode", help="rebuild a dendrogram from C.csv")
    pp_decode.add_argument("matrix", help="branch-code CSV written by transform")
    pp_decode.add_argument("--out", help="output directory")

    p_check = sub.add_parser("check", help="validate a matrix or dendrogram")
    source = p_check.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?", help="matrix CSV or dendrogram JSON")
    source.add_argument(
        "--demo",
        help=f"print a built-in walkthrough instead ({', '.join(demo_names())})",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built on the first call in a process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0 if code is None else 2
    # looked up when the command runs, so a wrapped or patched cmd_* takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
