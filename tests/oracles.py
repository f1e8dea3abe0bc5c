"""Reference implementations that the library's array paths replaced.

The tree functions read the tree node by node, with term sets built as
frozensets and ancestors found through a parent map, the way the library
did before it derived everything from the leaf order and gap ranks.  The
p-adic codes are dense tuples of Python ints, as they were before codes
stored their digits as bytes.  The matrix functions scan every pair or
triple in Python, the way clustering and the ultrametric checks did
before they ran on numpy arrays.  `is_ultrametric_rows`,
`triangle_classify_anchors` and `canonical_form_loops` are the checks as
they ran before they were built on the subdominant ultrametric: cubic
scans one anchor row at a time, and the layout rules cell by cell.  They
are slow (quadratic memory on a caterpillar tree, cubic time on a matrix)
and exist only so the differential tests can compare the fast paths
against them.  `decode_candidate` is `decode`'s accepting step as it ran
before it read the matrix in row blocks: a transposed copy, a union-find
and a comparison with rebuilt signs.  `decode_columns` is the only
column-by-column decoder left: `decode` now names a refused column from its
one candidate tree, and `decode_columns` is the reference for every tree and
message `decode` gives.  `to_json_dumps` and `inverse_dict` are the codec as
it ran before it worked by node id: the document serialized by
`json.dumps`, and a dict of smooth rows keyed by node.  The ``*_csv_cells``
writers are the CLI's tables as they were written before one writer formatted
each distinct value once: one string per cell, every row through
`csv.writer`.  `read_table_cells` is the CSV reader as it ran before plain
tables were parsed in row blocks by `np.loadtxt`: one Python string per
cell from `csv.reader`, then one `np.array` call.  `pway_to_json_dumps` is the p-way document as it
was serialized before both formats shared one writer.  `ascend_ranks` and `inverse_ranks` are the Haar
transform as it ran before it worked in waves of equal-height clusters:
one numpy step per rank.  `weighted_mean_merge` is the weighted merge as it
ran before `forward_weighted` carried row sums: a rounded mean at every
cluster, within a stated tolerance of the sums.  `check_merges`, `pway_term_set`,
`random_dendrogram` and `random_pway_merges` are p-way trees as they ran
on their own code beside `Dendrogram`: a set of seen NodeRefs, every
cluster's set rebuilt per call, and a random loop for each arity.
`check_merges_marked`, `build_layout`, `dilate_tree` and `unfold` are the
tree builders as they ran before a tree was stored as its table of child
node ids: a byte per node id marked while walking the NodeRefs, a layout
read from NodeRef pairs, and merges remapped one NodeRef at a time.
`cluster_heights` is the layout's heights as `Dendrogram._waves` walked
them before the layout's one walk recorded them.
`checked_matrix_whole` and `validate_dissimilarity_whole` are the two
square-matrix validators as they ran before they became one row-block
function: each rule checked over the whole matrix, with n x n temporaries.
`check_ball_axioms_per_ball` is the ball check as it ran before it
validated its matrix once: every `ball` call validated the matrix again.
`rows_above_blocks` is `Subdominant._rows_above` as it ran before it took
one accumulate per leaf position: a block of rows of U at a time, each a
tiled copy of the gap levels with the gaps left of its row blanked.
`dilation_steps_by_dilating` is `dilation_steps_to_null` as it ran before
it read the code's highest power: one `dilate` and one new code per step.
`agglomerate_square` is `hcluster._agglomerate_core` as it ran before it
worked on the condensed upper triangle: the same cached row minima on a
square working matrix with inf on and below the diagonal.
`pairwise_euclidean` is `hcluster._euclidean`'s cells as they were summed
for every feature count before fewer than 8 features were summed a column
at a time: one reduce over an n x n x m array of differences.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dendrowave import ultrametric
from dendrowave.hcluster import LINKAGES
from dendrowave.haar import WaveletDecomposition
from dendrowave.padic import PAdicCode, dilate, padd
from dendrowave.tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    _find,
    _row_blocks,
    build_from_merges,
    cluster,
    default_labels,
    terminal,
)
from dendrowave.ultrametric import DEFAULT_TOL, TriangleCensus, Verdict, _checked_matrix


def check_merges(labels: tuple[str, ...], merges, arity: int = 2) -> None:
    """The merge-list checks of `Dendrogram` and `PWayTree`, with a set of seen NodeRefs."""
    n = len(labels)
    seen: set[NodeRef] = set()
    for k, kids in enumerate(merges, start=1):
        if len(kids) != arity:
            raise ValidationError(f"rank {k}: expected {arity} children, got {len(kids)}")
        for child in kids:
            if child.is_terminal:
                if child.index > n:
                    raise ValidationError(
                        f"rank {k}: terminal {child.index} out of range 1..{n}"
                    )
            elif child.index >= k:
                raise ValidationError(
                    f"rank {k}: child cluster q{child.index} must rank below {k}"
                )
            if child in seen:
                raise ValidationError(f"rank {k}: {child!r} already merged earlier")
            seen.add(child)
    for i in range(1, n + 1):
        if merges and terminal(i) not in seen:
            raise ValidationError(f"terminal {i} never takes part in a merge")
    for j in range(1, len(merges)):
        if cluster(j) not in seen:
            raise ValidationError(f"cluster q{j} is never merged further (dangling)")


def _node_id(node: NodeRef, n: int) -> int:
    """Terminal i has node id i - 1, cluster k has node id n + k - 1."""
    return node.index - 1 if node.is_terminal else n + node.index - 1


def check_merges_marked(merges, n: int, arity: int) -> None:
    """The merge checks of `Dendrogram` and `PWayTree`, marking one byte per node id."""
    t = len(merges)
    seen = bytearray(n + t)  # by node id
    for k, kids in enumerate(merges, start=1):
        if len(kids) != arity:
            raise ValidationError(f"rank {k}: expected {arity} children, got {len(kids)}")
        for child in kids:
            if child.is_terminal:
                if child.index > n:
                    raise ValidationError(
                        f"rank {k}: terminal {child.index} out of range 1..{n}"
                    )
            elif child.index >= k:
                raise ValidationError(
                    f"rank {k}: child cluster q{child.index} must rank below {k}"
                )
            slot = _node_id(child, n)
            if seen[slot]:
                raise ValidationError(f"rank {k}: {child!r} already merged earlier")
            seen[slot] = 1
    if t and 0 in seen[:n]:
        raise ValidationError(f"terminal {seen.index(0) + 1} never takes part in a merge")
    if 0 in seen[n : n + t - 1]:
        j = seen.index(0, n) - n + 1
        raise ValidationError(f"cluster q{j} is never merged further (dangling)")


def build_layout(merges, n: int) -> dict[str, np.ndarray]:
    """The `TreeLayout` arrays by field name, read from NodeRef pairs."""
    kids = [[_node_id(a, n), _node_id(b, n)] for a, b in merges]
    # by node id
    size = [1] * n + [0] * (n - 1)
    low = list(range(1, n + 1)) + [0] * (n - 1)
    for node, (a, b) in enumerate(kids, start=n):
        size[node] = size[a] + size[b]
        low[node] = min(low[a], low[b])
    # descend from the root: the first child starts where its parent does
    start = [0] * (2 * n - 1)
    for node in range(2 * n - 2, n - 1, -1):
        a, b = kids[node - n]
        start[a] = start[node]
        start[b] = start[node] + size[a]
    start_arr, size_arr, low_arr = (np.array(v, dtype=np.int64) for v in (start, size, low))
    kids_arr = np.array(kids, dtype=np.int64).reshape(n - 1, 2)
    pos, lo, size_arr = start_arr[:n], start_arr[n:], size_arr[n:]
    mid = start_arr[kids_arr[:, 1]]
    order = np.empty(n, dtype=np.int64)
    order[pos] = np.arange(1, n + 1)
    gaps = np.empty(n - 1, dtype=np.int64)
    gaps[mid - 1] = np.arange(1, n)
    hi, low_arr = lo + size_arr, low_arr[n:]
    return dict(order=order, pos=pos, lo=lo, mid=mid, hi=hi, size=size_arr, low=low_arr,
                height=cluster_heights(merges), gaps=gaps, kids=kids_arr)


def cluster_heights(merges) -> np.ndarray:
    """Each cluster's longest path down to a terminal, by rank - 1, read from NodeRef pairs."""
    height: list[int] = []
    for a, b in merges:
        height.append(1 + max(0 if c.is_terminal else height[c.index - 1] for c in (a, b)))
    return np.array(height, dtype=np.int64)


def dilate_tree(d: Dendrogram) -> Dendrogram:
    """`padic.dilate_tree`, remapping the canonical merges one NodeRef at a time."""
    if d.n_clusters == 0:
        raise ValidationError("a single terminal cannot be dilated further")
    oriented = d.canonical
    a, b = oriented.children(1)
    keep_pos, drop_pos = a.index, b.index
    fused = f"{oriented.labels[keep_pos - 1]}+{oriented.labels[drop_pos - 1]}"

    def remap(i: int) -> int:
        return i - 1 if i > drop_pos else i

    labels = [
        fused if i == keep_pos else lab
        for i, lab in enumerate(oriented.labels, start=1)
        if i != drop_pos
    ]

    def convert(ref: NodeRef) -> NodeRef:
        if ref.is_terminal:
            return terminal(remap(ref.index))
        if ref.index == 1:
            return terminal(remap(keep_pos))
        return cluster(ref.index - 1)

    merges = [(convert(x), convert(y)) for x, y in oriented.merges[1:]]
    levels = None if oriented.levels is None else oriented.levels[1:]
    return build_from_merges(merges, levels=levels, labels=labels)


def unfold(t) -> Dendrogram:
    """`pway.unfold`, writing each p-way merge's chain one NodeRef pair at a time."""
    p = t.arity
    merges: list[tuple[NodeRef, NodeRef]] = []
    for k, kids in enumerate(t.merges, start=1):
        left, *rest = (c if c.is_terminal else cluster(c.index * (p - 1)) for c in kids)
        for rank, child in enumerate(rest, start=(k - 1) * (p - 1) + 1):
            merges.append((left, child))
            left = cluster(rank)
    return build_from_merges(merges, labels=t.labels)


def pway_term_set(t, node: NodeRef) -> frozenset[int]:
    """`PWayTree.term_set`, rebuilding every cluster's set on each call."""
    if node.is_terminal:
        if node.index > t.n_terminals:
            raise ValidationError(f"unknown node {node!r} for {t.n_terminals} terminals")
        return frozenset((node.index,))
    if node.index > t.n_internal:
        raise ValidationError(f"unknown node {node!r} for {t.n_terminals} terminals")
    sets: list[frozenset[int]] = []
    for kids in t.merges:
        acc: frozenset[int] = frozenset()
        for child in kids:
            acc |= frozenset((child.index,)) if child.is_terminal else sets[child.index - 1]
        sets.append(acc)
    return sets[node.index - 1]


def random_dendrogram(n: int, rng, with_levels: bool = False) -> Dendrogram:
    """`random_dendrogram` with its own loop: two sorted picks, the later popped first."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    active: list[NodeRef] = [terminal(i) for i in range(1, n + 1)]
    merges: list[tuple[NodeRef, NodeRef]] = []
    for k in range(1, n):
        i, j = sorted(gen.choice(len(active), size=2, replace=False))
        b = active.pop(int(j))
        a = active.pop(int(i))
        merges.append((a, b))
        active.append(cluster(k))
    levels = None
    if with_levels:
        levels = tuple(np.cumsum(gen.uniform(0.1, 1.0, size=n - 1)).tolist())
    return build_from_merges(merges, levels=levels)


def random_pway_merges(n_internal: int, arity: int, rng) -> list[tuple[NodeRef, ...]]:
    """The merge list `random_pway_tree` drew with its own loop."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = n_internal * (arity - 1) + 1
    active: list[NodeRef] = [terminal(i) for i in range(1, n + 1)]
    merges: list[tuple[NodeRef, ...]] = []
    for k in range(1, n_internal + 1):
        picks = sorted(gen.choice(len(active), size=arity, replace=False), reverse=True)
        kids = tuple(reversed([active.pop(int(i)) for i in picks]))
        merges.append(kids)
        active.append(cluster(k))
    return merges


def term_sets(d: Dendrogram) -> dict[NodeRef, frozenset[int]]:
    """Terminal set of every node, terminals and clusters alike."""
    sets = {terminal(i): frozenset((i,)) for i in range(1, d.n_terminals + 1)}
    for k, (a, b) in enumerate(d.merges, start=1):
        sets[cluster(k)] = sets[a] | sets[b]
    return sets


def parent_rank(d: Dendrogram) -> dict[NodeRef, int]:
    parents: dict[NodeRef, int] = {}
    for k, (a, b) in enumerate(d.merges, start=1):
        parents[a] = k
        parents[b] = k
    return parents


def leaf_order(d: Dendrogram) -> tuple[int, ...]:
    out: list[int] = []
    stack = [d.root]
    while stack:
        node = stack.pop()
        if node.is_terminal:
            out.append(node.index)
        else:
            a, b = d.merges[node.index - 1]
            stack.append(b)
            stack.append(a)
    return tuple(out)


def canonical_orient(d: Dendrogram) -> Dendrogram:
    sets = term_sets(d)
    merges = []
    for a, b in d.merges:
        if min(sets[a]) < min(sets[b]):
            merges.append((a, b))
        else:
            merges.append((b, a))
    return Dendrogram(d.labels, tuple(merges), d.levels)


def branch_signs(d: Dendrogram) -> np.ndarray:
    sets = term_sets(d)
    out = np.zeros((d.n_terminals, d.n_clusters), dtype=np.int8)
    for k, (a, b) in enumerate(d.merges, start=1):
        for i in sets[a]:
            out[i - 1, k - 1] = 1
        for i in sets[b]:
            out[i - 1, k - 1] = -1
    return out


def lca(d: Dendrogram, i: int, j: int, parents=None) -> NodeRef:
    """Walk up from i collecting ancestors, then up from j to the first shared one."""
    parents = parent_rank(d) if parents is None else parents
    ancestors: set[int] = set()
    node = terminal(i)
    while node in parents:
        ancestors.add(parents[node])
        node = cluster(parents[node])
    node = terminal(j)
    while node in parents:
        k = parents[node]
        if k in ancestors:
            return cluster(k)
        node = cluster(k)
    raise AssertionError(f"terminals {i} and {j} share no ancestor")


def cophenetic(d: Dendrogram, use: str = "ranks") -> np.ndarray:
    n = d.n_terminals
    parents = parent_rank(d)
    out = np.zeros((n, n), dtype=np.int64 if use == "ranks" else float)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            k = lca(d, i, j, parents).index
            v = k if use == "ranks" else d.levels[k - 1]
            out[i - 1, j - 1] = v
            out[j - 1, i - 1] = v
    return out


def cluster_code(d: Dendrogram, node: NodeRef, base: int = 3) -> PAdicCode:
    """Fold of the member codes, checked against the parent-walk root path."""
    oriented = canonical_orient(d)
    codes = [PAdicCode(tuple(int(c) for c in row), base) for row in branch_signs(oriented)]
    members = sorted(term_sets(oriented)[node])
    folded = codes[members[0] - 1]
    for i in members[1:]:
        folded = padd(folded, codes[i - 1])

    coeffs = [0] * (oriented.n_terminals - 1)
    parents = parent_rank(oriented)
    child = node
    while child in parents:
        k = parents[child]
        first, _second = oriented.children(k)
        coeffs[k - 1] = 1 if child == first else -1
        child = cluster(k)
    assert PAdicCode(tuple(coeffs), base) == folded, node
    return folded


@dataclass(frozen=True)
class TupleCode:
    """A p-adic code as a dense tuple of Python ints, one per power."""

    coeffs: tuple[int, ...]
    base: int = 3

    @property
    def n_terminals(self) -> int:
        return len(self.coeffs) + 1

    @property
    def is_null(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.coeffs, start=1) if c)

    def decimal(self, base: int | None = None) -> int:
        p = self.base if base is None else base
        return sum(c * p**j for j, c in enumerate(self.coeffs, start=1))

    def to_string(self, symbol: str | None = None) -> str:
        sym = "p" if symbol is None else str(symbol)
        parts = [
            f"{'+' if c > 0 else '-'}{sym}^{j}"
            for j, c in enumerate(self.coeffs, start=1)
            if c
        ]
        return "".join(parts) if parts else "0"


def encode(d: Dendrogram, base: int = 3) -> tuple[list[TupleCode], np.ndarray]:
    """One code tuple per row of the canonical branch signs."""
    signs = branch_signs(canonical_orient(d))
    return [TupleCode(tuple(row.tolist()), base) for row in signs], signs


def padd_tuples(a: TupleCode, b: TupleCode) -> TupleCode:
    return TupleCode(tuple(ca if ca == cb else 0 for ca, cb in zip(a.coeffs, b.coeffs)), a.base)


def dilate_tuples(code: TupleCode) -> TupleCode:
    """Shift down one power into a zero; the code keeps its length, an empty one too."""
    return TupleCode(code.coeffs[1:] + (0,) * bool(code.coeffs), code.base)


def dilation_steps_by_dilating(code: PAdicCode) -> int:
    """Dilate until the null code is reached and count the steps."""
    steps = 0
    while not code.is_null:
        code = dilate(code)
        steps += 1
    return steps


def pdistance_tuples(a: TupleCode, b: TupleCode) -> Fraction:
    """p^-r with r the first level where both codes are nonzero."""
    if a == b:
        return Fraction(0)
    common = [j for j, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs), start=1) if ca and cb]
    r = common[0] if common else a.n_terminals - 1
    return Fraction(1, a.base**r)


def decode(mat: np.ndarray, labels=None) -> Dendrogram:
    """Rebuild a tree from an n x (n-1) sign matrix with frozenset bookkeeping."""
    n = mat.shape[0]
    covering: dict[int, NodeRef] = {i: terminal(i) for i in range(1, n + 1)}
    node_terms: dict[NodeRef, frozenset[int]] = {
        terminal(i): frozenset((i,)) for i in range(1, n + 1)
    }
    merges: list[tuple[NodeRef, NodeRef]] = []
    for k in range(1, n):
        col = mat[:, k - 1]
        plus = frozenset(int(i) + 1 for i in np.flatnonzero(col == 1))
        minus = frozenset(int(i) + 1 for i in np.flatnonzero(col == -1))
        if not plus or not minus:
            raise ValidationError(f"column cluster_{k}: both signs must appear")
        children = []
        for side, name in ((plus, "+1"), (minus, "-1")):
            node = covering[min(side)]
            if node_terms[node] != side:
                raise ValidationError(
                    f"column cluster_{k}: {name} rows do not match any current subtree "
                    "(not a laminar family)"
                )
            children.append(node)
        new = cluster(k)
        node_terms[new] = plus | minus
        for i in plus | minus:
            covering[i] = new
        merges.append((children[0], children[1]))
    if merges and node_terms[cluster(n - 1)] != frozenset(range(1, n + 1)):
        raise ValidationError("the final column must merge everything into the root")
    return build_from_merges(merges, labels=labels)


def decode_columns(codes_or_matrix, labels=None) -> Dendrogram:
    """`padic.decode` checking every column as it builds the tree."""
    if isinstance(codes_or_matrix, np.ndarray):
        mat = np.asarray(codes_or_matrix)
    else:
        codes = list(codes_or_matrix)
        n = len(codes)
        for code in codes:
            if len(code.digits) != n - 1:
                raise ValidationError(f"{n} codes need length {n - 1}, got {len(code.digits)}")
        rows = np.frombuffer(b"".join(code.digits for code in codes), dtype=np.int8)
        mat = rows.reshape(n, n - 1) if codes else np.zeros((1, 0), dtype=np.int8)
    if mat.ndim != 2:
        raise ValidationError("branch codes must form a 2-d matrix")
    n, m = mat.shape
    if m != n - 1:
        raise ValidationError(f"matrix must be n x (n-1), got {n} x {m}")
    if not ((mat == 0) | (mat == 1) | (mat == -1)).all():
        raise ValidationError("branch codes contain entries other than -1, 0, +1")

    # node ids: terminal i is i - 1, cluster k is n + k - 1
    cover = np.arange(n)  # the id of the largest node built so far over each row
    size = np.ones(2 * n - 1, dtype=np.int64)

    def ref(node_id: int) -> NodeRef:
        return terminal(node_id + 1) if node_id < n else cluster(node_id - n + 1)

    merges: list[tuple[NodeRef, NodeRef]] = []
    for k, col in enumerate(np.ascontiguousarray(mat.T), start=1):
        rows = np.flatnonzero(col)
        positive = col[rows] == 1
        sides = (rows[positive], rows[~positive])
        if not sides[0].size or not sides[1].size:
            raise ValidationError(f"column cluster_{k}: both signs must appear")
        children = []
        for rows, name in zip(sides, ("+1", "-1")):
            node_id = int(cover[rows[0]])
            if rows.size != size[node_id] or (cover[rows] != node_id).any():
                raise ValidationError(
                    f"column cluster_{k}: {name} rows do not match any current subtree "
                    "(not a laminar family)"
                )
            children.append(ref(node_id))
        new_id = n + k - 1
        cover[sides[0]] = cover[sides[1]] = new_id
        size[new_id] = sides[0].size + sides[1].size
        merges.append((children[0], children[1]))
    if merges and size[-1] != n:
        raise ValidationError("the final column must merge everything into the root")
    return build_from_merges(merges, labels=labels)


def decode_candidate(mat: np.ndarray, labels=None) -> Dendrogram | None:
    """The tree `padic.decode` accepted before it read the matrix in row blocks, or None.

    Each column's first +1 and -1 row come from a contiguous copy of the
    transposed matrix, a union-find merges the largest nodes built over
    them, and the tree is accepted when its rebuilt signs equal the matrix.
    """
    n = mat.shape[0]
    cols = np.ascontiguousarray(mat.T)
    plus, minus = cols.argmax(axis=1), cols.argmin(axis=1)
    ranks = np.arange(len(cols))
    if not ((cols[ranks, plus] == 1).all() and (cols[ranks, minus] == -1).all()):
        return None
    top = list(range(2 * n - 1))  # a node's parent, or itself while it is unmerged
    kids = []
    for new_id, p, q in zip(range(n, 2 * n - 1), plus.tolist(), minus.tolist()):
        a, b = _find(top, p), _find(top, q)
        if a == b:
            return None
        top[a] = top[b] = new_id
        kids.append((a, b))
    if labels is not None and len(labels) != n:
        return None
    names = default_labels(n) if labels is None else tuple(map(str, labels))
    try:
        tree = Dendrogram(names, np.array(kids, dtype=np.int64).reshape(-1, 2))
    except ValidationError:
        return None
    return tree if np.array_equal(branch_signs(tree), mat) else None


def to_json_dumps(d: Dendrogram, indent: int | None = 2) -> str:
    """The dendrogram document serialized by `json.dumps`."""
    doc: dict = {
        "format": "dendrogram",
        "n_terminals": d.n_terminals,
        "terminals": list(d.labels),
        "merges": [
            {"rank": k, "children": [{a.kind: a.index}, {b.kind: b.index}]}
            for k, (a, b) in enumerate(d.merges, start=1)
        ],
    }
    if d.levels is not None:
        doc["levels"] = list(d.levels)
    return json.dumps(doc, indent=indent, sort_keys=True)


def pway_to_json_dumps(t, indent: int | None = 2) -> str:
    """The p-way tree document serialized by `json.dumps`."""
    doc = {
        "format": "pway_tree",
        "arity": t.arity,
        "n_terminals": t.n_terminals,
        "terminals": list(t.labels),
        "merges": [
            {"rank": k, "children": [{c.kind: c.index} for c in kids]}
            for k, kids in enumerate(t.merges, start=1)
        ],
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def inverse_dict(w: WaveletDecomposition) -> np.ndarray:
    """Descend the ranks keeping each cluster's smooth in a dict keyed by node."""
    tree = w.tree
    n, m = tree.n_terminals, w.n_features
    X = np.zeros((n, m))
    if tree.n_clusters == 0:
        X[0] = w.smooth
        return X
    smooth: dict[NodeRef, np.ndarray] = {tree.root: np.asarray(w.smooth, dtype=float)}
    for k in range(tree.n_clusters, 0, -1):
        a, b = tree.children(k)
        s = smooth.pop(cluster(k))
        detail = w.details[k - 1]
        if w.child_sizes is None:
            sa = s + detail
            sb = s - detail
        else:
            na, nb = w.child_sizes[k - 1]
            sa = s + detail
            sb = s - (na / nb) * detail
        for node, val in ((a, sa), (b, sb)):
            if node.is_terminal:
                X[node.index - 1] = val
            else:
                smooth[node] = val
    return X


def plain_merge(sa, sb, na, nb):
    """The plain merge as `forward` computes it whenever no sum overflows."""
    return (sa + sb) / 2.0, (sa - sb) / 2.0


def halved_merge(sa, sb, na, nb):
    """The plain merge with both smooths halved first."""
    return sa / 2.0 + sb / 2.0, sa / 2.0 - sb / 2.0


def weighted_sum_merge(ta, tb, na, nb):
    """`forward_weighted`'s merge on row sums: t = t_a + t_b, detail t_a / |a| - t / (|a| + |b|)."""
    total = ta + tb
    return total, ta / na - total / (na + nb)


def weighted_mean_merge(sa, sb, na, nb):
    """`forward_weighted`'s merge before it carried row sums: the weighted mean of the child means."""
    merged = (na * sa + nb * sb) / (na + nb)
    return merged, sa - merged


def ascend_ranks(X, tree: Dendrogram, merge) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Haar forward pass one rank at a time over rows indexed by node id.

    ``merge`` is `plain_merge`, `halved_merge`, `weighted_sum_merge` or
    `weighted_mean_merge`, each given both child sizes; ``X`` is the checked n x m data.  Returns the
    details by rank, the final smooth (the root's sum over n for
    `weighted_sum_merge`) and the (n-1) x 2 child sizes.
    """
    lay = tree.layout
    sizes = np.stack((lay.mid - lay.lo, lay.hi - lay.mid), axis=1)
    smooth = list(X)  # by node id: the terminal rows, then each cluster as it merges
    details = np.zeros((tree.n_clusters, X.shape[1]))
    for k, ((a, b), (na, nb)) in enumerate(zip(lay.kids.tolist(), sizes.tolist())):
        merged, details[k] = merge(smooth[a], smooth[b], na, nb)
        smooth.append(merged)
    final = smooth[-1] if tree.n_clusters else X[0].copy()
    if merge is weighted_sum_merge:
        final = final / tree.n_terminals
    return details, final, sizes


def inverse_ranks(w: WaveletDecomposition) -> np.ndarray:
    """The Haar inverse one rank at a time, from the root down, by node id."""
    tree = w.tree
    n, m = tree.n_terminals, w.n_features
    X = np.empty((n, m))
    if tree.n_clusters == 0:
        X[0] = w.smooth
        return X
    smooth = np.empty((n - 1, m))
    smooth[-1] = w.smooth
    rows = list(X) + list(smooth)  # by node id
    kids, details = tree.layout.kids.tolist(), list(w.details)
    if w.child_sizes is None:
        for k in range(n - 2, -1, -1):
            s, detail, (a, b) = rows[n + k], details[k], kids[k]
            np.add(s, detail, out=rows[a])
            np.subtract(s, detail, out=rows[b])
    else:
        ratios = (w.child_sizes[:, 0] / w.child_sizes[:, 1]).tolist()
        for k in range(n - 2, -1, -1):
            s, detail, (a, b) = rows[n + k], details[k], kids[k]
            np.add(s, detail, out=rows[a])
            np.subtract(s, ratios[k] * detail, out=rows[b])
    return X


def write_csv_cells(path, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_branch_csv_cells(path, w: WaveletDecomposition) -> None:
    """C.csv through the csv module, formatting every sign cell."""
    rows = [["terminal"] + [f"cluster_{k}" for k in w.order]]
    for i, label in enumerate(w.tree.labels):
        rows.append([label] + [str(int(v)) for v in w.branch_codes[i]])
    write_csv_cells(path, rows)


def write_detail_csv_cells(path, w: WaveletDecomposition, features: list[str]) -> None:
    """D.csv through the csv module, formatting every detail cell."""
    rows = [["cluster"] + features]
    for k in w.order:
        rows.append([f"cluster_{k}"] + [_fmt(v) for v in w.details[k - 1]])
    write_csv_cells(path, rows)


def write_smooth_csv_cells(path, w: WaveletDecomposition, features: list[str]) -> None:
    """smooth.csv through the csv module: the feature names, then the smooth row."""
    write_csv_cells(path, [features, [_fmt(v) for v in w.smooth]])


def write_reconstruction_csv_cells(path, rec, features: list[str]) -> None:
    """reconstruction.csv through the csv module, formatting every cell."""
    write_csv_cells(path, [features] + [[_fmt(v) for v in row] for row in rec])


def caterpillar(n: int, rng: np.random.Generator, with_levels: bool = False) -> Dendrogram:
    """A chain of depth n - 1 over shuffled terminals with random child order."""
    perm = (rng.permutation(n) + 1).tolist()
    merges = []
    left = terminal(perm[0])
    for k in range(1, n):
        pair = (left, terminal(perm[k]))
        merges.append(pair[::-1] if rng.integers(2) else pair)
        left = cluster(k)
    levels = np.cumsum(rng.uniform(0.1, 1.0, size=n - 1)).tolist() if with_levels else None
    return build_from_merges(merges, levels=levels)


def pairwise_euclidean(X) -> np.ndarray:
    """All differences at once: an n x n x m array, each cell's squares summed by one reduce."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    diffs = X[:, None, :] - X[None, :, :]
    return np.sqrt((diffs**2).sum(axis=-1))


def agglomerate_core(
    M: np.ndarray, criterion: str
) -> tuple[list[tuple[NodeRef, NodeRef]], list[float]]:
    """Scan a dictionary of all cluster pairs for the closest one at every step."""
    coeffs = LINKAGES[criterion]
    n = M.shape[0]
    refs: dict[int, NodeRef] = {i: terminal(i + 1) for i in range(n)}
    sizes: dict[int, int] = {i: 1 for i in range(n)}
    mins: dict[int, int] = {i: i for i in range(n)}
    dist: dict[tuple[int, int], float] = {
        (i, j): float(M[i, j]) for i in range(n) for j in range(i + 1, n)
    }
    active = set(range(n))
    merges: list[tuple[NodeRef, NodeRef]] = []
    levels: list[float] = []

    def pair_key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    for step in range(1, n):
        best = None
        for i, j in dist:
            lo, hi = sorted((mins[i], mins[j]))
            cand = (dist[(i, j)], lo, hi, i, j)
            if best is None or cand < best:
                best = cand
        level, _, _, ia, ib = best
        if mins[ib] < mins[ia]:
            ia, ib = ib, ia
        merges.append((refs[ia], refs[ib]))
        levels.append(level)

        new_id = n + step - 1
        na, nb = sizes[ia], sizes[ib]
        d_ab = dist.pop(pair_key(ia, ib))
        active.discard(ia)
        active.discard(ib)
        for k in active:
            d_ka = dist.pop(pair_key(k, ia))
            d_kb = dist.pop(pair_key(k, ib))
            aa, ab, beta, gamma = coeffs(na, nb, sizes[k])
            dist[pair_key(k, new_id)] = (
                aa * d_ka + ab * d_kb + beta * d_ab + gamma * abs(d_ka - d_kb)
            )
        refs[new_id] = cluster(step)
        sizes[new_id] = na + nb
        mins[new_id] = min(mins[ia], mins[ib])
        active.add(new_id)
    return merges, levels


def agglomerate_square(M: np.ndarray, criterion: str) -> tuple[list[tuple[int, int]], list[float]]:
    """Merge the closest pair n - 1 times on a square copy of M's upper triangle.

    A cluster lives in the slot of its smallest member, so a merge keeps
    the lower slot.  D holds the upper triangle of M and inf everywhere
    else, including the rows and columns of retired slots.  rowmin[i] and
    rowarg[i] cache the minimum of row i and its first column (-1 once i
    retires).  Returns the children as node ids (terminal i is i - 1,
    cluster k is n + k - 1) and the levels.
    """
    coeffs = LINKAGES[criterion]
    n = M.shape[0]
    D = np.where(np.tri(n, dtype=bool), np.inf, M)  # inf on and below the diagonal
    rowmin = D.min(axis=1)
    rowarg = D.argmin(axis=1)
    sizes = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    node = list(range(n))  # the node id in each slot
    kids: list[tuple[int, int]] = []
    levels: list[float] = []

    for step in range(1, n):
        lo = int(np.argmin(rowmin))
        hi = int(rowarg[lo])
        d_ab = D[lo, hi]
        kids.append((node[lo], node[hi]))
        levels.append(float(d_ab))

        alive[hi] = False
        ks = np.flatnonzero(alive)
        ks = ks[ks != lo]
        d_ka = np.where(ks < lo, D[ks, lo], D[lo, ks])
        d_kb = np.where(ks < hi, D[ks, hi], D[hi, ks])
        aa, ab, beta, gamma = coeffs(int(sizes[lo]), int(sizes[hi]), sizes[ks])
        new = aa * d_ka + ab * d_kb + beta * d_ab + gamma * np.abs(d_ka - d_kb)

        below = ks < lo
        D[ks[below], lo] = new[below]
        D[lo, ks[~below]] = new[~below]
        D[:hi, hi] = np.inf
        D[hi, hi + 1 :] = np.inf
        sizes[lo] += sizes[hi]
        node[lo] = n + step - 1

        stale = np.flatnonzero((rowarg[:hi] == lo) | (rowarg[:hi] == hi))
        col = D[:lo, lo]
        take = (col < rowmin[:lo]) | ((col == rowmin[:lo]) & (lo < rowarg[:lo]))
        rowmin[:lo][take] = col[take]
        rowarg[:lo][take] = lo
        rowmin[stale] = D[stale].min(axis=1)
        rowarg[stale] = D[stale].argmin(axis=1)
        rowmin[hi] = np.inf
        rowarg[hi] = -1
    return kids, levels


def is_ultrametric(M, tol: float = DEFAULT_TOL) -> Verdict:
    """Per anchor row, the bound over middle points built from a list of n rows."""
    A = _checked_matrix(M).astype(float)
    n = A.shape[0]
    for x in range(n):
        caps = np.minimum.reduce([np.maximum(A[x, y], A[y]) for y in range(n)])
        bad = A[x] > caps * (1.0 + tol)
        if bad.any():
            z = int(np.flatnonzero(bad)[0])
            y = int(np.argmin(np.array([max(A[x, t], A[t, z]) for t in range(n)])))
            return Verdict(
                False,
                witness=(x, y, z),
                detail=(
                    f"d({x},{z}) = {float(A[x, z])!r} exceeds "
                    f"max(d({x},{y}), d({y},{z})) = {float(max(A[x, y], A[y, z]))!r}"
                ),
            )
    return Verdict(True)


def triangle_classify(M, tol: float = DEFAULT_TOL) -> TriangleCensus:
    """Sort the three sides of every triple in Python."""
    A = _checked_matrix(M).astype(float)
    n = A.shape[0]
    eq = iso = bad = 0
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = sorted((A[i, j], A[i, k], A[j, k]))
        if c > b * (1.0 + tol):
            bad += 1
        elif c <= a * (1.0 + tol):
            eq += 1
        else:
            iso += 1
    return TriangleCensus(eq, iso, bad)


def is_ultrametric_rows(M, tol: float = DEFAULT_TOL) -> Verdict:
    """Every anchor row in turn: its cap over one middle point, as an n x n max."""
    A = _checked_matrix(M).astype(float)
    n = A.shape[0]
    for x in range(n):
        # the tightest bound over middle points: min_y max(d(x,y), d(y,z))
        caps = np.maximum(A[x][:, None], A).min(axis=0)
        bad = A[x] > caps * (1.0 + tol)
        if bad.any():
            z = int(np.flatnonzero(bad)[0])
            y = int(np.argmin(np.maximum(A[x], A[:, z])))
            return Verdict(
                False,
                witness=(x, y, z),
                detail=(
                    f"d({x},{z}) = {float(A[x, z])!r} exceeds "
                    f"max(d({x},{y}), d({y},{z})) = {float(max(A[x, y], A[y, z]))!r}"
                ),
            )
    return Verdict(True)


def triangle_classify_anchors(M, tol: float = DEFAULT_TOL) -> TriangleCensus:
    """One anchor i at a time, elementwise min and max over the block of j, k > i.

    The block is symmetric, so both counts come from the whole block minus
    its diagonal, halved.
    """
    A = _checked_matrix(M).astype(float)
    n = A.shape[0]
    scale = 1.0 + tol
    eq = bad = 0
    for i in range(n - 2):
        x = A[i, i + 1 :]
        z = A[i + 1 :, i + 1 :]
        shorter = np.minimum.outer(x, x)
        longer = np.maximum.outer(x, x)
        small = np.minimum(shorter, z)
        middle = np.maximum(shorter, np.minimum(longer, z))
        large = np.maximum(longer, z)
        violating = large > middle * scale
        equilateral = ~violating & (large <= small * scale)
        bad += (int(violating.sum()) - int(violating.diagonal().sum())) // 2
        eq += (int(equilateral.sum()) - int(equilateral.diagonal().sum())) // 2
    total = n * (n - 1) * (n - 2) // 6
    return TriangleCensus(eq, total - eq - bad, bad)


def canonical_form_loops(M, order, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, Verdict]:
    """The canonical-layout conditions tested cell by cell in Python loops."""
    A = _checked_matrix(M).astype(float)
    n = A.shape[0]
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order must be a permutation of 0..{n - 1}")
    A = A[np.ix_(order, order)]

    def close(u: float, v: float) -> bool:
        return abs(u - v) <= tol * max(abs(u), abs(v))

    for k in range(n - 1):
        for j in range(k + 1, n - 1):
            if A[k, j] > A[k, j + 1] and not close(A[k, j], A[k, j + 1]):
                return A, Verdict(
                    False,
                    witness=(k, j, j + 1),
                    detail=f"row {k} decreases from column {j} to {j + 1}",
                )
    for k in range(n - 1):
        run_end = k + 1
        while run_end + 1 < n and close(A[k, run_end + 1], A[k, k + 1]):
            run_end += 1
        for j in range(k + 2, run_end + 1):
            if A[k + 1, j] > A[k, j] and not close(A[k + 1, j], A[k, j]):
                return A, Verdict(
                    False,
                    witness=(k, k + 1, j),
                    detail=f"row {k + 1} exceeds row {k} at column {j} inside the equal run",
                )
        for j in range(run_end + 1, n):
            if not close(A[k + 1, j], A[k, j]):
                return A, Verdict(
                    False,
                    witness=(k, k + 1, j),
                    detail=f"rows {k} and {k + 1} differ at column {j} beyond the equal run",
                )
    return A, Verdict(True)


def matrix_to_csv_cells(M, labels) -> str:
    """The matrix CSV written through the csv module, formatting every cell."""
    M = np.asarray(M)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(labels))
    integral = np.issubdtype(M.dtype, np.integer)
    for row in M:
        writer.writerow(
            [str(int(v)) if integral else format(float(v), ".12g") for v in row]
        )
    return buf.getvalue()


def read_table_cells(
    text: str, labelled: bool = False
) -> tuple[list[str], list[str] | None, np.ndarray]:
    """The CSV table read through `csv.reader`, one Python string per cell.

    Row labels come back as written and header names stripped.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except csv.Error as exc:
        raise ValidationError(f"not a CSV table: {exc}") from exc
    if not rows:
        raise ValidationError("empty file")
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(f"row {i}: expected {len(header)} values, got {len(row)}")
    skip = int(labelled)
    cells = [row[skip:] for row in body]
    try:
        values = np.array(cells, dtype=float).reshape(len(body), len(header) - skip)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for i, row in enumerate(cells, start=2):
            for j, cell in enumerate(row, start=skip + 1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"row {i}, column {j}: could not parse {cell.strip()!r}"
                    ) from None
                if not np.isfinite(value):
                    raise ValidationError(
                        f"row {i}, column {j}: expected a finite number, got {cell.strip()!r}"
                    )
    labels = [row[0] for row in body] if labelled else None
    return [s.strip() for s in header[skip:]], labels, values


def checked_matrix_whole(M) -> np.ndarray:
    """The distance-matrix checks, each over the whole matrix."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {M.shape}")
    if not np.isfinite(M.astype(float)).all():
        raise ValidationError("distance matrix contains non-finite entries")
    if not np.array_equal(M, M.T):
        raise ValidationError("distance matrix is not symmetric")
    if np.abs(np.diag(M)).max(initial=0) > 0:
        raise ValidationError("distance matrix needs a zero diagonal")
    if M.min(initial=0) < 0:
        raise ValidationError("distances must be nonnegative")
    return M


def validate_dissimilarity_whole(M) -> np.ndarray:
    """The dissimilarity checks on a float copy, each over the whole matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"dissimilarity matrix must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError("dissimilarity matrix contains non-finite entries")
    if not np.allclose(M, M.T, rtol=1e-9, atol=1e-12):
        raise ValidationError("dissimilarity matrix is not symmetric")
    if np.abs(np.diag(M)).max(initial=0.0) > 0:
        raise ValidationError("dissimilarity matrix needs a zero diagonal")
    if M.min(initial=0.0) < 0:
        raise ValidationError("dissimilarities must be nonnegative")
    return M


def check_ball_axioms_per_ball(M, radii=None) -> Verdict:
    """The ball axioms with every `ball` call validating the matrix again."""
    A = _checked_matrix(M)
    tol = 0 if np.issubdtype(A.dtype, np.integer) else DEFAULT_TOL
    verdict = ultrametric.is_ultrametric(A, tol=tol)
    if not verdict:
        raise ValidationError(f"matrix is not ultrametric: {verdict.detail}")
    n = A.shape[0]
    if radii is None:
        radii = sorted(set(np.asarray(A).ravel().tolist()))
    for r in radii:
        balls = [ultrametric.ball(A, c, r) for c in range(n)]
        for c in range(n):
            for member in balls[c]:
                if balls[member] != balls[c]:
                    return Verdict(
                        False,
                        witness=(c, member, -1),
                        detail=f"radius {r}: member {member} generates a different ball than {c}",
                    )
        distinct = {b for b in balls}
        for b1, b2 in itertools.combinations(distinct, 2):
            if b1 & b2:
                return Verdict(
                    False,
                    detail=f"radius {r}: balls {sorted(b1)} and {sorted(b2)} overlap",
                )
            gaps = {A[x, y] for x in b1 for y in b2}
            if len(gaps) != 1:
                return Verdict(
                    False,
                    detail=(
                        f"radius {r}: distance between balls {sorted(b1)} and "
                        f"{sorted(b2)} is not constant ({sorted(gaps)})"
                    ),
                )
    return Verdict(True)


def rows_above_blocks(sub: ultrametric.Subdominant, A: np.ndarray, scale: float) -> np.ndarray:
    """The points x with A[x, z] > U[x, z] * scale for some z, U a block of rows at a time."""
    lay = sub.tree.layout
    n = len(lay.order)
    order = lay.order - 1
    gap_caps = sub.levels[lay.gaps - 1] * scale
    above = np.zeros(n, dtype=bool)  # by leaf position
    for p0, p1 in _row_blocks(n - 1, n):
        # caps[i, j] is U * scale at positions (p0 + i, p0 + 1 + j) for
        # j >= i; gaps left of row i's start are blanked (levels are >= 0)
        caps = np.tile(gap_caps[p0:], (p1 - p0, 1))
        left = np.tri(p1 - p0, k=-1, dtype=bool)
        caps[:, : p1 - p0][left] = 0.0
        np.maximum.accumulate(caps, axis=1, out=caps)
        caps[:, : p1 - p0][left] = np.inf
        over = A[np.ix_(order[p0:p1], order[p0 + 1 :])] > caps
        above[p0:p1] |= over.any(axis=1)
        above[p0 + 1 :] |= over.any(axis=0)
    return above[lay.pos]
