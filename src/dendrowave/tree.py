"""Node-ranked binary dendrograms.

A dendrogram on n terminals is a rooted binary tree whose n - 1 internal
nodes carry the merge order as ranks 1..n-1; rank n - 1 is the root and
every child merges strictly below its parent.  Child order is stored
explicitly, so the 2**(n-1) equivalent representations obtained by
exchanging the two subtrees at any subset of nodes can be produced
(`apply_swap`), compared, and reduced to a single canonical orientation
(`canonical_orient`).

Terminals are indexed 1..n and carry string labels; the label order fixes
the row order of any data matrix associated with the tree.  A tree is
stored as the read-only table of its children's node ids, one row per
rank; the NodeRef pairs of `Dendrogram.merges` are read from it.
"""

from __future__ import annotations

import contextlib
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when a structural invariant is violated."""


@dataclass(frozen=True, slots=True)
class NodeRef:
    """Reference to one node: a terminal (index 1..n) or a cluster (rank 1..n-1)."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        kind, i = self.kind, self.index
        if kind not in ("terminal", "cluster"):
            raise ValidationError(f"unknown node kind {kind!r}")
        if type(i) is not int and (type(i) is bool or not isinstance(i, (int, np.integer))):
            raise ValidationError(f"{kind} index must be an integer, got {i!r}")
        if i < 1:
            raise ValidationError(f"{kind} index must be >= 1, got {i}")

    @property
    def is_terminal(self) -> bool:
        return self.kind == "terminal"

    @property
    def rank(self) -> int:
        """Merge rank of the node.  Terminals sit below every merge and get 0."""
        return 0 if self.is_terminal else self.index

    def __repr__(self) -> str:
        return f"{'x' if self.is_terminal else 'q'}{self.index}"


def terminal(i: int) -> NodeRef:
    return NodeRef("terminal", i)


def cluster(j: int) -> NodeRef:
    return NodeRef("cluster", j)


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class TreeLayout:
    """Array form of a dendrogram: its leaf order plus one rank per gap.

    Reading the leaves left to right in stored child order puts every
    cluster on a contiguous run of positions ``[lo, hi)``, its first child
    on ``[lo, mid)`` and its second on ``[mid, hi)``.  The gap between
    positions ``mid - 1`` and ``mid`` belongs to that cluster alone, so
    the order plus the n - 1 gap ranks encode the whole tree, and the
    lowest common cluster of two leaves is the largest gap rank between
    them.

    Cluster arrays are indexed by rank - 1 and ``pos`` by terminal - 1,
    like ``Dendrogram.merges`` and ``Dendrogram.labels``.  ``kids`` is the
    tree's own table of child node ids.  The arrays are read-only because
    every caller shares them.
    """

    order: np.ndarray  # terminal index at each leaf position
    pos: np.ndarray  # leaf position of each terminal
    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray
    size: np.ndarray  # hi - lo, the number of terminals under each cluster
    low: np.ndarray  # smallest terminal index under each cluster
    gaps: np.ndarray  # gaps[mid[k - 1] - 1] == k
    kids: np.ndarray  # node ids of the first and second child of each cluster


def _node_ref(node_id: int, n: int) -> NodeRef:
    """The node with id ``node_id`` in a tree on n terminals."""
    return terminal(node_id + 1) if node_id < n else cluster(node_id - n + 1)


def _find(parent: list[int], i: int) -> int:
    """The root of i's set in a union-find forest, halving the path walked."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _table(terms: list[bool], index: list[int], n: int, arity: int) -> np.ndarray:
    """The id table of children in rank order, given as terminal flags and indices.

    Terminal i > n gets id -i; an index past every node makes it a table of Python ints.
    """
    idx = np.array(index, dtype=object if index and max(index) > n + len(index) else np.int64)
    return np.where(terms, np.where(idx > n, -idx, idx - 1), idx + (n - 1)).reshape(-1, arity)


def _check_ids(ids: np.ndarray, n: int, arity: int, complete: bool = True) -> None:
    """The merge rules of binary and p-way trees, on a `_table`, in O(1) numpy calls.

    Every terminal and non-root cluster is a child exactly once, and below
    its parent.  Raises the first rule broken in rank and child order; the
    rules on the whole tree are checked only if the table is ``complete``.
    """
    flat, rank = ids.reshape(-1), np.arange(ids.size) // arity + 1
    out = (flat < 0) | (flat - (n - 1) >= rank)  # a terminal beyond n, or a cluster not below
    seen = None if out.any() else np.bincount(flat, minlength=n + len(ids))
    if seen is None or seen.max(initial=0) > 1:
        by_id = np.argsort(flat, kind="stable")
        again = np.zeros_like(out)  # each use of an id after its first
        again[by_id[1:][flat[by_id[1:]] == flat[by_id[:-1]]]] = True
        at = int(np.argmax(out | again))
        k, v = at // arity + 1, int(flat[at])
        if v < 0:
            raise ValidationError(f"rank {k}: terminal {-v} out of range 1..{n}")
        if out[at]:
            raise ValidationError(f"rank {k}: child cluster q{v - n + 1} must rank below {k}")
        raise ValidationError(f"rank {k}: {_node_ref(v, n)!r} already merged earlier")
    if complete and len(ids) and not seen[:n].all():
        raise ValidationError(f"terminal {seen[:n].argmin() + 1} never takes part in a merge")
    if complete and not seen[n:-1].all():  # the root, last, is no child
        j = seen[n:-1].argmin() + 1
        raise ValidationError(f"cluster q{j} is never merged further (dangling)")


def _build_layout(kids: np.ndarray, n: int, like: TreeLayout | None = None) -> TreeLayout:
    """The `TreeLayout` of ``kids``, its sizes and lows shared with ``like``'s if given."""
    pairs = kids.tolist()
    if like is None:
        size, low = [1] * n, list(range(1, n + 1))  # by node id, each cluster appended as it merges
        for a, b in pairs:
            size.append(size[a] + size[b])
            low.append(low[a] if low[a] < low[b] else low[b])
        size_arr, low_arr = (np.array(v[n:], dtype=np.int64) for v in (size, low))
    else:
        size_arr, low_arr, size = like.size, like.low, [1] * n + like.size.tolist()
    # descend from the root: the first child starts where its parent does
    start = [0] * (2 * n - 1)
    for node, (a, b) in zip(range(2 * n - 2, n - 1, -1), reversed(pairs)):
        start[a] = start[node]
        start[b] = start[node] + size[a]
    start_arr = np.array(start, dtype=np.int64)
    pos, lo, mid = start_arr[:n], start_arr[n:], start_arr[kids[:, 1]]
    order = np.empty(n, dtype=np.int64)
    order[pos] = np.arange(1, n + 1)
    gaps = np.empty(n - 1, dtype=np.int64)
    gaps[mid - 1] = np.arange(1, n)
    layout = TreeLayout(order, pos, lo, mid, lo + size_arr, size_arr, low_arr, gaps, kids)
    for arr in vars(layout).values():
        arr.flags.writeable = False
    return layout


_BLOCK_CELLS = 1 << 18  # cells of a matrix read at once by `_row_blocks`


def _row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """Bounds ``(a, b)`` of consecutive blocks of rows, about `_BLOCK_CELLS` cells each."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


# Mean leaf depth up to which `Dendrogram._signs` writes only the nonzeros.
# The matrix holds n times the mean depth of them (the sum of cluster sizes),
# so the scatter costs O(n * depth) and the running sum O(n^2) whatever the
# depth.  Timed on a 2-CPU VM (best of 3 and of 5, two runs) on trees made of
# random subtrees joined along a caterpillar spine, the scatter stayed faster
# up to a mean depth of 115-130 at n = 1024 and 2048, and of 150 or more at
# 4096, so the cutoff sits just below the crossover.  A random tree has mean
# depth 14-17 at these sizes and a caterpillar about n / 2.
_SCATTER_DEPTH = 100


def _scattered_signs(lay: TreeLayout, n: int, m: int) -> np.ndarray:
    """The n x m branch signs, zero but at each cluster's leaf positions ``[lo, hi)``."""
    size = lay.size
    # every cluster's leaf positions in turn, rank by rank: a cumulative sum of
    # steps of 1 within a cluster and a jump from its predecessor's last one
    pos = np.ones(int(size.sum()), dtype=np.int64)
    pos[np.cumsum(size) - size] = lay.lo - np.concatenate(([1], lay.hi[:-1])) + 1
    np.cumsum(pos, out=pos)
    flat = ((lay.order - 1) * m)[pos]  # the row of the terminal at each position
    flat += np.repeat(np.arange(m), size)
    halves = np.column_stack((lay.mid - lay.lo, lay.hi - lay.mid)).ravel()
    signs = np.zeros((n, m), dtype=np.int8)
    signs.ravel()[flat] = np.repeat(np.tile(np.int8([1, -1]), m), halves)
    return signs


def _float_levels(levels: Sequence) -> tuple[float, ...]:
    """The levels as floats, naming the rank of one that is no number or too large for a float."""
    try:
        return tuple(map(float, levels))
    except (OverflowError, TypeError, ValueError):
        for k, v in enumerate(levels, start=1):  # name the first one
            try:
                float(v)
            except OverflowError:
                raise ValidationError(f"rank {k}: level {v!r} is too large for a float") from None
            except (TypeError, ValueError):
                raise ValidationError(f"rank {k}: level {v!r} is not a number") from None
        raise


def _int_at_least(value, name: str, low: int = 2) -> int:
    """``value`` as a Python int: any integer >= ``low``, numpy integers included, but no bool.

    A numpy integer would overflow in arithmetic such as ``p**r``, so it is converted here.
    """
    try:
        p = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        p = None
    if p is None or p < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return p


def _labels(labels: Sequence[str] | None, n: int) -> tuple[str, ...]:
    return default_labels(n) if labels is None else tuple(str(s) for s in labels)


class _IdTree:
    """A tree stored as ``kids``, the read-only table of its children's node ids.

    Row k - 1 holds the children of rank k; terminal i has id i - 1 and
    cluster k has id n + k - 1, so rows of a (2n - 1)-row array can hold
    one value per node.  ``merges`` reads the table as NodeRefs.
    """

    _fields: tuple[str, ...]  # the constructor's arguments, in order
    _format: str  # the JSON document's "format"

    @property
    def n_terminals(self) -> int:
        return len(self.labels)

    @cached_property
    def merges(self) -> tuple[tuple[NodeRef, ...], ...]:
        refs = iter([_node_ref(i, len(self.labels)) for i in self.kids.reshape(-1).tolist()])
        return tuple(zip(*[refs] * self.kids.shape[1]))

    def _key(self) -> tuple:
        return tuple(self.kids.tobytes() if f == "kids" else getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        shown = ("merges" if f == "kids" else f for f in self._fields)
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in shown)})"

    def _store(self, labels, kids, p: int, **fields) -> None:
        """Check ``kids``, an array of node ids or NodeRef merges, and store the fields.

        ``labels`` are stored as a tuple and ``kids`` as a read-only copy.
        """
        n = len(labels)
        if not isinstance(kids, np.ndarray):
            counts = [len(row) for row in kids]
            k = next((k for k, c in enumerate(counts, start=1) if c != p), 0)
            given = [r for row in (kids[: k - 1] if k else kids) for r in row]
            kids = _table([r.kind == "terminal" for r in given], [r.index for r in given], n, p)
            if k:  # the ranks below k come first
                _check_ids(kids, n, p, complete=False)
                raise ValidationError(f"rank {k}: expected {p} children, got {counts[k - 1]}")
        _check_ids(kids, n, p)
        kids = kids.astype(np.int64).reshape(-1, p)
        kids.flags.writeable = False
        self.__dict__.update(labels=tuple(labels), kids=kids, **fields)


@dataclass(frozen=True, eq=False)
class Waves:
    """Clusters in slots by (height, rank); a wave is all slots of one height.

    Row j of a (2n - 1)-row array is terminal j + 1 or slot j - n.  Each
    step is one wave's ``(first rows, second rows, first sizes, second
    sizes, slots)``: scalars for one cluster, else arrays and a slice.
    """

    order: np.ndarray  # rank - 1 of the cluster in each slot
    slot: np.ndarray  # by rank - 1
    steps: tuple


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Dendrogram(_IdTree):
    """An ordered, node-ranked binary dendrogram.

    Attributes
    ----------
    labels:
        Terminal labels; terminal i (1-based) is ``labels[i - 1]``.
    merges:
        ``merges[k - 1]`` holds the ordered child pair of the cluster with
        rank k.  Every terminal and every non-root cluster appears exactly
        once as a child, and a child cluster's rank is strictly below its
        parent's.  Read on first use from ``kids``, the stored node ids.
    levels:
        Optional real merge heights, strictly increasing in rank, stored
        as a tuple of floats.
    """

    labels: tuple[str, ...]
    kids: np.ndarray
    levels: tuple[float, ...] | None = None
    _fields = ("labels", "kids", "levels")
    _format = "dendrogram"

    def __init__(self, labels, merges, levels=None) -> None:
        n = len(labels)
        if n < 1:
            raise ValidationError("need at least one terminal")
        if len(set(labels)) != n:
            raise ValidationError("terminal labels must be distinct")
        if len(merges) != n - 1:
            raise ValidationError(f"{n} terminals require {n - 1} merges, got {len(merges)}")
        self._store(labels, merges, 2)
        if levels is not None:
            if len(levels) != n - 1:
                raise ValidationError(f"levels must have one entry per merge, got {len(levels)}")
            levels = _float_levels(levels)
            values = np.array(levels)
            bad = ~np.isfinite(values)
            bad[1:] |= ~(values[:-1] < values[1:])
            for k in np.flatnonzero(bad)[:1].tolist():
                if not np.isfinite(values[k]):
                    raise ValidationError(f"rank {k + 1}: level {levels[k]!r} is not finite")
                pair = f"({levels[k - 1]!r} then {levels[k]!r})"
                raise ValidationError(f"rank {k + 1}: levels must be strictly increasing {pair}")
        self.__dict__["levels"] = levels

    # ------------------------------------------------------------------ sizes

    @property
    def n_clusters(self) -> int:
        return len(self.kids)

    @property
    def root(self) -> NodeRef:
        return cluster(self.n_clusters) if self.n_clusters else terminal(1)

    # ------------------------------------------------------------- structure

    @cached_property
    def layout(self) -> TreeLayout:
        """The array form of the tree, built once in O(n) and shared by every reader."""
        return _build_layout(self.kids, self.n_terminals)

    @cached_property
    def _waves(self) -> Waves:
        """The clusters by height, built once for trees that get transformed."""
        lay, n = self.layout, self.n_terminals
        height, ids = [0] * n, iter(lay.kids.ravel().tolist())  # by node id
        for a, b in zip(ids, ids):
            ha, hb = height[a], height[b]
            height.append((ha if ha > hb else hb) + 1)
        height = np.array(height, dtype=np.int64)
        order = np.argsort(height[n:], kind="stable")
        row, height[n:] = np.arange(2 * n - 1), height[n:][order]  # row by node id
        row[n + order] = row[n:].copy()
        kids, sizes = row[lay.kids[order]], np.append(np.ones(n), lay.size)[lay.kids[order]]
        bounds = np.searchsorted(height[n:], np.arange(1, height[-1] + 2))
        flat_kids, flat_sizes, steps = kids.ravel().tolist(), sizes.ravel().tolist(), []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi - lo == 1:
                steps.append((*flat_kids[2 * lo : 2 * hi], *flat_sizes[2 * lo : 2 * hi], lo))
            else:
                w = slice(lo, hi)
                steps.append((kids[w, 0], kids[w, 1], sizes[w, :1], sizes[w, 1:], w))
        return Waves(order, row[n:] - n, tuple(steps))

    @cached_property
    def _signs(self) -> np.ndarray:
        lay = self.layout
        n, m = self.n_terminals, self.n_clusters
        if lay.size.sum() <= _SCATTER_DEPTH * n:
            signs = _scattered_signs(lay, n, m)
        else:
            # In leaf order column k is +1 on [lo, mid) and -1 on [mid, hi): mark
            # the three boundaries and let a running sum down the columns fill both,
            # adding one contiguous row at a time.
            cols = np.arange(m)
            by_pos = np.zeros((n + 1, m), dtype=np.int8)
            by_pos[lay.lo, cols] = 1
            by_pos[lay.mid, cols] = -2
            by_pos[lay.hi, cols] = 1
            for p in range(1, n):
                np.add(by_pos[p - 1], by_pos[p], out=by_pos[p])
            signs = by_pos[lay.pos]
        signs.flags.writeable = False
        return signs

    @property
    def canonical(self) -> Dendrogram:
        """This hierarchy with the subtree holding the smallest terminal first.

        Built once per tree; a tree that is already canonical is its own
        canonical form.
        """
        return self._oriented or self

    @cached_property
    def _oriented(self) -> Dendrogram | None:
        """The canonical form when it differs from this tree, else None.

        Never the tree itself, so that no tree refers to itself and each
        is freed when dropped rather than at a cyclic garbage collection.
        """
        lay = self.layout
        low = np.concatenate((np.arange(1, self.n_terminals + 1), lay.low))  # by node id
        swap = low[lay.kids[:, 0]] > low[lay.kids[:, 1]]
        if not swap.any():
            return None
        oriented = apply_swap(self, swap)
        layout = _build_layout(oriented.kids, self.n_terminals, lay)
        oriented.__dict__.update(_oriented=None, layout=layout)
        return oriented

    def _check_node(self, node: NodeRef) -> None:
        bound = self.n_terminals if node.is_terminal else self.n_clusters
        if node.index > bound:
            raise ValidationError(f"unknown node {node!r} for {self.n_terminals} terminals")

    def children(self, rank: int) -> tuple[NodeRef, NodeRef]:
        if not 1 <= rank <= self.n_clusters:
            raise ValidationError(f"no cluster of rank {rank}")
        return self.merges[rank - 1]

    def span(self, node: NodeRef) -> tuple[int, int]:
        """Leaf positions ``[start, end)`` that ``node`` covers in `leaf_order`."""
        self._check_node(node)
        lay = self.layout
        if node.is_terminal:
            start = int(lay.pos[node.index - 1])
            return start, start + 1
        return int(lay.lo[node.index - 1]), int(lay.hi[node.index - 1])

    def term_set(self, node: NodeRef) -> frozenset[int]:
        """Terminal indices lying under ``node``."""
        start, end = self.span(node)
        return frozenset(self.layout.order[start:end].tolist())

    def lca(self, i: int, j: int) -> NodeRef:
        """Lowest cluster containing both terminals i and j (i != j).

        Its rank is the largest gap rank between the two leaf positions.
        """
        if i == j:
            raise ValidationError("lca needs two distinct terminals")
        p, q = sorted((self.span(terminal(i))[0], self.span(terminal(j))[0]))
        return cluster(int(self.layout.gaps[p:q].max()))

    def level_of(self, rank: int) -> float:
        if self.levels is None:
            raise ValidationError("this dendrogram carries no levels")
        if not 1 <= rank <= self.n_clusters:
            raise ValidationError(f"no cluster of rank {rank}")
        return self.levels[rank - 1]

    def leaf_order(self) -> tuple[int, ...]:
        """Terminal indices read left to right, following stored child order."""
        return tuple(self.layout.order.tolist())

    def label_of(self, i: int) -> str:
        self._check_node(terminal(i))
        return self.labels[i - 1]


def build_from_merges(
    merges: Iterable[tuple[NodeRef, NodeRef]],
    levels: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
) -> Dendrogram:
    """Assemble and validate a dendrogram from its ordered merge list.

    ``merges[k - 1]`` becomes the child pair of rank k.  With no merges the
    result is the single-terminal tree.  Labels default to ``x1..xn``.
    """
    merge_tuple = tuple(tuple(kids) for kids in merges)
    return Dendrogram(_labels(labels, len(merge_tuple) + 1), merge_tuple, levels)


# ---------------------------------------------------------------- reorientation

SwapMask = tuple[bool, ...]


def apply_swap(d: Dendrogram, mask: Sequence[bool | int]) -> Dendrogram:
    """Exchange the two children at every node whose mask bit is set."""
    swap = np.fromiter(map(bool, mask), dtype=bool)
    if len(swap) != d.n_clusters:
        raise ValidationError(f"mask needs {d.n_clusters} bits, got {len(swap)}")
    kids = np.where(swap[:, None], d.kids[:, ::-1], d.kids)
    return Dendrogram(d.labels, kids, d.levels)


def canonical_orient(d: Dendrogram) -> Dendrogram:
    """Reorder children so the subtree holding the smallest terminal comes first.

    All 2**(n-1) representations of the same hierarchy collapse to this one
    fixed point, and applying the function twice changes nothing.  The
    result is cached on ``d`` (`Dendrogram.canonical`), so every call on the
    same tree returns the same object, and a tree that is already canonical
    is returned as it is.
    """
    return d.canonical


def branch_signs(d: Dendrogram) -> np.ndarray:
    """The n x (n-1) branch-code matrix of the tree as stored.

    Column k is +1 on terminals under the first child of rank k, -1 under
    the second child, 0 elsewhere.  Orientation follows the stored child
    order; canonicalize first if a representation-independent matrix is
    wanted.  The matrix is built once per tree and shared, so it is
    read-only.
    """
    return d._signs


def _first_wrong_column(d: Dendrogram, mat: np.ndarray, width: int) -> int:
    """The first column below ``width`` where int8 ``mat`` is not ``branch_signs(d)``, else width.

    ``mat`` is read in row blocks.  In leaf order, from a zero row before
    the first leaf to one past the last, column k of the signs steps by +1
    at ``lo``, -2 at ``mid`` and +1 at ``hi`` only, and ``mat``'s row
    differences must be those steps.  They wrap mod 256, but fix each
    column from the zero row, so the check is exact.
    """
    lay, n = d.layout, d.n_terminals
    at = np.concatenate((lay.lo[:width], lay.mid[:width], lay.hi[:width]))
    by = np.argsort(at)
    at, col = at[by], np.tile(np.arange(width), 3)[by]
    value = np.repeat(np.int8([1, -2, 1]), width)[by]
    prev, wrong = np.zeros((1, width), dtype=np.int8), width
    blocks = _row_blocks(n + 1, mat.shape[1])
    for (a, b), (i, j) in zip(blocks, np.searchsorted(at, blocks).tolist()):
        blk = np.take(mat, lay.order[a:b] - 1, axis=0)[:, :width]  # whole rows, then the slice
        if b > n:
            blk = np.concatenate((blk, np.zeros_like(prev)))
        step, prev = np.diff(blk, axis=0, prepend=prev), blk[-1:]
        cells = (at[i:j] - a, col[i:j])
        if np.count_nonzero(step) != j - i or (step[cells] != value[i:j]).any():
            step[cells] -= value[i:j]  # zero where the step is right
            wrong = min(wrong, int(np.append(step.any(axis=0), True).argmax()))
    return wrong


# -------------------------------------------------------------------- JSON I/O

def _json_items(values: Sequence) -> list[str]:
    """Each value as `json.dumps` writes it, all from one encoder call.

    Strings escape every control character, so no item holds a NUL, and
    NUL can separate the items.
    """
    if not values:
        return []
    return json.dumps(list(values), separators=("\0", ": "))[1:-1].split("\0")


def to_json(d: _IdTree, indent: int | None = 2) -> str:
    """Serialize to the JSON interchange schema (ranks explicit per merge).

    The text is what ``json.dumps(doc, indent=indent, sort_keys=True)``
    writes for the schema's document, written directly: with an indent,
    `json.dumps` runs its pure-Python encoder over every node.  A p-way
    tree gets its own format, with its ``arity`` and no levels.
    """
    if indent is None:
        sep, breaks = ", ", [""] * 6
    else:
        # json.dumps: a newline plus the indent once per nesting level
        step = indent if isinstance(indent, str) else " " * indent
        sep, breaks = ",", ["\n" + step * level for level in range(6)]

    def block(items: list[str], level: int, brackets: str) -> str:
        if not items:
            return brackets
        inner = breaks[level + 1]
        return brackets[0] + inner + (sep + inner).join(items) + breaks[level] + brackets[1]

    n, (t, p), ids = d.n_terminals, d.kids.shape, d.kids.reshape(-1)
    # the merges list is at level 1, so each merge is at 2 and its children at 4
    node = block(['"%s": %d'], 4, "{}")
    merge = block(['"children": ' + block([node] * p, 3, "[]"), '"rank": %d'], 2, "{}")
    kinds = np.where(ids < n, "terminal", "cluster").tolist()
    idx = np.where(ids < n, ids + 1, ids - (n - 1)).tolist()
    cols = [seq[j::p] for j in range(p) for seq in (kinds, idx)]
    merges = [merge % row for row in zip(*cols, range(1, t + 1))]
    fields = [] if isinstance(d, Dendrogram) else [f'"arity": {p}']
    fields.append(f'"format": "{d._format}"')
    if getattr(d, "levels", None) is not None:
        fields.append('"levels": ' + block(_json_items(d.levels), 1, "[]"))
    fields += [
        '"merges": ' + block(merges, 1, "[]"),
        f'"n_terminals": {n}',
        '"terminals": ' + block(_json_items(d.labels), 1, "[]"),
    ]
    return block(fields, 0, "{}")


def _json_document(source, fmt: str) -> dict:
    """The JSON object in ``source``, a str or a text file, whose ``"format"`` is ``fmt``."""
    try:
        doc = json.loads(source if isinstance(source, str) else source.read())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValidationError(f"expected a {fmt} document")
    return doc


def _document(source, fmt: str) -> tuple[dict, list[str]]:
    """The tree document of format ``fmt`` and its terminal labels.

    The merges must be a list.  ``n_terminals`` must match the labels;
    only the binary format requires it.
    """
    doc = _json_document(source, fmt)
    labels = doc.get("terminals")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ValidationError("terminals: expected a list of strings")
    n, count = len(labels), doc.get("n_terminals")
    required = "n_terminals" in doc or fmt == Dendrogram._format
    if required and (isinstance(count, bool) or count != n):
        raise ValidationError(f"n_terminals says {count!r} but {n} labels given")
    if not isinstance(doc.get("merges"), list):
        raise ValidationError("merges: expected a list")
    return doc, labels


def _table_from_json(raw: list, count: int, arity: int, n: int):
    """The `_table` of ranks 1..count, each merge joining ``arity`` nodes."""
    rows: list = [None] * count
    for idx, entry in enumerate(raw):
        where = f"merges[{idx}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        rank, kids = entry.get("rank"), entry.get("children")
        if type(rank) is not int or not 1 <= rank <= count:  # a bool is no rank
            raise ValidationError(f"{where}: rank {rank!r} is not an integer rank in 1..{count}")
        if rows[rank - 1] is not None:
            raise ValidationError(f"{where}: duplicate rank {rank}")
        if not isinstance(kids, list) or len(kids) != arity:
            raise ValidationError(f"{where}: children must list exactly {arity} nodes")
        rows[rank - 1] = row = []
        for node in kids:
            if not isinstance(node, dict) or len(node) != 1:
                raise ValidationError(f"{where}: expected one-key node object, got {node!r}")
            ((kind, index),) = node.items()
            if kind not in ("terminal", "cluster") or type(index) is not int:
                raise ValidationError(f"{where}: bad node {node!r}")
            if index < 1:
                raise ValidationError(f"{where}: {kind} index must be >= 1, got {index}")
            row += (kind == "terminal", index)
    missing = [k for k, row in enumerate(rows, start=1) if row is None]
    if missing or len(rows) != count:
        raise ValidationError(f"missing merges for ranks {missing}")
    flat = [x for row in rows for x in row]  # flag, index, flag, index, ...
    return _table(flat[::2], flat[1::2], n, arity)


def from_json(source) -> Dendrogram:
    """Parse the JSON schema of `to_json` from a str or a text file, with located errors."""
    doc, labels = _document(source, Dendrogram._format)
    kids = _table_from_json(doc["merges"], len(labels) - 1, 2, len(labels))
    levels = doc.get("levels")
    if levels is not None:
        if not isinstance(levels, list) or not all(type(v) in (int, float) for v in levels):
            raise ValidationError("levels: expected a list of numbers")
    return Dendrogram(labels, kids, levels)


def save_json(d: Dendrogram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(d))
        fh.write("\n")


@contextlib.contextmanager
def open_text(path):
    """The file as UTF-8 text, ``newline=""``; read and decode failures located from its start."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                yield fh
            except UnicodeDecodeError:
                if fh.seekable():  # a chunk's decode error counts from the chunk
                    fh.seek(0)
                    fh.read()
                raise
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: byte {exc.start}: not UTF-8 text") from exc


def _parse(path, parse, *args):
    """``parse`` on the UTF-8 file's handle, or its str if it cannot seek; errors name the file."""
    with open_text(path) as fh:
        try:
            return parse(fh if fh.seekable() else fh.read(), *args)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def load_json(path) -> Dendrogram:
    return _parse(path, from_json)


# ------------------------------------------------------------------ generators

def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _random_ids(n_internal: int, arity: int, gen: np.random.Generator) -> np.ndarray:
    """A uniform random merge order: each rank joins ``arity`` of the unmerged nodes."""
    n = n_internal * (arity - 1) + 1
    active, kids = list(range(n)), []  # active node ids
    for k in range(n_internal):
        picks = sorted(gen.choice(len(active), size=arity, replace=False), reverse=True)
        kids.append([active.pop(int(i)) for i in picks][::-1])
        active.append(n + k)
    return np.array(kids, dtype=np.int64).reshape(n_internal, arity)


def random_dendrogram(
    n: int,
    rng: int | np.random.Generator | None = None,
    with_levels: bool = False,
    labels: Sequence[str] | None = None,
) -> Dendrogram:
    """Draw a uniform random merge order on n terminals."""
    n = _int_at_least(n, "n", 1)
    gen = _as_rng(rng)
    kids = _random_ids(n - 1, 2, gen)
    levels = np.cumsum(gen.uniform(0.1, 1.0, size=n - 1)) if with_levels else None
    return Dendrogram(_labels(labels, n), kids, levels)
