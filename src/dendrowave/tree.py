"""Node-ranked binary dendrograms.

A dendrogram on n terminals is a rooted binary tree whose n - 1 internal
nodes carry the merge order as ranks 1..n-1; rank n - 1 is the root and
every child merges strictly below its parent.  Child order is stored
explicitly, so the 2**(n-1) equivalent representations obtained by
exchanging the two subtrees at any subset of nodes can be produced
(`apply_swap`), compared, and reduced to a single canonical orientation
(`canonical_orient`).

Terminals are indexed 1..n and carry string labels; the label order fixes
the row order of any data matrix associated with the tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when a structural invariant is violated."""


@dataclass(frozen=True)
class NodeRef:
    """Reference to one node: a terminal (index 1..n) or a cluster (rank 1..n-1)."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("terminal", "cluster"):
            raise ValidationError(f"unknown node kind {self.kind!r}")
        if isinstance(self.index, bool):
            raise ValidationError(f"{self.kind} index must be an integer, got {self.index!r}")
        if self.index < 1:
            raise ValidationError(f"{self.kind} index must be >= 1, got {self.index}")

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
    like ``Dendrogram.merges`` and ``Dendrogram.labels``.  ``kids`` names
    each cluster's two children by node id: terminal i is i - 1 and
    cluster k is n + k - 1, so rows of a (2n - 1)-row array can hold one
    value per node.  The arrays are read-only because every caller shares
    them.
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


def _node_id(node: NodeRef, n: int) -> int:
    """Terminal i has node id i - 1, cluster k has node id n + k - 1."""
    return node.index - 1 if node.is_terminal else n + node.index - 1


def _node_ref(node_id: int, n: int) -> NodeRef:
    """The node with id ``node_id`` in a tree on n terminals."""
    return terminal(node_id + 1) if node_id < n else cluster(node_id - n + 1)


def _find(parent: list[int], i: int) -> int:
    """The root of i's set in a union-find forest, halving the path walked."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _check_merges(merges: Sequence[Sequence[NodeRef]], n: int, arity: int) -> None:
    """The merge rules that binary and p-way trees share.

    Each merge joins ``arity`` children, every terminal and non-root
    cluster is a child exactly once, and a child cluster ranks below its
    parent.
    """
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


def _build_layout(merges: Sequence[tuple[NodeRef, NodeRef]], n: int) -> TreeLayout:
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
    layout = TreeLayout(order, pos, lo, mid, lo + size_arr, size_arr, low_arr[n:], gaps, kids_arr)
    for arr in vars(layout).values():
        arr.flags.writeable = False
    return layout


@dataclass(frozen=True, eq=False)
class Waves:
    """Clusters in slots by (height, rank); a wave is all slots of one height.

    Row j of a (2n - 1)-row array is terminal j + 1 or slot j - n.  Each
    step is one wave's ``(first rows, second rows, first sizes, second
    sizes, slots)``: scalars for one cluster, else arrays and a slice.
    """

    height: np.ndarray  # by row
    order: np.ndarray  # rank - 1 of the cluster in each slot
    slot: np.ndarray  # by rank - 1
    steps: tuple


@dataclass(frozen=True)
class Dendrogram:
    """An ordered, node-ranked binary dendrogram.

    Attributes
    ----------
    labels:
        Terminal labels; terminal i (1-based) is ``labels[i - 1]``.
    merges:
        ``merges[k - 1]`` holds the ordered child pair of the cluster with
        rank k.  Every terminal and every non-root cluster appears exactly
        once as a child, and a child cluster's rank is strictly below its
        parent's.
    levels:
        Optional real merge heights, strictly increasing in rank.
    """

    labels: tuple[str, ...]
    merges: tuple[tuple[NodeRef, NodeRef], ...]
    levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n < 1:
            raise ValidationError("need at least one terminal")
        if len(set(self.labels)) != n:
            raise ValidationError("terminal labels must be distinct")
        if len(self.merges) != n - 1:
            raise ValidationError(
                f"{n} terminals require {n - 1} merges, got {len(self.merges)}"
            )
        _check_merges(self.merges, n, 2)
        if self.levels is not None:
            if len(self.levels) != n - 1:
                raise ValidationError(
                    f"levels must have one entry per merge, got {len(self.levels)}"
                )
            for k, v in enumerate(self.levels, start=1):
                if not np.isfinite(v):
                    raise ValidationError(f"rank {k}: level {v!r} is not finite")
                if k >= 2 and not self.levels[k - 2] < v:
                    raise ValidationError(
                        f"rank {k}: levels must be strictly increasing "
                        f"({self.levels[k - 2]!r} then {v!r})"
                    )

    # ------------------------------------------------------------------ sizes

    @property
    def n_terminals(self) -> int:
        return len(self.labels)

    @property
    def n_clusters(self) -> int:
        return len(self.merges)

    @property
    def root(self) -> NodeRef:
        return cluster(self.n_clusters) if self.merges else terminal(1)

    # ------------------------------------------------------------- structure

    @cached_property
    def layout(self) -> TreeLayout:
        """The array form of the tree, built once in O(n) and shared by every reader."""
        return _build_layout(self.merges, self.n_terminals)

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
        return Waves(height, order, row[n:] - n, tuple(steps))

    @cached_property
    def _signs(self) -> np.ndarray:
        signs = _sign_matrix(self)
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
        oriented = apply_swap(self, swap.tolist())
        oriented.__dict__["_oriented"] = None
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
    merge_tuple = tuple((a, b) for a, b in merges)
    n = len(merge_tuple) + 1
    if labels is None:
        labels = default_labels(n)
    level_tuple = None if levels is None else tuple(float(v) for v in levels)
    return Dendrogram(tuple(str(s) for s in labels), merge_tuple, level_tuple)


# ---------------------------------------------------------------- reorientation

SwapMask = tuple[bool, ...]


def apply_swap(d: Dendrogram, mask: Sequence[bool | int]) -> Dendrogram:
    """Exchange the two children at every node whose mask bit is set."""
    bits = tuple(bool(b) for b in mask)
    if len(bits) != d.n_clusters:
        raise ValidationError(
            f"mask needs {d.n_clusters} bits, got {len(bits)}"
        )
    merges = tuple(
        (b, a) if bit else (a, b) for (a, b), bit in zip(d.merges, bits)
    )
    return Dendrogram(d.labels, merges, d.levels)


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


def _sign_matrix(d: Dendrogram) -> np.ndarray:
    """`branch_signs` built afresh, for callers that must not cache it on ``d``."""
    lay = d.layout
    n, cols = d.n_terminals, np.arange(d.n_clusters)
    # In leaf order column k is +1 on [lo, mid) and -1 on [mid, hi): mark
    # the three boundaries and let a running sum down the columns fill both,
    # adding one contiguous row at a time.
    by_pos = np.zeros((n + 1, d.n_clusters), dtype=np.int8)
    by_pos[lay.lo, cols] = 1
    by_pos[lay.mid, cols] = -2
    by_pos[lay.hi, cols] = 1
    for p in range(1, n):
        np.add(by_pos[p - 1], by_pos[p], out=by_pos[p])
    return by_pos[lay.pos]


# -------------------------------------------------------------------- JSON I/O

_FORMAT = "dendrogram"


def _is_int(value: object) -> bool:
    """JSON integers only: bool is an int subclass but never an index."""
    return isinstance(value, int) and not isinstance(value, bool)


def _node_from_json(obj: object, where: str) -> NodeRef:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"{where}: expected one-key node object, got {obj!r}")
    kind, index = next(iter(obj.items()))
    if kind not in ("terminal", "cluster") or not _is_int(index):
        raise ValidationError(f"{where}: bad node {obj!r}")
    return NodeRef(kind, index)


def _json_items(values: Sequence) -> list[str]:
    """Each value as `json.dumps` writes it, all from one encoder call.

    Strings escape every control character, so no item holds a NUL, and
    NUL can separate the items.
    """
    if not values:
        return []
    return json.dumps(list(values), separators=("\0", ": "))[1:-1].split("\0")


def to_json(d: Dendrogram, indent: int | None = 2) -> str:
    """Serialize to the JSON interchange schema (ranks explicit per merge).

    The text is what ``json.dumps(doc, indent=indent, sort_keys=True)``
    writes for the schema's document, written directly: with an indent,
    `json.dumps` runs its pure-Python encoder over every node.
    """
    if indent is None:
        sep, breaks = ", ", [""] * 6
    else:
        # json.dumps: a newline plus the indent once per nesting level
        sep, breaks = ",", ["\n" + " " * indent * level for level in range(6)]

    def block(items: list[str], level: int, brackets: str) -> str:
        if not items:
            return brackets
        inner = breaks[level + 1]
        return brackets[0] + inner + (sep + inner).join(items) + breaks[level] + brackets[1]

    # the merges list is at level 1, so each merge is at 2 and its children at 4
    node = block(['"%s": %d'], 4, "{}")
    merge = block(['"children": ' + block([node, node], 3, "[]"), '"rank": %d'], 2, "{}")
    merges = [
        merge % (a.kind, a.index, b.kind, b.index, k)
        for k, (a, b) in enumerate(d.merges, start=1)
    ]
    fields = [f'"format": "{_FORMAT}"']
    if d.levels is not None:
        fields.append('"levels": ' + block(_json_items(d.levels), 1, "[]"))
    fields += [
        '"merges": ' + block(merges, 1, "[]"),
        f'"n_terminals": {d.n_terminals}',
        '"terminals": ' + block(_json_items(d.labels), 1, "[]"),
    ]
    return block(fields, 0, "{}")


def _document(text: str, fmt: str) -> tuple[dict, list[str]]:
    """The JSON document of format ``fmt`` and its terminal labels.

    The merges must be a list.  ``n_terminals`` must match the labels;
    only the binary format requires it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValidationError(f"expected a {fmt!r} document")
    labels = doc.get("terminals")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ValidationError("terminals: expected a list of strings")
    n, count = len(labels), doc.get("n_terminals")
    if ("n_terminals" in doc or fmt == _FORMAT) and (isinstance(count, bool) or count != n):
        raise ValidationError(f"n_terminals says {count!r} but {n} labels given")
    if not isinstance(doc.get("merges"), list):
        raise ValidationError("merges: expected a list")
    return doc, labels


def _merges_from_json(raw: list, count: int, arity: int) -> tuple[tuple[NodeRef, ...], ...]:
    """The children of ranks 1..count, each merge joining ``arity`` nodes."""
    by_rank: dict[int, tuple[NodeRef, ...]] = {}
    for idx, entry in enumerate(raw):
        where = f"merges[{idx}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        rank = entry.get("rank")
        if not _is_int(rank) or not 1 <= rank <= count:
            raise ValidationError(f"{where}: rank {rank!r} is not an integer rank in 1..{count}")
        if rank in by_rank:
            raise ValidationError(f"{where}: duplicate rank {rank}")
        kids = entry.get("children")
        if not isinstance(kids, list) or len(kids) != arity:
            raise ValidationError(f"{where}: children must list exactly {arity} nodes")
        by_rank[rank] = tuple(_node_from_json(c, where) for c in kids)
    if len(by_rank) != count:
        missing = sorted(set(range(1, count + 1)) - set(by_rank))
        raise ValidationError(f"missing merges for ranks {missing}")
    return tuple(by_rank[k] for k in range(1, count + 1))


def from_json(text: str) -> Dendrogram:
    """Parse the JSON schema produced by `to_json`, with located errors."""
    doc, labels = _document(text, _FORMAT)
    merges = _merges_from_json(doc["merges"], len(labels) - 1, 2)
    levels = doc.get("levels")
    if levels is not None:
        if not isinstance(levels, list) or not all(
            _is_int(v) or isinstance(v, float) for v in levels
        ):
            raise ValidationError("levels: expected a list of numbers")
        levels = tuple(float(v) for v in levels)
    return Dendrogram(tuple(labels), merges, levels)


def save_json(d: Dendrogram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(d))
        fh.write("\n")


def read_text(path) -> str:
    """The whole file as UTF-8 text, with read and decode failures located."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: byte {exc.start}: not UTF-8 text") from exc


def load_json(path) -> Dendrogram:
    return from_json(read_text(path))


# ------------------------------------------------------------------ generators

def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _random_merges(
    n_internal: int, arity: int, gen: np.random.Generator
) -> list[tuple[NodeRef, ...]]:
    """A uniform random merge order: each rank joins ``arity`` of the unmerged nodes."""
    n = n_internal * (arity - 1) + 1
    active: list[NodeRef] = [terminal(i) for i in range(1, n + 1)]
    merges = []
    for k in range(1, n_internal + 1):
        picks = sorted(gen.choice(len(active), size=arity, replace=False), reverse=True)
        merges.append(tuple(reversed([active.pop(int(i)) for i in picks])))
        active.append(cluster(k))
    return merges


def random_dendrogram(
    n: int,
    rng: int | np.random.Generator | None = None,
    with_levels: bool = False,
    labels: Sequence[str] | None = None,
) -> Dendrogram:
    """Draw a uniform random merge order on n terminals."""
    if n < 1:
        raise ValidationError("need at least one terminal")
    gen = _as_rng(rng)
    merges = _random_merges(n - 1, 2, gen)
    levels = None
    if with_levels:
        levels = tuple(np.cumsum(gen.uniform(0.1, 1.0, size=n - 1)).tolist())
    return build_from_merges(merges, levels=levels, labels=labels)
