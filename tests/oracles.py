"""Reference implementations that the array-backed tree layout replaced.

Each function here reads the tree node by node, with term sets built as
frozensets and ancestors found through a parent map, the way the library
did before it derived everything from the leaf order and gap ranks.  They
are slow (quadratic memory on a caterpillar tree) and exist only so the
differential tests can compare the fast paths against them.
"""

from __future__ import annotations

import numpy as np

from dendrowave.padic import PAdicCode, padd
from dendrowave.tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    build_from_merges,
    cluster,
    terminal,
)


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
            raise ValidationError(f"column {k}: both signs must appear")
        children = []
        for side, name in ((plus, "+1"), (minus, "-1")):
            node = covering[min(side)]
            if node_terms[node] != side:
                raise ValidationError(
                    f"column {k}: {name} rows do not match any current subtree "
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
