"""Agglomerative hierarchical clustering with Lance-Williams updates.

`agglomerate` turns a dissimilarity matrix into a node-ranked dendrogram:
at every step the globally closest pair of clusters merges, the merge
order becomes the ranks, and the dissimilarities to the new cluster are
produced by the Lance-Williams recurrence

    d(k, i+j) = a_i d(k,i) + a_j d(k,j) + b d(i,j) + g |d(k,i) - d(k,j)|

with the standard coefficient table per criterion.  The recurrence is
applied to the dissimilarities exactly as given; for the variance-style
criteria (ward, centroid, median) the classical construction feeds
squared Euclidean distances, which is the caller's choice to make.

Ties are broken deterministically by the lexicographically smallest pair
of original indices.  The core follows the generic algorithm of Muellner
(arXiv:1109.2378): every step still merges the global minimum, found from
a cached nearest neighbour per row of the condensed upper triangle (the
n(n - 1)/2 pairs i < j in scipy's `pdist` order), so it holds for all six
criteria (inversions included) and repeats the exact merge order and
floating-point levels of a plain scan over all pairs.  Typical inputs take
O(n^2) time; the condensed vector takes n(n - 1)/2 floats.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from .tree import Dendrogram, ValidationError, _labels, _row_blocks
from .ultrametric import _checked_matrix, _data_matrix

# coefficient table: (size_a, size_b, size_other) -> (alpha_a, alpha_b, beta, gamma)
_Coeffs = Callable[[int, int, int], tuple[float, float, float, float]]

LINKAGES: dict[str, _Coeffs] = {
    "single": lambda na, nb, nk: (0.5, 0.5, 0.0, -0.5),
    "complete": lambda na, nb, nk: (0.5, 0.5, 0.0, 0.5),
    "average": lambda na, nb, nk: (na / (na + nb), nb / (na + nb), 0.0, 0.0),
    "ward": lambda na, nb, nk: (
        (na + nk) / (na + nb + nk),
        (nb + nk) / (na + nb + nk),
        -nk / (na + nb + nk),
        0.0,
    ),
    "centroid": lambda na, nb, nk: (
        na / (na + nb),
        nb / (na + nb),
        -(na * nb) / (na + nb) ** 2,
        0.0,
    ),
    "median_wpgmc": lambda na, nb, nk: (0.5, 0.5, -0.25, 0.0),
}


def _row_bases(n: int) -> np.ndarray:
    """``base[i] + j`` is the index of d(i, j), i < j, in the condensed upper triangle."""
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 3) // 2 - 1


def _euclidean(X, condensed: bool = False) -> np.ndarray:
    """Distances between the rows of X: the square matrix, or its pairs i < j condensed."""
    X = _data_matrix(X)
    n, m = X.shape
    # squares of data past 2**500 could overflow, so such data are scaled down
    # below it by a power of two, exactly but for underflow, and back up after
    unit = max(int(np.frexp(np.abs(X).max(initial=0.0))[1]) - 500, 0)
    X = np.ldexp(X, -unit)
    out = np.empty(n * (n - 1) // 2 if condensed else (n, n))
    base = _row_bases(n)
    for a, b in _row_blocks(n, n * m):  # a block's differences hold n * m floats per row
        c = a + 1 if condensed else 0  # the pairs i < j of rows a..b-1 lie past column a
        if 0 < m < 8:  # numpy sums fewer than 8 terms in order, so a column at a time gives the same bits
            block = np.sqrt(sum((X[a:b, None, j] - X[None, c:, j]) ** 2 for j in range(m)))
        else:
            block = np.sqrt(((X[a:b, None, :] - X[None, c:, :]) ** 2).sum(axis=-1))
        if condensed:  # rows a..b-1 are one run of the vector: the block's pairs i < j, row by row
            out[base[a] + a + 1 : base[b - 1] + n] = block[np.arange(c, n) > np.arange(a, b)[:, None]]
        else:
            out[a:b] = block
    with np.errstate(over="ignore"):  # a distance past the float maximum is refused as non-finite
        return np.ldexp(out, unit, out=out) if unit else out


def pairwise_euclidean(X) -> np.ndarray:
    """Euclidean distance matrix between the rows of X."""
    return _euclidean(X)


def validate_dissimilarity(M) -> np.ndarray:
    """M as floats once `_checked_matrix` passes it, symmetric within `np.allclose`."""
    return np.asarray(_checked_matrix(M, "dissimilarity", 1e-9, 1e-12), dtype=float)


def _clustering_input(diss, criterion: str) -> tuple[np.ndarray, int]:
    """The checked matrix's upper triangle, condensed row by row into a copy, and its n."""
    if criterion not in LINKAGES:
        raise ValidationError(f"unknown linkage {criterion!r}; choose from {sorted(LINKAGES)}")
    M = validate_dissimilarity(diss)
    n = M.shape[0]
    if n < 2:
        raise ValidationError("need n >= 2 observations to cluster")
    V = np.empty(n * (n - 1) // 2)
    for i, start in enumerate(_row_bases(n)[:-1].tolist()):
        V[start + i + 1 : start + n] = M[i, i + 1 :]
    return V, n


def _agglomerate_core(V, n: int, criterion: str) -> tuple[list[tuple[int, int]], list[float]]:
    """Merge the closest pair n - 1 times; ties go to the smallest index pair.

    V holds d(i, j) for i < j at ``base[i] + j`` (`_row_bases`) and is
    overwritten: row i is one slice, column j one gather.  A cluster lives
    in the slot of its smallest member, so a merge keeps the lower slot,
    and the pairs of retired slots hold inf.  rowmin[i] and rowarg[i] cache
    the minimum of row i and its first column (-1 once i retires); the
    first-occurrence argmin of rowmin then names the lexicographically
    smallest closest pair.
    """
    coeffs = LINKAGES[criterion]
    base = _row_bases(n)
    first = (base + np.arange(n) + 1).tolist()  # row i is V[first[i] : first[i] + n - i - 1]
    rowmin, rowarg = np.full(n, np.inf), np.zeros(n, dtype=np.int64)

    def rescan(rows) -> None:
        for i in rows:
            row = V[first[i] : first[i] + n - i - 1]
            rowarg[i] = i + 1 + row.argmin()
            rowmin[i] = row[rowarg[i] - i - 1]

    rescan(range(n - 1))
    sizes = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    node = list(range(n))  # the node id in each slot
    kids: list[tuple[int, int]] = []
    levels: list[float] = []

    for step in range(1, n):
        lo = int(np.argmin(rowmin))
        hi = int(rowarg[lo])
        d_ab = V[base[lo] + hi]
        kids.append((node[lo], node[hi]))
        levels.append(float(d_ab))

        alive[lo] = alive[hi] = False
        ks = np.flatnonzero(alive)
        alive[lo] = True
        # every other cluster's distances to lo and hi, from the upper triangle
        at_a = np.where(ks < lo, base[ks] + lo, base[lo] + ks)
        at_b = np.where(ks < hi, base[ks] + hi, base[hi] + ks)
        d_ka, d_kb = V[at_a], V[at_b]
        aa, ab, beta, gamma = coeffs(int(sizes[lo]), int(sizes[hi]), sizes[ks])
        V[at_a] = aa * d_ka + ab * d_kb + beta * d_ab + gamma * np.abs(d_ka - d_kb)
        V[at_b] = np.inf
        V[base[lo] + hi] = np.inf
        sizes[lo] += sizes[hi]
        node[lo] = n + step - 1

        # rows whose cached minimum sat in column lo or hi start over (row
        # lo among them); the other rows above lo only see column lo change
        stale = np.flatnonzero((rowarg[:hi] == lo) | (rowarg[:hi] == hi)).tolist()
        col = V[base[:lo] + lo]
        take = (col < rowmin[:lo]) | ((col == rowmin[:lo]) & (lo < rowarg[:lo]))
        rowmin[:lo][take] = col[take]
        rowarg[:lo][take] = lo
        rescan(stale)
        rowmin[hi] = np.inf
        rowarg[hi] = -1
    return kids, levels


def _linkage_tree(V, n: int, criterion: str, labels=None) -> tuple[Dendrogram, str | None]:
    """Cluster n points from their condensed distances V (overwritten); note any dropped levels."""
    labels = _labels(labels, n)
    if len(labels) != n:
        raise ValidationError(f"{len(labels)} labels for a {n}-row matrix")
    kids, levels = _agglomerate_core(V, n, criterion)
    monotone = all(levels[k] < levels[k + 1] for k in range(n - 2))
    note = None if monotone else (f"{criterion} produced merge levels that are not strictly "
                                  "increasing; levels dropped, ranks keep the merge order")
    return Dendrogram(labels, np.array(kids), levels if monotone else None), note


def agglomerate(
    diss, criterion: str, labels: Sequence[str] | None = None
) -> Dendrogram:
    """Cluster a dissimilarity matrix into a node-ranked dendrogram.

    Ranks record the merge order, each merge's children stored with the
    subtree holding the smallest original index first.  Merge levels are
    attached only when they come out strictly increasing; centroid and
    median linkage can invert (and exact ties can repeat), in which case
    the levels are dropped with a warning and the ranks remain the
    authoritative order.  The caller's matrix is never modified.
    """
    tree, note = _linkage_tree(*_clustering_input(diss, criterion), criterion, labels)
    if note:
        warnings.warn(note, stacklevel=2)
    return tree


def merge_levels(diss, criterion: str) -> list[float]:
    """Raw merge levels in rank order, inversions and ties included."""
    return _agglomerate_core(*_clustering_input(diss, criterion), criterion)[1]
