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
a cached nearest neighbour per row of a square numpy matrix, so it holds
for all six criteria (inversions included) and repeats the exact merge
order and floating-point levels of a plain scan over all pairs.  Typical
inputs take O(n^2) time; the matrix takes O(n^2) memory.
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


def pairwise_euclidean(X) -> np.ndarray:
    """Euclidean distance matrix between the rows of X."""
    X = _data_matrix(X)
    n, m = X.shape
    # squares of data past 2**500 could overflow, so such data are scaled down
    # below it by a power of two, exactly but for underflow, and back up after
    unit = max(int(np.frexp(np.abs(X).max(initial=0.0))[1]) - 500, 0)
    X = np.ldexp(X, -unit)
    out = np.empty((n, n))
    for a, b in _row_blocks(n, n * m):  # a block's differences hold n * m floats per row
        diffs = X[a:b, None, :] - X[None, :, :]
        out[a:b] = np.sqrt((diffs**2).sum(axis=-1))
    with np.errstate(over="ignore"):  # a distance past the float maximum is refused as non-finite
        return np.ldexp(out, unit, out=out) if unit else out


def validate_dissimilarity(M) -> np.ndarray:
    """M as floats once `_checked_matrix` passes it, symmetric within `np.allclose`."""
    return np.asarray(_checked_matrix(M, "dissimilarity", 1e-9, 1e-12), dtype=float)


def _clustering_input(diss, criterion: str) -> np.ndarray:
    if criterion not in LINKAGES:
        raise ValidationError(f"unknown linkage {criterion!r}; choose from {sorted(LINKAGES)}")
    M = validate_dissimilarity(diss)
    if M.shape[0] < 2:
        raise ValidationError("need n >= 2 observations to cluster")
    return M


def _agglomerate_core(M: np.ndarray, criterion: str) -> tuple[list[tuple[int, int]], list[float]]:
    """Merge the closest pair n - 1 times; ties go to the smallest index pair.

    A cluster lives in the slot of its smallest member, so a merge keeps
    the lower slot.  D holds the upper triangle of M (the entries a scan
    over pairs i < j reads) and inf everywhere else, including the rows
    and columns of retired slots.  rowmin[i] and rowarg[i] cache the
    minimum of row i and its first column (-1 once i retires); the
    first-occurrence argmin of rowmin then names the lexicographically
    smallest closest pair.
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
        # every other cluster's distances to lo and hi, from the upper triangle
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

        # rows whose cached minimum sat in column lo or hi start over (row
        # lo among them); the other rows above lo only see column lo change
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


def agglomerate(
    diss, criterion: str, labels: Sequence[str] | None = None
) -> Dendrogram:
    """Cluster a dissimilarity matrix into a node-ranked dendrogram.

    Ranks record the merge order, each merge's children stored with the
    subtree holding the smallest original index first.  Merge levels are
    attached only when they come out strictly increasing; centroid and
    median linkage can invert (and exact ties can repeat), in which case
    the levels are dropped with a warning and the ranks remain the
    authoritative order.
    """
    kids, levels = _agglomerate_core(_clustering_input(diss, criterion), criterion)
    monotone = all(levels[k] < levels[k + 1] for k in range(len(levels) - 1))
    if not monotone:
        warnings.warn(
            f"{criterion} produced merge levels that are not strictly increasing; "
            "levels dropped, ranks keep the merge order",
            stacklevel=2,
        )
    return Dendrogram(_labels(labels, len(kids) + 1), np.array(kids), levels if monotone else None)


def merge_levels(diss, criterion: str) -> list[float]:
    """Raw merge levels in rank order, inversions and ties included."""
    return _agglomerate_core(_clustering_input(diss, criterion), criterion)[1]
