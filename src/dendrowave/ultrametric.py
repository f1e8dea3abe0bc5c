"""Ultrametric distance matrices: generation, validation, balls, canonical form.

A matrix is ultrametric when every triple obeys the strong triangle
inequality d(x, z) <= max(d(x, y), d(y, z)).  Cophenetic matrices of
node-ranked dendrograms always qualify, whether valued in ranks (exact
integers) or merge levels.  The validators here return verdict objects
carrying a concrete witness when they fail.

The validators rest on the subdominant ultrametric U of a matrix M, the
cophenetic level matrix of its minimum spanning tree (`subdominant`):
U <= M everywhere, with equality exactly when M is an ultrametric, and
its entries are entries of M, so comparing the two involves no rounding.
Building U and comparing it with M takes O(n^2) time.  An ultrametric
therefore passes `is_ultrametric` in O(n^2), gets its triangle census
from the tree, and is laid out in the tree's leaf order; only a matrix
that is not one pays for an O(n^2) witness scan per row that exceeds U,
and for a census from its sorted rows, O(n^3) only when ties abound.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tree import _BLOCK_CELLS, Dendrogram, ValidationError, _find, _row_blocks, default_labels

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus, on failure, a witness and a short explanation."""

    ok: bool
    witness: tuple[int, int, int] | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class TriangleCensus:
    """Triple counts for a distance matrix.

    In an ultrametric every triangle is isosceles with small base (or
    equilateral); `violating` counts triangles whose largest side is
    strictly longer than both others.
    """

    equilateral: int
    isosceles_small_base: int
    violating: int

    @property
    def total(self) -> int:
        return self.equilateral + self.isosceles_small_base + self.violating


def cophenetic(d: Dendrogram, use: str = "ranks") -> np.ndarray:
    """Pairwise matrix of lowest-common-cluster heights.

    ``use="ranks"`` gives exact integers (always available); ``use="levels"``
    requires the dendrogram to carry levels.
    """
    if use not in ("ranks", "levels"):
        raise ValidationError(f"use must be 'ranks' or 'levels', got {use!r}")
    n = d.n_terminals
    if use == "levels" and d.levels is None and n > 1:
        raise ValidationError("this dendrogram carries no levels")
    lay = d.layout
    gaps = lay.gaps
    # by leaf position, the LCA rank of p and q is the largest gap rank between
    # them: a running maximum of the gaps rightwards from p and leftwards from p
    table = np.arange(n) if use == "ranks" else np.array((0.0,) + (d.levels or ()))
    out = np.empty((n, n), dtype=table.dtype)
    row = np.empty(n, dtype=np.int64)
    for p, t in enumerate(lay.order.tolist()):
        np.maximum.accumulate(gaps[p:], out=row[p + 1 :])
        np.maximum.accumulate(gaps[:p][::-1], out=row[:p][::-1])
        row[p] = 0
        np.take(table, row[lay.pos], out=out[t - 1])
    return out


def _checked_matrix(M, name: str = "distance", rtol: float = 0.0, atol: float = 0.0) -> np.ndarray:
    """M as a square, finite, symmetric, zero-diagonal, nonnegative real array.

    Text and objects are read as floats.  The first rule broken anywhere is
    raised.  Each `_row_blocks` block of rows is compared with its block of
    columns, so no n x n temporary is built: exactly, or by `np.allclose`
    when ``rtol`` or ``atol`` is set.
    """
    try:
        M = np.asarray(M)
        M = M.astype(float) if M.dtype.kind in "OSU" else M
        if M.dtype.kind not in "biuf":
            raise TypeError
    except (TypeError, ValueError, OverflowError):  # ragged, complex or not numbers
        raise ValidationError(f"{name} matrix must be an array of real numbers") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} matrix must be square, got shape {M.shape}")
    plural = name[:-1] + "ies" if name.endswith("y") else name + "s"
    problems = (f"{name} matrix contains non-finite entries", f"{name} matrix is not symmetric",
                f"{name} matrix needs a zero diagonal", f"{plural} must be nonnegative")
    ok = np.ones(len(problems), dtype=bool)  # each rule, over the blocks read so far
    for a, b in _row_blocks(len(M), len(M)):
        rows, cols = M[a:b], M[:, a:b].T
        same = np.allclose(rows, cols, rtol, atol) if rtol or atol else np.array_equal(rows, cols)
        ok &= (np.isfinite(rows).all(), same, not rows.diagonal(a).any(), not (rows < 0).any())
    if not ok.all():
        raise ValidationError(problems[int(np.argmin(ok))])
    return M


def _scale(tol: float) -> float:
    if not isinstance(tol, numbers.Real) or not 0 <= tol < np.inf:
        raise ValidationError(f"tol must be a finite nonnegative number, got {tol!r}")
    return 1.0 + tol


# ------------------------------------------------------- subdominant ultrametric

@dataclass(frozen=True)
class Subdominant:
    """The single-linkage tree of a distance matrix and its merge levels.

    Its cophenetic level matrix U is the subdominant ultrametric, the
    largest ultrametric lying below the matrix: U[x, z] is the smallest
    possible longest step on a path from x to z, so U <= M everywhere,
    with equality exactly when M is an ultrametric.  ``levels[k - 1]`` is
    the level of rank k, an entry of M; levels never decrease with rank
    but may repeat, so they are kept apart from the tree, which carries
    ranks only.
    """

    tree: Dendrogram
    levels: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """0-based leaf order, each merge's subtree with the lowest point first."""
        return self.tree.layout.order - 1

    def matrix(self) -> np.ndarray:
        """U as an n x n matrix."""
        return np.concatenate(([0.0], self.levels))[cophenetic(self.tree)]

    def _rows_above(self, A: np.ndarray, scale: float) -> np.ndarray:
        """Mask of the points x with A[x, z] > U[x, z] * scale for some z.

        In leaf order, U right of the diagonal is a running maximum of the
        gap levels along each row, so a block of rows at a time is one
        accumulate, and no n x n matrix is built.
        """
        lay = self.tree.layout
        n = len(lay.order)
        order = lay.order - 1
        # rounding is monotone, so scaling the gaps scales their maxima exactly
        gap_caps = self.levels[lay.gaps - 1] * scale
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


def subdominant(M) -> Subdominant:
    """Single-linkage tree of M from a minimum spanning tree, in O(n^2) numpy.

    Prim's algorithm grows the spanning tree from point 0; merging its
    n - 1 edges by increasing weight (ties in the order Prim found them)
    gives the ranks (Gower & Ross, 1969).  Each merge stores the subtree
    holding the lower point index first.
    """
    return _as_distances(M).sub


def _subdominant(A: np.ndarray) -> Subdominant:
    n = A.shape[0]
    if n == 0:
        raise ValidationError("need at least one point")
    best = A[0].copy()  # each point's distance to the tree grown so far
    near = np.zeros(n, dtype=np.int64)  # the tree point that distance reaches
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best[0] = np.inf
    ends = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1)
    closer = np.empty(n, dtype=bool)
    for t in range(n - 1):
        v = int(np.argmin(best))
        ends[t] = near[v], v
        weights[t] = best[v]
        outside[v] = False
        best[v] = np.inf
        np.less(A[v], best, out=closer)
        closer &= outside
        np.copyto(best, A[v], where=closer)
        np.copyto(near, v, where=closer)

    by_weight = np.argsort(weights, kind="stable")
    # union-find over points: a component's root is its lowest point
    root = list(range(n))
    node = list(range(n))  # the node id of each component, at its root
    kids = np.empty((n - 1, 2), dtype=np.int64)
    for new_id, ends_k in enumerate(ends[by_weight].tolist(), start=n):
        a, b = sorted(_find(root, i) for i in ends_k)
        kids[new_id - n] = node[a], node[b]
        root[b] = a
        node[a] = new_id
    return Subdominant(Dendrogram(default_labels(n), kids), weights[by_weight])


class _Distances:
    """A validated distance matrix as floats, and its subdominant ultrametric.

    `subdominant`, `is_ultrametric`, `triangle_classify` and `canonical_form`
    take one in place of a matrix, so several checks of one matrix share one
    validation (skipped if ``checked``; float64 is kept, not copied) and one
    minimum spanning tree.  The tree is built on first use, so a check that
    decides from row 0 never builds it.
    """

    def __init__(self, M, checked: bool = False) -> None:
        self.A = (M if checked else _checked_matrix(M)).astype(float, copy=False)

    @property
    def shape(self) -> tuple[int, int]:
        """The matrix's shape, which `np.shape` reads as it would an array's."""
        return self.A.shape

    @cached_property
    def sub(self) -> Subdominant:
        return _subdominant(self.A)


def _as_distances(M) -> _Distances:
    return M if isinstance(M, _Distances) else _Distances(M)


# ------------------------------------------------------------------- verdicts

@np.errstate(over="ignore")  # a scaled value past the float maximum is inf, the right cap
def is_ultrametric(M, tol: float = DEFAULT_TOL) -> Verdict:
    """Check the strong triangle inequality over all triples.

    ``tol`` is relative; pass 0 for exact comparison (the natural choice
    for integer rank matrices).  On failure the witness (x, y, z) satisfies
    d(x, z) > max(d(x, y), d(y, z)), and is the first in x, then z, whose
    cap over one middle point, min_y max(d(x, y), d(y, z)), falls short.

    That cap is never below the subdominant ultrametric U, so after row 0
    only the rows with some d(x, z) > U[x, z] (1 + tol) can fail; they are
    scanned in increasing x, O(n^2) each.  A matrix with no such row
    passes in O(n^2).
    """
    D = _as_distances(M)
    A = D.A
    scale = _scale(tol)
    if A.shape[0] < 3:
        return Verdict(True)
    for x in _scan_rows(D, scale):
        z = _row_violation(A, x, scale)
        if z is not None:
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


def _scan_rows(D: _Distances, scale: float):
    """Row 0, then the later rows above U * scale in increasing order.

    Row 0 is scanned first whether or not it exceeds U, so a matrix far
    from ultrametric fails before U is built.
    """
    yield 0
    above = D.sub._rows_above(D.A, scale)
    yield from (x for x in np.flatnonzero(above).tolist() if x)


def _row_violation(A: np.ndarray, x: int, scale: float) -> int | None:
    """The first z with A[x, z] > min_y max(A[x, y], A[y, z]) * scale, if any (y in row blocks)."""
    caps = np.full(A.shape[0], np.inf)
    for a, b in _row_blocks(*A.shape):
        np.minimum(caps, np.maximum(A[x, a:b, None], A[a:b]).min(axis=0), out=caps)
    bad = np.flatnonzero(A[x] > caps * scale)
    return int(bad[0]) if bad.size else None


@np.errstate(over="ignore")  # a scaled value past the float maximum is inf, the right cap
def triangle_classify(M, tol: float = DEFAULT_TOL) -> TriangleCensus:
    """Classify every triple of points by its triangle shape.

    A matrix equal to its subdominant ultrametric is counted from the
    single-linkage tree in O(n log n) once U is built; any other matrix
    from its sorted rows (`_window_census`), or, if ties make too many
    window pairs, one anchor at a time in O(n^3).
    """
    D = _as_distances(M)
    A = D.A
    scale = _scale(tol)
    n = A.shape[0]
    total = n * (n - 1) * (n - 2) // 6
    # a violation in row 0 already shows that A is no ultrametric, so A != U
    if n >= 3 and _row_violation(A, 0, 1.0) is None and not D.sub._rows_above(A, 1.0).any():
        eq = _tree_equilateral(D.sub, scale)  # A == U, since U <= A
        return TriangleCensus(eq, total - eq, 0)
    eq, bad = _window_census(A, scale) or _anchor_census(A, scale)
    return TriangleCensus(eq, total - eq - bad, bad)


def _tree_equilateral(sub: Subdominant, scale: float) -> int:
    """Equilateral triples of the ultrametric that ``sub`` generates.

    Each triple's two closer points meet first at some cluster c, with
    child sizes s1 and s2, and the third joins at an ancestor a: the sides
    are level(c), level(a), level(a), so the triple is equilateral iff
    level(a) <= level(c) (1 + tol).  Levels grow toward the root, so the
    qualifying ancestors run up to a highest one, a*, and c contributes
    s1 s2 (size(a*) - size(c)).  a* is found for every c at once by
    jumping up the tree in powers of two.
    """
    lay = sub.tree.layout
    levels = sub.levels
    m = len(levels)
    # the highest rank whose level qualifies, as an index into levels
    top = np.searchsorted(levels, levels * scale, side="right") - 1
    parent = np.full(m, m - 1, dtype=np.int64)
    ids, n = lay.kids.ravel(), m + 1
    inner = ids >= n
    parent[ids[inner] - n] = np.repeat(np.arange(m), 2)[inner]
    jumps = [parent]
    while 1 << len(jumps) < m:
        jumps.append(jumps[-1][jumps[-1]])
    best = np.arange(m)
    for up in reversed(jumps):
        nxt = up[best]
        best = np.where(nxt <= top, nxt, best)
    pairs = (lay.mid - lay.lo) * (lay.hi - lay.mid)
    return int((pairs * (lay.size[best] - lay.size)).sum())


# Window pairs per triple above which `_window_census` leaves a matrix to
# `_anchor_census`.  Timed on a 2-CPU VM on Euclidean data at tol 0.05 to 1
# and on integer, Hamming and tie-heavy matrices, the two broke even at 0.27
# to 0.30 pairs per triple at n = 300 and 600.  At n = 1000, where the anchor
# loop's buffers outgrow the cache, the windows took 0.56x its time at 0.29.
_WINDOW_PAIRS = 0.3


def _window_census(A: np.ndarray, scale: float) -> tuple[int, int] | None:
    """Equilateral and violating triples of A from its sorted rows, or None past `_WINDOW_PAIRS`.

    A triple violates unless its two longest sides agree within ``scale``.
    They meet at the apex opposite its shortest side, ties going to the
    smaller (value, opposite vertex), and only that apex counts the triple.
    So an apex's candidates are the windows of its sorted row, the pairs
    A[i, j] <= A[i, k] <= A[i, j] * scale: counted first, one `searchsorted`
    per row that has any, and then enumerated.
    """
    n = len(A)
    total = n * (n - 1) * (n - 2) // 6
    rows, pairs = [], 0  # the rows holding a window pair, and the pairs
    for a, b in _row_blocks(n, n):
        v = A[a:b].copy()
        v[np.arange(b - a), np.arange(a, b)] = np.nan  # sorted last, and close to nothing
        v.sort(axis=1)
        for r in np.flatnonzero((v[:, 1:] <= v[:, :-1] * scale).any(axis=1)).tolist():
            pairs += int(np.searchsorted(v[r], v[r, :-1] * scale, "right").sum()) - n * (n - 1) // 2
            rows.append(a + r)
    if pairs > _WINDOW_PAIRS * total:
        return None
    fine = eq = 0
    for a, b in _row_blocks(len(rows), n):
        apex = np.array(rows[a:b])
        block = A[apex]
        block[np.arange(b - a), apex] = np.nan
        near = np.argsort(block, axis=1)
        v, near = np.take_along_axis(block, near, axis=1).ravel(), near.ravel()
        caps, at = v * scale, np.arange(v.size - 1)
        for d in itertools.count(1):  # pairs d apart in sorted order extend pairs d - 1 apart
            at = at[v[at + d] <= caps[at]]
            if not at.size:
                break
            nxt = at + d
            i, j, k, lo, hi = apex[at // n], near[at], near[nxt], v[at], v[nxt]
            side = A[j, k]  # i counts the pair if side is the smallest, and lo <= hi
            ok = (side < lo) | (side == lo) & (i < k) & ((side < hi) | (i < j))
            fine += int(np.count_nonzero(ok))
            eq += int(np.count_nonzero(ok & (hi <= side * scale)))
    return eq, total - fine


def _anchor_census(A: np.ndarray, scale: float) -> tuple[int, int]:
    """Equilateral and violating triples of A, one anchor row at a time.

    The triangles (i, j, k) with i < j < k form the block over j, k > i;
    sorting each triple's sides is exact elementwise min and max.  The
    block is symmetric, so both counts come from the whole block minus its
    diagonal, halved.  Three float and two bool buffers sized for the
    first block are reused by every anchor.
    """
    n = A.shape[0]
    size = (n - 1) ** 2
    lo_buf, hi_buf, big_buf = (np.empty(size) for _ in range(3))
    bad_buf, eq_buf = (np.empty(size, dtype=bool) for _ in range(2))
    eq = bad = 0
    for i in range(n - 2):
        x = A[i, i + 1 :]
        z = A[i + 1 :, i + 1 :]
        m = len(x)
        low, high, large = (b[: m * m].reshape(m, m) for b in (lo_buf, hi_buf, big_buf))
        violating, equilateral = (b[: m * m].reshape(m, m) for b in (bad_buf, eq_buf))
        np.minimum(x[:, None], x, out=low)  # shorter of the two sides at i
        np.maximum(x[:, None], x, out=high)  # longer of them
        np.maximum(high, z, out=large)
        np.minimum(high, z, out=high)
        np.maximum(low, high, out=high)  # middle side
        np.minimum(low, z, out=low)  # smallest side
        high *= scale
        np.greater(large, high, out=violating)
        low *= scale
        # large <= small (1 + tol) already rules out large > middle (1 + tol)
        np.less_equal(large, low, out=equilateral)
        bad += _pairs_off_diagonal(violating)
        eq += _pairs_off_diagonal(equilateral)
    return eq, bad


def _pairs_off_diagonal(mask: np.ndarray) -> int:
    """Unordered pairs j != k set in a symmetric mask."""
    return (int(np.count_nonzero(mask)) - int(np.count_nonzero(mask.diagonal()))) // 2


def _close(u: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Relative equality of nonnegative entries, as in `canonical_form`."""
    return np.abs(u - v) <= tol * np.maximum(u, v)


def canonical_form(M, order, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, Verdict]:
    """Permute M by ``order`` and test the canonical-layout conditions.

    For the permuted matrix A the conditions are: every row is
    non-decreasing to the right of the diagonal, and whenever
    A[k, k+1] = ... = A[k, k+l+1] is a maximal run of equal values, the
    next row obeys A[k+1, j] <= A[k, j] inside the run and
    A[k+1, j] = A[k, j] beyond it.  The left-to-right terminal order of
    any dendrogram generating M passes this test.  Equality is relative,
    within ``tol``; the verdict is `_layout_verdict`'s.
    """
    D, order = _as_distances(M), list(order)
    verdict = _layout_verdict(D, order, tol)
    return D.A[np.ix_(order, order)], verdict


@np.errstate(over="ignore")  # a scaled value past the float maximum is inf, the right cap
def _layout_verdict(M, order, tol: float = DEFAULT_TOL) -> Verdict:
    """`canonical_form`'s verdict, read through ``order`` a `_row_blocks` block at a time.

    The witness is the first decreasing cell, else the first cell that
    breaks a run rule, so a run-rule failure waits for every row's decrease test.
    """
    A = _as_distances(M).A
    _scale(tol)
    n = A.shape[0]
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order must be a permutation of 0..{n - 1}")
    order = np.asarray(order, dtype=np.int64)
    verdict = Verdict(True)  # the first run-rule failure, once found
    for k0, k1 in _row_blocks(n - 2, n):  # the last two rows have no cell to test
        # P[i, c] is the permuted A[k0 + i, k0 + c]: rows k0 .. k1, columns from k0
        P = A[np.ix_(order[k0 : k1 + 1], order[k0:])]
        ks = np.arange(k1 - k0)[:, None]  # rows as k - k0, and the columns below as j - k0
        # rows k0 .. k1 - 1 at columns j > k, which start at k0 + 1
        u, v = P[:-1, 1:-1], P[:-1, 2:]
        drop = (u > v) & (np.arange(1, n - k0 - 1) > ks)
        if drop.any():
            drop &= ~_close(u, v, tol)
            if drop.any():
                k, j = _first(drop, k0, k0 + 1)
                detail = f"row {k} decreases from column {j} to {j + 1}"
                return Verdict(False, witness=(k, j, j + 1), detail=detail)
        if not verdict:
            continue
        # rows k0 .. k1 - 1 and the rows below them at columns j >= k + 2
        js = np.arange(2, n - k0)
        row, below = P[:-1, 2:], P[1:, 2:]
        # row k's equal run ends before its first column j >= k + 2 not close to A[k, k + 1]
        leaves = (js > ks + 1) & ~_close(row, P[ks, ks + 1], tol)
        run_end = np.where(leaves.any(axis=1), leaves.argmax(axis=1) + 1, n - 1 - k0)
        inside = js <= run_end[:, None]
        # a failing cell is not close to the one above it, so it differs from
        # it and, inside the run, is the larger of the two
        fail = (js > ks + 1) & np.where(inside, below > row, below != row)
        if fail.any():
            fail &= ~_close(below, row, tol)
            if fail.any():
                k, j = _first(fail, k0, k0 + 2)
                if j - k0 <= run_end[k - k0]:
                    detail = f"row {k + 1} exceeds row {k} at column {j} inside the equal run"
                else:
                    detail = f"rows {k} and {k + 1} differ at column {j} beyond the equal run"
                verdict = Verdict(False, witness=(k, k + 1, j), detail=detail)
    return verdict


def _first(mask: np.ndarray, row0: int, col0: int) -> tuple[int, int]:
    """Row and column of the first set cell of a block whose corner is (row0, col0)."""
    i, j = np.unravel_index(np.argmax(mask), mask.shape)
    return int(i) + row0, int(j) + col0


# ------------------------------------------------------------------------ balls

def ball(M, center: int, r) -> frozenset[int]:
    """Closed ball {y : d(center, y) <= r} in a validated ultrametric."""
    return _ball(_checked_matrix(M), center, r)


def _ball(A: np.ndarray, center: int, r) -> frozenset[int]:
    n = A.shape[0]
    if not 0 <= center < n:
        raise ValidationError(f"center {center} outside 0..{n - 1}")
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    return frozenset(int(i) for i in np.flatnonzero(A[center] <= r))


def check_ball_axioms(M, radii=None) -> Verdict:
    """Verify the defining ball properties of an ultrametric, exhaustively.

    For each radius: every member of a ball generates the identical ball
    (so same-radius balls partition the points), and the distance between
    two distinct balls is constant across member pairs.  Radii default to
    every value appearing in the matrix.
    """
    A = _checked_matrix(M)
    tol = 0 if np.issubdtype(A.dtype, np.integer) else DEFAULT_TOL
    verdict = is_ultrametric(_Distances(A, checked=True), tol)
    if not verdict:
        raise ValidationError(f"matrix is not ultrametric: {verdict.detail}")
    n = A.shape[0]
    if radii is None:
        radii = sorted(set(A.ravel().tolist()))
    for r in radii:
        balls = [_ball(A, c, r) for c in range(n)]
        for c in range(n):
            for member in balls[c]:
                if balls[member] != balls[c]:
                    return Verdict(
                        False,
                        witness=(c, member, -1),
                        detail=f"radius {r}: member {member} generates a different ball than {c}",
                    )
        for b1, b2 in itertools.combinations(set(balls), 2):
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


# ------------------------------------------------------- proximity conversions

def proximity_from_distance(d):
    """Map distances to proximities via -log; zero distance becomes +inf."""
    with np.errstate(divide="ignore"):
        return -np.log(np.asarray(d, dtype=float))


def distance_from_proximity(p):
    """Inverse of `proximity_from_distance`: exp(-p)."""
    return np.exp(-np.asarray(p, dtype=float))


# --------------------------------------------------------------------- CSV I/O

def matrix_to_csv(M, labels) -> str:
    """Render a square matrix as CSV with a header row of terminal labels (`write_table`)."""
    M = np.asarray(M)
    labels = list(labels)
    if M.shape[0] != len(labels):
        raise ValidationError(f"{len(labels)} labels for a {M.shape[0]}-row matrix")
    buf = io.StringIO()
    write_table(buf, labels, M)
    return buf.getvalue()


class _RowText:
    """A `csv.writer` file whose ``write`` returns the text, so ``writerow`` returns the row."""
    write = staticmethod(lambda text: text)


def write_table(fh, header, values, labels=None) -> None:
    """Write a CSV table to ``fh``: the header row, then one row per row of ``values``.

    Integers print exactly and floats with 12 significant digits.  Each
    distinct value is formatted once (floats keyed by bit pattern, so 0.0
    and -0.0 keep their own text) and the rows are written one
    `_row_blocks` block at a time.  With ``labels`` each row starts with
    its label, quoted by `csv.writer` like the header.
    """
    values = np.asarray(values)
    csv.writer(fh, lineterminator="\n").writerow(header)
    integral = np.issubdtype(values.dtype, np.integer)
    keys = values if integral else values.astype(float, copy=False).view(np.int64)
    distinct = np.unique(keys)
    spec, numbers = ("d", distinct) if integral else (".12g", distinct.view(float))
    text = np.array([format(v, spec) for v in numbers.tolist()], dtype=object)
    # the label as csv.writer starts its row (quoted for a comma, a quote or "\n"), then a comma
    row_text = csv.writer(_RowText(), lineterminator="\n").writerow
    leads = [""] * len(values) if labels is None else [
        row_text([label, ""] if values.shape[1] else [label])[:-1] for label in labels
    ]
    for a, b in _row_blocks(*values.shape):
        rows = text[np.searchsorted(distinct, keys[a:b])].tolist()
        fh.writelines(f"{lead}{','.join(row)}\n" for lead, row in zip(leads[a:b], rows))


def read_table(text, labelled: bool = False) -> tuple[list[str], list[str] | None, np.ndarray]:
    """Parse a CSV table: a header row, then rows of finite numbers.

    ``text`` is a str or a seekable text file opened with ``newline=""``.
    Blank lines are skipped and every row must be as wide as the header.
    With ``labelled`` the first column holds row labels, returned apart;
    the header then names the value columns.  Both come back stripped.
    Errors number rows from the header, row 1, skipping blank lines.

    Lines are counted, to size the values, then read once in `_row_blocks`
    blocks, by `np.loadtxt` while plain, then by `csv.reader`.  A csv error
    is raised where met, any other fault at the end: the first row of the
    wrong width, else the first cell that is not a finite number.
    """
    raw = getattr(text, "buffer", None)  # a file's bytes, counted a block at a time, not decoded
    if raw is None:
        count = sum(1 for _ in _lines(text))
    else:  # one line for each "\n" and lone "\r", and one for a last line ending in neither
        count = 1
        for chunk in iter(lambda: raw.read(_BLOCK_CELLS), b""):
            count += chunk.count(b"\n")
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
    lines = _lines(text)
    try:
        header = next(filter(None, csv.reader(lines)), None)
        if header is None:
            raise ValidationError("empty file")
        skip, size = int(labelled), len(header)
        values = np.empty((count, size - skip))
        labels, rows, fault, plain = [], 0, None, True
        for a, b in _row_blocks(count, size):
            block = list(itertools.islice(lines, b - a))
            got = _plain_block(block, labelled, size - skip) if plain else None
            if got is None:
                if plain:  # every line so far was plain, so quote-free and a whole record
                    lines, plain = filter(None, csv.reader(itertools.chain(block, lines))), False
                    block = list(itertools.islice(lines, b - a))
                got = _cell_block(block, rows + 2, size, labelled)
            if isinstance(got[1], str):  # a fault: the first of the lowest rank is kept
                fault = got if fault is None or got[0] < fault[0] else fault
                rows += len(block)
                continue
            values[rows : rows + len(got[0])] = got[0]
            rows += len(got[0])
            labels += got[1]
    except csv.Error as exc:
        raise ValidationError(f"not a CSV table: {exc}") from exc
    if fault is not None:
        raise ValidationError(fault[1])
    return [s.strip() for s in header[skip:]], labels if labelled else None, values[:rows]


def _lines(text):
    """The lines of ``text``, a str or a seekable text file, from its start.

    A str is sliced one line at a time, each ending at its next ``\\n``,
    ``\\r\\n`` or lone ``\\r``, as a file's opened with ``newline=""`` do; a
    StringIO would copy it at 4 bytes a character.
    """
    if not isinstance(text, str):
        text.seek(0)
        yield from iter(text.readline, "")  # not the file itself, which closing this would close
        return
    size, start, nl, cr = len(text), 0, -1, -1
    while start < size:
        if nl < start:
            nl = text.find("\n", start) % (size + 1)  # size, if there is none
        if cr < start:
            cr = text.find("\r", start) % (size + 1)
        end = min(nl, cr) + 1 + (nl == cr + 1)  # past the text if neither is found
        yield text[start:end]
        start = end


# the bytes of a line of value cells; over these `np.loadtxt` and `float`
# accept the same cells and give the same bits
_PLAIN_BYTES = b"0123456789+-.eE,"


def _plain_block(lines: list[str], labelled: bool, width: int):
    """The values and labels of one block of lines, or None if it is not plain.

    Plain: no quote or NUL in a label, and finite values, as many as the
    header names, in ASCII cells of `_PLAIN_BYTES` within csv's field size
    limit.  Free of quotes, each line is then one whole csv record.
    """
    limit = csv.field_size_limit()
    lines = [line for line in (line.rstrip("\r\n") for line in lines) if line]
    labels = []
    if not lines:
        return np.empty((0, width)), labels
    if labelled:
        parts = [line.partition(",") for line in lines]
        labels = [label for label, _, _ in parts]
        # csv.reader reads a label as it stands unless it holds one of these
        joined = "".join(labels)
        if '"' in joined or "\0" in joined or max(map(len, labels)) > limit:
            return None
        labels = [label.strip() for label in labels]
        lines = [cells for _, _, cells in parts]
    # a row of one label has no cells; isascii first: a lone surrogate cannot be encoded
    if not all(line and line.isascii() and not line.encode().translate(None, _PLAIN_BYTES)
               for line in lines):
        return None
    if max(map(len, lines)) > limit:
        # csv.reader refuses a cell longer than its field size limit
        raw = "\n".join(lines).encode()
        byte = np.frombuffer(raw, np.uint8)
        bounds = np.flatnonzero((byte == ord(",")) | (byte == ord("\n")))
        if np.diff(bounds, prepend=-1, append=len(raw)).max() > limit + 1:
            return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(lines), width) or not np.isfinite(block).all():
        return None
    return block, labels


def _cell_block(rows: list[list[str]], row0: int, size: int, labelled: bool):
    """The values and labels of a block of `csv.reader` rows, the first row ``row0``, or its fault.

    A fault is (0, message) for the first row not ``size`` cells wide, else
    (1, message) for the first cell that is not a finite number.
    """
    for i, row in enumerate(rows, start=row0):
        if len(row) != size:
            return 0, f"row {i}: expected {size} values, got {len(row)}"
    skip = int(labelled)
    cells = [row[skip:] for row in rows]
    try:  # numpy reads a cell as `float` does, which names the first bad one below
        values = np.array(cells, dtype=float).reshape(len(rows), size - skip)
        if np.isfinite(values).all():
            return values, [row[0].strip() for row in rows] if labelled else []
    except ValueError:
        pass
    for i, row in enumerate(cells, start=row0):
        for j, cell in enumerate(row, start=skip + 1):
            try:
                if not np.isfinite(float(cell)):
                    return 1, f"row {i}, column {j}: expected a finite number, got {cell.strip()!r}"
            except ValueError:
                return 1, f"row {i}, column {j}: could not parse {cell.strip()!r}"


def matrix_from_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a labelled square matrix written by `matrix_to_csv`."""
    labels, _, M = read_table(text)
    if M.shape[0] != len(labels):
        raise ValidationError(f"header names {len(labels)} columns but {M.shape[0]} rows follow")
    return labels, M
