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
Whether M == U is decided once per matrix, in O(n^2) (`_Distances.exact`).
An exact ultrametric passes `is_ultrametric` at any tol, gets its census
from the tree, is laid out in its leaf order and has its clusters as balls.
Only a matrix that is not one pays for an O(n^2) witness scan per row above
U (1 + tol), a census from its sorted rows (O(n^3) only when ties abound),
the layout scan and the ball-by-ball check, O(n^3) per radius.
"""

from __future__ import annotations

import io
import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tables import read_table, write_table
from .tree import (
    Dendrogram, ValidationError, _find, _heights, _int_at_least, _lca_rows, _row_blocks, default_labels,
)

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
    table = _heights(d, use)
    out = np.empty((d.n_terminals, d.n_terminals), dtype=table.dtype)
    for out_row, ranks in zip(out, _lca_rows(d.layout)):
        np.take(table, ranks, out=out_row)
    return out


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as an array of real numbers, numbers held as text or objects read as floats."""
    try:
        arr = np.asarray(values)
        arr = arr.astype(float) if arr.dtype.kind in "OSU" else arr
        if arr.dtype.kind not in "biuf":
            raise TypeError
    except (TypeError, ValueError, OverflowError):  # ragged, complex or not numbers
        raise ValidationError(f"{what} must be an array of real numbers") from None
    return arr


def _data_matrix(X) -> np.ndarray:
    """X as a 2-d array of finite floats; a 1-d X is read as one column."""
    X = np.asarray(_real_array(X, "data"), dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValidationError(f"expected a 2-d data matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValidationError("data contains non-finite entries")
    return X


def _checked_matrix(M, name: str = "distance", rtol: float = 0.0, atol: float = 0.0) -> np.ndarray:
    """M as a square, finite, symmetric, zero-diagonal, nonnegative real array.

    Text and objects are read as floats.  The first rule broken anywhere is
    raised.  Each `_row_blocks` block of rows is compared with its block of
    columns, so no n x n temporary is built: exactly, or by `np.allclose`
    when ``rtol`` or ``atol`` is set.
    """
    M = _real_array(M, f"{name} matrix")
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
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < np.inf:
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
        """Mask of the points x with A[x, z] > U[x, z] * scale for some z, each pair once (`_lca_rows`)."""
        lay = self.tree.layout
        order = lay.order - 1
        # rounding is monotone, so scaling the levels scales U's entries exactly
        caps = np.concatenate(([0.0], self.levels)) * scale
        above = np.zeros(len(order), dtype=bool)  # by leaf position
        for p, ranks in enumerate(_lca_rows(lay, right=True)):
            over = A[order[p], order[p + 1 :]] > caps[ranks]
            above[p] |= over.any()
            above[p + 1 :] |= over
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

    The checks take one in place of a matrix, so several checks of one
    matrix share one validation (float64 is kept, not copied), one minimum
    spanning tree and one `exact` test; ``integral`` says if it came as integers.
    """

    def __init__(self, M) -> None:
        M = _checked_matrix(M)
        self.integral, self.A = np.issubdtype(M.dtype, np.integer), M.astype(float, copy=False)

    @property
    def shape(self) -> tuple[int, int]:
        """The matrix's shape, which `np.shape` reads as it would an array's."""
        return self.A.shape

    @cached_property
    def sub(self) -> Subdominant:
        return _subdominant(self.A)

    @cached_property
    def exact(self) -> bool:
        """A == U, so A is an ultrametric; a violation in row 0 says no before U is built."""
        A = self.A
        return len(A) < 3 or (_row_violation(A, 0, 1.0) is None
                              and not self.sub._rows_above(A, 1.0).any())


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

    An exact ultrametric, equal to its subdominant ultrametric U, passes.
    Otherwise, as the cap is never below U, after row 0 only the rows with
    some d(x, z) > U[x, z] (1 + tol) can fail; they are scanned in
    increasing x, O(n^2) each.
    """
    D = _as_distances(M)
    A, scale = D.A, _scale(tol)
    if D.exact:
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
    """Row 0, so that a matrix far from ultrametric fails before U is built, then rows above U."""
    yield 0
    yield from (x for x in np.flatnonzero(D.sub._rows_above(D.A, scale)).tolist() if x)


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
    if n >= 3 and D.exact:
        eq = _tree_equilateral(D.sub, scale)
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
    D, order = _as_distances(M), list(order) if np.iterable(order) else order
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
    n, order = A.shape[0], np.asarray(order)
    wrong = order.shape != (n,) or order.size and order.dtype.kind not in "iu"
    if wrong or not np.array_equal(np.sort(order), range(n)):
        raise ValidationError(f"order must be a permutation of 0..{n - 1}")
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
    center = _int_at_least(center, "center", None)
    if not 0 <= center < n:
        raise ValidationError(f"center {center} outside 0..{n - 1}")
    _check_radius(r)
    return frozenset(int(i) for i in np.flatnonzero(A[center] <= r))


def _check_radius(r) -> None:
    if isinstance(r, bool) or not isinstance(r, numbers.Real) or r != r:
        raise ValidationError(f"radius must be a real number other than NaN, got {r!r}")
    if r < 0:
        raise ValidationError("radius must be nonnegative")


def check_ball_axioms(M, radii=None) -> Verdict:
    """Verify the defining ball properties of an ultrametric, exhaustively.

    For each radius: every member of a ball generates the identical ball
    (so same-radius balls partition the points), and the distance between
    two distinct balls is constant across member pairs.  Radii default to
    every value appearing in the matrix.  An exact ultrametric, whose balls
    are its clusters, passes once its radii are checked; only a
    near-ultrametric has its balls compared, O(n^3) per radius.
    """
    D = _Distances(M)
    verdict = is_ultrametric(D, 0 if D.integral else DEFAULT_TOL)
    if not verdict:
        raise ValidationError(f"matrix is not ultrametric: {verdict.detail}")
    A, n = D.A, len(D.A)
    if radii is None:
        radii = [] if D.exact else sorted(set(A.ravel().tolist()))
    elif not np.iterable(radii):
        raise ValidationError(f"radii must be an iterable of real numbers, got {radii!r}")
    for r in radii:
        _check_radius(r)
        if D.exact:  # its balls are its clusters
            continue
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
    d = np.asarray(_real_array(d, "distances"), dtype=float)
    if (d < 0).any():
        raise ValidationError("distances must be nonnegative")
    with np.errstate(divide="ignore"):
        return -np.log(d)


def distance_from_proximity(p):
    """Inverse of `proximity_from_distance`: exp(-p)."""
    return np.exp(-np.asarray(_real_array(p, "proximities"), dtype=float))


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


def matrix_from_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a labelled square matrix written by `matrix_to_csv`."""
    labels, _, M = read_table(text)
    if M.shape[0] != len(labels):
        raise ValidationError(f"header names {len(labels)} columns but {M.shape[0]} rows follow")
    return labels, M
