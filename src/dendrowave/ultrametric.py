"""Ultrametric distance matrices: generation, validation, balls, canonical form.

A matrix is ultrametric when every triple obeys the strong triangle
inequality d(x, z) <= max(d(x, y), d(y, z)).  Cophenetic matrices of
node-ranked dendrograms always qualify, whether valued in ranks (exact
integers) or merge levels.  The validators here return verdict objects
carrying a concrete witness when they fail.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .tree import Dendrogram, ValidationError

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
    gaps = d.layout.gaps
    # by leaf position, the LCA rank of p < q is the largest gap rank between them
    by_pos = np.zeros((n, n), dtype=np.int64)
    for p in range(n - 1):
        np.maximum.accumulate(gaps[p:], out=by_pos[p, p + 1 :])
    by_pos += by_pos.T
    ranks = by_pos[np.ix_(d.layout.pos, d.layout.pos)]
    if use == "ranks":
        return ranks
    return np.array((0.0,) + (d.levels or ()))[ranks]


def _checked_matrix(M) -> np.ndarray:
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


def is_ultrametric(M, tol: float = DEFAULT_TOL) -> Verdict:
    """Check the strong triangle inequality over all triples.

    ``tol`` is relative; pass 0 for exact comparison (the natural choice
    for integer rank matrices).  On failure the witness (x, y, z) satisfies
    d(x, z) > max(d(x, y), d(y, z)).
    """
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


def triangle_classify(M, tol: float = DEFAULT_TOL) -> TriangleCensus:
    """Classify every triple of points by its triangle shape.

    One anchor i at a time, the triangles (i, j, k) with i < j < k form the
    block over j, k > i; sorting each triple's sides is exact elementwise
    min and max.  The block is symmetric, so both triangle counts come
    from the whole block minus its diagonal, halved.  Memory is O(n^2).
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


def canonical_form(M, order, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, Verdict]:
    """Permute M by ``order`` and test the canonical-layout conditions.

    For the permuted matrix A the conditions are: every row is
    non-decreasing to the right of the diagonal, and whenever
    A[k, k+1] = ... = A[k, k+l+1] is a maximal run of equal values, the
    next row obeys A[k+1, j] <= A[k, j] inside the run and
    A[k+1, j] = A[k, j] beyond it.  The left-to-right terminal order of
    any dendrogram generating M passes this test.
    """
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


# ------------------------------------------------------------------------ balls

def ball(M, center: int, r) -> frozenset[int]:
    """Closed ball {y : d(center, y) <= r} in a validated ultrametric."""
    A = _checked_matrix(M)
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
    verdict = is_ultrametric(A, tol=0 if np.issubdtype(A.dtype, np.integer) else DEFAULT_TOL)
    if not verdict:
        raise ValidationError(f"matrix is not ultrametric: {verdict.detail}")
    n = A.shape[0]
    if radii is None:
        radii = sorted(set(np.asarray(A).ravel().tolist()))
    for r in radii:
        balls = [ball(A, c, r) for c in range(n)]
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


# ------------------------------------------------------- proximity conversions

def proximity_from_distance(d):
    """Map distances to proximities via -log; zero distance becomes +inf."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore"):
        return -np.log(d)


def distance_from_proximity(p):
    """Inverse of `proximity_from_distance`: exp(-p)."""
    p = np.asarray(p, dtype=float)
    return np.exp(-p)


# --------------------------------------------------------------------- CSV I/O

def matrix_to_csv(M, labels) -> str:
    """Render a square matrix as CSV with a header row of terminal labels."""
    M = np.asarray(M)
    labels = list(labels)
    if M.shape[0] != len(labels):
        raise ValidationError(
            f"{len(labels)} labels for a {M.shape[0]}-row matrix"
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(labels)
    integral = np.issubdtype(M.dtype, np.integer)
    for row in M:
        writer.writerow(
            [str(int(v)) if integral else format(float(v), ".12g") for v in row]
        )
    return buf.getvalue()


def read_table(
    text: str, labelled: bool = False
) -> tuple[list[str], list[str] | None, np.ndarray]:
    """Parse a CSV table: a header row, then rows of finite numbers.

    Blank lines are skipped and every row must be as wide as the header.
    With ``labelled`` the first column holds row labels, returned apart;
    the header then names the value columns.  Both come back stripped.
    Errors number rows from the header, row 1, skipping blank lines.
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
        # failure path only: name the first cell that is not a finite number
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
    labels = [row[0].strip() for row in body] if labelled else None
    return [s.strip() for s in header[skip:]], labels, values


def matrix_from_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a labelled square matrix written by `matrix_to_csv`."""
    labels, _, M = read_table(text)
    if M.shape[0] != len(labels):
        raise ValidationError(f"header names {len(labels)} columns but {M.shape[0]} rows follow")
    return labels, M
