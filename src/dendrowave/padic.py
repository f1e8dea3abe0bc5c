"""P-adic codes for dendrogram nodes and the arithmetic they support.

Each terminal of an n-terminal dendrogram gets a code: a formal sum of
signed powers p^1..p^(n-1), one power per internal node on its root path,
signed +1 when the terminal lies under the first (canonical) child and -1
under the second.  Clusters get the unanimity sum of their members, which
coincides with reading the root path strictly above the cluster itself.
The root therefore carries the null code 0.

Norms and distances are returned as exact `fractions.Fraction` values.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    _has_signs,
    _int_at_least,
    _labels,
    _row_blocks,
    branch_signs,
    canonical_orient,
)

DEFAULT_BASE = 3

# a digit's int8 byte, and the three bytes that are digits
_BYTE_OF_DIGIT = {-1: 0xFF, 0: 0x00, 1: 0x01}
_DIGIT_BYTES = bytes(_BYTE_OF_DIGIT.values())


def _pack(coeffs: Iterable[int]) -> bytes:
    """The int8 bytes of a sequence of digits -1, 0, +1 (bools are not digits)."""
    out = bytearray()
    for j, c in enumerate(coeffs, start=1):
        byte = None if isinstance(c, (bool, np.bool_)) else _BYTE_OF_DIGIT.get(c)
        if byte is None:
            raise ValidationError(f"coefficient of p^{j} must be -1, 0 or +1, got {c}")
        out.append(byte)
    return bytes(out)


def _array(digits: bytes) -> np.ndarray:
    """A read-only int8 view of stored digits."""
    return np.frombuffer(digits, dtype=np.int8)


@dataclass(frozen=True, init=False, repr=False)
class PAdicCode:
    """Coefficients in {-1, 0, +1} for powers p^1..p^(n-1) of the base.

    The digits are stored once, as immutable int8 ``bytes`` with one byte
    per power (-1 is 0xFF), and ``coeffs`` reads them back as a tuple of
    ints.  Equality and hashing use the digits and the base.  ``coeffs``
    may be given as any sequence of digits or as such bytes, and the base
    as any integer >= 2; it is stored as a Python int.
    """

    digits: bytes
    base: int

    def __init__(self, coeffs: Iterable[int] | bytes, base: int = DEFAULT_BASE) -> None:
        base = _int_at_least(base, "base")
        digits = coeffs if isinstance(coeffs, bytes) else _pack(coeffs)
        if digits.translate(None, _DIGIT_BYTES):
            # only reached on bad bytes, to name the offending power
            for j, c in enumerate(_array(digits).tolist(), start=1):
                if c not in (-1, 0, 1):
                    raise ValidationError(f"coefficient of p^{j} must be -1, 0 or +1, got {c}")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "base", base)

    @classmethod
    def _of(cls, digits: bytes, base: int) -> PAdicCode:
        """The code of digits and a base that the caller has already checked."""
        code = object.__new__(cls)
        code.__dict__.update(digits=digits, base=base)
        return code

    def __repr__(self) -> str:
        return f"PAdicCode(coeffs={self.coeffs!r}, base={self.base!r})"

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_array(self.digits).tolist())

    @property
    def n_terminals(self) -> int:
        return len(self.digits) + 1

    @property
    def is_null(self) -> bool:
        return not _array(self.digits).any()

    def _terms(self) -> list[tuple[int, int]]:
        """``(level, coefficient)`` of every nonzero coefficient, ascending."""
        digits = _array(self.digits)
        levels = np.flatnonzero(digits)
        return list(zip((levels + 1).tolist(), digits[levels].tolist()))

    def support(self) -> tuple[int, ...]:
        """Levels whose coefficient is nonzero, ascending."""
        return tuple((np.flatnonzero(_array(self.digits)) + 1).tolist())

    def decimal(self, base: int | None = None) -> int:
        """Exact integer value sum(c_j * p**j)."""
        p = self.base if base is None else _int_at_least(base, "base")
        return sum(c * p**j for j, c in self._terms())

    def to_string(self, symbol: str | None = None) -> str:
        """Signed-power form, e.g. ``+p^1+p^2+p^5+p^7``; the null code is ``0``.

        ``symbol`` defaults to the letter p; pass e.g. ``"2"`` to spell the
        base out.
        """
        sym = "p" if symbol is None else str(symbol)
        parts = [f"{'+' if c > 0 else '-'}{sym}^{j}" for j, c in self._terms()]
        return "".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.to_string()


_TERM_RE = re.compile(r"([+-])([A-Za-z0-9]+)\^(\d+)")


def parse_code(text: str, n_terminals: int, base: int = DEFAULT_BASE) -> PAdicCode:
    """Parse a signed-power string back into a code (inverse of `to_string`)."""
    text = text.strip()
    coeffs = [0] * (n_terminals - 1)
    if text == "0":
        return PAdicCode(tuple(coeffs), base)
    pos = 0
    for m in _TERM_RE.finditer(text):
        if m.start() != pos:
            raise ValidationError(f"cannot parse code at {text[pos:]!r}")
        pos = m.end()
        sign, sym, exp = m.group(1), m.group(2), int(m.group(3))
        if sym not in ("p", str(base)):
            raise ValidationError(f"unexpected base symbol {sym!r}")
        if not 1 <= exp <= n_terminals - 1:
            raise ValidationError(f"exponent {exp} outside 1..{n_terminals - 1}")
        if coeffs[exp - 1]:
            raise ValidationError(f"repeated exponent {exp}")
        coeffs[exp - 1] = 1 if sign == "+" else -1
    if pos != len(text):
        raise ValidationError(f"cannot parse code at {text[pos:]!r}")
    return PAdicCode(tuple(coeffs), base)


def code_from_decimal(value: int, n_terminals: int, base: int = DEFAULT_BASE) -> PAdicCode:
    """Recover a code from its integer value.

    Unique for base >= 3 (the balanced digit set); base 2 is ambiguous and
    rejected here.
    """
    base = _int_at_least(base, "base")
    if base < 3:
        raise ValidationError("decimal round-trip needs base >= 3 (base 2 collides)")
    coeffs = []
    v = value
    for j in range(n_terminals):
        r = v % base
        if r > base // 2:
            r -= base
        if r not in (-1, 0, 1):
            raise ValidationError(f"{value} is not the value of any code in base {base}")
        if j == 0:
            if r != 0:
                raise ValidationError(f"{value} has a p^0 component, codes start at p^1")
        else:
            coeffs.append(r)
        v = (v - r) // base
    if v != 0:
        raise ValidationError(f"{value} needs powers beyond p^{n_terminals - 1}")
    return PAdicCode(tuple(coeffs), base)


def encode(d: Dendrogram, base: int = DEFAULT_BASE) -> tuple[list[PAdicCode], np.ndarray]:
    """Codes for all terminals plus the branch-code matrix, canonically oriented.

    Row i - 1 of the matrix holds the coefficients of terminal i's code.
    """
    base = _int_at_least(base, "base")
    signs = branch_signs(canonical_orient(d))
    n, width = signs.shape
    # the tree's own signs hold only -1, 0, +1, so each row's bytes are a code's
    # digits as they stand, copied once out of the matrix
    rows = memoryview(signs.reshape(-1))
    codes = [PAdicCode._of(bytes(rows[i * width : (i + 1) * width]), base) for i in range(n)]
    return codes, signs


def decimal_value(code: PAdicCode, base: int | None = None) -> int:
    return code.decimal(base)


def _require_same_context(a: PAdicCode, b: PAdicCode) -> None:
    if len(a.digits) != len(b.digits) or a.base != b.base:
        raise ValidationError("codes come from different contexts (length or base differ)")


def padd(a: PAdicCode, b: PAdicCode) -> PAdicCode:
    """Average-and-threshold sum: keep a coefficient only where both agree.

    The null code is absorbing: anything summed with 0 gives 0, and 0 + 0
    stays 0.  The operation is commutative, associative and idempotent.
    """
    _require_same_context(a, b)
    da, db = _array(a.digits), _array(b.digits)
    return PAdicCode(np.where(da == db, da, np.int8(0)).tobytes(), a.base)


def cluster_code(d: Dendrogram, node: NodeRef, base: int = DEFAULT_BASE) -> PAdicCode:
    """Code of any node: a terminal's own code, or the unanimity sum of members.

    Both equal the root path above the node, one sign per ancestor, which
    is read here from the canonical layout: the ancestors are the larger
    clusters whose interval holds the node's, and the sign says on which
    side of their split it lies.  The root gets the null code.
    """
    base = _int_at_least(base, "base")
    oriented = canonical_orient(d)
    start, end = oriented.span(node)
    lay = oriented.layout
    above = (lay.lo <= start) & (end <= lay.hi) & (lay.size > end - start)
    digits = np.where(above, np.where(start < lay.mid, 1, -1), 0).astype(np.int8)
    return PAdicCode(digits.tobytes(), base)


# ----------------------------------------------------------------- polynomials

IntPoly = dict[int, int]


def poly_from_code(code: PAdicCode) -> IntPoly:
    return dict(code._terms())


def pmultiply(a: IntPoly, b: IntPoly, n_terminals: int) -> IntPoly:
    """Convolution product of integer polynomials in p, truncated above p^(n-1).

    Keys are powers (negative powers are legal in intermediate results),
    values are integer coefficients; zero coefficients are dropped.
    """
    out: IntPoly = {}
    for (ja, ca), (jb, cb) in itertools.product(a.items(), b.items()):
        j = ja + jb
        if j > n_terminals - 1:
            continue
        out[j] = out.get(j, 0) + ca * cb
    return {j: c for j, c in sorted(out.items()) if c}


def dilate(code: PAdicCode) -> PAdicCode:
    """Multiply by 1/p: every coefficient drops one level, the lowest is lost.

    The top coefficient becomes 0, so n - 1 applications send any code to
    the null code.
    """
    return PAdicCode(code.digits[1:] + b"\x00", code.base)


def dilation_steps_to_null(code: PAdicCode) -> int:
    """Number of dilations until the null code is reached (at most n - 1)."""
    steps = 0
    while not code.is_null:
        code = dilate(code)
        steps += 1
    return steps


def dilate_tree(d: Dendrogram) -> Dendrogram:
    """Structural counterpart of dilation: fuse the rank-1 pair into one terminal.

    The two children of the lowest merge (always terminals) become a single
    terminal labelled ``a+b``; every remaining rank drops by one.
    """
    if d.n_clusters == 0:
        raise ValidationError("a single terminal cannot be dilated further")
    oriented = canonical_orient(d)
    n, kids = oriented.n_terminals, oriented.kids
    keep, drop = kids[0].tolist()
    labels = list(oriented.labels)
    labels[keep] = f"{labels[keep]}+{labels.pop(drop)}"
    # terminals past the dropped one move down 1, rank 1 to the kept one, later ranks down 2
    ids = np.arange(2 * n - 1)
    new_id = ids - (ids > drop) - (ids > n)
    new_id[n] = new_id[keep]
    levels = None if oriented.levels is None else oriented.levels[1:]
    return Dendrogram(labels, new_id[kids[1:]], levels)


# -------------------------------------------------------------- norm, distance

def pnorm(d: Dendrogram, node: NodeRef, base: int = DEFAULT_BASE) -> Fraction:
    """Ultrametric norm of a node: 1 for terminals, p^-rank for clusters.

    The root (whose code is null) gets 0 by convention, so the norm is
    below 1 exactly for genuine (non-singleton) clusters.
    """
    base = _int_at_least(base, "base")
    d._check_node(node)
    if node.is_terminal:
        return Fraction(1)
    if node.index == d.n_clusters:
        return Fraction(0)
    return Fraction(1, base**node.index)


def dilation_operator_norm(base: int = DEFAULT_BASE) -> Fraction:
    """Operator norm of multiplication by 1/p, namely |1/p| = p."""
    return Fraction(_int_at_least(base, "base"))


def pdistance(
    a: PAdicCode | NodeRef,
    b: PAdicCode | NodeRef,
    d: Dendrogram | None = None,
    base: int = DEFAULT_BASE,
) -> Fraction:
    """Ultrametric distance p^-r between two codes (or nodes of ``d``).

    r is the lowest level where both codes carry a nonzero coefficient.
    Equal codes are at distance 0; if one code is null (or the supports
    never meet) the distance takes the coarsest value p^-(n-1).  For two
    terminals this reproduces p^-rank(lca).
    """
    base = _int_at_least(base, "base")
    if isinstance(a, NodeRef) or isinstance(b, NodeRef):
        if d is None:
            raise ValidationError("node references need the dendrogram they live in")
        if isinstance(a, NodeRef):
            a = cluster_code(d, a, base)
        if isinstance(b, NodeRef):
            b = cluster_code(d, b, base)
    _require_same_context(a, b)
    if a == b:
        return Fraction(0)
    # codes that differ have at least one digit, so the argmax is a level
    common = np.logical_and(_array(a.digits), _array(b.digits))
    first = int(common.argmax())
    r = first + 1 if common[first] else a.n_terminals - 1
    return Fraction(1, a.base**r)


def power_repr(value: Fraction, base: int) -> str:
    """Render an exact p-power value symbolically: ``0``, ``1``, ``p^-2``, ``p^1``."""
    base = _int_at_least(base, "base")
    value = Fraction(value)
    if value == 0:
        return "0"
    if value == 1:
        return "1"
    if value.numerator == 1 or value.denominator == 1:  # 1 / p^e or p^e
        step, rest = (-1, value.denominator) if value.numerator == 1 else (1, value.numerator)
        e = 0
        while rest % base == 0:
            rest //= base
            e += step
        if rest == 1:
            return f"p^{e}"
    return str(value)


# ----------------------------------------------------------------------- decode

def decode(
    codes_or_matrix: Sequence[PAdicCode] | np.ndarray,
    labels: Sequence[str] | None = None,
) -> Dendrogram:
    """Rebuild the dendrogram whose branch codes are given.

    Accepts the n x (n-1) sign matrix or the list of terminal codes (its
    rows).  Column supports must form a laminar family with +1 rows and -1
    rows each covering exactly one already-built node; otherwise a
    `ValidationError` names the offending column by its C.csv header,
    ``cluster_k`` for the column of rank k.  Composing with
    `encode` returns the canonical orientation of the original tree.

    Column k's first +1 row and first -1 row name its two children: the
    largest nodes built so far over them.  The tree those choices give is
    accepted when its branch signs are the matrix, which is exactly when
    the column-by-column check accepts the matrix, so that check runs only
    on a matrix that fails, to name the first failing column.
    """
    if isinstance(codes_or_matrix, np.ndarray):
        mat = np.asarray(codes_or_matrix)
    else:
        codes = list(codes_or_matrix)
        if not codes:
            raise ValidationError("need at least one code")
        n = len(codes)
        for code in codes:
            if len(code.digits) != n - 1:
                raise ValidationError(f"{n} codes need length {n - 1}, got {len(code.digits)}")
        mat = _array(b"".join(code.digits for code in codes)).reshape(n, n - 1)
    if mat.ndim != 2:
        raise ValidationError("branch codes must form a 2-d matrix")
    n, m = mat.shape
    if m != n - 1:
        raise ValidationError(f"matrix must be n x (n-1), got {n} x {m}")
    signs = mat if mat.dtype == np.int8 else (mat == 1).astype(np.int8) - (mat == -1)
    # the int8 digits equal the matrix exactly when its entries are -1, 0 and +1
    tree = _candidate(signs, labels) if signs is mat or (signs == mat).all() else None
    if tree is not None and _has_signs(tree, signs):
        return tree
    if not ((mat == 0) | (mat == 1) | (mat == -1)).all():
        raise ValidationError("branch codes contain entries other than -1, 0, +1")
    return _decode_columns(signs, labels)


def _candidate(mat: np.ndarray, labels: Sequence[str] | None) -> Dendrogram | None:
    """The tree whose rank-k children hold column k's first +1 and -1 rows.

    None when a column lacks a sign, no tree has these children or the
    labels are bad: the column check then raises, naming any failing
    column before the labels.
    """
    n, m = mat.shape
    first = np.full((2, m), n)  # each column's first +1 row and first -1 row, n until found
    for a, b in _row_blocks(n, m):  # a block's max and min show the columns it signs
        blk = mat[a:b]
        for side, sign, ext in ((first[0], 1, blk.max(axis=0)), (first[1], -1, blk.min(axis=0))):
            new = np.flatnonzero((ext == sign) & (side == n))
            side[new] = a + (blk[:, new] == sign).argmax(axis=0)
    if (first == n).any():
        return None
    top = first.min(axis=0)  # each cluster's first row
    by, ranks = np.argsort(top, kind="stable"), np.arange(m)
    # the child over row r is the highest-ranked cluster below k whose first row is r, else
    # terminal r: the last cluster before (r, k) in (first row, rank) order, if it fits
    at = by[np.searchsorted(top[by] * m + by, first * m + ranks) - 1]
    kids = np.where((top[at] == first) & (at < ranks), at + n, first).T
    try:
        return _build(kids, labels)
    except ValidationError:
        return None


def _build(kids, labels: Sequence[str] | None) -> Dendrogram:
    """The tree with these child ids, after checking that there is one label per terminal."""
    n = len(kids) + 1
    if labels is not None and len(labels) != n:
        raise ValidationError(f"{len(labels)} labels given for {n} terminals")
    return Dendrogram(_labels(labels, n), np.array(kids, dtype=np.int64))


def _decode_columns(mat: np.ndarray, labels: Sequence[str] | None) -> Dendrogram:
    """Check the columns one at a time, raising at the first that fails."""
    n = mat.shape[0]
    cover = np.arange(n)  # the id of the largest node built so far over each row
    size = np.ones(2 * n - 1, dtype=np.int64)
    kids: list[tuple[int, int]] = []
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
            children.append(node_id)
        new_id = n + k - 1
        cover[sides[0]] = cover[sides[1]] = new_id
        size[new_id] = sides[0].size + sides[1].size
        kids.append((children[0], children[1]))
    return _build(kids, labels)
