"""Uniform p-way trees, their binary unfolding, and exact scaling filters.

A p-way tree merges exactly p children at every internal node, so t
internal nodes cover n = t(p - 1) + 1 terminals.  `unfold` rewrites each
p-way merge as a left-deep chain of p - 1 binary merges, giving a
node-ranked dendrogram that the binary transform machinery accepts; every
original cluster survives as the top of its chain, so the terminal-set
family is preserved (and grows by the chain intermediates).

The scaling-filter catalog keeps exact rational coefficients: repeated
self-convolution of the box filter (1/2, 1/2) yields the triangle filter
and the cubic B-spline filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    _as_rng,
    _document,
    _IdTree,
    _int_at_least,
    _labels,
    _random_ids,
    _table_from_json,
    cluster,
    to_json as _to_json,
)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class PWayTree(_IdTree):
    """A node-ranked tree whose internal nodes all have arity p >= 2.

    Stored like `Dendrogram`, with p node ids per row of ``kids``.
    """

    arity: int
    labels: tuple[str, ...]
    kids: np.ndarray
    _fields = ("arity", "labels", "kids")
    _format = "pway_tree"

    def __init__(self, arity: int, labels, merges) -> None:
        arity = _int_at_least(arity, "arity")
        n, t = len(labels), len(merges)
        if n != (need := t * (arity - 1) + 1):
            raise ValidationError(f"{t} {arity}-way merges cover {need} terminals, got {n} labels")
        if len(set(labels)) != n:
            raise ValidationError("terminal labels must be distinct")
        self._store(labels, merges, arity, arity=arity)

    @property
    def n_internal(self) -> int:
        return len(self.kids)

    @cached_property
    def _unfolded(self) -> Dendrogram:
        return unfold(self)

    def term_set(self, node: NodeRef) -> frozenset[int]:
        """Terminal indices under ``node``; q<k> reads the top of its unfolded chain."""
        if node.index > (self.n_terminals if node.is_terminal else self.n_internal):
            raise ValidationError(f"unknown node {node!r}")
        if node.is_terminal:
            return frozenset((node.index,))
        return self._unfolded.term_set(cluster(node.index * (self.arity - 1)))


def build_pway(
    arity: int,
    merges: Iterable[Sequence[NodeRef]],
    labels: Sequence[str] | None = None,
) -> PWayTree:
    arity = _int_at_least(arity, "arity")
    merge_tuple = tuple(tuple(kids) for kids in merges)
    return PWayTree(arity, _labels(labels, len(merge_tuple) * (arity - 1) + 1), merge_tuple)


def unfold(t: PWayTree) -> Dendrogram:
    """Rewrite each p-way merge as a left-deep chain of p - 1 binary merges.

    The chain for the node of rank k occupies consecutive binary ranks
    just below where k sat, i.e. (k-1)(p-1)+1 .. k(p-1); the topmost chain
    node inherits the original cluster's terminal set.
    """
    kids, n, p = t.kids, t.n_terminals, t.arity
    top = np.where(kids < n, kids, n - 1 + (kids - (n - 1)) * (p - 1))  # clusters by chain top
    first = np.arange(n - 1, n - 1 + len(kids) * (p - 1))  # the previous binary rank's id
    first[:: p - 1] = top[:, 0]
    binary = np.stack((first, top[:, 1:].reshape(-1)), axis=1)
    return Dendrogram(t.labels, binary)


def random_pway_tree(
    n_internal: int,
    arity: int,
    rng: int | np.random.Generator | None = None,
    labels: Sequence[str] | None = None,
) -> PWayTree:
    """Draw a random p-way merge order with ``n_internal`` internal nodes."""
    n_internal = _int_at_least(n_internal, "n_internal", 1)
    arity = _int_at_least(arity, "arity")
    kids = _random_ids(n_internal, arity, _as_rng(rng))
    return PWayTree(arity, _labels(labels, n_internal * (arity - 1) + 1), kids)


# --------------------------------------------------------------------- filters

@dataclass(frozen=True)
class ScalingFilter:
    """Symmetric low-pass filter with exact rational coefficients summing to 1."""

    name: str
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if sum(self.coefficients, Fraction(0)) != 1:
            raise ValidationError(f"{self.name}: coefficients must sum to 1")


def convolve_filters(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact convolution of two coefficient sequences."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return tuple(out)


BOX = ScalingFilter("box", (Fraction(1, 2), Fraction(1, 2)))
TRIANGLE = ScalingFilter(
    "triangle", (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
)
B3_SPLINE = ScalingFilter(
    "b3_spline",
    (Fraction(1, 16), Fraction(1, 4), Fraction(3, 8), Fraction(1, 4), Fraction(1, 16)),
)


def scaling_filters() -> dict[str, ScalingFilter]:
    """The catalog: box, its self-convolution (triangle), and the cubic spline."""
    return {f.name: f for f in (BOX, TRIANGLE, B3_SPLINE)}


# -------------------------------------------------------------------- JSON I/O

def to_json(t: PWayTree, indent: int | None = 2) -> str:
    """Serialize to the p-way JSON schema, written as `tree.to_json` writes a dendrogram."""
    return _to_json(t, indent)


def from_json(text: str) -> PWayTree:
    doc, labels = _document(text, PWayTree._format)
    arity = doc.get("arity")
    if not isinstance(arity, int) or arity < 2:
        raise ValidationError(f"arity: expected an integer >= 2, got {arity!r}")
    raw = doc["merges"]
    kids = _table_from_json(raw, len(raw), arity, len(labels))
    return PWayTree(arity, labels, kids)
