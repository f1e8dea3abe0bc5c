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

import json
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
    _check_merges,
    _document,
    _merges_from_json,
    _random_merges,
    build_from_merges,
    cluster,
    default_labels,
)


@dataclass(frozen=True)
class PWayTree:
    """A node-ranked tree whose internal nodes all have arity p >= 2."""

    arity: int
    labels: tuple[str, ...]
    merges: tuple[tuple[NodeRef, ...], ...]

    def __post_init__(self) -> None:
        p = self.arity
        if p < 2:
            raise ValidationError(f"arity must be >= 2, got {p}")
        n = len(self.labels)
        t = len(self.merges)
        if n != t * (p - 1) + 1:
            raise ValidationError(
                f"{t} {p}-way merges cover {t * (p - 1) + 1} terminals, got {n} labels"
            )
        if len(set(self.labels)) != n:
            raise ValidationError("terminal labels must be distinct")
        _check_merges(self.merges, n, p)

    @property
    def n_terminals(self) -> int:
        return len(self.labels)

    @property
    def n_internal(self) -> int:
        return len(self.merges)

    @cached_property
    def _unfolded(self) -> Dendrogram:
        return unfold(self)

    def term_set(self, node: NodeRef) -> frozenset[int]:
        """Terminal indices under ``node``; q<k> reads the top of its unfolded chain."""
        if node.is_terminal:
            if node.index > self.n_terminals:
                raise ValidationError(f"unknown node {node!r}")
            return frozenset((node.index,))
        if node.index > self.n_internal:
            raise ValidationError(f"unknown node {node!r}")
        return self._unfolded.term_set(cluster(node.index * (self.arity - 1)))


def build_pway(
    arity: int,
    merges: Iterable[Sequence[NodeRef]],
    labels: Sequence[str] | None = None,
) -> PWayTree:
    merge_tuple = tuple(tuple(kids) for kids in merges)
    n = len(merge_tuple) * (arity - 1) + 1
    if labels is None:
        labels = default_labels(n)
    return PWayTree(arity, tuple(str(s) for s in labels), merge_tuple)


def unfold(t: PWayTree) -> Dendrogram:
    """Rewrite each p-way merge as a left-deep chain of p - 1 binary merges.

    The chain for the node of rank k occupies consecutive binary ranks
    just below where k sat, i.e. (k-1)(p-1)+1 .. k(p-1); the topmost chain
    node inherits the original cluster's terminal set.
    """
    p = t.arity
    merges: list[tuple[NodeRef, NodeRef]] = []
    for k, kids in enumerate(t.merges, start=1):
        left, *rest = (c if c.is_terminal else cluster(c.index * (p - 1)) for c in kids)
        for rank, child in enumerate(rest, start=(k - 1) * (p - 1) + 1):
            merges.append((left, child))
            left = cluster(rank)
    return build_from_merges(merges, labels=t.labels)


def random_pway_tree(
    n_internal: int,
    arity: int,
    rng: int | np.random.Generator | None = None,
    labels: Sequence[str] | None = None,
) -> PWayTree:
    """Draw a random p-way merge order with ``n_internal`` internal nodes."""
    if n_internal < 1:
        raise ValidationError("need at least one internal node")
    return build_pway(arity, _random_merges(n_internal, arity, _as_rng(rng)), labels=labels)


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

_FORMAT = "pway_tree"


def to_json(t: PWayTree, indent: int | None = 2) -> str:
    doc = {
        "format": _FORMAT,
        "arity": t.arity,
        "n_terminals": t.n_terminals,
        "terminals": list(t.labels),
        "merges": [
            {"rank": k, "children": [{c.kind: c.index} for c in kids]}
            for k, kids in enumerate(t.merges, start=1)
        ],
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def from_json(text: str) -> PWayTree:
    doc, labels = _document(text, _FORMAT)
    arity = doc.get("arity")
    if not isinstance(arity, int) or arity < 2:
        raise ValidationError(f"arity: expected an integer >= 2, got {arity!r}")
    raw = doc["merges"]
    return PWayTree(arity, tuple(labels), _merges_from_json(raw, len(raw), arity))
