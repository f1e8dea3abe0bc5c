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
from typing import Iterable, Sequence

import numpy as np

from .tree import (
    Dendrogram,
    NodeRef,
    ValidationError,
    _is_int,
    _node_from_json,
    _node_to_json,
    build_from_merges,
    cluster,
    default_labels,
    terminal,
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
        seen: set[NodeRef] = set()
        for k, kids in enumerate(self.merges, start=1):
            if len(kids) != p:
                raise ValidationError(f"rank {k}: expected {p} children, got {len(kids)}")
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
                if child in seen:
                    raise ValidationError(f"rank {k}: {child!r} already merged earlier")
                seen.add(child)
        for i in range(1, n + 1):
            if t and terminal(i) not in seen:
                raise ValidationError(f"terminal {i} never takes part in a merge")
        for j in range(1, t):
            if cluster(j) not in seen:
                raise ValidationError(f"cluster q{j} is never merged further (dangling)")

    @property
    def n_terminals(self) -> int:
        return len(self.labels)

    @property
    def n_internal(self) -> int:
        return len(self.merges)

    def term_set(self, node: NodeRef) -> frozenset[int]:
        if node.is_terminal:
            if node.index > self.n_terminals:
                raise ValidationError(f"unknown node {node!r}")
            return frozenset((node.index,))
        if node.index > self.n_internal:
            raise ValidationError(f"unknown node {node!r}")
        sets: list[frozenset[int]] = []
        for kids in self.merges:
            acc: frozenset[int] = frozenset()
            for child in kids:
                acc |= (
                    frozenset((child.index,))
                    if child.is_terminal
                    else sets[child.index - 1]
                )
            sets.append(acc)
        return sets[node.index - 1]


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

    def top_rank(k: int) -> int:
        return k * (p - 1)

    def convert(ref: NodeRef) -> NodeRef:
        return ref if ref.is_terminal else cluster(top_rank(ref.index))

    merges: list[tuple[NodeRef, NodeRef]] = []
    for k, kids in enumerate(t.merges, start=1):
        base = (k - 1) * (p - 1)
        left = convert(kids[0])
        for offset, child in enumerate(kids[1:], start=1):
            merges.append((left, convert(child)))
            left = cluster(base + offset)
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
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = n_internal * (arity - 1) + 1
    active: list[NodeRef] = [terminal(i) for i in range(1, n + 1)]
    merges: list[tuple[NodeRef, ...]] = []
    for k in range(1, n_internal + 1):
        picks = sorted(gen.choice(len(active), size=arity, replace=False), reverse=True)
        kids = tuple(reversed([active.pop(int(i)) for i in picks]))
        merges.append(kids)
        active.append(cluster(k))
    return build_pway(arity, merges, labels=labels)


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
            {"rank": k, "children": [_node_to_json(c) for c in kids]}
            for k, kids in enumerate(t.merges, start=1)
        ],
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def from_json(text: str) -> PWayTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValidationError(f"expected a {_FORMAT!r} document")
    arity = doc.get("arity")
    if not isinstance(arity, int) or arity < 2:
        raise ValidationError(f"arity: expected an integer >= 2, got {arity!r}")
    labels = doc.get("terminals")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ValidationError("terminals: expected a list of strings")
    raw = doc.get("merges")
    if not isinstance(raw, list):
        raise ValidationError("merges: expected a list")
    by_rank: dict[int, tuple[NodeRef, ...]] = {}
    for idx, entry in enumerate(raw):
        where = f"merges[{idx}]"
        if not isinstance(entry, dict) or not _is_int(entry.get("rank")):
            raise ValidationError(f"{where}: expected an object with an integer rank")
        rank = entry["rank"]
        if rank in by_rank:
            raise ValidationError(f"{where}: duplicate rank {rank}")
        kids = entry.get("children")
        if not isinstance(kids, list):
            raise ValidationError(f"{where}: children must be a list")
        by_rank[rank] = tuple(_node_from_json(c, where) for c in kids)
    if sorted(by_rank) != list(range(1, len(raw) + 1)):
        raise ValidationError("merge ranks must cover 1..t exactly once")
    merges = tuple(by_rank[k] for k in range(1, len(raw) + 1))
    return PWayTree(arity, tuple(labels), merges)
