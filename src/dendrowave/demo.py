"""Built-in demo hierarchy and a printable arithmetic walkthrough.

The demo tree merges eight terminals in seven ranked steps and exercises
every piece of the code arithmetic: terminal and cluster codes, unanimity
sums, distances, norms, and dilation.  `walkthrough_text` renders the
whole tour; the CLI exposes it under the demo name ``fig2``.
"""

from __future__ import annotations

from .padic import (
    PAdicCode,
    cluster_code,
    dilate,
    dilation_operator_norm,
    dilation_steps_to_null,
    encode,
    padd,
    pdistance,
    pnorm,
    power_repr,
)
from .tree import Dendrogram, ValidationError, build_from_merges, cluster, terminal


def walkthrough_tree() -> Dendrogram:
    """Eight terminals, seven ranked merges, no levels."""
    x, q = terminal, cluster
    return build_from_merges([
        (x(1), x(2)), (q(1), x(3)), (x(4), x(5)), (q(3), x(6)),
        (q(2), q(4)), (x(7), x(8)), (q(5), q(6)),
    ])


DEMOS = {"fig2": walkthrough_tree}


def demo_names() -> tuple[str, ...]:
    return tuple(sorted(DEMOS))


def load_demo(name: str) -> Dendrogram:
    try:
        return DEMOS[name]()
    except KeyError:
        raise ValidationError(f"unknown demo {name!r}; available: {', '.join(demo_names())}") from None


def _node_name(d: Dendrogram, ref) -> str:
    return d.labels[ref.index - 1] if ref.is_terminal else f"q{ref.index}"


def walkthrough_text() -> str:
    """The full worked tour of the demo hierarchy, base p = 3 by default."""
    d = walkthrough_tree()
    n = d.n_terminals
    codes, _ = encode(d)
    lines: list[str] = []
    add = lines.append

    add("Demo hierarchy on 8 terminals")
    add("=============================")
    merges = " ".join(
        f"q{k}=({_node_name(d, a)},{_node_name(d, b)})"
        for k, (a, b) in enumerate(d.merges, start=1)
    )
    add(f"merges: {merges}")
    add("")

    add("Terminal codes (signed powers of p):")
    for i, code in enumerate(codes, start=1):
        add(f"  {d.labels[i - 1]} = {code.to_string()}")
    add("")

    add("Decimal values with p = 3:")
    add("  " + "  ".join(f"{d.labels[i - 1]}={codes[i - 1].decimal()}" for i in range(1, n + 1)))
    two_a = PAdicCode((1, 0), base=2)
    two_b = PAdicCode((-1, 1), base=2)
    add(
        f"Base 2 collides: +2^1 = {two_a.decimal()} and -2^1+2^2 = {two_b.decimal()}; "
        f"with p = 3 they separate into {two_a.decimal(3)} and {two_b.decimal(3)}."
    )
    add("")

    add("Unanimity sums (average and threshold):")
    for i, j in ((1, 2), (1, 3), (1, 7), (3, 6), (5, 8)):
        total = padd(codes[i - 1], codes[j - 1])
        add(f"  {d.labels[i - 1]} (+) {d.labels[j - 1]} = {total.to_string()}")
    add("")

    add("Cluster codes (unanimity over members = root path above the cluster):")
    for k in range(1, n):
        a, b = d.children(k)
        code = cluster_code(d, cluster(k))
        shown = code.to_string() if not code.is_null else "0 (null element)"
        add(f"  q{k} = {_node_name(d, a)} (+) {_node_name(d, b)} = {shown}")
    add("")

    add("Distances p^-r (r = lowest level where both codes are nonzero):")
    for i, j in ((1, 2), (1, 4), (1, 5), (3, 6), (5, 8)):
        val = pdistance(codes[i - 1], codes[j - 1])
        add(f"  dist({d.labels[i - 1]},{d.labels[j - 1]}) = {power_repr(val, 3)}")
    for ka, kb in ((1, 3), (2, 6)):
        val = pdistance(cluster(ka), cluster(kb), d=d)
        add(f"  dist(q{ka},q{kb}) = {power_repr(val, 3)}")
    add("")

    add("Norms:")
    add(f"  |{d.labels[0]}| = {power_repr(pnorm(d, terminal(1)), 3)} (every terminal)")
    for k in (2, 4):
        add(f"  |q{k}| = {power_repr(pnorm(d, cluster(k)), 3)}")
    add(f"  |q{n - 1}| = {power_repr(pnorm(d, cluster(n - 1)), 3)} (null element)")
    add(f"  |1/p| = {power_repr(dilation_operator_norm(), 3)} (dilation operator)")
    add("")

    add("Dilation (multiply by 1/p), spelled with p = 2:")
    codes2, _ = encode(d, base=2)
    first = codes2[0]
    add(f"  {d.labels[0]}: {first.to_string('2')} -> {dilate(first).to_string('2')}")
    add("Dilation steps until the null code:")
    add(
        "  "
        + "  ".join(
            f"{d.labels[i - 1]}:{dilation_steps_to_null(codes[i - 1])}"
            for i in range(1, n + 1)
        )
    )
    add("")
    return "\n".join(lines)
