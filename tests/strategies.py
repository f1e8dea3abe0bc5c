"""Shared hypothesis strategies for random tree structures and dissimilarity matrices."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dendrowave.tree import Dendrogram, build_from_merges, cluster, terminal


@st.composite
def dendrograms(draw, min_n: int = 2, max_n: int = 12, levels: bool = False) -> Dendrogram:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    active = [terminal(i) for i in range(1, n + 1)]
    merges = []
    for k in range(1, n):
        a = active.pop(draw(st.integers(0, len(active) - 1)))
        b = active.pop(draw(st.integers(0, len(active) - 1)))
        merges.append((a, b))
        active.append(cluster(k))
    level_values = None
    if levels:
        steps = draw(
            st.lists(
                st.floats(min_value=0.125, max_value=4.0, allow_nan=False),
                min_size=n - 1,
                max_size=n - 1,
            )
        )
        total = 0.0
        level_values = []
        for s in steps:
            total += s
            level_values.append(total)
    return build_from_merges(merges, levels=level_values)


def coeff_vectors(length: int):
    return st.tuples(*([st.sampled_from((-1, 0, 1))] * length))


@st.composite
def dissimilarities(draw, min_n: int = 2, max_n: int = 14):
    """Symmetric, zero-diagonal, nonnegative matrices; small halves make ties common."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    values = st.one_of(
        st.integers(0, 8).map(lambda v: v / 2),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_subnormal=False),
    )
    upper = draw(st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    M = np.zeros((n, n))
    M[np.triu_indices(n, 1)] = upper
    return M + M.T
