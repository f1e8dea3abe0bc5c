"""Haar wavelet transform driven by a node-ranked dendrogram.

Ascending the tree, each cluster gets a smooth s = (s_first + s_second) / 2
and a detail d = (s_first - s_second) / 2, first/second being the canonical
child order.  All clusters of one height (a wave) merge in one numpy step:
O(height) numpy calls, O(n m) work.  The details by rank give the identity

    X = C @ D + S

with C the branch-code matrix (+1 / -1 / 0), D the (n-1) x m detail matrix
and S the final smooth replicated over all n rows.  Only D and S are
computed; C, which depends on the tree alone, is read from the tree.
Descending the waves recovers every row exactly.  Where s_first + s_second
overflows, `forward` ascends again halving each smooth first, so finite data
are never refused; all other data keep the bits of the plain merge.

The weighted variant replaces the plain average by the cardinality
weighted mean and stores the child sizes so its inverse stays exact; the
matrix identity above only holds for the unweighted filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .tree import Dendrogram, ValidationError, branch_signs, canonical_orient
from .ultrametric import _data_matrix, _real_array

MODE_ULTRAMETRIC = "ultrametric"
MODE_INDICATOR = "indicator"

THRESHOLD_RULES = ("absolute", "keep-k", "cluster-norm")


@dataclass(frozen=True, eq=False)
class WaveletDecomposition:
    """Transform output: tree, details D, final smooth.

    ``details[k - 1]`` is the detail row of the cluster with rank k.  C is
    not stored: ``branch_codes`` reads ``branch_signs(tree)``, cached on the tree.
    ``child_sizes`` is populated by the weighted variant only.
    """

    tree: Dendrogram
    details: np.ndarray
    smooth: np.ndarray
    mode: str
    child_sizes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tree, Dendrogram):
            raise ValidationError(f"tree must be a Dendrogram, got {type(self.tree).__name__}")
        if self.mode not in (MODE_ULTRAMETRIC, MODE_INDICATOR):
            raise ValidationError(f"unknown mode {self.mode!r}")
        for name in ("details", "smooth"):  # lists and text are read as `forward` reads data
            values = np.asarray(_real_array(getattr(self, name), name), dtype=float)
            if not np.isfinite(values).all():
                raise ValidationError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, values)
        n, sizes = self.tree.n_terminals, self.child_sizes
        if self.smooth.ndim != 1:
            raise ValidationError(f"smooth must be 1-d, got shape {self.smooth.shape}")
        if self.details.shape != (n - 1, self.smooth.shape[0]):
            raise ValidationError("details must be (n-1) x m")
        if sizes is not None and (sizes := np.asarray(sizes)).shape != (n - 1, 2):
            raise ValidationError("child sizes must be (n-1) x 2")
        if sizes is not None and (sizes.dtype.kind not in "iu" or (sizes < 1).any()):
            raise ValidationError("child sizes must be integers >= 1")
        object.__setattr__(self, "child_sizes", sizes)

    @property
    def branch_codes(self) -> np.ndarray:
        return branch_signs(self.tree)

    @property
    def n_terminals(self) -> int:
        return self.tree.n_terminals

    @property
    def n_features(self) -> int:
        return int(self.smooth.shape[0])

    @property
    def order(self) -> tuple[int, ...]:
        """The clusters in the order of C's columns and D's rows: ranks ascending."""
        return tuple(range(1, self.tree.n_terminals))

    @property
    def is_weighted(self) -> bool:
        return self.child_sizes is not None


def _checked_data(X, d: Dendrogram) -> np.ndarray:
    X = _data_matrix(X)
    if X.shape[0] != d.n_terminals:
        raise ValidationError(
            f"data must have one row per terminal ({d.n_terminals}), got shape {X.shape}"
        )
    return X


def _plain_merge(sa, sb, na, nb):
    return (sa + sb) / 2.0, (sa - sb) / 2.0


def _halved_merge(sa, sb, na, nb):
    """`_plain_merge` halving first: no finite smooths overflow, but subnormals round apart."""
    sa, sb = sa / 2.0, sb / 2.0
    return sa + sb, sa - sb


def _weighted_merge(sa, sb, na, nb):
    merged = (na * sa + nb * sb) / (na + nb)
    return merged, sa - merged


def _ascend(X, tree: Dendrogram, merge) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared forward pass: smooth and detail of every cluster, one wave at a time.

    ``merge(s_first, s_second, n_first, n_second)`` returns the smooths and
    details of a wave's clusters.  Also returns the (n-1) x 2 child sizes.
    """
    lay, n, waves = tree.layout, tree.n_terminals, tree._waves
    sizes = np.stack((lay.mid - lay.lo, lay.hi - lay.mid), axis=1)
    smooth = np.empty((2 * n - 1, X.shape[1]))  # by `Waves` row: the terminals, then each slot
    smooth[:n], above, details = X, smooth[n:], np.empty((n - 1, X.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for a, b, na, nb, out in waves.steps:
            above[out], details[out] = merge(smooth[a], smooth[b], na, nb)
    if not (np.isfinite(above).all() and np.isfinite(details).all()):
        raise ValidationError("data too large: a cluster's smooth or detail overflows a float")
    return details[waves.slot], smooth[-1].copy(), sizes


def forward(X, d: Dendrogram, orient: bool = True, mode: str = MODE_ULTRAMETRIC) -> WaveletDecomposition:
    """Run the transform on data rows indexed by the tree's terminals.

    The tree is canonically oriented first unless ``orient`` is False, in
    which case the stored child order defines the signs (useful to observe
    that a child swap negates one C column and one D row and nothing else).
    """
    tree = canonical_orient(d) if orient else d
    X = _checked_data(X, tree)
    try:
        details, final, _ = _ascend(X, tree, _plain_merge)
    except ValidationError:  # a sum past the float maximum: again, halving first
        details, final, _ = _ascend(X, tree, _halved_merge)
    return WaveletDecomposition(tree, details, final, mode)


def forward_indicator(d: Dendrogram, orient: bool = True) -> WaveletDecomposition:
    """Transform the identity matrix: one indicator column per terminal.

    Every detail row then sums to zero, since both child smooths carry
    total mass one.
    """
    eye = np.eye(d.n_terminals)
    return forward(eye, d, orient=orient, mode=MODE_INDICATOR)


def forward_weighted(X, d: Dendrogram, orient: bool = True) -> WaveletDecomposition:
    """Cardinality-weighted variant of `forward`.

    Each merge stores s = (|a| s_a + |b| s_b) / (|a| + |b|) and the detail
    d = s_a - s; the child cardinalities ride along in ``child_sizes`` so
    `inverse` can undo the unequal split exactly.  For two singletons this
    reduces to the plain transform.
    """
    tree = canonical_orient(d) if orient else d
    details, final, sizes = _ascend(_checked_data(X, tree), tree, _weighted_merge)
    return WaveletDecomposition(tree, details, final, MODE_ULTRAMETRIC, child_sizes=sizes)


def inverse(w: WaveletDecomposition) -> np.ndarray:
    """Reconstruct the data matrix by descending the waves from the root."""
    n, m, waves = w.n_terminals, w.n_features, w.tree._waves
    rows = np.empty((2 * n - 1, m))  # by `Waves` row
    rows[-1], above, details = w.smooth, rows[n:], w.details[waves.order]
    scaled = details  # what the second child subtracts: size ratio times detail if weighted
    if w.child_sizes is not None:
        scaled = (w.child_sizes[:, :1] / w.child_sizes[:, 1:])[waves.order] * details
    for chain, group in groupby(reversed(waves.steps), key=lambda step: type(step[4]) is int):
        run = list(group)  # a long chain is worth its few fixed numpy calls
        for a, b, _, _, out in [(*map(np.array, zip(*run)),)] if chain and len(run) > 8 else run:
            s = above[out]
            if type(out) is np.ndarray:  # one-cluster waves, each cluster a child of the one above
                up, first = out[:-1], (a[:-1] == n + out[1:])[:, None]
                down = np.where(first, details[up], -scaled[up])  # from each smooth to the next
                s = np.add.accumulate(np.concatenate((s[:1], down)))
            rows[a] = s + details[out]
            rows[b] = s - scaled[out]
    return rows[:n].copy()


def inverse_weighted(w: WaveletDecomposition) -> np.ndarray:
    """Inverse for decompositions produced by `forward_weighted`."""
    if w.child_sizes is None:
        raise ValidationError("decomposition carries no child sizes; use inverse()")
    return inverse(w)


def reconstruct_matrix_form(w: WaveletDecomposition) -> np.ndarray:
    """Evaluate C @ D + S directly (unweighted decompositions only)."""
    if w.child_sizes is not None:
        raise ValidationError("the matrix identity does not hold for the weighted variant")
    return w.branch_codes.astype(float) @ w.details + w.smooth


def detail_norms(w: WaveletDecomposition) -> np.ndarray:
    """Euclidean norm of each detail row, indexed by rank - 1.

    These norms rank the clusters by signal content and can replace raw
    merge levels when choosing a partition.
    """
    return np.linalg.norm(w.details, axis=1)


def hard_threshold(w: WaveletDecomposition, rule: str, value) -> WaveletDecomposition:
    """Zero out detail coefficients (or whole rows) by one of three rules.

    ``absolute``: keep entries with |d| >= value (value 0 keeps everything).
    ``keep-k``: keep the value rows with the largest Euclidean norm.
    ``cluster-norm``: keep rows whose Euclidean norm is >= value.
    """
    if rule not in THRESHOLD_RULES:
        raise ValidationError(f"rule must be one of {THRESHOLD_RULES}, got {rule!r}")
    D = w.details.copy()
    needs = "keep-k needs an integer" if rule == "keep-k" else "threshold must be a real number"
    try:  # a number held as text is read too
        if np.iscomplexobj(value):
            raise TypeError
        t = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{needs}, got {value!r}") from None
    if rule == "keep-k":
        if isinstance(value, (bool, np.bool_)) or not t.is_integer():
            raise ValidationError(f"{needs}, got {value!r}")
        k, norms = int(t), np.linalg.norm(D, axis=1)
        if not 0 <= k <= D.shape[0]:
            raise ValidationError(f"keep-k needs 0 <= k <= {D.shape[0]}, got {k}")
        # stable order: larger norm first, earlier rank breaks ties; the first k are kept
        D[np.lexsort((np.arange(len(norms)), -norms))[k:]] = 0.0
    else:
        if not t >= 0:  # NaN too
            raise ValidationError(f"threshold must be >= 0, got {t!r}")
        size = np.abs(D) if rule == "absolute" else np.linalg.norm(D, axis=1)
        D[size < t] = 0.0
    return WaveletDecomposition(w.tree, D, w.smooth.copy(), w.mode, child_sizes=w.child_sizes)
