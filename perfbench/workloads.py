"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload makes its inputs in `setup` from the seed alone, runs one
pass of calls in `ops` (one caller, each call after the previous one
returned), and afterwards checks the outputs against an oracle computed
here without dendrowave (`Layout`) and folds its integer and structural
outputs into a sha256 digest.  Library calls go through the `dendrowave`
package attributes at call time, so tracing wrappers and test patches
take effect.

The default sizes make one pass take about 2 to 4 s on a 2-vCPU virtual
machine, so that a 40 s run holds about ten passes and its median pass
is steady; at the earlier sizes (n 256, 4096, 2048) a run held two to six.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

import dendrowave as dw
from dendrowave import cli

TOL = 1e-9
BASE = 3  # the library's default p
ARITY = 3  # of the p-way tree that the codec pass unfolds


def terminal_ref(i: int) -> tuple[str, int]:
    return ("terminal", i)


def cluster_ref(k: int) -> tuple[str, int]:
    return ("cluster", k)


def tree_doc(labels: list[str], merges: list) -> dict:
    """A dendrogram in the JSON interchange schema that `from_json` reads."""
    return {
        "format": "dendrogram",
        "n_terminals": len(labels),
        "terminals": labels,
        "merges": [
            {"rank": k, "children": [{a[0]: a[1]}, {b[0]: b[1]}]}
            for k, (a, b) in enumerate(merges, start=1)
        ],
    }


def merges_of_doc(doc: dict) -> list:
    by_rank = {e["rank"]: e["children"] for e in doc["merges"]}
    return [
        tuple(next(iter(child.items())) for child in by_rank[k])
        for k in range(1, len(by_rank) + 1)
    ]


def merges_of(tree) -> list:
    """A dendrowave tree's merges as ``((kind, index), (kind, index))`` pairs."""
    return [((a.kind, a.index), (b.kind, b.index)) for a, b in tree.merges]


def random_merges(rng: np.random.Generator, n: int, arity: int = 2) -> list:
    """Uniform random merge order: each step joins ``arity`` active nodes."""
    active = [terminal_ref(i) for i in range(1, n + 1)]
    merges = []
    steps = (n - 1) // (arity - 1)
    draws = rng.random((steps, arity)).tolist()
    for k in range(1, steps + 1):
        picks: list[int] = []
        for slot, u in enumerate(draws[k - 1]):
            # the u-th of the active nodes not picked yet, in position order
            i = int(u * (len(active) - slot))
            for p in sorted(picks):
                i += i >= p
            picks.append(i)
        picks.sort()
        kids = [active[i] for i in picks]
        for i in reversed(picks):
            active.pop(i)
        merges.append(tuple(kids))
        active.append(cluster_ref(k))
    return merges


def caterpillar_merges(rng: np.random.Generator, n: int) -> list:
    """A chain of depth n - 1 over shuffled terminals, child order random."""
    perm = (rng.permutation(n) + 1).tolist()
    flips = rng.integers(0, 2, size=n - 1).tolist()
    merges = []
    left = terminal_ref(perm[0])
    for k in range(1, n):
        pair = (left, terminal_ref(perm[k]))
        merges.append(pair[::-1] if flips[k - 1] else pair)
        left = cluster_ref(k)
    return merges


class Layout:
    """Canonical orientation and leaf layout of a binary tree.

    Children are ordered so the subtree with the smallest terminal comes
    first.  In the resulting leaf order every cluster k is the interval
    ``[lo[k], hi[k])`` split at ``mid[k]``, and the gap between leaf
    positions ``mid[k] - 1`` and ``mid[k]`` carries rank k, so the LCA of
    two terminals is the largest gap rank between their positions.
    """

    def __init__(self, merges: list) -> None:
        n = len(merges) + 1
        low = [0] * n
        size = [0] * n
        canon = []
        for k, (a, b) in enumerate(merges, start=1):
            la, lb = (x[1] if x[0] == "terminal" else low[x[1]] for x in (a, b))
            canon.append((a, b) if la < lb else (b, a))
            low[k] = min(la, lb)
            size[k] = sum(1 if x[0] == "terminal" else size[x[1]] for x in (a, b))
        self.n = n
        self.merges = canon
        self.lo = [0] * n
        self.mid = [0] * n
        self.hi = [0] * n
        self.parent: dict[tuple[str, int], tuple[int, int]] = {}
        order = [0] * n
        if n > 1:
            self.hi[n - 1] = n
        for k in range(n - 1, 0, -1):
            a, b = canon[k - 1]
            start = self.lo[k]
            for node, sign in ((a, 1), (b, -1)):
                self.parent[node] = (k, sign)
                width = 1 if node[0] == "terminal" else size[node[1]]
                if node[0] == "terminal":
                    order[start] = node[1]
                else:
                    self.lo[node[1]], self.hi[node[1]] = start, start + width
                if sign == 1:
                    self.mid[k] = start + width
                start += width
        self.order = np.array(order, dtype=np.int64)
        self.pos = np.empty(n + 1, dtype=np.int64)
        self.pos[self.order] = np.arange(n)
        self.gap = np.zeros(max(n - 1, 0), dtype=np.int64)
        for k in range(1, n):
            self.gap[self.mid[k] - 1] = k

    def lca_rank(self, i: int, j: int) -> int:
        p, q = sorted((int(self.pos[i]), int(self.pos[j])))
        return int(self.gap[p:q].max())

    def sign_column(self, k: int) -> np.ndarray:
        col = np.zeros(self.n, dtype=np.int8)
        col[self.order[self.lo[k] : self.mid[k]] - 1] = 1
        col[self.order[self.mid[k] : self.hi[k]] - 1] = -1
        return col

    def path_code(self, node: tuple[str, int]) -> tuple[int, ...]:
        """Signs along the root path above ``node``, one per rank."""
        coeffs = [0] * (self.n - 1)
        while node in self.parent:
            k, sign = self.parent[node]
            coeffs[k - 1] = sign
            node = cluster_ref(k)
        return tuple(coeffs)

    def cophenetic_ranks(self) -> np.ndarray:
        """Rank of the LCA for every pair, indexed by terminal - 1."""
        n = self.n
        by_pos = np.zeros((n, n), dtype=np.int64)
        for p in range(n - 1):
            by_pos[p, p + 1 :] = np.maximum.accumulate(self.gap[p:])
        by_pos += by_pos.T
        out = np.empty_like(by_pos)
        rows = self.order - 1
        out[np.ix_(rows, rows)] = by_pos
        return out


def code_string(coeffs) -> str:
    parts = [f"{'+' if c > 0 else '-'}p^{j}" for j, c in enumerate(coeffs, start=1) if c]
    return "".join(parts) if parts else "0"


def is_ultrametric_oracle(A: np.ndarray, tol: float = TOL) -> bool:
    """Strong triangle inequality over all triples, one anchor row at a time."""
    for x in range(A.shape[0]):
        caps = np.maximum(A[x][:, None], A).min(axis=0)
        if (A[x] > caps * (1.0 + tol)).any():
            return False
    return True


def triangle_census(A: np.ndarray, tol: float = TOL) -> tuple[int, int, int]:
    """(equilateral, isosceles with small base, violating) over all triples."""
    n = A.shape[0]
    eq = iso = bad = 0
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        j, k = j + i + 1, k + i + 1
        a, b, c = np.sort(np.stack([A[i, j], A[i, k], A[j, k]]), axis=0)
        violating = c > b * (1.0 + tol)
        equilateral = ~violating & (c <= a * (1.0 + tol))
        bad += int(violating.sum())
        eq += int(equilateral.sum())
        iso += int((~violating & ~equilateral).sum())
    return eq, iso, bad


def average_linkage(D: np.ndarray) -> tuple[list, list[float]]:
    """Merges and levels of average-linkage clustering, closest pair first."""
    n = D.shape[0]
    A = D.astype(float)
    np.fill_diagonal(A, np.inf)
    size = np.ones(n)
    node = [terminal_ref(i) for i in range(1, n + 1)]
    merges, levels = [], []
    for k in range(1, n):
        i, j = divmod(int(np.argmin(A)), n)
        merges.append((node[i], node[j]))
        levels.append(float(A[i, j]))
        joined = (size[i] * A[i] + size[j] * A[j]) / (size[i] + size[j])
        A[i], A[:, i] = joined, joined
        A[j], A[:, j] = np.inf, np.inf
        A[i, i] = np.inf
        size[i] += size[j]
        node[i] = cluster_ref(k)
    return merges, levels


def write_matrix(path: Path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class Workload:
    """Shared pass loop; subclasses define setup, ops, checks and digest."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.oracle = None  # the workload's expected outputs, made before the first pass

    def prepare(self) -> None:
        """Untimed work before each pass."""

    def bytes_io(self) -> tuple[int, int]:
        """Bytes the pass read from and wrote to disk."""
        return 0, 0

    def run_pass(self, clock, between=None) -> tuple[dict, dict, list[str]]:
        """Run every op once, calling ``between`` untimed after each; returns
        op seconds, state and op failures."""
        state: dict = {}
        times: dict[str, float] = {}
        failures: list[str] = []
        for name, op in self.ops():
            start = clock()
            try:
                problem = op(state)
            except Exception as exc:  # a failed operation is counted, not fatal
                problem = f"raised {type(exc).__name__}: {exc}"
            times[name] = clock() - start
            if problem:
                failures.append(f"{name}: {problem}")
            if between is not None:
                between()
        return times, state, failures

    def checks(self, state: dict) -> dict[str, str | None]:
        """Run each output check; map its name to None or what went wrong."""
        out: dict[str, str | None] = {}
        for name, check in self.check_list():
            try:
                out[name] = check(state)
            except Exception as exc:  # missing or malformed output
                out[name] = f"raised {type(exc).__name__}: {exc}"
        return out


# ---------------------------------------------------------------- pipeline

class Pipeline(Workload):
    """The dendrowave CLI chain, called in process through `cli.main`."""

    name = "pipeline"

    def __init__(self, seed, workdir, n=160, m=5, centres=6, keep=16) -> None:
        super().__init__(seed, workdir)
        self.n, self.m, self.centres, self.keep = n, m, centres, keep
        w = workdir
        self.data, self.raw = w / "data.csv", w / "raw.csv"
        self.dirs = {k: w / k for k in ("cluster", "bundle", "filtered", "decoded")}
        tree = str(self.dirs["cluster"] / "dendrogram.json")
        coph = str(self.dirs["cluster"] / "cophenetic.csv")
        # (name, argv, expected exit code)
        self.steps = [
            ("cluster", ["cluster", str(self.data), "--linkage", "average",
                         "--out", str(self.dirs["cluster"])], 0),
            ("transform", ["transform", str(self.data), tree, "--check",
                           "--out", str(self.dirs["bundle"])], 0),
            ("filter", ["filter", str(self.dirs["bundle"]), "--rule", "keep-k",
                        "--value", str(keep), "--out", str(self.dirs["filtered"])], 0),
            ("padic_encode", ["padic", "encode", tree], 0),
            ("padic_decode", ["padic", "decode", str(self.dirs["bundle"] / "C.csv"),
                              "--out", str(self.dirs["decoded"])], 0),
            ("check_pass", ["check", coph], 0),
            ("check_fail", ["check", str(self.raw)], 1),
        ]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        centres = rng.normal(scale=4.0, size=(self.centres, self.m))
        X = centres[rng.integers(0, self.centres, size=self.n)]
        X = X + rng.normal(size=(self.n, self.m))
        D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1))
        self.workdir.mkdir(parents=True, exist_ok=True)
        write_matrix(self.data, [f"f{j}" for j in range(1, self.m + 1)], X)
        self.labels = [f"x{i}" for i in range(1, self.n + 1)]
        write_matrix(self.raw, self.labels, D)
        self.D = D

    def prepare(self) -> None:
        if self.oracle is None:
            merges, levels = average_linkage(self.D)
            self.oracle = (Layout(merges), levels, triangle_census(self.D))
        for d in self.dirs.values():
            shutil.rmtree(d, ignore_errors=True)

    def ops(self):
        def command(name, argv, expect):
            def op(state):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(argv))
                state[name] = out.getvalue()
                if rc != expect:
                    return f"exit {rc}, expected {expect}; stderr {err.getvalue()[-200:]!r}"
                return None
            return op

        return [(name, command(name, argv, expect)) for name, argv, expect in self.steps]

    def bytes_io(self) -> tuple[int, int]:
        tree = self.dirs["cluster"] / "dendrogram.json"
        bundle = self.dirs["bundle"]
        bundle_files = [bundle / f for f in
                        ("meta.json", "dendrogram.json", "C.csv", "D.csv", "smooth.csv")]
        read = [self.data, self.data, tree, *bundle_files, tree, bundle / "C.csv",
                self.dirs["cluster"] / "cophenetic.csv", self.raw]
        written = [p for d in self.dirs.values() for p in d.rglob("*")]
        # a failed command leaves files out; its failure is counted elsewhere
        return tuple(sum(p.stat().st_size for p in paths if p.is_file())
                     for paths in (read, written))

    # --------------------------------------------------------------- checks

    def _cluster_tree(self) -> dict:
        with open(self.dirs["cluster"] / "dendrogram.json", encoding="utf-8") as fh:
            return json.load(fh)

    def _layout(self) -> Layout:
        return Layout(merges_of_doc(self._cluster_tree()))

    def _c_csv(self) -> tuple[list[str], np.ndarray]:
        with open(self.dirs["bundle"] / "C.csv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        return [r[0] for r in rows[1:]], np.array([[int(v) for v in r[1:]] for r in rows[1:]])

    def _cophenetic_csv(self) -> np.ndarray:
        with open(self.dirs["cluster"] / "cophenetic.csv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        return np.array([[float(v) for v in r] for r in rows[1:]])

    def _census(self, text: str) -> tuple[int, int, int]:
        m = re.search(r"triangles: equilateral=(\d+) isosceles-small-base=(\d+) "
                      r"violating=(\d+)", text)
        if not m:
            raise ValueError("no triangle census printed")
        return tuple(int(g) for g in m.groups())

    def _witness(self, text: str) -> tuple[str, str, str]:
        m = re.search(r"witness: \(([^,]+),([^,]+),([^)]+)\)", text)
        if not m:
            raise ValueError("no witness printed")
        return m.groups()

    def check_list(self):
        n = self.n

        def clustering(s):
            doc = self._cluster_tree()
            layout, levels, _ = self.oracle
            if self._layout().merges != layout.merges:
                return "cluster tree differs from average linkage on data.csv"
            if not np.allclose(doc["levels"], levels, rtol=1e-9, atol=0):
                return "merge levels differ from average linkage on data.csv"
            return None

        def transform_passed(s):
            return None if "check passed" in s["transform"] else "no 'check passed'"

        def filter_rows(s):
            want = f"{n - 1 - self.keep} detail rows changed"
            return None if want in s["filter"] else f"missing {want!r}"

        def branch_codes(s):
            layout = self._layout()
            labels, C = self._c_csv()
            if labels != self.labels or C.shape != (n, n - 1):
                return "C.csv labels or shape wrong"
            for k in range(1, n):
                if not np.array_equal(C[:, k - 1], layout.sign_column(k)):
                    return f"C.csv column {k} differs from the canonical branch signs"
            return None

        def encode_codes(s):
            labels, C = self._c_csv()
            lines = s["padic_encode"].splitlines()[1:]  # after "base p = 3"
            want = [f"{lab} = {code_string(row)} " for lab, row in zip(labels, C)]
            if len(lines) != n or any(not ln.startswith(w) for ln, w in zip(lines, want)):
                return "printed codes differ from the rows of C.csv"
            return None

        def decoded_tree(s):
            with open(self.dirs["decoded"] / "dendrogram.json", encoding="utf-8") as fh:
                got = json.load(fh)
            if got["terminals"] != self.labels:
                return "decoded labels differ"
            if merges_of_doc(got) != self._layout().merges:
                return "decoded tree is not the canonical cluster tree"
            return None

        def cophenetic(s):
            doc = self._cluster_tree()
            M = self._cophenetic_csv()
            ranks = self._layout().cophenetic_ranks()
            want = np.concatenate([[0.0], doc["levels"]])[ranks]
            if not np.allclose(M, want, rtol=1e-11, atol=0):
                return "cophenetic.csv differs from the cluster tree's LCA heights"
            return None if is_ultrametric_oracle(M) else "cophenetic.csv is not ultrametric"

        def check_pass(s):
            text = s["check_pass"]
            eq, iso, bad = self._census(text)
            if "ultrametric: PASS" not in text or "canonical layout" not in text:
                return "verdict lines missing"
            if eq + iso + bad != comb(n, 3) or bad:
                return f"census {eq, iso, bad} of an ultrametric"
            if (eq, iso, bad) != triangle_census(self._cophenetic_csv()):
                return f"census {eq, iso, bad} differs from the triple scan"
            return None

        def check_fail(s):
            text = s["check_fail"]
            eq, iso, bad = self._census(text)
            if "ultrametric: FAIL" not in text:
                return "no FAIL verdict"
            if eq + iso + bad != comb(n, 3) or not bad:
                return f"census {eq, iso, bad} of a failing matrix"
            if (eq, iso, bad) != self.oracle[2]:
                return f"census {eq, iso, bad} differs from the triple scan"
            x, y, z = (self.labels.index(lab) for lab in self._witness(text))
            D = self.D
            if not D[x, z] > max(D[x, y], D[y, z]):
                return f"witness {x, y, z} does not violate the strong triangle inequality"
            return None

        return [
            ("clustering", clustering),
            ("transform_check_passed", transform_passed),
            ("filter_rows_changed", filter_rows),
            ("branch_codes", branch_codes),
            ("encode_codes", encode_codes),
            ("decoded_tree", decoded_tree),
            ("cophenetic", cophenetic),
            ("check_pass", check_pass),
            ("check_fail", check_fail),
        ]

    def digest(self, state: dict) -> str:
        h = hashlib.sha256()
        doc = self._cluster_tree()
        h.update(repr((doc["terminals"], merges_of_doc(doc))).encode())
        h.update((self.dirs["bundle"] / "C.csv").read_bytes())
        h.update(state["padic_encode"].encode())
        h.update((self.dirs["decoded"] / "dendrogram.json").read_bytes())
        for name in ("check_pass", "check_fail"):
            h.update(repr(self._census(state[name])).encode())
        h.update(repr(self._witness(state["check_fail"])).encode())
        return h.hexdigest()


# ------------------------------------------------------------------- codec

class Codec(Workload):
    """Library calls on one tree: transforms, codes, decode, JSON."""

    name = "codec"

    def __init__(self, seed, workdir, n=2048, m=8, pway_internal=512, pairs=256) -> None:
        super().__init__(seed, workdir)
        self.n, self.m, self.pway_internal, self.n_pairs = n, m, pway_internal, pairs

    def tree_merges(self, rng):
        return random_merges(rng, self.n)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.n
        self.labels = [f"x{i}" for i in range(1, n + 1)]
        self.merges = self.tree_merges(rng)
        self.text = json.dumps(tree_doc(self.labels, self.merges), indent=2, sort_keys=True)
        self.X = rng.normal(size=(n, self.m))
        n3 = self.pway_internal * (ARITY - 1) + 1
        self.pway_merges = [
            tuple(dw.NodeRef(*ref) for ref in kids)
            for kids in random_merges(rng, n3, arity=ARITY)
        ]
        self.X3 = rng.normal(size=(n3, self.m))
        self.pairs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False) + 1)
                      for _ in range(self.n_pairs)]
        self.sampled = sorted({t for pair in self.pairs for t in pair})
        self.mid_rank = n // 2
        self.keep = n // 16

    def prepare(self) -> None:
        if self.oracle is None:
            self.oracle = Layout(self.merges)

    def ops(self):
        def from_json(s):
            s["tree"] = dw.from_json(self.text)

        def forward_inverse(s):
            s["w"] = dw.forward(self.X, s["tree"])
            s["x_back"] = dw.inverse(s["w"])

        def threshold_inverse(s):
            s["w_kept"] = dw.hard_threshold(s["w"], "keep-k", self.keep)
            s["x_kept"] = dw.inverse(s["w_kept"])

        def weighted_inverse(s):
            s["x_weighted"] = dw.inverse(dw.forward_weighted(self.X, s["tree"]))

        def encode_decode(s):
            s["codes"], s["C"] = dw.encode(s["tree"])
            s["decoded"] = dw.decode(s["C"], labels=s["tree"].labels)

        def cluster_code(s):
            s["cluster_code"] = dw.cluster_code(s["tree"], dw.cluster(self.mid_rank))

        def pdistance(s):
            codes = s["codes"]
            s["distances"] = [dw.pdistance(codes[i - 1], codes[j - 1]) for i, j in self.pairs]

        def dilate_tree(s):
            s["dilated"] = dw.dilate_tree(s["tree"])

        def unfold_forward(s):
            s["unfolded"] = dw.unfold(dw.build_pway(ARITY, self.pway_merges))
            s["w3"] = dw.forward(self.X3, s["unfolded"])

        def to_json(s):
            s["json"] = dw.to_json(s["tree"])

        return [(f.__name__, f) for f in (
            from_json, forward_inverse, threshold_inverse, weighted_inverse,
            encode_decode, cluster_code, pdistance, dilate_tree, unfold_forward, to_json,
        )]

    def check_list(self):
        L, n = self.oracle, self.n

        def round_trips(s):
            for key in ("x_back", "x_weighted"):
                err = float(np.abs(s[key] - self.X).max())
                if not err <= TOL:
                    return f"{key}: inverse(forward(X)) off by {err}"
            return None

        def threshold(s):
            D, kept = s["w"].details, s["w_kept"].details
            norms = np.linalg.norm(D, axis=1)
            want = np.sort(np.lexsort((np.arange(len(norms)), -norms))[: self.keep])
            rows = np.flatnonzero(np.any(kept != 0, axis=1))
            if not np.array_equal(rows, want) or not np.array_equal(kept[rows], D[rows]):
                return "keep-k did not keep exactly the largest-norm rows"
            if s["x_kept"].shape != self.X.shape or not np.isfinite(s["x_kept"]).all():
                return "filtered reconstruction has the wrong shape or non-finite values"
            return None

        def decoded(s):
            if merges_of(s["decoded"]) != L.merges or list(s["decoded"].labels) != self.labels:
                return "decode(encode(d)) is not canonical_orient(d)"
            return None

        def branch_codes(s):
            C = s["C"]
            if C.shape != (n, n - 1):
                return f"C has shape {C.shape}"
            for k in range(1, n):
                if not np.array_equal(C[:, k - 1], L.sign_column(k)):
                    return f"C column {k} differs from the canonical branch signs"
            return None

        def codes(s):
            C = s["C"]
            if len(s["codes"]) != n:
                return f"{len(s['codes'])} codes for {n} terminals"
            for i in self.sampled:
                got = np.fromiter(s["codes"][i - 1].coeffs, dtype=np.int8, count=n - 1)
                if not np.array_equal(got, C[i - 1]):
                    return f"code of x{i} differs from row {i} of C"
            return None

        def cluster_code(s):
            if tuple(s["cluster_code"].coeffs) != L.path_code(cluster_ref(self.mid_rank)):
                return f"cluster_code(q{self.mid_rank}) differs from its root path"
            return None

        def distances(s):
            for (i, j), got in zip(self.pairs, s["distances"]):
                if got != Fraction(1, BASE ** L.lca_rank(i, j)):
                    return f"pdistance(x{i}, x{j}) = {got} is not p^-rank(lca)"
            return None if len(s["distances"]) == len(self.pairs) else "missing distances"

        def dilated(s):
            (_, a), (_, b) = L.merges[0]
            fused = f"{self.labels[a - 1]}+{self.labels[b - 1]}"
            t = s["dilated"]
            if t.n_terminals != n - 1 or fused not in t.labels:
                return "dilate_tree did not fuse the rank-1 pair"
            return None

        def unfolded(s):
            w3, u = s["w3"], s["unfolded"]
            if u.n_terminals != len(self.X3):
                return "unfold changed the number of terminals"
            layout = Layout(merges_of(u))
            members: list[set[int]] = []
            for k, kids in enumerate(self.pway_merges, start=1):
                members.append(set().union(*(
                    {c.index} if c.is_terminal else members[c.index - 1] for c in kids
                )))
                top = k * (ARITY - 1)  # the top of the chain that replaced merge k
                if set(layout.order[layout.lo[top] : layout.hi[top]].tolist()) != members[-1]:
                    return f"unfolded rank {top} lost the terminals of p-way cluster {k}"
            rebuilt = w3.branch_codes.astype(float) @ w3.details + w3.smooth
            err = float(np.abs(rebuilt - self.X3).max())
            return None if err <= TOL else f"C @ D + S off by {err} on the unfolded tree"

        def json_round_trip(s):
            if json.loads(s["json"]) != json.loads(self.text):
                return "to_json(from_json(text)) changed the tree"
            return None

        return [
            ("round_trips", round_trips),
            ("threshold", threshold),
            ("decode_encode", decoded),
            ("branch_codes", branch_codes),
            ("codes", codes),
            ("cluster_code", cluster_code),
            ("pdistance", distances),
            ("dilate_tree", dilated),
            ("unfold", unfolded),
            ("json_round_trip", json_round_trip),
        ]

    def digest(self, state: dict) -> str:
        h = hashlib.sha256()
        h.update(repr(merges_of(state["decoded"])).encode())
        h.update(np.ascontiguousarray(state["C"], dtype=np.int8).tobytes())
        for i in self.sampled:
            h.update(np.fromiter(state["codes"][i - 1].coeffs, dtype=np.int8).tobytes())
        h.update(repr(state["cluster_code"].coeffs).encode())
        h.update(repr([d.denominator for d in state["distances"]]).encode())
        h.update(repr((state["dilated"].labels, merges_of(state["dilated"]))).encode())
        h.update(repr(merges_of(state["unfolded"])).encode())
        h.update(np.flatnonzero(np.any(state["w_kept"].details != 0, axis=1)).tobytes())
        h.update(state["json"].encode())
        return h.hexdigest()


class CodecDeep(Codec):
    """The codec pass on a caterpillar tree, whose depth is n - 1."""

    name = "codec-deep"

    def __init__(self, seed, workdir, n=1536, **sizes) -> None:
        super().__init__(seed, workdir, n=n, **sizes)

    def tree_merges(self, rng):
        return caterpillar_merges(rng, self.n)


WORKLOADS = {cls.name: cls for cls in (Pipeline, Codec, CodecDeep)}
