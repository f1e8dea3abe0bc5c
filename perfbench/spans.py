"""Span tracing of dendrowave's public functions, installed from outside.

`Tracer.installed()` replaces every public function of the traced layer
modules, under every name any ``dendrowave`` module bound at import
(``cli.agglomerate`` as well as ``hcluster.agglomerate``), with one
wrapper that records a span: key, start, end, parent span and a few
attributes read from the arguments or the result.  Leaving the context
puts the original functions back.  Spans stay in memory; `layer_metrics`
derives self times, call counts and computed work counts from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from math import comb

import numpy as np

LAYERS = ("tree", "hcluster", "haar", "padic", "ultrametric", "pway", "cli")

# Per-node helpers called once per element inside the layers above; like
# the per-pair methods (Dendrogram.lca) they are not layer boundaries.
PER_ELEMENT = {"tree.terminal", "tree.cluster", "padic.padd"}

# Several public functions form one layer metric.
GROUPS = {
    "tree.json": ("tree.to_json", "tree.from_json", "tree.save_json", "tree.load_json"),
    "pway.build": ("pway.build_pway", "pway.random_pway_tree"),
    "ultrametric.matrix_csv": ("ultrametric.matrix_from_csv", "ultrametric.matrix_to_csv"),
}

CALLS = (
    "hcluster.agglomerate",
    "ultrametric.cophenetic",
    "padic.encode",
    "padic.cluster_code",
    "tree.canonical_orient",
    "tree.branch_signs",
    "haar.forward",
    "haar.inverse",
)

SELF_TIMES = (
    "hcluster.agglomerate",
    "hcluster.pairwise_euclidean",
    "ultrametric.cophenetic",
    "ultrametric.triangle_classify",
    "ultrametric.canonical_form",
    "ultrametric.matrix_csv",
    "padic.encode",
    "padic.cluster_code",
    "padic.decode",
    "padic.pdistance",
    "padic.dilate_tree",
    "tree.canonical_orient",
    "tree.branch_signs",
    "tree.json",
    "tree.build_from_merges",
    "haar.forward",
    "haar.forward_weighted",
    "haar.inverse",
    "haar.hard_threshold",
    "haar.reconstruct_matrix_form",
    "pway.unfold",
    "pway.build",
)

CLI_COMMANDS = ("cluster", "transform", "filter", "padic", "check")


def _size(args) -> int:
    return int(np.shape(args[0])[0]) if args else 0


def _stored_codes_bytes(result) -> int:
    # Read only a matrix the decomposition already holds, so tracing never
    # builds one that the program would otherwise derive lazily.
    codes = vars(result).get("branch_codes")
    return int(codes.nbytes) if isinstance(codes, np.ndarray) else 0


def _command(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]) if argv else "?"


# key -> (args, kwargs, result) -> span attributes
_ATTRS = {
    "hcluster.agglomerate": lambda a, k, r: {"n": _size(a)},
    "ultrametric.triangle_classify": lambda a, k, r: {"n": _size(a)},
    "ultrametric.is_ultrametric": lambda a, k, r: {"ok": bool(r)},
    "haar.forward": lambda a, k, r: {"codes_bytes": _stored_codes_bytes(r)},
    "haar.forward_weighted": lambda a, k, r: {"codes_bytes": _stored_codes_bytes(r)},
    "cli.main": lambda a, k, r: {"cmd": _command(a, k)},
}


class Tracer:
    """Records spans as ``[key, start, end, parent, attrs]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, key: str, fn):
        spans, stack, annotate = self.spans, self._stack, _ATTRS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                record[4] = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into every dendrowave module while active."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "dendrowave" or name.startswith("dendrowave.")
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and key not in PER_ELEMENT
                ):
                    wrappers[id(obj)] = (obj, self._wrap(key, obj))
        swapped = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, wrappers[id(obj)][1])
                    swapped.append((mod, name, obj))
        try:
            yield self
        finally:
            for mod, name, obj in swapped:
                setattr(mod, name, obj)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and seconds for the spans of one pass."""
    selfs = self_times(spans)
    by_key: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (key, *_), s in zip(spans, selfs):
        by_key[key] = by_key.get(key, 0.0) + s
        calls[key] = calls.get(key, 0) + 1
    for group, members in GROUPS.items():
        by_key[group] = sum(by_key.get(m, 0.0) for m in members)

    out: dict[str, float] = {}
    for key in CALLS:
        out[f"{key}.calls"] = calls.get(key, 0)
    for key in SELF_TIMES:
        out[f"{key}.self_s"] = by_key.get(key, 0.0)

    verdict_s = {True: 0.0, False: 0.0}
    pairs = triples = codes_bytes = 0
    for key, start, end, _, attrs in spans:
        if key == "ultrametric.is_ultrametric" and attrs is not None:
            verdict_s[attrs["ok"]] += end - start
        elif key == "hcluster.agglomerate" and attrs is not None:
            # active pairs summed over the n - 1 merge steps
            pairs += comb(attrs["n"] + 1, 3)
        elif key == "ultrametric.triangle_classify" and attrs is not None:
            triples += comb(attrs["n"], 3)
        elif key in ("haar.forward", "haar.forward_weighted") and attrs is not None:
            codes_bytes += attrs["codes_bytes"]
    out["ultrametric.is_ultrametric.pass_s"] = verdict_s[True]
    out["ultrametric.is_ultrametric.fail_s"] = verdict_s[False]
    out["hcluster.pairs_scanned"] = pairs
    out["ultrametric.triples"] = triples
    out["haar.branch_codes_bytes"] = codes_bytes

    # cli.<command>.self_s: self time of every cli-module span under the
    # cli.main call that ran <command>, i.e. the work outside the library.
    command: list[str | None] = []
    cli_self = dict.fromkeys(CLI_COMMANDS, 0.0)
    for (key, _, _, parent, attrs), s in zip(spans, selfs):
        if key == "cli.main":
            command.append(attrs["cmd"] if attrs else None)
        else:
            command.append(command[parent] if parent >= 0 else None)
        if key.startswith("cli.") and command[-1] in cli_self:
            cli_self[command[-1]] += s
    for cmd, s in cli_self.items():
        out[f"cli.{cmd}.self_s"] = s
    out["trace.self_sum_s"] = sum(selfs)
    return out
