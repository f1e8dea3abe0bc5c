import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dendrowave.demo import walkthrough_tree
from dendrowave.tree import Dendrogram, random_dendrogram

# Hypothesis's failure report imports libcst when it is installed, and that
# import warns through mypy_extensions.TypedDict; under -W
# error::DeprecationWarning the warning would end the run in an INTERNALERROR
# instead of reporting the failed test.  Importing it once here, with its
# warnings caught, leaves the report's import nothing to warn about.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def demo8() -> Dendrogram:
    return walkthrough_tree()


def random_trees(count: int, max_n: int, seed: int, with_levels: bool = False):
    """Yield `count` random dendrograms with 2..max_n terminals."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        yield random_dendrogram(n, rng, with_levels=with_levels)


def feed(path: Path, raw: bytes) -> threading.Thread:
    """Write ``raw`` into the named pipe at ``path`` once a reader opens it."""

    def write():
        with open(path, "wb") as fh:
            fh.write(raw)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def traced_peak(call):
    """``call()`` and the most bytes it held at once beyond what was held before, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak
