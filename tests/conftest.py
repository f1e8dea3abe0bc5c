import threading
from pathlib import Path

import numpy as np
import pytest

from dendrowave.demo import walkthrough_tree
from dendrowave.tree import Dendrogram, random_dendrogram


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
