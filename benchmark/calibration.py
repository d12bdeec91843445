"""A fixed chunk of reference work that tracks how fast the machine runs now.

On a shared machine the same op can take a third longer for seconds to
minutes at a time, and every kind of work slows together. ``run.py`` runs a
chunk at the start and end of every pass and between ops, and divides the
pass's op times by the pass's slowdown: its median chunk time over
``NOMINAL_S``. The chunk is the program's kind of work, written here so that
no change to the program changes it: for every 4-row subset of a fixed 8x8
unitary, gather the 70 blocks with 4 columns and take their singular values
as one batch, which mixes Python-level enumeration and indexing with small
batched LAPACK calls.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

import workloads

# Bound at import, so that a chunk is never traced and never runs a wrapper.
_svd = np.linalg.svd

SIZE, SUBSET = 8, 4
REPS = 6  # sweeps over the row subsets per chunk
SEED = 20220314
# Chunk time at which a slowdown reads 1: about the median chunk time of an
# undisturbed 2-core VM (Python 3.11, numpy 2.4, OpenBLAS). It only sets the
# scale of the calibrated times; any fixed value would do.
NOMINAL_S = 0.15
# A chunk runs before an op that starts this long after the last chunk ended.
EVERY_S = 1.0


class Calibration:
    def __init__(self):
        self.matrix = workloads.haar_unitary(SIZE, np.random.default_rng(SEED))
        self.rows = [np.array(r) for r in itertools.combinations(range(SIZE), SUBSET)]
        self.cols = np.array(list(itertools.combinations(range(SIZE), SUBSET)))
        self.last_end = time.perf_counter()

    def chunk(self) -> float:
        """Run one chunk; return its wall time."""
        start = time.perf_counter()
        for _ in range(REPS):
            for rows in self.rows:
                blocks = self.matrix[rows][:, self.cols].transpose(1, 0, 2)
                _svd(blocks, compute_uv=False)
        self.last_end = time.perf_counter()
        return self.last_end - start

    def due(self) -> list[float]:
        """A chunk's time in a list if one is due, else an empty list."""
        if time.perf_counter() - self.last_end >= EVERY_S:
            return [self.chunk()]
        return []


def slowdown(chunk_times: list[float]) -> float:
    """How much slower than nominal the machine ran over these chunks."""
    return statistics.median(chunk_times) / NOMINAL_S
