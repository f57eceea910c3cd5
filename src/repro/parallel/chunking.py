"""Frontier block decomposition (the MPI scatter/gather idiom)."""

from __future__ import annotations

from typing import List

import numpy as np


def shard_frontier(
    frontier: np.ndarray, parts: int, min_size: int = 1
) -> List[np.ndarray]:
    """Contiguous near-equal shards of a frontier array for worker fan-out.

    At most ``parts`` shards are produced and every shard holds at
    least ``min_size`` elements (unless the frontier itself is
    smaller, in which case it comes back whole) — so tiny frontiers
    never pay a fan-out tax.  Shards are views (``np.array_split`` of
    a 1-D array), preserving the frontier's order: concatenating them
    back yields the original array, which is what keeps the sharded
    relaxation schedule identical to the serial one.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    n = int(frontier.shape[0])
    k = min(parts, max(n // max(min_size, 1), 1))
    if k <= 1:
        return [frontier]
    return np.array_split(frontier, k)
