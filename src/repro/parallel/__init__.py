"""Parallel execution helpers (worker policy, thread shards).

The algorithms in this package are written against the PRAM *cost
model* (:mod:`repro.pram`); this subpackage offers the real-hardware
execution helpers behind them:

* :func:`shard_frontier` — the contiguous block decomposition of a
  relaxation frontier.  The bucket and hop kernels shard each big
  frontier with it and relax the shards on a thread pool: numpy
  releases the GIL inside the big gather/scatter ops, so threads give
  genuine multicore throughput there even though pure-Python loops
  would not.  Labels and ledgers stay bit-identical for every worker
  count.
* :func:`effective_workers` — the single source of truth mapping a
  requested ``workers`` value to the worker count actually used
  (``None`` means "all cores this process may run on"; results are
  clamped to them).
  Every public ``workers=`` parameter defaults to the
  :data:`DEFAULT_WORKERS` sentinel, which resolves through the
  session policy set by :func:`set_default_workers` — so a caller can
  opt the engine calls *inside* the batched builders into parallelism
  once, without threading a ``workers`` argument through every layer.
"""

from repro.parallel.pool import (
    DEFAULT_WORKERS,
    effective_workers,
    get_default_workers,
    set_default_workers,
)
from repro.parallel.chunking import shard_frontier

__all__ = [
    "effective_workers",
    "DEFAULT_WORKERS",
    "set_default_workers",
    "get_default_workers",
    "shard_frontier",
]
