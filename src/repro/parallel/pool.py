"""Worker policy: the single source of truth behind every ``workers=``.

Every public ``workers=`` parameter in the repo defaults to the
:data:`DEFAULT_WORKERS` sentinel, which :func:`effective_workers`
resolves through :func:`set_default_workers`.  Out of the box the
policy is ``1`` (serial, the historical default), but a caller about to
run a batched builder can opt the *inner* engine calls into parallelism
once, instead of threading a ``workers`` argument through every layer
by hand.  "All cores" means the cores this process may run on (its CPU
affinity mask), not the machine's.
"""

from __future__ import annotations

import os
from typing import Optional, Union


# ceiling for explicitly requested thread oversubscription — a typo'd
# ``workers=10**6`` must not allocate a million-thread pool
_MAX_OVERSUBSCRIBED = 64


class _DefaultWorkers:
    """Sentinel type for "follow the session worker policy"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DEFAULT_WORKERS"


#: Default value of every ``workers=`` parameter in the repo: resolve
#: through the session policy (:func:`set_default_workers`) at call
#: time.  Passing an explicit int or ``None`` always overrides it.
DEFAULT_WORKERS = _DefaultWorkers()

WorkersArg = Union[int, None, _DefaultWorkers]

_default_workers: Optional[int] = 1


def set_default_workers(workers: Optional[int]) -> Optional[int]:
    """Set the session-wide worker policy behind :data:`DEFAULT_WORKERS`.

    ``workers`` follows the usual convention: an int is a cap, ``None``
    means "all cores".  Returns the previous policy so callers (tests,
    context-scoped benchmark sections) can restore it.
    """
    global _default_workers
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers policy must be >= 1 or None, got {workers}")
    prev = _default_workers
    _default_workers = workers
    return prev


def get_default_workers() -> Optional[int]:
    """Current worker policy applied wherever callers pass
    :data:`DEFAULT_WORKERS` (i.e. don't say otherwise)."""
    return _default_workers


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity mask where the
    platform has one (a taskset or container cpuset narrows it), else
    ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def effective_workers(
    requested: WorkersArg = None, oversubscribe: bool = False
) -> int:
    """Number of workers to actually use — the single source of truth
    behind every ``workers=`` knob in the repo.

    ``None`` means "use all cores"; the result is clamped to the cores
    this process may run on (:func:`_available_cores`) and is 1 on
    single-core machines.  :data:`DEFAULT_WORKERS` resolves to the session policy
    (:func:`set_default_workers`) first, then follows the same rules.
    With ``oversubscribe=True`` (thread-pool callers: threads are cheap
    and GIL-released numpy work interleaves fine) an *explicit* request
    may exceed the core count — the bucket kernels use this so a
    requested worker count behaves identically on every machine, which
    is also what lets single-core CI exercise the sharded code path.
    """
    if isinstance(requested, _DefaultWorkers):
        requested = _default_workers
    if requested is None:
        return _available_cores()
    if oversubscribe:
        return max(1, min(requested, _MAX_OVERSUBSCRIBED))
    return max(1, min(requested, _available_cores()))
