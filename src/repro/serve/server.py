"""Distance-query serving tier over a prebuilt hopset.

Hopsets exist so distance queries finish in few hops: build ``E'``
once, then answer arbitrary s-t traffic by h-round Bellman–Ford on
``E ∪ E'`` [KS97].  :class:`DistanceServer` is that story made
operational — the "build once, serve millions of queries" tier:

* the union adjacency ``E ∪ E'`` is compiled into one CSR at
  construction (:meth:`repro.hopsets.result.HopsetResult.union_csr`)
  and held hot for the server's lifetime;
* the hot path is the frontier-based multi-source hop-limited kernel
  (:func:`repro.kernels.numpy_kernel.hop_sssp_batch`, numba twin
  behind the ``kernels`` registry with graceful numpy fallback,
  ``workers=`` thread sharding) — every synchronous round advances
  *all* in-flight queries with one batched gather/scatter;
* a bounded **LRU cache of source distance rows**: one kernel run
  yields the full distance row of its source, which then answers any
  s-t query for that source in O(1) — serving traffic has hot sources,
  and this is where the throughput lives;
* a **coalescing front door**: a batch of k concurrent s-t queries is
  deduplicated to its distinct uncached sources and dispatched as one
  multi-source kernel call (chunked at ``max_batch_runs`` so a huge
  batch never materializes an unbounded ``k x n`` label block).

Hop budget semantics: with ``h=None`` (default) each run executes
until its frontier empties — full convergence, i.e. **exact**
distances on ``G`` (hopset edges mirror real paths, so the converged
union distance equals the true graph distance); the hopset's role is
to collapse the number of rounds needed to get there.  With an
explicit ``h`` the answers are the h-hop (1+eps)-approximations the
paper's Figure 2 measures.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.checkpoint import graph_fingerprint
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.hopsets.result import HopsetResult, RepairStructure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dynamic.batch import UpdateBatch
from repro.kernels import hop_sssp_batch, hop_sssp_batch_numba, resolve_backend
from repro.pram.tracker import PramTracker, null_tracker
from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg

# Auto-chunk target for the front door: kernel calls are sized to
# ~this many flat labels (k = CHUNK_LABELS // n, clamped to [1, 256])
# so per-round gather temporaries stay cache-resident on big graphs.
CHUNK_LABELS = 1 << 18


@dataclass
class ServerStats:
    """Counters a serving tier lives and dies by."""

    queries: int = 0
    batches: int = 0
    kernel_calls: int = 0
    kernel_runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    rounds: int = 0
    arcs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "batches": self.batches,
            "kernel_calls": self.kernel_calls,
            "kernel_runs": self.kernel_runs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "rounds": self.rounds,
            "arcs": self.arcs,
        }


@dataclass
class DistanceServer:
    """Serve s-t / k-source distance queries over ``G ∪ E'``.

    Parameters
    ----------
    hopset:
        A built :class:`~repro.hopsets.result.HopsetResult`; its graph
        and union CSR are the server's whole world.
    h:
        Hop budget per query run.  ``None`` (default) runs each search
        to convergence — exact distances, few rounds thanks to the
        hopset.  An integer gives h-hop approximate semantics.
    backend:
        ``"numpy"`` (default) or ``"numba"``; resolved through
        :func:`repro.kernels.resolve_backend`, so a numba request
        degrades to numpy with a warning when the JIT toolchain is
        missing (CLI callers that demand numba by name are vetted by
        ``require_backend`` before construction).  ``"reference"`` has
        no hop-limited kernel and is rejected.
    workers:
        Thread count for the kernel's sharded rounds (``1`` serial,
        ``None`` = all cores); results are identical for every value.
    cache_rows:
        Maximum source distance rows kept in the LRU (``0`` disables
        caching — every query pays a kernel run; the benchmark's
        singleton baseline).
    max_batch_runs:
        Cap on kernel runs per call; a front-door batch with more
        distinct uncached sources is served in chunks of this size.
        ``None`` (default) auto-sizes the chunk so one call's flat
        label block stays around :data:`CHUNK_LABELS` entries — a
        round's gather temporaries then stay cache-resident, which on
        large graphs is worth far more than sharing round overhead
        across runs (measured at n=10^5: per-run cost grows ~1.7x
        from k=1 to k=32 in one flat block; chunks of 2-4 keep
        near-singleton per-run cost while the front door still
        coalesces duplicates).  Also the memory bound: label blocks
        are O(``max_batch_runs * n``).
    """

    hopset: HopsetResult
    h: Optional[int] = None
    backend: Optional[str] = None
    workers: WorkersArg = DEFAULT_WORKERS
    cache_rows: int = 128
    max_batch_runs: Optional[int] = None
    tracker: Optional[PramTracker] = None
    stats: ServerStats = field(default_factory=ServerStats)

    def __post_init__(self) -> None:
        if self.cache_rows < 0:
            raise ParameterError("cache_rows must be >= 0")
        if self.max_batch_runs is None:
            self.max_batch_runs = max(
                1, min(256, CHUNK_LABELS // max(self.hopset.graph.n, 1))
            )
        if self.max_batch_runs <= 0:
            raise ParameterError("max_batch_runs must be positive")
        name = resolve_backend(self.backend or "numpy")
        if name == "reference":
            raise ParameterError(
                "the reference backend has no hop-limited kernel; "
                "use 'numpy' or 'numba'"
            )
        self.backend = name
        self._indptr, self._indices, self._weights = self.hopset.union_csr()
        self._n = self.hopset.graph.n
        self._budget = self._n if self.h is None else int(self.h)
        if self._budget <= 0:
            raise ParameterError("hop budget h must be positive")
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._tracker = self.tracker or null_tracker()

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()

    def cached_sources(self) -> List[int]:
        """Currently cached sources, least recently used first."""
        return list(self._cache)

    def _cache_put(self, s: int, row: np.ndarray) -> None:
        if self.cache_rows == 0:
            return
        self._cache[s] = row
        if len(self._cache) > self.cache_rows:
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------
    def _run_kernel(self, sources: np.ndarray) -> np.ndarray:
        """One multi-source kernel call: one run per entry of
        ``sources``; returns the ``(k, n)`` distance block."""
        k = sources.shape[0]
        run_ptr = np.arange(k + 1, dtype=np.int64)
        kern = hop_sssp_batch_numba if self.backend == "numba" else hop_sssp_batch
        dist, _, round_arcs, _ = kern(
            self._indptr,
            self._indices,
            self._weights,
            self._n,
            sources,
            run_ptr,
            self._budget,
            workers=self.workers,
        )
        self.stats.kernel_calls += 1
        self.stats.kernel_runs += k
        self.stats.rounds += len(round_arcs)
        self.stats.arcs += int(sum(round_arcs))
        with self._tracker.phase("serve"):
            for arcs in round_arcs:
                self._tracker.parallel_round(work=arcs)
        return dist.reshape(k, self._n)

    def _rows_for(self, sources: Iterable[int]) -> Dict[int, np.ndarray]:
        """Distance rows for the given (not necessarily distinct)
        sources: cached rows are reused (LRU touch), the rest are
        coalesced into as few kernel calls as ``max_batch_runs``
        allows.  The returned dict outlives any cache eviction the
        insertions below may cause."""
        got: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for s in sources:
            s = int(s)
            if not 0 <= s < self._n:
                raise ParameterError(f"source {s} out of range [0, {self._n})")
            if s in got:
                continue
            row = self._cache.get(s)
            if row is not None:
                self._cache.move_to_end(s)
                self.stats.cache_hits += 1
                got[s] = row
            else:
                self.stats.cache_misses += 1
                missing.append(s)
                got[s] = None  # placeholder keeps first-appearance order
        for lo in range(0, len(missing), self.max_batch_runs):
            chunk = np.asarray(missing[lo : lo + self.max_batch_runs], dtype=np.int64)
            block = self._run_kernel(chunk)
            for i, s in enumerate(chunk):
                row = block[i].copy()  # detach from the k x n block
                got[int(s)] = row
                self._cache_put(int(s), row)
        return got

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def _stale_sources(
        self,
        added: Tuple[np.ndarray, np.ndarray, np.ndarray],
        removed: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> List[int]:
        """Cached sources whose rows may change under the batch.

        Valid for ``h=None`` rows only (they are exact distances on G):
        a row ``D`` survives iff no added edge shortens it
        (``D[u] + w < D[v]`` either way) and no removed edge was tight
        on it (``D[u] + w_old == D[v]`` either way — a tight edge may
        have carried shortest paths, so the distance could grow).
        """
        au, av, aw = added
        ru, rv, rw = removed
        tol = 1e-9
        stale: List[int] = []
        for s, D in self._cache.items():
            bad = False
            if au.size:
                da, db = D[au], D[av]
                bad = bool(
                    np.any(da + aw < db - tol) or np.any(db + aw < da - tol)
                )
            if not bad and ru.size:
                da, db = D[ru], D[rv]
                scale = np.maximum(1.0, np.abs(db))
                tight = np.abs(da + rw - db) <= tol * scale
                scale = np.maximum(1.0, np.abs(da))
                tight |= np.abs(db + rw - da) <= tol * scale
                bad = bool(np.any(tight))
            if bad:
                stale.append(s)
        return stale

    def apply_updates(
        self,
        batch: "UpdateBatch",
        method: str = "auto",
        star_weights: str = "tree",
    ) -> Dict[str, object]:
        """Advance the served hopset through one update batch.

        Repairs only the dirty level-0 blocks
        (:func:`repro.dynamic.hopset.repair_hopset` — requires the
        hopset to carry a repair structure), recompiles the hot union
        CSR, and evicts exactly the cached source rows the batch can
        have changed: with ``h=None`` rows are exact distances, so a
        row stays warm unless an added edge shortens it or a removed
        edge was tight on it.  With an explicit ``h`` the cache is
        cleared wholesale (hop-limited rows have no cheap staleness
        certificate).  Returns the repair statistics (including the
        exact ``inverse`` batch).
        """
        from repro.dynamic.batch import apply_batch
        from repro.dynamic.hopset import repair_hopset
        from repro.hopsets.params import HopsetParams

        if self.hopset.structure is None:
            raise ParameterError(
                "served hopset has no repair structure; build with "
                "record_structure=True"
            )
        meta = self.hopset.meta
        try:
            params = HopsetParams(
                epsilon=float(meta["epsilon"]),
                delta=float(meta["delta"]),
                gamma1=float(meta["gamma1"]),
                gamma2=float(meta["gamma2"]),
                c_growth=float(meta["c_growth"]),
                max_levels=int(meta["max_levels"]),
            )
        except KeyError as exc:
            raise ParameterError(
                f"hopset meta lacks {exc} needed to reconstruct build params"
            ) from exc
        ar = apply_batch(self.hopset.graph, batch)
        repaired, info = repair_hopset(
            self.hopset,
            ar.graph,
            ar.touched,
            params=params,
            method=method,
            star_weights=star_weights,
            backend=self.backend,
            workers=self.workers,
            tracker=self.tracker,
        )
        if self.h is None:
            stale = self._stale_sources(
                (ar.added_u, ar.added_v, ar.added_w),
                (ar.removed_u, ar.removed_v, ar.removed_w),
            )
        else:
            stale = list(self._cache)
        for s in stale:
            del self._cache[s]
        self.stats.cache_invalidations += len(stale)
        self.hopset = repaired
        self._indptr, self._indices, self._weights = repaired.union_csr()
        out: Dict[str, object] = dict(ar.stats)
        out.update(info)
        out["invalidated_rows"] = len(stale)
        out["inverse"] = ar.inverse
        return out

    # ------------------------------------------------------------------
    # query API
    # ------------------------------------------------------------------
    def distance_row(self, s: int) -> np.ndarray:
        """Full distance row of ``s`` (cached)."""
        self.stats.queries += 1
        return self._rows_for([s])[int(s)]

    def query(self, s: int, t: int) -> float:
        """One s-t distance (``inf`` when unreached within the budget)."""
        if not 0 <= int(t) < self._n:
            raise ParameterError(f"target {t} out of range [0, {self._n})")
        self.stats.queries += 1
        return float(self._rows_for([s])[int(s)][int(t)])

    def query_batch(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """The coalescing front door: answer ``k`` concurrent s-t
        queries with as few kernel runs as their distinct uncached
        sources require.  Returns distances aligned with ``pairs``."""
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        k = arr.shape[0]
        self.stats.queries += k
        self.stats.batches += 1
        if k == 0:
            return np.empty(0, dtype=np.float64)
        if (arr[:, 1] < 0).any() or (arr[:, 1] >= self._n).any():
            bad = arr[(arr[:, 1] < 0) | (arr[:, 1] >= self._n), 1][0]
            raise ParameterError(f"target {bad} out of range [0, {self._n})")
        rows = self._rows_for(arr[:, 0])
        out = np.empty(k, dtype=np.float64)
        for i in range(k):
            out[i] = rows[int(arr[i, 0])][arr[i, 1]]
        return out

    def distances(self, sources: Sequence[int]) -> np.ndarray:
        """``(k, n)`` distance matrix for ``k`` sources (k-source batch
        query).  Rows are independent copies; duplicates in ``sources``
        cost one kernel run only."""
        src = np.asarray(sources, dtype=np.int64).reshape(-1)
        self.stats.queries += src.shape[0]
        self.stats.batches += 1
        rows = self._rows_for(src)
        if src.shape[0] == 0:
            return np.empty((0, self._n), dtype=np.float64)
        return np.stack([rows[int(s)] for s in src])


# ----------------------------------------------------------------------
# hopset persistence (the CLI's build-or-load contract)
# ----------------------------------------------------------------------
def save_hopset(hopset: HopsetResult, path: str) -> None:
    """Persist a hopset's edges (npz) so serving never rebuilds.

    The file is stamped with its graph's
    :func:`~repro.checkpoint.graph_fingerprint`, which
    :func:`load_hopset` checks.  A repair structure, when present, rides
    along — a reloaded hopset then still supports
    :meth:`DistanceServer.apply_updates`.
    """
    extra: Dict[str, np.ndarray] = {}
    if hopset.structure is not None:
        extra["top_labels"] = hopset.structure.top_labels
        extra["top_seeds"] = hopset.structure.top_seeds
    np.savez(
        path,
        n=np.int64(hopset.graph.n),
        graph_fingerprint=np.array(graph_fingerprint(hopset.graph)),
        eu=hopset.eu,
        ev=hopset.ev,
        ew=hopset.ew,
        kind=hopset.kind,
        meta=np.array(json.dumps(hopset.meta)),
        **extra,
    )


def load_hopset(graph: CSRGraph, path: str) -> HopsetResult:
    """Rehydrate a saved hopset against its graph.

    ``n`` must match, and so must the graph fingerprint the file was
    stamped with — a hopset of another graph would otherwise be served
    as exact.  Files written before the stamp existed are checked on
    ``n`` alone.
    """
    with np.load(path, allow_pickle=False) as z:
        n = int(z["n"])
        if n != graph.n:
            raise ParameterError(
                f"hopset file {path} was built for n={n}, graph has n={graph.n}"
            )
        stamp = z["graph_fingerprint"] if "graph_fingerprint" in z.files else None
        if stamp is not None and str(stamp) != graph_fingerprint(graph):
            raise ParameterError(
                f"hopset file {path} was built for a different graph "
                "(fingerprint mismatch)"
            )
        meta = json.loads(str(z["meta"]))
        structure = None
        if "top_labels" in z.files:
            structure = RepairStructure(
                top_labels=z["top_labels"], top_seeds=z["top_seeds"]
            )
        return HopsetResult(
            graph=graph,
            eu=z["eu"],
            ev=z["ev"],
            ew=z["ew"],
            kind=z["kind"],
            levels=[],
            meta=meta,
            structure=structure,
        )
