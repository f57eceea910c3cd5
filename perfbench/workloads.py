"""The four benchmark workloads: seeded inputs, timed pipeline, checks.

Every workload follows one user pipeline through the library's public
API: read the graph from disk (``setup``), build the structure
(``build``), then serve, update or rebuild in a closed loop driven by a
single client that sends its next request only after the previous one
returned.  On ``serve-rgg`` and ``churn-rgg`` the client sends a fixed
list of requests, sized so that it takes about ``seconds`` on a 2-core
x86 VM; the build loops run until the time spent inside builds reaches
``seconds``.  Correctness checks run between requests, outside the
measured time.

* ``serve-rgg`` — cycles of build, then serve: each cycle builds a
  hopset of a random geometric graph with its own seed and serves
  ``benchmarks/bench_serve.py``'s ``query_batch`` calls on a fresh
  :class:`~repro.serve.DistanceServer`, each served cold and then warm
  (a run sees four hopsets, whose quality moves query cost from seed
  to seed).
* ``spanner-gnm`` — ``weighted_spanner(k=8)`` on weighted G(n, m);
  requests are builds with fresh seeds.
* ``churn-rgg`` — a served, repairable hopset under edge churn; the
  client alternates ``apply_updates`` batches with single ``query``
  calls.
* ``ctree-ba`` — ``build_cluster_tree`` on a Barabási–Albert graph;
  requests are builds with fresh seeds.

Graphs are generated in a child process (outside the timing and the
memory peak) and cached on disk under ``.perfbench_cache/``, keyed by
graph and seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

import repro.graph.io as gio
from repro.ctree import build_cluster_tree
from repro.dynamic import UpdateBatch
from repro.graph import barabasi_albert_graph, gnm_random_graph, random_geometric_graph, with_random_weights
from repro.hopsets import HopsetParams, build_hopset
from repro.pram import PramTracker
from repro.serve import DistanceServer
from repro.spanners import weighted_spanner

from tracing import LAYER_TARGETS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_cache")

WORKLOAD_GRAPH = {"serve-rgg": "rgg", "churn-rgg": "rgg",
                  "spanner-gnm": "gnm", "ctree-ba": "ba"}

RGG_N, RGG_RADIUS = 100_000, 0.0057
GNM_N, GNM_M, GNM_WEIGHTS = 100_000, 1_000_000, (1.0, 1000.0)
BA_N, BA_ATTACH = 20_000, 3

SERVE_PARAMS = HopsetParams(epsilon=0.5, delta=1.1, gamma1=0.15, gamma2=0.2)
CHURN_PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.02, gamma2=0.05)
SPANNER_K = 8.0
CTREE_REQUIREMENT = "wellconnected"

# serve-rgg request stream: benchmarks/bench_serve.py's serving traffic
# (a request of SERVE_BATCH pairs whose sources come from a pool of
# SERVE_BATCH // 8, uniform targets), each request served cold, then
# re-served warm, as bench_serve's throughput sweep does
SERVE_CYCLES = 4          # hopsets a run builds and serves: four even out hopset quality
SERVE_BATCH = 16          # a batch of bench_serve's sweep: 2 cold rows a request
SERVE_ROW_S = 1.5         # measured cost of a cold row (2-core x86 VM, one worker); sizes a run
SERVE_WARM_PASSES = 2     # the fewest that put the median request on cache hits

# churn-rgg stream
CHURN_EDGES = 10          # deletes and inserts per fresh batch
CHURN_CYCLES = 3          # hopsets a run builds and churns: three even out hopset quality
CHURN_HOT = 3             # hot query sources (centre, middle, rim), queried in every cycle
CHURN_STEP_S = 2.6        # an update and a cold query (2-core x86 VM, one worker); sizes a run
CHURN_WALK = 3            # inserts join a vertex to the end of a 3-step walk
CHURN_DEF24_SOURCES = 3

STRETCH_SOURCES = 4       # spanner check: every edge at these vertices

SOURCE_CANDIDATES = 32    # eccentricity sample for the query sources (at least 4 a source)

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def graph_path(key: str, seed: int) -> str:
    return os.path.join(CACHE, f"{key}-s{seed}.bin")


def generate_graph(key: str, seed: int) -> None:
    """Generate graph ``key`` for ``seed`` and write it atomically."""
    if key == "rgg":
        g = random_geometric_graph(RGG_N, RGG_RADIUS, seed=seed)
    elif key == "gnm":
        g = gnm_random_graph(GNM_N, GNM_M, seed=seed)
        g = with_random_weights(g, *GNM_WEIGHTS, seed=seed + 1)
    elif key == "ba":
        g = barabasi_albert_graph(BA_N, BA_ATTACH, seed=seed)
    else:
        raise ValueError(f"unknown graph {key!r}")
    os.makedirs(CACHE, exist_ok=True)
    path = graph_path(key, seed)
    tmp = f"{path}.{os.getpid()}.tmp"
    gio.save_edgelist_binary(g, tmp)
    os.replace(tmp, path)


def ensure_graph(key: str, seed: int, run_py: str) -> str:
    path = graph_path(key, seed)
    if not os.path.isfile(path):
        subprocess.run(
            [sys.executable, run_py, "--generate", key, "--seed", str(seed)],
            check=True, timeout=600,
        )
    return path


def scipy_graph(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> csr_matrix:
    """The oracle's own adjacency matrix, built from an edge list."""
    return csr_matrix((w, (u, v)), shape=(n, n))


def stratified_sources(g: Any, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sources at evenly spaced quantiles of hop eccentricity
    among ``SOURCE_CANDIDATES`` (or ``4 * count``) seeded candidates, ordered
    lowest, highest, second lowest, ... so that every prefix, and every
    consecutive pair, mixes a source near the centre with one near the
    rim.

    A cold row's kernel work follows its source's eccentricity
    (correlation ~0.9 on the RGG at n=1e5), so a uniform sample of a
    dozen sources swings a run's query cost by tens of percent from
    seed to seed; quantiles of a larger sample keep the mix fixed.
    """
    candidates = rng.choice(g.n, size=max(SOURCE_CANDIDATES, 4 * count), replace=False)
    adj = scipy_graph(g.n, g.edge_u, g.edge_v, np.ones(g.m))
    ecc = np.empty(candidates.shape[0])
    for lo in range(0, candidates.shape[0], 8):  # bounded memory
        depth = shortest_path(adj, directed=False, unweighted=True,
                              indices=candidates[lo:lo + 8])
        depth[np.isinf(depth)] = 0.0
        ecc[lo:lo + 8] = depth.max(axis=1)
    ranked = candidates[np.argsort(ecc, kind="stable")]
    picks = ranked[((np.arange(count) + 0.5) * ranked.shape[0] / count).astype(np.int64)]
    order = np.empty(count, dtype=np.int64)
    order[0::2] = np.arange((count + 1) // 2)
    order[1::2] = count - 1 - np.arange(count // 2)
    return picks[order]


def tail(values: List[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` at the highest ladder percentile with at
    least ten samples beyond it, or ``None`` with too few samples."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            best = p
    if best is None:
        return None
    return best, float(np.percentile(values, best))


# ----------------------------------------------------------------------
# run bookkeeping
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Run:
    """One workload run: clock, ledger of operations and checks, and
    the figures it reports."""

    workload: str
    seed: int
    seconds: float
    workers: int
    tracer: Optional[Tracer]
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    measured: float = 0.0       # seconds inside requests
    aside_seconds: float = 0.0  # checks and input preparation between requests
    phase_start: float = 0.0
    window_wall: float = 0.0    # setup start to loop end, time aside excluded
    ref_sources: List[int] = dataclasses.field(default_factory=list)
    timings: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    figures: Dict[str, float] = dataclasses.field(default_factory=dict)
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
             ) -> Tuple[Any, float]:
        """One timed operation; an exception counts as a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = self.tracer.call(name, fn, *args, **kwargs)
        except Exception as exc:  # the loop must go on and report it
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            out = None
        dt = time.perf_counter() - t0
        self.timings.setdefault(name, []).append(dt)
        return out, dt

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @contextlib.contextmanager
    def aside(self) -> Iterator[None]:
        """Work between requests that is not part of the pipeline."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.aside_seconds += time.perf_counter() - t0

    def check(self, name: str, fn: Callable[[], bool]) -> None:
        """Run one correctness check outside the measured time."""
        self.attempted += 1
        with self.aside():
            try:
                ok = bool(fn())
            except Exception as exc:  # a crashing check is a failed check
                self.fail(f"check {name}: {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    self.fail(f"check {name} failed")

    def more(self) -> bool:
        return self.measured < self.seconds

    def end_window(self) -> None:
        self.window_wall = time.perf_counter() - self.phase_start - self.aside_seconds

    def median(self, name: str) -> float:
        return float(statistics.median(self.timings[name]))


def setup(run: Run, path: str) -> Any:
    """Read the graph through the public reader, several times, and
    record the median as ``setup_s``."""
    run.phase_start = time.perf_counter()
    g = None
    while True:
        out, _ = run.call("setup", lambda: gio.load_edgelist_binary(path))
        g = out if out is not None else g
        t = run.timings["setup"]
        if len(t) >= 9 or (len(t) >= 3 and sum(t) >= 1.0):
            break
    if g is None:
        raise RuntimeError(f"could not read {path}")
    run.figures["setup_s"] = run.median("setup")
    return g


def pram_tracker(run: Run, n: int) -> Optional[PramTracker]:
    return PramTracker(n=n) if run.tracer is not None else None


def record_pram(run: Run, tracker: Optional[PramTracker]) -> None:
    if tracker is not None:
        run.layer["pram.work"] = float(tracker.work)
        run.layer["pram.rounds"] = float(tracker.rounds)


# ----------------------------------------------------------------------
# serve-rgg
# ----------------------------------------------------------------------
def serve_requests(g: Any, rng: np.random.Generator, seconds: float
                   ) -> List[List[Tuple[np.ndarray, np.ndarray]]]:
    """``(pairs, pool)`` of each cold request, by cycle.  A request is
    bench_serve's: ``SERVE_BATCH`` pairs whose sources come from a pool
    of ``SERVE_BATCH // 8`` sources never requested before (each of
    them at least once), with uniform targets.  Each of the
    ``SERVE_CYCLES`` cycles gets as many requests as cold rows fit in
    its share of ``seconds`` at ``SERVE_ROW_S`` each, so the work is
    fixed by the arguments, not by the host's speed.  The pooled
    sources are stratified by eccentricity, and each pool pairs a source
    near the centre with one near the rim."""
    size = max(1, SERVE_BATCH // 8)
    per_cycle = max(1, round(seconds / (SERVE_CYCLES * size * SERVE_ROW_S)))
    count = SERVE_CYCLES * per_cycle
    sources = stratified_sources(g, rng, count * size)
    out: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(SERVE_CYCLES)]
    for c in range(count):
        pool = sources[c * size:(c + 1) * size]
        src = pool[rng.integers(0, size, size=SERVE_BATCH)]
        src[:size] = pool
        dst = rng.integers(0, g.n, size=SERVE_BATCH)
        out[c % SERVE_CYCLES].append((np.stack([src, dst], axis=1).astype(np.int64), pool))
    return out


def serve_build(g: Any, seed: int, workers: int,
                tracker: Optional[PramTracker] = None) -> DistanceServer:
    hs = build_hopset(g, SERVE_PARAMS, seed=seed, workers=workers, tracker=tracker)
    return DistanceServer(hs, h=None, workers=workers)


def serve_rgg(run: Run, path: str) -> None:
    """Cycles of build, then serve: each cycle builds a hopset with its
    own seed, serves its requests on a fresh server (each request cold,
    then its warm passes), checks one cold row and every answer served
    from it against Dijkstra, and drops the server.  A fixed amount of
    work, so the clock does not decide which pairs a run serves."""
    g = setup(run, path)
    rng = np.random.default_rng([run.seed, 1])
    with run.aside():
        cycles = serve_requests(g, rng, run.seconds)
        oracle = scipy_graph(g.n, g.edge_u, g.edge_v, g.edge_w)
    tracker = pram_tracker(run, g.n)
    cold_lat: List[float] = []
    stats: List[Any] = []
    sizes: List[int] = []
    answered = 0
    for i, requests in enumerate(cycles):
        server, _ = run.call("build", serve_build, g, run.seed * 1000 + i, run.workers, tracker)
        record_pram(run, tracker)
        tracker = None
        if server is None:
            continue
        served: List[Tuple[np.ndarray, np.ndarray]] = []
        for pairs, _pool in requests:
            for p in range(1 + SERVE_WARM_PASSES):
                ans, dt = run.call("request", server.query_batch, pairs)
                if p == 0:
                    cold_lat.append(dt)
                if ans is not None:
                    served.append((pairs, ans))
                    answered += pairs.shape[0]
        s = int(requests[0][1][0])

        def same(server: DistanceServer = server, s: int = s,
                 served: List[Tuple[np.ndarray, np.ndarray]] = served) -> bool:
            row = dijkstra(oracle, directed=False, indices=s)
            ok = same_row(server, s, row)
            for pairs, ans in served:
                sel = pairs[:, 0] == s
                ok &= bool(np.allclose(ans[sel], row[pairs[sel, 1]], rtol=1e-9, atol=0))
            return ok

        run.check(f"served row {s} equals Dijkstra", same)
        stats.append(server.stats)
        sizes.append(server.hopset.size)
        del server
    run.end_window()
    run.ref_sources = [int(s) for s in cycles[0][0][1]]

    lat = run.timings["request"]
    run.figures["build_s"] = run.median("build")
    # the gated median is that of the cold passes: a hit takes 20-60 us,
    # and its median moved by a third between reruns of one seed
    run.figures["op_p50_ms"] = 1e3 * statistics.median(cold_lat)
    run.figures["throughput"] = answered / max(sum(lat), 1e-12)
    run.figures["output_size_ratio"] = float(np.mean(sizes)) / g.m
    run.figures["query_p50_ms"] = 1e3 * statistics.median(lat)
    run.figures["qps"] = run.figures["throughput"]
    run.figures["hopset_edges_per_m"] = run.figures["output_size_ratio"]

    def total(field: str) -> int:
        return sum(getattr(st, field) for st in stats)

    hits, misses = total("cache_hits"), total("cache_misses")
    run.layer["serve.cache_hit_ratio"] = hits / max(hits + misses, 1)
    run.layer["serve.kernel_runs_per_request"] = total("kernel_runs") / max(total("batches"), 1)
    run.layer["kernels.rounds_per_row"] = total("rounds") / max(total("kernel_calls"), 1)
    run.layer["kernels.arcs_per_row"] = total("arcs") / max(total("kernel_runs"), 1)


def same_row(server: DistanceServer, s: int, row: np.ndarray) -> bool:
    """The server's full row for ``s`` equals ``row``; the read is a
    cache hit, and the server's counters are left as they were."""
    stats = dataclasses.replace(server.stats)
    try:
        return bool(np.allclose(server.distance_row(s), row, rtol=1e-9, atol=0))
    finally:
        server.stats = stats


def reference_rows(run: Run, g: Any, sources: List[int]) -> None:
    """ROADMAP baselines for the same cold sources: the exact engine on
    ``G`` alone, and the hop kernel's round count on ``G`` alone."""
    from repro.kernels.numpy_kernel import hop_sssp_batch
    from repro.paths.engine import shortest_paths

    if not sources:
        return
    secs, rounds = [], []
    for s in sources:
        t0 = time.perf_counter()
        shortest_paths(g, s, workers=run.workers)
        secs.append(time.perf_counter() - t0)
        _, _, round_arcs, _ = hop_sssp_batch(
            g.indptr, g.indices, g.weights, g.n,
            np.array([s], dtype=np.int64), np.array([0, 1], dtype=np.int64), g.n,
            workers=run.workers,
        )
        rounds.append(len(round_arcs))
    run.layer["ref.engine_on_G_row_s"] = float(np.mean(secs))
    run.layer["ref.rounds_on_G"] = float(np.mean(rounds))


# ----------------------------------------------------------------------
# churn-rgg
# ----------------------------------------------------------------------
class EdgeMirror:
    """The oracle's own copy of the live edge set under churn."""

    def __init__(self, g: Any) -> None:
        self.n = g.n
        self.u, self.v, self.w = g.edge_u, g.edge_v, g.edge_w
        self.key = self.u * self.n + self.v
        self.order = np.argsort(self.key)
        self.alive = np.ones(g.m, dtype=bool)
        self.extra: Dict[Tuple[int, int], float] = {}

    def _base_id(self, a: int, b: int) -> int:
        k = min(a, b) * self.n + max(a, b)
        i = int(np.searchsorted(self.key, k, sorter=self.order))
        if i < self.key.shape[0] and self.key[self.order[i]] == k:
            return int(self.order[i])
        return -1

    def apply(self, batch: UpdateBatch) -> None:
        for a, b in zip(batch.delete_u.tolist(), batch.delete_v.tolist()):
            if self.extra.pop((a, b), None) is None:
                e = self._base_id(a, b)
                if e >= 0:
                    self.alive[e] = False
        for a, b, w in zip(batch.insert_u.tolist(), batch.insert_v.tolist(),
                           batch.insert_w.tolist()):
            e = self._base_id(a, b)
            if e >= 0 and not self.alive[e]:
                self.alive[e] = True
            elif e < 0:
                self.extra[(a, b)] = w

    def matrix(self) -> csr_matrix:
        u = self.u[self.alive]
        v = self.v[self.alive]
        w = self.w[self.alive]
        if self.extra:
            ends = np.array(list(self.extra), dtype=np.int64)
            ew = np.array(list(self.extra.values()), dtype=np.float64)
            u = np.concatenate([u, ends[:, 0]])
            v = np.concatenate([v, ends[:, 1]])
            w = np.concatenate([w, ew])
        return scipy_graph(self.n, u, v, w)


def churn_batches(rng: np.random.Generator, g: Any) -> Iterator[UpdateBatch]:
    """Fresh batches: ``CHURN_EDGES`` deletes of original edges and
    ``CHURN_EDGES`` unit inserts joining a vertex to the end of a short
    random walk from it.  Consecutive batches are disjoint, so each one
    applies cleanly while its predecessor is still outstanding."""
    prev_del: set = set()
    prev_ins: set = set()
    while True:
        dels: List[Tuple[int, int]] = []
        while len(dels) < CHURN_EDGES:
            e = int(rng.integers(g.m))
            p = (int(g.edge_u[e]), int(g.edge_v[e]))
            if p not in prev_del and p not in dels:
                dels.append(p)
        ins: List[Tuple[int, int]] = []
        while len(ins) < CHURN_EDGES:
            a = x = int(rng.integers(g.n))
            for _ in range(CHURN_WALK):
                nb = g.indices[g.indptr[x]:g.indptr[x + 1]]
                if nb.shape[0] == 0:
                    break
                x = int(nb[rng.integers(nb.shape[0])])
            p = (min(a, x), max(a, x))
            nb = g.indices[g.indptr[a]:g.indptr[a + 1]]
            if a == x or x in nb or p in prev_ins or p in ins:
                continue
            ins.append(p)
        prev_del, prev_ins = set(dels), set(ins)
        yield UpdateBatch.from_tuples([(a, b, 1.0) for a, b in ins], dels)


def churn_build(g: Any, seed: int, workers: int,
                tracker: Optional[PramTracker] = None) -> DistanceServer:
    hs = build_hopset(g, CHURN_PARAMS, seed=seed, workers=workers, tracker=tracker,
                      record_structure=True)
    return DistanceServer(hs, h=None, workers=workers)


def churn_rgg(run: Run, path: str) -> None:
    """Cycles of build, then churn: each cycle builds a repairable
    hopset with its own seed, serves it, and runs a fixed number of
    steps on it, each an ``apply_updates`` then one ``query`` from the
    next hot source; the server is then dropped.  Each cycle's stream is
    fresh, fresh, then each batch's recorded inverse two steps after it,
    so at most two batches are outstanding and the graph stays close to
    the one the hopset was built for."""
    g = setup(run, path)
    rng = np.random.default_rng([run.seed, 3])
    with run.aside():
        hot = stratified_sources(g, rng, CHURN_HOT)
        fresh = churn_batches(rng, g)
    # a fixed number of steps, each hot source queried equally often, so
    # the clock does not decide which queries a run serves
    steps = CHURN_HOT * max(1, round(run.seconds / (CHURN_CYCLES * CHURN_HOT * CHURN_STEP_S)))
    tracker = pram_tracker(run, g.n)
    sizes: List[int] = []
    stats: List[Any] = []
    invalidated = cached = 0.0
    dirty_share: List[float] = []
    rebuilt: List[float] = []
    for i in range(CHURN_CYCLES):
        server, _ = run.call("build", churn_build, g, run.seed * 1000 + i, run.workers, tracker)
        record_pram(run, tracker)
        tracker = None
        if server is None:
            continue
        sizes.append(server.hopset.size)
        blocks = max(server.hopset.structure.num_blocks, 1)
        with run.aside():
            mirror = EdgeMirror(g)
        pending: deque = deque()
        for step in range(steps):
            is_fresh = step < 2 or step % 2 == 1
            batch = next(fresh) if is_fresh else pending.popleft()
            before = len(server.cached_sources())
            info, _ = run.call("update", server.apply_updates, batch)
            if info is None:
                break  # the failure is counted; the server's graph is now unknown
            if is_fresh:
                pending.append(info["inverse"])
            mirror.apply(batch)
            invalidated += info["invalidated_rows"]
            cached += before
            dirty_share.append(info["dirty_blocks"] / blocks)
            rebuilt.append(info["rebuilt_edges"])
            s, t = int(hot[step % CHURN_HOT]), int(rng.integers(g.n))
            ans, _ = run.call("query", server.query, s, t)
            check_churn(run, server, mirror, rng, s, t, ans)
        stats.append(server.stats)
        del server
    run.end_window()

    up, q = run.timings["update"], run.timings.get("query", [])
    run.figures["build_s"] = run.median("build")
    run.figures["op_p50_ms"] = 1e3 * statistics.median(up)
    run.figures["throughput"] = len(q) / max(sum(q), 1e-12)
    run.figures["output_size_ratio"] = float(np.mean(sizes)) / g.m
    run.figures["update_p50_ms"] = run.figures["op_p50_ms"]
    run.figures["query_p50_ms"] = 1e3 * statistics.median(q) if q else 0.0
    run.figures["qps"] = run.figures["throughput"]
    run.figures["hopset_edges_per_m"] = run.figures["output_size_ratio"]

    def total(field: str) -> int:
        return sum(getattr(st, field) for st in stats)

    hits, misses = total("cache_hits"), total("cache_misses")
    run.layer["serve.cache_hit_ratio"] = hits / max(hits + misses, 1)
    run.layer["serve.kernel_runs_per_request"] = total("kernel_runs") / max(total("queries"), 1)
    run.layer["serve.invalidated_share"] = invalidated / max(cached, 1)
    run.layer["kernels.rounds_per_row"] = total("rounds") / max(total("kernel_calls"), 1)
    run.layer["kernels.arcs_per_row"] = total("arcs") / max(total("kernel_runs"), 1)
    run.layer["dynamic.dirty_block_share"] = float(np.mean(dirty_share)) if dirty_share else 0.0
    run.layer["dynamic.rebuilt_edges"] = float(np.mean(rebuilt)) if rebuilt else 0.0


def check_churn(run: Run, server: DistanceServer, mirror: EdgeMirror,
                rng: np.random.Generator, s: int, t: int, ans: Optional[float]) -> None:
    """After each step: Definition 2.4 on a sample of hopset edges; the
    served answer; and every row the server still caches (the queried
    one, plus any the update failed to evict) against Dijkstra on the
    oracle's own copy of the updated graph."""
    hs = server.hopset
    with run.aside():
        srcs = np.unique(hs.eu[rng.integers(hs.size, size=CHURN_DEF24_SOURCES)]) \
            if hs.size else np.empty(0, np.int64)
        rows = np.array(server.cached_sources(), dtype=np.int64)
        D = dijkstra(mirror.matrix(), directed=False, indices=np.concatenate([srcs, rows]))

    def def24() -> bool:
        sel = np.isin(hs.eu, srcs)
        idx = np.searchsorted(srcs, hs.eu[sel])
        true_d = D[idx, hs.ev[sel]]
        return bool(not (hs.ew[sel] < true_d - 1e-9 * np.maximum(1.0, true_d)).any())

    def served() -> bool:
        ok = True
        for i, r in enumerate(rows.tolist()):
            row = D[srcs.shape[0] + i]
            ok &= same_row(server, r, row)
            if r == s:
                ok &= ans is not None and bool(np.isclose(ans, row[t], rtol=1e-9, atol=0))
        return ok and s in rows

    run.check("Definition 2.4 on sampled hopset edges", def24)
    run.check("served rows after the update equal Dijkstra", served)


# ----------------------------------------------------------------------
# spanner-gnm and ctree-ba: closed loops of builds
# ----------------------------------------------------------------------
def spanner_gnm(run: Run, path: str) -> None:
    g = setup(run, path)
    rng = np.random.default_rng([run.seed, 2])
    kept: List[float] = []
    stretches: List[float] = []
    i = 0
    while run.more():
        tracker = pram_tracker(run, g.n) if i == 0 else None
        sp, dt = run.call("build", weighted_spanner, g, SPANNER_K, seed=run.seed * 1000 + i,
                          workers=run.workers, tracker=tracker)
        run.measured += dt
        if i == 0:
            record_pram(run, tracker)
        i += 1
        if sp is None:
            continue
        kept.append(sp.size / g.m)

        def within(sp: Any = sp) -> bool:
            stretches.append(spanner_stretch(g, sp.edge_ids, rng))
            return stretches[-1] <= sp.stretch_bound + 1e-9

        run.check("spanner stretch within the certified bound", within)
    run.end_window()
    finish_builds(run, g, float(np.mean(kept)) if kept else 0.0)
    run.figures["spanner_kept_fraction"] = run.figures["output_size_ratio"]
    run.figures["spanner_max_stretch"] = max(stretches, default=0.0)


def spanner_stretch(g: Any, edge_ids: np.ndarray, rng: np.random.Generator) -> float:
    """Max stretch over every input edge at a few seeded vertices."""
    h = scipy_graph(g.n, g.edge_u[edge_ids], g.edge_v[edge_ids], g.edge_w[edge_ids])
    src = rng.choice(g.n, size=STRETCH_SOURCES, replace=False)
    D = dijkstra(h, directed=False, indices=src)
    worst = 1.0
    for i, s in enumerate(src):
        sel = (g.edge_u == s) | (g.edge_v == s)
        other = np.where(g.edge_u[sel] == s, g.edge_v[sel], g.edge_u[sel])
        if other.size:
            worst = max(worst, float((D[i, other] / g.edge_w[sel]).max()))
    return worst


def ctree_ba(run: Run, path: str) -> None:
    g = setup(run, path)
    sizes: List[float] = []
    expansions: List[float] = []
    i = 0
    while run.more():
        tracker = pram_tracker(run, g.n) if i == 0 else None
        tree, dt = run.call("build", build_cluster_tree, g, CTREE_REQUIREMENT,
                            seed=run.seed * 1000 + i, workers=run.workers, tracker=tracker)
        run.measured += dt
        if i == 0:
            record_pram(run, tracker)
        i += 1
        if tree is None:
            continue
        sizes.append(tree.num_nodes / g.n)
        expansions.append(sum(1 for nd in tree.nodes.values() if nd.children))

        def valid(tree: Any = tree) -> bool:
            tree.validate()
            return True

        run.check("ClusterTree.validate", valid)
        run.check("every leaf is well connected", lambda tree=tree: leaves_ok(g, tree))
    run.end_window()
    finish_builds(run, g, float(np.mean(sizes)) if sizes else 0.0)
    run.layer["ctree.expansions"] = float(np.mean(expansions)) if expansions else 0.0


def leaves_ok(g: Any, tree: Any) -> bool:
    """Recompute each leaf's induced subgraph from the graph itself:
    connected, and internal min degree above ``log10(size)``."""
    scale = float(tree.requirement.split(":")[1]) if ":" in tree.requirement else 1.0
    leaf = np.full(g.n, -1, dtype=np.int64)
    leaves = tree.leaves()
    size = np.zeros(len(leaves), dtype=np.int64)
    for j, nd in enumerate(leaves):
        leaf[nd.vertices] = j
        size[j] = nd.vertices.shape[0]
    inside = leaf[g.edge_u] == leaf[g.edge_v]
    u, v = g.edge_u[inside], g.edge_v[inside]
    deg = np.bincount(np.concatenate([u, v]), minlength=g.n)
    min_deg = np.full(len(leaves), np.iinfo(np.int64).max)
    np.minimum.at(min_deg, leaf, deg)
    big = size > 1
    if (min_deg[big] <= scale * np.log10(size[big])).any():
        return False
    _, comp = connected_components(scipy_graph(g.n, u, v, np.ones(u.shape[0])), directed=False)
    pairs = np.unique(np.stack([leaf, comp], axis=1), axis=0)
    return pairs.shape[0] == len(leaves)


def finish_builds(run: Run, g: Any, size_ratio: float) -> None:
    builds = run.timings["build"]
    run.figures["build_s"] = statistics.median(builds)
    run.figures["op_p50_ms"] = 1e3 * run.figures["build_s"]
    run.figures["throughput"] = g.m / run.figures["build_s"]
    run.figures["output_size_ratio"] = size_ratio


PIPELINES: Dict[str, Callable[[Run, str], None]] = {
    "serve-rgg": serve_rgg,
    "spanner-gnm": spanner_gnm,
    "churn-rgg": churn_rgg,
    "ctree-ba": ctree_ba,
}

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, workers: int,
                 trace: bool, run_py: str) -> Run:
    path = ensure_graph(WORKLOAD_GRAPH[workload], seed, run_py)
    tracer = Tracer() if trace else None
    run = Run(workload=workload, seed=seed, seconds=seconds, workers=workers, tracer=tracer)
    if tracer is not None:
        tracer.install()
    try:
        PIPELINES[workload](run, path)
    except Exception as exc:  # reported in the result line, not as a traceback
        run.fail(f"{workload}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.figures["peak_rss_mb"] = peak_rss_mb()
    run.figures["error_rate"] = run.failed / max(run.attempted, 1)
    if tracer is not None:
        layer_metrics(run, tracer, path)
    return run


def layer_metrics(run: Run, tracer: Tracer, path: str) -> None:
    """Fold the spans into the per-layer figures."""
    stats = tracer.layer_stats()
    for name, _mod, _attr, runs_of in LAYER_TARGETS:
        s = stats.get(name, {})
        run.layer[f"{name}_s"] = s.get("s", 0.0)
        run.layer[f"{name}_calls"] = s.get("calls", 0.0)
        if runs_of is not None:
            run.layer[f"{name}_runs"] = s.get("runs", 0.0)
    for top in ("request", "query"):
        if top in stats:
            run.layer["serve.query_self_s"] = stats[top]["self_s"]
    run.layer["trace.missing_layers"] = float(len(tracer.missing))
    run.layer["trace.coverage"] = tracer.top_level_seconds() / max(run.window_wall, 1e-12)
    # the untraced run would have spent the window minus what the spans cost
    spans_cost = len(tracer.spans) * tracer.span_cost()
    run.layer["trace.overhead_ratio"] = run.window_wall / max(run.window_wall - spans_cost, 1e-12)
    if run.ref_sources:
        reference_rows(run, gio.load_edgelist_binary(path), run.ref_sources)
    os.makedirs(CACHE, exist_ok=True)
    tracer.dump(os.path.join(CACHE, f"trace-{run.workload}-s{run.seed}.jsonl"))
