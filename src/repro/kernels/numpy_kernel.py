"""Vectorized bucket-relaxation SSSP kernel (numpy backend).

The algorithm is delta-stepping, in two flavors selected by the
``light_heavy`` argument:

Without a split (``light_heavy=None``) tentative distances are grouped
into width-``delta`` buckets; processing a bucket repeatedly relaxes
*all* arcs out of its frontier until no vertex inside the bucket
improves, then moves to the next occupied bucket.  With positive
weights this is exact: once bucket ``[lo, hi)`` reaches its fixpoint no
later relaxation can produce a distance below ``hi`` (every candidate
is ``dist[u] + w > lo`` with ``dist[u] >= lo`` settled), so its members
are final.  With ``delta <= min weight`` each bucket needs exactly one
relaxation round and the schedule degenerates to Dial's algorithm —
the integer-weight "weighted parallel BFS" of Section 5.  This is the
bit-for-bit-preserved integer fast path.

With a split (``light_heavy`` from :func:`split_light_heavy`) the
kernel is true Meyer–Sanders delta-stepping for arbitrary non-negative
real weights: the inner fixpoint loop relaxes only *light* arcs
(``w <= delta`` — the only arcs that can re-enter the current bucket),
and once the bucket settles, a single *heavy* pass relaxes the heavy
arcs of every vertex the bucket settled.  A heavy candidate is
``dist[u] + w > lo + delta = hi``, so it can never fall back into the
bucket — one heavy round per bucket suffices, and the wasted
re-relaxation of heavy arcs inside the fixpoint loop disappears.  The
ledger charges every light iteration and the heavy pass as separate
relaxation rounds, keeping the PRAM depth accounting honest.

Every relaxation round is one batched gather/scatter over all frontier
arcs — the same expand + lexsort claim-resolution idiom as the parallel
BFS in :mod:`repro.paths.bfs` — so a round is one CRCW PRAM step and
the interpreter executes O(buckets x inner rounds) numpy calls instead
of O(n + m) heap operations.

Concurrent claims on a vertex are resolved deterministically: the
lexicographically smallest ``(candidate distance, owner rank, relaxing
vertex)`` wins, where *rank* is the position of the owning source in
the caller's source array (earlier entries win ties, matching the
reference Dijkstra's documented tie rule).

Threaded mode (``workers``)
---------------------------
With ``workers > 1`` each relaxation round shards its frontier into
contiguous chunks (:func:`repro.parallel.chunking.shard_frontier`) and
gathers candidate relaxations per shard on a ``ThreadPoolExecutor`` —
numpy releases the GIL inside the large gather ops, so shards really
run on separate cores.  Each shard claim-reduces its own candidates
(min ``(candidate, rank, relaxing vertex)`` per claimed state) and the
shard winners are merged by one more pass of the *same* minimum
reduction.  Because that key is a strict total order per claimed state
(two distinct arcs into a state never share their relaxing vertex),
the two-level min equals the serial global min **bit for bit**, for
any shard count — results are independent of ``workers`` and of how
the frontier happened to be split.  All label writes stay on the
coordinating thread; worker threads only read the pre-round snapshot.
Both kernels run their rounds through the one :class:`_ShardedRounds`
helper; each supplies only its own gather and reduction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.parallel.chunking import shard_frontier
from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg, effective_workers

INT_INF = np.iinfo(np.int64).max

# smallest frontier shard worth handing to a thread: below this the
# submit/collect overhead beats the gather's GIL-released work
PAR_MIN_SHARD = 2048


def count_occupied_buckets(dist: np.ndarray, mask: np.ndarray, delta: float) -> int:
    """Distinct width-``delta`` distance bands among ``dist[mask]``.

    Sequential backends (heapq reference, numba heap) reconstruct
    their bucket ledger from the final labeling with this — the depth
    the equivalent bucket schedule would take.
    """
    reached = dist[mask]
    if reached.shape[0] == 0:
        return 0
    return int(np.unique((reached // float(delta)).astype(np.int64)).shape[0])


def suggest_delta(n: int, num_arcs: int, max_weight: float) -> float:
    """Default bucket width for real-weight delta-stepping:
    ``max_weight / average degree`` (the Meyer–Sanders heuristic — the
    expected light arcs per vertex stay O(1) per bucket while the
    bucket count stays within a degree factor of the distance range).
    Falls back to 1.0 for empty or degenerate weight distributions.
    The single source of truth behind both
    :meth:`repro.graph.csr.CSRGraph.suggest_delta` and the engine's
    explicit-weights path.
    """
    if num_arcs == 0 or n == 0:
        return 1.0
    delta = max_weight / max(num_arcs / n, 1.0)
    if not np.isfinite(delta) or delta <= 0:
        return 1.0
    return float(delta)


def split_light_heavy(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    delta: float,
) -> Tuple[np.ndarray, ...]:
    """Partition a CSR adjacency into light (``w <= delta``) and heavy
    (``w > delta``) sub-CSRs.

    Returns ``(l_indptr, l_indices, l_weights, h_indptr, h_indices,
    h_weights)``.  CSR slots are grouped by source vertex, so masking
    preserves each vertex's adjacency order and the sub-structures are
    valid CSRs over the same vertex ids.  One O(m) pass; callers cache
    the result per ``(graph, delta)`` (see
    :meth:`repro.graph.csr.CSRGraph.light_heavy_split`).
    """
    n = indptr.shape[0] - 1
    weights = np.asarray(weights)
    light = weights <= delta
    arc_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    out = []
    for mask in (light, ~light):
        counts = np.bincount(arc_src[mask], minlength=n)
        sub_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        out.extend((sub_indptr, indices[mask], weights[mask]))
    return tuple(out)


def expand_frontier(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All CSR slots out of ``frontier``: returns (arc_index, arc_source).

    Per-vertex adjacency ranges are flattened with a repeat +
    cumulative-offset trick (no Python loop over vertices).
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    arc_index = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
    arc_source = np.repeat(frontier, counts)
    return arc_index, arc_source


#: ``(winners, arcs)``: a tuple of claim-reduced arrays (``None`` when
#: nothing improved) and the arcs gathered — what a shard gather returns
RoundResult = Tuple[Optional[Tuple[np.ndarray, ...]], int]


class _ShardedRounds:
    """The relaxation-round runner shared by both kernels.

    :meth:`map` runs one round's gather over a frontier: inline when
    the frontier is small or one worker is in effect, otherwise split
    by :func:`shard_frontier` and gathered on a thread pool.  The pool
    is created on the first shardable frontier — batched builders issue
    many kernel calls whose frontiers never reach the threshold, and
    those must not pay pool churn — and shut down on exit.
    """

    def __init__(self, workers: WorkersArg):
        self.nw = effective_workers(workers, oversubscribe=True)
        self._pool: Optional[ThreadPoolExecutor] = None

    def map(
        self,
        gather: Callable[..., RoundResult],
        frontier: np.ndarray,
        merge: Callable[..., Tuple[np.ndarray, ...]],
        *args: Any,
    ) -> RoundResult:
        """``gather(shard, *args)`` over the frontier's shards, the
        non-empty shard winners concatenated column by column and
        reduced once more by ``merge`` (the kernel's own associative
        reduction, so any shard layout yields the serial result)."""
        if self.nw == 1 or frontier.shape[0] < 2 * PAR_MIN_SHARD:
            return gather(frontier, *args)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.nw)
        shards = shard_frontier(frontier, self.nw, PAR_MIN_SHARD)
        parts = list(self._pool.map(lambda s: gather(s, *args), shards))
        arcs = sum(p[1] for p in parts)
        kept = [p[0] for p in parts if p[0] is not None]
        if len(kept) <= 1:
            return (kept[0] if kept else None), arcs
        return merge(*(np.concatenate(col) for col in zip(*kept))), arcs

    def __enter__(self) -> "_ShardedRounds":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)


def hop_sssp_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    run_src: np.ndarray,
    run_ptr: np.ndarray,
    h: int,
    workers: WorkersArg = DEFAULT_WORKERS,
    state: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]] = None,
) -> Tuple[np.ndarray, np.ndarray, List[int], np.ndarray]:
    """Source-tagged batch of ``k`` frontier-based h-hop Bellman–Ford runs.

    The query-side twin of :func:`bucket_sssp_batch`: run ``r`` is the
    multi-source *hop-limited* search seeded at distance 0 by
    ``run_src[run_ptr[r]:run_ptr[r+1]]`` on the composite state space
    ``r * n + v``, and every synchronous round is one batched
    gather/scatter over the frontier arcs of **all** runs at once.
    Unlike dense synchronous Bellman–Ford (which relaxes every arc
    every round), round ``t`` gathers only from states improved in
    round ``t - 1`` — by synchronous semantics an unimproved state's
    out-arcs were already fully applied, so skipping them changes
    nothing.  Per run the result equals
    :func:`repro.paths.bellman_ford.hop_limited_distances` on the same
    arcs: ``dist`` is the minimum weight over paths of at most ``h``
    arcs and ``hops`` the round each value stabilized.

    ``workers`` shards each round's frontier
    (:func:`repro.parallel.chunking.shard_frontier`) onto a thread
    pool exactly like the bucket kernel; the per-shard reduction is a
    plain min per claimed state, so results are identical for every
    worker count.

    ``state`` warm-starts the loop: pass the ``(dist, hops, frontier,
    rounds_done)`` of a previous call with a smaller budget and rounds
    ``rounds_done + 1 .. h`` run as if the call had been issued with
    budget ``h`` from the start (the budget-``h`` prefix of a
    synchronous schedule is history-independent).  The arrays are
    updated in place and returned.

    Returns ``(dist, hops, round_arcs, frontier)``: flat ``k * n``
    label arrays, the arcs gathered by each executed round (the PRAM
    work ledger — ``len(round_arcs)`` rounds ran in this call), and
    the composite states improved in the final round (empty iff the
    search converged: no deeper budget can change anything).
    """
    run_src = np.asarray(run_src, dtype=np.int64)
    run_ptr = np.asarray(run_ptr, dtype=np.int64)
    weights = np.asarray(weights).astype(np.float64, copy=False)
    k = run_ptr.shape[0] - 1
    single = k == 1
    nn = k * n

    if state is None:
        dist = np.full(nn, np.inf, dtype=np.float64)
        hops = np.zeros(nn, dtype=np.int64)
        if run_src.shape[0]:
            if single:
                comp = np.unique(run_src)
            else:
                run_of = np.repeat(np.arange(k, dtype=np.int64), np.diff(run_ptr))
                comp = np.unique(run_of * n + run_src)
            dist[comp] = 0.0
            frontier = comp
        else:
            frontier = np.empty(0, dtype=np.int64)
        r = 0
    else:
        dist, hops, frontier, r = state

    round_arcs: List[int] = []

    def _reduce_min(
        nbr: np.ndarray, cand: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One winner (the minimum candidate) per distinct claimed state.
        Min is associative, so per-shard reduction + one merge pass over
        shard winners equals a single global pass for any shard layout."""
        sel = np.lexsort((cand, nbr))
        nbr_s, cand_s = nbr[sel], cand[sel]
        first = np.empty(nbr_s.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(nbr_s[1:], nbr_s[:-1], out=first[1:])
        return nbr_s[first], cand_s[first]

    def _gather_hop_shard(shard: np.ndarray) -> RoundResult:
        """Improving candidates out of one contiguous frontier shard,
        claim-reduced, against the pre-round snapshot (pure reads)."""
        vv = shard if single else shard % n
        starts = indptr[vv]
        counts = indptr[vv + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return None, 0
        arc_off = np.repeat(np.cumsum(counts) - counts, counts)
        arc_idx = np.arange(total, dtype=np.int64) - arc_off + np.repeat(starts, counts)
        if single:
            nbr = indices[arc_idx]
        else:
            nbr = np.repeat(shard - vv, counts) + indices[arc_idx]
        cand = np.repeat(dist[shard], counts) + weights[arc_idx]
        improving = cand < dist[nbr]
        if not improving.any():
            return None, total
        return _reduce_min(nbr[improving], cand[improving]), total

    with _ShardedRounds(workers) as runner:
        while r < h and frontier.shape[0]:
            r += 1
            win, total = runner.map(_gather_hop_shard, frontier, _reduce_min)
            round_arcs.append(total)
            if win is None:
                frontier = np.empty(0, dtype=np.int64)
                break
            # all writes on the coordinating thread, after every shard's
            # snapshot reads: the round stays synchronous
            win_v, win_d = win
            dist[win_v] = win_d
            hops[win_v] = r
            frontier = win_v

    return dist, hops, round_arcs, frontier


def bucket_sssp(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    sources: np.ndarray,
    offsets: np.ndarray,
    ranks: np.ndarray,
    delta: Optional[float],
    max_dist: Optional[float] = None,
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
    workers: WorkersArg = DEFAULT_WORKERS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[int], List[int]]:
    """Multi-source bucket SSSP over raw CSR arrays.

    Parameters
    ----------
    weights, offsets, delta:
        Either all integral (``int64`` distances, Dial semantics) or
        treated as ``float64``.  ``delta`` is the bucket width.
    ranks:
        Tie-break rank per source entry (position in the caller's
        source array).
    max_dist:
        Stop once the next occupied bucket starts beyond this value;
        vertices not settled by then keep their (possibly tentative)
        labels — the caller decides how to report them.
    light_heavy:
        Optional :func:`split_light_heavy` partition at this ``delta``;
        when given, buckets run the light-edge fixpoint loop plus one
        heavy settle pass (real-weight delta-stepping) instead of
        relaxing every arc each round.
    workers:
        Thread count for the sharded relaxation rounds (see the module
        docstring); ``1`` (default) is fully serial, ``None`` uses all
        cores.  Results are identical for every value.

    Returns ``(dist, parent, owner, settled, bucket_work,
    bucket_rounds)``: ``bucket_work[i]`` is the PRAM work (frontier
    arcs, floored at frontier size) spent on the i-th processed bucket
    and ``bucket_rounds[i]`` its relaxation-round count.

    Implemented as the ``k = 1`` case of :func:`bucket_sssp_batch` (one
    shared relaxation loop; the batch kernel skips all composite-id
    arithmetic for a single run, so this costs nothing extra).
    """
    sources = np.asarray(sources, dtype=np.int64)
    run_ptr = np.asarray([0, sources.shape[0]], dtype=np.int64)
    return bucket_sssp_batch(
        indptr,
        indices,
        weights,
        n,
        sources,
        run_ptr,
        offsets,
        ranks,
        delta,
        max_dist,
        light_heavy,
        workers=workers,
    )


def bucket_sssp_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    run_src: np.ndarray,
    run_ptr: np.ndarray,
    offsets: np.ndarray,
    ranks: np.ndarray,
    delta: Optional[float],
    max_dist: Optional[float] = None,
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
    workers: WorkersArg = DEFAULT_WORKERS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[int], List[int]]:
    """Source-tagged batch of ``k`` independent bucket-SSSP runs.

    Run ``r`` is the multi-source search seeded by
    ``run_src[run_ptr[r]:run_ptr[r+1]]`` with start offsets and
    tie-break ranks from the matching slices of ``offsets``/``ranks``.
    The state space is the composite id ``r * n + v`` — conceptually
    ``k`` disjoint copies of the graph — but the adjacency is read from
    the *single* shared CSR, so every relaxation round is one batched
    gather/scatter over the frontier arcs of **all** runs at once.
    That sharing is the whole point: ``k`` searches progress per
    interpreter round instead of one.  Composites of different runs
    never claim the same state, so runs cannot interact, and each run's
    labels equal a standalone :func:`bucket_sssp` call's.

    Returns flat length-``k*n`` arrays ``(dist, parent, owner, settled,
    bucket_work, bucket_rounds)``; ``parent``/``owner`` hold *vertex*
    ids (not composites) and the caller reshapes to ``(k, n)``.
    ``bucket_work[i]`` is the PRAM work (frontier arcs, floored at
    frontier size) of the i-th processed bucket and ``bucket_rounds[i]``
    its relaxation-round count.

    ``light_heavy`` (a :func:`split_light_heavy` partition of the
    *shared* CSR at this ``delta``) switches buckets to the light-loop
    + heavy-pass schedule; composite ids index the split through
    ``comp % n`` exactly like the full adjacency.  ``workers`` enables
    the thread-sharded relaxation rounds of the module docstring —
    per-run *and* batched frontiers shard the same way, and results
    stay bit-identical for every worker count.
    """
    int_mode = (
        np.issubdtype(np.asarray(weights).dtype, np.integer)
        and np.issubdtype(np.asarray(offsets).dtype, np.integer)
    )
    if int_mode:
        dtype, inf = np.int64, INT_INF
    else:
        dtype, inf = np.float64, np.inf
    weights = np.asarray(weights).astype(dtype, copy=False)
    offsets = np.asarray(offsets).astype(dtype, copy=False)
    run_src = np.asarray(run_src, dtype=np.int64)
    run_ptr = np.asarray(run_ptr, dtype=np.int64)
    ranks = np.asarray(ranks, dtype=np.int64)
    k = run_ptr.shape[0] - 1
    single = k == 1  # composite id == vertex id: skip tag arithmetic
    nn = k * n

    dist = np.full(nn, inf, dtype=dtype)
    rank = np.full(nn, np.iinfo(np.int64).max, dtype=np.int64)
    parent = np.full(nn, -1, dtype=np.int64)
    owner = np.full(nn, -1, dtype=np.int64)
    settled = np.zeros(nn, dtype=bool)
    bucket_work: List[int] = []
    bucket_rounds: List[int] = []
    # uniform-weight fast path (the unweighted/Dial hot case): candidate
    # distances become one scalar add instead of a per-arc gather
    w_const = None
    if weights.shape[0] and (weights == weights[0]).all():
        w_const = weights[0]
    runner = _ShardedRounds(workers)

    def _claim(
        nbr: np.ndarray, src: np.ndarray, cand: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Min ``(cand, rank, src)`` reduction per claimed state: one
        winner per distinct ``nbr``.  The key is a strict total order
        within each state's claims, so applying this per shard and then
        once more over the shard winners equals one global pass."""
        sel = np.lexsort((src, rank[src], cand, nbr))
        nbr_s, src_s, cand_s = nbr[sel], src[sel], cand[sel]
        first = np.empty(nbr_s.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(nbr_s[1:], nbr_s[:-1], out=first[1:])
        return nbr_s[first], src_s[first], cand_s[first]

    def _gather_shard(
        shard: np.ndarray,
        xip: np.ndarray,
        xidx: np.ndarray,
        xw: np.ndarray,
        wc: Optional[float],
    ) -> RoundResult:
        """Claim-reduced improving candidates ``(nbr, src, cand)`` out of
        one contiguous frontier shard, against the pre-round label
        snapshot.  Pure reads — the GIL-releasing half of a round."""
        vv = shard if single else shard % n
        starts = xip[vv]
        counts = xip[vv + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return None, 0
        arc_off = np.repeat(np.cumsum(counts) - counts, counts)
        arc_idx = (
            np.arange(total, dtype=np.int64) - arc_off + np.repeat(starts, counts)
        )
        arc_src = np.repeat(shard, counts)
        if single:
            nbr = xidx[arc_idx]
        else:
            nbr = np.repeat(shard - vv, counts) + xidx[arc_idx]
        if wc is not None:
            cand = dist[arc_src] + wc
        else:
            cand = dist[arc_src] + xw[arc_idx]
        improving = cand < dist[nbr]
        if not improving.any():
            return None, total
        return _claim(nbr[improving], arc_src[improving], cand[improving]), total

    def _relax_round(
        frontier: np.ndarray,
        xip: np.ndarray,
        xidx: np.ndarray,
        xw: np.ndarray,
        wc: Optional[float] = None,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], int]:
        """One claim-resolved relaxation of ``frontier`` over the
        sub-adjacency ``(xip, xidx, xw)``.  Updates the label arrays in
        place; returns ``(win_v, win_d, arcs)`` with ``win_v=None`` when
        nothing improved."""
        win, total = runner.map(_gather_shard, frontier, _claim, xip, xidx, xw, wc)
        if win is None:
            return None, None, total
        win_v, win_p, win_d = win
        dist[win_v] = win_d
        parent[win_v] = win_p if single else win_p % n
        owner[win_v] = owner[win_p]
        rank[win_v] = rank[win_p]
        return win_v, win_d, total

    pending: List[np.ndarray] = []
    if run_src.shape[0]:
        if single:
            comp = run_src
        else:
            run_of = np.repeat(np.arange(k, dtype=np.int64), np.diff(run_ptr))
            comp = run_of * n + run_src
        # best (offset, rank) per distinct composite seeds that run
        sel = np.lexsort((ranks, offsets, comp))
        cs, off_s, rk_s = comp[sel], offsets[sel], ranks[sel]
        first = np.empty(cs.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(cs[1:], cs[:-1], out=first[1:])
        cs, off_s, rk_s = cs[first], off_s[first], rk_s[first]
        dist[cs] = off_s
        owner[cs] = cs if single else cs % n
        rank[cs] = rk_s
        pending.append(cs)

    with runner:
        while pending:
            if len(pending) == 1:
                # single pending array: already duplicate-free (winner
                # masks and seed dedup guarantee it), skip the hash pass
                pend = pending[0]
            else:
                pend = np.unique(np.concatenate(pending))
            pending = []
            pend = pend[~settled[pend]]
            if pend.shape[0] == 0:
                continue
            d_pend = dist[pend]
            d_min = d_pend.min()
            if max_dist is not None and d_min > max_dist:
                pending.append(pend)  # preserved for the caller's cleanup
                break
            hi = (d_min // delta) * delta + delta
            if hi <= d_min:
                # float roundoff at extreme d_min/delta ratios can make the
                # nominal bucket top collapse onto d_min; degrade to a
                # single-value bucket so the frontier is never empty
                hi = np.nextafter(d_min, np.inf)
            in_bucket = d_pend < hi
            frontier = pend[in_bucket]
            if not in_bucket.all():
                pending.append(pend[~in_bucket])

            if light_heavy is not None:
                # real-weight delta-stepping: light fixpoint + one heavy pass
                lip, lidx, lw, hip, hidx, hw = light_heavy
                work = 0
                rounds = 0
                member_chunks: List[np.ndarray] = []
                while frontier.shape[0]:
                    rounds += 1
                    settled[frontier] = True
                    member_chunks.append(frontier)
                    win_v, win_d, arcs = _relax_round(frontier, lip, lidx, lw)
                    work += max(arcs, int(frontier.shape[0]))
                    if win_v is None:
                        break
                    stay = win_d < hi  # improved into this bucket: re-relax now
                    frontier = win_v[stay]
                    if not stay.all():
                        pending.append(win_v[~stay])
                members = (
                    member_chunks[0]
                    if len(member_chunks) == 1
                    else np.unique(np.concatenate(member_chunks))
                )
                if members.shape[0]:
                    # heavy candidates land at >= hi, so one pass settles
                    # the bucket's heavy arcs for good
                    rounds += 1
                    win_v, win_d, arcs = _relax_round(members, hip, hidx, hw)
                    work += max(arcs, int(members.shape[0]))
                    if win_v is not None:
                        pending.append(win_v)
                bucket_work.append(work)
                bucket_rounds.append(rounds)
                continue

            work = 0
            rounds = 0
            while frontier.shape[0]:
                rounds += 1
                settled[frontier] = True
                win_v, win_d, arcs = _relax_round(
                    frontier, indptr, indices, weights, w_const
                )
                work += max(arcs, int(frontier.shape[0]))
                if win_v is None:
                    break
                stay = win_d < hi  # improved into this bucket: re-relax now
                frontier = win_v[stay]
                if not stay.all():
                    pending.append(win_v[~stay])
            bucket_work.append(work)
            bucket_rounds.append(rounds)

    return dist, parent, owner, settled, bucket_work, bucket_rounds
