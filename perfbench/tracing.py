"""In-memory span tracer and the layer wrappers of the traced run.

A span is ``(id, parent, root, name, start, end, runs)``: ``parent`` is
the span open on the same thread when it began (``-1`` at top level)
and ``root`` the id of its top-level span, so every span of one request
shares that request's ``root``.  Spans stay in memory and are written
once, by :meth:`Tracer.dump`, when the run ends.

Layer wrappers are installed at every name a caller imports: for a
module-level function, each loaded ``repro.*`` module attribute that is
the original object is replaced; for a method, the class attribute is.
A wrapper passes arguments and results through untouched.  A target
that no longer exists is recorded in :attr:`Tracer.missing` instead of
raising, so the benchmark keeps running against a refactored tree.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


def _hop_runs(args: tuple, kwargs: dict) -> int:
    run_ptr = kwargs.get("run_ptr", args[5] if len(args) > 5 else None)
    return 0 if run_ptr is None else len(run_ptr) - 1


def _batch_runs(args: tuple, kwargs: dict) -> int:
    sources = kwargs.get("sources", args[1] if len(args) > 1 else None)
    try:
        return len(sources)
    except TypeError:
        return 1


# (layer name, module, attribute, run counter): ``attribute`` is
# ``"Class.method"`` for methods; the run counter, when given, maps the
# call's (args, kwargs) to the number of independent searches it carries.
LAYER_TARGETS: List[Tuple[str, str, str, Optional[Callable[[tuple, dict], int]]]] = [
    ("graph.load", "repro.graph.io", "load_edgelist_binary", None),
    ("graph.induced_subgraph_forest", "repro.graph.builders", "induced_subgraph_forest", None),
    ("graph.quotient_forest", "repro.graph.quotient", "quotient_forest", None),
    ("graph.union_edges", "repro.graph.unionfind", "UnionFind.union_edges", None),
    ("clustering.est_cluster_forest", "repro.clustering.est", "est_cluster_forest", None),
    ("clustering.est_cluster", "repro.clustering.est", "est_cluster", None),
    ("paths.shortest_paths_batch", "repro.paths.engine", "shortest_paths_batch", _batch_runs),
    ("kernels.hop_sssp_batch", "repro.kernels.numpy_kernel", "hop_sssp_batch", _hop_runs),
    ("hopsets.union_csr", "repro.hopsets.result", "HopsetResult.union_csr", None),
    ("dynamic.apply_batch", "repro.dynamic.batch", "apply_batch", None),
    ("dynamic.repair_hopset", "repro.dynamic.hopset", "repair_hopset", None),
    ("ctree.requirement_check", "repro.ctree.requirements", "WellConnectedRequirement.check", None),
]


class Tracer:
    """Collects spans: :meth:`call` for the benchmark's own calls,
    :meth:`install` for wrappers around the library's functions."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float, int]] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             runs: int = 0, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent, root = stack[-1] if stack else (-1, sid)
        stack.append((sid, root))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, root, name, t0, t1, runs))

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any],
              runs_of: Optional[Callable[[tuple, dict], int]]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            runs = runs_of(args, kwargs) if runs_of is not None else 0
            return tracer.call(name, fn, *args, runs=runs, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, modname, attr, runs_of in LAYER_TARGETS:
            try:
                mod = importlib.import_module(modname)
                owner: Any = mod
                parts = attr.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, runs_of)
            if len(parts) > 1:  # a method: patch the class
                self._undo.append((owner, parts[-1], orig))
                setattr(owner, parts[-1], wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if not (mname == "repro" or mname.startswith("repro.")) or m is None:
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------
    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``s`` (inclusive seconds per top-level span
        that contains the name), ``calls`` (calls per such top-level
        span), ``runs`` (runs per call) and ``self_s`` (self seconds per
        such top-level span: duration minus the child spans)."""
        child_time: Dict[int, float] = defaultdict(float)
        for sid, parent, _root, _n, t0, t1, _r in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        agg: Dict[str, Dict[str, Any]] = {}
        for sid, _parent, root, name, t0, t1, runs in self.spans:
            a = agg.setdefault(
                name, {"t": 0.0, "self": 0.0, "calls": 0, "runs": 0, "roots": set()}
            )
            a["t"] += t1 - t0
            a["self"] += t1 - t0 - child_time.get(sid, 0.0)
            a["calls"] += 1
            a["runs"] += runs
            a["roots"].add(root)
        out: Dict[str, Dict[str, float]] = {}
        for name, a in agg.items():
            roots = max(len(a["roots"]), 1)
            out[name] = {
                "s": a["t"] / roots,
                "self_s": a["self"] / roots,
                "calls": a["calls"] / roots,
                "runs": a["runs"] / max(a["calls"], 1),
            }
        return out

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop() -> None:
            return None

        wrapped = self._wrap("calibration", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        kept = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        cost = time.perf_counter() - t0 - bare
        del self.spans[kept:]
        return max(cost, 0.0) / calls

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _s, parent, _r, _n, t0, t1, _ru in self.spans
                   if parent < 0)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, root, name, t0, t1, runs in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "request": root,
                                    "name": name, "start": t0, "end": t1,
                                    "runs": runs}) + "\n")
