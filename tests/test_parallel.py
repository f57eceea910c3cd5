"""Unit tests for the worker policy."""

import os

from repro.parallel import effective_workers
import repro.parallel.pool as pool_mod


class TestPool:
    def test_effective_workers_clamped(self):
        assert effective_workers(10**6) <= (os.cpu_count() or 1)
        assert effective_workers(None) >= 1
        assert effective_workers(0) == 1

    def test_all_cores_follows_affinity_mask(self, monkeypatch):
        # a taskset / container cpuset narrower than the machine
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 16)
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert effective_workers(None) == 1
        assert effective_workers(8) == 1
        assert effective_workers(8, oversubscribe=True) == 8

    def test_no_affinity_api_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(pool_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 3)
        assert effective_workers(None) == 3
