"""Derived-column memoisation: eviction order, anchors, bounds, counters,
and the cross-cell reuse it buys a paper sweep."""

from __future__ import annotations

import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evalx.registry import run_experiment
from repro.isa.table import TaskTable
from repro.synth import workloads
from repro.utils import windows
from repro.utils.memo import DerivedColumnCache, memo_counters


class _Anchor:
    """A weak-referenceable anchor object."""


def _value(n_bytes: int) -> np.ndarray:
    return np.zeros(n_bytes, dtype=np.uint8)


def _cached(cache, anchor, tag) -> bool:
    """Whether a lookup hits; a miss caches an empty (zero-byte) value."""
    built = []
    cache.get((anchor,), tag, lambda: built.append(tag))
    return not built


class TestRecencyOrder:
    def test_eviction_takes_the_least_recently_used(self):
        cache = DerivedColumnCache(max_bytes=300)
        anchors = [_Anchor() for _ in range(4)]
        for i, anchor in enumerate(anchors[:3]):
            cache.get((anchor,), i, lambda: _value(100))
        # Refresh 0: the least recently used entry is now 1.
        cache.get((anchors[0],), 0, lambda: _value(100))
        cache.get((anchors[3],), 3, lambda: _value(100))
        assert not _cached(cache, anchors[1], 1)

    def test_hits_keep_an_entry_alive_under_pressure(self):
        cache = DerivedColumnCache(max_bytes=200)
        keep = _Anchor()
        cache.get((keep,), "keep", lambda: _value(100))
        fillers = [_Anchor() for _ in range(10)]
        for i, filler in enumerate(fillers):
            cache.get((filler,), i, lambda: _value(100))
            assert _cached(cache, keep, "keep")


class TestAnchors:
    def test_recycled_id_never_serves_another_anchors_value(self):
        cache = DerivedColumnCache(max_bytes=1000)
        old, fresh = _Anchor(), _Anchor()
        cache.get((old,), "tag", lambda: _value(100))
        # File the entry under ``fresh``'s id, as if ``old`` had died
        # and its id been recycled: the stored weakref must not match.
        entries = cache._entries
        entries[((id(fresh),), "tag")] = entries.pop(((id(old),), "tag"))
        assert cache.get((fresh,), "tag", lambda: "new") == "new"
        assert cache._bytes == 0

    def test_entry_is_dropped_when_its_anchor_dies(self):
        cache = DerivedColumnCache(max_bytes=1000)
        anchor, other = _Anchor(), _Anchor()
        cache.get((anchor, other), "tag", lambda: _value(100))
        assert cache._bytes == 100
        del anchor
        gc.collect()
        assert cache._bytes == 0
        assert not cache._entries

    def test_unweakrefable_anchor_bypasses_the_cache(self):
        cache = DerivedColumnCache()
        builds = []
        for _ in range(2):
            value = cache.get((7, "text"), "tag", lambda: builds.append(1))
            assert value is None
        assert len(builds) == 2
        assert not cache._entries


class TestByteBound:
    def test_evicts_until_the_new_value_fits(self):
        cache = DerivedColumnCache(max_bytes=250)
        anchors = [_Anchor() for _ in range(3)]
        for i, anchor in enumerate(anchors):
            cache.get((anchor,), i, lambda: _value(100))
        assert cache._bytes == 200
        assert not _cached(cache, anchors[0], 0)
        assert _cached(cache, anchors[1], 1)
        assert _cached(cache, anchors[2], 2)

    def test_tuple_values_count_every_array(self):
        cache = DerivedColumnCache(max_bytes=1000)
        anchor = _Anchor()
        cache.get((anchor,), "pair", lambda: (_value(100), _value(50)))
        assert cache._bytes == 150

    def test_value_larger_than_the_budget_is_not_kept(self):
        cache = DerivedColumnCache(max_bytes=100)
        small, big = _Anchor(), _Anchor()
        cache.get((small,), "small", lambda: _value(60))
        value = cache.get((big,), "big", lambda: _value(101))
        assert value.nbytes == 101
        assert not _cached(cache, big, "big")
        # Nothing was evicted to make room for a value that never fits.
        assert _cached(cache, small, "small")
        assert cache._bytes == 60


class TestAdmitOnRepeat:
    def test_value_is_kept_from_the_second_request(self):
        cache = DerivedColumnCache(admit_on_repeat=True)
        anchor = _Anchor()
        builds = []

        def build():
            builds.append(1)
            return _value(10)

        first = cache.get((anchor,), "tag", build)
        assert cache._bytes == 0
        second = cache.get((anchor,), "tag", build)
        third = cache.get((anchor,), "tag", build)
        assert len(builds) == 2
        assert third is second and second is not first
        assert cache._bytes == 10


class TestCounters:
    def test_hits_misses_and_evictions_are_counted(self):
        cache = DerivedColumnCache(max_bytes=100)
        a, b = _Anchor(), _Anchor()
        before = memo_counters()
        cache.get((a,), "t", lambda: _value(100))
        cache.get((a,), "t", lambda: _value(100))
        cache.get((b,), "t", lambda: _value(100))
        after = memo_counters()
        delta = {k: after[k] - before[k] for k in after}
        assert delta == {
            "memo_hits": 1,
            "memo_misses": 2,
            "memo_evictions": 1,
        }

    def test_snapshot_is_a_copy(self):
        snapshot = memo_counters()
        snapshot["memo_hits"] += 5
        assert memo_counters() != snapshot


class TestPathGroupingReuse:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=50),
        st.lists(st.integers(0, 12), min_size=1, max_size=6),
    )
    def test_any_depth_order_keys_the_exact_path(self, addrs, depths):
        """Windows cached for one depth build another depth's grouping
        exactly: equal ids iff equal (address, preceding path) keys."""
        column = np.array(addrs, dtype=np.int64)
        for depth in depths:
            ids = windows.group_by_path(column, depth).tolist()
            keys = [
                (addr, tuple(addrs[max(0, i - depth) : i]))
                for i, addr in enumerate(addrs)
            ]
            id_of = dict(zip(keys, ids))
            assert len(id_of) == len(set(ids))
            assert [id_of[key] for key in keys] == ids


class TestCrossCellReuse:
    """A figure 6 sweep keys its 70 cells by 10 path groupings of one
    gcc trace: each grouping (one factorize pass, see ``group_by_path``)
    and the trace's header rows, which give its exit-count column, are
    built once."""

    def test_figure6_builds_each_grouping_once(self, monkeypatch):
        monkeypatch.setattr(workloads, "_trace_cache", {})
        builds = {"path": 0, "exit_counts": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                builds[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            windows, "factorize", counting("path", windows.factorize)
        )
        monkeypatch.setattr(
            TaskTable,
            "_rows",
            counting("exit_counts", TaskTable._rows),
        )
        result = run_experiment("figure6", n_tasks=1_500)
        assert len(result.data["depths"]) == 10
        assert builds == {"path": 10, "exit_counts": 1}
