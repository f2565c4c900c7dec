"""Batched dispatch: whole plan-sharing groups, grouped once by the router.

Every ``(alpha, largest)`` group of a batched dispatch runs whole on one
worker, and the router's group map is the only grouping the workers serve.
The contract is that fleet size is *invisible* in the answers: element-wise
identical values and indices to a single-worker dispatch, on the cold path
and the warm (banked) replay alike, with one construction per group.  The
differential tests hold that line over randomized ``(n, k-mix, largest-mix,
fleet size)`` grids; the remaining tests pin the per-group accounting and
the eviction behaviour for units emitted before their vector was evicted.
"""

from __future__ import annotations

import numpy as np

from repro.core.drtopk import DrTopK
from repro.errors import ConfigurationError
from repro.harness.experiments import _same_alpha_variant
from repro.service.batch import BatchTopK, TopKQuery
from repro.service.cache import PartitionCache
from repro.service.dispatcher import ServiceDispatcher
from repro.service.router import Router

from tests.helpers import assert_topk_correct


def _random_queries(rng, n, size):
    """A batch biased toward one dominant group plus a random remainder."""
    base_k = int(rng.integers(1, max(2, n // 4)))
    queries = [(base_k, True)] * (size - size // 3)
    for _ in range(size // 3):
        queries.append((int(rng.integers(1, n + 1)), bool(rng.integers(0, 2))))
    return queries


def _warm_variant(engine, n, queries):
    """Same-alpha changed ks where one exists (the banked-replay mix)."""
    warm = []
    for k, largest in queries:
        try:
            warm.append((_same_alpha_variant(engine, n, k), largest))
        except ConfigurationError:
            warm.append((k, largest))
    return warm


def _busy_workers(report):
    return sum(1 for w in report.workers if w.queries)


class TestDifferentialEquivalence:
    """A multi-worker dispatch must agree element-wise with one worker."""

    def _assert_identical(self, left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_randomized_grid_cold_and_warm(self, rng):
        engine = DrTopK()
        for trial in range(5):
            n = 1 << int(rng.integers(10, 14))
            workers = int(rng.integers(2, 6))
            v = rng.integers(0, 2**32, size=n, dtype=np.uint32)
            queries = _random_queries(rng, n, size=int(rng.integers(6, 15)))
            warm_queries = _warm_variant(engine, n, queries)
            with ServiceDispatcher(
                num_workers=1, result_cache_capacity=0
            ) as single, ServiceDispatcher(
                num_workers=workers, result_cache_capacity=0
            ) as fleet:
                cold_single = single.dispatch(v, queries)
                cold_fleet = fleet.dispatch(v, queries)
                self._assert_identical(cold_single, cold_fleet)
                cold_report = fleet.last_report
                assert cold_report.groups_split == 0
                assert cold_report.constructions == single.last_report.constructions, (
                    f"trial {trial}: fleet size changed the construction count"
                )
                # Warm replay: changed ks keying the same banked plans.
                warm_single = single.dispatch(v, warm_queries)
                warm_fleet = fleet.dispatch(v, warm_queries)
                self._assert_identical(warm_single, warm_fleet)
                report = fleet.last_report
                assert report.constructions == 0, (
                    f"trial {trial}: warm replay on {workers} workers reconstructed"
                )
                assert report.construction_bytes == 0.0
                assert report.plan_bank_hits > 0
            for res, (k, largest) in zip(cold_fleet, queries):
                assert_topk_correct(res, v, k, largest=largest)

    def test_degenerate_groups_match_single_worker(self, rng):
        # ks near n force the degenerate regime (no delegate construction):
        # the plain-top-k fallback must agree across fleet sizes too.
        n = 1 << 10
        v = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        queries = [(n - 1, True)] * 4 + [(n // 2 + 1, False)] * 2
        with ServiceDispatcher(
            num_workers=1, result_cache_capacity=0
        ) as single, ServiceDispatcher(num_workers=3, result_cache_capacity=0) as fleet:
            self._assert_identical(single.dispatch(v, queries), fleet.dispatch(v, queries))
            assert fleet.last_report.constructions == 0

    def test_single_worker_fleet(self, rng):
        n = 1 << 10
        v = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        with ServiceDispatcher(num_workers=1, result_cache_capacity=0) as d:
            results = d.dispatch(v, [(16, True)] * 6)
            assert d.last_report.groups_split == 0
            assert d.last_report.constructions == 1
            for res in results:
                assert_topk_correct(res, v, 16)


class TestWholeGroupAccounting:
    def test_dominant_group_stays_whole_with_one_construction(self, uniform_u32):
        # A dominant group (9 of 11 queries share one plan) stays on one
        # worker; the minor group goes to another, and each constructs once.
        queries = [(64, True)] * 9 + [(64, False)] * 2
        with ServiceDispatcher(num_workers=4, result_cache_capacity=0) as d:
            d.dispatch(uniform_u32, queries)
            report = d.last_report
            assert report.groups_split == 0
            assert report.constructions == 2
            assert _busy_workers(report) == 2
            assert sorted(w.queries for w in report.workers if w.queries) == [2, 9]

    def test_without_plan_bank_still_constructs_once(self, uniform_u32):
        # No bank: the one group still constructs once, on its one worker.
        queries = [(128, True)] * 8
        with ServiceDispatcher(
            num_workers=4,
            result_cache_capacity=0,
            plan_bank_bytes=0,
        ) as d:
            results = d.dispatch(uniform_u32, queries)
            report = d.last_report
            assert report.constructions == 1
            assert _busy_workers(report) == 1
            for res in results:
                assert_topk_correct(res, uniform_u32, 128)

    def test_pending_units_survive_eviction_cascade(self, uniform_u32):
        """evict(name) between emitting a batch's units and running them.

        The cascade must release the banked bytes immediately (observable in
        the bank's ``CacheInfo``), while the pending units still answer
        exactly from the vector they were handed.
        """
        expected = DrTopK().topk(uniform_u32, 64)
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            entry = d.admit("hot", uniform_u32.copy(), warm=[(64, True)])
            parsed = [TopKQuery.of((64, True))] * 4
            units, plan = d.router.batched_units(
                entry.vector, parsed, d.workers, fingerprint=entry.fingerprint
            )
            ((_alpha, largest),) = plan.groups
            assert largest is True
            assert len(units) == 1
            assert d.plan_bank is not None
            bytes_before = d.plan_bank.info().bytes
            assert bytes_before > 0
            assert d.evict("hot")
            assert d.plan_bank.info().bytes < bytes_before
            positions, results, _report = units[0].fn()
            assert positions == [0, 1, 2, 3]
            for res in results:
                np.testing.assert_array_equal(res.values, expected.values)
                np.testing.assert_array_equal(res.indices, expected.indices)

    def test_warm_named_query_is_zero_rescan(self, uniform_u32):
        # The named front end on a multi-worker fleet: a warm query records
        # zero constructions, zero construction bytes and zero fingerprint
        # work.
        from repro.service.cache import fingerprint_call_count

        n = uniform_u32.shape[0]
        warm_k = _same_alpha_variant(DrTopK(), n, 64)
        with ServiceDispatcher(num_workers=4, result_cache_capacity=0) as d:
            d.admit("hot", uniform_u32.copy(), warm=[(64, True)])
            before = fingerprint_call_count()
            results = d.query("hot", [(warm_k, True)] * 8)
            report = d.last_report
            assert fingerprint_call_count() == before
            assert report.groups_split == 0
            assert report.constructions == 0
            assert report.construction_bytes == 0.0
            assert report.plan_bank_hits > 0
            for res in results:
                assert_topk_correct(res, uniform_u32, warm_k)


class TestRouterGroupMap:
    def test_group_map_partitions_and_places_whole(self, rng):
        # Over random batches and fleet sizes, the plan's group map covers
        # every query position exactly once, and every group lands whole on
        # exactly one worker's placement.
        engine = DrTopK()
        for _ in range(10):
            n = 1 << int(rng.integers(10, 14))
            workers = int(rng.integers(1, 6))
            router = Router(num_workers=workers, capacity_elements=1 << 16, cache=PartitionCache())
            v = rng.integers(0, 2**32, size=n, dtype=np.uint32)
            parsed = [TopKQuery.of(q) for q in _random_queries(rng, n, int(rng.integers(1, 15)))]
            plan = router.plan_batched(v, parsed, engine)
            members = sorted(p for positions in plan.groups.values() for p in positions)
            assert members == list(range(len(parsed)))
            placed = sorted(p for positions in plan.placement for p in positions)
            assert placed == list(range(len(parsed)))
            for positions in plan.groups.values():
                owners = {w for w, share in enumerate(plan.placement) if set(positions) & set(share)}
                assert len(owners) == 1
                (owner,) = owners
                assert set(positions) <= set(plan.placement[owner])

    def test_router_groups_match_self_grouping(self, rng):
        # A worker served the router's group slice answers exactly as a
        # stand-alone BatchTopK that groups the same queries itself.
        n = 1 << 12
        v = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        queries = [(8, True), (32, False), (8, True), (500, True), (32, False)]
        parsed = [TopKQuery.of(q) for q in queries]
        router = Router(num_workers=2, capacity_elements=1 << 16, cache=PartitionCache())
        workers = [BatchTopK(cache=router.cache) for _ in range(2)]
        units, _plan = router.batched_units(v, parsed, workers)
        served = {}
        for unit in units:
            positions, results, _report = unit.fn()
            served.update(zip(positions, results))
        assert sorted(served) == list(range(len(queries)))
        reference = BatchTopK(cache=PartitionCache()).run(v, queries)
        for p, ref in enumerate(reference):
            np.testing.assert_array_equal(served[p].values, ref.values)
            np.testing.assert_array_equal(served[p].indices, ref.indices)
