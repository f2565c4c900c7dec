"""Stream-level floor filtering on the streaming route.

The dispatcher primes a floor — the k-th value of each key order's
``K = max(k)`` candidate pool — from the first chunk units, then filters
every later chunk against it before any delegate pipeline runs;
:class:`~repro.service.streaming.StreamingTopK` tightens the same floor after
every chunk.  Every case here is checked against an ``np.sort`` reference
(values, and ``v[indices] == values`` with unique indices), and against the
key order for floats so ``-0.0`` and ``+0.0`` are told apart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.keys import to_keys
from repro.errors import ConfigurationError
from repro.service.dispatcher import ServiceDispatcher
from repro.service.planbank import ChunkMemo
from repro.service.streaming import StreamingTopK


def check(result, v: np.ndarray, k: int, largest: bool = True) -> None:
    """Exact top-k: values, key multiset, ``v[indices] == values``, unique indices."""
    s = np.sort(v)
    expected = s[-k:] if largest else s[:k]
    np.testing.assert_array_equal(np.sort(result.values), expected)
    keys = np.sort(to_keys(v, largest=largest))[-k:]
    np.testing.assert_array_equal(np.sort(to_keys(result.values, largest=largest)), keys)
    assert result.indices.shape == (k,)
    assert np.unique(result.indices).shape[0] == k
    np.testing.assert_array_equal(
        v[result.indices].view(np.uint8), np.asarray(result.values).view(np.uint8)
    )


def dispatch(chunks, queries, **kwargs):
    with ServiceDispatcher(num_workers=2, result_cache_capacity=0, **kwargs) as d:
        results = d.dispatch([np.asarray(c) for c in chunks], queries)
        return results, d.last_report


def split(v: np.ndarray, parts: int):
    return np.array_split(v, parts)


class TestShapes:
    def test_ascending_stream_every_later_chunk_survives(self):
        v = np.arange(1 << 14, dtype=np.uint32)
        results, report = dispatch(split(v, 8), [(64, True), (300, True)])
        check(results[0], v, 64)
        check(results[1], v, 300)
        assert report.route == "streaming"

    def test_descending_stream_filters_everything_later(self):
        v = np.arange(1 << 14, dtype=np.uint32)[::-1].copy()
        results, report = dispatch(split(v, 8), [(64, True)])
        check(results[0], v, 64)
        # Only the primer chunk ran a pipeline: nothing later survives.
        assert report.constructions <= 1

    def test_all_equal_stream(self):
        v = np.full(1 << 13, 7, dtype=np.uint32)
        results, _ = dispatch(split(v, 4), [(100, True), (5, False)])
        check(results[0], v, 100)
        check(results[1], v, 5, largest=False)

    def test_ties_sitting_exactly_at_the_floor(self, rng):
        k = 32
        first = np.arange(1000, dtype=np.uint32)  # floor = 968 after priming
        floor = np.uint32(1000 - k)
        later = rng.integers(0, 500, size=3000).astype(np.uint32)
        later[rng.choice(3000, size=200, replace=False)] = floor  # > k ties
        v = np.concatenate([first, later])
        results, _ = dispatch([first, later[:1500], later[1500:]], [(k, True)])
        check(results[0], v, k)

    def test_chunks_smaller_than_k_prime_over_several_units(self, rng):
        v = rng.integers(0, 2**32, size=4000, dtype=np.uint32)
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            runs = []
            run = d.executor.run

            def spy(units, *args, **kwargs):
                outcomes = run(units, *args, **kwargs)
                runs.append(d.executor.last_report)
                return outcomes

            d.executor.run = spy
            results = d.dispatch(split(v, 40), [(350, True), (10, True)])
            report = d.last_report
        check(results[0], v, 350)
        check(results[1], v, 10)
        # 100-element chunks: four one-unit primer runs fill K = 350, then
        # one run streams the remaining 36 chunks against the floor.
        assert [r.units for r in runs] == [1, 1, 1, 1, 36]
        # The report's executor fields cover the primer runs too.
        assert report.wall_ms == pytest.approx(sum(r.wall_ms for r in runs))
        assert report.unit_wall_ms_sum == pytest.approx(sum(r.unit_wall_ms_sum for r in runs))
        assert report.unit_queue_ms_sum == pytest.approx(sum(r.unit_queue_ms_sum for r in runs))
        assert report.max_unit_queue_ms == max(r.max_unit_queue_ms for r in runs)
        assert report.backpressure_waits == sum(r.backpressure_waits for r in runs)

    def test_mixed_orders_prime_two_floors(self, rng):
        v = rng.integers(0, 2**32, size=1 << 15, dtype=np.uint32)
        queries = [(40, True), (300, False), (7, True), (90, False)]
        results, _ = dispatch(split(v, 16), queries)
        for res, (k, largest) in zip(results, queries):
            check(res, v, k, largest=largest)


class TestDtypes:
    def test_float32_signed_zeros_and_negatives(self, rng):
        v = rng.standard_normal(1 << 14).astype(np.float32)
        v[rng.choice(v.shape[0], size=600, replace=False)] = np.float32(-0.0)
        v[rng.choice(v.shape[0], size=600, replace=False)] = np.float32(0.0)
        for k, largest in ((64, True), (64, False)):
            # Around zero: k reaches into the signed zeros.
            near = int(np.count_nonzero(v > 0)) if largest else int(np.count_nonzero(v < 0))
            for kk in (k, near + 300):
                results, _ = dispatch(split(v, 8), [(kk, largest)])
                check(results[0], v, kk, largest=largest)

    def test_all_negative_float32(self, rng):
        v = -np.abs(rng.standard_normal(1 << 13)).astype(np.float32)
        results, _ = dispatch(split(v, 8), [(50, True), (50, False)])
        check(results[0], v, 50)
        check(results[1], v, 50, largest=False)

    def test_int64(self, rng):
        v = rng.integers(-(2**62), 2**62, size=1 << 14, dtype=np.int64)
        results, _ = dispatch(split(v, 8), [(128, True), (33, False)])
        check(results[0], v, 128)
        check(results[1], v, 33, largest=False)

    def test_mixed_dtype_stream_runs_foreign_chunks_unfiltered(self, rng):
        # The pool of a uint32 + int64 stream is int64: a uint32 chunk has no
        # key for that floor and runs unfiltered, still exact.
        chunks = [
            rng.integers(0, 2**32, size=3000, dtype=np.uint32),
            rng.integers(-(2**40), 2**40, size=3000, dtype=np.int64),
            rng.integers(0, 2**32, size=3000, dtype=np.uint32),
        ]
        v = np.concatenate([c.astype(np.int64) for c in chunks])
        results, _ = dispatch(chunks, [(40, True), (40, False)])
        check(results[0], v, 40)
        check(results[1], v, 40, largest=False)
        result = StreamingTopK(40, chunk_elements=1000).consume(chunks).finalize()
        check(result, v, 40)

    @pytest.mark.parametrize("where", [0, 5])
    def test_nan_still_raises(self, rng, where):
        chunks = split(rng.standard_normal(1 << 13).astype(np.float32), 8)
        chunks[where][3] = np.nan  # in the primer chunk, or in a filtered one
        with pytest.raises(ConfigurationError):
            dispatch(chunks, [(16, True)])
        stream = StreamingTopK(16, chunk_elements=1 << 10)
        with pytest.raises(ConfigurationError):
            stream.consume(chunks)


class TestUncertifiedMemo:
    """A memo entry filtered under a higher floor than the consuming stream's."""

    K = 50

    def chunks(self, rng):
        a = rng.permutation(1000).astype(np.uint32)  # its top-50 floor is 950
        b = rng.integers(0, 900, size=1000).astype(np.uint32)
        b[:20] = np.arange(960, 980, dtype=np.uint32)  # 20 < K survive 950
        high = np.arange(2000, 2040, dtype=np.uint32)  # small c above 950
        low = np.arange(40, dtype=np.uint32)  # small c far below 950
        return a, b, high, low

    def test_dispatcher_reuse_certified_or_rerun(self, rng):
        a, b, high, low = self.chunks(rng)
        q = [(self.K, True)]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            replay = None
            for _ in range(2):
                replay = d.dispatch([a, b], q)
            check(replay[0], np.concatenate([a, b]), self.K)
            assert d.last_report.chunk_memo_hits == 2
            assert d.last_report.constructions == 0

            # [b] alone: its 20 candidates can never fill K, so the stream
            # cannot vouch for floor 950 and b re-runs unfiltered.
            alone = d.dispatch([b], q)
            check(alone[0], b, self.K)
            assert d.last_report.chunk_memo_hits == 0
            assert d.last_report.constructions > 0

        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.dispatch([a, b], q)
            # [b, high]: the final k-th key (>= 960) reaches 950 — b stands.
            res = d.dispatch([b, high], q)
            check(res[0], np.concatenate([b, high]), self.K)
            assert d.last_report.chunk_memo_hits == 1
            # [b, low]: the final k-th key is one of low's — b re-runs.
            res = d.dispatch([b, low], q)
            check(res[0], np.concatenate([b, low]), self.K)
            assert d.last_report.chunk_memo_hits == 0

    def test_dispatcher_rerun_refreshes_the_entry(self, rng):
        a, b, _, _ = self.chunks(rng)
        q = [(self.K, True)]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.dispatch([a, b], q)
            d.dispatch([b], q)  # re-runs b unfiltered and memoises that
            res = d.dispatch([b], q)
            check(res[0], b, self.K)
            assert d.last_report.chunk_memo_hits == 1
            assert d.last_report.constructions == 0

    def test_single_engine_loop_follows_the_same_rule(self, rng):
        a, b, high, low = self.chunks(rng)
        memo = ChunkMemo()
        StreamingTopK(self.K, chunk_memo=memo).consume([a, b]).finalize()

        alone = StreamingTopK(self.K, chunk_memo=memo).consume([b])
        check(alone.finalize(), b, self.K)
        assert alone.report.memo_hits == 0  # re-run, not served

        memo = ChunkMemo()
        StreamingTopK(self.K, chunk_memo=memo).consume([a, b]).finalize()
        kept = StreamingTopK(self.K, chunk_memo=memo).consume([b, high])
        check(kept.finalize(), np.concatenate([b, high]), self.K)
        assert kept.report.memo_hits == 1
        dropped = StreamingTopK(self.K, chunk_memo=memo).consume([b, low])
        check(dropped.finalize(), np.concatenate([b, low]), self.K)
        assert dropped.report.memo_hits == 0
        assert len(dropped.report.chunk_stats) == dropped.report.chunks


class TestSingleEngineLoop:
    def test_floor_filters_later_chunks(self, rng):
        v = rng.integers(0, 2**32, size=1 << 15, dtype=np.uint32)
        stream = StreamingTopK(64, chunk_elements=1 << 12).consume(v)
        check(stream.finalize(), v, 64)
        # Most later chunks hand over their few survivors without a pipeline.
        filter_only = [s for s in stream.report.chunk_stats if s.second_topk_skipped]
        assert filter_only
        assert all(s.num_subranges == 1 and s.delegate_vector_size == 0 for s in filter_only)

    @pytest.mark.parametrize("order", ["ascending", "descending", "equal"])
    def test_shapes(self, order):
        v = np.arange(1 << 13, dtype=np.int64) - 4000
        if order == "descending":
            v = v[::-1].copy()
        elif order == "equal":
            v = np.zeros(1 << 13, dtype=np.int64)
        for largest in (True, False):
            result = StreamingTopK(100, largest=largest, chunk_elements=1000).consume(v).finalize()
            check(result, v, 100, largest=largest)


def test_threaded_dispatch_counts_repeat_exactly(rng):
    v = rng.integers(0, 2**32, size=1 << 16, dtype=np.uint32)
    chunks = split(v, 16)
    queries = [(300, True), (20, False), (1000, True)]
    seen = set()
    for _ in range(2):
        with ServiceDispatcher(
            num_workers=2, execution="threads", result_cache_capacity=0
        ) as d:
            results = d.dispatch(list(chunks), queries)
            r = d.last_report
        for res, (k, largest) in zip(results, queries):
            check(res, v, k, largest=largest)
        seen.add((r.constructions, r.selection_calls, r.bytes_moved, r.total_ms))
    assert len(seen) == 1
