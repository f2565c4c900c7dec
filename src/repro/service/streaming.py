"""Streaming / out-of-core top-k: consume a vector in fixed-size chunks.

The paper's pipeline is bounded by what fits next to the scratch buffers of
one device (sub-vectors of at most 2^30 elements, Section 5.4).
:class:`StreamingTopK` removes the bound on the *input* side: the vector is
consumed chunk by chunk — from an iterator, a generator reading from disk, or
an in-memory array sliced lazily — so only ``chunk_elements`` values plus a
``k``-bounded candidate pool are ever resident.

Each chunk is distilled into at most ``k`` candidates, which merge into a
running pool trimmed to the exact top-k of everything seen so far.  Once
the pool holds ``k`` candidates its k-th key is a **floor**: ``k`` real
stream elements sit at or above it, so no later element below it can reach
the answer — the paper's Rule-2 delegate filtering applied across chunks,
with the pool's k-th key standing in for the k-th delegate.
:func:`distil_chunk` applies it to every later chunk before any delegate
pipeline runs: one ``to_keys`` compare pass keeps the elements at or above
the floor (NaN inputs still raise), a chunk with at most ``k`` survivors
hands all of them over as candidates, and only a chunk with more runs the
delegate-centric pipeline (construction, first top-k, filtered
concatenation, second top-k) — over its compacted survivors alone.  The
single-engine loop here tightens the floor after every chunk; the
dispatcher's fleet-routed streaming primes one fixed floor from its first
chunks and filters every later chunk against it.

A :class:`~repro.service.planbank.ChunkMemo` remembers each chunk's
candidates together with the floor they were distilled under.  An entry
whose floor is at or below the stream's current floor serves at once; any
other entry serves tentatively, and its chunk is re-run unfiltered at the
end unless the stream's final k-th key reaches the entry's floor.

:meth:`StreamingTopK.finalize` runs the configured second top-k pass over
the pool to order the final answer and map indices back to global input
positions.  The result is equivalent to a one-shot
:meth:`~repro.core.drtopk.DrTopK.topk` over the concatenated input: the
top-k *value multiset* is unique, so the returned values match
element-wise; indices are one valid choice under ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms.base import ExecutionTrace
from repro.algorithms.keys import to_keys
from repro.core.config import DrTopKConfig
from repro.core.drtopk import DrTopK
from repro.errors import ConfigurationError
from repro.service.fusion import thread_arena
from repro.types import TopKResult, WorkloadStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.planbank import ChunkMemo

__all__ = [
    "StreamingTopK",
    "StreamReport",
    "streaming_topk",
    "merge_candidate_pool",
    "order_candidate_pool",
    "distil_chunk",
    "pool_floor",
    "floor_key",
    "merge_rerun_candidates",
]

#: Default chunk size (elements); far below the paper's 2^30 device cap so
#: streaming runs comfortably anywhere, while still amortising per-chunk
#: pipeline overheads.
DEFAULT_CHUNK_ELEMENTS = 1 << 20


def merge_candidate_pool(
    pool_values: Optional[np.ndarray],
    pool_indices: np.ndarray,
    values: np.ndarray,
    indices: np.ndarray,
    k: int,
    largest: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold chunk candidates into a running pool trimmed to the exact top-k.

    The trimmed pool's k-th key is the stream's running Rule-2 threshold: any
    later element below it can never reach the answer.  Shared by
    :class:`StreamingTopK`'s single-engine loop and the dispatcher's
    fleet-routed streaming, so both maintain identical pools.
    """
    if pool_values is None:
        merged_v, merged_i = values, indices
    elif pool_values.shape[0] + values.shape[0] > k:
        # The concatenation is a pure temporary here — only the trimmed
        # fancy-indexed copy below survives the call — so it runs in
        # scratch-arena buffers a hot stream reuses chunk after chunk
        # instead of allocating per merge.
        total = pool_values.shape[0] + values.shape[0]
        arena = thread_arena()
        with arena.scope():
            merged_v = arena.take((total,), np.result_type(pool_values, values))
            merged_i = arena.take((total,), np.int64)
            np.concatenate([pool_values, values], out=merged_v)
            np.concatenate([pool_indices, indices], out=merged_i)
            keys = to_keys(merged_v, largest=largest)
            keep = np.argpartition(keys, total - k)[-k:]
            return merged_v[keep], merged_i[keep]
    else:
        # The merged pool *escapes* into the stream's persistent state here
        # (<= k + chunk elements), so it cannot borrow an arena buffer whose
        # lifetime ends with this call.
        merged_v = np.concatenate([pool_values, values])  # reprolint: waive[HOT001] result escapes into the persistent pool
        merged_i = np.concatenate([pool_indices, indices])  # reprolint: waive[HOT001] result escapes into the persistent pool
    if merged_v.shape[0] > k:
        keys = to_keys(merged_v, largest=largest)
        keep = np.argpartition(keys, merged_v.shape[0] - k)[-k:]
        merged_v, merged_i = merged_v[keep], merged_i[keep]
    return merged_v, merged_i.astype(np.int64)


def order_candidate_pool(
    pool_values: np.ndarray,
    pool_indices: np.ndarray,
    k: int,
    largest: bool,
    config: DrTopKConfig,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Final pass over a candidate pool: order the answer, map global indices.

    Runs the configured second top-k algorithm and returns
    ``(values, global_indices, finalize_bytes)`` where ``finalize_bytes`` is
    the simulated traffic of the pass (zero when tracing is disabled).
    """
    algo = get_algorithm(config.second_algorithm)
    trace = (
        ExecutionTrace(itemsize=pool_values.dtype.itemsize) if config.collect_trace else None
    )
    ordered = algo.topk(pool_values, k, largest=largest, trace=trace)
    finalize_bytes = trace.total_counters().global_bytes if trace is not None else 0.0
    return ordered.values, pool_indices[ordered.indices], float(finalize_bytes)


def pool_floor(
    pool_values: Optional[np.ndarray], k: int, largest: bool
) -> Optional[np.generic]:
    """The k-th value of a pool holding ``k`` candidates, else ``None``.

    ``k`` real stream elements sit at or above it, so it is a valid floor
    for every element the stream has not consumed yet.
    """
    if pool_values is None or pool_values.shape[0] < k:
        return None
    return pool_values[int(np.argmin(to_keys(pool_values, largest=largest)))]


def floor_key(floor: Optional[np.generic], dtype: np.dtype, largest: bool) -> Optional[int]:
    """``floor``'s key in ``dtype``'s key space (``None``: no floor applies).

    A floor taken from a pool of another dtype (a mixed-dtype stream) has no
    key in this space, so such a chunk runs unfiltered.
    """
    if floor is None or floor.dtype != dtype:
        return None
    return int(to_keys(np.asarray(floor), largest=largest))


def distil_chunk(
    piece: np.ndarray,
    k: int,
    largest: bool,
    floor: Optional[int],
    distil: Callable[[np.ndarray, int, bool], TopKResult],
    config: DrTopKConfig,
) -> Tuple[TopKResult, float, float]:
    """Distil one chunk into at most ``k`` candidates, filtering at the stream floor.

    ``floor`` is the stream's floor key in the chunk's key space (see
    :func:`floor_key`); ``None`` runs ``distil(piece, k, largest)`` — the
    caller's delegate pipeline — on the whole chunk.  Otherwise one
    ``to_keys`` compare pass keeps the elements whose key is at or above the
    floor: at most ``k`` survivors are all candidates, more are distilled by
    ``distil`` over the compacted survivors, indices mapped back.  Exact,
    because ``k`` stream elements already sit at or above the floor.

    Returns ``(candidates, filter_bytes, filter_ms)``: chunk-local
    candidates, and the filter pass's simulated traffic and modelled time —
    one kernel step loading the chunk and storing the survivors' values and
    indices (zero without a floor or with tracing off).  A filter-only
    chunk's statistics describe the pass as one subrange scanned against
    the floor, with the survivors as its concatenation.
    """
    if floor is None:
        return distil(piece, k, largest), 0.0, 0.0
    n = piece.shape[0]
    keys = to_keys(piece, largest=largest)
    survivors = np.flatnonzero(keys >= keys.dtype.type(floor))
    kept = int(survivors.shape[0])
    step_ms: dict = {}
    filter_bytes = 0.0
    if config.collect_trace:
        trace = ExecutionTrace(itemsize=piece.dtype.itemsize)
        trace.add("stream_filter", loads=float(n), stores=2.0 * kept, kernels=1)
        filter_bytes = float(trace.total_counters().global_bytes)
        step_ms = trace.step_times_ms(config.device)
    filter_ms = float(sum(step_ms.values()))
    if kept <= k:
        alpha = (n - 1).bit_length()
        stats = WorkloadStats(
            input_size=n,
            subrange_size=1 << alpha,
            alpha=alpha,
            num_subranges=1,
            qualified_subranges=1,
            fully_qualified_subranges=1,
            concatenated_size=kept,
            second_topk_skipped=True,
            filtered_out=n - kept,
            step_times_ms=step_ms,
        )
        values, indices = piece[survivors], survivors
    else:
        inner = distil(piece[survivors], k, largest)
        inner_stats = inner.stats if inner.stats is not None else WorkloadStats()
        stats = replace(
            inner_stats,
            input_size=n,
            filtered_out=inner_stats.filtered_out + n - kept,
            step_times_ms={**inner_stats.step_times_ms, **step_ms},
        )
        values, indices = inner.values, survivors[inner.indices]
    return (
        TopKResult(values=values, indices=indices, k=values.shape[0], largest=largest, stats=stats),
        filter_bytes,
        filter_ms,
    )


def merge_rerun_candidates(
    pool_values: Optional[np.ndarray],
    pool_indices: np.ndarray,
    values: np.ndarray,
    indices: np.ndarray,
    k: int,
    largest: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge a re-run chunk's candidates into a pool that may already hold some.

    The chunk's tentative memo candidates were merged earlier; dropping the
    re-run's global indices already pooled keeps every pooled element
    distinct, so the pool stays the exact top-k of everything merged.
    """
    fresh = ~np.isin(indices, pool_indices)
    return merge_candidate_pool(
        pool_values, pool_indices, values[fresh], indices[fresh], k, largest
    )


@dataclass
class StreamReport:
    """Progress and accounting of one streaming run."""

    chunks: int = 0
    total_elements: int = 0
    pool_peak: int = 0
    chunk_bytes: float = 0.0
    finalize_bytes: float = 0.0
    #: Chunks served from the chunk memo (zero pipeline work, zero bytes).
    memo_hits: int = 0
    #: One entry per consumed chunk, in stream order; a memoised chunk is an
    #: explicit zero-work entry (only ``input_size`` set), so cold and warm
    #: streams aggregate over the same denominator.
    chunk_stats: List[WorkloadStats] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        """Simulated bytes moved across all chunks plus the final pass."""
        return self.chunk_bytes + self.finalize_bytes


class StreamingTopK:
    """Incremental top-k over a chunked input stream.

    Parameters
    ----------
    k:
        Number of elements to select from the whole stream.
    largest:
        Selection criterion, fixed for the stream's lifetime.
    config:
        Per-chunk pipeline configuration (defaults to the paper's final
        design).
    chunk_elements:
        Maximum elements handed to one pipeline invocation; larger arrays
        pushed in are sliced transparently.  Smaller chunks lower peak
        memory at the cost of more per-chunk overhead.
    chunk_memo:
        Optional :class:`~repro.service.planbank.ChunkMemo`.  Each consumed
        chunk is fingerprinted; a memoised chunk contributes its candidates
        with zero pipeline work, so replaying a stream (or sharing chunks
        between streams) skips the per-chunk pipeline — the streaming
        equivalent of the dispatcher's result reuse.  Entries record the
        floor their chunk was filtered against; one distilled under a
        higher floor than the stream's is served tentatively and its chunk
        re-run unfiltered at :meth:`finalize` if the pool never reaches it.

    Once the pool holds ``k`` candidates its k-th key is the stream's
    floor, tightened after every chunk: each later chunk goes through
    :func:`distil_chunk`, so only chunks with more than ``k`` elements at or
    above the floor run the delegate pipeline, over those elements alone.
    """

    def __init__(
        self,
        k: int,
        largest: bool = True,
        config: Optional[DrTopKConfig] = None,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        chunk_memo: Optional["ChunkMemo"] = None,
    ) -> None:
        if not isinstance(k, (int, np.integer)) or int(k) < 1:
            raise ConfigurationError(f"k must be a positive integer, got {k!r}")
        if chunk_elements < 1:
            raise ConfigurationError("chunk_elements must be >= 1")
        self.k = int(k)
        self.largest = bool(largest)
        self.chunk_elements = int(chunk_elements)
        self.engine = DrTopK(config)
        self.chunk_memo = chunk_memo
        self.report = StreamReport()
        self._pool_values: Optional[np.ndarray] = None
        self._pool_indices = np.empty(0, dtype=np.int64)
        self._count = 0
        self._result: Optional[TopKResult] = None
        # The pool's k-th value once it holds k candidates (tightened after
        # every chunk), and memo-served chunks whose entry floor the pool has
        # not reached yet: (entry floor, chunk_stats slot, chunk, offset, fp).
        self._floor: Optional[np.generic] = None
        self._uncertified: List[Tuple[int, int, np.ndarray, int, str]] = []

    @property
    def config(self) -> DrTopKConfig:
        """The engine's pipeline configuration (shared, read it, don't mutate)."""
        return self.engine.config

    @property
    def elements_seen(self) -> int:
        """Total input elements consumed so far."""
        return self._count

    @property
    def pool_size(self) -> int:
        """Current candidate-pool size (at most ``k``)."""
        return int(self._pool_indices.shape[0])

    # -- ingestion -------------------------------------------------------------
    def push(self, chunk: np.ndarray) -> "StreamingTopK":
        """Consume one chunk of the input stream (returns ``self`` to chain).

        Arrays longer than ``chunk_elements`` are sliced so each pipeline
        invocation stays within the configured budget; empty chunks are
        ignored.
        """
        if self._result is not None:
            raise ConfigurationError("cannot push after finalize()")
        chunk = np.asarray(chunk)
        if chunk.ndim != 1:
            raise ConfigurationError(
                f"chunks must be one dimensional, got shape {chunk.shape}"
            )
        for start in range(0, chunk.shape[0], self.chunk_elements):
            piece = chunk[start : start + self.chunk_elements]
            if piece.shape[0]:
                self._consume_piece(piece)
        return self

    def consume(self, chunks: Union[np.ndarray, Iterable[np.ndarray]]) -> "StreamingTopK":
        """Push a whole stream: one array or any iterable of arrays."""
        if isinstance(chunks, np.ndarray):
            return self.push(chunks)
        for chunk in chunks:
            self.push(chunk)
        return self

    def _consume_piece(self, piece: np.ndarray) -> None:
        offset = self._count
        n = piece.shape[0]
        # Distil the chunk to its local top-k candidates; a chunk smaller
        # than k contributes everything it has.
        kk = min(self.k, n)
        floor = floor_key(self._floor, piece.dtype, self.largest)
        served = None
        fp = None
        if self.chunk_memo is not None:
            from repro.service.cache import fingerprint_array  # avoids an import cycle

            fp = fingerprint_array(piece)
            served = self.chunk_memo.lookup(fp, kk, self.largest, floor)
        self.report.chunks += 1
        if served is None:
            local = self._distil(piece, kk, floor)
            self.report.chunk_stats.append(local.stats or WorkloadStats(input_size=n))
            if fp is not None:
                self.chunk_memo.put(fp, kk, self.largest, local, floor)
        else:
            # Memoised chunk: candidates arrive with zero pipeline work.  The
            # chunk is still recorded in chunk_stats — as an explicit
            # zero-work entry — so the aggregated stream statistics keep one
            # entry per consumed chunk and a warm replay's per-element work
            # is measured against the full stream, not just the cold chunks.
            local, pending = served
            self.report.memo_hits += 1
            self.report.chunk_stats.append(WorkloadStats(input_size=n))
            if pending is not None:
                # Distilled under a higher floor than this stream has reached:
                # hold the chunk until the pool's k-th key vouches for it.
                slot = len(self.report.chunk_stats) - 1
                self._uncertified.append((pending, slot, piece, offset, fp))
        self._merge(local.values, local.indices + offset)
        self._count += n
        self.report.total_elements = self._count
        self._floor = pool_floor(self._pool_values, self.k, self.largest)
        # A tentatively served entry stands once the pool's k-th key reaches
        # the floor it was distilled under.
        self._uncertified = [
            held
            for held in self._uncertified
            if not self._vouches_for(held[0], held[2].dtype)
        ]

    def _vouches_for(self, entry_floor: int, dtype: np.dtype) -> bool:
        reached = floor_key(self._floor, dtype, self.largest)
        return reached is not None and reached >= entry_floor

    def _distil(self, piece: np.ndarray, kk: int, floor: Optional[int]) -> TopKResult:
        """One chunk through :func:`distil_chunk` on this stream's engine."""

        def run(values: np.ndarray, k: int, largest: bool) -> TopKResult:
            result = self.engine.topk(values, k, largest=largest)
            if self.config.collect_trace:
                self.report.chunk_bytes += self.engine.last_trace.total_counters().global_bytes
            return result

        local, filter_bytes, _ = distil_chunk(piece, kk, self.largest, floor, run, self.config)
        self.report.chunk_bytes += filter_bytes
        return local

    def _rerun_uncertified(self) -> None:
        """Re-distil, unfiltered, each memo-served chunk the stream never vouched for."""
        for _, slot, piece, offset, fp in self._uncertified:
            kk = min(self.k, piece.shape[0])
            local = self._distil(piece, kk, None)
            self.report.memo_hits -= 1
            self.report.chunk_stats[slot] = local.stats or WorkloadStats(input_size=piece.shape[0])
            self.chunk_memo.put(fp, kk, self.largest, local)
            self._pool_values, self._pool_indices = merge_rerun_candidates(
                self._pool_values,
                self._pool_indices,
                local.values,
                local.indices + offset,
                self.k,
                self.largest,
            )
        self._uncertified = []

    def _merge(self, values: np.ndarray, global_indices: np.ndarray) -> None:
        """Fold chunk candidates into the running pool, trimmed to top-k."""
        peak = (0 if self._pool_values is None else self._pool_values.shape[0]) + values.shape[0]
        self.report.pool_peak = max(self.report.pool_peak, int(peak))
        self._pool_values, self._pool_indices = merge_candidate_pool(
            self._pool_values,
            self._pool_indices,
            values,
            global_indices,
            self.k,
            self.largest,
        )

    # -- completion -------------------------------------------------------------
    def finalize(self) -> TopKResult:
        """Run the second pass over the candidate pool and return the answer.

        Idempotent: repeated calls return the same result object.
        """
        if self._result is not None:
            return self._result
        if self._count == 0:
            raise ConfigurationError("finalize() before any data was pushed")
        if self.k > self._count:
            raise ConfigurationError(
                f"k={self.k} exceeds the {self._count} elements streamed"
            )
        self._rerun_uncertified()
        assert self._pool_values is not None
        values, global_idx, finalize_bytes = order_candidate_pool(
            self._pool_values, self._pool_indices, self.k, self.largest, self.config
        )
        self.report.finalize_bytes = finalize_bytes
        self._result = TopKResult(
            values=values,
            indices=global_idx,
            k=self.k,
            largest=self.largest,
            stats=self._aggregate_stats(),
        )
        return self._result

    def _aggregate_stats(self) -> WorkloadStats:
        """Merge the per-chunk statistics into one stream-level record.

        Sizes and counts are summed over chunks; the subrange geometry
        (``alpha``, ``beta``, ``subrange_size``) reports the last *pipeline*
        chunk's values, since chunks may legitimately resolve different
        geometries.  Chunks served from the memo are present as zero-work
        entries: they contribute their elements to the denominator and
        nothing to the summed workload, so a warm replay reports genuinely
        lower per-element work instead of silently mixing a cold stream's
        numerator with the full stream's denominator (and a fully memoised
        stream aggregates to zero work over the whole input).
        """
        chunks = self.report.chunk_stats
        if not chunks:
            return WorkloadStats(input_size=self._count)
        # Geometry from the last chunk that actually ran the pipeline — a
        # trailing memo hit's zero-work entry carries none.
        last = next(
            (s for s in reversed(chunks) if s.num_subranges > 0),
            chunks[-1],
        )
        merged = WorkloadStats(
            input_size=self._count,
            subrange_size=last.subrange_size,
            alpha=last.alpha,
            beta=last.beta,
            num_subranges=sum(s.num_subranges for s in chunks),
            delegate_vector_size=sum(s.delegate_vector_size for s in chunks),
            qualified_subranges=sum(s.qualified_subranges for s in chunks),
            fully_qualified_subranges=sum(s.fully_qualified_subranges for s in chunks),
            concatenated_size=sum(s.concatenated_size for s in chunks),
            filtered_out=sum(s.filtered_out for s in chunks),
        )
        step_times: dict = {}
        for s in chunks:
            for name, ms in s.step_times_ms.items():
                step_times[name] = step_times.get(name, 0.0) + ms
        merged.step_times_ms = step_times
        return merged


def streaming_topk(
    stream: Union[np.ndarray, Iterable[np.ndarray]],
    k: int,
    largest: bool = True,
    config: Optional[DrTopKConfig] = None,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
) -> TopKResult:
    """One-call streaming top-k over an array or an iterable of chunks."""
    return (
        StreamingTopK(k, largest=largest, config=config, chunk_elements=chunk_elements)
        .consume(stream)
        .finalize()
    )
