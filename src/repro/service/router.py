"""Request classification and per-worker work-unit emission.

The :class:`Router` is the decision layer of the unified execution core: it
looks at one request (a vector or a chunk stream, plus its queries) and
decides which route serves it —

* **batched** — the vector fits one device's sub-vector capacity; queries are
  grouped by the plan they can share (same resolved ``alpha`` and key order,
  the :func:`~repro.service.batch.group_queries_by_plan` definition, with
  bank-aware alpha snapping) and whole groups are placed on workers with a
  greedy least-loaded assignment.  The router is the only place a batched
  dispatch groups: it groups once, and every worker serves exactly the
  groups it was handed, so placement and execution cannot disagree and no
  worker re-groups against plans a sibling banked mid-dispatch.  Placement
  is **work-weighted**, not query-counted: a group's weight is its expected
  element workload from ``k``, ``alpha`` and the plan-bank hit state (a
  bank-hit group costs its queries only; a cold group additionally pays the
  O(n) construction scan), so one cold group does not land on the same
  worker as a pile of cheap bank-hit groups just because the query counts
  matched.  A group always stays whole on one worker: its one
  :class:`~repro.core.plan.QueryPlan` is built or bank-fetched once, where
  its queries run;
* **sharded** — the vector exceeds the capacity; every worker becomes one GPU
  of the Figure 16 multi-GPU workflow and the batch runs with per-shard plan
  reuse through :meth:`~repro.distributed.multigpu.MultiGpuDrTopK.topk_batch`;
* **streaming** — the input is not an in-memory vector but an iterable of
  chunks; each chunk becomes one work unit on the next worker round-robin,
  filtered against the stream floor once the dispatcher has primed one, and
  the candidate pools merge on the primary.

The router only *describes* work (as :class:`~repro.service.executor.WorkUnit`
closures); the :class:`~repro.service.executor.ServiceExecutor` runs it and
:class:`~repro.service.dispatcher.ServiceDispatcher` merges the outcomes.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.service.batch import (
    BatchReport,
    BatchTopK,
    TopKQuery,
    group_queries_by_plan,
    modelled_query_cost,
)
from repro.service.cache import PartitionCache, fingerprint_array
from repro.service.executor import WorkUnit
from repro.service.planbank import ChunkMemo, PlanBank
from repro.service.streaming import distil_chunk, floor_key
from repro.service.tenancy import DEFAULT_TENANT
from repro.types import TopKResult
from repro.utils import ceil_div

__all__ = ["Router", "BatchedPlan", "ChunkOutcome"]

#: Route names emitted by :meth:`Router.classify`.
ROUTES = ("batched", "sharded", "streaming")


#: Load slack (as a fraction of the dispatch's total weight) within which
#: placement prefers a repeat vector's remembered worker over the strictly
#: least-loaded one.
AFFINITY_SLACK = 0.25

#: Upper bound on remembered per-fingerprint affinity entries (anonymous
#: dispatches record affinity too; without a cap a long-running service
#: would accrete one entry per distinct vector ever dispatched).
_AFFINITY_CAP = 4096


@dataclass
class BatchedPlan:
    """Placement plan of one batched dispatch (see :meth:`Router.plan_batched`)."""

    #: Query positions per worker (the merge contract: every position
    #: appears exactly once, on exactly one worker).
    placement: List[List[int]]
    #: Modelled per-worker load the placement produced.
    loads: List[float]
    total_weight: float = 0.0
    #: The dispatch's one grouping: ``(alpha, largest)`` → query positions.
    #: Each group's positions all sit on one worker.
    groups: Dict[Tuple[int, bool], List[int]] = field(default_factory=dict)


@dataclass
class ChunkOutcome:
    """What one streaming work unit returns (see :meth:`Router.streaming_units`)."""

    #: The chunk's position in the stream and its element count.
    offset: int
    length: int
    #: Re-distils the chunk for the given key orders, unfiltered and
    #: bypassing the memo lookup (the fresh candidates replace the entry).
    rerun: Callable[[Sequence[bool]], "ChunkOutcome"]
    #: Chunk-local candidates (at most ``K`` per key order).
    candidates: Dict[bool, TopKResult] = field(default_factory=dict)
    #: Reports of the unit's pipeline runs plus one per floor-filter pass;
    #: empty when every key order was served from the chunk memo.
    reports: List[BatchReport] = field(default_factory=list)
    #: Key orders served by a certified chunk-memo entry.
    memo_hits: int = 0
    #: Key order → floor of a memo entry served tentatively: its candidates
    #: stand only if the stream's final k-th key reaches that floor.
    uncertified: Dict[bool, int] = field(default_factory=dict)


class Router:
    """Classify requests and emit per-worker :class:`WorkUnit`\\ s.

    Parameters
    ----------
    num_workers:
        Fleet size placements are computed for.
    capacity_elements:
        Per-device sub-vector capacity separating the batched and sharded
        routes.
    cache:
        Shared :class:`PartitionCache` used for the grouping's ``alpha``
        resolution (so routing warms the same cache the engines use).
    plan_bank:
        Optional shared :class:`PlanBank`; when given, the grouping snaps
        near-miss exponents onto banked plans, and placement peeks at each
        group's bank hit state (without perturbing the LRU) and weighs
        bank-hit groups without their construction scan.
    """

    def __init__(
        self,
        num_workers: int,
        capacity_elements: int,
        cache: PartitionCache,
        plan_bank: Optional[PlanBank] = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("num_workers must be positive")
        if capacity_elements < 1:
            raise ConfigurationError("capacity_elements must be positive")
        self.num_workers = int(num_workers)
        self.capacity_elements = int(capacity_elements)
        self.cache = cache
        self.plan_bank = plan_bank
        # Per-name (per-fingerprint) serving history: how many queries each
        # content has answered, and which worker its heaviest group last
        # landed on.  The named-vector front end feeds the history; placement
        # uses it to keep a repeat vector's groups on a stable worker.
        self._history_lock = threading.Lock()
        self._query_history: Dict[str, int] = {}
        self._affinity: Dict[str, int] = {}
        self._tenant_history: Dict[str, int] = {}

    # -- per-name serving history ----------------------------------------------
    def note_queries(
        self, fingerprint: str, count: int, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Record ``count`` served queries against one vector's fingerprint.

        ``tenant`` additionally accrues the count in a per-tenant total —
        an observability ledger (who drove the traffic), deliberately *not*
        dropped by :meth:`forget` when content leaves the working set.
        """
        with self._history_lock:
            self._query_history[fingerprint] = (
                self._query_history.get(fingerprint, 0) + int(count)
            )
            self._tenant_history[tenant] = (
                self._tenant_history.get(tenant, 0) + int(count)
            )

    def query_history(self, fingerprint: str) -> int:
        """Queries previously recorded against the fingerprint."""
        with self._history_lock:
            return self._query_history.get(fingerprint, 0)

    def tenant_history(self, tenant: str) -> int:
        """Queries previously recorded as driven by ``tenant``."""
        with self._history_lock:
            return self._tenant_history.get(tenant, 0)

    def forget(self, fingerprint: str) -> None:
        """Drop one fingerprint's history and affinity (store-eviction cascade)."""
        with self._history_lock:
            self._query_history.pop(fingerprint, None)
            self._affinity.pop(fingerprint, None)

    # -- classification --------------------------------------------------------
    def classify(self, v: np.ndarray) -> str:
        """Name the route serving ``v``: batched, sharded or streaming.

        In-memory 1-D vectors route by size against the device capacity;
        anything else iterable (a generator of chunks, a list of arrays) is a
        chunked input and takes the streaming route.
        """
        if isinstance(v, np.ndarray):
            if v.ndim != 1:
                raise ConfigurationError(
                    f"expected a 1-D vector or an iterable of chunks, got shape {v.shape}"
                )
            if v.shape[0] > self.capacity_elements:
                return "sharded"
            return "batched"
        if hasattr(v, "__iter__") or hasattr(v, "__next__"):
            return "streaming"
        raise ConfigurationError(
            f"cannot route input of type {type(v).__name__}; "
            "expected a numpy vector or an iterable of chunks"
        )

    # -- batched-route emission ------------------------------------------------
    def expected_group_work(
        self,
        n: int,
        ks: Sequence[int],
        alpha: int,
        beta: int,
        bank_hit: bool,
    ) -> float:
        """Expected element workload of one plan-sharing group.

        The dominant costs of the pipeline, in input elements: a cold group
        pays the one-time construction (a full scan of ``n`` plus the
        delegate stores), every query then pays
        :func:`~repro.service.batch.modelled_query_cost` — the first top-k
        over the delegate vector plus a ``k``-proportional
        concatenation/second-pass term.  A bank-hit group skips the
        construction term entirely — the whole point of weighting placement
        by work instead of query count.

        The result is always non-negative and monotone in the query list:
        adding a query never lowers a group's weight.  An empty group weighs
        nothing (no queries means no construction is triggered either), and
        invalid geometry (``n < 1``, any ``k < 1``, ``alpha < 0``,
        ``beta < 1``) raises instead of silently producing negative or
        meaningless weights.
        """
        if n < 1:
            raise ConfigurationError("n must be positive")
        if alpha < 0:
            raise ConfigurationError("alpha must be >= 0")
        if beta < 1:
            raise ConfigurationError("beta must be >= 1")
        if not ks:
            return 0.0
        per_query = sum(modelled_query_cost(n, k, alpha, beta) for k in ks)
        num_subranges = ceil_div(int(n), 1 << int(alpha))
        m = min(num_subranges * int(beta), int(n))
        construction = 0.0 if bank_hit else float(n + 2 * m)
        return construction + per_query

    def plan_batched(
        self,
        v: np.ndarray,
        parsed: Sequence[TopKQuery],
        engine: BatchTopK,
        fingerprint: Optional[str] = None,
    ) -> BatchedPlan:
        """Group the dispatch's queries once and place whole groups.

        The grouping is :func:`~repro.service.batch.group_queries_by_plan`
        against the plan bank as it stands now (bank-aware alpha snapping
        included); the returned plan carries it, and the workers serve
        exactly those groups.  Groups are weighted by
        :meth:`expected_group_work` — expected workload from ``k``,
        ``alpha`` and the plan-bank hit state — and placed heaviest first
        onto the least-loaded worker, so no worker's load exceeds the even
        share plus one group's weight.

        A vector with recorded per-name hit history (see
        :meth:`note_queries`) additionally carries worker *affinity*: its
        heaviest group returns to the worker that served it last whenever
        that worker's load is within :data:`AFFINITY_SLACK` of the least
        loaded.
        """
        n = int(v.shape[0])
        groups = group_queries_by_plan(
            parsed,
            n,
            self.cache,
            engine,
            plan_bank=self.plan_bank,
            fingerprint=fingerprint,
        )
        beta = engine.config.beta
        weighted: List[Tuple[float, List[int]]] = []
        for (alpha, largest), positions in groups.items():
            bank_hit = (
                self.plan_bank is not None
                and fingerprint is not None
                and self.plan_bank.contains(fingerprint, alpha, largest)
            )
            ks = [parsed[p].k for p in positions]
            weight = self.expected_group_work(n, ks, alpha, beta, bank_hit)
            weighted.append((weight, positions))
        total_weight = sum(weight for weight, _ in weighted)

        preferred: Optional[int] = None
        if fingerprint is not None:
            with self._history_lock:
                if self._query_history.get(fingerprint, 0) > 0:
                    preferred = self._affinity.get(fingerprint)

        load = [0.0] * self.num_workers
        placement: List[List[int]] = [[] for _ in range(self.num_workers)]
        heaviest_target: Optional[int] = None
        # The stable descending sort keeps equal-weight groups in emission
        # order, so identical inputs place identically.
        for weight, positions in sorted(weighted, key=lambda item: item[0], reverse=True):
            target = min(range(self.num_workers), key=load.__getitem__)
            if (
                preferred is not None
                and 0 <= preferred < self.num_workers
                and load[preferred] <= load[target] + AFFINITY_SLACK * total_weight
            ):
                target = preferred
            if heaviest_target is None:
                heaviest_target = target  # sorted: the first group is heaviest
            placement[target].extend(positions)
            load[target] += weight
        if fingerprint is not None and heaviest_target is not None:
            # Remember where the heaviest group landed (not the most-loaded
            # worker, which a pile of light groups can out-weigh and flip
            # between dispatches) so repeats steer it back there.
            with self._history_lock:
                self._affinity.pop(fingerprint, None)  # re-insert most recent
                self._affinity[fingerprint] = heaviest_target
                while len(self._affinity) > _AFFINITY_CAP:
                    self._affinity.pop(next(iter(self._affinity)))
        return BatchedPlan(
            placement=placement, loads=load, total_weight=total_weight, groups=groups
        )

    def batched_units(
        self,
        v: np.ndarray,
        parsed: Sequence[TopKQuery],
        workers: Sequence[BatchTopK],
        fingerprint: Optional[str] = None,
    ) -> Tuple[List[WorkUnit], BatchedPlan]:
        """Emit one :class:`WorkUnit` per worker that received queries.

        Each unit runs its worker's :meth:`BatchTopK.run_with_report` over the
        worker's share, handing it that share's slice of the plan's group map
        (re-indexed to the share), and returns ``(positions, results,
        batch_report)`` for the dispatcher to merge.  ``fingerprint`` keys the
        workers' plan-bank lookups (and the placement's snapping and hit
        peek) without re-hashing ``v``.
        """
        plan = self.plan_batched(v, parsed, workers[0].engine, fingerprint=fingerprint)

        def unit_fn(
            worker: BatchTopK, positions: List[int]
        ) -> Callable[[], Tuple[List[int], List[TopKResult], Any]]:
            local = {p: i for i, p in enumerate(positions)}
            groups = {
                key: [local[p] for p in members]
                for key, members in plan.groups.items()
                if members[0] in local
            }
            sub_queries = [parsed[p] for p in positions]
            return lambda: (
                positions,
                *worker.run_with_report(v, sub_queries, fingerprint=fingerprint, groups=groups),
            )

        units = [
            WorkUnit(
                fn=unit_fn(workers[w], positions),
                worker=w,
                route="batched",
                label=f"worker{w}:{len(positions)}q",
            )
            for w, positions in enumerate(plan.placement)
            if positions
        ]
        return units, plan

    # -- streaming-route emission ----------------------------------------------
    def streaming_units(
        self,
        chunks: Union[np.ndarray, Iterable[np.ndarray]],
        parsed: Sequence[TopKQuery],
        chunk_elements: int,
        make_engine: Callable[[], BatchTopK],
        chunk_memo: Optional[ChunkMemo] = None,
        floors: Optional[Dict[bool, np.generic]] = None,
    ) -> Iterator[WorkUnit]:
        """Lazily emit one :class:`WorkUnit` per stream chunk, round-robin.

        ``chunks`` may be a single array (sliced transparently) or any
        iterable of 1-D arrays; oversized arrays are split to
        ``chunk_elements``.  Each unit distils its chunk into at most
        ``K = max(k)`` candidates per key order present in the batch — one
        :func:`~repro.service.streaming.distil_chunk` call per key order,
        shared by every query — and returns a :class:`ChunkOutcome`.  Units
        are yielded lazily so the executor's bounded queue also bounds
        read-ahead.

        ``floors`` maps a key order to the stream floor (the k-th value of
        that order's K-candidate pool).  It is read as each unit is
        *emitted*, so a caller that fills it after running the first units
        (the dispatcher's primer) has every later unit filter its chunk
        against the floor before any delegate pipeline runs.

        ``make_engine`` builds a fresh per-unit :class:`BatchTopK` (units for
        one worker may overlap in the pool, so they cannot share an engine).
        ``chunk_memo`` (when given) memoises each chunk's local candidates by
        content fingerprint together with the floor they were distilled
        under, so a replayed stream — or a shared prefix at any offset —
        skips the per-chunk pipeline entirely.  An entry distilled under a
        higher floor than the unit's is served tentatively: the outcome
        lists it in ``uncertified`` and carries a ``rerun`` that re-distils
        the chunk unfiltered should the caller's final pool never reach it.
        """
        kmax: Dict[bool, int] = {}
        for q in parsed:
            kmax[q.largest] = max(kmax.get(q.largest, 0), q.k)
        live_floors = floors if floors is not None else {}

        if isinstance(chunks, np.ndarray):
            chunks = [chunks]

        def distil_piece(
            piece: np.ndarray,
            offset: int,
            floors: Dict[bool, np.generic],
            orders: Sequence[bool] = tuple(sorted(kmax)),
            reuse: bool = True,
        ) -> ChunkOutcome:
            n = piece.shape[0]
            outcome = ChunkOutcome(
                offset=offset,
                length=n,
                rerun=functools.partial(distil_piece, piece, offset, {}, reuse=False),
            )
            fp = fingerprint_array(piece) if chunk_memo is not None else None
            engine = make_engine()

            def distil(values: np.ndarray, k: int, largest: bool) -> TopKResult:
                result = engine.run(values, [(k, largest)])[0]
                assert engine.last_report is not None
                outcome.reports.append(engine.last_report)
                return result

            for largest in orders:
                kk = min(kmax[largest], n)
                floor = floor_key(floors.get(largest), piece.dtype, largest)
                served = None
                if fp is not None and reuse:
                    served = chunk_memo.lookup(fp, kk, largest, floor)
                if served is not None:
                    outcome.candidates[largest], pending = served
                    if pending is None:
                        outcome.memo_hits += 1
                    else:
                        outcome.uncertified[largest] = pending
                    continue
                result, filter_bytes, filter_ms = distil_chunk(
                    piece, kk, largest, floor, distil, engine.config
                )
                if floor is not None:
                    # The filter pass is one kernel step of the unit.
                    outcome.reports.append(
                        BatchReport(query_bytes=filter_bytes, query_ms=filter_ms)
                    )
                outcome.candidates[largest] = result
                if fp is not None:
                    chunk_memo.put(fp, kk, largest, result, floor)
            return outcome

        def generate() -> Iterator[WorkUnit]:
            offset = 0
            index = 0
            for chunk in chunks:
                chunk = np.asarray(chunk)
                if chunk.ndim != 1:
                    raise ConfigurationError(
                        f"stream chunks must be one dimensional, got shape {chunk.shape}"
                    )
                for start in range(0, chunk.shape[0], chunk_elements):
                    piece = chunk[start : start + chunk_elements]
                    if not piece.shape[0]:
                        continue
                    worker = index % self.num_workers
                    yield WorkUnit(
                        fn=functools.partial(distil_piece, piece, offset, dict(live_floors)),
                        worker=worker,
                        route="streaming",
                        label=f"chunk{index}@worker{worker}",
                    )
                    offset += piece.shape[0]
                    index += 1

        return generate()
