"""Per-layer metrics of a traced run, derived from spans and DispatchReports.

Times (``*_ms``) are milliseconds per traced request, each a layer's
inclusive span time unless named ``self``.  Counts are totals over the
*counted* requests — the first ``count_prefix`` traced requests — so they are
a function of the seed alone and repeat exactly between runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from stats import median
from tracing import Tracer, covered_ms, self_times

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("algorithms.select_calls", "count", "lower"),
    ("algorithms.select_ms", "ms", "lower"),
    ("algorithms.to_keys_ms", "ms", "lower"),
    ("core.construct_calls", "count", "lower"),
    ("core.construct_ms", "ms", "lower"),
    ("core.prepare_ms", "ms", "lower"),
    ("core.concat_ms", "ms", "lower"),
    ("core.workload_ratio", "ratio", "lower"),
    ("gpusim.bytes_per_query", "B", "lower"),
    ("gpusim.construction_bytes", "B", "lower"),
    ("cache.fingerprint_calls", "count", "lower"),
    ("cache.fingerprint_ms", "ms", "lower"),
    ("cache.result_hit_ratio", "ratio", "higher"),
    ("planbank.hits", "count", "higher"),
    ("planbank.hit_ratio", "ratio", "higher"),
    ("planbank.bytes", "B", "lower"),
    ("router.plan_ms", "ms", "lower"),
    ("router.groups_per_dispatch", "count", "lower"),
    ("router.groups_split", "count", "lower"),
    ("executor.run_ms", "ms", "lower"),
    ("executor.queue_wait_ms", "ms", "lower"),
    ("executor.max_queue_wait_ms", "ms", "lower"),
    ("executor.backpressure_waits", "count", "lower"),
    ("executor.overlap", "ratio", "higher"),
    ("fusion.ms", "ms", "lower"),
    ("fusion.queries_per_selection", "ratio", "higher"),
    ("fusion.stage_first_ms", "ms", "lower"),
    ("fusion.stage_gather_ms", "ms", "lower"),
    ("fusion.stage_refine_ms", "ms", "lower"),
    ("fusion.stage_second_ms", "ms", "lower"),
    ("fusion.arena_hit_ratio", "ratio", "higher"),
    ("store.admit_ms", "ms", "lower"),
    ("store.evictions", "count", "lower"),
    ("spill.serves", "count", "lower"),
    ("spill.promotions", "count", "lower"),
    ("streaming.ms", "ms", "lower"),
    ("streaming.chunk_memo_hit_ratio", "ratio", "higher"),
    ("distributed.topk_batch_ms", "ms", "lower"),
    ("distributed.comm_modelled_ms", "ms", "lower"),
    ("dispatcher.self_ms", "ms", "lower"),
    ("gen.lag_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("oracle.error_ratio", "ratio", "lower"),
    ("probe.readmit_stale_ratio", "ratio", "lower"),
    ("probe.anonymous_stale_ratio", "ratio", "lower"),
    ("counts.drifted", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Counts that must repeat exactly between two runs with the same seed.
EXACT = (
    "core.construct_calls",
    "algorithms.select_calls",
    "cache.fingerprint_calls",
    "planbank.hits",
    "gpusim.bytes_per_query",
    "gpusim.construction_bytes",
    "modelled_ms_per_query",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def modelled_ms_per_query(reports: List[Any]) -> float:
    """gpusim-modelled ``DispatchReport.total_ms`` per query answered."""
    return _ratio(sum(r.total_ms for r in reports), sum(r.num_queries for r in reports))


def layer_metrics(
    tracer: Tracer,
    traced: List[int],
    counted: List[int],
    before: Dict[str, float],
) -> Dict[str, float]:
    """Every span- and report-derived metric of :data:`PER_LAYER`.

    ``traced`` are the traced request ids, ``counted`` their counted prefix,
    ``before`` the cache/store counters when the run started; the window for
    the cumulative counters ends at the last counted dispatch.
    """
    spans = tracer.by_request()
    per = max(len(traced), 1)

    def total_ms(name: str, ids: List[int]) -> float:
        return sum(s.ms for r in ids for s in spans.get(r, []) if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for r in counted for s in spans.get(r, []) if s.name == name)

    def reports(ids: List[int]) -> List[Any]:
        return [rep for r in ids for _, rep in tracer.reports.get(r, []) if rep is not None]

    every, prefix = reports(traced), reports(counted)
    deltas = window_deltas(before, counters(*(
        (prefix[-1].store, prefix[-1].plan_bank, prefix[-1].chunk_memo) if prefix else (None,) * 3
    )))
    queries = sum(r.num_queries for r in every)
    answered = sum(r.num_queries - r.result_cache_hits for r in every)
    hits = sum(r.plan_bank_hits for r in every)
    built = sum(r.constructions for r in every)
    ran = [r for r in every if r.wall_ms > 0]
    arena = sum(r.arena_hits + r.arena_misses for r in every)
    stage = lambda key: sum(r.fusion_stage_ms.get(key, 0.0) for r in every) / per  # noqa: E731
    routed = [r for r in every if r.route != "cached"]
    workload = [row for r in traced for row in tracer.workload.get(r, [])]
    self_ms = {r: self_times(spans.get(r, [])) for r in traced}
    streamed = sum(
        s.ms for r in traced for s, rep in tracer.reports.get(r, [])
        if rep is not None and rep.route == "streaming"
    )
    return {
        "algorithms.select_calls": calls("algorithms.select"),
        "algorithms.select_ms": total_ms("algorithms.select", traced) / per,
        "algorithms.to_keys_ms": total_ms("algorithms.to_keys", traced) / per,
        "core.construct_calls": calls("core.construct"),
        "core.construct_ms": total_ms("core.construct", traced) / per,
        "core.prepare_ms": total_ms("core.prepare", traced) / per,
        "core.concat_ms": total_ms("core.concat", traced) / per,
        "core.workload_ratio": _ratio(sum(c for c, _ in workload), sum(n for _, n in workload)),
        "gpusim.bytes_per_query": _ratio(
            sum(r.bytes_moved for r in prefix), sum(r.num_queries for r in prefix)
        ),
        "gpusim.construction_bytes": _ratio(sum(r.construction_bytes for r in prefix), len(counted)),
        "cache.fingerprint_calls": calls("cache.fingerprint"),
        "cache.fingerprint_ms": total_ms("cache.fingerprint", traced) / per,
        "cache.result_hit_ratio": _ratio(sum(r.result_cache_hits for r in every), queries),
        "planbank.hits": sum(r.plan_bank_hits for r in prefix),
        "planbank.hit_ratio": _ratio(hits, hits + built),
        "planbank.bytes": deltas.get("planbank.bytes", 0.0),
        "router.plan_ms": (total_ms("router.plan", traced) + total_ms("router.classify", traced)) / per,
        "router.groups_per_dispatch": _ratio(
            sum(sum(w.groups for w in r.workers) for r in routed), len(routed)
        ),
        "router.groups_split": sum(r.groups_split for r in prefix),
        "executor.run_ms": total_ms("executor.run", traced) / per,
        "executor.queue_wait_ms": sum(r.unit_queue_ms_sum for r in every) / per,
        "executor.max_queue_wait_ms": max((r.max_unit_queue_ms for r in every), default=0.0),
        "executor.backpressure_waits": sum(r.backpressure_waits for r in prefix),
        "executor.overlap": _ratio(sum(r.unit_wall_ms_sum for r in ran), sum(r.wall_ms for r in ran)),
        "fusion.ms": total_ms("fusion.group", traced) / per,
        "fusion.queries_per_selection": _ratio(answered, sum(r.selection_calls for r in every)),
        "fusion.stage_first_ms": stage("first_ms"),
        "fusion.stage_gather_ms": stage("gather_ms"),
        "fusion.stage_refine_ms": stage("refine_ms"),
        "fusion.stage_second_ms": stage("second_ms"),
        "fusion.arena_hit_ratio": _ratio(sum(r.arena_hits for r in every), arena),
        "store.admit_ms": _ratio(
            total_ms("store.admit", traced),
            sum(1 for r in traced for s in spans.get(r, []) if s.name == "store.admit"),
        ),
        "store.evictions": deltas.get("store.evictions", 0.0),
        "spill.serves": sum(r.spill_serves for r in prefix),
        "spill.promotions": deltas.get("spill.promotions", 0.0),
        "streaming.ms": streamed / per,
        "streaming.chunk_memo_hit_ratio": deltas.get("streaming.chunk_memo_hit_ratio", 0.0),
        "distributed.topk_batch_ms": total_ms("distributed.topk_batch", traced) / per,
        "distributed.comm_modelled_ms": sum(
            r.communication_ms for r in every if r.route == "sharded"
        ) / per,
        "dispatcher.self_ms": sum(m.get("dispatcher.dispatch", 0.0) for m in self_ms.values()) / per,
        "trace.span_coverage": median([coverage(tracer, r, spans.get(r, [])) for r in traced] or [0.0]),
        "modelled_ms_per_query": modelled_ms_per_query(prefix),
    }


def coverage(tracer: Tracer, request: int, spans: list) -> float:
    """Share of a request's wall-clock its top-level spans cover."""
    root = tracer.roots[request]
    top = [(s.start, s.end) for s in spans if s.parent == root.id]
    return _ratio(covered_ms(top, root.start, root.end), root.ms)


def self_time_ranking(tracer: Tracer, traced: List[int]) -> List[List[Any]]:
    """Span names by total self time over the traced requests, largest first."""
    spans = tracer.by_request()
    totals: Dict[str, float] = {}
    for r in traced:
        for name, ms in self_times(spans.get(r, [])).items():
            if name != "request":
                totals[name] = totals.get(name, 0.0) + ms
    return [[name, round(ms, 3)] for name, ms in sorted(totals.items(), key=lambda kv: -kv[1])]


def counters(store: Any, plan_bank: Any, memo: Any) -> Dict[str, float]:
    """Cumulative store, spill, plan-bank and chunk-memo counters of ``CacheInfo``s."""
    out: Dict[str, float] = {}
    if store is not None:
        out["store.evictions"], out["spill.promotions"] = store.evictions, store.promotions
    if plan_bank is not None:
        out["planbank.bytes"] = plan_bank.bytes
    if memo is not None:
        out["memo.hits"], out["memo.misses"] = memo.hits, memo.misses
    return out


def cache_snapshot(disp: Any) -> Dict[str, float]:
    """The dispatcher's :func:`counters` now."""
    return counters(*(
        None if part is None else part.info()
        for part in (disp.store, disp.plan_bank, disp.chunk_memo)
    ))


def window_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    memo_hits = after.get("memo.hits", 0) - before.get("memo.hits", 0)
    memo_all = memo_hits + after.get("memo.misses", 0) - before.get("memo.misses", 0)
    return {
        "store.evictions": after.get("store.evictions", 0) - before.get("store.evictions", 0),
        "spill.promotions": after.get("spill.promotions", 0) - before.get("spill.promotions", 0),
        "planbank.bytes": after.get("planbank.bytes", 0),
        "streaming.chunk_memo_hit_ratio": _ratio(memo_hits, memo_all),
    }


def drifted(previous: Optional[Dict[str, float]], current: Dict[str, float]) -> List[str]:
    """Exact counts that differ from a previous run with the same seed."""
    if not previous:
        return []
    return [name for name in EXACT if name in current and name in previous
            and previous[name] != current[name]]
