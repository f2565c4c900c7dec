"""Seeded benchmark of the Dr. Top-k serving core.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` alternates untraced and traced requests and prints the
per-layer metrics (see ``perfbench/README.md``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs every workload in turn and prints one table.
Every run also leaves a record in ``perfbench/runs/`` for ``diff.py`` and for
the exact-count check against an earlier run with the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from layers import (
    EXACT, PER_LAYER, UNITS, cache_snapshot, drifted, layer_metrics,
    modelled_ms_per_query, self_time_ranking,
)
from stats import median, percentile
from tracing import Tracer, covered_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
SETUP_REPEATS = 5


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


def now() -> float:
    return time.perf_counter()


class Tally:
    """Latency samples and answer checks of one measured phase."""

    def __init__(self) -> None:
        self.latency_ms: List[float] = []
        self.read_ms: List[float] = []  # untraced requests that carried queries
        self.traced_ms: List[float] = []
        self.comparator_ms: List[float] = []
        self.busy_s = 0.0
        self.queries = 0
        self.requests = 0
        self.attempted = 0
        self.failed = 0
        self.reports: List[Any] = []  # DispatchReports of the counted prefix
        self.rss: List[float] = []

    def add(self, latency_ms: float, queries: int, failed: int, traced: bool) -> None:
        (self.traced_ms if traced else self.latency_ms).append(latency_ms)
        if queries and not traced:
            self.read_ms.append(latency_ms)
        self.requests += 1
        # A write is one operation that can fail; a read is one per query.
        self.attempted += max(queries, 1)
        self.failed += failed
        self.queries += max(queries - failed, 0)


def serve(wl: Any, disp: Any, req: Any) -> Tuple[Optional[list], float]:
    """One request through the public API: (results or None, latency ms)."""
    t0 = now()
    try:
        out = wl.call(disp, req)
    except Exception as exc:  # a refusal or crash is a failed request, not a stop
        print(f"perfbench: request {req.index} failed: {exc!r}", file=sys.stderr)
        return None, (now() - t0) * 1e3
    return out, (now() - t0) * 1e3


def settle(wl: Any, req: Any, out: Optional[list], latency_ms: float, tally: Tally,
           traced: bool = False) -> None:
    if out is None:
        failed = max(req.num_queries, 1)
    else:
        failed = wl.check(req, out)
        wl.after(req)
    tally.add(latency_ms if out is not None else float("inf"), req.num_queries, failed, traced)


# -- closed loop ----------------------------------------------------------------
def closed_loop(wl: Any, disp: Any, seconds: float, at_least: int, tracer: Any = None) -> Tally:
    """One client; each request is sent when the previous one is answered.

    Runs for ``seconds`` and at least ``at_least`` requests.  Untraced runs
    time numpy's comparator on every request's input, before the request on
    odd requests and after it on even ones.  Traced runs trace every odd
    request instead.
    """
    tally = Tally()
    counted = 0
    start = now()
    while tally.requests < at_least or now() - start < seconds:
        i = wl.next_index()
        req = wl.request(i)
        traced = tracer is not None and i % 2 == 1
        compare = tracer is None and req.num_queries > 0
        if compare and i % 2 == 1:
            tally.comparator_ms.append(timed_ms(wl.comparator, req))
        before = disp.last_report
        if traced:
            with tracer.installed(), tracer.request(i):
                out, ms = serve(wl, disp, req)
        else:
            out, ms = serve(wl, disp, req)
        if compare and i % 2 == 0:
            tally.comparator_ms.append(timed_ms(wl.comparator, req))
        if (tracer is None or traced) and counted < wl.count_prefix:
            counted += 1
            if disp.last_report is not before:
                tally.reports.append(disp.last_report)
        tally.busy_s += ms / 1e3
        tally.rss.append(rss_mb())
        settle(wl, req, out, ms, tally, traced)
    return tally


def timed_ms(fn: Any, *args: Any) -> float:
    t0 = now()
    fn(*args)
    return (now() - t0) * 1e3


# -- open loop ------------------------------------------------------------------
class Rung:
    """One offered rate of the open loop: its samples and pass/fail verdict."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.tally = Tally()
        self.lag_ms: List[float] = []
        self.aborted = False
        self.drain_ms = 0.0
        self.requests: List[Any] = []

    def passed(self, tail_pct: float, limit_ms: float) -> bool:
        lat = self.tally.latency_ms + self.tally.traced_ms
        return (
            not self.aborted
            and self.tally.failed == 0
            and len(lat) == len(self.requests)
            and percentile(lat, tail_pct) <= limit_ms
            and self.drain_ms <= limit_ms
        )


def open_rung(wl: Any, disp: Any, rate: float, seconds: float, callers: int,
              tracer: Any = None) -> Rung:
    """Poisson arrivals at ``rate`` sent on schedule to ``callers`` threads.

    Latency is timed from when each request was due.  A request that starts
    more than five latency limits late means the backlog is growing: the rung
    stops sending and fails.  Answers are checked after the rung, so checking
    never delays a request.
    """
    rung = Rung(rate)
    due = wl.schedule(rate, seconds)
    rung.requests = [wl.request(wl.next_index()) for _ in due]
    results: List[Any] = [None] * len(due)
    pending: "queue.Queue[Optional[int]]" = queue.Queue()
    stop = threading.Event()
    late_s = 5 * wl.limit_ms / 1e3
    base = now() + 0.01

    def generator() -> None:
        for j, offset in enumerate(due):
            if stop.is_set():
                break
            delay = base + offset - now()
            if delay > 0:
                time.sleep(delay)
            rung.lag_ms.append(max(0.0, (now() - base - offset) * 1e3))
            pending.put(j)
        for _ in range(callers):
            pending.put(None)

    def caller() -> None:
        while True:
            j = pending.get()
            if j is None:
                return
            if stop.is_set():
                continue
            req, due_at = rung.requests[j], base + due[j]
            if now() - due_at > late_s:
                rung.aborted = True
                stop.set()
                continue
            start = now()
            if tracer is not None and j % 2 == 1:
                with tracer.installed(), tracer.request(req.index):
                    out, _ = serve(wl, disp, req)
            else:
                out, _ = serve(wl, disp, req)
            end = now()
            results[j] = (out, (end - due_at) * 1e3, start, end)
            rung.tally.rss.append(rss_mb())

    threads = [threading.Thread(target=generator)]
    threads += [threading.Thread(target=caller) for _ in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    in_flight = [(r[2], r[3]) for r in results if r is not None]
    if in_flight:
        first, last = min(s for s, _ in in_flight), max(e for _, e in in_flight)
        rung.drain_ms = max(0.0, (last - base - seconds) * 1e3)
        rung.tally.busy_s = covered_ms(in_flight, first, last) / 1e3
    for j, (req, res) in enumerate(zip(rung.requests, results)):
        if res is not None:
            settle(wl, req, res[0], res[1], rung.tally, tracer is not None and j % 2 == 1)
    return rung


# -- runs -----------------------------------------------------------------------
def set_up(wl: Any) -> Tuple[float, Any]:
    """One timed set-up: (seconds, dispatcher)."""
    t0 = now()
    disp = wl.setup()
    return now() - t0, disp


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def ladder(wl: Any, disp: Any, floor: float) -> Tuple[List[Rung], float]:
    """Bisect the fixed ladder for the highest rate that passes.

    A rung that fails is run once more before it counts as failed, so a
    single stall of the shared machine does not end the search.  When no
    rung passes, the rate is ``floor``: the reference rate if its rung
    passed, else 0.
    """
    rungs: List[Rung] = []
    passed, failed = -1, len(wl.ladder)
    while failed - passed > 1:
        mid = (passed + failed) // 2
        rate = wl.ladder[mid]
        for _ in range(2):
            rungs.append(open_rung(wl, disp, rate, wl.rung_requests / rate, wl.callers))
            if rungs[-1].passed(wl.tail_pct, wl.limit_ms):
                passed = mid
                break
        else:
            failed = mid
    return rungs, wl.ladder[passed] if passed >= 0 else floor


def rung_row(wl: Any, rung: Rung) -> Dict[str, Any]:
    lat = rung.tally.latency_ms
    return {"rate": rung.rate, "passed": rung.passed(wl.tail_pct, wl.limit_ms),
            "aborted": rung.aborted, "requests": len(rung.requests),
            "p50_ms": median(lat) if lat else None,
            "tail_ms": percentile(lat, wl.tail_pct) if lat else None,
            "drain_ms": rung.drain_ms}


def end_to_end(wl: Any, disp: Any, seconds: float) -> Tuple[Dict, Tally, Dict]:
    extra: Dict[str, Any] = {}
    if wl.loop == "closed":
        tally = closed_loop(wl, disp, seconds, wl.min_requests())
        lat, busy, rss = tally.latency_ms, tally.busy_s, tally.rss
        sustained = tally.requests / busy
    else:
        # The counted prefix runs first, one request at a time, so its
        # modelled cost is exact; it also carries the interleaved comparator.
        tally = closed_loop(wl, disp, 0.0, wl.count_prefix)
        # A generator that fell behind its schedule means the machine starved
        # the benchmark itself: that reference rung is invalid and is run
        # again, and the attempt whose generator kept time best is reported.
        # The record keeps every attempt's figures, so the choice hides nothing.
        attempts: List[Rung] = []
        for _ in range(wl.reference_attempts):
            attempts.append(open_rung(wl, disp, wl.reference_rate,
                                      wl.reference_share * seconds, wl.callers))
            if percentile(attempts[-1].lag_ms, 99) <= wl.max_gen_lag_ms:
                break
        lags = [percentile(r.lag_ms, 99) for r in attempts]
        ref = attempts[lags.index(min(lags))]
        floor = wl.reference_rate if ref.passed(wl.tail_pct, wl.limit_ms) else 0.0
        rungs, sustained = ladder(wl, disp, floor)
        for rung in attempts + rungs:
            tally.attempted += rung.tally.attempted
            tally.failed += rung.tally.failed
        lat, busy, rss = ref.tally.latency_ms, ref.tally.busy_s, ref.tally.rss
        tally.queries = ref.tally.queries
        extra = {
            "valid": min(lags) <= wl.max_gen_lag_ms,
            "attempts": [dict(rung_row(wl, r), gen_lag_p99_ms=lag, reported=r is ref)
                         for r, lag in zip(attempts, lags)],
            "ladder": [rung_row(wl, r) for r in rungs],
        }
    metrics = {
        "latency_p50_ms": median(lat),
        "latency_tail_ms": percentile(lat, wl.tail_pct),
        "queries_per_s": tally.queries / busy if busy else 0.0,
        "sustained_rps": sustained,
        "argpartition_ratio": median(tally.read_ms) / median(tally.comparator_ms),
        "rss_mb": median(rss),
        "modelled_ms_per_query": modelled_ms_per_query(tally.reports),
    }
    extra["samples"] = len(lat)
    return metrics, tally, extra


def traced(wl: Any, disp: Any, seconds: float, seed: int) -> Tuple[Dict, Tally, Dict, Any]:
    """Alternate untraced and traced requests on one caller thread."""
    from workloads import probe_staleness

    tracer = Tracer()
    before = cache_snapshot(disp)
    lag: List[float] = []
    if wl.loop == "closed":
        tally = closed_loop(wl, disp, seconds, max(wl.min_requests(), 2 * wl.count_prefix), tracer)
    else:
        rung = open_rung(wl, disp, wl.reference_rate, seconds, 1, tracer)
        tally, lag = rung.tally, rung.lag_ms
    ids = sorted(tracer.roots)
    metrics = layer_metrics(tracer, ids, ids[: wl.count_prefix], before)
    probes = probe_staleness(seed)
    untraced_p50 = median([ms for ms in tally.latency_ms if ms != float("inf")])
    metrics.update({
        "gen.lag_ms": percentile(lag, 99) if lag else 0.0,
        "trace.overhead_ratio": median(tally.traced_ms) / untraced_p50,
        "oracle.error_ratio": tally.failed / max(tally.attempted, 1),
        "probe.readmit_stale_ratio": probes["readmit"],
        "probe.anonymous_stale_ratio": probes["anonymous"],
    })
    extra = {"self_time_ms": self_time_ranking(tracer, ids), "traced_requests": len(ids)}
    return metrics, tally, extra, tracer


def previous_counts(stem: str) -> Optional[Dict[str, float]]:
    """Exact counts of the latest earlier run with the same workload and seed."""
    if not os.path.isdir(RUNS):
        return None
    earlier = sorted(f for f in os.listdir(RUNS) if f.startswith(stem) and f.endswith(".json")
                     and not f.endswith(".spans.json"))
    if not earlier:
        return None
    with open(os.path.join(RUNS, earlier[-1])) as fh:
        return json.load(fh).get("counts")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold", "warm", "update", "bulk", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_program()
    from workloads import WORKLOADS, make_tmp_root

    tmp_root = make_tmp_root(os.path.join(HERE, ".tmp"))
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp_root)
        wl.inputs()
        first_setup_s, disp = set_up(wl)
        try:
            if args.trace:
                metrics, tally, extra, tracer = traced(wl, disp, args.seconds, args.seed)
            else:
                metrics, tally, extra = end_to_end(wl, disp, args.seconds)
                tracer = None
        finally:
            wl.teardown(disp)
        if not args.trace:
            # The repeats run after the measured phase, so what they leave
            # behind in the heap cannot shift its memory figures.
            setups = [first_setup_s]
            for _ in range(SETUP_REPEATS - 1):
                seconds, disp = set_up(wl)
                wl.teardown(disp)
                setups.append(seconds)
            metrics["setup_s"] = median(setups)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.seconds:g}s-"
    counts = {name: metrics[name] for name in EXACT if name in metrics}
    drift = drifted(previous_counts(stem), counts)
    for name in drift:
        print(f"perfbench: count {name} drifted from the previous run with this seed",
              file=sys.stderr)
    if args.trace:
        metrics["counts.drifted"] = len(drift)
        shown = {name: {"value": metrics[name], "unit": UNITS[name]} for name, _, _ in PER_LAYER}
    else:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                 for m in spec["end_to_end"]}

    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, stem + time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "metrics": {k: v["value"] for k, v in shown.items()},
        "counts": counts, "drifted": drift, "attempted": tally.attempted,
        "failed": tally.failed, **extra,
    }
    with open(path + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(path + ".spans.json")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": shown,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process; one table at the end."""
    rows, status = [], 0
    for name in ("cold", "warm", "update", "bulk"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= 0 if result["correct"] else 1
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        rows.append((name, "failed/attempted", result["failed"], str(result["attempted"])))
    for row in rows:
        print(f"{row[0]:8} {row[1]:32} {row[2]:>14.6g} {row[3]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
