"""The benchmark's workloads: seeded inputs, dispatcher set-up, requests, oracle.

Every input is generated with numpy from the run's seed before any timed
interval starts; the serving core only ever receives the arrays.  Each
workload answers four questions for ``run.py``:

* ``inputs()`` — generate the seeded data (untimed);
* ``setup()`` — build a dispatcher and bring it to steady state (timed as
  ``setup_s``);
* ``request(i)`` / ``call(disp, req)`` — the i-th request and the public API
  call(s) that serve it (timed as the request's latency);
* ``reference(req)`` / ``comparator(req)`` — numpy's answer for the oracle,
  and numpy's own selection timed on the same input.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import ServiceDispatcher

UINT32_MAX = 0xFFFFFFFF
NUM_WORKERS = 2
DISTRIBUTIONS = ("UD", "ND", "CD")

#: The k range of the named workloads, and the queries an operator warms
#: every admitted name with: one k per octave, so every partition exponent
#: the range resolves to is banked at admission.  At 2^20 elements the range
#: resolves to 3 exponents, whose plans for 8 names fit the default plan bank.
K_MIN, K_MAX = 64, 4096
WARM_KS = [1 << e for e in range(6, 13)]


# -- the paper's synthetic distributions ---------------------------------------
def generate(dist: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """UD uniform, ND N(1e8, 10) rounded, CD the bucket-adversarial clusters."""
    if dist == "UD":
        return rng.integers(0, UINT32_MAX + 1, size=n, dtype=np.uint32)
    if dist == "ND":
        vals = np.rint(rng.normal(1e8, 10.0, size=n))
        return np.clip(vals, 0, UINT32_MAX).astype(np.uint32)
    # CD: one planted element in each of the 255 lower buckets per level, the
    # rest crowded into the top bucket, while a bucket still spans 256 values.
    pieces, lo, hi, remaining = [], 0, UINT32_MAX, n
    while (hi - lo + 1) // 256 >= 256:
        width = (hi - lo + 1) // 256
        base = lo + width * np.arange(255, dtype=np.int64)
        pieces.append((base + rng.integers(0, width, size=255)).astype(np.uint32))
        remaining -= 255
        lo += width * 255
    pieces.append(rng.integers(lo, hi + 1, size=remaining, dtype=np.int64).astype(np.uint32))
    out = np.concatenate(pieces)
    rng.shuffle(out)
    return out


def stratified_log_k(rng: np.random.Generator, count: int, lo: int, hi: int) -> List[int]:
    """``count`` log-uniform ks in ``[lo, hi]``, one per equal-width log stratum.

    Stratifying keeps the k mix, and with it every per-run figure, nearly
    identical from one seed to the next; the strata come in seeded order.
    """
    u = (rng.permutation(count) + rng.random(count)) / count
    ks = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return [int(min(max(round(k), lo), hi)) for k in ks]


def zipf_weights(count: int, s: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, count + 1) ** s
    return w / w.sum()


# -- oracle --------------------------------------------------------------------
def answer_ok(v: np.ndarray, res, k: int, top_desc: np.ndarray) -> bool:
    """Values are the reference top-k multiset and ``v[indices]`` equals them."""
    idx, vals = res.indices, res.values
    if idx.shape != (k,) or vals.shape != (k,):
        return False
    if k and (idx.min() < 0 or idx.max() >= v.shape[0]):
        return False
    if np.unique(idx).shape[0] != k or not np.array_equal(v[idx], vals):
        return False
    return np.array_equal(np.sort(vals)[::-1], top_desc[:k])


def numpy_topk(v: np.ndarray, k: int) -> np.ndarray:
    """The comparator: ``np.argpartition`` plus a sort of the top k (descending)."""
    n = v.shape[0]
    idx = np.argpartition(v, n - k)[n - k:]
    return np.sort(v[idx])[::-1]


@dataclass
class Request:
    index: int
    ks: List[int]
    name: Optional[str] = None          # named vector (warm, update)
    vector: Optional[np.ndarray] = None  # anonymous input (cold, bulk)
    chunks: Optional[List[np.ndarray]] = None  # streamed input (bulk)
    write: Optional[np.ndarray] = None   # new content (update writes)
    top_desc: Optional[np.ndarray] = None  # numpy's answer at max(ks)

    @property
    def num_queries(self) -> int:
        return 0 if self.write is not None else len(self.ks)


class Workload:
    name = ""
    loop = "closed"
    tail_pct = 90.0
    #: Requests whose modelled cost and counts must repeat exactly per seed.
    count_prefix = 24

    def __init__(self, seed: int, tmp_root: str) -> None:
        seeds = np.random.SeedSequence(seed).spawn(4)
        self.rng_inputs = np.random.default_rng(seeds[0])
        self.rng_requests = np.random.default_rng(seeds[1])
        self.rng_warmup = np.random.default_rng(seeds[2])
        self.rng_schedule = np.random.default_rng(seeds[3])
        self.tmp_root = tmp_root
        self._next = 0

    def next_index(self) -> int:
        """Index of the next request; one count runs across all loops of a run."""
        self._next += 1
        return self._next - 1

    def min_requests(self) -> int:
        """Enough samples that >= 10 lie beyond the tail percentile."""
        return max(self.count_prefix, int(np.ceil(10 / (1 - self.tail_pct / 100.0))))

    def inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> ServiceDispatcher:
        raise NotImplementedError

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def call(self, disp: ServiceDispatcher, req: Request) -> list:
        raise NotImplementedError

    def vector_of(self, req: Request) -> np.ndarray:
        raise NotImplementedError

    def reference(self, req: Request) -> np.ndarray:
        """Descending top-max(k) values of the request's input."""
        if req.top_desc is None:
            req.top_desc = numpy_topk(self.vector_of(req), max(req.ks))
        return req.top_desc

    def comparator(self, req: Request) -> None:
        """numpy's selection on the request's input (the timed comparator)."""
        numpy_topk(self.vector_of(req), max(req.ks))

    def check(self, req: Request, results: list) -> int:
        """Failed queries of one request (wrong answer or missing one)."""
        if req.write is not None:
            return 0
        v, top = self.vector_of(req), self.reference(req)
        good = sum(
            1 for res, k in zip(results, req.ks) if answer_ok(v, res, k, top)
        )
        return len(req.ks) - good

    def after(self, req: Request) -> None:
        """Benchmark-side bookkeeping once a request was answered (untimed)."""

    def teardown(self, disp: ServiceDispatcher) -> None:
        disp.shutdown()


class Cold(Workload):
    """One fresh anonymous 2^22 vector per request, one query, no reuse."""

    name = "cold"
    n = 1 << 22
    count_prefix = 72

    def inputs(self) -> None:
        # A fresh request vector is a seeded window of a per-distribution pool,
        # copied: new content to every cache, at the cost of one memcpy.
        self.pools = {
            d: generate(d, self.n + (1 << 21), self.rng_inputs) for d in DISTRIBUTIONS
        }
        self.block = 12
        self._ks: List[int] = []

    def _window(self, dist: str, rng: np.random.Generator) -> np.ndarray:
        off = int(rng.integers(0, 1 << 21))
        return np.array(self.pools[dist][off:off + self.n])

    def setup(self) -> ServiceDispatcher:
        disp = ServiceDispatcher(num_workers=NUM_WORKERS)
        for j, k in enumerate((64, 1024)):
            disp.dispatch(self._window(DISTRIBUTIONS[j], self.rng_warmup), [k])
        return disp

    def request(self, i: int) -> Request:
        if not self._ks:
            self._ks = stratified_log_k(self.rng_requests, self.block, 16, 4096)
        dist = DISTRIBUTIONS[i % 3]
        return Request(i, [self._ks.pop()], vector=self._window(dist, self.rng_requests))

    def call(self, disp: ServiceDispatcher, req: Request) -> list:
        return disp.dispatch(req.vector, req.ks)

    def vector_of(self, req: Request) -> np.ndarray:
        return req.vector

    def comparator(self, req: Request) -> None:
        # numpy's answer doubles as the oracle's reference on cold.
        req.top_desc = numpy_topk(req.vector, req.ks[0])


class _Named(Workload):
    """Shared machinery of the named-vector workloads (warm, update)."""

    n = 1 << 20
    num_names = 8
    popular_ks = (64, 100, 256, 1000, 4096)
    popular_share = 0.3

    def inputs(self) -> None:
        self.names = [f"v{i}" for i in range(self.num_names)]
        self.original = {
            nm: generate(DISTRIBUTIONS[i % 3], self.n, self.rng_inputs)
            for i, nm in enumerate(self.names)
        }
        self.current = dict(self.original)
        self.sorted = {nm: np.sort(v) for nm, v in self.original.items()}
        self.popularity = zipf_weights(self.num_names)
        self.tail = {
            nm: self.rng_inputs.permutation(np.arange(K_MIN, K_MAX + 1)) for nm in self.names
        }
        self.tail_used = {nm: 0 for nm in self.names}

    def _ks(self, rng: np.random.Generator, name: str, count: int) -> List[int]:
        ks = []
        for _ in range(count):
            if rng.random() < self.popular_share:
                ks.append(int(self.popular_ks[rng.integers(len(self.popular_ks))]))
            else:
                # The long tail never repeats a k on a name, so it never hits.
                pos = self.tail_used[name] % self.tail[name].shape[0]
                self.tail_used[name] += 1
                ks.append(int(self.tail[name][pos]))
        return ks

    def _pick(self, rng: np.random.Generator) -> str:
        return self.names[int(rng.choice(self.num_names, p=self.popularity))]

    def _admit_all(self, disp: ServiceDispatcher) -> None:
        for nm in self.names:
            disp.admit(nm, self.original[nm], warm=WARM_KS)

    def call(self, disp: ServiceDispatcher, req: Request) -> list:
        return disp.query(req.name, req.ks)

    def vector_of(self, req: Request) -> np.ndarray:
        return self.current[req.name]

    def reference(self, req: Request) -> np.ndarray:
        if req.top_desc is None:
            req.top_desc = self.sorted[req.name][::-1][: max(req.ks)]
        return req.top_desc


class Warm(_Named):
    """Open loop over 8 admitted 2^20 vectors with Zipf popularity."""

    name = "warm"
    loop = "open"
    callers = 2
    #: The reference rate, whose latencies are reported and which runs for
    #: ``reference_share`` of --seconds.
    reference_rate = 25.0
    reference_share = 0.5
    #: The fixed ladder ``sustained_rps`` is searched on: 6% geometric steps
    #: from 50 req/s, well below the measured capacity, to 151 req/s, each
    #: rung ``rung_requests`` long (20 samples beyond its p90), and the
    #: latency limit on the tail.
    ladder = tuple(float(round(50 * 1.06 ** i)) for i in range(20))
    rung_requests = 200
    limit_ms = 150.0
    #: The reference rung is invalid when the generator's p99 send lag
    #: exceeds this: on an idle 2-core machine it stays under 5 ms (the
    #: interpreter's 5 ms thread switch interval), and most slow runs were
    #: above it.  An invalid reference rung is run again, up to this often.
    max_gen_lag_ms = 5.0
    reference_attempts = 2
    warmup_requests = 32
    count_prefix = 96

    def inputs(self) -> None:
        super().inputs()
        self.sizes: List[int] = []

    def setup(self) -> ServiceDispatcher:
        disp = ServiceDispatcher(num_workers=NUM_WORKERS)
        self._admit_all(disp)
        for _ in range(self.warmup_requests):
            nm = self._pick(self.rng_warmup)
            disp.query(nm, self._ks(self.rng_warmup, nm, int(self.rng_warmup.integers(1, 17))))
        return disp

    def request(self, i: int) -> Request:
        if not self.sizes:
            self.sizes = list(self.rng_requests.permutation(np.arange(1, 17)))
        nm = self._pick(self.rng_requests)
        return Request(i, self._ks(self.rng_requests, nm, int(self.sizes.pop())), name=nm)

    def schedule(self, rate: float, seconds: float) -> List[float]:
        """Due times of a Poisson process with exactly ``rate * seconds`` arrivals."""
        count = max(1, int(round(rate * seconds)))
        return sorted(float(t) for t in self.rng_schedule.uniform(0.0, seconds, count))


class Update(_Named):
    """Closed loop over a named set twice the store budget, 1 write in 5."""

    name = "update"
    num_names = 16
    tail_pct = 95.0
    count_prefix = 120
    write_every = 5
    changed_elements = 4
    store_names = 8  # store_bytes holds half the working set

    def inputs(self) -> None:
        super().inputs()
        self._last_written: Optional[str] = None
        self.tmp_dirs: List[str] = []

    def setup(self) -> ServiceDispatcher:
        spill = tempfile.mkdtemp(prefix="spill-", dir=self.tmp_root)
        self.tmp_dirs.append(spill)
        disp = ServiceDispatcher(
            num_workers=NUM_WORKERS,
            store_bytes=self.store_names * self.n * 4,
            spill_dir=spill,
        )
        self._admit_all(disp)
        for _ in range(2 * self.num_names):
            nm = self._pick(self.rng_warmup)
            disp.query(nm, self._ks(self.rng_warmup, nm, 2))
        return disp

    def request(self, i: int) -> Request:
        rng = self.rng_requests
        if i % self.write_every == self.write_every - 1:
            nm = self._pick(rng)
            new = np.array(self.current[nm])
            pos = rng.choice(self.n, size=self.changed_elements, replace=False)
            # Half the changed elements jump into the top 64, so every write
            # changes the answer of the queries that follow it.
            floor = int(self.sorted[nm][-64])
            half = self.changed_elements // 2
            new[pos[:half]] = rng.integers(floor, UINT32_MAX + 1, size=half, dtype=np.int64)
            new[pos[half:]] = rng.integers(0, UINT32_MAX + 1, size=self.changed_elements - half,
                                           dtype=np.int64)
            self._last_written = nm
            return Request(i, [], name=nm, write=new)
        # The request after a write reads the name just written.
        nm = self._last_written or self._pick(rng)
        self._last_written = None
        return Request(i, self._ks(rng, nm, int(rng.integers(1, 5))), name=nm)

    def call(self, disp: ServiceDispatcher, req: Request) -> list:
        if req.write is None:
            return disp.query(req.name, req.ks)
        # Content changes replace the name: drop it from RAM and disk, then
        # admit the new content.  (An in-place re-admit serves stale answers
        # today; tracing.py's probes measure that separately.)
        disp.evict(req.name, spill=False)
        disp.admit(req.name, req.write)
        return []

    def after(self, req: Request) -> None:
        if req.write is None:
            return
        old, new = self.current[req.name], req.write
        changed = np.nonzero(old != new)[0]
        gone, added = np.sort(old[changed]), np.sort(new[changed])
        srt = self.sorted[req.name]
        # One sorted slot per removed value, also when removed values repeat.
        at = np.searchsorted(srt, gone)
        at += np.arange(len(at)) - np.searchsorted(gone, gone)
        srt = np.delete(srt, at)
        self.sorted[req.name] = np.insert(srt, np.searchsorted(srt, added), added)
        self.current[req.name] = new

    def teardown(self, disp: ServiceDispatcher) -> None:
        disp.shutdown()
        for path in self.tmp_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self.tmp_dirs = []


class Bulk(Workload):
    """2^23 vectors with 4 queries: 1 in 3 sharded, the rest streamed as 16 chunks."""

    name = "bulk"
    n = 1 << 23
    capacity = 1 << 22
    chunks = 16
    count_prefix = 16

    def inputs(self) -> None:
        self.pools = {
            d: generate(d, self.n + (1 << 21), self.rng_inputs) for d in DISTRIBUTIONS
        }

    def _window(self, dist: str, rng: np.random.Generator) -> np.ndarray:
        off = int(rng.integers(0, 1 << 21))
        return np.array(self.pools[dist][off:off + self.n])

    def setup(self) -> ServiceDispatcher:
        disp = ServiceDispatcher(num_workers=NUM_WORKERS, capacity_elements=self.capacity)
        v = self._window("UD", self.rng_warmup)
        disp.dispatch(v, [64, 1024])
        disp.dispatch(np.array_split(v, self.chunks), [64, 1024])
        return disp

    def request(self, i: int) -> Request:
        v = self._window(DISTRIBUTIONS[(i // 3) % 3], self.rng_requests)
        ks = stratified_log_k(self.rng_requests, 4, 16, 4096)
        # One request in three takes the sharded route and two stream, so the
        # median is a streamed request and the tail a sharded one; traced
        # (odd) requests see both routes in the same proportion.
        if i % 3 == 1:
            return Request(i, ks, vector=v)
        return Request(i, ks, vector=v, chunks=np.array_split(v, self.chunks))

    def call(self, disp: ServiceDispatcher, req: Request) -> list:
        return disp.dispatch(req.chunks if req.chunks is not None else req.vector, req.ks)

    def vector_of(self, req: Request) -> np.ndarray:
        return req.vector

    def comparator(self, req: Request) -> None:
        req.top_desc = numpy_topk(req.vector, max(req.ks))


WORKLOADS = {w.name: w for w in (Cold, Warm, Update, Bulk)}


def probe_staleness(seed: int, trials: int = 8) -> Dict[str, float]:
    """Share of answers that are stale after a content change the cache misses.

    ``readmit``: a named vector is re-admitted under its name with one
    element raised into the top k — the documented update path.
    ``anonymous``: a writable array already dispatched once is changed in
    place and dispatched again.  Write positions are uniform over the vector.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[4])
    disp = ServiceDispatcher(num_workers=NUM_WORKERS)
    stale = {"readmit": 0, "anonymous": 0}
    n, k = 1 << 20, 100
    try:
        for t in range(trials):
            for kind in stale:
                v = generate("UD", n, rng)
                new = np.array(v)
                new[int(rng.integers(n))] = UINT32_MAX
                if kind == "readmit":
                    name = f"probe{t}"
                    disp.admit(name, v)
                    disp.query(name, [k])
                    disp.admit(name, new)
                    res = disp.query(name, [k])[0]
                    disp.evict(name, spill=False)
                else:
                    disp.dispatch(v, [k])
                    v[:] = new
                    res = disp.dispatch(v, [k])[0]
                if not answer_ok(new, res, k, numpy_topk(new, k)):
                    stale[kind] += 1
    finally:
        disp.shutdown()
    return {kind: count / trials for kind, count in stale.items()}


def make_tmp_root(base: str) -> str:
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
