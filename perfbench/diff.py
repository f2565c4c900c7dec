"""Compare two sets of benchmark runs ("bench diff"); standard library only.

    python3 perfbench/diff.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) of the run records
``run.py`` writes to ``perfbench/runs/``.  Only end-to-end (``--trace 0``)
runs are compared, and only runs of the same ``--seconds``: each
(workload, seconds) pair that both sides ran gets its own rows.  For every
end-to-end metric the table shows each side's first quartile, median and
third quartile over all its runs, and a verdict against the bound in
``BENCHMARK.json``:

* ``worse`` — the new median is worse than the base median by more than the
  bound;
* ``better`` — the new median is better by more than the base runs' own
  spread, and the new side wins at least 9 in 10 of the run pairs (seeds
  both sides ran are paired by the median of each side's runs of that seed;
  with no shared seed, every base run is paired with every new run);
* ``same`` — neither, with both sides' spread within the bound;
* ``unresolved`` — a side's spread (IQR over median) exceeds the bound, and
  not every new run beats, or loses to, every base run.

Runs the open-loop generator marked invalid are left out of the quartiles
and counted.  When the new side has more of them than the base side, the
program may itself have starved the generator, so no metric of that
workload is called ``better`` or ``same``: those verdicts become
``unresolved``.  Runs of either side with the same workload, seed, mode and
length must repeat their exact counts; any that differ are listed.  Exits 1
when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Tuple

from layers import drifted
from stats import median, quartiles, relative_spread

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(path: str) -> List[dict]:
    files = [path] if os.path.isfile(path) else glob.glob(os.path.join(path, "*.json"))
    runs = []
    for name in sorted(files):
        if name.endswith(".spans.json"):
            continue
        with open(name) as fh:
            runs.append(json.load(fh))
    return runs


def verdict(base: List[float], new: List[float], bound: float, higher: bool) -> str:
    sign = 1.0 if higher else -1.0
    _, b_med, _ = quartiles(base)
    _, n_med, _ = quartiles(new)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if max(relative_spread(base), relative_spread(new)) > bound:
        if all(sign * n > sign * b for n in new for b in base):
            return "better"
        if all(sign * n < sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if change < -bound:
        return "worse"
    return "better" if change > relative_spread(base) else "same"


def win_share(base: List[Tuple[int, float]], new: List[Tuple[int, float]], higher: bool) -> float:
    """Share of run pairs the new side wins; runs are ``(seed, value)``.

    Seeds both sides ran are paired by the median of each side's runs of
    that seed; with no shared seed every base run meets every new run.
    """
    sign = 1.0 if higher else -1.0

    def by_seed(runs: List[Tuple[int, float]]) -> Dict[int, float]:
        seeds: Dict[int, List[float]] = {}
        for seed, value in runs:
            seeds.setdefault(seed, []).append(value)
        return {seed: median(values) for seed, values in seeds.items()}

    b, n = by_seed(base), by_seed(new)
    shared = sorted(set(b) & set(n))
    pairs = [(n[s], b[s]) for s in shared] or [(nv, bv) for _, nv in new for _, bv in base]
    return sum(1 for nv, bv in pairs if sign * (nv - bv) > 0) / len(pairs)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of perfbench runs.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    sides = {"base": load(args.base), "new": load(args.new)}
    measured = {side: [r for r in runs if r["trace"] == 0] for side, runs in sides.items()}

    worse = False
    print(f"{'workload':12} {'metric':24} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'change':>8}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        lengths = {side: {r["seconds"] for r in runs if r["workload"] == wl}
                   for side, runs in measured.items()}
        if lengths["base"] != lengths["new"]:
            print(f"{wl}: base ran {sorted(lengths['base'])} s, new ran "
                  f"{sorted(lengths['new'])} s; only equal lengths are compared")
        for seconds in sorted(lengths["base"] & lengths["new"]):
            pick = {side: [r for r in runs if r["workload"] == wl and r["seconds"] == seconds]
                    for side, runs in measured.items()}
            invalid = {side: sum(1 for r in runs if r.get("valid") is False)
                       for side, runs in pick.items()}
            starved = invalid["new"] > invalid["base"]
            if any(invalid.values()):
                print(f"{wl}: left out invalid open-loop runs: base {invalid['base']} of "
                      f"{len(pick['base'])}, new {invalid['new']} of {len(pick['new'])}"
                      + ("; the new side has more, so nothing is better or same" if starved
                         else ""))
            valid = {side: [r for r in runs if r.get("valid") is not False]
                     for side, runs in pick.items()}
            label_wl = f"{wl}/{seconds:g}s"
            for m in spec["end_to_end"]:
                worse |= compare(label_wl, m, valid, starved)
    count_drift([r for runs in sides.values() for r in runs])
    return 1 if worse else 0


def compare(label_wl: str, m: dict, valid: Dict[str, List[dict]], starved: bool) -> bool:
    """Print one metric's row; True when its verdict is ``worse``."""
    name, higher = m["name"], m["better"] == "higher"
    runs = {side: [(r["seed"], r["metrics"][name]) for r in rs if name in r["metrics"]]
            for side, rs in valid.items()}
    if not runs["base"] or not runs["new"]:
        return False
    b = [v for _, v in runs["base"]]
    n = [v for _, v in runs["new"]]
    label = verdict(b, n, m["bound"], higher)
    if label == "better" and win_share(runs["base"], runs["new"], higher) < 0.9:
        label = "unresolved"
    if starved and label in ("better", "same"):
        label = "unresolved"
    bq, nq = quartiles(b), quartiles(n)
    change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
    print(f"{label_wl:12} {name:24} {fmt(bq):>30} {fmt(nq):>30} {change:+8.1%}  {label}")
    return label == "worse"


def fmt(q: Tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def count_drift(runs: List[dict]) -> None:
    """Exact counts of runs with the same workload, seed, mode and length must be equal."""
    first: Dict[tuple, dict] = {}
    differ = matched = 0
    for r in runs:
        key = (r["workload"], r["seed"], r["trace"], r["seconds"])
        if key not in first:
            first[key] = r.get("counts", {})
            continue
        matched += 1
        for name in drifted(first[key], r.get("counts", {})):
            differ += 1
            print(f"count drift: {key} {name}: {first[key][name]} != {r['counts'][name]}")
    print(f"exact counts: {matched} same-seed repeat(s) compared, {differ} difference(s)")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
