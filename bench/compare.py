"""Compare two sides of benchmark results against ``BENCHMARK.json``.

    python bench/compare.py A.json B.json
    python bench/compare.py parent-runs/ change-runs/

A side is one result file written by ``bench/run.py --out`` (its per-pass
samples are the samples) or a directory of such files, one per run
(each run's median is one sample; files pair up in name order, so run
the two sides alternately and name the files in run order).

One row per workload and end-to-end metric gives each side's median and
quartiles and a verdict, with B judged against A:

* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: either side's quartile spread exceeds the bound (unless
  every B sample beats every A sample, which is ``better``);
* ``better``: B improves on A by more than A's own quartile spread and,
  given at least 10 pairs, wins at least nine tenths of them;
* ``unchanged``: anything else.

A rise in the failed fraction is ``worse``.  Exit status 1 when any row
is worse or when the sides disagree on a count or, for the same program
seed, on an output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from harness import load_spec, summarize

MIN_PAIRS = 10
WIN_FRACTION = 0.9


def load_side(path: str) -> Dict[str, Dict[str, Any]]:
    """``workload -> {samples: {metric: [...]}, counts: {metric: {...}},
    digests: {(seed, digest)}, failed, attempted}``."""
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    else:
        files = [path]
    side: Dict[str, Dict[str, Any]] = {}
    for file in files:
        with open(file, encoding="utf-8") as fh:
            result = json.load(fh)
        for name, wl in result["workloads"].items():
            entry = side.setdefault(name, {"samples": {}, "counts": {},
                                           "digests": set(), "failed": 0,
                                           "attempted": 0})
            entry["failed"] += wl["failed"]
            entry["attempted"] += wl["attempted"]
            if wl["digest"] is not None:
                entry["digests"].add((wl["program_seed"], wl["digest"]))
            for metric, m in wl["metrics"].items():
                if m["unit"] == "count":
                    entry["counts"].setdefault(metric, set()).add(m["value"])
                    continue
                values = [m["value"]] if len(files) > 1 else m["samples"]
                entry["samples"].setdefault(metric, []).extend(values)
    return side


def win_fraction(a: Sequence[float], b: Sequence[float],
                 better: str) -> Optional[float]:
    """Share of the (a_i, b_i) pairs B wins (ties count for neither),
    or ``None`` with fewer than :data:`MIN_PAIRS` pairs."""
    pairs = list(zip(a, b))
    if len(pairs) < MIN_PAIRS:
        return None
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in pairs)
    return wins / len(pairs)


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (sb["median"] - sa["median"]) / sa["median"]
    spread_a = (sa["q3"] - sa["q1"]) / sa["median"]
    spread = max(spread_a, (sb["q3"] - sb["q1"]) / sb["median"])
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worsening > bound and (spread <= bound or
                              all(sign * (y - x) > 0 for x in a for y in b)):
        return "worse"
    if spread > bound:
        return "better" if all_better else "unresolved"
    wins = win_fraction(a, b, better)
    if -worsening > spread_a and (wins is None or wins >= WIN_FRACTION):
        return "better"
    return "unchanged"


def _cell(samples: Sequence[float]) -> str:
    s = summarize(samples)
    return (f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
            f"n={s['n']}")


def compare(a: Dict[str, Dict[str, Any]], b: Dict[str, Dict[str, Any]],
            spec: Dict[str, Any]) -> List[str]:
    """Print the comparison; return the problems that fail it."""
    problems: List[str] = []
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a or name not in b:
            continue
        wa, wb = a[name], b[name]
        for m in spec["end_to_end"]:
            xs, ys = wa["samples"].get(m["name"]), wb["samples"].get(m["name"])
            if not xs or not ys:
                continue
            v = verdict(xs, ys, m["bound"], m["better"])
            wins = win_fraction(xs, ys, m["better"])
            change = (summarize(ys)["median"] / summarize(xs)["median"] - 1)
            print(f"{name:14} {m['name']:12} A {_cell(xs):40} "
                  f"B {_cell(ys):40} {change:+7.1%} {v}"
                  + (f" (B wins {wins:.0%})" if wins is not None else ""))
            if v == "worse":
                problems.append(f"{name} {m['name']} worse")
        fa = wa["failed"] / max(1, wa["attempted"])
        fb = wb["failed"] / max(1, wb["attempted"])
        print(f"{name:14} {'failed_frac':12} A {fa:<40.6g} B {fb:<40.6g} "
              f"{'worse' if fb > fa else 'unchanged'}")
        if fb > fa:
            problems.append(f"{name} failed_frac worse")
        for metric in sorted(set(wa["counts"]) | set(wb["counts"])):
            ca, cb = wa["counts"].get(metric), wb["counts"].get(metric)
            if ca != cb:
                problems.append(f"{name} count {metric}: A {sorted(ca or [])}"
                                f" != B {sorted(cb or [])}")
        da, db = dict(wa["digests"]), dict(wb["digests"])
        for seed in sorted(set(da) & set(db)):
            if da[seed] != db[seed]:
                problems.append(f"{name} output digest differs at program "
                                f"seed {seed}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py",
        description="Judge benchmark results B against A with the bounds "
                    "in BENCHMARK.json.")
    parser.add_argument("a", help="result file or directory (baseline)")
    parser.add_argument("b", help="result file or directory (candidate)")
    args = parser.parse_args(argv)
    problems = compare(load_side(args.a), load_side(args.b), load_spec())
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
