"""Judge a change against its parent from two result files.

Each file holds the runs ``run.py --out`` appended for one commit.  Run at
least ten pairs per workload, alternating which commit goes first, with the
same benchmark code and settings on both sides.  Per workload and
end-to-end metric the verdict is:

* ``win``        -- the change reads better in >= 9/10 of the pairs and its
                    median beats the parent's by more than the parent's IQR
                    (and the pairs alternated);
* ``regression`` -- the change's median is worse than the parent's by more
                    than the metric's bound in BENCHMARK.json;
* ``unresolved`` -- either side's IQR is wider than the bound, so the bound
                    cannot be judged -- unless every change run reads better
                    than every parent run;
* ``same``       -- none of the above.

Untraced runs only; traced runs carry per-layer numbers, not verdicts.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[str, List[Dict]]:
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    by_workload: Dict[str, List[Dict]] = {}
    for run in sorted(runs, key=lambda r: r["started_unix"]):
        if not run["traced"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def quartiles(values: List[float]):
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def alternating(parent: List[Dict], change: List[Dict]) -> bool:
    """Each pair ran back to back, and the side that ran first alternates."""
    firsts = []
    last_end = float("-inf")
    for p, c in zip(parent, change):
        lo, hi = sorted((p["started_unix"], c["started_unix"]))
        if lo < last_end:
            return False
        last_end = hi
        firsts.append(p["started_unix"] < c["started_unix"])
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def judge(parent: List[float], change: List[float], better: str,
          bound: float, paired: bool) -> Dict:
    """Verdict on one metric of one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    worse_by = -sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    every_run_better = min(sign * c for c in change) > max(
        sign * p for p in parent)
    if (paired and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        verdict = "win"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "pairs": len(pairs), "wins": wins, "worse_by": worse_by,
            "spread": spread, "verdict": verdict}


def compare_files(parent_path: str, change_path: str,
                  definition: Dict) -> int:
    """Print one row per workload and metric; exit status 1 when any
    metric regressed or any run was incorrect."""
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    failing = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        paired = alternating(parent, change)
        print(f"== {workload}: {len(parent)} parent / {len(change)} change "
              f"runs, pairs {'alternate' if paired else 'do NOT alternate'}")
        if not all(run["correct"] for run in parent + change):
            print("   INCORRECT: a run failed its correctness checks")
            failing = True
        digests = {}
        for side, runs in (("parent", parent), ("change", change)):
            for run in runs:
                digests.setdefault(run["seed"], {})[side] = run["digest"]
        differ = sorted(seed for seed, d in digests.items()
                        if len(d) == 2 and d["parent"] != d["change"])
        if differ:
            print(f"   results differ from the parent at seeds {differ}")
        for metric in definition["end_to_end"]:
            name = metric["name"]
            row = judge([r["metrics"][name]["value"] for r in parent],
                        [r["metrics"][name]["value"] for r in change],
                        metric["better"], metric["bound"], paired)
            failing |= row["verdict"] == "regression"
            p1, pm, p3 = row["parent"]
            c1, cm, c3 = row["change"]
            print(f"   {name:<14} parent {pm:.4f} [{p1:.4f}..{p3:.4f}]  "
                  f"change {cm:.4f} [{c1:.4f}..{c3:.4f}] {metric['unit']}  "
                  f"wins {row['wins']}/{row['pairs']}  worse by "
                  f"{row['worse_by']:+.1%} (bound {metric['bound']:.0%})  "
                  f"{row['verdict']}")
    return 1 if failing else 0
