"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASELINE/ CANDIDATE/

Each argument is a results JSON written by ``run.py`` or a directory of
them; the fresh-process runs of every file are pooled.  For each
end-to-end metric and workload it prints both sides' median and
quartiles and a verdict:

* ``REGRESSION`` -- the candidate's median is worse than the baseline's
  by more than the metric's bound;
* ``unresolved`` -- the spread between runs (quartile distance over the
  median) on either side is wider than the bound, so the comparison
  cannot tell, unless every candidate run beats every baseline run;
* ``better`` / ``same`` otherwise.

A workload whose error rate rises is a regression too.  Exits 1 on any
regression, 2 when something is unresolved but nothing regressed, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any

from harness import benchmark_spec, quartiles


def load(path: str) -> list[dict[str, Any]]:
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not paths:
        raise SystemExit(f"no results JSON under {path}")
    reports = []
    for name in paths:
        with open(name, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return reports


def pooled(reports: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per workload: every run's metrics, and the worst error rate."""
    pool: dict[str, dict[str, Any]] = {}
    for report in reports:
        for workload, entry in report["workloads"].items():
            into = pool.setdefault(workload, {"runs": [], "error_rate": 0.0})
            into["runs"] += entry["runs"]
            into["error_rate"] = max(into["error_rate"], entry["error_rate"])
    return pool


def verdict(base: list[float], cand: list[float], bound: float, lower_is_better: bool) -> str:
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(cand)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (cm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm))
    all_better = all(sign * (c - b) < 0 for c in cand for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if worse < -bound else "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    metrics = benchmark_spec()["end_to_end"]
    base, cand = pooled(load(args.baseline)), pooled(load(args.candidate))

    counts = {"REGRESSION": 0, "unresolved": 0}
    for workload in base:
        if workload not in cand:
            print(f"{workload}: missing from {args.candidate}")
            counts["REGRESSION"] += 1
            continue
        print(f"{workload}  (baseline n={len(base[workload]['runs'])}, "
              f"candidate n={len(cand[workload]['runs'])})")  # fmt: skip
        for metric in metrics:
            name = metric["name"]
            a = [run[name] for run in base[workload]["runs"]]
            b = [run[name] for run in cand[workload]["runs"]]
            result = verdict(a, b, metric["bound"], metric["better"] == "lower")
            counts[result] = counts.get(result, 0) + 1
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(f"  {name:<20} {am:>12.6g} [{a1:.6g}, {a3:.6g}] -> {bm:>12.6g} "
                  f"[{b1:.6g}, {b3:.6g}] {metric['unit']:<10} bound {metric['bound']:.0%}  "
                  f"{result}")  # fmt: skip
        rose = cand[workload]["error_rate"] > base[workload]["error_rate"]
        counts["REGRESSION"] += rose
        print(f"  {'error_rate':<20} {base[workload]['error_rate']:>12.6g} -> "
              f"{cand[workload]['error_rate']:>12.6g}  {'REGRESSION' if rose else 'same'}")
    print(f"{counts['REGRESSION']} regression(s), {counts['unresolved']} unresolved")
    if counts["REGRESSION"]:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
