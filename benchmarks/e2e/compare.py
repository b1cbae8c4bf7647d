"""Judge a change against its parent with the rules in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --parent p01.json ... p10.json \\
        --change c01.json ... c10.json

Every file is one ``run.py --out`` result.  The i-th parent file and the
i-th change file form a pair; take at least ten pairs, alternating which
side runs first.  For every workload and end-to-end metric the script
prints each side's median and quartiles, the pairs the change won (ties
count for neither side) and a verdict:

* ``unresolved`` -- the parent's inter-quartile spread, as a share of
  its median, exceeds the metric's bound, and not every change run
  beats every parent run (then ``better``);
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``gain`` -- the change won at least nine pairs in ten and its median
  beats the parent's by more than the parent's inter-quartile spread;
* ``same`` -- otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
GAIN_SHARE = 0.9


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better: str, bound: float):
    """The rule for one metric on one workload; ``parent[i]`` and
    ``change[i]`` are pair ``i``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if (p3 - p1) / abs(pmed) > bound:
        beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("better" if beats_all else "unresolved"), wins
    if sign * (pmed - cmed) / abs(pmed) > bound:
        return "regression", wins
    if wins >= GAIN_SHARE * len(parent) and sign * (cmed - pmed) > p3 - p1:
        return "gain", wins
    return "same", wins


def load_runs(path: Path):
    """{workload: {metric: value}} of a result file's untraced runs."""
    runs = json.loads(Path(path).read_text())["runs"]
    return {r["workload"]: {k: m["value"] for k, m in r["metrics"].items()}
            for r in runs if not r["trace"]}


def compare(spec, parent_files, change_files):
    """One row per workload and end-to-end metric."""
    if len(parent_files) != len(change_files):
        raise ValueError("give as many change files as parent files")
    if len(parent_files) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got "
                         f"{len(parent_files)}")
    parents = [load_runs(p) for p in parent_files]
    changes = [load_runs(c) for c in change_files]
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in r for r in parents + changes):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[workload][name] for r in parents]
            change = [r[workload][name] for r in changes]
            outcome, wins = verdict(parent, change, metric["better"],
                                    metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "parent": quartiles(parent),
                         "change": quartiles(change), "wins": wins,
                         "pairs": len(parent), "verdict": outcome})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    try:
        rows = compare(spec, args.parent, args.change)
    except ValueError as exc:
        parser.error(str(exc))

    def fmt(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':16} {'metric':20} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'wins':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:16} {row['metric']:20} "
              f"{fmt(row['parent']):32} {fmt(row['change']):32} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
