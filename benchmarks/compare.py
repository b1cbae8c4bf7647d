#!/usr/bin/env python
"""Diff a fresh bench run against its committed repo-root baseline.

Each *suite* pins one performance story with a committed baseline at
the repo root whose **ratio** metrics cancel out absolute machine
speed, so they transfer across hosts far better than raw milliseconds:

* ``event_stream`` — the compiled-plan event path
  (``BENCH_event_stream.json``: ``scatter_speedup``; ``speedup`` is
  recorded but not compared: its dense side is the 1-2 ms closed-form
  layer, so run-to-run noise moves it by half, and every gain of the
  dense path lowers it);
* ``serve`` — the multi-process serving fleet (``BENCH_serve.json``:
  ``rps_vs_single``, requests/sec per worker count relative to one
  in-process session);
* ``train`` — the streaming training data path (``BENCH_train.json``:
  ``speedup`` per record — data-path images/sec vs the historical
  per-image loader, pool-backward kernels vs their old formulations,
  and peak-RSS ratio of in-memory over streamed training);
* ``obs`` — the observability layer (``BENCH_obs.json``:
  ``overhead_pct`` per record — telemetry cost as a percent of the
  work it instruments, floored at the bench's noise floor; lower is
  better).

This script compares those ratios record-by-record against the fresh
``benchmarks/results/<suite>.json`` and flags any that regressed
beyond a relative tolerance.

Usage::

    python benchmarks/compare.py                     # event_stream, strict
    python benchmarks/compare.py --suite serve       # the fleet suite
    python benchmarks/compare.py --warn-only         # CI: report only
    python benchmarks/compare.py --tolerance 0.4
    python benchmarks/compare.py --warn-only --fail-on-regress 60
                                  # CI: warn at the tolerance, but still
                                  # gate hard on >=60% regressions

Only regressions count — a fresh run that is *faster* than baseline
never fails.  Lower-is-better metrics (``overhead_pct``) regress when
they grow.  Records present only in the fresh run (e.g. a 4-worker
fleet measurement the 1-core baseline host could not take) are
ignored; records missing from the fresh run are regressions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"


def _event_stream_key(record: dict) -> tuple:
    return (record["scheme"], record["window"], record["input_density"])


def _serve_key(record: dict) -> tuple:
    return (record["mode"], record["workers"])


def _train_key(record: dict) -> tuple:
    return (record["case"],)


def _obs_key(record: dict) -> tuple:
    return (record["case"],)


#: suite name -> how to load and diff it.  ``metrics`` maps each ratio
#: metric to True when higher is better.
SUITES = {
    "event_stream": {
        "baseline": REPO_ROOT / "BENCH_event_stream.json",
        "fresh": RESULTS / "event_stream.json",
        "bench": "benchmarks/bench_event_stream.py",
        "schema_version": 2,
        "metrics": {
            "scatter_speedup": True,
        },
        "key": _event_stream_key,
    },
    "serve": {
        "baseline": REPO_ROOT / "BENCH_serve.json",
        "fresh": RESULTS / "serve.json",
        "bench": "benchmarks/bench_serve.py",
        "schema_version": 1,
        "metrics": {
            "rps_vs_single": True,
        },
        "key": _serve_key,
    },
    "train": {
        "baseline": REPO_ROOT / "BENCH_train.json",
        "fresh": RESULTS / "train.json",
        "bench": "benchmarks/bench_train.py",
        "schema_version": 1,
        "metrics": {
            "speedup": True,
        },
        "key": _train_key,
    },
    "obs": {
        "baseline": REPO_ROOT / "BENCH_obs.json",
        "fresh": RESULTS / "obs.json",
        "bench": "benchmarks/bench_obs.py",
        "schema_version": 1,
        "metrics": {
            "overhead_pct": False,
        },
        "key": _obs_key,
    },
}


def load(path: pathlib.Path, suite: dict) -> dict:
    if not path.exists():
        sys.exit(f"compare.py: {path} not found — run {suite['bench']} "
                 f"first (fresh run) or commit a baseline "
                 f"(see {suite['baseline'].name}).")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        sys.exit(f"compare.py: {path} is not valid JSON: {exc}")
    expected = suite["schema_version"]
    if data.get("schema_version") != expected:
        sys.exit(f"compare.py: {path} has schema_version "
                 f"{data.get('schema_version')!r}, expected {expected} — "
                 f"re-run the bench on this checkout.")
    return data


def compare(baseline: dict, fresh: dict, suite: dict,
            tolerance: float) -> list[str]:
    """Return a list of human-readable regression messages."""
    key_of = suite["key"]
    fresh_by_key = {key_of(r): r for r in fresh["records"]}
    problems = []
    for base in baseline["records"]:
        key = key_of(base)
        got = fresh_by_key.get(key)
        if got is None:
            problems.append(f"{key}: missing from fresh run")
            continue
        for metric, higher_is_better in suite["metrics"].items():
            base_v, got_v = base[metric], got[metric]
            if higher_is_better:
                floor = base_v * (1.0 - tolerance)
                if got_v < floor:
                    problems.append(
                        f"{key}: {metric} regressed {base_v:.2f} -> "
                        f"{got_v:.2f} (floor {floor:.2f} at "
                        f"tolerance {tolerance:.0%})")
            else:
                ceiling = base_v * (1.0 + tolerance)
                if got_v > ceiling:
                    problems.append(
                        f"{key}: {metric} regressed {base_v:.2f} -> "
                        f"{got_v:.2f} (ceiling {ceiling:.2f} at "
                        f"tolerance {tolerance:.0%})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare a fresh bench run against its committed "
                    "repo-root baseline.")
    parser.add_argument("--suite", choices=sorted(SUITES),
                        default="event_stream",
                        help="which bench suite to diff "
                             "(default: event_stream)")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="committed baseline JSON "
                             "(default: the suite's repo-root file)")
    parser.add_argument("--fresh", type=pathlib.Path, default=None,
                        help="fresh run JSON "
                             "(default: the suite's benchmarks/results "
                             "file)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slack on each ratio metric "
                             "(default: 0.25 — bench hosts are noisy)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI mode)")
    parser.add_argument("--fail-on-regress", type=float, default=None,
                        metavar="PCT",
                        help="hard gate: exit 1 when any metric regresses "
                             "by PCT percent or more, even under "
                             "--warn-only (warnings keep using "
                             "--tolerance)")
    args = parser.parse_args(argv)
    if args.fail_on_regress is not None and args.fail_on_regress <= 0:
        parser.error("--fail-on-regress must be a positive percentage")

    suite = SUITES[args.suite]
    baseline_path = args.baseline or suite["baseline"]
    fresh_path = args.fresh or suite["fresh"]
    baseline = load(baseline_path, suite)
    fresh = load(fresh_path, suite)
    problems = compare(baseline, fresh, suite, args.tolerance)

    n = len(baseline["records"]) * len(suite["metrics"])
    if problems:
        print(f"compare.py: {len(problems)} regression(s) against "
              f"{baseline_path.name} (tolerance {args.tolerance:.0%}):")
        for p in problems:
            print(f"  - {p}")
        if args.fail_on_regress is not None:
            gated = compare(baseline, fresh, suite,
                            args.fail_on_regress / 100.0)
            if gated:
                print(f"compare.py: {len(gated)} exceed the "
                      f"--fail-on-regress {args.fail_on_regress:g}% gate "
                      "— failing")
                return 1
        return 0 if args.warn_only else 1
    print(f"compare.py: all {n} {args.suite} ratio checks within "
          f"{args.tolerance:.0%} of {baseline_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
