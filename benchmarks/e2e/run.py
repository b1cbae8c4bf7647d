"""End-to-end VGG-16 benchmark at the paper's design point (T=24, tau=4).

Run from the repository root; the program is imported from ``src/``::

    python3 benchmarks/e2e/run.py --workload vgg16-dense --seed 0 \\
        --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out results.json

Each run builds a seeded VGG-16 (untimed), saves it as a bundle and
drives one workload in a fresh spawned child through the program's
public entry points.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the per-layer ledger and
reports the per-layer metrics.  Without ``--workload`` every workload
runs, and without ``--trace`` each runs untraced, then traced.

Prints ``workload metric value unit`` per metric, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when a hard
correctness check fails.  ``--out`` also writes every run with its host
block and details, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing as mp
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import netbuild
    import workloads
except ImportError as exc:
    sys.exit(f"run.py: cannot import the program from {ROOT / 'src'}: {exc}")

#: Hard checks compare this many leading pool images with the reference.
CHECKED_IMAGES = 2 * netbuild.MAX_BATCH
#: A workload child that has not answered after this long has hung.
CHILD_TIMEOUT_S = 120.0
#: serve-http latency limit for ``serve.max_rps_under_slo``.
SLO_MS = 100.0
#: Thread counts the workload children run with unless the environment
#: sets them.  On a 2-core host shared with other machines, two BLAS
#: threads made a dense call about 10% faster but its time about three
#: times noisier (one stalled core holds back the other), and made the
#: event path slower.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
#: End-to-end times are reported for a host on which the speed probe
#: (``workloads.probe_kernel``) takes this long.
PROBE_NOMINAL_MS = 30.0


def load_spec(root: Path = ROOT):
    return json.loads((root / "BENCHMARK.json").read_text())


def tail_rank(n: int, ladder=(99, 95, 90, 75, 50)):
    """Highest percentile of ``n`` samples with at least ten beyond it."""
    return next((p for p in ladder if n * (100 - p) / 100 >= 10), None)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; failures enter as ``inf``."""
    return float(np.percentile(values, q)) if len(values) else math.nan


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

@contextlib.contextmanager
def spawned(target, *args):
    """A spawned child running ``workloads.child(target, *args)``; yields
    the parent's end of its pipe and always reaps the child."""
    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=workloads.child, args=(child, target, *args))
    saved = dict(os.environ)
    os.environ.update(child_threads())
    try:
        proc.start()
    finally:
        os.environ.clear()
        os.environ.update(saved)
    child.close()
    try:
        yield parent
    except BaseException:
        proc.terminate()
        raise
    finally:
        proc.join(timeout=30)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        parent.close()


def child_threads():
    return {k: os.environ.get(k, v) for k, v in CHILD_THREADS.items()}


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker the first spawn started.

    Left alone it only notices this process's exit afterwards, and ends
    as an orphan after the benchmark has returned."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def receive(conn, timeout: float = CHILD_TIMEOUT_S):
    if not conn.poll(timeout):
        raise TimeoutError(f"workload child silent for {timeout:.0f} s")
    try:
        message = conn.recv()
    except EOFError:
        raise RuntimeError("workload child died without a result") from None
    if isinstance(message, dict) and "error" in message:
        raise RuntimeError("workload child failed:\n" + message["error"])
    return message


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 arch=netbuild.VGG16, scratch: Path = ROOT / ".bench_e2e"):
    """Build, serve or call, check; returns the run's raw record."""
    snn, pool = netbuild.build_network(seed, arch)
    refs = netbuild.reference_chunks(snn, pool[:CHECKED_IMAGES])
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        registry = Path(tmp)
        bundle = registry / workloads.MODEL / "v1"
        netbuild.save_bundle(snn, bundle, arch)
        t0 = time.perf_counter()
        if workload == workloads.SERVE:
            out, record = serve(registry, pool, refs, seconds, trace, seed)
        else:
            with spawned(workloads.run_batch, workload, str(bundle), pool,
                         seconds, trace) as conn:
                out = receive(conn)
            record = batch_record(workload, out, refs, trace)
        record["details"]["child_wall_s"] = time.perf_counter() - t0
    metrics, details = record["metrics"], record["details"]
    details["probe_ms"] = {"setup": 1e3 * out["probe_setup_s"],
                           "run": 1e3 * out["probe_run_s"]}
    if not trace:
        setup_s = out["setup"]["setup_s"]
        metrics["setup_s"] = setup_s * nominal(out["probe_setup_s"])
        details["as_measured"]["setup_s"] = setup_s
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        (metrics["energy_uj_per_image"], metrics["spikes_per_image"],
         metrics["sops_per_image"]) = netbuild.modelled_cost(
             snn, refs, arch.input_shape)
    else:
        metrics["host.probe_ms"] = details["probe_ms"]["run"]
        metrics.update(out.get("ledger", {}))
        metrics.update({k: v for k, v in out["setup"].items()
                        if k != "setup_s"})
    record.update(workload=workload, trace=int(trace), seed=seed,
                  seconds=seconds)
    return record


def nominal(probe_s: float) -> float:
    """Factor that takes a time measured while the speed probe took
    ``probe_s`` to the nominal host (see ``workloads.SpeedProbe``)."""
    return PROBE_NOMINAL_MS / (1e3 * probe_s)


def reference_predictions(refs):
    return np.concatenate([r.predictions for r in refs])


def latency_stats(latencies_ms):
    return {"latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p75_ms": percentile(latencies_ms, 75)}


def call_stats(calls, scale=lambda call: 1.0):
    """Latency and throughput of batch calls, each call's time times
    ``scale(call)``; a failed call counts as infinitely slow."""
    stats = latency_stats([1e3 * c["wall_s"] * scale(c)
                           if c["error"] is None else math.inf
                           for c in calls])
    stats["images_per_s"] = 1e3 * calls[0]["images"] / stats["latency_p50_ms"]
    return stats


def batch_record(workload, out, refs, trace):
    calls = out["calls"]
    ok = [c for c in calls if c["error"] is None]
    metrics, checks = {}, dict(out.get("checks", {}))
    as_measured = {}
    if ok:
        metrics.update(call_stats(calls, lambda c: nominal(c["probe_s"])))
        as_measured.update(call_stats(calls))
    expected = reference_predictions(refs)
    seen = {}
    for call in ok:
        for k, pred in enumerate(call["predictions"]):
            seen.setdefault(call["start"] + k, pred)
    agree = [seen[i] == expected[i] for i in range(len(expected)) if i in seen]
    agreement = sum(agree) / len(agree) if agree else math.nan
    if workload == "vgg16-dense":
        checks.update(dense_checks(calls, refs, seen, expected,
                                   out.get("layer_spikes")))
    if trace:
        metrics["check.agreement"] = agreement
    return {"metrics": metrics, "checks": checks,
            "attempted": len(calls), "failed": len(calls) - len(ok),
            "details": {"as_measured": as_measured,
                        "agreement": agreement, "calls": len(calls),
                        "call_images": calls[0]["images"],
                        "call_wall_s": [c["wall_s"] for c in calls],
                        "latency_tail_rank": tail_rank(len(calls))}}


def dense_checks(calls, refs, seen, expected, layer_spikes):
    """vgg16-dense equals the reference on the checked images:
    predictions, spike and SOP totals of every call on a reference
    chunk, and (traced) per-layer spikes of each traced call."""
    checks = {"predictions": all(seen.get(i) == int(p)
                                 for i, p in enumerate(expected))}
    for chunk, ref in enumerate(refs):
        on_chunk = [k for k, c in enumerate(calls)
                    if c["start"] == chunk * netbuild.MAX_BATCH]
        checks[f"chunk{chunk}.called"] = bool(on_chunk)
        for k in on_chunk:
            call = calls[k]
            checks[f"call{k}.spikes"] = call.get("spikes") == sum(ref.spikes)
            checks[f"call{k}.sops"] = call.get("sops") == ref.sops
            if layer_spikes and k % 2 == 1:
                got = list(layer_spikes[k].values())[:len(ref.spikes)]
                checks[f"call{k}.layer_spikes"] = got == ref.spikes
    return checks


def serve(registry, pool, refs, seconds, trace, seed):
    """serve-http: the server in a spawned child, load from here."""
    images = pool[:CHECKED_IMAGES]
    bodies = workloads.request_bodies(images)
    plan = workloads.schedule(seconds, len(images),
                              np.random.default_rng(seed))
    with spawned(workloads.run_server, str(registry), trace) as conn:
        hello = receive(conn)
        records = workloads.drive(hello["port"], bodies, plan)
        conn.send("stop")
        out = receive(conn)
    return out, serve_record(records, refs, trace, nominal(out["probe_run_s"]))


def serve_record(records, refs, trace, scale: float):
    """serve-http's metrics; ``scale`` takes the gated latencies to the
    nominal host.  The served rate is the offered load while the server
    keeps up, not a speed of this host, and is not scaled."""
    expected = reference_predictions(refs)
    ok = [r for r in records if r.get("status") == 200]
    matches = [r["predictions"] == [int(expected[r["index"]])] for r in ok]
    checks = {"predictions": all(matches)}

    def step(name):
        return [r for r in records if r["step"] == name]

    def latencies(rs):
        return [1e3 * r["latency_s"] if r.get("status") == 200 else math.inf
                for r in rs]

    base, peak = step("base"), step("peak")
    as_measured = latency_stats(latencies(base))
    metrics = {k: v * scale for k, v in as_measured.items()}
    served = [r for r in peak if r.get("status") == 200]
    if served:
        span_s = max(r["done_s"] for r in served) - min(r["due_s"]
                                                        for r in peak)
        metrics["images_per_s"] = len(served) / span_s
    if trace:
        rates = {name: rate for name, rate, _ in workloads.STEPS}
        good = [r for r in base if r.get("status") == 200]
        metrics.update({
            "serve.http_ms": statistics.median(
                1e3 * (r["wall_s"] - r["metrics"]["latency_s"])
                for r in good),
            "serve.queue_wait_ms": statistics.median(
                1e3 * r["metrics"]["queue_wait_s"] for r in good),
            "serve.execute_ms": statistics.median(
                1e3 * r["metrics"]["execute_s"] for r in good),
            "serve.batch_size_mean": statistics.fmean(
                statistics.fmean(r["metrics"]["batch_sizes"]) for r in good),
            "serve.p50_ms_peak": percentile(latencies(peak), 50),
            "serve.p90_ms_peak": percentile(latencies(peak), 90),
            "serve.max_rps_under_slo": max(
                [rates[n] for n, rs in (("base", base), ("peak", peak))
                 if percentile(latencies(rs), 90) <= SLO_MS], default=0),
            "loadgen.late_p95_ms": percentile(
                [1e3 * r["late_s"] for r in base + peak], 95),
            "check.agreement": (statistics.fmean(matches) if matches
                                else math.nan),
        })
    return {"metrics": metrics, "checks": checks,
            "attempted": len(records), "failed": len(records) - len(ok),
            "details": {"as_measured": as_measured,
                        "requests": {name: len(step(name))
                                     for name, _, _ in workloads.STEPS},
                        "latency_tail_rank": tail_rank(len(base))}}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_block(seed: int):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "child_threads": child_threads(),
            "platform": platform.platform(), "commit": git_commit(),
            "seed": seed}


def finite(value) -> float:
    """JSON-safe value: non-finite numbers (a metric with no sample)
    become 0, and the end-to-end ones also fail ``metrics_present``."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def finalize(record, spec):
    """Keep exactly the metrics the spec names for the run's mode."""
    wanted = spec["per_layer" if record["trace"] else "end_to_end"]
    raw = record.pop("metrics")
    missing = [m["name"] for m in wanted
               if not record["trace"] and not math.isfinite(
                   raw.get(m["name"], math.nan))]
    record["metrics"] = {
        m["name"]: {"value": finite(raw.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted}
    if missing:
        record["checks"]["metrics_present"] = False
        record["details"]["missing"] = missing
    record["correct"] = all(record["checks"].values())
    return record


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: untraced, then traced")
    parser.add_argument("--out", type=Path,
                        help="write every run, host block and details")
    args = parser.parse_args(argv)
    modes = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    try:
        for workload in args.workload or workloads.WORKLOADS:
            for trace in modes:
                record = finalize(run_workload(workload, args.seed,
                                               args.seconds, bool(trace)),
                                  spec)
                for name, metric in record["metrics"].items():
                    print(f"{workload} {name} {metric['value']:.6g} "
                          f"{metric['unit']}", flush=True)
                runs.append(record)
    finally:
        stop_resource_tracker()
    if args.out:
        args.out.write_text(json.dumps(
            {"host": host_block(args.seed), "runs": runs}, indent=1,
            default=float) + "\n")
    single = len(runs) == 1
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {(name if single else f"{r['workload']}/{name}"): metric
                    for r in runs for name, metric in r["metrics"].items()},
    }
    for r in runs:
        if not r["correct"]:
            failed = [k for k, v in r["checks"].items() if not v]
            print(f"{r['workload']}: hard checks failed: {failed}",
                  file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
