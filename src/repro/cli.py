"""Command-line interface: ``python -m repro <command>``.

Fast, self-contained entry points into the reproduction:

* ``info``   — inventory of subsystems, coding schemes, pipeline stages;
* ``run``    — execute a declarative experiment config (JSON/TOML or a
  named preset) through the ``repro.api`` pipeline driver;
* ``fig2``   — activation/representation-error curves (exact, instant);
* ``fig6``   — PE-array area/power design points (analytic, instant);
* ``table4`` — processor comparison on exact VGG-16 geometry (instant);
* ``train``  — run a small CAT training + conversion demo (~1 min);
* ``latency``— TTFS pipeline latency calculator (Table 2 formula);
* ``simulate``— run a coding scheme with the batched engine runner,
  either after a fresh micro-training or straight from a prebuilt
  ``--artifact`` bundle (no training at all);
* ``evaluate``— sweep scheme x max-timestep x batch grids, cache-missed
  chunks fanned over ``--workers`` threads and cached results replayed,
  and emit a JSON report;
* ``build``  — run a config's build stages (train/convert/quantize) and
  write a versioned :class:`repro.serve.ModelArtifact` bundle, or
  publish it into a model registry;
* ``serve``  — stdlib prediction server over a model registry (JSON,
  micro-batched, one warm session per model);
* ``predict``— client for ``serve``: send dataset images, print (and
  optionally save) the predictions and the per-request cost metrics;
* ``export`` — compile an artifact bundle into a self-contained target
  description (``engine`` | ``pynn-netlist`` | ``tile-config``), verify
  it loads back, and optionally execute it over a dataset;
* ``metrics``— scrape a running server's ``GET /metrics`` and print the
  telemetry as JSON (or the raw Prometheus text with ``--text``).

Every subcommand is a thin wrapper: it builds an
:class:`repro.api.ExperimentConfig` (see :mod:`repro.api.presets`) and
hands it to the same :class:`repro.api.Experiment` driver that ``repro
run`` exposes directly — or, for the serving commands, to the
``repro.serve`` run-time layer — so the CLI contains presentation
logic only.  Parser construction is one ``_add_<cmd>_parser`` helper
per command, all chained by :func:`build_parser`.

The full table/figure regeneration lives in ``benchmarks/`` (pytest).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__


def _cmd_info(args) -> int:
    from .api import available_presets, available_stages
    from .engine import available_backends, available_schemes, scheme_aliases
    from .targets import available_targets, target_aliases

    print(f"repro {__version__} — DAC'22 TTFS-CAT reproduction")
    print(__doc__)
    print("subsystems    : tensor, nn, optim, data, cat, events, engine, "
          "api, snn, quant, hw, serve, targets, analysis, obs")
    print("artefacts     : fig2 fig3 fig4 fig6 table1 table2 table4 "
          "(see benchmarks/)")
    aliases = ", ".join(f"{a} -> {t}"
                        for a, t in sorted(scheme_aliases().items()))
    print(f"coding schemes: {', '.join(available_schemes())}"
          + (f" (aliases: {aliases})" if aliases else ""))
    print(f"backends      : {', '.join(available_backends())}")
    t_aliases = ", ".join(f"{a} -> {t}"
                          for a, t in sorted(target_aliases().items()))
    print(f"export targets: {', '.join(available_targets())}"
          + (f" (aliases: {t_aliases})" if t_aliases else ""))
    print(f"pipeline stages: {', '.join(available_stages())}")
    print(f"run presets   : {', '.join(available_presets())}")
    return 0


def _run_config(config, cache=None, context=None, on_stage_start=None,
                on_stage_end=None):
    """Build + run an Experiment; returns the report (with .context)."""
    from .api import Experiment

    return Experiment(config, cache=cache,
                      on_stage_start=on_stage_start,
                      on_stage_end=on_stage_end).run(context=context)


def _load_cli_config(args, command: str):
    """Config from the shared config-file/--preset flag pair, or None.

    Prints the usage error and returns ``None`` on failure (the caller
    returns exit code 2).
    """
    from .api import ConfigError, config_from_file, preset_config

    try:
        if bool(args.config) == bool(args.preset):
            raise ConfigError(
                "give exactly one of a config file path or --preset "
                f"(see 'repro {command} --help')")
        return (preset_config(args.preset) if args.preset
                else config_from_file(args.config))
    except (ConfigError, KeyError, OSError) as exc:
        # KeyError str() would re-quote the message; OSError.args[0] is
        # just the errno — unwrap only the former
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"repro {command}: error: {message}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    import dataclasses
    import json
    import pathlib

    from .api import ConfigError, PipelineError
    from .engine import ResultCache

    config = _load_cli_config(args, "run")
    if config is None:
        return 2
    try:
        if args.report:
            pathlib.Path(args.report).parent.mkdir(parents=True,
                                                   exist_ok=True)
        if args.backend:
            # replace re-runs SimulateConfig validation, so an unknown
            # backend gets the usual closest-match error
            config = dataclasses.replace(config, simulate=dataclasses.replace(
                config.simulate, backend=args.backend))
    except (ConfigError, OSError) as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    print(f"experiment '{config.name}' — stages: "
          f"{' -> '.join(config.stages)}"
          + (f" (cache at {args.cache_dir})" if cache is not None else ""))

    def stage_done(record):
        marker = " (cached)" if record.status == "cached" else ""
        print(f"  {record.name:<10s} {record.elapsed_s:8.2f}s{marker}")

    try:
        report = _run_config(config, cache=cache, on_stage_end=stage_done)
    except PipelineError as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    print()
    for stage_name, values in report.metrics.items():
        parts = []
        for key, value in values.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.4g}")
            elif isinstance(value, (int, str, bool)):
                parts.append(f"{key}={value}")
        if parts:
            print(f"{stage_name:<10s}: {', '.join(parts)}")
    print(f"\ntotal {report.total_elapsed_s:.2f}s, "
          f"{report.cache_hits}/{len(report.stages)} stage(s) from cache")
    if args.report:
        path = pathlib.Path(args.report)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {path}")
    return 0


def _cmd_fig2(args) -> int:
    from .analysis import format_series
    from .api.presets import fig2_config

    report = _run_config(fig2_config(window=args.window, tau=args.tau))
    curves = report.context.artifacts["fig2_curves"]
    idx = np.linspace(0, len(curves.inputs) - 1, 13).astype(int)
    print(format_series(
        np.round(curves.inputs[idx], 3),
        {k: np.round(v[idx], 4) for k, v in curves.errors.items()},
        title=f"representation error vs SNN coding "
              f"(T={args.window}, tau={args.tau:g})",
        x_label="x"))
    errors = report.metrics["fig2"]["max_error"]
    print(f"\nmax error: ttfs={errors['ttfs']:.4f} "
          f"clip={errors['clip']:.4f} "
          f"relu={errors['relu']:.4f}")
    return 0


def _cmd_fig6(args) -> int:
    from .analysis import ascii_bars
    from .api.presets import fig6_config

    report = _run_config(fig6_config())
    result = report.context.artifacts["fig6_result"]
    series = result.normalized_series()
    print(ascii_bars(series["area"], title="PE-array area (normalised)"))
    print()
    print(ascii_bars(series["power"], title="PE-array power (normalised)"))
    savings = report.metrics["fig6"]
    print(f"\nstep I : -{100 * savings['area_saving_cat']:.1f}% area, "
          f"-{100 * savings['power_saving_cat']:.1f}% power "
          "(paper: -12.7% / -14.7%)")
    print(f"step II: -{100 * savings['area_saving_log']:.1f}% area, "
          f"-{100 * savings['power_saving_log']:.1f}% power "
          "(paper: -8.1% / -8.6%)")
    return 0


def _cmd_table4(args) -> int:
    from .analysis import format_table
    from .api.presets import table4_config

    report = _run_config(table4_config())
    table = report.metrics["table4"]
    rows = [[r["workload"], r["snn_fps"], r["snn_uj_per_image"],
             r["tpu_fps"], r["tpu_uj_per_image"]] for r in table["rows"]]
    print(format_table(
        ["workload", "SNN fps", "SNN uJ/img", "TPU fps", "TPU uJ/img"],
        rows, title=f"VGG-16 inference — chip area {table['area_mm2']:.4f} "
                    "mm2 (paper 0.9102)"))
    return 0


def _cmd_latency(args) -> int:
    from .api.presets import latency_config

    report = _run_config(latency_config(layers=args.layers,
                                        window=args.window,
                                        early_firing=args.early_firing))
    lat = report.metrics["latency"]["timesteps"]
    mode = "early firing" if args.early_firing else "full window"
    print(f"{args.layers} weight layers x T={args.window} ({mode}): "
          f"{lat} timesteps")
    return 0


def _cmd_train(args) -> int:
    from .api import ConfigError
    from .api.presets import train_config

    try:
        config = train_config(dataset=args.dataset, model=args.model,
                              method=args.method, window=args.window,
                              tau=args.tau, epochs=args.epochs, lr=args.lr,
                              seed=args.seed)
    except ConfigError as exc:
        print(f"repro train: error: {exc}", file=sys.stderr)
        return 2
    print(f"training {args.model} on {args.dataset} with method "
          f"{args.method}, T={args.window}, tau={args.tau:g}")
    report = _run_config(config)
    metrics = report.metrics["convert"]
    ann, acc = metrics["ann_accuracy"], metrics["snn_accuracy"]
    print(f"\nANN {ann:.3f} -> SNN {acc:.3f} "
          f"(loss {100 * (acc - ann):+.2f} pp), "
          f"latency {metrics['latency_timesteps']} timesteps")
    return 0


def _cmd_simulate(args) -> int:
    import json
    import pathlib

    from .api import ConfigError, PipelineContext
    from .api.presets import artifact_simulate_config, simulate_config
    from .data import load
    from .engine import ResultCache, result_predictions
    from .serve import ArtifactError

    if args.max_batch is not None and args.max_batch < 1:
        print("repro simulate: error: --max-batch must be >= 1",
              file=sys.stderr)
        return 2
    if args.limit < 0:
        print("repro simulate: error: --limit must be >= 0",
              file=sys.stderr)
        return 2

    try:
        if args.artifact:
            # run-time path: restore the prebuilt bundle, skip training
            config = artifact_simulate_config(
                args.artifact, dataset=args.dataset,
                scheme=args.scheme or "", backend=args.backend or "",
                max_batch=args.max_batch or 0, limit=args.limit)
        else:
            config = simulate_config(
                dataset=args.dataset,
                scheme=args.scheme or "ttfs-closed-form",
                max_batch=args.max_batch or 32,
                window=args.window, tau=args.tau,
                epochs=args.epochs, seed=args.seed, limit=args.limit,
                backend=args.backend or "dense")
    except (ConfigError, ArtifactError) as exc:
        print(f"repro simulate: error: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    dataset = load(args.dataset)
    num_images = len(dataset.test_x)
    if args.limit:
        num_images = min(num_images, args.limit)
    sim = config.simulate

    def stage_started(stage):
        if stage.name == "train":
            print(f"training vgg_micro on {dataset.name} "
                  f"(T={args.window}, tau={args.tau:g}, "
                  f"{args.epochs} epochs)")
        elif stage.name == "restore":
            print(f"restoring artifact bundle {args.artifact}")
        elif stage.name == "simulate":
            chunks = -(-num_images // sim.max_batch)
            backend = (f", backend '{sim.backend}'"
                       if sim.backend != "dense" else "")
            print(f"simulating {num_images} images with scheme "
                  f"'{sim.scheme}'{backend} ({chunks} chunk(s) of <= "
                  f"{sim.max_batch})")

    def stage_done(record):
        if record.status == "cached":
            print(f"  ({record.name} stage replayed from cache)")

    report = _run_config(config, cache=cache,
                         context=PipelineContext(config=config,
                                                 dataset=dataset),
                         on_stage_start=stage_started,
                         on_stage_end=stage_done)
    metrics = report.metrics["simulate"]
    # the stage's own timing round-trips through the cache, so cached
    # reruns report the original simulation throughput, not restore time
    elapsed = metrics["elapsed_s"]
    print(f"accuracy  : {metrics['accuracy']:.3f}")
    print(f"throughput: {num_images / elapsed:.1f} img/s "
          f"({1e3 * elapsed / num_images:.2f} ms/img)")
    for attr, label in (("total_spikes", "spikes    "),
                        ("total_sops", "SOPs      "),
                        ("agreement", "fp agree  "),
                        ("max_membrane_drift", "fp drift  ")):
        value = metrics.get(attr)
        if value is not None:
            print(f"{label}: {value:.4f}" if isinstance(value, float)
                  else f"{label}: {value}")
    if args.predictions:
        preds = result_predictions(report.context.sim_result)
        path = pathlib.Path(args.predictions)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "scheme": sim.scheme,
            "backend": sim.backend,
            "num_images": int(num_images),
            "accuracy": metrics["accuracy"],
            "predictions": [int(p) for p in preds],
        }, indent=2) + "\n")
        print(f"predictions written to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    import json
    import pathlib

    from .analysis import format_sweep_report
    from .api import ConfigError, train_micro_snn
    from .data import load
    from .engine import ResultCache, SweepGrid, resolve_scheme_name, run_sweep
    from .serve import ArtifactError, ModelArtifact

    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        if args.limit < 0:
            raise ValueError("--limit must be >= 0")
        if args.report:
            # fail (or create the directory) now, not after the sweep
            pathlib.Path(args.report).parent.mkdir(parents=True,
                                                   exist_ok=True)
        # aliases ("ttfs", "fp") resolve here, so the report and the
        # result-cache keys carry canonical names
        try:
            schemes = tuple(resolve_scheme_name(s) for s in
                            (p.strip() for p in args.schemes.split(","))
                            if s)
        except KeyError as exc:
            raise ValueError(f"--schemes: {exc.args[0]}") from None
        grid = SweepGrid(
            schemes=schemes,
            windows=tuple(int(w) for w in args.windows.split(",")),
            max_batches=tuple(int(b) for b in args.max_batches.split(",")),
        )
    except (ValueError, OSError) as exc:
        print(f"repro evaluate: error: {exc}", file=sys.stderr)
        return 2

    dataset = load(args.dataset)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    def stage_started(stage):
        if stage.name == "train":
            print(f"training vgg_micro on {dataset.name} "
                  f"(T={max(grid.windows)}, tau={args.tau:g}, "
                  f"{args.epochs} epochs)")

    # The stage cache is the same content-addressed store as the sweep
    # cache, so a cached re-run skips training as well as simulation.
    def stage_done(record):
        if record.status == "cached":
            print(f"  ({record.name} stage replayed from cache)")

    try:
        if args.artifact:
            print(f"evaluating artifact bundle {args.artifact}")
            snn = ModelArtifact.load(args.artifact).snn
        else:
            snn = train_micro_snn(args.dataset, max(grid.windows), args.tau,
                                  args.epochs, args.seed, cache=cache,
                                  preloaded=dataset,
                                  on_stage_start=stage_started,
                                  on_stage_end=stage_done)
    except (ConfigError, ArtifactError) as exc:
        print(f"repro evaluate: error: {exc}", file=sys.stderr)
        return 2
    x, y = dataset.test_x, dataset.test_y
    if args.limit:
        x, y = x[:args.limit], y[:args.limit]
    if args.workers > 1:
        # one chunk per thread, each running its layers inline: BLAS on
        # one thread, as the GEMM splits require
        from .threads import set_blas_threads, set_threads

        set_threads(args.workers)
        set_blas_threads(1)

    print(f"sweeping {len(grid.points())} grid point(s) over {len(x)} "
          f"images ({args.workers} thread(s), cache "
          f"{'at ' + args.cache_dir if cache is not None else 'off'})")

    def progress(rec):
        print(f"  {rec['scheme']:>18s} T={rec['window']:<3d} "
              f"batch={rec['max_batch']:<3d} acc={rec['accuracy']:.3f} "
              f"{rec['elapsed_s']:.2f}s "
              f"(cache {rec['cache_hits']}h/{rec['cache_misses']}m)")

    report = run_sweep(snn, grid, x, y, cache=cache, workers=args.workers,
                       progress=progress)
    print()
    print(format_sweep_report(report))
    if args.report:
        path = pathlib.Path(args.report)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nreport written to {path}")
    return 0


def _cmd_build(args) -> int:
    import pathlib
    import tempfile

    from .api import PipelineError
    from .engine import ResultCache
    from .serve import ArtifactError, ModelArtifact, ModelRegistry

    if bool(args.out) == bool(args.registry):
        print("repro build: error: give exactly one of --out BUNDLE_DIR "
              "or --registry REGISTRY_DIR", file=sys.stderr)
        return 2
    config = _load_cli_config(args, "build")
    if config is None:
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    build_stages = [s for s in config.stages
                    if s in ("train", "convert", "quantize")]
    print(f"building artifact from '{config.name}' — stages: "
          f"{' -> '.join(build_stages)}"
          + (f" (cache at {args.cache_dir})" if cache is not None else ""))

    def stage_done(record):
        marker = " (cached)" if record.status == "cached" else ""
        print(f"  {record.name:<10s} {record.elapsed_s:8.2f}s{marker}")

    try:
        if args.out:
            artifact = ModelArtifact.build(
                config, args.out, cache=cache, overwrite=args.force,
                on_stage_end=stage_done)
            location = f"written to {artifact.path}"
        else:
            with tempfile.TemporaryDirectory() as tmp:
                built = ModelArtifact.build(
                    config, pathlib.Path(tmp) / "bundle", cache=cache,
                    on_stage_end=stage_done)
                registry = ModelRegistry(args.registry)
                name, version, artifact = registry.publish(
                    built, name=args.name or None,
                    version=args.tag or None)
            location = (f"published as {name}:{version} in registry "
                        f"{args.registry}")
    except (ArtifactError, PipelineError) as exc:
        print(f"repro build: error: {exc}", file=sys.stderr)
        return 2
    quant = artifact.quantization
    print(f"\nartifact {location}")
    print(f"  scheme {artifact.scheme}, backend {artifact.backend}, "
          f"max_batch {artifact.max_batch}, quantization "
          + (f"{quant['bits']}-bit log (z_w={quant['z_w']})" if quant
             else "none"))
    print(f"  files: {', '.join(sorted(artifact.manifest['files']))} "
          f"(schema v{artifact.manifest['schema_version']})")
    return 0


def _cmd_serve(args) -> int:
    from .serve import ArtifactError, ModelRegistry, PredictionServer

    try:
        registry = ModelRegistry(args.registry, create=False)
    except ArtifactError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    names = registry.names()
    if not names:
        print(f"repro serve: error: registry {args.registry} holds no "
              "models; publish one with 'repro build ... --registry "
              f"{args.registry}'", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("repro serve: error: --workers must be >= 0",
              file=sys.stderr)
        return 2
    if args.max_queue < 0:
        print("repro serve: error: --max-queue must be >= 0 "
              "(0 = unbounded)", file=sys.stderr)
        return 2
    if args.batch_wait_ms is not None and args.batch_wait_ms < 0:
        print("repro serve: error: --batch-wait-ms must be >= 0",
              file=sys.stderr)
        return 2
    if args.max_body_bytes is not None and args.max_body_bytes < 1:
        print("repro serve: error: --max-body-bytes must be >= 1",
              file=sys.stderr)
        return 2
    limits = ({} if args.max_body_bytes is None
              else {"max_body_bytes": args.max_body_bytes})
    wait = ({} if args.batch_wait_ms is None
            else {"batch_wait_s": args.batch_wait_ms / 1000.0})
    server = PredictionServer(
        registry, host=args.host, port=args.port,
        scheme=args.scheme or None, backend=args.backend or None,
        max_batch=args.max_batch or None,
        workers=args.workers, max_queue=args.max_queue,
        mmap=args.mmap, **limits, **wait)
    server.start()
    fleet = (f"{args.workers} worker process(es) per model, mmap'd "
             "bundles" if args.workers else "in-process sessions")
    print(f"serving {len(names)} model(s) on {server.url}: "
          f"{', '.join(names)}")
    print(f"fleet: {fleet}; admission queue "
          + (f"{args.max_queue} image(s), 503 beyond"
             if args.max_queue else "unbounded"))
    print("endpoints: GET /healthz, GET /metrics, GET /models, "
          "POST /predict (Ctrl-C to stop)")
    server.serve_forever()
    return 0


def _cmd_predict(args) -> int:
    import json
    import pathlib

    from .data import load
    from .serve import ServerError, predict_remote

    if args.limit < 0:
        print("repro predict: error: --limit must be >= 0",
              file=sys.stderr)
        return 2
    dataset = load(args.dataset)
    x, y = dataset.test_x, dataset.test_y
    if args.limit:
        x, y = x[:args.limit], y[:args.limit]
    try:
        response = predict_remote(args.url, args.model, x)
    except ServerError as exc:
        print(f"repro predict: error: {exc}", file=sys.stderr)
        return 2
    preds = response["predictions"]
    metrics = response["metrics"]
    accuracy = float((np.asarray(preds) == y[:len(preds)]).mean())
    print(f"model     : {response['model']}  "
          f"(scheme {metrics['scheme']}, backend {metrics['backend']})")
    shown = " ".join(str(p) for p in preds[:32])
    print(f"predictions: {shown}"
          + (f" … ({len(preds)} total)" if len(preds) > 32 else ""))
    print(f"accuracy  : {accuracy:.3f} over {len(preds)} image(s)")
    print(f"latency   : {1e3 * metrics['latency_s']:.1f} ms "
          f"({metrics['num_batches']} batch(es) of "
          f"{metrics['batch_sizes']})")
    for key, label in (("total_spikes", "spikes    "),
                       ("total_sops", "SOPs      ")):
        if metrics.get(key) is not None:
            print(f"{label}: {metrics[key]}")
    if args.output:
        path = pathlib.Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "model": response["model"],
            "predictions": preds,
            "accuracy": accuracy,
            "metrics": metrics,
        }, indent=2) + "\n")
        print(f"response written to {path}")
    return 0


def _cmd_export(args) -> int:
    import json
    import pathlib

    from .serve import ArtifactError, ModelArtifact
    from .targets import (TARGET_FORMAT_VERSION, TargetError,
                          describe_targets, export_artifact, load_target,
                          resolve_target_name, target_aliases)

    if args.list_targets:
        aliases = target_aliases()
        for row in describe_targets():
            names = [row["name"]] + sorted(
                a for a, t in aliases.items() if t == row["name"])
            print(f"{'/'.join(names):<32s} {row['description']}")
        return 0
    missing = [flag for flag, value in (("--artifact", args.artifact),
                                        ("--target", args.target),
                                        ("--out", args.out)) if not value]
    if missing:
        print(f"repro export: error: {', '.join(missing)} required "
              "(or use --list-targets)", file=sys.stderr)
        return 2
    if args.limit < 0:
        print("repro export: error: --limit must be >= 0", file=sys.stderr)
        return 2
    try:
        target = resolve_target_name(args.target)
        artifact = ModelArtifact.load(args.artifact)
        out = export_artifact(artifact, target, args.out,
                              scheme=args.scheme or None, force=args.force)
        # reloading digest-verifies the export end to end before we
        # record it against the bundle
        program = load_target(out)
        artifact.record_export(target, scheme=program.scheme,
                               format_version=TARGET_FORMAT_VERSION)
    except (TargetError, ArtifactError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"repro export: error: {message}", file=sys.stderr)
        return 2
    print(f"exported {artifact.name} -> {target} at {out}")
    print(f"  scheme {program.scheme}, files: "
          f"{', '.join(sorted(program.manifest['files']))}")
    if args.predictions:
        from .data import load

        dataset = load(args.dataset)
        x, y = dataset.test_x, dataset.test_y
        if args.limit:
            x, y = x[:args.limit], y[:args.limit]
        preds = program.predict(x)
        accuracy = float((np.asarray(preds) == y[:len(preds)]).mean())
        path = pathlib.Path(args.predictions)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "target": target,
            "scheme": program.scheme,
            "num_images": int(len(preds)),
            "accuracy": accuracy,
            "predictions": [int(p) for p in preds],
        }, indent=2) + "\n")
        print(f"accuracy  : {accuracy:.3f} over {len(preds)} image(s)")
        print(f"predictions written to {path}")
    return 0


def _cmd_metrics(args) -> int:
    import json
    import urllib.error
    import urllib.request

    from .obs import parse_prometheus

    url = args.url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            text = response.read().decode()
    except (urllib.error.URLError, OSError) as exc:
        print(f"repro metrics: error: cannot scrape {url}: {exc}",
              file=sys.stderr)
        return 2
    if args.text:
        sys.stdout.write(text)
        return 0
    families = parse_prometheus(text)
    dump = {
        family: {
            "type": entry["type"],
            "samples": [{"name": name, "labels": labels, "value": value}
                        for name, labels, value in entry["samples"]],
        }
        for family, entry in sorted(families.items())
    }
    print(json.dumps(dump, indent=2))
    return 0


def _cmd_shards(args) -> int:
    from .data import load, open_shards, write_shards

    if args.info:
        sharded = open_shards(args.info)
        verified = sharded.verify()
        print(sharded)
        manifest = sharded.manifest
        print(f"  format v{manifest['format_version']}, "
              f"digest {sharded.content_digest[:16]}..., "
              f"{verified} shard(s) verified")
        for split, spec in sorted(manifest["splits"].items()):
            print(f"  {split:5s}: {spec['num_images']} images in "
                  f"{len(spec['shards'])} shard(s)")
        return 0
    if not args.out:
        print("repro shards: error: --out DIR required when writing "
              "(or use --info DIR)", file=sys.stderr)
        return 2
    try:
        dataset = load(args.dataset)
    except KeyError as exc:
        print(f"repro shards: error: {exc.args[0]}", file=sys.stderr)
        return 2
    root = write_shards(dataset, args.out, shard_size=args.shard_size,
                        force=args.force)
    sharded = open_shards(root)
    train = sharded.manifest["splits"]["train"]
    test = sharded.manifest["splits"]["test"]
    print(f"wrote {dataset.name} -> {root}")
    print(f"  train: {train['num_images']} images in "
          f"{len(train['shards'])} shard(s) of <= {args.shard_size}")
    print(f"  test : {test['num_images']} images in "
          f"{len(test['shards'])} shard(s)")
    print(f"  digest {sharded.content_digest[:16]}...  (set "
          f"dataset.shards = \"{root}\" in a config to stream it)")
    return 0


# ----------------------------------------------------------------------
# Parser construction: one helper per subcommand
# ----------------------------------------------------------------------

def _add_info_parser(sub) -> None:
    sub.add_parser("info", help="package inventory").set_defaults(
        fn=_cmd_info)


def _add_run_parser(sub) -> None:
    p = sub.add_parser(
        "run", help="run a declarative experiment pipeline config")
    p.add_argument("config", nargs="?", default=None,
                   help="JSON or TOML experiment config file")
    p.add_argument("--preset", default=None,
                   help="named preset instead of a config file "
                        "(see 'repro info')")
    p.add_argument("--backend", default=None,
                   help="override the config's simulate.backend "
                        "(dense | event)")
    p.add_argument("--cache-dir", default=None,
                   help="stage-cache directory (repeat runs resume)")
    p.add_argument("--report", default=None,
                   help="write the ExperimentReport JSON here")
    p.set_defaults(fn=_cmd_run)


def _add_fig2_parser(sub) -> None:
    p = sub.add_parser("fig2", help="activation error curves")
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--tau", type=float, default=4.0)
    p.set_defaults(fn=_cmd_fig2)


def _add_fig6_parser(sub) -> None:
    sub.add_parser("fig6", help="PE-array savings").set_defaults(
        fn=_cmd_fig6)


def _add_table4_parser(sub) -> None:
    sub.add_parser("table4", help="processor comparison").set_defaults(
        fn=_cmd_table4)


def _add_latency_parser(sub) -> None:
    p = sub.add_parser("latency", help="TTFS pipeline latency")
    p.add_argument("--layers", type=int, default=16)
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--early-firing", action="store_true")
    p.set_defaults(fn=_cmd_latency)


def _add_train_parser(sub) -> None:
    p = sub.add_parser("train", help="CAT training demo")
    p.add_argument("--dataset", default="mini-cifar10",
                   help="named dataset (see repro.data.available())")
    p.add_argument("--model", choices=("vgg7", "vgg9"), default="vgg7")
    p.add_argument("--method", choices=("I", "I+II", "I+II+III"),
                   default="I+II+III")
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_train)


def _add_simulate_parser(sub) -> None:
    p = sub.add_parser("simulate",
                       help="run a coding scheme via the batched engine")
    p.add_argument("--scheme", default=None,
                   help="registered coding scheme or alias (see 'repro "
                        "info'); defaults to ttfs-closed-form, or the "
                        "artifact's recorded scheme with --artifact")
    p.add_argument("--backend", default=None,
                   help="execution backend: dense | event "
                        "(see 'repro info')")
    p.add_argument("--artifact", default=None,
                   help="prebuilt ModelArtifact bundle directory; skips "
                        "train/convert/quantize entirely")
    p.add_argument("--dataset", default="mini-cifar10",
                   help="named dataset (see repro.data.available())")
    p.add_argument("--max-batch", type=int, default=None,
                   help="images per simulation chunk (default 32, or "
                        "the artifact's recorded value with --artifact)")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=0,
                   help="cap the number of test images (0 = all)")
    p.add_argument("--cache-dir", default=None,
                   help="stage-cache directory (repeat runs skip "
                        "training and simulation)")
    p.add_argument("--predictions", default=None,
                   help="write the per-image predicted classes as JSON "
                        "here (for parity checks against 'repro "
                        "predict')")
    p.set_defaults(fn=_cmd_simulate)


def _add_evaluate_parser(sub) -> None:
    p = sub.add_parser(
        "evaluate",
        help="sweep scheme x window x batch grids, cached, chunks on "
             "--workers threads")
    p.add_argument("--schemes", default="ttfs-closed-form,rate",
                   help="comma-separated registered scheme names")
    p.add_argument("--windows", default="8",
                   help="comma-separated max timesteps (coding windows)")
    p.add_argument("--max-batches", default="32",
                   help="comma-separated chunk sizes")
    p.add_argument("--artifact", default=None,
                   help="sweep a prebuilt ModelArtifact bundle instead "
                        "of training the micro model")
    p.add_argument("--dataset", default="mini-cifar10",
                   help="named dataset (see repro.data.available())")
    p.add_argument("--limit", type=int, default=0,
                   help="cap the number of test images (0 = all)")
    p.add_argument("--workers", type=int, default=1,
                   help="threads running cache-missed chunks at once "
                        "(1: one chunk at a time, its layers split "
                        "over the cores)")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (repeat sweeps hit it)")
    p.add_argument("--report", default=None,
                   help="write the machine-readable JSON report here")
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_evaluate)


def _add_build_parser(sub) -> None:
    p = sub.add_parser(
        "build",
        help="run a config's build stages and write a versioned "
             "ModelArtifact bundle")
    p.add_argument("config", nargs="?", default=None,
                   help="JSON or TOML experiment config file")
    p.add_argument("--preset", default=None,
                   help="named preset instead of a config file "
                        "(see 'repro info')")
    p.add_argument("--out", default=None,
                   help="bundle directory to write")
    p.add_argument("--registry", default=None,
                   help="publish into this model-registry root instead "
                        "of --out")
    p.add_argument("--name", default=None,
                   help="registry model name (default: the config's "
                        "experiment name)")
    p.add_argument("--tag", default=None,
                   help="registry version tag (default: next v<n>)")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing bundle at --out")
    p.add_argument("--cache-dir", default=None,
                   help="stage-cache directory (repeat builds resume)")
    p.set_defaults(fn=_cmd_build)


def _add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="serve every model in a registry over HTTP (JSON, "
             "micro-batched)")
    p.add_argument("--registry", required=True,
                   help="model-registry root directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8378,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--scheme", default=None,
                   help="override every session's coding scheme")
    p.add_argument("--backend", default=None,
                   help="override every session's execution backend")
    p.add_argument("--max-batch", type=int, default=0,
                   help="override the artifacts' max_batch (0 = keep)")
    p.add_argument("--batch-wait-ms", type=float, default=None,
                   help="how long a dispatch waits for more requests "
                        "after taking every queued one (default 0)")
    p.add_argument("--workers", type=int, default=0,
                   help="session processes per model (0 = one in-process "
                        "session; N = a worker fleet sharing one mmap'd "
                        "copy of each bundle)")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="per-model admission bound in images; beyond it "
                        "requests are shed with HTTP 503 + Retry-After "
                        "(0 = unbounded)")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map bundle weights even for in-process "
                        "sessions (implied by --workers)")
    p.add_argument("--max-body-bytes", type=int, default=None,
                   help="largest POST /predict body accepted, in bytes "
                        "(default 16 MiB); longer ones are refused with "
                        "HTTP 413")
    p.set_defaults(fn=_cmd_serve)


def _add_predict_parser(sub) -> None:
    p = sub.add_parser(
        "predict",
        help="send dataset images to a running 'repro serve' and print "
             "the predictions")
    p.add_argument("--url", default="http://127.0.0.1:8378",
                   help="prediction-server base URL")
    p.add_argument("--model", required=True,
                   help="model spec: name, name:version or name:alias")
    p.add_argument("--dataset", default="mini-cifar10",
                   help="named dataset whose test split is sent")
    p.add_argument("--limit", type=int, default=8,
                   help="cap the number of test images (0 = all)")
    p.add_argument("--output", default=None,
                   help="write the JSON response (plus accuracy) here")
    p.set_defaults(fn=_cmd_predict)


def _add_export_parser(sub) -> None:
    p = sub.add_parser(
        "export",
        help="compile an artifact bundle into a self-contained target "
             "description")
    p.add_argument("--artifact", default=None,
                   help="ModelArtifact bundle directory to compile")
    p.add_argument("--target", default=None,
                   help="target backend or alias (see --list-targets)")
    p.add_argument("--out", default=None,
                   help="export directory to write")
    p.add_argument("--scheme", default=None,
                   help="coding scheme to compile for (default: the "
                        "artifact's recorded scheme)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing export at --out")
    p.add_argument("--list-targets", action="store_true",
                   help="list registered target backends and exit")
    p.add_argument("--dataset", default="mini-cifar10",
                   help="named dataset for --predictions")
    p.add_argument("--limit", type=int, default=0,
                   help="cap the number of test images (0 = all)")
    p.add_argument("--predictions", default=None,
                   help="execute the export on the dataset's test split "
                        "and write per-image predictions JSON here (same "
                        "layout as 'repro simulate --predictions')")
    p.set_defaults(fn=_cmd_export)


def _add_metrics_parser(sub) -> None:
    p = sub.add_parser(
        "metrics",
        help="scrape a running server's /metrics and print it as JSON")
    p.add_argument("--url", default="http://127.0.0.1:8378",
                   help="prediction-server base URL")
    p.add_argument("--text", action="store_true",
                   help="print the raw Prometheus exposition text "
                        "instead of JSON")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="scrape timeout in seconds")
    p.set_defaults(fn=_cmd_metrics)


def _add_shards_parser(sub) -> None:
    p = sub.add_parser(
        "shards",
        help="write a named dataset as a streamable shard directory")
    p.add_argument("--dataset", default="mini-cifar10",
                   help="named dataset (see repro.data.available())")
    p.add_argument("--out", default="",
                   help="shard directory to write")
    p.add_argument("--shard-size", type=int, default=512,
                   help="max images per shard file (default 512)")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing shard directory")
    p.add_argument("--info", default="",
                   help="describe + digest-verify an existing shard "
                        "directory instead of writing")
    p.set_defaults(fn=_cmd_shards)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DAC'22 TTFS-CAT reproduction CLI")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for add_subparser in (_add_info_parser, _add_run_parser,
                          _add_fig2_parser, _add_fig6_parser,
                          _add_table4_parser, _add_latency_parser,
                          _add_train_parser, _add_simulate_parser,
                          _add_evaluate_parser, _add_build_parser,
                          _add_serve_parser, _add_predict_parser,
                          _add_export_parser, _add_metrics_parser,
                          _add_shards_parser):
        add_subparser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # one shared base for every subsystem's user-facing failures
        # (artifact/server/worker-pool/target errors): clean exit, no
        # traceback
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
