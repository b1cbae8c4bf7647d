"""CLI smoke tests (direct main() invocation, stdout captured)."""

import json

import pytest

from repro.cli import main


def run_config(tmp_path, capsys, config) -> str:
    """``repro run`` over ``config`` written to a JSON file; its stdout."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 0
    return capsys.readouterr().out


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "subsystems" in out

    def test_info_lists_schemes_stages_and_presets(self, capsys):
        from repro.api import available_presets, available_stages
        from repro.engine import available_backends, available_schemes

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for scheme in available_schemes():
            assert scheme in out
        for backend in available_backends():
            assert backend in out
        assert "backends" in out
        for stage in available_stages():
            assert stage in out
        for preset in available_presets():
            assert preset in out

    def test_fig2(self, capsys, tmp_path):
        out = run_config(tmp_path, capsys, {
            "stages": ["fig2"], "analysis": {"window": 12, "tau": 2}})
        assert "fig2      : window=12, tau=2\n" in out
        assert "max_error.ttfs=0, max_error.clip=0.290" in out
        assert "max_error.relu=0.290" in out
        # the figure's curves, 13 samples each
        assert "curve.x.0=0, curve.x.1=0.1," in out
        assert "curve.x.12=1.2\n" in out
        assert "curve.ttfs.12=0\n" in out

    def test_fig6(self, capsys):
        assert main(["run", "--preset", "paper-artefacts"]) == 0
        out = capsys.readouterr().out
        for key, value in (("area_saving_cat", "0.12179"),
                           ("power_saving_cat", "0.146374"),
                           ("area_saving_log", "0.082151"),
                           ("power_saving_log", "0.0876641")):
            assert f"{key}={value}" in out
        assert "normalised.area.Base=1, normalised.area.I=0.87821" in out

    def test_table4(self, capsys):
        assert main(["run", "--preset", "paper-artefacts"]) == 0
        out = capsys.readouterr().out
        assert "table4    : area_mm2=0.93249\n" in out
        for i, workload in enumerate(("cifar10", "cifar100",
                                      "tiny-imagenet")):
            assert f"rows.{i}.workload={workload}, rows.{i}.snn_fps=" in out
        assert "rows.0.snn_fps=244.8, rows.0.snn_uj_per_image=522.8" in out
        assert "rows.2.snn_uj_per_image=1193.3, rows.2.tpu_fps=51" in out

    def test_latency_default_is_table2(self, capsys, tmp_path):
        out = run_config(tmp_path, capsys, {
            "stages": ["latency"], "analysis": {"window": 24}})
        assert "layers=16, window=24, early_firing=False, " \
               "timesteps=408\n" in out

    def test_latency_early_firing(self, capsys, tmp_path):
        out = run_config(tmp_path, capsys, {
            "stages": ["latency"],
            "analysis": {"window": 80, "early_firing": True}})
        assert "early_firing=True, timesteps=680\n" in out

    @pytest.mark.parametrize("command", ["fig2", "fig6", "table4",
                                         "latency", "train"])
    def test_artefact_wrappers_are_gone(self, command):
        # repro run --preset paper-artefacts / a config replaces them
        with pytest.raises(SystemExit):
            main([command])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTrainCommand:
    def test_train_micro(self, capsys, tmp_path):
        """The CAT demo: train, convert, and evaluate both networks."""
        out = run_config(tmp_path, capsys, {
            "stages": ["train", "convert"],
            "model": {"arch": "vgg7"},
            "train": {"window": 8, "tau": 2, "epochs": 2},
            "convert": {"evaluate": True}})
        (line,) = [l for l in out.splitlines() if l.startswith("convert")]
        metrics = dict(pair.split("=") for pair in
                       line.split(":", 1)[1].strip().split(", "))
        ann, snn = float(metrics["ann_accuracy"]), float(
            metrics["snn_accuracy"])
        assert 0.0 <= ann <= 1.0 and 0.0 <= snn <= 1.0
        assert float(metrics["conversion_loss_pp"]) == \
            pytest.approx(100 * (snn - ann), abs=1e-3)
        # vgg7: five weight layers plus the input window, T=8 each
        assert metrics["latency_timesteps"] == str(6 * 8)


class TestSimulateCommand:
    def test_bad_max_batch_and_limit_are_usage_errors(self, capsys):
        assert main(["simulate", "--max-batch", "0"]) == 2
        assert "--max-batch" in capsys.readouterr().err
        assert main(["simulate", "--limit", "-1"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_unknown_backend_is_a_usage_error_with_suggestion(self, capsys):
        assert main(["simulate", "--backend", "evnt"]) == 2
        err = capsys.readouterr().err
        assert "simulate.backend" in err
        assert "did you mean 'event'" in err
        assert main(["simulate", "--backend", "auto"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'auto'; available: dense, event" in err

    def test_bad_training_params_are_usage_errors(self, capsys, tmp_path):
        assert main(["simulate", "--epochs", "0"]) == 2
        assert "train.epochs" in capsys.readouterr().err
        assert main(["evaluate", "--epochs", "0"]) == 2
        assert "train.epochs" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"stages": ["train", "convert"], '
                       '"train": {"epochs": 0}}')
        assert main(["run", str(bad)]) == 2
        assert "train.epochs must be >= 1" in capsys.readouterr().err

    def test_simulate_routes_through_the_experiment_driver(self, capsys,
                                                           tmp_path):
        """CLI parity: ``repro simulate`` == the api driver, key for key.

        The CLI runs cold against a stage cache; the identical config
        built through the public builder then replays every stage from
        that cache — same keys, same metrics — proving the subcommand
        is a thin wrapper over the same driver.
        """
        cache_dir = tmp_path / "stage-cache"
        argv = ["simulate", "--epochs", "1", "--window", "6",
                "--max-batch", "8", "--limit", "8",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "training vgg_micro on mini-cifar10" in out
        assert "simulating 8 images with scheme 'ttfs-closed-form' " \
               "(1 chunk(s) of <= 8)" in out
        assert "accuracy  :" in out and "throughput:" in out
        acc_line = next(l for l in out.splitlines()
                        if l.startswith("accuracy"))
        cli_accuracy = float(acc_line.split(":")[1])

        from repro.api import Experiment, simulate_config
        from repro.engine import ResultCache

        config = simulate_config(dataset="mini-cifar10",
                                 scheme="ttfs-closed-form", max_batch=8,
                                 window=6, tau=2.0, epochs=1, seed=0,
                                 limit=8)
        report = Experiment(config, cache=ResultCache(cache_dir)).run()
        assert [s.status for s in report.stages] == ["cached"] * 3
        assert report.metrics["simulate"]["accuracy"] == \
            pytest.approx(cli_accuracy, abs=5e-4)


class TestRunCommand:
    def _example(self, name):
        from pathlib import Path

        return str(Path(__file__).resolve().parents[1] / "examples"
                   / "configs" / name)

    def test_requires_exactly_one_config_source(self, capsys):
        assert main(["run"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["run", "a.json", "--preset", "micro-smoke"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_preset_is_a_usage_error_with_suggestion(self, capsys):
        assert main(["run", "--preset", "micro-smok"]) == 2
        assert "did you mean 'micro-smoke'" in capsys.readouterr().err

    def test_unknown_backend_override_is_a_usage_error(self, capsys):
        assert main(["run", "--preset", "micro-smoke",
                     "--backend", "evnt"]) == 2
        err = capsys.readouterr().err
        assert "simulate.backend" in err
        assert "did you mean 'event'" in err
        assert main(["run", "--preset", "micro-smoke",
                     "--backend", "auto"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'auto'; available: dense, event" in err

    def test_invalid_config_is_a_usage_error_with_suggestion(self, capsys,
                                                             tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"epohcs": 1}}')
        assert main(["run", str(bad)]) == 2
        assert "did you mean 'epochs'" in capsys.readouterr().err

    def test_missing_config_file_is_a_usage_error(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_missing_stage_dependency_is_a_usage_error(self, capsys,
                                                       tmp_path):
        cfg = tmp_path / "dep.json"
        cfg.write_text('{"stages": ["simulate"]}')
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "repro run: error:" in err
        assert "add 'convert' before 'simulate'" in err

    def test_unwritable_report_path_keeps_the_message(self, capsys,
                                                      tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub" / "report.json"   # parent is a file
        assert main(["run", "--preset", "paper-artefacts",
                     "--report", str(target)]) == 2
        err = capsys.readouterr().err
        assert "repro run: error:" in err
        assert err.strip() != "repro run: error: 20"  # not a bare errno

    @pytest.mark.parametrize("content", [b'{"name": "\xff\xfe"}',
                                         b"[" * 100_000],
                             ids=["non-utf8", "deep"])
    def test_hostile_config_is_a_usage_error(self, capsys, tmp_path,
                                             content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: error: ")
        assert "hostile.json: corrupted config file" in err

    def test_paper_artefacts_config_runs_instantly(self, capsys):
        from repro.api.config import _toml_module

        if _toml_module() is None:
            pytest.skip("no tomllib/tomli on this interpreter")
        assert main(["run", self._example("paper-artefacts.toml")]) == 0
        out = capsys.readouterr().out
        assert "stages: fig2 -> fig6 -> table4 -> latency" in out
        assert "timesteps=408" in out

    def test_full_pipeline_cold_then_cached(self, capsys, tmp_path):
        """The acceptance path: all five stages cold, then all cached."""
        import json

        argv = ["run", self._example("micro-pipeline.json"),
                "--cache-dir", str(tmp_path / "cache"),
                "--report", str(tmp_path / "report.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stages: train -> convert -> quantize -> simulate " \
               "-> hardware" in out
        assert "0/5 stage(s) from cache" in out
        cold = json.loads((tmp_path / "report.json").read_text())
        assert [s["status"] for s in cold["stages"]] == ["completed"] * 5

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "5/5 stage(s) from cache" in out
        cached = json.loads((tmp_path / "report.json").read_text())
        assert cached["schema_version"] == 2
        assert [s["status"] for s in cached["stages"]] == ["cached"] * 5
        assert cached["metrics"] == cold["metrics"]
        assert {s["name"] for s in cached["stages"]} == \
            {"train", "convert", "quantize", "simulate", "hardware"}


class TestEvaluateCommand:
    def test_unknown_scheme_is_a_usage_error(self, capsys):
        assert main(["evaluate", "--schemes", "morse-code"]) == 2
        assert "unknown coding scheme 'morse-code'" in capsys.readouterr().err

    def test_empty_axis_is_a_usage_error(self, capsys):
        assert main(["evaluate", "--schemes", ","]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_workers_and_limit_fail_before_training(self, capsys):
        assert main(["evaluate", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["evaluate", "--limit", "-5"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_workers_pin_threads_and_blas(self, capsys, monkeypatch):
        # N chunks on N threads, each GEMM on one: N threads each
        # splitting GEMMs again would oversubscribe the cores
        from repro import threads

        calls = []
        monkeypatch.setattr(threads, "set_threads",
                            lambda n: calls.append(("threads", n)))
        monkeypatch.setattr(threads, "set_blas_threads",
                            lambda n: calls.append(("blas", n)))
        argv = ["evaluate", "--schemes", "ttfs-closed-form", "--windows",
                "6", "--max-batches", "4", "--epochs", "1", "--limit", "8"]
        assert main(argv + ["--workers", "1"]) == 0
        assert calls == []
        assert main(argv + ["--workers", "3"]) == 0
        assert calls == [("threads", 3), ("blas", 1)]
        assert "3 thread(s)" in capsys.readouterr().out

    def test_sweep_runs_and_resumes_from_cache(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        argv = ["evaluate", "--schemes", "ttfs-closed-form",
                "--windows", "6", "--max-batches", "8",
                "--epochs", "1", "--limit", "8", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--report", str(report_path)]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache 1 hit / 0 miss" in out

        import json
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert report["cache"] == {"hits": 1, "misses": 0}
        (point,) = report["points"]
        assert point["scheme"] == "ttfs-closed-form"
        assert point["window"] == 6
        assert 0.0 <= point["accuracy"] <= 1.0

        # an alias resolves before the sweep: same cache key, same report
        argv[argv.index("ttfs-closed-form")] = "ttfs"
        assert main(argv) == 0
        assert "cache 1 hit / 0 miss" in capsys.readouterr().out
        (alias_point,) = json.loads(report_path.read_text())["points"]
        for key in ("scheme", "window", "accuracy", "total_spikes"):
            assert alias_point[key] == point[key]

    def test_repeated_axis_values_run_one_point(self, capsys, tmp_path):
        # "ttfs" is an alias of "ttfs-closed-form": after resolution the
        # schemes repeat, and so do the windows
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--schemes", "ttfs,ttfs-closed-form",
                     "--windows", "6,6", "--max-batches", "8,8",
                     "--epochs", "1", "--limit", "8", "--workers", "1",
                     "--report", str(report_path)]) == 0
        capsys.readouterr()
        import json
        report = json.loads(report_path.read_text())
        (point,) = report["points"]
        assert (point["scheme"], point["window"]) == ("ttfs-closed-form", 6)

    def test_timestep_alias_runs_one_point(self, capsys, tmp_path):
        # the stepped walk is an alias of the closed form: one point
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--schemes", "ttfs-timestep,ttfs-closed-form",
                     "--windows", "6", "--max-batches", "8",
                     "--epochs", "1", "--limit", "8", "--workers", "1",
                     "--report", str(report_path)]) == 0
        capsys.readouterr()
        import json
        (point,) = json.loads(report_path.read_text())["points"]
        assert point["scheme"] == "ttfs-closed-form"


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro import __version__

        assert f"repro {__version__}" in capsys.readouterr().out


class TestBuildCommand:
    def test_requires_exactly_one_destination(self, capsys, tmp_path):
        assert main(["build", "--preset", "micro-smoke"]) == 2
        assert "exactly one of --out" in capsys.readouterr().err
        assert main(["build", "--preset", "micro-smoke",
                     "--out", str(tmp_path / "b"),
                     "--registry", str(tmp_path / "r")]) == 2
        assert "exactly one of --out" in capsys.readouterr().err

    def test_requires_exactly_one_config_source(self, capsys, tmp_path):
        assert main(["build", "--out", str(tmp_path / "b")]) == 2
        assert "exactly one of a config file" in capsys.readouterr().err

    def test_existing_bundle_needs_force(self, capsys, tmp_path):
        out = str(tmp_path / "bundle")
        assert main(["build", "--preset", "micro-smoke", "--out", out]) == 0
        assert main(["build", "--preset", "micro-smoke", "--out", out]) == 2
        assert "already holds an artifact" in capsys.readouterr().err
        assert main(["build", "--preset", "micro-smoke", "--out", out,
                     "--force"]) == 0


class TestServeRoundTrip:
    """Acceptance: serve + predict == simulate, via the real CLI."""

    @pytest.fixture(scope="class")
    def registry_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-registry")
        code = main(["build", "--preset", "micro-smoke",
                     "--registry", str(root), "--name", "micro"])
        assert code == 0
        return root

    def test_build_published_with_latest_alias(self, registry_dir, capsys):
        from repro.serve import ModelRegistry

        registry = ModelRegistry(registry_dir, create=False)
        assert registry.names() == ["micro"]
        assert registry.aliases("micro") == {"latest": "v1"}

    def test_predict_matches_simulate_artifact(self, registry_dir,
                                               tmp_path, capsys):
        import json

        from repro.serve import PredictionServer

        with PredictionServer(str(registry_dir), port=0) as server:
            pred_file = tmp_path / "pred.json"
            assert main(["predict", "--url", server.url,
                         "--model", "micro:latest", "--limit", "12",
                         "--output", str(pred_file)]) == 0
        out = capsys.readouterr().out
        assert "predictions:" in out and "accuracy" in out

        sim_file = tmp_path / "sim.json"
        bundle = registry_dir / "micro" / "v1"
        assert main(["simulate", "--artifact", str(bundle),
                     "--limit", "12",
                     "--predictions", str(sim_file)]) == 0
        out = capsys.readouterr().out
        assert "restoring artifact bundle" in out
        assert "training" not in out          # run-time path: no training

        served = json.loads(pred_file.read_text())
        simulated = json.loads(sim_file.read_text())
        assert served["predictions"] == simulated["predictions"]
        assert served["accuracy"] == pytest.approx(simulated["accuracy"])

    def test_predict_unknown_model_is_an_error_with_suggestion(
            self, registry_dir, capsys):
        from repro.serve import PredictionServer

        with PredictionServer(str(registry_dir), port=0) as server:
            assert main(["predict", "--url", server.url,
                         "--model", "micr", "--limit", "1"]) == 2
        assert "did you mean 'micro'" in capsys.readouterr().err

    def test_predict_unreachable_server_is_an_error(self, capsys):
        assert main(["predict", "--url", "http://127.0.0.1:1",
                     "--model", "micro", "--limit", "1"]) == 2
        assert "cannot reach prediction server" in capsys.readouterr().err

    def test_evaluate_artifact_skips_training(self, registry_dir, capsys):
        bundle = registry_dir / "micro" / "v1"
        assert main(["evaluate", "--artifact", str(bundle),
                     "--schemes", "ttfs-closed-form", "--windows", "6",
                     "--max-batches", "8", "--limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "evaluating artifact bundle" in out
        assert "training" not in out

    def test_simulate_bad_artifact_is_a_usage_error(self, capsys,
                                                    tmp_path):
        assert main(["simulate", "--artifact",
                     str(tmp_path / "nope")]) == 2
        assert "no such artifact bundle" in capsys.readouterr().err

    def test_serve_empty_registry_is_a_usage_error(self, capsys,
                                                   tmp_path):
        empty = tmp_path / "empty-reg"
        empty.mkdir()
        assert main(["serve", "--registry", str(empty)]) == 2
        assert "holds no models" in capsys.readouterr().err
        assert main(["serve", "--registry",
                     str(tmp_path / "missing")]) == 2
        assert "no such registry" in capsys.readouterr().err


class TestSimulateArtifactDefaults:
    def test_max_batch_defaults_to_the_manifest(self, tmp_path, capsys):
        out_dir = str(tmp_path / "bundle")
        assert main(["build", "--preset", "micro-smoke",
                     "--out", out_dir]) == 0
        capsys.readouterr()
        # micro-smoke records max_batch=8; no --max-batch -> honoured
        assert main(["simulate", "--artifact", out_dir,
                     "--limit", "12"]) == 0
        assert "of <= 8)" in capsys.readouterr().out
        # an explicit flag still overrides
        assert main(["simulate", "--artifact", out_dir,
                     "--limit", "12", "--max-batch", "4"]) == 0
        assert "of <= 4)" in capsys.readouterr().out


class TestShardsCommand:
    def test_write_then_info(self, tmp_path, capsys):
        out = str(tmp_path / "shards")
        assert main(["shards", "--dataset", "mini-cifar10", "--out", out,
                     "--shard-size", "100"]) == 0
        written = capsys.readouterr().out
        assert "wrote mini-cifar10" in written
        assert "600 images in 6 shard(s)" in written
        assert main(["shards", "--info", out]) == 0
        info = capsys.readouterr().out
        assert "8 shard(s) verified" in info
        assert "format v1" in info

    def test_out_required_without_info(self, capsys):
        assert main(["shards", "--out", ""]) == 2
        assert "--out DIR required" in capsys.readouterr().err

    def test_unknown_dataset(self, tmp_path, capsys):
        assert main(["shards", "--dataset", "imagenet",
                     "--out", str(tmp_path / "s")]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_existing_dir_needs_force(self, tmp_path, capsys):
        out = str(tmp_path / "shards")
        assert main(["shards", "--out", out]) == 0
        capsys.readouterr()
        assert main(["shards", "--out", out]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["shards", "--out", out, "--force"]) == 0

    def test_info_on_missing_dir(self, tmp_path, capsys):
        assert main(["shards", "--info", str(tmp_path / "absent")]) == 2
        assert "not a shard directory" in capsys.readouterr().err

    def test_run_consumes_shards(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "shards")
        assert main(["shards", "--out", out]) == 0
        capsys.readouterr()
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "name": "cli-shards",
            "stages": ["train", "convert"],
            "dataset": {"shards": out},
            "train": {"epochs": 1},
        }))
        assert main(["run", str(config)]) == 0
        assert "train" in capsys.readouterr().out


@pytest.fixture()
def served_kwargs(monkeypatch):
    """The keyword arguments ``repro serve`` hands a stub server."""
    import repro.serve

    seen = {}

    class Stub:
        url = "http://stub"

        def __init__(self, registry, **kwargs):
            seen.update(kwargs)

        def start(self):
            return self

        def serve_forever(self):
            pass

    monkeypatch.setattr(repro.serve.ModelRegistry, "names",
                        lambda self: ["m"])
    monkeypatch.setattr(repro.serve, "PredictionServer", Stub)
    return seen


class TestServeBodyLimit:
    def test_max_body_bytes_reaches_the_server(self, served_kwargs,
                                               tmp_path):
        registry = tmp_path / "reg"
        registry.mkdir()
        assert main(["serve", "--registry", str(registry),
                     "--max-body-bytes", "4096"]) == 0
        assert served_kwargs["max_body_bytes"] == 4096
        served_kwargs.clear()
        assert main(["serve", "--registry", str(registry)]) == 0
        assert "max_body_bytes" not in served_kwargs  # the server's default

    def test_batch_wait_reaches_the_server_in_seconds(self, served_kwargs,
                                                      tmp_path, capsys):
        registry = tmp_path / "reg"
        registry.mkdir()
        assert main(["serve", "--registry", str(registry),
                     "--batch-wait-ms", "2.5"]) == 0
        assert served_kwargs["batch_wait_s"] == 0.0025
        served_kwargs.clear()
        assert main(["serve", "--registry", str(registry)]) == 0
        assert "batch_wait_s" not in served_kwargs    # the server's default
        assert main(["serve", "--registry", str(registry),
                     "--batch-wait-ms", "-1"]) == 2
        assert "--batch-wait-ms" in capsys.readouterr().err

    def test_non_positive_max_body_bytes_is_a_usage_error(self, capsys,
                                                          monkeypatch,
                                                          tmp_path):
        import repro.serve

        monkeypatch.setattr(repro.serve.ModelRegistry, "names",
                            lambda self: ["m"])
        registry = tmp_path / "reg"
        registry.mkdir()
        assert main(["serve", "--registry", str(registry),
                     "--max-body-bytes", "0"]) == 2
        assert "--max-body-bytes" in capsys.readouterr().err
