import json
import shutil
import zlib
from dataclasses import fields

import numpy as np
import pytest

from dbtune import cli, evaluate, ingest, mapping, predict, synth
from dbtune.errors import ConfigError


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = synth.SynthSpec(n_offline=6, n_online=2, rows_per_workload=6,
                           n_knobs=2, n_latent=2, metrics_per_latent=2,
                           noise_std=0.02, seed=17,
                           freq_scale=1.0, profile_scale=2.0)
    corpus, _ = synth.generate_corpus(spec)
    manifest = synth.write_corpus(corpus, out)
    return manifest


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, tmp_path_factory):
    """prune + train output of a small GPR model on the shared corpus."""
    out = tmp_path_factory.mktemp("trained")
    assert run(["prune", "--manifest", corpus_dir, "--out", out]) == 0
    assert run(["train", "--manifest", corpus_dir, "--out", out,
                "--pruned", out / "pruned_metrics.txt", "--alpha", "1e-4"]) == 0
    return out


# a value for every PipelineConfig field, none of them its default
NON_DEFAULT = dict(manifest="m.json", method="gmm", k_min=3, k_max=9, factor_cap=4,
                   predictor="nn", alpha=0.25, trees=7, depth=5, hidden=8, epochs=3,
                   map_score="mape", n_map=4, seed=11, out="elsewhere")


class TestConfig:
    def test_defaults_valid(self):
        cli.PipelineConfig()

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            cli.PipelineConfig(method="spectral")

    def test_bad_k_range(self):
        with pytest.raises(ConfigError):
            cli.PipelineConfig(k_min=5, k_max=4)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"predictor": "rf", "trees": 7, "seed": 3}))
        parser = cli.build_parser()
        args = parser.parse_args(["pipeline", "--config", str(cfg), "--trees", "9"])
        config = cli.build_config(args)
        assert config.predictor == "rf"
        assert config.trees == 9
        assert config.seed == 3

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_every_field_round_trips(self, source, tmp_path):
        assert set(NON_DEFAULT) == {f.name for f in fields(cli.PipelineConfig)}
        default = cli.PipelineConfig()
        assert all(getattr(default, k) != v for k, v in NON_DEFAULT.items())
        if source == "flags":
            argv = [a for k, v in NON_DEFAULT.items()
                    for a in ("--" + k.replace("_", "-"), str(v))]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(NON_DEFAULT))
            argv = ["--config", str(cfg)]
        args = cli.build_parser().parse_args(["pipeline", *argv])
        assert cli.build_config(args) == cli.PipelineConfig(**NON_DEFAULT)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        parser = cli.build_parser()
        args = parser.parse_args(["pipeline", "--config", str(cfg)])
        with pytest.raises(ConfigError, match="bogus"):
            cli.build_config(args)


class TestExitCodes:
    def test_missing_manifest_flag_is_config_error(self, capsys):
        assert run(["pipeline"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_file_is_data_error(self, tmp_path, capsys):
        assert run(["pipeline", "--manifest", tmp_path / "nope.json",
                    "--out", tmp_path / "out"]) == 2

    def test_bad_config_file(self, tmp_path):
        assert run(["pipeline", "--config", tmp_path / "nope.json"]) == 1

    @pytest.mark.parametrize("config_text, flags, message", [
        ('{"k_min": 3,', [], "not valid JSON"),
        ('{"k_min": "a"}', [], "'k_min' must be int"),
        ('{"alpha": true}', [], "'alpha' must be float"),
        ('[["k_min", 3]]', [], "must hold a JSON object"),
        (None, ["--predictor", "xx"], "predictor must be one of"),
        (None, ["--k-min", "a"], "invalid int value"),
    ], ids=["bad-json", "str-for-int", "bool-for-float", "not-an-object",
            "unknown-predictor", "flag-not-int"])
    def test_bad_config_exits_1(self, config_text, flags, message, corpus_dir,
                                tmp_path, capsys):
        argv = ["pipeline", "--manifest", corpus_dir, "--out", tmp_path / "out", *flags]
        if config_text is not None:
            (tmp_path / "cfg.json").write_text(config_text)
            argv += ["--config", tmp_path / "cfg.json"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda d: (d / "model.json").unlink(), "cannot read"),
        (lambda d: (d / "preprocess.json").unlink(), "cannot read"),
        (lambda d: (d / "model.json").write_text(
            (d / "model.json").read_text().replace('"chol"', '"cholx"')), "'chol'"),
        (lambda d: (d / "preprocess.json").write_text(
            (d / "preprocess.json").read_text().replace('"n_knobs"', '"knobs"')),
         "'n_knobs'"),
        (lambda d: (d / "model.json").write_text("{"), "not valid JSON"),
    ], ids=["no-model", "no-preprocess", "model-key", "preprocess-key", "model-bad-json"])
    def test_bad_model_dir_exits_2(self, damage, message, corpus_dir, trained_dir,
                                   tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        damage(model_dir)
        assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_workload_id_in_two_groups_is_data_error(self, corpus_dir, tmp_path, capsys):
        # an online-B table that reuses an offline id: stage 2 would score two
        # tables named off_000 and could augment with the wrong one
        data = tmp_path / "data"
        data.mkdir()
        for f in corpus_dir.parent.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        b_file = data / "online_b_b_000.csv"
        b_file.write_text(b_file.read_text().replace("\nb_000,", "\noff_000,"))
        assert run(["pipeline", "--manifest", data / "manifest.json",
                    "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "workload id 'off_000' appears in groups offline and online_b" in err


@pytest.fixture(scope="module")
def rf_trained_dir(trained_dir, corpus_dir, tmp_path_factory):
    """train output of a small forest beside the shared pruned metrics."""
    out = tmp_path_factory.mktemp("rf_trained")
    assert run(["train", "--manifest", corpus_dir, "--out", out, "--predictor", "rf",
                "--trees", "3", "--depth", "4",
                "--pruned", trained_dir / "pruned_metrics.txt"]) == 0
    return out


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _set_root_feature(value):
    def edit(doc):
        assert "feature" in doc["trees"][0]
        doc["trees"][0]["feature"] = value
    return edit


class TestExitContract:
    @pytest.mark.parametrize("flags, message", [
        (["--trees", "0"], "trees must be >= 1"),
        (["--depth", "-1"], "depth >= 0"),
    ], ids=["zero-trees", "negative-depth"])
    def test_bad_forest_config_exits_1(self, flags, message, corpus_dir, tmp_path, capsys):
        assert run(["pipeline", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--predictor", "rf", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, message", [
        ("prune-bad-manifest", "not valid JSON"),
        ("synth-bad-spec", "not valid JSON"),
        ("map-missing-pruned", "cannot read"),
        ("train-missing-pruned", "cannot read"),
    ])
    def test_unreadable_input_exits_2(self, command, message, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        missing = tmp_path / "missing.txt"
        argv = {
            "prune-bad-manifest": ["prune", "--manifest", bad],
            "synth-bad-spec": ["synth", "--spec", bad],
            "map-missing-pruned": ["map", "--manifest", corpus_dir, "--pruned", missing],
            "train-missing-pruned": ["train", "--manifest", corpus_dir, "--pruned", missing],
        }[command]
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("file, edit, message", [
        ("model.json", _set_root_feature("3"), "feature must be int"),
        ("model.json", _set_root_feature(99), "splits on feature 99"),
        ("model.json", _set_root_feature(-2), "feature must be >= 0"),
        ("model.json", lambda d: d.update(trees=[]), "non-empty list"),
        ("preprocess.json", lambda d: d.update(n_knobs="3"), "n_knobs must be int"),
        ("preprocess.json", lambda d: d.update(n_knobs=99), "99 knobs"),
        ("preprocess.json", lambda d: d.update(scaler_means=["a"]), "list of numbers"),
    ], ids=["feature-str", "feature-past-width", "feature-negative", "no-trees",
            "n-knobs-str", "n-knobs-past-width", "means-str"])
    def test_malformed_model_dir_exits_2(self, file, edit, message, corpus_dir,
                                         rf_trained_dir, trained_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(rf_trained_dir, model_dir)
        _edit_json(model_dir / file, edit)
        assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestSynthCommand:
    def test_writes_manifest_and_truth(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_offline": 3, "n_online": 1,
                                    "rows_per_workload": 4}))
        assert run(["synth", "--spec", spec, "--out", tmp_path / "c"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")
        truth = json.loads((tmp_path / "c" / "ground_truth.json").read_text())
        assert set(truth["nearest_source_of"]) == {"b_000", "c_000"}


class TestPruneCommand:
    def test_outputs(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["prune", "--manifest", corpus_dir, "--out", out]) == 0
        names = capsys.readouterr().out.split()
        assert names == (out / "pruned_metrics.txt").read_text().split()
        assert (out / "loadings.csv").exists()
        assert (out / "eigenvalues.csv").exists()
        assert (out / "cluster_report.csv").exists()


class TestPipelineCommand:
    def _run(self, corpus_dir, out, extra=()):
        code = run(["pipeline", "--manifest", corpus_dir, "--out", out,
                    "--alpha", "1e-4", "--seed", "0", *extra])
        assert code == 0

    def test_outputs_and_determinism(self, corpus_dir, tmp_path, capsys):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        self._run(corpus_dir, out1)
        self._run(corpus_dir, out2)
        capsys.readouterr()
        produced = sorted(p.name for p in out1.iterdir())
        assert "summary.csv" in produced
        assert "map_report.csv" in produced
        assert any(n.startswith("predictions_") for n in produced)
        for name in produced:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_matches_prediction_files(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "o"
        self._run(corpus_dir, out)
        capsys.readouterr()
        summary = {line.split(",")[0]: float(line.split(",")[1])
                   for line in (out / "summary.csv").read_text().strip().splitlines()[1:]}
        for f in out.glob("predictions_*.csv"):
            name = f.stem.removeprefix("predictions_")
            report = evaluate.parse_predictions_csv(f.read_text(), name)
            assert summary[name] == pytest.approx(report.mape, rel=1e-6)

    def test_rf_and_nn_predictors_run(self, corpus_dir, tmp_path, capsys):
        for predictor, extra in (("rf", ["--trees", "10", "--depth", "6"]),
                                 ("nn", ["--epochs", "30"])):
            out = tmp_path / predictor
            self._run(corpus_dir, out, ["--predictor", predictor, *extra])
        capsys.readouterr()


class TestEvalCommand:
    def test_recompute_from_csvs(self, tmp_path, capsys):
        pdir = tmp_path / "preds"
        pdir.mkdir()
        report = evaluate.EvalReport("demo", (("w", 100.0, 110.0),))
        (pdir / "predictions_demo.csv").write_text(report.predictions_csv())
        out = tmp_path / "out"
        assert run(["eval", "--predictions-dir", pdir, "--out", out]) == 0
        assert "demo" in capsys.readouterr().out
        assert (out / "summary.csv").exists()

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        (tmp_path / "preds").mkdir()
        assert run(["eval", "--predictions-dir", tmp_path / "preds",
                    "--out", tmp_path / "out"]) == 2


class TestTrainPredictCommands:
    def test_train_then_predict(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["prune", "--manifest", corpus_dir, "--out", out]) == 0
        assert run(["train", "--manifest", corpus_dir, "--out", out,
                    "--pruned", out / "pruned_metrics.txt",
                    "--alpha", "1e-4"]) == 0
        assert run(["predict", "--manifest", corpus_dir, "--out", out,
                    "--model-dir", out, "--group", "online_b"]) == 0
        capsys.readouterr()
        pred_file = out / "predictions_gpr.csv"
        report = evaluate.parse_predictions_csv(pred_file.read_text(), "gpr")
        assert report.n > 0

    def test_predictions_named_after_loaded_model(self, corpus_dir, trained_dir,
                                                  tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["predict", "--manifest", corpus_dir, "--out", out,
                    "--model-dir", trained_dir, "--predictor", "rf"]) == 0
        capsys.readouterr()
        assert [p.name for p in out.iterdir()] == ["predictions_gpr.csv"]

    def test_nn_model_predictions_named_nn(self, corpus_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--manifest", corpus_dir, "--out", out, "--predictor", "nn",
                    "--epochs", "3", "--pruned", trained_dir / "pruned_metrics.txt"]) == 0
        assert run(["predict", "--manifest", corpus_dir, "--out", out / "p",
                    "--model-dir", out]) == 0
        capsys.readouterr()
        assert [p.name for p in (out / "p").iterdir()] == ["predictions_nn.csv"]

    def test_reloaded_preprocessing_matches_in_process_path(self, corpus_dir, trained_dir,
                                                            tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["predict", "--manifest", corpus_dir, "--out", out,
                    "--model-dir", trained_dir, "--group", "online_c"]) == 0
        capsys.readouterr()
        corpus, _ = ingest.drop_constant_columns(ingest.load_corpus_from_manifest(corpus_dir))
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema)
        pre = predict.Preprocessing.load(trained_dir / "preprocess.json")
        assert pre.scaler.means.tobytes() == scaler.means.tobytes()
        assert pre.scaler.stds.tobytes() == scaler.stds.tobytes()
        assert pre.scaler.n_knobs == scaler.n_knobs
        assert pre.scaler.constant_features == scaler.constant_features
        pruned = pre.pruned
        assert pruned.metric_names == tuple(
            (trained_dir / "pruned_metrics.txt").read_text().split())

        feats = np.vstack([predict.build_features(t, pruned, scaler) for t in corpus.offline])
        model = predict.gpr_fit(feats, np.concatenate([t.latency for t in corpus.offline]),
                                1e-4)
        expected = [(t.workload_id, float(y), float(p)) for t in corpus.online_c
                    for y, p in zip(t.latency, predict.predict_with(
                        model, predict.build_features(t, pruned, scaler)))]
        got = evaluate.parse_predictions_csv(
            (out / "predictions_gpr.csv").read_text(), "gpr").per_point
        assert got == tuple(expected)


class TestStageComposability:
    def test_pipeline_stage1_reproducible_by_hand(self, corpus_dir, tmp_path):
        """Recompute one stage-1 prediction with direct library calls."""
        out = tmp_path / "out"
        config = cli.PipelineConfig(manifest=str(corpus_dir), out=str(out),
                                    alpha=1e-4, seed=0)
        reports = cli.run_two_stage(config)
        stage1 = next(r for r in reports if r.model_name.endswith("stage1"))

        corpus = ingest.load_corpus_from_manifest(corpus_dir)
        corpus, _ = ingest.drop_constant_columns(corpus)
        pruned = cli.run_prune(config, corpus)
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema)
        table = min(corpus.online_b, key=lambda t: t.workload_id)
        map_part, val_part = ingest.split_map_validation(table, config.n_map)
        res = mapping.map_and_augment(list(corpus.offline), map_part, pruned,
                                      scaler, config.map_score)
        feats = predict.build_features(res.augmented, pruned, scaler)
        model = predict.gpr_fit(feats, res.augmented.latency, config.alpha)
        pred = predict.predict_with(model, predict.build_features(val_part, pruned, scaler))

        wid, truth_val, pipe_pred = next(
            p for p in stage1.per_point if p[0] == table.workload_id)
        assert truth_val == float(val_part.latency[0])
        assert pipe_pred == pytest.approx(float(pred[0]), abs=1e-12)

    def test_workload_seed_formula(self):
        assert cli._workload_seed(5, "b_000") == 5 + zlib.crc32(b"b_000") % 100000
