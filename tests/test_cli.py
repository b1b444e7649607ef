import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
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


@pytest.fixture(scope="module")
def nn_trained_dir(trained_dir, corpus_dir, tmp_path_factory):
    """train output of a small network beside the shared pruned metrics."""
    out = tmp_path_factory.mktemp("nn_trained")
    assert run(["train", "--manifest", corpus_dir, "--out", out, "--predictor", "nn",
                "--epochs", "3", "--pruned", trained_dir / "pruned_metrics.txt"]) == 0
    return out


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_model(edit):
    """A damage that edits the model.json of a model directory."""
    return lambda model_dir: _edit_json(model_dir / "model.json", edit)


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

    # checked on the config alone: a fit at an over-bound value is never started
    @pytest.mark.parametrize("name, high", [("trees", cli.MAX_TREES), ("hidden", cli.MAX_HIDDEN),
                                            ("epochs", cli.MAX_EPOCHS)])
    def test_size_bounds(self, name, high, tmp_path):
        assert getattr(cli.PipelineConfig(**{name: high}), name) == high
        message = f"{name} must be <= {high}, got {high + 1}"
        with pytest.raises(ConfigError, match=message):
            cli.PipelineConfig(**{name: high + 1})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: 10**30}))
        for argv in (["--" + name, str(high + 1)], ["--config", str(cfg)]):
            args = cli.build_parser().parse_args(["pipeline", *argv])
            with pytest.raises(ConfigError, match=f"{name} must be <= {high}"):
                cli.build_config(args)

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
        ("[" * 100000 + "]" * 100000, [], "nests too deeply to parse"),
        (None, ["--alpha", "nan"], "alpha must be finite and > 0, got nan"),
        (None, ["--alpha", "inf"], "alpha must be finite and > 0, got inf"),
        (None, ["--alpha", "0"], "alpha must be finite and > 0, got 0.0"),
        (None, ["--alpha", "-1"], "alpha must be finite and > 0, got -1.0"),
    ], ids=["bad-json", "str-for-int", "bool-for-float", "not-an-object",
            "unknown-predictor", "flag-not-int", "too-deep", "alpha-nan", "alpha-inf",
            "alpha-zero", "alpha-negative"])
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

    @pytest.mark.parametrize("kind, damage, message", [
        ("gpr", lambda d: (d / "model.json").unlink(), "cannot read"),
        ("gpr", lambda d: (d / "preprocess.json").unlink(), "cannot read"),
        ("gpr", lambda d: (d / "model.json").write_text(
            (d / "model.json").read_text().replace('"chol"', '"cholx"')), "'chol'"),
        ("gpr", lambda d: (d / "preprocess.json").write_text(
            (d / "preprocess.json").read_text().replace('"knob_names"', '"knobs"')),
         "'knob_names'"),
        ("gpr", lambda d: (d / "model.json").write_text("{"), "not valid JSON"),
        ("gpr", lambda d: (d / "model.json").write_text("[" * 100000 + "]" * 100000),
         "nests too deeply to parse"),
        ("gpr", _edit_model(lambda m: m.update(length_scale="a")),
         "length_scale must be a number"),
        # a std of 0 makes features inf or nan, which scipy refuses with a ValueError
        ("gpr", lambda d: _edit_json(d / "preprocess.json",
                                     lambda p: p["scaler_stds"].__setitem__(0, 0.0)),
         "every std must be finite and > 0"),
        # a non-finite or non-positive gpr or nn value would predict nan, raise
        # scipy's ValueError or overflow in the kernel
        ("gpr", _edit_model(lambda m: m["dual_coef"].__setitem__(0, math.nan)),
         "dual_coef holds nan: every value must be finite"),
        ("gpr", _edit_model(lambda m: m["x_train"][0].__setitem__(0, math.nan)),
         "x_train holds nan"),
        ("gpr", _edit_model(lambda m: m["chol"][0].__setitem__(0, math.inf)), "chol holds inf"),
        ("gpr", _edit_model(lambda m: m.update(y_mean=math.nan)), "y_mean holds nan"),
        ("gpr", _edit_model(lambda m: m.update(length_scale=1e308)),
         "length_scale 1e+308: the kernel's 2 * length_scale ** 2 overflows"),
        ("gpr", _edit_model(lambda m: m.update(length_scale=0.0)),
         "length_scale must be > 0, got 0.0"),
        ("gpr", _edit_model(lambda m: m.update(signal_variance=-1)),
         "signal_variance must be > 0, got -1.0"),
        ("gpr", _edit_model(lambda m: m.update(signal_variance=math.inf)),
         "signal_variance holds inf"),
        ("nn", _edit_model(lambda m: m["b2"].__setitem__(0, math.nan)), "b2 holds nan"),
        ("nn", _edit_model(lambda m: m["w1"][0].__setitem__(0, -math.inf)), "w1 holds -inf"),
        ("nn", _edit_model(lambda m: m["loss_trace"].__setitem__(0, math.nan)),
         "loss_trace holds nan"),
    ], ids=["no-model", "no-preprocess", "model-key", "preprocess-key", "model-bad-json",
            "model-too-deep", "length-scale-str", "std-zero", "dual-coef-nan", "x-train-nan",
            "chol-inf", "y-mean-nan", "length-scale-square-overflows", "length-scale-zero",
            "signal-variance-negative", "signal-variance-inf", "nn-b2-nan", "nn-w1-inf",
            "nn-loss-nan"])
    def test_bad_model_dir_exits_2(self, kind, damage, message, corpus_dir, request,
                                   tmp_path, capsys):
        model_dir = tmp_path / "model"
        trained = {"gpr": "trained_dir", "nn": "nn_trained_dir"}[kind]
        shutil.copytree(request.getfixturevalue(trained), model_dir)
        damage(model_dir)
        assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

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

    def test_predict_parses_only_its_group(self, corpus_dir, rf_trained_dir, tmp_path, capsys):
        # a nan latency on line 3 of one online_c file, which predictions for
        # online_b never read
        data = tmp_path / "data"
        shutil.copytree(corpus_dir.parent, data)
        c_file = data / "online_c_c_000.csv"
        lines = c_file.read_text().split("\n")
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        c_file.write_text("\n".join(lines))
        for manifest, out in ((corpus_dir, "intact"), (data / "manifest.json", "copy")):
            assert run(["predict", "--manifest", manifest, "--out", tmp_path / out,
                        "--model-dir", rf_trained_dir, "--group", "online_b"]) == 0
        assert ((tmp_path / "copy" / "predictions_rf.csv").read_bytes()
                == (tmp_path / "intact" / "predictions_rf.csv").read_bytes())
        capsys.readouterr()
        assert run(["predict", "--manifest", data / "manifest.json", "--out", tmp_path / "c",
                    "--model-dir", rf_trained_dir, "--group", "online_c"]) == 2
        assert capsys.readouterr().err == (
            f"error: {c_file}:3: column 'latency': non-finite value 'nan'\n")


@pytest.fixture(scope="module")
def rf_trained_dir(trained_dir, corpus_dir, tmp_path_factory):
    """train output of a small forest beside the shared pruned metrics."""
    out = tmp_path_factory.mktemp("rf_trained")
    assert run(["train", "--manifest", corpus_dir, "--out", out, "--predictor", "rf",
                "--trees", "3", "--depth", "4",
                "--pruned", trained_dir / "pruned_metrics.txt"]) == 0
    return out


def _set_root_feature(value):
    def edit(doc):
        assert doc["feature"][0] >= 0
        doc["feature"][0] = value
    return edit


def _relink(last, left, right):
    """Edit the children of the first split node (tree 0's root) or, if
    `last`, of the last one: left and right map the old (left, right) pair
    to the new left and right child."""
    def edit(doc):
        node = max(i for i, f in enumerate(doc["feature"]) if f >= 0) if last else 0
        assert doc["feature"][node] >= 0
        children = doc["left"][node], doc["right"][node]
        doc["left"][node], doc["right"][node] = left(*children), right(*children)
    return edit


# a forest in format 1, nested objects per tree
FORMAT_1_FOREST = {"kind": "rf", "n_trees": 1, "max_depth": 1, "seed": 0, "format_version": 1,
                   "trees": [{"feature": 0, "threshold": 0.5, "value": 2.0,
                              "left": {"value": 1.0}, "right": {"value": 3.0}}]}


class TestExitContract:
    @pytest.mark.parametrize("flags, message", [
        (["--trees", "0"], "trees must be >= 1"),
        (["--depth", "-1"], "depth >= 0"),
        (["--factor-cap", "0"], "factor_cap must be >= 1, got 0"),
        (["--hidden", "0"], "hidden must be >= 1, got 0"),
        (["--epochs", "-1"], "epochs must be >= 0, got -1"),
        (["--n-map", "0"], "n_map must be >= 1, got 0"),
        (["--seed=-1"], "seed must be >= 0, got -1"),
    ], ids=["zero-trees", "negative-depth", "zero-factor-cap", "zero-hidden",
            "negative-epochs", "zero-n-map", "negative-seed"])
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
        ("prune-csv-is-directory", "offline_off_000.csv: Is a directory"),
        ("prune-csv-not-utf8", "cannot decode"),
        ("eval-csv-is-directory", "predictions_x.csv: Is a directory"),
        ("eval-csv-not-utf8", "cannot decode"),
        ("prune-csv-huge-field", "offline_off_000.csv:8: field larger than field limit"),
        ("prune-manifest-knobs-int", "knobs must be list, got 3"),
        ("synth-spec-str-count", "'n_offline' must be int"),
        ("synth-negative-seed", "seed must be >= 0, got -1"),
        ("prune-long-manifest", "x.json: File name too long"),
        ("prune-manifest-nul-name", "off\\x00.csv': embedded null byte"),
        # refused before the generator allocates anything
        ("synth-spec-huge-count", f"synth spec asks for {(2 ** 70 + 2 * 8) * 6 * (3 + 12 + 2)} "
                                  f"cells, more than 10000000"),
        ("synth-spec-wide-latent", "synth spec asks for 25000000 cells, more than 10000000"),
    ])
    def test_unreadable_input_exits_2(self, command, message, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        missing = tmp_path / "missing.txt"
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_offline": "6"}')
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"n_offline": 2 ** 70}))
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"n_offline": 1, "n_online": 1, "rows_per_workload": 1,
                                    "n_latent": 5000, "n_knobs": 5000,
                                    "metrics_per_latent": 1}))
        knobs_int = tmp_path / "knobs_int.json"
        knobs_int.write_text(json.dumps({**json.loads(corpus_dir.read_text()), "knobs": 3}))
        nul_name = tmp_path / "nul_name.json"
        doc = json.loads(corpus_dir.read_text())
        doc["groups"]["offline"][0] = "off\u0000.csv"
        nul_name.write_text(json.dumps(doc))
        csv_damage = {
            "prune-csv-is-directory": lambda p: (p.unlink(), p.mkdir()),
            "prune-csv-not-utf8": lambda p: p.write_bytes(
                p.read_bytes() + b"off_000,\xff,1,1,1,1,1\n"),
            "prune-csv-huge-field": lambda p: p.write_text(
                p.read_text() + "off_000," + "9" * 131073 + "\n"),
        }
        data = tmp_path / "data"
        if command in csv_damage:
            shutil.copytree(corpus_dir.parent, data)
            csv_damage[command](data / "offline_off_000.csv")
        preds = tmp_path / "preds"
        preds.mkdir()
        if command == "eval-csv-is-directory":
            (preds / "predictions_x.csv").mkdir()
        if command == "eval-csv-not-utf8":
            (preds / "predictions_x.csv").write_bytes(
                b"workload_id,truth,prediction\n\xff,1,1\n")
        argv = {
            "prune-bad-manifest": ["prune", "--manifest", bad],
            "synth-bad-spec": ["synth", "--spec", bad],
            "map-missing-pruned": ["map", "--manifest", corpus_dir, "--pruned", missing],
            "train-missing-pruned": ["train", "--manifest", corpus_dir, "--pruned", missing],
            **{name: ["prune", "--manifest", data / "manifest.json"] for name in csv_damage},
            **{name: ["eval", "--predictions-dir", preds]
               for name in ("eval-csv-is-directory", "eval-csv-not-utf8")},
            "prune-manifest-knobs-int": ["prune", "--manifest", knobs_int],
            "prune-manifest-nul-name": ["prune", "--manifest", nul_name],
            "synth-spec-str-count": ["synth", "--spec", spec],
            "synth-spec-huge-count": ["synth", "--spec", huge],
            "synth-spec-wide-latent": ["synth", "--spec", wide],
            "synth-negative-seed": ["synth", "--seed", "-1"],
            "prune-long-manifest": ["prune", "--manifest", tmp_path / ("m" * 5000 + "x.json")],
        }[command]
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["under-file", "is-file"])
    @pytest.mark.parametrize("command", ["synth", "prune", "map", "train", "predict", "eval",
                                         "pipeline"])
    def test_unwritable_out_exits_2(self, command, where, corpus_dir, trained_dir, tmp_path,
                                    capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out" if where == "under-file" else tmp_path / "file"
        preds = tmp_path / "preds"
        preds.mkdir()
        (preds / "predictions_x.csv").write_text("workload_id,truth,prediction\na,1,1\n")
        pruned = trained_dir / "pruned_metrics.txt"
        argv = {
            "synth": ["synth"],
            "prune": ["prune", "--manifest", corpus_dir],
            "map": ["map", "--manifest", corpus_dir, "--pruned", pruned],
            "train": ["train", "--manifest", corpus_dir, "--pruned", pruned],
            "predict": ["predict", "--manifest", corpus_dir, "--model-dir", trained_dir],
            "eval": ["eval", "--predictions-dir", preds],
            "pipeline": ["pipeline", "--manifest", corpus_dir],
        }[command]
        assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}/") and err.count("\n") == 1
        assert err.endswith(": Not a directory\n")

    @pytest.mark.parametrize("case, message", [
        ("train-model-json-is-directory", "model.json: Is a directory"),
        ("eval-name-not-utf8", "summary.csv: surrogates not allowed"),
    ], ids=["train-model-json-is-directory", "eval-name-not-utf8"])
    def test_unwritable_file_exits_2(self, case, message, corpus_dir, trained_dir, tmp_path,
                                     capsys):
        out = tmp_path / "out"
        if case == "train-model-json-is-directory":
            (out / "model.json").mkdir(parents=True)
            argv = ["train", "--manifest", corpus_dir,
                    "--pruned", trained_dir / "pruned_metrics.txt"]
        else:
            # a file name's undecodable byte is a model name UTF-8 cannot write
            preds = tmp_path / "preds"
            preds.mkdir()
            (preds / os.fsdecode(b"predictions_\xff.csv")).write_text(
                "workload_id,truth,prediction\na,1,1\n")
            argv = ["eval", "--predictions-dir", preds]
        assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(message + "\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("file, edit, message", [
        ("model.json", _set_root_feature("3"), "feature must be a list of ints"),
        ("model.json", _set_root_feature(99), "splits on features -1..99, has 4 features"),
        ("model.json", _set_root_feature(-2), "splits on features -2.."),
        ("model.json", lambda d: d.update({k: [] for k in ("feature", "threshold", "left",
                                                           "right", "value")}),
         "n_trees is 3, but the forest has 0 nodes"),
        ("model.json", lambda d: d.update(n_trees=2), "node 2 has 0 parents"),
        ("model.json", lambda d: d.update(n_trees=len(d["feature"]) + 1),
         "but the forest has"),
        ("model.json", _relink(False, lambda l, r: 0, lambda l, r: r),
         "node 0: a split's children must come after it"),
        ("model.json", _relink(True, lambda l, r: l, lambda l, r: 0),
         "a split's children must come after it"),
        ("model.json", _relink(False, lambda l, r: l, lambda l, r: l), "has 2 parents"),
        ("model.json", lambda d: d.update(value=d["value"][:-1]), "node arrays of lengths"),
        ("model.json", lambda d: d["left"].__setitem__(0, True), "left must be a list of ints"),
        ("model.json", lambda d: (d.clear(), d.update(FORMAT_1_FOREST)),
         "unsupported model format version 1"),
        ("model.json", lambda d: d["threshold"].__setitem__(0, math.nan),
         "node 0 has threshold nan and value"),
        ("model.json", lambda d: d["value"].__setitem__(-1, math.nan), "and value nan: a"),
        ("model.json", lambda d: d["value"].__setitem__(-1, math.inf), "and value inf: a"),
        ("preprocess.json", lambda d: d.update(knob_names="3"), "knob_names must be list"),
        ("preprocess.json", lambda d: d.update(knob_names=[3]), "list of strings"),
        ("preprocess.json", lambda d: d.update(scaler_means=d["scaler_means"][:-1]),
         "means and"),
        ("preprocess.json", lambda d: d.update(scaler_stds=d["scaler_stds"] + [1.0]),
         "stds"),
        ("preprocess.json", lambda d: d.update(pruned_metrics=[]), "empty pruned metric set"),
        ("preprocess.json", lambda d: d.update(pruned_metrics=d["knob_names"][:1]
                                               + d["pruned_metrics"][1:]),
         "named twice"),
        ("preprocess.json", lambda d: d.update(scaler_means=["a"]), "list of numbers"),
        ("preprocess.json", lambda d: d["scaler_stds"].__setitem__(0, 0.0),
         "every std must be finite and > 0"),
        ("preprocess.json", lambda d: d["scaler_stds"].__setitem__(0, -1.0),
         "every std must be finite and > 0"),
        ("preprocess.json", lambda d: d["scaler_stds"].__setitem__(0, math.nan),
         "every std must be finite and > 0"),
        ("preprocess.json", lambda d: d["scaler_means"].__setitem__(0, math.inf),
         "every mean must be finite"),
    ], ids=["feature-str", "feature-past-width", "feature-negative", "no-trees",
            "n-trees-not-tree-count", "n-trees-past-nodes", "child-to-itself",
            "child-backward", "two-parents", "unequal-lengths", "left-bool", "format-1",
            "threshold-nan", "value-nan", "value-inf",
            "knob-names-str", "knob-names-not-strings", "means-short", "stds-long",
            "pruned-empty", "name-twice", "means-str", "std-zero", "std-negative",
            "std-nan", "mean-inf"])
    def test_malformed_model_dir_exits_2(self, file, edit, message, corpus_dir,
                                         rf_trained_dir, trained_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(rf_trained_dir, model_dir)
        _edit_json(model_dir / file, edit)
        assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("kind, flags, short, wide", [
        ("gpr", [], "query feature dimension mismatch", "query feature dimension mismatch"),
        ("rf", ["--trees", "20"], "rows have 4 features", "rows have 6 features"),
        ("nn", ["--epochs", "3"], "network takes 6 features, rows have 4",
         "network takes 4 features, rows have 6"),
    ], ids=["gpr", "rf", "nn"])
    def test_preprocess_of_another_train_exits_2(self, kind, flags, short, wide, corpus_dir,
                                                 tmp_path, capsys):
        # a model trained on 4 metrics beside the preprocess.json of a 2-metric
        # train, whose rows are 2 features short, and the other way round
        metrics = ["metric_g00_0", "metric_g00_1", "metric_g01_0", "metric_g01_1"]
        for name, n in (("wide", 4), ("narrow", 2)):
            (tmp_path / f"{name}.txt").write_text("".join(m + "\n" for m in metrics[:n]))
            assert run(["train", "--manifest", corpus_dir, "--out", tmp_path / name,
                        "--predictor", kind, *flags, "--pruned", tmp_path / f"{name}.txt"]) == 0
        for model, other, message in (("wide", "narrow", short), ("narrow", "wide", wide)):
            model_dir = tmp_path / f"{model}_model"
            shutil.copytree(tmp_path / model, model_dir)
            shutil.copy(tmp_path / other / "preprocess.json", model_dir)
            capsys.readouterr()
            assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                        "--model-dir", model_dir]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("case, message", [
        ("id", "online_b_b_000.csv:2: workload id 'b,000' holds a comma, quote or line break"),
        ("name", "column name 'knob,0' holds a comma, quote or line break"),
    ], ids=["id", "name"])
    def test_unwritable_id_or_name_exits_2(self, case, message, corpus_dir, tmp_path, capsys):
        # a quoted cell parses, but no table the pipeline writes could hold it
        data = tmp_path / "data"
        shutil.copytree(corpus_dir.parent, data)
        if case == "id":
            path = data / "online_b_b_000.csv"
            path.write_text(path.read_text().replace("\nb_000,", '\n"b,000",'))
        else:
            for path in data.glob("*.csv"):
                path.write_text(path.read_text().replace("knob_0", '"knob,0"', 1))
            manifest = data / "manifest.json"
            manifest.write_text(manifest.read_text().replace('"knob_0"', '"knob,0"'))
        out = tmp_path / "out"
        assert run(["pipeline", "--manifest", data / "manifest.json", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (out / "map_report.csv").exists()

    @pytest.mark.parametrize("case, flags, message", [
        ("k-min-past-metrics", ["--k-min", "5", "--k-max", "9"],
         "--k-min 5 exceeds the 4 metrics left to cluster"),
        ("duplicate-columns", ["--method", "gmm", "--k-max", "12"],
         "k-means left GMM component"),
    ], ids=["k-min-past-metrics", "duplicate-columns"])
    def test_cluster_range_data_error_exits_2(self, case, flags, message, tmp_path, capsys):
        if case == "k-min-past-metrics":
            spec = synth.SynthSpec(n_latent=2, metrics_per_latent=2, seed=3)
        else:
            spec = synth.SynthSpec(seed=3)
        manifest = synth.write_corpus(synth.generate_corpus(spec)[0], tmp_path / "corpus")
        if case == "duplicate-columns":
            # every metric a copy of metric 0 or metric 3: 12 loading rows, few distinct,
            # so k-means leaves a cluster empty before k reaches 12
            for path in manifest.parent.glob("*.csv"):
                rows = list(csv.reader(path.read_text().splitlines()))
                cols = [i for i, name in enumerate(rows[0]) if name.startswith("metric_")]
                for row in rows[1:]:
                    for j, c in enumerate(cols):
                        row[c] = row[cols[0] if j % 2 == 0 else cols[3]]
                path.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["prune", "--manifest", manifest, "--out", out, *flags]) == 2
        assert [w for w in caught if issubclass(w.category, (UserWarning, RuntimeWarning))] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (out / "cluster_report.csv").exists()


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

    @pytest.mark.parametrize("spec, flags, chosen_k, warns", [
        # 20 planted groups: at the default --k-max 15 silhouette is still rising
        (synth.SynthSpec(n_latent=20, seed=7), [], 15, True),
        # prune-wide's shape: 24 groups of 15 metrics, swept up to k = 30
        (synth.SynthSpec(n_offline=40, n_online=8, rows_per_workload=10, n_knobs=8,
                         n_latent=24, metrics_per_latent=15, seed=7),
         ["--k-max", "30"], 24, False),
    ], ids=["stops-at-k-max", "inside-range"])
    def test_warns_when_chosen_k_is_k_max(self, spec, flags, chosen_k, warns, tmp_path):
        manifest = synth.write_corpus(synth.generate_corpus(spec)[0], tmp_path / "corpus")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["prune", "--manifest", manifest, "--out", out, *flags]) == 0
        notices = [str(w.message) for w in caught if "largest candidate" in str(w.message)]
        assert notices == ([f"chosen k={chosen_k} is the largest candidate, so a larger k "
                            f"may score higher; raise --k-max to sweep further"] if warns else [])
        report = (out / "cluster_report.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in report if line.endswith(",1")] == [chosen_k]

    def test_notice_prints_as_warning_line(self, tmp_path):
        # a process of its own, so that the notice reaches stderr rather than
        # pytest's warning capture: its message alone, without the source line
        manifest = synth.write_corpus(synth.generate_corpus(synth.SynthSpec(seed=7))[0],
                                      tmp_path / "corpus")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-m", "dbtune.cli", "prune", "--manifest",
                               str(manifest), "--out", str(tmp_path / "out"), "--k-max", "3"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0
        assert done.stderr == ("warning: chosen k=3 is the largest candidate, so a larger k "
                               "may score higher; raise --k-max to sweep further\n")


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

    @pytest.mark.parametrize("flags", [[], ["--predictor", "rf", "--trees", "10"],
                                       ["--predictor", "nn", "--epochs", "30"]],
                             ids=["gpr", "rf", "nn"])
    def test_eval_rewrites_summary(self, flags, corpus_dir, tmp_path, capsys):
        out = tmp_path / "o"
        self._run(corpus_dir, out, flags)
        printed = capsys.readouterr().out
        assert run(["eval", "--predictions-dir", out, "--out", tmp_path / "e"]) == 0
        assert capsys.readouterr().out == printed
        for name in ("summary.csv", "summary.txt"):
            assert (tmp_path / "e" / name).read_bytes() == (out / name).read_bytes()

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

    @pytest.mark.parametrize("row, message", [
        ("w,-2.5,1", "negative truth -2.5"),
        ("w,nan,1", "column 'truth': non-finite value 'nan'"),
        ("w,2,inf", "column 'prediction': non-finite value 'inf'"),
    ], ids=["negative-truth", "nan-truth", "inf-prediction"])
    def test_bad_truth_or_prediction_is_data_error(self, row, message, tmp_path, capsys):
        pdir = tmp_path / "preds"
        pdir.mkdir()
        (pdir / "predictions_x.csv").write_text(
            f"workload_id,truth,prediction\nw,1,1\n{row}\n")
        assert run(["eval", "--predictions-dir", pdir, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: [eval/predictions_x.csv] x:3: {message}\n"

    def test_unwritable_model_name_is_data_error(self, tmp_path, capsys):
        # the name from predictions_<name>.csv is a cell of summary.csv
        pdir = tmp_path / "preds"
        pdir.mkdir()
        (pdir / "predictions_a,b.csv").write_text(
            evaluate.EvalReport("a,b", (("w", 100.0, 110.0),)).predictions_csv())
        assert run(["eval", "--predictions-dir", pdir, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == ("error: [eval/predictions_a,b.csv] model name "
                                           "'a,b' holds a comma, quote or line break\n")
        assert not (tmp_path / "out").exists()


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

    def test_mlp_kind_is_unknown(self, corpus_dir, trained_dir, tmp_path, capsys):
        # the network's kind is its --predictor name, nn
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        _edit_json(model_dir / "model.json", lambda d: d.update(kind="mlp"))
        assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        assert capsys.readouterr().err == "error: unknown model kind 'mlp'\n"

    def test_reloaded_preprocessing_matches_in_process_path(self, corpus_dir, trained_dir,
                                                            tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["predict", "--manifest", corpus_dir, "--out", out,
                    "--model-dir", trained_dir, "--group", "online_c"]) == 0
        capsys.readouterr()
        corpus, _ = ingest.drop_constant_columns(ingest.load_corpus_from_manifest(corpus_dir))
        pruned = cli._read_pruned(trained_dir / "pruned_metrics.txt")
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema, pruned)
        loaded = predict.StandardScaler.load(trained_dir / "preprocess.json")
        assert loaded.means.tobytes() == scaler.means.tobytes()
        assert loaded.stds.tobytes() == scaler.stds.tobytes()
        assert loaded.knob_names == scaler.knob_names == corpus.schema.knob_names
        assert loaded.constant_features == scaler.constant_features
        assert loaded.metric_names == pruned == tuple(
            (trained_dir / "pruned_metrics.txt").read_text().split())

        feats = np.vstack([predict.build_features(t, scaler) for t in corpus.offline])
        model = predict.gpr_fit(feats, np.concatenate([t.latency for t in corpus.offline]),
                                1e-4)
        expected = [(t.workload_id, float(y), float(p)) for t in corpus.online_c
                    for y, p in zip(t.latency, predict.predict_with(
                        model, predict.build_features(t, scaler)))]
        got = evaluate.parse_predictions_csv(
            (out / "predictions_gpr.csv").read_text(), "gpr").per_point
        assert got == tuple(expected)


def _corpus_copy(manifest, dest, constant=(), drop_knob=None):
    """A copy of the corpus with each `constant` column set to 1.5 in every
    file, and `drop_knob` left out of the manifest."""
    shutil.copytree(manifest.parent, dest)
    for path in dest.glob("*.csv"):
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        for name in constant:
            j = rows[0].index(name)
            for row in rows[1:]:
                row[j] = "1.5"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    if drop_knob:
        _edit_json(dest / "manifest.json", lambda d: d["knobs"].remove(drop_knob))
    return dest / "manifest.json"


class TestCrossCorpusPredict:
    """A model trained on one corpus predicts on another: the columns are
    picked by name, whatever the other corpus holds constant."""

    PRUNED = ("metric_g01_1", "metric_g00_1")

    @pytest.fixture(scope="class")
    def model_dir(self, corpus_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("cross")
        train = _corpus_copy(corpus_dir, root / "a", constant=["metric_g00_0"])
        (root / "pruned.txt").write_text("".join(n + "\n" for n in self.PRUNED))
        assert run(["train", "--manifest", train, "--out", root / "model",
                    "--pruned", root / "pruned.txt", "--alpha", "1e-4"]) == 0
        assert (root / "model" / "dropped_columns.txt").read_text() == "metric_g00_0\n"
        return root / "model"

    @pytest.mark.parametrize("group", ["online_b", "online_c"])
    def test_predictions_equal_those_on_the_training_corpus(self, corpus_dir, model_dir,
                                                            group, tmp_path, capsys):
        corpora = {
            "train": model_dir.parent / "a" / "manifest.json",
            "none-constant": corpus_dir,
            "other-constant": _corpus_copy(corpus_dir, tmp_path / "c",
                                           constant=["metric_g01_0"]),
        }
        predictions = {}
        for name, manifest in corpora.items():
            assert run(["predict", "--manifest", manifest, "--out", tmp_path / name,
                        "--model-dir", model_dir, "--group", group]) == 0
            predictions[name] = (tmp_path / name / "predictions_gpr.csv").read_text()
        capsys.readouterr()
        assert predictions["none-constant"] == predictions["train"]
        assert predictions["other-constant"] == predictions["train"]

    def test_corpus_missing_a_model_knob_exits_2(self, corpus_dir, model_dir, tmp_path,
                                                 capsys):
        manifest = _corpus_copy(corpus_dir, tmp_path / "d", drop_knob="knob_1")
        assert run(["predict", "--manifest", manifest, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        assert capsys.readouterr().err == "error: knob 'knob_1' not in schema\n"

    def test_pruned_name_twice_exits_2(self, corpus_dir, tmp_path, capsys):
        pruned = tmp_path / "p.txt"
        pruned.write_text("metric_g00_0\nmetric_g00_0\n")
        assert run(["map", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--pruned", pruned]) == 2
        assert capsys.readouterr().err == "error: feature 'metric_g00_0' named twice\n"

    def test_pruned_lines_end_as_csv_lines(self, tmp_path):
        # only \r, \n and \r\n end a line; str.splitlines would also split at \x1c
        pruned = tmp_path / "p.txt"
        pruned.write_bytes("a\x1cb\r\nc\rd\n\n".encode())
        assert cli._read_pruned(pruned) == ("a\x1cb", "c", "d")


class TestPrunedMetricConstantInCorpus:
    """A --pruned metric that the corpus holds constant was dropped at ingest;
    map and train name that cause, not a missing column."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("constant_pruned")
        assert run(["synth", "--out", root / "c", "--seed", "3"]) == 0
        assert run(["prune", "--manifest", root / "c" / "manifest.json",
                    "--out", root / "p"]) == 0
        pruned = root / "p" / "pruned_metrics.txt"
        assert "metric_g00_1" in pruned.read_text().split()
        return _corpus_copy(root / "c" / "manifest.json", root / "k",
                            constant=["metric_g00_1"]), pruned

    @pytest.mark.parametrize("command", ["train", "map"])
    def test_exits_2_naming_the_cause(self, setup, command, tmp_path, capsys):
        manifest, pruned = setup
        capsys.readouterr()
        assert run([command, "--manifest", manifest, "--out", tmp_path,
                    "--pruned", pruned]) == 2
        assert capsys.readouterr().err == (
            "error: metric 'metric_g00_1' is constant in the corpus and was dropped "
            "(see dropped_columns.txt)\n")
        assert (tmp_path / "dropped_columns.txt").read_text() == "metric_g00_1\n"


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
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema, pruned)
        table = min(corpus.online_b, key=lambda t: t.workload_id)
        map_part, val_part = ingest.split_map_validation(table, config.n_map)
        res = mapping.map_and_augment(list(corpus.offline), map_part, scaler, config.map_score)
        feats = predict.build_features(res.augmented, scaler)
        model = predict.gpr_fit(feats, res.augmented.latency, config.alpha)
        pred = predict.predict_with(model, predict.build_features(val_part, scaler))

        wid, truth_val, pipe_pred = next(
            p for p in stage1.per_point if p[0] == table.workload_id)
        assert truth_val == float(val_part.latency[0])
        assert pipe_pred == pytest.approx(float(pred[0]), abs=1e-12)

    def test_workload_seed_formula(self):
        assert cli._workload_seed(5, "b_000") == 5 + zlib.crc32(b"b_000") % 100000
