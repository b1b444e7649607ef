import base64
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dbtune import cli, evaluate, ingest, mapping, predict, synth
from dbtune.errors import ConfigError

from conftest import arrays, decode_arrays


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


# the keys of the feature scaler in model.json, beside the model's own
SCALER_KEYS = ("knob_names", "pruned_metrics", "scaler_means", "scaler_stds",
               "constant_features")


# a value for every PipelineConfig field, none of them its default
NON_DEFAULT = dict(manifest="m.json", method="gmm", k_min=3, k_max=9, predictor="nn",
                   alpha=0.25, trees=7, depth=5, epochs=3, seed=11, out="elsewhere")


class TestConfig:
    def test_defaults_valid(self):
        cli.PipelineConfig()

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            cli.PipelineConfig(method="spectral")

    def test_bad_k_range(self):
        with pytest.raises(ConfigError):
            cli.PipelineConfig(k_min=5, k_max=4)

    def test_every_field_round_trips(self):
        assert set(NON_DEFAULT) == {f.name for f in fields(cli.PipelineConfig)}
        default = cli.PipelineConfig()
        assert all(getattr(default, k) != v for k, v in NON_DEFAULT.items())
        argv = [a for k, v in NON_DEFAULT.items() for a in ("--" + k.replace("_", "-"), str(v))]
        args = cli.build_parser().parse_args(["pipeline", *argv])
        assert cli.build_config(args) == cli.PipelineConfig(**NON_DEFAULT)

    # checked on the config alone: a fit at an over-bound value is never started
    @pytest.mark.parametrize("name, high", [("trees", cli.MAX_TREES), ("epochs", cli.MAX_EPOCHS)])
    def test_size_bounds(self, name, high):
        assert getattr(cli.PipelineConfig(**{name: high}), name) == high
        message = f"{name} must be <= {high}, got {high + 1}"
        with pytest.raises(ConfigError, match=message):
            cli.PipelineConfig(**{name: high + 1})
        args = cli.build_parser().parse_args(["pipeline", "--" + name, str(high + 1)])
        with pytest.raises(ConfigError, match=message):
            cli.build_config(args)


class TestExitCodes:
    def test_missing_manifest_flag_is_config_error(self, capsys):
        assert run(["pipeline"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_file_is_data_error(self, tmp_path, capsys):
        assert run(["pipeline", "--manifest", tmp_path / "nope.json",
                    "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--predictor", "xx"], "predictor must be one of"),
        (["--k-min", "a"], "invalid int value"),
        (["--alpha", "nan"], "alpha must be finite and > 0, got nan"),
        (["--alpha", "inf"], "alpha must be finite and > 0, got inf"),
        (["--alpha", "0"], "alpha must be finite and > 0, got 0.0"),
        (["--alpha", "-1"], "alpha must be finite and > 0, got -1.0"),
    ], ids=["unknown-predictor", "flag-not-int", "alpha-nan", "alpha-inf", "alpha-zero",
            "alpha-negative"])
    def test_bad_config_exits_1(self, flags, message, corpus_dir, tmp_path, capsys):
        assert run(["pipeline", "--manifest", corpus_dir, "--out", tmp_path / "out", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, damage, message", [
        ("gpr", lambda d: (d / "model.json").unlink(), "cannot read"),
        ("gpr", _edit_model(lambda m: [m.pop(key) for key in SCALER_KEYS]), "'knob_names'"),
        ("gpr", lambda d: (d / "model.json").write_text(
            (d / "model.json").read_text().replace('"dual_coef"', '"dual_coefx"')),
         "'dual_coef'"),
        ("gpr", lambda d: (d / "model.json").write_text(
            (d / "model.json").read_text().replace('"knob_names"', '"knobs"')),
         "'knob_names'"),
        ("gpr", lambda d: (d / "model.json").write_text("{"), "not valid JSON"),
        ("gpr", lambda d: (d / "model.json").write_text("[" * 100000 + "]" * 100000),
         "nests too deeply to parse"),
        ("gpr", _edit_model(lambda m: m.update(length_scale="a")),
         "length_scale must be a number"),
        # a std of 0 makes features inf or nan, which scipy refuses with a ValueError
        ("gpr", _edit_model(arrays(lambda m: m["scaler_stds"].__setitem__(0, 0.0))),
         "every std must be finite and > 0"),
        # a non-finite or non-positive gpr or nn value would predict nan, raise
        # scipy's ValueError or overflow in the kernel
        ("gpr", _edit_model(arrays(lambda m: m["dual_coef"].__setitem__(0, math.nan))),
         "dual_coef holds nan: every value must be finite"),
        ("gpr", _edit_model(arrays(lambda m: m["x_train"][0].__setitem__(0, math.nan))),
         "x_train holds nan"),
        ("gpr", _edit_model(arrays(lambda m: m["x_train"][0].__setitem__(0, math.inf))),
         "x_train holds inf"),
        ("gpr", _edit_model(lambda m: m.update(y_mean=math.nan)), "y_mean holds nan"),
        ("gpr", _edit_model(lambda m: m.update(length_scale=1e308)),
         "length_scale 1e+308: the kernel's 2 * length_scale ** 2 overflows"),
        ("gpr", _edit_model(lambda m: m.update(length_scale=0.0)),
         "length_scale must be > 0, got 0.0"),
        ("gpr", _edit_model(lambda m: m.update(signal_variance=-1)),
         "signal_variance must be > 0, got -1.0"),
        ("gpr", _edit_model(lambda m: m.update(signal_variance=math.inf)),
         "signal_variance holds inf"),
        ("nn", _edit_model(arrays(lambda m: m["b2"].__setitem__(0, math.nan))),
         "b2 holds nan"),
        ("nn", _edit_model(arrays(lambda m: m["w1"][0].__setitem__(0, -math.inf))),
         "w1 holds -inf"),
        ("nn", _edit_model(arrays(lambda m: m["loss_trace"].__setitem__(0, math.nan))),
         "loss_trace holds nan"),
    ], ids=["no-model", "no-scaler", "model-key", "scaler-key", "model-bad-json",
            "model-too-deep", "length-scale-str", "std-zero", "dual-coef-nan", "x-train-nan",
            "x-train-inf", "y-mean-nan", "length-scale-square-overflows", "length-scale-zero",
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
    @arrays
    def edit(doc):
        assert doc["feature"][0] >= 0
        doc["feature"][0] = value
    return edit


def _relink(last, left, right):
    """Edit the children of the first split node (tree 0's root) or, if
    `last`, of the last one: left and right map the old (left, right) pair
    to the new left and right child."""
    @arrays
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


_TRAINED = {"gpr": "trained_dir", "rf": "rf_trained_dir", "nn": "nn_trained_dir"}

# one damage each to a packed model.json array: (packed object, decoded
# array) -> what the file holds in its place
_MUTATIONS = {
    "b64-bad-char": lambda p, a: {**p, "data": "*" + p["data"][1:]},
    "b64-drop-1": lambda p, a: {**p, "data": p["data"][:-1]},
    "b64-drop-4": lambda p, a: {**p, "data": p["data"][4:]},
    "dtype-swapped": lambda p, a: {**p, "dtype": {"<f8": "<i4", "<i4": "<f8"}[p["dtype"]]},
    "dtype-big-endian": lambda p, a: {**p, "dtype": ">" + p["dtype"][1:]},
    "shape-first-plus-1": lambda p, a: {**p, "shape": [p["shape"][0] + 1, *p["shape"][1:]]},
    "shape-last-minus-1": lambda p, a: {**p, "shape": [*p["shape"][:-1], p["shape"][-1] - 1]},
    "shape-extra-dim": lambda p, a: {**p, "shape": [*p["shape"], 1]},
    "dim-negative": lambda p, a: {**p, "shape": [-1, *p["shape"][1:]]},
    # a 2-d shape negated keeps its product, so the byte count does not refuse it
    "dims-negated": lambda p, a: {**p, "shape": [-n for n in p["shape"]]},
    # b2's shape [1] as [true] passes every check but the type of a dimension
    "dim-bool": lambda p, a: {**p, "shape": [True] * len(p["shape"])},
    "data-not-str": lambda p, a: {**p, "data": list(base64.b64decode(p["data"]))},
    "data-missing": lambda p, a: {k: v for k, v in p.items() if k != "data"},
    "json-list": lambda p, a: a.tolist(),
}


def _flip_byte(doc, key, byte):
    """XOR 0x40 into one byte of the packed array doc[key]; its base64 stays valid."""
    raw = bytearray(base64.b64decode(doc[key]["data"]))
    raw[byte] ^= 0x40
    doc[key]["data"] = base64.b64encode(raw).decode()


def _predictions_finite(path) -> bool:
    rows = list(csv.DictReader(path.read_text().splitlines()))
    return bool(rows) and all(math.isfinite(float(r["prediction"])) for r in rows)


class TestExitContract:
    @pytest.mark.parametrize("flags, message", [
        (["--trees", "0"], "trees must be >= 1"),
        (["--depth", "-1"], "depth >= 0"),
        (["--epochs", "-1"], "epochs must be >= 0, got -1"),
        (["--seed=-1"], "seed must be >= 0, got -1"),
        (["--map-score", "mape"], "unrecognized arguments"),
        # the factor cap, the network's width and the mapping rows are constants
        (["--factor-cap", "4"], "unrecognized arguments"),
        (["--hidden", "8"], "unrecognized arguments"),
        (["--n-map", "5"], "unrecognized arguments"),
        (["--config", "c.json"], "unrecognized arguments"),
    ], ids=["zero-trees", "negative-depth", "negative-epochs", "negative-seed", "score-flag",
            "factor-cap-flag", "hidden-flag", "n-map-flag", "config-flag"])
    def test_bad_forest_config_exits_1(self, flags, message, corpus_dir, tmp_path, capsys):
        assert run(["pipeline", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--predictor", "rf", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    # every command that takes the pipeline's settings refused the removed
    # options before it read an input
    @pytest.mark.parametrize("argv", [["prune"], ["map", "--pruned", "p.txt"],
                                      ["train", "--pruned", "p.txt"],
                                      ["predict", "--model-dir", "m"],
                                      ["eval", "--predictions-dir", "d"], ["pipeline"]],
                             ids=["prune", "map", "train", "predict", "eval", "pipeline"])
    def test_removed_options_exit_1(self, argv, tmp_path, capsys):
        for flags in (["--factor-cap", "4"], ["--hidden", "8"], ["--n-map", "5"],
                      ["--config", "c.json"]):
            assert run([*argv, "--out", tmp_path / "out", *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "unrecognized arguments: " + " ".join(flags) in err
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
        ("synth-spec-bool-for-float", "'noise_std' must be float, got True"),
        ("synth-spec-not-object", "must hold a JSON object"),
        ("synth-spec-too-deep", "nests too deeply to parse"),
        ("prune-manifest-too-deep", "nests too deeply to parse"),
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
        bool_float = tmp_path / "bool_float.json"
        bool_float.write_text('{"noise_std": true}')
        not_object = tmp_path / "not_object.json"
        not_object.write_text('[["n_offline", 3]]')
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
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
            "synth-spec-bool-for-float": ["synth", "--spec", bool_float],
            "synth-spec-not-object": ["synth", "--spec", not_object],
            "synth-spec-too-deep": ["synth", "--spec", deep],
            "prune-manifest-too-deep": ["prune", "--manifest", deep],
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

    @pytest.mark.parametrize("edit, message", [
        (arrays(lambda d: d.update(feature=d["feature"].astype(float))),
         "feature must have dtype '<i4', got '<f8'"),
        (_set_root_feature(99), "splits on features -1..99, has 4 features"),
        (_set_root_feature(-2), "splits on features -2.."),
        (arrays(lambda d: d.update({k: d[k][:0] for k in (
            "feature", "threshold", "left", "right", "value")})),
         "n_trees is 3, but the forest has 0 nodes"),
        (lambda d: d.update(n_trees=2), "node 2 has 0 parents"),
        (arrays(lambda d: d.update(n_trees=len(d["feature"]) + 1)),
         "but the forest has"),
        (_relink(False, lambda l, r: 0, lambda l, r: r),
         "node 0: a split's children must come after it"),
        (_relink(True, lambda l, r: l, lambda l, r: 0),
         "a split's children must come after it"),
        (_relink(False, lambda l, r: l, lambda l, r: l), "has 2 parents"),
        (arrays(lambda d: d.update(value=d["value"][:-1])),
         "node arrays of lengths"),
        (lambda d: d["left"].update(data=True),
         "left data must be a base64 string, got bool"),
        (lambda d: (d.clear(), d.update(FORMAT_1_FOREST)),
         "unsupported model format version 1"),
        (lambda d: d.update(format_version=2), "unsupported model format version 2"),
        (lambda d: d.update(format_version=3), "unsupported model format version 3"),
        (arrays(lambda d: d["threshold"].__setitem__(0, math.nan)),
         "node 0 has threshold nan and value"),
        (arrays(lambda d: d["value"].__setitem__(-1, math.nan)),
         "and value nan: a"),
        (arrays(lambda d: d["value"].__setitem__(-1, math.inf)),
         "and value inf: a"),
        (lambda d: d.update(knob_names="3"), "knob_names must be list"),
        (lambda d: d.update(knob_names=[3]), "list of strings"),
        (arrays(lambda d: d.update(scaler_means=d["scaler_means"][:-1])), "means and"),
        (arrays(lambda d: d.update(scaler_stds=np.append(d["scaler_stds"], 1.0))), "stds"),
        (lambda d: d.update(pruned_metrics=[]), "empty pruned metric set"),
        (lambda d: d.update(pruned_metrics=d["knob_names"][:1] + d["pruned_metrics"][1:]),
         "named twice"),
        (arrays(lambda d: d.update(scaler_means=d["scaler_means"].astype("<i4"))),
         "scaler_means must have dtype '<f8', got '<i4'"),
        (arrays(lambda d: d["scaler_stds"].__setitem__(0, 0.0)),
         "every std must be finite and > 0"),
        (arrays(lambda d: d["scaler_stds"].__setitem__(0, -1.0)),
         "every std must be finite and > 0"),
        (arrays(lambda d: d["scaler_stds"].__setitem__(0, math.nan)),
         "every std must be finite and > 0"),
        (arrays(lambda d: d["scaler_means"].__setitem__(0, math.inf)),
         "every mean must be finite"),
    ], ids=["feature-str", "feature-past-width", "feature-negative", "no-trees",
            "n-trees-not-tree-count", "n-trees-past-nodes", "child-to-itself",
            "child-backward", "two-parents", "unequal-lengths", "left-bool", "format-1",
            "format-2", "format-3", "threshold-nan", "value-nan", "value-inf",
            "knob-names-str", "knob-names-not-strings", "means-short", "stds-long",
            "pruned-empty", "name-twice", "means-str", "std-zero", "std-negative",
            "std-nan", "mean-inf"])
    def test_malformed_model_dir_exits_2(self, edit, message, corpus_dir, rf_trained_dir,
                                         tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(rf_trained_dir, model_dir)
        _edit_json(model_dir / "model.json", edit)
        assert run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                    "--model-dir", model_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("mutation", list(_MUTATIONS))
    @pytest.mark.parametrize("kind, key", [("gpr", "x_train"), ("gpr", "dual_coef"),
                                           ("gpr", "scaler_stds"), ("rf", "left"),
                                           ("rf", "threshold"), ("rf", "scaler_means"),
                                           ("nn", "w1"), ("nn", "b2")])
    def test_packed_array_mutation_exits_2(self, kind, key, mutation, corpus_dir, request,
                                           tmp_path, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(_TRAINED[kind]), model_dir)
        _edit_json(model_dir / "model.json", lambda d: d.update(
            {key: _MUTATIONS[mutation](d[key], decode_arrays(d)[key])}))
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # a warning is shown; it does not raise
            code = run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                        "--model-dir", model_dir])
        err = capsys.readouterr().err
        if code == 0:
            assert _predictions_finite(tmp_path / "out" / f"predictions_{kind}.csv")
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)

    @pytest.mark.parametrize("byte", [0, 3, 7, -1])
    @pytest.mark.parametrize("kind, key", [("gpr", "x_train"), ("gpr", "dual_coef"),
                                           ("gpr", "scaler_stds"), ("rf", "left"),
                                           ("rf", "threshold"), ("rf", "scaler_means"),
                                           ("nn", "w1"), ("nn", "b2")])
    def test_flipped_byte_exits_0_with_finite_predictions_or_refused(
            self, kind, key, byte, corpus_dir, request, tmp_path, capsys):
        # the base64 stays valid, so only the checks on the values can refuse
        # it: a value the loader refuses exits 2, a prediction that overflows 3
        model_dir = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(_TRAINED[kind]), model_dir)
        _edit_json(model_dir / "model.json", lambda doc: _flip_byte(doc, key, byte))
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code = run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                        "--model-dir", model_dir])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        if code == 0:
            assert _predictions_finite(tmp_path / "out" / f"predictions_{kind}.csv")
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, key, byte", [("gpr", "scaler_stds", -1),
                                                 ("rf", "scaler_means", 7)])
    def test_scaler_value_scaling_features_past_float_range_exits_2(
            self, kind, key, byte, corpus_dir, request, tmp_path, capsys):
        # the flip turns the last std, 2.70, into 7.8e-309 and the first
        # mean, 0.43, into 7.7e307: finite, so the loader keeps them, and the
        # features they scale overflow to inf
        model_dir = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(_TRAINED[kind]), model_dir)
        _edit_json(model_dir / "model.json", lambda doc: _flip_byte(doc, key, byte))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["predict", "--manifest", corpus_dir, "--out", tmp_path / "out",
                        "--model-dir", model_dir])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
        assert "scales to" in err and not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("kind, flags, short, wide", [
        ("gpr", [], "query feature dimension mismatch", "query feature dimension mismatch"),
        ("rf", ["--trees", "20"], "rows have 4 features", "rows have 6 features"),
        ("nn", ["--epochs", "3"], "network takes 6 features, rows have 4",
         "network takes 4 features, rows have 6"),
    ], ids=["gpr", "rf", "nn"])
    def test_scaler_of_another_train_exits_2(self, kind, flags, short, wide, corpus_dir,
                                             tmp_path, capsys):
        # a model trained on 4 metrics with the scaler keys of a 2-metric
        # train, whose rows are 2 features short, and the other way round
        metrics = ["metric_g00_0", "metric_g00_1", "metric_g01_0", "metric_g01_1"]
        for name, n in (("wide", 4), ("narrow", 2)):
            (tmp_path / f"{name}.txt").write_text("".join(m + "\n" for m in metrics[:n]))
            assert run(["train", "--manifest", corpus_dir, "--out", tmp_path / name,
                        "--predictor", kind, *flags, "--pruned", tmp_path / f"{name}.txt"]) == 0
        for model, other, message in (("wide", "narrow", short), ("narrow", "wide", wide)):
            model_dir = tmp_path / f"{model}_model"
            shutil.copytree(tmp_path / model, model_dir)
            scaler = json.loads((tmp_path / other / "model.json").read_text())
            _edit_json(model_dir / "model.json",
                       lambda d: d.update({key: scaler[key] for key in SCALER_KEYS}))
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


def _set_cell(path, line, column, value):
    """Rewrite one cell of a corpus CSV (`line` 0 is the header); None drops it."""
    lines = path.read_text().split("\n")
    cells = lines[line].split(",")
    if value is None:
        del cells[column]
    else:
        cells[column] = value
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines))


def _run_quiet(argv, capsys):
    """(exit code, stderr, warnings raised) of one in-process command."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def seed3_pruned(tmp_path_factory):
    """The `synth --seed 3` corpus and its pruned metric file."""
    root = tmp_path_factory.mktemp("seed3")
    assert run(["synth", "--out", root / "c", "--seed", "3"]) == 0
    assert run(["prune", "--manifest", root / "c" / "manifest.json", "--out", root / "p"]) == 0
    return root / "c", root / "p" / "pruned_metrics.txt"


class TestMapCommand:
    # metric_g00_1 is pruned from the seed-3 corpus, and its offline std is
    # below 1: 1.7e308 scales past the float range, 1e200 scales to a finite
    # value whose squared distance to every source overflows; so does the
    # squared knob distance of a row whose knob_0 is +-1e200
    @pytest.mark.parametrize("command, column, value, code, message", [
        ("map", "metric_g00_1", "1.7e308", 2,
         "workload b_000: feature 'metric_g00_1' of row 0 scales to inf"),
        ("map", "metric_g00_1", "1e200", 3,
         "target b_000: its score against source off_000 is inf"),
        ("pipeline", "metric_g00_1", "1e200", 3,
         "[stage1/b_000] target b_000: its score against source off_000 is inf"),
        ("map", "knob_0", "1e200", 3,
         "target b_000: the knob distance of its row 0 to a source row is inf"),
        ("pipeline", "knob_0", "-1e200", 3,
         "[stage1/b_000] target b_000: the knob distance of its row 0 to a source row is inf"),
    ], ids=["map-overflow", "map-score", "pipeline-score", "map-knob", "pipeline-knob"])
    def test_online_value_past_float_range_refused(self, command, column, value, code, message,
                                                   seed3_pruned, tmp_path, capsys):
        corpus, pruned = seed3_pruned
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        path = data / "online_b_b_000.csv"
        header = path.read_text().split("\n")[0].split(",")
        _set_cell(path, 1, header.index(column), value)
        argv = [command, "--manifest", data / "manifest.json", "--out", tmp_path / "out"]
        got, err, caught = _run_quiet(argv + (["--pruned", pruned] if command == "map" else []),
                                      capsys)
        assert (got, err, caught) == (code, f"error: {message}\n", [])
        assert not (tmp_path / "out" / "map_report.csv").exists()


# what one cell of an online CSV becomes: a value, a dropped cell (None) or
# two cells ("1,1")
_CELL_VALUES = ["", "nan", "inf", "1e309", "1e200", "-1e200", "1.7e308", "true", "abc",
                None, "1,1"]
_ONLINE_FILES = ["online_b_b_000.csv", "online_b_b_001.csv", "online_c_c_000.csv",
                 "online_c_c_001.csv"]


@pytest.fixture(scope="module")
def map_pruned(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("map_pruned")
    assert run(["prune", "--manifest", corpus_dir, "--out", out]) == 0
    return out / "pruned_metrics.txt"


class TestMapMutations:
    """`map` on a corpus with one online cell changed: an exit code of the
    contract, nothing escapes, one error line, and only finite scores."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.sampled_from(_CELL_VALUES), name=st.sampled_from(_ONLINE_FILES),
           line=st.integers(0, 6), column=st.integers(0, 7))
    # metric_g01_0 (column 5) is pruned: its score overflows, or its feature does
    @example(value="1e200", name="online_b_b_000.csv", line=1, column=5)
    @example(value="1.7e308", name="online_b_b_000.csv", line=1, column=5)
    def test_exit_contract(self, value, name, line, column, corpus_dir, map_pruned,
                           tmp_path_factory, capsys):
        data = tmp_path_factory.mktemp("mutated")
        shutil.copytree(corpus_dir.parent, data, dirs_exist_ok=True)
        _set_cell(data / name, line, column, value)
        code, err, caught = _run_quiet(["map", "--manifest", data / "manifest.json",
                                        "--out", data / "out", "--pruned", map_pruned], capsys)
        assert code in (0, 1, 2, 3) and not caught, (code, err, caught)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            rows = list(csv.DictReader((data / "out" / "map_report.csv").read_text().splitlines()))
            assert rows and all(math.isfinite(float(r["score"])) for r in rows)


_OFFLINE_FILES = [f"offline_off_{i:03d}.csv" for i in range(6)]


class TestOfflineMutations:
    """`prune`, `train` and `map` on a corpus with one offline cell changed:
    an exit code of the contract, nothing escapes, one error line and no
    warning."""

    @pytest.mark.parametrize("command", ["prune", "train", "map"])
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.sampled_from(_CELL_VALUES), name=st.sampled_from(_OFFLINE_FILES),
           line=st.integers(0, 6), column=st.integers(0, 7))
    # metric_g01_0 (column 5) is pruned: its offline std overflows
    @example(value="1e200", name="offline_off_000.csv", line=1, column=5)
    def test_exit_contract(self, command, value, name, line, column, corpus_dir, map_pruned,
                           tmp_path_factory, capsys):
        data = tmp_path_factory.mktemp("mutated")
        shutil.copytree(corpus_dir.parent, data, dirs_exist_ok=True)
        _set_cell(data / name, line, column, value)
        pruned = [] if command == "prune" else ["--pruned", map_pruned]
        code, err, caught = _run_quiet([command, "--manifest", data / "manifest.json",
                                        "--out", data / "out", *pruned], capsys)
        assert code in (0, 1, 2, 3) and not caught, (code, err, caught)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err

    # prune and pipeline standardize the metrics in their factors stage
    @pytest.mark.parametrize("command, stage", [
        ("prune", "[factors] "), ("pipeline", "[factors] "), ("train", ""), ("map", "")])
    def test_overflowing_statistics_refused(self, command, stage, corpus_dir, map_pruned,
                                            tmp_path, capsys):
        shutil.copytree(corpus_dir.parent, tmp_path / "data")
        _set_cell(tmp_path / "data" / "offline_off_000.csv", 1, 5, "1e200")
        pruned = ["--pruned", map_pruned] if command in ("train", "map") else []
        code, err, caught = _run_quiet([command, "--manifest", tmp_path / "data" / "manifest.json",
                                        "--out", tmp_path / "out", *pruned], capsys)
        assert (code, caught) == (3, [])
        assert re.fullmatch(rf"error: {re.escape(stage)}column 'metric_g01_0' overflows: "
                            r"mean \S+e\+198, std inf\n", err), err


class TestOnlineMutations:
    """`pipeline` on a corpus with one online cell changed, the held-out row
    (line 6) included: an exit code of the contract, nothing escapes, one
    error line, no warning, and only finite predictions."""

    @pytest.mark.parametrize("flags", [["--method", "gmm"],
                                       ["--predictor", "rf", "--trees", "10"],
                                       ["--predictor", "nn", "--epochs", "5"]],
                             ids=["gpr-gmm", "rf", "nn"])
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.sampled_from(_CELL_VALUES), name=st.sampled_from(_ONLINE_FILES),
           line=st.integers(0, 6), column=st.integers(0, 7))
    # a held-out latency whose squared error overflows the MSE
    @example(value="1e200", name="online_b_b_000.csv", line=6, column=7)
    # a training latency whose squares overflow a forest's split costs
    @example(value="1e200", name="online_b_b_000.csv", line=1, column=7)
    def test_exit_contract(self, flags, value, name, line, column, corpus_dir,
                           tmp_path_factory, capsys):
        data = tmp_path_factory.mktemp("mutated")
        shutil.copytree(corpus_dir.parent, data, dirs_exist_ok=True)
        _set_cell(data / name, line, column, value)
        code, err, caught = _run_quiet(["pipeline", "--manifest", data / "manifest.json",
                                        "--out", data / "out", "--alpha", "1e-4", *flags], capsys)
        assert code in (0, 1, 2, 3) and not caught, (code, err, caught)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            files = sorted((data / "out").glob("predictions_*.csv"))
            rows = [r for f in files for r in csv.DictReader(f.read_text().splitlines())]
            assert len(files) == 2 and all(math.isfinite(float(r["prediction"])) for r in rows)

    @pytest.mark.parametrize("flags, line, message", [
        ([], 6, "model gpr_stage1: the mean squared error overflows to inf"),
        (["--predictor", "rf", "--trees", "10"], 1,
         "[stage1] latencies up to 1e+200 over 11 rows: the forest's squared sums overflow "
         "in job 0"),
    ], ids=["mse", "rf-latency"])
    def test_latency_overflow_refused(self, flags, line, message, corpus_dir, tmp_path, capsys):
        shutil.copytree(corpus_dir.parent, tmp_path / "data")
        _set_cell(tmp_path / "data" / "online_b_b_000.csv", line, 7, "1e200")
        code, err, caught = _run_quiet(["pipeline", "--manifest", tmp_path / "data" / "manifest.json",
                                        "--out", tmp_path / "out", *flags], capsys)
        assert (code, err, caught) == (3, f"error: {message}\n", [])
        assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.fixture(scope="module")
def gpr_predictions(corpus_dir, tmp_path_factory):
    """The predictions CSVs of a gpr `pipeline` on the module corpus."""
    out = tmp_path_factory.mktemp("gpr_pipeline")
    assert run(["pipeline", "--manifest", corpus_dir, "--out", out]) == 0
    files = sorted(out.glob("predictions_*.csv"))
    assert [f.name for f in files] == ["predictions_gpr_stage1.csv", "predictions_gpr_stage2.csv"]
    return files


class TestEvalMutations:
    """`eval` on predictions CSVs with one truth or prediction cell changed:
    an exit code of the contract, nothing escapes, one error line, no
    warning, and only finite summary cells."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.sampled_from(_CELL_VALUES), index=st.integers(0, 1),
           line=st.integers(0, 2), column=st.integers(1, 2))
    # a truth whose squared error overflows the MSE
    @example(value="1e200", index=0, line=1, column=1)
    def test_exit_contract(self, value, index, line, column, gpr_predictions,
                           tmp_path_factory, capsys):
        data = tmp_path_factory.mktemp("mutated")
        for f in gpr_predictions:
            shutil.copy(f, data)
        _set_cell(data / gpr_predictions[index].name, line, column, value)
        code, err, caught = _run_quiet(["eval", "--predictions-dir", data,
                                        "--out", data / "out"], capsys)
        assert code in (0, 1, 2, 3) and not caught, (code, err, caught)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            rows = list(csv.DictReader((data / "out" / "summary.csv").read_text().splitlines()))
            assert len(rows) == 2 and all(math.isfinite(float(r[key])) for r in rows
                                          for key in ("mape", "mse", "n"))


class TestPredictMutations:
    """`predict` of a gpr, forest or network model on a corpus with one online cell
    changed, in the group of the changed file: an exit code of the contract,
    nothing escapes, one error line, no warning, and only finite predictions."""

    @pytest.mark.parametrize("model_dir", ["trained_dir", "rf_trained_dir", "nn_trained_dir"],
                             ids=["gpr", "rf", "nn"])
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.sampled_from(_CELL_VALUES), name=st.sampled_from(_ONLINE_FILES),
           line=st.integers(0, 6), column=st.integers(0, 7))
    def test_exit_contract(self, model_dir, value, name, line, column, corpus_dir, request,
                           tmp_path_factory, capsys):
        data = tmp_path_factory.mktemp("mutated")
        shutil.copytree(corpus_dir.parent, data, dirs_exist_ok=True)
        _set_cell(data / name, line, column, value)
        code, err, caught = _run_quiet(["predict", "--manifest", data / "manifest.json",
                                        "--out", data / "out", "--group", name[:8],
                                        "--model-dir", request.getfixturevalue(model_dir)],
                                       capsys)
        assert code in (0, 1, 2, 3) and not caught, (code, err, caught)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            [path] = (data / "out").glob("predictions_*.csv")
            rows = list(csv.DictReader(path.read_text().splitlines()))
            assert rows and all(math.isfinite(float(r["prediction"])) for r in rows)


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

    def test_overflowing_mse_is_numerical_error(self, tmp_path, capsys):
        pdir = tmp_path / "preds"
        pdir.mkdir()
        (pdir / "predictions_x.csv").write_text("workload_id,truth,prediction\nw,1e200,1\n")
        code, err, caught = _run_quiet(["eval", "--predictions-dir", pdir,
                                        "--out", tmp_path / "out"], capsys)
        assert (code, err, caught) == (
            3, "error: model x: the mean squared error overflows to inf\n", [])

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

    def test_huge_signal_variance_predicts_without_a_warning(self, corpus_dir, trained_dir,
                                                            tmp_path):
        # predict computes only the posterior mean, so no squares of a 1e300
        # kernel are taken for a variance
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        _edit_json(model_dir / "model.json", lambda m: m.update(signal_variance=1e300))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-m", "dbtune.cli", "predict", "--manifest",
                               str(corpus_dir), "--out", str(tmp_path / "out"),
                               "--model-dir", str(model_dir)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
        assert _predictions_finite(tmp_path / "out" / "predictions_gpr.csv")

    def test_gpr_fit_on_huge_latencies_exits_3(self, tmp_path, capsys):
        # latencies of 1e200 scale: their variance overflows to inf
        corpus = tmp_path / "c"
        assert run(["synth", "--out", corpus, "--seed", "3"]) == 0
        latency = json.loads((corpus / "manifest.json").read_text())["latency"]
        for path in corpus.glob("*.csv"):
            rows = list(csv.reader(path.read_text().splitlines()))
            at = rows[0].index(latency)
            for row in rows[1:]:
                row[at] = repr(float(row[at]) * 1e200)
            path.write_text("".join(",".join(row) + "\n" for row in rows))
        manifest = corpus / "manifest.json"
        assert run(["prune", "--manifest", manifest, "--out", tmp_path / "p"]) == 0
        capsys.readouterr()
        for argv in (["train", "--pruned", tmp_path / "p" / "pruned_metrics.txt"],
                     ["pipeline"]):
            assert run([*argv, "--manifest", manifest, "--out", tmp_path / "out"]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "variance inf must be finite" in err

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

    @pytest.mark.parametrize("kind, flags", [("gpr", dict(alpha=1e-4)),
                                             ("rf", dict(trees=3, depth=4)),
                                             ("nn", dict(epochs=3))])
    def test_model_json_alone_matches_in_process_path(self, kind, flags, corpus_dir,
                                                      trained_dir, request, tmp_path, capsys):
        # the model directory holds model.json and nothing else
        model_dir, out = tmp_path / "model", tmp_path / "out"
        model_dir.mkdir()
        shutil.copy(request.getfixturevalue(_TRAINED[kind]) / "model.json", model_dir)
        assert run(["predict", "--manifest", corpus_dir, "--out", out,
                    "--model-dir", model_dir, "--group", "online_c"]) == 0
        capsys.readouterr()
        corpus, _ = ingest.drop_constant_columns(ingest.load_corpus_from_manifest(corpus_dir))
        pruned = cli._read_pruned(trained_dir / "pruned_metrics.txt")
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema, pruned)
        _, loaded = predict.load_model(model_dir / "model.json")
        assert loaded.means.tobytes() == scaler.means.tobytes()
        assert loaded.stds.tobytes() == scaler.stds.tobytes()
        assert loaded.knob_names == scaler.knob_names == corpus.schema.knob_names
        assert loaded.constant_features == scaler.constant_features
        assert loaded.metric_names == pruned == tuple(
            (trained_dir / "pruned_metrics.txt").read_text().split())

        config = cli.PipelineConfig(predictor=kind, **flags)
        model = cli._train_predictor(
            config, np.vstack([predict.build_features(t, scaler) for t in corpus.offline]),
            np.concatenate([t.latency for t in corpus.offline]), config.seed)
        expected = [(t.workload_id, float(y), float(p)) for t in corpus.online_c
                    for y, p in zip(t.latency, predict.predict_with(
                        model, predict.build_features(t, scaler)))]
        got = evaluate.parse_predictions_csv(
            (out / f"predictions_{kind}.csv").read_text(), kind).per_point
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
        map_part, val_part = ingest.split_map_validation(table, cli.N_MAP)
        res = mapping.map_and_augment(mapping.Repository(list(corpus.offline), scaler),
                                      map_part)
        feats = predict.build_features(res.augmented, scaler)
        model = predict.gpr_fit(feats, res.augmented.latency, config.alpha)
        pred = predict.predict_with(model, predict.build_features(val_part, scaler))

        wid, truth_val, pipe_pred = next(
            p for p in stage1.per_point if p[0] == table.workload_id)
        assert truth_val == float(val_part.latency[0])
        assert pipe_pred == pytest.approx(float(pred[0]), abs=1e-12)

    def test_workload_seed_formula(self):
        assert cli._workload_seed(5, "b_000") == 5 + zlib.crc32(b"b_000") % 100000
