"""Pipeline orchestration and command-line entry points.

Subcommands: synth, prune, map, train, predict, eval, pipeline. The
two-stage pipeline maps each online-B workload onto the offline repository,
trains one predictor per target on the augmented table, predicts the
held-out row, then repeats for online-C against the repository extended
with the mapped B rows.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import cluster, evaluate, factors, ingest, mapping, predict, synth
from .errors import ConfigError, DataError, DbtuneError, NumericalError

EXIT_CODES = {ConfigError: 1, DataError: 2, NumericalError: 3}
# Upper bounds of the flags that size a fit, far above every value in use
# (200 trees, 500 epochs). The other counts need none: they are clipped to
# the data or refused against it.
MAX_TREES, MAX_EPOCHS = 10**4, 10**5
# the first N_MAP rows of an online workload map it; the next row is predicted
N_MAP = 5


@dataclass(frozen=True)
class PipelineConfig:
    manifest: str = ""
    method: str = "kmeans"
    k_min: int = 2
    k_max: int = 15
    predictor: str = "gpr"
    alpha: float = 1e-1
    trees: int = 200
    depth: int = 50
    epochs: int = 500
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        for name, allowed in (("method", ("kmeans", "gmm")),
                              ("predictor", tuple(predict.MODEL_KINDS))):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.k_min < 2 or self.k_max < self.k_min:
            raise ConfigError(f"bad k range [{self.k_min}, {self.k_max}]")
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.trees < 1 or self.depth < 0:
            raise ConfigError(f"trees must be >= 1 and depth >= 0, "
                              f"got {self.trees} and {self.depth}")
        for name, low in (("epochs", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name, high in (("trees", MAX_TREES), ("epochs", MAX_EPOCHS)):
            if getattr(self, name) > high:
                raise ConfigError(f"{name} must be <= {high}, got {getattr(self, name)}")


@contextmanager
def _stage(name):
    """Context that prefixes propagated errors with the failing stage name."""
    try:
        yield
    except DbtuneError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _workload_seed(base_seed: int, workload_id: str) -> int:
    return base_seed + zlib.crc32(workload_id.encode()) % 100000


def _load_and_clean(config: PipelineConfig, out: Path) -> tuple[ingest.Corpus, list[str]]:
    """The corpus without its constant columns, and their names (dropped_columns.txt)."""
    with _stage("ingest"):
        corpus = ingest.load_corpus_from_manifest(config.manifest)
        corpus, dropped = ingest.drop_constant_columns(corpus)
    ingest.write_text(out / "dropped_columns.txt", "".join(n + "\n" for n in dropped))
    return corpus, dropped


def run_prune(config: PipelineConfig, corpus: ingest.Corpus | None = None
              ) -> tuple[str, ...]:
    """Factor the offline metrics, cluster loadings and pick representatives;
    returns their names."""
    out = Path(config.out)
    if corpus is None:
        corpus, _ = _load_and_clean(config, out)
    with _stage("factors"):
        x = factors.build_metric_matrix(list(corpus.offline))
        model = factors.fit_factors(x)
        model = factors.retain_significant(model)
    ingest.write_text(out / "loadings.csv", factors.export_loadings_csv(model))
    ingest.write_text(out / "eigenvalues.csv", factors.export_eigenvalues_csv(model))

    n_metrics = len(model.metric_names)
    if n_metrics < 2:
        warnings.warn("only one metric available; cluster sweep skipped", stacklevel=2)
        pruned = model.metric_names
    else:
        k_max = min(config.k_max, n_metrics)
        ks = tuple(range(config.k_min, k_max + 1))
        if not ks:
            raise DataError(f"--k-min {config.k_min} exceeds the {n_metrics} metrics left to cluster")
        with _stage("cluster"):
            sel = cluster.sweep_k(model.points, config.method, ks, config.seed)
            pruned = cluster.select_representatives(sel.model, model)
        if sel.chosen_k == ks[-1] < n_metrics:
            warnings.warn(f"chosen k={sel.chosen_k} is the largest candidate, so a larger k "
                          f"may score higher; raise --k-max to sweep further", stacklevel=2)
        ingest.write_text(out / "cluster_report.csv", sel.report_csv())
    ingest.write_text(out / "pruned_metrics.txt", "".join(n + "\n" for n in pruned))
    return pruned


def _train_predictor(config: PipelineConfig, features: np.ndarray,
                     targets: np.ndarray, seed: int):
    if config.predictor == "gpr":
        return predict.gpr_fit(features, targets, config.alpha)
    if config.predictor == "rf":
        return predict.rf_fit(features, targets, config.trees, config.depth, seed)
    return predict.mlp_fit(features, targets, predict.HIDDEN_UNITS, config.epochs, seed)


def _fit_models(config, stage_name, fits):
    """One model per (workload id, features, targets), yielded in order:
    every forest in one rf_fit_many call, any other model under its
    workload's stage."""
    if config.predictor == "rf":
        with _stage(stage_name):
            yield from predict.rf_fit_many(
                [(feats, y, _workload_seed(config.seed, wid)) for wid, feats, y in fits],
                config.trees, config.depth)
        return
    for wid, feats, y in fits:
        with _stage(f"{stage_name}/{wid}"):
            yield _train_predictor(config, feats, y, _workload_seed(config.seed, wid))


def _map_train_predict(config, sources, targets, scaler, stage_name):
    """Map every target onto the sources, then train one model per target
    on its augmented table and predict its held-out validation row."""
    with _stage(stage_name):
        repository = mapping.Repository(sources, scaler)
    fits, map_tables, val_parts, results = [], [], [], []
    for table in sorted(targets, key=lambda t: t.workload_id):
        wid = table.workload_id
        with _stage(f"{stage_name}/{wid}"):
            map_part, val_part = ingest.split_map_validation(table, N_MAP)
            res = mapping.map_and_augment(repository, map_part)
            fits.append((wid, predict.build_features(res.augmented, scaler), res.augmented.latency))
        map_tables.append(map_part)
        val_parts.append(val_part)
        results.append(res)
    points = []
    for (wid, _, _), val_part, model in zip(fits, val_parts, _fit_models(config, stage_name, fits)):
        with _stage(f"{stage_name}/{wid}"):
            pred = predict.predict_with(model, predict.build_features(val_part, scaler))
        points.append((wid, float(val_part.latency[0]), float(pred[0])))
    return points, results, map_tables


def run_two_stage(config: PipelineConfig) -> list[evaluate.EvalReport]:
    """Two-stage latency prediction over the online-B and online-C groups."""
    out = Path(config.out)
    corpus, _ = _load_and_clean(config, out)
    pruned = run_prune(config, corpus)
    with _stage("scaler"):
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema, pruned)

    if not corpus.online_b or not corpus.online_c:
        raise DataError("two-stage pipeline needs online_b and online_c groups")

    points_b, results_b, map_tables_b = _map_train_predict(
        config, list(corpus.offline), corpus.online_b, scaler, "stage1")
    stage1 = evaluate.EvalReport(f"{config.predictor}_stage1", tuple(points_b))

    # stage-2 repository: offline plus every mapped B table
    points_c, results_c, _ = _map_train_predict(
        config, list(corpus.offline) + map_tables_b, corpus.online_c, scaler, "stage2")
    stage2 = evaluate.EvalReport(f"{config.predictor}_stage2", tuple(points_c))

    reports = [stage1, stage2]
    ingest.write_text(out / "map_report.csv", mapping.mapping_report_csv(results_b + results_c))
    for report in reports:
        ingest.write_text(out / f"predictions_{report.model_name}.csv", report.predictions_csv())
    _write_summary(reports, out)
    return reports


def _write_summary(reports: list[evaluate.EvalReport], out: Path) -> str:
    """Write summary.csv and summary.txt into `out`; returns the aligned text."""
    csv_text, aligned = evaluate.compare_models(reports)
    ingest.write_text(out / "summary.csv", csv_text)
    ingest.write_text(out / "summary.txt", aligned)
    return aligned


def run_eval(config: PipelineConfig, predictions_dir) -> str:
    """Recompute MAPE/MSE from prediction CSVs and render the comparison."""
    pdir = Path(predictions_dir)
    files = sorted(pdir.glob("predictions_*.csv"))
    if not files:
        raise DataError(f"no predictions_*.csv files in {pdir}")
    reports = []
    for f in files:
        name = f.stem.removeprefix("predictions_")
        with _stage(f"eval/{f.name}"):
            if not ingest.SEPARATORS.isdisjoint(name):  # it is a cell of summary.csv
                raise DataError(f"model name {name!r} holds a comma, quote or line break")
            reports.append(evaluate.parse_predictions_csv(ingest.read_text(f), name))
    return _write_summary(reports, Path(config.out))


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser):
    """One flag per PipelineConfig field (`k_min` -> `--k-min`), typed like its default."""
    for f in fields(PipelineConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config of the flags given; every other field keeps its default."""
    return PipelineConfig(**{f.name: v for f in fields(PipelineConfig)
                             if (v := getattr(args, f.name)) is not None})


def _cmd_synth(args) -> int:
    spec = synth.SynthSpec.from_json(args.spec) if args.spec else synth.SynthSpec()
    if args.seed is not None:
        spec = synth.SynthSpec(**{**spec.__dict__, "seed": args.seed})
    corpus, truth = synth.generate_corpus(spec)
    manifest = synth.write_corpus(corpus, args.out)
    ingest.write_text(Path(args.out) / "ground_truth.json",
                      json.dumps(asdict(truth), indent=2) + "\n")
    print(manifest)
    return 0


def _cmd_prune(args, config: PipelineConfig) -> int:
    for name in run_prune(config):
        print(name)
    return 0


def _read_pruned(path) -> tuple[str, ...]:
    lines = io.StringIO(ingest.read_text(path), newline="")  # split as the csv reader splits
    names = tuple(line.strip() for line in lines if line.strip())
    if not names:
        raise DataError(f"pruned metric file {path} is empty")
    return names


def _load_with_pruned(config: PipelineConfig, path
                      ) -> tuple[ingest.Corpus, predict.StandardScaler]:
    """The cleaned corpus, and the scaler of its knobs and of the metrics the
    --pruned file at `path` lists."""
    corpus, dropped = _load_and_clean(config, Path(config.out))
    pruned = _read_pruned(path)
    constant = next((n for n in pruned if n in dropped), None)
    if constant is not None:
        raise DataError(f"metric {constant!r} is constant in the corpus and was dropped "
                        f"(see dropped_columns.txt)")
    return corpus, predict.fit_scaler(list(corpus.offline), corpus.schema, pruned)


def _cmd_map(args, config: PipelineConfig) -> int:
    out = Path(config.out)
    corpus, scaler = _load_with_pruned(config, args.pruned)
    repository = mapping.Repository(list(corpus.offline), scaler)
    results = [mapping.map_and_augment(repository, table)
               for table in corpus.online_b + corpus.online_c]
    text = mapping.mapping_report_csv(results)
    ingest.write_text(out / "map_report.csv", text)
    print(text, end="")
    return 0


def _cmd_train(args, config: PipelineConfig) -> int:
    out = Path(config.out)
    corpus, scaler = _load_with_pruned(config, args.pruned)
    feats = np.vstack([predict.build_features(t, scaler) for t in corpus.offline])
    targets = np.concatenate([t.latency for t in corpus.offline])
    model = _train_predictor(config, feats, targets, config.seed)
    predict.save_model(model, out / "model.json", scaler)
    print(out / "model.json")
    return 0


def _cmd_predict(args, config: PipelineConfig) -> int:
    model, scaler = predict.load_model(Path(args.model_dir) / "model.json")
    # the model's columns are picked by name, so none of this corpus is dropped;
    # predictions for one group read nothing of the others
    corpus = ingest.load_corpus_from_manifest(config.manifest, (args.group,))
    points = []
    for table in corpus.group(args.group):
        preds = predict.predict_with(model, predict.build_features(table, scaler))
        points += [(table.workload_id, float(t), float(p)) for t, p in zip(table.latency, preds)]
    if not points:
        raise DataError(f"no rows in group {args.group!r}")
    report = evaluate.EvalReport(model.kind, tuple(points))  # named like --predictor
    path = Path(config.out) / f"predictions_{model.kind}.csv"
    ingest.write_text(path, report.predictions_csv())
    print(path)
    return 0


def _cmd_eval(args, config: PipelineConfig) -> int:
    print(run_eval(config, args.predictions_dir), end="")
    return 0


def _cmd_pipeline(args, config: PipelineConfig) -> int:
    run_two_stage(config)
    print(ingest.read_text(Path(config.out) / "summary.txt"), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Bad command-line usage is a configuration error (exit 1), as the exit
    codes promise, not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dbtune",
        description="Automated DBMS-tuning pipeline: metric pruning, workload "
                    "mapping and latency prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", help="SynthSpec JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    for name, func, help_text, extra in (
            ("prune", _cmd_prune, "factor + cluster metrics, emit pruned set", {}),
            ("map", _cmd_map, "map online workloads onto the offline repository",
             {"--pruned": dict(required=True, help="pruned metric list file")}),
            ("train", _cmd_train, "train one predictor on the offline corpus",
             {"--pruned": dict(required=True)}),
            ("predict", _cmd_predict, "predict latency with a saved model",
             {"--model-dir": dict(required=True),
              "--group": dict(default="online_b", choices=list(ingest.GROUP_NAMES))}),
            ("eval", _cmd_eval, "recompute summary.csv from prediction CSVs",
             {"--predictions-dir": dict(required=True)}),
            ("pipeline", _cmd_pipeline, "run the full two-stage pipeline", {})):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # a notice prints as its message alone, not the source line that raised it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        if args.command == "synth":
            return _cmd_synth(args)
        config = build_config(args)
        if not config.manifest and args.command != "eval":
            raise ConfigError(f"{args.command} requires --manifest")
        return args.func(args, config)
    except (ConfigError, DataError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
