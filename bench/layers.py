"""Which dbtune functions the traced run wraps, and the per-layer metrics they feed.

Layers are the modules. Each wrapped function charges its self time to one
layer metric; `cli.other_s` is what is left of a pass's wall time, i.e.
orchestration in `dbtune.cli` and its `--out` writes, `save_model` among
them. Time metrics are chosen so that every workload exercises each one (no time
reads 0 on some workload); the span file of a traced run keeps the
per-function split.
"""

from __future__ import annotations

import os
import statistics

from dbtune import cluster, evaluate, factors, ingest, mapping, predict

from tracer import Span, Target, Tracer


def _ingest(args, kwargs, corpus):
    cells = sum(t.n_rows * (t.schema.n_knobs + t.schema.n_metrics + 2)  # + id, latency
                for t in corpus.all_tables())
    return {"ingest.calls": 1, "ingest.cells": cells}


def _rf_nodes(model) -> int:
    n, stack = 0, list(model.trees)
    while stack:
        node = stack.pop()
        n += 1
        if node.feature >= 0:
            stack += [node.left, node.right]
    return n


def _fit(args, kwargs, model):
    counts = {"predict.fit_calls": 1, "predict.fit_rows": len(args[0])}
    if isinstance(model, predict.RfModel):
        counts["predict.rf_nodes"] = _rf_nodes(model)
    return counts


TARGETS = [
    Target(ingest, "load_corpus_from_manifest", "ingest.load_s", _ingest),
    Target(ingest, "drop_constant_columns", "ingest.load_s"),
    Target(ingest, "split_map_validation", "ingest.load_s"),
    Target(factors, "build_metric_matrix", "factors.s"),
    Target(factors, "fit_factors", "factors.s"),
    Target(factors, "retain_significant", "factors.s",
           lambda a, k, m: {"factors.retained": m.retained}),
    Target(factors, "export_loadings_csv", "factors.s"),
    Target(factors, "export_eigenvalues_csv", "factors.s"),
    Target(cluster, "sweep_k", "cluster.sweep_s",
           lambda a, k, sel: {"cluster.candidates": len(sel.candidate_ks)}),
    Target(cluster, "select_representatives", "cluster.sweep_s"),
    Target(cluster, "bic_score", "cluster.sweep_s"),
    Target(cluster, "silhouette_score", "cluster.silhouette_s"),
    # k-means also runs inside EM as its initialiser; nested spans keep the two apart
    Target(cluster, "fit_kmeans", "cluster.kmeans_s",
           lambda a, k, m: {"cluster.kmeans_iters": len(m.inertia_trace)}),
    Target(cluster, "fit_gmm_em", "cluster.fit_s",
           lambda a, k, m: {"cluster.em_iters": len(m.log_likelihood_trace)}),
    Target(mapping, "map_and_augment", "mapping.score_s"),
    Target(mapping, "score_workloads", "mapping.score_s",
           lambda a, k, r: {"mapping.pairs": len(a[1])}),
    Target(mapping, "augment", "mapping.augment_s",
           lambda a, k, r: {"mapping.conflicts_dropped": r[1]}),
    Target(mapping, "mapping_report_csv", "mapping.score_s"),
    Target(predict, "fit_scaler", "predict.scaler_s"),
    Target(predict, "build_features", "predict.features_s"),
    Target(predict, "gpr_fit", "predict.fit_s", _fit),
    Target(predict, "rf_fit", "predict.fit_s", _fit),
    Target(predict, "mlp_fit", "predict.fit_s", _fit),
    Target(predict, "predict_with", "predict.predict_s",
           lambda a, k, r: {"predict.rows_predicted": len(r)}),
    # loading the model is the read path together with predict_with
    Target(predict, "load_model", "predict.predict_s"),
    Target(predict, "save_model", "cli.other_s",
           lambda a, k, r: {"predict.model_bytes": os.path.getsize(a[1])}),
    Target(evaluate, "mape", "evaluate.s"),
    Target(evaluate, "mse", "evaluate.s"),
    Target(evaluate, "compare_models", "evaluate.s"),
    Target(evaluate, "parse_predictions_csv", "evaluate.s"),
    Target(evaluate.EvalReport, "predictions_csv", "evaluate.s"),
]

TIME_METRICS = ["ingest.load_s", "factors.s", "cluster.sweep_s", "cluster.silhouette_s",
                "cluster.kmeans_s", "cluster.fit_s", "mapping.score_s", "mapping.augment_s",
                "predict.scaler_s", "predict.features_s", "predict.fit_s",
                "predict.predict_s", "evaluate.s", "cli.other_s"]
COUNT_METRICS = ["ingest.calls", "ingest.cells", "factors.retained", "cluster.candidates",
                 "cluster.kmeans_iters", "cluster.em_iters", "mapping.pairs",
                 "mapping.conflicts_dropped", "predict.fit_calls", "predict.fit_rows",
                 "predict.rf_nodes", "predict.rows_predicted", "predict.model_bytes"]
# (name, unit); every traced run reports all of them
PER_LAYER = ([(m, "s") for m in TIME_METRICS]
             + [(m, "bytes" if m.endswith("_bytes") else "count") for m in COUNT_METRICS]
             + [("synth.generate_s", "s"), ("synth.write_s", "s"),
                ("trace.overhead", "ratio")])

_METRIC_OF = {t.name: t.metric for t in TARGETS}


def pass_layers(spans: list[Span], selves: list[float], wall: float) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    out = {m: 0.0 for m in TIME_METRICS}
    out.update({m: 0 for m in COUNT_METRICS})
    for span, self_s in zip(spans, selves):
        out.update({k: out[k] + v for k, v in span.counts.items()})
        if span.name != Tracer.COUNT_SPAN:
            out[_METRIC_OF[span.name]] += self_s
    # what no layer span covers, besides the tracer's own counting
    out["cli.other_s"] += wall - sum(selves)
    # fit_s is all model fitting, k-means and EM, so that no time metric is 0
    # on the k-means workloads; EM alone is fit_s - kmeans_s
    out["cluster.fit_s"] += out["cluster.kmeans_s"]
    return out


def median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(p[m] for p in passes) for m in passes[0]}
