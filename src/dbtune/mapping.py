"""Workload similarity mapping and training-table augmentation.

Each target row is paired with the source row whose scaled knob vector is
nearest; per pruned metric the paired value vectors are compared, and the
per-metric distances are averaged into a workload score. The lowest-scoring
source is the match, and its rows (minus knob-config conflicts) are appended
to the target's rows as training data.

A target is scored against all sources in one batched pass: the sources are
stacked in id order, one knob-distance array pairs every target row with its
nearest row inside each source (first row on ties), and every per-metric
distance and score is a reduction over a contiguous last axis. The floats are
those of scoring one source and one metric column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import sq_dists
from .errors import ConfigError, DataError
from .evaluate import MAPE_EPS
from .ingest import WorkloadTable
from .predict import StandardScaler

KNOB_CONFLICT_TOL = 1e-9
SCORE_VARIANTS = ("euclid", "mse", "mape")


@dataclass(frozen=True)
class WorkloadScore:
    source_workload_id: str
    per_metric_distance: dict[str, float]
    score: float


@dataclass(frozen=True)
class MappingResult:
    target_id: str
    scores: tuple[WorkloadScore, ...]
    chosen_source: str
    augmented: WorkloadTable
    conflicts_dropped: int


def _metric_distances(t_cols: np.ndarray, paired: np.ndarray, variant: str) -> np.ndarray:
    """Per-metric distances of every source, (n_sources, n_metrics).

    `t_cols` is (n_metrics, n_rows) and `paired` is (n_sources, n_metrics,
    n_rows), both C-contiguous: each reduction then runs over a contiguous
    last axis, the same summation as on the 1-D column of one metric.
    """
    diff = t_cols - paired
    if variant == "euclid":
        return np.sqrt(np.sum(diff ** 2, axis=-1))
    if variant == "mse":
        return np.mean(diff ** 2, axis=-1)
    return 100.0 * np.mean(np.abs(diff) / np.maximum(np.abs(t_cols), MAPE_EPS), axis=-1)


def score_workloads(target: WorkloadTable, sources: list[WorkloadTable],
                    scaler: StandardScaler, variant: str = "euclid") -> list[WorkloadScore]:
    """Score every source workload against the target on the scaler's knobs
    and pruned metrics; lower is more similar. The sources share the target's
    schema."""
    if target.n_rows < 1:
        raise DataError(f"target {target.workload_id} has no rows")
    if variant not in SCORE_VARIANTS:
        raise ConfigError(f"unknown score variant {variant!r}")
    kidx, midx = scaler.columns(target.schema)
    sources = sorted(sources, key=lambda s: s.workload_id)
    if not sources:
        return []
    empty = next((s for s in sources if s.n_rows < 1), None)
    if empty is not None:
        raise DataError(f"source {empty.workload_id} has no rows")

    t_knobs = scaler.transform_knobs(target.knobs.take(kidx, axis=1))
    t_metrics = scaler.transform_metrics(target.metrics.take(midx, axis=1))
    s_knobs = scaler.transform_knobs(np.concatenate([s.knobs for s in sources]).take(kidx, axis=1))

    # nearest source row of every target row, within each source's own rows:
    # distances go into a (target rows, sources, max source rows) grid padded
    # with inf, so argmin keeps its first-occurrence tie-break per source
    lengths = np.array([s.n_rows for s in sources])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    width = lengths.max()
    dist = sq_dists(t_knobs, s_knobs)
    slot = np.arange(len(s_knobs)) + np.repeat(np.arange(len(sources)) * width - starts, lengths)
    grid = np.full((target.n_rows, len(sources) * width), np.inf)
    grid[:, slot] = dist
    pair = grid.reshape(target.n_rows, len(sources), width).argmin(axis=2) + starts

    # only the paired rows' pruned metrics are scaled: (sources, metrics, target rows)
    paired = np.concatenate([s.metrics for s in sources]).take(midx, axis=1)[pair.T]
    paired = np.ascontiguousarray(scaler.transform_metrics(paired).transpose(0, 2, 1))
    per_metric = _metric_distances(np.ascontiguousarray(t_metrics.T), paired, variant)
    totals = np.mean(per_metric, axis=-1)
    names = scaler.metric_names
    return [WorkloadScore(s.workload_id, dict(zip(names, row)), score)
            for s, row, score in zip(sources, per_metric.tolist(), totals.tolist())]


def nearest_workload(scores: list[WorkloadScore]) -> str:
    """Source id with the minimal score; ties break lexicographically."""
    if not scores:
        raise DataError("no workload scores")
    best = min(scores, key=lambda s: (s.score, s.source_workload_id))
    return best.source_workload_id


def augment(target: WorkloadTable, source: WorkloadTable) -> tuple[WorkloadTable, int]:
    """Target rows plus source rows whose raw knob config conflicts with none.

    A conflict is a source knob vector within 1e-9 of some target knob vector
    in every coordinate; conflicting source rows are dropped (the target's
    configuration wins).
    """
    if target.schema != source.schema:
        raise DataError("augment requires a shared schema")
    # (source rows, target rows, knobs)
    close = np.abs(target.knobs[None] - source.knobs[:, None]) <= KNOB_CONFLICT_TOL
    keep = np.flatnonzero(~close.all(axis=2).any(axis=1))
    dropped = source.n_rows - len(keep)
    merged = WorkloadTable(
        workload_id=target.workload_id,
        knobs=np.vstack([target.knobs, source.knobs[keep]]),
        metrics=np.vstack([target.metrics, source.metrics[keep]]),
        latency=np.concatenate([target.latency, source.latency[keep]]),
        schema=target.schema,
    )
    return merged, dropped


def map_and_augment(corpus_sources: list[WorkloadTable], target: WorkloadTable,
                    scaler: StandardScaler, variant: str = "euclid") -> MappingResult:
    """Compose scoring, nearest-source selection and augmentation."""
    scores = score_workloads(target, corpus_sources, scaler, variant)
    chosen = nearest_workload(scores)
    source = next(s for s in corpus_sources if s.workload_id == chosen)
    augmented, dropped = augment(target, source)
    return MappingResult(target_id=target.workload_id, scores=tuple(scores),
                         chosen_source=chosen, augmented=augmented,
                         conflicts_dropped=dropped)


def mapping_report_csv(results: list[MappingResult]) -> str:
    lines = ["target_id,source_id,score,chosen,conflicts_dropped"]
    for res in results:
        for score in res.scores:
            chosen = score.source_workload_id == res.chosen_source
            lines.append(
                f"{res.target_id},{score.source_workload_id},"
                f"{format(score.score, '.17g')},{int(chosen)},"
                f"{res.conflicts_dropped if chosen else ''}"
            )
    return "\n".join(lines) + "\n"
