"""Workload similarity mapping and training-table augmentation.

Each target row is paired with the source row whose scaled knob vector is
nearest; per pruned metric the paired value vectors are compared, and the
per-metric distances are averaged into a workload score. The lowest-scoring
source is the match (the smallest id on ties), and its rows (minus
knob-config conflicts) are appended to the target's rows as training data.

A target is scored against all sources in one batched pass: the sources are
stacked, one knob-distance array pairs every target row with its nearest row
inside each source (first row on ties), and every per-metric distance and
score is a reduction over a contiguous last axis. The floats are those of
scoring one source and one metric column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import sq_dists
from .errors import ConfigError, DataError
from .evaluate import mape
from .ingest import WorkloadTable, csv_text
from .predict import StandardScaler

KNOB_CONFLICT_TOL = 1e-9
SCORE_VARIANTS = ("euclid", "mse", "mape")


@dataclass(frozen=True)
class MappingResult:
    target_id: str
    source_ids: tuple[str, ...]  # every source, in id order
    scores: np.ndarray  # the score of each of source_ids
    chosen_source: str
    augmented: WorkloadTable
    conflicts_dropped: int


def _metric_distances(t_cols: np.ndarray, paired: np.ndarray, variant: str) -> np.ndarray:
    """Per-metric distances of every source, (n_sources, n_metrics).

    `t_cols` is (n_metrics, n_rows) and `paired` is (n_sources, n_metrics,
    n_rows), both C-contiguous: each reduction then runs over a contiguous
    last axis, the same summation as on the 1-D column of one metric.
    """
    if variant == "mape":
        return mape(np.broadcast_to(t_cols, paired.shape), paired, axis=-1)
    diff = t_cols - paired
    if variant == "euclid":
        return np.sqrt(np.sum(diff ** 2, axis=-1))
    return np.mean(diff ** 2, axis=-1)


def score_workloads(target: WorkloadTable, sources: list[WorkloadTable],
                    scaler: StandardScaler, variant: str = "euclid") -> np.ndarray:
    """Score of each source workload, in the order given, against the target on
    the scaler's knobs and pruned metrics; lower is more similar. The sources
    share the target's schema."""
    if target.n_rows < 1:
        raise DataError(f"target {target.workload_id} has no rows")
    if variant not in SCORE_VARIANTS:
        raise ConfigError(f"unknown score variant {variant!r}")
    kidx, midx = scaler.columns(target.schema)
    if not sources:
        raise DataError(f"no source workloads to map {target.workload_id} onto")
    empty = min((s.workload_id for s in sources if s.n_rows < 1), default=None)
    if empty is not None:
        raise DataError(f"source {empty} has no rows")

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
    return np.mean(per_metric, axis=-1)


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
    """Score the sources, pick the lowest score and augment the target with
    that source; on a tie the smaller source id wins."""
    sources = sorted(corpus_sources, key=lambda s: s.workload_id)
    scores = score_workloads(target, sources, scaler, variant)
    source = sources[int(scores.argmin())]  # the first minimum, so the smallest id
    augmented, dropped = augment(target, source)
    return MappingResult(target_id=target.workload_id,
                         source_ids=tuple(s.workload_id for s in sources), scores=scores,
                         chosen_source=source.workload_id, augmented=augmented,
                         conflicts_dropped=dropped)


def mapping_report_csv(results: list[MappingResult]) -> str:
    return csv_text(
        ["target_id", "source_id", "score", "chosen", "conflicts_dropped"],
        [[res.target_id for res in results for _ in res.source_ids],
         [s for res in results for s in res.source_ids],
         [v for res in results for v in res.scores.tolist()],
         [int(s == res.chosen_source) for res in results for s in res.source_ids],
         [res.conflicts_dropped if s == res.chosen_source else None
          for res in results for s in res.source_ids]])
