"""Workload similarity mapping and training-table augmentation.

Each target row is paired with the source row whose scaled knob vector is
nearest; per pruned metric the Euclidean distance between the paired value
vectors is taken, and the per-metric distances are averaged into a workload
score, as OtterTune scores a match. The lowest-scoring source is the match
(the smallest id on ties), and its rows (minus knob-config conflicts) are
appended to the target's rows as training data.

A stage's sources form one `Repository`, their features (`build_features`,
as the target's) stacked once. A target is scored against all of them in one
batched pass: one knob-distance array pairs every target row with its nearest
row inside each source (first row on ties), and every per-metric distance and
score is a reduction over a contiguous last axis. The floats are those of
scoring one source and one metric column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# build_features goes through its module: wrappers of module attributes see it
from . import predict
from .cluster import sq_dists
from .errors import DataError, NumericalError
from .ingest import WorkloadTable, csv_text

KNOB_CONFLICT_TOL = 1e-9


class Repository:
    """The sources a stage maps its targets onto: their tables in id order, the
    scaler, and every row's features (`build_features`), stacked once."""

    def __init__(self, tables: list[WorkloadTable], scaler: predict.StandardScaler):
        self.tables = sorted(tables, key=lambda t: t.workload_id)
        self.scaler = scaler
        if not self.tables:
            raise DataError("no source workloads to map onto")
        empty = next((t.workload_id for t in self.tables if t.n_rows < 1), None)
        if empty is not None:
            raise DataError(f"source {empty} has no rows")
        self.features = np.vstack([predict.build_features(t, scaler) for t in self.tables])

    def __len__(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class MappingResult:
    target_id: str
    source_ids: tuple[str, ...]  # every source, in id order
    scores: np.ndarray  # the score of each of source_ids
    chosen_source: str
    augmented: WorkloadTable
    conflicts_dropped: int


def score_workloads(target: WorkloadTable, sources: Repository) -> np.ndarray:
    """Score of each source workload, in id order, against the target on the
    scaler's knobs and pruned metrics; lower is more similar. The sources
    share the target's schema. A knob distance or a score that is not finite
    is a NumericalError."""
    if target.n_rows < 1:
        raise DataError(f"target {target.workload_id} has no rows")
    t_features = predict.build_features(target, sources.scaler)
    k = len(sources.scaler.knob_names)

    # nearest source row of every target row, within each source's own rows:
    # distances go into a (target rows, sources, max source rows) grid padded
    # with inf, so argmin keeps its first-occurrence tie-break per source
    lengths = np.array([s.n_rows for s in sources.tables])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    width = lengths.max()
    dist = sq_dists(t_features[:, :k], sources.features[:, :k])
    bad = np.flatnonzero(~np.isfinite(dist).all(axis=1))
    if bad.size:
        raise NumericalError(f"target {target.workload_id}: the knob distance of its row "
                             f"{bad[0]} to a source row is {dist[bad[0]].max()}")
    slot = np.arange(lengths.sum()) + np.repeat(np.arange(len(sources)) * width - starts, lengths)
    grid = np.full((target.n_rows, len(sources) * width), np.inf)
    grid[:, slot] = dist
    pair = grid.reshape(target.n_rows, len(sources), width).argmin(axis=2) + starts

    # the paired rows' metric features: (sources, metrics, target rows)
    paired = np.ascontiguousarray(sources.features[pair.T, k:].transpose(0, 2, 1))
    with np.errstate(over="ignore"):  # refused below
        diff = np.ascontiguousarray(t_features[:, k:].T) - paired
        scores = np.mean(np.sqrt(np.sum(diff ** 2, axis=-1)), axis=-1)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericalError(f"target {target.workload_id}: its score against source "
                             f"{sources.tables[bad[0]].workload_id} is {scores[bad[0]]}")
    return scores


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


def map_and_augment(sources: Repository, target: WorkloadTable) -> MappingResult:
    """Score the sources, pick the lowest score and augment the target with
    that source; on a tie the smaller source id wins."""
    scores = score_workloads(target, sources)
    source = sources.tables[int(scores.argmin())]  # the first minimum, so the smallest id
    augmented, dropped = augment(target, source)
    return MappingResult(target_id=target.workload_id,
                         source_ids=tuple(s.workload_id for s in sources.tables), scores=scores,
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
