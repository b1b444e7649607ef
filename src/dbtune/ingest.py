"""Workload CSV loading and preprocessing.

Input CSVs are comma-separated with a header row. Column roles (workload id,
latency, knobs, metrics) come from a JSON manifest rather than name
heuristics. Boolean knob cells are encoded as 0/1; columns that are constant
across the whole corpus are dropped.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, DbtuneError

_BOOL_TOKENS = {
    "true": 1.0, "false": 0.0,
    "on": 1.0, "off": 0.0,
    "yes": 1.0, "no": 0.0,
}

GROUP_NAMES = ("offline", "online_b", "online_c")


@dataclass(frozen=True)
class Schema:
    """Column roles shared by every table of a corpus."""

    knob_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    latency_name: str
    workload_id_name: str

    def __post_init__(self):
        names = list(self.knob_names) + list(self.metric_names)
        names += [self.latency_name, self.workload_id_name]
        if len(set(names)) != len(names):
            raise DataError("schema column roles overlap: %r" % (names,))

    @property
    def n_knobs(self) -> int:
        return len(self.knob_names)

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)


@dataclass(frozen=True)
class WorkloadTable:
    """All observations of one workload, stored column-major as arrays.

    Row order is the input file order. `knobs` is (n, n_knobs), `metrics`
    is (n, n_metrics), `latency` is (n,).
    """

    workload_id: str
    knobs: np.ndarray
    metrics: np.ndarray
    latency: np.ndarray
    schema: Schema

    def __post_init__(self):
        n = self.latency.shape[0]
        if self.knobs.shape != (n, self.schema.n_knobs):
            raise DataError(f"workload {self.workload_id}: knob shape mismatch")
        if self.metrics.shape != (n, self.schema.n_metrics):
            raise DataError(f"workload {self.workload_id}: metric shape mismatch")
        for arr in (self.knobs, self.metrics, self.latency):
            if arr.size and not np.all(np.isfinite(arr)):
                raise DataError(f"workload {self.workload_id}: non-finite value")

    @property
    def n_rows(self) -> int:
        return self.latency.shape[0]

    def take(self, idx) -> "WorkloadTable":
        idx = np.asarray(idx, dtype=int)
        return replace(
            self,
            knobs=self.knobs[idx],
            metrics=self.metrics[idx],
            latency=self.latency[idx],
        )


@dataclass(frozen=True)
class Corpus:
    """All workload tables, split into the offline and online groups."""

    offline: tuple[WorkloadTable, ...]
    online_b: tuple[WorkloadTable, ...]
    online_c: tuple[WorkloadTable, ...]
    schema: Schema

    def group(self, name: str) -> tuple[WorkloadTable, ...]:
        if name not in GROUP_NAMES:
            raise DataError(f"unknown corpus group {name!r}")
        return getattr(self, name)

    def all_tables(self) -> list[WorkloadTable]:
        return list(self.offline) + list(self.online_b) + list(self.online_c)


def encode_booleans(raw_cell: str) -> float:
    """Parse a CSV cell: boolean spellings map to 1.0/0.0, numerics pass through."""
    token = raw_cell.strip()
    low = token.lower()
    if low in _BOOL_TOKENS:
        return _BOOL_TOKENS[low]
    try:
        return float(token)
    except ValueError:
        raise DataError(f"unrecognized cell value {raw_cell!r}") from None


def read_json_object(path, error: type[DbtuneError] = DataError) -> dict:
    """Parse a JSON object file; an unreadable file, invalid JSON or another
    JSON value raises `error`."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object")
    return doc


def read_manifest(manifest_path) -> tuple[Schema, dict[str, list[str]]]:
    """Read a manifest JSON; returns (schema, group -> file names)."""
    path = Path(manifest_path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    doc = read_json_object(path)
    for key in ("workload_id", "latency", "knobs", "metrics"):
        if key not in doc:
            raise DataError(f"manifest missing key {key!r}")
    if not doc["knobs"] or not doc["metrics"]:
        raise DataError("manifest knob and metric lists must be non-empty")
    schema = Schema(
        knob_names=tuple(doc["knobs"]),
        metric_names=tuple(doc["metrics"]),
        latency_name=doc["latency"],
        workload_id_name=doc["workload_id"],
    )
    groups = {name: list(doc.get("groups", {}).get(name, [])) for name in GROUP_NAMES}
    return schema, groups


def _parse_file(path: Path, schema: Schema
                ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Parse one CSV into workload-id -> (knobs, metrics, latency), in file order.

    Each needed column is converted with float() in one pass; only a column
    where that fails is parsed cell by cell with `encode_booleans`. The error
    raised is that of the first fault in file order, as a row-by-row parse
    would find it.
    """
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, no header") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        col = {name: i for i, name in enumerate(header)}
        names = list(schema.knob_names) + list(schema.metric_names) + [schema.latency_name]
        for name in names + [schema.workload_id_name]:
            if name not in col:
                raise DataError(f"{path}: missing column {name!r}")

        rows, linenos, ragged = [], [], None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                ragged = f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                break
            rows.append(row)
            linenos.append(lineno)

    columns = list(zip(*rows))
    values = np.zeros((len(rows), len(names)))
    faults = []  # (row, column position, message); the least is the first in file order
    for j, name in enumerate(names):
        cells = columns[col[name]] if rows else ()
        try:
            values[:, j] = list(map(float, cells))
        except ValueError:
            for i, raw in enumerate(cells):
                try:
                    values[i, j] = encode_booleans(raw)
                except DataError as exc:
                    faults.append((i, j, f"{path}:{linenos[i]}: column {name!r}: {exc}"))
                    break
    negative = np.flatnonzero(values[:, -1] < 0)
    if negative.size:
        i = negative[0]
        faults.append((i, len(names),
                       f"{path}:{linenos[i]}: negative latency {float(values[i, -1])}"))
    if faults:
        raise DataError(min(faults)[2])
    if ragged:
        raise DataError(ragged)
    if not rows:
        raise DataError(f"{path}: no observations")

    rows_of: dict[str, list[int]] = {}
    for i, wid in enumerate(columns[col[schema.workload_id_name]]):
        rows_of.setdefault(wid.strip(), []).append(i)
    k, m = schema.n_knobs, schema.n_metrics
    return {wid: (values[idx, :k], values[idx, k:k + m], values[idx, -1])
            for wid, idx in rows_of.items()}


def load_corpus(paths, manifest) -> Corpus:
    """Load CSVs into a Corpus, grouped by workload id.

    `paths` is an iterable of CSV paths. The manifest's optional `groups`
    mapping assigns file names to offline/online_b/online_c; files not named
    there go to the offline group. Rows of one workload id in several files of
    a group are concatenated; one id in two groups is a DataError.
    """
    schema, groups = read_manifest(manifest)
    group_of_file = {}
    for group, names in groups.items():
        for name in names:
            group_of_file[name] = group

    blocks_by_group: dict[str, dict[str, list]] = {g: {} for g in GROUP_NAMES}
    for p in paths:
        path = Path(p)
        group = group_of_file.get(path.name, "offline")
        dest = blocks_by_group[group]
        for wid, block in _parse_file(path, schema).items():
            dest.setdefault(wid, []).append(block)

    group_of_id: dict[str, str] = {}
    for group in GROUP_NAMES:
        for wid in sorted(blocks_by_group[group]):
            if wid in group_of_id:
                raise DataError(f"workload id {wid!r} appears in groups "
                                f"{group_of_id[wid]} and {group}")
            group_of_id[wid] = group

    def build(group):
        tables = []
        for wid in sorted(blocks_by_group[group]):
            knobs, metrics, latency = zip(*blocks_by_group[group][wid])
            tables.append(WorkloadTable(
                workload_id=wid,
                knobs=np.vstack(knobs),
                metrics=np.vstack(metrics),
                latency=np.concatenate(latency),
                schema=schema,
            ))
        return tuple(tables)

    return Corpus(build("offline"), build("online_b"), build("online_c"), schema)


def load_corpus_from_manifest(manifest) -> Corpus:
    """Load every file named in the manifest's `groups`, resolved relative to it."""
    _, groups = read_manifest(manifest)
    base = Path(manifest).parent
    paths = [base / name for group in GROUP_NAMES for name in groups[group]]
    if not paths:
        raise DataError(f"manifest {manifest} names no input files")
    return load_corpus(paths, manifest)


def drop_constant_columns(corpus: Corpus) -> tuple[Corpus, list[str]]:
    """Remove knob/metric columns constant across every row of every table.

    Equality is exact on the parsed doubles. Latency and workload-id columns
    are never dropped. Returns the new corpus and the dropped names, sorted.
    """
    tables = corpus.all_tables()
    if not tables:
        return corpus, []
    schema = corpus.schema
    all_knobs = np.vstack([t.knobs for t in tables]) if schema.n_knobs else np.zeros((0, 0))
    all_metrics = np.vstack([t.metrics for t in tables]) if schema.n_metrics else np.zeros((0, 0))

    def keep_mask(mat):
        if mat.size == 0:
            return np.zeros(mat.shape[1] if mat.ndim == 2 else 0, dtype=bool)
        return np.any(mat != mat[0], axis=0)

    knob_keep = keep_mask(all_knobs)
    metric_keep = keep_mask(all_metrics)
    dropped = sorted(
        [n for n, k in zip(schema.knob_names, knob_keep) if not k]
        + [n for n, k in zip(schema.metric_names, metric_keep) if not k]
    )
    if not dropped:
        return corpus, []

    new_schema = Schema(
        knob_names=tuple(n for n, k in zip(schema.knob_names, knob_keep) if k),
        metric_names=tuple(n for n, k in zip(schema.metric_names, metric_keep) if k),
        latency_name=schema.latency_name,
        workload_id_name=schema.workload_id_name,
    )

    def strip(table):
        return WorkloadTable(
            workload_id=table.workload_id,
            knobs=table.knobs[:, knob_keep],
            metrics=table.metrics[:, metric_keep],
            latency=table.latency,
            schema=new_schema,
        )

    new = Corpus(
        tuple(strip(t) for t in corpus.offline),
        tuple(strip(t) for t in corpus.online_b),
        tuple(strip(t) for t in corpus.online_c),
        new_schema,
    )
    return new, dropped


def split_map_validation(table: WorkloadTable, n_map: int) -> tuple[WorkloadTable, WorkloadTable]:
    """Split a table into the first n_map mapping rows and the next row for validation.

    Rows beyond index n_map are ignored with a warning; the validation part is
    always exactly one row.
    """
    if n_map < 1:
        raise DataError(f"workload {table.workload_id}: n_map must be >= 1, got {n_map}")
    if table.n_rows < n_map + 1:
        raise DataError(
            f"workload {table.workload_id}: need at least {n_map + 1} rows, has {table.n_rows}"
        )
    if table.n_rows > n_map + 1:
        warnings.warn(
            f"workload {table.workload_id}: ignoring {table.n_rows - n_map - 1} "
            f"rows beyond index {n_map}",
            stacklevel=2,
        )
    return table.take(range(n_map)), table.take([n_map])
