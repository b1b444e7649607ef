"""Workload CSV loading and preprocessing.

Input CSVs are comma-separated with a header row. Column roles (workload id,
latency, knobs, metrics) come from a JSON manifest rather than name
heuristics. Boolean knob cells are encoded as 0/1; columns that are constant
across the whole corpus are dropped.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import DataError, DbtuneError, NumericalError

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


# what an unquoted CSV cell cannot hold; ingest refuses ids and column names with any
SEPARATORS = frozenset(',"\r\n')
# what parse_csv strips around ids and column names: ASCII blanks only, as
# str.strip() would also take \xa0, \x1c-\x1f and \x85, and merge ids that differ there
_BLANKS = " \t"


def csv_text(header, columns) -> str:
    """CSV text: the header line, then one line per row, each line ended by a
    newline. `columns` holds one sequence of cells per header name, all of
    one length (ValueError otherwise).

    A float cell (numpy float64 included) is written as format(v, ".17g"),
    which reads back through float() as the same double; None is an empty
    cell and any other cell is written with str(). No cell is quoted. The
    types in each column are looked up once, so a column that holds only
    floats, or neither floats nor None, takes no per-cell type test: one
    %-format writes each line.
    """
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"{len(header)} header names and columns of lengths "
                         f"{[len(c) for c in columns]}")
    formats, columns = zip(*map(_field, columns))
    lines = [",".join(header), *map(",".join(formats).__mod__, zip(*columns))]
    return "\n".join(lines) + "\n"


def _field(column) -> tuple[str, Sequence]:
    """A column's %-format field and the cells it formats."""
    types = set(map(type, column))
    if types <= {float, np.float64}:
        return "%.17g", column  # "%.17g" % v == format(v, ".17g")
    if not any(issubclass(t, float) or t is type(None) for t in types):
        return "%s", column  # "%s" % v == str(v)
    return "%s", [f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v)
                  for v in column]


def read_text(path, error: type[DbtuneError] = DataError) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark (Excel
    writes one) and with its line ends as written; a file that cannot be
    read (such as a directory or a name holding a NUL byte) or decoded
    raises `error`."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot decode {path}: {exc.reason}") from None
    except ValueError as exc:  # open's "embedded null byte"
        raise error(f"cannot read {str(path)!r}: {exc}") from None


def write_text(path, text: str) -> None:
    """Write text to a file as UTF-8, line ends as given, making its directory
    only when the write finds it missing. A file that cannot be written, or text
    UTF-8 cannot encode (a file name's undecodable bytes), raises DataError."""
    path = Path(path)
    try:
        data = text.encode("utf-8")
        try:
            path.write_bytes(data)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    except UnicodeEncodeError as exc:
        raise DataError(f"cannot encode {path}: {exc.reason}") from None


def read_json_object(path, error: type[DbtuneError] = DataError) -> dict:
    """Parse a JSON object file; an unreadable file, invalid JSON, JSON
    nested too deeply to parse or another JSON value raises `error`."""
    text = read_text(path, error)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{path} nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object")
    return doc


def json_field(doc: dict, key: str, kind: type | tuple[type, ...]):
    """doc[key], which must be an instance of kind (a bool is not a number)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key} must be {getattr(kind, '__name__', 'a number')}, "
                        f"got {value!r}")
    return value


def json_strings(doc: dict, key: str) -> tuple[str, ...]:
    values = json_field(doc, key, list)
    if not all(isinstance(v, str) for v in values):
        raise TypeError(f"{key} must be a list of strings")
    return tuple(values)


def check_fields(cls, doc: dict, what: str, error: type[Exception] = DataError) -> dict:
    """doc, as keyword arguments of the dataclass cls: every key names a field
    and every value has the type of that field's default (an int is also a
    valid float, as JSON writes 1.0 as 1). Anything else raises `error`."""
    types = {f.name: type(f.default) for f in fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in doc.items():
        if type(value) is not types[key] and not (types[key] is float and type(value) is int):
            raise error(f"{what} key {key!r} must be {types[key].__name__}, got {value!r}")
    return doc


def read_manifest(manifest_path) -> tuple[Schema, dict[Path, str]]:
    """Read a manifest JSON; returns the schema and, in group then entry order,
    the group of each file its `groups` name, resolved relative to it. A file
    named twice is a DataError."""
    path = Path(manifest_path)
    doc = read_json_object(path)
    for key in ("workload_id", "latency", "knobs", "metrics"):
        if key not in doc:
            raise DataError(f"manifest missing key {key!r}")
    try:
        knobs, metrics = json_strings(doc, "knobs"), json_strings(doc, "metrics")
        latency, workload_id = json_field(doc, "latency", str), json_field(doc, "workload_id", str)
        groups = json_field(doc, "groups", dict) if "groups" in doc else {}
        entries = [(name, group) for group in GROUP_NAMES if group in groups
                   for name in json_strings(groups, group)]
    except TypeError as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from None
    if not knobs or not metrics:
        raise DataError("manifest knob and metric lists must be non-empty")
    for name in (*knobs, *metrics, latency, workload_id):
        if not SEPARATORS.isdisjoint(name):
            raise DataError(f"{path}: column name {name!r} holds a comma, quote or line break")
    group_of: dict[Path, str] = {}
    for name, group in entries:
        file = path.parent / name
        if file in group_of:
            raise DataError(f"{path}: file {name!r} listed twice, "
                            f"in {group_of[file]} and in {group}")
        group_of[file] = group
    return Schema(knob_names=knobs, metric_names=metrics, latency_name=latency,
                  workload_id_name=workload_id), group_of


def parse_csv(text: str, schema: Schema, where: str) -> tuple[list[str], np.ndarray]:
    """Parse CSV text into its rows' workload ids and values, both in text order.

    `values` is (n, n_knobs + n_metrics + 1): the knob, metric and latency
    columns. Blank lines are skipped. Each needed column is converted with
    float() in one pass; only a column where that fails is parsed cell by
    cell with `encode_booleans`. The error raised is that of the first fault
    in text order, as a row-by-row parse would find it; its message starts
    with `where` and the line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{where}: empty file, no header") from None
    except csv.Error as exc:
        raise DataError(f"{where}:{reader.line_num}: {exc}") from None
    header = [h.strip(_BLANKS) for h in header]
    if len(set(header)) != len(header):
        raise DataError(f"{where}: duplicate column names in header")
    col = {name: i for i, name in enumerate(header)}
    names = list(schema.knob_names) + list(schema.metric_names) + [schema.latency_name]
    for name in names + [schema.workload_id_name]:
        if name not in col:
            raise DataError(f"{where}: missing column {name!r}")

    # the first row the reader cannot take ends the rows, as a fault
    # raised after those of the rows before it
    rows, linenos, stop = [], [], None
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip(_BLANKS) for c in row):
                continue
            if len(row) != len(header):
                stop = f"{where}:{lineno}: expected {len(header)} cells, got {len(row)}"
                break
            rows.append(row)
            linenos.append(lineno)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        stop = f"{where}:{reader.line_num}: {exc}"

    columns = list(zip(*rows))
    values = np.zeros((len(rows), len(names)))
    faults = []  # (row, column position, message); the least is the first in text order
    for j, name in enumerate(names):
        cells = columns[col[name]] if rows else ()
        try:
            values[:, j] = list(map(float, cells))
        except ValueError:
            for i, raw in enumerate(cells):
                try:
                    values[i, j] = encode_booleans(raw)
                except DataError as exc:
                    faults.append((i, j, f"{where}:{linenos[i]}: column {name!r}: {exc}"))
                    break
    nonfinite = np.argwhere(~np.isfinite(values))  # nan, inf, or a number past float's range
    if nonfinite.size:
        i, j = nonfinite[0]
        faults.append((i, j, f"{where}:{linenos[i]}: column {names[j]!r}: "
                             f"non-finite value {columns[col[names[j]]][i].strip()!r}"))
    ids = [wid.strip(_BLANKS) for wid in columns[col[schema.workload_id_name]]] if rows else []
    unwritable = {wid for wid in set(ids) if not SEPARATORS.isdisjoint(wid)}
    if unwritable:
        i = next(i for i, wid in enumerate(ids) if wid in unwritable)
        faults.append((i, -1, f"{where}:{linenos[i]}: workload id {ids[i]!r} "
                              f"holds a comma, quote or line break"))
    negative = np.flatnonzero(values[:, -1] < 0)
    if negative.size:
        i = negative[0]
        faults.append((i, len(names), f"{where}:{linenos[i]}: negative "
                                      f"{schema.latency_name} {float(values[i, -1])}"))
    if faults:
        raise DataError(min(faults)[2])
    if stop:
        raise DataError(stop)
    if not rows:
        raise DataError(f"{where}: no observations")
    return ids, values


def load_corpus(paths, manifest) -> Corpus:
    """Load CSVs into a Corpus, grouped by workload id.

    `paths` is an iterable of CSV paths. A path that the manifest's optional
    `groups` mapping names goes to that group; any other path goes to the
    offline group.
    """
    schema, group_of = read_manifest(manifest)
    return _load_files(schema, [(Path(p), group_of.get(Path(p), "offline")) for p in paths])


def load_corpus_from_manifest(manifest, groups=GROUP_NAMES) -> Corpus:
    """Load the files that the manifest's `groups` assign to one of `groups`,
    resolved relative to it. The whole manifest is read and checked; every
    other group comes back empty, so a workload id shared with one of them
    is not seen."""
    schema, group_of = read_manifest(manifest)
    if not group_of:
        raise DataError(f"manifest {manifest} names no input files")
    return _load_files(schema, [(p, g) for p, g in group_of.items() if g in groups])


def _load_files(schema: Schema, files) -> Corpus:
    """Parse each (path, group) file. Rows of one workload id in several files
    of a group are concatenated in file order; one id in two groups is a
    DataError."""
    parsed = {g: [] for g in GROUP_NAMES}
    for path, group in files:
        parsed[group].append(parse_csv(read_text(path), schema, str(path)))
    k, m = schema.n_knobs, schema.n_metrics
    group_of: dict[str, str] = {}
    tables: dict[str, list[WorkloadTable]] = {g: [] for g in GROUP_NAMES}
    for group in GROUP_NAMES:
        if not parsed[group]:
            continue
        ids = [wid for file_ids, _ in parsed[group] for wid in file_ids]
        values = np.concatenate([v for _, v in parsed.pop(group)])  # frees the file arrays
        # a stable sort: each id's rows stay in file order, then line order
        for wid, run in groupby(sorted(range(len(ids)), key=ids.__getitem__), ids.__getitem__):
            if group_of.setdefault(wid, group) != group:
                raise DataError(f"workload id {wid!r} appears in groups "
                                f"{group_of[wid]} and {group}")
            idx = list(run)
            tables[group].append(WorkloadTable(wid, values[idx, :k], values[idx, k:k + m],
                                               values[idx, -1], schema))
    return Corpus(*(tuple(tables[g]) for g in GROUP_NAMES), schema)


def column_stats(rows: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The mean and population std of each column of `rows`, named by `names`.
    Fewer than 2 rows is a DataError; a mean or std past the float range is a
    NumericalError naming the first such column."""
    if rows.shape[0] < 2:
        raise DataError(f"column statistics need at least 2 rows, have {rows.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        means, stds = rows.mean(axis=0), rows.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if bad.size:
        j = bad[0]
        raise NumericalError(f"column {names[j]!r} overflows: mean {means[j]}, std {stds[j]}")
    return means, stds


def drop_constant_columns(corpus: Corpus) -> tuple[Corpus, list[str]]:
    """Remove knob/metric columns constant across every row of every table.

    Equality is exact on the parsed doubles. Latency and workload-id columns
    are never dropped. Returns the new corpus and the dropped names, sorted.
    """
    tables = corpus.all_tables()
    if not tables:
        return corpus, []
    schema = corpus.schema
    # every table has a row, so each stack has a first row; (N, 0) keeps none
    knob_keep, metric_keep = (np.any(mat != mat[0], axis=0) for mat in (
        np.vstack([t.knobs for t in tables]), np.vstack([t.metrics for t in tables])))
    dropped = sorted(
        [n for n, k in zip(schema.knob_names, knob_keep) if not k]
        + [n for n, k in zip(schema.metric_names, metric_keep) if not k]
    )
    if not dropped:
        return corpus, []

    new_schema = replace(
        schema, knob_names=tuple(n for n, k in zip(schema.knob_names, knob_keep) if k),
        metric_names=tuple(n for n, k in zip(schema.metric_names, metric_keep) if k))

    def strip(table):
        return replace(table, knobs=table.knobs[:, knob_keep],
                       metrics=table.metrics[:, metric_keep], schema=new_schema)

    return Corpus(*(tuple(map(strip, corpus.group(g))) for g in GROUP_NAMES), new_schema), dropped


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
