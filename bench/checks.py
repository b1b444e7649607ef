"""Output checks against the planted ground truth of a synthetic corpus.

Nothing here reuses the code under test except `parse_predictions_csv`,
which the quality metrics are defined by.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from dbtune import evaluate
from dbtune.errors import DataError

# a correct program stays inside these on every corpus; like the workloads'
# hit-rate floors they catch a broken stage, not a small quality change.
# A predictor stuck near 0 reads about 100% MAPE.
MAX_MAPE_PCT = 75.0
MIN_RECALL = 0.75
MAX_K_ERROR = 3


@dataclass(frozen=True)
class Planted:
    """What a corpus's generator knows that the program has to recover."""

    planted_source_of: dict[str, str]  # online workload -> offline source
    latent_of_metric: dict[str, int]  # metric name -> planted group
    n_latent: int
    truth_b: list[tuple[str, float]]  # sorted (workload, latency) the B predictions score
    truth_c: list[tuple[str, float]]


def planted_truth(corpus, truth, held_out_row: int | None) -> Planted:
    """Planted facts of a generated corpus; `held_out_row` is the one row per
    online table that the pipeline predicts, None when every row is predicted."""
    def rows(tables):
        return sorted((t.workload_id, float(lat)) for t in tables
                      for i, lat in enumerate(t.latency)
                      if held_out_row is None or i == held_out_row)
    return Planted(
        planted_source_of=dict(truth.planted_source_of),
        latent_of_metric=dict(zip(corpus.schema.metric_names, truth.latent_of_metric)),
        n_latent=len(set(truth.latent_of_metric)),
        truth_b=rows(corpus.online_b),
        truth_c=rows(corpus.online_c),
    )


def chosen_sources(map_report: str) -> dict[str, str]:
    """target -> chosen source, from a map_report.csv."""
    chosen = {}
    for line in map_report.splitlines()[1:]:
        target, source, _score, flag, _dropped = line.split(",")
        if flag == "1":
            chosen[target] = source
    return chosen


def hit_rate(chosen: dict[str, str], planted_source_of: dict[str, str]) -> tuple[int, int]:
    """(hits, targets). A target maps correctly when its chosen source has its
    planted source; a C target mapped onto a B workload therefore hits when
    that B workload was planted from the C target's own source."""
    hits = sum(planted_source_of.get(source, source) == planted_source_of[target]
               for target, source in chosen.items())
    return hits, len(chosen)


def group_recall(pruned: list[str], latent_of_metric: dict[str, int], n_latent: int) -> float:
    """Share of planted metric groups with a representative among the pruned metrics."""
    return len({latent_of_metric[m] for m in pruned}) / n_latent


@dataclass(frozen=True)
class Quality:
    mape_b_pct: float
    mape_c_pct: float
    hits: int
    targets: int
    recall: float
    k_error: int


def check_outputs(workload, planted: Planted, out: Path
                  ) -> tuple[Quality | None, dict[str, list[str]]]:
    """Quality of one pass's outputs and its failed checks, keyed by the step
    whose directory holds the file; the quality is None when a check failed."""
    files = workload.outputs()
    failures: dict[str, list[str]] = {}

    def fail(role, message):
        failures.setdefault(files[role].split("/")[0], []).append(f"{files[role]}: {message}")

    def read(role):
        try:
            return (out / files[role]).read_text()
        except OSError as exc:
            fail(role, f"unreadable: {exc}")
            return None

    mape = {}
    for role, expected in (("pred_b", planted.truth_b), ("pred_c", planted.truth_c)):
        text = read(role)
        if text is None:
            continue
        try:
            report = evaluate.parse_predictions_csv(text, role)
        except DataError as exc:
            fail(role, f"unparsable: {exc}")
            continue
        if sorted((w, t) for w, t, _ in report.per_point) != expected:
            fail(role, "truth column differs from the planted latencies")
        elif not all(math.isfinite(p) for p in report.prediction):
            fail(role, "non-finite prediction")
        else:
            mape[role] = report.mape
            if report.mape > MAX_MAPE_PCT:
                fail(role, f"MAPE {report.mape:.2f}% above {MAX_MAPE_PCT}%")

    hits = targets = None
    text = read("map")
    chosen = None
    if text is not None:
        try:
            chosen = chosen_sources(text)
        except ValueError:
            fail("map", "unparsable")
    if chosen is not None and set(chosen) != set(planted.planted_source_of):
        fail("map", "targets differ from the planted online workloads")
    elif chosen is not None:
        hits, targets = hit_rate(chosen, planted.planted_source_of)
        if hits / targets < workload.min_hit_rate:
            fail("map", f"hit rate {hits}/{targets} below {workload.min_hit_rate}")

    recall = k_error = None
    text = read("pruned")
    if text is not None:
        names = text.split()
        known = planted.latent_of_metric.keys()
        if not names or len(set(names)) != len(names) or not set(names) <= known:
            fail("pruned", "pruned metrics empty, repeated or not in the schema")
        else:
            recall = group_recall(names, planted.latent_of_metric, planted.n_latent)
            k_error = abs(len(names) - planted.n_latent)
            if recall < MIN_RECALL or k_error > MAX_K_ERROR:
                fail("pruned", f"group recall {recall:.2f}, k error {k_error}")

    if failures:
        return None, failures
    return Quality(mape["pred_b"], mape["pred_c"], hits, targets, recall, k_error), failures


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by path relative to it."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Paths whose bytes differ between two digests, or that only one has."""
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
