"""MAPE/MSE metrics and model-comparison reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import csv_text

MAPE_EPS = 1e-6


def _check(truth, pred):
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise DataError(f"shape mismatch: {t.shape} vs {p.shape}")
    if t.size < 1:
        raise DataError("empty vectors")
    return t, p


def mape(truth, pred, axis=None):
    """Mean absolute percentage error over `axis` (every value by default), in
    percent, with a 1e-6 denominator guard: 100/n * sum(|t - p| / max(|t|, 1e-6))."""
    t, p = _check(truth, pred)
    n = t.size if axis is None else t.shape[axis]
    return 100.0 / n * np.sum(np.abs(t - p) / np.maximum(np.abs(t), MAPE_EPS), axis=axis)


def mse(truth, pred) -> float:
    """Mean squared error."""
    t, p = _check(truth, pred)
    return float(np.mean((t - p) ** 2))


@dataclass(frozen=True)
class EvalReport:
    """Per-model evaluation: metrics plus the per-point truth/prediction pairs."""

    model_name: str
    per_point: tuple[tuple[str, float, float], ...]  # (workload_id, truth, prediction)

    @property
    def n(self) -> int:
        return len(self.per_point)

    @property
    def truth(self) -> np.ndarray:
        return np.array([p[1] for p in self.per_point])

    @property
    def prediction(self) -> np.ndarray:
        return np.array([p[2] for p in self.per_point])

    @property
    def mape(self) -> float:
        return float(mape(self.truth, self.prediction))

    @property
    def mse(self) -> float:
        return mse(self.truth, self.prediction)

    def predictions_csv(self) -> str:
        return csv_text(["workload_id", "truth", "prediction"], self.per_point)


def parse_predictions_csv(text: str, model_name: str) -> EvalReport:
    lines = text.strip().splitlines()
    if not lines:
        raise DataError("empty predictions file")
    header = lines[0].split(",")
    for col in ("workload_id", "truth", "prediction"):
        if col not in header:
            raise DataError(f"predictions header missing column {col!r}")
    wid_i, t_i, p_i = (header.index(c) for c in ("workload_id", "truth", "prediction"))
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} cells")
        try:
            points.append((cells[wid_i], float(cells[t_i]), float(cells[p_i])))
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric truth/prediction") from None
        if not np.isfinite(points[-1][1:]).all():
            raise DataError(f"line {lineno}: non-finite truth/prediction")
        if points[-1][1] < 0:
            raise DataError(f"line {lineno}: negative truth {points[-1][1]}")
    if not points:
        raise DataError("predictions file has no rows")
    return EvalReport(model_name=model_name, per_point=tuple(points))


def compare_models(reports: list[EvalReport]) -> tuple[str, str]:
    """Render a summary sorted by MAPE ascending; returns (csv, aligned text)."""
    if not reports:
        raise DataError("no reports to compare")
    ordered = sorted(reports, key=lambda r: (r.mape, r.model_name))
    header = ("model", "mape", "mse", "n")
    rows = [header] + [(r.model_name, f"{r.mape:.4f}", f"{r.mse:.4f}", str(r.n))
                       for r in ordered]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    text_lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                  for row in rows]
    csv = csv_text(header, [(r.model_name, r.mape, r.mse, r.n) for r in ordered])
    return csv, "\n".join(text_lines) + "\n"
