"""MAPE/MSE metrics and model-comparison reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import Schema, csv_text, parse_csv

MAPE_EPS = 1e-6
# a predictions CSV as ingest reads it: values are (prediction, truth)
_PREDICTIONS = Schema((), ("prediction",), "truth", "workload_id")


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
        return csv_text(["workload_id", "truth", "prediction"],
                        [[p[i] for p in self.per_point] for i in range(3)])


def parse_predictions_csv(text: str, model_name: str) -> EvalReport:
    """Read `predictions_csv` text back with the corpus reader's rules; errors
    are named `<model_name>:<line>`."""
    ids, values = parse_csv(text, _PREDICTIONS, model_name)
    return EvalReport(model_name, tuple(zip(ids, values[:, 1].tolist(), values[:, 0].tolist())))


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
    csv = csv_text(header, [[getattr(r, name) for r in ordered]
                            for name in ("model_name", "mape", "mse", "n")])
    return csv, "\n".join(text_lines) + "\n"
