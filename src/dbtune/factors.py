"""Factor extraction over the metric-by-configuration matrix.

Each metric row is standardized across configurations, then decomposed with
an SVD of X/sqrt(n_configs). Squared singular values are the factor
eigenvalues; loadings are the left singular vectors scaled by their singular
values, so with all factors kept loadings @ loadings.T reproduces the metric
correlation matrix. Factors with eigenvalue > 1 are retained, capped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .ingest import WorkloadTable, column_stats, csv_text

DEFAULT_FACTOR_CAP = 30


@dataclass(frozen=True)
class MetricMatrix:
    """Standardized metrics-by-configurations matrix.

    Rows are metrics (mean 0, variance 1 across columns); columns are all
    offline observations in workload-id order. Zero-variance rows are
    excluded and listed in `dropped_zero_variance`.
    """

    values: np.ndarray
    metric_names: tuple[str, ...]
    dropped_zero_variance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise NumericalError("metric matrix contains non-finite values")

    @property
    def n_configs(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FactorModel:
    """Metric loadings with per-factor eigenvalues, descending."""

    loadings: np.ndarray  # (n_metrics, retained)
    eigenvalues: np.ndarray  # all extracted factors, descending
    metric_names: tuple[str, ...]

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise NumericalError("eigenvalues not sorted descending")
        if np.any(self.eigenvalues < -1e-8):
            raise NumericalError("negative eigenvalue")

    @property
    def retained(self) -> int:
        return self.loadings.shape[1]

    @property
    def points(self) -> np.ndarray:
        """Metric coordinates in retained-factor space (one row per metric)."""
        return self.loadings


def build_metric_matrix(offline: list[WorkloadTable]) -> MetricMatrix:
    """Stack all offline observations into a standardized metric matrix.

    Columns follow workload-id sorted order, then row order within each
    workload. Standardization uses the population standard deviation. Rows
    of equal values are dropped (a constant 0.1 has a std of ~1e-17, not 0).
    """
    if not offline:
        raise DataError("no offline workloads")
    schema = offline[0].schema
    if schema.n_metrics < 1:
        raise DataError("no metric columns")
    tables = sorted(offline, key=lambda t: t.workload_id)
    cols = np.vstack([t.metrics for t in tables])  # (n_configs, n_metrics)
    mean, std = column_stats(cols, schema.metric_names)
    x = cols.T
    nonconstant = np.any(x != x[:, :1], axis=1)
    dropped = tuple(n for n, keep in zip(schema.metric_names, nonconstant) if not keep)
    x = (x[nonconstant] - mean[nonconstant, None]) / std[nonconstant, None]
    names = tuple(n for n, keep in zip(schema.metric_names, nonconstant) if keep)
    if not names:
        raise DataError("all metric rows have zero variance")
    return MetricMatrix(values=x, metric_names=names, dropped_zero_variance=dropped)


def fit_factors(x: MetricMatrix) -> FactorModel:
    """Extract factors by SVD of the standardized matrix scaled by 1/sqrt(n).

    Eigenvalue j is the squared singular value j; loading column j is the
    left singular vector scaled by the singular value. The largest-magnitude
    entry of each loading column is made positive so output is deterministic.
    """
    try:
        u, s, _ = np.linalg.svd(x.values / np.sqrt(x.n_configs), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    eigenvalues = s ** 2
    loadings = u * s
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            loadings[:, j] = -col
    return FactorModel(loadings=loadings, eigenvalues=eigenvalues, metric_names=x.metric_names)


def retain_significant(model: FactorModel, cap: int = DEFAULT_FACTOR_CAP) -> FactorModel:
    """Keep at most `cap` factors with eigenvalue strictly greater than 1.

    If none exceeds 1, a single factor is kept and a warning emitted.
    """
    if cap < 1:
        raise DataError(f"factor cap must be >= 1, got {cap}")
    significant = int(np.sum(model.eigenvalues > 1.0))
    if significant == 0:
        warnings.warn("no factor has eigenvalue > 1; retaining 1 factor", stacklevel=2)
        significant = 1
    return FactorModel(loadings=model.loadings[:, :min(cap, significant)],
                       eigenvalues=model.eigenvalues, metric_names=model.metric_names)


def export_loadings_csv(model: FactorModel) -> str:
    """Loadings as CSV text: metric name plus one column per retained factor."""
    return csv_text(["metric"] + [f"factor_{j}" for j in range(model.retained)],
                    [model.metric_names, *model.points.T.tolist()])


def export_eigenvalues_csv(model: FactorModel) -> str:
    """Eigenvalues as CSV text, one row per extracted factor."""
    return csv_text(["factor", "eigenvalue"],
                    [range(len(model.eigenvalues)), model.eigenvalues.tolist()])
