"""Metric clustering in factor-loading space.

K-means (k-means++ init, 10 seeded restarts, Lloyd iterations) is the
baseline; a full-covariance Gaussian mixture fit by EM is the alternative.
The cluster count is swept over a candidate range and chosen by silhouette
score, with BIC as the GMM tie-breaker. One metric per cluster, the one
nearest its center, survives pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from .errors import DataError, NumericalError
from .factors import FactorModel

N_RESTARTS = 10
MAX_LLOYD_ITER = 300
MAX_EM_ITER = 200
EM_TOL = 1e-6
COV_REG = 1e-6


@dataclass(frozen=True)
class KMeansModel:
    k: int
    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (n,)
    inertia: float
    seed: int
    inertia_trace: tuple[float, ...] = ()

    def centers(self) -> np.ndarray:
        return self.centroids


@dataclass(frozen=True)
class GmmModel:
    k: int
    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, d)
    covariances: np.ndarray  # (k, d, d)
    log_likelihood_trace: tuple[float, ...]
    seed: int
    assignments: np.ndarray  # (n,) hard assignments at the returned parameters
    log_likelihood: float  # total log-likelihood at the returned parameters

    def centers(self) -> np.ndarray:
        return self.means

    def responsibilities(self, points: np.ndarray) -> np.ndarray:
        log_prob = _weighted_log_prob(points, self.weights, self.means, self.covariances)
        return np.exp(log_prob - logsumexp(log_prob, axis=1, keepdims=True))

    def total_log_likelihood(self, points: np.ndarray) -> float:
        log_prob = _weighted_log_prob(points, self.weights, self.means, self.covariances)
        return float(logsumexp(log_prob, axis=1).sum())


@dataclass(frozen=True)
class ClusterSelection:
    candidate_ks: tuple[int, ...]
    silhouette_by_k: dict[int, float]
    bic_by_k: dict[int, float]
    chosen_k: int
    model: "KMeansModel | GmmModel" = field(compare=False)

    def report_csv(self) -> str:
        lines = ["k,silhouette,bic,chosen"]
        for k in self.candidate_ks:
            bic = format(self.bic_by_k[k], ".17g") if k in self.bic_by_k else ""
            chosen = "1" if k == self.chosen_k else "0"
            lines.append(f"{k},{format(self.silhouette_by_k[k], '.17g')},{bic},{chosen}")
        return "\n".join(lines) + "\n"


def sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every point to every center, (n, k)."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, sq_dists(points, centroids[j:j + 1])[:, 0])
    return centroids


def _label_sums(values: np.ndarray, labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Row sums of `values` over the columns of each label, (rows, n_labels).

    `take` copies a label's columns C-ordered, so each row is summed pairwise
    exactly as `values[i, labels == j].sum()` is; `values[:, cols]` comes back
    F-ordered and sums in another order.
    """
    out = np.empty((values.shape[0], n_labels))
    for j in range(n_labels):
        out[:, j] = values.take(np.flatnonzero(labels == j), axis=1).sum(axis=1)
    return out


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    n, d = points.shape
    k = centroids.shape[0]
    centroids = centroids.copy()
    prev_assign = None
    trace: list[float] = []
    for _ in range(MAX_LLOYD_ITER):
        d2 = sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        if counts.min() == 0:
            # empty-cluster repair: reseed at the point farthest from its centroid
            for j in range(k):
                if not np.any(assign == j):
                    far = int(d2[np.arange(n), assign].argmax())
                    centroids[j] = points[far]
                    d2[:, j] = sq_dists(points, centroids[j:j + 1])[:, 0]
                    assign = d2.argmin(axis=1)
            counts = np.bincount(assign, minlength=k)
        # the summation order of points[assign == j].mean(axis=0): pairwise
        # down a single column, else row by row from +0.0, so -0.0 sums to +0.0
        if d == 1:
            sums = _label_sums(points.T, assign, k).T
        else:
            sums = np.zeros((k, d))
            np.add.at(sums, assign, points)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        diff = points - centroids[assign]
        inertia = float(np.einsum("ij,ij->i", diff, diff).sum())
        trace.append(inertia)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    return centroids, assign, trace[-1], trace


def fit_kmeans(points: np.ndarray, k: int, seed: int) -> KMeansModel:
    """Seeded k-means: k-means++ init, Lloyd iterations, best of 10 restarts."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 1:
        raise DataError("points must be a 2-D matrix")
    n = points.shape[0]
    if k < 1 or k > n:
        raise DataError(f"k={k} outside [1, {n}]")
    best = None
    for r in range(N_RESTARTS):
        rng = np.random.default_rng(seed + r)
        init = _kmeanspp_init(points, k, rng)
        centroids, assign, inertia, trace = _lloyd(points, init)
        if best is None or inertia < best[2]:
            best = (centroids, assign, inertia, trace)
    centroids, assign, inertia, trace = best
    return KMeansModel(k=k, centroids=centroids, assignments=assign,
                       inertia=inertia, seed=seed, inertia_trace=tuple(trace))


def _point_dists(points: np.ndarray) -> np.ndarray:
    """Euclidean distance between every pair of points, (n, n)."""
    return np.sqrt(sq_dists(points, points))


def silhouette_score(points: np.ndarray, assignments: np.ndarray,
                     dists: np.ndarray | None = None) -> float:
    """Mean silhouette over points; singleton-cluster points contribute 0.

    `dists` is the (n, n) matrix of distances between points, computed here
    when not given; `sweep_k` computes it once for all its candidates.
    """
    points = np.asarray(points, dtype=float)
    labels, inverse = np.unique(assignments, return_inverse=True)
    if labels.size < 2:
        raise DataError("silhouette needs at least 2 clusters")
    if dists is None:
        dists = _point_dists(points)
    rows = np.arange(points.shape[0])
    sums = _label_sums(dists, inverse, labels.size)
    sizes = np.bincount(inverse)
    own = sizes[inverse]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, inverse] / (own - 1)
        means = sums / sizes
        means[rows, inverse] = np.inf
        b = means.min(axis=1)
        top = np.maximum(a, b)
        scores = np.where((own > 1) & (top > 0), (b - a) / top, 0.0)
    return float(scores.mean())


def _init_gmm_from_kmeans(points, k, seed):
    km = fit_kmeans(points, k, seed)
    n, d = points.shape
    counts = np.bincount(km.assignments, minlength=k)
    if counts.min() == 0:
        raise DataError(f"k={k}: k-means left GMM component {int(counts.argmin())} empty")
    weights, means = counts / n, km.centroids  # Lloyd left each centroid at its members' mean
    covs = np.empty((k, d, d))
    for j in range(k):
        members = points[km.assignments == j]
        diff = members - means[j]
        covs[j] = diff.T @ diff / members.shape[0] + COV_REG * np.eye(d)
    return weights, means, covs


def _weighted_log_prob(points, weights, means, covs):
    n, d = points.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        try:
            chol = cholesky(covs[j], lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"component {j} covariance not PD: {exc}") from exc
        sol = solve_triangular(chol, (points - means[j]).T, lower=True)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = (
            np.log(max(weights[j], 1e-300))
            - 0.5 * (d * math.log(2 * math.pi) + log_det + np.sum(sol ** 2, axis=0))
        )
    return out


def fit_gmm_em(points: np.ndarray, k: int, seed: int) -> GmmModel:
    """Full-covariance Gaussian mixture fit by EM, initialized from k-means.

    Stops when the relative log-likelihood gain drops below 1e-6 or after 200
    iterations; every M-step adds 1e-6 * I to each covariance.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if k < 1 or k > n:
        raise DataError(f"k={k} outside [1, {n}]")
    weights, means, covs = _init_gmm_from_kmeans(points, k, seed)
    trace: list[float] = []
    # the pass that breaks has evaluated the returned parameters, on convergence or past the cap
    for it in range(MAX_EM_ITER + 1):
        log_prob = _weighted_log_prob(points, weights, means, covs)
        norm = logsumexp(log_prob, axis=1)
        resp = np.exp(log_prob - norm[:, None])
        if it == MAX_EM_ITER:
            break
        trace.append(float(norm.sum()))
        if len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL * max(1.0, abs(trace[-2])):
            break
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / nk.sum()
        means = (resp.T @ points) / nk[:, None]
        for j in range(k):
            diff = points - means[j]
            cov = (resp[:, j, None] * diff).T @ diff / nk[j]
            covs[j] = 0.5 * (cov + cov.T) + COV_REG * np.eye(d)
    return GmmModel(k=k, weights=weights, means=means, covariances=covs,
                    log_likelihood_trace=tuple(trace), seed=seed,
                    assignments=resp.argmax(axis=1), log_likelihood=float(norm.sum()))


def bic_score(model: GmmModel, points: np.ndarray) -> float:
    """p * ln(n) - 2 * logL of the fitted rows, p = (k-1) + k*d + k*d*(d+1)/2; lower is better."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n != len(model.assignments):
        raise DataError(f"model was fitted on {len(model.assignments)} rows, not {n}")
    k = model.k
    p = (k - 1) + k * d + k * d * (d + 1) // 2
    return p * math.log(n) - 2.0 * model.log_likelihood


def sweep_k(points: np.ndarray, method: str, ks, seed: int = 0) -> ClusterSelection:
    """Fit every candidate k and choose by silhouette.

    K-means ties break toward smaller k; GMM ties break by lower BIC, then
    smaller k. Hard GMM assignments that collapse to one cluster score -1 so
    they are never chosen.
    """
    points = np.asarray(points, dtype=float)
    ks = tuple(sorted(ks))
    if not ks:
        raise DataError("empty candidate k list")
    if max(ks) > points.shape[0]:
        raise DataError(f"max k {max(ks)} exceeds point count {points.shape[0]}")
    if min(ks) < 2:
        raise DataError("candidate ks must be >= 2")
    if method not in ("kmeans", "gmm"):
        raise DataError(f"unknown clustering method {method!r}")

    dists = _point_dists(points)
    sil: dict[int, float] = {}
    bic: dict[int, float] = {}
    models = {}
    for k in ks:
        if method == "kmeans":
            model = fit_kmeans(points, k, seed)
        else:
            model = fit_gmm_em(points, k, seed)
            bic[k] = bic_score(model, points)
        models[k] = model
        assign = model.assignments
        sil[k] = silhouette_score(points, assign, dists) if np.unique(assign).size >= 2 else -1.0

    chosen = min(ks, key=lambda k: (-sil[k], bic.get(k, 0.0), k))  # k-means has no BIC
    return ClusterSelection(candidate_ks=ks, silhouette_by_k=sil, bic_by_k=bic,
                            chosen_k=chosen, model=models[chosen])


def select_representatives(model, loadings: FactorModel) -> tuple[str, ...]:
    """Names of the metrics picked, one per cluster: the one whose loading row
    is nearest the cluster's center.

    Ties break toward the lexicographically smaller metric name. A cluster
    left empty by hard GMM assignment falls back to the nearest not-yet-chosen
    metric.
    """
    names = loadings.metric_names
    points = loadings.points
    if not points.shape[0] == len(names) == len(model.assignments):
        raise DataError("metric names, loading rows and the model's fitted rows do not align")
    dists = np.sqrt(sq_dists(points, model.centers()))
    assign = model.assignments.tolist()
    chosen: list[int] = []
    for j in range(dists.shape[1]):
        free = [i for i in range(len(names)) if i not in chosen]
        if not free:
            raise DataError("more clusters than metrics")
        members = [i for i in free if assign[i] == j] or free
        chosen.append(min(members, key=lambda i: (dists[i, j], names[i])))
    return tuple(names[i] for i in chosen)
