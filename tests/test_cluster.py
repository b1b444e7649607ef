import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from dbtune import cluster
from dbtune.errors import DataError, NumericalError
from dbtune.factors import FactorModel


def blobs(centers, per_blob, spread, seed):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    return np.vstack([c + spread * rng.normal(size=(per_blob, centers.shape[1]))
                      for c in centers])


def factor_model_for(points, names):
    points = np.asarray(points, dtype=float)
    ev = np.sort(np.ones(points.shape[1]) * 2.0)[::-1]
    return FactorModel(loadings=points, eigenvalues=ev, metric_names=tuple(names))


class TestKMeans:
    def test_each_point_its_own_centroid(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [5, 5]])
        model = cluster.fit_kmeans(pts, 4, seed=0)
        assert model.inertia < 1e-12

    def test_k1_is_mean(self):
        pts = np.array([[1.0, 2], [3, 4], [5, 0]])
        model = cluster.fit_kmeans(pts, 1, seed=0)
        assert np.allclose(model.centroids[0], pts.mean(axis=0))

    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0], [0, 1], [10, 10], [10, 11]])
        model = cluster.fit_kmeans(pts, 2, seed=0)
        got = sorted(model.centroids.tolist())
        assert np.allclose(got, [[0, 0.5], [10, 10.5]])
        # brute force over all 2-partitions
        best = min(
            (sum(np.sum((pts[list(part)] - pts[list(part)].mean(0)) ** 2)
                 for part in (subset, rest))
             for subset, rest in _two_partitions(4)),
        )
        assert abs(model.inertia - best) < 1e-9

    def test_inertia_matches_definition(self):
        pts = np.random.default_rng(4).normal(size=(20, 3))
        model = cluster.fit_kmeans(pts, 4, seed=1)
        direct = sum(np.sum((pts[i] - model.centroids[model.assignments[i]]) ** 2)
                     for i in range(20))
        assert abs(model.inertia - direct) < 1e-9

    def test_inertia_trace_non_increasing(self):
        pts = np.random.default_rng(7).normal(size=(30, 2))
        model = cluster.fit_kmeans(pts, 3, seed=0)
        trace = np.array(model.inertia_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_deterministic(self):
        pts = np.random.default_rng(11).normal(size=(25, 2))
        a = cluster.fit_kmeans(pts, 3, seed=5)
        b = cluster.fit_kmeans(pts, 3, seed=5)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_duplicate_points_still_succeed(self):
        pts = np.array([[1.0, 1], [1, 1], [1, 1], [2, 2]])
        model = cluster.fit_kmeans(pts, 3, seed=0)
        assert model.k == 3
        assert np.all(np.isfinite(model.centroids))
        assert model.inertia == 0.0  # duplicates already sit on their centroid

    def test_k_too_large(self):
        with pytest.raises(DataError):
            cluster.fit_kmeans(np.zeros((2, 1)), 3, seed=0)

    def test_global_optimum_small_instances(self):
        # restarts find the enumerated global optimum for <= 8 points, k <= 3
        rng = np.random.default_rng(2)
        for trial in range(3):
            pts = rng.normal(size=(7, 2))
            for k in (2, 3):
                model = cluster.fit_kmeans(pts, k, seed=trial)
                best = _brute_force_kmeans(pts, k)
                assert model.inertia <= best + 1e-9


def _two_partitions(n):
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            rest = tuple(i for i in range(n) if i not in subset)
            if subset[0] == 0:
                yield subset, rest


def _brute_force_kmeans(pts, k):
    n = len(pts)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        labels = np.array(labels)
        cost = sum(np.sum((pts[labels == j] - pts[labels == j].mean(0)) ** 2)
                   for j in range(k))
        best = min(best, cost)
    return best


class TestSilhouette:
    def test_tight_far_clusters(self):
        pts = np.array([[0.0, 0], [0, 1e-3], [1e3, 0], [1e3, 1e-3]])
        assign = np.array([0, 0, 1, 1])
        assert cluster.silhouette_score(pts, assign) > 0.99

    def test_interleaved_identical_near_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 2))
        assign = np.arange(40) % 2  # arbitrary split of one distribution
        assert abs(cluster.silhouette_score(pts, assign)) < 0.1

    def test_coincident_clusters_nonpositive(self):
        pts = np.array([[0.0, 0], [1, 1], [0, 0], [1, 1]])
        assign = np.array([0, 0, 1, 1])
        assert cluster.silhouette_score(pts, assign) <= 0.0

    def test_matches_direct_formula(self):
        pts = np.array([[0.0], [1.0], [5.0], [6.0], [2.5]])
        assign = np.array([0, 0, 1, 1, 0])
        dists = np.abs(pts - pts.T)
        vals = []
        for i in range(5):
            own = assign == assign[i]
            a = dists[i, own].sum() / (own.sum() - 1)
            b = dists[i, ~own].mean()
            vals.append((b - a) / max(a, b))
        assert abs(cluster.silhouette_score(pts, assign) - np.mean(vals)) < 1e-12

    def test_single_cluster_rejected(self):
        with pytest.raises(DataError):
            cluster.silhouette_score(np.zeros((3, 1)), np.zeros(3, dtype=int))

    def test_singleton_contributes_zero(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        assign = np.array([0, 0, 1])
        score = cluster.silhouette_score(pts, assign)
        assert -1.0 <= score <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_range_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        pts = rng.normal(size=(n, 2))
        assign = rng.integers(0, 2, size=n)
        if len(np.unique(assign)) < 2:
            assign[0] = 0
            assign[1] = 1
        assert -1.0 <= cluster.silhouette_score(pts, assign) <= 1.0


class TestSweepK:
    def test_eight_blobs(self):
        centers = [[i * 10.0, (i % 3) * 10.0] for i in range(8)]
        pts = blobs(centers, per_blob=4, spread=0.1, seed=0)
        sel = cluster.sweep_k(pts, "kmeans", range(2, 16), seed=0)
        assert sel.chosen_k == 8

    def test_two_blobs(self):
        pts = blobs([[0.0, 0], [20, 20]], per_blob=5, spread=0.2, seed=1)
        sel = cluster.sweep_k(pts, "kmeans", range(2, 8), seed=0)
        assert sel.chosen_k == 2

    def test_tie_breaks_to_smaller_k(self, monkeypatch):
        monkeypatch.setattr(cluster, "silhouette_score", lambda p, a, dists=None: 0.5)
        pts = blobs([[0.0, 0], [10, 10]], per_blob=5, spread=0.1, seed=0)
        sel = cluster.sweep_k(pts, "kmeans", (3, 4), seed=0)
        assert sel.chosen_k == 3

    def test_gmm_tie_breaks_by_bic(self, monkeypatch):
        monkeypatch.setattr(cluster, "silhouette_score", lambda p, a, dists=None: 0.5)
        pts = blobs([[0.0, 0], [10, 10], [20, 0]], per_blob=6, spread=0.3, seed=2)
        sel = cluster.sweep_k(pts, "gmm", (2, 3), seed=0)
        assert sel.chosen_k == min((2, 3), key=lambda k: sel.bic_by_k[k])

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(DataError):
            cluster.sweep_k(np.zeros((4, 1)), "kmeans", (2, 5), seed=0)

    def test_report_csv(self):
        pts = blobs([[0.0, 0], [20, 20]], per_blob=5, spread=0.2, seed=1)
        sel = cluster.sweep_k(pts, "gmm", (2, 3), seed=0)
        lines = sel.report_csv().strip().splitlines()
        assert lines[0] == "k,silhouette,bic,chosen"
        assert len(lines) == 3


class TestGmmEm:
    def test_k1_single_component_mle(self):
        pts = np.random.default_rng(0).normal(size=(30, 2))
        model = cluster.fit_gmm_em(pts, 1, seed=0)
        assert np.allclose(model.means[0], pts.mean(axis=0), atol=1e-8)
        diff = pts - pts.mean(axis=0)
        cov = diff.T @ diff / 30 + cluster.COV_REG * np.eye(2)
        assert np.allclose(model.covariances[0], cov, atol=1e-6)

    def test_two_components_recover_means(self):
        rng = np.random.default_rng(3)
        a = rng.normal(loc=[0, 0], scale=0.5, size=(60, 2))
        b = rng.normal(loc=[8, 8], scale=0.5, size=(60, 2))
        model = cluster.fit_gmm_em(np.vstack([a, b]), 2, seed=0)
        se = 0.5 / np.sqrt(60)
        got = sorted(model.means.tolist())
        assert np.all(np.abs(np.array(got[0]) - a.mean(0)) < 3 * se + 0.05)
        assert np.all(np.abs(np.array(got[1]) - b.mean(0)) < 3 * se + 0.05)

    def test_loglik_trace_non_decreasing(self):
        for seed in range(3):
            pts = np.random.default_rng(seed).normal(size=(40, 3))
            model = cluster.fit_gmm_em(pts, 3, seed=seed)
            trace = np.array(model.log_likelihood_trace)
            assert np.all(np.diff(trace) >= -1e-7)

    def test_responsibilities_sum_to_one(self):
        pts = np.random.default_rng(1).normal(size=(25, 2))
        model = cluster.fit_gmm_em(pts, 3, seed=0)
        resp = model.responsibilities(pts)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_weights_sum_to_one(self):
        pts = np.random.default_rng(2).normal(size=(25, 2))
        model = cluster.fit_gmm_em(pts, 4, seed=0)
        assert abs(model.weights.sum() - 1.0) < 1e-9
        assert np.all(model.weights >= 0)

    def test_covariances_symmetric(self):
        pts = np.random.default_rng(5).normal(size=(30, 3))
        model = cluster.fit_gmm_em(pts, 2, seed=0)
        for cov in model.covariances:
            assert np.max(np.abs(cov - cov.T)) < 1e-9


def _reference_weighted_log_prob(points, weights, means, covs):
    """The E-step's weighted log densities through scipy's cholesky and
    solve_triangular."""
    n, d = points.shape
    out = np.empty((n, len(means)))
    for j in range(len(means)):
        chol = cholesky(covs[j], lower=True)
        sol = solve_triangular(chol, (points - means[j]).T, lower=True)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = (np.log(max(weights[j], 1e-300))
                     - 0.5 * (d * math.log(2 * math.pi) + log_det + np.sum(sol ** 2, axis=0)))
    return out


class TestEStep:
    """The E-step factors each covariance with LAPACK directly."""

    def test_equals_reference(self):
        for rng, points in _exactness_cases(60, seed=2):
            n, d = points.shape
            k = int(rng.integers(1, 6))
            a = rng.normal(size=(k, d, d)) * 10.0 ** rng.uniform(-3, 3)
            covs = a @ a.transpose(0, 2, 1) + cluster.COV_REG * np.eye(d)
            weights = rng.dirichlet(np.ones(k))
            weights[0] = 0.0  # floored at 1e-300
            means = points[rng.integers(0, n, size=k)]
            got = cluster._weighted_log_prob(points, weights, means, covs)
            assert got.tobytes() == _reference_weighted_log_prob(
                points, weights, means, covs).tobytes()
        # and at the parameters of a fit
        points = blobs([[0, 0, 0], [4, 4, 0], [0, 4, 4]], 20, 0.5, seed=4)
        m = cluster.fit_gmm_em(points, 3, seed=0)
        assert cluster._weighted_log_prob(points, m.weights, m.means, m.covariances).tobytes() \
            == _reference_weighted_log_prob(points, m.weights, m.means, m.covariances).tobytes()

    def _params(self):
        points = np.random.default_rng(0).normal(size=(10, 2))
        return points, np.array([0.5, 0.5]), points[:2].copy(), np.stack([np.eye(2)] * 2)

    def test_covariance_not_pd_refused(self):
        points, weights, means, covs = self._params()
        covs[1] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(NumericalError, match="^component 1 covariance not PD: 2-th leading "
                                                 "minor of the array is not positive definite$"):
            cluster._weighted_log_prob(points, weights, means, covs)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariance_refused(self, value):
        points, weights, means, covs = self._params()
        covs[1, 1, 0] = value
        with pytest.raises(NumericalError, match=f"^component 1 covariance holds {value}$"):
            cluster._weighted_log_prob(points, weights, means, covs)


class TestBic:
    def test_hand_formula(self):
        # k=1, d=1, n=100, logL=-150 -> BIC = 2 ln(100) + 300
        pts = np.random.default_rng(0).normal(size=(100, 1))
        model = cluster.fit_gmm_em(pts, 1, seed=0)
        expected = 2 * np.log(100) - 2 * model.total_log_likelihood(pts)
        assert abs(cluster.bic_score(model, pts) - expected) < 1e-9
        # parameter count formula: p = (k-1) + k*d + k*d*(d+1)/2 = 2 for k=d=1
        fake_ll = -150.0
        assert abs((2 * np.log(100) - 2 * fake_ll) - (2 * np.log(100) + 300)) < 1e-12

    def test_penalty_monotone_in_k(self):
        pts = np.random.default_rng(1).normal(size=(50, 2))
        m2 = cluster.fit_gmm_em(pts, 2, seed=0)
        ll = m2.total_log_likelihood(pts)
        # same logL, larger k -> larger BIC (evaluate penalty directly)
        def penalty(k, d=2, n=50):
            return ((k - 1) + k * d + k * d * (d + 1) // 2) * np.log(n)
        assert penalty(3) - 2 * ll > penalty(2) - 2 * ll

    def test_recovers_planted_component_count(self):
        rng = np.random.default_rng(42)
        pts = np.vstack([
            rng.normal(loc=[0, 0], scale=0.4, size=(50, 2)),
            rng.normal(loc=[6, 0], scale=0.4, size=(50, 2)),
            rng.normal(loc=[3, 5], scale=0.4, size=(50, 2)),
        ])
        bics = {k: cluster.bic_score(cluster.fit_gmm_em(pts, k, seed=0), pts)
                for k in range(1, 7)}
        assert min(bics, key=bics.get) == 3


class TestSelectRepresentatives:
    def test_singleton_cluster(self):
        pts = np.array([[0.0, 0], [10, 10], [10, 11]])
        fm = factor_model_for(pts, ["a", "b", "c"])
        model = cluster.fit_kmeans(pts, 2, seed=0)
        pruned = cluster.select_representatives(model, fm)
        assert "a" in pruned
        assert len(pruned) == 2

    def test_closest_wins(self):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
        fm = factor_model_for(pts, ["A", "B", "C"])
        model = cluster.KMeansModel(
            k=2, centroids=np.array([[0.0, 0.0], [5.0, 5.0]]),
            assignments=np.array([0, 0, 1]), inertia=0.0)
        pruned = cluster.select_representatives(model, fm)
        assert pruned == ("A", "C")

    def test_equidistant_tie_breaks_lexicographic(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        fm = factor_model_for(pts, ["zeta", "alpha", "far"])
        model = cluster.KMeansModel(
            k=2, centroids=np.array([[0.0, 0.0], [5.0, 5.0]]),
            assignments=np.array([0, 0, 1]), inertia=0.0)
        pruned = cluster.select_representatives(model, fm)
        assert pruned == ("alpha", "far")

    def test_one_per_cluster_distinct(self):
        pts = blobs([[0.0, 0], [10, 0], [0, 10]], per_blob=4, spread=0.1, seed=3)
        names = [f"m{i:02d}" for i in range(12)]
        fm = factor_model_for(pts, names)
        model = cluster.fit_kmeans(pts, 3, seed=0)
        pruned = cluster.select_representatives(model, fm)
        assert len(set(pruned)) == 3


def _sum_left_to_right(values):
    """Sum along axis 0, one value at a time from +0.0: the order in which
    `cluster` sums every per-label group."""
    total = np.zeros(values.shape[1:])
    for v in values:
        total = total + v
    return total


def _reference_silhouette(points, assignments):
    """The per-point silhouette loop that `silhouette_score` replaced, its
    sums taken left to right."""
    labels = np.unique(assignments)
    dists = np.sqrt(np.maximum(cluster.sq_dists(points, points), 0.0))
    scores = np.zeros(points.shape[0])
    sizes = {lab: int(np.sum(assignments == lab)) for lab in labels}
    for i in range(points.shape[0]):
        own = assignments[i]
        if sizes[own] == 1:
            continue
        a = _sum_left_to_right(dists[i, assignments == own]) / (sizes[own] - 1)
        b = min(_sum_left_to_right(dists[i, assignments == lab]) / sizes[lab]
                for lab in labels if lab != own)
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def _reference_lloyd(points, centroids):
    """The Lloyd iterations with per-cluster loops that `_lloyd` replaced,
    each member mean summed left to right."""
    n = points.shape[0]
    k = centroids.shape[0]
    centroids = centroids.copy()
    prev_assign = None
    trace = []
    for _ in range(cluster.MAX_LLOYD_ITER):
        d2 = cluster.sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(assign == j):
                far = int(d2[np.arange(n), assign].argmax())
                centroids[j] = points[far]
                d2[:, j] = np.sum((points - centroids[j]) ** 2, axis=1)
                assign = d2.argmin(axis=1)
        for j in range(k):
            members = assign == j
            if np.any(members):
                centroids[j] = _sum_left_to_right(points[members]) / members.sum()
        trace.append(float(cluster.sq_dists(points, centroids)[np.arange(n), assign].sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    return centroids, assign, trace[-1], trace


def _exactness_cases(count, seed):
    """Random point sets: d = 1 to 24, scales 1e-3 to 1e3, every fourth one
    with duplicate points and every fourth one with many -0.0 coordinates."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 60))
        d = (1, 1, 2, 3, 8, 24)[case % 6]
        points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        if case % 4 == 1:
            points = points[rng.integers(0, max(1, n // 4), size=n)]
        elif case % 4 == 2:
            points[rng.random(points.shape) < 0.4] = -0.0
            points[rng.random(points.shape) < 0.1] = 0.0
        yield rng, points


class TestVectorisedExactness:
    """The loop-free silhouette and Lloyd step give the bytes of the loops,
    each summing left to right from +0.0."""

    def test_silhouette_bit_equal_to_per_point_loop(self):
        singletons = 0
        for rng, points in _exactness_cases(240, seed=0):
            n = points.shape[0]
            labels = rng.integers(0, int(rng.integers(2, n + 1)), size=n) * 3
            if np.unique(labels).size < 2:
                continue
            singletons += int((np.bincount(labels) == 1).any())
            want = _reference_silhouette(points, labels)
            dists = np.sqrt(np.maximum(cluster.sq_dists(points, points), 0.0))
            assert np.float64(cluster.silhouette_score(points, labels)).tobytes() \
                == np.float64(want).tobytes()
            assert cluster.silhouette_score(points, labels, dists) == want
        assert singletons > 50

    def test_lloyd_bit_equal_to_per_cluster_loops(self):
        repaired = 0
        for rng, points in _exactness_cases(240, seed=1):
            n = points.shape[0]
            k = int(rng.integers(1, n + 1))
            # drawn with replacement, so equal starting centroids leave clusters empty
            init = points[rng.integers(0, n, size=k)]
            repaired += int(np.bincount(cluster.sq_dists(points, init).argmin(axis=1),
                                        minlength=k).min() == 0)
            want = _reference_lloyd(points, init)
            got = cluster._lloyd(points, init)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2] and got[3] == want[3]
        assert repaired > 50


class TestSweepSeedsOnce:
    """A sweep draws each restart's k-means++ seeding once, at its largest k,
    and gives every k the same fits as a fit of that k alone."""

    def test_seeding_prefix_equals_seeding_at_smaller_k(self):
        exhausted = 0
        for rng, points in _exactness_cases(120, seed=3):
            n = points.shape[0]
            top = int(rng.integers(1, n + 1))
            seed = int(rng.integers(0, 1000))
            full = cluster._kmeanspp_init(points, top, np.random.default_rng(seed))
            for k in range(1, top + 1):
                alone = cluster._kmeanspp_init(points, k, np.random.default_rng(seed))
                assert full[:k].tobytes() == alone.tobytes()
            # fewer distinct rows than centers: the draws run out of distance
            # and take the `total <= 0` branch
            exhausted += int(np.unique(points, axis=0).shape[0] < top)
        assert exhausted > 10

    @pytest.mark.parametrize("method", ["kmeans", "gmm"])
    def test_sweep_bit_equal_to_fits_of_each_k(self, method, monkeypatch):
        fit = cluster.fit_kmeans if method == "kmeans" else cluster.fit_gmm_em
        fields = (("centroids", "assignments", "inertia", "inertia_trace")
                  if method == "kmeans" else
                  ("weights", "means", "covariances", "assignments",
                   "log_likelihood_trace", "log_likelihood"))
        draws = []
        draw = cluster._kmeanspp_init
        monkeypatch.setattr(cluster, "_kmeanspp_init",
                            lambda p, k, rng: draws.append(k) or draw(p, k, rng))
        for seed in range(3):
            centers = [[i * 6.0, (i % 3) * 6.0, i % 2] for i in range(5)]
            pts = blobs(centers, per_blob=6, spread=1.5, seed=seed)
            ks = range(2, 9)
            draws.clear()
            sel = cluster.sweep_k(pts, method, ks, seed=seed)
            assert draws == [max(ks)] * cluster.N_RESTARTS
            for k in ks:
                model = fit(pts, k, seed)
                sil = (cluster.silhouette_score(pts, model.assignments)
                       if np.unique(model.assignments).size >= 2 else -1.0)
                assert np.float64(sel.silhouette_by_k[k]).tobytes() == np.float64(sil).tobytes()
                if method == "gmm":
                    assert np.float64(sel.bic_by_k[k]).tobytes() == \
                        np.float64(cluster.bic_score(model, pts)).tobytes()
                if k == sel.chosen_k:
                    for name in fields:
                        got, want = getattr(sel.model, name), getattr(model, name)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


class TestKeptDistances:
    """Lloyd keeps one matrix of squared distances: the seedings bring their
    distances, and a step computes only the columns of centroids that moved."""

    def test_sq_dists_bit_equal_to_broadcast_differences(self):
        shapes = set()
        for rng, points in _exactness_cases(240, seed=5):
            n, d = points.shape
            k = int(rng.integers(1, 2 * n + 2))
            # centers on the points (their differences hold +-0.0) or off them
            centers = points[rng.integers(0, n, size=k)]
            if rng.random() < 0.5:
                centers = centers + rng.normal(size=(k, d)) * np.abs(points).max()
            diff = points[:, None] - centers[None]
            want = np.einsum("ijk,ijk->ij", diff, diff)
            assert cluster.sq_dists(points, centers).tobytes() == want.tobytes()
            shapes.add(np.sign(n - k))
        assert shapes == {-1, 0, 1}

    def test_lloyd_from_seeding_distances_equals_reference(self):
        restarts = 0
        for rng, points in _exactness_cases(60, seed=6):
            n = points.shape[0]
            top = int(rng.integers(1, n + 1))
            seedings = cluster._seedings(points, top, int(rng.integers(0, 1000)))
            assert len(seedings) == cluster.N_RESTARTS
            for k in sorted({1, int(rng.integers(1, top + 1)), top}):
                for init, d2 in seedings:
                    want = _reference_lloyd(points, init[:k])
                    got = cluster._lloyd(points, init[:k], d2[:, :k])
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
                    assert got[2] == want[2] and got[3] == want[3]
                    restarts += 1
        assert restarts > 1000

    def test_converged_start_computes_no_distances(self, monkeypatch):
        compared = 0
        for rng, points in _exactness_cases(60, seed=7):
            n = points.shape[0]
            k = int(rng.integers(1, min(n, 6) + 1))
            model = cluster.fit_kmeans(points, k, seed=0)
            if (np.bincount(model.assignments, minlength=k).min() == 0
                    or len(model.inertia_trace) == cluster.MAX_LLOYD_ITER):
                continue  # an empty cluster is repaired; an unconverged fit moves on
            d2 = cluster.sq_dists(points, model.centroids)
            calls, real = [], cluster.sq_dists
            monkeypatch.setattr(cluster, "sq_dists", lambda p, c: calls.append(c) or real(p, c))
            centroids, assign, inertia, trace = cluster._lloyd(points, model.centroids, d2)
            monkeypatch.undo()
            assert calls == []
            assert centroids.tobytes() == model.centroids.tobytes()
            assert assign.tobytes() == model.assignments.tobytes()
            assert inertia == model.inertia and trace == [inertia] * 2
            compared += 1
        assert compared > 40


def _reference_gmm_start(points, km):
    """The member-mean loop that set the GMM's starting weights and means,
    each mean summed left to right."""
    n, d = points.shape
    weights, means = np.empty(km.k), np.empty((km.k, d))
    for j in range(km.k):
        members = points[km.assignments == j]
        weights[j] = members.shape[0] / n
        means[j] = _sum_left_to_right(members) / members.shape[0]
    return weights, means


def _reference_em(points, k, seed):
    """The EM loop before a fit kept its last E-step: parameters and trace."""
    n, d = points.shape
    weights, means, covs = cluster._init_gmm_from_kmeans(points, k, seed)
    trace = []
    for _ in range(cluster.MAX_EM_ITER):
        log_prob = cluster._weighted_log_prob(points, weights, means, covs)
        norm = logsumexp(log_prob, axis=1)
        trace.append(float(norm.sum()))
        if len(trace) > 1 and trace[-1] - trace[-2] < cluster.EM_TOL * max(1.0, abs(trace[-2])):
            break
        resp = np.exp(log_prob - norm[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = (resp.T @ points) / nk[:, None]
        for j in range(k):
            diff = points - means[j]
            cov = (resp[:, j, None] * diff).T @ diff / nk[j]
            covs[j] = 0.5 * (cov + cov.T) + cluster.COV_REG * np.eye(d)
    return weights, means, covs, tuple(trace)


class TestFitCarriesItsResult:
    """A GMM fit stores the assignments and log-likelihood of its returned
    parameters, bit-equal to evaluating the model again."""

    @pytest.mark.parametrize("max_iter", [1, 2, 3, None])
    def test_stored_fit_bit_equal_to_reevaluation(self, max_iter, monkeypatch):
        if max_iter is not None:
            monkeypatch.setattr(cluster, "MAX_EM_ITER", max_iter)
        rng = np.random.default_rng(8)
        for case in range(30):
            d = case % 5 + 1
            n = int(rng.integers(8, 40))
            pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2)
            k = int(rng.integers(1, 5))
            model = cluster.fit_gmm_em(pts, k, seed=case)
            assert model.assignments.tobytes() == \
                model.responsibilities(pts).argmax(axis=1).tobytes()
            assert model.log_likelihood == model.total_log_likelihood(pts)
            weights, means, covs, trace = _reference_em(pts, k, case)
            assert model.log_likelihood_trace == trace
            assert len(trace) <= cluster.MAX_EM_ITER
            for got, want in ((model.weights, weights), (model.means, means),
                              (model.covariances, covs)):
                assert got.tobytes() == want.tobytes()

    def test_start_bit_equal_to_member_means(self):
        compared = empty = 0
        for rng, points in _exactness_cases(120, seed=2):
            n = points.shape[0]
            k = int(rng.integers(1, min(n, 6) + 1))
            km = cluster.fit_kmeans(points, k, seed=0)
            if np.bincount(km.assignments, minlength=k).min() == 0:
                empty += 1
                with pytest.raises(DataError, match=f"k={k}: k-means left GMM component"):
                    cluster._init_gmm_from_kmeans(points, k, seed=0)
                continue
            weights, means, _ = cluster._init_gmm_from_kmeans(points, k, seed=0)
            want_weights, want_means = _reference_gmm_start(points, km)
            assert weights.tobytes() == want_weights.tobytes()
            assert means.tobytes() == want_means.tobytes()
            compared += 1
        assert compared > 80 and empty > 0

    def test_empty_kmeans_cluster_is_data_error(self):
        pts = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="k=3: k-means left GMM component 2 empty"):
                cluster.fit_gmm_em(pts, 3, seed=0)

    def test_other_rows_rejected(self):
        pts = blobs([[0.0, 0], [10, 10]], per_blob=6, spread=0.3, seed=4)
        gmm = cluster.fit_gmm_em(pts, 2, seed=0)
        with pytest.raises(DataError, match="fitted on 12 rows, not 11"):
            cluster.bic_score(gmm, pts[:-1])
        fm = factor_model_for(pts[:-1], [f"m{i}" for i in range(11)])
        for model in (gmm, cluster.fit_kmeans(pts, 2, seed=0)):
            with pytest.raises(DataError, match="do not align"):
                cluster.select_representatives(model, fm)
