import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve, cholesky, solve_triangular

from dbtune import predict
from dbtune.errors import ConfigError, DataError, NumericalError
from dbtune.ingest import Schema

from conftest import arrays, decode_arrays, make_table, width_scaler


class TestScaler:
    def _schema(self):
        return Schema(knob_names=("k0",), metric_names=("m0",),
                      latency_name="latency", workload_id_name="workload_id")

    def test_two_point_case(self):
        schema = self._schema()
        t = make_table("w", [[1.0], [3.0]], [[0.0], [10.0]], [1, 2], schema)
        scaler = predict.fit_scaler([t], schema, ("m0",))
        assert scaler.means[0] == 2.0
        assert scaler.stds[0] == 1.0  # population std of [1, 3]

    def test_constant_feature_flagged(self):
        schema = self._schema()
        t = make_table("w", [[5.0], [5.0]], [[0.0], [10.0]], [1, 2], schema)
        scaler = predict.fit_scaler([t], schema, ("m0",))
        assert "k0" in scaler.constant_features
        # centered only
        assert np.allclose((t.knobs - scaler.means[:1]) / scaler.stds[:1], [[0.0], [0.0]])

    def test_transform_moments(self):
        schema = self._schema()
        rng = np.random.default_rng(0)
        t = make_table("w", rng.normal(size=(50, 1)) * 3 + 7,
                       rng.normal(size=(50, 1)), rng.uniform(1, 2, 50), schema)
        scaler = predict.fit_scaler([t], schema, ("m0",))
        z = ((t.knobs - scaler.means[:1]) / scaler.stds[:1])[:, 0]
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9

    def test_too_few_rows(self):
        schema = self._schema()
        t = make_table("w", [[1.0]], [[2.0]], [1.0], schema)
        with pytest.raises(DataError):
            predict.fit_scaler([t], schema, ("m0",))


def old_build_features(tables, table, schema, pruned):
    """The features as computed before the scaler named its columns: mean/std
    over every knob and metric column of `tables`, then the pruned metrics'
    scaled columns picked by position."""
    rows = np.hstack([np.vstack([t.knobs for t in tables]),
                      np.vstack([t.metrics for t in tables])])
    means, stds = rows.mean(axis=0), rows.std(axis=0)
    stds = np.where(stds < predict.CONST_STD_EPS, 1.0, stds)
    k = schema.n_knobs
    idx = [schema.metric_names.index(n) for n in pruned]
    return np.hstack([(table.knobs - means[:k]) / stds[:k],
                      ((table.metrics - means[k:]) / stds[k:])[:, idx]])


class TestBuildFeatures:
    schema = Schema(knob_names=("k0", "k1", "k2"),
                    metric_names=tuple(f"m{i}" for i in range(12)),
                    latency_name="latency", workload_id_name="workload_id")
    pruned = ("m7", "m0", "m3", "m11", "m5", "m1", "m9", "m2", "m10")

    def _tables(self, seed):
        rng = np.random.default_rng(seed)
        tables = []
        for i in range(6):
            n = int(rng.integers(1, 15))
            metrics = rng.lognormal(size=(n, 12)) * 100.0
            metrics[:, 4] = 3.0  # a constant column
            # F-ordered inputs, as `drop_constant_columns` leaves them
            tables.append(make_table(f"w{i}", np.asfortranarray(rng.normal(size=(n, 3)) * 5.0),
                                     np.asfortranarray(metrics), rng.random(n), self.schema))
        return tables

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_old_formula_c_ordered(self, seed):
        tables = self._tables(seed)
        scaler = predict.fit_scaler(tables, self.schema, self.pruned)
        for table in tables:
            got = predict.build_features(table, scaler)
            assert got.flags.c_contiguous
            assert got.tobytes() == old_build_features(tables, table, self.schema,
                                                       self.pruned).tobytes()

    def test_columns_picked_by_name(self):
        tables = self._tables(0)
        scaler = predict.fit_scaler(tables, self.schema, self.pruned)
        # the same columns in another order, with one more metric
        order = [10, 4, 0, 2, 11, 1, 3, 5, 6, 7, 8, 9]
        other = Schema(knob_names=("k2", "k0", "k1"),
                       metric_names=tuple(f"m{i}" for i in order) + ("extra",),
                       latency_name="latency", workload_id_name="workload_id")
        t = tables[0]
        moved = make_table(t.workload_id, t.knobs[:, [2, 0, 1]],
                           np.hstack([t.metrics[:, order], np.zeros((t.n_rows, 1))]),
                           t.latency, other)
        assert (predict.build_features(moved, scaler).tobytes()
                == predict.build_features(t, scaler).tobytes())

    def test_missing_column_named(self):
        tables = self._tables(0)
        scaler = predict.fit_scaler(tables, self.schema, self.pruned)
        other = Schema(knob_names=("k0", "k2"), metric_names=self.schema.metric_names,
                       latency_name="latency", workload_id_name="workload_id")
        t = make_table("w", [[1.0, 2.0]], np.ones((1, 12)), [1.0], other)
        with pytest.raises(DataError, match="knob 'k1' not in schema"):
            predict.build_features(t, scaler)
        with pytest.raises(DataError, match="metric 'm13' not in schema"):
            predict.fit_scaler(tables, self.schema, ("m0", "m13"))

    def test_constant_features_are_model_features(self):
        tables = self._tables(1)  # m4 is constant in every table
        assert predict.fit_scaler(tables, self.schema, self.pruned).constant_features == ()
        with_m4 = ("m0", "m4")
        assert predict.fit_scaler(tables, self.schema, with_m4).constant_features == ("m4",)


class TestGpr:
    def test_single_point_interpolation(self):
        m = predict.gpr_fit(np.array([[0.5]]), np.array([3.0]), alpha=1e-8)
        assert abs(m.predict(np.array([[0.5]]))[0] - 3.0) < 1e-4

    def test_prior_reversion_far_away(self):
        x = np.linspace(0, 1, 10)[:, None]
        y = np.sin(x[:, 0]) + 2.0
        m = predict.gpr_fit(x, y, alpha=1e-6)
        mean, var = predict.gpr_posterior(m, np.array([[1e6]]))
        assert abs(mean[0] - y.mean()) < 1e-6
        std = np.sqrt(var[0])
        assert abs(std - np.sqrt(m.signal_variance)) < 0.05 * np.sqrt(m.signal_variance)

    def test_sine_interpolation_against_gaussian_elimination(self):
        x = np.linspace(0, 2 * np.pi, 20)[:, None]
        y = np.sin(x[:, 0])
        m = predict.gpr_fit(x, y, alpha=1e-6)
        mean = m.predict(x)
        assert np.max(np.abs(mean - y)) < 1e-3
        # independent oracle: plain Gaussian elimination on (K + alpha I) z = y
        d2 = (x - x.T) ** 2
        K = m.signal_variance * np.exp(-d2 / (2 * m.length_scale ** 2))
        A = K + m.alpha * np.eye(20)
        z = _gaussian_elimination(A, y - m.y_mean)
        oracle_mean = K @ z + m.y_mean
        assert np.max(np.abs(mean - oracle_mean)) < 1e-8

    def test_variance_against_dense_inverse(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(5, 2))
        y = rng.uniform(10, 20, size=5)
        m = predict.gpr_fit(x, y, alpha=1e-2)
        q = rng.uniform(0, 1, size=(8, 2))
        mean, var = predict.gpr_posterior(m, q)

        def kern(a, b):
            d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
            return m.signal_variance * np.exp(-d2 / (2 * m.length_scale ** 2))

        Kinv = np.linalg.inv(kern(x, x) + m.alpha * np.eye(5))
        ks = kern(x, q)
        oracle_mean = ks.T @ Kinv @ (y - m.y_mean) + m.y_mean
        oracle_var = m.signal_variance - np.einsum("ij,jk,ki->i", ks.T, Kinv, ks)
        assert np.max(np.abs(mean - oracle_mean)) < 1e-8
        assert np.max(np.abs(var - oracle_var)) < 1e-8

    def test_std_small_at_training_points(self):
        x = np.linspace(0, 1, 8)[:, None]
        y = x[:, 0] ** 2
        m = predict.gpr_fit(x, y, alpha=1e-8)
        _, var = predict.gpr_posterior(m, x)
        assert np.max(np.sqrt(np.maximum(var, 0.0))) < 1e-3

    def test_raw_variance_not_too_negative(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(15, 3))
        y = rng.uniform(1, 2, size=15)
        m = predict.gpr_fit(x, y, alpha=1e-4)
        _, var = predict.gpr_posterior(m, rng.uniform(0, 1, size=(200, 3)))
        assert np.min(var) >= -1e-8

    def test_posterior_factors_at_the_effective_alpha(self, monkeypatch):
        # the first Cholesky attempt of every kernel fails, so the fit
        # escalates the jitter to 10 alpha and the model stores that alpha
        calls = []
        dpotrf = predict.dpotrf

        def first_attempt_fails(a, lower, clean):
            calls.append(len(calls))
            chol, info = dpotrf(a, lower=lower, clean=clean)
            return chol, 1 if len(calls) % 2 else info  # info 1: not positive definite

        rng = np.random.default_rng(5)
        x, y = rng.uniform(size=(10, 3)), rng.uniform(1, 5, size=10)
        q = np.vstack([x[:3], rng.uniform(size=(3, 3))])  # the noise shows at training rows
        monkeypatch.setattr(predict, "dpotrf", first_attempt_fails)
        m = predict.gpr_fit(x, y, alpha=1e-2)
        monkeypatch.undo()
        assert m.alpha == 1e-2 * 10.0
        mean, var = predict.gpr_posterior(m, q)
        k = predict._rbf_kernel(predict.sq_dists(x, x), m.length_scale, m.signal_variance)

        def variance(alpha):
            chol = cholesky(k + alpha * np.eye(len(x)), lower=True)
            return m.signal_variance - np.sum(
                solve_triangular(chol, m.cross_kernel(q), lower=True) ** 2, axis=0)

        assert np.array_equal(mean, m.predict(q))
        assert np.array_equal(var, variance(m.alpha))
        assert not np.allclose(var, variance(1e-2))

    def test_chosen_hyperparams_maximize_grid_lml(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(12, 2))
        y = np.sin(x[:, 0] * 3) + x[:, 1]
        alpha = 1e-3
        m = predict.gpr_fit(x, y, alpha)
        yc = y - y.mean()
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)

        def lml(ell, sig):
            # log N(yc | 0, K + alpha I), from a determinant and a solve
            a = sig * np.exp(-d2 / (2 * ell ** 2)) + alpha * np.eye(12)
            _, logdet = np.linalg.slogdet(a)
            return -0.5 * (yc @ np.linalg.solve(a, yc) + logdet + 12 * math.log(2 * math.pi))

        assert m.alpha == alpha
        chosen = lml(m.length_scale, m.signal_variance)
        base = np.median(np.sqrt(d2[np.triu_indices(12, k=1)]))
        for ell in [base * 2.0 ** e for e in range(-5, 6)]:
            for sig in [yc.var() * f for f in (0.1, 1.0, 10.0)]:
                assert chosen >= lml(ell, sig) - 1e-9

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="alpha must be finite and > 0"):
                predict.gpr_fit(np.zeros((2, 1)), np.zeros(2), alpha=alpha)

    def test_dimension_mismatch(self):
        m = predict.gpr_fit(np.zeros((3, 2)), np.arange(3.0), alpha=1e-2)
        with pytest.raises(DataError):
            m.predict(np.zeros((1, 5)))


def _reference_gpr_fit(x, y, alpha):
    """gpr_fit's grid and refinement, each grid point's kernel from
    _rbf_kernel and factored with scipy's cholesky of k + a * np.eye(n),
    solved with cho_solve: (length scale, signal variance, alpha, dual)."""
    n = len(x)
    yc = y - float(y.mean())
    d2 = predict.sq_dists(x, x)
    base = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)]))) if n > 1 else 0.0
    base = base if base > 0 else 1.0
    sig_base = float(yc.var()) if yc.var() > 0 else 1.0

    def lml(ell, sig):
        k = predict._rbf_kernel(d2, ell, sig)
        for a in (alpha, alpha * 10.0, alpha * 100.0):
            try:
                chol = cholesky(k + a * np.eye(n), lower=True)
            except np.linalg.LinAlgError:
                continue
            dual = cho_solve((chol, True), yc)
            return (-0.5 * float(yc @ dual) - np.log(np.diag(chol)).sum()
                    - 0.5 * n * math.log(2 * math.pi)), ell, sig, a, dual
        raise NumericalError(f"Cholesky failed up to jitter {alpha * 100.0}")

    best = max((lml(base * 2.0 ** e, sig_base * f) for e in range(-5, 6)
                for f in (0.1, 1.0, 10.0)), key=lambda fit: fit[0])  # the first of the largest
    for f in (2 ** -0.5, 2 ** 0.5):
        best = max(best, lml(best[1] * f, best[2]), key=lambda fit: fit[0])
    for f in (0.5, 2.0):
        best = max(best, lml(best[1], best[2] * f), key=lambda fit: fit[0])
    return best[1:]


class TestGprExact:
    """gpr_fit factors with LAPACK directly and takes one exponential per
    length scale: the bytes of scipy's wrappers and one kernel per point."""

    @staticmethod
    def _case(i):
        # n = 1 every tenth case; every third case has near-duplicate rows
        # and a jitter too small to factor some kernels, which escalates
        rng = np.random.default_rng(i)
        n = 1 if i % 10 == 0 else int(rng.integers(2, 30))
        x = rng.normal(size=(n, int(rng.integers(1, 6))))
        alpha = 0.1
        if i % 3 == 1:
            x[n // 2:] = x[:n - n // 2] + rng.normal(size=(n - n // 2, x.shape[1])) * 1e-9
            alpha = 1e-13
        return x, rng.uniform(1, 100, size=n), alpha

    @staticmethod
    def _outcome(fit, *args):
        """(length scale, signal variance, alpha, dual bytes), or the message
        of the NumericalError the fit raised."""
        try:
            result = fit(*args)
        except NumericalError as exc:
            return str(exc)
        if isinstance(result, predict.GprModel):
            result = result.length_scale, result.signal_variance, result.alpha, result.dual_coef
        return *result[:3], result[3].tobytes()

    def test_fit_equals_reference(self):
        outcomes = set()
        for i in range(60):
            args = self._case(i)
            got = self._outcome(predict.gpr_fit, *args)
            assert got == self._outcome(_reference_gpr_fit, *args), i
            outcomes.add(got if isinstance(got, str) else got[2] / args[2])
        # the chosen kernel factored at alpha, 10 alpha and 100 alpha, and
        # one fit found a kernel that factors at none of them
        assert outcomes == {1.0, 10.0, 100.0, f"Cholesky failed up to jitter {1e-13 * 100.0}"}

    @pytest.mark.parametrize("x, y, message", [
        # the rows' squared distances overflow
        ([[1e155], [-1e155], [0.0]], [1.0, 2.0, 3.0],
         "the squared distances between training rows overflow"),
        # the latency variance is finite, ten times it is not
        ([[0.0], [1.0], [2.0]], [9e153, -9e153, 0.0], "the kernel holds inf"),
        # the grid reaches 2 ** 4 times the median distance, 1e153, and 2 * ell ** 2 overflows
        ([[1e153], [-1e153], [0.0]], [1.0, 2.0, 3.0],
         "length scale 1.6e+154: the kernel's 2 * length_scale ** 2 overflows"),
        # constant targets favour the largest grid length scale, 8e153, whose
        # square doubles to a finite value; the refinement tries it times sqrt(2)
        ([[2.5e152], [-2.5e152], [0.0]], [1.0, 1.0, 1.0],
         "length scale 1.1313708498984762e+154: the kernel's 2 * length_scale ** 2 overflows"),
    ], ids=["distances", "signal-variance", "length-scale-grid", "length-scale-refinement"])
    def test_non_finite_kernel_refused(self, x, y, message):
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            predict.gpr_fit(np.array(x), np.array(y), 0.1)


def _gaussian_elimination(a, b):
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for i in range(n):
        p = i + np.argmax(np.abs(a[i:, i]))
        a[[i, p]] = a[[p, i]]
        b[[i, p]] = b[[p, i]]
        for j in range(i + 1, n):
            f = a[j, i] / a[i, i]
            a[j, i:] -= f * a[i, i:]
            b[j] -= f * b[i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


class TestRandomForest:
    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(20, 3))
        y = np.full(20, 7.5)
        m = predict.rf_fit(x, y, n_trees=10, max_depth=50, seed=0)
        assert np.allclose(m.predict(x), 7.5)

    def test_single_tree_memorizes_bootstrap(self):
        # trace construction: recompute the bootstrap draw for tree 0
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        seed = 3
        m = predict.rf_fit(x, y, n_trees=1, max_depth=10**6, seed=seed)
        boot = np.random.default_rng(seed).integers(4, size=4)
        preds = m.predict(x)
        for i in set(boot.tolist()):
            assert preds[i] == y[i]

    def test_predictions_within_target_range(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(30, 4))
        y = rng.uniform(100, 200, size=30)
        m = predict.rf_fit(x, y, n_trees=25, max_depth=50, seed=1)
        p = m.predict(rng.uniform(size=(50, 4)))
        assert p.min() >= y.min() - 1e-12
        assert p.max() <= y.max() + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(25, 3))
        y = rng.uniform(size=25)
        a = predict.rf_fit(x, y, 20, 50, seed=9).predict(x)
        b = predict.rf_fit(x, y, 20, 50, seed=9).predict(x)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            predict.rf_fit(np.zeros((1, 2)), np.zeros(1), 200, 50, seed=0)


# The forest as rf_fit documents it, grown one tree at a time, recursively,
# each node's splits scanned in a Python loop. Squares are a * a; a node's
# value adds its targets one by one, left to right, from -0.0 (the builtin
# sum() compensates float sums on Python >= 3.12).
def _left_to_right_mean(y):
    if not len(y):
        return math.nan
    total = -0.0
    for v in y.tolist():
        total += v
    return total / len(y)


def _reference_split(x, y, feats, log):
    best = None
    for f in feats:
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys * ys)
        n = len(ys)
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            nl, nr = i + 1, n - i - 1
            rest = csum[-1] - csum[i]
            cost = ((csq[i] - csum[i] * csum[i] / nl)
                    + ((csq[-1] - csq[i]) - rest * rest / nr))
            if best is None or cost < best[0]:
                best = (cost, f, 0.5 * (xs[i] + xs[i + 1]))
    return None if best is None else best[1:]


class _CandidateRows:
    """A tree's candidate feature sets as rf_fit documents them: blocks of
    predict._CAND_BLOCK rows, each row the first round(sqrt(d)) entries of
    a uniform random permutation (the argsort of uniform draws), sorted; the
    tree's j-th attempted node takes row j. The first block comes from
    `draws`, each later one from the tree's own generator `rng`."""

    def __init__(self, draws, rng):
        self.draws, self.rng, self.rows = draws, rng, []

    def next(self):
        if not self.rows:
            perms = np.argsort(self.draws, axis=1)
            self.rows = [sorted(p[:max(1, round(math.sqrt(len(p))))].tolist()) for p in perms]
            self.draws = self.rng.random(self.draws.shape)
        return self.rows.pop(0)


def _reference_tree(x, y, depth, max_depth, cands, log):
    value = _left_to_right_mean(y)
    if depth >= max_depth or len(y) < 2 or float(np.ptp(y)) == 0.0:
        return {"value": value}
    d = x.shape[1]
    split = _reference_split(x, y, cands.next(), log)
    if split is None:
        log["retries"] += 1
        split = _reference_split(x, y, range(d), log)
        if split is None:
            return {"value": value}
    f, thr = split
    mask = x[:, f] <= thr
    return {"feature": f, "threshold": thr, "value": value,
            "left": _reference_tree(x[mask], y[mask], depth + 1, max_depth, cands, log),
            "right": _reference_tree(x[~mask], y[~mask], depth + 1, max_depth, cands, log)}


def _reference_trees(x, y, n_trees, max_depth, seed, log):
    """Tree t takes row t of one bootstrap draw from default_rng(seed), its
    first block from row t of one block draw from the seed's stream (0,),
    and its later blocks from the seed's stream (1, t)."""
    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    n, d = x.shape
    boots = np.random.default_rng(seed).integers(n, size=(n_trees, n))
    firsts = stream(0).random((n_trees, predict._CAND_BLOCK, d))
    return [_reference_tree(x[boots[t]], y[boots[t]], 0, max_depth,
                            _CandidateRows(firsts[t], stream(1, t)), log)
            for t in range(n_trees)]


def _node_lists(doc):
    """The node arrays of an rf model.json document, decoded, as lists."""
    return {k: v.tolist() for k, v in decode_arrays(doc).items() if k in predict._NODE_DTYPES}


def _nested_tree(doc, i):
    """Node i of _node_lists's node arrays and the nodes below it, nested as
    the reference tree is."""
    if doc["feature"][i] < 0:
        return {"value": doc["value"][i]}
    return {"feature": doc["feature"][i], "threshold": doc["threshold"][i],
            "value": doc["value"][i], "left": _nested_tree(doc, doc["left"][i]),
            "right": _nested_tree(doc, doc["right"][i])}


def _reference_predict(model, x):
    forest = model.flat
    out = np.zeros(len(x))
    for t in range(model.n_trees):
        values = []
        for row in x:
            node = t
            while forest.feature[node] >= 0:
                go_left = row[forest.feature[node]] <= forest.threshold[node]
                node = forest.left[node] if go_left else forest.right[node]
            values.append(forest.value[node])
        out += np.array(values)
    return out / model.n_trees


def _forest_case(i):
    """Inputs of random case i: ties in features and targets, n = 2, d = 1,
    depth limits 0..60, mostly constant features (the all-features retry),
    signed zeros, non-finite features and nodes past 128 rows; from case 64
    on, also targets near the largest scale a forest accepts (a 130-row
    node's squared sum is about 1e306) and features one ulp apart; from
    case 80 on, targets within about 1e-6 of each other, whose split costs
    are mostly rounding, so the rounding of a square can pick the split."""
    rng = np.random.default_rng(1000 + i)
    n = int(rng.choice([2, 3, 5, 11, 17, 40, 130]))
    d = 1 if i % 7 == 0 else int(rng.integers(1, 9))
    x = rng.normal(size=(n, d))
    y = rng.uniform(1, 100, size=n)
    kind = i % 6 if i < 64 else (6 + i % 2 if i < 80 else 8)
    if kind == 1:
        x = np.round(x)
    elif kind == 2:
        x[:, :max(1, d - 1)] = 1.0
    elif kind == 3:
        y = np.round(y / 30)
    elif kind == 4:
        y[rng.uniform(size=n) < 0.5] = -0.0
        y[rng.uniform(size=n) < 0.3] = 0.0
    elif kind == 5:
        x[rng.uniform(size=x.shape) < 0.15] = np.nan
        x[rng.uniform(size=x.shape) < 0.1] = np.inf
    elif kind == 6:
        y = y * 1e149
    elif kind == 7:
        x = x[0] + np.spacing(np.abs(x[0])) * rng.integers(0, 3, size=(n, d))
    elif kind == 8:
        y = y[0] + rng.normal(size=n) * 1e-6
    n_trees = int(rng.integers(1, 4 if n > 100 else 13))
    return x, y, n_trees, int(rng.integers(0, 61)), int(rng.integers(0, 1000))


class TestForestExact:
    def test_model_json_and_predictions_equal_reference(self, tmp_path):
        log = {"retries": 0}
        # in cases 80, 105 and 304 a tree changes if _best_splits takes the
        # square of rest, of cs or of ys (in that order) with np.float_power,
        # which differs from a * a on about 1 in 1200 doubles
        for i in (*range(80), 80, 105, 304):
            x, y, n_trees, max_depth, seed = _forest_case(i)
            model = predict.rf_fit(x, y, n_trees, max_depth, seed)
            predict.save_model(model, tmp_path / "model.json", width_scaler(x.shape[1]))
            doc = json.loads((tmp_path / "model.json").read_text())
            assert {k: doc[k] for k in ("kind", "n_trees", "max_depth", "seed", "n_features",
                                        "format_version")} == {
                "kind": "rf", "n_trees": n_trees, "max_depth": max_depth, "seed": seed,
                "n_features": x.shape[1], "format_version": 4}, i
            # the packed bytes hold each threshold and value exactly, NaN included
            reference = _reference_trees(x, y, n_trees, max_depth, seed, log)
            nodes = _node_lists(doc)
            assert [json.dumps(_nested_tree(nodes, t)) for t in range(n_trees)] == [
                json.dumps(tree) for tree in reference], i
            query = np.vstack([x, np.random.default_rng(i).normal(size=(20, x.shape[1]))])
            assert np.array_equal(model.predict(query),
                                  _reference_predict(model, query), equal_nan=True), i
        assert log["retries"] > 0

    def test_tree_does_not_depend_on_forest_size(self):
        # 130 rows: each tree attempts more nodes than one block holds
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(130, 6)), rng.uniform(1, 100, size=130)
        small, large = (_node_lists(predict.rf_fit(x, y, n, 50, 11).to_json()) for n in (3, 8))
        assert [_nested_tree(small, t) for t in range(3)] == [
            _nested_tree(large, t) for t in range(3)]

    def test_candidate_rows_are_uniform_subsets(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 7, 20):
            n_cand = max(1, round(math.sqrt(d)))
            rows = predict._candidates(rng.random((20000, d)), n_cand)
            assert rows.shape[1] == n_cand
            assert ((rows >= 0) & (rows < d)).all()
            assert (np.diff(rows, axis=1) > 0).all()  # sorted, so distinct
            # each feature is in each row with probability n_cand / d, so its
            # count is binomial; 5 standard deviations is a bound it keeps
            p, n = n_cand / d, len(rows)
            counts = np.bincount(rows.ravel(), minlength=d)
            assert (np.abs(counts - n * p) <= 5 * math.sqrt(n * p * (1 - p))).all(), (d, counts)

    def test_nearby_seeds_draw_apart(self):
        # seeds 5 and 6 share no stream: tree 1 of one is not tree 0 of the other
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(40, 5)), rng.uniform(1, 100, size=40)
        five, six = (_node_lists(predict.rf_fit(x, y, 2, 50, seed).to_json()) for seed in (5, 6))
        assert _nested_tree(five, 1) != _nested_tree(six, 0)

    def test_trees_do_not_depend_on_the_target_unit(self):
        # a power of two scales every split cost exactly, so no split moves
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(40, 4)), rng.uniform(1, 100, size=40)
        scale = 2.0 ** -40
        plain, scaled = (predict.rf_fit(x, t, 5, 50, seed=3).flat for t in (y, y * scale))
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(plain, name), getattr(scaled, name)), name
        assert np.array_equal(plain.value * scale, scaled.value)

    @pytest.mark.filterwarnings("ignore:invalid value encountered",
                                "ignore:overflow encountered")
    def test_overflowed_costs_pick_as_reference(self):
        big, small = 1.3e154, 2e153
        cases = [
            # squares that sum to about the largest float: the sum overflows in
            # feature 0's and 2's row order but not in feature 1's, so their
            # splits cost NaN and feature 1's -inf
            (np.array([[0.0, 1.0, -1.0], [-0.0, 2.0, -1.0], [-1.0, 1.0, -0.0], [1.0, -1.0, 2.0],
                       [1.0, 1.0, 4.0], [-1.0, -0.0, 0.0], [0.0, -0.0, 0.0]]),
             np.array([5.067675058448934e+153, 5.0676750584492974e+153, 5.067675058449801e+153,
                       5.0676750584497656e+153, 5.0676750584505106e+153, 5.067675058449577e+153,
                       5.067675058449953e+153])),
            # big**2 + 3 * small**2 overflows: feature 0 has no split, and
            # feature 1's first split costs +inf, its others NaN
            (np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]),
             np.array([big, small, small, small])),
        ]
        for x, y in cases:
            n, d = x.shape
            xpad, ypad = np.vstack([x, np.full((1, d), np.nan)]), np.append(y, -0.0)
            w = 2 ** math.ceil(math.log2(n))
            seg = np.minimum(np.arange(w), n)[None, :]  # the rows, then pad rows
            for feats in (c for k in range(1, d + 1) for c in itertools.combinations(range(d), k)):
                f, thr = predict._best_splits(xpad, ypad, seg, np.array([n]), np.array([feats]))
                expected = _reference_split(x, y, feats, {}) or (-1, 0.0)  # -1: no split
                assert (f[0], thr[0]) == expected, (n, feats)

    def test_loaded_forest_predicts_the_same(self, tmp_path):
        x, y, n_trees, max_depth, seed = _forest_case(3)
        model = predict.rf_fit(x, y, n_trees, max_depth, seed)
        predict.save_model(model, tmp_path / "model.json", width_scaler(x.shape[1]))
        back, _ = predict.load_model(tmp_path / "model.json")
        assert np.array_equal(back.predict(x), _reference_predict(back, x))
        assert np.array_equal(back.predict(x), model.predict(x))

    def test_node_arrays_form_the_trees(self):
        x, y, n_trees, max_depth, seed = _forest_case(10)
        model = predict.rf_fit(x, y, n_trees, max_depth, seed)
        f = model.flat
        ids, split = np.arange(len(f.feature)), f.feature >= 0
        assert len({len(a) for a in f}) == 1 and split.any()
        # a split node's children come after it, a leaf is its own child, and
        # every node but the roots 0..n_trees-1 has one parent
        assert np.all((f.left[split] > ids[split]) & (f.right[split] > ids[split]))
        assert np.array_equal(f.left[~split], ids[~split])
        assert np.array_equal(f.right[~split], ids[~split])
        parents = np.bincount(np.concatenate([f.left[split], f.right[split]]),
                              minlength=len(ids))
        assert np.array_equal(parents, ids >= n_trees)
        # the node objects of model.trees, walked as the benchmark counts nodes
        count, stack = 0, list(model.trees)
        while stack:
            node = stack.pop()
            count += 1
            if node.feature >= 0:
                stack += [node.left, node.right]
        assert count == len(f.feature)
        assert not hasattr(model.trees[0], "__dict__")

    @pytest.mark.parametrize("n_trees, max_depth", [(0, 5), (3, -1)])
    def test_bad_config_rejected(self, n_trees, max_depth):
        with pytest.raises(ConfigError):
            predict.rf_fit(np.zeros((4, 2)), np.arange(4.0), n_trees, max_depth, seed=0)

    def test_feature_past_row_width_rejected(self):
        model = predict.rf_fit(np.arange(12.0).reshape(6, 2), np.arange(6.0), 2, 3, seed=0)
        with pytest.raises(DataError, match="feature"):
            model.predict(np.zeros((3, 1)))

    def test_rows_wider_than_the_fit_rejected(self):
        model = predict.rf_fit(np.arange(12.0).reshape(6, 2), np.arange(6.0), 2, 3, seed=0)
        with pytest.raises(DataError, match="fit on 2 features, rows have 3 features"):
            model.predict(np.zeros((3, 3)))

    @staticmethod
    def _deep_forest(n_trees):
        rng = np.random.default_rng(n_trees)
        return predict.rf_fit(rng.normal(size=(60, 4)), rng.uniform(1, 100, size=60),
                              n_trees, 50, seed=1)

    # a chunk holds _CHUNK_CELLS // rows trees (2048 cells): one chunk of 12 or
    # of 200 trees; 6 trees a chunk for 300 rows, five full and a last one of 2;
    # one tree a chunk for 2100 rows; and no rows
    @pytest.mark.parametrize("n_rows, n_trees", [(1, 12), (10, 200), (300, 32), (2100, 3),
                                                 (0, 5)])
    def test_routing_equals_reference_across_chunk_shapes(self, n_rows, n_trees):
        model = self._deep_forest(n_trees)
        query = np.random.default_rng(n_rows).normal(size=(n_rows, 4))
        got = model.predict(query)
        assert got.shape == (n_rows,)
        assert np.array_equal(got, _reference_predict(model, query), equal_nan=True)

    def test_non_finite_queries_route_as_reference(self):
        model = self._deep_forest(20)
        query = np.random.default_rng(2).normal(size=(30, 4))
        query[::3, 0], query[1::3, 1], query[2::3, 2] = np.nan, np.inf, -np.inf
        query[0] = np.nan
        assert np.array_equal(model.predict(query),
                              _reference_predict(model, query), equal_nan=True)

    def test_per_table_calls_equal_one_call_on_the_stacked_rows(self):
        model = self._deep_forest(40)
        rng = np.random.default_rng(3)
        tables = [rng.normal(size=(n, 4)) for n in (1, 10, 7, 300, 2)]
        per_table = np.concatenate([model.predict(t) for t in tables])
        assert per_table.tobytes() == model.predict(np.vstack(tables)).tobytes()


def _split_counts(model):
    """Split nodes per tree: a tree that attempts more nodes than one block
    of candidate sets holds draws a second block."""
    f = model.flat
    counts = []
    for t in range(model.n_trees):
        stack, n = [t], 0
        while stack:
            node = stack.pop()
            if f.feature[node] >= 0:
                n += 1
                stack += [int(f.left[node]), int(f.right[node])]
        counts.append(n)
    return counts


class TestForestMany:
    """Each forest of rf_fit_many has the bytes of rf_fit on its job alone;
    rf_fit is checked against the tree-by-tree reference (TestForestExact)."""

    def test_targets_whose_squared_sums_overflow_refused(self):
        # 2 * (4 * 3e153) ** 2 is about 2.9e308; 2 * (4 * 2e153) ** 2 fits
        x = np.arange(4.0)[:, None]
        fits = (x, np.array([1.0, 2.0, 2e153, 3.0]), 0)
        for y in ([1.0, 2.0, 3e153, 3.0], [1.0, 2.0, -3e153, 3.0]):
            with pytest.raises(NumericalError, match=r"^latencies up to 3e\+153 over 4 rows: the "
                                                     r"forest's squared sums overflow in job 1$"):
                next(predict.rf_fit_many([fits, (x, np.array(y), 1)], 3, 5))
        assert next(predict.rf_fit_many([fits], 3, 5)).n_trees == 3

    @staticmethod
    def _assert_alone(jobs, n_trees, max_depth):
        many = [json.dumps(m.to_json()) for m in predict.rf_fit_many(jobs, n_trees, max_depth)]
        alone = [json.dumps(predict.rf_fit(x, y, n_trees, max_depth, seed).to_json())
                 for x, y, seed in jobs]
        assert many == alone
        return many

    @pytest.mark.parametrize("batch_trees", [1, 7, 1024])
    def test_rows_from_2_to_130(self, monkeypatch, batch_trees):
        # 1 and 7 trees a batch: one job a batch, and two of three trees each
        monkeypatch.setattr(predict, "_BATCH_TREES", batch_trees)
        rng = np.random.default_rng(8)
        jobs = [(rng.normal(size=(n, 5)), rng.uniform(1, 100, size=n), 10 * i)
                for i, n in enumerate((2, 11, 16, 17, 40, 130))]
        self._assert_alone(jobs, 3, 50)
        # the 130-row trees attempt more nodes than a block holds
        big = next(predict.rf_fit_many(jobs[-1:], 3, 50))
        assert max(_split_counts(big)) > predict._CAND_BLOCK

    @pytest.mark.parametrize("max_depth", [0, 4, 60])
    def test_forest_cases_grouped_by_width(self, max_depth):
        by_width = {}
        for i in range(80):
            x, y, _, _, seed = _forest_case(i)
            by_width.setdefault(x.shape[1], []).append((x, y, seed))
        empty = 0
        for jobs in by_width.values():
            many = self._assert_alone(jobs, 4, max_depth)
            # an empty child's value is the mean of no targets
            empty += sum(np.isnan(_node_lists(json.loads(m))["value"]).any() for m in many)
        assert empty > 0 or max_depth == 0

    def test_constant_targets_beside_others(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4))
        jobs = [(x, rng.uniform(1, 9, size=12), 1), (x, np.full(12, 7.5), 2),
                (x[:5], rng.uniform(1, 9, size=5), 3)]
        many = self._assert_alone(jobs, 6, 50)
        constant = _node_lists(json.loads(many[1]))
        assert constant["feature"] == [-1] * 6 and constant["value"] == [7.5] * 6

    def test_jobs_across_batches_keep_their_order(self, monkeypatch):
        # 5 trees a job and 12 trees a batch: batches of 2, 2 and 1 jobs
        monkeypatch.setattr(predict, "_BATCH_TREES", 12)
        rng = np.random.default_rng(5)
        jobs = [(rng.normal(size=(9, 3)), rng.uniform(1, 9, size=9), s) for s in range(5)]
        models = self._assert_alone(jobs, 5, 50)
        assert [json.loads(m)["seed"] for m in models] == list(range(5))

    def test_width_mismatch_refused(self):
        jobs = [(np.zeros((4, 2)), np.arange(4.0), 0), (np.zeros((4, 3)), np.arange(4.0), 1)]
        with pytest.raises(DataError, match="job 1 has 3 features, job 0 has 2"):
            list(predict.rf_fit_many(jobs, 2, 5))

    def test_short_job_refused(self):
        jobs = [(np.zeros((4, 2)), np.arange(4.0), 0), (np.zeros((1, 2)), np.ones(1), 1)]
        with pytest.raises(DataError, match="needs >= 2 rows, has 1 in job 1"):
            list(predict.rf_fit_many(jobs, 2, 5))


class TestMlp:
    def test_zero_epoch_fit_is_finite(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(10, 2))
        y = rng.uniform(1, 2, size=10)
        m = predict.mlp_fit(x, y, hidden_units=64, epochs=0, seed=1)
        p = m.predict(x)
        assert np.all(np.isfinite(p))

    def test_gradient_check_against_finite_differences(self):
        x = np.array([[0.1], [0.5], [0.9]])
        y = np.array([1.0, 2.0, 3.0])
        model = predict._mlp_init(1, hidden_units=8, seed=2)
        grads = predict.mlp_gradients(model, x, y)
        h = 1e-5
        for p in ("w1", "b1", "w2", "b2"):
            arr = getattr(model, p)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + h
                lp = predict.mlp_loss(model, x, y)
                arr[i] = orig - h
                lm = predict.mlp_loss(model, x, y)
                arr[i] = orig
                fd = (lp - lm) / (2 * h) / 100.0  # the loss is in percent, the gradient is not
                an = grads[p][i]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(16, 2))
        y = rng.uniform(1, 2, size=16)
        a = predict.mlp_fit(x, y, hidden_units=64, epochs=20, seed=4).predict(x)
        b = predict.mlp_fit(x, y, hidden_units=64, epochs=20, seed=4).predict(x)
        assert np.array_equal(a, b)

    def test_loss_trace_recorded(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(100, 1))  # four batches of up to BATCH_SIZE rows an epoch
        y = 2 * x[:, 0] + 1
        m = predict.mlp_fit(x, y, hidden_units=64, epochs=30, seed=0)
        assert len(m.loss_trace) == 30
        assert m.loss_trace[-1] < m.loss_trace[0]


class TestPersistence:
    def _roundtrip(self, model, x, tmp_path):
        path = tmp_path / "model.json"
        scaler = predict.StandardScaler(("k0",), ("m0",), np.array([-0.0, 2.5]),
                                        np.array([1.0, 5e-324]), ("k0",))
        predict.save_model(model, path, scaler)
        back, scaler_back = predict.load_model(path)
        a = predict.predict_with(model, x)
        b = predict.predict_with(back, x)
        assert np.max(np.abs(a - b)) <= 1e-12
        # the scaler comes back bit for bit, beside the model it scales for
        assert scaler_back.means.tobytes() == scaler.means.tobytes()
        assert scaler_back.stds.tobytes() == scaler.stds.tobytes()
        assert (scaler_back.knob_names, scaler_back.metric_names, scaler_back.constant_features
                ) == (("k0",), ("m0",), ("k0",))

    def test_gpr_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(6, 2))
        y = rng.uniform(1, 5, size=6)
        self._roundtrip(predict.gpr_fit(x, y, 1e-2), x, tmp_path)

    def test_rf_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(12, 2))
        y = rng.uniform(1, 5, size=12)
        self._roundtrip(predict.rf_fit(x, y, 5, 10, seed=0), x, tmp_path)

    def test_mlp_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(10, 2))
        y = rng.uniform(1, 5, size=10)
        m = predict.mlp_fit(x, y, hidden_units=6, epochs=5, seed=3)
        path = tmp_path / "model.json"
        predict.save_model(m, path, width_scaler(2))
        back, _ = predict.load_model(path)
        assert back.seed == 3 and back.w1.shape == (2, 6)
        assert back.loss_trace == m.loss_trace
        assert predict.predict_with(back, x).tobytes() == predict.predict_with(m, x).tobytes()

    @pytest.mark.parametrize("fit, edit, message", [
        (lambda x, y: predict.gpr_fit(x, y, 1e-2),
         arrays(lambda d: d.update(dual_coef=d["dual_coef"][:-1])),
         "do not fit 6 training rows"),
        (lambda x, y: predict.mlp_fit(x, y, hidden_units=64, epochs=1, seed=0),
         arrays(lambda d: d.update(w2=np.ones((1, 1)))), "layer shapes"),
        (lambda x, y: predict.mlp_fit(x, y, hidden_units=64, epochs=1, seed=0),
         lambda d: d.update(seed="3"), "seed must be int"),
    ], ids=["gpr-dual-coef-shape", "mlp-layer-shape", "mlp-seed-str"])
    def test_malformed_model_rejected(self, fit, edit, message, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "model.json"
        predict.save_model(fit(rng.uniform(size=(6, 2)), rng.uniform(1, 5, size=6)), path,
                           width_scaler(2))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=message):
            predict.load_model(path)

    # bit patterns: -0.0, the least and the greatest subnormal, +-inf, a
    # quiet, a signalling and a negative NaN, and NaNs with payloads
    SPECIAL_BITS = [0x8000000000000000, 0x1, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000,
                    0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
                    0xFFF8000000000000, 0x7FF800000000BEEF, 0xFFFFFFFFFFFFFFFF]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(hnp.arrays("<u8", hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
                      elements=st.one_of(st.sampled_from(SPECIAL_BITS),
                                         st.integers(0, 2 ** 64 - 1))),
           hnp.arrays("<i4", hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)))
    @example(np.array(SPECIAL_BITS, dtype="<u8"), np.array([-1, 2 ** 31 - 1], dtype="<i4"))
    @example(np.zeros(0, dtype="<u8"), np.zeros((0, 3), dtype="<i4"))
    def test_pack_round_trips_every_bit(self, bits, ints):
        floats = bits.view("<f8")
        doc = json.loads(json.dumps({"f": predict._pack(floats), "i": predict._pack(ints, "<i4")}))
        back = predict._unpack(doc, "f", "<f8", floats.ndim)
        assert back.shape == floats.shape and np.array_equal(back.view("<u8"), bits)
        back = predict._unpack(doc, "i", "<i4", ints.ndim)
        assert back.shape == ints.shape and np.array_equal(back, ints)

    def test_forest_past_int32_node_ids_refused(self):
        # broadcast views: 2 ** 31 + 1 nodes, one stored value per array
        ids, values = (np.broadcast_to(v, (2 ** 31 + 1,)) for v in (np.int64(-1), 0.0))
        model = predict.RfModel(max_depth=0, seed=0, n_trees=1, n_features=1,
                                flat=predict._FlatForest(ids, values, ids, ids, values))
        with pytest.raises(DataError, match="2147483649 nodes: its node ids do not fit"):
            model.to_json()

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99, "kind": "gpr"}')
        with pytest.raises(DataError, match="version"):
            predict.load_model(path)
