import numpy as np
import pytest

from dbtune import synth
from dbtune.errors import DataError
from dbtune.factors import (
    FactorModel,
    MetricMatrix,
    build_metric_matrix,
    fit_factors,
    retain_significant,
)
from dbtune.ingest import Corpus, Schema, drop_constant_columns

from conftest import make_table


def schema_with_metrics(names):
    return Schema(knob_names=("k0",), metric_names=tuple(names),
                  latency_name="latency", workload_id_name="workload_id")


def table_for(wid, metric_rows, names):
    metric_rows = np.asarray(metric_rows, dtype=float)
    n = metric_rows.shape[0]
    return make_table(wid, [[float(i)] for i in range(n)], metric_rows,
                      [1.0] * n, schema_with_metrics(names))


def random_metric_matrix(n_metrics, n_configs, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_metrics, n_configs))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    return MetricMatrix(values=x, metric_names=tuple(f"m{i}" for i in range(n_metrics)))


class TestBuildMetricMatrix:
    def test_config_count_sums_rows(self):
        tables = [table_for(f"w{i}", [[1.0 + i], [2.0 + i], [3.0]], ["m0"])
                  for i in range(4)]
        x = build_metric_matrix(tables)
        assert x.n_configs == 12

    def test_standardization_identity(self):
        x = build_metric_matrix([table_for("w", [[1.0], [2.0], [3.0]], ["m0"])])
        assert abs(x.values[0].mean()) < 1e-12
        assert abs(x.values[0].var() - 1.0) < 1e-12

    def test_duplicated_metric_rows(self):
        rows = [[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]]
        x = build_metric_matrix([table_for("w", rows, ["m0", "m1"])])
        assert np.array_equal(x.values[0], x.values[1])

    def test_zero_variance_row_excluded(self):
        rows = [[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]
        x = build_metric_matrix([table_for("w", rows, ["m0", "m1"])])
        assert x.metric_names == ("m0",)
        assert x.dropped_zero_variance == ("m1",)

    def test_offline_constant_metric_excluded_though_it_varies_online(self):
        # 12 offline rows of 0.1 have a population std of ~1.4e-17, not 0;
        # the online rows keep the column in the corpus past ingest
        names = ["m0", "m1"]
        offline = [table_for(f"off{i}", [[1.0 + i + j, 0.1] for j in range(3)], names)
                   for i in range(4)]
        online = [table_for("on", [[1.0, 0.1], [2.0, 0.5]], names)]
        corpus, dropped = drop_constant_columns(
            Corpus(tuple(offline), tuple(online), (), offline[0].schema))
        assert dropped == [] and np.full(12, 0.1).std() > 0.0
        x = build_metric_matrix(list(corpus.offline))
        assert x.metric_names == ("m0",)
        assert x.dropped_zero_variance == ("m1",)

    def test_too_few_configs(self):
        with pytest.raises(DataError):
            build_metric_matrix([table_for("w", [[1.0]], ["m0"])])


class TestFitFactors:
    def test_identical_metrics_have_identical_loadings(self):
        rows = np.array([[1.0, 1.0, 3.0], [2.0, 2.0, -1.0], [5.0, 5.0, 0.5]])
        x = build_metric_matrix([table_for("w", rows, ["m0", "m1", "m2"])])
        model = fit_factors(x)
        assert np.linalg.norm(model.loadings[0] - model.loadings[1]) < 1e-9

    def test_rank_one_spectrum(self):
        # rank-1 matrix: all metrics are multiples of one signal
        base = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        x = np.vstack([c * base for c in (1.0, 2.0, -3.0)])
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        mm = MetricMatrix(values=x, metric_names=("a", "b", "c"))
        model = fit_factors(mm)
        assert np.sum(model.eigenvalues > 1e-8) == 1
        # independent oracle: eigensolve of the Gram matrix X X^T / n
        gram_eigs = np.sort(np.linalg.eigvalsh(x @ x.T / 5))[::-1]
        assert np.allclose(model.eigenvalues, gram_eigs, atol=1e-8)

    def test_trace_equals_metric_count(self):
        x = random_metric_matrix(10, 50, seed=3)
        model = fit_factors(x)
        # brute-force oracle: trace of X X^T / n
        trace = float(np.trace(x.values @ x.values.T / x.n_configs))
        assert abs(model.eigenvalues.sum() - 10.0) < 1e-6
        assert abs(model.eigenvalues.sum() - trace) < 1e-9

    def test_reconstruction_of_correlation_matrix(self):
        x = random_metric_matrix(6, 40, seed=9)
        model = fit_factors(x)
        corr = x.values @ x.values.T / x.n_configs
        recon = model.loadings @ model.loadings.T
        assert np.max(np.abs(recon - corr)) < 1e-6

    def test_scale_invariance(self):
        names = ["m0", "m1"]
        rows = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 9.0]])
        m1 = fit_factors(build_metric_matrix([table_for("w", rows, names)]))
        scaled = rows.copy()
        scaled[:, 0] *= 1234.5
        m2 = fit_factors(build_metric_matrix([table_for("w", scaled, names)]))
        # invariant up to per-column sign (ties in the sign convention may
        # resolve differently under rescaling)
        for j in range(m1.loadings.shape[1]):
            a, b = m1.loadings[:, j], m2.loadings[:, j]
            assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-9

    def test_eigenvalues_non_increasing_and_sign_convention(self):
        x = random_metric_matrix(8, 30, seed=1)
        model = fit_factors(x)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        for j in range(model.loadings.shape[1]):
            col = model.loadings[:, j]
            if np.abs(col).max() > 0:
                assert col[np.argmax(np.abs(col))] >= 0


class TestRetainSignificant:
    def _model(self, eigenvalues, n_metrics=5):
        ev = np.asarray(eigenvalues, dtype=float)
        loadings = np.ones((n_metrics, len(ev)))
        return FactorModel(loadings=loadings, eigenvalues=ev,
                           metric_names=tuple(f"m{i}" for i in range(n_metrics)))

    def test_threshold(self):
        assert retain_significant(self._model([5, 2, 1.1, 0.4]), 30).retained == 3

    def test_cap(self):
        ev = np.linspace(40, 1.5, 40)
        assert retain_significant(self._model(ev, n_metrics=40), 30).retained == 30

    def test_tie_at_one_excluded(self):
        assert retain_significant(self._model([2.0, 1.0, 0.5]), 30).retained == 1

    def test_degenerate_warns_and_keeps_one(self):
        with pytest.warns(UserWarning):
            model = retain_significant(self._model([0.9, 0.5]), 30)
        assert model.retained == 1

    def test_retained_is_prefix(self):
        model = retain_significant(self._model([5, 2, 1.1, 0.4]), 2)
        assert model.retained == 2
        assert model.points.shape[1] == 2


class TestCorrelatedMetricProximity:
    def test_perfectly_correlated_metrics_coincide(self):
        spec = synth.SynthSpec(n_offline=5, n_online=1, rows_per_workload=4,
                               n_latent=2, metrics_per_latent=2, noise_std=0.0,
                               seed=2)
        corpus, truth = synth.generate_corpus(spec)
        model = fit_factors(build_metric_matrix(list(corpus.offline)))
        # metrics sharing a latent have sample correlation 1
        for i in range(len(truth.latent_of_metric)):
            for j in range(i + 1, len(truth.latent_of_metric)):
                if truth.latent_of_metric[i] == truth.latent_of_metric[j]:
                    d = np.linalg.norm(model.loadings[i] - model.loadings[j])
                    assert d < 1e-6
