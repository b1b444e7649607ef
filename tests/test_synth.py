import json

import numpy as np
import pytest

from dbtune import synth
from dbtune.errors import DataError
from dbtune.ingest import load_corpus_from_manifest


SMALL = synth.SynthSpec(n_offline=4, n_online=2, rows_per_workload=5,
                        n_knobs=2, n_latent=2, metrics_per_latent=2,
                        noise_std=0.05, seed=9)


class TestSpec:
    def test_metric_count(self):
        assert SMALL.n_metrics == 4

    def test_bad_counts_rejected(self):
        with pytest.raises(DataError):
            synth.SynthSpec(n_offline=0)
        with pytest.raises(DataError):
            synth.SynthSpec(noise_std=-0.1)

    def test_size_bound(self):
        # 250 workloads * 40 rows * (2 knobs + 996 metrics + 2) is exactly the bound
        edge = dict(n_offline=200, n_online=25, rows_per_workload=40, n_knobs=2,
                    n_latent=996, metrics_per_latent=1)
        assert synth.SynthSpec(**edge).n_metrics == 996
        with pytest.raises(DataError, match="asks for 10010000 cells, more than 10000000"):
            synth.SynthSpec(**{**edge, "n_latent": 997})
        # 3163 * 3163 latent directions, in a corpus of 3 * 6328 cells
        with pytest.raises(DataError, match="asks for 10004569 cells"):
            synth.SynthSpec(n_offline=1, n_online=1, rows_per_workload=1, n_knobs=3163,
                            n_latent=3163, metrics_per_latent=1)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(synth.spec_to_json(SMALL))
        assert synth.SynthSpec.from_json(path) == SMALL

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_offline": 3, "bogus": 1}))
        with pytest.raises(DataError, match="bogus"):
            synth.SynthSpec.from_json(path)


class TestGenerate:
    def test_shapes_and_ids(self):
        corpus, truth = synth.generate_corpus(SMALL)
        assert len(corpus.offline) == 4
        assert len(corpus.online_b) == len(corpus.online_c) == 2
        assert corpus.offline[0].workload_id == "off_000"
        assert corpus.online_b[1].workload_id == "b_001"
        assert corpus.online_c[0].workload_id == "c_000"
        for t in corpus.all_tables():
            assert t.knobs.shape == (5, 2)
            assert t.metrics.shape == (5, 4)
            assert len(truth.latent_of_metric) == 4

    def test_latency_positive(self):
        corpus, _ = synth.generate_corpus(
            synth.SynthSpec(n_offline=10, n_online=4, noise_std=2.0, seed=3))
        for t in corpus.all_tables():
            assert np.all(t.latency > 0)

    def test_zero_noise_paired_metrics_perfectly_correlated(self):
        spec = synth.SynthSpec(n_offline=6, n_online=1, rows_per_workload=8,
                               n_latent=2, metrics_per_latent=3, noise_std=0.0,
                               seed=5)
        corpus, truth = synth.generate_corpus(spec)
        stacked = np.vstack([t.metrics for t in corpus.offline])
        groups = np.asarray(truth.latent_of_metric)
        for i in range(spec.n_metrics):
            for j in range(i + 1, spec.n_metrics):
                if groups[i] == groups[j]:
                    r = np.corrcoef(stacked[:, i], stacked[:, j])[0, 1]
                    assert abs(r - 1.0) < 1e-9

    def test_nearest_matches_independent_recompute(self):
        corpus, truth = synth.generate_corpus(SMALL)
        means = {t.workload_id: t.metrics.mean(axis=0) for t in corpus.offline}
        for t in list(corpus.online_b) + list(corpus.online_c):
            target = t.metrics.mean(axis=0)
            best, best_d = None, np.inf
            for wid in sorted(means):
                d = float(np.sqrt(np.sum((target - means[wid]) ** 2)))
                if d < best_d:
                    best, best_d = wid, d
            assert truth.nearest_source_of[t.workload_id] == best

    def test_planted_sources_are_offline(self):
        corpus, truth = synth.generate_corpus(SMALL)
        offline_ids = {t.workload_id for t in corpus.offline}
        assert set(truth.planted_source_of) == {
            t.workload_id for t in list(corpus.online_b) + list(corpus.online_c)}
        assert set(truth.planted_source_of.values()) <= offline_ids

    def test_latency_matches_planted_bowl_at_zero_noise(self):
        spec = synth.SynthSpec(n_offline=3, n_online=1, noise_std=0.0, seed=1)
        corpus, truth = synth.generate_corpus(spec)
        for t in corpus.all_tables():
            params = truth.latency_params[t.workload_id]
            expected = params["base"] + np.sum(
                np.asarray(params["curvature"])
                * (t.knobs - np.asarray(params["optimum"])) ** 2, axis=1)
            assert np.allclose(t.latency, expected, atol=1e-12)

    def test_deterministic(self):
        a, ta = synth.generate_corpus(SMALL)
        b, tb = synth.generate_corpus(SMALL)
        for x, y in zip(a.all_tables(), b.all_tables()):
            assert np.array_equal(x.knobs, y.knobs)
            assert np.array_equal(x.metrics, y.metrics)
            assert np.array_equal(x.latency, y.latency)
        assert ta == tb

    def test_seed_changes_data(self):
        a, _ = synth.generate_corpus(SMALL)
        b, _ = synth.generate_corpus(
            synth.SynthSpec(**{**SMALL.__dict__, "seed": 10}))
        assert not np.array_equal(a.offline[0].knobs, b.offline[0].knobs)


class TestWriteCorpus:
    def test_roundtrip_bitwise(self, tmp_path):
        corpus, _ = synth.generate_corpus(SMALL)
        manifest = synth.write_corpus(corpus, tmp_path / "corpus")
        back = load_corpus_from_manifest(manifest)
        assert back.schema == corpus.schema
        for x, y in zip(corpus.all_tables(), back.all_tables()):
            assert x.workload_id == y.workload_id
            assert np.array_equal(x.knobs, y.knobs)
            assert np.array_equal(x.metrics, y.metrics)
            assert np.array_equal(x.latency, y.latency)

    def test_byte_identical_files(self, tmp_path):
        corpus, _ = synth.generate_corpus(SMALL)
        m1 = synth.write_corpus(corpus, tmp_path / "a")
        m2 = synth.write_corpus(corpus, tmp_path / "b")
        for f1 in sorted(m1.parent.iterdir()):
            assert f1.read_bytes() == (m2.parent / f1.name).read_bytes()

    def test_unwritable_destination(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        corpus, _ = synth.generate_corpus(SMALL)
        # a path nested under an existing regular file cannot be created
        with pytest.raises(DataError):
            synth.write_corpus(corpus, blocker / "sub")
