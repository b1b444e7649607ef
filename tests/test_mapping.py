import numpy as np
import pytest

from dbtune import synth
from dbtune.errors import DataError, NumericalError
from dbtune.evaluate import MAPE_EPS
from dbtune.ingest import Schema
from dbtune.mapping import Repository, augment, map_and_augment, score_workloads
from dbtune.predict import build_features, fit_scaler

from conftest import identity_scaler, make_table


def simple_table(wid, schema, knob_rows, metric_rows, latency=None):
    n = len(knob_rows)
    return make_table(wid, knob_rows, metric_rows,
                      latency if latency is not None else [1.0] * n, schema)


class TestScoreWorkloads:
    def test_self_source_scores_zero(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert score_workloads(t, Repository([t], identity_scaler(tiny_schema)))[0] == 0.0

    def test_hand_evaluation(self, tiny_schema):
        # single pruned metric, single row: target 3 vs paired source 0
        target = simple_table("t", tiny_schema, [[0, 0]], [[3.0, 9]])
        source = simple_table("s", tiny_schema, [[0, 0]], [[0.0, 9]])
        scores = score_workloads(target, Repository([source], identity_scaler(tiny_schema, ("m0",))))
        assert scores.tolist() == [pytest.approx(3.0)]

    def test_copy_beats_perturbed(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 2], [3, 4]], [[5, 6], [7, 8]])
        copy = simple_table("copy", tiny_schema, [[1, 2], [3, 4]], [[5, 6], [7, 8]])
        pert = simple_table("pert", tiny_schema, [[1, 2], [3, 4]], [[6, 7], [9, 8]])
        # one score per source, in id order
        copy_score, pert_score = score_workloads(
            t, Repository([pert, copy], identity_scaler(tiny_schema)))
        assert copy_score < pert_score

    def test_score_is_mean_of_metric_distances(self, tiny_schema):
        # one row each: the euclid distances of m0 and m1 are 3 and 4
        t = simple_table("t", tiny_schema, [[0, 0]], [[1.0, 2.0]])
        s = simple_table("s", tiny_schema, [[0, 0]], [[4.0, 6.0]])
        assert score_workloads(t, Repository([s], identity_scaler(tiny_schema)))[0] == 3.5

    def test_empty_pruned_rejected(self, tiny_schema):
        # the scaler declares the features, so an empty metric set is refused there
        with pytest.raises(DataError, match="empty pruned metric set"):
            identity_scaler(tiny_schema, ())

    def test_variants_run(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[0, 0], [1, 1]], [[1, 2], [3, 4]])
        s = simple_table("s", tiny_schema, [[0, 0], [1, 1]], [[2, 2], [3, 5]])
        for variant in ("euclid", "mse", "mape"):
            assert score_workloads(t, Repository([s], identity_scaler(tiny_schema)), variant)[0] >= 0

    @pytest.mark.parametrize("variant", ["euclid", "mse", "mape"])
    def test_overflowing_score_refused(self, tiny_schema, variant):
        # finite features whose distance overflows: the first source by id is named
        t = simple_table("t", tiny_schema, [[0, 0]], [[0.0, 2.0]])
        sources = [simple_table(w, tiny_schema, [[0, 0]], [[1.7e308, 2.0]]) for w in ("s1", "s0")]
        with pytest.raises(NumericalError, match="target t: its score against source s0 is inf"):
            score_workloads(t, Repository(sources, identity_scaler(tiny_schema)), variant)


def reference_scores(target, sources, scaler, variant):
    """One source at a time, one metric column at a time: the batched scorer
    must give exactly these floats. Returns the id-sorted source ids and
    their scores."""
    idx = [target.schema.metric_names.index(name) for name in scaler.metric_names]
    k = len(scaler.knob_names)
    t_knobs = (target.knobs - scaler.means[:k]) / scaler.stds[:k]
    t_metrics = (target.metrics[:, idx] - scaler.means[k:]) / scaler.stds[k:]
    ids, scores = [], []
    for source in sorted(sources, key=lambda s: s.workload_id):
        s_knobs = (source.knobs - scaler.means[:k]) / scaler.stds[:k]
        s_metrics = (source.metrics[:, idx] - scaler.means[k:]) / scaler.stds[k:]
        diff = t_knobs[:, None, :] - s_knobs[None, :, :]
        paired = s_metrics[np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)]
        per_metric = []
        for j in range(len(scaler.metric_names)):
            t_col, d = t_metrics[:, j], t_metrics[:, j] - paired[:, j]
            if variant == "euclid":
                per_metric.append(float(np.sqrt(np.sum(d ** 2))))
            elif variant == "mse":
                per_metric.append(float(np.mean(d ** 2)))
            else:
                per_metric.append(float(100.0 / len(d) * np.sum(
                    np.abs(d) / np.maximum(np.abs(t_col), MAPE_EPS))))
        ids.append(source.workload_id)
        scores.append(float(np.mean(per_metric)))
    return tuple(ids), scores


class TestBatchedScoringExact:
    """The batched scorer against the per-source reference loop, compared with ==."""

    schema = Schema(knob_names=("k0", "k1", "k2"),
                    metric_names=tuple(f"m{i}" for i in range(12)),
                    latency_name="latency", workload_id_name="workload_id")
    # 9 pruned metrics and up to 11 target rows: both means run over >= 8
    # values, where numpy's pairwise summation differs from a plain loop
    pruned = ("m7", "m0", "m3", "m11", "m5", "m1", "m9", "m2", "m10")

    def _table(self, rng, wid, n, knob_levels=None):
        knobs = (rng.integers(0, knob_levels, size=(n, 3)).astype(float)
                 if knob_levels else rng.normal(size=(n, 3)) * 5.0)
        metrics = rng.lognormal(size=(n, 12)) * 100.0
        metrics[:, 4] = 0.0  # zero truth values exercise the MAPE guard
        return make_table(wid, knobs, metrics, rng.random(n), self.schema)

    def _check(self, target, sources):
        scaler = fit_scaler(sources + [target], self.schema, self.pruned)
        for variant in ("euclid", "mse", "mape"):
            want_ids, want_scores = reference_scores(target, sources, scaler, variant)
            repository = Repository(sources, scaler)
            res = map_and_augment(repository, target, variant)
            assert res.source_ids == want_ids
            assert res.scores.tolist() == want_scores
            assert res.chosen_source == min(zip(want_scores, want_ids))[1]
            # scored directly, the sources come back in id order
            assert score_workloads(target, repository, variant).tolist() == want_scores

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_target", [1, 5, 11])
    def test_unequal_row_counts(self, seed, n_target):
        rng = np.random.default_rng(seed)
        sources = [self._table(rng, f"s{i:02d}", int(rng.integers(1, 16)))
                   for i in range(25)]
        rng.shuffle(sources)
        self._check(self._table(rng, "t", n_target), sources)

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_knob_distances_first_row_wins(self, seed):
        # knobs on a 2-level grid: most target rows have several source rows
        # at the same (often zero) distance, and the first of them must pair
        rng = np.random.default_rng(100 + seed)
        sources = [self._table(rng, f"s{i}", int(rng.integers(2, 12)), knob_levels=2)
                   for i in range(8)]
        self._check(self._table(rng, "t", 9, knob_levels=2), sources)

    def test_tie_pairs_first_row(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[0, 0]], [[1.0, 1.0]])
        s = simple_table("s", tiny_schema, [[1, 0], [0, 1], [5, 5]],
                         [[1.0, 1.0], [9.0, 9.0], [1.0, 1.0]])
        assert score_workloads(t, Repository([s], identity_scaler(tiny_schema)))[0] == 0.0

    def test_empty_source_list(self, tiny_schema):
        with pytest.raises(DataError, match="no source workloads to map onto"):
            Repository([], identity_scaler(tiny_schema))

    def test_zero_row_source_named_first_in_sorted_order(self, tiny_schema):
        ok = simple_table("a_ok", tiny_schema, [[0, 0]], [[1, 2]])
        empties = [make_table(w, np.zeros((0, 2)), np.zeros((0, 2)), [], tiny_schema)
                   for w in ("z_empty", "m_empty")]
        with pytest.raises(DataError, match="source m_empty has no rows"):
            Repository([ok, *empties], identity_scaler(tiny_schema))


class TestRepository:
    def test_sources_in_id_order_with_their_features(self):
        spec = synth.SynthSpec(n_offline=5, n_online=1, rows_per_workload=4, seed=3)
        corpus, _ = synth.generate_corpus(spec)
        pruned = corpus.schema.metric_names[1::2]
        scaler = fit_scaler(list(corpus.offline), corpus.schema, pruned)
        tables = list(corpus.offline)[::-1]
        repository = Repository(tables, scaler)
        assert len(repository) == len(tables) == 5
        ordered = sorted(tables, key=lambda t: t.workload_id)
        assert [t.workload_id for t in repository.tables] == [t.workload_id for t in ordered]
        want = np.vstack([build_features(t, scaler) for t in ordered])
        assert repository.features.tobytes() == want.tobytes()


class TestAugment:
    def test_disjoint_knobs(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 1]], [[1, 1]])
        s = simple_table("s", tiny_schema, [[2, 2], [3, 3]], [[2, 2], [3, 3]])
        merged, dropped = augment(t, s)
        assert merged.n_rows == 3
        assert dropped == 0

    def test_exact_conflict_drops_source_row(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 1]], [[9, 9]], [5.0])
        s = simple_table("s", tiny_schema, [[1, 1], [2, 2]], [[1, 1], [2, 2]], [7.0, 8.0])
        merged, dropped = augment(t, s)
        assert dropped == 1
        assert merged.n_rows == 2
        # target's row survives, with its own latency
        assert merged.latency[0] == 5.0

    def test_total_conflict(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 1], [2, 2]], [[1, 1], [2, 2]])
        merged, dropped = augment(t, t)
        assert merged.n_rows == 2
        assert dropped == 2

    def test_idempotent_on_survivors(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 1]], [[1, 1]])
        s = simple_table("s", tiny_schema, [[1, 1], [4, 4]], [[0, 0], [4, 4]])
        merged, _ = augment(t, s)
        again, dropped2 = augment(t, merged.take(range(t.n_rows, merged.n_rows)))
        assert dropped2 == 0

    def test_order_target_first(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[1, 1]], [[1, 1]], [5.0])
        s = simple_table("s", tiny_schema, [[2, 2]], [[2, 2]], [6.0])
        merged, _ = augment(t, s)
        assert list(merged.latency) == [5.0, 6.0]


class TestMapAndAugment:
    def test_single_source_forced(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[0, 0]], [[1, 2]])
        s = simple_table("only", tiny_schema, [[5, 5]], [[9, 9]])
        res = map_and_augment(Repository([s], identity_scaler(tiny_schema)), t)
        assert res.chosen_source == "only"

    def test_lowest_score_chosen(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[0, 0]], [[1, 2]])
        far = simple_table("A", tiny_schema, [[1, 0]], [[5, 9]])
        near = simple_table("B", tiny_schema, [[1, 0]], [[1, 3]])
        res = map_and_augment(Repository([near, far], identity_scaler(tiny_schema)), t)
        assert res.source_ids == ("A", "B")
        assert res.scores[1] < res.scores[0]
        assert res.chosen_source == "B"
        assert res.augmented.metrics.tolist() == [[1, 2], [1, 3]]

    def test_empty_sources_rejected(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[0, 0]], [[1, 2]])
        with pytest.raises(DataError, match="no source workloads to map onto"):
            map_and_augment(Repository([], identity_scaler(tiny_schema)), t)

    def test_tie_breaks_lexicographic(self, tiny_schema):
        t = simple_table("t", tiny_schema, [[0, 0]], [[1, 2]])
        b, a = (simple_table(w, tiny_schema, [[1, 1]], [[3, 4]], [7.0]) for w in "BA")
        res = map_and_augment(Repository([b, a], identity_scaler(tiny_schema)), t)
        assert res.scores[0] == res.scores[1]
        assert res.chosen_source == "A"

    def test_row_arithmetic(self, tiny_schema):
        t = simple_table("t", tiny_schema,
                         [[i, i] for i in range(5)],
                         [[i, i] for i in range(5)])
        s = simple_table("s", tiny_schema,
                         [[10 + i, i] for i in range(12)],
                         [[i, i] for i in range(12)])
        res = map_and_augment(Repository([s], identity_scaler(tiny_schema)), t)
        assert res.augmented.n_rows == 17
        assert res.conflicts_dropped == 0

    def test_source_order_invariance(self, tiny_schema):
        rng = np.random.default_rng(0)
        t = simple_table("t", tiny_schema, rng.normal(size=(3, 2)),
                         rng.normal(size=(3, 2)))
        sources = [simple_table(f"s{i}", tiny_schema, rng.normal(size=(3, 2)),
                                rng.normal(size=(3, 2))) for i in range(4)]
        scaler = identity_scaler(tiny_schema)
        a = map_and_augment(Repository(sources, scaler), t).chosen_source
        b = map_and_augment(Repository(sources[::-1], scaler), t).chosen_source
        assert a == b

    def test_far_source_never_chosen(self, tiny_schema):
        rng = np.random.default_rng(1)
        t = simple_table("t", tiny_schema, rng.normal(size=(3, 2)),
                         rng.normal(size=(3, 2)))
        near = simple_table("near", tiny_schema, t.knobs + 0.01,
                            t.metrics + 0.01)
        far = simple_table("zzz_far", tiny_schema, t.knobs,
                           t.metrics + 1e6)
        scaler = identity_scaler(tiny_schema)
        before = map_and_augment(Repository([near], scaler), t).chosen_source
        after = map_and_augment(Repository([near, far], scaler), t).chosen_source
        assert before == after == "near"

    def test_planted_neighbor_recovery(self):
        spec = synth.SynthSpec(n_offline=6, n_online=2, rows_per_workload=6,
                               n_latent=2, metrics_per_latent=2, noise_std=0.05,
                               seed=123, freq_scale=1.0, profile_scale=2.0)
        corpus, truth = synth.generate_corpus(spec)
        p = (corpus.schema.metric_names[0], corpus.schema.metric_names[2])
        scaler = fit_scaler(list(corpus.offline), corpus.schema, p)
        sources = Repository(list(corpus.offline), scaler)
        for t in corpus.online_b:
            res = map_and_augment(sources, t)
            assert res.chosen_source == truth.nearest_source_of[t.workload_id]
