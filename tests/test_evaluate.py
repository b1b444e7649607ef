import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dbtune.errors import DataError
from dbtune.evaluate import (
    EvalReport,
    compare_models,
    mape,
    mse,
    parse_predictions_csv,
)

finite = st.floats(min_value=0.1, max_value=1e6)
# any id csv_text writes as one cell and ingest keeps as it is: no separator, no
# surrounding space or tab; \x1c, \x85 and \u2028 break lines for str.splitlines.
# No NUL: the csv module refuses it before Python 3.11.
ids = (st.text(min_size=1) | st.sampled_from(["a\x1cb", "a\x85b", "a\u2028b", "a\x0bb\x0cc",
                                             "\xa0a\x1f"]))
ids = ids.filter(lambda s: s == s.strip(" \t") and not set(s) & set(',"\r\n\x00'))
points = st.lists(st.tuples(ids, st.floats(0, 1e300), st.floats(-1e300, 1e300)),
                  min_size=1, max_size=6)


class TestMape:
    def test_identity(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_fixture(self):
        assert mape([100.0, 100.0], [110.0, 90.0]) == pytest.approx(10.0, abs=1e-12)

    def test_zero_truth_guarded(self):
        assert mape([0.0], [1.0]) == pytest.approx(1e8)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mape([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DataError):
            mape([], [])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=10), st.floats(min_value=0.01, max_value=100))
    def test_scale_invariance(self, truth, c):
        truth = np.array(truth)
        pred = truth * 1.1
        assert mape(c * truth, c * pred) == pytest.approx(mape(truth, pred), rel=1e-9)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(1, 10, 20)
        p = t.copy()
        p[3] += 0.5
        assert mape(t, t) == 0.0
        assert mape(t, p) > 0.0


class TestMse:
    def test_identity(self):
        assert mse([3.0], [3.0]) == 0.0

    def test_hand_fixture(self):
        assert mse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5, abs=1e-12)

    def test_homogeneity(self):
        t = np.array([1.0, 2.0, 3.0])
        p = np.array([1.5, 2.5, 2.0])
        assert mse(3 * t, 3 * p) == pytest.approx(9 * mse(t, p), rel=1e-12)


class TestEvalReport:
    def test_metrics_recomputable(self):
        report = EvalReport("m", (("a", 100.0, 110.0), ("b", 100.0, 90.0)))
        assert report.mape == pytest.approx(10.0)
        assert report.mse == pytest.approx(100.0)
        assert report.n == 2

    def test_csv_roundtrip(self):
        report = EvalReport("m", (("a", 1.2345678901234567, 2.0),
                                  ("b", 3.0, 4.000000000000001)))
        back = parse_predictions_csv(report.predictions_csv(), "m")
        assert back == report

    @settings(max_examples=200)
    @given(points)
    @example([("b", 1.0, 2.0), ("a", 3.0, 4.0), ("b", 5.0, 6.0), ("a\x1cb", 7.0, 8.0)])
    def test_csv_roundtrip_any_id(self, per_point):
        # rows come back in file order, which mape_pct depends on
        report = EvalReport("m", tuple(per_point))
        assert parse_predictions_csv(report.predictions_csv(), "m") == report

    def test_parse_missing_column(self):
        with pytest.raises(DataError, match="prediction"):
            parse_predictions_csv("workload_id,truth\na,1\n", "m")

    def test_parse_bad_row(self):
        text = "workload_id,truth,prediction\na,1,2\nb,1\n"
        with pytest.raises(DataError, match="^m:3: expected 3 cells, got 2$"):
            parse_predictions_csv(text, "m")


class TestCompareModels:
    def _report(self, name, m):
        # single point with truth 100 gives MAPE == |100 - pred|
        return EvalReport(name, (("w", 100.0, 100.0 + m),))

    def test_single_row(self):
        csv_text, aligned = compare_models([self._report("only", 5.0)])
        assert csv_text.splitlines()[0] == "model,mape,mse,n"
        assert len(csv_text.strip().splitlines()) == 2
        assert "only" in aligned

    def test_sorted_by_mape(self):
        # Ordering fixture: EM < Baseline < RF < NN by MAPE
        reports = [self._report("Baseline", 69.61), self._report("EM", 67.85),
                   self._report("NN", 78.98), self._report("RF", 77.26)]
        csv_text, _ = compare_models(reports)
        order = [line.split(",")[0] for line in csv_text.strip().splitlines()[1:]]
        assert order == ["EM", "Baseline", "RF", "NN"]

    def test_equal_mape_lexicographic(self):
        csv_text, _ = compare_models([self._report("b", 5.0), self._report("a", 5.0)])
        order = [line.split(",")[0] for line in csv_text.strip().splitlines()[1:]]
        assert order == ["a", "b"]
