"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Target, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PLANTED = {"b_000": "off_001", "b_001": "off_002", "c_000": "off_001", "c_001": "off_002"}


def test_hit_rate_counts_offline_matches():
    chosen = {"b_000": "off_001", "b_001": "off_000"}
    assert checks.hit_rate(chosen, PLANTED) == (1, 2)


def test_hit_rate_c_target_on_b_workload_uses_the_b_workloads_source():
    # c_000 was planted from off_001, like b_000: mapping onto b_000 is a hit;
    # b_001 was planted from off_002, so mapping c_000 onto it is a miss
    assert checks.hit_rate({"c_000": "b_000"}, PLANTED) == (1, 1)
    assert checks.hit_rate({"c_000": "b_001"}, PLANTED) == (0, 1)
    assert checks.hit_rate({"c_001": "b_001", "c_000": "off_002"}, PLANTED) == (1, 2)


def test_chosen_sources_reads_the_flagged_row_per_target():
    report = ("target_id,source_id,score,chosen,conflicts_dropped\n"
              "b_000,off_000,2.5,0,\n"
              "b_000,off_001,0.5,1,0\n"
              "c_000,b_000,0.25,1,0\n")
    assert checks.chosen_sources(report) == {"b_000": "off_001", "c_000": "b_000"}


def test_group_recall_counts_groups_not_metrics():
    latent = {"m0": 0, "m1": 0, "m2": 1, "m3": 2}
    assert checks.group_recall(["m0", "m1"], latent, 3) == 1 / 3
    assert checks.group_recall(["m1", "m2", "m3"], latent, 3) == 1.0


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.5, parent=1),
        Span("child", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 1.5, 1.5, 1.0]


def test_tracer_records_nesting_and_restores_originals():
    mod = types.SimpleNamespace(__name__="mod")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer = Tracer([Target(mod, "outer", "t.outer_s"),
                     Target(mod, "inner", "t.inner_s", lambda a, k, r: {"t.calls": r})])
    with tracer.tracing(pass_id=7):
        assert mod.outer(1) == 4
    assert mod.inner is original_inner
    names = [s.name for s in tracer.spans]
    assert names == ["mod.outer", "mod.inner", Tracer.COUNT_SPAN]
    outer, inner, count = tracer.spans
    assert inner.parent == 0 and count.parent == 0 and outer.parent is None
    assert inner.counts == {"t.calls": 2}
    assert {s.pass_id for s in tracer.spans} == {7}
    selves = self_times(tracer.spans)
    assert abs(sum(selves) - (outer.end - outer.start)) < 1e-9


def test_pass_layers_charges_self_times_and_leaves_out_counting():
    spans = [Span("dbtune.predict.rf_fit", 0.0, 2.0, counts={"predict.fit_calls": 1}),
             Span(Tracer.COUNT_SPAN, 2.0, 2.5),
             Span("dbtune.cluster.fit_gmm_em", 3.0, 5.0),
             Span("dbtune.cluster.fit_kmeans", 3.5, 4.0, parent=2)]
    out = layers.pass_layers(spans, self_times(spans), wall=6.0)
    assert out["predict.fit_s"] == 2.0 and out["predict.fit_calls"] == 1
    assert out["cluster.kmeans_s"] == 0.5
    assert out["cluster.fit_s"] == 2.0  # EM's own 1.5 s plus k-means
    assert out["cli.other_s"] == 1.5  # 6 s wall minus 4.5 s of spans, counting included


def test_digests_find_changed_missing_and_extra_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "step").mkdir(parents=True)
        (root / "step" / "same.csv").write_bytes(b"x,1\n")
        (root / "step" / "changed.csv").write_bytes(b"x,1\n")
    (b / "step" / "changed.csv").write_bytes(b"x,1.0\n")
    (a / "step" / "only_a.txt").write_bytes(b"")
    assert checks.differing(checks.digests(a), checks.digests(a)) == []
    assert checks.differing(checks.digests(a), checks.digests(b)) == [
        "step/changed.csv", "step/only_a.txt"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER


def _write_pipeline_outputs(out, truth_c=2.0):
    d = out / "pipeline"
    d.mkdir(parents=True)
    (d / "predictions_gpr_stage1.csv").write_text("workload_id,truth,prediction\nb_000,1,1.1\n")
    (d / "predictions_gpr_stage2.csv").write_text(
        f"workload_id,truth,prediction\nc_000,{truth_c!r},1.9\n")
    (d / "map_report.csv").write_text("target_id,source_id,score,chosen,conflicts_dropped\n"
                                      "b_000,off_001,0.5,1,0\nc_000,b_000,0.5,1,0\n")
    (d / "pruned_metrics.txt").write_text("m0\nm2\n")


def test_check_outputs_charges_a_wrong_truth_column_to_its_step(tmp_path):
    planted = checks.Planted({"b_000": "off_001", "c_000": "off_001"},
                             {"m0": 0, "m1": 0, "m2": 1}, 2,
                             [("b_000", 1.0)], [("c_000", 2.0)])
    workload = WORKLOADS["map-large"]
    _write_pipeline_outputs(tmp_path / "good")
    quality, failures = checks.check_outputs(workload, planted, tmp_path / "good")
    assert failures == {}
    assert (quality.hits, quality.targets, quality.recall, quality.k_error) == (2, 2, 1.0, 0)
    assert abs(quality.mape_c_pct - 5.0) < 1e-9

    _write_pipeline_outputs(tmp_path / "bad", truth_c=2.5)
    quality, failures = checks.check_outputs(workload, planted, tmp_path / "bad")
    assert quality is None and list(failures) == ["pipeline"]
