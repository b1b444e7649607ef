"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Every expected value here is either hand-computed or produced by an
independent oracle (dense solves, exhaustive search, finite differences,
planted synthetic ground truth) — never by the code under test.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dbtune import cli, cluster, evaluate, factors, ingest, mapping, predict, synth


def _verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_factor_correctness():
    """Eigenvalue sum equals metric count; loadings reconstruct correlations."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    raw = rng.normal(size=(10, 50))
    raw = (raw - raw.mean(axis=1, keepdims=True)) / raw.std(axis=1, keepdims=True)
    mm = factors.MetricMatrix(values=raw,
                              metric_names=tuple(f"m{i}" for i in range(10)),
                              n_configs=50)
    model = factors.fit_factors(mm)
    trace_err = abs(float(model.eigenvalues.sum()) - 10.0)
    corr = raw @ raw.T / 50
    recon_err = float(np.max(np.abs(model.loadings @ model.loadings.T - corr)))
    elapsed = time.monotonic() - start
    _verdict("criterion-1 factor correctness",
             trace_err < 1e-6 and recon_err < 1e-6 and elapsed < 1.0,
             f"trace err {trace_err:.2e}, recon err {recon_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_cluster_recovery():
    """Silhouette sweep finds the 8 planted latent groups in >= 9/10 seeds."""
    start = time.monotonic()
    hits = 0
    reps_ok = True
    for seed in range(10):
        spec = synth.SynthSpec(n_offline=30, n_online=1, rows_per_workload=6,
                               n_knobs=3, n_latent=8, metrics_per_latent=4,
                               noise_std=0.05, seed=seed)
        corpus, truth = synth.generate_corpus(spec)
        mm = factors.build_metric_matrix(list(corpus.offline))
        model = factors.retain_significant(factors.fit_factors(mm), 30)
        sel = cluster.sweep_k(model.points, "kmeans", range(2, 16), seed=seed)
        if sel.chosen_k != 8:
            continue
        hits += 1
        pruned = cluster.select_representatives(sel.model, model)
        name_to_latent = dict(zip(mm.metric_names, truth.latent_of_metric))
        groups = [name_to_latent[n] for n in pruned]
        if sorted(groups) != list(range(8)):
            reps_ok = False
    elapsed = time.monotonic() - start
    _verdict("criterion-2 cluster recovery",
             hits >= 9 and reps_ok and elapsed < 30.0,
             f"k=8 in {hits}/10 seeds, one rep per group: {reps_ok}, {elapsed:.1f}s")


def test_criterion_3_em_sanity():
    """EM log-likelihood never decreases; BIC recovers 3 planted components."""
    start = time.monotonic()
    trace_ok = True
    for seed in range(4):
        pts = np.random.default_rng(seed).normal(size=(40, 3))
        m = cluster.fit_gmm_em(pts, 3, seed=seed)
        if not np.all(np.diff(m.log_likelihood_trace) >= -1e-7):
            trace_ok = False
    rng = np.random.default_rng(42)
    pts = np.vstack([rng.normal(loc=c, scale=0.4, size=(50, 2))
                     for c in ([0, 0], [6, 0], [3, 5])])
    bics = {k: cluster.bic_score(cluster.fit_gmm_em(pts, k, seed=0), pts)
            for k in range(1, 7)}
    chosen = min(bics, key=bics.get)
    elapsed = time.monotonic() - start
    _verdict("criterion-3 EM sanity",
             trace_ok and chosen == 3 and elapsed < 10.0,
             f"traces monotone: {trace_ok}, BIC argmin {chosen}, {elapsed:.1f}s")


def test_criterion_4_mapping_oracle():
    """Planted nearest source recovered in >= 95/100 trials; self-score 0."""
    start = time.monotonic()
    hits = 0
    for trial in range(100):
        spec = synth.SynthSpec(n_offline=6, n_online=1, rows_per_workload=6,
                               n_latent=2, metrics_per_latent=2, noise_std=0.05,
                               seed=trial, freq_scale=1.0, profile_scale=2.0)
        corpus, truth = synth.generate_corpus(spec)
        scaler = predict.fit_scaler(list(corpus.offline), corpus.schema,
                                    corpus.schema.metric_names)
        target = corpus.online_b[0]
        res = mapping.map_and_augment(list(corpus.offline), target, scaler)
        if res.chosen_source == truth.nearest_source_of[target.workload_id]:
            hits += 1
    # self-source distance is exactly zero
    t = corpus.offline[0]
    self_zero = mapping.score_workloads(t, [t], scaler)[0] == 0.0
    elapsed = time.monotonic() - start
    _verdict("criterion-4 mapping oracle",
             hits >= 95 and self_zero and elapsed < 30.0,
             f"{hits}/100 planted sources recovered, self-score zero: {self_zero}, "
             f"{elapsed:.1f}s")


def test_criterion_5_gpr_correctness():
    """Posterior matches a dense-inverse oracle; near-exact interpolation."""
    x = np.array([[0.0], [0.3], [0.6], [0.8], [1.0]])
    y = np.array([1.0, 2.0, 1.5, 0.5, 1.2])
    alpha = 1e-4
    model = predict.gpr_fit(x, y, alpha)
    q = np.array([[0.15], [0.45], [0.9], [2.0]])
    mean, var = predict.gpr_posterior(model, q)

    def rbf(a, b):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        return model.signal_variance * np.exp(-d2 / (2 * model.length_scale ** 2))

    k_xx = rbf(x, x) + model.alpha * np.eye(5)
    k_qx = rbf(q, x)
    inv = np.linalg.inv(k_xx)
    oracle_mean = k_qx @ inv @ (y - y.mean()) + y.mean()
    oracle_var = model.signal_variance - np.sum((k_qx @ inv) * k_qx, axis=1)
    mean_err = float(np.max(np.abs(mean - oracle_mean)))
    var_err = float(np.max(np.abs(var - oracle_var)))

    # interpolation at tiny noise
    xs = np.linspace(0, 2 * np.pi, 25).reshape(-1, 1)
    ys = np.sin(xs).ravel()
    interp = predict.gpr_fit(xs, ys, 1e-6)
    pm, pv = predict.gpr_posterior(interp, xs)
    interp_err = float(np.max(np.abs(pm - ys)))
    var_floor = float(min(pv.min(), var.min()))
    _verdict("criterion-5 GPR correctness",
             mean_err < 1e-8 and var_err < 1e-8 and interp_err < 1e-3
             and var_floor >= -1e-8,
             f"oracle mean err {mean_err:.2e}, var err {var_err:.2e}, "
             f"interp err {interp_err:.2e}, min raw var {var_floor:.2e}")


def test_criterion_6_alpha_trend():
    """Training MAPE non-increasing as the GPR noise level drops."""
    start = time.monotonic()
    spec = synth.SynthSpec(n_offline=6, n_online=1, rows_per_workload=10,
                           n_latent=2, metrics_per_latent=2, noise_std=0.5,
                           seed=11)
    corpus, _ = synth.generate_corpus(spec)
    scaler = predict.fit_scaler(list(corpus.offline), corpus.schema, corpus.schema.metric_names)
    feats = np.vstack([predict.build_features(t, scaler)
                       for t in corpus.offline])
    targets = np.concatenate([t.latency for t in corpus.offline])
    mapes = []
    for alpha in (1e8, 1e7, 1e5, 1e3, 1e1, 1e-1):
        model = predict.gpr_fit(feats, targets, alpha)
        mapes.append(evaluate.mape(targets, predict.gpr_predict(model, feats)[0]))
    monotone = all(b <= a + 1e-9 for a, b in zip(mapes, mapes[1:]))
    elapsed = time.monotonic() - start
    _verdict("criterion-6 alpha trend",
             monotone and elapsed < 60.0,
             "MAPE " + " -> ".join(f"{m:.2f}" for m in mapes) + f", {elapsed:.1f}s")


def test_criterion_7_predictor_contract():
    """RF stays in the target range; MLP gradients check out; all deterministic."""
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(40, 3))
    y = 50.0 + 100.0 * x[:, 0] + 20.0 * x[:, 1] * x[:, 2]
    q = rng.uniform(-0.5, 1.5, size=(30, 3))

    rf = predict.rf_fit(x, y, n_trees=25, max_depth=8, seed=0)
    preds = predict.rf_predict(rf, q)
    bounded = bool(np.all(preds >= y.min()) and np.all(preds <= y.max()))

    # analytic MLP gradients vs central finite differences
    model = predict.mlp_fit(x[:8], y[:8], hidden_units=5, epochs=0, seed=1)
    grads = predict.mlp_gradients(model, x[:8], y[:8])
    eps, worst = 1e-6, 0.0
    for name in ("w1", "b1", "w2", "b2"):
        flat, gflat = getattr(model, name).ravel(), np.asarray(grads[name]).ravel()
        idx = np.linspace(0, flat.size - 1, min(10, flat.size)).astype(int)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp = predict.mlp_loss(model, x[:8], y[:8])
            flat[i] = orig - eps
            lm = predict.mlp_loss(model, x[:8], y[:8])
            flat[i] = orig
            fd = (lp - lm) / (2 * eps) / 100.0  # the loss is in percent, the gradient is not
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    grad_ok = worst < 1e-4

    deterministic = True
    for fit in (lambda: predict.gpr_predict(predict.gpr_fit(x, y, 1e-2), q)[0],
                lambda: predict.rf_predict(
                    predict.rf_fit(x, y, n_trees=10, max_depth=6, seed=4), q),
                lambda: predict.mlp_predict(
                    predict.mlp_fit(x, y, hidden_units=8, epochs=20, seed=4), q)):
        if not np.array_equal(fit(), fit()):
            deterministic = False
    _verdict("criterion-7 predictor contract",
             bounded and grad_ok and deterministic,
             f"RF bounded: {bounded}, worst grad rel err {worst:.2e}, "
             f"deterministic: {deterministic}")


def test_criterion_8_end_to_end(tmp_path):
    """Full pipeline: stage-1 MAPE < 5% on a clean corpus, byte-deterministic."""
    start = time.monotonic()
    spec = synth.SynthSpec(n_offline=12, n_online=5, rows_per_workload=8,
                           n_knobs=3, n_latent=3, metrics_per_latent=3,
                           noise_std=0.0, seed=7,
                           freq_scale=1.0, profile_scale=2.0)
    corpus, _ = synth.generate_corpus(spec)
    manifest = synth.write_corpus(corpus, tmp_path / "corpus")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli.main(["pipeline", "--manifest", str(manifest),
                         "--out", str(out), "--alpha", "1e-6", "--seed", "0"])
        assert code == 0
        outs.append(out)
    pred_file = next(outs[0].glob("predictions_*stage1.csv"))
    report = evaluate.parse_predictions_csv(pred_file.read_text(), "stage1")
    identical = all((outs[0] / p.name).read_bytes() == (outs[1] / p.name).read_bytes()
                    for p in sorted(outs[0].iterdir()))
    elapsed = time.monotonic() - start
    _verdict("criterion-8 end-to-end",
             report.mape < 5.0 and identical and elapsed < 300.0,
             f"stage-1 MAPE {report.mape:.2f}%, byte-identical reruns: {identical}, "
             f"{elapsed:.1f}s")


def test_criterion_9_metric_formulas():
    """Hand-computed MAPE/MSE fixtures and scale invariance over 100 vectors."""
    mape_err = abs(evaluate.mape([100.0, 100.0], [110.0, 90.0]) - 10.0)
    mse_err = abs(evaluate.mse([0.0, 0.0], [3.0, 4.0]) - 12.5)
    rng = np.random.default_rng(99)
    invariant = True
    for _ in range(100):
        truth = rng.uniform(0.5, 100.0, size=rng.integers(1, 20))
        pred = truth * rng.uniform(0.5, 1.5, size=truth.shape)
        c = float(rng.uniform(0.01, 100.0))
        a, b = evaluate.mape(truth, pred), evaluate.mape(c * truth, c * pred)
        if abs(a - b) > 1e-9 * max(1.0, a):
            invariant = False
    _verdict("criterion-9 metric formulas",
             mape_err < 1e-12 and mse_err < 1e-12 and invariant,
             f"mape err {mape_err:.1e}, mse err {mse_err:.1e}, "
             f"scale-invariant: {invariant}")


def _held_out_against_constant(tmp_path, predictor, args):
    """On corpora of strong workload identity (the fit-rf benchmark's spec),
    seeds 1-3: whether, in both stages, the predictor's held-out MAPE is
    below that of predicting each target's mean latency over its n_map
    mapping rows, and a line per seed and stage. Both are scored against the
    held-out latencies of the generated corpus."""
    n_map, detail, ok = 5, [], True
    for seed in (1, 2, 3):
        spec = synth.SynthSpec(n_online=16, freq_scale=1.0, profile_scale=2.0, seed=seed)
        corpus, _ = synth.generate_corpus(spec)
        manifest = synth.write_corpus(corpus, tmp_path / f"corpus{seed}")
        out = tmp_path / f"run{seed}"
        assert cli.main(["pipeline", "--manifest", str(manifest), "--out", str(out),
                         "--predictor", predictor, *args, "--n-map", str(n_map)]) == 0
        for stage, targets in (("stage1", corpus.online_b), ("stage2", corpus.online_c)):
            lines = (out / f"predictions_{predictor}_{stage}.csv").read_text().splitlines()[1:]
            pred = {line.split(",")[0]: float(line.split(",")[2]) for line in lines}
            truth = np.array([t.latency[n_map] for t in targets])
            model = np.array([pred[t.workload_id] for t in targets])
            const = np.array([t.latency[:n_map].mean() for t in targets])
            model_mape, const_mape = (100 * np.mean(np.abs(p - truth) / truth)
                                      for p in (model, const))
            ok &= bool(model_mape < const_mape)
            detail.append(f"seed {seed} {stage}: {predictor} {model_mape:.1f}% "
                          f"vs constant {const_mape:.1f}%")
    return ok, "; ".join(detail)


def test_criterion_10_forest_beats_constant(tmp_path):
    """The forest beats the constant on held-out rows (see
    `_held_out_against_constant`)."""
    ok, detail = _held_out_against_constant(tmp_path, "rf", ["--trees", "200", "--depth", "50"])
    _verdict("criterion-10 forest beats the constant", ok, detail)


def test_criterion_11_forests_grown_together_equal_forests_grown_alone(tmp_path):
    """`pipeline --predictor rf` grows all of a stage's forests in one
    lock-step loop. With the batch cap at one job, each forest grows alone;
    every output file, stdout and stderr (a notice per target) are the same
    bytes."""
    spec = synth.SynthSpec(n_online=16, rows_per_workload=8, freq_scale=1.0,
                           profile_scale=2.0, seed=4)
    manifest = synth.write_corpus(synth.generate_corpus(spec)[0], tmp_path / "corpus")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for cap in ("predict._BATCH_TREES", "1"):
        out = tmp_path / f"cap_{len(runs)}"
        code = (f"import sys; from dbtune import cli, predict; predict._BATCH_TREES = {cap}; "
                f"sys.exit(cli.main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", code, "pipeline", "--manifest",
                               str(manifest), "--out", str(out), "--predictor", "rf",
                               "--trees", "50"],
                              capture_output=True, env={**os.environ, "PYTHONPATH": src})
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((done.returncode, done.stdout, done.stderr, files))
    together, alone = runs
    _verdict("criterion-11 forests grown together equal forests grown alone",
             together == alone and together[0] == 0 and len(together[3]) == 10
             and b"warning: " in together[2],
             f"exit codes {together[0]}/{alone[0]}, {len(together[3])} files, "
             f"equal: {together == alone}")


def test_criterion_12_network_beats_constant(tmp_path):
    """The network, its output bias started at the mean of its targets,
    beats the constant on held-out rows (see `_held_out_against_constant`)."""
    ok, detail = _held_out_against_constant(tmp_path, "nn", [])
    _verdict("criterion-12 network beats the constant", ok, detail)
