#!/usr/bin/env python3
"""Sweep the GPR noise level alpha and report training MAPE on a noisy
synthetic corpus, illustrating the fit/regularization trade-off.

Usage: python scripts/alpha_sweep.py [--seed N] [--noise-std S]
"""

import argparse
import sys

import numpy as np

from dbtune import evaluate, predict, synth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--noise-std", type=float, default=0.5)
    args = parser.parse_args()

    spec = synth.SynthSpec(n_offline=6, n_online=1, rows_per_workload=10,
                           n_latent=2, metrics_per_latent=2,
                           noise_std=args.noise_std, seed=args.seed)
    corpus, _ = synth.generate_corpus(spec)
    scaler = predict.fit_scaler(list(corpus.offline), corpus.schema, corpus.schema.metric_names)
    feats = np.vstack([predict.build_features(t, scaler) for t in corpus.offline])
    targets = np.concatenate([t.latency for t in corpus.offline])

    print(f"{'alpha':>10}  {'train MAPE %':>12}")
    for alpha in (1e8, 1e7, 1e5, 1e3, 1e1, 1e-1, 1e-3):
        model = predict.gpr_fit(feats, targets, alpha)
        mean, _ = predict.gpr_predict(model, feats)
        print(f"{alpha:>10.0e}  {evaluate.mape(targets, mean):>12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
