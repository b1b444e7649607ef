"""The benchmark's four workloads: corpus shape, command sequence and quality floors.

Each workload is a synthetic corpus spec plus the `dbtune` commands one pass
runs on it. Every command writes into its own directory under the pass's
output root, so a failed check can be charged to the command that wrote the
file. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# rows of each online table used for mapping; row N_MAP is the held-out row
# the pipeline predicts (the CLI default of --n-map)
N_MAP = 5


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields except the seed
    # corpora per run; each is run at least once and the first is run twice,
    # so quality pools over all of them whatever the machine speed.
    # Single-corpus quality varies a lot with the seed, and on a shared
    # machine a run needs about five passes for a steady median wall time.
    corpora: int
    # "pipeline" runs the two-stage pipeline; "serve" runs the stage commands
    kind: str
    flags: tuple[str, ...]
    # lowest mapping hit rate a correct program gives on any corpus: it
    # catches a broken stage, not a small quality change (the metric does)
    min_hit_rate: float

    @property
    def predictor(self) -> str:
        return self.flags[self.flags.index("--predictor") + 1]

    def steps(self, manifest: Path, out: Path) -> list[tuple[str, list[str]]]:
        """(step name, argv) for one pass; step s writes under out / s."""
        m = str(manifest)
        if self.kind == "pipeline":
            return [("pipeline", ["pipeline", "--manifest", m, "--out", str(out / "pipeline"),
                                  *self.flags])]
        pruned = str(out / "prune" / "pruned_metrics.txt")
        steps = [
            ("prune", ["prune", "--manifest", m, "--out", str(out / "prune")]),
            ("map", ["map", "--manifest", m, "--out", str(out / "map"), "--pruned", pruned]),
            ("train", ["train", "--manifest", m, "--out", str(out / "train"),
                       "--pruned", pruned, *self.flags]),
        ]
        for group, step in (("online_b", "predict_b"), ("online_c", "predict_c")):
            steps.append((step, ["predict", "--manifest", m, "--out", str(out / step),
                                 "--model-dir", str(out / "train"), "--group", group,
                                 "--predictor", self.predictor]))
        return steps

    def outputs(self) -> dict[str, str]:
        """Where each checked output lands, relative to the pass's output root."""
        if self.kind == "pipeline":
            p = self.predictor
            return {"pred_b": f"pipeline/predictions_{p}_stage1.csv",
                    "pred_c": f"pipeline/predictions_{p}_stage2.csv",
                    "map": "pipeline/map_report.csv",
                    "pruned": "pipeline/pruned_metrics.txt"}
        return {"pred_b": f"predict_b/predictions_{self.predictor}.csv",
                "pred_c": f"predict_c/predictions_{self.predictor}.csv",
                "map": "map/map_report.csv",
                "pruned": "prune/pruned_metrics.txt"}


RF_FLAGS = ("--predictor", "rf", "--trees", "200", "--depth", "50")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="map-large",
        spec=dict(n_offline=200, n_online=40, rows_per_workload=20, n_knobs=8, n_latent=8,
                  metrics_per_latent=8, freq_scale=1.0, profile_scale=2.0),
        corpora=5, kind="pipeline", flags=("--predictor", "gpr"), min_hit_rate=0.9),
    Workload(
        name="fit-rf",
        spec=dict(n_online=16, freq_scale=1.0, profile_scale=2.0),
        corpora=5, kind="pipeline", flags=RF_FLAGS, min_hit_rate=0.8),
    Workload(
        name="prune-wide",
        spec=dict(n_offline=40, n_online=8, rows_per_workload=10, n_knobs=8, n_latent=24,
                  metrics_per_latent=15),
        corpora=5, kind="pipeline", flags=("--method", "gmm", "--k-max", "30",
                                           "--predictor", "gpr"),
        # weak workload identity in this corpus: mapping is far from perfect
        # (0.375-0.875 on single corpora) but far above chance (1/40)
        min_hit_rate=0.15),
    Workload(
        name="serve-rf",
        spec=dict(n_online=200, rows_per_workload=10, freq_scale=1.0, profile_scale=2.0),
        corpora=3, kind="serve", flags=RF_FLAGS, min_hit_rate=0.9),
)}


def corpus_seed(seed: int, index: int) -> int:
    """Seed of the index-th corpus of a run; runs with distinct seeds share none."""
    return seed * 1000 + index
