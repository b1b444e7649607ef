"""Synthetic workload corpora with known ground truth.

Each workload draws a latent profile; metrics are noisy scaled copies of a
small set of smooth latent signals of the knobs, so the true factor count
and metric grouping are known by construction. Latency is a positive
quadratic bowl in knob space with workload-specific coefficients. Online
workloads are perturbed copies of offline ones, so the nearest source is
planted and independently recomputed by exhaustive distance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import (GROUP_NAMES, Corpus, Schema, WorkloadTable, check_fields, csv_text,
                     read_json_object, write_text)

ONLINE_PERTURB = 0.05
LATENCY_NOISE_GAIN = 10.0
MIN_LATENCY = 1e-3
# bound on the cells of a spec's corpus, (n_offline + 2 n_online) *
# rows_per_workload * (n_knobs + n_metrics + 2), and of its latent directions,
# n_latent * n_knobs; the largest benchmark corpus (map-large) has 414,400
MAX_CELLS = 10 ** 7


@dataclass(frozen=True)
class SynthSpec:
    n_offline: int = 20
    n_online: int = 8  # per online group
    rows_per_workload: int = 6
    n_knobs: int = 3
    n_latent: int = 4
    metrics_per_latent: int = 3
    noise_std: float = 0.05
    seed: int = 0
    # high frequencies with modest profiles keep latent groups
    # near-uncorrelated across configurations (clean factor spectrum);
    # low frequencies with strong profiles make workload identity dominate
    # the metrics (easy nearest-workload structure)
    freq_scale: float = 6.0
    profile_scale: float = 0.5

    def __post_init__(self):
        counts = (self.n_offline, self.n_online, self.rows_per_workload,
                  self.n_knobs, self.n_latent, self.metrics_per_latent)
        if any(c < 1 for c in counts):
            raise DataError("all synth counts must be >= 1")
        cells = ((self.n_offline + 2 * self.n_online) * self.rows_per_workload
                 * (self.n_knobs + self.n_metrics + 2))
        if (size := max(cells, self.n_latent * self.n_knobs)) > MAX_CELLS:
            raise DataError(f"synth spec asks for {size} cells, more than {MAX_CELLS}")
        if self.noise_std < 0:
            raise DataError("noise_std must be >= 0")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_metrics(self) -> int:
        return self.n_latent * self.metrics_per_latent

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        return cls(**check_fields(cls, read_json_object(path), "synth spec"))


@dataclass(frozen=True)
class GroundTruth:
    """What `generate_corpus` planted; `synth` writes it, in field order, to ground_truth.json."""

    latent_of_metric: tuple[int, ...]
    nearest_source_of: dict[str, str]  # online workload id -> offline workload id
    planted_source_of: dict[str, str]
    latency_params: dict[str, dict]  # workload id -> {"base", "curvature", "optimum"}


def _schema(spec: SynthSpec) -> Schema:
    return Schema(
        knob_names=tuple(f"knob_{j}" for j in range(spec.n_knobs)),
        metric_names=tuple(
            f"metric_g{g:02d}_{j}"
            for g in range(spec.n_latent) for j in range(spec.metrics_per_latent)
        ),
        latency_name="latency",
        workload_id_name="workload_id",
    )


def generate_corpus(spec: SynthSpec) -> tuple[Corpus, GroundTruth]:
    """Deterministically generate a corpus and its ground truth from the seed."""
    rng = np.random.default_rng(spec.seed)
    schema = _schema(spec)

    # fixed per-metric loading on its latent signal
    loading = rng.uniform(0.5, 1.5, size=spec.n_metrics)
    latent_of_metric = tuple(i // spec.metrics_per_latent for i in range(spec.n_metrics))

    # smooth latent signals of the knobs
    latent_dirs = rng.normal(scale=spec.freq_scale, size=(spec.n_latent, spec.n_knobs))
    latent_phase = rng.uniform(0, 2 * np.pi, size=spec.n_latent)

    latency_params: dict[str, dict] = {}
    profiles: dict[str, np.ndarray] = {}

    def draw_params():
        return {
            "base": float(rng.uniform(50.0, 150.0)),
            "curvature": rng.uniform(50.0, 200.0, size=spec.n_knobs),
            "optimum": rng.uniform(0.0, 1.0, size=spec.n_knobs),
        }

    def make_table(wid: str, profile: np.ndarray, params: dict) -> WorkloadTable:
        n = spec.rows_per_workload
        knobs = rng.uniform(0.0, 1.0, size=(n, spec.n_knobs))
        latent = np.sin(knobs @ latent_dirs.T + latent_phase) + profile  # (n, n_latent)
        metrics = latent[:, latent_of_metric] * loading
        if spec.noise_std > 0:
            metrics = metrics + rng.normal(0, spec.noise_std, size=metrics.shape)
        latency = params["base"] + np.sum(
            params["curvature"] * (knobs - params["optimum"]) ** 2, axis=1)
        if spec.noise_std > 0:
            latency = latency + rng.normal(0, spec.noise_std * LATENCY_NOISE_GAIN, size=n)
        latency = np.maximum(latency, MIN_LATENCY)
        return WorkloadTable(workload_id=wid, knobs=knobs, metrics=metrics,
                             latency=latency, schema=schema)

    offline = []
    for w in range(spec.n_offline):
        wid = f"off_{w:03d}"
        profiles[wid] = rng.normal(0, spec.profile_scale, size=spec.n_latent)
        latency_params[wid] = draw_params()
        offline.append(make_table(wid, profiles[wid], latency_params[wid]))

    planted: dict[str, str] = {}

    def make_online(prefix: str) -> list[WorkloadTable]:
        tables = []
        for w in range(spec.n_online):
            wid = f"{prefix}_{w:03d}"
            src = f"off_{int(rng.integers(spec.n_offline)):03d}"
            planted[wid] = src
            profiles[wid] = profiles[src] + rng.normal(0, ONLINE_PERTURB, size=spec.n_latent)
            base_params = latency_params[src]
            latency_params[wid] = {
                "base": base_params["base"] * float(1 + 0.02 * rng.normal()),
                "curvature": base_params["curvature"] * (1 + 0.02 * rng.normal(size=spec.n_knobs)),
                "optimum": np.clip(
                    base_params["optimum"] + 0.02 * rng.normal(size=spec.n_knobs), 0.0, 1.0),
            }
            tables.append(make_table(wid, profiles[wid], latency_params[wid]))
        return tables

    online_b = make_online("b")
    online_c = make_online("c")

    # exhaustive nearest-source ground truth on mean metric vectors,
    # independent of the mapping module
    nearest: dict[str, str] = {}
    offline_means = {t.workload_id: t.metrics.mean(axis=0) for t in offline}
    for table in online_b + online_c:
        mean_vec = table.metrics.mean(axis=0)
        best = min(
            offline_means,
            key=lambda wid: (float(np.linalg.norm(mean_vec - offline_means[wid])), wid),
        )
        nearest[table.workload_id] = best

    corpus = Corpus(tuple(offline), tuple(online_b), tuple(online_c), schema)
    truth = GroundTruth(
        latent_of_metric=latent_of_metric,
        nearest_source_of=nearest,
        latency_params={k: {"base": v["base"],
                            "curvature": np.asarray(v["curvature"]).tolist(),
                            "optimum": np.asarray(v["optimum"]).tolist()}
                        for k, v in latency_params.items()},
        planted_source_of=planted,
    )
    return corpus, truth


def write_corpus(corpus: Corpus, out_dir) -> Path:
    """Write one CSV per workload plus the ingest manifest; returns its path."""
    out = Path(out_dir)
    schema = corpus.schema
    header = ([schema.workload_id_name] + list(schema.knob_names)
              + list(schema.metric_names) + [schema.latency_name])
    groups: dict[str, list[str]] = {}
    for group in GROUP_NAMES:
        groups[group] = []
        for table in corpus.group(group):
            name = f"{group}_{table.workload_id}.csv"
            groups[group].append(name)
            columns = [[table.workload_id] * table.n_rows, *table.knobs.T.tolist(),
                       *table.metrics.T.tolist(), table.latency.tolist()]
            write_text(out / name, csv_text(header, columns))
    manifest = {
        "workload_id": schema.workload_id_name,
        "latency": schema.latency_name,
        "knobs": list(schema.knob_names),
        "metrics": list(schema.metric_names),
        "groups": groups,
    }
    manifest_path = out / "manifest.json"
    write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def spec_to_json(spec: SynthSpec) -> str:
    return json.dumps(asdict(spec), indent=2) + "\n"
