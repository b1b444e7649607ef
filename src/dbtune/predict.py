"""Latency predictors over scaled knob + pruned-metric features.

Three models behind one fit/predict contract: Gaussian process regression
with an RBF kernel (baseline), a bagged random forest of variance-splitting
regression trees, and a one-hidden-layer network trained with Adam on a MAPE
loss. Latency targets stay in raw milliseconds; only features are scaled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .cluster import PrunedMetricSet, sq_dists
from .errors import ConfigError, DataError, NumericalError
from .evaluate import MAPE_EPS
from .ingest import Schema, WorkloadTable, read_json_object

MODEL_FORMAT_VERSION = 1
CONST_STD_EPS = 1e-12


# ---------------------------------------------------------------------------
# Feature scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardScaler:
    """Per-feature mean/std over knobs ++ metrics (latency excluded).

    Features with std below 1e-12 are only centered; their names are kept in
    `constant_features`.
    """

    means: np.ndarray
    stds: np.ndarray
    n_knobs: int
    constant_features: tuple[str, ...] = ()

    def transform_knobs(self, knobs: np.ndarray) -> np.ndarray:
        k = self.n_knobs
        return (np.asarray(knobs, dtype=float) - self.means[:k]) / self.stds[:k]

    def transform_metrics(self, metrics: np.ndarray) -> np.ndarray:
        k = self.n_knobs
        return (np.asarray(metrics, dtype=float) - self.means[k:]) / self.stds[k:]


def fit_scaler(tables: list[WorkloadTable], schema: Schema) -> StandardScaler:
    """Fit per-feature mean and population std over all rows of all tables."""
    rows = np.hstack([
        np.vstack([t.knobs for t in tables]),
        np.vstack([t.metrics for t in tables]),
    ])
    if rows.shape[0] < 2:
        raise DataError(f"scaler needs >= 2 rows, has {rows.shape[0]}")
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    const = stds < CONST_STD_EPS
    names = list(schema.knob_names) + list(schema.metric_names)
    stds = np.where(const, 1.0, stds)
    return StandardScaler(
        means=means, stds=stds, n_knobs=schema.n_knobs,
        constant_features=tuple(n for n, c in zip(names, const) if c),
    )


def pruned_metric_indices(schema: Schema, pruned: PrunedMetricSet) -> np.ndarray:
    idx = []
    for name in pruned.metric_names:
        if name not in schema.metric_names:
            raise DataError(f"pruned metric {name!r} not in schema")
        idx.append(schema.metric_names.index(name))
    return np.array(idx, dtype=int)


def build_features(table: WorkloadTable, pruned: PrunedMetricSet,
                   scaler: StandardScaler) -> np.ndarray:
    """Feature matrix: scaled knobs ++ scaled pruned metrics, one row per observation."""
    idx = pruned_metric_indices(table.schema, pruned)
    return np.hstack([
        scaler.transform_knobs(table.knobs),
        scaler.transform_metrics(table.metrics)[:, idx],
    ])


@dataclass(frozen=True)
class Preprocessing:
    """The fitted feature preprocessing that `train` stores beside its model
    as preprocess.json and `predict` reuses: pruned metrics and scaler."""

    pruned: PrunedMetricSet
    scaler: StandardScaler

    def save(self, path) -> None:
        Path(path).write_text(json.dumps({
            "pruned_metrics": list(self.pruned.metric_names),
            "scaler_means": self.scaler.means.tolist(),
            "scaler_stds": self.scaler.stds.tolist(),
            "n_knobs": self.scaler.n_knobs,
            "constant_features": list(self.scaler.constant_features),
        }) + "\n")

    @classmethod
    def load(cls, path) -> "Preprocessing":
        doc = read_json_object(path)
        try:
            return cls(PrunedMetricSet(tuple(doc["pruned_metrics"])), StandardScaler(
                means=np.array(doc["scaler_means"]), stds=np.array(doc["scaler_stds"]),
                n_knobs=doc["n_knobs"], constant_features=tuple(doc["constant_features"])))
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed preprocessing: {exc!r}") from None


# ---------------------------------------------------------------------------
# Gaussian process regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GprModel:
    kind: ClassVar[str] = "gpr"
    alpha: float  # effective diagonal noise actually used
    length_scale: float
    signal_variance: float
    x_train: np.ndarray
    y_mean: float
    y_centered: np.ndarray
    chol: np.ndarray = field(repr=False)
    dual_coef: np.ndarray = field(repr=False)  # (K + alpha I)^-1 y_centered

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "length_scale": self.length_scale,
                "signal_variance": self.signal_variance,
                "x_train": _arr(self.x_train), "y_mean": self.y_mean,
                "y_centered": _arr(self.y_centered),
                "chol": _arr(self.chol), "dual_coef": _arr(self.dual_coef)}

    @classmethod
    def from_json(cls, doc: dict) -> "GprModel":
        return cls(alpha=doc["alpha"], length_scale=doc["length_scale"],
                   signal_variance=doc["signal_variance"],
                   x_train=np.array(doc["x_train"]), y_mean=doc["y_mean"],
                   y_centered=np.array(doc["y_centered"]),
                   chol=np.array(doc["chol"]), dual_coef=np.array(doc["dual_coef"]))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return gpr_predict(self, features)[0]


def _rbf_kernel(d2: np.ndarray, length_scale: float, signal_variance: float) -> np.ndarray:
    """RBF kernel from pairwise squared distances."""
    return signal_variance * np.exp(-d2 / (2.0 * length_scale ** 2))


def _try_cholesky(k_matrix: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Cholesky of K + alpha I, escalating jitter alpha, 10a, 100a."""
    n = k_matrix.shape[0]
    for mult in (1.0, 10.0, 100.0):
        try:
            return cholesky(k_matrix + alpha * mult * np.eye(n), lower=True), alpha * mult
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(f"Cholesky failed up to jitter {100 * alpha}")


def _log_marginal_likelihood(x, y, length_scale, signal_variance, alpha, d2=None):
    """`d2` is sq_dists(x, x), when the caller already has it."""
    k = _rbf_kernel(sq_dists(x, x) if d2 is None else d2, length_scale, signal_variance)
    chol, eff = _try_cholesky(k, alpha)
    dual = cho_solve((chol, True), y)
    n = len(y)
    lml = -0.5 * float(y @ dual) - np.log(np.diag(chol)).sum() - 0.5 * n * math.log(2 * math.pi)
    return lml, chol, dual, eff


def gpr_fit(features: np.ndarray, targets: np.ndarray, alpha: float) -> GprModel:
    """Fit an RBF-kernel GP, choosing length scale and signal variance by
    maximizing the log marginal likelihood over a seeded grid with one local
    refinement pass. Targets are centered; their mean is restored at predict.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    if x.shape[0] != y.shape[0] or y.shape[0] < 1:
        raise DataError("features/targets length mismatch or empty")
    y_mean = float(y.mean())
    yc = y - y_mean

    n = x.shape[0]
    # train x train squared distances, for the median heuristic and every kernel
    d2 = sq_dists(x, x)
    base = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)]))) if n > 1 else 0.0
    if base <= 0:
        base = 1.0
    var_y = float(yc.var())
    sig_base = var_y if var_y > 0 else 1.0

    ell_grid = [base * 2.0 ** e for e in range(-5, 6)]
    sig_grid = [sig_base * f for f in (0.1, 1.0, 10.0)]

    best = None
    for ell in ell_grid:
        for sig in sig_grid:
            lml, chol, dual, eff = _log_marginal_likelihood(x, yc, ell, sig, alpha, d2)
            if best is None or lml > best[0]:
                best = (lml, ell, sig, chol, dual, eff)

    # one local coordinate-refinement pass around the grid optimum
    for factors, coord in (((2 ** -0.5, 2 ** 0.5), "ell"), ((0.5, 2.0), "sig")):
        for f in factors:
            ell = best[1] * f if coord == "ell" else best[1]
            sig = best[2] * f if coord == "sig" else best[2]
            lml, chol, dual, eff = _log_marginal_likelihood(x, yc, ell, sig, alpha, d2)
            if lml > best[0]:
                best = (lml, ell, sig, chol, dual, eff)

    _, ell, sig, chol, dual, eff = best
    return GprModel(alpha=eff, length_scale=ell, signal_variance=sig,
                    x_train=x, y_mean=y_mean, y_centered=yc,
                    chol=chol, dual_coef=dual)


def gpr_posterior(model: GprModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and raw (unclamped) variance at the query points."""
    xq = np.atleast_2d(np.asarray(features, dtype=float))
    if xq.shape[1] != model.x_train.shape[1]:
        raise DataError("query feature dimension mismatch")
    kstar = _rbf_kernel(sq_dists(model.x_train, xq), model.length_scale,
                        model.signal_variance)
    mean = kstar.T @ model.dual_coef + model.y_mean
    v = solve_triangular(model.chol, kstar, lower=True)
    var = model.signal_variance - np.sum(v ** 2, axis=0)
    return mean, var


def gpr_predict(model: GprModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation (variance clamped at 0)."""
    mean, var = gpr_posterior(model, features)
    return mean, np.sqrt(np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass
class _TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    value: float = 0.0


@dataclass(frozen=True)
class RfModel:
    kind: ClassVar[str] = "rf"
    n_trees: int
    max_depth: int
    trees: tuple[_TreeNode, ...]
    seed: int

    def to_json(self) -> dict:
        return {"n_trees": self.n_trees, "max_depth": self.max_depth, "seed": self.seed,
                "trees": [_tree_to_dict(t) for t in self.trees]}

    @classmethod
    def from_json(cls, doc: dict) -> "RfModel":
        return cls(n_trees=doc["n_trees"], max_depth=doc["max_depth"], seed=doc["seed"],
                   trees=tuple(_tree_from_dict(t) for t in doc["trees"]))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return rf_predict(self, features)


def _tree_to_dict(node: _TreeNode) -> dict:
    if node.feature < 0:
        return {"value": node.value}
    return {"feature": node.feature, "threshold": node.threshold,
            "value": node.value,
            "left": _tree_to_dict(node.left), "right": _tree_to_dict(node.right)}


def _tree_from_dict(doc: dict) -> _TreeNode:
    if "feature" not in doc:
        return _TreeNode(value=doc["value"])
    return _TreeNode(feature=doc["feature"], threshold=doc["threshold"],
                     value=doc["value"],
                     left=_tree_from_dict(doc["left"]),
                     right=_tree_from_dict(doc["right"]))


def _best_split(x, y, feat_candidates):
    """Greedy split minimizing summed child SSE; returns (feature, threshold) or None."""
    best = None
    for f in feat_candidates:
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys ** 2)
        total_sum, total_sq, n = csum[-1], csq[-1], len(ys)
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            sse_l = csq[i] - csum[i] ** 2 / nl
            sse_r = (total_sq - csq[i]) - (total_sum - csum[i]) ** 2 / nr
            cost = sse_l + sse_r
            if best is None or cost < best[0] - 1e-15:
                best = (cost, f, 0.5 * (xs[i] + xs[i + 1]))
    if best is None:
        return None
    return best[1], best[2]


def _grow_tree(x, y, depth, max_depth, rng):
    node = _TreeNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 or float(np.ptp(y)) == 0.0:
        return node
    d = x.shape[1]
    n_cand = max(1, int(round(math.sqrt(d))))
    feats = sorted(rng.choice(d, size=n_cand, replace=False).tolist())
    split = _best_split(x, y, feats)
    if split is None:
        # retry with all features so splittable nodes are not stranded by
        # an unlucky candidate draw
        split = _best_split(x, y, range(d))
        if split is None:
            return node
    f, thr = split
    mask = x[:, f] <= thr
    node.feature = f
    node.threshold = thr
    node.left = _grow_tree(x[mask], y[mask], depth + 1, max_depth, rng)
    node.right = _grow_tree(x[~mask], y[~mask], depth + 1, max_depth, rng)
    return node


def _tree_predict(node: _TreeNode, row: np.ndarray) -> float:
    while node.feature >= 0:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def rf_fit(features: np.ndarray, targets: np.ndarray, n_trees: int = 200,
           max_depth: int = 50, seed: int = 0) -> RfModel:
    """Bagged regression forest; tree t uses rng seed + t so serial and
    per-tree-parallel training agree."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise DataError(f"random forest needs >= 2 rows, has {n}")
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(n, size=n)
        trees.append(_grow_tree(x[idx], y[idx], 0, max_depth, rng))
    return RfModel(n_trees=n_trees, max_depth=max_depth, trees=tuple(trees), seed=seed)


def rf_predict(model: RfModel, features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    out = np.zeros(x.shape[0])
    for tree in model.trees:
        out += np.array([_tree_predict(tree, row) for row in x])
    return out / len(model.trees)


# ---------------------------------------------------------------------------
# Neural network (1 hidden layer, Adam, MAPE loss)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int = 64
    epochs: int = 500
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0


@dataclass
class MlpModel:
    kind: ClassVar[str] = "mlp"
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    config: MlpConfig
    loss_trace: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {"w1": _arr(self.w1), "b1": _arr(self.b1),
                "w2": _arr(self.w2), "b2": _arr(self.b2),
                "config": self.config.__dict__, "loss_trace": list(self.loss_trace)}

    @classmethod
    def from_json(cls, doc: dict) -> "MlpModel":
        return cls(w1=np.array(doc["w1"]), b1=np.array(doc["b1"]),
                   w2=np.array(doc["w2"]), b2=np.array(doc["b2"]),
                   config=MlpConfig(**doc["config"]), loss_trace=tuple(doc["loss_trace"]))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return mlp_predict(self, features)


def _mlp_init(n_features: int, config: MlpConfig) -> MlpModel:
    rng = np.random.default_rng(config.seed)
    h = config.hidden_units

    def glorot(fan_in, fan_out, shape):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=shape)

    return MlpModel(
        w1=glorot(n_features, h, (n_features, h)),
        b1=np.zeros(h),
        w2=glorot(h, 1, (h, 1)),
        b2=np.zeros(1),
        config=config,
    )


def _mlp_forward(model: MlpModel, x: np.ndarray):
    pre = x @ model.w1 + model.b1
    hid = np.maximum(pre, 0.0)
    out = (hid @ model.w2 + model.b2)[:, 0]
    return out, pre, hid


def mlp_predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    return _mlp_forward(model, x)[0]


def mlp_loss(model: MlpModel, features: np.ndarray, targets: np.ndarray) -> float:
    pred = mlp_predict(model, features)
    y = np.asarray(targets, dtype=float)
    return float(np.mean(np.abs(y - pred) / np.maximum(np.abs(y), MAPE_EPS)))


def mlp_gradients(model: MlpModel, features: np.ndarray,
                  targets: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of the MAPE loss w.r.t. all four parameter blocks."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    out, pre, hid = _mlp_forward(model, x)
    n = len(y)
    denom = np.maximum(np.abs(y), MAPE_EPS)
    d_out = (np.sign(out - y) / denom / n)[:, None]
    d_w2 = hid.T @ d_out
    d_b2 = d_out.sum(axis=0)
    d_hid = (d_out @ model.w2.T) * (pre > 0)
    d_w1 = x.T @ d_hid
    d_b1 = d_hid.sum(axis=0)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


def mlp_fit(features: np.ndarray, targets: np.ndarray,
            config: MlpConfig = MlpConfig()) -> MlpModel:
    """Train with Adam on mini-batches; shuffling is seeded per epoch."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] < 1:
        raise DataError("empty training set")
    model = _mlp_init(x.shape[1], config)
    params = ["w1", "b1", "w2", "b2"]
    m = {p: np.zeros_like(getattr(model, p)) for p in params}
    v = {p: np.zeros_like(getattr(model, p)) for p in params}
    rng = np.random.default_rng(config.seed + 1)
    step = 0
    trace = []
    n = x.shape[0]
    bs = min(config.batch_size, n)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            batch = order[start:start + bs]
            grads = mlp_gradients(model, x[batch], y[batch])
            step += 1
            for p in params:
                m[p] = config.beta1 * m[p] + (1 - config.beta1) * grads[p]
                v[p] = config.beta2 * v[p] + (1 - config.beta2) * grads[p] ** 2
                m_hat = m[p] / (1 - config.beta1 ** step)
                v_hat = v[p] / (1 - config.beta2 ** step)
                setattr(model, p, getattr(model, p)
                        - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps))
        loss = mlp_loss(model, x, y)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at epoch {epoch}")
        trace.append(loss)
    model.loss_trace = tuple(trace)
    return model


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


MODEL_KINDS = {cls.kind: cls for cls in (GprModel, RfModel, MlpModel)}


def save_model(model, path) -> None:
    """Serialize a fitted predictor to a versioned JSON container."""
    doc = {"kind": model.kind, **model.to_json(), "format_version": MODEL_FORMAT_VERSION}
    Path(path).write_text(json.dumps(doc))


def load_model(path):
    doc = read_json_object(path)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    try:
        return MODEL_KINDS[kind].from_json(doc)
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed {kind} model: {exc!r}") from None


def predict_with(model, features: np.ndarray) -> np.ndarray:
    """Uniform prediction entry point for all three model kinds."""
    return model.predict(features)
