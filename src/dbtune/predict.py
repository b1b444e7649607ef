"""Latency predictors over scaled knob + pruned-metric features.

Three models behind one fit/predict contract: Gaussian process regression
with an RBF kernel (baseline), a bagged random forest of variance-splitting
regression trees, and a one-hidden-layer network trained with Adam on a MAPE
loss. Latency targets stay in raw milliseconds; only features are scaled.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .cluster import sq_dists
from .errors import ConfigError, DataError, NumericalError
from .evaluate import MAPE_EPS, mape
from .ingest import (Schema, WorkloadTable, column_stats, json_field, json_strings,
                     read_json_object, write_text)

CONST_STD_EPS = 1e-12


# ---------------------------------------------------------------------------
# Feature scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardScaler:
    """The model's features, by name, and their scaling: knobs ++ pruned metrics.

    `means` and `stds` hold one value per feature, knobs first. Features with
    std below 1e-12 are only centered; their names are kept in
    `constant_features`. `train` stores the scaler in the model's model.json
    (`save_model`), and `build_features` picks and scales the columns of any
    corpus with it.
    """

    knob_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    constant_features: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.knob_names + self.metric_names
        if not self.metric_names:
            raise DataError("empty pruned metric set")
        twice = next((n for n in names if names.count(n) > 1), None)
        if twice is not None:
            raise DataError(f"feature {twice!r} named twice")
        if self.means.shape != (len(names),) or self.stds.shape != (len(names),):
            raise DataError(f"{len(names)} features, {len(self.means)} means "
                            f"and {len(self.stds)} stds")
        if not np.isfinite(self.means).all():
            raise DataError("every mean must be finite")
        if not (np.isfinite(self.stds) & (self.stds > 0)).all():
            raise DataError("every std must be finite and > 0")


def _positions(kind: str, names: tuple[str, ...], columns: tuple[str, ...]) -> np.ndarray:
    at = {name: i for i, name in enumerate(columns)}
    missing = next((n for n in names if n not in at), None)
    if missing is not None:
        raise DataError(f"{kind} {missing!r} not in schema")
    return np.array([at[n] for n in names], dtype=int)


def fit_scaler(tables: list[WorkloadTable], schema: Schema,
               metric_names: tuple[str, ...]) -> StandardScaler:
    """Fit the features' mean and population std over all rows of all tables:
    the scaler `train` stores in model.json with its model (`save_model`).

    The statistics are reduced over every knob and metric column, then the
    features are picked: numpy's axis-0 reduction order depends on the
    array's width, so reducing the picked columns alone changes last bits.
    """
    rows = np.hstack([np.vstack([t.knobs for t in tables]),
                      np.vstack([t.metrics for t in tables])])
    means, stds = column_stats(rows, schema.knob_names + schema.metric_names)
    metrics = tuple(metric_names)
    idx = np.concatenate([np.arange(schema.n_knobs),
                          schema.n_knobs + _positions("metric", metrics, schema.metric_names)])
    means, stds = means[idx], stds[idx]
    const = stds < CONST_STD_EPS
    return StandardScaler(
        schema.knob_names, metrics, means, np.where(const, 1.0, stds),
        tuple(n for n, c in zip(schema.knob_names + metrics, const) if c))


def build_features(table: WorkloadTable, scaler: StandardScaler) -> np.ndarray:
    """Feature matrix, C-ordered: the scaler's knobs ++ pruned metrics, picked
    from the table by name and scaled, one row per observation.

    `take` copies the columns C-ordered; `[:, idx]` returns them F-ordered,
    and distances over F-ordered features sum in another order. A feature
    that scales past the float range, from an extreme scaler value or a
    corpus value far outside the training range, is a DataError.
    """
    kidx = _positions("knob", scaler.knob_names, table.schema.knob_names)
    midx = _positions("metric", scaler.metric_names, table.schema.metric_names)
    raw = np.hstack([table.knobs.take(kidx, axis=1), table.metrics.take(midx, axis=1)])
    with np.errstate(over="ignore"):  # refused below
        features = (raw - scaler.means) / scaler.stds
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        name = (scaler.knob_names + scaler.metric_names)[col]
        raise DataError(f"workload {table.workload_id}: feature {name!r} of row {row} "
                        f"scales to {features[row, col]}")
    return features


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
    dual_coef: np.ndarray = field(repr=False)  # (K + alpha I)^-1 (y - y_mean)

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "length_scale": self.length_scale,
                "signal_variance": self.signal_variance,
                "x_train": _pack(self.x_train), "y_mean": self.y_mean,
                "dual_coef": _pack(self.dual_coef)}

    @classmethod
    def from_json(cls, doc: dict) -> "GprModel":
        x_train, dual_coef = _finite(doc, "x_train", 2), _finite(doc, "dual_coef")
        if dual_coef.shape != (len(x_train),):
            raise ValueError(f"arrays do not fit {len(x_train)} training rows")
        scalars = {key: float(_finite(doc, key, 0))
                   for key in ("alpha", "length_scale", "signal_variance", "y_mean")}
        for key in ("alpha", "length_scale", "signal_variance"):
            if not scalars[key] > 0:
                raise ValueError(f"{key} must be > 0, got {scalars[key]}")
        if not 2.0 * scalars["length_scale"] * scalars["length_scale"] < math.inf:
            raise ValueError(f"length_scale {scalars['length_scale']}: the kernel's "
                             f"2 * length_scale ** 2 overflows")
        return cls(x_train=x_train, dual_coef=dual_coef, **scalars)

    def cross_kernel(self, features: np.ndarray) -> np.ndarray:
        """Kernel between the training rows and the query rows."""
        xq = np.atleast_2d(np.asarray(features, dtype=float))
        if xq.shape[1] != self.x_train.shape[1]:
            raise DataError("query feature dimension mismatch")
        return _rbf_kernel(sq_dists(self.x_train, xq), self.length_scale, self.signal_variance)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Posterior mean at the query points; `gpr_posterior` adds the variance."""
        return self.cross_kernel(features).T @ self.dual_coef + self.y_mean


def _rbf_kernel(d2: np.ndarray, length_scale: float, signal_variance: float) -> np.ndarray:
    """RBF kernel from pairwise squared distances."""
    return signal_variance * np.exp(-d2 / _rbf_divisor(length_scale))


def _rbf_divisor(length_scale: float) -> float:
    """The RBF kernel's `2 * length_scale ** 2`; one that overflows is a NumericalError."""
    try:
        divisor = 2.0 * length_scale ** 2
    except OverflowError:  # a Python float's power raises where numpy's gives inf
        divisor = math.inf
    if divisor == math.inf:
        raise NumericalError(f"length scale {length_scale}: the kernel's "
                             f"2 * length_scale ** 2 overflows")
    return divisor


def _try_cholesky(k_matrix: np.ndarray, alpha: float,
                  mults: tuple[float, ...] = (1.0, 10.0, 100.0)) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + a I and a, for the first jitter a of
    alpha * mults that factors. Writes K + a I onto k_matrix's diagonal; a
    kernel holding inf or NaN is a NumericalError."""
    if not np.isfinite(k_matrix).all():
        raise NumericalError(f"the kernel holds {k_matrix[~np.isfinite(k_matrix)][0]}")
    diag = k_matrix.diagonal().copy()
    for mult in mults:
        k_matrix.flat[::len(diag) + 1] = diag + alpha * mult
        chol, info = dpotrf(k_matrix, lower=1, clean=1)
        if not info:
            return chol, alpha * mult
    raise NumericalError(f"Cholesky failed up to jitter {alpha * mults[-1]}")


def _log_marginal_likelihood(k_matrix, y, alpha):
    """(log marginal likelihood, dual coefficients, effective jitter) of the
    centered targets `y` under the kernel `k_matrix`, whose diagonal the
    jitter is written onto."""
    chol, eff = _try_cholesky(k_matrix, alpha)
    dual, _ = dpotrs(chol, y, lower=1)
    n = len(y)
    lml = -0.5 * float(y @ dual) - np.log(chol.diagonal()).sum() - 0.5 * n * math.log(2 * math.pi)
    return lml, dual, eff


def gpr_fit(features: np.ndarray, targets: np.ndarray, alpha: float) -> GprModel:
    """Fit an RBF-kernel GP, choosing length scale and signal variance by
    maximizing the log marginal likelihood over a seeded grid with one local
    refinement pass. Targets are centered; their mean is restored at predict.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if not 0 < alpha < math.inf:
        raise ConfigError(f"alpha must be finite and > 0, got {alpha}")
    if x.shape[0] != y.shape[0] or y.shape[0] < 1:
        raise DataError("features/targets length mismatch or empty")
    with np.errstate(over="ignore", invalid="ignore"):  # latencies near the float limit
        y_mean = float(y.mean())
        yc = y - y_mean
        var_y = float(yc.var())
    if not (math.isfinite(y_mean) and math.isfinite(var_y)):
        raise NumericalError(f"latency mean {y_mean} and variance {var_y} must be finite")

    n = x.shape[0]
    # train x train squared distances, for the median heuristic and every kernel
    d2 = sq_dists(x, x)
    if not np.isfinite(d2).all():
        raise NumericalError("the squared distances between training rows overflow")
    base = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)]))) if n > 1 else 0.0
    if base <= 0:
        base = 1.0
    sig_base = var_y if var_y > 0 else 1.0

    ell_grid = [base * 2.0 ** e for e in range(-5, 6)]
    sig_grid = [sig_base * f for f in (0.1, 1.0, 10.0)]

    best = None
    # a kernel that is not finite is refused by _try_cholesky
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in ell_grid:
            # sig * unit is _rbf_kernel's product, so one exponential serves every sig
            unit = np.exp(-d2 / _rbf_divisor(ell))
            for sig in sig_grid:
                lml, dual, eff = _log_marginal_likelihood(sig * unit, yc, alpha)
                if best is None or lml > best[0]:
                    best = (lml, ell, sig, dual, eff)

        # one local coordinate-refinement pass around the grid optimum
        for factors, coord in (((2 ** -0.5, 2 ** 0.5), "ell"), ((0.5, 2.0), "sig")):
            for f in factors:
                ell = best[1] * f if coord == "ell" else best[1]
                sig = best[2] * f if coord == "sig" else best[2]
                lml, dual, eff = _log_marginal_likelihood(_rbf_kernel(d2, ell, sig), yc, alpha)
                if lml > best[0]:
                    best = (lml, ell, sig, dual, eff)

    _, ell, sig, dual, eff = best
    return GprModel(alpha=eff, length_scale=ell, signal_variance=sig,
                    x_train=x, y_mean=y_mean, dual_coef=dual)


def gpr_posterior(model: GprModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and raw (unclamped) variance at the query points. The
    Cholesky factor of K + alpha I is computed again at the model's
    effective alpha, as the fit computed it, without escalating."""
    x = model.x_train
    k = _rbf_kernel(sq_dists(x, x), model.length_scale, model.signal_variance)
    chol, _ = _try_cholesky(k, model.alpha, (1.0,))
    v, _ = dtrtrs(chol, model.cross_kernel(features), lower=1)
    return model.predict(features), model.signal_variance - np.sum(v ** 2, axis=0)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _TreeNode:
    feature: int  # -1 marks a leaf
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None


class _FlatForest(NamedTuple):
    """A forest's nodes in arrays: tree t's root is node t, a split's children
    come after it, and a leaf (feature -1) is its own left and right child."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


# the dtype each node array is stored as in model.json
_NODE_DTYPES = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4",
                "value": "<f8"}


def _leaves(lo: int, hi: int) -> _FlatForest:
    """Nodes lo..hi-1 as leaves of value 0."""
    ids = np.arange(lo, hi)
    return _FlatForest(np.full_like(ids, -1), ids * 0.0, ids, ids.copy(), ids * 0.0)


@dataclass(frozen=True)
class RfModel:
    kind: ClassVar[str] = "rf"
    max_depth: int
    seed: int
    n_trees: int
    n_features: int
    flat: _FlatForest = field(repr=False)

    def to_json(self) -> dict:
        if len(self.flat.feature) > 2 ** 31:
            raise DataError(f"a forest of {len(self.flat.feature)} nodes: its node ids "
                            f"do not fit in int32")
        return {"n_trees": self.n_trees, "max_depth": self.max_depth, "seed": self.seed,
                "n_features": self.n_features,
                **{name: _pack(getattr(self.flat, name), dtype)
                   for name, dtype in _NODE_DTYPES.items()}}

    @classmethod
    def from_json(cls, doc: dict) -> "RfModel":
        forest = _FlatForest(**{name: _unpack(doc, name, dtype)
                                for name, dtype in _NODE_DTYPES.items()})
        feature, left, right = forest.feature, forest.left, forest.right
        n_trees, n_features = json_field(doc, "n_trees", int), json_field(doc, "n_features", int)
        ids, split = np.arange(len(feature)), feature >= 0
        if any(len(a) != len(ids) for a in forest):
            raise ValueError(f"node arrays of lengths {[len(a) for a in forest]}")
        if not 1 <= n_trees <= len(ids):
            raise ValueError(f"n_trees is {n_trees}, but the forest has {len(ids)} nodes")
        if not -1 <= feature.min() <= feature.max() < n_features:
            raise ValueError(f"forest splits on features {feature.min()}..{feature.max()}, "
                             f"has {n_features} features, and -1 marks a leaf")
        # a split node's children come after it, a leaf is its own child and
        # every node but the roots has one parent: n_trees trees, which route
        # each row to a leaf
        linked = np.where(split, (ids < left) & (left < len(ids)) & (ids < right)
                          & (right < len(ids)), (left == ids) & (right == ids))
        if not linked.all():
            raise ValueError(f"node {np.argmin(linked)}: a split's children must come "
                             f"after it, and a leaf must be its own child")
        parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=len(ids))
        if (wrong := np.flatnonzero(parents != (ids >= n_trees))).size:
            raise ValueError(f"node {wrong[0]} has {parents[wrong[0]]} parents")
        if (wrong := np.flatnonzero(np.isnan(forest.threshold) | ~np.isfinite(forest.value))).size:
            raise ValueError(f"node {wrong[0]} has threshold {forest.threshold[wrong[0]]} and "
                             f"value {forest.value[wrong[0]]}: a threshold may not be nan "
                             f"and a value must be finite")
        return cls(max_depth=json_field(doc, "max_depth", int), seed=json_field(doc, "seed", int),
                   n_trees=n_trees, n_features=n_features, flat=forest)

    @cached_property
    def trees(self) -> tuple[_TreeNode, ...]:
        """The root of each tree, its nodes linked as objects that hold no
        threshold or value, built on first use. Only the benchmark's node
        count (bench/layers.py) reads them; they go when it counts model.flat
        (ROADMAP item 8)."""
        nodes = [_TreeNode(f) for f in self.flat.feature.tolist()]
        for i in np.flatnonzero(self.flat.feature >= 0).tolist():
            nodes[i].left, nodes[i].right = nodes[self.flat.left[i]], nodes[self.flat.right[i]]
        return tuple(nodes[:self.n_trees])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean leaf value over the trees. A chunk of trees routes its (tree,
        row) cells one level per step, each step moving only the cells still
        at a split node; the chunk's leaf values are then added to the
        running sum one tree at a time, in tree order."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        n, d = x.shape
        if d != self.n_features:
            raise DataError(f"forest was fit on {self.n_features} features, "
                            f"rows have {d} features")
        forest, n_trees = self.flat, self.n_trees
        x_flat, out = x.ravel(), np.zeros(n)
        per_chunk = max(1, _CHUNK_CELLS // max(n, 1))
        for lo in range(0, n_trees, per_chunk):
            hi = min(lo + per_chunk, n_trees)
            node = np.repeat(np.arange(lo, hi), n)  # cell i is tree lo + i // n, row i % n
            row_start = np.tile(np.arange(0, n * d, d), hi - lo)  # of cell i's row in x_flat
            live = np.flatnonzero(forest.feature.take(node) >= 0)
            while live.size:
                at = node.take(live)
                go_left = (x_flat.take(row_start.take(live) + forest.feature.take(at))
                           <= forest.threshold.take(at))
                at = np.where(go_left, forest.left.take(at), forest.right.take(at))
                node[live] = at
                live = live[forest.feature.take(at) >= 0]
            leaves = forest.value.take(node).reshape(hi - lo, n)
            out = np.add.accumulate(np.vstack([out, leaves]), axis=0)[-1]
        return out / n_trees


# cap on the cells of one batched array in RfModel.predict
_CHUNK_CELLS = 1 << 11
# cap on the cells of one chunk of nodes that _split scores together
_SPLIT_CELLS = 1 << 13
# candidate feature sets a tree draws at a time in rf_fit
_CAND_BLOCK = 32
# trees rf_fit_many grows in one lock-step loop; a batch holds whole jobs
_BATCH_TREES = 1024


def _segments(rows: np.ndarray, trees: np.ndarray, starts: np.ndarray,
              sizes: np.ndarray, width: int, pad: int) -> np.ndarray:
    """Row ids of each node, padded to `width` with the pad row id `pad`.
    Node i owns rows[trees[i], starts[i]:starts[i] + sizes[i]]."""
    cols = np.arange(width)
    ids = rows[trees[:, None], np.minimum(starts[:, None] + cols, rows.shape[1] - 1)]
    return np.where(cols < sizes[:, None], ids, pad)


def _node_stats(ypad, rows, trees, starts, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Mean (NaN for no rows) and max - min of each node's targets; the last
    entry of ypad is the pad row's, -0.0. Each mean sums its node's rows left
    to right: a cumulative sum over rows padded with -0.0, which adds nothing,
    so no other node of the step changes it."""
    pad = len(ypad) - 1
    seg = _segments(rows, trees, starts, sizes, max(int(sizes.max()), 1), pad)
    ys, inside = ypad[seg], seg < pad
    means = np.where(sizes > 0, np.cumsum(ys, axis=1)[:, -1] / np.maximum(sizes, 1), np.nan)
    return means, (np.where(inside, ys, -np.inf).max(axis=1)
                   - np.where(inside, ys, np.inf).min(axis=1))


def _best_splits(xpad, ypad, seg, sizes, feats) -> tuple[np.ndarray, np.ndarray]:
    """Split of least summed child SSE for each node: (feature, threshold),
    feature -1 where no candidate feature separates two rows.

    seg is (nodes, width) padded row ids and feats (nodes, c) sorted
    candidate features. Splits are tried in (feature, position) order: a
    node takes its first split of least cost, a NaN cost counting as +inf.
    If the first split's cost is NaN, or no cost is below +inf, it takes
    its first split.
    """
    k, w = seg.shape
    c = feats.shape[1]
    # (k, c, w) row ids of each node, sorted by each candidate feature; the
    # pad row sorts last and adds -0.0 to csum and +0.0 to csq, so the last
    # column holds each node's totals
    order = np.argsort(xpad[seg[:, None, :], feats[:, :, None]], axis=2, kind="stable")
    ids = seg.reshape(-1)[order + (np.arange(k) * w)[:, None, None]]
    xs, ys = xpad[ids, feats[:, :, None]], ypad[ids]

    # split at position i: rows 0..i go left
    last = (sizes - 1)[:, None, None]
    nl = np.arange(1, w)
    valid = ((nl <= last) & (xs[..., :-1] != xs[..., 1:])).reshape(k, -1)
    with np.errstate(over="ignore", under="ignore"):  # squares of 1e156-scale targets
        csum, csq = np.cumsum(ys, axis=2), np.cumsum(ys * ys, axis=2)
        cs, cq, tq = csum[..., :-1], csq[..., :-1], csq[..., -1:]
        rest = csum[..., -1:] - cs
        cost = (cq - cs * cs / nl) + ((tq - cq) - rest * rest / np.maximum(last + 1 - nl, 1))
    cost = cost.reshape(k, -1)
    least = np.where(valid & ~np.isnan(cost), cost, np.inf)
    nodes, first, pick = np.arange(k), np.argmax(valid, axis=1), np.argmin(least, axis=1)
    pick = np.where(np.isnan(cost[nodes, first]) | (least[nodes, pick] == np.inf), first, pick)
    pick[~valid.any(axis=1)] = -1

    found = np.nonzero(pick >= 0)[0]
    fi, ii = np.divmod(pick[found], w - 1)
    at = (found * c + fi) * w + ii
    feature, threshold = np.full(k, -1), np.zeros(k)
    feature[found] = feats[found, fi]
    threshold[found] = 0.5 * (xs.reshape(-1)[at] + xs.reshape(-1)[at + 1])
    return feature, threshold


def _partition(rows, xpad, seg, trees, starts, sizes, feature, threshold) -> np.ndarray:
    """Reorder each split node's slice of rows: the rows going left first,
    each side in its old order. Returns the left sizes."""
    w = seg.shape[1]
    inside = np.arange(w) < sizes[:, None]
    goes_left = inside & (xpad[seg, feature[:, None]] <= threshold[:, None])
    key = np.where(inside, ~goes_left, 2)
    seg = seg[np.arange(len(seg))[:, None], np.argsort(key, axis=1, kind="stable")]
    cols = starts[:, None] + np.arange(w)
    rows[np.broadcast_to(trees[:, None], cols.shape)[inside], cols[inside]] = seg[inside]
    return goes_left.sum(axis=1)


def _candidates(draws: np.ndarray, n_cand: int) -> np.ndarray:
    """Candidate sets from uniform draws (..., d): per row, the first n_cand
    entries of the random permutation argsort(row), sorted; a uniform
    n_cand-subset of range(d)."""
    return np.sort(np.argsort(draws, axis=-1)[..., :n_cand], axis=-1)


def _split(xpad, ypad, rows, trees, starts, sizes, feats):
    """Split each node: (feature, threshold, left size), feature -1 where no
    feature separates two rows. Nodes go in size order into chunks, each
    padded to the power of two that holds its largest node and kept within
    _SPLIT_CELLS."""
    feature, threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
    n_left = np.zeros(len(sizes), dtype=int)
    by_size = np.argsort(sizes, kind="stable")
    widths = 2 ** np.ceil(np.log2(sizes[by_size])).astype(int)
    lo = 0
    while lo < len(by_size):
        cells = np.arange(1, len(by_size) - lo + 1) * widths[lo:] * feats.shape[1]
        hi = lo + max(1, int(np.searchsorted(cells, _SPLIT_CELLS, side="right")))
        at, w = by_size[lo:hi], int(widths[hi - 1])
        lo = hi
        seg = _segments(rows, trees[at], starts[at], sizes[at], w, len(ypad) - 1)
        f, thr = _best_splits(xpad, ypad, seg, sizes[at], feats[at])
        # retry with all features so splittable nodes are not stranded by
        # an unlucky candidate draw
        retry = np.nonzero(f < 0)[0]
        if len(retry):
            f[retry], thr[retry] = _best_splits(
                xpad, ypad, seg[retry], sizes[at[retry]],
                np.tile(np.arange(xpad.shape[1]), (len(retry), 1)))
        ok = f >= 0
        at = at[ok]
        n_left[at] = _partition(rows, xpad, seg[ok], trees[at], starts[at], sizes[at],
                                f[ok], thr[ok])
        feature[at], threshold[at] = f[ok], thr[ok]
    return feature, threshold, n_left


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of a forest job's stream `key`: (0,) for the trees'
    first blocks of candidate sets, (1, t) for tree t's later blocks."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def rf_fit(features: np.ndarray, targets: np.ndarray, n_trees: int, max_depth: int,
           seed: int) -> RfModel:
    """Bagged forest of variance-splitting regression trees: rf_fit_many
    of the one job (features, targets, seed). The pipeline grows all of a
    stage's forests with one rf_fit_many call, and each of them is the
    forest this call grows from its job."""
    return next(rf_fit_many([(features, targets, seed)], n_trees, max_depth))


def rf_fit_many(jobs, n_trees: int, max_depth: int):
    """One forest per job (features, targets, seed), yielded in job order;
    every job has the same number of features. Each forest equals the one
    grown alone, tree by tree, node by node.

    Draws: a job draws the bootstraps of all its trees, row t tree t's, in
    one default_rng(seed).integers(n, size=(n_trees, n)) call. Its nodes
    take sqrt(d) candidate features from blocks of _CAND_BLOCK candidate
    sets (`_candidates`): tree t's j-th attempted node in preorder (depth
    below max_depth, >= 2 rows, targets not all equal) takes row j of its
    block. Tree t's first block is row t of one (n_trees, _CAND_BLOCK, d)
    draw from stream (0,) of the seed (`_stream`); a tree that uses a block
    up draws the next from stream (1, t). So a tree depends neither on
    n_trees nor on the other jobs.

    Squares: split costs square sums with a * a. Node means: each node sums
    its targets once, left to right in bootstrap order (`_node_stats`).
    Split choice: a node takes its first split of least cost, with no
    tolerance (`_best_splits`), so the trees do not depend on the unit of
    the targets.

    The jobs' trees grow in lock-step, _BATCH_TREES trees at a time: each
    step takes the next node, in preorder, of every tree that has one, and
    scores the splits of all these nodes in batched passes (`_split`).
    """
    if n_trees < 1 or max_depth < 0:
        raise ConfigError(f"random forest needs n_trees >= 1 and max_depth >= 0, "
                          f"got {n_trees} and {max_depth}")
    jobs = [(np.atleast_2d(np.asarray(x, dtype=float)), np.asarray(y, dtype=float), seed)
            for x, y, seed in jobs]
    for i, (x, y, _) in enumerate(jobs):
        in_job = f" in job {i}" if len(jobs) > 1 else ""
        if len(x) < 2:
            raise DataError(f"random forest needs >= 2 rows, has {len(x)}{in_job}")
        # a split's cost squares sums of up to len(y) targets
        largest = float(np.abs(y).max())
        if not 2.0 * (len(y) * largest) * (len(y) * largest) < math.inf:
            raise NumericalError(f"latencies up to {largest} over {len(y)} rows: the "
                                 f"forest's squared sums overflow{in_job}")
        if x.shape[1] != jobs[0][0].shape[1]:
            raise DataError(f"job {i} has {x.shape[1]} features, job 0 has "
                            f"{jobs[0][0].shape[1]}")
    per_batch = max(1, _BATCH_TREES // n_trees)
    for lo in range(0, len(jobs), per_batch):
        yield from _forests(jobs[lo:lo + per_batch], n_trees, max_depth)


def _forests(jobs, n_trees: int, max_depth: int):
    """The forest of each job, grown together by `_grow`."""
    forest, job_of = _grow(jobs, n_trees, max_depth)
    for j, (x, _, seed) in enumerate(jobs):
        # the job's nodes in id order, so numbered as its own loop numbers
        # them; a child's new id is its rank among them
        at = np.flatnonzero(job_of == j)
        yield RfModel(max_depth=max_depth, seed=seed, n_trees=n_trees, n_features=x.shape[1],
                      flat=_FlatForest(forest.feature[at], forest.threshold[at],
                                       np.searchsorted(at, forest.left[at]),
                                       np.searchsorted(at, forest.right[at]), forest.value[at]))


def _grow(jobs, n_trees: int, max_depth: int) -> tuple[_FlatForest, np.ndarray]:
    """The nodes of rf_fit_many's jobs, grown in one lock-step loop, and the
    job of each node."""
    n_jobs, d = len(jobs), jobs[0][0].shape[1]
    n_of = np.array([len(x) for x, _, _ in jobs])
    # rows get global ids, job by job; the pad row, id n_of.sum(), sorts
    # after every value and adds -0.0 to every sum
    xpad = np.vstack([x for x, _, _ in jobs] + [np.full((1, d), np.nan)])
    ypad = np.concatenate([y for _, y, _ in jobs] + [[-0.0]])
    n_cand = max(1, int(round(math.sqrt(d))))
    # tree i is tree i % n_trees of job i // n_trees. rows[i] holds its
    # bootstrap row ids; a node owns a slice of it, in bootstrap order, and a
    # split reorders the slice into its children. pool[i] is its current
    # block of candidate sets, and own[i] its stream once it needs a second.
    n_all = n_jobs * n_trees
    rows = np.zeros((n_all, n_of.max()), dtype=int)
    pool = np.zeros((n_all, _CAND_BLOCK, n_cand), dtype=np.min_scalar_type(d - 1))
    for (x, _, seed), at, lo in zip(jobs, range(0, n_all, n_trees), np.cumsum(n_of) - n_of):
        rows[at:at + n_trees, :len(x)] = lo + np.random.default_rng(seed).integers(
            len(x), size=(n_trees, len(x)))
        blocks = _stream(seed, 0)
        for t in range(0, n_trees, 32):  # the first blocks of 32 trees at a time
            hi = min(t + 32, n_trees)
            pool[at + t:at + hi] = _candidates(blocks.random((hi - t, _CAND_BLOCK, d)), n_cand)
    own = {}
    attempted = np.zeros(n_all, dtype=int)

    # per tree, a stack of pending nodes (id, start, size, depth), popped in
    # preorder. A node's id is its index in the growing arrays, and job_of
    # holds its job. Each step's children take the next ids in tree order, so
    # a job's ids, in order, number its nodes as the job's own loop would.
    forest, count = _leaves(0, 8 * n_all), n_all
    job_of = np.zeros(8 * n_all, dtype=np.min_scalar_type(n_jobs))
    job_of[:n_all] = np.arange(n_all) // n_trees
    stack = np.zeros((4, n_all, 8), dtype=np.int32)
    stack[0, :, 0], stack[2, :, 0] = np.arange(n_all), np.repeat(n_of, n_trees)
    height = np.ones(n_all, dtype=int)
    while len(trees := np.nonzero(height)[0]):
        height[trees] -= 1
        ids, starts, sizes, depths = stack[:, trees, height[trees]]
        means, spread = _node_stats(ypad, rows, trees, starts, sizes)
        feature, threshold = np.full(len(trees), -1), np.zeros(len(trees))
        n_left = np.zeros(len(trees), dtype=int)
        split = np.nonzero((depths < max_depth) & (sizes >= 2) & (spread != 0.0))[0]
        if len(split):
            tr = trees[split]
            j = attempted[tr] % _CAND_BLOCK
            for i in tr[(j == 0) & (attempted[tr] > 0)].tolist():
                if i not in own:
                    own[i] = _stream(jobs[i // n_trees][2], 1, i % n_trees)
                pool[i] = _candidates(own[i].random((_CAND_BLOCK, d)), n_cand)
            attempted[tr] += 1
            feats = pool[tr, j]
            feature[split], threshold[split], n_left[split] = _split(
                xpad, ypad, rows, trees[split], starts[split], sizes[split], feats)

        s = np.nonzero(feature >= 0)[0]
        left = count + 2 * np.arange(len(s))
        count += 2 * len(s)
        if count > len(forest.value):
            forest = _FlatForest(*map(np.concatenate,
                                      zip(forest, _leaves(len(forest.value), 2 * count))))
            job_of = np.pad(job_of, (0, 2 * count - len(job_of)))
        forest.value[ids] = means
        forest.feature[ids[s]], forest.threshold[ids[s]] = feature[s], threshold[s]
        forest.left[ids[s]], forest.right[ids[s]] = left, left + 1
        t, top = trees[s], height[trees[s]]
        job_of[left], job_of[left + 1] = t // n_trees, t // n_trees
        if len(s) and top.max() + 2 > stack.shape[2]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=2)
        # push the right child, then the left one, which is popped first
        stack[:, t, top] = left + 1, starts[s] + n_left[s], sizes[s] - n_left[s], depths[s] + 1
        stack[:, t, top + 1] = left, starts[s], n_left[s], depths[s] + 1
        height[t] += 2
    return forest, job_of[:count]


# ---------------------------------------------------------------------------
# Neural network (1 hidden layer, Adam, MAPE loss)
# ---------------------------------------------------------------------------

# the network's width, its mini-batch size and Adam's step size, moment
# decays and epsilon
HIDDEN_UNITS = 64
BATCH_SIZE = 32
LEARNING_RATE = 1e-3
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpModel:
    kind: ClassVar[str] = "nn"
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    seed: int  # of the initial weights; seed + 1 shuffles each epoch
    loss_trace: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {"w1": _pack(self.w1), "b1": _pack(self.b1),
                "w2": _pack(self.w2), "b2": _pack(self.b2),
                "seed": self.seed, "loss_trace": _pack(self.loss_trace)}

    @classmethod
    def from_json(cls, doc: dict) -> "MlpModel":
        w1, b1 = _finite(doc, "w1", 2), _finite(doc, "b1")
        w2, b2 = _finite(doc, "w2", 2), _finite(doc, "b2")
        if b1.shape != (w1.shape[1],) or w2.shape != (len(b1), 1) or b2.shape != (1,):
            raise ValueError(f"layer shapes {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
        return cls(w1=w1, b1=b1, w2=w2, b2=b2, seed=json_field(doc, "seed", int),
                   loss_trace=tuple(_finite(doc, "loss_trace").tolist()))

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[1] != self.w1.shape[0]:
            raise DataError(f"network takes {self.w1.shape[0]} features, "
                            f"rows have {x.shape[1]}")
        return _mlp_forward(self, x)[0]


def _mlp_init(n_features: int, hidden_units: int, seed: int) -> MlpModel:
    rng = np.random.default_rng(seed)
    h = hidden_units

    def glorot(fan_in, fan_out, shape):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=shape)

    return MlpModel(
        w1=glorot(n_features, h, (n_features, h)),
        b1=np.zeros(h),
        w2=glorot(h, 1, (h, 1)),
        b2=np.zeros(1),
        seed=seed,
    )


def _mlp_forward(model: MlpModel, x: np.ndarray):
    pre = x @ model.w1 + model.b1
    hid = np.maximum(pre, 0.0)
    out = (hid @ model.w2 + model.b2)[:, 0]
    return out, pre, hid


def mlp_loss(model: MlpModel, features: np.ndarray, targets: np.ndarray) -> float:
    """MAPE of the model's predictions, in percent."""
    return float(mape(targets, model.predict(features)))


def mlp_gradients(model: MlpModel, features: np.ndarray,
                  targets: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of the MAPE as a fraction, mlp_loss / 100, w.r.t.
    all four parameter blocks."""
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


def mlp_fit(features: np.ndarray, targets: np.ndarray, hidden_units: int, epochs: int,
            seed: int) -> MlpModel:
    """Train with Adam on mini-batches of BATCH_SIZE rows; shuffling is
    seeded per epoch. The output bias starts at the mean of the targets."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] < 1:
        raise DataError("empty training set")
    model = _mlp_init(x.shape[1], hidden_units, seed)
    model.b2 = np.array([y.mean()])
    params = ["w1", "b1", "w2", "b2"]
    m = {p: np.zeros_like(getattr(model, p)) for p in params}
    v = {p: np.zeros_like(getattr(model, p)) for p in params}
    rng = np.random.default_rng(seed + 1)
    step = 0
    trace = []
    n = x.shape[0]
    bs = min(BATCH_SIZE, n)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            batch = order[start:start + bs]
            grads = mlp_gradients(model, x[batch], y[batch])
            step += 1
            for p in params:
                m[p] = ADAM_BETA1 * m[p] + (1 - ADAM_BETA1) * grads[p]
                v[p] = ADAM_BETA2 * v[p] + (1 - ADAM_BETA2) * grads[p] ** 2
                m_hat = m[p] / (1 - ADAM_BETA1 ** step)
                v_hat = v[p] / (1 - ADAM_BETA2 ** step)
                setattr(model, p, getattr(model, p)
                        - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        loss = mlp_loss(model, x, y)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at epoch {epoch}")
        trace.append(loss)
    model.loss_trace = tuple(trace)
    return model


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def _pack(a: np.ndarray, dtype: str = "<f8") -> dict:
    """An array as a JSON object: its dtype, its shape and the base64 of its
    C-order little-endian bytes."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape), "data": base64.b64encode(a).decode("ascii")}


def _unpack(doc: dict, key: str, dtype: str, ndim: int = 1) -> np.ndarray:
    """doc[key], written by `_pack`, as a read-only array of `dtype` with
    `ndim` dimensions."""
    packed = doc[key]
    if not isinstance(packed, dict):
        raise TypeError(f"{key} must be a packed array object, got {type(packed).__name__}")
    if packed.get("dtype") != dtype:
        raise TypeError(f"{key} must have dtype {dtype!r}, got {packed.get('dtype')!r}")
    shape, data = packed.get("shape"), packed.get("data")
    if (not isinstance(shape, list) or len(shape) != ndim
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{key} must have a shape of {ndim} ints >= 0, got {shape!r}")
    if not isinstance(data, str):
        raise TypeError(f"{key} data must be a base64 string, got {type(data).__name__}")
    raw = base64.b64decode(data, validate=True)
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError(f"{key} holds {len(raw)} bytes, not those of {dtype} shape {shape}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _finite(doc: dict, key: str, ndim: int = 1) -> np.ndarray:
    """doc[key] as a float array of ndim dimensions, 0 for a number; every
    value must be finite."""
    a = (np.asarray(json_field(doc, key, (int, float)), dtype=float) if ndim == 0
         else _unpack(doc, key, "<f8", ndim))
    if not np.isfinite(a).all():
        raise ValueError(f"{key} holds {a[~np.isfinite(a)].flat[0]}: every value must be finite")
    return a


MODEL_KINDS = {cls.kind: cls for cls in (GprModel, RfModel, MlpModel)}
# the format of every model.json; a file of another format must be retrained
MODEL_FORMAT = 4


def save_model(model, path, scaler: StandardScaler) -> None:
    """Serialize a fitted predictor and the scaler of its features to one
    JSON object, tagged with its kind and MODEL_FORMAT."""
    doc = {"kind": model.kind, **model.to_json(),
           "knob_names": list(scaler.knob_names), "pruned_metrics": list(scaler.metric_names),
           "scaler_means": _pack(scaler.means), "scaler_stds": _pack(scaler.stds),
           "constant_features": list(scaler.constant_features), "format_version": MODEL_FORMAT}
    write_text(path, json.dumps(doc))


def load_model(path) -> tuple[GprModel | RfModel | MlpModel, StandardScaler]:
    """The predictor and the scaler of its features that `save_model` wrote."""
    doc = read_json_object(path)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT:
        raise DataError(f"unsupported model format version {version!r}")
    try:
        model = MODEL_KINDS[kind].from_json(doc)
        return model, StandardScaler(
            json_strings(doc, "knob_names"), json_strings(doc, "pruned_metrics"),
            _unpack(doc, "scaler_means", "<f8"), _unpack(doc, "scaler_stds", "<f8"),
            json_strings(doc, "constant_features"))
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: malformed {kind} model: {exc!r}") from None


def predict_with(model, features: np.ndarray) -> np.ndarray:
    """Uniform prediction entry point for all three model kinds. Finite
    model values can still sum past the float range, as in a gpr model.json
    whose dual_coef holds 1e307: such a prediction is a NumericalError."""
    with np.errstate(over="ignore"):
        preds = model.predict(features)
    if not np.isfinite(preds).all():
        raise NumericalError(f"the {model.kind} model predicts "
                             f"{preds[~np.isfinite(preds)][0]}")
    return preds
