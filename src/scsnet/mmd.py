"""Kernel two-sample distance between feature batches, with gradients.

The biased (V-statistic) squared MMD under an RBF kernel, a mean-pairwise-L2
bandwidth rule, a class-matched layer-weighted composition over the three
deep feature layers, and the combined classification + discrepancy loss.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .autodiff import Tensor, add, add_n, as_tensor, make_node, scale, take_rows

# weights of the three deep feature layers in the discrepancy term
LAYER_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0)


def _rows(x) -> np.ndarray:
    v = x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if v.ndim == 1:
        v = v[None]
    if v.ndim != 2:
        raise ValueError("feature sets must be 2-d (rows are samples)")
    return v


def bandwidth_mean_l2(x, y) -> float:
    """Mean Euclidean distance over unordered pairs of distinct points in
    the union of the two batches; 1.0 when every point coincides."""
    xv, yv = _rows(x), _rows(y)
    if xv.shape[0] < 1 or yv.shape[0] < 1:
        raise ValueError("both feature sets must be non-empty")
    if xv.shape[1] != yv.shape[1]:
        raise ValueError(f"dimension mismatch: {xv.shape[1]} vs {yv.shape[1]}")
    union = np.vstack([xv, yv])
    if union.shape[0] < 2:
        return 1.0
    mean_dist = float(pdist(union).mean())
    return mean_dist if mean_dist > 0.0 else 1.0


def _check_sigma2(sigma2: float | None) -> None:
    if sigma2 is not None and not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2!r}")


def mmd2_biased(x, y, sigma2: float | None = None) -> Tensor:
    """Biased squared MMD between two batches of feature rows.

    (1/m^2) sum k(x,x') + (1/n^2) sum k(y,y') - (2/mn) sum k(x,y) with
    k(a,b) = exp(-||a-b||^2 / (2 sigma2)). Without `sigma2` the kernel
    variance is `bandwidth_mean_l2` of the two batches. The bandwidth is
    treated as a constant: no gradient flows through sigma2.
    """
    _check_sigma2(sigma2)
    x, y = as_tensor(x), as_tensor(y)
    xv, yv = _rows(x), _rows(y)
    if xv.shape[0] == 0 or yv.shape[0] == 0:
        raise ValueError("mmd2_biased requires non-empty feature sets")
    if xv.shape[1] != yv.shape[1]:
        raise ValueError(f"dimension mismatch: {xv.shape[1]} vs {yv.shape[1]}")
    if sigma2 is None:
        sigma2 = bandwidth_mean_l2(xv, yv)

    m, n = xv.shape[0], yv.shape[0]
    k_xx = np.exp(cdist(xv, xv, "sqeuclidean") / (-2.0 * sigma2))
    k_yy = np.exp(cdist(yv, yv, "sqeuclidean") / (-2.0 * sigma2))
    k_xy = np.exp(cdist(xv, yv, "sqeuclidean") / (-2.0 * sigma2))
    value = k_xx.sum() / (m * m) + k_yy.sum() / (n * n) - 2.0 * k_xy.sum() / (m * n)

    def backward(gout):
        g = float(gout)
        gx = gy = None
        if x.requires_grad:
            # d/dx_i = (2/m^2 s2) sum_j Kxx[i,j](x_j - x_i)
            #        + (2/mn s2)  sum_j Kxy[i,j](x_i - y_j)
            gx = (k_xx @ xv - k_xx.sum(axis=1)[:, None] * xv) * (2.0 / (m * m * sigma2))
            gx += (k_xy.sum(axis=1)[:, None] * xv - k_xy @ yv) * (2.0 / (m * n * sigma2))
            gx = gx.reshape(x.shape) * g
        if y.requires_grad:
            gy = (k_yy @ yv - k_yy.sum(axis=1)[:, None] * yv) * (2.0 / (n * n * sigma2))
            gy += (k_xy.T.sum(axis=1)[:, None] * yv - k_xy.T @ xv) * (2.0 / (m * n * sigma2))
            gy = gy.reshape(y.shape) * g
        return gx, gy

    return make_node(np.asarray(value), (x, y), backward)


def layered_class_mmd(target_feats, source_feats, target_labels, source_labels,
                      sigma2: float | None = None) -> Tensor:
    """Layer-weighted, class-matched discrepancy across the three deep layers.

    Per layer: the mean of mmd2_biased (with `sigma2`) over every class
    present in both batches, feature rows restricted to that class. The
    per-layer values are combined with LAYER_WEIGHTS. Returns a constant 0
    when the batches share no class.
    """
    _check_sigma2(sigma2)
    target_feats = [as_tensor(f) for f in target_feats]
    source_feats = [as_tensor(f) for f in source_feats]
    if len(target_feats) != len(LAYER_WEIGHTS) or len(source_feats) != len(LAYER_WEIGHTS):
        raise ValueError(f"expected {len(LAYER_WEIGHTS)} feature layers per side")
    t_labels = np.asarray(target_labels)
    s_labels = np.asarray(source_labels)
    for feats, labels, side in ((target_feats, t_labels, "target"),
                                (source_feats, s_labels, "source")):
        for f in feats:
            if _rows(f).shape[0] != labels.shape[0]:
                raise ValueError(f"{side} labels do not align with feature rows")

    shared = sorted(set(t_labels.tolist()) & set(s_labels.tolist()))
    if not shared:
        return Tensor(np.asarray(0.0))
    groups = [(np.flatnonzero(t_labels == c), np.flatnonzero(s_labels == c)) for c in shared]

    per_layer = []
    for t_f, s_f in zip(target_feats, source_feats):
        terms = [mmd2_biased(take_rows(t_f, ti), take_rows(s_f, si), sigma2)
                 for ti, si in groups]
        per_layer.append(scale(add_n(terms), 1.0 / len(terms)))
    return add_n([scale(layer, w) for layer, w in zip(per_layer, LAYER_WEIGHTS)])


def transfer_loss(classification_loss, per_source_mmd, lam: float) -> Tensor:
    """Classification loss plus lam times the summed per-source MMD terms."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    lc = as_tensor(classification_loss)
    per_source_mmd = list(per_source_mmd)
    if not per_source_mmd:
        return lc
    return add(lc, scale(add_n(per_source_mmd), lam))
