"""Kernel two-sample distance between feature batches, with gradients.

The biased (V-statistic) squared MMD under an RBF kernel, a mean-pairwise-L2
bandwidth rule, the class-matched layer-weighted discrepancy over the three
deep feature layers, and the combined classification + discrepancy loss.

`multi_source_mmd` computes the discrepancy of every source branch against
the target branch as one graph node per deep layer: every (source, shared
class) pair's kernel block is padded to a common size, so each pair's
bandwidth, value and gradient go through a few array operations per layer.
`layered_class_mmd` is its one-source case; `mmd2_biased` is the same
estimator for one pair of batches.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .autodiff import Tensor, add, add_n, as_tensor, make_node, scale

# weights of the three deep feature layers in the discrepancy term
LAYER_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0)


def _rows(x, side: str) -> np.ndarray:
    v = x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if v.ndim == 1:
        v = v[None]
    if v.ndim != 2:
        raise ValueError(f"{side} feature set must be 2-d (rows are samples)")
    if not np.isfinite(v).all():
        raise ValueError(f"{side} feature set holds non-finite values")
    return v


def _labels(labels, side: str) -> np.ndarray:
    v = np.asarray(labels)
    if v.ndim != 1 or v.dtype.kind not in "iu":
        raise ValueError(f"{side} labels must be a vector of integers")
    return v


def bandwidth_mean_l2(x, y) -> float:
    """Mean Euclidean distance over unordered pairs of distinct points in
    the union of the two batches; 1.0 when every point coincides."""
    xv, yv = _rows(x, "x"), _rows(y, "y")
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
    xv, yv = _rows(x, "x"), _rows(y, "y")
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


class _Pairs(NamedTuple):
    """Every (source, shared class) pair of one step, padded to one width.

    Row indices run over the branches' rows stacked in branch order. Pair p
    holds the target's m rows of its class, then its source's n rows of
    that class, then copies of its first row up to the width. Its weight
    vector a is 1/m on the target rows, -1/n on the source rows and 0 on
    the padding, so its biased MMD^2 is a^T K a."""

    target: int
    offsets: np.ndarray  # [branches + 1] first stacked row of each branch
    sources: list[int]  # source branches that share a class with the target
    idx: np.ndarray  # [pairs, width] stacked row indices
    on_target: np.ndarray  # [pairs, width] 1.0 on the pair's target rows
    on_source: np.ndarray  # [pairs, width] 1.0 on the pair's source rows
    m: np.ndarray  # [pairs] target rows per pair
    n: np.ndarray  # [pairs] source rows per pair
    aa: np.ndarray  # [pairs, width, width] outer product a a^T
    real: np.ndarray  # [pairs, width, width] True where both rows are the pair's
    flat: np.ndarray  # [pairs, width, width] index into the stacked [N, N] square
    source: np.ndarray  # [pairs] the pair's source branch
    share: np.ndarray  # [pairs] 1 / classes the pair's source shares with the target


def _class_rows(labels: np.ndarray, offset: int) -> dict[int, np.ndarray]:
    """Each class's stacked row indices, in row order."""
    order = np.argsort(labels, kind="stable")
    classes, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    return {c: offset + order[lo:lo + k]
            for c, lo, k in zip(classes.tolist(), starts.tolist(), counts.tolist())}


def _class_pairs(labels: list[np.ndarray], target: int) -> _Pairs | None:
    """The pairs of one step's labels, or None when no source shares a class."""
    offsets = np.concatenate([[0], np.cumsum([len(v) for v in labels])])
    t_groups = _class_rows(labels[target], offsets[target])
    groups, source, share = [], [], []
    for s, s_labels in enumerate(labels):
        if s == target:
            continue
        s_groups = _class_rows(s_labels, offsets[s])
        shared = sorted(t_groups.keys() & s_groups.keys())
        for c in shared:
            groups.append((t_groups[c], s_groups[c]))
            source.append(s)
            share.append(1.0 / len(shared))
    if not groups:
        return None
    width = max(len(t) + len(s) for t, s in groups)
    idx = np.empty((len(groups), width), dtype=np.intp)
    on_target = np.zeros((len(groups), width))
    on_source = np.zeros((len(groups), width))
    for p, (t_rows, s_rows) in enumerate(groups):
        m, n = len(t_rows), len(s_rows)
        idx[p, :m], idx[p, m:m + n], idx[p, m + n:] = t_rows, s_rows, t_rows[0]
        on_target[p, :m] = 1.0
        on_source[p, m:m + n] = 1.0
    m = on_target.sum(axis=1)
    n = on_source.sum(axis=1)
    a = on_target / m[:, None] - on_source / n[:, None]
    real = (on_target + on_source) > 0.0
    return _Pairs(target, offsets, sorted(set(source)), idx, on_target, on_source, m, n,
                  a[:, :, None] * a[:, None, :], real[:, :, None] & real[:, None, :],
                  idx[:, :, None] * offsets[-1] + idx[:, None, :],
                  np.asarray(source), np.asarray(share))


def _layer_mmd(feats: list[Tensor], rows: list[np.ndarray], pairs: _Pairs, weight: float,
               sigma2: float | None) -> tuple[Tensor, np.ndarray]:
    """One layer's node, weight times each source's class-mean biased MMD^2
    summed over the sources, and those per-branch terms (0 for the target
    and for a source that shares no class)."""
    x = np.concatenate(rows)
    total = len(x)
    off, target = pairs.offsets, pairs.target
    # only the blocks a pair reads: target rows against every row, and each
    # source against itself; the rest of the square is never gathered
    sq = np.zeros((total, total))
    t_rows = slice(off[target], off[target + 1])
    sq[t_rows] = cdist(x[t_rows], x, "sqeuclidean")
    sq[:, t_rows] = sq[t_rows].T
    for s in pairs.sources:
        s_rows = slice(off[s], off[s + 1])
        sq[s_rows, s_rows] = cdist(x[s_rows], x[s_rows], "sqeuclidean")
    d2 = sq[pairs.idx[:, :, None], pairs.idx[:, None, :]]
    if sigma2 is None:
        # bandwidth_mean_l2 of each pair's union: every distinct pair is
        # counted twice in the square, and so is the denominator
        size = pairs.m + pairs.n
        mean = np.where(pairs.real, np.sqrt(d2), 0.0).sum(axis=(1, 2)) / (size * (size - 1))
        s2 = np.where(mean > 0.0, mean, 1.0)
    else:
        s2 = np.full(len(d2), float(sigma2))
    k = np.exp(d2 / (-2.0 * s2)[:, None, None])
    k_t = np.matmul(k, pairs.on_target[:, :, None])[..., 0]
    k_s = np.matmul(k, pairs.on_source[:, :, None])[..., 0]
    values = ((k_t * pairs.on_target).sum(axis=1) / (pairs.m * pairs.m)
              + (k_s * pairs.on_source).sum(axis=1) / (pairs.n * pairs.n)
              - 2.0 * (k_t * pairs.on_source).sum(axis=1) / (pairs.m * pairs.n))
    terms = weight * np.bincount(pairs.source, pairs.share * values, minlength=len(feats))

    def backward(gout):
        # d/dx_i of sum_p c_p a_p^T K_p a_p is 2 sum_j G_ij (x_j - x_i),
        # G = sum_p c_p (a_p a_p^T * K_p) / sigma2_p scattered to stacked rows
        coef = float(gout) * weight * pairs.share / s2
        g = np.bincount(pairs.flat.ravel(), (pairs.aa * k * coef[:, None, None]).ravel(),
                        minlength=total * total).reshape(total, total)
        # a row's own term G_ii (x_i - x_i) is zero; dropping it spares the
        # product the cancellation of the kernel's largest entries
        np.fill_diagonal(g, 0.0)
        gx = 2.0 * (g @ x - g.sum(axis=1)[:, None] * x)
        return tuple(gx[off[b]:off[b + 1]].reshape(f.shape)
                     if b in pairs.sources or b == target else None
                     for b, f in enumerate(feats))

    return make_node(np.asarray(terms.sum()), feats, backward), terms


def multi_source_mmd(branch_feats, branch_labels, target: int,
                     sigma2: float | None = None) -> tuple[Tensor, dict[int, tuple[float, ...]]]:
    """Layer-weighted, class-matched discrepancy of every source branch
    against the target branch, as one node per deep layer.

    `branch_feats[b]` holds branch b's three deep feature layers (rows are
    samples) and `branch_labels[b]` its integer labels. A source's term is,
    per layer, the mean of mmd2_biased (with `sigma2`) over every class it
    shares with the target, feature rows restricted to that class, combined
    with LAYER_WEIGHTS. Returns the sum of the source terms (a constant 0
    when no source shares a class) and, per source branch, its per-layer
    weighted terms as floats; those sum to the source's term.
    """
    _check_sigma2(sigma2)
    feats = [[as_tensor(f) for f in layers] for layers in branch_feats]
    if len(branch_labels) != len(feats):
        raise ValueError("expected one label vector per branch")
    if not 0 <= target < len(feats):
        raise ValueError(f"target index {target} outside {len(feats)} branches")
    if any(len(layers) != len(LAYER_WEIGHTS) for layers in feats):
        raise ValueError(f"expected {len(LAYER_WEIGHTS)} feature layers per branch")
    sides = ["target" if b == target else f"source {b}" for b in range(len(feats))]
    labels = [_labels(v, side) for v, side in zip(branch_labels, sides)]
    rows = [[_rows(f, f"{side} layer {layer}") for layer, f in enumerate(layers)]
            for layers, side in zip(feats, sides)]
    for b, side in enumerate(sides):
        if any(r.shape[0] != len(labels[b]) for r in rows[b]):
            raise ValueError(f"{side} labels do not align with feature rows")
    for layer in range(len(LAYER_WEIGHTS)):
        if len({r[layer].shape[1] for r in rows}) > 1:
            raise ValueError(f"feature layer {layer} differs in width across branches")

    sources = [b for b in range(len(feats)) if b != target]
    pairs = _class_pairs(labels, target)
    if pairs is None:
        return Tensor(np.asarray(0.0)), {s: (0.0,) * len(LAYER_WEIGHTS) for s in sources}
    nodes, terms = zip(*(_layer_mmd([layers[layer] for layers in feats],
                                    [r[layer] for r in rows], pairs, weight, sigma2)
                         for layer, weight in enumerate(LAYER_WEIGHTS)))
    return add_n(nodes), {s: tuple(float(t[s]) for t in terms) for s in sources}


def layered_class_mmd(target_feats, source_feats, target_labels, source_labels,
                      sigma2: float | None = None) -> Tensor:
    """Layer-weighted, class-matched discrepancy across the three deep layers.

    Per layer: the mean of mmd2_biased (with `sigma2`) over every class
    present in both batches, feature rows restricted to that class. The
    per-layer values are combined with LAYER_WEIGHTS. Returns a constant 0
    when the batches share no class. This is `multi_source_mmd` with one
    source.
    """
    return multi_source_mmd([target_feats, source_feats], [target_labels, source_labels],
                            0, sigma2)[0]


def transfer_loss(classification_loss, per_source_mmd, lam: float) -> Tensor:
    """Classification loss plus lam times the summed per-source MMD terms."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    lc = as_tensor(classification_loss)
    per_source_mmd = list(per_source_mmd)
    if not per_source_mmd:
        return lc
    return add(lc, scale(add_n(per_source_mmd), lam))
