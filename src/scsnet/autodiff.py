"""Dense float64 tensors with reverse-mode gradients.

Implements exactly the operation set the decoders in this package need:
temporal and spatial convolutions, mean pooling, affine layers,
square/log/tanh activations, dropout, a softmax cross-entropy head, and the
convs, square, pool and log fused into one log-power op for training.
Every op accepts either a single sample or a batch with one leading axis.
No broadcasting beyond that, no GPU, no general-purpose graph surgery.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LOG_FLOOR = 1e-6


class Tensor:
    """A float64 array node in a recorded computation.

    `values` holds the data in row-major order, `grad` is filled by
    `backward()` for leaves with `requires_grad`. Interior nodes keep
    references to their parents plus a closure that maps the incoming
    gradient to per-parent gradients.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Fill `grad` for every reachable leaf that requires one.

        Only scalar roots are supported; gradients accumulate across all
        uses of a node, so shared parameters get the full sum. An interior
        node (one with a backward closure) hands its gradient on to its
        parents and keeps none, so each is freed once it has been passed on.
        """
        if self.values.ndim != 0:
            raise ValueError("backward requires a scalar loss node")
        if not self.requires_grad:
            raise ValueError("loss does not depend on any tracked tensor")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones((), dtype=np.float64)}
        for node in reversed(order):
            gout = grads.pop(id(node), None)
            if gout is None:
                continue
            if node._backward is None:
                node.grad = gout.copy() if node.grad is None else node.grad + gout
                continue
            parent_grads = node._backward(gout)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pgrad if acc is None else acc + pgrad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(values: np.ndarray, parents: Iterable[Tensor],
              backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Build an interior node; drops the closure when no parent tracks grads."""
    parents = tuple(parents)
    out = Tensor(values, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _with_batch(values: np.ndarray, expect_ndim: int) -> tuple[np.ndarray, bool]:
    if values.ndim == expect_ndim:
        return values[None], False
    if values.ndim == expect_ndim + 1:
        return values, True
    raise ValueError(f"expected {expect_ndim}-d or {expect_ndim + 1}-d input, got {values.ndim}-d")


def _scatter_windows(target: np.ndarray, windowed: np.ndarray, stride: int) -> None:
    # windowed[..., t', j] contributes to target[..., t' * stride + j]. Within a
    # block of `stride` consecutive offsets j every target is hit at most once,
    # so each block is one strided add; blocks go in increasing j, the order in
    # which a per-offset loop would sum, so the result is the same to the bit.
    n_out, width = windowed.shape[-2], windowed.shape[-1]
    for j in range(0, width, stride):
        block = min(stride, width - j)
        slab = sliding_window_view(target[..., j:], block, axis=-1, writeable=True)
        slab[..., :(n_out - 1) * stride + 1:stride, :] += windowed[..., j:j + block]


def _check_pool(width, stride, extent: int) -> None:
    if not isinstance(width, int) or width < 1 or not isinstance(stride, int) or stride < 1:
        raise ValueError("width and stride must be positive integers")
    if width > extent:
        raise ValueError(f"pool width {width} exceeds time extent {extent}")


def _pool_matrix(n_out: int, t: int, width: int, stride: int) -> np.ndarray:
    # mean pooling over t samples is the fixed [n_out, t] matrix P with
    # 1/width on each window, so its input gradient is g @ P
    pool = np.zeros((n_out, t))
    rows = np.arange(n_out)[:, None]
    pool[rows, rows * stride + np.arange(width)] = 1.0 / width
    return pool


def conv_time(x, kernels, stride: int = 1) -> Tensor:
    """Valid 1-d convolution along the time axis, one kernel bank shared by
    all channels.

    x: [channels, time] or [batch, channels, time]; kernels: [n_filters, k].
    Output: [n_filters, channels, time'] (batched: leading batch axis) with
    time' = floor((time - k) / stride) + 1.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    if kernels.ndim != 2:
        raise ValueError("kernels must have shape [n_filters, k]")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError("stride must be a positive integer")
    xb, batched = _with_batch(x.values, 2)
    f, k = kernels.values.shape
    b, c, t = xb.shape
    if k > t:
        raise ValueError(f"kernel length {k} exceeds signal length {t}")

    t_out = (t - k) // stride + 1
    windows = sliding_window_view(xb, k, axis=-1)[..., ::stride, :].transpose(0, 3, 1, 2)

    def im2col(i: int, cols: np.ndarray) -> np.ndarray:
        # k-major columns of sample i: cols[j, c, t'] = x[i, c, t' * stride + j]
        np.copyto(cols, windows[i])
        return cols.reshape(k, c * t_out)

    # one [F, k] @ [k, C*T'] matmul per sample, written straight into its
    # [F, C, T'] slab of the output
    cols = np.empty((k, c, t_out))
    out = np.empty((b, f, c, t_out))
    for i in range(b):
        np.matmul(kernels.values, im2col(i, cols), out=out[i].reshape(f, c * t_out))

    def backward(gout):
        g = gout if batched else gout[None]
        gk = gx = None
        if kernels.requires_grad:
            cols = np.empty((k, c, t_out))
            gk = np.zeros((f, k))
            for i in range(b):
                gk += g[i].reshape(f, c * t_out) @ im2col(i, cols).T
        if x.requires_grad:
            spread = np.tensordot(g, kernels.values, axes=([1], [0]))   # [B, C, T', k]
            gx = np.zeros_like(xb)
            _scatter_windows(gx, spread, stride)
            if not batched:
                gx = gx[0]
        return gx, gk

    return make_node(out if batched else out[0], (x, kernels), backward)


def conv_space(x, weights) -> Tensor:
    """Fully contract the (filter, channel) axes: spatial convolution.

    x: [n_filters, channels, time] or batched; weights: [n_out, n_filters,
    channels]. Output: [n_out, time] (batched: [batch, n_out, time]).
    """
    x, weights = as_tensor(x), as_tensor(weights)
    if weights.ndim != 3:
        raise ValueError("weights must have shape [n_out, n_filters, channels]")
    xb, batched = _with_batch(x.values, 3)
    if weights.values.shape[1:] != xb.shape[1:3]:
        raise ValueError(
            f"weight extents {weights.values.shape[1:]} do not match input "
            f"filter/channel extents {xb.shape[1:3]}")

    o, f, c = weights.values.shape
    b, t = xb.shape[0], xb.shape[-1]
    w2 = weights.values.reshape(o, f * c)
    x2 = xb.reshape(b, f * c, t)
    out = np.matmul(w2, x2)  # one [O, F*C] @ [F*C, T'] matmul per sample

    def backward(gout):
        g = gout if batched else gout[None]
        gw = gx = None
        if weights.requires_grad:
            gw = np.zeros((o, f * c))
            for i in range(b):
                gw += g[i] @ x2[i].T
            gw = gw.reshape(o, f, c)
        if x.requires_grad:
            # one [F*C, O] @ [O, B*T'] GEMM for the whole batch, returned as a
            # [B, F, C, T'] view of its [F, C, B, T'] result
            gx = (w2.T @ g.transpose(1, 0, 2).reshape(o, b * t)
                  ).reshape(f, c, b, t).transpose(2, 0, 1, 3)
            if not batched:
                gx = gx[0]
        return gx, gw

    return make_node(out if batched else out[0], (x, weights), backward)


def conv_log_power(x, kernels, weights, pool_width: int, pool_stride: int) -> Tensor:
    """log_clipped(mean_pool(square(conv_space(conv_time(x, kernels, 1),
    weights)), pool_width, pool_stride)) as one op: Shallow ConvNet's
    log-power block.

    No nonlinearity separates the two convs, so they are one valid
    convolution with the effective kernel W[o, c, k] = sum_f weights[o, f,
    c] * kernels[f, k], run as an im2col matmul per sample; the [F, C, T']
    temporal-conv output is never formed. Each sample is squared and pooled
    straight after its matmul, so the op keeps only the conv output and the
    pooled power, never the squared batch. The square, pool and log (and
    their gradients) do the separate ops' arithmetic in the same order, so
    they add no rounding of their own.
    Shapes and input checks are the chain's: x [channels, time] or batched,
    kernels [n_filters, k], weights [n_out, n_filters, channels]; output
    [n_out, pooled] (batched: [batch, n_out, pooled]) with pooled =
    floor((time - k + 1 - pool_width) / pool_stride) + 1.
    """
    x, kernels, weights = as_tensor(x), as_tensor(kernels), as_tensor(weights)
    if kernels.ndim != 2:
        raise ValueError("kernels must have shape [n_filters, k]")
    xb, batched = _with_batch(x.values, 2)
    f, k = kernels.values.shape
    if k > xb.shape[-1]:
        raise ValueError(f"kernel length {k} exceeds signal length {xb.shape[-1]}")
    if weights.ndim != 3:
        raise ValueError("weights must have shape [n_out, n_filters, channels]")
    b, c, t = xb.shape
    if weights.values.shape[1:] != (f, c):
        raise ValueError(
            f"weight extents {weights.values.shape[1:]} do not match input "
            f"filter/channel extents {(f, c)}")
    o, t_out = weights.values.shape[0], t - k + 1
    _check_pool(pool_width, pool_stride, t_out)

    n_pool = (t_out - pool_width) // pool_stride + 1
    w_eff = np.einsum("ofc,fk->ock", weights.values, kernels.values).reshape(o, c * k)
    windows = sliding_window_view(xb, k, axis=-1).transpose(0, 1, 3, 2)  # [B, C, k, T']

    def im2col(i: int, cols: np.ndarray) -> np.ndarray:
        np.copyto(cols, windows[i])
        return cols.reshape(c * k, t_out)

    cols = np.empty((c, k, t_out))
    h = np.empty((b, o, t_out))
    pooled = np.empty((b, o, n_pool))
    power = np.empty((o, t_out))  # one crop's square, read through its pool windows
    power_windows = sliding_window_view(power, pool_width, axis=-1)[:, ::pool_stride, :]
    for i in range(b):
        np.matmul(w_eff, im2col(i, cols), out=h[i])
        np.multiply(h[i], h[i], out=power)
        np.add.reduce(power_windows, axis=-1, out=pooled[i])
    pooled /= pool_width  # np.mean's sum, then divide: mean_pool's value to the bit
    out = np.log(np.maximum(pooled, LOG_FLOOR))

    def backward(gout):
        g = gout if batched else gout[None]
        live = pooled > LOG_FLOOR
        gp = np.where(live, g / np.where(live, pooled, 1.0), 0.0)
        pool = _pool_matrix(n_pool, t_out, pool_width, pool_stride)
        need_params = kernels.requires_grad or weights.requires_grad
        gx = gk = gw = None
        if need_params:
            cols = np.empty((c, k, t_out))
            g_eff = np.zeros((o, c * k))
        if x.requires_grad:
            gx = np.zeros_like(xb)
        for i in range(b):
            gh = 2.0 * h[i] * (gp[i] @ pool)
            if need_params:
                g_eff += gh @ im2col(i, cols).T
            if x.requires_grad:
                spread = (w_eff.T @ gh).reshape(c, k, t_out)
                _scatter_windows(gx[i], spread.transpose(0, 2, 1), 1)
        if need_params:
            g_eff = g_eff.reshape(o, c, k)
            if kernels.requires_grad:
                gk = np.einsum("ock,ofc->fk", g_eff, weights.values)
            if weights.requires_grad:
                gw = np.einsum("ock,fk->ofc", g_eff, kernels.values)
        if x.requires_grad and not batched:
            gx = gx[0]
        return gx, gk, gw

    return make_node(out if batched else out[0], (x, kernels, weights), backward)


def mean_pool(x, width: int, stride: int) -> Tensor:
    """Mean over sliding windows along the last axis.

    x: [features, time] or batched. Output time' = floor((time - width) /
    stride) + 1.
    """
    x = as_tensor(x)
    xb, batched = _with_batch(x.values, 2)
    _check_pool(width, stride, xb.shape[-1])

    windows = sliding_window_view(xb, width, axis=-1)[..., ::stride, :]
    out = windows.mean(axis=-1)

    def backward(gout):
        pool = _pool_matrix(out.shape[-1], xb.shape[-1], width, stride)
        gx = (gout.reshape(-1, pool.shape[0]) @ pool).reshape(x.shape)
        return (gx,)

    return make_node(out if batched else out[0], (x,), backward)


def dense(x, weights, bias) -> Tensor:
    """Affine map: weights @ x + bias, batched over a leading axis if present."""
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    if weights.ndim != 2 or bias.ndim != 1:
        raise ValueError("weights must be [m, n] and bias [m]")
    xb, batched = _with_batch(x.values, 1)
    m, n = weights.values.shape
    if xb.shape[-1] != n or bias.values.shape[0] != m:
        raise ValueError(
            f"extent mismatch: input {xb.shape[-1]}, weights {weights.values.shape}, "
            f"bias {bias.values.shape}")

    out = xb @ weights.values.T + bias.values

    def backward(gout):
        g = gout if batched else gout[None]
        gx = gw = gb = None
        if x.requires_grad:
            gx = g @ weights.values
            if not batched:
                gx = gx[0]
        if weights.requires_grad:
            gw = g.T @ xb
        if bias.requires_grad:
            gb = g.sum(axis=0)
        return gx, gw, gb

    return make_node(out if batched else out[0], (x, weights, bias), backward)


def square(x) -> Tensor:
    x = as_tensor(x)
    v = x.values

    def backward(gout):
        return (2.0 * v * gout,)

    return make_node(v * v, (x,), backward)


def log_clipped(x, floor: float = LOG_FLOOR) -> Tensor:
    """log(max(x, floor)); the clipped region has zero gradient."""
    x = as_tensor(x)
    v = x.values
    out = np.log(np.maximum(v, floor))

    def backward(gout):
        live = v > floor
        return (np.where(live, gout / np.where(live, v, 1.0), 0.0),)

    return make_node(out, (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.values)

    def backward(gout):
        return (gout * (1.0 - out * out),)

    return make_node(out, (x,), backward)


def dropout(x, rate: float, rng: np.random.Generator | None = None,
            training: bool = True) -> Tensor:
    """Inverted dropout. Identity when rate == 0 or in inference mode."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(gout):
        return (gout * mask,)

    return make_node(x.values * mask, (x,), backward)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    old = x.values.shape

    def backward(gout):
        return (gout.reshape(old),)

    return make_node(x.values.reshape(shape), (x,), backward)


def take_rows(x, idx) -> Tensor:
    """Gather rows of a 2-d tensor; duplicate indices accumulate gradient."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError("take_rows expects a 2-d tensor")
    idx = np.asarray(idx, dtype=np.intp)

    def backward(gout):
        gx = np.zeros_like(x.values)
        np.add.at(gx, idx, gout)
        return (gx,)

    return make_node(x.values[idx], (x,), backward)


def add(a, b) -> Tensor:
    """Elementwise sum of two same-shape tensors, or tensor + python scalar."""
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        return make_node(a.values + float(b), (a,), lambda g: (g,))
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in add: {a.shape} vs {b.shape}")
    return make_node(a.values + b.values, (a, b), lambda g: (g, g))


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    factor = float(factor)
    return make_node(a.values * factor, (a,), lambda g: (g * factor,))


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum a non-empty list of same-shape tensors."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("add_n needs at least one tensor")
    total = tensors[0].values.copy()
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ValueError("add_n requires identical shapes")
        total += t.values
    return make_node(total, tensors, lambda g: tuple(g for _ in tensors))


def tsum(x) -> Tensor:
    """Sum of all elements, as a scalar node."""
    x = as_tensor(x)

    def backward(gout):
        return (np.full_like(x.values, float(gout)),)

    return make_node(np.asarray(x.values.sum()), (x,), backward)


def softmax_xent(logits, labels) -> tuple[Tensor, np.ndarray]:
    """Stabilized softmax + cross-entropy.

    1-d logits with an integer label give the single-sample loss; 2-d logits
    with a label vector give the batch-mean loss. Returns (loss, probabilities).
    """
    logits = as_tensor(logits)
    if logits.ndim == 1:
        batched = False
        z = logits.values[None]
        labels_arr = np.asarray([labels], dtype=np.intp)
    elif logits.ndim == 2:
        batched = True
        z = logits.values
        labels_arr = np.asarray(labels, dtype=np.intp)
        if labels_arr.shape != (z.shape[0],):
            raise ValueError("labels must align with the batch axis")
    else:
        raise ValueError("logits must be 1-d or 2-d")
    n_classes = z.shape[1]
    if n_classes < 2:
        raise ValueError("softmax_xent needs at least 2 classes")
    if labels_arr.min() < 0 or labels_arr.max() >= n_classes:
        raise IndexError(f"label out of range for {n_classes} classes")

    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    rows = np.arange(z.shape[0])
    nll = np.log(total[:, 0]) - shifted[rows, labels_arr]
    loss_value = nll.mean() if batched else nll[0]

    def backward(gout):
        d = probs.copy()
        d[rows, labels_arr] -= 1.0
        if batched:
            d /= z.shape[0]
        g = d * float(gout)
        return (g if batched else g[0],)

    loss = make_node(np.asarray(loss_value), (logits,), backward)
    return loss, (probs if batched else probs[0]).copy()


def grad_check(fn: Callable[[], Tensor], wrt: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn` must rebuild the graph and return a scalar loss on every call, and be
    deterministic (re-seed any randomness inside it). Error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for t in wrt:
        t.zero_grad()
    loss = fn()
    if loss.ndim != 0:
        raise ValueError("grad_check requires a scalar loss")
    loss.backward()
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in wrt]

    worst = 0.0
    for t, ana in zip(wrt, analytic):
        flat = t.values.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = fn().item()
            flat[i] = keep - eps
            down = fn().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(ana_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana_flat[i] - numeric) / denom)
    return worst
