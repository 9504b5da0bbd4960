"""Dense float64 tensors with reverse-mode gradients.

Implements exactly the operation set the decoders in this package need:
temporal and spatial convolutions, mean pooling, affine layers,
square/log/tanh activations, dropout, a softmax cross-entropy head, and the
convs, square, pool and log fused into one log-power op for training.
Every op accepts either a single sample or a batch with one leading axis.
No broadcasting beyond that, no GPU, no general-purpose graph surgery.

The log-power op takes its input as data, with no input gradient, in the
input's own dtype. It also takes whole trials with per-crop onsets: crops
of one trial that overlap or touch are convolved as one segment, so shared
samples are convolved once. One log-power node can hold several
branches, each with its own input and parameters, as SCSN's per-subject
shallow blocks are.

Every op runs on the calling thread except three, whose work is a fixed
list of items that `_run_items` schedules. The log-power op splits each
branch's segments into work items, cut once they hold `_CHUNK` crops, and
runs every branch's items once forward and once backward. The forward
passes of conv_time and conv_space cut one sample's matmul of at least
`_SPLIT` multiply-adds into `_BLOCKS` column blocks, conv_time by channel
and conv_space by time at multiples of 8; a block writes into the op's
output and allocates nothing. The calling thread takes the items from one
queue, joined, when the environment pins BLAS to one thread, by a private
pool of one worker per further usable core. The crops, or one sample's
operand shapes, fix the items and so every sum's order, never the worker
count, the batch size or the other branches, so results are the same to
the bit either way. Workers run numpy and this module's private helpers
only.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LOG_FLOOR = 1e-6

_CHUNK = 8  # crops at which a conv_log_power work item is cut
# multiply-adds from which conv_time's and conv_space's per-sample matmul is
# cut into _BLOCKS column blocks
_SPLIT = 1 << 21
_BLOCKS = 4
# OpenBLAS takes its thread count from the first of these that holds a
# positive integer, read in this order at start-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
            _pass_on(node, grads)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _pass_on(node: Tensor, grads: dict[int, np.ndarray]) -> None:
    """One node's turn in `Tensor.backward`: pop its gradient from `grads`
    and keep it (a leaf) or hand it on to its parents. A function of its
    own, so that no gradient outlives the turn in a loop variable."""
    gout = grads.pop(id(node), None)
    if gout is None:
        return
    if node._backward is None:
        node.grad = gout.copy() if node.grad is None else node.grad + gout
        return
    for parent, pgrad in zip(node._parents, node._backward(gout)):
        if pgrad is None or not parent.requires_grad:
            continue
        acc = grads.get(id(parent))
        grads[id(parent)] = pgrad if acc is None else acc + pgrad


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


def _pool_size() -> int:
    """Threads that run `_run_items`'s items, the calling thread included:
    the usable cores when BLAS is pinned to one thread, else 1. A pool on
    top of threaded BLAS runs slower than either level of threads alone."""
    for name in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads == 1:
            try:
                return len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                return os.cpu_count() or 1
        if threads > 1:
            return 1
    return 1


def _column_bounds(n: int, align: int = 1) -> list[tuple[int, int]]:
    """The _BLOCKS column blocks lo:hi, cut at multiples of `align`, that
    cover the n columns of one sample's matmul: n alone fixes them."""
    step = -(-n // (_BLOCKS * align)) * align
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _run_items(fn: Callable[[int, int], object], bounds: Sequence[tuple[int, int]]) -> list:
    """[fn(lo, hi) for lo, hi in bounds], each item's result in its slot.

    The calling thread and up to _pool_size() - 1 pool workers take the
    items from one queue, in order, so a worker that starts late, or never
    (in a process forked after the pool started), delays nothing: the
    calling thread runs whatever is left. The caller waits for every item,
    then re-raises the first item's error. Each fn writes only its own part
    of any buffer the caller allocated, and the items alone fix the work,
    so results are the same to the bit at any worker count."""
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for item in enumerate(bounds):
        todo.put(item)
    done = threading.Semaphore(0)
    # fn, the results and the errors by item; emptied once every item is
    # done, so a worker that starts later keeps none of them alive
    job = [fn, [None] * len(bounds), {}]

    def drain() -> None:
        while True:
            try:
                i, (lo, hi) = todo.get_nowait()
            except queue.Empty:
                return
            try:
                job[1][i] = job[0](lo, hi)
            except BaseException as err:  # raised on the calling thread below
                job[2][i] = err
            finally:
                done.release()

    workers = _pool_size()
    for _ in range(min(workers, len(bounds)) - 1):
        _executor(workers).submit(drain)
    drain()
    for _ in bounds:
        done.acquire()
    _, results, errors = job
    job.clear()
    if errors:
        raise errors[min(errors)]
    return results


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="scsnet-conv")


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
    # [F, C, T'] slab of the output; from _SPLIT multiply-adds on it is cut
    # by channel, each block copying its own channels' columns
    cols = np.empty((k, c, t_out))
    out = np.empty((b, f, c, t_out))
    split = f * k * c * t_out >= _SPLIT
    for i in range(b):
        if not split:
            np.matmul(kernels.values, im2col(i, cols), out=out[i].reshape(f, c * t_out))
            continue

        def block(lo: int, hi: int, i: int = i) -> None:
            np.copyto(cols[:, lo:hi], windows[i][:, lo:hi])
            np.matmul(kernels.values, cols[:, lo:hi].reshape(k, (hi - lo) * t_out),
                      out=out[i, :, lo:hi].reshape(f, (hi - lo) * t_out))

        _run_items(block, _column_bounds(c))

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
    if o * f * c * t < _SPLIT:
        out = np.matmul(w2, x2)  # one [O, F*C] @ [F*C, T'] matmul per sample
    else:  # the same, each cut into blocks of T' columns
        out = np.empty((b, o, t))
        for i in range(b):
            def block(lo: int, hi: int, i: int = i) -> None:
                np.matmul(w2, x2[i, :, lo:hi], out=out[i, :, lo:hi])

            _run_items(block, _column_bounds(t, 8))

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


def _check_crops(crops, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    trial, onset, width = crops
    trial, onset = np.asarray(trial), np.asarray(onset)
    if len(shape) != 3:
        raise ValueError("whole-trial input must be [trials, channels, samples]")
    if not isinstance(width, (int, np.integer)) or width < 1:
        raise ValueError("crop width must be a positive integer")
    if (trial.ndim != 1 or trial.shape != onset.shape or not len(trial)
            or trial.dtype.kind not in "iu" or onset.dtype.kind not in "iu"):
        raise ValueError("crop trials and onsets must be equal-length, non-empty integer vectors")
    if trial.min() < 0 or trial.max() >= shape[0]:
        raise ValueError(f"crop trial index outside [0, {shape[0]})")
    if onset.min() < 0 or onset.max() + width > shape[-1]:
        raise ValueError(f"crop window outside the {shape[-1]} samples of a trial")
    return trial, onset, int(width)


def _log_power_input(x, kernels, weights, crops, pool_width, pool_stride) -> tuple:
    """One branch of conv_log_power, checked in the five-op chain's order
    and with its messages: (x as [N, C, T], batched, trial, onset, crop
    width, kernels, weights)."""
    if isinstance(x, Tensor):
        if x.requires_grad:
            raise ValueError("conv_log_power has no input gradient: pass x as data")
        x = x.values
    x, kernels, weights = np.asarray(x), as_tensor(kernels), as_tensor(weights)
    if kernels.ndim != 2:
        raise ValueError("kernels must have shape [n_filters, k]")
    if crops is None:
        xb, batched = _with_batch(x, 2)
        b, width = len(xb), xb.shape[-1]
        trial, onset = np.arange(b), np.zeros(b, dtype=np.intp)
    else:
        xb, batched = x, True
        trial, onset, width = _check_crops(crops, xb.shape)
    f, k = kernels.values.shape
    if k > width:
        raise ValueError(f"kernel length {k} exceeds signal length {width}")
    if weights.ndim != 3:
        raise ValueError("weights must have shape [n_out, n_filters, channels]")
    c = xb.shape[1]
    if weights.values.shape[1:] != (f, c):
        raise ValueError(
            f"weight extents {weights.values.shape[1:]} do not match input "
            f"filter/channel extents {(f, c)}")
    _check_pool(pool_width, pool_stride, width - k + 1)
    return xb, batched, trial, onset, width, kernels, weights


def conv_log_power(x, kernels, weights, pool_width: int, pool_stride: int,
                   crops: tuple | None = None) -> Tensor:
    """log_clipped(mean_pool(square(conv_space(conv_time(x, kernels, 1),
    weights)), pool_width, pool_stride)) as one op: Shallow ConvNet's
    log-power block. This is `conv_log_power_branches` with one branch.

    No nonlinearity separates the two convs, so they are one valid
    convolution with the effective kernel W[o, c, k] = sum_f weights[o, f,
    c] * kernels[f, k], run as an im2col matmul; the [F, C, T'] temporal-conv
    output is never formed. The square, pool and log (and their gradients)
    do the separate ops' arithmetic in the same order, so they add no
    rounding of their own, and the op keeps only the conv output and the
    pooled power, never the squared batch.

    x is data: an array read in place, in its own dtype, each im2col copy
    casting its samples to float64 (float32 trials give the values of their
    float64 cast, bit for bit). The op has no input gradient, so a Tensor
    that requires one is refused.

    By default each row of x is one crop. Given `crops` = (trial, onset,
    width), x holds whole trials [trials, channels, samples] and crop r is
    x[trial[r], :, onset[r]:onset[r] + width]. The crops of one trial whose
    windows overlap or touch form a segment, which gets one im2col and one
    matmul; each crop's conv output is a column slice of its segment's, so
    samples that crops share are convolved once. Each segment is squared
    once and every crop is pooled from views of that square. Outputs
    follow the crops' row order. The backward pass takes the log's gradient
    gp one work item at a time and gives each segment one effective-kernel
    partial gh_seg @ cols_seg^T, gh_seg summing its crops' 2 h (gp @ P) in
    (trial, onset) order. A crop alone in its segment gets exactly the
    matmul of a crop row; a crop inside a longer segment may differ from it
    in the last bits, as BLAS computes a matrix's edge columns with other
    kernels.

    Work items are whole segments in (trial, onset) order, cut once they
    hold _CHUNK crops; `_run_items` runs them, on the worker pool too when
    BLAS is pinned to one thread. The effective-kernel gradient is summed
    within each item, then over the items in order. The crops alone fix the
    items, so every result is the same to the bit at any worker count.
    Shapes and input checks are the chain's: x [channels, time] or batched,
    kernels [n_filters, k], weights [n_out, n_filters, channels]; output
    [n_out, pooled] (batched: [crops, n_out, pooled]) with pooled =
    floor((width - k + 1 - pool_width) / pool_stride) + 1, width being the
    crop width (by default the time extent).
    """
    return conv_log_power_branches([(x, kernels, weights, crops)], pool_width, pool_stride)[0]


def _rows(x: Tensor, key) -> Tensor:
    """x.values[key] (a slice of rows, or one row) as a view; the gradient
    is zero outside it."""
    def backward(gout):
        gx = np.zeros_like(x.values)
        gx[key] = gout
        return (gx,)

    return make_node(x.values[key], (x,), backward)


def conv_log_power_branches(branches: Sequence[tuple], pool_width: int,
                            pool_stride: int) -> list[Tensor]:
    """`conv_log_power` of several branches as one graph node, whose work
    items go through one `_run_items` call forward and one backward.

    Each branch is (x, kernels, weights, crops) in either of conv_log_power's
    forms, with its own parameters; all branches share the kernel and
    weight shapes and the crop width. A branch's segments and work items
    are cut exactly as conv_log_power cuts them for that branch alone, and
    no item mixes branches, so every value and gradient equals the
    branch's own conv_log_power to the bit. The node's rows are the
    branches' outputs, branch-major, and its parents are every branch's
    kernels and weights. A branch whose rows get an all-zero gradient runs
    no backward items and leaves its parameters without a gradient, as if
    its output were unused. Returns each branch's output: the node itself
    for one branch, else a view of the branch's rows.
    """
    if not branches:
        raise ValueError("conv_log_power needs at least one branch")
    inputs = [_log_power_input(*branch, pool_width, pool_stride) for branch in branches]
    *_, width, kernels, weights = inputs[0]
    if any((wd, kn.shape, wt.shape) != (width, kernels.shape, weights.shape)
           for *_, wd, kn, wt in inputs):
        raise ValueError("branches must share kernel and weight shapes and the crop width")
    (f, k), (o, _, c) = kernels.shape, weights.shape
    t_out = width - k + 1
    n_pool = (t_out - pool_width) // pool_stride + 1
    span = (n_pool - 1) * pool_stride + 1  # columns from a crop's first pool window to its last

    # per crop, in (branch, trial, onset) order: its output row and its
    # column in its segment; per segment: (branch, trial, start, conv output
    # columns, first crop, end crop); per work item: its segments lo:hi,
    # all of one branch, cut once they hold _CHUNK crops
    rows: list[int] = []
    offset: list[int] = []
    segs: list[tuple[int, int, int, int, int, int]] = []
    bounds: list[tuple[int, int]] = []
    windows, w_eff, row_at, seg_at = [], [], [0], [0]
    for br, (xb, _, trial, onset, _, kern, wts) in enumerate(inputs):
        # segments: runs of the branch's crops, sorted by (trial, onset),
        # that overlap or touch
        order = np.lexsort((onset, trial))
        s_trial, s_onset = trial[order], onset[order]
        breaks = (s_trial[1:] != s_trial[:-1]) | (s_onset[1:] > s_onset[:-1] + width)
        first = [0, *(np.flatnonzero(breaks) + 1).tolist(), len(order)] if len(order) else [0]
        s_trial, s_onset, base = s_trial.tolist(), s_onset.tolist(), row_at[-1]
        lo = len(segs)
        for i, j in zip(first, first[1:]):
            start = s_onset[i]
            segs.append((br, s_trial[i], start, s_onset[j - 1] - start + t_out, base + i, base + j))
            offset += [on - start for on in s_onset[i:j]]
            if segs[-1][5] - segs[lo][4] >= _CHUNK or j == len(order):
                bounds.append((lo, len(segs)))
                lo = len(segs)
        rows += (order + base).tolist()
        row_at.append(base + len(order))
        seg_at.append(len(segs))
        windows.append(sliding_window_view(xb, k, axis=-1).transpose(0, 1, 3, 2))  # [N, C, k, T']
        w_eff.append((wts.values.transpose(0, 2, 1) @ kern.values).reshape(o, c * k))

    # each segment's [O, n] conv output, as views of one buffer the calling
    # thread allocates: buffers that worker threads allocate and this thread
    # frees cost glibc about 1,000 page faults per bench-shape step
    h_at = [0, *itertools.accumulate(o * seg[3] for seg in segs)]
    h_flat = np.empty(h_at[-1])
    h = [h_flat[a:z].reshape(o, -1) for a, z in zip(h_at, h_at[1:])]
    pooled = np.empty((row_at[-1], o, n_pool))

    def views(lo: int, hi: int, lead: tuple[int, ...]) -> dict[int, np.ndarray]:
        # [*lead, n] views, one per segment width n of the item, onto the
        # front of one buffer of the item's own
        widths = {seg[3] for seg in segs[lo:hi]}
        size = math.prod(lead)
        buf = np.empty(size * max(widths))
        return {n: buf[:size * n].reshape(*lead, n) for n in widths}

    def forward_item(lo: int, hi: int) -> None:
        # each item has its own buffers and writes only its segments of h
        # and its crops' rows of pooled
        br = segs[lo][0]
        cols_of = views(lo, hi, (c, k))
        # each width's square buffer, read through its pool windows
        square_of = {n: (sq, sliding_window_view(sq, pool_width, axis=-1))
                     for n, sq in views(lo, hi, (o,)).items()}
        for s, (_, t, start, n, i, j) in enumerate(segs[lo:hi], lo):
            cols = cols_of[n]
            np.copyto(cols, windows[br][t, :, :, start:start + n])
            np.matmul(w_eff[br], cols.reshape(c * k, n), out=h[s])
            sq, sq_windows = square_of[n]
            np.multiply(h[s], h[s], out=sq)
            for i in range(i, j):
                np.add.reduce(sq_windows[:, offset[i]:offset[i] + span:pool_stride], axis=-1,
                              out=pooled[rows[i]])

    _run_items(forward_item, bounds)
    pooled /= pool_width  # np.mean's sum, then divide: mean_pool's value to the bit
    out = np.log(np.maximum(pooled, LOG_FLOOR))

    def backward(gout):
        # only built when some kernels or weights track a gradient (make_node)
        g = gout.reshape(pooled.shape)
        live = [(kern.requires_grad or wts.requires_grad) and g[a:z].any()
                for (*_, kern, wts), a, z in zip(inputs, row_at, row_at[1:])]
        pool = _pool_matrix(n_pool, t_out, pool_width, pool_stride)

        def backward_item(lo: int, hi: int) -> np.ndarray:
            # the item's effective-kernel gradient partial
            br, first = segs[lo][0], segs[lo][4]
            # the log's gradient for the item's crops only: no full-batch
            # array is held while the im2col buffers are
            item = rows[first:segs[hi - 1][5]]
            gi, p = g[item], pooled[item]
            nonzero = p > LOG_FLOOR
            gp = np.where(nonzero, gi / np.where(nonzero, p, 1.0), 0.0)
            cols_of = views(lo, hi, (c, k))
            part = np.zeros((o, c * k))
            for s, (_, t, start, n, i, j) in enumerate(segs[lo:hi], lo):
                # the gradient at the segment's conv output: its crops'
                # 2 h (gp @ P), summed in (trial, onset) order
                if n == t_out and j - i == 1:
                    gh = 2.0 * h[s] * (gp[i - first] @ pool)
                else:
                    gh = np.zeros_like(h[s])
                    for i in range(i, j):
                        crop = slice(offset[i], offset[i] + t_out)
                        gh[:, crop] += 2.0 * h[s][:, crop] * (gp[i - first] @ pool)
                cols = cols_of[n]
                np.copyto(cols, windows[br][t, :, :, start:start + n])
                part += gh @ cols.reshape(c * k, n).T
            return part

        # each branch's effective-kernel gradient sums its items' partials in
        # order, then is chained to its kernels and weights
        grads: list[np.ndarray | None] = [None] * (2 * len(inputs))
        items = [(lo, hi) for lo, hi in bounds if live[segs[lo][0]]]
        for (lo, hi), part in zip(items, _run_items(backward_item, items)):
            br = segs[lo][0]
            if lo == seg_at[br]:
                g_eff = np.zeros((o, c * k))
            g_eff += part
            if hi < seg_at[br + 1]:
                continue
            *_, kern, wts = inputs[br]
            ge = g_eff.reshape(o, c, k)
            if kern.requires_grad:
                grads[2 * br] = (wts.values.transpose(1, 0, 2).reshape(f, o * c)
                                 @ ge.reshape(o * c, k))
            if wts.requires_grad:
                grads[2 * br + 1] = (ge @ kern.values.T).transpose(0, 2, 1)
        return grads

    parents = [t for *_, kern, wts in inputs for t in (kern, wts)]
    if len(inputs) == 1:
        return [make_node(out if inputs[0][1] else out[0], parents, backward)]
    node = make_node(out, parents, backward)
    return [_rows(node, slice(a, z) if batched else a)
            for (_, batched, *_), a, z in zip(inputs, row_at, row_at[1:])]


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
    # the graph keeps the boolean mask (1 byte per value, not 8) and each
    # pass rebuilds the float mask from it
    keep = rng.random(x.shape) >= rate

    def backward(gout):
        return (gout * (keep / (1.0 - rate)),)

    return make_node(x.values * (keep / (1.0 - rate)), (x,), backward)


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
