"""Dense float64 tensors with reverse-mode gradients.

Implements exactly the operation set the decoders in this package need:
temporal and spatial convolutions, mean pooling, affine layers,
square/log/tanh activations, dropout, a softmax cross-entropy head, and the
convs, square, pool and log fused into one log-power op for training.
Every op that has a sample axis takes a batch: its input has one leading
axis, and a single sample is a batch of one. No broadcasting beyond that,
no GPU, no general-purpose graph surgery.

The temporal conv and the log-power op take their input as data, with no
input gradient; the log-power op reads it in its own dtype. It also takes
whole trials with per-crop onsets: crops of one trial that overlap or
touch are convolved as one segment, so shared samples are convolved once.
One log-power node can hold several branches, each with its own input and
parameters, as SCSN's per-subject shallow blocks are.

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
the bit either way.

`_run_each` runs a list of independent items through the same scheduler,
one item each: `datasets.synth_multisubject` one per session, and the CLI
one per container that `preprocess` filters or that `train` and `eval`
load. So workers run numpy, scipy's filters, file reads and writes and
sha256 hashing besides this module's private helpers; each item writes
only its own file or its own part of a buffer the caller allocated.
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

_CHUNK = 8  # crops at which a conv_log_power_branches work item is cut
_GRAD_COLS = 256  # conv columns per block of the kernel gradient's im2col
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


def _check_batch(ndim: int, *axes: str) -> None:
    """Refuse an input of `ndim` axes unless it is a batch with these axes."""
    if ndim != len(axes):
        raise ValueError(f"expected [{', '.join(axes)}] input, got {ndim}-d")


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


def _run_items(fn: Callable[[int, int], object], bounds: Sequence[tuple[int, int]],
               fold: Callable[[int, object], None] | None = None) -> list:
    """[fn(lo, hi) for lo, hi in bounds], each item's result in its slot.

    Given `fold`, fold(i, result) takes each item's result instead, in item
    order: whichever thread finishes the next item in sequence runs it,
    under a lock, for that item and every later one already done. So a sum
    in `fold` has one order at any worker count, and each result is freed
    once folded; the returned slots hold None.

    The calling thread and up to _pool_size() - 1 pool workers take the
    items from one queue, in order, so a worker that starts late, or never
    (in a process forked after the pool started), delays nothing: the
    calling thread runs whatever is left. Once an item, or a fold, has
    raised, no further item is started: the items already running finish,
    then the caller re-raises the lowest-numbered item's error; no item from
    a failed one on is folded. Each fn writes only its own part of any
    buffer the caller allocated, and the items alone fix the work, so
    results are the same to the bit at any worker count."""
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for item in enumerate(bounds):
        todo.put(item)
    done = threading.Semaphore(0)
    lock = threading.Lock()
    results = [None] * len(bounds)
    # fn, fold, the results done but not yet folded, the errors by item and
    # the next item to fold; emptied once every item is done, so a worker
    # that starts later keeps none of them alive
    job = [fn, fold or results.__setitem__, {}, {}, 0]

    def fold_done() -> None:
        # under the lock: fold the done items that come next, in order
        waiting, errors = job[2], job[3]
        while job[4] in waiting:
            i = job[4]
            try:
                job[1](i, waiting.pop(i))
            except BaseException as err:  # raised on the calling thread below
                errors[i] = err
                return
            job[4] += 1

    def drain() -> None:
        while True:
            try:
                i, (lo, hi) = todo.get_nowait()
            except queue.Empty:
                return
            if job[3]:  # an item has failed: this one is counted, not run
                done.release()
                continue
            try:
                result = job[0](lo, hi)
            except BaseException as err:  # raised on the calling thread below
                job[3][i] = err
            else:
                with lock:
                    job[2][i] = result
                    fold_done()
            finally:
                done.release()

    workers = _pool_size()
    for _ in range(min(workers, len(bounds)) - 1):
        _executor(workers).submit(drain)
    drain()
    for _ in bounds:
        done.acquire()
    errors = job[3]
    job.clear()
    if errors:
        raise errors[min(errors)]
    return results


def _run_each(fn: Callable[[object], object], items: Sequence) -> list:
    """[fn(item) for item in items] through `_run_items`, one item each."""
    return _run_items(lambda lo, _: fn(items[lo]), [(i, i + 1) for i in range(len(items))])


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="scsnet-pool")


def _window_matrix(n_out: int, t: int, width: int, stride: int) -> np.ndarray:
    # the [n_out, t] 0/1 matrix of the pool windows over t samples: mean
    # pooling is this matrix over width, so its input gradient is g @ P
    # with P = _window_matrix(...) / width
    windows = np.zeros((n_out, t))
    rows = np.arange(n_out)[:, None]
    windows[rows, rows * stride + np.arange(width)] = 1.0
    return windows


def _consecutive_sums(v: np.ndarray, w: int) -> np.ndarray:
    """s[..., m] = v[..., m:m + w].sum(-1) for every start m, by binary
    doubling: pairwise adds build the sums of 1, 2, 4, ... consecutive
    entries, and each set bit of w adds one of them at its place."""
    n_out = v.shape[-1] - w + 1
    total, span, at = None, 1, 0
    while True:
        if w & span:
            part = v[..., at:at + n_out]
            if total is None:
                total = part.copy()
            else:
                total += part
            at += span
        if 2 * span > w:
            return total
        v = v[..., :-span] + v[..., span:]  # sums of 2 * span entries
        span *= 2


def _window_sums(a: np.ndarray, width: int, g: int) -> np.ndarray:
    """s[..., m] = a[..., m * g:m * g + width].sum(-1): the sums of every
    window of `width` samples along the last axis that starts at a multiple
    of g, which divides width. Blocks of g samples are summed first, then
    width / g consecutive blocks."""
    n_blocks = (a.shape[-1] - width) // g + width // g
    blocks = a[..., :n_blocks * g].reshape(*a.shape[:-1], n_blocks, g)
    # einsum's sum over a short last axis is several times faster than
    # np.sum's at g = 15, and g strided adds read the whole array g times
    return _consecutive_sums(np.einsum("...j->...", blocks), width // g)


def _window_spread(grid: np.ndarray, width: int, g: int, out: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """The adjoint of _window_sums, scaled: out[..., t] = the sum of
    grid[..., m] over the windows m that hold sample t, times `times[..., t]`.
    Each block's gradient is the same doubling run on the grid padded with
    width / g - 1 zeros at both ends, repeated over the block's g samples;
    samples after the last window get zero. `out` is C-contiguous, so that
    its blocks are a view of it. Returns out."""
    w = width // g
    padded = np.zeros(grid.shape[:-1] + (grid.shape[-1] + 2 * (w - 1),))
    padded[..., w - 1:w - 1 + grid.shape[-1]] = grid
    per_block = _consecutive_sums(padded, w)
    covered = per_block.shape[-1] * g
    # a broadcast copy, then a multiply of whole rows: a multiply broadcast
    # over g runs several times slower at g = 5
    out[..., :covered].reshape(*per_block.shape, g)[...] = per_block[..., None]
    out[..., covered:] = 0.0
    out *= times
    return out


def _data(x, op: str):
    """x as data: the values of a Tensor that requires no gradient, else x
    itself; `op` has no input gradient, so a Tensor that requires one is
    refused."""
    if isinstance(x, Tensor):
        if x.requires_grad:
            raise ValueError(f"{op} has no input gradient: pass x as data")
        return x.values
    return x


def conv_time(x, kernels, stride: int = 1) -> Tensor:
    """Valid 1-d convolution along the time axis, one kernel bank shared by
    all channels.

    x: [batch, channels, time]; kernels: [n_filters, k]. Output: [batch,
    n_filters, channels, time'] with time' = floor((time - k) / stride) + 1.
    x is data, cast to float64 once: the op has no input gradient, so a
    Tensor that requires one is refused, and the gradient is the kernels'.
    """
    xb = np.asarray(_data(x, "conv_time"), dtype=np.float64)
    kernels = as_tensor(kernels)
    if kernels.ndim != 2:
        raise ValueError("kernels must have shape [n_filters, k]")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError("stride must be a positive integer")
    _check_batch(xb.ndim, "batch", "channels", "time")
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

    def backward(g):
        cols = np.empty((k, c, t_out))
        gk = np.zeros((f, k))
        for i in range(b):
            gk += g[i].reshape(f, c * t_out) @ im2col(i, cols).T
        return (gk,)

    return make_node(out, (kernels,), backward)


def conv_space(x, weights) -> Tensor:
    """Fully contract the (filter, channel) axes: spatial convolution.

    x: [batch, n_filters, channels, time]; weights: [n_out, n_filters,
    channels]. Output: [batch, n_out, time].
    """
    x, weights = as_tensor(x), as_tensor(weights)
    if weights.ndim != 3:
        raise ValueError("weights must have shape [n_out, n_filters, channels]")
    _check_batch(x.ndim, "batch", "n_filters", "channels", "time")
    xb = x.values
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

    def backward(g):
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
        return gx, gw

    return make_node(out, (x, weights), backward)


def _log_power_input(x, kernels, weights, crops, pool_width, pool_stride) -> tuple:
    """One branch of conv_log_power_branches, checked in the five-op chain's
    order and with its messages: (x as a tuple of [N, C, T] arrays, trial,
    onset, crop width, kernels, weights)."""
    x = _data(x, "conv_log_power_branches")
    kernels, weights = as_tensor(kernels), as_tensor(weights)
    if kernels.ndim != 2:
        raise ValueError("kernels must have shape [n_filters, k]")
    sets = (x,) if isinstance(x, np.ndarray) else tuple(map(np.asarray, x))
    for s in sets:
        _check_batch(s.ndim, "batch", "channels", "time")
    if len({s.shape[1] for s in sets}) != 1:
        raise ValueError("whole-trial input must be arrays that share their channel count")
    trial, onset, width = crops
    trial, onset = np.asarray(trial), np.asarray(onset)
    if not isinstance(width, (int, np.integer)) or width < 1:
        raise ValueError("crop width must be a positive integer")
    if (trial.ndim != 1 or trial.shape != onset.shape
            or trial.dtype.kind not in "iu" or onset.dtype.kind not in "iu"):
        raise ValueError("crop trials and onsets must be equal-length integer vectors")
    if any(s.shape[-1] < width for s in sets):
        raise ValueError(f"a whole-trial array holds fewer than the crop width {width} samples")
    n_trials = sum(map(len, sets))
    if np.any((trial < 0) | (trial >= n_trials)):
        raise ValueError(f"crop trial index outside [0, {n_trials})")
    # each crop against the samples of its own trial's array
    samples = np.repeat([s.shape[-1] for s in sets], [len(s) for s in sets])[trial]
    outside = (onset < 0) | (onset + width > samples)
    if outside.any():
        raise ValueError(
            f"crop window outside the {samples[outside.argmax()]} samples of a trial")
    f, k = kernels.values.shape
    if k > width:
        raise ValueError(f"kernel length {k} exceeds signal length {width}")
    if weights.ndim != 3:
        raise ValueError("weights must have shape [n_out, n_filters, channels]")
    c = sets[0].shape[1]
    if weights.values.shape[1:] != (f, c):
        raise ValueError(
            f"weight extents {weights.values.shape[1:]} do not match input "
            f"filter/channel extents {(f, c)}")
    _check_pool(pool_width, pool_stride, width - k + 1)
    return sets, trial, onset, int(width), kernels, weights


def _rows(x: Tensor, rows: slice) -> Tensor:
    """x.values[rows] as a view; the gradient is zero outside it."""
    def backward(gout):
        gx = np.zeros_like(x.values)
        gx[rows] = gout
        return (gx,)

    return make_node(x.values[rows], (x,), backward)


def conv_log_power_branches(branches: Sequence[tuple], pool_width: int,
                            pool_stride: int) -> list[Tensor]:
    """log_clipped(mean_pool(square(conv_space(conv_time(crops, kernels, 1),
    weights)), pool_width, pool_stride)) of each branch, Shallow ConvNet's
    log-power block, as one graph node whose work items go through one
    `_run_items` call forward and one backward.

    Each branch is (x, kernels, weights, crops) with its own parameters;
    all share the kernel and weight shapes and the crop width. x holds
    whole trials [trials, channels, samples], or is a sequence of such
    arrays with the same channels, each in its own dtype and of its own
    length: trials are numbered across the arrays in order. With crops =
    (trial, onset, width), crop r is samples onset[r]:onset[r] + width of
    the trial numbered trial[r], which must lie within that trial's own
    array; output rows follow the crops' order, and no crops give no rows.
    x is data, read in place, each im2col copy casting its samples to
    float64 (float32 trials give the values of their float64 cast, bit for
    bit). The node has no input gradient: a Tensor that requires one is
    refused.

    No nonlinearity separates the two convs, so they are one valid
    convolution with the effective kernel W[o, c, k] = sum_f weights[o, f,
    c] * kernels[f, k], run as an im2col matmul; the [F, C, T'] temporal-conv
    output and the squared batch are never held. The crops of one trial
    whose windows overlap or touch form a segment, which gets one im2col
    and one matmul, each crop's conv output being a column slice of its
    segment's, and is squared once. Backward, each segment gets its
    effective-kernel partial cols_seg @ gh_seg^T, [C * k, n_out], gh_seg
    being the gradient at its conv output, its im2col built in blocks of at
    most _GRAD_COLS columns, each one GEMM added onto the item's partial,
    which is transposed once when folded; so an item's im2col scratch does
    not grow with the trial, and a segment wider than one block may differ
    from one whole-segment GEMM in the last bits.

    A segment whose crops all start at one onset holds its conv output
    time-major, h^T = cols^T @ W_eff^T: each item squares all such
    segments in one call and pools them by one batched matmul with the 0/1
    [pooled, T'] window matrix M, and backward each one's gh^T is 2 h^T *
    (M^T @ gp^T) / pool_width, gp summed over its crops. A segment of
    several onsets computes W_eff @ cols and sums every window that starts
    on a multiple of g = gcd(pool width, pool stride, its crops' offsets)
    once (`_window_sums`), each crop's row a strided slice of those sums;
    backward, its crops' gp are added onto that grid in (trial, onset)
    order and spread back once (`_window_spread`), times 2 h / pool_width.
    Both stay within 1e-12 relative of the five-op chain. A segment's own
    onsets fix its layout, whatever else its item holds, so a crop alone in
    its segment gets exactly the matmuls of a trial of its own; a crop
    inside a longer segment may differ from it in the last bits, as BLAS
    computes a matrix's edge columns with other kernels.

    Work items are whole segments of one branch in (trial, onset) order,
    cut once they hold _CHUNK crops, as if the branch ran alone; they run
    on the worker pool too when BLAS is pinned to one thread. The
    effective-kernel gradient is summed within each item, then over the
    items in order, each partial added once the items before it are in.
    The crops alone fix the items, so every result is the same to the bit
    at any worker count and equals each branch's own one-branch node.
    Shapes and input checks are the chain's: kernels [n_filters, k],
    weights [n_out, n_filters, channels]; a branch's output is [crops,
    n_out, floor((width - k + 1 - pool_width) / pool_stride) + 1]. The
    node's rows are the branches' outputs, branch-major, and its parents
    every branch's kernels and weights. A branch whose rows get an all-zero
    gradient runs no backward items and gets no gradient. Returns each
    branch's output: the node itself for one branch, else a view of the
    branch's rows.
    """
    if not branches:
        raise ValueError("conv_log_power_branches needs at least one branch")
    inputs = [_log_power_input(*branch, pool_width, pool_stride) for branch in branches]
    *_, width, kernels, weights = inputs[0]
    if any((wd, kn.shape, wt.shape) != (width, kernels.shape, weights.shape)
           for *_, wd, kn, wt in inputs):
        raise ValueError("branches must share kernel and weight shapes and the crop width")
    (f, k), (o, _, c) = kernels.shape, weights.shape
    t_out = width - k + 1
    n_pool = (t_out - pool_width) // pool_stride + 1

    # per crop, in (branch, trial, onset) order: its output row and its
    # column in its segment; per segment: (branch, its trial's [C, k, T']
    # windows, start, conv output columns, first crop, end crop); per work
    # item: its segments lo:hi, all of one branch, cut once they hold
    # _CHUNK crops
    rows: list[int] = []
    offset: list[int] = []
    segs: list[tuple[int, np.ndarray, int, int, int, int]] = []
    bounds: list[tuple[int, int]] = []
    w_eff, w_eff_t, row_at = [], [], [0]
    for br, (sets, trial, onset, _, kern, wts) in enumerate(inputs):
        # segments: runs of the branch's crops, sorted by (trial, onset),
        # that overlap or touch
        order = np.lexsort((onset, trial))
        s_trial, s_onset = trial[order], onset[order]
        breaks = (s_trial[1:] != s_trial[:-1]) | (s_onset[1:] > s_onset[:-1] + width)
        first = [0, *(np.flatnonzero(breaks) + 1).tolist(), len(order)] if len(order) else [0]
        # each crop's trial array, and its trial's row there
        sizes = [len(s) for s in sets]
        ends = np.cumsum(sizes)
        s_set = np.searchsorted(ends, s_trial, side="right")
        s_row = (s_trial - (ends - sizes)[s_set]).tolist()
        windows = [sliding_window_view(s, k, axis=-1).transpose(0, 1, 3, 2)  # [N, C, k, T']
                   for s in sets]
        s_set, s_onset, base = s_set.tolist(), s_onset.tolist(), row_at[-1]
        lo = seg0 = len(segs)
        for i, j in zip(first, first[1:]):
            start = s_onset[i]
            segs.append((br, windows[s_set[i]][s_row[i]], start,
                         s_onset[j - 1] - start + t_out, base + i, base + j))
            offset += [on - start for on in s_onset[i:j]]
            if segs[-1][5] - segs[lo][4] >= _CHUNK or j == len(order):
                bounds.append((lo, len(segs)))
                lo = len(segs)
        rows += (order + base).tolist()
        row_at.append(base + len(order))
        w_eff.append((wts.values.transpose(0, 2, 1) @ kern.values).reshape(o, c * k))
        # the [C * k, O] transpose, for the branch's segments of one onset
        w_eff_t.append(np.ascontiguousarray(w_eff[-1].T)
                       if any(seg[3] == t_out for seg in segs[seg0:]) else None)

    # each segment's conv output, as views of one buffer the calling thread
    # allocates: buffers that worker threads allocate and this thread frees
    # cost glibc about 1,000 page faults per bench-shape step. A segment of
    # one onset (n == T') holds it time-major, [T', O], and those come
    # first, in segment order, so each item's are one [m, T', O] run; a
    # segment of several onsets holds it [O, n]
    one_at = [0, *itertools.accumulate(int(seg[3] == t_out) for seg in segs)]
    h_flat = np.empty(o * sum(seg[3] for seg in segs))
    h_one = h_flat[:one_at[-1] * t_out * o].reshape(-1, t_out, o)
    h, at = [], h_one.size
    for s, (*_, n, _, _) in enumerate(segs):
        if n == t_out:
            h.append(h_one[one_at[s]])
        else:
            h.append(h_flat[at:at + o * n].reshape(o, n))
            at += o * n
    pooled = np.empty((row_at[-1], o, n_pool))
    # the 0/1 pool windows over a one-onset segment's T' conv columns, [T', P]
    windows_t = _window_matrix(n_pool, t_out, pool_width, pool_stride).T if one_at[-1] else None

    def grid_step(i: int, j: int) -> int:
        # the pool windows of crops i:j of a segment all start on multiples of
        # g, and g divides the pool width
        return math.gcd(pool_width, pool_stride, *offset[i:j])

    def on_grid(a: np.ndarray, i: int, step: int) -> np.ndarray:
        # crop i's n_pool windows on its segment's [O, windows] grid of
        # window starts step apart
        at, every = offset[i] // step, pool_stride // step
        return a[:, at:at + (n_pool - 1) * every + 1:every]

    def views(widths: set[int], lead: tuple[int, ...]) -> dict[int, np.ndarray]:
        # [*lead, n] views, one per width n, onto the front of one buffer of
        # the item's own
        size = math.prod(lead)
        buf = np.empty(size * max(widths, default=0))
        return {n: buf[:size * n].reshape(*lead, n) for n in widths}

    def forward_item(lo: int, hi: int) -> None:
        # each item has its own buffers and writes only its segments of h
        # and its crops' rows of pooled
        br = segs[lo][0]
        widths = {seg[3] for seg in segs[lo:hi]}
        cols_of = views(widths, (c, k))
        # each several-onset width's square buffer
        square_of = views(widths - {t_out}, (o,))
        for s, (_, wins, start, n, i, j) in enumerate(segs[lo:hi], lo):
            cols = cols_of[n].reshape(c * k, n)
            np.copyto(cols_of[n], wins[:, :, start:start + n])
            if n == t_out:  # one onset: h^T = cols^T @ W_eff^T, pooled below
                np.matmul(cols.T, w_eff_t[br], out=h[s])
                continue
            np.matmul(w_eff[br], cols, out=h[s])
            # crops of several onsets: every window on the segment's grid
            # summed once, each crop's row a strided slice of those sums
            sq = np.multiply(h[s], h[s], out=square_of[n])
            step = grid_step(i, j)
            sums = _window_sums(sq, pool_width, step)
            for i in range(i, j):
                np.copyto(pooled[rows[i]], on_grid(sums, i, step))
        # the item's one-onset segments, squared in one call and pooled by
        # one batched matmul with the 0/1 window matrix, [m, O, P]; each
        # crop's row its segment's sums
        run = h_one[one_at[lo]:one_at[hi]]
        if len(run):
            sums = np.matmul(np.square(run).transpose(0, 2, 1), windows_t)
            for s, (*_, n, i, j) in enumerate(segs[lo:hi], lo):
                if n == t_out:
                    for i in range(i, j):
                        np.copyto(pooled[rows[i]], sums[one_at[s] - one_at[lo]])

    _run_items(forward_item, bounds)
    pooled /= pool_width  # the window sums, then divide, as mean_pool does
    out = np.log(np.maximum(pooled, LOG_FLOOR))

    def backward(gout):
        # only built when some kernels or weights track a gradient (make_node)
        g = gout.reshape(pooled.shape)
        live = [(kern.requires_grad or wts.requires_grad) and g[a:z].any()
                for (*_, kern, wts), a, z in zip(inputs, row_at, row_at[1:])]
        items = [(lo, hi) for lo, hi in bounds if live[segs[lo][0]]]
        # 2 / pool_width on each window, [T', P]: a one-onset segment's
        # gradient at its conv output is 2 h^T (M^T @ gp^T) / pool_width
        spread_t = (_window_matrix(n_pool, t_out, pool_width, pool_stride).T
                    * (2.0 / pool_width) if any(one_at[hi] > one_at[lo] for lo, hi in items)
                    else None)

        def backward_item(lo: int, hi: int) -> np.ndarray:
            # the item's effective-kernel gradient partial, [C * k, O]
            first = segs[lo][4]
            # the log's gradient for the item's crops only: no full-batch
            # array is held while the im2col buffers are
            item = rows[first:segs[hi - 1][5]]
            gi, p = g[item], pooled[item]
            nonzero = p > LOG_FLOOR
            gp = np.where(nonzero, gi / np.where(nonzero, p, 1.0), 0.0)
            # one im2col buffer of at most _GRAD_COLS columns, whatever the
            # segments' widths
            widths = {seg[3] for seg in segs[lo:hi]}
            cols_buf = np.empty(c * k * min(_GRAD_COLS, max(widths)))
            # the scratch for the gradient at a segment's conv output: [O, n],
            # read as [T', O] for a segment of one onset
            gh_of = views(widths, (o,))
            part = np.zeros((c * k, o))
            for s, (_, wins, start, n, i, j) in enumerate(segs[lo:hi], lo):
                if n == t_out:
                    # one onset: 2 h^T (M^T @ gp^T) / pool_width, its crops'
                    # gp summed
                    gh_t = np.matmul(spread_t, gp[i - first:j - first].sum(axis=0).T,
                                     out=gh_of[n].reshape(n, o))
                    gh_t *= h[s]
                else:
                    # its crops' gp added onto the segment's window grid in
                    # (trial, onset) order, then spread over the windows
                    # once, times 2 h / pool_width
                    step = grid_step(i, j)
                    grid = np.zeros((o, (n - pool_width) // step + 1))
                    for i in range(i, j):
                        crop = on_grid(grid, i, step)
                        crop += gp[i - first]
                    grid *= 2.0 / pool_width
                    gh_t = _window_spread(grid, pool_width, step, gh_of[n], h[s]).T
                # the segment's partial cols @ gh^T, _GRAD_COLS conv columns
                # at a time: a segment that fits one block is one
                # whole-segment GEMM
                for a in range(0, n, _GRAD_COLS):
                    z = min(a + _GRAD_COLS, n)
                    cols = cols_buf[:c * k * (z - a)].reshape(c, k, z - a)
                    np.copyto(cols, wins[:, :, start + a:start + z])
                    part += cols.reshape(c * k, z - a) @ gh_t[a:z]
            return part

        # each branch's effective-kernel gradient: zeros, then its items'
        # partials added in item order as they finish, each transposed
        g_eff: list[np.ndarray | None] = [None] * len(inputs)

        def fold(n: int, part: np.ndarray) -> None:
            br = segs[items[n][0]][0]
            if g_eff[br] is None:
                g_eff[br] = np.zeros((o, c * k))
            g_eff[br] += part.T

        _run_items(backward_item, items, fold)
        # then chained to each branch's kernels and weights
        grads: list[np.ndarray | None] = [None] * (2 * len(inputs))
        for br, ge in enumerate(g_eff):
            if ge is None:
                continue
            *_, kern, wts = inputs[br]
            ge = ge.reshape(o, c, k)
            if kern.requires_grad:
                grads[2 * br] = (wts.values.transpose(1, 0, 2).reshape(f, o * c)
                                 @ ge.reshape(o * c, k))
            if wts.requires_grad:
                grads[2 * br + 1] = (ge @ kern.values.T).transpose(0, 2, 1)
        return grads

    node = make_node(out, [t for *_, kern, wts in inputs for t in (kern, wts)], backward)
    if len(inputs) == 1:
        return [node]
    return [_rows(node, slice(a, z)) for a, z in zip(row_at, row_at[1:])]


def mean_pool(x, width: int, stride: int) -> Tensor:
    """Mean over sliding windows along the last axis.

    x: [batch, features, time]. Output: [batch, features, time'] with time' =
    floor((time - width) / stride) + 1. The windows start on multiples of g = gcd(width, stride).
    The sums of every window on that grid come from blocks of g samples
    (`_window_sums`), and the output takes every (stride / g)-th and
    divides by width. Within 1e-12 relative of each window's own mean. The
    gradient is gout @ P, P being the [time', time] pooling matrix.
    """
    x = as_tensor(x)
    _check_batch(x.ndim, "batch", "features", "time")
    _check_pool(width, stride, x.shape[-1])

    g = math.gcd(width, stride)
    out = _window_sums(x.values, width, g)[..., ::stride // g] / width
    n_out = out.shape[-1]

    def backward(gout):
        pool = _window_matrix(n_out, x.shape[-1], width, stride) / width
        gx = (gout.reshape(-1, n_out) @ pool).reshape(x.shape)
        return (gx,)

    return make_node(out, (x,), backward)


def dense(x, weights, bias) -> Tensor:
    """Affine map of each row: weights @ x[i] + bias.

    x: [batch, n]; weights: [m, n]; bias: [m]. Output: [batch, m].
    """
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    if weights.ndim != 2 or bias.ndim != 1:
        raise ValueError("weights must be [m, n] and bias [m]")
    _check_batch(x.ndim, "batch", "features")
    m, n = weights.values.shape
    if x.shape[-1] != n or bias.values.shape[0] != m:
        raise ValueError(
            f"extent mismatch: input {x.shape[-1]}, weights {weights.values.shape}, "
            f"bias {bias.values.shape}")

    out = x.values @ weights.values.T + bias.values

    def backward(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = g @ weights.values
        if weights.requires_grad:
            gw = g.T @ x.values
        if bias.requires_grad:
            gb = g.sum(axis=0)
        return gx, gw, gb

    return make_node(out, (x, weights, bias), backward)


def square(x) -> Tensor:
    x = as_tensor(x)
    v = x.values

    def backward(gout):
        return (2.0 * v * gout,)

    return make_node(v * v, (x,), backward)


def log_clipped(x) -> Tensor:
    """log(max(x, LOG_FLOOR)); the clipped region has zero gradient."""
    x = as_tensor(x)
    v = x.values
    out = np.log(np.maximum(v, LOG_FLOOR))

    def backward(gout):
        live = v > LOG_FLOOR
        return (np.where(live, gout / np.where(live, v, 1.0), 0.0),)

    return make_node(out, (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.values)

    def backward(gout):
        return (gout * (1.0 - out * out),)

    return make_node(out, (x,), backward)


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout, drawing its mask from `rng`. Identity when rate == 0."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
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
    """Elementwise sum of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
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
    """Stabilized softmax + cross-entropy, the mean over a batch.

    logits: [batch, classes]; labels: [batch] integers. Returns (loss,
    probabilities [batch, classes]).
    """
    logits = as_tensor(logits)
    _check_batch(logits.ndim, "batch", "classes")
    z = logits.values
    labels_arr = np.asarray(labels, dtype=np.intp)
    if labels_arr.shape != (z.shape[0],):
        raise ValueError("labels must align with the batch axis")
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

    def backward(gout):
        d = probs.copy()
        d[rows, labels_arr] -= 1.0
        d /= z.shape[0]
        return (d * float(gout),)

    loss = make_node(np.asarray(nll.mean()), (logits,), backward)
    return loss, probs.copy()


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
