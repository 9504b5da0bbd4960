"""Model builders and forward semantics.

Three decoders share one layer vocabulary: the baseline CNN (temporal conv,
spatial conv, square, mean pool, log, dropout, linear classifier), and the
separate-common-separate network (SCSN) where each subject owns the shallow
extractor, the three deep feature layers, and the classifier, while a
three-layer dense block in between is shared by everyone. The three deep
per-subject layers expose their activations for discrepancy regularization.
`forward_train` is the training forward of both models, the baseline being
the one-branch case, and `forward_infer` is their one inference function.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .datasets import format_fields, read_header, write_parts
from .preprocessing import CropGeometry

CHECKPOINT_VERSION = 1
# crops whose shallow features one inference head call takes
_INFER_CHUNK = 256
# float64 values of temporal-conv output that one shallow-block pass may hold
_INFER_VALUES = 1 << 19


def _as_int(name: str, value) -> int:
    """`value` as an int. numpy integers pass through operator.index; a
    float, a bool or anything else without an integer value is refused with
    a TypeError that names it `name`."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def require_ints(cfg, *names: str) -> None:
    """Store each named field of the frozen dataclass `cfg` as an int, or a
    tuple of ints for a sequence field, refusing values `_as_int` refuses."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, (tuple, list)):
            value = tuple(_as_int(f"each of {name}", v) for v in value)
        else:
            value = _as_int(name, value)
        object.__setattr__(cfg, name, value)


@dataclass(frozen=True)
class BaselineConfig:
    n_channels: int
    n_samples: int
    n_classes: int
    temporal_filters: int = 40
    temporal_kernel: int = 25
    pool_width: int = 75
    pool_stride: int = 15
    dropout: float = 0.5

    def __post_init__(self):
        sizes = ("n_channels", "n_samples", "n_classes", "temporal_filters",
                 "temporal_kernel", "pool_width", "pool_stride")
        require_ints(self, *sizes)
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.temporal_kernel > self.n_samples:
            raise ValueError("temporal_kernel exceeds n_samples")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.pool_width > self.conv_time_out:
            raise ValueError(
                f"pool width {self.pool_width} exceeds the temporal-conv output "
                f"({self.conv_time_out} samples)")

    @property
    def conv_time_out(self) -> int:
        return self.n_samples - self.temporal_kernel + 1

    @property
    def pooled_out(self) -> int:
        return (self.conv_time_out - self.pool_width) // self.pool_stride + 1

    @property
    def feature_dim(self) -> int:
        return self.temporal_filters * self.pooled_out


@dataclass(frozen=True)
class ScsnConfig:
    base: BaselineConfig
    n_subjects: int
    target_index: int
    common_fc_dims: tuple[int, ...] = (128, 128, 128)
    separate_fc_dims: tuple[int, ...] = (64, 64, 64)

    def __post_init__(self):
        require_ints(self, "n_subjects", "target_index", "common_fc_dims", "separate_fc_dims")
        if self.n_subjects < 2:
            raise ValueError("SCSN needs at least 2 subjects")
        if not 0 <= self.target_index < self.n_subjects:
            raise ValueError("target_index out of range")
        if not self.common_fc_dims:
            raise ValueError("common_fc_dims needs at least one layer: the shared block")
        if len(self.separate_fc_dims) != 3:
            raise ValueError("separate_fc_dims must have exactly 3 entries")
        if any(d < 1 for d in self.common_fc_dims + self.separate_fc_dims):
            raise ValueError("dense widths must be positive")


class ModelParams:
    """Named parameter tensors, each owned by exactly one group."""

    def __init__(self):
        self._tensors: dict[str, ad.Tensor] = {}
        self._group_of: dict[str, str] = {}

    def add(self, name: str, tensor: ad.Tensor, group: str) -> ad.Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._tensors[name] = tensor
        self._group_of[name] = group
        return tensor

    def __getitem__(self, name: str) -> ad.Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def group_of(self, name: str) -> str:
        return self._group_of[name]

    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for name, group in self._group_of.items():
            out.setdefault(group, []).append(name)
        return out

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: t.values.copy() for n, t in self._tensors.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for n, values in snapshot.items():
            self._tensors[n].values = values.copy()


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> ad.Tensor:
    fan_out = shape[0]
    fan_in = int(np.prod(shape[1:]))
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return ad.Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def _zeros(shape: tuple[int, ...]) -> ad.Tensor:
    return ad.Tensor(np.zeros(shape), requires_grad=True)


def _branch_rng(seed: int, branch: int | None) -> np.random.Generator:
    key = (0,) if branch is None else (1, branch)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _init_shallow(params: ModelParams, cfg: BaselineConfig, rng, prefix: str, group: str):
    params.add(f"{prefix}temporal.kernels",
               _glorot(rng, (cfg.temporal_filters, cfg.temporal_kernel)), group)
    params.add(f"{prefix}spatial.weights",
               _glorot(rng, (cfg.temporal_filters, cfg.temporal_filters, cfg.n_channels)),
               group)


def _init_dense_chain(params: ModelParams, rng, prefix: str, group: str,
                      in_dim: int, dims: tuple[int, ...]) -> int:
    for j, width in enumerate(dims):
        params.add(f"{prefix}fc{j}.weight", _glorot(rng, (width, in_dim)), group)
        params.add(f"{prefix}fc{j}.bias", _zeros((width,)), group)
        in_dim = width
    return in_dim


def _shallow_forward(x: np.ndarray, params: ModelParams, cfg: BaselineConfig, prefix: str,
                     geo: CropGeometry) -> ad.Tensor:
    """Inference-mode pooled log-power features of whole trials [trials,
    channels, samples]: of every crop `geo` lays out in a trial, one flat
    row per crop, trial-major (dropout is the identity here). Conv and
    square act locally in time, so each trial's covered span runs through
    them once; pooling at the stride g = gcd(crop stride, pool_stride) then
    yields every pooling window of every crop, and the crop read-out is a
    gather. A trial of one crop pools at the pool stride. Training runs
    `forward_train` instead.

    The shallow block runs over consecutive chunks of whole trials, each as
    large as keeps its temporal-conv output within _INFER_VALUES float64
    values, and at least one trial. Every op of it acts on each sample
    alone, so the features are the same to the bit at any chunk size; only
    each chunk's pooled rows outlive its pass.
    """
    x = x[..., :geo.covered]
    step = math.gcd(geo.stride, cfg.pool_stride) if geo.count > 1 else cfg.pool_stride
    # crop j's m-th window starts at j * crop stride + m * pool_stride
    windows = (np.arange(geo.count)[:, None] * geo.stride
               + np.arange(cfg.pooled_out) * cfg.pool_stride) // step
    kernels, weights = params[f"{prefix}temporal.kernels"], params[f"{prefix}spatial.weights"]

    def log_power(chunk: np.ndarray) -> np.ndarray:
        # Inference runs the five-op chain, the convs as per-sample matmuls
        # (conv_time writes [F, C, T'] straight from one kernel-bank matmul,
        # conv_space is one [O, F*C] @ [F*C, T'] matmul), the float32 trials
        # cast to float64 (exactly) as conv_time takes them in. At the paper
        # geometry each matmul is cut into column blocks, which the calling
        # thread shares with the worker pool when BLAS is pinned
        # (autodiff._SPLIT, autodiff._run_items); the bench-shape ones stay
        # whole. The chain stays because the traced benchmark
        # (perfbench/tracer.py, perfbench/metrics.py) derives
        # autodiff.conv_time.useful_frac and autodiff.conv.gflops from work
        # counters that only conv_time and conv_space feed. ROADMAP item 5's
        # switch, once a benchmark change traces conv_log_power, is to call
        # conv_log_power here instead. The chunk's graph is freed on return.
        h = ad.conv_space(ad.conv_time(chunk, kernels, 1), weights)
        return ad.log_clipped(ad.mean_pool(ad.square(h), cfg.pool_width, step)).values

    per_trial = cfg.temporal_filters * x.shape[1] * (x.shape[2] - cfg.temporal_kernel + 1)
    per = max(1, _INFER_VALUES // per_trial)
    # an empty batch still runs one (empty) chunk, for the output's shape
    pooled = np.concatenate([log_power(x[lo:lo + per])
                             for lo in range(0, max(len(x), 1), per)])
    feats = pooled[:, :, windows].transpose(0, 2, 1, 3)  # [trials, crops, F, P]
    return ad.Tensor(feats.reshape(-1, cfg.feature_dim))


def _dense_chain_forward(h, params: ModelParams, prefix: str, n_layers: int,
                         collect: list | None = None) -> ad.Tensor:
    for j in range(n_layers):
        h = ad.tanh(ad.dense(h, params[f"{prefix}fc{j}.weight"], params[f"{prefix}fc{j}.bias"]))
        if collect is not None:
            collect.append(h)
    return h


def _softmax_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class BaselineModel:
    """Single-branch decoder: shallow extractor plus linear classifier."""

    kind = "baseline"

    def __init__(self, cfg: BaselineConfig, params: ModelParams):
        self.cfg = cfg
        self.params = params

    def _head(self, h: ad.Tensor, branch: int) -> tuple[ad.Tensor, list[ad.Tensor]]:
        """The classifier on shallow features: (logits, no deep layers)."""
        return ad.dense(h, self.params["classifier.weight"], self.params["classifier.bias"]), []


class ScsnModel:
    """Multi-branch decoder with per-subject shallow and deep blocks around a
    shared dense block."""

    kind = "scsn"

    def __init__(self, cfg: ScsnConfig, params: ModelParams):
        self.cfg = cfg
        self.params = params

    def _head(self, h: ad.Tensor, branch: int) -> tuple[ad.Tensor, list[ad.Tensor]]:
        """Shared block, the branch's deep layers and its classifier on the
        branch's shallow features: (logits, three deep-layer activations)."""
        h = _dense_chain_forward(h, self.params, "common.", len(self.cfg.common_fc_dims))
        feats: list[ad.Tensor] = []
        prefix = f"subject{branch}."
        h = _dense_chain_forward(h, self.params, f"{prefix}sep.",
                                 len(self.cfg.separate_fc_dims), collect=feats)
        logits = ad.dense(h, self.params[f"{prefix}classifier.weight"],
                          self.params[f"{prefix}classifier.bias"])
        return logits, feats


def build_baseline(cfg: BaselineConfig, seed: int) -> BaselineModel:
    """Initialize the baseline decoder; uniform Glorot-bound weights, zero
    biases, deterministic given the seed."""
    params = ModelParams()
    rng = _branch_rng(seed, None)
    _init_shallow(params, cfg, rng, "", "model")
    params.add("classifier.weight", _glorot(rng, (cfg.n_classes, cfg.feature_dim)), "model")
    params.add("classifier.bias", _zeros((cfg.n_classes,)), "model")
    return BaselineModel(cfg, params)


def build_scsn(cfg: ScsnConfig, seed: int) -> ScsnModel:
    """Initialize the SCSN; the shared block and each subject branch draw
    from separate streams derived from (seed, branch)."""
    params = ModelParams()
    shared_rng = _branch_rng(seed, None)
    common_out = _init_dense_chain(params, shared_rng, "common.", "shared",
                                   cfg.base.feature_dim, tuple(cfg.common_fc_dims))
    for i in range(cfg.n_subjects):
        rng = _branch_rng(seed, i)
        group = f"subject{i}"
        prefix = f"subject{i}."
        _init_shallow(params, cfg.base, rng, prefix, group)
        sep_out = _init_dense_chain(params, rng, f"{prefix}sep.", group,
                                    common_out, tuple(cfg.separate_fc_dims))
        params.add(f"{prefix}classifier.weight",
                   _glorot(rng, (cfg.base.n_classes, sep_out)), group)
        params.add(f"{prefix}classifier.bias", _zeros((cfg.base.n_classes,)), group)
    return ScsnModel(cfg, params)


def _branches(model) -> tuple[BaselineConfig, list[str]]:
    """The model's shallow-block config and each branch's parameter prefix;
    a baseline is the one branch 0."""
    if isinstance(model, ScsnModel):
        return model.cfg.base, [f"subject{i}." for i in range(model.cfg.n_subjects)]
    return model.cfg, [""]


def _check_width(model, width: int) -> None:
    """Refuse crops of `width` samples unless they are the model's input."""
    n_samples = _branches(model)[0].n_samples
    if width != n_samples:
        raise ValueError(f"crops are {width} samples wide, but the model's input is "
                         f"{n_samples} samples")


def _check_counts(model, trials) -> None:
    """Refuse trials whose class or channel count is not the model's."""
    base = _branches(model)[0]
    for field, have, want in (("class_names", len(trials.class_names), base.n_classes),
                              ("channel_names", len(trials.channel_names), base.n_channels)):
        if have != want:
            raise ValueError(f"the trials' {field} hold {have} names, but the model takes {want}")


def forward_train(model, batch: dict, dropout_rng=None
                  ) -> dict[int, tuple[ad.Tensor, list[ad.Tensor]]]:
    """Training-mode forward of every branch's sub-batch; returns {branch:
    (logits, deep-layer activations)}. An SCSN branch runs its own path plus
    the shared block; a baseline is the one branch 0, with no deep layers.

    A sub-batch is (crops, labels), or (trials, labels, (trial, onset)): then
    x holds whole trials, one [trials, channels, samples] array or a
    sequence of them such as a crop pool's trial arrays, trials numbered
    across them in order, and row r is samples onset[r]:onset[r] + n_samples
    of trial trial[r]. The input is data: it is read in place, in its own
    dtype, and gets no gradient. Every branch's shallow block runs in one
    `conv_log_power_branches` node, which convolves the samples that crops
    share once; each branch then takes its rows and runs dropout and its
    dense layers, in branch order, so dropout draws its masks branch by
    branch. Crops of a (crops, labels) sub-batch must be the model's input
    width. A model whose dropout is above 0 needs `dropout_rng`."""
    base, prefixes = _branches(model)
    missing = [i for i in range(len(prefixes)) if i not in batch]
    if missing:
        raise ValueError(f"batch is missing sub-batches for branches {missing}")
    for i in range(len(prefixes)):
        if len(batch[i]) == 2:
            _check_width(model, np.shape(batch[i][0])[-1])
    if base.dropout > 0 and dropout_rng is None:
        raise ValueError(f"dropout {base.dropout} needs a dropout_rng")
    hs = ad.conv_log_power_branches(
        [(batch[i][0], model.params[f"{prefix}temporal.kernels"],
          model.params[f"{prefix}spatial.weights"],
          (*batch[i][2], base.n_samples) if len(batch[i]) > 2 else None)
         for i, prefix in enumerate(prefixes)],
        base.pool_width, base.pool_stride)
    out = {}
    for i, h in enumerate(hs):
        h = ad.dropout(h, base.dropout, dropout_rng)
        out[i] = model._head(ad.reshape(h, h.shape[:-2] + (base.feature_dim,)), i)
    return out


def forward_infer(model, x, branch: int | None = None, *, crop_stride: int) -> np.ndarray:
    """Class probabilities per crop, dropout disabled: the inference of
    both models. SCSN models use only the requested branch, an integer; the
    baseline ignores the branch argument.

    x holds whole trials [trials, channels, samples], and the rows are the
    probabilities of each trial's crops (n_samples wide, one every
    `crop_stride` samples, a positive integer), trial-major, from one
    shallow pass per trial. Trials that hold a non-finite sample are
    refused, by index.

    The head runs over consecutive chunks of whole trials: at most
    _INFER_CHUNK crops, and at least one trial; `_shallow_forward` cuts each
    chunk further to bound its temporal-conv output. Each row is its crop's
    own softmax, but the head's matmuls may round differently at another
    batch size: over more than _INFER_CHUNK crops the probabilities are
    those of the per-chunk calls, and can differ in the last bits from one
    head call over every crop.
    """
    base, prefixes = _branches(model)
    if isinstance(model, ScsnModel):
        if branch is None:
            raise ValueError("SCSN inference needs a branch index")
        branch = _as_int("branch", branch)
        if not 0 <= branch < len(prefixes):
            raise ValueError(f"branch {branch} out of range")
    else:
        branch = 0
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError("whole-trial input must be [trials, channels, samples]")
    crop_stride = _as_int("crop_stride", crop_stride)
    if crop_stride < 1:
        raise ValueError(f"crop_stride must be a positive integer, got {crop_stride}")
    geo = CropGeometry.of(x.shape[-1], base.n_samples, crop_stride)
    per = max(1, _INFER_CHUNK // geo.count)

    def probs(lo: int) -> np.ndarray:
        # the chunk's features and graph are freed before the next chunk
        chunk = x[lo:lo + per]
        finite = np.isfinite(chunk).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"trial {lo + int(finite.argmin())} holds non-finite samples")
        h = _shallow_forward(chunk, model.params, base, prefixes[branch], geo)
        return _softmax_probs(model._head(h, branch)[0].values)

    # an empty batch still runs one (empty) chunk, for the output's shape
    return np.concatenate([probs(lo) for lo in range(0, max(len(x), 1), per)])


# ---------------------------------------------------------------------------
# checkpoints


# the header echoes every config field as name=value; tuples are comma-joined
_PARSE = {"int": int, "float": float,
          "tuple[int, ...]": lambda text: tuple(int(d) for d in text.split(","))}
_SCSN_FIELDS = [(f.name, _PARSE[f.type]) for f in dataclasses.fields(ScsnConfig)
                if f.name != "base"]
_BASE_FIELDS = [(f.name, _PARSE[f.type]) for f in dataclasses.fields(BaselineConfig)]


def _config_fields(model) -> list[tuple[str, object]]:
    if isinstance(model, ScsnModel):
        parts = [(model.cfg, _SCSN_FIELDS), (model.cfg.base, _BASE_FIELDS)]
    else:
        parts = [(model.cfg, _BASE_FIELDS)]
    fields = [("kind", model.kind)]
    for cfg, schema in parts:
        for name, _ in schema:
            value = getattr(cfg, name)
            if isinstance(value, (tuple, list)):
                value = ",".join(str(d) for d in value)
            fields.append((name, value))
    return fields


def _block_line(params: ModelParams, name: str) -> bytes:
    """The line that opens parameter `name`'s block in a checkpoint."""
    shape = ",".join(str(d) for d in params[name].shape)
    return f"param={name} shape={shape} group={params.group_of(name)}\n".encode("utf-8")


def save_checkpoint(model, path, meta: dict[str, str] | None = None) -> str:
    """Config echo as key=value lines, then per parameter, in the model's order,
    its `_block_line` and little-endian float64 values; round-trips bit-exactly.
    Returns the sha256 hex digest of the file's bytes."""
    meta = meta or {}
    for key in meta:
        if not key or "=" in key:
            raise ValueError(f"meta key {key!r} must be non-empty and free of '='")
    header = format_fields(
        [("checkpoint_version", CHECKPOINT_VERSION), *_config_fields(model),
         *((f"meta.{key}", value) for key, value in meta.items()),
         ("param_count", len(model.params.names()))])

    def parts():
        yield f"{header}\n".encode("utf-8")
        for name, tensor in model.params.items():
            yield _block_line(model.params, name)
            yield tensor.values.astype("<f8").tobytes()

    return write_parts(path, parts())


def load_checkpoint(path, *, blob: bytes | None = None):
    """Rebuild the model and the stored metadata from a checkpoint file whose
    blocks are, byte for byte, those `save_checkpoint` writes for that model.
    Given `blob`, the bytes of `path` read earlier, parse those instead of
    reading the file."""
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    fields, offset = read_header(blob, path)
    if fields.get("checkpoint_version") != str(CHECKPOINT_VERSION):
        raise ValueError(f"{path}: unsupported checkpoint_version "
                         f"{fields.get('checkpoint_version')!r}")
    meta = {k[len("meta."):]: v for k, v in fields.items() if k.startswith("meta.")}

    def read(schema):
        values = {}
        for name, parse in schema:
            try:
                values[name] = parse(fields[name])
            except KeyError:
                raise ValueError(f"{path}: field {name} is missing") from None
            except ValueError:
                raise ValueError(f"{path}: field {name}={fields[name]!r} does not parse") from None
        return values

    base, kind = read(_BASE_FIELDS), fields.get("kind")
    if kind not in ("baseline", "scsn"):
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    scsn = read(_SCSN_FIELDS) if kind == "scsn" else None
    try:  # a field the config refuses
        cfg = BaselineConfig(**base)
        model = (build_baseline(cfg, seed=0) if scsn is None
                 else build_scsn(ScsnConfig(base=cfg, **scsn), seed=0))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None

    for name, tensor in model.params.items():
        line = _block_line(model.params, name)
        if blob[offset:offset + len(line)] != line:
            raise ValueError(f"{path}: expected {line.decode('utf-8')[:-1]!r} at byte {offset}")
        start = offset + len(line)
        offset = start + 8 * tensor.size
        if offset > len(blob):
            raise ValueError(f"{path}: truncated data for parameter {name!r} at byte {start}")
        values = np.frombuffer(blob[start:offset], dtype="<f8").reshape(tensor.shape)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name!r} holds non-finite values")
        tensor.values = values.copy()
    if offset != len(blob):
        raise ValueError(f"{path}: bytes follow the last parameter block at byte {offset}")
    if fields.get("param_count") != str(len(model.params.names())):
        raise ValueError(f"{path}: param_count={fields.get('param_count')!r} does not match "
                         f"the model's {len(model.params.names())} parameters")
    return model, meta
