"""Optimization loop, early stopping, metrics, and the negative-transfer
comparison report.

Training is bit-deterministic given (seed, config, data): parameter
initialization, source upsampling, per-epoch batch order, and dropout masks
all derive from disjoint streams of the one configured seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .datasets import Split, TrialSet, _check_finite_trials, balanced_duplicates, batch_iter, \
    format_fields
from .mmd import multi_source_mmd, transfer_loss
from .models import (
    BaselineConfig,
    ModelParams,
    ScsnConfig,
    _check_counts,
    _check_width,
    build_baseline,
    build_scsn,
    check_dense_widths,
    forward_infer,
    forward_train,
    require_ints,
)
from .preprocessing import crop_geometry

MODEL_KINDS = ("baseline", "scsn", "scsn_mmd")
REGIMES = ("single", "multi")

# spawn keys for the trainer's seed streams; model builders use (0,) and (1, i)
_DROPOUT_KEY = 10
_EPOCH_KEY = 11
_UPSAMPLE_KEY = 12

# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, schedule, batching, cropping, and architecture knobs."""

    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    lam: float = 1.0
    batch_per_branch: int = 30
    win_s: float = 2.0
    overlap_s: float = 1.9
    seed: int = 0
    temporal_filters: int = 40
    temporal_kernel: int = 25
    pool_width: int = 75
    pool_stride: int = 15
    dropout: float = 0.5
    common_fc_dims: tuple[int, ...] = (128, 128, 128)
    separate_fc_dims: tuple[int, ...] = (64, 64, 64)

    def __post_init__(self):
        require_ints(self, "max_epochs", "patience", "batch_per_branch", "seed",
                     "temporal_filters", "temporal_kernel", "pool_width", "pool_stride",
                     "common_fc_dims", "separate_fc_dims")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError("patience must lie in [1, max_epochs]")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")
        if self.batch_per_branch < 1:
            raise ValueError("batch_per_branch must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        check_dense_widths(self.common_fc_dims, self.separate_fc_dims)


@dataclass
class TrainReport:
    """Per-epoch curves plus final test metrics for one training run."""

    model_kind: str
    regime: str
    target_subject: str
    train_loss: list[float] = field(default_factory=list)
    train_mmd_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0
    test_crop_accuracy: float = 0.0
    test_trial_accuracy: float = 0.0
    wall_time_s: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def to_csv_text(self) -> str:
        lines = ["epoch,train_loss,mmd_loss,val_acc"]
        for i, (loss, mmd_loss, acc) in enumerate(
                zip(self.train_loss, self.train_mmd_loss, self.val_accuracy), start=1):
            lines.append(f"{i},{loss!r},{mmd_loss!r},{acc!r}")
        return "\n".join(lines) + "\n"

    def to_summary_text(self) -> str:
        # wall time deliberately excluded so reruns are byte-identical
        return format_fields([
            ("model_kind", self.model_kind),
            ("regime", self.regime),
            ("target_subject", self.target_subject),
            ("epochs_run", self.epochs_run),
            ("best_epoch", self.best_epoch),
            ("best_val_accuracy", repr(max(self.val_accuracy))),
            ("test_crop_accuracy", repr(self.test_crop_accuracy)),
            ("test_trial_accuracy", repr(self.test_trial_accuracy)),
        ])


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: ModelParams):
        self.m = {n: np.zeros_like(t.values) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.values) for n, t in params.items()}
        self.t = 0


def adam_step(params: ModelParams, grads: dict[str, np.ndarray | None],
              state: AdamState, cfg: TrainConfig) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; absent grads count as zero.

    Every gradient's shape is checked before anything changes, so a refused
    step leaves the parameters and the state as they were. The moments and
    the parameter values are then updated in place."""
    for name, tensor in params.items():
        g = grads.get(name)
        if g is not None and g.shape != tensor.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = 0.0
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        # values -= lr * m_hat / (sqrt(v_hat) + eps), one operation at a time
        step = m / (1 - b1 ** state.t)
        step *= cfg.lr
        step /= np.sqrt(v / (1 - b2 ** state.t)) + ADAM_EPS
        tensor.values -= step
    return params, state


# ---------------------------------------------------------------------------
# seed streams (deterministic derivation shared with the tests)


def dropout_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_DROPOUT_KEY,)))


def epoch_batch_seed(seed: int, epoch: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(_EPOCH_KEY, epoch))


def upsample_seed(seed: int, branch: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(_UPSAMPLE_KEY, branch))


# ---------------------------------------------------------------------------
# data staging


@dataclass(frozen=True)
class CropPool:
    """A training pool of crops held as indices into whole trials.

    `trials` holds each training set's [trials, channels, samples] array as
    the set gave it, in its own dtype; trials are numbered across the arrays
    in order. Crop r is samples onset[r]:onset[r] + width of the trial
    numbered `trial[r]`, with label `label[r]`. Rows run in
    `crop_trialset` order (trial-major, then by onset) followed by any
    upsampled duplicates; duplicates share the trial arrays. No trial or
    crop is copied: training steps hand `trials` itself, with the picked
    rows' trials and onsets, to the shallow block, which reads the crops in
    place.
    """

    trials: tuple[np.ndarray, ...]  # one [trials, channels, samples] array per set
    trial: np.ndarray
    onset: np.ndarray
    label: np.ndarray
    width: int
    class_names: list[str]

    def __len__(self) -> int:
        return len(self.trial)

    def upsampled(self, target_size: int, seed) -> "CropPool":
        """The pool plus its `balanced_duplicates` rows, as `balanced_upsample`
        extends a cropped TrialSet."""
        extra = balanced_duplicates(self.label, self.class_names, target_size, seed)
        rows = np.concatenate([np.arange(len(self)), extra])
        return replace(self, trial=self.trial[rows], onset=self.onset[rows],
                       label=self.label[rows])


def crop_pool(sets: list[TrialSet], win_s: float, overlap_s: float) -> CropPool:
    """Every crop of every trial of `sets`, set by set in `crop_trialset`
    order, over the sets' own trial arrays."""
    if not all(sets):
        raise ValueError("every training set needs at least one trial")
    geos = []
    for ts in sets:
        try:
            geos.append(crop_geometry(ts.n_samples, ts.fs, win_s, overlap_s))
        except ValueError as err:
            raise ValueError(f"subject {ts.subject_id!r}: {err}") from None
    if len({geo.width for geo in geos}) > 1:
        raise ValueError("training sets give crops of different widths")
    counts = np.repeat([geo.count for geo in geos], [len(ts) for ts in sets])
    trial = np.repeat(np.arange(len(counts)), counts)
    onset = np.concatenate([np.tile(np.arange(geo.count) * geo.stride, len(ts))
                            for ts, geo in zip(sets, geos)])
    label = np.concatenate([ts.label for ts in sets])[trial]
    return CropPool(tuple(ts.data for ts in sets), trial, onset, label, geos[0].width,
                    list(sets[0].class_names))


def scsn_pools(split: Split, cfg: TrainConfig) -> tuple[list[str], dict[str, CropPool]]:
    """Crop every training set and upsample sources to the target's crop
    count with balanced labels. Branch order is the sorted subject list."""
    subjects = sorted(split.train)
    pools = {s: crop_pool([split.train[s]], cfg.win_s, cfg.overlap_s) for s in subjects}
    target_n = len(pools[split.target_subject])
    for j, s in enumerate(subjects):
        if s != split.target_subject and len(pools[s]) < target_n:
            pools[s] = pools[s].upsampled(target_n, upsample_seed(cfg.seed, j))
    return subjects, pools


def _check_finite_training(split: Split) -> None:
    """Refuse a training set with a non-finite sample, naming the subject,
    the session and the trial, before any step reads it."""
    for subject in sorted(split.train):
        data = split.train[subject].data
        first = len(data) - (split.calib_trials if subject == split.target_subject else 0)
        for k, part in ((1, data[:first]), (2, data[first:])):
            _check_finite_trials(part, f"subject {subject!r} session {k}", ValueError)


def _grads_of(params: ModelParams) -> dict[str, np.ndarray | None]:
    return {name: tensor.grad for name, tensor in params.items()}


def _check_finite(loss: float, params: ModelParams, epoch: int, step: int) -> None:
    if not math.isfinite(loss):
        raise FloatingPointError(f"epoch {epoch}, step {step}: non-finite loss {loss!r}")
    for name, tensor in params.items():
        if tensor.grad is not None and not np.isfinite(tensor.grad).all():
            raise FloatingPointError(
                f"epoch {epoch}, step {step}: non-finite gradient for {name!r}")


# ---------------------------------------------------------------------------
# training


def _descend(loss: ad.Tensor, model, state: AdamState, cfg: TrainConfig,
             where: tuple[int, int]) -> float:
    """Backpropagate `loss`, take one Adam step and clear the gradients;
    returns the loss value. `where` is the (epoch, step) an error names."""
    loss.backward()
    value = loss.item()
    _check_finite(value, model.params, *where)
    adam_step(model.params, _grads_of(model.params), state, cfg)
    model.params.zero_grad()
    return value


# A step reads its crops straight from its pools' trials and returns only
# the floats the report logs, so its outputs and graph are freed before the
# next step starts.


def _step(model, state, cfg, where, drop_rng, picks: list[tuple[CropPool, np.ndarray]],
          with_mmd: bool) -> tuple[float, float]:
    """One step on the crops `picks` gives each branch, a baseline's one
    branch being its pooled crops: (loss, summed MMD). The cross-entropy is
    the mean over branches; without `with_mmd` it is the whole loss."""
    batch = {i: (pool.trials, pool.label[rows], (pool.trial[rows], pool.onset[rows]))
             for i, (pool, rows) in enumerate(picks)}
    out = forward_train(model, batch, dropout_rng=drop_rng)
    n = len(batch)
    ce = ad.scale(ad.add_n([ad.softmax_xent(out[i][0], batch[i][1])[0] for i in range(n)]),
                  1.0 / n)
    if not with_mmd:
        return _descend(ce, model, state, cfg, where), 0.0
    # a non-finite batch fails here, naming the step, before the MMD sees it
    _check_finite(ce.item(), model.params, *where)
    disc, per_source = multi_source_mmd([out[i][1] for i in range(n)],
                                        [batch[i][1] for i in range(n)], model.cfg.target_index)
    mmd = float(sum(sum(terms) for terms in per_source.values()))
    return _descend(transfer_loss(ce, [disc], cfg.lam), model, state, cfg, where), mmd


def base_config(cfg: TrainConfig, trials: TrialSet) -> BaselineConfig:
    """The shallow-block geometry `train` builds for crops of `trials`.
    Raises ValueError when the crops do not fit the trials or the pool does
    not fit the temporal-conv output."""
    return BaselineConfig(
        n_channels=len(trials.channel_names),
        n_samples=crop_geometry(trials.n_samples, trials.fs, cfg.win_s, cfg.overlap_s).width,
        n_classes=len(trials.class_names),
        temporal_filters=cfg.temporal_filters,
        temporal_kernel=cfg.temporal_kernel,
        pool_width=cfg.pool_width,
        pool_stride=cfg.pool_stride,
        dropout=cfg.dropout,
    )


def train(model_kind: str, split: Split, cfg: TrainConfig,
          regime: str = "multi"):
    """Train one decoder on a split and return (model, TrainReport).

    Baseline training pools trials into batches of batch_per_branch times the
    number of pooled subjects (one subject in the single regime); SCSN
    variants draw batch_per_branch crops per branch per step, sources
    upsampled to the target's pool size. Early stopping tracks the best
    validation crop accuracy and restores the best-epoch parameters.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}: one of {', '.join(MODEL_KINDS)}")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if model_kind != "baseline" and regime == "single":
        raise ValueError("multi-branch models need the multi-subject regime")
    if len(split.val) == 0:
        raise ValueError("early stopping needs a non-empty validation set")

    start = time.perf_counter()
    _check_finite_training(split)
    base = base_config(cfg, split.train[split.target_subject])
    drop_rng = dropout_stream(cfg.seed)
    report = TrainReport(model_kind, regime, split.target_subject)

    if model_kind == "baseline":
        subjects = [split.target_subject] if regime == "single" else sorted(split.train)
        # every pooled subject's crops in one pool, batched as one branch
        pools = {"pooled": crop_pool([split.train[s] for s in subjects], cfg.win_s,
                                     cfg.overlap_s)}
        batch_size = cfg.batch_per_branch * len(subjects)
        model = build_baseline(base, cfg.seed)
        branch = None
    else:
        subjects, pools = scsn_pools(split, cfg)
        batch_size = cfg.batch_per_branch
        branch = subjects.index(split.target_subject)
        model = build_scsn(
            ScsnConfig(base=base, n_subjects=len(subjects), target_index=branch,
                       common_fc_dims=tuple(cfg.common_fc_dims),
                       separate_fc_dims=tuple(cfg.separate_fc_dims)),
            cfg.seed)
    with_mmd = model_kind == "scsn_mmd" and cfg.lam > 0
    state = AdamState(model.params)

    # every epoch's accuracy is at least 0, so epoch 1 takes the first snapshot
    best_acc, best_epoch, best_snapshot = -1.0, 0, None
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        steps: list[tuple[float, float]] = []
        batches = batch_iter(pools, batch_size, epoch_batch_seed(cfg.seed, epoch))
        for step, rows in enumerate(batches, start=1):
            steps.append(_step(model, state, cfg, (epoch, step), drop_rng,
                               [(pools[s], rows[s]) for s in sorted(pools)], with_mmd))
        step_losses, step_mmds = zip(*steps)
        report.train_loss.append(float(np.mean(step_losses)))
        report.train_mmd_loss.append(float(np.mean(step_mmds)))
        val_acc = evaluate(model, branch, split.val, cfg.win_s, cfg.overlap_s)[0]
        report.val_accuracy.append(val_acc)
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_snapshot = model.params.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.params.restore(best_snapshot)
    report.best_epoch = best_epoch
    crop_acc, trial_acc = evaluate(model, branch, split.test, cfg.win_s, cfg.overlap_s)
    report.test_crop_accuracy = crop_acc
    report.test_trial_accuracy = trial_acc
    report.wall_time_s = time.perf_counter() - start
    return model, report


def evaluate(model, branch, test: TrialSet, win_s: float, overlap_s: float
             ) -> tuple[float, float]:
    """Crop-level accuracy plus trial-level accuracy under majority voting
    over each trial's crops (ties resolve to the lowest class index), for
    validation and test alike. The crops of `win_s` and `overlap_s` must be
    the model's input width; one `forward_infer` reads them all out."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    geo = crop_geometry(test.n_samples, test.fs, win_s, overlap_s)
    _check_width(model, geo.width)
    _check_counts(model, test)
    probs = forward_infer(model, test.data, branch, crop_stride=geo.stride)
    preds = probs.argmax(axis=1).reshape(len(test), geo.count)
    crop_acc = float(np.mean(preds == test.label[:, None]))
    winners = np.array([np.bincount(v, minlength=len(test.class_names)).argmax() for v in preds])
    trial_acc = float(np.mean(winners == test.label))
    return crop_acc, trial_acc


# ---------------------------------------------------------------------------
# negative-transfer comparison


@dataclass(frozen=True)
class ComparisonRow:
    model_name: str
    training_regime: str
    subject_id: str
    accuracy: float

    def __post_init__(self):
        if self.training_regime not in REGIMES:
            raise ValueError(f"unknown regime {self.training_regime!r}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")


@dataclass
class ComparisonTable:
    """Per-subject and mean accuracies per (model, regime) with deltas."""

    models: list[str]
    subjects: list[str]
    cells: dict[tuple[str, str, str], float]

    def value(self, model: str, regime: str, subject: str) -> float | None:
        return self.cells.get((model, regime, subject))

    def delta(self, model: str, subject: str) -> float | None:
        single = self.value(model, "single", subject)
        multi = self.value(model, "multi", subject)
        if single is None or multi is None:
            return None
        return multi - single

    def mean(self, model: str, regime: str) -> float | None:
        vals = [self.cells[(model, regime, s)] for s in self.subjects
                if (model, regime, s) in self.cells]
        return float(np.mean(vals)) if vals else None

    def mean_delta(self, model: str) -> float | None:
        single, multi = self.mean(model, "single"), self.mean(model, "multi")
        if single is None or multi is None:
            return None
        return multi - single

    def _rows(self):
        for model in self.models:
            for subject in self.subjects:
                yield (model, subject, self.value(model, "single", subject),
                       self.value(model, "multi", subject), self.delta(model, subject))
            yield (model, "mean", self.mean(model, "single"), self.mean(model, "multi"),
                   self.mean_delta(model))

    def to_csv_text(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"

        lines = ["model,subject,single,multi,delta"]
        for model, subject, single, multi, delta in self._rows():
            lines.append(f"{model},{subject},{fmt(single)},{fmt(multi)},{fmt(delta)}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        def fmt(v):
            return "  -   " if v is None else f"{v:6.3f}"

        width = max([len("model")] + [len(m) for m in self.models])
        swidth = max([len("subject")] + [len(s) for s in self.subjects + ["mean"]])
        lines = [f"{'model':<{width}}  {'subject':<{swidth}}  single  multi   delta"]
        for model, subject, single, multi, delta in self._rows():
            lines.append(f"{model:<{width}}  {subject:<{swidth}}  "
                         f"{fmt(single)}  {fmt(multi)}  {fmt(delta)}")
        return "\n".join(lines) + "\n"


def negative_transfer_report(rows: list[ComparisonRow]) -> ComparisonTable:
    """Aggregate per-run accuracies into the single-vs-multi comparison."""
    models: list[str] = []
    subjects: list[str] = []
    cells: dict[tuple[str, str, str], float] = {}
    for row in rows:
        key = (row.model_name, row.training_regime, row.subject_id)
        if key in cells:
            raise ValueError(f"duplicate comparison row for {key}")
        cells[key] = row.accuracy
        if row.model_name not in models:
            models.append(row.model_name)
        if row.subject_id not in subjects:
            subjects.append(row.subject_id)
    return ComparisonTable(models, subjects, cells)
