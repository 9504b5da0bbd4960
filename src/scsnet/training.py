"""Optimization loop, early stopping, metrics, and the negative-transfer
comparison report.

Training is bit-deterministic given (seed, config, data): parameter
initialization, source upsampling, per-epoch batch order, and dropout masks
all derive from disjoint streams of the one configured seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datasets import Split, TrialSet, balanced_upsample, batch_iter
from .mmd import MmdConfig, layered_class_mmd, transfer_loss
from .models import (
    BaselineConfig,
    ModelParams,
    ScsnConfig,
    build_baseline,
    build_scsn,
    forward_infer,
    forward_train,
)
from .preprocessing import crop_trials, crop_trialset

MODEL_KINDS = ("baseline", "scsn", "scsn_mmd")
REGIMES = ("single", "multi")
_INFER_CHUNK = 256

# spawn keys for the trainer's seed streams; model builders use (0,) and (1, i)
_DROPOUT_KEY = 10
_EPOCH_KEY = 11
_UPSAMPLE_KEY = 12


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, schedule, batching, cropping, and architecture knobs."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    class_matched: bool = True

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError("patience must lie in [1, max_epochs]")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.batch_per_branch < 1:
            raise ValueError("batch_per_branch must be positive")


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
        lines = [
            f"model_kind={self.model_kind}",
            f"regime={self.regime}",
            f"target_subject={self.target_subject}",
            f"epochs_run={self.epochs_run}",
            f"best_epoch={self.best_epoch}",
            f"best_val_accuracy={max(self.val_accuracy)!r}",
            f"test_crop_accuracy={self.test_crop_accuracy!r}",
            f"test_trial_accuracy={self.test_trial_accuracy!r}",
        ]
        return "\n".join(lines) + "\n"


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
    """One bias-corrected Adam update, in place; absent grads count as zero."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = 0.0
        elif g.shape != tensor.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        m = state.m[name] = b1 * state.m[name] + (1 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1 - b2) * (g * g)
        m_hat = m / (1 - b1 ** state.t)
        v_hat = v / (1 - b2 ** state.t)
        tensor.values = tensor.values - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
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


def _xy(ts: TrialSet) -> tuple[np.ndarray, np.ndarray]:
    return ts.data_array(np.float64), ts.labels()


def scsn_pools(split: Split, cfg: TrainConfig) -> tuple[list[str], dict[str, TrialSet]]:
    """Crop every training set and upsample sources to the target's crop
    count with balanced labels. Branch order is the sorted subject list."""
    subjects = sorted(split.train)
    crops = {s: crop_trialset(split.train[s], cfg.win_s, cfg.overlap_s) for s in subjects}
    target_n = len(crops[split.target_subject])
    pools = {}
    for j, s in enumerate(subjects):
        ts = crops[s]
        if s != split.target_subject and len(ts) < target_n:
            ts = balanced_upsample(ts, target_n, upsample_seed(cfg.seed, j))
        pools[s] = ts
    return subjects, pools


def _grads_of(params: ModelParams) -> dict[str, np.ndarray | None]:
    return {name: tensor.grad for name, tensor in params.items()}


def _predict_crops(model, branch, x: np.ndarray) -> np.ndarray:
    """Predicted class per crop, inferred in chunks of _INFER_CHUNK crops."""
    preds = np.empty(len(x), dtype=np.int64)
    for lo in range(0, len(x), _INFER_CHUNK):
        chunk = x[lo:lo + _INFER_CHUNK]
        preds[lo:lo + len(chunk)] = forward_infer(model, chunk, branch).argmax(axis=1)
    return preds


# ---------------------------------------------------------------------------
# training


def train(model_kind: str, split: Split, cfg: TrainConfig,
          regime: str = "multi"):
    """Train one decoder on a split and return (model, TrainReport).

    Baseline training pools trials into batches of batch_per_branch times the
    number of pooled subjects (one subject in the single regime); SCSN
    variants draw batch_per_branch crops per branch per step, sources
    upsampled to the target's pool size. Early stopping tracks the best
    validation crop accuracy and restores the best-epoch parameters.
    """
    kind = model_kind.replace("-", "_")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if kind != "baseline" and regime == "single":
        raise ValueError("multi-branch models need the multi-subject regime")
    if len(split.val) == 0:
        raise ValueError("early stopping needs a non-empty validation set")

    start = time.perf_counter()
    any_train = split.train[split.target_subject]
    n_classes = len(any_train.class_names)
    n_channels = len(any_train.channel_names)
    base = BaselineConfig(
        n_channels=n_channels,
        n_samples=next(iter(crop_trials(any_train.trials[0], cfg.win_s, cfg.overlap_s))).n_samples,
        n_classes=n_classes,
        temporal_filters=cfg.temporal_filters,
        temporal_kernel=cfg.temporal_kernel,
        pool_width=cfg.pool_width,
        pool_stride=cfg.pool_stride,
        dropout=cfg.dropout,
    )
    val_x, val_y = _xy(crop_trialset(split.val, cfg.win_s, cfg.overlap_s))
    drop_rng = dropout_stream(cfg.seed)
    mmd_cfg = MmdConfig(lam=cfg.lam, class_matched=cfg.class_matched)
    report = TrainReport(kind, regime, split.target_subject)

    if kind == "baseline":
        if regime == "single":
            pool = crop_trialset(split.train[split.target_subject], cfg.win_s, cfg.overlap_s)
            batch_size = cfg.batch_per_branch
        else:
            subjects = sorted(split.train)
            merged: list = []
            for s in subjects:
                merged.extend(crop_trialset(split.train[s], cfg.win_s, cfg.overlap_s).trials)
            pool = any_train.with_trials(merged)
            batch_size = cfg.batch_per_branch * len(subjects)
        x, y = _xy(pool)
        if len(x) < batch_size:
            raise ValueError(f"training pool ({len(x)}) is below the batch size ({batch_size})")
        model = build_baseline(base, cfg.seed)
        branch = None
    else:
        subjects, pools = scsn_pools(split, cfg)
        target_idx = subjects.index(split.target_subject)
        arrays = {s: _xy(pools[s]) for s in subjects}
        model = build_scsn(
            ScsnConfig(base=base, n_subjects=len(subjects), target_index=target_idx,
                       common_fc_dims=tuple(cfg.common_fc_dims),
                       separate_fc_dims=tuple(cfg.separate_fc_dims)),
            cfg.seed)
        branch = target_idx
    state = AdamState(model.params)
    use_mmd = kind == "scsn_mmd" and cfg.lam > 0

    best_acc, best_epoch, best_snapshot = -1.0, 0, model.params.snapshot()
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        step_losses: list[float] = []
        step_mmds: list[float] = []
        if kind == "baseline":
            order = np.random.default_rng(epoch_batch_seed(cfg.seed, epoch)).permutation(len(x))
            for b in range(len(x) // batch_size):
                idx = order[b * batch_size:(b + 1) * batch_size]
                logits = model.forward(x[idx], training=True, dropout_rng=drop_rng)
                loss, _ = ad.softmax_xent(logits, y[idx])
                loss.backward()
                adam_step(model.params, _grads_of(model.params), state, cfg)
                model.params.zero_grad()
                step_losses.append(loss.item())
                step_mmds.append(0.0)
        else:
            for picks in batch_iter(pools, cfg.batch_per_branch,
                                    epoch_batch_seed(cfg.seed, epoch)):
                batch = {i: (arrays[s][0][picks[s]], arrays[s][1][picks[s]])
                         for i, s in enumerate(subjects)}
                out = forward_train(model, batch, dropout_rng=drop_rng)
                ce = ad.scale(ad.add_n([ad.softmax_xent(out[i][0], batch[i][1])[0]
                                        for i in range(len(subjects))]),
                              1.0 / len(subjects))
                if use_mmd:
                    terms = [layered_class_mmd(out[branch][1], out[i][1],
                                               batch[branch][1], batch[i][1], mmd_cfg)
                             for i in range(len(subjects)) if i != branch]
                    loss = transfer_loss(ce, terms, cfg.lam)
                    step_mmds.append(float(sum(t.item() for t in terms)))
                else:
                    loss = ce
                    step_mmds.append(0.0)
                loss.backward()
                adam_step(model.params, _grads_of(model.params), state, cfg)
                model.params.zero_grad()
                step_losses.append(loss.item())
        if not step_losses:
            raise ValueError("no full batch fits the training pools")

        report.train_loss.append(float(np.mean(step_losses)))
        report.train_mmd_loss.append(float(np.mean(step_mmds)))
        val_acc = float(np.mean(_predict_crops(model, branch, val_x) == val_y))
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
    over each trial's crops (ties resolve to the lowest class index)."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    n_classes = len(test.class_names)
    crops_per_trial = None
    all_crops: list[np.ndarray] = []
    for trial in test.trials:
        crops = crop_trials(trial, win_s, overlap_s)
        if crops_per_trial is None:
            crops_per_trial = len(crops)
        all_crops.extend(c.data for c in crops)
    preds = _predict_crops(model, branch, np.stack(all_crops).astype(np.float64))

    labels = test.labels()
    crop_labels = np.repeat(labels, crops_per_trial)
    crop_acc = float(np.mean(preds == crop_labels))
    votes = preds.reshape(len(test), crops_per_trial)
    winners = np.array([np.bincount(v, minlength=n_classes).argmax() for v in votes])
    trial_acc = float(np.mean(winners == labels))
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
