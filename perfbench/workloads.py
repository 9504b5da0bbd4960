"""The benchmark's workloads, each a closed loop with one client.

A workload builds its inputs in `setup` from the seed alone, then runs
passes. One pass trains through a public entry point and then decodes
held-out trials one at a time, so every end-to-end metric is measured on
every workload:

- `train-paper`: `scsnet.train("scsn_mmd", lam=1)` at the paper geometry,
  then online decoding of held-out 4 s trials (21 crops and a majority vote
  each) by the target branch of the saved checkpoint.
- `cli-bench`: the negative-transfer comparison at the acceptance shape,
  run in-process through `scsnet.cli.main` (train x4, eval, report), then
  per-trial decoding of the test trials by the SCSN-MMD checkpoint.

Epoch counts are fixed (patience = max_epochs), so the work a pass does
never depends on the training trajectory.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import scsnet
import scsnet.cli

# float64 eps times a generous bound on the longest accumulation chain an
# epoch-1 loss passes through (22*25*40 ~ 2e4-term contractions, ~50 deep)
LOSS_RTOL = 1e6 * 2.0 ** -52
MMD_FLOOR = -1e-12  # the biased MMD is >= 0; this admits rounding only


class Abort(Exception):
    """A failed operation left the rest of the pass without its input."""


class Ops:
    """Operations attempted, and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def run(self, label: str, fn, *args):
        op = self.attempted
        self.attempted += 1
        try:
            return op, fn(*args)
        except Exception as err:  # a failed operation is counted, not fatal
            self.failures[op] = f"{label}: {type(err).__name__}: {err}"
            return op, None

    def crash(self, label: str, err: BaseException) -> None:
        """An exception outside any single operation fails the pass it hit."""
        self.failures[self.attempted] = f"{label}: {type(err).__name__}: {err}"
        self.attempted += 1

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Pass:
    """Timings of one pass of a workload."""

    train_crops: int = 0
    train_s: float = 0.0
    pipeline_s: float = 0.0
    decode_s: list[float] = field(default_factory=list)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def crops_per_trial(n_samples: int, fs: float, win_s: float, overlap_s: float) -> int:
    width = round(win_s * fs)
    stride = round((win_s - overlap_s) * fs)
    return (n_samples - width) // stride + 1


def _cli(ops: Ops, argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        op, code = ops.run(f"cli {argv[0]}", scsnet.cli.main, argv)
    if code is None:
        raise Abort
    if code != 0:
        ops.fail(op, f"cli {argv[0]} exited with {code}")
        raise Abort


class Workload:
    """Shared pass bookkeeping and output checks."""

    name = ""
    min_decodes = 100  # p90 needs at least ten samples beyond it

    def __init__(self, size: str, seed: int, work: Path, references: dict):
        self.size = size
        self.seed = seed
        self.work = work
        self.references = references.get(self.name, {}).get(str(seed)) \
            if size == "full" else None
        self.first_loss: dict[str, float] = {}
        self.first_outputs: dict[str, str] = {}
        self.decisions: list[tuple[int, int, float]] = []  # op, trial, decision
        self.model = self.branch = None  # the decoder and its target branch

    def check_curve(self, ops: Ops, op: int, label: str, losses, mmds, epochs: int) -> None:
        """Finite losses, nonnegative MMD, the fixed epoch count, and the
        epoch-1 loss against the stored reference (or, for a seed without
        one, against this run's first pass, which must repeat it exactly)."""
        if len(losses) != epochs:
            ops.fail(op, f"{label}: ran {len(losses)} epochs, expected {epochs}")
        elif not all(math.isfinite(v) for v in list(losses) + list(mmds)):
            ops.fail(op, f"{label}: non-finite epoch loss")
        elif any(v < MMD_FLOOR for v in mmds):
            ops.fail(op, f"{label}: negative MMD {min(mmds)!r}")
        elif self.references is not None:
            ref = self.references[label]
            if not math.isclose(losses[0], ref, rel_tol=LOSS_RTOL, abs_tol=0.0):
                ops.fail(op, f"{label}: epoch-1 loss {losses[0]!r}, reference {ref!r}")
        elif losses[0] != self.first_loss.setdefault(label, losses[0]):
            ops.fail(op, f"{label}: epoch-1 loss {losses[0]!r} differs from the first pass")

    def check_same_bytes(self, ops: Ops, op: int, path: Path) -> None:
        digest = sha256(path)
        key = path.relative_to(path.parents[1]).as_posix()
        if digest != self.first_outputs.setdefault(key, digest):
            ops.fail(op, f"{key} differs from the first pass")

    def decode(self, ops: Ops, order: list[int], p: Pass) -> None:
        """Decode the held-out trials in `order` one at a time with the target
        branch of `self.model`, timing each decode."""
        for i in order:
            start = time.perf_counter()
            op, result = ops.run("decode", scsnet.evaluate, self.model, self.branch,
                                 self.trials[i], self.win_s, self.overlap_s)
            p.decode_s.append(time.perf_counter() - start)
            if result is None:
                continue
            if result[1] not in (0.0, 1.0):
                ops.fail(op, f"decode of trial {i} gave trial accuracy {result[1]!r}")
            self.decisions.append((op, i, result[1]))

    def finish(self, ops: Ops) -> None:
        """Outside the timed passes: the per-trial decisions repeat exactly
        and sum to the trial accuracy of one whole-set evaluate."""
        if not self.decisions:
            return
        _, accuracy = scsnet.evaluate(self.model, self.branch, self.decode_set,
                                      self.win_s, self.overlap_s)
        by_trial: dict[int, float] = {}
        consistent = all(by_trial.setdefault(i, d) == d for _, i, d in self.decisions)
        n_trials = len(self.decode_set)
        if not consistent or len(by_trial) != n_trials \
                or sum(by_trial.values()) != round(accuracy * n_trials):
            for op, _, _ in self.decisions:
                ops.fail(op, f"per-trial decisions {sorted(by_trial.items())} do not sum to "
                             f"the whole-set trial accuracy {accuracy!r}")
        self.decisions.clear()


# ---------------------------------------------------------------------------


class TrainPaper(Workload):
    """SCSN-MMD training and online decoding at the paper geometry."""

    name = "train-paper"
    SIZES = {
        # 22 ch, 250 Hz, 4 s trials; 2 s crops with 1.9 s overlap (21 per trial)
        "full": dict(channels=22, fs=250.0, duration=4.0, trials=4, calib=1,
                     notch=50.0, band=(1.0, 100.0), decode_trials=10, decode_rounds=10,
                     cfg=dict(batch_per_branch=30, win_s=2.0, overlap_s=1.9, temporal_filters=40,
                              temporal_kernel=25, pool_width=75, pool_stride=15,
                              common_fc_dims=(128, 128, 128),
                              separate_fc_dims=(64, 64, 64))),
        "tiny": dict(channels=4, fs=64.0, duration=2.0, trials=4, calib=1,
                     notch=20.0, band=(1.0, 30.0), decode_trials=4, decode_rounds=1,
                     cfg=dict(batch_per_branch=5, win_s=1.0, overlap_s=0.75, temporal_filters=3,
                              temporal_kernel=9, pool_width=16, pool_stride=8,
                              common_fc_dims=(8, 8, 8), separate_fc_dims=(4, 4, 4))),
    }
    SUBJECTS = 5
    CLASSES = 4
    EPOCHS = 1

    def __init__(self, size, seed, work, references):
        super().__init__(size, seed, work, references)
        self.shape = s = self.SIZES[size]
        self.cfg = cfg = scsnet.TrainConfig(max_epochs=self.EPOCHS, patience=self.EPOCHS,
                                            lam=1.0, seed=seed, **s["cfg"])
        per_trial = crops_per_trial(round(s["duration"] * s["fs"]), s["fs"],
                                    cfg.win_s, cfg.overlap_s)
        # sources are upsampled to the target's crop count, so every branch
        # runs target_crops // batch steps per epoch
        target_crops = (s["trials"] + s["calib"]) * per_trial
        batch = cfg.batch_per_branch
        self.crops_per_call = self.EPOCHS * (target_crops // batch) * batch * self.SUBJECTS

    def _synth(self, ops: Ops, out: Path, subjects: int, sessions: int, trials: int) -> Path:
        s = self.shape
        _cli(ops, ["synth", "--subjects", str(subjects), "--sessions", str(sessions),
                   "--trials", str(trials), "--channels", str(s["channels"]),
                   "--fs", str(s["fs"]), "--duration", str(s["duration"]),
                   "--classes", str(self.CLASSES), "--seed", str(self.seed),
                   "--out", str(out / "raw")])
        _cli(ops, ["preprocess", "--data", str(out / "raw"), "--notch", str(s["notch"]),
                   "--low", str(s["band"][0]), "--high", str(s["band"][1]),
                   "--out", str(out / "pre")])
        return out / "pre"

    def setup(self, ops: Ops, tag: str) -> None:
        """Synthesize and preprocess five subjects plus a held-out third
        session of the target, then split. Decoding uses that session."""
        s = self.shape
        root = self.work / tag
        train_dir = self._synth(ops, root / "train", self.SUBJECTS, 2, s["trials"])
        datasets = []
        for k in range(1, self.SUBJECTS + 1):
            sessions = [scsnet.load_trialset(train_dir / f"S{k:02d}_s{j}.tsc") for j in (1, 2)]
            datasets.append(scsnet.SubjectDataset(f"S{k:02d}", sessions))
        c = s["calib"]
        self.split = scsnet.make_splits(
            datasets, scsnet.SplitSpec("S01", c, (c, c + 1), (c + 1, c + 2)))
        # the target's third session: same subject mixing, trials never trained on
        decode_dir = self._synth(ops, root / "decode", 1, 3, s["decode_trials"])
        self.decode_set = scsnet.load_trialset(decode_dir / "S01_s3.tsc")
        self.trials = [self.decode_set.subset([i]) for i in range(len(self.decode_set))]
        self.win_s, self.overlap_s = self.cfg.win_s, self.cfg.overlap_s
        self.ckpt = root / "ckpt" / "model.ckpt"
        self.ckpt.parent.mkdir(parents=True, exist_ok=True)

    def run_pass(self, ops: Ops, decodes: int | None = None) -> Pass:
        p = Pass(train_crops=self.crops_per_call)
        start = time.perf_counter()
        op, out = ops.run("train", scsnet.train, "scsn_mmd", self.split, self.cfg)
        p.train_s = time.perf_counter() - start
        if out is None:
            raise Abort
        model, report = out
        scsnet.save_checkpoint(model, self.ckpt)
        self.model, _ = scsnet.load_checkpoint(self.ckpt)
        self.branch = self.model.cfg.target_index
        order = list(range(len(self.trials))) * self.shape["decode_rounds"]
        self.decode(ops, order[:decodes], p)
        p.pipeline_s = time.perf_counter() - start
        self.check_curve(ops, op, "scsn-mmd", report.train_loss, report.train_mmd_loss,
                         self.EPOCHS)
        self.check_same_bytes(ops, op, self.ckpt)
        return p


# ---------------------------------------------------------------------------


class CliBench(Workload):
    """The CLI negative-transfer comparison at the acceptance shape."""

    name = "cli-bench"
    # the acceptance benchmark of tests/conftest.py: 1 crop per 2 s trial
    SIZES = {
        "full": dict(subjects=5, trials=120, channels=8, fs=128.0, duration=2.0, classes=4,
                     notch=50.0, band=(1.0, 40.0), calib=40, val=(40, 60), test=(60, 120),
                     win=2.0, overlap=1.0, batch=30, epochs=1, filters=16, kernel=25,
                     pool=(75, 15), common=(48, 48, 48), separate=(24, 24, 24), decodes=180),
        "tiny": dict(subjects=3, trials=16, channels=4, fs=32.0, duration=1.0, classes=2,
                     notch=12.0, band=(1.0, 10.0), calib=4, val=(4, 8), test=(8, 16),
                     win=1.0, overlap=0.5, batch=4, epochs=1, filters=2, kernel=5,
                     pool=(4, 3), common=(4, 4, 4), separate=(3, 3, 3), decodes=12),
    }
    MODELS = (("baseline-single", "baseline", "single", "0"),
              ("baseline-multi", "baseline", "multi", "0"),
              ("scsn", "scsn", "multi", "0"),
              ("scsn-mmd", "scsn-mmd", "multi", "1"))
    COMMANDS = len(MODELS) + 2  # the train commands, eval and report

    def __init__(self, size, seed, work, references):
        super().__init__(size, seed, work, references)
        self.shape = s = self.SIZES[size]
        self.win_s, self.overlap_s = s["win"], s["overlap"]

        def dims(d):
            return ",".join(str(v) for v in d)

        self.split_flags = ["--target", "S01", "--calib", str(s["calib"]),
                            "--val", "%d:%d" % s["val"], "--test", "%d:%d" % s["test"],
                            "--win", str(s["win"]), "--overlap", str(s["overlap"])]
        epochs = str(s["epochs"])
        self.train_flags = [
            "--batch", str(s["batch"]), "--epochs", epochs, "--patience", epochs,
            "--temporal-filters", str(s["filters"]), "--temporal-kernel", str(s["kernel"]),
            "--pool-width", str(s["pool"][0]), "--pool-stride", str(s["pool"][1]),
            "--dropout", "0.5", "--common-dims", dims(s["common"]),
            "--separate-dims", dims(s["separate"]), "--seed", str(seed)]
        target, batch, n_sub = s["trials"] + s["calib"], s["batch"], s["subjects"]
        pooled = target + (n_sub - 1) * s["trials"]
        per_epoch = {  # crops consumed by optimizer steps (1 crop per trial)
            "baseline-single": target // batch * batch,
            "baseline-multi": pooled // (batch * n_sub) * batch * n_sub,
            "scsn": target // batch * batch * n_sub,
            "scsn-mmd": target // batch * batch * n_sub,
        }
        self.crops_per_pass = s["epochs"] * sum(per_epoch.values())
        self.passes = 0
        self.cursor = 0

    def setup(self, ops: Ops, tag: str) -> None:
        """`synth` and `preprocess` through the CLI on the workload seed, and
        an SCSN checkpoint of the trained models' shape for decoding (its
        weights do not change the work a decode does)."""
        s = self.shape
        root = self.work / tag
        _cli(ops, ["synth", "--subjects", str(s["subjects"]), "--sessions", "2",
                   "--trials", str(s["trials"]), "--channels", str(s["channels"]),
                   "--fs", str(s["fs"]), "--duration", str(s["duration"]),
                   "--classes", str(s["classes"]), "--shift", "0.7", "--snr", "3",
                   "--seed", str(self.seed), "--out", str(root / "raw")])
        _cli(ops, ["preprocess", "--data", str(root / "raw"), "--notch", str(s["notch"]),
                   "--low", str(s["band"][0]), "--high", str(s["band"][1]),
                   "--out", str(root / "pre")])
        self.data = root / "pre"
        self.decode_set = scsnet.load_trialset(self.data / "S01_s2.tsc").subset(
            range(*s["test"]))
        self.trials = [self.decode_set.subset([i]) for i in range(len(self.decode_set))]
        base = scsnet.BaselineConfig(
            n_channels=s["channels"], n_samples=round(s["win"] * s["fs"]),
            n_classes=s["classes"], temporal_filters=s["filters"], temporal_kernel=s["kernel"],
            pool_width=s["pool"][0], pool_stride=s["pool"][1])
        model = scsnet.build_scsn(scsnet.ScsnConfig(
            base=base, n_subjects=s["subjects"], target_index=0,
            common_fc_dims=s["common"], separate_fc_dims=s["separate"]), self.seed)
        scsnet.save_checkpoint(model, root / "decoder.ckpt")
        self.model, _ = scsnet.load_checkpoint(root / "decoder.ckpt")
        self.branch = self.model.cfg.target_index

    def _command(self, ops: Ops, argv: list[str], p: Pass, k: int,
                 decodes: int) -> tuple[int, float]:
        """Run the k-th CLI command of a pass, then its share of the pass's
        decodes, so the decodes sample the whole pass rather than one instant
        of it. Returns the command's operation and its wall time."""
        start = time.perf_counter()
        _cli(ops, argv)
        seconds = time.perf_counter() - start
        n = decodes * (k + 1) // self.COMMANDS - decodes * k // self.COMMANDS
        self.decode(ops, [(self.cursor + j) % len(self.trials) for j in range(n)], p)
        self.cursor += n
        return ops.attempted - n - 1, seconds

    def run_pass(self, ops: Ops, decodes: int | None = None) -> Pass:
        decodes = self.shape["decodes"] if decodes is None else decodes
        root = self.work / f"pass{self.passes}"
        self.passes += 1
        p = Pass(train_crops=self.crops_per_pass)
        start = time.perf_counter()
        runs = []
        for k, (label, model, regime, lam) in enumerate(self.MODELS):
            out = root / label
            op, seconds = self._command(
                ops, ["train", "--data", str(self.data), "--model", model, "--regime", regime,
                      "--lambda", lam, *self.split_flags, *self.train_flags,
                      "--out", str(out)], p, k, decodes)
            p.train_s += seconds
            runs.append((op, label, out))
        ckpt = root / "scsn-mmd" / "model.ckpt"
        eval_op, _ = self._command(ops, ["eval", "--ckpt", str(ckpt), "--data", str(self.data),
                                         *self.split_flags, "--out", str(root / "eval")],
                                   p, len(self.MODELS), decodes)
        report_op, _ = self._command(ops, ["report", "--runs", *[str(o) for _, _, o in runs],
                                           "--out", str(root / "report")],
                                     p, len(self.MODELS) + 1, decodes)
        p.pipeline_s = time.perf_counter() - start

        for op, label, out in runs:
            rows = [line.split(",") for line in
                    (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]]
            self.check_curve(ops, op, label, [float(r[1]) for r in rows],
                             [float(r[2]) for r in rows], self.shape["epochs"])
            for name in ("model.ckpt", "report.csv", "summary.txt"):
                self.check_same_bytes(ops, op, out / name)
        self.check_same_bytes(ops, eval_op, root / "eval" / "summary.txt")
        for name in ("report.csv", "summary.txt"):
            self.check_same_bytes(ops, report_op, root / "report" / name)
        return p


WORKLOADS = {w.name: w for w in (TrainPaper, CliBench)}
