"""In-process A/B timing of the working tree against a git revision.

    OPENBLAS_NUM_THREADS=1 python3 tools/ab.py --base HEAD~1 --rounds 12

The script exports `src/scsnet` at `--base` with a local `git archive` into a
temporary directory and imports it as `scsnet_base`, next to the working
tree's `src/scsnet`. Each side builds the same split from seed 0,
then the rounds alternate the two sides, the first side switching every
round:

- `setup`: `synth_multisubject` of the size's data, then
  `preprocess_trialset` of every session with the size's notch and band,
  those of the matching benchmark workload;
- `train`: the size's trainings, one epoch each: `train(kind, split, cfg,
  regime=regime)` for each (kind, regime) of its `trainings` in `SIZES`,
  and `train_peak`: the tracemalloc peak of a second run of them;
- `decode`: the median of 20 one-trial `evaluate` calls with the target
  branch of the scsn_mmd model that side trained last;
- `eval`: one `evaluate` of that model over a fixed set of 48 whole trials
  (the test trials, repeated as needed), and `eval_peak`: the tracemalloc
  peak of a second such call;
- `log_power`: the median of 5 calls of one training step's shallow block,
  a `conv_log_power_branches` forward plus its backward, and
  `log_power_peak`: the tracemalloc peak of another. The step is the
  size's: one branch per subject, each with the crops that the first batch
  of training epoch 1 draws from that subject's pool (`scsn_pools`,
  `batch_iter`), read in place from its trials, and with random kernels
  and weights of the config's shapes;
- `step`: the median of 5 calls of `training._step` on that same first
  batch, each with a fresh `AdamState`, on a model that `build_scsn`
  builds once from seed 0 with the config's shapes (so each call takes
  one more Adam step on it), and `step_peak`: the tracemalloc peak of
  another.

For each case it prints its unit, each side's median and interquartile
range over the rounds, the ratio change / base of the medians, and in how
many rounds the change was lower (faster, or smaller). `--size paper` is
the train-paper geometry of `perfbench/workloads.py` (22 channels, 250 Hz,
4 s trials of 21 crops, 40 filters, pool 75/15, 5 subjects, lambda 1),
training scsn_mmd; `--size bench` is cli-bench's acceptance shape (8
channels, 128 Hz, 120 trials per session of 2 s with one 2 s crop each, 16
filters, dense widths 48/24, batch 30, split 40 / 40:60 / 60:120), training
what cli-bench trains: baseline single and multi, scsn and scsn_mmd;
`--size tiny` is train-paper's smoke-test shape, training scsn_mmd. When no
BLAS thread variable is set and numpy is not loaded yet, the script pins
BLAS to one thread, as the benchmark does.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SEED = 0
DECODES = 20  # one-trial decodes per round
EVAL_TRIALS = 48  # whole trials one eval case call decodes
LOG_POWER_CALLS = 5  # timed shallow-block calls, and training steps, per round

# split: (calibration trials, validation range, test range) of the target's
# second session; filters: the set-up's notch and band; trainings: the
# (kind, regime) pairs the train case runs
MMD_ONLY = (("scsn_mmd", "multi"),)
SIZES = {
    "paper": dict(data=dict(n_channels=22, fs=250.0, duration_s=4.0, n_trials=4),
                  filters=(50.0, (1.0, 100.0)), split=(1, (1, 2), (2, 4)), trainings=MMD_ONLY,
                  cfg=dict(batch_per_branch=30, win_s=2.0, overlap_s=1.9, temporal_filters=40,
                           temporal_kernel=25, pool_width=75, pool_stride=15,
                           common_fc_dims=(128, 128, 128), separate_fc_dims=(64, 64, 64))),
    "bench": dict(data=dict(n_channels=8, fs=128.0, duration_s=2.0, n_trials=120),
                  filters=(50.0, (1.0, 40.0)), split=(40, (40, 60), (60, 120)),
                  trainings=(("baseline", "single"), ("baseline", "multi"), ("scsn", "multi"),
                             ("scsn_mmd", "multi")),
                  cfg=dict(batch_per_branch=30, win_s=2.0, overlap_s=1.0, temporal_filters=16,
                           temporal_kernel=25, pool_width=75, pool_stride=15,
                           common_fc_dims=(48, 48, 48), separate_fc_dims=(24, 24, 24))),
    "tiny": dict(data=dict(n_channels=4, fs=64.0, duration_s=2.0, n_trials=4),
                 filters=(20.0, (1.0, 30.0)), split=(1, (1, 2), (2, 4)), trainings=MMD_ONLY,
                 cfg=dict(batch_per_branch=5, win_s=1.0, overlap_s=0.75, temporal_filters=3,
                          temporal_kernel=9, pool_width=16, pool_stride=8,
                          common_fc_dims=(8, 8, 8), separate_fc_dims=(4, 4, 4))),
}


def export(rev: str, into: Path, name: str) -> Path:
    """Write `src/scsnet` at `rev` to into/name, a package of that name."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/scsnet"],
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return (into / "src" / "scsnet").rename(into / name)


class Side:
    """One revision of the package with its split, config and decode trials."""

    def __init__(self, pkg, size: str):
        self.pkg = pkg
        self.shape = shape = SIZES[size]
        data = self.synth()
        self.split = pkg.make_splits(data, pkg.SplitSpec("S01", *shape["split"]))
        self.cfg = pkg.TrainConfig(max_epochs=1, patience=1, lam=1.0, seed=SEED, **shape["cfg"])
        self.trainings = shape["trainings"]
        test = self.split.test
        self.trials = [test.subset([i]) for i in range(len(test))]
        self.eval_set = test.subset([i % len(test) for i in range(EVAL_TRIALS)])
        self.model = None
        self.subjects, pools = self.pkg.training.scsn_pools(self.split, self.cfg)
        rows = next(self.pkg.batch_iter(pools, self.cfg.batch_per_branch,
                                        self.pkg.training.epoch_batch_seed(SEED, 1)))
        # each branch's pool and the rows the first batch draws from it
        self.picks = [(pools[s], rows[s]) for s in self.subjects]
        self.branches = self.step_branches()
        self.step_model = self.scsn()

    def synth(self) -> list:
        return self.pkg.synth_multisubject(n_subjects=5, n_sessions=2, n_classes=4,
                                           shift_strength=0.7, snr=3.0, seed=SEED,
                                           **self.shape["data"])

    def step_branches(self) -> list[tuple]:
        """The (trials, kernels, weights, crops) of each branch of the first
        scsn_mmd training step."""
        import numpy as np  # here, once main() has pinned BLAS

        rng = np.random.default_rng(SEED)
        f, k = self.cfg.temporal_filters, self.cfg.temporal_kernel
        c = self.shape["data"]["n_channels"]
        branches = []
        for pool, picked in self.picks:
            kernels = self.pkg.Tensor(rng.normal(scale=k ** -0.5, size=(f, k)),
                                      requires_grad=True)
            weights = self.pkg.Tensor(rng.normal(scale=(f * c) ** -0.5, size=(f, f, c)),
                                      requires_grad=True)
            branches.append((pool.trials, kernels, weights,
                             (pool.trial[picked], pool.onset[picked], pool.width)))
        return branches

    def scsn(self):
        """The SCSN that `train` builds for scsn_mmd on the split."""
        pkg, cfg = self.pkg, self.cfg
        base = pkg.training.base_config(cfg, self.split.train[self.split.target_subject])
        return pkg.build_scsn(
            pkg.ScsnConfig(base=base, n_subjects=len(self.subjects),
                           target_index=self.subjects.index(self.split.target_subject),
                           common_fc_dims=tuple(cfg.common_fc_dims),
                           separate_fc_dims=tuple(cfg.separate_fc_dims)),
            cfg.seed)

    # each method below measures its cases and returns {case: value} in the
    # case's unit: ms, or MB for a `_peak` case

    def setup(self) -> dict[str, float]:
        """Synthesizing the data and filtering every session."""
        notch, band = self.shape["filters"]
        start = time.perf_counter()
        for ds in self.synth():
            for session in ds.sessions:
                self.pkg.preprocess_trialset(session, notch_hz=notch, band=band)
        return {"setup": 1e3 * (time.perf_counter() - start)}

    def train(self) -> dict[str, float]:
        """One run of the trainings."""
        def run() -> None:
            for kind, regime in self.trainings:
                model, _ = self.pkg.train(kind, self.split, self.cfg, regime=regime)
                if kind == "scsn_mmd":
                    self.model = model

        return _timed_then_traced("train", run)

    def decode(self) -> dict[str, float]:
        """The median of DECODES one-trial decodes."""
        times = []
        for i in range(DECODES):
            start = time.perf_counter()
            self.pkg.evaluate(self.model, self.model.cfg.target_index,
                              self.trials[i % len(self.trials)], self.cfg.win_s,
                              self.cfg.overlap_s)
            times.append(time.perf_counter() - start)
        return {"decode": 1e3 * statistics.median(times)}

    def evaluate(self) -> dict[str, float]:
        """One `evaluate` over the eval set."""
        def run() -> None:
            self.pkg.evaluate(self.model, self.model.cfg.target_index, self.eval_set,
                              self.cfg.win_s, self.cfg.overlap_s)

        return _timed_then_traced("eval", run)

    def log_power(self) -> dict[str, float]:
        """LOG_POWER_CALLS forward-plus-backward calls of the step's shallow
        block."""
        ad = self.pkg.autodiff

        def run() -> None:
            for _, kernels, weights, _ in self.branches:
                kernels.zero_grad()
                weights.zero_grad()
            hs = ad.conv_log_power_branches(self.branches, self.cfg.pool_width,
                                            self.cfg.pool_stride)
            ad.add_n([ad.tsum(h) for h in hs]).backward()

        return _timed_then_traced("log_power", run, LOG_POWER_CALLS)

    def step(self) -> dict[str, float]:
        """LOG_POWER_CALLS scsn_mmd training steps on the first batch, each
        with a fresh AdamState."""
        training = self.pkg.training

        def run() -> None:
            training._step(self.step_model, training.AdamState(self.step_model.params),
                           self.cfg, (1, 1), training.dropout_stream(SEED), self.picks,
                           with_mmd=True)

        return _timed_then_traced("step", run, LOG_POWER_CALLS)


def _timed_then_traced(case: str, run, calls: int = 1) -> dict[str, float]:
    """`case`: the median ms of `calls` runs of run(), and `case`_peak: the
    tracemalloc peak in MB of another."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    ms = 1e3 * statistics.median(times)
    tracemalloc.start()
    try:
        run()
        return {case: ms, f"{case}_peak": tracemalloc.get_traced_memory()[1] / 1e6}
    finally:
        tracemalloc.stop()


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(base: Side, change: Side, rounds: int) -> dict[str, dict]:
    """Alternate the two sides for `rounds` rounds; per case, each side's
    value in each round, in the case's unit, the cases in method order."""
    runs: dict[str, dict] = {}
    for r in range(rounds):
        order = [("base", base), ("change", change)]
        for label, side in order if r % 2 == 0 else order[::-1]:
            for measure in (side.setup, side.train, side.decode, side.evaluate,
                            side.log_power, side.step):
                for case, value in measure().items():
                    runs.setdefault(case, {"base": [], "change": []})[label].append(value)
    return runs


def summary(runs: dict[str, dict]) -> list[str]:
    lines = [f"{'case':<16}{'unit':<5}{'base (IQR)':>22}{'change (IQR)':>22}"
             f"{'change/base':>13}{'change lower':>14}"]
    for case, sides in runs.items():
        base, change = sides["base"], sides["change"]
        mb, mc = statistics.median(base), statistics.median(change)
        wins = sum(c < b for b, c in zip(base, change))
        unit = "MB" if case.endswith("_peak") else "ms"
        lines.append(f"{case:<16}{unit:<5}{f'{mb:.3f} ({iqr(base):.3f})':>22}"
                     f"{f'{mc:.3f} ({iqr(change):.3f})':>22}{mc / mb:>13.4f}"
                     f"{f'{wins}/{len(base)}':>14}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--size", choices=sorted(SIZES), default="paper")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    if "numpy" not in sys.modules and not any(os.environ.get(v) for v in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads BLAS
    with tempfile.TemporaryDirectory(prefix="scsnet-ab-") as tmp:
        export(args.base, Path(tmp), "scsnet_base")
        sys.path.insert(0, tmp)
        sys.path.insert(0, str(ROOT / "src"))
        try:
            base = Side(importlib.import_module("scsnet_base"), args.size)
            change = Side(importlib.import_module("scsnet"), args.size)
        finally:
            sys.path.remove(tmp)
            sys.path.remove(str(ROOT / "src"))
        runs = compare(base, change, args.rounds)
    print(f"base {args.base} against the working tree, size {args.size}, "
          f"{args.rounds} rounds")
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
