"""Reprint ROADMAP item 17's tables: SCSN-MMD against the other models as
source subjects are added, and SCSN-MMD's lambda sweeps.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 tools/subjects_table.py

Every training uses criterion 7's data and config (`tests/conftest.py`:
`BENCH_DATA`, `BENCH_SPLIT`, `bench_config`) with only `n_subjects`
changed, and targets S01. S01's trials are the same bytes at every subject
count, so baseline-single is a fixed control. A cell is the mean test trial
accuracy over seeds 0-2.

The first table has the four models at 2, 3, 5 and 9 subjects; its
5-subject row is criterion 7's fixture. The second has SCSN-MMD at each
lambda of `SWEEPS`, reusing the lambda-1 runs of the first. The script
trains 60 models, about two minutes on one core, and prints markdown.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from scsnet import SplitSpec, make_splits, synth_multisubject, train  # noqa: E402
from tests.conftest import BENCH_DATA, BENCH_SPLIT, bench_config  # noqa: E402

SUBJECTS = (2, 3, 5, 9)
SEEDS = (0, 1, 2)
# column: (model kind, regime, lambda)
MODELS = {"baseline-single": ("baseline", "single", 0.0),
          "baseline-multi": ("baseline", "multi", 0.0),
          "SCSN": ("scsn", "multi", 0.0),
          "SCSN-MMD, λ = 1": ("scsn_mmd", "multi", 1.0)}
SWEEPS = {5: (0.05, 0.25, 1.0, 4.0), 9: (0.125, 1.0)}  # subjects: SCSN-MMD lambdas


def main() -> int:
    started = time.perf_counter()
    splits, accuracy = {}, {}

    def mean_accuracy(n_subjects, kind, regime, lam):
        for seed in SEEDS:
            key = (n_subjects, kind, regime, lam, seed)
            if key in accuracy:
                continue
            if (n_subjects, seed) not in splits:
                data = synth_multisubject(seed=seed, **{**BENCH_DATA, "n_subjects": n_subjects})
                splits[n_subjects, seed] = make_splits(
                    data, SplitSpec(target_subject="S01", **BENCH_SPLIT))
            _, report = train(kind, splits[n_subjects, seed], bench_config(seed, lam),
                              regime=regime)
            accuracy[key] = report.test_trial_accuracy
        return float(np.mean([accuracy[n_subjects, kind, regime, lam, s] for s in SEEDS]))

    print("| subjects | " + " | ".join(MODELS) + " |")
    print("|---" * (len(MODELS) + 1) + "|")
    for n_subjects in SUBJECTS:
        cells = [f"{mean_accuracy(n_subjects, *run):.3f}" for run in MODELS.values()]
        print(f"| {n_subjects} | " + " | ".join(cells) + " |", flush=True)
    print()
    print("| subjects | λ | λ (N − 1) | SCSN-MMD |")
    print("|---|---|---|---|")
    for n_subjects, lams in SWEEPS.items():
        for lam in lams:
            acc = mean_accuracy(n_subjects, "scsn_mmd", "multi", lam)
            print(f"| {n_subjects} | {lam:g} | {lam * (n_subjects - 1):g} | {acc:.3f} |",
                  flush=True)
    print(f"\n{len(accuracy)} trainings in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
