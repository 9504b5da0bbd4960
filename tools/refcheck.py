"""Check the benchmark's epoch-1 loss references without rewriting them.

    python3 tools/refcheck.py

For each workload of `perfbench/workloads.py` and every seed that
`perfbench/reference.json` holds for it, the script runs the workload's
`setup` and one `run_pass(decodes=0)` at full size, as
`perfbench/make_reference.py` does, each in its own temporary work
directory. It prints, for each workload and training label, the largest
relative deviation of the epoch-1 loss from its reference over the seeds,
and exits 1 if one exceeds `workloads.LOSS_RTOL` (the check behind a run's
`correct` flag) or if an operation of a pass fails. BLAS is pinned to one
thread before numpy loads, as the benchmark pins it. Nothing under
`perfbench/` is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import run  # pins the BLAS threads before numpy loads
    from workloads import LOSS_RTOL, WORKLOADS, Abort, Ops

    refs = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    worst: dict[tuple[str, str], float] = {}
    failures = []
    for name, cls in WORKLOADS.items():
        for seed, labels in refs[name].items():
            ops = Ops()
            with tempfile.TemporaryDirectory(prefix="refcheck-") as work:
                workload = cls("full", int(seed), Path(work), {})
                try:
                    workload.setup(ops, "setup")
                    workload.run_pass(ops, decodes=0)
                except Abort:  # the failed operation is in ops.failures
                    pass
            failures += [f"{name} seed {seed}: {reason}" for reason in ops.failures.values()]
            for label, ref in labels.items():
                if label in workload.first_loss:
                    deviation = abs(workload.first_loss[label] - ref) / abs(ref)
                    worst[name, label] = max(worst.get((name, label), 0.0), deviation)
                else:
                    failures.append(f"{name} seed {seed}: {label} gave no epoch-1 loss")
    for (name, label), deviation in worst.items():
        flag = "ok" if deviation <= LOSS_RTOL else "EXCEEDS"
        print(f"{flag}\t{name}\t{label}\tlargest relative deviation {deviation:.3g} "
              f"(bound {LOSS_RTOL:.3g})")
    for failure in failures:
        print(f"FAILED\t{failure}")
    return int(bool(failures) or any(d > LOSS_RTOL for d in worst.values()))


if __name__ == "__main__":
    sys.exit(main())
