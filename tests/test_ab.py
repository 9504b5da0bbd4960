import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _in_git_work_tree() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"],
                           capture_output=True, text=True)
    return probe.returncode == 0 and probe.stdout.strip() == "true"


@pytest.mark.skipif(not _in_git_work_tree(), reason="tools/ab.py exports a git revision")
def test_head_against_head_at_tiny_shapes(capsys):
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert ab.main(["--base", "HEAD", "--size", "tiny", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("base HEAD against the working tree, size tiny")
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert sorted(rows) == ["decode", "eval", "eval_peak", "log_power", "log_power_peak",
                            "setup", "step", "step_peak", "train", "train_peak"]
    for case, cells in rows.items():
        # unit, base median (IQR), change median (IQR), ratio, wins out of rounds
        assert cells[1] == ("MB" if case.endswith("_peak") else "ms")
        assert float(cells[2]) > 0 and float(cells[4]) > 0 and float(cells[6]) > 0
        wins, rounds = cells[7].split("/")
        assert rounds == "2" and 0 <= int(wins) <= 2
