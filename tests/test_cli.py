import argparse
import contextlib
import gc
import io
import os
import shlex
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsnet import autodiff as ad
from scsnet import cli
from scsnet.cli import build_parser, main, read_manifest, replay_args, sha256_file
from scsnet.datasets import load_trialset
from scsnet.training import TrainConfig

SYNTH = ["synth", "--subjects", "2", "--sessions", "2", "--trials", "12",
         "--channels", "3", "--fs", "32", "--duration", "1.0", "--classes", "2",
         "--shift", "0.5", "--snr", "5", "--seed", "7"]

TRAIN_FLAGS = ["--target", "S01", "--calib", "4", "--val", "4:8", "--test", "8:12",
               "--win", "1.0", "--overlap", "0.5", "--batch", "4",
               "--epochs", "3", "--patience", "3",
               "--temporal-filters", "2", "--temporal-kernel", "5",
               "--pool-width", "4", "--pool-stride", "3",
               "--common-dims", "4,4,4", "--separate-dims", "3,3,3",
               "--seed", "1"]

# every flag of every manifest-writing command, each away from its default
NON_DEFAULT_ARGV = [
    ["synth", "--subjects", "3", "--sessions", "1", "--trials", "10", "--channels", "4",
     "--fs", "64", "--duration", "1.5", "--classes", "3", "--shift", "0.25", "--snr", "2",
     "--seed", "9", "--out", "o"],
    ["preprocess", "--data", "d", "--notch", "60", "--low", "2", "--high", "40",
     "--channels", "ch01,ch00", "--out", "o"],
    ["train", "--data", "d", "--model", "scsn-mmd", "--target", "S02", "--regime", "single",
     "--calib", "3", "--val", "3:5", "--test", "5:9", "--win", "1.5", "--overlap", "0.25",
     "--lambda", "0.5", "--batch", "7", "--epochs", "4", "--patience", "2", "--lr", "0.01",
     "--temporal-filters", "3", "--temporal-kernel", "4", "--pool-width", "5",
     "--pool-stride", "2", "--dropout", "0.1", "--common-dims", "5,6",
     "--separate-dims", "2,3,4", "--seed", "3", "--subjects-note", "S01,S02", "--out", "o"],
    ["eval", "--ckpt", "c", "--data", "d", "--target", "S02", "--calib", "3", "--val", "3:5",
     "--test", "5:9", "--win", "1.5", "--overlap", "0.25", "--out", "o"],
    ["report", "--runs", "a", "b", "--metric", "crop", "--out", "o"],
]


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(SYNTH + ["--out", str(out)]) == 0
    return out


class TestSynth:
    def test_file_count(self, data_dir):
        files = sorted(p.name for p in data_dir.glob("*.tsc"))
        assert files == ["S01_s1.tsc", "S01_s2.tsc", "S02_s1.tsc", "S02_s2.tsc"]
        assert (data_dir / "manifest.txt").exists()

    def test_five_subjects_two_sessions_gives_ten_files(self, tmp_path):
        out = tmp_path / "ten"
        assert main(["synth", "--subjects", "5", "--sessions", "2", "--trials", "4",
                     "--channels", "2", "--fs", "32", "--duration", "0.5",
                     "--classes", "2", "--shift", "0.5", "--snr", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(list(out.glob("*.tsc"))) == 10

    def test_rejects_out_of_range_shift(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--shift", "1.5", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_deterministic_bytes(self, data_dir, tmp_path):
        again = tmp_path / "again"
        assert main(SYNTH + ["--out", str(again)]) == 0
        for name in ("S01_s1.tsc", "S02_s2.tsc"):
            assert (data_dir / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        argv = (SYNTH if command == "synth" else
                ["train", "--data", str(tmp_path), "--model", "scsn", *TRAIN_FLAGS])
        with pytest.raises(SystemExit) as err:
            main([*argv, "--seed", "-3", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert "argument --seed: -3 is negative" in capsys.readouterr().err
        assert loads == [] and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
    def test_malformed_env_seed_is_named(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SCSN_SEED", value)
        flags = [f for f in SYNTH if f not in ("--seed", "7")]
        assert main(flags + ["--out", str(tmp_path / "x")]) == 1
        assert f"error: SCSN_SEED={value!r} is not a nonnegative integer" \
            in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCSN_SEED", "7")
        flags = [f for f in SYNTH if f not in ("--seed", "7")]
        envdir = tmp_path / "env"
        assert main(flags + ["--out", str(envdir)]) == 0
        explicit = tmp_path / "explicit"
        assert main(SYNTH + ["--out", str(explicit)]) == 0
        assert (envdir / "S01_s1.tsc").read_bytes() == (explicit / "S01_s1.tsc").read_bytes()


class TestPreprocess:
    def test_defaults_and_channel_selection(self, data_dir, tmp_path):
        out = tmp_path / "prep"
        code = main(["preprocess", "--data", str(data_dir), "--notch", "10",
                     "--low", "1", "--high", "14", "--channels", "ch01,ch00",
                     "--out", str(out)])
        assert code == 0
        ts = load_trialset(out / "S01_s1.tsc")
        assert ts.channel_names == ["ch01", "ch00"]
        assert len(ts) == 12

    def test_default_band_valid_at_fs_250(self, tmp_path):
        raw = tmp_path / "raw"
        assert main(["synth", "--subjects", "1", "--sessions", "1", "--trials", "4",
                     "--channels", "2", "--fs", "250", "--duration", "1.0",
                     "--classes", "2", "--shift", "0", "--snr", "5", "--seed", "1",
                     "--out", str(raw)]) == 0
        out = tmp_path / "prep"
        # default notch 50 Hz and band 1-100 Hz are valid at fs=250
        assert main(["preprocess", "--data", str(raw), "--out", str(out)]) == 0
        assert load_trialset(out / "S01_s1.tsc").fs == 250.0

    def test_unknown_channel_runtime_error(self, data_dir, tmp_path, capsys):
        code = main(["preprocess", "--data", str(data_dir), "--notch", "10",
                     "--low", "1", "--high", "14", "--channels", "FC1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "FC1" in capsys.readouterr().err

    def test_band_above_nyquist_runtime_error(self, data_dir, tmp_path, capsys):
        code = main(["preprocess", "--data", str(data_dir), "--notch", "10",
                     "--low", "1", "--high", "100", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "Nyquist" in capsys.readouterr().err


class TestTrain:
    def test_writes_artifacts_and_split_line(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_dir), "--model", "scsn-mmd",
                     "--lambda", "1.0", *TRAIN_FLAGS, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "split: train=28 val=4 test=4" in printed
        for name in ("model.ckpt", "report.csv", "summary.txt", "manifest.txt"):
            assert (out / name).exists()

    def test_sessions_the_split_does_not_use_are_freed(self, data_dir, tmp_path, monkeypatch):
        # the trial arrays alive when training starts: each source's first
        # session and the target's second (its validation and test views)
        loaded, alive = {}, set()
        real_load, real_train = cli.load_trialset, cli.train

        def load(path, **kwargs):
            ts = real_load(path, **kwargs)
            owner = ts.data
            while isinstance(owner.base, np.ndarray):  # views keep their owner alive
                owner = owner.base
            loaded[path.name] = weakref.ref(owner)
            return ts

        def train(*args, **kwargs):
            gc.collect()
            alive.update(name for name, ref in loaded.items() if ref() is not None)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "load_trialset", load)
        monkeypatch.setattr(cli, "train", train)
        assert main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     "--out", str(tmp_path / "run")]) == 0
        assert alive == {"S01_s2.tsc", "S02_s1.tsc"}

    def test_scsn_single_regime_usage_error(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data_dir), "--model", "scsn",
                  "--regime", "single", *TRAIN_FLAGS, "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lr", "nan"),
                                             ("--lr", "inf")])
    def test_non_finite_rate_is_a_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(tmp_path), "--model", "scsn-mmd", *TRAIN_FLAGS,
                  flag, value, "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert f"{value} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.0", "-0.1", "nan"])
    def test_dropout_outside_unit_interval_is_a_usage_error(self, data_dir, tmp_path, capsys,
                                                             monkeypatch, value):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                  "--dropout", value, "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert f"argument --dropout: {float(value)} is outside [0, 1)" in capsys.readouterr().err
        assert loads == []

    def test_patience_beyond_epochs_is_a_usage_error(self, data_dir, tmp_path, capsys,
                                                     monkeypatch):
        # --patience defaults to 20, so a short run without it is refused
        # before any session loads
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        flags = TRAIN_FLAGS[:TRAIN_FLAGS.index("--patience")] \
            + TRAIN_FLAGS[TRAIN_FLAGS.index("--patience") + 2:]
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data_dir), "--model", "scsn", *flags,
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert "--patience 20 exceeds --epochs 3" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("overlap", ["1.0", "1.5"])
    def test_overlap_not_shorter_than_window_is_a_usage_error(self, data_dir, tmp_path,
                                                              capsys, monkeypatch, overlap):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        train_argv = ["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                      "--overlap", overlap, "--out", str(tmp_path / "x")]
        eval_argv = ["eval", "--ckpt", str(tmp_path / "c"), "--data", str(data_dir),
                     "--target", "S01", "--win", "1.0", "--overlap", overlap,
                     "--out", str(tmp_path / "y")]
        for argv in (train_argv, eval_argv):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv[0]
            assert f"--overlap {float(overlap)} must be shorter than --win 1.0" \
                in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("flags, message", [
        (["--win", "2.0"], "window exceeds the trial duration"),
        (["--pool-width", "29"], "pool width 29 exceeds the temporal-conv output (28 samples)"),
    ], ids=["win-longer-than-trials", "pool-beyond-conv-output"])
    def test_crop_and_pool_that_do_not_fit_fail_before_the_split(
            self, data_dir, tmp_path, capsys, monkeypatch, flags, message):
        splits = []
        monkeypatch.setattr(cli, "make_splits", lambda *args: splits.append(args))
        code = main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: subject 'S01' session 1: {message}" in capsys.readouterr().err
        assert splits == []

    def test_eval_window_longer_than_trials_fails_before_the_split(
            self, data_dir, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--out", str(run)]) == 0
        splits = []
        monkeypatch.setattr(cli, "make_splits", lambda *args: splits.append(args))
        code = main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                     "--target", "S01", "--win", "2.0", "--overlap", "1.0",
                     "--out", str(tmp_path / "y")])
        assert code == 1
        assert "error: subject 'S01' session 1: window exceeds the trial duration" \
            in capsys.readouterr().err
        assert splits == []

    def test_default_flags_build_the_default_config(self):
        ns = build_parser().parse_args(["train", "--data", "d", "--target", "S01",
                                        "--model", "scsn", "--out", "o"])
        assert cli._train_config(ns, 0) == TrainConfig(seed=0)

    def test_lambda_zero_matches_plain_scsn(self, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--data", str(data_dir), "--model", "scsn-mmd",
                     "--lambda", "0", *TRAIN_FLAGS, "--out", str(a)]) == 0
        assert main(["train", "--data", str(data_dir), "--model", "scsn",
                     *TRAIN_FLAGS, "--out", str(b)]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        for line_a, line_b in zip((a / "summary.txt").read_text().splitlines(),
                                  (b / "summary.txt").read_text().splitlines()):
            if not line_a.startswith("model_kind"):
                assert line_a == line_b


class TestEvalAndReport:
    def _train(self, data_dir, out, model="baseline", regime="single", seed="1"):
        flags = [f if f != "1" or TRAIN_FLAGS[TRAIN_FLAGS.index(f) - 1] != "--seed" else seed
                 for f in TRAIN_FLAGS]
        assert main(["train", "--data", str(data_dir), "--model", model,
                     "--regime", regime, *flags, "--out", str(out)]) == 0

    def test_eval_matches_training_metrics(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        self._train(data_dir, run)
        fields = dict(line.split("=", 1)
                      for line in (run / "summary.txt").read_text().splitlines())
        out = tmp_path / "eval"
        code = main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                     "--target", "S01", "--calib", "4", "--val", "4:8", "--test", "8:12",
                     "--win", "1.0", "--overlap", "0.5", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"crop_accuracy={fields['test_crop_accuracy']}" in printed
        assert f"trial_accuracy={fields['test_trial_accuracy']}" in printed

    def test_eval_missing_checkpoint(self, data_dir, tmp_path, capsys):
        code = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"), "--data", str(data_dir),
                     "--target", "S01", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_report_aggregates_runs(self, data_dir, tmp_path, capsys):
        single, multi = tmp_path / "single", tmp_path / "multi"
        self._train(data_dir, single, regime="single")
        self._train(data_dir, multi, regime="multi")
        out = tmp_path / "rep"
        code = main(["report", "--runs", str(single), str(multi), "--out", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "model,subject,single,multi,delta"
        data_row = lines[1].split(",")
        assert data_row[:2] == ["baseline", "S01"]
        single_acc, multi_acc, delta = (float(v) for v in data_row[2:])
        assert abs(delta - (multi_acc - single_acc)) < 1e-12
        mean_row = lines[2].split(",")
        assert mean_row[1] == "mean"

    @pytest.mark.parametrize("lines, field", [
        (["regime=multi", "target_subject=S01", "stray", "test_trial_accuracy=0.5"], "stray"),
        (["target_subject=S01", "test_trial_accuracy=0.5"], "regime"),
        (["regime=multi", "test_trial_accuracy=0.5"], "target_subject"),
        (["regime=multi", "target_subject=S01", "test_crop_accuracy=0.5"],
         "test_trial_accuracy"),
        (["regime=multi", "target_subject=S01", "test_trial_accuracy=high"],
         "test_trial_accuracy"),
    ], ids=["no_equals", "no_regime", "no_target", "no_accuracy", "non_numeric"])
    def test_report_names_file_and_field_of_a_bad_summary(self, tmp_path, capsys, lines, field):
        run = tmp_path / "run"
        run.mkdir()
        (run / "summary.txt").write_text("\n".join(["model_kind=scsn", *lines]) + "\n")
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert str(run / "summary.txt") in err and field in err, err

    def test_report_refuses_a_summary_that_names_no_model(self, tmp_path, capsys):
        # listed as model "unknown" before
        run = tmp_path / "run"
        run.mkdir()
        (run / "summary.txt").write_text(
            "regime=multi\ntarget_subject=S01\ntest_trial_accuracy=0.5\n")
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert f"{run / 'summary.txt'}: field model_kind is missing" in err, err


class TestRerun:
    def test_synth_rerun_verifies(self, data_dir, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        code = main(["rerun", str(data_dir / "manifest.txt"), "--out", str(fresh)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("ok\t") == 4
        for name, digest in read_manifest(data_dir / "manifest.txt")["outputs"]:
            assert sha256_file(fresh / name) == digest

    def test_preprocess_rerun_verifies(self, data_dir, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert main(["preprocess", "--data", str(data_dir), "--notch", "10", "--low", "1",
                     "--high", "14", "--channels", "ch02,ch00", "--out", str(prep)]) == 0
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        assert main(["rerun", str(prep / "manifest.txt"), "--out", str(fresh)]) == 0
        assert capsys.readouterr().out.count("ok\t") == 4
        for name, _ in read_manifest(prep / "manifest.txt")["outputs"]:
            assert (prep / name).read_bytes() == (fresh / name).read_bytes()

    def test_train_rerun_verifies(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "scsn-mmd",
                     "--lambda", "0.5", *TRAIN_FLAGS, "--out", str(run)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["rerun", str(run / "manifest.txt"), "--out", str(fresh)]) == 0
        for name in ("model.ckpt", "report.csv", "summary.txt"):
            assert (run / name).read_bytes() == (fresh / name).read_bytes()

    def test_rerun_detects_drift(self, data_dir, tmp_path, capsys):
        manifest = data_dir / "manifest.txt"
        text = manifest.read_text().replace("--seed=7", "--seed=8")
        manifest.write_text(text)
        code = main(["rerun", str(manifest), "--out", str(tmp_path / "fresh")])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["args", "command", "seed", "blas_threads"])
    def test_rerun_refuses_a_repeated_field(self, data_dir, tmp_path, capsys, field):
        # a second line of the field, changed: before, the later one won
        manifest = data_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        line = next(line for line in lines if line.startswith(f"{field}="))
        again = line.replace("--seed=7", "--seed=8") if field == "args" else line + "x"
        manifest.write_text("\n".join([*lines, again]) + "\n")
        fresh = tmp_path / "fresh"
        assert main(["rerun", str(manifest), "--out", str(fresh)]) == 1
        assert f"error: {manifest}: field {field} is given twice" in capsys.readouterr().err
        assert not fresh.exists()

    def test_manifest_refuses_a_field_that_would_not_read_back(self, tmp_path):
        # this args= line was written, and then read back with a second seed field
        with pytest.raises(ValueError, match="field 'args' may not hold a line break"):
            cli.write_manifest(tmp_path, "train", ["--subjects-note", "a\rseed=9"], 1, [], [])
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("note", ["a\rseed=9", "a\u2028b", "a\udcffb"],
                             ids=["carriage-return", "line-separator", "not-utf8"])
    def test_a_flag_the_manifest_cannot_hold_fails_before_any_load(
            self, data_dir, tmp_path, capsys, monkeypatch, note):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     "--subjects-note", note, "--out", str(run)]) == 1
        assert "error: field 'args' " in capsys.readouterr().err
        assert loads == [] and not run.exists()

    def test_a_flag_value_that_starts_with_a_dash_replays(self, data_dir, tmp_path, capsys):
        # recorded as "--subjects-note -x", which did not parse back
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--subjects-note=-x",
                     "--out", str(run)]) == 0
        assert "--subjects-note=-x" in read_manifest(run / "manifest.txt")["args"]
        capsys.readouterr()
        assert main(["rerun", str(run / "manifest.txt"), "--out", str(tmp_path / "fresh")]) == 0
        assert capsys.readouterr().out.count("ok\t") == 3

    def test_a_manifest_with_two_word_flags_replays(self, data_dir, tmp_path, capsys):
        # the args= line as earlier versions wrote it: "--flag value"
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     "--out", str(run)]) == 0
        manifest = run / "manifest.txt"
        info = read_manifest(manifest)
        two_words = shlex.join(word for arg in shlex.split(info["args"])
                               for word in arg.split("=", 1))
        assert "--out " + shlex.quote(str(run)) in two_words
        manifest.write_text(manifest.read_text().replace(info["args"], two_words))
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        assert main(["rerun", str(manifest), "--out", str(fresh)]) == 0
        assert capsys.readouterr().out.count("ok\t") == 3
        assert sorted(p.name for p in fresh.iterdir()) == \
            ["manifest.txt", "model.ckpt", "report.csv", "summary.txt"]

    def test_flags_that_do_not_parse_back_fail_before_any_work(self, tmp_path, capsys):
        # "--runs=-x" is recorded as "--runs -x", the list form
        out = tmp_path / "rep"
        assert main(["report", "--runs=-x", "--out", str(out)]) == 1
        assert "error: the recorded flags --runs -x " in capsys.readouterr().err
        assert not out.exists()

    def test_a_flag_that_would_replay_to_another_value_fails_before_any_load(
            self, data_dir, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        monkeypatch.setitem(cli._RENDER, cli._dims, lambda dims: "1")
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     "--out", str(run)]) == 1
        assert "error: flag(s) common_dims, separate_dims would not replay from " in \
            capsys.readouterr().err
        assert loads == [] and not run.exists()

    def test_manifest_keeps_every_input_and_output_line(self, data_dir):
        info = read_manifest(data_dir / "manifest.txt")
        assert [name for name, _ in info["outputs"]] == \
            ["S01_s1.tsc", "S01_s2.tsc", "S02_s1.tsc", "S02_s2.tsc"]
        assert info["command"] == "synth" and info["seed"] == "7"

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def test_manifest_records_the_blas_thread_setting(self, tmp_path, monkeypatch):
        for name in self.BLAS_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert main(SYNTH + ["--out", str(tmp_path / "data")]) == 0
        assert read_manifest(tmp_path / "data" / "manifest.txt")["blas_threads"] == \
            "OPENBLAS_NUM_THREADS=1 GOTO_NUM_THREADS= OMP_NUM_THREADS="

    @pytest.mark.parametrize("recorded, hinted", [
        ("OPENBLAS_NUM_THREADS=1 GOTO_NUM_THREADS= OMP_NUM_THREADS=", True),
        ("OPENBLAS_NUM_THREADS=2 GOTO_NUM_THREADS= OMP_NUM_THREADS=", False),
    ], ids=["other-setting", "same-setting"])
    def test_mismatch_names_a_changed_blas_setting(self, data_dir, tmp_path, monkeypatch,
                                                    capsys, recorded, hinted):
        for name in self.BLAS_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        manifest = data_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        out_at = next(i for i, line in enumerate(lines) if line.startswith("output="))
        lines[out_at] = lines[out_at].split("\t")[0] + "\t" + "0" * 64
        lines = [f"blas_threads={recorded}" if line.startswith("blas_threads=") else line
                 for line in lines]
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["rerun", str(manifest), "--out", str(tmp_path / "fresh")]) == 1
        err = capsys.readouterr().err
        assert "1 output(s) differ from the manifest" in err
        hint = (f"made with BLAS threads {recorded!r} and replayed with "
                "'OPENBLAS_NUM_THREADS=2 GOTO_NUM_THREADS= OMP_NUM_THREADS='")
        assert (hint in err) == hinted, err

    def test_inputs_hashed_when_loaded(self, data_dir, tmp_path, monkeypatch, capsys):
        # a container replaced while training runs: the manifest keeps the
        # digest of the bytes the model was trained on
        real_train = cli.train
        raw = data_dir / "S02_s1.tsc"

        def replacing_train(*args, **kwargs):
            blob = raw.read_bytes()
            raw.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", replacing_train)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--out", str(run)]) == 0
        monkeypatch.setattr(cli, "train", real_train)
        capsys.readouterr()
        assert main(["rerun", str(run / "manifest.txt"), "--out", str(tmp_path / "fresh")]) == 1
        err = capsys.readouterr().err
        assert f"input differs from the manifest: {raw}" in err
        assert "S01_s1.tsc" not in err

    @pytest.mark.parametrize("command", ["preprocess", "train", "eval", "report"])
    def test_manifest_names_the_bytes_each_input_was_parsed_from(self, data_dir, tmp_path,
                                                                 monkeypatch, command):
        # each input is rewritten as soon as its loader returns, before the
        # command could read it again; the manifest keeps the parsed bytes'
        # digests
        run, out = tmp_path / "run", tmp_path / "out"
        assert main(["train", "--data", str(data_dir), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--out", str(run)]) == 0
        argv = {"preprocess": ["preprocess", "--data", str(data_dir), "--notch", "10",
                               "--low", "1", "--high", "14"],
                "train": ["train", "--data", str(data_dir), "--model", "baseline",
                          "--regime", "single", *TRAIN_FLAGS],
                "eval": ["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                         *TRAIN_FLAGS[:12]],
                "report": ["report", "--runs", str(run)]}[command]
        files = [*data_dir.glob("*.tsc"), run / "model.ckpt", run / "summary.txt"]
        parsed = {str(path): sha256_file(path) for path in files}

        def rewriting(load):
            def loader(path, *args, **kwargs):
                value = load(path, *args, **kwargs)
                blob = Path(path).read_bytes()
                Path(path).write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
                return value
            return loader

        for name in ("load_trialset", "load_checkpoint", "_summary_row"):
            monkeypatch.setattr(cli, name, rewriting(getattr(cli, name)))
        assert main([*argv, "--out", str(out)]) == 0
        inputs = read_manifest(out / "manifest.txt")["inputs"]
        assert len(inputs) == {"preprocess": 4, "train": 4, "eval": 5, "report": 1}[command]
        for name, digest in inputs:
            assert digest == parsed[name] != sha256_file(name), name

    def test_rerun_checks_inputs_first(self, data_dir, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert main(["preprocess", "--data", str(data_dir), "--notch", "10", "--low", "1",
                     "--high", "14", "--out", str(prep)]) == 0
        raw = data_dir / "S02_s1.tsc"
        blob = raw.read_bytes()
        raw.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        assert main(["rerun", str(prep / "manifest.txt"), "--out", str(fresh)]) == 1
        err = capsys.readouterr().err
        assert str(raw) in err and "S01_s1.tsc" not in err
        assert not fresh.exists()


@pytest.mark.parametrize("model", [["--model", "scsn-mmd", "--lambda", "1"],
                                   ["--model", "baseline", "--regime", "multi"]],
                         ids=["scsn-mmd", "baseline-multi"])
def test_outputs_do_not_depend_on_the_conv_worker_count(tmp_path, monkeypatch, model):
    # batches of 12 crops per branch (24 pooled for the baseline) span
    # several conv_log_power chunks, so size 2 runs them on the worker pool
    data = tmp_path / "data"
    assert main(["synth", "--subjects", "2", "--sessions", "2", "--trials", "12",
                 "--channels", "3", "--fs", "32", "--duration", "2.0", "--classes", "2",
                 "--seed", "7", "--out", str(data)]) == 0
    flags = ["--target", "S01", "--calib", "4", "--val", "4:8", "--test", "8:12",
             "--win", "1.0", "--overlap", "0.75", "--batch", "12", "--epochs", "2",
             "--patience", "2", "--temporal-filters", "2", "--temporal-kernel", "5",
             "--pool-width", "4", "--pool-stride", "3", "--common-dims", "4,4,4",
             "--separate-dims", "3,3,3", "--seed", "1"]
    pooled = []
    real_executor = ad._executor

    def executor(workers):
        pooled.append(workers)
        return real_executor(workers)

    monkeypatch.setattr(ad, "_executor", executor)
    outputs = {}
    for size in (1, 2):
        monkeypatch.setattr(ad, "_pool_size", lambda size=size: size)
        out = tmp_path / f"run{size}"
        assert main(["train", "--data", str(data), *model, *flags, "--out", str(out)]) == 0
        outputs[size] = {name: (out / name).read_bytes()
                         for name in ("model.ckpt", "report.csv", "summary.txt")}
    assert pooled and set(pooled) == {2}
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", NON_DEFAULT_ARGV, ids=lambda argv: argv[0])
def test_replay_args_round_trip(argv):
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {a[0] for a in NON_DEFAULT_ARGV} == set(commands) - {"rerun"}
    ns = parser.parse_args(argv)
    args = replay_args(ns, parser)
    assert parser.parse_args([argv[0], *args]) == ns
    for action in commands[argv[0]]._actions:
        if action.option_strings and action.dest != "help":
            assert getattr(ns, action.dest) != action.default, action.dest
            flag = action.option_strings[0]
            assert sum(a == flag or a.startswith(f"{flag}=") for a in args) == 1, action.dest


# the required flags of each manifest-writing command
REQUIRED_ARGV = {"synth": ["--out=o"], "preprocess": ["--data=d", "--out=o"],
                 "train": ["--data=d", "--target=S01", "--model=scsn", "--out=o"],
                 "eval": ["--ckpt=c", "--data=d", "--target=S01", "--out=o"],
                 "report": ["--runs", "a", "--out=o"]}
ODD_VALUES = st.one_of(st.text(max_size=8), st.sampled_from(
    ["-x", "--out", "-1", "--", "=", "a=b", "'", '"', " a b ", "-x y", "\u00e9", "-0.0",
     "1e-5", "0", "7", "1:2", " 1:2", "3,4", "3, 4", "a\rb", "a\u2028b"]))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_run_that_starts_replays(data):
    # a flag value is either a usage error, or refused before any work
    # because the args= line cannot hold it, a list value reads as a flag, or
    # argparse dropped it ("--flag=--" stores an empty list); otherwise the
    # recorded argv parses back to the same values
    parser = build_parser()
    command = data.draw(st.sampled_from(sorted(REQUIRED_ARGV)))
    actions = [a for a in next(a for a in parser._actions
                               if isinstance(a, argparse._SubParsersAction)
                               ).choices[command]._actions
               if a.option_strings and a.dest != "help"]
    action = data.draw(st.sampled_from(actions))
    flag = action.option_strings[0]
    if action.nargs == "+":
        values = data.draw(st.lists(ODD_VALUES, min_size=1, max_size=3))
        words = data.draw(st.sampled_from([[flag, *values], [f"{flag}={values[0]}"]]))
    else:
        words = [f"{flag}={data.draw(ODD_VALUES)}"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ns = parser.parse_args([command, *REQUIRED_ARGV[command], *words])
    except SystemExit:
        return  # a usage error: the run never starts
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli._check_replay(ns, parser)
    except ValueError as err:
        assert "may not hold a line break or non-UTF-8 text" in str(err) \
            or "--" in words or f"{flag}=--" in words \
            or (action.nargs == "+" and any(v.startswith("-") for v in ns.runs)), err
        return
    back = vars(parser.parse_args([command, *replay_args(ns, parser)]))
    want = vars(ns)
    if "seed" in want and want["seed"] is None:  # recorded resolved
        want = want | {"seed": cli._resolve_seed(None)}
    assert back == want
