import argparse
import contextlib
import gc
import io
import os
import re
import shlex
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsnet import autodiff as ad
from scsnet import cli
from scsnet.cli import build_parser, main, read_manifest, replay_args, sha256_file
from scsnet.datasets import load_trialset, save_trialset
from scsnet.models import BaselineConfig, build_baseline, load_checkpoint, save_checkpoint
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
     "--separate-dims", "2,3,4", "--seed", "3", "--out", "o"],
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

    def test_one_channel_is_refused(self, tmp_path, capsys):
        # one channel cannot hold a class pattern's channel pair: synth wrote
        # class-free noise and exited 0
        argv = list(SYNTH)
        argv[argv.index("--channels") + 1] = "1"
        out = tmp_path / "one"
        assert main(argv + ["--out", str(out)]) == 1
        assert "error: n_channels must be at least 2, got 1" in capsys.readouterr().err
        assert list(out.glob("*.tsc")) == []

    @pytest.mark.parametrize("duration", ["0.04", "0.25"])
    def test_duration_of_no_whole_number_of_samples_is_refused(self, tmp_path, capsys,
                                                               duration):
        # at 10 Hz, 0.04 s wrote trials of 0 samples and 0.25 s trials of 2
        out = tmp_path / "x"
        assert main(["synth", "--subjects", "2", "--trials", "4", "--channels", "2",
                     "--fs", "10", "--duration", duration, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: duration_s of {duration} s is not a "
                                           "whole number of samples at fs=10.0\n")
        assert list(out.glob("*.tsc")) == []

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

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_seed_defaults_to_zero(self, data_dir, tmp_path, command):
        argv = (SYNTH if command == "synth" else
                ["train", "--data", str(data_dir), "--model", "baseline", "--regime", "single",
                 *TRAIN_FLAGS])
        out = tmp_path / "x"
        assert main([*argv[:-2], "--out", str(out)]) == 0
        info = read_manifest(out / "manifest.txt")
        assert "--seed=0" in shlex.split(info["args"]) and info["seed"] == "0"


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

    def test_channel_given_twice_runtime_error(self, data_dir, tmp_path, capsys):
        code = main(["preprocess", "--data", str(data_dir), "--notch", "10",
                     "--low", "1", "--high", "14", "--channels", "ch00,ch00",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: channel 'ch00' is given more than once" in capsys.readouterr().err

    def test_unknown_channel_runtime_error(self, data_dir, tmp_path, capsys):
        code = main(["preprocess", "--data", str(data_dir), "--notch", "10",
                     "--low", "1", "--high", "14", "--channels", "FC1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        # a KeyError printed its message as a quoted repr
        assert capsys.readouterr().err == "error: unknown channel(s): FC1\n"

    def test_band_above_nyquist_runtime_error(self, data_dir, tmp_path, capsys):
        code = main(["preprocess", "--data", str(data_dir), "--notch", "10",
                     "--low", "1", "--high", "100", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "Nyquist" in capsys.readouterr().err

    def test_trials_too_short_for_the_filters_name_the_container(self, tmp_path, capsys):
        # 16-sample trials failed in scipy's filtfilt, which named no file
        raw, out = tmp_path / "raw", tmp_path / "prep"
        assert main([*SYNTH[:9], "--fs", "32", "--duration", "0.5", *SYNTH[13:],
                     "--out", str(raw)]) == 0
        capsys.readouterr()
        assert main(["preprocess", "--data", str(raw), "--notch", "12", "--low", "1",
                     "--high", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {raw / 'S01_s1.tsc'}: trials of 16 samples "
                                           "are too short for the filters, which need at "
                                           "least 28\n")
        assert list(out.glob("*.tsc")) == []


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

    @pytest.mark.parametrize("old, new, message", [
        ("S01_s2.tsc", "S01_s01.tsc", "containers 'S01_s01.tsc' and 'S01_s1.tsc' are both "
                                      "session 1 of subject 'S01'"),
        ("S01_s2.tsc", "S01_s3.tsc", "subject 'S01' has no session 2: sessions must be "
                                     "numbered 1..2"),
        ("S02_s1.tsc", "S02_s0.tsc", "subject 'S02' has no session 1: sessions must be "
                                     "numbered 1..2"),
    ], ids=["s1-and-s01", "gap", "from-zero"])
    def test_refuses_ambiguous_session_numbers(self, data_dir, tmp_path, capsys, old, new,
                                               message):
        (data_dir / old).rename(data_dir / new)
        assert main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_subjects_note_is_not_a_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(tmp_path), "--model", "scsn", *TRAIN_FLAGS,
                  "--subjects-note", "x", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert "unrecognized arguments: --subjects-note x" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--separate-dims", "1,2", "separate_fc_dims must have exactly 3 entries"),
        ("--common-dims", "0", "dense widths must be positive")])
    def test_malformed_dense_widths_fail_before_any_load(self, data_dir, tmp_path, capsys,
                                                         monkeypatch, flag, value, message):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                  flag, value, "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert loads == [] and not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("model", ["scsn", "baseline"])
    def test_source_trials_shorter_than_the_window_name_the_subject(
            self, data_dir, tmp_path, capsys, model):
        # a source's sessions are not checked before the split; its crop pool
        # refused them without naming the subject
        for k in (1, 2):
            path = data_dir / f"S02_s{k}.tsc"
            ts = load_trialset(path)
            save_trialset(replace(ts, data=ts.data[:, :, :16]), path)
        code = main(["train", "--data", str(data_dir), "--model", model, *TRAIN_FLAGS,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: subject 'S02': window exceeds the trial duration" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [("--val", "4:4", "validation"),
                                                   ("--test", "8:8", "test")])
    def test_an_empty_range_fails_before_any_work(self, data_dir, tmp_path, capsys,
                                                  monkeypatch, flag, value, name):
        # an empty test range trained every epoch, then exited 1 and wrote nothing
        calls = []
        monkeypatch.setattr(cli, "load_trialset", lambda *args, **kwargs: calls.append("load"))
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append("train"))
        flags = list(TRAIN_FLAGS)
        flags[flags.index(flag) + 1] = value
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data_dir), "--model", "scsn", *flags,
                  "--out", str(out)])
        assert err.value.code == 2
        assert f"the {name} range {value} is empty" in capsys.readouterr().err
        assert calls == [] and not out.exists()

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
        assert cli._train_config(ns) == TrainConfig(seed=0)

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

    def test_eval_refuses_a_window_that_is_not_the_models_input(self, data_dir, tmp_path,
                                                                capsys):
        run = tmp_path / "run"
        self._train(data_dir, run)  # 1 s crops at 32 Hz: a 32-sample input
        code = main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                     "--target", "S01", "--calib", "4", "--val", "4:8", "--test", "8:12",
                     "--win", "0.75", "--overlap", "0.5", "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "error: crops are 24 samples wide, but the model's input is 32 samples" \
            in capsys.readouterr().err

    def test_eval_takes_the_checkpoints_window_and_overlap(self, data_dir, tmp_path,
                                                          capsys):
        run = tmp_path / "run"
        self._train(data_dir, run)  # --win 1.0 --overlap 0.5
        fields = dict(line.split("=", 1)
                      for line in (run / "summary.txt").read_text().splitlines())
        out = tmp_path / "eval"
        assert main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                     *TRAIN_FLAGS[:8], "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"crop_accuracy={fields['test_crop_accuracy']}" in printed
        assert f"trial_accuracy={fields['test_trial_accuracy']}" in printed
        assert "--win" not in read_manifest(out / "manifest.txt")["args"]
        assert main(["rerun", str(out / "manifest.txt"), "--out", str(tmp_path / "fresh")]) == 0
        assert capsys.readouterr().out.endswith("\nok\tsummary.txt\n")

    @pytest.mark.parametrize("flags, message", [
        (["--win", "1.0", "--overlap", "0.25"], "--overlap 0.25 differs from the 0.5"),
        (["--overlap", "0.75"], "--overlap 0.75 differs from the 0.5"),
    ], ids=["overlap", "overlap-alone"])
    def test_eval_refuses_crops_other_than_the_checkpoints(self, data_dir, tmp_path, capsys,
                                                           flags, message):
        # crops of the model's width, at another stride than it trained on
        run = tmp_path / "run"
        self._train(data_dir, run)
        code = main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                     *TRAIN_FLAGS[:8], *flags, "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {message} that {run / 'model.ckpt'} was trained with\n"
        assert not (tmp_path / "eval" / "summary.txt").exists()

    @pytest.mark.parametrize("flags, win, overlap", [
        (["--overlap", "1.0"], 1.0, 1.0), (["--win", "0.5"], 0.5, 0.5),
    ], ids=["overlap-alone", "win-alone"])
    def test_eval_refuses_an_overlap_not_shorter_than_the_resolved_window(
            self, data_dir, tmp_path, capsys, monkeypatch, flags, win, overlap):
        # one flag with the checkpoint's other value loaded both containers,
        # then exited 1 when the crops did not fit the session
        run = tmp_path / "run"
        self._train(data_dir, run)  # --win 1.0 --overlap 0.5
        capsys.readouterr()
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        with pytest.raises(SystemExit) as err:
            main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data_dir),
                  *TRAIN_FLAGS[:8], *flags, "--out", str(tmp_path / "eval")])
        assert err.value.code == 2
        assert f"--overlap {overlap} must be shorter than --win {win}" \
            in capsys.readouterr().err
        assert loads == [] and not (tmp_path / "eval").exists()

    def test_eval_of_a_checkpoint_without_crops_takes_train_defaults(self, tmp_path, capsys):
        # a checkpoint saved without meta: 2 s crops with 1.9 s overlap, as
        # TrainConfig's defaults, of 2.5 s trials at 40 Hz (6 crops each)
        data = tmp_path / "data"
        assert main([*SYNTH[:9], "--fs", "40", "--duration", "2.5", *SYNTH[13:],
                     "--out", str(data)]) == 0
        defaults = TrainConfig()
        base = BaselineConfig(n_channels=3, n_samples=round(defaults.win_s * 40), n_classes=2,
                              temporal_filters=2, temporal_kernel=5, pool_width=4,
                              pool_stride=3)
        save_checkpoint(build_baseline(base, seed=0), tmp_path / "model.ckpt")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(data),
                     *TRAIN_FLAGS[:8], "--out", str(tmp_path / "eval")]) == 0
        assert "crop_accuracy=" in capsys.readouterr().out
        assert main(["eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(data),
                     *TRAIN_FLAGS[:8], "--overlap", "1.0", "--out", str(tmp_path / "eval")]) == 0

    @pytest.mark.parametrize("counts, message", [
        (dict(n_classes=4), "the trials' class_names hold 2 names, but the model takes 4"),
        (dict(n_channels=6), "the trials' channel_names hold 3 names, but the model takes 6"),
    ], ids=["classes", "channels"])
    def test_eval_refuses_data_of_another_class_or_channel_count(self, data_dir, tmp_path,
                                                                 capsys, counts, message):
        # 2-class data under a 4-class model decoded and exited 0; 3-channel
        # data under a 6-channel model failed in the spatial conv's extents
        base = BaselineConfig(**{**dict(n_channels=3, n_samples=32, n_classes=2,
                                        temporal_filters=2, temporal_kernel=5, pool_width=4,
                                        pool_stride=3), **counts})
        save_checkpoint(build_baseline(base, seed=0), tmp_path / "model.ckpt")
        code = main(["eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(data_dir),
                     *TRAIN_FLAGS[:12], "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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


class TestSessionsRead:
    # the containers each command loads, as its manifest lists them: a
    # multi-regime train reads every subject's session 1 and the target's
    # session 2; a single-regime train and eval the target's two sessions only
    READ = {"train": ["S01_s1.tsc", "S01_s2.tsc", "S02_s1.tsc"],
            "train-single": ["S01_s1.tsc", "S01_s2.tsc"],
            "eval": ["S01_s1.tsc", "S01_s2.tsc"]}

    @pytest.fixture()
    def ckpt(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--out", str(run)]) == 0
        return run / "model.ckpt"

    def _argv(self, command, data_dir, ckpt, out, flags=TRAIN_FLAGS):
        if command == "train":
            return ["train", "--data", str(data_dir), "--model", "scsn", *flags,
                    "--out", str(out)]
        if command == "train-single":
            return ["train", "--data", str(data_dir), "--model", "baseline",
                    "--regime", "single", *flags, "--out", str(out)]
        return ["eval", "--ckpt", str(ckpt), "--data", str(data_dir), *flags[:12],
                "--out", str(out)]

    @pytest.mark.parametrize("command", ["train", "train-single", "eval"])
    def test_only_the_sessions_the_split_uses_are_loaded(self, data_dir, tmp_path, ckpt,
                                                          monkeypatch, command):
        # each loaded all four containers, eval only to decode S01_s2's tests;
        # a single-regime train then read, hashed and recorded S02_s1 as well,
        # and named S02 among the subjects it trained on
        loads, real_load = [], cli.load_trialset
        monkeypatch.setattr(cli, "load_trialset",
                            lambda path, **kw: loads.append(path.name) or real_load(path, **kw))
        out = tmp_path / "out"
        assert main(self._argv(command, data_dir, ckpt, out)) == 0
        assert sorted(loads) == self.READ[command]  # a pool may load them in any order
        inputs = [Path(name).name for name, _ in read_manifest(out / "manifest.txt")["inputs"]]
        assert inputs == (["model.ckpt"] if command == "eval" else []) + self.READ[command]
        if command != "eval":
            _, meta = load_checkpoint(out / "model.ckpt")
            subjects = sorted({name.rpartition("_s")[0] for name in inputs})
            assert meta["subjects"] == ",".join(subjects)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_bad_container_the_split_does_not_use_is_not_read(self, data_dir, tmp_path,
                                                                ckpt, command):
        bad = data_dir / "S02_s2.tsc"
        bad.write_bytes(bad.read_bytes()[:-1])
        assert main(self._argv(command, data_dir, ckpt, tmp_path / "out")) == 0

    @pytest.mark.parametrize("change, message", [
        ("channels", "subject 'S01': sessions 1 and 2 differ in channel_names"),
        ("no-second-session", "target subject 'S01' has no second session"),
        ("unknown-target", "target subject 'S03' not in datasets"),
        ("past-the-session", "test_range exceeds the second session size (12)"),
    ])
    def test_eval_keeps_the_refusals_about_the_target(self, data_dir, tmp_path, ckpt, capsys,
                                                      change, message):
        flags = list(TRAIN_FLAGS)
        second = data_dir / "S01_s2.tsc"
        if change == "channels":
            save_trialset(replace(load_trialset(second), channel_names=["a", "b", "c"]), second)
        elif change == "no-second-session":
            second.unlink()
        elif change == "unknown-target":
            flags[flags.index("--target") + 1] = "S03"
        else:
            flags[flags.index("--test") + 1] = "8:13"
        out = tmp_path / "out"
        assert main(self._argv("eval", data_dir, ckpt, out, flags)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "summary.txt").exists()


    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("change, message", [
        ("no-second-session", "target subject 'S01' has no second session"),
        ("unknown-target", "target subject 'S09' not in datasets"),
    ], ids=["no-second-session", "unknown-target"])
    def test_a_target_the_names_refuse_loads_nothing(self, data_dir, tmp_path, ckpt, capsys,
                                                      monkeypatch, command, change, message):
        # both loaded the sources' or the target's containers and created
        # --out before the split refused the target
        flags = list(TRAIN_FLAGS)
        if change == "no-second-session":
            (data_dir / "S01_s2.tsc").unlink()
        else:
            flags[flags.index("--target") + 1] = "S09"
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        out = tmp_path / "out"
        assert main(self._argv(command, data_dir, ckpt, out, flags)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == [] and not out.exists()


class TestRerun:
    def test_refuses_an_out_that_holds_a_file(self, data_dir, tmp_path, capsys, monkeypatch):
        # a replay into the run's own directory rewrote its containers and
        # its manifest, so a mismatch would have lost what it was checked
        # against
        before = {path.name: path.read_bytes() for path in data_dir.iterdir()}
        hashed = []
        monkeypatch.setattr(cli, "sha256_file", lambda path: hashed.append(path))
        assert main(["rerun", str(data_dir / "manifest.txt"), "--out", str(data_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: --out {data_dir} is not a fresh directory: it holds S01_s1.tsc\n"
        assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == before
        assert hashed == []  # refused before the input check
        monkeypatch.undo()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["rerun", str(data_dir / "manifest.txt"), "--out", str(empty)]) == 0

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
            cli.write_manifest(tmp_path, "train", ["--target", "a\rseed=9"], 1, [], [])
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("note", ["a\rseed=9", "a\u2028b", "a\udcffb"],
                             ids=["carriage-return", "line-separator", "not-utf8"])
    def test_a_flag_the_manifest_cannot_hold_fails_before_any_load(
            self, data_dir, tmp_path, capsys, monkeypatch, note):
        loads = []
        monkeypatch.setattr(cli, "load_trialset", lambda path, **kw: loads.append(path))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                     "--target", note, "--out", str(run)]) == 1
        assert "error: field 'args' " in capsys.readouterr().err
        assert loads == [] and not run.exists()

    def test_a_flag_value_that_starts_with_a_dash_replays(self, data_dir, tmp_path, capsys,
                                                           monkeypatch):
        # recorded as "--out -x", which did not parse back
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--data", str(data_dir), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--out=-x"]) == 0
        assert "--out=-x" in read_manifest(tmp_path / "-x" / "manifest.txt")["args"]
        capsys.readouterr()
        assert main(["rerun", str(tmp_path / "-x" / "manifest.txt"),
                     "--out", str(tmp_path / "fresh")]) == 0
        assert capsys.readouterr().out.count("ok\t") == 3

    def test_refuses_a_manifest_whose_flags_no_longer_parse(self, data_dir, tmp_path, capsys,
                                                             monkeypatch):
        # a train manifest of an earlier version records --subjects-note,
        # a flag train no longer has
        manifest = data_dir / "manifest.txt"
        manifest.write_text(re.sub(r"^(args=.*)$", r"\1 --bogus=1", manifest.read_text(),
                                   flags=re.M))
        hashed = []
        monkeypatch.setattr(cli, "sha256_file", lambda path: hashed.append(path))
        fresh = tmp_path / "fresh"
        assert main(["rerun", str(manifest), "--out", str(fresh)]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --bogus=1" in err
        assert err.endswith(f"error: {manifest}: the recorded flags no longer parse\n")
        assert hashed == [] and not fresh.exists()

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
                     "--regime", "multi", *TRAIN_FLAGS, "--out", str(run)]) == 0
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
                          "--regime", "multi", *TRAIN_FLAGS],
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
        assert len(inputs) == {"preprocess": 4, "train": 3, "eval": 3, "report": 1}[command]
        for name, digest in inputs:
            assert digest == parsed[name] != sha256_file(name), name

    def test_manifest_digests_are_of_the_bytes_written(self, data_dir, tmp_path,
                                                      monkeypatch):
        # no command reads an output back to hash it: each manifest digest is
        # that of the bytes the command wrote
        def refuse(path):
            raise AssertionError(f"{path} was read back to be hashed")

        monkeypatch.setattr(cli, "sha256_file", refuse)
        runs = {name: tmp_path / name for name in ("synth", "prep", "train", "eval", "report")}
        for argv in (
                [*SYNTH, "--out", str(runs["synth"])],
                ["preprocess", "--data", str(data_dir), "--notch", "10", "--low", "1",
                 "--high", "14", "--out", str(runs["prep"])],
                ["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS,
                 "--out", str(runs["train"])],
                ["eval", "--ckpt", str(runs["train"] / "model.ckpt"), "--data", str(data_dir),
                 *TRAIN_FLAGS[:12], "--out", str(runs["eval"])],
                ["report", "--runs", str(runs["train"]), "--out", str(runs["report"])]):
            assert main(argv) == 0, argv
        monkeypatch.undo()
        counts = {}
        for name, run in runs.items():
            outputs = read_manifest(run / "manifest.txt")["outputs"]
            counts[name] = len(outputs)
            for output, digest in outputs:
                assert digest == sha256_file(run / output), (name, output)
        assert counts == {"synth": 4, "prep": 4, "train": 3, "eval": 1, "report": 2}

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
    # several conv_log_power_branches work items, so size 2 runs them on the
    # worker pool
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


def _outputs_and_digests(root: Path) -> dict:
    """Every file's bytes under `root`, but each manifest as its input and
    output lines, with `root` cut out of the input paths."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.name == "manifest.txt":
            info = read_manifest(path)
            files[path.relative_to(root)] = (
                [(str(Path(name).relative_to(root)), digest) for name, digest in info["inputs"]],
                info["outputs"])
        elif path.is_file():
            files[path.relative_to(root)] = path.read_bytes()
    return files


def test_set_up_outputs_do_not_depend_on_the_pool_size(tmp_path, monkeypatch):
    # synth's sessions, preprocess's containers and the containers train and
    # eval read are pool items: the same bytes and digests at either size
    pooled = []
    real_executor = ad._executor

    def executor(workers):
        pooled.append(workers)
        return real_executor(workers)

    monkeypatch.setattr(ad, "_executor", executor)
    outputs = {}
    for size in (1, 2):
        monkeypatch.setattr(ad, "_pool_size", lambda size=size: size)
        root = tmp_path / f"size{size}"
        assert main(SYNTH + ["--out", str(root / "raw")]) == 0
        assert main(["preprocess", "--data", str(root / "raw"), "--notch", "10", "--low", "1",
                     "--high", "14", "--out", str(root / "pre")]) == 0
        assert pooled == ([2, 2] if size == 2 else [])
        assert main(["train", "--data", str(root / "pre"), "--model", "baseline",
                     "--regime", "single", *TRAIN_FLAGS, "--out", str(root / "run")]) == 0
        assert main(["eval", "--ckpt", str(root / "run" / "model.ckpt"),
                     "--data", str(root / "pre"), *TRAIN_FLAGS[:12],
                     "--out", str(root / "eval")]) == 0
        outputs[size] = _outputs_and_digests(root)
    assert len(outputs[1]) == 16  # 4 + 4 containers, 3 + 1 run files, 4 manifests
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("command", ["preprocess", "train"])
def test_of_two_bad_containers_the_first_is_named(data_dir, tmp_path, monkeypatch, size,
                                                  command):
    monkeypatch.setattr(ad, "_pool_size", lambda: size)
    for name in ("S02_s1.tsc", "S01_s2.tsc"):
        path = data_dir / name
        path.write_bytes(path.read_bytes()[:-1])
    argv = {"preprocess": ["preprocess", "--data", str(data_dir), "--notch", "10",
                           "--high", "14"],
            "train": ["train", "--data", str(data_dir), "--model", "scsn", *TRAIN_FLAGS]}
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main([*argv[command], "--out", str(tmp_path / "out")]) == 1
    assert err.getvalue().startswith(f"error: {data_dir / 'S01_s2.tsc'}: payload holds ")
    assert "S02_s1" not in err.getvalue()
    assert not (tmp_path / "out" / "manifest.txt").exists()


def test_preprocess_writes_no_container_after_a_bad_one(data_dir, tmp_path, monkeypatch):
    # with one worker the containers run in file order: the first fails to
    # load, and no later one is filtered or written
    monkeypatch.setattr(ad, "_pool_size", lambda: 1)
    bad = data_dir / "S01_s1.tsc"
    bad.write_bytes(bad.read_bytes()[:-1])
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["preprocess", "--data", str(data_dir), "--notch", "10", "--high", "14",
                     "--out", str(out)]) == 1
    assert err.getvalue().startswith(f"error: {bad}: payload holds ")
    assert sorted(out.iterdir()) == []


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
    assert back == vars(ns)
