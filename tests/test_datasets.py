import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsnet import autodiff as ad
from scsnet import datasets
from scsnet.datasets import (
    ContainerFormatError,
    Epoch,
    SplitSpec,
    SubjectDataset,
    TrialSet,
    balanced_duplicates,
    balanced_upsample,
    batch_iter,
    format_fields,
    load_trialset,
    make_splits,
    read_fields,
    read_header,
    save_trialset,
    class_center_frequencies,
    class_spatial_patterns,
    subject_mixing_matrix,
    synth_multisubject,
)


def random_trialset(seed=0, n_trials=6, n_channels=3, n_samples=10, n_classes=2,
                    subject="S01", fs=250.0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_trials, n_channels, n_samples)).astype(np.float32)
    return TrialSet(data, rng.integers(n_classes, size=n_trials), subject,
                    [f"ch{i}" for i in range(n_channels)], fs,
                    [f"class{i}" for i in range(n_classes)])


def _with_first_label(blob: bytes, label: int) -> bytes:
    at = blob.index(b"\n\n") + 2  # the label block follows the header
    return blob[:at] + bytes([label]) + blob[at + 1:]


class TestTrialSet:
    def test_rejects_inconsistent_fields(self):
        ok = dict(data=np.zeros((3, 2, 5), np.float32), label=[0, 1, 0], subject_id="S",
                  channel_names=["a", "b"], fs=10.0, class_names=["x", "y"])
        TrialSet(**ok)
        for bad, match in ((dict(data=np.zeros((2, 5))), "trials, channels, samples"),
                           (dict(channel_names=["a"]), "channel_names"),
                           (dict(label=[0, 1]), "one class index per trial"),
                           (dict(label=[0, 2, 0]), "class_names"),
                           (dict(label=[0, -1, 0]), "class_names"),
                           (dict(fs=0.0), "fs")):
            with pytest.raises(ValueError, match=match):
                TrialSet(**{**ok, **bad})

    def test_refuses_a_label_the_integer_cast_would_change(self):
        # [0.7, 1.2] once loaded as [0, 1]
        ok = dict(data=np.zeros((3, 2, 5), np.float32), subject_id="S",
                  channel_names=["a", "b"], fs=10.0, class_names=["x", "y"])
        for labels, message in (([0.7, 1.2, 0], "trial 0: label 0.7"),
                                ([0, 1, 1.2], "trial 2: label 1.2"),
                                ([0, np.nan, 1], "trial 1: label nan"),
                                ([0, 1, 2], "trial 2: label 2")):
            with pytest.raises(ValueError, match=f"^{message} is not an integer index"):
                TrialSet(label=labels, **ok)
        ts = TrialSet(label=np.array([1.0, 0.0, 1.0]), **ok)
        assert ts.label.dtype == np.int64 and ts.label.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("fs", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fs(self, fs):
        with pytest.raises(ValueError, match="fs must be finite"):
            TrialSet(np.zeros((3, 2, 5), np.float32), [0, 1, 0], "S", ["a", "b"], fs, ["x", "y"])
        with pytest.raises(ValueError, match="fs must be finite"):
            Epoch(np.zeros((2, 5)), 0, "S", fs)

    def test_keeps_the_given_dtype_and_subsets_rows(self):
        ts = random_trialset(n_trials=5)
        assert ts.data.dtype == np.float32 and ts.label.dtype == np.int64
        part = ts.subset([3, 1])
        np.testing.assert_array_equal(part.data, ts.data[[3, 1]])
        np.testing.assert_array_equal(part.label, ts.label[[3, 1]])
        assert (part.subject_id, part.n_samples) == (ts.subject_id, ts.n_samples)
        assert len(ts.subset([])) == 0 and ts.subset(range(0)).n_samples == ts.n_samples
        view = ts.subset(slice(1, 4))
        np.testing.assert_array_equal(view.label, ts.label[1:4])
        assert np.shares_memory(view.data, ts.data)


# every line boundary of str.splitlines
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# text that often holds what format_fields refuses
FIELD_TEXT = st.text(st.characters() | st.sampled_from(LINE_BREAKS + "="), max_size=8)


class TestFieldCodec:
    @given(fields=st.dictionaries(FIELD_TEXT, FIELD_TEXT, max_size=6))
    @example(fields={"\ud800": ""})  # a lone surrogate is not UTF-8 text
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_list_reads_back(self, fields):
        pairs = list(fields.items())
        try:
            text = format_fields(pairs)
        except ValueError:
            assert any(not name or "=" in name or set(name + value) & set(LINE_BREAKS)
                       or any("\ud800" <= ch <= "\udfff" for ch in name + value)
                       for name, value in pairs)
            return
        assert read_fields(text, "header") == fields

    @given(name=st.text(st.characters(exclude_characters=LINE_BREAKS + "="), min_size=1,
                        max_size=6),
           value=st.text(st.characters(exclude_characters=LINE_BREAKS), max_size=6),
           brk=st.sampled_from(LINE_BREAKS), in_name=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_refuses_every_line_break_in_a_name_or_a_value(self, name, value, brk, in_name,
                                                           data):
        where = name if in_name else value
        at = data.draw(st.integers(0, len(where)))
        where = where[:at] + brk + where[at:]
        if in_name:
            name = where
        else:
            value = where
        with pytest.raises(ValueError, match=f"field {re.escape(repr(name))} may not hold a "
                                             "line break"):
            format_fields([("ok", "1"), (name, value)])

    @pytest.mark.parametrize("name", ["", "a=b"])
    def test_refuses_a_name_that_would_not_read_back(self, name):
        with pytest.raises(ValueError, match=f"field name {re.escape(repr(name))}"):
            format_fields([(name, "v")])

    def test_refuses_text_that_is_not_utf8(self):
        # a command-line byte that is not UTF-8 reaches Python as a lone surrogate
        with pytest.raises(ValueError, match="field 'args' may not hold a line break or "
                                             "non-UTF-8 text"):
            format_fields([("args", "--out \udcff")])

    def test_repeated_names_and_values_are_written_in_order(self):
        assert format_fields([("input", "a\t1"), ("n", 3), ("input", "b\t2")]) == \
            "input=a\t1\nn=3\ninput=b\t2\n"

    def test_header_reader_names_the_source(self):
        assert read_header(b"a=1\nb=\n\npayload", "f.bin") == ({"a": "1", "b": ""}, 8)
        with pytest.raises(ContainerFormatError, match="f.bin: header not terminated"):
            read_header(b"a=1\n", "f.bin", ContainerFormatError)
        with pytest.raises(ContainerFormatError, match="f.bin: header is not valid UTF-8"):
            read_header(b"a=\xff\n\n", "f.bin", ContainerFormatError)


class TestContainer:
    def test_round_trip_identity(self, tmp_path):
        ts = random_trialset(seed=1)
        path = tmp_path / "set.tsc"
        save_trialset(ts, path)
        back = load_trialset(path)
        assert back.channel_names == ts.channel_names
        assert back.class_names == ts.class_names
        assert back.fs == ts.fs
        np.testing.assert_array_equal(back.label, ts.label)
        np.testing.assert_array_equal(back.data.astype(np.float32), ts.data.astype(np.float32))
        assert back.subject_id == "S01"
        assert back.data.dtype == np.float32 and back.data.shape == ts.data.shape

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_float_fs_round_trips(self, tmp_path, dtype):
        # the header recorded repr(fs), "np.float64(128.0)" under numpy 2,
        # which load_trialset refused as not a number
        ts = random_trialset(fs=dtype(128.0))
        save_trialset(ts, tmp_path / "numpy.tsc")
        save_trialset(random_trialset(fs=128.0), tmp_path / "python.tsc")
        assert load_trialset(tmp_path / "numpy.tsc").fs == 128.0
        assert (tmp_path / "numpy.tsc").read_bytes() == (tmp_path / "python.tsc").read_bytes()

    def test_double_round_trip_bytes(self, tmp_path):
        ts = random_trialset(seed=2)
        p1, p2 = tmp_path / "a.tsc", tmp_path / "b.tsc"
        save_trialset(ts, p1)
        save_trialset(load_trialset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(n_trials=st.integers(1, 6), n_channels=st.integers(1, 4),
           n_samples=st.integers(1, 12), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, n_trials, n_channels, n_samples, seed, tmp_path_factory):
        ts = random_trialset(seed=seed, n_trials=n_trials, n_channels=n_channels,
                             n_samples=n_samples)
        path = tmp_path_factory.mktemp("rt") / "set.tsc"
        save_trialset(ts, path)
        back = load_trialset(path)
        np.testing.assert_array_equal(back.data.astype(np.float32), ts.data.astype(np.float32))
        np.testing.assert_array_equal(back.label, ts.label)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "set.tsc"
        save_trialset(random_trialset(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(ContainerFormatError, match="payload"):
            load_trialset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        ts = random_trialset(seed=3)
        path = tmp_path / "set.tsc"
        save_trialset(ts, path)
        # save refuses the sample, so write it into the payload of trial 4
        blob = bytearray(path.read_bytes())
        at = len(blob) - ts.data.nbytes + 4 * np.ravel_multi_index((4, 1, 7), ts.data.shape)
        blob[at:at + 4] = np.float32(bad).astype("<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match=r"set\.tsc: trial 4 "):
            load_trialset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_save_refuses_non_finite_samples(self, tmp_path, bad):
        # 1e39 is finite in float64 but overflows the float32 payload
        ts = random_trialset(seed=3)
        ts = replace(ts, data=ts.data.astype(np.float64))
        ts.data[4, 1, 7] = bad
        path = tmp_path / "set.tsc"
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match=r"set\.tsc: trial 4 holds non-finite"):
            save_trialset(ts, path)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["channel_names", "class_names"])
    def test_save_refuses_an_empty_name(self, tmp_path, field):
        # a lone "" would load back as an empty list of names
        ts = random_trialset(n_channels=1, n_classes=1)
        ts = replace(ts, **{field: [""]})
        path = tmp_path / "set.tsc"
        with pytest.raises(ValueError, match=f"{field[:-1].replace('_', ' ')} may not be empty"):
            save_trialset(ts, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, value", [("subject_id", "S\x85extra=1"),
                                              ("channel_names", ["a\u2028b"]),
                                              ("class_names", ["x", "y\rfs_hz=5"])])
    def test_save_refuses_a_name_that_would_not_read_back(self, tmp_path, field, value):
        # "S\x85extra=1" loaded back as the subject "S" with an extra field
        ts = replace(random_trialset(n_channels=1, n_classes=2), **{field: value})
        path = tmp_path / "set.tsc"
        with pytest.raises(ValueError, match=f"field '{field}' may not hold a line break"):
            save_trialset(ts, path)
        assert not path.exists()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_strict_prefix_rejected(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("prefix") / "set.tsc"
        save_trialset(random_trialset(seed=4), path)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:cut])
        with pytest.raises(ContainerFormatError):
            load_trialset(path)

    def test_zero_fs_rejected(self, tmp_path):
        path = tmp_path / "set.tsc"
        save_trialset(random_trialset(), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"fs_hz=250.0", b"fs_hz=0"))
        with pytest.raises(ContainerFormatError, match="fs_hz"):
            load_trialset(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "set.tsc"
        save_trialset(random_trialset(), path)
        blob = path.read_bytes()
        head, _, tail = blob.partition(b"\n\n")
        lines = [ln for ln in head.split(b"\n") if not ln.startswith(b"class_names=")]
        path.write_bytes(b"\n".join(lines) + b"\n\n" + tail)
        with pytest.raises(ContainerFormatError, match="class_names"):
            load_trialset(path)

    def test_repeated_field_rejected(self, tmp_path):
        path = tmp_path / "set.tsc"
        save_trialset(random_trialset(), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"fs_hz=250.0\n", b"fs_hz=250.0\nfs_hz=100.0\n"))
        with pytest.raises(ContainerFormatError, match=f"{path}: field fs_hz is given twice"):
            load_trialset(path)

    # (edit of a saved 6-trial, 3-channel, 10-sample container, the refusal)
    REFUSALS = {
        "missing_field": (lambda b: b.replace(b"class_names=class0,class1\n", b""),
                          "field class_names is missing"),
        "format_version": (lambda b: b.replace(b"format_version=1\n", b"format_version=9\n"),
                           "unsupported format_version '9'"),
        "fs_hz_text": (lambda b: b.replace(b"fs_hz=250.0", b"fs_hz=fast"),
                       "field fs_hz is not a number"),
        "fs_hz_zero": (lambda b: b.replace(b"fs_hz=250.0", b"fs_hz=0"),
                       "field fs_hz must be positive"),
        "int_text": (lambda b: b.replace(b"n_samples=10", b"n_samples=1e1"),
                     "field n_samples is not a decimal integer"),
        "int_negative": (lambda b: b.replace(b"n_trials=6", b"n_trials=-6"),
                         "field n_trials must be nonnegative"),
        "channel_names": (lambda b: b.replace(b"n_channels=3", b"n_channels=2"),
                          "field channel_names does not match n_channels"),
        "truncated_labels": (lambda b: b[:b.index(b"\n\n") + 5], "truncated label block"),
        "payload_size": (lambda b: b[:-1], "payload holds 719 bytes, header implies 720"),
        "label_range": (lambda b: _with_first_label(b, 2),
                        "label block references a class beyond class_names"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_every_refusal_names_the_file(self, tmp_path, case):
        edit, problem = self.REFUSALS[case]
        path = tmp_path / "set.tsc"
        save_trialset(random_trialset(), path)
        blob = path.read_bytes()
        path.write_bytes(edit(blob))
        with pytest.raises(ContainerFormatError, match=re.escape(f"{path}: {problem}")):
            load_trialset(path)


def subjects_with_sessions(spec):
    """spec: list of (subject_id, [session_sizes]). Every sample of trial i
    of session k holds 1000 * k + i."""
    out = []
    for subject, sizes in spec:
        sessions = []
        for k, size in enumerate(sizes):
            data = np.repeat(1000.0 * k + np.arange(size, dtype=np.float32), 4).reshape(size, 1, 4)
            sessions.append(TrialSet(data, np.arange(size) % 2, subject, ["c0"], 100.0,
                                     ["a", "b"]))
        out.append(SubjectDataset(subject, sessions))
    return out


class TestMakeSplits:
    def test_competition_shaped_counts(self):
        datasets = subjects_with_sessions([(f"A{i}", [288, 288]) for i in range(5)])
        split = make_splits(datasets, SplitSpec("A0", 120, (120, 144), (144, 288)))
        assert sum(len(ts) for ts in split.train.values()) == 1560
        assert len(split.val) == 24
        assert len(split.test) == 144

    def test_online_shaped_counts(self):
        datasets = subjects_with_sessions(
            [(f"P{i}", [300]) for i in range(5)] + [("pilot", [300, 300])])
        split = make_splits(datasets, SplitSpec("pilot", 100, (100, 160), (160, 300)))
        assert sum(len(ts) for ts in split.train.values()) == 1900
        assert len(split.val) == 60
        assert len(split.test) == 140

    def test_degenerate_spec(self):
        # an empty range is refused by the spec: training would otherwise run
        # every epoch before evaluation found no test trials
        with pytest.raises(ValueError, match="^the validation range 0:0 is empty$"):
            SplitSpec("X", 0, (0, 0), (0, 1))
        with pytest.raises(ValueError, match="^the test range 1:1 is empty$"):
            SplitSpec("X", 0, (0, 1), (1, 1))
        datasets = subjects_with_sessions([("X", [10]), ("Y", [10])])
        with pytest.raises(ValueError, match="^target subject 'X' has no second session$"):
            make_splits(datasets, SplitSpec("X", 0, (0, 1), (1, 2)))

    def test_partitions_disjoint_and_cover(self):
        datasets = subjects_with_sessions([("T", [8, 20]), ("S", [8])])
        split = make_splits(datasets, SplitSpec("T", 5, (5, 9), (9, 20)))
        session1, session2 = datasets[0].sessions
        np.testing.assert_array_equal(split.train["T"].data[:8], session1.data)
        picked = np.concatenate([split.train["T"].data[8:], split.val.data, split.test.data])
        np.testing.assert_array_equal(picked, session2.data)
        picked_labels = np.concatenate([split.train["T"].label[8:], split.val.label,
                                        split.test.label])
        np.testing.assert_array_equal(picked_labels, session2.label)

    @pytest.mark.parametrize("field, value", [("channel_names", ["c1"]), ("fs", 50.0),
                                              ("n_samples", 5), ("class_names", ["a", "c"])])
    def test_session_layout_mismatch_named(self, field, value):
        datasets = subjects_with_sessions([("T", [8, 20]), ("S", [8])])
        second = datasets[0].sessions[1]
        if field == "n_samples":
            datasets[0].sessions[1] = replace(second, data=np.zeros((20, 1, value), np.float32))
        else:
            datasets[0].sessions[1] = replace(second, **{field: value})
        with pytest.raises(ValueError, match=f"subject 'T': sessions 1 and 2 differ in {field}"):
            make_splits(datasets, SplitSpec("T", 5, (5, 9), (9, 20)))

    @pytest.mark.parametrize("field", ["channel_names", "fs", "class_names"])
    def test_source_layout_mismatch_named(self, field):
        datasets = synth_multisubject(3, 2, 8, 4, 64.0, 1.0, 2, 0.5, 5.0, seed=3)
        first = datasets[1].sessions[0]
        changed = {"channel_names": first.channel_names[::-1], "fs": 128.0,
                   "class_names": first.class_names[::-1]}[field]
        datasets[1].sessions[0] = replace(first, **{field: changed})
        with pytest.raises(ValueError, match=f"subject 'S02': session 1 differs from the "
                                             f"target 'S01' in {field}"):
            make_splits(datasets, SplitSpec("S01", 2, (2, 4), (4, 8)))

    def test_range_overflow(self):
        datasets = subjects_with_sessions([("T", [8, 20])])
        with pytest.raises(ValueError, match="second session"):
            make_splits(datasets, SplitSpec("T", 5, (5, 9), (9, 25)))

    def test_missing_target(self):
        datasets = subjects_with_sessions([("A", [5, 5])])
        with pytest.raises(ValueError, match="B"):
            make_splits(datasets, SplitSpec("B", 0, (0, 1), (1, 2)))

    def test_overlapping_spec_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec("T", 6, (5, 9), (9, 20))
        with pytest.raises(ValueError):
            SplitSpec("T", 2, (2, 9), (8, 20))


def per_trial_synth(n_subjects, n_sessions, n_trials, n_channels, fs, duration_s, n_classes,
                    shift_strength, snr, seed):
    """Each session's (data, labels) as `synth_multisubject` made them one
    trial at a time, in the order its random draws are specified."""
    n_samples = int(round(duration_s * fs))
    t = np.arange(n_samples) / fs
    freqs = class_center_frequencies(n_classes)
    patterns = class_spatial_patterns(n_channels, n_classes)
    noise_sigma = math.sqrt(0.5 / snr)
    datasets = []
    for s in range(n_subjects):
        mixing = subject_mixing_matrix(seed, s, n_channels, shift_strength)
        sessions = []
        for k in range(n_sessions):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, s, k)))
            labels = np.tile(np.arange(n_classes), n_trials // n_classes + 1)[:n_trials]
            rng.shuffle(labels)
            data = np.empty((n_trials, n_channels, n_samples), dtype=np.float32)
            for i, label in enumerate(labels):
                f = freqs[label] + rng.uniform(-0.5, 0.5)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                amp = rng.uniform(0.8, 1.2)
                wave = amp * np.sin(2.0 * math.pi * f * t + phase)
                clean = mixing @ np.outer(patterns[label], wave)
                data[i] = clean + rng.normal(0.0, noise_sigma, (n_channels, n_samples))
            sessions.append((data, labels))
        datasets.append(SubjectDataset(f"S{s + 1:02d}", sessions))
    return datasets


class TestSynth:
    def test_deterministic(self):
        a = synth_multisubject(2, 2, 8, 4, 64.0, 1.0, 2, 0.5, 5.0, seed=7)
        b = synth_multisubject(2, 2, 8, 4, 64.0, 1.0, 2, 0.5, 5.0, seed=7)
        for da, db in zip(a, b):
            for sa, sb in zip(da.sessions, db.sessions):
                np.testing.assert_array_equal(sa.data.astype(np.float32),
                                              sb.data.astype(np.float32))
                np.testing.assert_array_equal(sa.label, sb.label)

    def test_shapes(self):
        data = synth_multisubject(3, 2, 10, 6, 128.0, 2.0, 4, 0.3, 3.0, seed=0)
        assert len(data) == 3
        for ds in data:
            assert len(ds.sessions) == 2
            for session in ds.sessions:
                assert len(session) == 10
                assert session.data.shape == (10, 6, 256)
                assert session.data.dtype == np.float32

    def test_zero_shift_mixing_is_identity(self):
        for s in range(4):
            np.testing.assert_array_equal(subject_mixing_matrix(3, s, 8, 0.0), np.eye(8))
        assert not np.allclose(subject_mixing_matrix(3, 1, 8, 0.7), np.eye(8))

    def test_zero_shift_power_profiles_agree(self):
        from scsnet.preprocessing import bandpass_filter
        data = synth_multisubject(3, 1, 64, 6, 128.0, 1.0, 2, 0.0, 10.0, seed=11)
        maps = []
        for ds in data:
            session = ds.sessions[0]
            power = np.mean(bandpass_filter(session.data, 8.0, 30.0, session.fs) ** 2, axis=-1)
            # per class, per channel mean 8-30 Hz power in dB
            maps.append(np.concatenate([10.0 * np.log10(power[session.label == c].mean(axis=0))
                                        for c in range(len(session.class_names))]))
        for other in maps[1:]:
            assert np.mean(np.abs(maps[0] - other)) < 1.0

    # (subjects, sessions, trials, channels, fs, duration, classes, shift, snr,
    # seed, trials per block): cli-bench's and the paper's geometries, two
    # channels (the fewest synth takes), and blocks that do not divide the
    # trial count
    @pytest.mark.parametrize("shape", [
        (5, 2, 120, 8, 128.0, 2.0, 4, 0.7, 3.0, 0, None),
        (5, 2, 4, 22, 250.0, 4.0, 4, 0.5, 5.0, 7919, None),
        (2, 3, 13, 2, 32.0, 1.0, 3, 0.0, 1.0, 3, 5),
        (3, 2, 7, 4, 64.0, 0.5, 2, 1.0, 2.0, 11, 3),
        (1, 1, 5, 3, 10.0, 0.1, 2, 0.3, 1.0, 2, 1),
    ], ids=["cli-bench", "paper", "two-channels", "blocks-of-3", "blocks-of-1"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_matches_the_per_trial_loop_bitwise(self, monkeypatch, shape, size):
        *args, block_trials = shape
        n_channels, n_samples = args[3], round(args[4] * args[5])
        if block_trials is not None:
            monkeypatch.setattr(datasets, "_SYNTH_BLOCK", block_trials * n_channels * n_samples)
        monkeypatch.setattr(ad, "_pool_size", lambda: size)
        got = synth_multisubject(*args)
        want = per_trial_synth(*args)
        assert [ds.subject_id for ds in got] == [ds.subject_id for ds in want]
        for ds, oracle in zip(got, want):
            assert len(ds.sessions) == len(oracle.sessions)
            for session, (data, labels) in zip(ds.sessions, oracle.sessions):
                assert session.data.dtype == np.float32
                assert session.data.tobytes() == data.tobytes()
                np.testing.assert_array_equal(session.label, labels)
                assert session.subject_id == ds.subject_id

    def test_same_bytes_under_fast_thread_switching(self, monkeypatch):
        # more threads than cores and a thread switch every microsecond: a
        # session that wrote outside its own array or drew from another's
        # stream would change bytes
        args = (3, 3, 9, 4, 64.0, 0.5, 3, 0.5, 2.0, 5)
        monkeypatch.setattr(datasets, "_SYNTH_BLOCK", 2 * 4 * 32)
        want = per_trial_synth(*args)
        monkeypatch.setattr(ad, "_pool_size", lambda: 2 * (os.cpu_count() or 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = synth_multisubject(*args)
                assert [[ts.data.tobytes() for ts in ds.sessions] for ds in got] == \
                    [[data.tobytes() for data, _ in ds.sessions] for ds in want]
        finally:
            sys.setswitchinterval(interval)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_multisubject(0, 1, 4, 2, 64.0, 1.0, 2, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_multisubject(1, 1, 4, 2, 64.0, 1.0, 2, 1.5, 1.0, seed=0)

    @pytest.mark.parametrize("name", ["fs", "duration_s", "snr"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_named(self, name, value):
        args = dict(n_subjects=1, n_sessions=1, n_trials=4, n_channels=2, fs=64.0,
                    duration_s=1.0, n_classes=2, shift_strength=0.0, snr=1.0, seed=0)
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            synth_multisubject(**{**args, name: value})

    @pytest.mark.parametrize("duration_s", [0.04, 0.25])
    def test_duration_of_no_whole_number_of_samples_refused(self, duration_s):
        # at 10 Hz, 0.04 s made trials of 0 samples and 0.25 s trials of 2
        message = f"duration_s of {duration_s} s is not a whole number of samples at fs=10.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_multisubject(2, 2, 4, 2, 10.0, duration_s, 2, 0.5, 5.0, seed=0)


class TestBalancedUpsample:
    def _set(self, counts, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(sum(counts), 1, 5)).astype(np.float32)
        return TrialSet(data, np.repeat(np.arange(len(counts)), counts), "S01", ["c0"], 100.0,
                        [f"class{i}" for i in range(len(counts))])

    def test_even_growth(self):
        out = balanced_upsample(self._set([10, 10]), 60, seed=1)
        counts = np.bincount(out.label)
        np.testing.assert_array_equal(counts, [30, 30])

    def test_already_balanced_unchanged(self):
        ts = self._set([5, 5])
        out = balanced_upsample(ts, 10, seed=2)
        assert out.data.tobytes() == ts.data.tobytes()
        np.testing.assert_array_equal(out.label, ts.label)

    def test_counting_argument(self):
        ts = self._set([7, 3])
        out = balanced_upsample(ts, 20, seed=3)
        counts = np.bincount(out.label)
        np.testing.assert_array_equal(counts, [10, 10])
        # originals kept, then 3 class-0 and 7 class-1 duplicates
        assert out.data[:10].tobytes() == ts.data.tobytes()

    def test_never_fabricates(self):
        ts = self._set([4, 7, 2], seed=4)
        out = balanced_upsample(ts, 30, seed=5)
        originals = {(row.tobytes(), label) for row, label in zip(ts.data, ts.label)}
        assert all((row.tobytes(), label) in originals for row, label in zip(out.data, out.label))

    def test_deterministic(self):
        ts = self._set([4, 7, 2], seed=6)
        a = balanced_upsample(ts, 30, seed=9)
        b = balanced_upsample(ts, 30, seed=9)
        np.testing.assert_array_equal(a.label, b.label)
        np.testing.assert_array_equal(a.data.astype(np.float64), b.data.astype(np.float64))

    def test_absent_class_rejected(self):
        with pytest.raises(ValueError, match="class1"):
            balanced_upsample(self._set([4, 0]), 10, seed=0)

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            balanced_upsample(self._set([4, 4]), 6, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           grow=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_duplicates_drawn_class_by_class(self, counts, grow, seed):
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)),
                                                                   counts))
        names = [f"class{i}" for i in range(len(counts))]
        target = len(counts) * max(counts) + grow
        # oracle: one rng.choice per class short of its share, in class order
        rng = np.random.default_rng(seed)
        base, remainder = divmod(target, len(counts))
        want = []
        for c, have in enumerate(counts):
            need = base + (c < remainder) - have
            if need:
                want.extend(rng.choice(np.flatnonzero(labels == c), size=need, replace=True))
        got = balanced_duplicates(labels, names, target, seed)
        np.testing.assert_array_equal(got, np.array(want, dtype=np.int64))
        assert got.dtype == np.int64


class TestBatchIter:
    def _train(self, sizes):
        return {f"S{i}": random_trialset(seed=i, n_trials=n) for i, n in enumerate(sizes)}

    def test_trials_per_step(self):
        train = self._train([40] * 6)
        batches = list(batch_iter(train, 30, seed=0))
        assert len(batches) == 1
        assert sum(len(v) for v in batches[0].values()) == 180

    def test_exact_pool_single_batch(self):
        train = self._train([30, 30])
        assert len(list(batch_iter(train, 30, seed=0))) == 1

    def test_deterministic(self):
        train = self._train([35, 35, 35])
        a = list(batch_iter(train, 10, seed=4))
        b = list(batch_iter(train, 10, seed=4))
        assert len(a) == len(b) == 3
        for ba, bb in zip(a, b):
            for s in ba:
                np.testing.assert_array_equal(ba[s], bb[s])

    def test_without_replacement(self):
        train = self._train([50, 64])
        seen = {s: [] for s in train}
        for batch in batch_iter(train, 10, seed=5):
            for s, idx in batch.items():
                seen[s].extend(idx.tolist())
        for s, idx in seen.items():
            assert len(idx) == 50 == len(set(idx))

    def test_undersized_pool(self):
        train = self._train([10, 40])
        with pytest.raises(ValueError):
            list(batch_iter(train, 20, seed=0))
