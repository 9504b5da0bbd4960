import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsnet import preprocessing
from scsnet.datasets import Epoch, TrialSet
from scsnet.preprocessing import (
    MIN_FILTER_SAMPLES,
    CropGeometry,
    bandpass_filter,
    crop_geometry,
    crop_trials,
    crop_trialset,
    notch_filter,
    preprocess_trialset,
    select_channels,
)

FS = 250.0


def sine(freq, fs=FS, seconds=4.0, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)[None, :]


def central_rms(x):
    n = x.shape[-1]
    mid = x[..., n // 4:3 * n // 4]
    return np.sqrt(np.mean(mid ** 2))


class TestNotch:
    def test_attenuates_target_tone(self):
        x = sine(50.0)
        y = notch_filter(x, 50.0, FS)
        drop_db = 20 * np.log10(central_rms(x) / central_rms(y))
        assert drop_db >= 20.0

    def test_passes_low_tone(self):
        x = sine(10.0)
        y = notch_filter(x, 50.0, FS)
        gain_db = 20 * np.log10(central_rms(y) / central_rms(x))
        assert abs(gain_db) <= 1.0

    def test_zero_input(self):
        np.testing.assert_array_equal(notch_filter(np.zeros((3, 500)), 50.0, FS),
                                      np.zeros((3, 500)))

    def test_rejects_nyquist(self):
        with pytest.raises(ValueError):
            notch_filter(np.zeros((1, 500)), 125.0, FS)


class TestBandpass:
    def test_removes_dc(self):
        x = np.full((1, 1000), 5.0)
        y = bandpass_filter(x, 1.0, 100.0, FS)
        n = y.shape[-1]
        assert abs(np.mean(y[:, n // 4:3 * n // 4])) < 1e-2

    def test_passes_in_band_tone(self):
        x = sine(10.0)
        y = bandpass_filter(x, 1.0, 100.0, FS)
        gain_db = 20 * np.log10(central_rms(y) / central_rms(x))
        assert abs(gain_db) <= 1.0

    def test_zero_input(self):
        np.testing.assert_array_equal(bandpass_filter(np.zeros((2, 600)), 1.0, 100.0, FS),
                                      np.zeros((2, 600)))

    def test_rejects_edge_at_nyquist(self):
        bandpass_filter(np.zeros((1, 500)), 1.0, 100.0, 250.0)  # valid at fs=250
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros((1, 500)), 1.0, 100.0, 200.0)
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros((1, 500)), 40.0, 10.0, 250.0)


class TestFilterProperties:
    @pytest.mark.parametrize("filt", [
        lambda x: notch_filter(x, 50.0, FS),
        lambda x: bandpass_filter(x, 1.0, 100.0, FS),
    ])
    def test_linearity(self, filt):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 800))
        y = rng.normal(size=(2, 800))
        a, b = 2.5, -1.25
        lhs = filt(a * x + b * y)
        rhs = a * filt(x) + b * filt(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_zero_phase_no_lag(self):
        x = sine(10.0, seconds=8.0)[0]
        y = bandpass_filter(x[None], 1.0, 100.0, FS)[0]
        n = len(x)
        mid = slice(n // 4, 3 * n // 4)
        corr = np.correlate(y[mid], x[mid], mode="full")
        lag = int(np.argmax(corr)) - (len(x[mid]) - 1)
        assert lag == 0


def _epoch(seconds, fs, label=0):
    n = int(seconds * fs)
    data = np.arange(2 * n, dtype=np.float64).reshape(2, n)
    return Epoch(data, label, "S01", fs)


class TestCrops:
    def test_two_second_crop_counts(self):
        crops = crop_trials(_epoch(4.0, 250.0), 2.0, 1.9)
        assert len(crops) == 21
        assert all(c.n_samples == 500 for c in crops)

    def test_window_equals_duration(self):
        epoch = _epoch(2.0, 250.0)
        crops = crop_trials(epoch, 2.0, 1.9)
        assert len(crops) == 1
        np.testing.assert_array_equal(crops[0].data, epoch.data)

    def test_five_second_trial(self):
        assert len(crop_trials(_epoch(5.0, 250.0), 2.0, 1.9)) == 31

    def test_non_integer_stride(self):
        with pytest.raises(ValueError):
            crop_trials(_epoch(4.0, 128.0), 2.0, 1.9)  # 0.1 s stride = 12.8 samples

    def test_crop_ordering_and_metadata(self):
        epoch = _epoch(4.0, 250.0, label=3)
        crops = crop_trials(epoch, 2.0, 1.9)
        onsets = [c.data[0, 0] for c in crops]
        assert onsets == sorted(onsets)
        assert all(c.label == 3 and c.subject_id == "S01" for c in crops)

    def test_geometry_of_paper_trial(self):
        geo = crop_geometry(1000, 250.0, 2.0, 1.9)
        assert (geo.width, geo.stride, geo.count, geo.covered) == (500, 25, 21, 1000)
        longer = crop_geometry(1010, 250.0, 2.0, 1.9)
        assert (longer.count, longer.covered) == (21, 1000)

    def test_geometry_rejections(self):
        with pytest.raises(ValueError, match="overlap"):
            crop_geometry(1000, 250.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="window exceeds"):
            crop_geometry(499, 250.0, 2.0, 1.9)

    @pytest.mark.parametrize("win_s,overlap_s,named", [
        (2.0, -1.0, "overlap"), (2.0, math.nan, "overlap"), (2.0, math.inf, "overlap"),
        (2.0, -math.inf, "overlap"), (math.nan, 1.0, "window"), (math.inf, 1.0, "window"),
    ])
    def test_geometry_refuses_non_finite_or_negative_seconds(self, win_s, overlap_s, named):
        with pytest.raises(ValueError, match=named):
            crop_geometry(1000, 250.0, win_s, overlap_s)

    @given(length=st.integers(2, 300), width=st.integers(1, 300), stride=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_count_formula(self, length, width, stride):
        if width > length:
            return
        fs = 10.0
        epoch = Epoch(np.zeros((1, length)), 0, "S", fs)
        # enumeration oracle
        expected, start = 0, 0
        while start + width <= length:
            expected += 1
            start += stride
        assert CropGeometry.of(length, width, stride).count == expected \
            == (length - width) // stride + 1
        if stride > width:  # a gap between crops is a negative overlap, which is refused
            with pytest.raises(ValueError, match="overlap"):
                crop_trials(epoch, width / fs, (width - stride) / fs)
        else:
            assert len(crop_trials(epoch, width / fs, (width - stride) / fs)) == expected


def _trialset(n_channels=4, names=None, fs=250.0, trials=3, label_fn=None, seed=0):
    rng = np.random.default_rng(seed)
    names = names or [f"ch{i}" for i in range(n_channels)]
    data = rng.normal(size=(trials, len(names), 100)).astype(np.float32)
    labels = [label_fn(i) if label_fn else 0 for i in range(trials)]
    return TrialSet(data, labels, "S01", names, fs, ["a", "b"])


class TestSelectChannels:
    def test_identity(self):
        ts = _trialset()
        out = select_channels(ts, ts.channel_names)
        assert out.channel_names == ts.channel_names
        np.testing.assert_array_equal(out.data, ts.data)

    def test_motor_cortex_channel_subset(self):
        motor = ["FC1", "FC2", "C3", "C4", "CP5", "CP1", "CP2", "CP6", "P3", "Pz", "P4"]
        all_names = [f"E{i}" for i in range(53)] + motor
        ts = _trialset(names=all_names)
        out = select_channels(ts, motor)
        assert out.channel_names == motor
        assert out.data.shape == (3, 11, 100)

    def test_single_channel_projection(self):
        ts = _trialset(names=["Fz", "C3", "Pz"])
        out = select_channels(ts, ["C3"])
        np.testing.assert_array_equal(out.data[:, 0], ts.data[:, 1])

    def test_unknown_channel_named(self):
        ts = _trialset(names=["Fz", "C3"])
        with pytest.raises(ValueError, match="Oz"):
            select_channels(ts, ["C3", "Oz"])

    def test_channel_given_twice_refused(self):
        ts = _trialset(names=["Fz", "C3", "Pz"])
        with pytest.raises(ValueError, match="^channel 'C3' is given more than once$"):
            select_channels(ts, ["C3", "Pz", "C3"])

    def test_composition(self):
        ts = _trialset(names=["a", "b", "c", "d"])
        nested = select_channels(select_channels(ts, ["d", "b", "a"]), ["b", "a"])
        direct = select_channels(ts, ["b", "a"])
        assert nested.channel_names == direct.channel_names
        np.testing.assert_array_equal(nested.data, direct.data)


def test_crop_trialset_order():
    fs = 250.0
    ts = TrialSet(np.repeat(np.arange(3.0), 1000).reshape(3, 1, 1000), [0, 0, 0], "S01", ["c"],
                  fs, ["a"])
    crops = crop_trialset(ts, 2.0, 1.9)
    assert len(crops) == 63
    assert list(crops.data[:21, 0, 0]) == [0.0] * 21


def test_crop_trialset_matches_crop_trials():
    ts = _trialset(n_channels=2, trials=3, label_fn=lambda i: i % 2)
    crops = crop_trialset(ts, 0.2, 0.1)  # 50 samples every 25: 3 crops per trial
    want = [c for row, label in zip(ts.data, ts.label)
            for c in crop_trials(Epoch(row, int(label), ts.subject_id, ts.fs), 0.2, 0.1)]
    assert len(crops) == len(want) == 9
    assert crops.data.tobytes() == np.stack([c.data for c in want]).tobytes()
    np.testing.assert_array_equal(crops.label, [c.label for c in want])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_preprocess_rejects_non_finite_trial(bad):
    ts = _trialset(trials=4)
    ts.data[2, 1, 50] = bad
    with pytest.raises(ValueError, match="trial 2 "):
        preprocess_trialset(ts, notch_hz=50.0, band=(1.0, 40.0))


def per_trial_preprocess(trial_set, notch_hz, band, channels):
    """Reference: each trial filtered alone (notch, then bandpass, each
    designed for that trial), then cast to float32."""
    ts = select_channels(trial_set, channels) if channels else trial_set
    out = []
    for trial in ts.data:
        data = trial.astype(np.float64)
        if notch_hz is not None:
            data = notch_filter(data, notch_hz, ts.fs)
        if band is not None:
            data = bandpass_filter(data, band[0], band[1], ts.fs)
        out.append(data.astype(np.float32))
    return out


def _session(trials, channels=3, samples=120, fs=FS, seed=0):
    rng = np.random.default_rng(seed)
    data = (rng.normal(size=(trials, channels, samples)) * 10.0).astype(np.float32)
    return TrialSet(data, np.arange(trials) % 2, "S03", [f"ch{i}" for i in range(channels)],
                    fs, ["a", "b"])


def test_min_filter_samples_is_filtfilts_bound():
    # trials of MIN_FILTER_SAMPLES filter; one sample fewer fails in filtfilt
    data = np.random.default_rng(5).normal(size=(2, 2, MIN_FILTER_SAMPLES))
    ts = TrialSet(data.astype(np.float32), [0, 1], "S", ["a", "b"], 32.0, ["x", "y"])
    assert preprocess_trialset(ts, notch_hz=12.0, band=(1.0, 10.0)).n_samples == 28
    with pytest.raises(ValueError, match="padlen"):
        preprocess_trialset(replace(ts, data=ts.data[:, :, 1:]), notch_hz=12.0,
                            band=(1.0, 10.0))


class TestBlockFiltering:
    @given(trials=st.integers(1, 7), channels=st.integers(1, 4),
           samples=st.integers(60, 200), block_trials=st.integers(0, 8),
           notch=st.sampled_from([None, 50.0]),
           band=st.sampled_from([None, (1.0, 40.0), (4.0, 100.0)]),
           select=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(trials=1, channels=2, samples=100, block_trials=1, notch=50.0,
             band=(1.0, 40.0), select=False, seed=0)   # one trial
    @example(trials=4, channels=3, samples=90, block_trials=4, notch=None,
             band=(1.0, 40.0), select=False, seed=1)   # no notch
    @example(trials=4, channels=3, samples=90, block_trials=4, notch=50.0,
             band=None, select=False, seed=2)          # no bandpass
    @example(trials=5, channels=4, samples=80, block_trials=5, notch=50.0,
             band=(1.0, 40.0), select=True, seed=3)    # channel selection
    @example(trials=7, channels=3, samples=150, block_trials=3, notch=50.0,
             band=(4.0, 100.0), select=True, seed=4)   # three blocks, the last one short
    @settings(max_examples=60, deadline=None)
    def test_matches_per_trial_loop_bitwise(self, trials, channels, samples, block_trials,
                                            notch, band, select, seed):
        ts = _session(trials, channels, samples, seed=seed)
        names = ts.channel_names[::-1][:max(1, channels - 1)] if select else None
        # block_trials 0 makes a block smaller than one trial: one trial per block
        block = block_trials * channels * samples
        with mock.patch.object(preprocessing, "_FILTER_BLOCK", block):
            got = preprocess_trialset(ts, notch_hz=notch, band=band, channels=names)
        want = per_trial_preprocess(ts, notch, band, names)
        assert got.channel_names == (names or ts.channel_names)
        assert len(got) == trials
        assert got.data.dtype == np.float32
        for g, w in zip(got.data, want):
            assert g.tobytes() == w.tobytes()
        np.testing.assert_array_equal(got.label, ts.label)
        assert (got.subject_id, got.fs) == (ts.subject_id, ts.fs)

    @pytest.mark.parametrize("design", ["butter", "iirnotch"])
    def test_one_filter_design_per_block(self, design):
        ts = _session(12, channels=2, samples=100)
        real = getattr(preprocessing, design)
        with mock.patch.object(preprocessing, "_FILTER_BLOCK", 5 * 2 * 100), \
                mock.patch.object(preprocessing, design, side_effect=real) as spy:
            preprocess_trialset(ts, notch_hz=50.0, band=(1.0, 40.0))
        assert spy.call_count == 3  # blocks of 5, 5 and 2 trials

    def test_empty_set_comes_back_empty(self):
        empty = TrialSet(np.zeros((0, 3, 100), np.float32), [], "S01", ["c0", "c1", "c2"], FS,
                         ["a", "b"])
        out = preprocess_trialset(empty, notch_hz=50.0, band=(1.0, 40.0))
        assert len(out) == 0
        assert (out.channel_names, out.fs, out.class_names) == (["c0", "c1", "c2"], FS,
                                                                ["a", "b"])
        assert len(preprocess_trialset(empty, channels=["c2"])) == 0

    def test_non_finite_trial_in_a_later_block_is_named(self):
        ts = _session(7, channels=2, samples=100)
        ts.data[5, 1, 7] = np.nan
        with mock.patch.object(preprocessing, "_FILTER_BLOCK", 2 * 2 * 100), \
                pytest.raises(ValueError, match=r"trial 5 \(subject 'S03'\)"):
            preprocess_trialset(ts, notch_hz=50.0, band=(1.0, 40.0))

    def test_peak_memory_of_a_paper_session(self):
        # 288 trials x 22 channels x 4 s at 250 Hz: the output is 25 MB of
        # float32, the session 51 MB as float64; filtering it unblocked
        # peaks at several times the latter
        ts = _session(288, channels=22, samples=1000, seed=5)
        out_bytes = 288 * 22 * 1000 * 4
        tracemalloc.start()
        try:
            out = preprocess_trialset(ts, notch_hz=50.0, band=(1.0, 100.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 288
        block_bytes = 8 << 20  # 2**20 float64 samples
        assert peak <= out_bytes + 6 * block_bytes
