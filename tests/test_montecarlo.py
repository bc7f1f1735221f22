"""Tests for the time-domain stochastic oracle.

All statistical assertions run with fixed seeds, so they are deterministic.
"""

import functools
import math
import mmap
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

from phaseff import (
    BandpassKernel,
    FlatKernel,
    NetworkParams,
    NoiseMode,
    QuadratureStreams,
    SimConfig,
    apply_kernel,
    band_average,
    estimate_psd,
    oracle_compare,
    simulate_streams,
    spectrum_from_modes,
)
from phaseff import montecarlo
from phaseff.montecarlo import _CHUNK, MAX_SAMPLES, MIN_SAMPLES, SEGMENT_COUNT, _substream

FS = 65536.0
DUR = 1.0  # 64 segments of 1024 samples

SCIPY_VERSION = tuple(int(part) for part in version("scipy").split(".")[:2])
PEAK_COEFFICIENTS = Path(__file__).parent / "golden" / "peak_coefficients.txt"


def _recorded_peak_coefficients():
    """((center_hz, bandwidth_hz, sample_rate), (b, a)) for each case of the
    recorded iirpeak coefficients."""
    rows = [
        [float.fromhex(value) for value in line.split()]
        for line in PEAK_COEFFICIENTS.read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(rows) == 403
    return [(tuple(row[:3]), (np.array(row[3:6]), np.array(row[6:]))) for row in rows]


def config_for(params, seed=0, **kwargs):
    return SimConfig(params=params, sample_rate=FS, duration=DUR, seed=seed, **kwargs)


def make_params(epsilon=0.2, eta_h=1.0, eta_d=1.0, gain=0.0, v=1.0):
    return NetworkParams(
        epsilon=epsilon, eta_h1=eta_h, eta_d1=eta_d, gain=gain, v_phase_in=v
    )


class TestSimConfig:
    def test_nyquist_violation_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            config_for(make_params(), signal_frequency=FS / 2.0, signal_amplitude=1.0)

    @pytest.mark.parametrize("n_samples", [8192, 2**14, 2**16 - 1])
    def test_too_few_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="^run too short"):
            SimConfig(params=make_params(), sample_rate=float(n_samples), duration=1.0)

    def test_minimum_length_boundary(self):
        # the analysis plan: 64 segments of at least 1,024 samples
        assert (SEGMENT_COUNT, MIN_SAMPLES) == (64, 2**16)
        cfg = SimConfig(params=make_params(), sample_rate=65536.0, duration=1.0)
        assert cfg.n_samples == MIN_SAMPLES

    def test_maximum_length_boundary(self):
        # a config is only checked here: nothing is allocated
        cfg = SimConfig(params=make_params(), sample_rate=65536.0, duration=2048.0)
        assert cfg.n_samples == MAX_SAMPLES == 2**27
        # the cap reads the rounded count: both durations give 2^27 samples
        for duration in (2048.0 + 0.3 / 65536.0, 2048.0 - 0.4 / 65536.0):
            cfg = SimConfig(params=make_params(), sample_rate=65536.0, duration=duration)
            assert cfg.n_samples == MAX_SAMPLES
        with pytest.raises(ValueError, match=r"^run too long: 1\.34218e\+08 samples"):
            SimConfig(params=make_params(), sample_rate=65536.0, duration=2048.0 + 1 / 65536.0)

    def test_complex_gain_with_flat_kernel_rejected(self, monkeypatch):
        # the rule is the kernel step's: the config builds, and every run
        # refuses it before any noise is drawn
        def no_draw(*args):
            raise AssertionError("noise drawn before the kernel was checked")

        monkeypatch.setattr(montecarlo, "_substream", no_draw)
        p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1 + 2j)
        cfg = config_for(p)
        assert cfg.params == p
        runs = [
            lambda: simulate_streams(cfg),
            lambda: oracle_compare(cfg, [0.0]),
            lambda: apply_kernel(FlatKernel(), np.ones(4), p, FS),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="real gain"):
                run()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, False])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            config_for(make_params(), seed=seed)

    def test_bandpass_center_above_nyquist_rejected(self):
        kern = BandpassKernel(center_hz=FS, bandwidth_hz=100.0, gain=1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            config_for(make_params(), kernel=kern)


class TestStreams:
    def test_determinism_bit_exact(self):
        cfg = config_for(make_params(gain=2.0), seed=42)
        a = simulate_streams(cfg, trial=3)
        b = simulate_streams(cfg, trial=3)
        assert np.array_equal(a.amplitude, b.amplitude)
        assert np.array_equal(a.phase, b.phase)

    @pytest.mark.parametrize("trial", [-1, 2**64, 1.5, True, False])
    def test_bad_trial_rejected(self, trial):
        with pytest.raises(ValueError, match="trial"):
            simulate_streams(config_for(make_params()), trial=trial)

    def test_trials_differ(self):
        cfg = config_for(make_params(), seed=42)
        a = simulate_streams(cfg, trial=0)
        b = simulate_streams(cfg, trial=1)
        assert not np.array_equal(a.phase, b.phase)

    def test_trial_substreams_uncorrelated(self):
        cfg = config_for(make_params(gain=2.0), seed=7)
        x = simulate_streams(cfg, trial=0).phase
        y = simulate_streams(cfg, trial=1).phase
        n = x.size
        cross = float(np.dot(x, y)) / n
        bound = 3.0 * float(x.std() * y.std()) / math.sqrt(n)
        assert abs(cross) < bound

    def test_at_angle_zero_is_amplitude(self):
        cfg = config_for(make_params(gain=1.0), seed=5)
        s = simulate_streams(cfg)
        assert np.array_equal(s.at_angle(0.0), s.amplitude)

    def test_at_angle_half_pi_is_phase(self):
        cfg = config_for(make_params(gain=1.0), seed=5)
        s = simulate_streams(cfg)
        assert np.allclose(s.at_angle(math.pi / 2.0), s.phase, rtol=1e-12, atol=1e-12)

    # where mmap has no MADV_HUGEPAGE (macOS, Windows), or the kernel refuses
    # the advice (EINVAL, as a kernel without transparent huge pages does),
    # the streams are mapped all the same
    @pytest.mark.parametrize("advice", [None, -1], ids=["absent", "refused"])
    def test_streams_do_not_need_huge_pages(self, monkeypatch, advice):
        cfg = config_for(make_params(gain=1.0), seed=5)
        want = simulate_streams(cfg)
        if advice is None:
            monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
        else:
            monkeypatch.setattr(mmap, "MADV_HUGEPAGE", advice, raising=False)
        got = simulate_streams(cfg)
        assert np.array_equal(got.amplitude, want.amplitude)
        assert np.array_equal(got.phase, want.phase)

    # more than one chunk, with a partial last one; and no sample, which no
    # memory mapping can hold
    @pytest.mark.parametrize("n_samples", [2 * _CHUNK + 77, 0])
    def test_at_angle_is_the_whole_array_projection(self, n_samples):
        rng = np.random.Generator(np.random.Philox(key=np.array([19, 0], dtype=np.uint64)))
        amplitude, phase = rng.standard_normal((2, n_samples))
        phi = 0.7
        want = math.cos(phi) * amplitude + math.sin(phi) * phase
        got = QuadratureStreams(amplitude, phase).at_angle(phi)
        assert got.dtype == np.float64 and np.array_equal(got, want)


class TestEstimatePsd:
    def test_white_noise_calibrates_to_unity(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
        series = rng.standard_normal(65536)
        est = estimate_psd(series, FS)
        mean, se = band_average(est)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_pure_tone_bin_power(self):
        # amplitude a centred on bin k of an m-sample segment: a^2 * m / 4
        m, n_seg, a = 1024, 64, 0.5
        freq = 100.0 * FS / m  # bin 100 exactly
        t = np.arange(m * n_seg) / FS
        series = a * np.sin(2.0 * math.pi * freq * t)
        est = estimate_psd(series, FS)
        expected = a * a * m / 4.0
        assert math.isclose(est.variance[100], expected, rel_tol=1e-9)
        others = np.delete(est.variance[1:-1], 99)
        assert np.all(others < 1e-6 * expected)

    def test_zero_input_gives_zero(self):
        est = estimate_psd(np.zeros(65536), FS)
        assert np.all(est.variance == 0.0)
        assert np.all(est.standard_error == 0.0)

    def test_frequency_axis(self):
        est = estimate_psd(np.zeros(65536), FS)
        assert est.frequencies[0] == 0.0
        assert est.frequencies[-1] == FS / 2.0
        assert est.variance.shape == est.frequencies.shape == est.standard_error.shape

    @pytest.mark.parametrize("n_samples", [32768, MIN_SAMPLES - 1])
    def test_short_series_rejected(self, n_samples):
        with pytest.raises(ValueError, match="^series too short"):
            estimate_psd(np.zeros(n_samples), FS)

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize(
        "n_samples, chunk",
        # the last: 64 segments of 5,000 samples, each longer than a 4,096-sample _CHUNK
        [(65536, _CHUNK), (5 * _CHUNK + 123, _CHUNK), (64 * 5000 + 5, 2**12)],
    )
    def test_matches_one_shot_periodogram(self, monkeypatch, cpus, n_samples, chunk):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        rng = np.random.Generator(np.random.Philox(key=np.array([13, 2], dtype=np.uint64)))
        series = rng.standard_normal(n_samples)
        est = estimate_psd(series, FS)
        m = n_samples // 64
        segments = series[: m * 64].reshape(64, m)
        rows = np.abs(np.fft.rfft(segments, axis=1)) ** 2 / m
        assert np.array_equal(est.variance, rows.mean(axis=0))
        want_se = rows.std(axis=0, ddof=1) / math.sqrt(64)
        assert np.array_equal(est.standard_error, want_se)
        assert np.array_equal(est.frequencies, np.fft.rfftfreq(m, d=1.0 / FS))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    # 64 segments of 1,024 samples are one block on the calling thread; of
    # 8,192 samples, two blocks of 32 segments, one per worker thread
    @pytest.mark.parametrize("segment", [1024, 8192])
    def test_non_finite_series_raises_only_the_error(self, monkeypatch, bad, segment):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        series = np.ones(64 * segment)
        series[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite PSD bins"):
                estimate_psd(series, FS)

    def test_band_average_masks_tone(self):
        m, n_seg = 1024, 64
        freq = 100.0 * FS / m
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
        t = np.arange(m * n_seg) / FS
        series = rng.standard_normal(m * n_seg) + 2.0 * np.sin(2.0 * math.pi * freq * t)
        est = estimate_psd(series, FS)
        bin_width = FS / m
        masked, se = band_average(est, exclude_hz=freq, exclude_width_hz=3.0 * bin_width)
        unmasked, _ = band_average(est)
        assert abs(masked - 1.0) <= 3.0 * se
        assert unmasked > masked + 1.0


class TestKernels:
    def test_flat_kernel_scales_photocurrent(self):
        x = np.linspace(-1.0, 1.0, 50)
        p = make_params(gain=3.2)
        want = 3.2 * x
        assert np.array_equal(apply_kernel(FlatKernel(), x, p, FS), want)

    def test_bandpass_is_causal(self):
        # zero-padding the input front shifts the output bit for bit
        kern = BandpassKernel(center_hz=5000.0, bandwidth_hz=500.0, gain=2.0)
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        x = rng.standard_normal(8192)
        p = make_params(gain=1.0)
        shift = 128
        y = apply_kernel(kern, x, p, FS)
        y_shifted = apply_kernel(kern, np.concatenate([np.zeros(shift), x]), p, FS)
        assert np.array_equal(y_shifted[:shift], np.zeros(shift))
        assert np.array_equal(y_shifted[shift:], y[: y.size])

    def test_bandpass_peak_response(self):
        # a tone at the centre frequency passes with ~unit kernel response
        kern = BandpassKernel(center_hz=5000.0, bandwidth_hz=500.0, gain=1.0)
        t = np.arange(65536) / FS
        x = np.sin(2.0 * math.pi * 5000.0 * t)
        y = apply_kernel(kern, x, make_params(), FS)
        # discard the transient, compare steady-state rms
        rms_in = float(np.sqrt(np.mean(x[8192:] ** 2)))
        rms_out = float(np.sqrt(np.mean(y[8192:] ** 2)))
        assert math.isclose(rms_out, rms_in, rel_tol=1e-2)

    def test_bandpass_is_one_lfilter_call(self):
        # the resonator state carries from block to block within a step call
        # (apply_kernel) and from call to call of one step, fed _CHUNK slices
        # in order as simulate_streams feeds it: both give the bits of one
        # whole-array lfilter, a partial last block and chunk included
        from scipy import signal

        kern = BandpassKernel(center_hz=1000.0, bandwidth_hz=200.0, gain=2.5)
        rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        x = rng.standard_normal(5 * _CHUNK // 2 + 123)
        b, a = signal.iirpeak(1000.0, 1000.0 / 200.0, fs=CHUNK_FS)
        want = 2.5 * signal.lfilter(b, a, x)
        assert np.array_equal(apply_kernel(kern, x, make_params(), CHUNK_FS), want)
        step = montecarlo._kernel_step(kern, make_params(), CHUNK_FS)
        chunked = x.copy()
        for start in range(0, chunked.size, _CHUNK):
            step(chunked[start : start + _CHUNK])
        assert np.array_equal(chunked, want)

    def test_peak_coefficients_have_recorded_bits(self):
        # on any numpy and scipy, the closed form gives the b and a that
        # scipy 1.17.1's iirpeak gave, across the resonator's domain
        for (center, width, fs), want in _recorded_peak_coefficients():
            kern = BandpassKernel(center_hz=center, bandwidth_hz=width, gain=1.0)
            got = montecarlo._peak_coefficients(kern, fs)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (center, width, fs)

    @pytest.mark.skipif(
        SCIPY_VERSION < (1, 17),
        reason="only scipy 1.17's iirpeak was checked; older releases may scale "
        "tan(bw/2) by gb/sqrt(1 - gb^2), which is 1 - 2^-53",
    )
    def test_peak_coefficients_are_iirpeak(self):
        # the closed form has the installed iirpeak's bits on the recorded cases
        from scipy import signal

        for (center, width, fs), _ in _recorded_peak_coefficients():
            kern = BandpassKernel(center_hz=center, bandwidth_hz=width, gain=1.0)
            got = montecarlo._peak_coefficients(kern, fs)
            want = signal.iirpeak(center, center / width, fs=fs)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (center, width, fs)

    @pytest.mark.parametrize(
        "kern", [FlatKernel(), BandpassKernel(center_hz=1000.0, bandwidth_hz=200.0, gain=2.5)]
    )
    def test_apply_kernel_leaves_its_input_unchanged(self, kern):
        rng = np.random.Generator(np.random.Philox(key=np.array([17, 1], dtype=np.uint64)))
        x = rng.standard_normal(_CHUNK + 5)
        before = x.copy()
        apply_kernel(kern, x, make_params(gain=1.5), CHUNK_FS)
        assert np.array_equal(x, before)

    def test_bandpass_validation(self):
        with pytest.raises(ValueError):
            BandpassKernel(center_hz=-1.0, bandwidth_hz=10.0, gain=1.0)
        with pytest.raises(ValueError):
            BandpassKernel(center_hz=100.0, bandwidth_hz=0.0, gain=1.0)


class TestOracle:
    def test_passive_network_phase_psd_at_qnl(self):
        cfg = config_for(make_params(epsilon=0.3, eta_h=0.9, eta_d=0.8), seed=21)
        est = estimate_psd(simulate_streams(cfg).phase, FS)
        mean, se = band_average(est)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_cancellation_gain_psd(self):
        cfg = config_for(make_params(epsilon=0.2, gain=2.0), seed=22)
        est = estimate_psd(simulate_streams(cfg).phase, FS)
        mean, se = band_average(est)
        assert abs(mean - 5.0) <= 3.0 * se

    def test_benchmark_floor_psd(self):
        p = make_params(epsilon=0.2, eta_h=0.94, eta_d=0.91, gain=3.2)
        cfg = config_for(p, seed=23)
        est = estimate_psd(simulate_streams(cfg).phase, FS)
        mean, se = band_average(est)
        assert abs(mean - 11.24) <= 3.0 * se

    def test_oracle_compare_angles_pass(self):
        cfg = config_for(make_params(epsilon=0.2, gain=2.0), seed=24)
        report = oracle_compare(cfg, [0.0, math.pi / 4.0, math.pi / 2.0])
        assert report.all_pass
        assert [round(r.analytic_variance, 6) for r in report.rows] == [
            round(spectrum_from_modes(cfg.params, phi), 6)
            for phi in (0.0, math.pi / 4.0, math.pi / 2.0)
        ]

    def test_oracle_compare_rejects_bandpass(self):
        kern = BandpassKernel(center_hz=5000.0, bandwidth_hz=500.0, gain=2.0)
        cfg = config_for(make_params(), kernel=kern)
        with pytest.raises(ValueError, match="flat kernel"):
            oracle_compare(cfg, [0.0])

    def test_tone_shows_up_amplified(self):
        # input tone on the phase quadrature leaves with the signal power
        # gain; here sqrt(eps) + K sqrt(1-eps) = sqrt(5) in amplitude
        m = 1024
        freq = 100.0 * FS / m
        a = 2.0
        cfg = config_for(
            make_params(epsilon=0.2, gain=2.0),
            seed=25,
            signal_frequency=freq,
            signal_amplitude=a,
        )
        est = estimate_psd(simulate_streams(cfg).phase, FS)
        tone_bin = int(round(freq / (FS / m)))
        expected_tone = 5.0 * a * a * m / 4.0
        assert math.isclose(est.variance[tone_bin], expected_tone + 5.0, rel_tol=5e-2)
        # the oracle masks the tone out of its band averages
        report = oracle_compare(cfg, [math.pi / 2.0])
        assert report.all_pass
        assert math.isclose(report.rows[0].analytic_variance, 5.0, rel_tol=1e-12)


# 2.5 chunks at a low sample rate: two full chunks and a partial last one
CHUNK_FS = 8192.0
CHUNKED_RUNS = {
    "flat": {"params": make_params(gain=2.0)},
    "bandpass": {
        "params": make_params(eta_h=0.9, eta_d=0.8),
        "kernel": BandpassKernel(center_hz=1000.0, bandwidth_hz=200.0, gain=2.0),
    },
    "tone": {
        "params": make_params(gain=1.5, v=2.0),
        "signal_frequency": 1000.1,  # not a whole number of cycles per chunk
        "signal_amplitude": 0.5,
    },
}


def chunked_config(name, n_samples=5 * _CHUNK // 2, seed=31):
    return SimConfig(
        sample_rate=CHUNK_FS, duration=n_samples / CHUNK_FS, seed=seed, **CHUNKED_RUNS[name]
    )


def chunk_streams(config, trial, chunk):
    """_chunk_streams into three new rows the length of the run's chunk."""
    n = min(config.n_samples - chunk * _CHUNK, _CHUNK)
    rows = tuple(np.empty(n) for _ in range(3))
    return montecarlo._chunk_streams(config, trial, chunk, rows)


class ChunkWatch:
    """Wraps _chunk_streams and the kernel's step, by name in montecarlo.
    `steps` lists the (thread id, chunk) of every step call in call order,
    and `most` counts the most chunks ever drawn and not yet corrected.  Each
    draw and each step sleeps `lag` seconds first, so that the threads
    overlap; the step called after `fail_at` others raises at once."""

    def __init__(self, monkeypatch, lag=0.0, fail_at=None):
        self.steps, self.most, self.drawn, lock = [], 0, {}, threading.Lock()
        draw, build = montecarlo._chunk_streams, montecarlo._kernel_step

        def drawing(config, trial, chunk, rows):
            time.sleep(lag)
            streams = draw(config, trial, chunk, rows)
            with lock:
                self.drawn[id(streams[1])] = chunk  # the photocurrent row
                self.most = max(self.most, len(self.drawn))
            return streams

        def building(*args):
            step = build(*args)

            def stepping(photocurrent):
                if len(self.steps) == fail_at:
                    raise RuntimeError("step failed")
                time.sleep(lag)
                self.steps.append((threading.get_ident(), self.drawn[id(photocurrent)]))
                step(photocurrent)
                with lock:
                    del self.drawn[id(photocurrent)]
                return photocurrent

            return stepping

        monkeypatch.setattr(montecarlo, "_chunk_streams", drawing)
        monkeypatch.setattr(montecarlo, "_kernel_step", building)


def many_chunks(monkeypatch, name, cpus):
    """The named run as 17 chunks of 2^12 samples, the last a partial one,
    on `cpus` usable CPUs."""
    monkeypatch.setattr(montecarlo, "_CHUNK", 2**12)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    return chunked_config(name, n_samples=16 * 2**12 + 123)


def untimed_draw():
    """One draw before tracemalloc starts, so a traced peak counts the run
    and not the lazy import of numpy.random on the process's first draw."""
    _substream(0, 0).standard_normal()


def _bandpass_streams():
    kern = BandpassKernel(center_hz=5000.0, bandwidth_hz=500.0, gain=2.0)
    cfg = SimConfig(
        params=make_params(eta_h=0.9, eta_d=0.8), sample_rate=FS, duration=2**22 / FS,
        kernel=kern, seed=3,
    )
    montecarlo._linear_filter()  # loads the filter before tracing
    return functools.partial(simulate_streams, cfg)


def _oracle_run(samples, angles, **params):
    cfg = SimConfig(params=make_params(**params), sample_rate=FS, duration=samples / FS, seed=3)
    return functools.partial(oracle_compare, cfg, angles)


def _at_angle():
    rng = np.random.Generator(np.random.Philox(key=np.array([19, 1], dtype=np.uint64)))
    return functools.partial(QuadratureStreams(*rng.standard_normal((2, 2**22))).at_angle, 0.4)


def _chunk_streams_with_scratch(name):
    rows = tuple(np.empty(_CHUNK) for _ in range(3))
    return lambda: montecarlo._chunk_streams(chunked_config(name), 0, 1, rows)


# The one table of traced memory peaks: (case id, build, samples, bound in B
# per sample).  build() makes the inputs before tracing and returns the call
# whose peak, on one CPU, after a first draw, divided by samples, is bounded.
# tracemalloc does not see mapped memory, so _mapped is np.empty while
# traced, and every row and block that a chunk or an FFT block maps is counted.
PEAKS = [
    # besides its outputs a chunk holds the first detector vacuum's row
    # (8 B per sample) and two draw blocks (2 more); two scratch rows took 16
    *((f"chunk-streams-{name}", functools.partial(_chunk_streams_with_scratch, name),
       _CHUNK, 11.0) for name in ("flat", "tone")),
    # a one-chunk run: the projected series (8 B per sample), the chunk's
    # photocurrent and phase (16), its detector row and two draw blocks, and
    # the periodogram rows with one block's FFT rows; two scratch rows in
    # place of the one row and two blocks took 6 B per sample more
    ("one-chunk-oracle",
     lambda: _oracle_run(_CHUNK, [0.0, 0.7, math.pi / 2.0], eta_h=0.9, eta_d=0.8, gain=2.0),
     _CHUNK, 36.0),
    # the projected series (8 B per sample), the periodogram rows (about 4),
    # in which the standard errors are formed, and one chunk's rows (its
    # photocurrent, its phase, its detector row and two blocks); three whole
    # streams took 32, and std's temporary of the periodogram's size 4 more
    ("oracle", lambda: _oracle_run(2**22, [1.0], gain=2.0), 2**22, 14.0),
    # the two streams (16 B per sample) and one chunk's rows: its
    # photocurrent, its detector row and two blocks, and one block of filter
    # output; the whole-run photocurrent it was filtered in took 8 more
    ("bandpass-streams", _bandpass_streams, 2**22, 18.0),
    # the projection (8 B per sample) and one block's temporary; two
    # whole-array products took 16
    ("at-angle", _at_angle, 2**22, 10.0),
]


class TestChunks:
    @pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
    def test_streams_independent_of_thread_count(self, monkeypatch, name):
        cfg = chunked_config(name)
        default = simulate_streams(cfg, trial=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the chunk threads finely
        try:
            for cpus in (1, 3):  # 3 is one thread per chunk
                monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
                forced = simulate_streams(cfg, trial=2)
                assert np.array_equal(forced.amplitude, default.amplitude)
                assert np.array_equal(forced.phase, default.phase)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
    def test_whole_chunks_are_a_prefix(self, name):
        # chunk k depends only on (seed, trial, k) and the kernel is causal,
        # so a two-chunk run is the start of a 2.5-chunk run
        longer = simulate_streams(chunked_config(name))
        shorter = simulate_streams(chunked_config(name, n_samples=2 * _CHUNK))
        assert np.array_equal(longer.amplitude[: 2 * _CHUNK], shorter.amplitude)
        assert np.array_equal(longer.phase[: 2 * _CHUNK], shorter.phase)

    def test_single_chunk_is_the_unchunked_stream(self):
        # a run of at most _CHUNK samples draws Philox keyed on (seed, trial)
        # from its default counter, as before chunking
        p = make_params(epsilon=0.3, gain=2.0)
        cfg = SimConfig(params=p, sample_rate=CHUNK_FS, duration=_CHUNK / CHUNK_FS, seed=8)
        key = np.array([cfg.seed, 4], dtype=np.uint64)
        draws = np.random.Generator(np.random.Philox(key=key)).standard_normal((7, _CHUNK))
        rows = dict(zip(montecarlo._MODE_ORDER, draws))
        amplitude = math.sqrt(0.3) * rows[NoiseMode.INPUT_AMPLITUDE] - math.sqrt(0.7) * rows[
            NoiseMode.TAP_VACUUM_AMPLITUDE
        ]
        assert np.array_equal(simulate_streams(cfg, trial=4).amplitude, amplitude)

    def test_tone_continues_across_chunks(self):
        # the tone's time axis runs over the whole run, not per chunk
        cfg = chunked_config("tone")
        noise_only = replace(cfg, signal_amplitude=0.0)
        tone = simulate_streams(cfg).phase - simulate_streams(noise_only).phase
        p = cfg.params
        gain = math.sqrt(p.epsilon) + p.gain.real * math.sqrt(p.eta1 * (1.0 - p.epsilon))
        t = np.arange(cfg.n_samples) / CHUNK_FS
        want = gain * cfg.signal_amplitude * np.sin(2.0 * math.pi * cfg.signal_frequency * t)
        assert np.max(np.abs(tone - want)) < 1e-12

    def test_adjacent_chunks_uncorrelated(self):
        x = simulate_streams(chunked_config("flat", seed=7)).phase
        n = _CHUNK
        first, second = x[:n], x[n : 2 * n]
        cross = float(np.dot(first, second)) / n
        bound = 3.0 * float(first.std() * second.std()) / math.sqrt(n)
        assert abs(cross) < bound

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_bandpass_streams_are_one_lfilter_over_the_chunk_rows(self, monkeypatch, cpus):
        # the resonator runs over the whole photocurrent in chunk order, its
        # state carried over each chunk boundary and into the partial last chunk
        from scipy import signal

        cfg = chunked_config("bandpass")
        kern = cfg.kernel
        chunks = [chunk_streams(cfg, 2, chunk) for chunk in range(3)]
        amplitude, photocurrent, phase = (np.concatenate(rows) for rows in zip(*chunks))
        b, a = signal.iirpeak(kern.center_hz, kern.center_hz / kern.bandwidth_hz, fs=CHUNK_FS)
        phase += kern.gain * signal.lfilter(b, a, photocurrent)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        streams = simulate_streams(cfg, trial=2)
        assert np.array_equal(streams.amplitude, amplitude)
        assert np.array_equal(streams.phase, phase)

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize(
        "name, n_samples, chunk",
        # 64 segments of 5,000 samples, each longer than a 4,096-sample _CHUNK
        [("tone", 5 * _CHUNK + 123, _CHUNK), ("flat", 64 * 5000 + 5, 2**12)],
    )
    def test_oracle_rows_are_the_whole_stream_estimate(
        self, monkeypatch, name, n_samples, chunk, cpus
    ):
        # for the flat kernel, the one oracle_compare takes, each chunk
        # projected on the thread that drew it gives the whole streams'
        # projection, and oracle_compare gives the rows of its estimate
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        cfg = chunked_config(name, n_samples=n_samples)
        angles = [0.3, math.pi / 2.0]
        wholes = [simulate_streams(cfg, trial).at_angle(phi) for trial, phi in enumerate(angles)]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the chunk and block threads finely
        try:
            flowed = [montecarlo._projection(cfg, trial, phi) for trial, phi in enumerate(angles)]
            report = oracle_compare(cfg, angles)
        finally:
            sys.setswitchinterval(interval)
        for got, whole in zip(flowed, wholes):
            assert np.array_equal(got, whole)
        want = []
        for whole in wholes:
            est = estimate_psd(whole, CHUNK_FS)
            if cfg.signal_amplitude > 0.0:
                width = 3.0 * float(est.frequencies[1])
                want.append(band_average(est, cfg.signal_frequency, width))
            else:
                want.append(band_average(est))
        assert [(row.mc_variance, row.standard_error) for row in report.rows] == want

    def test_chunk_streams_fold_the_whole_block_expressions(self):
        # the modes are drawn one row at a time and folded in as they arrive;
        # the bits are those of one (7, length) draw and the three
        # expressions over it, here on a partial last chunk with a tone
        p = NetworkParams(epsilon=0.3, eta_h1=0.9, eta_d1=0.85, gain=1.5, v_phase_in=2.0)
        cfg = replace(chunked_config("tone"), params=p)
        trial, chunk = 5, 2
        start, stop = chunk * _CHUNK, cfg.n_samples
        assert 0 < stop - start < _CHUNK
        eps, eh, ed = p.epsilon, p.eta_h1, p.eta_d1
        draws = _substream(cfg.seed, trial, chunk).standard_normal((7, stop - start))
        rows = dict(zip(montecarlo._MODE_ORDER, draws))
        x = rows[NoiseMode.INPUT_PHASE] * math.sqrt(p.v_phase_in)
        t = np.arange(start, stop) / cfg.sample_rate
        x += cfg.signal_amplitude * np.sin(2.0 * math.pi * cfg.signal_frequency * t)
        photocurrent = (
            math.sqrt(eh * ed * (1.0 - eps)) * x
            + math.sqrt(ed * eh * eps) * rows[NoiseMode.TAP_VACUUM_PHASE]
            + math.sqrt(ed * (1.0 - eh)) * rows[NoiseMode.HOMODYNE_MISMATCH_PHASE]
            + math.sqrt((1.0 - ed) / 2.0)
            * (rows[NoiseMode.DETECTOR_VACUUM_1] + rows[NoiseMode.DETECTOR_VACUUM_2])
        )
        amplitude = math.sqrt(eps) * rows[NoiseMode.INPUT_AMPLITUDE] - math.sqrt(
            1.0 - eps
        ) * rows[NoiseMode.TAP_VACUUM_AMPLITUDE]
        phase = math.sqrt(eps) * x - math.sqrt(1.0 - eps) * rows[NoiseMode.TAP_VACUUM_PHASE]
        outputs = tuple(np.empty(stop - start) for _ in range(3))
        got = montecarlo._chunk_streams(cfg, trial, chunk, outputs)
        names = ("amplitude", "photocurrent", "phase")
        for name, g, want in zip(names, got, (amplitude, photocurrent, phase)):
            assert np.array_equal(g, want), name
        assert all(g is output for g, output in zip(got, outputs))

    @pytest.mark.parametrize("block", [1000, 4097, _CHUNK])
    def test_chunk_streams_do_not_depend_on_the_block_size(self, monkeypatch, block):
        # consecutive draws into blocks continue the substream, so any block
        # size, a whole row at a time included, gives the same bits; here on
        # a partial last chunk that is no whole number of blocks, with a tone
        cfg = chunked_config("tone", n_samples=2 * _CHUNK + 3 * montecarlo._BLOCK + 77)
        want = chunk_streams(cfg, 4, 2)
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        got = chunk_streams(cfg, 4, 2)
        for name, g, w in zip(("amplitude", "photocurrent", "phase"), got, want):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("build, samples, bound", [row[1:] for row in PEAKS],
                             ids=[row[0] for row in PEAKS])
    def test_peak_memory_per_sample(self, monkeypatch, build, samples, bound):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "_mapped", np.empty)
        call = build()
        untimed_draw()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / samples <= bound

    @pytest.mark.parametrize(
        "flow, cpus",
        [
            *((functools.partial(simulate_streams, chunked_config("bandpass")), cpus)
              for cpus in (1, 2, 3)),
            # the oracle corrects and projects each chunk on its worker
            *((functools.partial(oracle_compare, chunked_config("flat"), [0.0]), cpus)
              for cpus in (1, 2, 3)),
        ],
        ids=["1", "2", "3", "oracle-1", "oracle-2", "oracle-3"],
    )
    def test_failing_chunk_raises(self, monkeypatch, flow, cpus):
        # a chunk whose draw fails makes the run raise the draw's error once
        # the draws in flight have ended, with no thread left running; the
        # run is joined with a timeout, so a hang fails instead of stalling
        original = montecarlo._chunk_streams

        def failing(config, trial, chunk, rows):
            if chunk == 1:
                raise MemoryError("chunk 1 failed")
            return original(config, trial, chunk, rows)

        monkeypatch.setattr(montecarlo, "_chunk_streams", failing)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        before, raised = threading.active_count(), []

        def run():
            try:
                flow()
            except MemoryError as error:
                raised.append(str(error))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the run hung after a failed chunk"
        assert raised == ["chunk 1 failed"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", ["flat", "bandpass"])
    def test_steps_run_on_the_caller_in_chunk_order(self, monkeypatch, name, cpus):
        # the workers only draw, and the calling thread corrects the chunks
        # in order; a chunk is drawn only once the caller is done with the
        # one `workers` before it, so a lagging caller holds at most
        # `workers` chunks drawn and not yet corrected
        cfg = many_chunks(monkeypatch, name, cpus)
        watch = ChunkWatch(monkeypatch, lag=0.002)
        simulate_streams(cfg)
        assert watch.steps == [(threading.get_ident(), chunk) for chunk in range(17)]
        assert 1 <= watch.most <= cpus

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", ["flat", "bandpass"])
    def test_failing_step_raises_and_leaves_no_thread(self, monkeypatch, name, cpus):
        # the second chunk's step raises on the calling thread: the run
        # re-raises it once the draws in flight are done, and every drawing
        # thread has ended; joined with a timeout, as above
        cfg = many_chunks(monkeypatch, name, cpus)
        ChunkWatch(monkeypatch, lag=0.02, fail_at=1)
        before, raised = threading.active_count(), []

        def run():
            try:
                simulate_streams(cfg)
            except RuntimeError as error:
                raised.append(str(error))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "simulate_streams hung after a failed step"
        assert raised == ["step failed"]
        assert threading.active_count() == before
