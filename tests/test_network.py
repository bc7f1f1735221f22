"""Tests for the analytic feed-forward network model."""

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaseff import (
    NetworkParams,
    NoiseMode,
    SimConfig,
    SourceVariances,
    db_from_linear,
    detected_variance,
    ideal_gain,
    infer_snr,
    max_transfer_ratio,
    mode_coefficients,
    optimal_gain,
    output_expansion,
    phase_variance,
    pia_transfer_ratio,
    signal_power_gain,
    spectrum_closed_form,
    spectrum_from_modes,
    simulate_streams,
    transfer_ratio,
    variance_of,
)
from phaseff import montecarlo
from phaseff.montecarlo import _CHUNK, MIN_SAMPLES, _substream
from phaseff.network import _table

# Benchmark operating point used throughout: 20% transmission, measured
# in-loop efficiencies, gain 3.2, inferred input phase variance 8.6 dB,
# verification stage 0.8008.
V_IN = 10.0**0.86
BENCH = NetworkParams(
    epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2, v_phase_in=V_IN, eta_det2=0.8008
)

unit_open = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
real_gains = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
phase_excess = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)


def params_like(epsilon, eta_h=1.0, eta_d=1.0, gain=0.0, v=1.0, eta2=1.0):
    return NetworkParams(
        epsilon=epsilon, eta_h1=eta_h, eta_d1=eta_d, gain=gain, v_phase_in=v, eta_det2=eta2
    )


network_params = st.builds(
    params_like,
    epsilon=unit_open,
    eta_h=unit_open,
    eta_d=unit_open,
    gain=real_gains,
    v=phase_excess,
)


class TestNetworkParams:
    @pytest.mark.parametrize("field,value", [
        ("epsilon", 0.0),
        ("epsilon", 1.2),
        ("eta_h1", -0.1),
        ("eta_d1", 0.0),
        ("eta_det2", 1.5),
        ("v_phase_in", 0.5),
        # the output phase variance, the mode sum at v_phase_in = 1, overflows
        ("gain", 1e155),
        ("gain", -1e155 + 1e155j),
    ])
    def test_range_validation(self, field, value):
        kwargs = {"epsilon": 0.2, "eta_h1": 0.94, "eta_d1": 0.91, "gain": 1.0}
        kwargs[field] = value
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(ValueError):
            params_like(0.2, gain=float("nan"))

    def test_eta1_is_product(self):
        assert BENCH.eta1 == 0.94 * 0.91

    def test_with_gain_replaces_only_gain(self):
        p2 = BENCH.with_gain(1.5)
        assert p2.gain == 1.5 + 0j
        assert p2.epsilon == BENCH.epsilon
        assert p2.v_phase_in == BENCH.v_phase_in


def column(mode):
    """Column of mode in the mode_coefficients table."""
    return list(NoiseMode).index(mode)


LOSS_COLUMNS = [
    column(m)
    for m in (
        NoiseMode.HOMODYNE_MISMATCH_PHASE,
        NoiseMode.DETECTOR_VACUUM_1,
        NoiseMode.DETECTOR_VACUUM_2,
    )
]


class TestModeCoefficients:
    def test_shape_and_column_order(self):
        table = mode_coefficients(BENCH)
        assert table.shape == (2, len(NoiseMode))
        e = output_expansion(BENCH, 0.0)
        assert [e.coefficient(m) for m in NoiseMode] == list(table[0])

    @given(p=network_params)
    def test_amplitude_row_is_passive(self, p):
        amplitude = mode_coefficients(p)[0]
        assert math.isclose(np.sum(np.abs(amplitude) ** 2), 1.0, rel_tol=1e-12)

    @given(p=network_params)
    def test_detector_vacua_columns_equal(self, p):
        table = mode_coefficients(p)
        assert np.array_equal(
            table[:, column(NoiseMode.DETECTOR_VACUUM_1)],
            table[:, column(NoiseMode.DETECTOR_VACUUM_2)],
        )

    @given(epsilon=unit_open)
    def test_inverse_epsilon_law(self, epsilon):
        # lossless detection at the cancellation gain: the phase signal gets
        # power gain 1/epsilon and the tap vacuum cancels
        phase = mode_coefficients(params_like(epsilon, gain=ideal_gain(epsilon)))[1]
        assert math.isclose(
            abs(phase[column(NoiseMode.INPUT_PHASE)]) ** 2, 1.0 / epsilon, rel_tol=1e-12
        )
        assert abs(phase[column(NoiseMode.TAP_VACUUM_PHASE)]) < 1e-12

    @given(p=network_params)
    def test_closed_form_terms_match_table(self, p):
        # spectrum_closed_form writes these two terms out; tie them to the table
        eps, eta, k = p.epsilon, p.eta1, p.gain
        weights = np.abs(mode_coefficients(p)[1]) ** 2
        loop_loss = abs(k) ** 2 * (1.0 - eta)
        assert abs(weights[LOSS_COLUMNS].sum() - loop_loss) <= 1e-12 * max(1.0, loop_loss)
        ratio2 = abs(1.0 + k * math.sqrt(eta * (1.0 - eps) / eps)) ** 2
        signal = weights[column(NoiseMode.INPUT_PHASE)] / eps
        assert math.isclose(signal, ratio2, rel_tol=1e-12, abs_tol=1e-12)

    def test_rows_match_monte_carlo_signal_flow(self):
        # simulate_streams states the signal flow on its own; regressing its
        # streams on its own noise draws recovers both rows to round-off.
        # Chunk k of a run draws from _substream(seed, trial, k); the second
        # run ends in a partial chunk.
        fs = float(MIN_SAMPLES)
        for n_samples in (MIN_SAMPLES, 5 * _CHUNK // 2):
            config = SimConfig(params=BENCH, sample_rate=fs, duration=n_samples / fs, seed=5)
            streams = simulate_streams(config, trial=3)
            draws = np.concatenate(
                [
                    _substream(config.seed, 3, k).standard_normal(
                        (len(NoiseMode), min(_CHUNK, n_samples - start))
                    )
                    for k, start in enumerate(range(0, n_samples, _CHUNK))
                ],
                axis=1,
            )
            draws[column(NoiseMode.INPUT_PHASE)] *= math.sqrt(BENCH.v_phase_in)
            outputs = np.stack([streams.amplitude, streams.phase], axis=1)
            solution = np.linalg.lstsq(draws.T, outputs, rcond=None)[0]
            assert np.max(np.abs(solution.T - mode_coefficients(BENCH))) < 1e-12

    @pytest.mark.parametrize("p", [BENCH, params_like(0.5, eta_h=0.7, gain=-1.3, v=3.0)])
    def test_expansion_variance_matches_spectrum(self, p):
        sources = SourceVariances.vacuum(input_phase=p.v_phase_in)
        for phi in np.linspace(0.0, 2.0 * math.pi, 37):
            assert math.isclose(
                variance_of(output_expansion(p, phi), sources),
                spectrum_from_modes(p, phi),
                rel_tol=1e-14,
            )


def _array_table(p):
    """The table as mode_coefficients built it before _table: each weight
    written into the array expression."""
    eps = p.epsilon
    eh, ed = p.eta_h1, p.eta_d1
    k = p.gain
    detector = k * math.sqrt(1.0 - ed) / math.sqrt(2.0)
    return np.array(
        [
            [math.sqrt(eps), 0.0, -math.sqrt(1.0 - eps), 0.0, 0.0, 0.0, 0.0],
            [
                0.0,
                math.sqrt(eps) + k * math.sqrt(eh * ed * (1.0 - eps)),
                0.0,
                k * math.sqrt(ed * eh * eps) - math.sqrt(1.0 - eps),
                k * math.sqrt(ed * (1.0 - eh)),
                detector,
                detector,
            ],
        ],
        dtype=complex,
    )


def _array_weights(p):
    phase_row = _array_table(p)[1]
    return phase_row.real * phase_row.real + phase_row.imag * phase_row.imag


def _array_closed_form(p, phi):
    """spectrum_closed_form as it was computed on the array weights."""
    eps = p.epsilon
    eh, ed = p.eta_h1, p.eta_d1
    k = p.gain
    v = p.v_phase_in
    angles = np.asarray(phi, dtype=float)
    s2 = np.sin(angles) ** 2
    c2 = np.cos(angles) ** 2
    weights = _array_weights(p)
    signal_gain = weights[column(NoiseMode.INPUT_PHASE)]
    ratio2 = abs(1.0 + k * math.sqrt(eh * ed * (1.0 - eps) / eps)) ** 2
    den = c2 + ratio2 * s2
    safe = np.where(den > 0.0, den, 1.0)
    sin2a = np.where(den > 0.0, ratio2 * s2 / safe, 0.0)
    cos2a = np.where(den > 0.0, c2 / safe, 1.0)
    prefactor = np.sqrt(v * v / (sin2a + v * v * cos2a))
    tap_phase = weights[column(NoiseMode.TAP_VACUUM_PHASE)]
    loop_loss = abs(k) ** 2 * (1.0 - ed * eh)
    return (
        prefactor * (eps * c2 + signal_gain * s2)
        + (1.0 - eps) * c2
        + tap_phase * s2
        + loop_loss * s2
    )


def _array_from_modes(p, phi):
    """spectrum_from_modes as it was computed: one broadcast over the array
    table, then numpy's sum over the seven modes."""
    angles = np.asarray(phi, dtype=float)
    amplitude, phase = _array_table(p)
    rows = np.cos(angles)[..., None] * amplitude + np.sin(angles)[..., None] * phase
    weights = rows.real * rows.real + rows.imag * rows.imag
    variances = np.ones(len(NoiseMode))
    variances[column(NoiseMode.INPUT_PHASE)] = p.v_phase_in
    return np.sum(weights * variances, axis=-1)


# angles where cos(phi)^2, the floor of the closed form's denominator, is
# smallest: the odd multiples of pi/2 nearest a double, their neighbours, and
# an angle whose reduction mod 2*pi is far from the argument
EDGE_ANGLES = [
    math.pi / 2.0,
    3.0 * math.pi / 2.0,
    math.nextafter(math.pi / 2.0, 0.0),
    math.nextafter(math.pi / 2.0, 4.0),
    math.nextafter(3.0 * math.pi / 2.0, 0.0),
    math.nextafter(3.0 * math.pi / 2.0, 7.0),
    1e300,
]


def _operating_points():
    """The benchmark point, its edge cases and 60 seeded random points."""
    points = [
        BENCH,
        replace(BENCH, gain=2.5 - 1.25j),
        replace(BENCH, gain=-1.5),
        replace(BENCH, eta_d1=1.0),
        replace(BENCH, eta_h1=1.0),
        replace(BENCH, epsilon=1.0, eta_h1=1.0, eta_d1=1.0, gain=0.0),
    ]
    rng = random.Random(1201)
    for _ in range(60):
        imag = rng.choice([0.0, rng.uniform(-2.0, 2.0)])
        points.append(
            params_like(
                rng.uniform(0.01, 1.0),
                rng.choice([1.0, rng.uniform(0.01, 1.0)]),
                rng.choice([1.0, rng.uniform(0.01, 1.0)]),
                complex(rng.uniform(-6.0, 6.0), imag),
                rng.uniform(1.0, 50.0),
            )
        )
    return points


OPERATING_POINTS = _operating_points()

# The table keeps the vacuum's commutator [X_out, Y_out] when, over the two
# optical modes, amplitude weight times phase weight sums to 1.  The gain
# terms cancel, so the rounding grows with the gain: the bound is 4 ulp of 1
# times (1 + |K|), fixed before the first run.
OPTICAL_MODES = [
    (NoiseMode.INPUT_AMPLITUDE, NoiseMode.INPUT_PHASE),
    (NoiseMode.TAP_VACUUM_AMPLITUDE, NoiseMode.TAP_VACUUM_PHASE),
]
COMMUTATOR_ULPS = 4


class TestScalarPathBits:
    """The Python-number table and gains against the array arithmetic they
    replaced, bit for bit: a 12-digit golden file cannot see a 1-ulp move."""

    @pytest.mark.parametrize("p", OPERATING_POINTS)
    def test_table_is_the_array_table(self, p):
        want = _array_table(p)
        assert np.array(_table(p), dtype=complex).tobytes() == want.tobytes()
        assert mode_coefficients(p).tobytes() == want.tobytes()
        amplitude, phase = _table(p)
        commutator = sum(amplitude[column(a)] * phase[column(b)] for a, b in OPTICAL_MODES)
        bound = COMMUTATOR_ULPS * np.finfo(float).eps * (1.0 + abs(p.gain))
        assert abs(commutator - 1.0) <= bound, commutator

    @pytest.mark.parametrize("p", OPERATING_POINTS)
    def test_gains_and_variances_keep_their_bits(self, p):
        # phase_variance and transfer_ratio are the mode sum at the phase
        # quadrature; they were the numpy dot below and a left-to-right loop
        weights = _array_weights(p)
        variances = np.ones(len(NoiseMode))
        variances[column(NoiseMode.INPUT_PHASE)] = p.v_phase_in
        signal = weights[column(NoiseMode.INPUT_PHASE)]
        assert signal_power_gain(p) == float(signal)
        assert transfer_ratio(p) == float(signal / weights.sum())
        floor = 0.0
        for w in weights.tolist():
            floor += w
        assert transfer_ratio(p) == float(signal) / floor
        assert phase_variance(p) == float(weights @ variances)

    @pytest.mark.parametrize("p", OPERATING_POINTS)
    def test_closed_form_keeps_its_bits(self, p):
        grid = np.linspace(0.0, 2.0 * math.pi, 97)
        assert spectrum_closed_form(p, grid).tobytes() == _array_closed_form(p, grid).tobytes()
        for phi in (0.0, 0.7, math.pi / 2.0):
            assert spectrum_closed_form(p, phi) == float(_array_closed_form(p, phi))


    @pytest.mark.parametrize("p", OPERATING_POINTS)
    def test_modes_keep_their_bits(self, p):
        grid = np.linspace(0.0, 2.0 * math.pi, 97)
        assert spectrum_from_modes(p, grid).tobytes() == _array_from_modes(p, grid).tobytes()

    @pytest.mark.parametrize("p", OPERATING_POINTS)
    @pytest.mark.parametrize("formula", [spectrum_closed_form, spectrum_from_modes])
    def test_scalar_path_is_the_array_element(self, p, formula):
        grid = np.linspace(0.0, 2.0 * math.pi, 97)
        values = formula(p, grid)
        assert [formula(p, phi) for phi in grid.tolist()] == values.tolist()
        detected = detected_variance(values, p.eta_det2)
        assert [detected_variance(v, p.eta_det2) for v in values.tolist()] == detected.tolist()

    @pytest.mark.parametrize("formula", [spectrum_closed_form, spectrum_from_modes])
    def test_scalar_path_is_the_array_element_at_many_angles(self, formula):
        # both paths square by multiplication; a scalar squared with ** (libm
        # pow) differed from the array element in the last bit at 17 of these
        rng = random.Random(1401)
        angles = [rng.uniform(-10.0, 10.0) for _ in range(20_000)]
        assert [formula(BENCH, phi) for phi in angles] == formula(BENCH, angles).tolist()

    @pytest.mark.parametrize("p", OPERATING_POINTS)
    def test_closed_form_denominator_is_positive(self, p):
        # den = cos^2 + ratio2 sin^2 >= cos^2 > 0, so the closed form needs no
        # guard against a zero denominator; the guarded form gives the same bits
        angles = np.array(EDGE_ANGLES)
        c2, s2 = np.cos(angles) ** 2, np.sin(angles) ** 2
        k = p.gain
        ratio2 = abs(1.0 + k * math.sqrt(p.eta_h1 * p.eta_d1 * (1.0 - p.epsilon) / p.epsilon)) ** 2
        assert np.all(c2 > 0.0) and np.all(c2 + ratio2 * s2 > 0.0)
        want = _array_closed_form(p, angles)
        assert spectrum_closed_form(p, angles).tobytes() == want.tobytes()
        assert [spectrum_closed_form(p, phi) for phi in EDGE_ANGLES] == want.tolist()


class _OneModeStream:
    """Stands in for a chunk's Philox substream: the stream positions of
    mode j's row of a (7, length) draw read 1.0 and every other position
    0.0.  It counts the samples drawn, so it serves draws of any size, into
    `out` or new."""

    def __init__(self, j, length):
        self.row = (j * length, (j + 1) * length)
        self.drawn = 0

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        positions = np.arange(self.drawn, self.drawn + out.size)
        out[...] = (positions >= self.row[0]) & (positions < self.row[1])
        self.drawn += out.size
        return out


# the signal flow and the table each round a handful of times: 4 ulp of the
# terms' magnitudes, fixed before the first run
SIGNAL_FLOW_ULPS = 4


def _random_networks(count=200):
    rng = random.Random(1701)
    return [
        params_like(
            rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0),
            rng.uniform(-10.0, 10.0), rng.uniform(1.0, 50.0),
        )
        for _ in range(count)
    ]


class TestSignalFlow:
    """The Monte Carlo's signal flow against the table with no sampling
    error: a unit sample in one mode alone must come out as that mode's
    column, scaled by the mode's standard deviation."""

    N = 70_000  # one chunk, at least MIN_SAMPLES, not a whole number of draw blocks

    def _check(self, monkeypatch, p):
        config = SimConfig(params=p, sample_rate=float(self.N), duration=1.0)
        table = _table(p)
        for j, mode in enumerate(NoiseMode):
            monkeypatch.setattr(
                montecarlo, "_substream", lambda seed, trial, chunk=0: _OneModeStream(j, self.N)
            )
            rows = tuple(np.empty(self.N) for _ in range(3))
            amplitude, photocurrent, phase = montecarlo._chunk_streams(config, 0, 0, rows)
            scale = math.sqrt(p.v_phase_in) if mode is NoiseMode.INPUT_PHASE else 1.0
            corrected = phase + p.gain * photocurrent
            terms = np.abs(phase) + abs(p.gain) * np.abs(photocurrent)
            for got, want, size in (
                (amplitude, table[0][j] * scale, np.abs(amplitude)),
                (corrected, table[1][j] * scale, terms),
            ):
                bound = SIGNAL_FLOW_ULPS * np.finfo(float).eps * np.maximum(size, abs(want))
                assert np.all(np.abs(got - want) <= bound), (mode, want, got[:3])

    @pytest.mark.parametrize("p", OPERATING_POINTS)
    def test_unit_mode_is_its_column(self, monkeypatch, p):
        self._check(monkeypatch, p)

    def test_unit_mode_is_its_column_on_random_networks(self, monkeypatch):
        for p in _random_networks():
            self._check(monkeypatch, p)


class TestOutputExpansion:
    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.5])
    def test_identity_channel(self, phi):
        e = output_expansion(params_like(1.0, gain=0.0), phi)
        assert set(e.coefficients) == {NoiseMode.INPUT_AMPLITUDE, NoiseMode.INPUT_PHASE}
        assert e.coefficient(NoiseMode.INPUT_AMPLITUDE) == math.cos(phi)
        assert e.coefficient(NoiseMode.INPUT_PHASE) == math.sin(phi)

    def test_cancellation_gain_zeroes_tap_phase(self):
        # At gain 2 = sqrt(0.8/0.2) the fed-forward tap vacuum cancels the
        # transmitted one exactly, so its key is dropped.
        e = output_expansion(params_like(0.2, gain=2.0), math.pi / 2.0)
        assert NoiseMode.TAP_VACUUM_PHASE not in e.coefficients
        c = e.coefficient(NoiseMode.INPUT_PHASE)
        assert math.isclose(c.real, math.sqrt(5.0), rel_tol=1e-12)
        # lossless loop: no mismatch or detector vacuum enters
        assert NoiseMode.HOMODYNE_MISMATCH_PHASE not in e.coefficients
        assert NoiseMode.DETECTOR_VACUUM_1 not in e.coefficients
        # cos(pi/2) is not an exact float zero, so the amplitude weights
        # survive as ~1e-17 residue
        assert abs(e.coefficient(NoiseMode.INPUT_AMPLITUDE)) < 1e-15

    def test_benchmark_phase_coefficients(self):
        e = output_expansion(BENCH, math.pi / 2.0)
        coeff = {m: e.coefficient(m).real for m in NoiseMode}
        assert math.isclose(coeff[NoiseMode.INPUT_PHASE], 3.094369956578767, rel_tol=1e-12)
        assert math.isclose(coeff[NoiseMode.TAP_VACUUM_PHASE], 0.4291509895394886, rel_tol=1e-12)
        assert math.isclose(
            coeff[NoiseMode.HOMODYNE_MISMATCH_PHASE], 0.7477325725150674, rel_tol=1e-12
        )
        assert math.isclose(coeff[NoiseMode.DETECTOR_VACUUM_1], 0.6788225099390854, rel_tol=1e-12)
        assert coeff[NoiseMode.DETECTOR_VACUUM_1] == coeff[NoiseMode.DETECTOR_VACUUM_2]

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError):
            output_expansion(BENCH, float("inf"))

    @given(p=network_params, phi=st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_detector_vacua_enter_symmetrically(self, p, phi):
        e = output_expansion(p, phi)
        assert e.coefficient(NoiseMode.DETECTOR_VACUUM_1) == e.coefficient(
            NoiseMode.DETECTOR_VACUUM_2
        )


class TestSpectra:
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2.0, 2.0, math.pi])
    def test_passive_network_sits_at_qnl(self, phi):
        p = params_like(0.37, eta_h=0.8, eta_d=0.9, gain=0.0)
        assert math.isclose(spectrum_from_modes(p, phi), 1.0, rel_tol=1e-12)

    def test_ideal_amplification_value(self):
        p = params_like(0.2, gain=2.0)
        assert math.isclose(spectrum_from_modes(p, math.pi / 2.0), 5.0, rel_tol=1e-12)
        assert math.isclose(spectrum_closed_form(p, math.pi / 2.0), 5.0, rel_tol=1e-12)

    def test_benchmark_floor_decomposition(self):
        p = replace(BENCH, v_phase_in=1.0)
        total = phase_variance(p)
        gain_term = signal_power_gain(p)
        assert math.isclose(gain_term, 9.575125428177278, rel_tol=1e-12)
        assert math.isclose(total - gain_term, 0.18417057182272226 + 1.480704, rel_tol=1e-9)
        assert math.isclose(total, 11.24, rel_tol=1e-12)

    def test_benchmark_phase_quadrature_with_signal(self):
        assert math.isclose(
            spectrum_from_modes(BENCH, math.pi / 2.0), 71.03052639582329, rel_tol=1e-12
        )
        assert math.isclose(
            spectrum_closed_form(BENCH, math.pi / 2.0), 71.03052639582329, rel_tol=1e-12
        )

    def test_phase_variance_equals_spectrum_at_half_pi(self):
        for p in (BENCH, params_like(0.5, eta_h=0.7, gain=-1.3, v=3.0)):
            assert math.isclose(
                phase_variance(p), spectrum_from_modes(p, math.pi / 2.0), rel_tol=1e-12
            )

    def test_array_evaluation_matches_scalars(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 17)
        for fn in (spectrum_from_modes, spectrum_closed_form):
            vec = fn(BENCH, angles)
            scal = np.array([fn(BENCH, float(a)) for a in angles])
            assert np.allclose(vec, scal, rtol=1e-14, atol=0.0)

    def test_closed_form_continuous_at_half_pi(self):
        mid = spectrum_closed_form(BENCH, math.pi / 2.0)
        for delta in (1e-9, -1e-9):
            assert math.isclose(
                spectrum_closed_form(BENCH, math.pi / 2.0 + delta), mid, rel_tol=1e-6
            )

    def test_closed_form_finite_when_signal_coefficient_cancels(self):
        # a negative gain can null the signal term entirely; the prefactor
        # must not blow up anywhere on the circle
        eps, eh, ed = 0.2, 0.94, 0.91
        k = -math.sqrt(eps) / math.sqrt(eh * ed * (1.0 - eps))
        p = params_like(eps, eta_h=eh, eta_d=ed, gain=k, v=4.0)
        values = spectrum_closed_form(p, np.linspace(0.0, 2.0 * math.pi, 721))
        assert np.all(np.isfinite(values))

    @given(p=network_params, axis=st.sampled_from([0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]))
    def test_formulas_agree_on_quadrature_axes(self, p, axis):
        a = spectrum_from_modes(p, axis)
        b = spectrum_closed_form(p, axis)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    @given(
        p=st.builds(
            params_like,
            epsilon=unit_open,
            eta_h=unit_open,
            eta_d=unit_open,
            gain=real_gains,
        ),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_formulas_agree_everywhere_at_unit_phase_variance(self, p, phi):
        a = spectrum_from_modes(p, phi)
        b = spectrum_closed_form(p, phi)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def test_formulas_diverge_at_intermediate_angles_with_excess_variance(self):
        modes_val = spectrum_from_modes(BENCH, math.pi / 4.0)
        closed_val = spectrum_closed_form(BENCH, math.pi / 4.0)
        assert math.isclose(modes_val, 36.01526319791164, rel_tol=1e-10)
        assert math.isclose(closed_val, 25.94205552689667, rel_tol=1e-10)
        assert abs(modes_val - closed_val) > 5.0


class TestGains:
    def test_ideal_gain_reference_points(self):
        assert ideal_gain(0.5) == 1.0
        assert ideal_gain(1.0) == 0.0
        assert math.isclose(ideal_gain(0.2), 2.0, rel_tol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001])
    def test_ideal_gain_domain(self, bad):
        with pytest.raises(ValueError):
            ideal_gain(bad)

    def test_optimal_gain_reference_points(self):
        assert optimal_gain(0.3, 1.0, 1.0) == ideal_gain(0.3)
        assert math.isclose(optimal_gain(0.2, 0.94, 0.91), 1.8497567407634985, rel_tol=1e-12)
        assert math.isclose(optimal_gain(0.5, 0.5, 0.5), 0.5, rel_tol=1e-12)

    def test_transfer_ratio_reference_points(self):
        # perfect loop at the cancellation gain transfers the SNR untouched
        p = params_like(0.35, gain=ideal_gain(0.35))
        assert math.isclose(transfer_ratio(p), 1.0, rel_tol=1e-12)
        # no feed-forward at all leaves plain beamsplitter loss
        assert math.isclose(transfer_ratio(params_like(0.2)), 0.2, rel_tol=1e-12)

    def test_transfer_ratio_independent_of_signal_power(self):
        # the signal power rides on v_phase_in; the ratio reads the floor at 1
        p = BENCH.with_gain(optimal_gain(0.2, 0.94, 0.91))
        values = [transfer_ratio(replace(p, v_phase_in=v)) for v in (1.0, 1.5, 123.0)]
        assert all(math.isclose(v, values[0], rel_tol=1e-12) for v in values)

    def test_max_transfer_matches_transfer_at_optimal_gain(self):
        k = optimal_gain(0.2, 0.94, 0.91)
        direct = transfer_ratio(BENCH.with_gain(k))
        closed = max_transfer_ratio(0.2, 0.94, 0.91)
        assert math.isclose(direct, closed, rel_tol=1e-12)
        assert math.isclose(closed, 0.88432, rel_tol=1e-12)

    def test_max_transfer_boundary_cases(self):
        assert max_transfer_ratio(0.4, 1.0, 1.0) == 1.0
        assert math.isclose(max_transfer_ratio(1.0, 0.94, 0.91), 1.0, rel_tol=1e-12)

    @given(p=network_params)
    def test_transfer_ratio_bounded(self, p):
        t = transfer_ratio(p)
        assert 0.0 <= t <= 1.0 + 1e-12

    @given(
        e1=unit_open, e2=unit_open, eta_h=unit_open, eta_d=unit_open
    )
    def test_max_transfer_monotone_in_epsilon(self, e1, e2, eta_h, eta_d):
        lo, hi = sorted((e1, e2))
        assert max_transfer_ratio(lo, eta_h, eta_d) <= max_transfer_ratio(hi, eta_h, eta_d) + 1e-15

    @given(
        epsilon=unit_open, h1=unit_open, h2=unit_open, d=unit_open
    )
    def test_max_transfer_monotone_in_efficiency(self, epsilon, h1, h2, d):
        lo, hi = sorted((h1, h2))
        assert max_transfer_ratio(epsilon, lo, d) <= max_transfer_ratio(epsilon, hi, d) + 1e-15

    def test_pia_reference_points(self):
        assert pia_transfer_ratio(1.0) == 1.0
        assert math.isclose(pia_transfer_ratio(10.0), 10.0 / 19.0, rel_tol=1e-12)
        assert math.isclose(pia_transfer_ratio(1e6), 0.5, abs_tol=1e-6)

    def test_pia_rejects_gain_below_unity(self):
        with pytest.raises(ValueError):
            pia_transfer_ratio(0.99)


class TestDetection:
    def test_vacuum_fixed_point(self):
        assert detected_variance(1.0, 0.8008) == 1.0

    def test_benchmark_floor_through_verification_stage(self):
        out = detected_variance(11.24, 0.8008)
        assert math.isclose(out, 9.200192, rel_tol=1e-12)
        assert math.isclose(db_from_linear(out), 9.64, abs_tol=5e-3)

    def test_benchmark_signal_through_verification_stage(self):
        out = detected_variance(71.03052639582329, 0.8008)
        assert math.isclose(db_from_linear(out), 17.56487354313705, rel_tol=1e-12)

    def test_array_input(self):
        arr = detected_variance(np.array([1.0, 11.24]), 0.8008)
        assert arr.shape == (2,)
        assert math.isclose(arr[1], 9.200192, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "v", [11.24, np.array(11.24), np.float64(11.24)], ids=["float", "0-d", "float64"]
    )
    def test_scalar_input_returns_python_float(self, v):
        out = detected_variance(v, 0.8008)
        assert type(out) is float
        assert out == 0.8008 * 11.24 + (1.0 - 0.8008)

    @pytest.mark.parametrize(
        "v,eta",
        [
            (-1.0, 0.9),
            (1.0, 0.0),
            (1.0, 1.2),
            (math.nan, 0.9),
            (np.array([1.0, math.nan]), 0.9),
            (np.array([1.0, -0.5]), 0.9),
            (np.array([[2.0], [math.inf]]), 0.9),
        ],
    )
    def test_domain_errors(self, v, eta):
        with pytest.raises(ValueError):
            detected_variance(v, eta)


class TestInferSnr:
    def test_input_stage_reference(self):
        r = infer_snr(8.0, 0.0, 0.8554)
        assert math.isclose(r.detected, 5.309573444801933, rel_tol=1e-12)
        assert math.isclose(r.inferred, 6.207123503392488, rel_tol=1e-12)

    def test_output_stage_reference(self):
        r = infer_snr(17.6, 9.5, 0.8008)
        assert math.isclose(r.inferred, 5.581287456237841, rel_tol=1e-12)
        assert r.detected < r.inferred

    def test_no_signal_gives_zero(self):
        r = infer_snr(3.7, 3.7, 0.9)
        assert r.detected == 0.0
        assert r.inferred == 0.0

    def test_level_whose_linear_power_overflows_rejected(self):
        message = "total_db is too large: 4000.0 dB overflows a float as a linear power"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            infer_snr(4000, 1.0, 0.9)

    def test_total_below_noise_rejected(self):
        with pytest.raises(ValueError):
            infer_snr(1.0, 2.0, 0.9)

    def test_noise_below_vacuum_share_rejected(self):
        # linear noise 0.1 cannot be less than the 0.2 vacuum part of eta=0.8
        with pytest.raises(ValueError):
            infer_snr(0.0, -10.0, 0.8)

    @given(
        noise=st.floats(min_value=1.0, max_value=20.0),
        signal=st.floats(min_value=1e-3, max_value=100.0),
        eta=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_inference_inverts_detection(self, noise, signal, eta):
        """Detect a known scene through a lossy stage, then infer back."""
        total_lin = detected_variance(noise + signal, eta)
        noise_lin = detected_variance(noise, eta)
        r = infer_snr(db_from_linear(total_lin), db_from_linear(noise_lin), eta)
        assert math.isclose(r.inferred, signal / noise, rel_tol=1e-10)
