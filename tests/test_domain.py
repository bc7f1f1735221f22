"""One domain rule for every scalar the model takes: a number field accepts
an int, a float or a numpy real scalar, and refuses a bool, a string, an int
too large for a float and NaN or +-inf with a ValueError naming the field.
The array entry points hold their elements to the same rule."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from phaseff import (
    BandpassKernel,
    FlatKernel,
    NetworkParams,
    NoiseMode,
    QuadratureExpansion,
    QuadratureStreams,
    SimConfig,
    SnrSettings,
    SourceVariances,
    SweepSettings,
    SweepTrace,
    apply_kernel,
    band_average,
    db_from_linear,
    detected_variance,
    estimate_psd,
    ideal_gain,
    infer_snr,
    linear_from_db,
    max_transfer_ratio,
    optimal_gain,
    oracle_compare,
    output_expansion,
    pia_transfer_ratio,
    run_sweep,
    spectrum_closed_form,
    spectrum_from_modes,
)
from phaseff import montecarlo
from phaseff.cli import _value

NETWORK = {"epsilon": 0.2, "eta_h1": 0.94, "eta_d1": 0.91, "gain": 3.2}
P = NetworkParams(**NETWORK)
SIM = {"params": P, "sample_rate": 65536.0, "duration": 1.0}
KERNEL = {"center_hz": 1000.0, "bandwidth_hz": 100.0, "gain": 1.0}
PHI_IN = NoiseMode.INPUT_PHASE
LEVELS = {"input_total_db": 8.0, "input_noise_db": 0.0, "output_total_db": 17.6, "output_noise_db": 9.5}


def network(field):
    return lambda x: NetworkParams(**{**NETWORK, field: x})


def simulation(field):
    return lambda x: SimConfig(**{**SIM, field: x})


def kernel(field):
    return lambda x: BandpassKernel(**{**KERNEL, field: x})


def levels(field):
    return lambda x: SnrSettings(**{**LEVELS, field: x})


def trace_column(field):
    valid = {"phase": [0.0], "variance_linear": [1.0], "variance_db": [0.0]}
    return lambda x: SweepTrace(**{**valid, field: x})


# white noise in 64 segments of 1,024 samples: bins 1 Hz apart
PSD = estimate_psd(np.random.default_rng(0).standard_normal(2**16), 1024.0)


# (entry point, call with the value under test, the name its error must give)
NUMBER_FIELDS = [
    ("NetworkParams.epsilon", network("epsilon"), "epsilon"),
    ("NetworkParams.eta_h1", network("eta_h1"), "eta_h1"),
    ("NetworkParams.eta_d1", network("eta_d1"), "eta_d1"),
    ("NetworkParams.eta_det2", network("eta_det2"), "eta_det2"),
    ("NetworkParams.gain", network("gain"), "gain"),
    ("NetworkParams.v_phase_in", network("v_phase_in"), "v_phase_in"),
    ("with_gain", P.with_gain, "gain"),
    ("ideal_gain", ideal_gain, "epsilon"),
    ("optimal_gain", lambda x: optimal_gain(0.2, x, 0.9), "eta_h"),
    ("max_transfer_ratio", lambda x: max_transfer_ratio(0.2, 0.9, x), "eta_d"),
    ("detected_variance", lambda x: detected_variance(2.0, x), "eta"),
    ("BandpassKernel.center_hz", kernel("center_hz"), "center_hz"),
    ("BandpassKernel.bandwidth_hz", kernel("bandwidth_hz"), "bandwidth_hz"),
    ("BandpassKernel.gain", kernel("gain"), "gain"),
    ("SimConfig.sample_rate", simulation("sample_rate"), "sample_rate"),
    ("SimConfig.duration", simulation("duration"), "duration"),
    ("SimConfig.signal_frequency", simulation("signal_frequency"), "signal_frequency"),
    ("SimConfig.signal_amplitude", simulation("signal_amplitude"), "signal_amplitude"),
    ("estimate_psd", lambda x: estimate_psd(np.zeros(2**16), x), "sample_rate"),
    ("apply_kernel.sample_rate", lambda x: bandpass(np.zeros(16), sample_rate=x), "sample_rate"),
    ("apply_kernel.flat.sample_rate", lambda x: flat(np.zeros(16), sample_rate=x), "sample_rate"),
    ("band_average.exclude_hz", lambda x: band_average(PSD, x, 2.0), "exclude_hz"),
    ("band_average.exclude_width_hz", lambda x: band_average(PSD, 100.0, x), "exclude_width_hz"),
    ("SnrSettings.input_total_db", levels("input_total_db"), "input_total_db"),
    ("SnrSettings.output_noise_db", levels("output_noise_db"), "output_noise_db"),
    ("infer_snr.total_db", lambda x: infer_snr(x, 0.0, 0.9), "total_db"),
    ("infer_snr.noise_db", lambda x: infer_snr(8.0, x, 0.9), "noise_db"),
    ("infer_snr.eta", lambda x: infer_snr(8.0, 0.0, x), "eta"),
    ("pia_transfer_ratio", pia_transfer_ratio, "power_gain"),
    ("db_from_linear", db_from_linear, "value"),
    ("linear_from_db", linear_from_db, "level_db"),
    # the dict layer
    ("output_expansion", lambda x: output_expansion(P, x), "phi"),
    ("SourceVariances", lambda x: SourceVariances({PHI_IN: x}), "variance for input_phase"),
    ("QuadratureExpansion", lambda x: QuadratureExpansion({PHI_IN: x}),
     "coefficient for input_phase"),
]

# True, "1" and 10**400 are in range for every field once read as a float, so
# only the number rule can refuse them
NOT_NUMBERS = [True, "1", 10**400, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "bad", NOT_NUMBERS, ids=["bool", "string", "too-large", "nan", "inf", "-inf"]
)
@pytest.mark.parametrize(
    "call, name", [case[1:] for case in NUMBER_FIELDS], ids=[case[0] for case in NUMBER_FIELDS]
)
def test_number_field_rejects_non_number(call, name, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} "):
        call(bad)


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1), 1])
def test_numpy_and_int_scalars_accepted(value):
    p = NetworkParams(**{**NETWORK, "epsilon": value})
    assert type(p.epsilon) is float and p.epsilon == float(value)
    assert P.with_gain(value).gain == complex(float(value))
    assert type(db_from_linear(value)) is float


# (entry point, call with the value under test, the field it sets, a value in
# its domain).  A Monte Carlo record holds each number field as _real's float,
# so its stages compute on floats whatever number type it was given.
MC_NUMBER_FIELDS = [
    ("SimConfig.sample_rate", simulation("sample_rate"), "sample_rate", 65536),
    ("SimConfig.duration", simulation("duration"), "duration", 2),
    ("SimConfig.signal_frequency", simulation("signal_frequency"), "signal_frequency", 1000),
    ("SimConfig.signal_amplitude",
     lambda x: SimConfig(**SIM, signal_frequency=1000.0, signal_amplitude=x),
     "signal_amplitude", 3),
    ("BandpassKernel.center_hz", kernel("center_hz"), "center_hz", 1000),
    ("BandpassKernel.bandwidth_hz", kernel("bandwidth_hz"), "bandwidth_hz", 100),
    ("BandpassKernel.gain", kernel("gain"), "gain", -2),
]


@pytest.mark.parametrize("kind", [int, np.int64, np.float32, Fraction])
@pytest.mark.parametrize(
    "call, name, value",
    [case[1:] for case in MC_NUMBER_FIELDS],
    ids=[case[0] for case in MC_NUMBER_FIELDS],
)
def test_monte_carlo_number_field_holds_a_float(call, name, value, kind):
    held = getattr(call(kind(value)), name)
    assert type(held) is float and held == value


# (entry point, call with the array under test, the name its error must give)
ARRAY_FIELDS = [
    ("spectrum_from_modes", lambda x: spectrum_from_modes(P, x), "phi"),
    ("spectrum_closed_form", lambda x: spectrum_closed_form(P, x), "phi"),
    ("detected_variance", lambda x: detected_variance(x, 0.9), "variance"),
    # a trace column must also be 1-D, ordered and positive, so only the
    # rejections are run on it
    ("SweepTrace.phase", trace_column("phase"), "phase"),
    ("SweepTrace.variance_linear", trace_column("variance_linear"), "variance_linear"),
    ("SweepTrace.variance_db", trace_column("variance_db"), "variance_db"),
]
MODEL_ARRAY_FIELDS = [case for case in ARRAY_FIELDS if not case[0].startswith("SweepTrace.")]

# bools, strings and other objects, alone, in an array or among floats, and
# non-finite elements
NOT_ARRAYS = [
    True,
    np.array([True, False]),
    [True, 0.5],
    "0.5",
    ["0.5", "1.5"],
    np.array(["2"]),
    10**400,
    np.array([0.5, "1.0"], dtype=object),
    np.array([1.0, math.nan]),
    [math.inf],
]


@pytest.mark.parametrize(
    "bad",
    NOT_ARRAYS,
    ids=[
        "bool", "bool-array", "bool-among-floats", "string", "string-list",
        "string-array", "too-large", "object-array", "nan", "inf",
    ],
)
@pytest.mark.parametrize(
    "call, name", [case[1:] for case in ARRAY_FIELDS], ids=[case[0] for case in ARRAY_FIELDS]
)
def test_array_field_rejects_non_numbers(call, name, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} "):
        call(bad)


# every real number _real takes, alone or in a list or an object array
@pytest.mark.parametrize(
    "value",
    [
        1,
        np.int64(1),
        np.float32(1.0),
        Fraction(1, 2),
        [0, 1],
        [Fraction(1, 4), 0.5],
        np.array([0.5, 1], dtype=object),
        np.arange(3, dtype=np.uint8),
    ],
)
@pytest.mark.parametrize(
    "call", [case[1] for case in MODEL_ARRAY_FIELDS], ids=[case[0] for case in MODEL_ARRAY_FIELDS]
)
def test_array_field_accepts_real_numbers(call, value):
    assert np.array_equal(call(value), call(np.asarray(value, dtype=float)))


def test_non_finite_array_error_names_the_element():
    phase = np.linspace(0.0, 1.0, 361)
    phase[5] = math.nan
    with pytest.raises(ValueError) as info:
        SweepTrace(phase=phase, variance_linear=np.ones(361), variance_db=np.zeros(361))
    assert str(info.value) == "phase must be finite, got nan at index 5"
    with pytest.raises(ValueError, match=r"^phi must be finite, got inf at index \(1, 0\)$"):
        spectrum_from_modes(P, np.array([[0.0, 1.0], [math.inf, 2.0]]))


def test_band_average_width_not_negative():
    with pytest.raises(ValueError, match=r"^exclude_width_hz must be >= 0, got -1\.0$"):
        band_average(PSD, 100.0, -1.0)
    with pytest.raises(ValueError, match="^exclude_width_hz "):
        band_average(PSD, exclude_width_hz=-1.0)
    # a zero width masks only a bin exactly at exclude_hz
    assert band_average(PSD, 100.0, 0.0) != band_average(PSD)
    assert band_average(PSD, 100.5, 0.0) == band_average(PSD)


def test_complex_gain_parts_checked():
    with pytest.raises(ValueError, match="^gain "):
        NetworkParams(**{**NETWORK, "gain": complex(1.0, math.inf)})
    assert NetworkParams(**{**NETWORK, "gain": np.complex128(1.0 + 0.5j)}).gain == 1.0 + 0.5j


@pytest.mark.parametrize(
    "gain",
    [np.float32(0.1), np.int64(-3), np.complex64(0.1 - 2.5j), np.complex128(1.5 + 0.2j)],
    ids=["float32", "int64", "complex64", "complex128"],
)
def test_numpy_gain_scalars_become_complex(gain):
    # the plain-type checks come first, so these reach the numpy checks
    p = NetworkParams(**{**NETWORK, "gain": gain})
    assert type(p.gain) is complex and p.gain == complex(gain)


def test_report_value_maps_numpy_scalars():
    # float64 is a float; every other numpy scalar is refused
    got = _value(np.float64(1 / 3))
    assert type(got) is float and got == 0.333333333333


def test_report_value_refuses_numpy_bool():
    with pytest.raises(TypeError, match="^cannot serialize value of type bool"):
        _value(np.bool_(False))


# (case id, SweepSettings keyword arguments, the field its error must name)
SWEEP_SETTINGS = [
    ("points-bool", {"points": True}, "points"),
    ("points-string", {"points": "361"}, "points"),
    ("points-float", {"points": 361.0}, "points"),
    ("formula-unknown", {"formula": "exact"}, "formula"),
    ("formula-list", {"formula": ["paper"]}, "formula"),
    ("detected-string", {"detected": "no"}, "detected"),
    ("detected-int", {"detected": 1}, "detected"),
]


@pytest.mark.parametrize(
    "kwargs, name", [case[1:] for case in SWEEP_SETTINGS], ids=[case[0] for case in SWEEP_SETTINGS]
)
def test_sweep_settings_checked(kwargs, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        SweepSettings(**kwargs)


def test_run_sweep_checks_formula_and_detected():
    with pytest.raises(ValueError, match="^formula must be one of"):
        run_sweep(P, 9, ["paper"])
    with pytest.raises(ValueError, match="^detected "):
        run_sweep(P, 9, "paper", "no")
    with pytest.raises(ValueError, match="^detected "):
        SweepTrace(phase=[0.0], variance_linear=[1.0], variance_db=[0.0], detected="no")


def flat(photocurrent, sample_rate=65536.0):
    return apply_kernel(FlatKernel(), photocurrent, P, sample_rate)


def bandpass(photocurrent, sample_rate=65536.0, **kernel):
    kern = BandpassKernel(**{**KERNEL, **kernel})
    return apply_kernel(kern, photocurrent, P, sample_rate)


def psd(series):
    return estimate_psd(series, 1024.0)


# (case id, call with the array under test, the name its error must give).
# A stream is a 1-D float64 array: the kernels and the projection work a chunk
# at a time over 1-D arrays, so anything else would be sliced wrongly, and no
# stream is converted.  A NaN or inf series shows in its PSD bins.
STREAM_FIELDS = [
    ("streams-length", lambda: QuadratureStreams(np.ones(10), np.ones(1)), "phase"),
    ("streams-list", lambda: QuadratureStreams([1.0, 2.0], np.ones(2)), "amplitude"),
    ("streams-2d", lambda: QuadratureStreams(np.ones((2, 5)), np.ones((2, 5))), "amplitude"),
    ("streams-scalar", lambda: QuadratureStreams(np.ones(1), np.float64(1.0)), "phase"),
    ("flat-2d", lambda: flat(np.ones((2, 5))), "photocurrent"),
    ("flat-scalar", lambda: flat(1.0), "photocurrent"),
    ("bandpass-2d", lambda: bandpass(np.ones((2, 5))), "photocurrent"),
    ("streams-int", lambda: QuadratureStreams(np.ones(10), np.ones(10, int)), "phase"),
    ("flat-list", lambda: flat([1.0] * 10), "photocurrent"),
    ("bandpass-int", lambda: bandpass(np.ones(10, int)), "photocurrent"),
    ("psd-list", lambda: psd([1.0] * 2**13), "series"),
    ("psd-strings", lambda: psd(np.full(2**13, "1.0")), "series"),
    ("psd-2d", lambda: psd(np.ones((8, 1024))), "series"),
    ("psd-nan", lambda: psd(np.append(np.ones(2**16 - 1), math.nan)), "series"),
    ("psd-inf", lambda: psd(np.append(np.ones(2**16 - 1), math.inf)), "series"),
]


@pytest.mark.parametrize(
    "call, name", [case[1:] for case in STREAM_FIELDS], ids=[case[0] for case in STREAM_FIELDS]
)
def test_stream_field_rejects_other_shapes(call, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


# (case id, bandpass kernel fields and sample rate, the name its error must
# give).  The resonator is stable only with its centre and its width below
# Nyquist: a width of 1e9 Hz at 65,536 Hz gave outputs of -3.6, -32, -232.
RESONATOR_DOMAIN = [
    ("sample-rate-zero", {"sample_rate": 0.0}, "sample_rate"),
    ("sample-rate-negative", {"sample_rate": -65536.0}, "sample_rate"),
    ("center-at-nyquist", {"center_hz": 32768.0}, "center_hz"),
    ("center-above-nyquist", {"center_hz": 1e5}, "center_hz"),
    ("center-above-low-rate", {"sample_rate": 1024.0}, "center_hz"),
    ("bandwidth-at-nyquist", {"bandwidth_hz": 32768.0}, "bandwidth_hz"),
    ("bandwidth-huge", {"bandwidth_hz": 1e9}, "bandwidth_hz"),
]


resonator_cases = pytest.mark.parametrize(
    "fields, name",
    [case[1:] for case in RESONATOR_DOMAIN],
    ids=[case[0] for case in RESONATOR_DOMAIN],
)


@resonator_cases
def test_bandpass_kernel_refuses_unstable_resonator(fields, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        bandpass(np.zeros(16), **fields)


@pytest.mark.parametrize("rate", [0.0, -5.0])
def test_flat_kernel_refuses_non_positive_rate(rate):
    # the flat kernel reads no rate, but it is held to the bandpass kernel's rule
    with pytest.raises(ValueError, match=rf"^sample_rate must be > 0, got {rate}$"):
        flat(np.ones(4), sample_rate=rate)


@pytest.mark.parametrize(
    "call",
    [lambda: SimConfig(**SIM, kernel=object()),
     lambda: apply_kernel(object(), np.zeros(16), P, 65536.0)],
    ids=["SimConfig", "apply_kernel"],
)
def test_unknown_kernel_refused(call):
    # one refusal, of one type, wherever a kernel enters
    with pytest.raises(ValueError, match="^unknown kernel type object$"):
        call()


@resonator_cases
def test_sim_config_refuses_unstable_resonator(fields, name):
    # refused on construction, so before any noise is drawn
    kernel = {key: value for key, value in fields.items() if key != "sample_rate"}
    rate = fields.get("sample_rate", SIM["sample_rate"])
    # 2^16 samples at any positive rate, so the run is long enough
    sim = {**SIM, "sample_rate": rate, "duration": 2**16 / rate if rate > 0.0 else 1.0}
    with pytest.raises(ValueError, match=rf"^{name} "):
        SimConfig(**sim, kernel=BandpassKernel(**{**KERNEL, **kernel}))


@pytest.mark.parametrize("trial", [-1, True, 2**64], ids=["negative", "bool", "2^64"])
def test_bad_trial_refused_before_allocation(monkeypatch, trial):
    # a realization maps its streams only once its trial is checked
    def no_mapping(*args):
        raise AssertionError("mapped before the trial was checked")

    monkeypatch.setattr(montecarlo, "_mapped", no_mapping)
    with pytest.raises(ValueError, match=r"^trial must be an integer in \[0, 2\^64\), got "):
        montecarlo.simulate_streams(SimConfig(**SIM), trial=trial)


def test_resonator_domain_reaches_nyquist():
    # just below Nyquist, centre and width both pass
    out = bandpass(np.zeros(16), center_hz=32767.0, bandwidth_hz=32767.0)
    assert np.array_equal(out, np.zeros(16))


def test_fraction_fields_run_the_float_bits():
    tone = {"signal_frequency": 1000.0, "signal_amplitude": 1.0}
    floats = SimConfig(**SIM, **tone)
    fractions = SimConfig(
        P, Fraction(65536), Fraction(1), **{key: Fraction(x) for key, x in tone.items()}
    )
    angles = [0.0, math.pi / 2]
    # float reprs round-trip, so equal reprs are equal bits
    assert repr(oracle_compare(fractions, angles)) == repr(oracle_compare(floats, angles))
    photocurrent = np.random.default_rng(1).standard_normal(4096)
    kern = BandpassKernel(Fraction(1000), Fraction(100), Fraction(3, 2))
    got = apply_kernel(kern, photocurrent, P, Fraction(65536))
    want = bandpass(photocurrent, gain=1.5)
    assert got.tobytes() == want.tobytes()


class TestOracleAngles:
    @pytest.fixture
    def no_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("noise drawn before the angles were checked")

        monkeypatch.setattr(montecarlo, "_substream", refuse)

    def test_empty_angles_rejected(self, no_draw):
        with pytest.raises(ValueError, match="angles"):
            oracle_compare(SimConfig(**SIM), [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "0.5", 10**400])
    def test_bad_angle_rejected_before_drawing(self, no_draw, bad):
        with pytest.raises(ValueError, match=re.escape("angles[1]")):
            oracle_compare(SimConfig(**SIM), [0.0, bad])
