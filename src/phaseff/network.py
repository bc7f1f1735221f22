"""Analytic model of the phase feed-forward amplifier.

Layout: a beamsplitter sends a fraction 1-epsilon of the input beam to a
phase homodyne (mode match eta_h1, detector efficiency eta_d1).  The
photocurrent, scaled by an electronic gain, drives a phase modulator on the
transmitted fraction epsilon.  A second homodyne stage of combined efficiency
eta_det2 verifies the output.

All quadrature variances are in units of the vacuum variance; the input
phase quadrature may carry an excess variance v_phase_in >= 1, which is
where any phase signal lives.
"""

from __future__ import annotations

import math

from .algebra import NoiseMode, QuadratureExpansion, Record, _complex, _real, linear_from_db, np


class NetworkParams(Record):
    """Physical settings of one feed-forward run.

    epsilon         beamsplitter transmissivity toward the modulator arm
    eta_h1, eta_d1  in-loop homodyne mode match and detector quantum efficiency
    gain            electronic feed-forward gain (real in hardware, complex
                    values are accepted by the analytic formulas)
    v_phase_in      input phase variance, signal included, relative to vacuum
    eta_det2        combined efficiency of the verification stage
    """

    epsilon: float
    eta_h1: float
    eta_d1: float
    gain: complex
    v_phase_in: float = 1.0
    eta_det2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("epsilon", "eta_h1", "eta_d1", "eta_det2"):
            object.__setattr__(self, name, _check_unit_interval(name, getattr(self, name)))
        v = _real("v_phase_in", self.v_phase_in)
        if not v >= 1.0:
            raise ValueError(f"v_phase_in must be >= 1 (vacuum units), got {v!r}")
        object.__setattr__(self, "v_phase_in", v)
        object.__setattr__(self, "gain", _complex("gain", self.gain))
        weights = _phase_weights(self)
        weights[_INPUT_PHASE] *= v  # the mode sum at the configured v_phase_in
        if not math.isfinite(sum(weights)):
            raise ValueError(
                f"gain {self.gain!r} is too large: the output phase variance overflows a float"
            )

    @property
    def eta1(self) -> float:
        """Combined in-loop detection efficiency eta_h1 * eta_d1."""
        return self.eta_h1 * self.eta_d1

    def with_gain(self, gain: complex) -> "NetworkParams":
        return self._replace(gain=gain)


def _table(params: NetworkParams) -> list[list[complex]]:
    """mode_coefficients' weights as nested lists of Python numbers: the one
    place they are written, which the scalar paths read without numpy."""
    eps = params.epsilon
    eh, ed = params.eta_h1, params.eta_d1
    k = params.gain
    detector = k * math.sqrt(1.0 - ed) / math.sqrt(2.0)
    return [
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
    ]


def mode_coefficients(params: NetworkParams) -> np.ndarray:
    """Weight of every noise mode in the two output quadratures.

    The model's one table: a complex (2, 7) array whose row 0 is the
    amplitude quadrature and row 1 the phase quadrature, with columns in
    NoiseMode order.  The amplitude row sees only the passive beamsplitter.
    The phase row additionally carries the fed-forward photocurrent: the
    tapped input phase, the tap vacuum it beats against, the homodyne
    mode-mismatch vacuum, and the two balanced-detector vacua.  The output
    quadrature at angle phi is cos(phi) * row 0 + sin(phi) * row 1.
    """
    return np.array(_table(params), dtype=complex)


_INPUT_PHASE = list(NoiseMode).index(NoiseMode.INPUT_PHASE)
_TAP_VACUUM_PHASE = list(NoiseMode).index(NoiseMode.TAP_VACUUM_PHASE)


def _phase_weights(params: NetworkParams) -> list[float]:
    """|weight|^2 of every mode in the output phase quadrature (table row 1),
    in Python floats: the same operations, so the same bits, as on the array."""
    return [w.real * w.real + w.imag * w.imag for w in _table(params)[1]]


def output_expansion(params: NetworkParams, phi: float) -> QuadratureExpansion:
    """Output-beam quadrature at analysis angle phi, mode by mode: one row
    cos(phi) * amplitude + sin(phi) * phase of mode_coefficients."""
    phi = _real("phi", phi)
    amplitude, phase = mode_coefficients(params)
    row = math.cos(phi) * amplitude + math.sin(phi) * phase
    return QuadratureExpansion(dict(zip(NoiseMode, row)))


def _reals(name: str, value) -> np.ndarray:
    """value as a float array, each element held to algebra._real's rule.

    An int or float numpy array is only checked for NaN and +-inf, and its
    error names the first such element, not the whole array; a scalar, a
    list or any other array goes through _real element by element, so a
    bool or a string is refused even inside a list of floats."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = value.astype(float, copy=False)
        if not np.all(np.isfinite(arr)):
            where = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            at = f" at index {where[0] if len(where) == 1 else where}" if where else ""
            raise ValueError(f"{name} must be finite, got {float(arr[where])!r}{at}")
        return arr
    items = np.asarray(value, dtype=object)
    if items.ndim == 0:
        return np.asarray(_real(name, items.item()))
    return np.vectorize(lambda item: _real(name, item), otypes=[float])(items)


def _namespace(name: str, value):
    """(value, math) for a Python int or float, held to algebra._real's rule,
    and (value, numpy) for anything else, held to _reals': the module whose
    sin, cos and sqrt a formula written once for a scalar or an array uses.
    The Python types are tested first, so a scalar never loads numpy."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _real(name, value), math
    return _reals(name, value), np


def _unwrap(total):
    """A formula's result: a float for a scalar or 0-d input, else the array."""
    return total if getattr(total, "ndim", 0) else float(total)


def spectrum_from_modes(params: NetworkParams, phi):
    """Output quadrature variance at angle phi, summed mode by mode.

    The input amplitude and phase quadratures are uncorrelated here: the
    amplitude sits at the vacuum level and the phase at v_phase_in.  Accepts
    a scalar angle or an array of angles; each mode's row
    cos(phi) * amplitude + sin(phi) * phase is folded into the sum in turn.
    """
    angles, xp = _namespace("phi", phi)
    return _unwrap(_from_modes(params)(xp.cos(angles), xp.sin(angles), xp))


def _from_modes(params: NetworkParams):
    """spectrum_from_modes as a function of (cos phi, sin phi, module): the
    table is read once, so a sweep evaluated angle by angle reads it once.
    Each column's variance is vacuum, except v_phase_in on the input phase."""
    variances = [1.0] * len(NoiseMode)
    variances[_INPUT_PHASE] = params.v_phase_in
    columns = tuple(zip(*_table(params), variances))

    def level(c, s, xp):
        total = 0.0
        for a, b, variance in columns:
            w = c * a + s * b
            total = total + (w.real * w.real + w.imag * w.imag) * variance
        return total

    return level


def spectrum_closed_form(params: NetworkParams, phi):
    """Output quadrature variance in closed form, with the square-root
    prefactor on the combined signal term.

    The prefactor sqrt(V^2 / (sin^2 a + V^2 cos^2 a)), with
    tan a = (1 + K sqrt(eta_h1 eta_d1 (1-eps)/eps)) tan phi, interpolates the
    input variance between the amplitude and phase projections.  This form
    matches spectrum_from_modes at the quadrature axes for any V, and at all
    angles when V = 1; at intermediate angles with V > 1 the two differ,
    because here the prefactor rescales the full cos^2 + sin^2 input term
    rather than weighting the phase part alone.  The Monte Carlo oracle sides
    with spectrum_from_modes.
    """
    angles, xp = _namespace("phi", phi)
    return _unwrap(_closed_form(params)(xp.cos(angles), xp.sin(angles), xp))


def _closed_form(params: NetworkParams):
    """spectrum_closed_form as a function of (cos phi, sin phi, module): the
    terms that do not depend on the angle are taken once."""
    eps = params.epsilon
    eh, ed = params.eta_h1, params.eta_d1
    k = params.gain
    v = params.v_phase_in

    weights = _phase_weights(params)
    signal_gain = weights[_INPUT_PHASE]
    # |tan a / tan phi|^2; the magnitude keeps the angle real for complex gain.
    # It equals signal_gain / eps, as loop_loss equals the summed weights of
    # the mismatch and detector columns (tests check both).  Taken from the
    # table instead, both round differently and move the pinned fit output.
    tap_phase = weights[_TAP_VACUUM_PHASE]
    try:
        ratio2 = abs(1.0 + k * math.sqrt(eh * ed * (1.0 - eps) / eps)) ** 2
        loop_loss = abs(k) ** 2 * (1.0 - ed * eh)
    except OverflowError:
        raise ValueError(
            f"gain {k!r} and epsilon {eps!r} overflow a float in the closed-form spectrum"
        ) from None

    def level(c, s, xp):
        # squared by multiplication, as numpy squares an array: a float's ** 2
        # is libm's pow, which differs from it in the last bit now and then
        s2, c2 = s * s, c * c
        # den >= cos^2 phi > 0: no finite double is an odd multiple of pi/2
        den = c2 + ratio2 * s2
        sin2a = ratio2 * s2 / den
        cos2a = c2 / den
        prefactor = xp.sqrt(v * v / (sin2a + v * v * cos2a))
        return (
            prefactor * (eps * c2 + signal_gain * s2)
            + (1.0 - eps) * c2
            + tap_phase * s2
            + loop_loss * s2
        )

    return level


def phase_variance(params: NetworkParams) -> float:
    """Output phase-quadrature variance (angle pi/2), vacuum units: the mode
    sum at cos phi = 0, sin phi = 1."""
    return _from_modes(params)(0.0, 1.0, math)


def signal_power_gain(params: NetworkParams) -> float:
    """Power gain applied to a phase-quadrature signal riding on the input."""
    return _phase_weights(params)[_INPUT_PHASE]


def _check_unit_interval(name: str, value: float) -> float:
    value = _real(name, value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def _loop_efficiencies(epsilon: float, eta_h: float, eta_d: float) -> list[float]:
    """epsilon, eta_h and eta_d, each checked to lie in (0, 1]."""
    named = zip(("epsilon", "eta_h", "eta_d"), (epsilon, eta_h, eta_d))
    return [_check_unit_interval(name, value) for name, value in named]


def ideal_gain(epsilon: float) -> float:
    """Gain that cancels the tap vacuum exactly when detection is lossless."""
    return optimal_gain(epsilon, 1.0, 1.0)


def optimal_gain(epsilon: float, eta_h: float, eta_d: float) -> float:
    """Gain maximizing the SNR transfer ratio for lossy in-loop detection."""
    epsilon, eta_h, eta_d = _loop_efficiencies(epsilon, eta_h, eta_d)
    return math.sqrt(eta_h * eta_d * (1.0 - epsilon) / epsilon)


def transfer_ratio(params: NetworkParams) -> float:
    """Output SNR over input SNR for a small phase signal.

    The input signal sits on unit (vacuum) noise.  At the output it is
    boosted by the signal power gain and read against the feed-forward noise
    floor, i.e. the phase variance with v_phase_in pinned to 1, so the ratio
    does not depend on the signal power or on v_phase_in.
    """
    return signal_power_gain(params) / phase_variance(params._replace(v_phase_in=1.0))


def max_transfer_ratio(epsilon: float, eta_h: float, eta_d: float) -> float:
    """Transfer ratio at the optimal gain: eps*(1 - eta_h*eta_d) + eta_h*eta_d."""
    epsilon, eta_h, eta_d = _loop_efficiencies(epsilon, eta_h, eta_d)
    eta = eta_h * eta_d
    return epsilon * (1.0 - eta) + eta


def pia_transfer_ratio(power_gain: float) -> float:
    """SNR transfer of an ideal phase-insensitive amplifier at the same
    power gain: G / (2G - 1).  Approaches 1/2 from above as G grows."""
    power_gain = _real("power_gain", power_gain)
    if not power_gain >= 1.0:
        raise ValueError(f"power_gain must be >= 1, got {power_gain!r}")
    return power_gain / (2.0 * power_gain - 1.0)


def detected_variance(variance, eta: float):
    """Variance seen through a detection stage of efficiency eta.

    The stage attenuates the field and mixes in (1 - eta) of vacuum:
    eta * variance + (1 - eta).  Returns a float for a scalar (or 0-d)
    variance and an array for an array.
    """
    eta = _check_unit_interval("eta", eta)
    values, xp = _namespace("variance", variance)
    negative = values < 0.0
    if negative if xp is math else negative.any():
        raise ValueError(f"variance must be >= 0, got {variance!r}")
    return _unwrap(eta * values + (1.0 - eta))


class SnrInference(Record):
    """One homodyne stage's SNR, as measured and corrected for its loss."""

    detected: float
    inferred: float


class SnrReport(Record):
    """SNR inference chain for an input/output measurement pair."""

    snr_detected_in: float
    snr_inferred_in: float
    snr_detected_out: float
    snr_inferred_out: float
    t_s: float


def infer_snr(total_db: float, noise_db: float, eta: float) -> SnrInference:
    """Detected and loss-corrected SNR from spectrum-analyzer levels.

    total_db is the measured level with the signal tone on, noise_db with it
    off, both in power dB relative to the vacuum level.  The detected SNR is
    (total - noise) / noise in linear units.  The inferred SNR removes the
    stage's vacuum penalty by referring the noise back through efficiency
    eta: (total - noise) / (noise - (1 - eta)).
    """
    eta = _check_unit_interval("eta", eta)
    total_db = _real("total_db", total_db)
    noise_db = _real("noise_db", noise_db)
    if total_db < noise_db:
        raise ValueError(
            f"total level {total_db} dB is below the noise level {noise_db} dB"
        )
    total = linear_from_db(total_db, "total_db")
    noise = linear_from_db(noise_db, "noise_db")
    vacuum_part = 1.0 - eta
    if not noise > vacuum_part:
        raise ValueError(
            f"noise level {noise:.6g} does not exceed the vacuum contribution "
            f"{vacuum_part:.6g} implied by eta={eta}"
        )
    signal = total - noise
    return SnrInference(detected=signal / noise, inferred=signal / (noise - vacuum_part))
