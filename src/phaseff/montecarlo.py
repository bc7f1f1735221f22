"""Time-domain stochastic oracle for the feed-forward network.

Each noise mode is drawn as unit-variance white Gaussian samples, so the
averaged periodogram of a bare vacuum mode reads 1.0 in every bin: PSD bins
are directly in vacuum units and compare 1:1 against the analytic spectra.
A sinusoid of amplitude a centred on an interior bin of an m-sample segment
adds a^2 * m / 4 to that bin.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Sequence, Union

from .algebra import NoiseMode, Record, _real, np
from .network import NetworkParams, spectrum_from_modes

# The analysis plan: every periodogram averages SEGMENT_COUNT segments of at
# least MIN_SEGMENT samples, so a run or a series needs MIN_SAMPLES.  A run has
# at most MAX_SAMPLES: a bandpass simulate_streams holds its two streams, 16 B
# per sample, the photocurrent and scratch rows of one chunk per worker until
# the caller corrects it, and one block of filter output on the caller (17.3 B
# per sample in all, traced at 2^22 samples on one CPU), so 2^27 samples fit
# in about 2 GiB, on every machine alike (free memory is not read).
SEGMENT_COUNT, MIN_SEGMENT = 64, 1024
MIN_SAMPLES, MAX_SAMPLES = SEGMENT_COUNT * MIN_SEGMENT, 2**27

# A row passes when it lies within this many standard errors of the model.
SIGMA_BOUND = 3.0

# Order in which a chunk draws the white-noise modes from its substream; fixed
# so (seed, trial, chunk) pins the entire realization.
_MODE_ORDER = tuple(NoiseMode)

# Samples per noise draw.  Chunk k of a run has its own Philox substream, so
# the realization does not depend on how chunks are scheduled over threads.
_CHUNK = 2**18

# Samples per block of a noise mode's draw (256 kB of float64, so a block
# stays in L2 while it is folded into a chunk's sums).
_BLOCK = 2**15


def _mapped(shape, dtype=float) -> np.ndarray:
    """np.empty(shape, dtype) in a private anonymous mapping of its own,
    advised for huge pages where the OS has them, as numpy advises its own
    large arrays; a kernel without them refuses the advice, which is then
    dropped.  Its pages go back to the OS once the array and its views
    are dropped; a block the allocator frees may stay in a thread's arena,
    or in the main heap, for reuse instead.  The array owns no data, so
    ndarray.resize refuses it.  A mapping cannot be empty: a zero-size
    request is np.empty's."""
    import mmap

    count = shape if isinstance(shape, int) else math.prod(shape)
    size = count * np.dtype(dtype).itemsize
    if size == 0:
        return np.empty(shape, dtype)
    buffer = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            buffer.madvise(mmap.MADV_HUGEPAGE)
        except OSError:
            pass
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def _signed(name: str, value, rule: str = ">") -> float:
    """value as _real's float, once it is > 0 (rule ">") or >= 0 (rule ">=")."""
    number = _real(name, value)
    if not (number > 0.0 or rule == ">=" and number == 0.0):
        raise ValueError(f"{name} must be {rule} 0, got {number!r}")
    return number


def _below_nyquist(name: str, hz: float, sample_rate: float) -> None:
    """Refuse a frequency at or above sample_rate / 2, naming it."""
    if not hz < sample_rate / 2.0:
        raise ValueError(f"{name} {hz} Hz is at or above Nyquist ({sample_rate / 2.0} Hz)")


class FlatKernel(Record):
    """Instantaneous feed-forward: correction = gain * photocurrent."""


class BandpassKernel(Record):
    """Causal second-order resonator with peak response `gain` at `center_hz`.

    Models feed-forward electronics that only act in a band around the
    analysis frequency.  bandwidth_hz is the -3 dB width of the peak.
    """

    center_hz: float
    bandwidth_hz: float
    gain: float

    def __post_init__(self) -> None:
        for name in ("center_hz", "bandwidth_hz"):
            object.__setattr__(self, name, _signed(name, getattr(self, name)))
        object.__setattr__(self, "gain", _real("gain", self.gain))


Kernel = Union[FlatKernel, BandpassKernel]


def _resonator_domain(kernel: BandpassKernel, sample_rate: float) -> None:
    """Refuse a sample rate the resonator is unstable at: its centre or its
    bandwidth at or above Nyquist."""
    for name in ("center_hz", "bandwidth_hz"):
        _below_nyquist(name, getattr(kernel, name), sample_rate)


def _peak_coefficients(kernel: BandpassKernel, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The resonator's (b, a) at sample_rate, a float inside its domain.

    The closed form of scipy's iirpeak(center_hz, center_hz / bandwidth_hz,
    fs=sample_rate), the -3 dB peak filter of Orfanidis, Introduction to
    Signal Processing, eqs. 11.3.19, 11.3.6 and 11.3.21, in iirpeak's order
    of operations, so the coefficients have its bits.
    """
    w0 = 2 * kernel.center_hz / sample_rate
    bw = w0 / (kernel.center_hz / kernel.bandwidth_hz) * math.pi
    w0 = w0 * math.pi
    gain = 1.0 / (1.0 + math.tan(bw / 2.0))
    b = (1.0 - gain) * np.array([1.0, 0.0, -1.0])
    a = np.array([1.0, -2.0 * gain * math.cos(w0), 2.0 * gain - 1.0])
    return b, a


@functools.cache
def _linear_filter():
    """scipy's compiled IIR recursion, the call scipy.signal.lfilter makes.

    Its extension module is loaded by file from scipy's install directory,
    once per process, so neither scipy's nor scipy.signal's __init__ runs
    (scipy.signal pulls in scipy.stats, interpolate and optimize).  A scipy
    without the module fails here, on the first bandpass use, with an error
    that names it.  The module registers itself in sys.modules as it loads;
    that entry is dropped again, so a later `from scipy import signal`
    imports it as usual and binds signal._sigtools.  Where scipy.signal has
    already imported the module, that one is used.
    """
    import sys
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import find_spec, module_from_spec, spec_from_loader

    name = "scipy.signal._sigtools"
    if name in sys.modules:
        return sys.modules[name]._linear_filter
    scipy = find_spec("scipy")
    paths = [
        os.path.join(root, "signal", "_sigtools" + suffix)
        for root in (scipy.submodule_search_locations if scipy else ())
        for suffix in EXTENSION_SUFFIXES
    ]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError(f"the bandpass kernel needs scipy's compiled {name}: not found")
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules.pop(name, None)
    if not hasattr(module, "_linear_filter"):
        raise ImportError(f"the bandpass kernel needs {name}._linear_filter: {path} has none")
    return module._linear_filter


def _long_enough(name: str, n_samples: int) -> None:
    """Refuse a run or a series the analysis plan cannot cut, naming it."""
    if n_samples < MIN_SAMPLES:
        need = f"at least {MIN_SAMPLES} ({SEGMENT_COUNT} segments of {MIN_SEGMENT})"
        raise ValueError(f"{name} too short: {n_samples} samples, need {need}")


def _is_uint64(value) -> bool:
    """A Philox key word: an int (not a bool) in [0, 2^64)."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**64


class SimConfig(Record):
    """One Monte Carlo run.

    The optional coherent tone (signal_amplitude, signal_frequency) rides on
    the input phase quadrature on top of its stochastic variance; a tone of
    amplitude > 0 needs a frequency > 0.  The seed and a per-call trial
    index select independent, reproducible noise realizations.
    """

    params: NetworkParams
    sample_rate: float
    duration: float
    signal_frequency: float = 0.0
    signal_amplitude: float = 0.0
    kernel: Kernel = FlatKernel()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sample_rate", "duration", "signal_frequency", "signal_amplitude"):
            rule = ">=" if name.startswith("signal_") else ">"  # a tone may be absent
            object.__setattr__(self, name, _signed(name, getattr(self, name), rule))
        if self.signal_amplitude > 0.0:
            _signed("signal_frequency", self.signal_frequency)
        _below_nyquist("signal_frequency", self.signal_frequency, self.sample_rate)
        samples = self.duration * self.sample_rate  # inf if it overflows
        if samples == math.inf or self.n_samples > MAX_SAMPLES:
            raise ValueError(f"run too long: {samples:.6g} samples, need at most {MAX_SAMPLES}")
        _long_enough("run", self.n_samples)
        if not isinstance(self.kernel, (FlatKernel, BandpassKernel)):
            raise ValueError(f"unknown kernel type {type(self.kernel).__name__}")
        if isinstance(self.kernel, BandpassKernel):
            _resonator_domain(self.kernel, self.sample_rate)
        if not _is_uint64(self.seed):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


def _substream(seed: int, trial: int, chunk: int = 0) -> np.random.Generator:
    """Counter-based generator keyed on (seed, trial), starting at counter
    word 3 = chunk: distinct trials and chunks give independent streams
    without sequential state.  Chunk 0 is Philox's default counter.  The
    seed and the trial are its callers' to check: each a word in [0, 2^64)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, chunk]))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream(name: str, value, size: int | None = None) -> None:
    """Refuse anything but a stream, a 1-D float64 numpy array (of `size`
    samples, if given), naming the field."""
    if not (isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64):
        got = f"{value.dtype} {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
        raise ValueError(f"{name} must be a 1-D float64 array, got {got}")
    if size is not None and value.size != size:
        raise ValueError(f"{name} has {value.size} samples, need {size}")


class QuadratureStreams(Record, eq=False):
    """Output-beam quadrature time series, vacuum units: two streams of
    equal length."""

    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        _stream("amplitude", self.amplitude)
        _stream("phase", self.phase, self.amplitude.size)

    def at_angle(self, phi: float) -> np.ndarray:
        """Projection cos(phi)*amplitude + sin(phi)*phase, in a new _mapped
        array, a block of _BLOCK samples at a time: it holds one block's
        temporary besides the result, and gives the bits of the whole-array
        expression."""
        phi = _real("phi", phi)
        c, s = math.cos(phi), math.sin(phi)
        out = _mapped(self.amplitude.size)
        for start in range(0, out.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            np.multiply(c, self.amplitude[part], out=out[part])
            out[part] += s * self.phase[part]
        return out


def _kernel_step(kernel: Kernel, params: NetworkParams, sample_rate: float):
    """The kernel as a step over a photocurrent's chunks, once it and
    sample_rate are checked: step(photocurrent) writes the correction over
    the next chunk of photocurrent and returns it.

    The flat kernel scales by the network gain, which must be real.  The
    bandpass kernel is a causal IIR resonator with _peak_coefficients'
    (b, a), iirpeak's bits; its centre and bandwidth must lie below
    Nyquist.  Its step runs scipy's compiled filter, the recursion lfilter
    calls, loaded alone as the step is built, and carries the two state
    values from call to call, so chunks given in order give the bits of one
    whole-array lfilter call.  It filters a chunk _BLOCK samples at a time,
    carrying the state from piece to piece, and multiplies each piece's
    output into the photocurrent, so its one allocation is a block.  The
    flat step carries no state, so any thread may run it on any chunk.
    """
    sample_rate = _signed("sample_rate", sample_rate)
    if isinstance(kernel, FlatKernel):
        if params.gain.imag != 0.0:
            raise ValueError("flat kernel needs a real gain")
        return lambda current: np.multiply(params.gain.real, current, out=current)
    if isinstance(kernel, BandpassKernel):
        _resonator_domain(kernel, sample_rate)
        b, a = _peak_coefficients(kernel, sample_rate)
        linear_filter = _linear_filter()
        state = np.zeros(2)

        def step(photocurrent: np.ndarray) -> np.ndarray:
            nonlocal state
            for start in range(0, photocurrent.size, _BLOCK):
                piece = photocurrent[start : start + _BLOCK]
                filtered, state = linear_filter(b, a, piece, -1, state)
                np.multiply(kernel.gain, filtered, out=piece)
            return photocurrent

        return step
    raise ValueError(f"unknown kernel type {type(kernel).__name__}")


def apply_kernel(
    kernel: Kernel, photocurrent: np.ndarray, params: NetworkParams, sample_rate: float
) -> np.ndarray:
    """The feed-forward correction to a photocurrent stream, in a new array:
    _kernel_step's step run once over a copy, so it holds one block's filter
    output besides the result."""
    step = _kernel_step(kernel, params, sample_rate)
    _stream("photocurrent", photocurrent)
    return step(photocurrent.copy())


def _chunk_streams(
    config: SimConfig, trial: int, chunk: int, rows: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signal flow over chunk `chunk` of a run, the samples from
    chunk * _CHUNK on, as many as the three `rows` hold: the output
    amplitude, the homodyne photocurrent and the output phase before the
    feed-forward correction, written into `rows` and returned.  It writes
    nothing else, so chunks may be drawn on any threads in any order.

    With x the input phase scaled to v_phase_in (plus the coherent tone, on
    the run's time axis, if configured):

        photocurrent = sqrt(eta_h1 eta_d1 (1 - epsilon)) x
                       + sqrt(eta_d1 eta_h1 epsilon) tap_vacuum_phase
                       + sqrt(eta_d1 (1 - eta_h1)) homodyne_mismatch_phase
                       + sqrt((1 - eta_d1) / 2) (detector_vacuum_1 + detector_vacuum_2)
        amplitude = sqrt(epsilon) input_amplitude
                    - sqrt(1 - epsilon) tap_vacuum_amplitude
        phase = sqrt(epsilon) x - sqrt(1 - epsilon) tap_vacuum_phase

    The seven modes are unit-variance white series drawn one at a time, in
    _MODE_ORDER, from the Philox substream at counter `chunk`: the stream
    positions of one (7, length) draw.  Each mode is drawn _BLOCK samples at
    a time and each block is folded into the sums as it arrives, term by
    term from the left, so the bits are those of the three expressions over
    a whole draw block.  Only detector_vacuum_1 is held whole, until
    detector_vacuum_2 arrives a row later, so a chunk maps one row and two
    blocks of its own with _mapped besides its outputs; their pages go back
    to the OS as it returns.
    """
    p = config.params
    eps = p.epsilon
    eh, ed = p.eta_h1, p.eta_d1
    transmitted, tapped = math.sqrt(eps), math.sqrt(1.0 - eps)
    amplitude, photocurrent, phase = rows
    start, n = chunk * _CHUNK, amplitude.size
    detectors, block, other = _mapped(n), _mapped(min(n, _BLOCK)), _mapped(min(n, _BLOCK))
    rng = _substream(config.seed, trial, chunk)
    modes = iter(_MODE_ORDER)

    def draw(mode: NoiseMode):
        """Yield (part, samples): the mode's next block, drawn into `block`."""
        assert next(modes) is mode, "each draw takes the next mode's stream positions"
        for lo in range(0, n, _BLOCK):
            part = slice(lo, lo + _BLOCK)
            yield part, rng.standard_normal(out=block[: min(_BLOCK, n - lo)])

    for part, a in draw(NoiseMode.INPUT_AMPLITUDE):
        np.multiply(transmitted, a, out=amplitude[part])

    for part, x in draw(NoiseMode.INPUT_PHASE):
        x *= math.sqrt(p.v_phase_in)
        if config.signal_amplitude > 0.0:
            # the run's sample indices as floats, summed in place from the
            # block's first, each below 2^53, so exact: arange's bits
            tone = other[: x.size]
            tone.fill(1.0)
            tone[0] = start + part.start
            np.cumsum(tone, out=tone)
            tone /= config.sample_rate
            tone *= 2.0 * math.pi * config.signal_frequency
            np.sin(tone, out=tone)
            tone *= config.signal_amplitude
            x += tone
        np.multiply(math.sqrt(eh * ed * (1.0 - eps)), x, out=photocurrent[part])
        np.multiply(transmitted, x, out=phase[part])

    for part, a in draw(NoiseMode.TAP_VACUUM_AMPLITUDE):
        amplitude[part] -= np.multiply(tapped, a, out=a)

    for part, tap_phase in draw(NoiseMode.TAP_VACUUM_PHASE):
        photocurrent[part] += np.multiply(
            math.sqrt(ed * eh * eps), tap_phase, out=other[: tap_phase.size]
        )
        phase[part] -= np.multiply(tapped, tap_phase, out=tap_phase)

    for part, mismatch in draw(NoiseMode.HOMODYNE_MISMATCH_PHASE):
        photocurrent[part] += np.multiply(math.sqrt(ed * (1.0 - eh)), mismatch, out=mismatch)

    for part, d1 in draw(NoiseMode.DETECTOR_VACUUM_1):
        detectors[part] = d1
    for part, d2 in draw(NoiseMode.DETECTOR_VACUUM_2):
        both = np.add(detectors[part], d2, out=d2)
        photocurrent[part] += np.multiply(math.sqrt((1.0 - ed) / 2.0), both, out=both)
    return amplitude, photocurrent, phase


def _parallel(fn, count: int):
    """Yield fn(0), ..., fn(count - 1) in order: called in turn when one CPU
    is usable, else on a thread per usable CPU.  Call i + workers is
    submitted once the caller is done with result i, so at most `workers`
    results are made and not yet done with.  numpy releases the GIL while
    drawing, in the ufuncs and in the FFT, so the calls run in parallel;
    each must write only its own slice of shared output.  Work that must
    run in order, such as a bandpass step, is the caller's, on the results
    as they come.  A failed call's exception is re-raised, and closing the
    generator waits for the calls in flight."""
    workers = min(_usable_cpus(), count)
    if workers <= 1:
        for i in range(count):
            yield fn(i)
        return
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        calls = deque(pool.submit(fn, i) for i in range(workers))
        for i in range(count):
            yield calls.popleft().result()
            if i + workers < count:
                calls.append(pool.submit(fn, i + workers))


def _chunks(n_samples: int) -> list[slice]:
    """A run's _CHUNK-sample slices in chunk order, the last one partial."""
    return [slice(start, start + _CHUNK) for start in range(0, n_samples, _CHUNK)]


def simulate_streams(config: SimConfig, trial: int = 0) -> QuadratureStreams:
    """One realization of the output quadrature streams, in two _mapped
    streams.  A trial outside [0, 2^64) is refused before anything is
    loaded or allocated, and the step, which checks the kernel, is built
    before a stream is mapped.  On every usable CPU, _chunk_streams draws
    chunk k into its slices of the streams and a _mapped photocurrent row of
    its own.  The calling thread takes the chunks in order, runs each
    photocurrent through the step in place and adds the correction to the
    phase, so a bandpass step sees the chunks in order and the output does
    not depend on the thread count."""
    if not _is_uint64(trial):
        raise ValueError(f"trial must be an integer in [0, 2^64), got {trial!r}")
    step = _kernel_step(config.kernel, config.params, config.sample_rate)
    amplitude, phase = _mapped(config.n_samples), _mapped(config.n_samples)
    parts = _chunks(config.n_samples)

    def draw(chunk: int):
        part = parts[chunk]
        rows = amplitude[part], _mapped(amplitude[part].size), phase[part]
        return _chunk_streams(config, trial, chunk, rows)[1:]

    for photocurrent, chunk_phase in _parallel(draw, len(parts)):
        chunk_phase += step(photocurrent)
        del photocurrent  # before the next chunk is drawn
    return QuadratureStreams(amplitude=amplitude, phase=phase)


def _projection(config: SimConfig, trial: int, phi: float) -> np.ndarray:
    """simulate_streams(config, trial).at_angle(phi), bit for bit, holding
    only the _mapped series whole.  For the flat kernel, the one
    oracle_compare takes: its step carries no state, so each chunk is done
    on the thread that draws it.  Its amplitude is drawn into its slice of
    the series, beside _mapped photocurrent and phase rows of its own, the
    correction is added to the phase, and the chunk is projected there in
    at_angle's two steps, the phase row taking sin(phi) * phase in place.
    A bandpass step would see the chunks out of order."""
    step = _kernel_step(config.kernel, config.params, config.sample_rate)
    series = _mapped(config.n_samples)
    parts = _chunks(config.n_samples)
    c, s = math.cos(phi), math.sin(phi)

    def project(chunk: int) -> None:
        amplitude = series[parts[chunk]]
        rows = amplitude, _mapped(amplitude.size), _mapped(amplitude.size)
        _, photocurrent, phase = _chunk_streams(config, trial, chunk, rows)
        phase += step(photocurrent)
        amplitude *= c
        amplitude += np.multiply(s, phase, out=phase)

    for _ in _parallel(project, len(parts)):
        pass
    return series


class PsdEstimate(Record, eq=False):
    """Averaged periodogram with per-bin standard errors, vacuum units."""

    frequencies: np.ndarray
    variance: np.ndarray
    standard_error: np.ndarray


def estimate_psd(series, sample_rate: float) -> PsdEstimate:
    """Averaged periodogram over the analysis plan's SEGMENT_COUNT equal,
    non-overlapping rectangular segments; samples past the last are dropped.

    Normalization: |rfft(segment)|^2 / m, so a unit-variance white input
    averages to 1.0 in every bin and a sinusoid of amplitude a centred on an
    interior bin contributes a^2 * m / 4 (m = segment length).  Standard
    errors come from the scatter of the per-segment periodograms.  The rows
    are transformed in blocks of about _CHUNK samples on every usable CPU,
    each into _mapped spectrum rows of its own and from there, in place,
    into the _mapped periodogram; the result does not depend on the thread
    count.  The mean and the standard error are formed in the periodogram
    rows themselves, in the steps of numpy's mean(axis=0) and
    std(axis=0, ddof=1), so they have those bits and no temporary of the
    periodogram's size is made.  A series with a NaN or inf sample, or
    whose periodogram overflows, is refused once its bins are formed, so
    the samples are never scanned.
    """
    _stream("series", series)
    sample_rate = _signed("sample_rate", sample_rate)
    _long_enough("series", series.size)
    seg_len = series.size // SEGMENT_COUNT
    segments = series[: seg_len * SEGMENT_COUNT].reshape(SEGMENT_COUNT, seg_len)
    periodograms = _mapped((SEGMENT_COUNT, seg_len // 2 + 1))
    per_block = max(1, _CHUNK // seg_len)  # at least one segment per block

    def fill_rows(block: int) -> None:
        part = slice(block * per_block, (block + 1) * per_block)
        rows = periodograms[part]
        # a non-finite sample is refused below, once, not warned of here too;
        # numpy's error state is per thread, so it is set on each worker
        with np.errstate(invalid="ignore", over="ignore"):
            z = np.fft.rfft(segments[part], axis=1, out=_mapped(rows.shape, complex))
            np.true_divide(np.square(np.abs(z, out=rows), out=rows), seg_len, out=rows)

    for _ in _parallel(fill_rows, -(-SEGMENT_COUNT // per_block)):
        pass
    variance = np.add.reduce(periodograms, axis=0)
    variance /= SEGMENT_COUNT
    if not np.isfinite(variance).all():
        raise ValueError("series has non-finite PSD bins: a NaN or inf sample, or overflow")
    periodograms -= variance
    np.multiply(periodograms, periodograms, out=periodograms)
    standard_error = np.add.reduce(periodograms, axis=0)
    standard_error /= SEGMENT_COUNT - 1
    np.sqrt(standard_error, out=standard_error)
    standard_error /= math.sqrt(SEGMENT_COUNT)
    frequencies = np.fft.rfftfreq(seg_len, d=1.0 / sample_rate)
    return PsdEstimate(
        frequencies=frequencies, variance=variance, standard_error=standard_error
    )


def band_average(
    estimate: PsdEstimate,
    exclude_hz: float | None = None,
    exclude_width_hz: float = 0.0,
) -> tuple[float, float]:
    """Mean PSD over interior bins, with a combined standard error.

    DC and Nyquist are always dropped; bins within exclude_width_hz (>= 0)
    of exclude_hz (a coherent tone) can be masked out too.  Bins are treated as
    independent, which is exact for white input.
    """
    width = _signed("exclude_width_hz", exclude_width_hz, ">=")
    n_bins = estimate.variance.size
    if n_bins < 3:
        raise ValueError("estimate has no interior bins")
    mask = np.ones(n_bins, dtype=bool)
    mask[0] = mask[-1] = False
    if exclude_hz is not None:
        mask &= np.abs(estimate.frequencies - _real("exclude_hz", exclude_hz)) > width
    kept = int(mask.sum())
    if kept == 0:
        raise ValueError("exclusion mask removed every bin")
    mean = float(estimate.variance[mask].mean())
    se = float(np.sqrt(np.sum(estimate.standard_error[mask] ** 2)) / kept)
    return mean, se


class OracleRow(Record):
    """One angle's Monte Carlo / analytic comparison."""

    phi: float
    mc_variance: float
    standard_error: float
    analytic_variance: float
    n_sigma: float
    within_tolerance: bool


class OracleReport(Record):
    rows: tuple[OracleRow, ...]
    samples_per_run: int

    @property
    def all_pass(self) -> bool:
        return all(row.within_tolerance for row in self.rows)


def oracle_compare(config: SimConfig, angles: Sequence[float]) -> OracleReport:
    """Band-averaged Monte Carlo spectra against the analytic model.

    Runs one independent realization per angle (trial index = position in
    `angles`), band-averages its PSD, and flags each row by how many standard
    errors it sits from spectrum_from_modes; a row within SIGMA_BOUND passes.
    Requires the flat kernel, since the analytic model is single-frequency.
    A configured tone is masked out of the band average.  Every angle and the
    kernel are checked before any noise is drawn.  Each realization is
    _projection's series, so the whole streams are never held, and the rows
    equal those of estimate_psd(simulate_streams(config, trial).at_angle(phi))
    bit for bit.
    """
    if not isinstance(config.kernel, FlatKernel):
        raise ValueError("analytic comparison requires the flat kernel")
    angles = [_real(f"angles[{i}]", phi) for i, phi in enumerate(angles)]
    if not angles:
        raise ValueError("angles must name at least one analysis angle")
    rows = []
    for trial, phi in enumerate(angles):
        estimate = estimate_psd(_projection(config, trial, phi), config.sample_rate)
        mc, se = band_average(
            estimate,
            exclude_hz=config.signal_frequency if config.signal_amplitude > 0.0 else None,
            exclude_width_hz=3.0 * estimate.frequencies[1],  # three bins
        )
        analytic = float(spectrum_from_modes(config.params, phi))
        gap = abs(mc - analytic)
        z = gap / se if se > 0.0 else (0.0 if gap == 0.0 else math.inf)
        rows.append(
            OracleRow(
                phi=phi,
                mc_variance=mc,
                standard_error=se,
                analytic_variance=analytic,
                n_sigma=z,
                within_tolerance=z <= SIGMA_BOUND,
            )
        )
    return OracleReport(rows=tuple(rows), samples_per_run=config.n_samples)
