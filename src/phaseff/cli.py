"""Command-line front end and file formats.

Subcommands cover the whole workflow: single-angle spectra, local-oscillator
phase sweeps, gain optimization summaries, SNR inference from measured
levels, Monte Carlo cross-checks, and gain fits to recorded sweep traces.
Everything is driven by one JSON config file; outputs are CSV or JSON with
floats at 12 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Mapping

from .algebra import Record, _real, db_from_linear, linear_from_db, np
from .montecarlo import SEGMENT_COUNT, FlatKernel, SimConfig, oracle_compare
from .network import (
    SPECTRUM_FORMULAS,
    NetworkParams,
    SnrReport,
    _reals,
    detected_variance,
    ideal_gain,
    infer_snr,
    max_transfer_ratio,
    optimal_gain,
    pia_transfer_ratio,
    signal_power_gain,
    transfer_ratio,
)

TRACE_HEADER = ("phase_rad", "variance_linear", "variance_db")

# Fewest and most angles a sweep may have: checked before the grid is
# allocated, so an oversized --points or sweep.points fails at once instead of
# exhausting memory.
MIN_SWEEP_POINTS = 8
MAX_SWEEP_POINTS = 1_000_000

# Most angles the sweep subcommand evaluates one by one on Python floats,
# loading no numpy: up to here that costs less than numpy's import (about
# 0.12 s); a longer sweep takes run_sweep's arrays, which give the same bytes.
_SCALAR_SWEEP_MAX = 16_384

# The fit brackets the gain on [0, FIT_K_MAX] and stops at a width of FIT_TOL.
FIT_K_MAX = 10.0
FIT_TOL = 1e-6

# Analysis angles of the montecarlo subcommand.
MC_ANGLES = (0.0, math.pi / 4.0, math.pi / 2.0)

_TWO_PI = 2.0 * math.pi


def _check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


class SweepTrace(Record, eq=False):
    """Local-oscillator phase sweep of the output quadrature variance.

    phase is ordered and confined to [0, 2*pi]; variance_db mirrors
    variance_linear in dB.  detected records whether the verification
    stage's efficiency has been folded in.
    """

    phase: np.ndarray
    variance_linear: np.ndarray
    variance_db: np.ndarray
    detected: bool = False

    def __post_init__(self) -> None:
        for name in ("phase", "variance_linear", "variance_db"):
            # a copy: _reals may return the caller's own array, which stays writable
            arr = _reals(name, getattr(self, name)).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shapes = {arr.shape for arr in (self.phase, self.variance_linear, self.variance_db)}
        if len(shapes) != 1 or self.phase.ndim != 1:
            raise ValueError("trace columns must be 1-D arrays of equal length")
        if self.phase.size:
            if np.any(np.diff(self.phase) < 0.0):
                raise ValueError("phase values must be nondecreasing")
            if self.phase[0] < -1e-12 or self.phase[-1] > _TWO_PI + 1e-12:
                raise ValueError("phase values must lie in [0, 2*pi]")
            if np.any(self.variance_linear <= 0.0):
                raise ValueError("variance_linear values must be > 0")
        _check_bool("detected", self.detected)

    def __len__(self) -> int:
        return int(self.phase.size)


class FitResult(Record):
    """Outcome of a one-parameter gain fit."""

    k_fit: float
    residual_rms: float
    iterations: int


class SnrSettings(Record):
    """Measured spectrum-analyzer levels, power dB above the vacuum level."""

    input_total_db: float
    input_noise_db: float
    output_total_db: float
    output_noise_db: float

    def __post_init__(self) -> None:
        for name in self._fields:
            level = _real(name, getattr(self, name))
            linear_from_db(level, name)  # refuses a level whose linear power overflows
            object.__setattr__(self, name, level)


class SweepSettings(Record):
    """One sweep request: the angle count, the spectrum formula and the
    detection stage that every sweep, spectrum and fit evaluation reads.  The
    config's sweep block gives it, and the subcommands' flags override it."""

    points: int = 361
    formula: str = "paper"
    detected: bool = False

    def __post_init__(self) -> None:
        n, low, high = self.points, MIN_SWEEP_POINTS, MAX_SWEEP_POINTS
        if isinstance(n, bool) or not (isinstance(n, int) and low <= n <= high):
            raise ValueError(f"points must be an integer from {low} to {high}, got {n!r}")
        if not (isinstance(self.formula, str) and self.formula in SPECTRUM_FORMULAS):
            raise ValueError(
                f"formula must be one of {sorted(SPECTRUM_FORMULAS)}, got {self.formula!r}"
            )
        _check_bool("detected", self.detected)


class RunConfig(Record):
    """Parsed JSON config: network settings plus optional sweep, simulation,
    and SNR blocks.  simulation runs the network itself."""

    network: NetworkParams
    sweep: SweepSettings = SweepSettings()
    simulation: SimConfig | None = None
    snr: SnrSettings | None = None


class _SweepColumns(Record):
    """A sweep as the CLI writes it: SweepTrace's columns as lists of Python
    floats, so that building and rendering it loads no numpy."""

    phase: list
    variance_linear: list
    variance_db: list
    detected: bool


def run_sweep(
    params: NetworkParams,
    n_points: int = 361,
    formula: str = "paper",
    detected: bool = False,
) -> SweepTrace:
    """Evaluate the chosen spectrum formula on a uniform [0, 2*pi] grid of
    MIN_SWEEP_POINTS to MAX_SWEEP_POINTS angles."""
    level = _level(params, SweepSettings(n_points, formula, detected))
    phase = np.linspace(0.0, _TWO_PI, n_points)
    values = level(np.cos(phase), np.sin(phase))
    level_db = np.array([db_from_linear(v) for v in values])
    return SweepTrace(
        phase=phase, variance_linear=values, variance_db=level_db, detected=detected
    )


def _columns(trace: SweepTrace) -> _SweepColumns:
    """A trace's columns as lists of Python floats: tolist() keeps every bit."""
    return _SweepColumns(
        trace.phase.tolist(), trace.variance_linear.tolist(), trace.variance_db.tolist(),
        trace.detected,
    )


def _sweep_columns(params: NetworkParams, sweep: SweepSettings) -> _SweepColumns:
    """run_sweep's columns, bit for bit.  Up to _SCALAR_SWEEP_MAX angles they
    are evaluated one by one with math, loading no numpy: linspace's grid is
    i * (2*pi / (n - 1)) with its last angle 2*pi, and each formula and
    detected_variance give a Python float the bits of the array element."""
    n = sweep.points
    if n > _SCALAR_SWEEP_MAX:
        return _columns(run_sweep(params, n, sweep.formula, sweep.detected))
    level = _level(params, sweep)
    step = _TWO_PI / (n - 1)
    phase = [i * step for i in range(n - 1)] + [_TWO_PI]
    values = [level(math.cos(phi), math.sin(phi)) for phi in phase]
    level_db = [db_from_linear(v) for v in values]
    return _SweepColumns(phase, values, level_db, sweep.detected)


def _level(params: NetworkParams, sweep: SweepSettings):
    """Output quadrature variance by the sweep's formula, as a function of
    (cos phi, sin phi), two floats or two arrays, read through the
    verification stage (efficiency eta_det2) when the sweep is detected."""
    level = SPECTRUM_FORMULAS[sweep.formula](params)
    if not sweep.detected:
        return level
    return lambda c, s: detected_variance(level(c, s), params.eta_det2)


def _golden_section_min(func, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Golden-section search for the minimum of a unimodal func on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = func(d)
    return 0.5 * (a + b), iterations


def fit_gain(trace: SweepTrace, params: NetworkParams, formula: str = "paper") -> FitResult:
    """Least-squares fit of the feed-forward gain to a sweep trace.

    Residuals are taken in linear variance units against the chosen formula,
    with all parameters except the gain pinned to `params`.  A coarse grid
    over [0, FIT_K_MAX] brackets the minimum, then golden-section search
    narrows it to FIT_TOL (absolute in the gain).  A minimum at the FIT_K_MAX
    end of the grid is an error, not a fit.  If the trace was recorded through
    the verification stage (trace.detected), the model is read the same way.
    """
    if len(trace) < MIN_SWEEP_POINTS:
        raise ValueError(f"trace has {len(trace)} points, need at least {MIN_SWEEP_POINTS} to fit")
    span = float(trace.phase[-1] - trace.phase[0])
    if span < math.pi - 1e-12:
        raise ValueError(f"trace spans {span:.4f} rad, need at least half a period")
    spread = float(np.ptp(trace.variance_linear))
    if spread <= 1e-9 * float(np.max(np.abs(trace.variance_linear))):
        raise ValueError("degenerate trace: variance is flat, nothing to fit")
    sweep = SweepSettings(formula=formula, detected=trace.detected)
    target = trace.variance_linear
    c, s = np.cos(trace.phase), np.sin(trace.phase)

    @np.errstate(over="ignore")  # an overflowing objective is refused below
    def objective(k: float) -> float:
        residual = _level(params._replace(gain=k), sweep)(c, s) - target
        return float(np.mean(residual * residual))

    grid = np.linspace(0.0, FIT_K_MAX, 201)
    values = [objective(k) for k in grid]
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise ValueError(
            f"the trace's mean squared residual is not finite at any gain on the "
            f"[0, {FIT_K_MAX:g}] grid: there is no fit to report"
        )
    if best == grid.size - 1:
        raise ValueError(
            f"the best gain on the [0, {FIT_K_MAX:g}] grid is its bound k_max={FIT_K_MAX:g}: "
            "the trace's gain lies beyond the bracket, so there is no fit to report"
        )
    lo = grid[max(best - 1, 0)]
    hi = grid[best + 1]
    k_fit, iterations = _golden_section_min(objective, lo, hi, FIT_TOL)
    return FitResult(
        k_fit=float(k_fit),
        residual_rms=math.sqrt(objective(k_fit)),
        iterations=iterations,
    )


def report_snr(settings: SnrSettings, params: NetworkParams) -> SnrReport:
    """Run the SNR inference chain on both stages and form the transfer ratio.

    The input stage is corrected with the in-loop efficiency eta1, the output
    stage with eta_det2; t_s compares the two inferred SNRs.
    """
    stage_in = infer_snr(settings.input_total_db, settings.input_noise_db, params.eta1)
    stage_out = infer_snr(
        settings.output_total_db, settings.output_noise_db, params.eta_det2
    )
    if stage_in.inferred <= 0.0:
        raise ValueError("input signal is zero; transfer ratio undefined")
    return SnrReport(
        snr_detected_in=stage_in.detected,
        snr_inferred_in=stage_in.inferred,
        snr_detected_out=stage_out.detected,
        snr_inferred_out=stage_out.inferred,
        t_s=stage_out.inferred / stage_in.inferred,
    )


# ---------------------------------------------------------------------------
# Serialization.  Floats go through one canonical 12-significant-digit
# formatter and report values through one rule, _value, so CSV and JSON agree
# and runs are reproducible byte for byte.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _value(value):
    """A report value as both formats write it: a float (float64 too) cut to
    12 significant digits, a bool or a str as it is, an int as an int; anything
    else (None, a complex, an array, another numpy scalar) is a TypeError."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _cell(value) -> str:
    value = _value(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value) if isinstance(value, float) else str(value)


def _render(obj, fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'json'")
    if isinstance(obj, _SweepColumns):
        columns = (obj.phase, obj.variance_linear, obj.variance_db)
        if fmt == "csv":
            rows = (f"{_fmt(p)},{_fmt(v)},{_fmt(d)}" for p, v, d in zip(*columns))
            return "\n".join((",".join(TRACE_HEADER), *rows)) + "\n"
        payload = {"detected": obj.detected}
        for name, column in zip(TRACE_HEADER, columns):
            payload[name] = [_value(x) for x in column]
    elif isinstance(obj, Mapping):
        if fmt == "csv":
            return "key,value\n" + "".join(f"{k},{_cell(v)}\n" for k, v in obj.items())
        payload = {str(k): _value(v) for k, v in obj.items()}
    else:
        raise TypeError(f"cannot render object of type {type(obj).__name__}")
    return json.dumps(payload, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Write the whole rendering or nothing: build to a temp file in the
    target directory, then atomically replace.  The file gets the mode a
    plain open() would give it (0o666 less the umask), not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".phaseff-", suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise


def emit(obj, path: str, fmt: str) -> None:
    """Serialize a SweepTrace, its columns or a flat report mapping to CSV or JSON."""
    _atomic_write(path, _render(_columns(obj) if isinstance(obj, SweepTrace) else obj, fmt))


def load_trace_csv(path: str, detected: bool = False) -> SweepTrace:
    """Read back a sweep trace written by emit (or any file with the same
    three-column layout).  csv is imported here, its only user, so the
    other subcommands do not load it."""
    import csv

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(TRACE_HEADER):
            raise ValueError(
                f"unexpected trace header {header!r}, expected {list(TRACE_HEADER)}"
            )
        columns = {"phase": [], "variance_linear": [], "variance_db": []}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell in {row!r}") from None
            try:
                for (name, column), value in zip(columns.items(), values):
                    column.append(_real(name, value))
            except ValueError as exc:  # labelled on failure: a label per cell doubled the read
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    arrays = {name: np.array(column) for name, column in columns.items()}
    return SweepTrace(**arrays, detected=detected)


# ---------------------------------------------------------------------------
# Config file parsing.  A block's keys are its record's fields, required
# unless they have a default, and the record checks the values.  Only the
# JSON encoding of a complex gain is decoded here.
# ---------------------------------------------------------------------------


def _checked(cls, block, name: str, skip=()) -> dict:
    """One config block, once it is an object whose keys are those of record
    cls less skip."""
    if not isinstance(block, dict):
        raise ValueError(f"config block {name!r} must be a JSON object")
    fields = set(cls._fields) - set(skip)
    unknown = set(block) - fields
    if unknown:
        raise ValueError(f"unknown keys in {name!r} block: {sorted(unknown)}")
    missing = fields - set(cls._defaults) - set(block)
    if missing:
        raise ValueError(f"missing keys in {name!r} block: {sorted(missing)}")
    return block


def _build(cls, block, name: str, decoders: Mapping = {}, **given):
    """Record cls from one config block, decoded by decoders, plus the given
    fields.  Its errors name the block, as block.key when about a key."""
    kwargs = {
        key: decoders[key](value, f"{name}.{key}") if key in decoders else value
        for key, value in _checked(cls, block, name, skip=given).items()
    }
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        sep = "." if str(exc).split(" ", 1)[0] in kwargs else ": "
        raise ValueError(f"{name}{sep}{exc}") from None


def _gain(value, label: str):
    """A [real, imag] pair as a complex gain; NetworkParams checks other values."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(f"{label}[0]", value[0]), _real(f"{label}[1]", value[1]))
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, once no key appears in it twice."""
    block = dict(pairs)
    if len(block) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ValueError(f"repeated keys in a config block: {repeated}")
    return block


def load_config(path: str) -> RunConfig:
    """Parse a JSON run config.

    Layout: a required "network" block, plus optional "sweep"
    (points/formula/detected), "simulation" (sample_rate/duration/seed/
    signal_frequency/signal_amplitude), and "snr" (the four measured dB
    levels) blocks.  Unknown keys anywhere are an error, a "kernel" in the
    simulation block too: montecarlo, the one subcommand that runs the
    block, compares the flat kernel against the single-frequency model.
    A key that appears twice in one block is an error too.
    """
    with open(path) as handle:
        data = json.load(handle, object_pairs_hook=_unique_keys)
    blocks = _checked(RunConfig, data, "top-level")
    network = _build(NetworkParams, blocks["network"], "network", {"gain": _gain})
    config = {"network": network}
    if "sweep" in blocks:
        config["sweep"] = _build(SweepSettings, blocks["sweep"], "sweep")
    if "simulation" in blocks:
        config["simulation"] = _build(
            SimConfig, blocks["simulation"], "simulation", params=network, kernel=FlatKernel()
        )
    if "snr" in blocks:
        config["snr"] = _build(SnrSettings, blocks["snr"], "snr")
    return RunConfig(**config)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns a sweep's columns or a flat report dict, and main
# renders it: a trace as CSV and a report as JSON, unless --format is given.
# ---------------------------------------------------------------------------


def _cmd_spectrum(args, config: RunConfig) -> dict:
    sweep = config.sweep
    phi = _real("--phi", args.phi)
    value = _level(config.network, sweep)(math.cos(phi), math.sin(phi))
    return {
        "phi_rad": phi,
        "formula": sweep.formula,
        "detected": sweep.detected,
        "variance_linear": value,
        "variance_db": db_from_linear(value),
    }


def _cmd_sweep(args, config: RunConfig) -> _SweepColumns:
    return _sweep_columns(config.network, config.sweep)


def _cmd_optimize(args, config: RunConfig) -> dict:
    p = config.network
    k_opt = optimal_gain(p.epsilon, p.eta_h1, p.eta_d1)
    gain_power = signal_power_gain(p)
    report = {
        "epsilon": p.epsilon,
        "eta_h1": p.eta_h1,
        "eta_d1": p.eta_d1,
        "eta1": p.eta1,
        "ideal_gain": ideal_gain(p.epsilon),
        "optimal_gain": k_opt,
        "max_transfer_ratio": max_transfer_ratio(p.epsilon, p.eta_h1, p.eta_d1),
        "transfer_ratio_at_optimal_gain": transfer_ratio(p._replace(gain=k_opt)),
        "configured_gain_real": p.gain.real,
        "configured_gain_imag": p.gain.imag,
        "transfer_ratio_at_configured_gain": transfer_ratio(p),
        "signal_power_gain": gain_power,
    }
    if gain_power > 0.0:
        report["signal_power_gain_db"] = db_from_linear(gain_power)
    if gain_power >= 1.0:
        report["pia_transfer_ratio_at_same_gain"] = pia_transfer_ratio(gain_power)
    return report


def _cmd_snr(args, config: RunConfig) -> dict:
    if config.snr is None:
        raise ValueError("config has no 'snr' block")
    result = report_snr(config.snr, config.network)
    return {
        "eta1": config.network.eta1,
        "eta_det2": config.network.eta_det2,
        **result._asdict(),
    }


def _cmd_montecarlo(args, config: RunConfig) -> dict:
    sim = config.simulation
    if sim is None:
        raise ValueError("config has no 'simulation' block")
    result = oracle_compare(sim, MC_ANGLES)
    report = {
        "seed": sim.seed,
        "segment_count": SEGMENT_COUNT,
        "samples_per_run": result.samples_per_run,
        "all_pass": result.all_pass,
    }
    for i, row in enumerate(result.rows):
        report[f"phi_{i}"] = row.phi
        report[f"mc_variance_{i}"] = row.mc_variance
        report[f"standard_error_{i}"] = row.standard_error
        report[f"analytic_variance_{i}"] = row.analytic_variance
        report[f"n_sigma_{i}"] = row.n_sigma
        report[f"pass_{i}"] = row.within_tolerance
    return report


def _cmd_fit(args, config: RunConfig) -> dict:
    sweep = config.sweep
    trace = load_trace_csv(args.trace, detected=sweep.detected)
    result = fit_gain(trace, config.network, formula=sweep.formula)
    return {
        "k_fit": result.k_fit,
        "residual_rms": result.residual_rms,
        "iterations": result.iterations,
        "formula": sweep.formula,
        "detected": sweep.detected,
        "n_points": len(trace),
    }


# (subcommand, function, help); the spectrum, sweep and fit subcommands also
# take --formula and --detected, sweep takes --points and montecarlo --seed:
# flags named after the SweepSettings and SimConfig fields, which main folds
# into the config's sweep and simulation blocks.
_COMMANDS = (
    ("spectrum", _cmd_spectrum, "output quadrature variance at one analysis angle"),
    ("sweep", _cmd_sweep, "variance trace over a full local-oscillator phase sweep"),
    ("optimize", _cmd_optimize, "gain optimization summary for the configured network"),
    ("snr", _cmd_snr, "SNR inference chain from the config's measured levels"),
    ("montecarlo", _cmd_montecarlo, "Monte Carlo spectra versus the analytic model"),
    ("fit", _cmd_fit, "fit the feed-forward gain to a sweep trace"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseff",
        description="Noise budget engine for electro-optic phase feed-forward amplification",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, func, help_text in _COMMANDS:
        sub = subs[name] = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--out", help="output file path (default: stdout)")
        sub.add_argument(
            "--format",
            choices=("csv", "json"),
            help="output format (default: csv for sweep traces, json for reports)",
        )
        if name in ("spectrum", "sweep", "fit"):
            sub.add_argument(
                "--formula",
                choices=tuple(SPECTRUM_FORMULAS),
                help="spectrum variant: 'paper' uses the closed form with the "
                "interpolating prefactor, 'coefficient' sums the mode expansion "
                "(default: the config's sweep.formula, else 'paper')",
            )
            sub.add_argument(
                "--detected",
                action="store_true",
                default=None,
                help="fold the verification stage efficiency eta_det2 into the levels "
                "(default: the config's sweep.detected, else off)",
            )
    subs["spectrum"].add_argument(
        "--phi",
        type=float,
        default=math.pi / 2.0,
        help="analysis angle in radians (default: pi/2, the phase quadrature)",
    )
    subs["sweep"].add_argument(
        "--points",
        type=int,
        help=f"number of sweep points, {MIN_SWEEP_POINTS} to {MAX_SWEEP_POINTS} "
        "(default: config, else 361)",
    )
    subs["montecarlo"].add_argument(
        "--seed", type=int, help="override the config's simulation seed"
    )
    subs["fit"].add_argument(
        "trace", help="CSV trace file (phase_rad,variance_linear,variance_db)"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, given = load_config(args.config), vars(args)
        for block in ("sweep", "simulation"):  # a missing block is its command's error
            record = getattr(config, block)
            names = getattr(record, "_fields", ())
            flags = {k: given[k] for k in names if given.get(k) is not None}
            if flags:
                try:  # argparse checks the types: "points must be ...", "seed must be ..."
                    config = config._replace(**{block: record._replace(**flags)})
                except ValueError as exc:
                    raise ValueError(f"--{exc}") from None
        result = args.func(args, config)
        trace = isinstance(result, _SweepColumns)
        fmt = args.format or ("csv" if trace else "json")
        if args.out:
            emit(result, args.out, fmt)
        else:
            sys.stdout.write(_render(result, fmt))
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
