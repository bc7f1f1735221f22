"""Command-line front end and file formats.

Subcommands cover the whole workflow: single-angle spectra, local-oscillator
phase sweeps, gain optimization summaries, SNR inference from measured
levels, Monte Carlo cross-checks, and gain fits to recorded sweep traces.
Everything is driven by one JSON config file; outputs are CSV or JSON with
floats at 12 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, asdict, replace
from typing import Mapping

import numpy as np

from .algebra import db_from_linear
from .montecarlo import BandpassKernel, FlatKernel, SimConfig, oracle_compare
from .network import (
    NetworkParams,
    SnrReport,
    detected_variance,
    ideal_gain,
    infer_snr,
    max_transfer_ratio,
    optimal_gain,
    pia_transfer_ratio,
    signal_power_gain,
    spectrum_closed_form,
    spectrum_from_modes,
    transfer_ratio,
)

# Flag values accepted by --formula.
SPECTRUM_FORMULAS: Mapping[str, object] = {
    "paper": spectrum_closed_form,
    "coefficient": spectrum_from_modes,
}

TRACE_HEADER = ("phase_rad", "variance_linear", "variance_db")

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SweepTrace:
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
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shapes = {arr.shape for arr in (self.phase, self.variance_linear, self.variance_db)}
        if len(shapes) != 1 or self.phase.ndim != 1:
            raise ValueError("trace columns must be 1-D arrays of equal length")
        if self.phase.size:
            if not np.all(np.isfinite(self.phase)):
                raise ValueError("phase values must be finite")
            if np.any(np.diff(self.phase) < 0.0):
                raise ValueError("phase values must be nondecreasing")
            if self.phase[0] < -1e-12 or self.phase[-1] > _TWO_PI + 1e-12:
                raise ValueError("phase values must lie in [0, 2*pi]")
            if not np.all(np.isfinite(self.variance_linear)) or np.any(
                self.variance_linear <= 0.0
            ):
                raise ValueError("variance_linear values must be finite and > 0")
            if not np.all(np.isfinite(self.variance_db)):
                raise ValueError("variance_db values must be finite")
        object.__setattr__(self, "detected", bool(self.detected))

    def __len__(self) -> int:
        return int(self.phase.size)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a one-parameter gain fit."""

    k_fit: float
    residual_rms: float
    iterations: int


@dataclass(frozen=True)
class SnrSettings:
    """Measured spectrum-analyzer levels, power dB above the vacuum level."""

    input_total_db: float
    input_noise_db: float
    output_total_db: float
    output_noise_db: float

    def __post_init__(self) -> None:
        for name in (
            "input_total_db",
            "input_noise_db",
            "output_total_db",
            "output_noise_db",
        ):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RunConfig:
    """Parsed JSON config: network settings plus optional sweep, simulation,
    and SNR blocks."""

    network: NetworkParams
    sweep_points: int = 361
    sweep_formula: str = "paper"
    sweep_detected: bool = False
    simulation: SimConfig | None = None
    snr: SnrSettings | None = None


def run_sweep(
    params: NetworkParams,
    n_points: int = 361,
    formula: str = "paper",
    detected: bool = False,
) -> SweepTrace:
    """Evaluate the chosen spectrum formula on a uniform [0, 2*pi] grid."""
    if not (isinstance(n_points, int) and n_points >= 8):
        raise ValueError(f"n_points must be an integer >= 8, got {n_points!r}")
    spectrum = _spectrum_function(formula)
    phase = np.linspace(0.0, _TWO_PI, n_points)
    values = np.asarray(spectrum(params, phase), dtype=float)
    if detected:
        values = detected_variance(values, params.eta_det2)
    level_db = np.array([db_from_linear(v) for v in values])
    return SweepTrace(
        phase=phase,
        variance_linear=values,
        variance_db=level_db,
        detected=bool(detected),
    )


def _spectrum_function(formula: str):
    try:
        return SPECTRUM_FORMULAS[formula]
    except KeyError:
        raise ValueError(
            f"unknown formula {formula!r}, expected one of {sorted(SPECTRUM_FORMULAS)}"
        ) from None


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


def fit_gain(
    trace: SweepTrace,
    params: NetworkParams,
    formula: str = "paper",
    k_max: float = 10.0,
    tol: float = 1e-6,
) -> FitResult:
    """Least-squares fit of the feed-forward gain to a sweep trace.

    Residuals are taken in linear variance units against the chosen formula,
    with all parameters except the gain pinned to `params`.  A coarse grid
    over [0, k_max] brackets the minimum, then golden-section search narrows
    it to `tol` (absolute in the gain).  A minimum at the k_max end of the
    grid is an error, not a fit.  If the trace was recorded through
    the verification stage (trace.detected), the model is read the same way.
    """
    if len(trace) < 8:
        raise ValueError(f"trace has {len(trace)} points, need at least 8 to fit")
    span = float(trace.phase[-1] - trace.phase[0])
    if span < math.pi - 1e-12:
        raise ValueError(f"trace spans {span:.4f} rad, need at least half a period")
    spread = float(np.ptp(trace.variance_linear))
    if spread <= 1e-9 * float(np.max(np.abs(trace.variance_linear))):
        raise ValueError("degenerate trace: variance is flat, nothing to fit")
    if not (math.isfinite(k_max) and k_max > 0.0):
        raise ValueError(f"k_max must be > 0, got {k_max!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol!r}")
    spectrum = _spectrum_function(formula)
    target = trace.variance_linear

    def objective(k: float) -> float:
        model = np.asarray(spectrum(params.with_gain(k), trace.phase), dtype=float)
        if trace.detected:
            model = detected_variance(model, params.eta_det2)
        residual = model - target
        return float(np.mean(residual * residual))

    grid = np.linspace(0.0, k_max, 201)
    values = [objective(k) for k in grid]
    best = int(np.argmin(values))
    if best == grid.size - 1:
        raise ValueError(
            f"the best gain on the [0, {k_max:g}] grid is its bound k_max={k_max:g}: "
            "the trace's gain lies beyond the bracket, so there is no fit to report"
        )
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    k_fit, iterations = _golden_section_min(objective, lo, hi, tol)
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
# formatter so CSV and JSON agree and runs are reproducible byte for byte.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _trace_to_csv(trace: SweepTrace) -> str:
    lines = [",".join(TRACE_HEADER)]
    for p, v, d in zip(trace.phase, trace.variance_linear, trace.variance_db):
        lines.append(f"{_fmt(p)},{_fmt(v)},{_fmt(d)}")
    return "\n".join(lines) + "\n"


def _trace_to_json(trace: SweepTrace) -> str:
    payload = {
        "detected": trace.detected,
        "phase_rad": [_round12(x) for x in trace.phase],
        "variance_linear": [_round12(x) for x in trace.variance_linear],
        "variance_db": [_round12(x) for x in trace.variance_db],
    }
    return json.dumps(payload, indent=2) + "\n"


def _scalar_to_json(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round12(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _scalar_to_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def _report_to_json(report: Mapping) -> str:
    payload = {str(k): _scalar_to_json(v) for k, v in report.items()}
    return json.dumps(payload, indent=2) + "\n"


def _report_to_csv(report: Mapping) -> str:
    lines = ["key,value"]
    for key, value in report.items():
        lines.append(f"{key},{_scalar_to_csv(value)}")
    return "\n".join(lines) + "\n"


def _render(obj, fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'json'")
    if isinstance(obj, SweepTrace):
        return _trace_to_csv(obj) if fmt == "csv" else _trace_to_json(obj)
    if isinstance(obj, Mapping):
        return _report_to_csv(obj) if fmt == "csv" else _report_to_json(obj)
    raise TypeError(f"cannot render object of type {type(obj).__name__}")


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
    """Serialize a SweepTrace or a flat report mapping to CSV or JSON."""
    _atomic_write(path, _render(obj, fmt))


def load_trace_csv(path: str, detected: bool = False) -> SweepTrace:
    """Read back a sweep trace written by emit (or any file with the same
    three-column layout)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(TRACE_HEADER):
            raise ValueError(
                f"unexpected trace header {header!r}, expected {list(TRACE_HEADER)}"
            )
        phase, linear, level_db = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell in {row!r}") from None
            phase.append(values[0])
            linear.append(values[1])
            level_db.append(values[2])
    return SweepTrace(
        phase=np.array(phase),
        variance_linear=np.array(linear),
        variance_db=np.array(level_db),
        detected=detected,
    )


def load_report_json(path: str) -> dict:
    """Read back a flat JSON report written by emit."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


# ---------------------------------------------------------------------------
# Config file parsing.
# ---------------------------------------------------------------------------


def _require_block(data, name: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"config block {name!r} must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {name!r} block: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"missing keys in {name!r} block: {sorted(missing)}")
    return data


def _as_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    return float(value)


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return value


def _parse_gain(value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value))
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"gain must be a number or a [real, imag] pair, got {value!r}")


def _parse_network(block) -> NetworkParams:
    block = _require_block(
        block,
        "network",
        allowed={"epsilon", "eta_h1", "eta_d1", "gain", "v_phase_in", "eta_det2"},
        required={"epsilon", "eta_h1", "eta_d1", "gain"},
    )
    kwargs = {
        "epsilon": _as_number(block["epsilon"], "network.epsilon"),
        "eta_h1": _as_number(block["eta_h1"], "network.eta_h1"),
        "eta_d1": _as_number(block["eta_d1"], "network.eta_d1"),
        "gain": _parse_gain(block["gain"]),
    }
    if "v_phase_in" in block:
        kwargs["v_phase_in"] = _as_number(block["v_phase_in"], "network.v_phase_in")
    if "eta_det2" in block:
        kwargs["eta_det2"] = _as_number(block["eta_det2"], "network.eta_det2")
    return NetworkParams(**kwargs)


def _parse_kernel(block):
    block = _require_block(
        block,
        "simulation.kernel",
        allowed={"type", "center_hz", "bandwidth_hz", "gain"},
        required={"type"},
    )
    kind = block["type"]
    if kind == "flat":
        if set(block) != {"type"}:
            raise ValueError("flat kernel takes no extra keys")
        return FlatKernel()
    if kind == "bandpass":
        for key in ("center_hz", "bandwidth_hz", "gain"):
            if key not in block:
                raise ValueError(f"bandpass kernel needs {key!r}")
        return BandpassKernel(
            center_hz=_as_number(block["center_hz"], "kernel.center_hz"),
            bandwidth_hz=_as_number(block["bandwidth_hz"], "kernel.bandwidth_hz"),
            gain=_as_number(block["gain"], "kernel.gain"),
        )
    raise ValueError(f"unknown kernel type {kind!r}, expected 'flat' or 'bandpass'")


def _parse_simulation(block, params: NetworkParams) -> SimConfig:
    block = _require_block(
        block,
        "simulation",
        allowed={
            "sample_rate",
            "duration",
            "signal_frequency",
            "signal_amplitude",
            "kernel",
            "seed",
        },
        required={"sample_rate", "duration"},
    )
    kwargs = {
        "params": params,
        "sample_rate": _as_number(block["sample_rate"], "simulation.sample_rate"),
        "duration": _as_number(block["duration"], "simulation.duration"),
    }
    if "signal_frequency" in block:
        kwargs["signal_frequency"] = _as_number(
            block["signal_frequency"], "simulation.signal_frequency"
        )
    if "signal_amplitude" in block:
        kwargs["signal_amplitude"] = _as_number(
            block["signal_amplitude"], "simulation.signal_amplitude"
        )
    if "kernel" in block:
        kwargs["kernel"] = _parse_kernel(block["kernel"])
    if "seed" in block:
        kwargs["seed"] = _as_int(block["seed"], "simulation.seed")
    return SimConfig(**kwargs)


def _parse_snr(block) -> SnrSettings:
    keys = {"input_total_db", "input_noise_db", "output_total_db", "output_noise_db"}
    block = _require_block(block, "snr", allowed=keys, required=keys)
    return SnrSettings(
        **{key: _as_number(block[key], f"snr.{key}") for key in sorted(keys)}
    )


def load_config(path: str) -> RunConfig:
    """Parse a JSON run config.

    Layout: a required "network" block, plus optional "sweep"
    (points/formula/detected), "simulation" (sample_rate/duration/seed/
    signal_frequency/signal_amplitude/kernel), and "snr" (the four measured
    dB levels) blocks.  Unknown keys anywhere are an error.
    """
    with open(path) as handle:
        data = json.load(handle)
    data = _require_block(
        data, "top-level", allowed={"network", "sweep", "simulation", "snr"}, required={"network"}
    )
    network = _parse_network(data["network"])
    kwargs: dict = {"network": network}
    if "sweep" in data:
        sweep = _require_block(
            data["sweep"],
            "sweep",
            allowed={"points", "formula", "detected"},
            required=set(),
        )
        if "points" in sweep:
            kwargs["sweep_points"] = _as_int(sweep["points"], "sweep.points")
        if "formula" in sweep:
            formula = sweep["formula"]
            _spectrum_function(formula)
            kwargs["sweep_formula"] = formula
        if "detected" in sweep:
            if not isinstance(sweep["detected"], bool):
                raise ValueError("sweep.detected must be true or false")
            kwargs["sweep_detected"] = sweep["detected"]
    if "simulation" in data:
        kwargs["simulation"] = _parse_simulation(data["simulation"], network)
    if "snr" in data:
        kwargs["snr"] = _parse_snr(data["snr"])
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _write_output(obj, args, default_format: str) -> None:
    fmt = args.format or default_format
    if args.out:
        emit(obj, args.out, fmt)
    else:
        sys.stdout.write(_render(obj, fmt))


def _resolve_formula(args, config: RunConfig) -> str:
    return args.formula if args.formula else config.sweep_formula


def _resolve_detected(args, config: RunConfig) -> bool:
    return config.sweep_detected if args.detected is None else True


def _cmd_spectrum(args) -> int:
    config = load_config(args.config)
    formula = _resolve_formula(args, config)
    detected = _resolve_detected(args, config)
    params = config.network
    phi = float(args.phi)
    if not math.isfinite(phi):
        raise ValueError(f"--phi must be finite, got {args.phi!r}")
    value = float(SPECTRUM_FORMULAS[formula](params, phi))
    if detected:
        value = detected_variance(value, params.eta_det2)
    report = {
        "phi_rad": phi,
        "formula": formula,
        "detected": detected,
        "variance_linear": value,
        "variance_db": db_from_linear(value),
    }
    _write_output(report, args, default_format="json")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    points = args.points if args.points is not None else config.sweep_points
    trace = run_sweep(
        config.network,
        n_points=points,
        formula=_resolve_formula(args, config),
        detected=_resolve_detected(args, config),
    )
    _write_output(trace, args, default_format="csv")
    return 0


def _cmd_optimize(args) -> int:
    config = load_config(args.config)
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
        "transfer_ratio_at_optimal_gain": transfer_ratio(p.with_gain(k_opt)),
        "configured_gain_real": p.gain.real,
        "configured_gain_imag": p.gain.imag,
        "transfer_ratio_at_configured_gain": transfer_ratio(p),
        "signal_power_gain": gain_power,
    }
    if gain_power > 0.0:
        report["signal_power_gain_db"] = db_from_linear(gain_power)
    if gain_power >= 1.0:
        report["pia_transfer_ratio_at_same_gain"] = pia_transfer_ratio(gain_power)
    _write_output(report, args, default_format="json")
    return 0


def _cmd_snr(args) -> int:
    config = load_config(args.config)
    if config.snr is None:
        raise ValueError("config has no 'snr' block")
    result = report_snr(config.snr, config.network)
    report = {
        "eta1": config.network.eta1,
        "eta_det2": config.network.eta_det2,
        **asdict(result),
    }
    _write_output(report, args, default_format="json")
    return 0


def _cmd_montecarlo(args) -> int:
    config = load_config(args.config)
    if config.simulation is None:
        raise ValueError("config has no 'simulation' block")
    sim = config.simulation
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    angles = (0.0, math.pi / 4.0, math.pi / 2.0)
    result = oracle_compare(sim, angles)
    report = {
        "seed": sim.seed,
        "segment_count": result.segment_count,
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
    _write_output(report, args, default_format="json")
    return 0


def _cmd_fit(args) -> int:
    config = load_config(args.config)
    detected = _resolve_detected(args, config)
    formula = _resolve_formula(args, config)
    trace = load_trace_csv(args.trace, detected=detected)
    result = fit_gain(trace, config.network, formula=formula)
    report = {
        "k_fit": result.k_fit,
        "residual_rms": result.residual_rms,
        "iterations": result.iterations,
        "formula": formula,
        "detected": detected,
        "n_points": len(trace),
    }
    _write_output(report, args, default_format="json")
    return 0


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.add_argument("--out", help="output file path (default: stdout)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        help="output format (default: csv for sweep traces, json for reports)",
    )


def _add_formula_arguments(sub: argparse.ArgumentParser) -> None:
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
        help="fold the verification stage efficiency eta_det2 into the levels",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseff",
        description="Noise budget engine for electro-optic phase feed-forward amplification",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    spectrum = commands.add_parser(
        "spectrum", help="output quadrature variance at one analysis angle"
    )
    _add_common_arguments(spectrum)
    _add_formula_arguments(spectrum)
    spectrum.add_argument(
        "--phi",
        type=float,
        default=math.pi / 2.0,
        help="analysis angle in radians (default: pi/2, the phase quadrature)",
    )
    spectrum.set_defaults(func=_cmd_spectrum)

    sweep = commands.add_parser(
        "sweep", help="variance trace over a full local-oscillator phase sweep"
    )
    _add_common_arguments(sweep)
    _add_formula_arguments(sweep)
    sweep.add_argument(
        "--points", type=int, help="number of sweep points (default: config, else 361)"
    )
    sweep.set_defaults(func=_cmd_sweep)

    optimize = commands.add_parser(
        "optimize", help="gain optimization summary for the configured network"
    )
    _add_common_arguments(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    snr = commands.add_parser(
        "snr", help="SNR inference chain from the config's measured levels"
    )
    _add_common_arguments(snr)
    snr.set_defaults(func=_cmd_snr)

    montecarlo = commands.add_parser(
        "montecarlo", help="Monte Carlo spectra versus the analytic model"
    )
    _add_common_arguments(montecarlo)
    montecarlo.add_argument(
        "--seed", type=int, help="override the config's simulation seed"
    )
    montecarlo.set_defaults(func=_cmd_montecarlo)

    fit = commands.add_parser("fit", help="fit the feed-forward gain to a sweep trace")
    fit.add_argument("trace", help="CSV trace file (phase_rad,variance_linear,variance_db)")
    _add_common_arguments(fit)
    _add_formula_arguments(fit)
    fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
