"""Tests for sweeps, gain fitting, SNR reports, file formats, and the CLI."""

import copy
import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from phaseff import (
    NetworkParams,
    SnrSettings,
    SweepSettings,
    SweepTrace,
    db_from_linear,
    detected_variance,
    emit,
    fit_gain,
    load_config,
    load_trace_csv,
    report_snr,
    run_sweep,
    spectrum_closed_form,
    spectrum_from_modes,
)
from phaseff import cli
from phaseff.cli import MAX_SWEEP_POINTS, main
from test_golden import CONFIG, run_python

V_IN = 10.0**0.86
BENCH = NetworkParams(
    epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2, v_phase_in=V_IN, eta_det2=0.8008
)

BASE_CONFIG = {
    "network": {
        "epsilon": 0.2,
        "eta_h1": 0.94,
        "eta_d1": 0.91,
        "gain": 3.2,
        "v_phase_in": V_IN,
        "eta_det2": 0.8008,
    },
    "sweep": {"points": 361, "formula": "paper", "detected": False},
    "simulation": {"sample_rate": 65536.0, "duration": 1.0, "seed": 11},
    "snr": {
        "input_total_db": 8.0,
        "input_noise_db": 0.0,
        "output_total_db": 17.6,
        "output_noise_db": 9.5,
    },
}


DELETE = object()


def edited(block, key, value):
    """A copy of BASE_CONFIG with block[key] set to value, or removed if
    value is DELETE."""
    config = copy.deepcopy(BASE_CONFIG)
    if value is DELETE:
        del config[block][key]
    else:
        config[block][key] = value
    return config


def without(block):
    """A copy of BASE_CONFIG with no `block`."""
    return {name: value for name, value in BASE_CONFIG.items() if name != block}


MISSING = object()  # a config path with no file
EVERY = tuple(name for name, _, _ in cli._COMMANDS)  # every subcommand
POINTS_RULE = f"points must be an integer from 8 to {MAX_SWEEP_POINTS}, got"

# The one table of refused runs: (case id, config or its JSON text, flags, the
# subcommands that refuse it, the one line each writes to stderr).  Every
# subcommand loads the config and main folds the flags named after config
# fields before any subcommand runs, so a refusal there is made by every
# subcommand, EVERY.
REFUSALS = [
    # the network block
    ("epsilon-bool", edited("network", "epsilon", True), [], EVERY,
     "error: network.epsilon must be a number, got True"),
    ("epsilon-string", edited("network", "epsilon", "0.2"), [], EVERY,
     "error: network.epsilon must be a number, got '0.2'"),
    ("epsilon-missing", edited("network", "epsilon", DELETE), [], EVERY,
     "error: missing keys in 'network' block: ['epsilon']"),
    ("epsilon-overflows-float", edited("network", "epsilon", 10**400), [], EVERY,
     "error: network.epsilon is too large for a float"),
    ("epsilon-out-of-range", edited("network", "epsilon", 2.0), [], EVERY,
     "error: network.epsilon must be in (0, 1], got 2.0"),
    ("epsilan", edited("network", "epsilan", 0.2), [], EVERY,
     "error: unknown keys in 'network' block: ['epsilan']"),
    ("gain-pair-bool", edited("network", "gain", [1, True]), [], EVERY,
     "error: network.gain[1] must be a number, got True"),
    # the phase variance's mode sum overflows; the formulas would run on inf
    ("gain-overflows", edited("network", "gain", 1e200), [], EVERY,
     "error: network.gain (1e+200+0j) is too large: the output phase variance overflows a float"),
    # ... at the configured v_phase_in, 10^0.86: the mode sum at 1 is finite
    ("gain-overflows-at-v-phase-in", edited("network", "gain", 1e154), [], EVERY,
     "error: network.gain (1e+154+0j) is too large: the output phase variance overflows a float"),
    ("top-level-not-object", [BASE_CONFIG["network"]], [], EVERY,
     "error: config block 'top-level' must be a JSON object"),
    ("network-not-object", {"network": 0.2}, [], EVERY,
     "error: config block 'network' must be a JSON object"),
    ("config-missing", MISSING, [], EVERY,
     "error: [Errno 2] No such file or directory: 'config-missing.json'"),
    # the sweep block
    ("detected-int", edited("sweep", "detected", 1), [], EVERY,
     "error: sweep.detected must be true or false, got 1"),
    ("formula-list", edited("sweep", "formula", ["paper"]), [], EVERY,
     "error: sweep.formula must be one of ['coefficient', 'paper'], got ['paper']"),
    *((f"points-{name}", edited("sweep", "points", value), [], EVERY,
       f"error: sweep.{POINTS_RULE} {value!r}")
      for name, value in [("7", 7), ("above-cap", MAX_SWEEP_POINTS + 1), ("bool", True),
                          ("float", 361.0), ("string", "361")]),
    # the simulation block, checked by SimConfig, whose errors name the block once
    ("seed-bool", edited("simulation", "seed", True), [], EVERY,
     "error: simulation.seed must be an integer in [0, 2^64), got True"),
    ("duration-zero", edited("simulation", "duration", 0.0), [], EVERY,
     "error: simulation.duration must be > 0, got 0.0"),
    ("sample-rate-string", edited("simulation", "sample_rate", "1e5"), [], EVERY,
     "error: simulation.sample_rate must be a number, got '1e5'"),
    # montecarlo runs the flat kernel only, so the config format has no kernel:
    # a kernel block is refused by its key, valid or not, before its contents
    *((name, edited("simulation", "kernel", kernel), [], EVERY,
       "error: unknown keys in 'simulation' block: ['kernel']")
      for name, kernel in [
          ("kernel-flat", {"type": "flat"}),
          ("kernel-bandpass", {
              "type": "bandpass", "center_hz": 1000.0, "bandwidth_hz": 100.0, "gain": 3.2}),
          ("kernel-above-nyquist", {
              "type": "bandpass", "center_hz": 1e5, "bandwidth_hz": 10.0, "gain": 1.0}),
          ("flat-kernel-extra-keys", {"type": "flat", "center_hz": 100.0}),
          ("bandpass-kernel-missing-keys", {
              "type": "bandpass", "bandwidth_hz": 10.0, "gain": 1.0}),
          ("kernel-type-unknown", {"type": "lowpass"})]),
    # the analysis plan, 64 segments of at least 1,024 samples, cannot cut these
    *((f"run-{n}", edited("simulation", "duration", n / 65536.0), [], EVERY,
       f"error: simulation: run too short: {n} samples, need at least 65536 (64 segments of 1024)")
      for n in (2**14, 2**16 - 1)),
    # the run-size cap, 2^27 samples, refuses these: 1e12 s at 65,536 Hz,
    # and 1e305 s, whose sample count overflows a float
    *((f"run-{name}", edited("simulation", "duration", duration), [], EVERY,
       f"error: simulation: run too long: {samples} samples, need at most 134217728")
      for name, duration, samples in [("1e12", 1e12, "6.5536e+16"), ("overflows", 1e305, "inf")]),
    # a tone with no frequency would be sin(0) = 0: no tone at all
    ("tone-without-frequency", edited("simulation", "signal_amplitude", 0.5), [], EVERY,
     "error: simulation: signal_frequency must be > 0, got 0.0"),
    # the snr block: a level whose linear power 10^(dB/10) overflows a float,
    # in whichever of its four fields it stands
    ("snr-key-missing", edited("snr", "input_total_db", DELETE), [], EVERY,
     "error: missing keys in 'snr' block: ['input_total_db']"),
    ("snr-level-overflows-float", edited("snr", "input_total_db", 10**400), [], EVERY,
     "error: snr.input_total_db is too large for a float"),
    *((f"snr-{key}-overflows", edited("snr", key, 4000.0), [], EVERY,
       f"error: snr.{key} is too large: 4000.0 dB overflows a float as a linear power")
      for key in BASE_CONFIG["snr"]),
    # flags, folded by main into their blocks or read by their subcommand
    *((f"points-flag-{name}", BASE_CONFIG, ["--points", str(points)], ["sweep"],
       f"error: --{POINTS_RULE} {points}")
      for name, points in [("7", 7), ("0", 0), ("10^12", 10**12)]),
    *((f"seed-flag-{name}", BASE_CONFIG, ["--seed", str(seed)], ["montecarlo"],
       f"error: --seed must be an integer in [0, 2^64), got {seed}")
      for name, seed in [("negative", -1), ("2^64", 2**64)]),
    *((f"phi-{phi}", BASE_CONFIG, ["--phi", phi], ["spectrum"],
       f"error: --phi must be finite, got {phi}") for phi in ("nan", "inf")),
    # a block the subcommand needs, absent; a flag on it is left to the subcommand
    ("snr-block-missing", without("snr"), [], ["snr"], "error: config has no 'snr' block"),
    *((f"simulation-block-missing{suffix}", without("simulation"), flags, ["montecarlo"],
       "error: config has no 'simulation' block")
      for suffix, flags in [("", []), ("-seed-flag", ["--seed", "3"])]),
    # values that load but overflow a float in the closed form: a tap of
    # 1e-300 at gain 1e5 makes |1 + K g|^2 overflow; montecarlo's mode sum is finite
    ("closed-form-overflows",
     {**BASE_CONFIG, "network": {**BASE_CONFIG["network"], "epsilon": 1e-300, "gain": 1e5}},
     [], ["spectrum", "sweep"],
     "error: gain (100000+0j) and epsilon 1e-300 overflow a float in the closed-form spectrum"),
    # v_phase_in^2 overflows in the closed form's prefactor; the mode sum is finite
    ("closed-form-v-phase-in-overflows", edited("network", "v_phase_in", 1e200), [],
     ["spectrum", "sweep"],
     "error: v_phase_in 1e+200 overflows a float in the closed-form spectrum"),
    # only montecarlo runs the time domain, which needs a real gain
    ("complex-gain", edited("network", "gain", [3.2, 0.5]), [], ["montecarlo"],
     "error: flat kernel needs a real gain"),
    # a key given twice, in JSON text a dict cannot hold: json would keep the last
    ("gain-repeated", json.dumps(BASE_CONFIG).replace('"gain": 3.2', '"gain": 3.2, "gain": 1.0'),
     [], EVERY, "error: repeated keys in a config block: ['gain']"),
]

# main on each argv of runs.json, in this one interpreter, until a run loads
# numpy: for each, the exit code, stdout, stderr, whether its --out file (the
# last argument) exists and whether numpy is loaded after it
REFUSAL_RUNNER = """
import contextlib, io, json, os, sys
from phaseff.cli import main
with open("runs.json") as handle:
    runs = json.load(handle)
results = []
for argv in runs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    numpy = "numpy" in sys.modules
    results.append([code, out.getvalue(), err.getvalue(), os.path.exists(argv[-1]), numpy])
    if numpy:
        break
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def refused_runs(tmp_path_factory):
    """Every (row, subcommand) case of REFUSALS run with an --out file each:
    its REFUSAL_RUNNER result by case id.  The cases run in one fresh
    interpreter, and after a case that loads numpy the rest run in another,
    so each case starts without numpy.  fit's trace need not exist: the
    config loads first."""
    workdir = tmp_path_factory.mktemp("refusals")
    runs = {}
    for name, config, flags, commands, _ in REFUSALS:
        if config is not MISSING:
            text = config if isinstance(config, str) else json.dumps(config)
            (workdir / f"{name}.json").write_text(text)
        for command in commands:
            head = [command, "none.csv"] if command == "fit" else [command]
            out = f"{name}-{command}.out"
            runs[f"{name}-{command}"] = [*head, "--config", f"{name}.json", *flags, "--out", out]
    argvs, results = list(runs.values()), []
    while len(results) < len(argvs):
        (workdir / "runs.json").write_text(json.dumps(argvs[len(results):]))
        results += json.loads(run_python(["-c", REFUSAL_RUNNER], workdir))
    return dict(zip(runs, results))


@pytest.mark.parametrize(
    "name, command, line",
    [(row[0], command, row[4]) for row in REFUSALS for command in row[3]],
    ids=[f"{row[0]}-{command}" for row in REFUSALS for command in row[3]],
)
def test_refused_run(refused_runs, name, command, line):
    # exit 1, nothing on stdout, the row's one stderr line, no --out file,
    # and no numpy
    code, out, err, written, numpy = refused_runs[f"{name}-{command}"]
    assert (code, out, err, written) == (1, "", line + "\n", False)
    assert not numpy, "numpy loaded by this run"


# (case id, config sweep block, flags, formula and detected the run must use)
FLAG_PRECEDENCE = [
    ("formula-flag", {"formula": "paper", "detected": True}, ["--formula", "coefficient"],
     "coefficient", True),
    ("formula-config", {"formula": "coefficient", "detected": True}, [], "coefficient", True),
    ("detected-flag", {"formula": "paper", "detected": False}, ["--detected"], "paper", True),
    ("detected-config", {"formula": "paper", "detected": True}, [], "paper", True),
    ("detected-off", {"formula": "paper", "detected": False}, [], "paper", False),
]


@pytest.mark.parametrize("command", ["spectrum", "sweep", "fit"])
@pytest.mark.parametrize(
    "sweep, flags, formula, detected",
    [case[1:] for case in FLAG_PRECEDENCE],
    ids=[case[0] for case in FLAG_PRECEDENCE],
)
def test_flags_override_sweep_block(tmp_path, capsys, command, sweep, flags, formula, detected):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**BASE_CONFIG, "sweep": sweep}))
    argv = [command, "--config", str(config), "--format", "json", *flags]
    if command == "fit":
        # a trace made with the settings the fit must read it with
        trace = tmp_path / "trace.csv"
        emit(run_sweep(BENCH, n_points=181, formula=formula, detected=detected), str(trace), "csv")
        argv.insert(1, str(trace))
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["detected"] is detected
    if command == "sweep":
        want = run_sweep(BENCH, n_points=361, formula=formula, detected=detected)
        other = run_sweep(
            BENCH,
            n_points=361,
            formula="paper" if formula == "coefficient" else "coefficient",
            detected=detected,
        )
        assert np.allclose(data["variance_linear"], want.variance_linear, rtol=1e-10)
        assert not np.allclose(data["variance_linear"], other.variance_linear, rtol=1e-3)
    else:
        assert data["formula"] == formula
    if command == "fit":
        assert abs(data["k_fit"] - 3.2) < 1e-4


@pytest.mark.parametrize(
    "points, flags, rows",
    [(97, [], 97), (97, ["--points", "9"], 9), (8, ["--points", "361"], 361)],
)
def test_points_flag_overrides_sweep_block(tmp_path, capsys, points, flags, rows):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(edited("sweep", "points", points)))
    assert main(["sweep", "--config", str(config), *flags]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


class TestSweepTrace:
    def test_rejects_unordered_phase(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            SweepTrace(
                phase=np.array([0.0, 2.0, 1.0]),
                variance_linear=np.ones(3),
                variance_db=np.zeros(3),
            )

    def test_rejects_phase_outside_circle(self):
        with pytest.raises(ValueError, match="2\\*pi"):
            SweepTrace(
                phase=np.array([0.0, 7.0]),
                variance_linear=np.ones(2),
                variance_db=np.zeros(2),
            )

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="> 0"):
            SweepTrace(
                phase=np.array([0.0, 1.0]),
                variance_linear=np.array([1.0, 0.0]),
                variance_db=np.zeros(2),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SweepTrace(
                phase=np.array([0.0, 1.0]),
                variance_linear=np.ones(3),
                variance_db=np.zeros(3),
            )

    def test_arrays_are_read_only(self):
        trace = run_sweep(BENCH, n_points=16)
        with pytest.raises(ValueError):
            trace.phase[0] = 1.0

    def test_caller_array_copied_not_frozen(self):
        phase = np.linspace(0.0, 1.0, 4)
        trace = SweepTrace(phase=phase, variance_linear=np.ones(4), variance_db=np.zeros(4))
        assert phase.flags.writeable and not trace.phase.flags.writeable
        phase[0] = 0.5
        assert trace.phase[0] == 0.0


class TestRunSweep:
    def test_grid_and_db_consistency(self):
        trace = run_sweep(BENCH, n_points=361)
        assert len(trace) == 361
        assert trace.phase[0] == 0.0
        assert trace.phase[-1] == 2.0 * math.pi
        want_db = np.array([db_from_linear(v) for v in trace.variance_linear])
        assert np.array_equal(trace.variance_db, want_db)

    def test_maxima_at_phase_quadratures(self):
        trace = run_sweep(BENCH, n_points=361)
        v = trace.variance_linear
        top_two = set(np.argsort(v)[-2:])
        assert top_two == {90, 270}  # pi/2 and 3*pi/2 on the 361-point grid

    def test_amplitude_quadrature_stays_at_qnl(self):
        trace = run_sweep(BENCH, n_points=361)
        assert math.isclose(trace.variance_linear[0], 1.0, rel_tol=1e-12)
        assert math.isclose(trace.variance_linear[180], 1.0, rel_tol=1e-12)
        assert abs(trace.variance_db[0]) < 1e-11

    def test_flat_when_passive(self):
        p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=0.0)
        trace = run_sweep(p, n_points=45)
        assert np.allclose(trace.variance_linear, 1.0, rtol=1e-12)

    def test_detected_folds_in_verification_stage(self):
        raw = run_sweep(BENCH, n_points=91)
        det = run_sweep(BENCH, n_points=91, detected=True)
        assert det.detected
        assert np.allclose(
            det.variance_linear,
            detected_variance(raw.variance_linear, BENCH.eta_det2),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("formula", ["paper", "coefficient"])
    def test_symmetry_around_pi(self, formula):
        trace = run_sweep(BENCH, n_points=361, formula=formula)
        v = trace.variance_linear
        assert np.allclose(v, v[::-1], rtol=1e-12)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            run_sweep(BENCH, n_points=7)

    def test_points_capped(self, monkeypatch):
        monkeypatch.setattr("phaseff.cli.MAX_SWEEP_POINTS", 100)
        assert len(run_sweep(BENCH, n_points=100)) == 100
        with pytest.raises(ValueError, match="from 8 to 100,"):
            run_sweep(BENCH, n_points=101)

    def test_rejects_unknown_formula(self):
        with pytest.raises(ValueError, match="^formula must be one of"):
            run_sweep(BENCH, formula="exact")

    @pytest.mark.parametrize("formula", ["paper", "coefficient"])
    @pytest.mark.parametrize("detected", [False, True])
    def test_cli_sweep_is_run_sweep_bit_for_bit(self, formula, detected):
        # the sweep subcommand evaluates up to _SCALAR_SWEEP_MAX angles one by
        # one on Python floats: each column must carry run_sweep's bits, and
        # both must carry those of the public formula on the same grid, since
        # the two paths share cli._level
        spectrum = {"paper": spectrum_closed_form, "coefficient": spectrum_from_modes}[formula]
        for p in (BENCH, BENCH.with_gain(2.5 - 1.25j), BENCH.with_gain(-1.5)):
            for n in (8, 97, 361, cli._SCALAR_SWEEP_MAX):
                got = cli._sweep_columns(p, SweepSettings(n, formula, detected))
                want = run_sweep(p, n, formula, detected)
                assert got.detected is want.detected
                for name in ("phase", "variance_linear", "variance_db"):
                    column = np.array(getattr(got, name))
                    assert column.tobytes() == getattr(want, name).tobytes(), (p, n, name)
                reference = spectrum(p, np.linspace(0.0, 2.0 * math.pi, n))
                if detected:
                    reference = detected_variance(reference, p.eta_det2)
                assert want.variance_linear.tobytes() == reference.tobytes(), (p, n)


class TestFitGain:
    @pytest.mark.parametrize("k0", [0.5, 1.0, 2.0, 3.2])
    def test_noiseless_recovery(self, k0):
        trace = run_sweep(BENCH.with_gain(k0), n_points=181)
        result = fit_gain(trace, BENCH)
        assert abs(result.k_fit - k0) <= 1e-5
        assert result.residual_rms < 1e-9
        assert result.iterations > 0

    def test_noiseless_recovery_detected_and_mode_summed(self):
        trace = run_sweep(BENCH, n_points=181, formula="coefficient", detected=True)
        result = fit_gain(trace, BENCH.with_gain(0.0), formula="coefficient")
        assert abs(result.k_fit - 3.2) <= 1e-5

    def test_recovery_with_multiplicative_noise(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        clean = run_sweep(BENCH.with_gain(2.0), n_points=181)
        noisy_linear = clean.variance_linear * (1.0 + 0.01 * rng.standard_normal(181))
        noisy = SweepTrace(
            phase=clean.phase,
            variance_linear=noisy_linear,
            variance_db=np.array([db_from_linear(v) for v in noisy_linear]),
        )
        result = fit_gain(noisy, BENCH)
        assert abs(result.k_fit - 2.0) / 2.0 <= 0.02

    def test_rejects_gain_beyond_bracket(self, monkeypatch):
        # the objective still falls at the grid's end, so k_max is a bound
        # and not a fit; a wider bracket recovers the gain
        trace = run_sweep(BENCH.with_gain(12.0), n_points=181)
        with pytest.raises(ValueError, match="k_max=10"):
            fit_gain(trace, BENCH)
        monkeypatch.setattr("phaseff.cli.FIT_K_MAX", 20.0)
        assert fit_gain(trace, BENCH).k_fit == pytest.approx(12.0, abs=1e-5)

    def test_rejects_degenerate_trace(self):
        p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=0.0)
        flat = run_sweep(p, n_points=45)
        with pytest.raises(ValueError, match="degenerate"):
            fit_gain(flat, p)

    def test_rejects_short_span(self):
        full = run_sweep(BENCH, n_points=361)
        narrow = SweepTrace(
            phase=full.phase[:45],
            variance_linear=full.variance_linear[:45],
            variance_db=full.variance_db[:45],
        )
        with pytest.raises(ValueError, match="half a period"):
            fit_gain(narrow, BENCH)

    def test_rejects_too_few_points(self):
        full = run_sweep(BENCH, n_points=361)
        sparse = SweepTrace(
            phase=full.phase[::90],
            variance_linear=full.variance_linear[::90],
            variance_db=full.variance_db[::90],
        )
        with pytest.raises(ValueError, match="at least 8"):
            fit_gain(sparse, BENCH)


class TestReportSnr:
    def test_benchmark_chain(self):
        report = report_snr(SnrSettings(8.0, 0.0, 17.6, 9.5), BENCH)
        assert math.isclose(report.snr_inferred_in, 6.207123503392488, rel_tol=1e-10)
        assert math.isclose(report.snr_inferred_out, 5.581287456237841, rel_tol=1e-10)
        assert math.isclose(report.t_s, 0.899174545695346, rel_tol=1e-10)
        assert math.isclose(
            report.t_s, report.snr_inferred_out / report.snr_inferred_in, rel_tol=1e-12
        )

    def test_lossless_identity(self):
        p = NetworkParams(epsilon=0.5, eta_h1=1.0, eta_d1=1.0, gain=1.0, eta_det2=1.0)
        report = report_snr(SnrSettings(7.3, 1.2, 7.3, 1.2), p)
        assert math.isclose(report.t_s, 1.0, rel_tol=1e-12)
        assert report.snr_detected_in == report.snr_inferred_in

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            report_snr(SnrSettings(5.0, 5.0, 5.0, 5.0), BENCH)

    def test_nonfinite_level_rejected(self):
        with pytest.raises(ValueError):
            SnrSettings(float("nan"), 0.0, 1.0, 0.0)


class TestEmitAndLoad:
    def test_empty_trace_is_header_only(self, tmp_path):
        empty = SweepTrace(
            phase=np.array([]), variance_linear=np.array([]), variance_db=np.array([])
        )
        out = tmp_path / "empty.csv"
        emit(empty, str(out), "csv")
        assert out.read_text() == "phase_rad,variance_linear,variance_db\n"

    def test_three_point_trace_is_four_lines(self, tmp_path):
        trace = run_sweep(BENCH, n_points=8)
        short = SweepTrace(
            phase=trace.phase[:3],
            variance_linear=trace.variance_linear[:3],
            variance_db=trace.variance_db[:3],
        )
        out = tmp_path / "short.csv"
        emit(short, str(out), "csv")
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "phase_rad,variance_linear,variance_db"

    def test_emit_is_deterministic(self, tmp_path):
        trace = run_sweep(BENCH, n_points=65)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(trace, str(a), "csv")
        emit(trace, str(b), "csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        out = tmp_path / "report.json"
        previous = os.umask(umask)
        try:
            emit({"a": 1.0}, str(out), "json")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_text() == '{\n  "a": 1.0\n}\n'

    def test_trace_csv_roundtrip(self, tmp_path):
        trace = run_sweep(BENCH, n_points=91, detected=True)
        out = tmp_path / "trace.csv"
        emit(trace, str(out), "csv")
        back = load_trace_csv(str(out), detected=True)
        assert back.detected
        assert np.allclose(back.phase, trace.phase, rtol=1e-10)
        assert np.allclose(back.variance_linear, trace.variance_linear, rtol=1e-10)

    def test_trace_json_rendering(self, tmp_path):
        trace = run_sweep(BENCH, n_points=9)
        out = tmp_path / "trace.json"
        emit(trace, str(out), "json")
        data = json.loads(out.read_text())
        assert data["detected"] is False
        assert len(data["phase_rad"]) == 9
        assert math.isclose(data["variance_linear"][0], 1.0, rel_tol=1e-10)

    def test_report_json_roundtrip(self, tmp_path):
        report = {"k_fit": 3.2, "residual_rms": 1.2345678901234e-7, "iterations": 31}
        out = tmp_path / "report.json"
        emit(report, str(out), "json")
        back = json.loads(out.read_text())
        assert back["iterations"] == 31
        assert math.isclose(back["k_fit"], 3.2, rel_tol=1e-10)
        assert math.isclose(back["residual_rms"], 1.2345678901234e-7, rel_tol=1e-10)

    def test_report_csv_rendering(self, tmp_path):
        out = tmp_path / "report.csv"
        emit({"t_s": 0.899, "all_pass": True, "n": 3}, str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert lines[1] == "t_s,0.899"
        assert lines[2] == "all_pass,true"
        assert lines[3] == "n,3"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "value",
        [None, 1 + 2j, np.arange(3.0), np.bool_(True), np.int64(-7), np.float32(0.1)],
        ids=["none", "complex", "array", "numpy-bool", "numpy-int64", "numpy-float32"],
    )
    def test_report_formats_refuse_the_same_values(self, tmp_path, value, fmt):
        out = tmp_path / "report"
        with pytest.raises(TypeError, match="cannot serialize"):
            emit({"ok": 1.0, "bad": value}, str(out), fmt)
        assert not out.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit({"a": 1.0}, str(tmp_path / "x.yaml"), "yaml")

    def test_load_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phase,var\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(str(bad))

    def test_load_rejects_non_numeric_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phase_rad,variance_linear,variance_db\n0.0,oops,0.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_trace_csv(str(bad))

    def test_load_rejects_wrong_column_count(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phase_rad,variance_linear,variance_db\n0.0,1.0\n")
        with pytest.raises(ValueError, match="3 columns"):
            load_trace_csv(str(bad))

    # a file as the target's directory fails mkstemp; a directory as the
    # target fails os.replace, after the temp file is made
    @pytest.mark.parametrize(
        "target", ["not-a-dir/out.csv", "a-dir"], ids=["file-as-directory", "directory-as-target"]
    )
    def test_no_file_when_directory_invalid(self, tmp_path, target):
        (tmp_path / "not-a-dir").write_text("")
        (tmp_path / "a-dir").mkdir()
        with pytest.raises(OSError, match="cannot write"):
            emit({"a": 1.0}, str(tmp_path / target), "json")
        # no output and no .phaseff-*.tmp file, in the parent or the directory
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a-dir", "not-a-dir"]
        assert not any((tmp_path / "a-dir").iterdir())


def _nan_cell_trace(path):
    """A sweep trace with a NaN phase in data row 5; returns the error it gets."""
    emit(run_sweep(BENCH, n_points=361), str(path), "csv")
    lines = path.read_text().splitlines()
    lines[6] = "nan," + lines[6].split(",", 1)[1]  # row 6 is data row 5
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:7: phase must be finite, got nan"


def _overflowing_trace(path):
    """A trace at levels of 1e200, whose squared residual overflows a float at
    every grid gain; returns the error it gets, with no warning."""
    phase = np.linspace(0.0, 2.0 * math.pi, 361)
    variance = 1e200 * (2.0 + np.sin(phase) ** 2)
    db = np.array([db_from_linear(v) for v in variance])
    emit(SweepTrace(phase=phase, variance_linear=variance, variance_db=db), str(path), "csv")
    return (
        "the trace's mean squared residual is not finite at any gain on the "
        "[0, 10] grid: there is no fit to report"
    )


class TestCliCommands:
    def test_sweep_writes_csv_file(self, tmp_path, config_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phase_rad,variance_linear,variance_db"
        assert len(lines) == 362

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_past_the_scalar_limit_renders_alike(self, capsys, config_path, fmt):
        # one point more takes run_sweep's arrays: the same text as the lists
        n = cli._SCALAR_SWEEP_MAX + 1
        argv = ["sweep", "--config", config_path, "--points", str(n), "--format", fmt]
        assert main(argv) == 0
        columns = cli._sweep_columns(BENCH, SweepSettings(n, "paper", False))
        assert capsys.readouterr().out == cli._render(columns, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emitted_trace_is_the_sweep_subcommand(self, tmp_path, capsys, config_path, fmt):
        # emit renders a SweepTrace through the same lists as the subcommand
        n = cli._SCALAR_SWEEP_MAX + 1
        out = tmp_path / f"trace.{fmt}"
        emit(run_sweep(BENCH, n), str(out), fmt)
        assert main(["sweep", "--config", config_path, "--points", str(n), "--format", fmt]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_sweep_stdout_json_override(self, capsys, config_path):
        assert main(["sweep", "--config", config_path, "--format", "json", "--points", "9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["phase_rad"]) == 9

    def test_spectrum_detected_benchmark_level(self, capsys, config_path):
        assert main(["spectrum", "--config", config_path, "--detected"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert math.isclose(data["variance_db"], 17.56487354313705, rel_tol=1e-9)
        assert data["detected"] is True

    def test_spectrum_formulas_differ_off_axis(self, capsys, config_path):
        assert main(["spectrum", "--config", config_path, "--phi", "0.7853981633974483"]) == 0
        closed = json.loads(capsys.readouterr().out)["variance_linear"]
        assert (
            main(
                [
                    "spectrum",
                    "--config",
                    config_path,
                    "--phi",
                    "0.7853981633974483",
                    "--formula",
                    "coefficient",
                ]
            )
            == 0
        )
        summed = json.loads(capsys.readouterr().out)["variance_linear"]
        assert abs(summed - closed) > 5.0

    def test_optimize_report(self, capsys, config_path):
        assert main(["optimize", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert math.isclose(data["ideal_gain"], 2.0, rel_tol=1e-9)
        assert math.isclose(data["optimal_gain"], 1.8497567407634985, rel_tol=1e-9)
        assert math.isclose(data["max_transfer_ratio"], 0.88432, rel_tol=1e-9)
        assert math.isclose(data["signal_power_gain"], 9.575125428177278, rel_tol=1e-9)
        g = 9.575125428177278
        assert math.isclose(
            data["pia_transfer_ratio_at_same_gain"], g / (2.0 * g - 1.0), rel_tol=1e-9
        )

    def test_snr_report(self, capsys, config_path):
        assert main(["snr", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert math.isclose(data["t_s"], 0.899174545695346, rel_tol=1e-9)
        assert math.isclose(data["snr_inferred_in"], 6.207123503392488, rel_tol=1e-9)

    def test_montecarlo_report_and_seed_override(self, capsys, config_path):
        assert main(["montecarlo", "--config", config_path, "--seed", "12"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 12
        assert data["all_pass"] is True
        assert data["segment_count"] == 64
        assert math.isclose(data["phi_2"], math.pi / 2.0, rel_tol=1e-9)

    def test_fit_roundtrip_through_files(self, tmp_path, capsys, config_path):
        trace_path = tmp_path / "trace.csv"
        assert (
            main(
                ["sweep", "--config", config_path, "--detected", "--out", str(trace_path)]
            )
            == 0
        )
        assert main(["fit", str(trace_path), "--config", config_path, "--detected"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["k_fit"] - 3.2) < 1e-4
        assert data["detected"] is True
        assert data["n_points"] == 361

    @pytest.mark.parametrize(
        "write_trace", [_nan_cell_trace, _overflowing_trace], ids=["nan-cell", "overflowing"]
    )
    def test_fit_refusal_is_one_short_line(self, tmp_path, capsys, config_path, write_trace):
        trace_path = tmp_path / "trace.csv"
        message = write_trace(trace_path)
        assert main(["fit", str(trace_path), "--config", config_path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "block, fields",
        [("network", {"v_phase_in": 1e152}),
         ("simulation", {"signal_amplitude": 1e120, "signal_frequency": 1000.3})],
        ids=["v-phase-in-1e152", "tone-1e120-at-1000.3"],
    )
    def test_montecarlo_refusal_is_one_short_line(self, tmp_path, capsys, block, fields):
        # the example run's bins are finite, and their standard error overflows
        with open(CONFIG) as handle:
            config = json.load(handle)
        config[block].update(fields)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert main(["montecarlo", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        line = "error: series has non-finite PSD bins: a NaN or inf sample, or overflow\n"
        assert (captured.out, captured.err) == ("", line)

    def test_complex_gain_runs_in_optimize(self, tmp_path, capsys):
        # the analytic formulas take a complex gain; montecarlo refuses it (REFUSALS)
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(edited("network", "gain", [3.2, 0.5])))
        assert main(["optimize", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["configured_gain_imag"] == 0.5

    def test_simulation_runs_the_configured_network(self, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(edited("network", "gain", [3.2, 0.5])))
        config = load_config(str(path))
        assert config.network.gain == complex(3.2, 0.5)
        assert config.simulation.params == config.network

    def test_readme_config_reference_loads(self, tmp_path):
        # the README's reference config, its // comments stripped, is a valid
        # config with every block
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        reference = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "reference.json"
        path.write_text(re.sub(r"//.*", "", reference))
        assert None not in load_config(str(path))._asdict().values()

    def test_out_of_memory_fails_cleanly(self, monkeypatch, capsys, config_path):
        # e.g. `sweep --points 10**12`: numpy raises MemoryError for the grid;
        # a short sweep's Python lists would raise it too
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr("phaseff.cli.run_sweep", exhausted)
        monkeypatch.setattr("phaseff.cli._sweep_columns", exhausted)
        for points in (cli._SCALAR_SWEEP_MAX, cli._SCALAR_SWEEP_MAX + 1):
            argv = ["sweep", "--config", config_path, "--points", str(points)]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: Unable to allocate 7.28 TiB\n"

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_module_entry_point(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"network": BASE_CONFIG["network"]}))
        proc = subprocess.run(
            [sys.executable, "-m", "phaseff", "optimize", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ideal_gain"] == 2.0
