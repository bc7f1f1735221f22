"""Tests for sweeps, gain fitting, SNR reports, file formats, and the CLI."""

import copy
import json
import math
import os
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


# a tap of 1e-300 at gain 1e5: the closed form's |1 + K g|^2 overflows
TINY_TAP = {**BASE_CONFIG, "network": {**BASE_CONFIG["network"], "epsilon": 1e-300, "gain": 1e5}}

# (case id, subcommand, config, text the error message must contain)
MALFORMED_CONFIGS = [
    ("epsilon-bool", "optimize", edited("network", "epsilon", True), "network.epsilon"),
    ("epsilon-string", "optimize", edited("network", "epsilon", "0.2"), "network.epsilon"),
    ("epsilon-missing", "optimize", edited("network", "epsilon", DELETE), "epsilon"),
    ("snr-key-missing", "snr", edited("snr", "input_total_db", DELETE), "input_total_db"),
    ("gain-pair-bool", "optimize", edited("network", "gain", [1, True]), "gain"),
    ("detected-int", "sweep", edited("sweep", "detected", 1), "sweep.detected"),
    ("points-float", "sweep", edited("sweep", "points", 4.0), "sweep.points"),
    ("seed-bool", "montecarlo", edited("simulation", "seed", True), "simulation.seed"),
    (
        "flat-kernel-extra-keys",
        "montecarlo",
        edited("simulation", "kernel", {"type": "flat", "center_hz": 100.0}),
        "kernel",
    ),
    (
        "bandpass-kernel-missing-keys",
        "montecarlo",
        edited("simulation", "kernel", {"type": "bandpass", "bandwidth_hz": 10.0, "gain": 1.0}),
        "center_hz",
    ),
    (
        "kernel-type-unknown",
        "montecarlo",
        edited("simulation", "kernel", {"type": "lowpass"}),
        "lowpass",
    ),
    (
        "snr-level-overflows-float",
        "snr",
        edited("snr", "input_total_db", 10**400),
        "snr.input_total_db",
    ),
    (
        "epsilon-overflows-float",
        "optimize",
        edited("network", "epsilon", 10**400),
        "network.epsilon",
    ),
    ("formula-list", "sweep", edited("sweep", "formula", ["paper"]), "sweep.formula"),
    ("top-level-not-object", "optimize", [BASE_CONFIG["network"]], "top-level"),
    ("network-not-object", "optimize", {"network": 0.2}, "network"),
    ("epsilon-out-of-range", "optimize", edited("network", "epsilon", 2.0), "network.epsilon"),
    # values that load but overflow a float in the formulas
    ("snr-level-overflows-power", "snr", edited("snr", "input_total_db", 4000.0),
     "snr.input_total_db is too large: 4000.0 dB"),
    *(
        (f"closed-form-overflows-{command}", command, TINY_TAP,
         "gain (100000+0j) and epsilon 1e-300 overflow")
        for command in ("spectrum", "sweep")
    ),
]


@pytest.mark.parametrize(
    "command, config, named",
    [case[1:] for case in MALFORMED_CONFIGS],
    ids=[case[0] for case in MALFORMED_CONFIGS],
)
def test_malformed_config_rejected(tmp_path, capsys, command, config, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


# fit's trace need not exist: the config is loaded first
EVERY_SUBCOMMAND = [
    ["optimize"], ["spectrum"], ["sweep"], ["snr"], ["montecarlo"], ["fit", "none.csv"],
]


@pytest.mark.parametrize("command", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("duration", 0.0, "error: simulation.duration must be > 0, got 0.0\n"),
        ("sample_rate", "1e5", "error: simulation.sample_rate must be a number, got '1e5'\n"),
        ("kernel", {"type": "bandpass", "center_hz": 1e5, "bandwidth_hz": 10.0, "gain": 1.0},
         "error: simulation: center_hz 100000.0 Hz is at or above Nyquist (32768.0 Hz)\n"),
        # the analysis plan, 64 segments of at least 1,024 samples, cannot cut these
        *(("duration", n / 65536.0, f"error: simulation: run too short: {n} samples, "
           "need at least 65536 (64 segments of 1024)\n") for n in (2**14, 2**16 - 1)),
        # the run-size cap, 2^27 samples, refuses these: 1e12 s at 65,536 Hz,
        # and 1e305 s, whose sample count overflows a float
        ("duration", 1e12, "error: simulation: run too long: 6.5536e+16 samples, "
         "need at most 134217728\n"),
        ("duration", 1e305, "error: simulation: run too long: inf samples, "
         "need at most 134217728\n"),
        # a tone with no frequency would be sin(0) = 0: no tone at all
        ("signal_amplitude", 0.5, "error: simulation: signal_frequency must be > 0, got 0.0\n"),
    ],
    ids=[
        "duration-zero", "sample-rate-string", "kernel-above-nyquist", "run-16384", "run-65535",
        "run-1e12", "run-overflows", "tone-without-frequency",
    ],
)
def test_simulation_block_checked_by_every_subcommand(tmp_path, capsys, command, key, value, message):
    # the block's values are checked by SimConfig itself, on load, and the
    # error names the block once
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited("simulation", key, value)))
    assert main([*command, "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "value", [7, MAX_SWEEP_POINTS + 1, True, 361.0, "361"],
    ids=["7", "above-cap", "bool", "float", "string"],
)
def test_sweep_block_checked_by_every_subcommand(tmp_path, capsys, command, value):
    # SweepSettings checks the block on load, before any subcommand runs
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited("sweep", "points", value)))
    assert main([*command, "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: sweep.points must be an integer from 8 to {MAX_SWEEP_POINTS}, got {value!r}\n"
    )


@pytest.mark.parametrize("command", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize("key", list(BASE_CONFIG["snr"]))
def test_snr_level_overflow_refused_by_every_subcommand(tmp_path, capsys, command, key):
    # SnrSettings refuses, on load, a level whose linear power 10^(dB/10)
    # overflows a float, in whichever of its four fields it stands
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited("snr", key, 4000.0)))
    assert main([*command, "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: snr.{key} is too large: 4000.0 dB overflows a float as a linear power\n"
    )


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


@pytest.mark.parametrize("flag", ["7", "0"])
def test_points_flag_checked_over_valid_config(tmp_path, capsys, flag):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(edited("sweep", "points", 361)))
    assert main(["sweep", "--config", str(config), "--points", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--points" in captured.err


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

    def test_oversized_points_flag_fails_before_allocating(self, monkeypatch, capsys, config_path):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid must not be allocated")

        monkeypatch.setattr("phaseff.cli.np.linspace", no_grid)
        assert main(["sweep", "--config", config_path, "--points", str(10**12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --points must be an integer from 8 to {MAX_SWEEP_POINTS}, got {10**12}\n"
        )

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

    def test_no_file_when_directory_invalid(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        target = blocker / "out.csv"
        with pytest.raises(OSError, match="cannot write"):
            emit({"a": 1.0}, str(target), "json")
        assert not target.exists()


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

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_spectrum_rejects_non_finite_phi(self, capsys, config_path, phi):
        assert main(["spectrum", "--config", config_path, "--phi", phi]) == 1
        assert capsys.readouterr().err == f"error: --phi must be finite, got {float(phi)!r}\n"

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

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"]], ids=["no-flag", "seed"])
    def test_montecarlo_needs_a_simulation_block(self, tmp_path, capsys, flags):
        path = tmp_path / "no_simulation.json"
        path.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items() if k != "simulation"}))
        assert main(["montecarlo", "--config", str(path), *flags]) == 1
        assert capsys.readouterr() == ("", "error: config has no 'simulation' block\n")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_montecarlo_bad_seed_names_the_flag(self, capsys, config_path, seed):
        assert main(["montecarlo", "--config", config_path, "--seed", str(seed)]) == 1
        assert capsys.readouterr() == (
            "", f"error: --seed must be an integer in [0, 2^64), got {seed}\n"
        )

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

    def test_fit_on_non_finite_cell_fails_in_one_short_line(self, tmp_path, capsys, config_path):
        trace_path = tmp_path / "trace.csv"
        emit(run_sweep(BENCH, n_points=361), str(trace_path), "csv")
        lines = trace_path.read_text().splitlines()
        lines[6] = "nan," + lines[6].split(",", 1)[1]  # row 6 is data row 5
        trace_path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(trace_path), "--config", config_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {trace_path}:7: phase must be finite, got nan\n"

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["optimize", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_config_key_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"network": {**BASE_CONFIG["network"], "epsilan": 0.2}}))
        rc = main(["optimize", "--config", str(path)])
        assert rc == 1
        assert "epsilan" in capsys.readouterr().err

    def test_complex_gain_fails_only_in_montecarlo(self, tmp_path, capsys):
        # only montecarlo runs the time domain, which needs a real gain
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(edited("network", "gain", [3.2, 0.5])))
        assert main(["optimize", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["configured_gain_imag"] == 0.5
        assert main(["montecarlo", "--config", str(path)]) == 1
        assert "real gain" in capsys.readouterr().err

    def test_simulation_runs_the_configured_network(self, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(edited("network", "gain", [3.2, 0.5])))
        config = load_config(str(path))
        assert config.network.gain == complex(3.2, 0.5)
        assert config.simulation.params == config.network

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

    def test_snr_without_block_fails(self, tmp_path, capsys):
        path = tmp_path / "nosnr.json"
        path.write_text(json.dumps({"network": BASE_CONFIG["network"]}))
        rc = main(["snr", "--config", str(path)])
        assert rc == 1
        assert "snr" in capsys.readouterr().err

    def test_failed_run_leaves_no_partial_file(self, tmp_path, capsys, config_path):
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--config", config_path, "--points", "4", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

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
