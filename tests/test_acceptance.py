"""End-to-end acceptance gates.

One test per criterion; each prints a single PASS/FAIL line (shown with
`pytest -s`, or on failure) and enforces the same condition with asserts.
Every tolerance is pinned explicitly in this module.
"""

import math
import time
from dataclasses import replace

import numpy as np

from phaseff import (
    NetworkParams,
    SimConfig,
    SnrSettings,
    SweepTrace,
    db_from_linear,
    detected_variance,
    fit_gain,
    ideal_gain,
    max_transfer_ratio,
    optimal_gain,
    oracle_compare,
    phase_variance,
    pia_transfer_ratio,
    report_snr,
    run_sweep,
    signal_power_gain,
    spectrum_closed_form,
    spectrum_from_modes,
    transfer_ratio,
)

V_IN = 10.0**0.86  # inferred input phase variance, 8.6 dB
BENCH = NetworkParams(
    epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2, v_phase_in=V_IN, eta_det2=0.8008
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_ideal_amplification_scaling():
    """Lossless loop at the cancellation gain amplifies phase noise by 1/eps."""
    worst = 0.0
    for eps in (0.1, 0.2, 0.5):
        for v in (1.0, 3.5, V_IN):
            p = NetworkParams(
                epsilon=eps, eta_h1=1.0, eta_d1=1.0, gain=ideal_gain(eps), v_phase_in=v
            )
            got = phase_variance(p)
            want = v / eps
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-12
    _report("criterion 1 ideal amplification", ok, f"max rel err {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_2_optimal_gain_grid_and_brute_force():
    """Closed-form optimum equals the direct ratio and survives a K-scan."""
    grid = [round(0.1 + 0.2 * i, 1) for i in range(5)]
    etas = [round(0.6 + 0.1 * i, 1) for i in range(5)]
    step = 1e-4
    worst_eq = 0.0
    worst_k_off = 0.0
    worst_max_off = 0.0
    spot_checked = False
    for eps in grid:
        for eta_h in etas:
            for eta_d in etas:
                k_opt = optimal_gain(eps, eta_h, eta_d)
                p = NetworkParams(epsilon=eps, eta_h1=eta_h, eta_d1=eta_d, gain=k_opt)
                closed = max_transfer_ratio(eps, eta_h, eta_d)
                worst_eq = max(worst_eq, abs(transfer_ratio(p) - closed))

                ks = np.arange(0.0, 3.0 * k_opt + step, step)
                h = eta_h * eta_d
                sig = np.sqrt(eps) + ks * math.sqrt(h * (1.0 - eps))
                gain_power = sig * sig
                noise = (
                    gain_power
                    + (ks * math.sqrt(h * eps) - math.sqrt(1.0 - eps)) ** 2
                    + ks * ks * (1.0 - h)
                )
                ts = gain_power / noise
                top = int(np.argmax(ts))
                worst_k_off = max(worst_k_off, abs(float(ks[top]) - k_opt))
                worst_max_off = max(worst_max_off, abs(float(ts[top]) - closed))
                if not spot_checked:
                    # tie the vectorized scan back to the scalar routine
                    for probe in (top, top // 2, 1):
                        assert math.isclose(
                            float(ts[probe]),
                            transfer_ratio(p.with_gain(float(ks[probe]))),
                            rel_tol=1e-12,
                        )
                    spot_checked = True
    ok = worst_eq <= 1e-12 and worst_k_off <= step + 1e-12 and worst_max_off <= 1e-6
    _report(
        "criterion 2 optimal transfer",
        ok,
        f"grid |T-closed| {worst_eq:.2e} (tol 1e-12), scan argmax off {worst_k_off:.2e} "
        f"(tol {step}), scan max off {worst_max_off:.2e} (tol 1e-6)",
    )
    assert ok


def test_criterion_3_transfer_bound_regression():
    value = max_transfer_ratio(0.2, 0.94, 0.91)
    ok = abs(value - 0.8843) <= 5e-5 and abs(value - 0.88) <= 5e-3
    _report(
        "criterion 3 T_s bound",
        ok,
        f"max_transfer_ratio = {value:.6f} (0.8843 ± 5e-5, 0.88 ± 0.005)",
    )
    assert ok


def test_criterion_4_pia_reference():
    at_ten = pia_transfer_ratio(10.0)
    at_huge = pia_transfer_ratio(1e6)
    ok = (
        abs(at_ten - 0.5263) <= 5e-5
        and abs(at_ten - 0.53) <= 5e-3
        and abs(at_huge - 0.5) <= 1e-6
    )
    _report(
        "criterion 4 phase-insensitive benchmark",
        ok,
        f"T(10) = {at_ten:.6f} (0.5263 ± 5e-5), T(1e6) = {at_huge:.8f} (0.5 ± 1e-6)",
    )
    assert ok


def test_criterion_5_snr_inference_chain():
    report = report_snr(SnrSettings(8.0, 0.0, 17.6, 9.5), BENCH)
    ok = (
        abs(report.snr_inferred_in - 6.21) <= 5e-3
        and abs(report.snr_inferred_out - 5.58) <= 5e-3
        and abs(report.t_s - 0.899) <= 5e-4
        and abs(report.snr_inferred_in - 6.2) <= 0.7
        and abs(report.snr_inferred_out - 5.6) <= 0.6
        and abs(report.t_s - 0.90) <= 0.14
    )
    _report(
        "criterion 5 SNR inference chain",
        ok,
        f"inferred in {report.snr_inferred_in:.4f} (6.21 ± 0.005), "
        f"out {report.snr_inferred_out:.4f} (5.58 ± 0.005), "
        f"t_s {report.t_s:.5f} (0.899 ± 5e-4)",
    )
    assert ok


def test_criterion_6_forward_model_regression():
    signal_db = db_from_linear(
        detected_variance(spectrum_from_modes(BENCH, math.pi / 2.0), BENCH.eta_det2)
    )
    floor_db = db_from_linear(
        detected_variance(phase_variance(replace(BENCH, v_phase_in=1.0)), BENCH.eta_det2)
    )
    gain_power = signal_power_gain(BENCH)
    gain_db = db_from_linear(gain_power)
    ok = (
        abs(signal_db - 17.56) <= 1e-2
        and abs(floor_db - 9.64) <= 5e-3
        and abs(gain_power - 9.575) <= 5e-4
        and abs(gain_db - 9.81) <= 5e-3
        and abs(gain_db - 10.0) < 0.5
    )
    _report(
        "criterion 6 forward model",
        ok,
        f"detected signal {signal_db:.4f} dB (17.56 ± 0.01), "
        f"floor {floor_db:.4f} dB (9.64 ± 0.005), "
        f"gain {gain_power:.4f} = {gain_db:.4f} dB (9.575 / 9.81, within 0.5 of 10)",
    )
    assert ok


def test_criterion_7_monte_carlo_oracle():
    """Three operating points, three angles each, 64 x 4096 samples."""
    start = time.monotonic()
    setups = [
        (
            "cancellation",
            NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=2.0),
            101,
        ),
        (
            "benchmark floor",
            NetworkParams(epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2),
            202,
        ),
        (
            "lossy with excess phase noise",
            NetworkParams(epsilon=0.3, eta_h1=0.9, eta_d1=0.85, gain=0.7, v_phase_in=2.5),
            303,
        ),
    ]
    angles = (0.0, math.pi / 4.0, math.pi / 2.0)
    ok = True
    details = []
    for label, params, seed in setups:
        cfg = SimConfig(params=params, sample_rate=262144.0, duration=1.0, seed=seed)
        result = oracle_compare(cfg, angles)
        assert result.samples_per_run == 64 * 4096
        ok = ok and result.all_pass
        worst = max(row.n_sigma for row in result.rows)
        details.append(f"{label} worst {worst:.2f} sigma")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(
        "criterion 7 Monte Carlo oracle",
        ok,
        f"{'; '.join(details)} (tol 3 sigma); elapsed {elapsed:.1f}s (< 60s)",
    )
    assert ok


def test_criterion_8_fit_recovery():
    clean = run_sweep(BENCH, n_points=361, detected=True)
    exact = fit_gain(clean, BENCH)
    clean_ok = abs(exact.k_fit - 3.2) <= 1e-5

    worst_rel = 0.0
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        noisy_linear = clean.variance_linear * (
            1.0 + 0.01 * rng.standard_normal(clean.variance_linear.size)
        )
        noisy = SweepTrace(
            phase=clean.phase,
            variance_linear=noisy_linear,
            variance_db=np.array([db_from_linear(v) for v in noisy_linear]),
            detected=True,
        )
        result = fit_gain(noisy, BENCH)
        worst_rel = max(worst_rel, abs(result.k_fit - 3.2) / 3.2)
    noisy_ok = worst_rel <= 0.02
    ok = clean_ok and noisy_ok
    _report(
        "criterion 8 fit recovery",
        ok,
        f"noiseless k {exact.k_fit:.8f} (3.2 ± 1e-5); "
        f"20 noisy seeds worst rel err {worst_rel:.4%} (tol 2%)",
    )
    assert ok


def test_criterion_9_formula_discrepancy_report():
    axes = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
    axis_worst = 0.0
    for phi in axes:
        a = spectrum_from_modes(BENCH, phi)
        b = spectrum_closed_form(BENCH, phi)
        axis_worst = max(axis_worst, abs(a - b) / max(abs(a), 1.0))
    axes_ok = axis_worst <= 1e-12

    unit = replace(BENCH, v_phase_in=1.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    a_grid = spectrum_from_modes(unit, grid)
    b_grid = spectrum_closed_form(unit, grid)
    unit_ok = bool(np.allclose(a_grid, b_grid, rtol=1e-12, atol=1e-12))

    print("formula comparison at excess input phase variance "
          f"(v_phase_in = {BENCH.v_phase_in:.4f}):")
    print(f"{'phi/pi':>8} {'mode sum':>14} {'closed form':>14} {'difference':>14}")
    table_angles = [i * math.pi / 8.0 for i in range(9)]
    diff_at_quarter = 0.0
    for phi in table_angles:
        a = spectrum_from_modes(BENCH, phi)
        b = spectrum_closed_form(BENCH, phi)
        print(f"{phi / math.pi:8.3f} {a:14.6f} {b:14.6f} {a - b:14.6f}")
        if math.isclose(phi, math.pi / 4.0):
            diff_at_quarter = abs(a - b)
    diverges = diff_at_quarter > 1.0

    ok = axes_ok and unit_ok and diverges
    _report(
        "criterion 9 formula discrepancy",
        ok,
        f"axes agree to {axis_worst:.2e} (tol 1e-12); unit-variance grid agree: {unit_ok}; "
        f"intermediate-angle gap {diff_at_quarter:.3f} documented above",
    )
    assert ok
