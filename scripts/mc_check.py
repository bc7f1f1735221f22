#!/usr/bin/env python3
"""Cross-check Monte Carlo spectra against the analytic model.

Runs the stochastic oracle at several operating points and analysis angles
and prints the band-averaged PSD next to the analytic prediction with the
deviation in combined standard errors.  A last row runs a bandpass kernel
through the library's stages, simulate_streams -> at_angle -> estimate_psd ->
band_average, over the bins around the resonator's centre, where its response
is 1, so the flat model at the kernel's gain predicts them.
"""

import math

from phaseff import (
    BandpassKernel,
    NetworkParams,
    PsdEstimate,
    SimConfig,
    band_average,
    estimate_psd,
    oracle_compare,
    simulate_streams,
    spectrum_from_modes,
)
from phaseff.cli import MC_ANGLES
from phaseff.montecarlo import SIGMA_BOUND

SAMPLE_RATE = 262144.0
DURATION = 1.0  # 64 segments of 4096 samples

SETUPS = [
    ("cancellation gain, lossless", NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=2.0), 101),
    ("measured loop efficiencies", NetworkParams(epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2), 202),
    ("lossy, excess phase noise", NetworkParams(epsilon=0.3, eta_h1=0.9, eta_d1=0.85, gain=0.7, v_phase_in=2.5), 303),
]

# Four chunks of a toneless run.  64 segments of 16,384 samples put bin 2,500
# at the 40 kHz centre.  Over the 65 bins within 512 Hz of it the resonator's
# response is 1 within 0.13% in magnitude and 0.05 rad in phase, which lowers
# the model's band mean by 0.009, about a twentieth of the standard error.
BANDPASS = SimConfig(
    params=SETUPS[1][1],
    sample_rate=SAMPLE_RATE,
    duration=4.0,
    kernel=BandpassKernel(center_hz=40000.0, bandwidth_hz=20000.0, gain=3.2),
    seed=404,
)
HALF_BINS = 32


def bandpass_row() -> tuple[float, float, float]:
    """(mc, se, analytic) at the phase quadrature, over the bins around the centre."""
    phase = simulate_streams(BANDPASS).at_angle(math.pi / 2.0)
    est = estimate_psd(phase, BANDPASS.sample_rate)
    centre = round(BANDPASS.kernel.center_hz / est.frequencies[1])
    near = slice(centre - HALF_BINS - 1, centre + HALF_BINS + 2)  # band_average drops both ends
    near_bins = PsdEstimate(est.frequencies[near], est.variance[near], est.standard_error[near])
    mc, se = band_average(near_bins)
    at_kernel_gain = BANDPASS.params.with_gain(BANDPASS.kernel.gain)
    analytic = float(spectrum_from_modes(at_kernel_gain, math.pi / 2.0))
    return mc, se, analytic


def main() -> int:
    print(f"{'setup':<28} {'phi/pi':>7} {'mc':>10} {'analytic':>10} {'sigma':>7}  verdict")
    failures = 0
    for label, params, seed in SETUPS:
        cfg = SimConfig(params=params, sample_rate=SAMPLE_RATE, duration=DURATION, seed=seed)
        report = oracle_compare(cfg, MC_ANGLES)
        for row in report.rows:
            verdict = "ok" if row.within_tolerance else "FAIL"
            failures += 0 if row.within_tolerance else 1
            print(
                f"{label:<28} {row.phi / math.pi:7.3f} {row.mc_variance:10.4f} "
                f"{row.analytic_variance:10.4f} {row.n_sigma:7.2f}  {verdict}"
            )
    mc, se, analytic = bandpass_row()
    sigma = abs(mc - analytic) / se
    failures += 0 if sigma <= SIGMA_BOUND else 1
    print(
        f"{'bandpass, at its centre':<28} {0.5:7.3f} {mc:10.4f} "
        f"{analytic:10.4f} {sigma:7.2f}  {'ok' if sigma <= SIGMA_BOUND else 'FAIL'}"
    )
    if failures:
        print(f"{failures} angle(s) outside 3 standard errors")
        return 1
    print("all angles within 3 standard errors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
