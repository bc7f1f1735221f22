#!/usr/bin/env python3
"""Cross-check Monte Carlo spectra against the analytic model.

Runs the stochastic oracle at several operating points and analysis angles
and prints the band-averaged PSD next to the analytic prediction with the
deviation in combined standard errors.
"""

import math

from phaseff import NetworkParams, SimConfig, oracle_compare
from phaseff.cli import MC_ANGLES

SAMPLE_RATE = 262144.0
DURATION = 1.0  # 64 segments of 4096 samples

SETUPS = [
    ("cancellation gain, lossless", NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=2.0), 101),
    ("measured loop efficiencies", NetworkParams(epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2), 202),
    ("lossy, excess phase noise", NetworkParams(epsilon=0.3, eta_h1=0.9, eta_d1=0.85, gain=0.7, v_phase_in=2.5), 303),
]


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
    if failures:
        print(f"{failures} angle(s) outside 3 standard errors")
        return 1
    print("all angles within 3 standard errors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
