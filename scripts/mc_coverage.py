#!/usr/bin/env python3
"""Check that the Monte Carlo oracle's standard errors are calibrated.

Runs oracle_compare on configs/example.json for seeds 1000-1199 at the
montecarlo subcommand's angles, and prints, per angle, the mean and sd of
the signed z = (mc - analytic) / standard_error and the share of rows beyond
2 and 3 standard errors.  Calibrated errors make z close to unit normal.

The bounds follow from sampling theory for N unit-normal draws per angle,
allowing 4 sampling standard deviations: |mean| <= 4/sqrt(N),
|sd - 1| <= 4/sqrt(2(N - 1)), and each tail share at most its normal
probability p plus 4 sqrt(p(1 - p)/N).  They were fixed before the first
run.  Exits 1 if any angle falls outside them.  Takes about half a minute.
"""

import math
from pathlib import Path

import numpy as np

from phaseff import load_config, oracle_compare
from phaseff.cli import MC_ANGLES

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"
SEEDS = range(1000, 1200)
ALLOWANCE = 4.0  # sampling standard deviations


def tail_bound(sigmas: float, n: int) -> float:
    """Largest acceptable share of n unit-normal draws beyond +-sigmas."""
    p = math.erfc(sigmas / math.sqrt(2.0))
    return p + ALLOWANCE * math.sqrt(p * (1.0 - p) / n)


def main() -> int:
    config = load_config(str(CONFIG))
    z = np.empty((len(SEEDS), len(MC_ANGLES)))
    for i, seed in enumerate(SEEDS):
        sim = config.simulation._replace(seed=seed)
        for j, row in enumerate(oracle_compare(sim, MC_ANGLES).rows):
            z[i, j] = (row.mc_variance - row.analytic_variance) / row.standard_error

    n = len(SEEDS)
    mean_bound = ALLOWANCE / math.sqrt(n)
    sd_bound = ALLOWANCE / math.sqrt(2.0 * (n - 1))
    beyond2_bound, beyond3_bound = tail_bound(2.0, n), tail_bound(3.0, n)
    print(f"{n} seeds per angle; bounds: |mean| <= {mean_bound:.3f}, "
          f"|sd - 1| <= {sd_bound:.3f}, >2sd <= {beyond2_bound:.3f}, "
          f">3sd <= {beyond3_bound:.4f}")
    print(f"{'phi/pi':>7} {'mean z':>8} {'sd z':>7} {'>2sd':>7} {'>3sd':>7}  verdict")
    failures = 0
    for j, phi in enumerate(MC_ANGLES):
        column = z[:, j]
        mean, sd = float(column.mean()), float(column.std(ddof=1))
        beyond2 = float(np.mean(np.abs(column) > 2.0))
        beyond3 = float(np.mean(np.abs(column) > 3.0))
        ok = (
            abs(mean) <= mean_bound
            and abs(sd - 1.0) <= sd_bound
            and beyond2 <= beyond2_bound
            and beyond3 <= beyond3_bound
        )
        failures += 0 if ok else 1
        print(f"{phi / math.pi:7.3f} {mean:+8.3f} {sd:7.3f} {beyond2:7.3f} {beyond3:7.3f}  "
              f"{'ok' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} angle(s) outside the calibration bounds")
        return 1
    print("standard errors calibrated at every angle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
