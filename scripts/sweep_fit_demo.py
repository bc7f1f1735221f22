#!/usr/bin/env python3
"""Synthesize a detected phase sweep, corrupt it, and recover the gain.

Generates the theoretical sweep at the operating point of
configs/example.json, whose feed-forward gain is the one to recover, adds
multiplicative measurement noise, and runs the least-squares gain fit on
both the clean and noisy traces.  Optionally writes the noisy trace to CSV
so it can be refit from the command line.
"""

import argparse
from pathlib import Path

import numpy as np

from phaseff import SweepTrace, db_from_linear, emit, fit_gain, load_config, run_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"
PARAMS = load_config(str(CONFIG)).network
TRUE_GAIN = PARAMS.gain.real
NOISE_FRACTION = 0.01
N_POINTS = 361
SEED = 20240817


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="write the noisy trace to this CSV path")
    args = parser.parse_args()

    clean = run_sweep(PARAMS, n_points=N_POINTS, detected=True)
    rng = np.random.Generator(np.random.Philox(key=np.array([SEED, 0], dtype=np.uint64)))
    noisy_linear = clean.variance_linear * (
        1.0 + NOISE_FRACTION * rng.standard_normal(N_POINTS)
    )
    noisy = SweepTrace(
        phase=clean.phase,
        variance_linear=noisy_linear,
        variance_db=np.array([db_from_linear(v) for v in noisy_linear]),
        detected=True,
    )

    print(f"true gain: {TRUE_GAIN}")
    for label, trace in (("clean", clean), ("noisy", noisy)):
        result = fit_gain(trace, PARAMS)
        rel = abs(result.k_fit - TRUE_GAIN) / TRUE_GAIN
        print(
            f"{label:>6} fit: k = {result.k_fit:.6f} "
            f"(rel err {rel:.2e}, residual rms {result.residual_rms:.3e}, "
            f"{result.iterations} refinement steps)"
        )

    if args.out:
        emit(noisy, args.out, "csv")
        print(f"noisy trace written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
