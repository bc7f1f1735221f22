#!/usr/bin/env python3
"""Print the full analytic noise budget for one operating point.

The point is the network block of a run config, configs/example.json unless
--config names another.

Covers the quadrature spectra at the amplitude and phase angles, the signal
power gain, the feed-forward noise floor, the gain optimization summary, and
the comparison against an ideal phase-insensitive amplifier at equal gain.
"""

import argparse
import math
from pathlib import Path

from phaseff import (
    db_from_linear,
    detected_variance,
    ideal_gain,
    load_config,
    max_transfer_ratio,
    optimal_gain,
    phase_variance,
    pia_transfer_ratio,
    signal_power_gain,
    spectrum_from_modes,
    transfer_ratio,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def get_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config", default=str(CONFIG), help="run config whose network block is the point"
    )
    return parser.parse_args()


def main() -> int:
    params = load_config(get_args().config).network

    floor = phase_variance(params._replace(v_phase_in=1.0))
    signal_level = spectrum_from_modes(params, math.pi / 2.0)
    amp_level = spectrum_from_modes(params, 0.0)
    gain_power = signal_power_gain(params)
    eta2 = params.eta_det2

    print(f"operating point: epsilon={params.epsilon}, eta_h1={params.eta_h1}, "
          f"eta_d1={params.eta_d1}, K={params.gain.real}, "
          f"v_phase_in={params.v_phase_in:.4f}, eta_det2={eta2}")
    print()
    print("spectra (vacuum units / dB):")
    print(f"  amplitude quadrature      {amp_level:10.4f}   {db_from_linear(amp_level):7.3f} dB")
    print(f"  phase quadrature          {signal_level:10.4f}   {db_from_linear(signal_level):7.3f} dB")
    print(f"  phase, through eta_det2   {detected_variance(signal_level, eta2):10.4f}"
          f"   {db_from_linear(detected_variance(signal_level, eta2)):7.3f} dB")
    print(f"  noise floor (no signal)   {floor:10.4f}   {db_from_linear(floor):7.3f} dB")
    print(f"  floor, through eta_det2   {detected_variance(floor, eta2):10.4f}"
          f"   {db_from_linear(detected_variance(floor, eta2)):7.3f} dB")
    print()
    print("gain summary:")
    print(f"  signal power gain         {gain_power:10.4f}   {db_from_linear(gain_power):7.3f} dB")
    print(f"  cancellation gain         {ideal_gain(params.epsilon):10.4f}")
    k_opt = optimal_gain(params.epsilon, params.eta_h1, params.eta_d1)
    print(f"  optimal gain              {k_opt:10.4f}")
    print(f"  T_s at configured gain    {transfer_ratio(params):10.5f}")
    print(f"  T_s at optimal gain       {transfer_ratio(params._replace(gain=k_opt)):10.5f}")
    print(f"  T_s closed-form maximum   "
          f"{max_transfer_ratio(params.epsilon, params.eta_h1, params.eta_d1):10.5f}")
    if gain_power >= 1.0:
        print(f"  phase-insensitive bound   {pia_transfer_ratio(gain_power):10.5f}"
              "   (ideal PIA at the same power gain)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
