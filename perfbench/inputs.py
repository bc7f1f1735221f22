"""Seeded input generation for the benchmark workloads.

Everything a workload feeds to phaseff is generated here from the workload
seed and nothing else, as plain data (dicts of floats and ints, float64
arrays).  This module does not import phaseff, so the inputs cannot depend on
the code under test, and their digest identifies them across commits.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("cli_workflow", "fit_batch", "mc_long")

# The README's six commands, in order; one op runs one of them.
CLI_COMMANDS = ("optimize", "spectrum", "sweep", "fit", "snr", "montecarlo")
CLI_CONFIGS = 8
CLI_SAMPLE_RATE = 262144.0
CLI_DURATION = 1.0  # 2^18 samples, the example config's simulation block

TRACE_POINTS = 361
FIT_POINTS = 48
FIT_NOISE = 0.01  # multiplicative noise on the fitted traces

MC_OPS = 64
MC_SAMPLE_RATE = 262144.0
MC_DURATION = 16.0  # 2^22 samples per realization
BANDPASS_EVERY = 4  # one op in four uses the bandpass kernel


def _network(rng: np.random.Generator) -> dict:
    """One operating point inside the model's domain."""
    return {
        "epsilon": float(rng.uniform(0.1, 0.5)),
        "eta_h1": float(rng.uniform(0.85, 0.99)),
        "eta_d1": float(rng.uniform(0.80, 0.98)),
        "gain": float(rng.uniform(1.0, 4.0)),
        "v_phase_in": float(10.0 ** rng.uniform(0.0, 1.0)),
        "eta_det2": float(rng.uniform(0.70, 0.95)),
    }


def cli_inputs(seed: int) -> dict:
    """Run configs for the README workflow, plus each config's montecarlo
    --seed value."""
    rng = np.random.default_rng([seed, 1])
    configs = []
    for _ in range(CLI_CONFIGS):
        config = {
            "network": _network(rng),
            "sweep": {"points": TRACE_POINTS, "formula": "paper", "detected": True},
            "simulation": {
                "sample_rate": CLI_SAMPLE_RATE,
                "duration": CLI_DURATION,
                "seed": int(rng.integers(2**32)),
            },
            "snr": {
                "input_total_db": float(rng.uniform(6.0, 10.0)),
                "input_noise_db": float(rng.uniform(0.0, 1.0)),
                "output_total_db": float(rng.uniform(15.0, 19.0)),
                "output_noise_db": float(rng.uniform(8.0, 11.0)),
            },
        }
        configs.append({"config": config, "mc_seed": int(rng.integers(2**32))})
    return {"configs": configs}


def fit_inputs(seed: int) -> dict:
    """Operating points for the gain fits, each with one unit-normal noise
    draw per spectrum formula."""
    rng = np.random.default_rng([seed, 2])
    points = []
    for _ in range(FIT_POINTS):
        points.append(
            {
                "network": _network(rng),
                "noise": {
                    formula: rng.standard_normal(TRACE_POINTS)
                    for formula in ("paper", "coefficient")
                },
            }
        )
    return {"points": points, "noise_level": FIT_NOISE}


def mc_inputs(seed: int) -> dict:
    """A fixed schedule of realizations: in every block of four ops, one
    seed-chosen position uses the bandpass kernel and the others the flat one."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for block in range(MC_OPS // BANDPASS_EVERY):
        bandpass_at = int(rng.integers(BANDPASS_EVERY))
        for slot in range(BANDPASS_EVERY):
            network = _network(rng)
            op = {"network": network, "sim_seed": int(rng.integers(2**63))}
            if slot == bandpass_at:
                op["kind"] = "bandpass"
                op["phi"] = float(rng.uniform(math.pi / 4.0, math.pi / 2.0))
                # Narrow resonances far below the checked band (>= fs/8), so
                # the kernel leaks well under one standard error there.
                op["kernel"] = {
                    "center_hz": float(rng.uniform(1000.0, 4000.0)),
                    "bandwidth_hz": float(rng.uniform(10.0, 40.0)),
                    "gain": network["gain"],
                }
            else:
                op["kind"] = "flat"
                op["phi"] = float(rng.uniform(0.0, math.pi / 2.0))
            ops.append(op)
    return {"ops": ops, "sample_rate": MC_SAMPLE_RATE, "duration": MC_DURATION}


def generate(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    if isinstance(seed, bool) or not (isinstance(seed, int) and 0 <= seed < 2**63):
        raise ValueError(f"seed must be an integer in [0, 2^63), got {seed!r}")
    return {"cli_workflow": cli_inputs, "fit_batch": fit_inputs, "mc_long": mc_inputs}[
        workload
    ](seed)


def _canonical(value):
    if isinstance(value, np.ndarray):
        return {"float64": value.astype("<f8").tobytes().hex()}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def digest(inputs: dict) -> str:
    """sha256 over a canonical, bit-exact rendering of generated inputs."""
    text = json.dumps(_canonical(inputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
