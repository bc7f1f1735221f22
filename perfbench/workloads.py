"""The three workloads: how one op calls phaseff, and how its output is checked.

An op's timed part is `run(i, span)`; `check(i, result)` runs after the timed
phase and returns an error message, or None when the output is right.  Every
public phaseff call an op makes sits inside `span(name)`, which records a span
in a traced run and does nothing otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from phaseff import (
    BandpassKernel,
    FlatKernel,
    NetworkParams,
    SimConfig,
    SnrSettings,
    SweepTrace,
    band_average,
    estimate_psd,
    fit_gain,
    oracle_compare,
    phase_variance,
    report_snr,
    run_sweep,
    signal_power_gain,
    simulate_streams,
    spectrum_from_modes,
    transfer_ratio,
)

import inputs as gen

# A fixed, loose limit in standard errors for the Monte Carlo checks.  The 3
# sigma verdict moves legitimately when the realization changes, so it is
# reported as a layer metric instead of failing ops.
LOOSE_SIGMA = 6.0
REL_TOL = 1e-9  # reports carry 12 significant digits
FIT_K_TOL = 1e-4  # CLI fit of a noiseless 12-digit trace
FORMULAS = ("paper", "coefficient")
MC_ANGLES = (0.0, math.pi / 4.0, math.pi / 2.0)  # the montecarlo subcommand's


def _close(got, want) -> bool:
    return math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=1e-12)


def _mismatch(report: dict, expected: dict) -> str | None:
    for key, want in expected.items():
        if key not in report:
            return f"missing {key!r}"
        got = report[key]
        ok = got == want if isinstance(want, (bool, str)) else _close(got, want)
        if not ok:
            return f"{key}={got!r}, expected {want!r}"
    return None


class CliWorkflow:
    """The README's six commands, each a fresh `python -m phaseff` process."""

    # Each op is a fresh process, so no state carries from one op to the
    # next: one warm-up process fills the page and bytecode caches all six
    # kinds share.  montecarlo imports and runs the most code.
    warmup_ops = (gen.CLI_COMMANDS.index("montecarlo"),)
    first_op = len(gen.CLI_COMMANDS)
    ops_in_children = True

    def __init__(self, data: dict, workdir: str, src: str, launcher=None):
        self.workdir = workdir
        self.launcher = launcher  # a running launcher.py, needed by run()
        self.configs = data["configs"]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.paths = []
        for j, entry in enumerate(self.configs):
            path = os.path.join(workdir, f"config{j}.json")
            with open(path, "w") as handle:
                json.dump(entry["config"], handle)
            self.paths.append(path)
        self.expected = [self._expected(entry) for entry in self.configs]

    @staticmethod
    def _expected(entry: dict) -> dict:
        net = entry["config"]["network"]
        p = NetworkParams(**net)
        eps, eta = p.epsilon, p.eta_h1 * p.eta_d1
        snr = report_snr(SnrSettings(**entry["config"]["snr"]), p)
        return {
            "optimize": {
                "optimal_gain": math.sqrt(eta * (1.0 - eps) / eps),
                "ideal_gain": math.sqrt((1.0 - eps) / eps),
                "max_transfer_ratio": eps * (1.0 - eta) + eta,
                "transfer_ratio_at_configured_gain": transfer_ratio(p),
                "signal_power_gain": signal_power_gain(p),
            },
            "spectrum": {
                "formula": "paper",
                "detected": True,
                "variance_linear": p.eta_det2 * phase_variance(p) + 1.0 - p.eta_det2,
            },
            "sweep": run_sweep(p, gen.TRACE_POINTS, "paper", True).variance_linear,
            "snr": asdict(snr),
            "montecarlo": {
                "seed": entry["mc_seed"],
                "samples_per_run": int(gen.CLI_SAMPLE_RATE * gen.CLI_DURATION),
                **{
                    f"analytic_variance_{k}": float(spectrum_from_modes(p, phi))
                    for k, phi in enumerate(MC_ANGLES)
                },
            },
        }

    def kind(self, i: int) -> str:
        return gen.CLI_COMMANDS[i % len(gen.CLI_COMMANDS)]

    def argv(self, i: int) -> list[str]:
        cycle = i // len(gen.CLI_COMMANDS)
        j = cycle % len(self.configs)
        config = self.paths[j]
        csv_path = os.path.join(self.workdir, f"sweep{cycle}.csv")
        return {
            "optimize": ["optimize", "--config", config],
            "spectrum": ["spectrum", "--config", config, "--detected"],
            "sweep": ["sweep", "--config", config, "--out", csv_path],
            "fit": ["fit", csv_path, "--config", config, "--detected"],
            "snr": ["snr", "--config", config],
            "montecarlo": [
                "montecarlo",
                "--config",
                config,
                "--seed",
                str(self.configs[j]["mc_seed"]),
            ],
        }[self.kind(i)]

    def run(self, i: int, span) -> dict:
        """Returns the launcher's reply: exit code, CPU time and peak RSS."""
        request = {
            "argv": [sys.executable, "-m", "phaseff", *self.argv(i)],
            "env": self.env,
            "out": os.path.join(self.workdir, f"op{i}.out"),
            "err": os.path.join(self.workdir, f"op{i}.err"),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def check(self, i: int, reply: dict) -> str | None:
        with open(os.path.join(self.workdir, f"op{i}.err")) as handle:
            stderr = handle.read()
        if reply["returncode"] != 0:
            return f"exit {reply['returncode']}: {stderr.strip()[-200:]}"
        kind = self.kind(i)
        j = (i // len(gen.CLI_COMMANDS)) % len(self.configs)
        expected = self.expected[j]
        if kind == "sweep":
            return self._check_csv(self.argv(i)[-1], expected["sweep"])
        with open(os.path.join(self.workdir, f"op{i}.out")) as handle:
            report = json.loads(handle.read())
        if kind == "fit":
            gain = self.configs[j]["config"]["network"]["gain"]
            if abs(report["k_fit"] - gain) > FIT_K_TOL:
                return f"k_fit={report['k_fit']!r}, configured gain {gain!r}"
            return _mismatch(report, {"formula": "paper", "detected": True, "n_points": gen.TRACE_POINTS})
        if kind == "montecarlo":
            for k in range(len(MC_ANGLES)):
                if not report[f"n_sigma_{k}"] < LOOSE_SIGMA:
                    return f"n_sigma_{k}={report[f'n_sigma_{k}']!r} >= {LOOSE_SIGMA}"
        return _mismatch(report, expected[kind])

    @staticmethod
    def _check_csv(path: str, want: np.ndarray) -> str | None:
        with open(path) as handle:
            lines = handle.read().splitlines()
        if lines[0] != "phase_rad,variance_linear,variance_db":
            return f"bad trace header {lines[0]!r}"
        got = np.array([float(line.split(",")[1]) for line in lines[1:]])
        if got.shape != want.shape or not np.allclose(got, want, rtol=REL_TOL, atol=0.0):
            return "sweep trace differs from run_sweep"
        return None


class FitBatch:
    """Sweep at the true gain, 1% seeded noise, and a fit, for each formula."""

    warmup_ops = (0,)
    first_op = 1
    ops_in_children = False

    def __init__(self, data: dict, workdir: str, src: str, launcher=None):
        self.points = data["points"]
        self.noise_level = data["noise_level"]

    def kind(self, i: int) -> str:
        return "fit"

    def run(self, i: int, span):
        point = self.points[i % len(self.points)]
        p = NetworkParams(**point["network"])
        fits = {}
        for formula in FORMULAS:
            with span(f"cli.run_sweep.{formula}"):
                trace = run_sweep(p, gen.TRACE_POINTS, formula, detected=True)
            noisy = trace.variance_linear * (1.0 + self.noise_level * point["noise"][formula])
            noisy_trace = SweepTrace(trace.phase, noisy, 10.0 * np.log10(noisy), detected=True)
            with span(f"cli.fit_gain.{formula}"):
                fits[formula] = fit_gain(noisy_trace, p, formula=formula)
        return fits

    def tolerance(self, p: NetworkParams, formula: str) -> float:
        """LOOSE_SIGMA standard errors of the least-squares gain under the
        multiplicative noise: var(k) = s^2 sum(J^2 y^2) / (sum J^2)^2."""
        k, h = p.gain.real, 1e-4
        y = run_sweep(p, gen.TRACE_POINTS, formula, True).variance_linear
        up = run_sweep(p.with_gain(k + h), gen.TRACE_POINTS, formula, True).variance_linear
        down = run_sweep(p.with_gain(k - h), gen.TRACE_POINTS, formula, True).variance_linear
        jac = (up - down) / (2.0 * h)
        jj = float(np.sum(jac * jac))
        se = self.noise_level * math.sqrt(float(np.sum(jac * jac * y * y))) / jj
        return LOOSE_SIGMA * se + 1e-5

    def check(self, i: int, fits) -> str | None:
        p = NetworkParams(**self.points[i % len(self.points)]["network"])
        for formula, fit in fits.items():
            tol = self.tolerance(p, formula)
            if not abs(fit.k_fit - p.gain.real) <= tol:
                return f"{formula}: k_fit={fit.k_fit!r}, true {p.gain.real!r}, tol {tol:.3g}"
        return None


class McLong:
    """One 2^22-sample realization per op; one op in four uses the bandpass
    kernel through the stage functions, the rest call oracle_compare."""

    first_op = gen.BANDPASS_EVERY
    ops_in_children = False

    def __init__(self, data: dict, workdir: str, src: str, launcher=None):
        self.ops = data["ops"]
        self.sample_rate = data["sample_rate"]
        self.duration = data["duration"]
        first_block = [op["kind"] for op in self.ops[: gen.BANDPASS_EVERY]]
        self.warmup_ops = (first_block.index("flat"), first_block.index("bandpass"))

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate * self.duration))

    def kind(self, i: int) -> str:
        return self.ops[i % len(self.ops)]["kind"]

    def config(self, i: int) -> SimConfig:
        op = self.ops[i % len(self.ops)]
        kernel = BandpassKernel(**op["kernel"]) if op["kind"] == "bandpass" else FlatKernel()
        return SimConfig(
            params=NetworkParams(**op["network"]),
            sample_rate=self.sample_rate,
            duration=self.duration,
            kernel=kernel,
            seed=op["sim_seed"],
        )

    def run(self, i: int, span):
        op = self.ops[i % len(self.ops)]
        cfg = self.config(i)
        if op["kind"] == "flat":
            with span("montecarlo.oracle_compare"):
                return oracle_compare(cfg, [op["phi"]]).rows[0]
        with span("montecarlo.simulate_streams.bandpass"):
            streams = simulate_streams(cfg)
        with span("montecarlo.at_angle"):
            series = streams.at_angle(op["phi"])
        del streams
        with span("montecarlo.estimate_psd"):
            estimate = estimate_psd(series, self.sample_rate)
        with span("montecarlo.band_average"):
            # only bins above fs/8, far outside the passband
            return band_average(estimate, exclude_hz=0.0, exclude_width_hz=self.sample_rate / 8.0)

    def check(self, i: int, result) -> str | None:
        op = self.ops[i % len(self.ops)]
        if op["kind"] == "flat":
            if not result.n_sigma < LOOSE_SIGMA:
                return f"flat row n_sigma={result.n_sigma!r} >= {LOOSE_SIGMA}"
            return None
        mean, se = result
        params = NetworkParams(**op["network"]).with_gain(0.0)
        want = float(spectrum_from_modes(params, op["phi"]))
        if not abs(mean - want) <= LOOSE_SIGMA * se:
            return f"far-band mean {mean!r} vs zero-gain {want!r} (se {se!r})"
        return None


WORKLOAD_CLASSES = {"cli_workflow": CliWorkflow, "fit_batch": FitBatch, "mc_long": McLong}

