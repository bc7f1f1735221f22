"""Byte-for-byte pins of the CLI output on configs/example.json.

Each case runs `phaseff.cli.main` in-process and compares what it wrote, to
stdout or to its --out file, with a file under tests/golden/.  The files hold
the output of the six README commands, their `coefficient` formula variants,
`--format` overrides of the default rendering, and one Monte Carlo run on
tests/configs/multichunk.json, whose runs span several noise chunks.
Regenerate them only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from phaseff.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
CONFIG = str(TESTS.parent / "configs" / "example.json")
# 5 * 2^18 + 16,443 samples with a tone: the only case whose run spans several
# chunks, the last one partial; its 64 segments of 20,736 = 2^8 * 3^4 samples
# keep the FFT on a fast length
MULTICHUNK = str(TESTS / "configs" / "multichunk.json")
OUT = "<out>"  # replaced by a fresh path; the case then pins the --out file

CASES = {
    "optimize.json": ["optimize", "--config", CONFIG],
    "spectrum_detected.json": ["spectrum", "--config", CONFIG, "--detected"],
    "spectrum_detected_coefficient.json": [
        "spectrum", "--config", CONFIG, "--detected", "--formula", "coefficient",
    ],
    "spectrum_phi0.7.json": ["spectrum", "--config", CONFIG, "--phi", "0.7"],
    "spectrum_phi0.7_coefficient.json": [
        "spectrum", "--config", CONFIG, "--phi", "0.7", "--formula", "coefficient",
    ],
    "sweep.csv": ["sweep", "--config", CONFIG, "--out", OUT],
    "sweep_coefficient.csv": [
        "sweep", "--config", CONFIG, "--formula", "coefficient", "--out", OUT,
    ],
    "sweep_97.csv": ["sweep", "--config", CONFIG, "--points", "97"],
    "sweep_97_coefficient.csv": [
        "sweep", "--config", CONFIG, "--points", "97", "--formula", "coefficient",
    ],
    "fit.json": ["fit", str(GOLDEN / "sweep.csv"), "--config", CONFIG, "--detected"],
    "fit_coefficient.json": [
        "fit", str(GOLDEN / "sweep_coefficient.csv"), "--config", CONFIG,
        "--detected", "--formula", "coefficient",
    ],
    "fit_paper_trace_coefficient.json": [
        "fit", str(GOLDEN / "sweep.csv"), "--config", CONFIG,
        "--detected", "--formula", "coefficient",
    ],
    "snr.json": ["snr", "--config", CONFIG],
    "montecarlo_seed12.json": ["montecarlo", "--config", CONFIG, "--seed", "12"],
    "montecarlo_multichunk_seed12.json": ["montecarlo", "--config", MULTICHUNK, "--seed", "12"],
    # --format overrides: a sweep rendered as JSON, reports rendered as CSV
    "sweep_97.json": ["sweep", "--config", CONFIG, "--points", "97", "--format", "json"],
    "optimize.csv": ["optimize", "--config", CONFIG, "--format", "csv"],
    "snr.csv": ["snr", "--config", CONFIG, "--format", "csv"],
    "montecarlo_seed12.csv": [
        "montecarlo", "--config", CONFIG, "--seed", "12", "--format", "csv",
    ],
}


def run_case(argv, workdir: Path) -> bytes:
    """Run one CLI command; return its --out file if it has one, else stdout."""
    out_path = workdir / "out"
    argv = [str(out_path) if arg == OUT else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"phaseff {' '.join(argv)} exited {code}"
    if str(out_path) in argv:
        assert stdout.getvalue() == "", "--out run also wrote to stdout"
        return out_path.read_bytes()
    return stdout.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    # sweeps first: the fit cases read the golden sweep files
    for name in sorted(CASES, key=lambda n: CASES[n][0] != "sweep"):
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / name).write_bytes(run_case(CASES[name], Path(workdir)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
