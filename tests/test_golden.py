"""Byte-for-byte pins of the CLI and script output: the one table of them.

Each CASES entry is named after the file under tests/golden/ that its output
must equal.  A CLI entry runs `phaseff.cli.main` in-process and pins what it
wrote, to stdout or to its --out file: the six README commands on
configs/example.json, their `coefficient` formula variants and `--format`
overrides of the default rendering.  An entry that starts with PYTHON runs a
fresh interpreter with src first on the path and RuntimeWarning an error, as
pyproject.toml makes it in-process, and pins its stdout: the Monte Carlo run
on tests/configs/multichunk.json, whose runs span several noise chunks,
pinned to one CPU, and scripts/mc_check.py, a second pin of the Monte Carlo
realization, through the library.  The entries named after a script
pin nothing: the script must exit 0.  Regenerate the golden files, the
stdout of mc_check.py included, only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from phaseff.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SRC = str(TESTS.parent / "src")
SCRIPTS = TESTS.parent / "scripts"
CONFIG = str(TESTS.parent / "configs" / "example.json")
# 5 * 2^18 + 16,443 samples with a tone: the only case whose run spans several
# chunks, the last one partial; its 64 segments of 20,736 = 2^8 * 3^4 samples
# keep the FFT on a fast length
MULTICHUNK = str(TESTS / "configs" / "multichunk.json")
OUT = "<out>"  # replaced by a fresh path; the case then pins the --out file
PYTHON = "<python>"  # the rest is the argv of a fresh interpreter
# main's argv in a child pinned to one usable CPU before phaseff loads: the
# run must start no worker thread
ONE_CPU = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "from phaseff import cli, montecarlo\n"
    "assert montecarlo._usable_cpus() == 1\n"
    "code = cli.main(sys.argv[1:])\n"
    "assert 'concurrent.futures' not in sys.modules, 'a worker pool loaded'\n"
    "sys.exit(code)\n"
)

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
    "montecarlo_multichunk_seed12.json": [
        PYTHON, "-c", ONE_CPU, "montecarlo", "--config", MULTICHUNK, "--seed", "12",
    ],
    # --format overrides: a sweep rendered as JSON, reports rendered as CSV
    "sweep_97.json": ["sweep", "--config", CONFIG, "--points", "97", "--format", "json"],
    "optimize.csv": ["optimize", "--config", CONFIG, "--format", "csv"],
    "snr.csv": ["snr", "--config", CONFIG, "--format", "csv"],
    "montecarlo_seed12.csv": [
        "montecarlo", "--config", CONFIG, "--seed", "12", "--format", "csv",
    ],
    "mc_check.txt": [PYTHON, str(SCRIPTS / "mc_check.py")],
    # named after the script: it must exit 0, and its stdout is not pinned
    "noise_budget.py": [PYTHON, str(SCRIPTS / "noise_budget.py")],
    "sweep_fit_demo.py": [PYTHON, str(SCRIPTS / "sweep_fit_demo.py")],
}
PINNED = [name for name in CASES if not name.endswith(".py")]


def run_python(args, cwd) -> bytes:
    """Run a fresh interpreter on args, with src first on the path; return
    its stdout once it has exited 0."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def run_case(argv, workdir: Path) -> bytes:
    """Run one entry; return its --out file if it has one, else stdout."""
    if argv[0] == PYTHON:
        return run_python(["-W", "error::RuntimeWarning", *argv[1:]], workdir)
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
def test_output_matches_golden(name, tmp_path):
    if ONE_CPU in CASES[name] and not hasattr(os, "sched_setaffinity"):
        pytest.skip("this OS cannot pin a process to one CPU")
    output = run_case(CASES[name], tmp_path)
    if name in PINNED:
        assert output == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    # sweeps first: the fit cases read the golden sweep files
    for name in sorted(PINNED, key=lambda n: CASES[n][0] != "sweep"):
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / name).write_bytes(run_case(CASES[name], Path(workdir)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
