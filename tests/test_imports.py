"""Import-path guard: scipy.signal loads only when a bandpass kernel runs.

Each check starts a fresh interpreter, since the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXAMPLE = os.path.join(ROOT, "configs", "example.json")


def _loads_scipy_signal(code: str, cwd) -> bool:
    """Run `code` in a fresh interpreter with src first on the path and say
    whether scipy.signal ended up in sys.modules."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    probe = code + "\nimport json, sys\nprint(json.dumps('scipy.signal' in sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_phaseff_skips_scipy_signal(tmp_path):
    assert not _loads_scipy_signal("import phaseff", tmp_path)


README_COMMANDS = [
    ["optimize"],
    ["spectrum", "--detected"],
    ["sweep", "--out", "sweep.csv"],
    ["fit", "sweep.csv", "--detected"],
    ["snr"],
    ["montecarlo", "--seed", "12"],
]


def test_cli_commands_skip_scipy_signal(tmp_path):
    code = "from phaseff.cli import main\n" + "".join(
        f"assert main({argv + ['--config', EXAMPLE]!r}) == 0\n" for argv in README_COMMANDS
    )
    assert not _loads_scipy_signal(code, tmp_path)


def test_bandpass_kernel_loads_scipy_signal(tmp_path):
    code = (
        "import numpy as np\n"
        "from phaseff import BandpassKernel, NetworkParams, apply_kernel\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
        "k = BandpassKernel(center_hz=1000.0, bandwidth_hz=100.0, gain=1.0)\n"
        "apply_kernel(k, np.zeros(64), p, 8192.0)\n"
    )
    assert _loads_scipy_signal(code, tmp_path)
