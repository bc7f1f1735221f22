"""Import-path guard: scipy.signal loads only when a bandpass kernel runs,
and concurrent.futures only when a Monte Carlo run spans several chunks.

Each check starts a fresh interpreter, since the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXAMPLE = os.path.join(ROOT, "configs", "example.json")
LAZY = ("scipy.signal", "concurrent.futures")


def _loaded(code: str, cwd) -> dict:
    """Run `code` in a fresh interpreter with src first on the path and say
    which of the lazily imported modules ended up in sys.modules."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    probe = (
        code
        + "\nimport json, sys\n"
        + f"print(json.dumps({{m: m in sys.modules for m in {LAZY!r}}}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def after_import(tmp_path_factory):
    return _loaded("import phaseff", tmp_path_factory.mktemp("import"))


def test_import_phaseff_skips_scipy_signal(after_import):
    assert not after_import["scipy.signal"]


def test_import_phaseff_skips_concurrent_futures(after_import):
    assert not after_import["concurrent.futures"]


README_COMMANDS = [
    ["optimize"],
    ["spectrum", "--detected"],
    ["sweep", "--out", "sweep.csv"],
    ["fit", "sweep.csv", "--detected"],
    ["snr"],
    ["montecarlo", "--seed", "12"],
]


@pytest.fixture(scope="module")
def after_cli(tmp_path_factory):
    code = "from phaseff.cli import main\n" + "".join(
        f"assert main({argv + ['--config', EXAMPLE]!r}) == 0\n" for argv in README_COMMANDS
    )
    return _loaded(code, tmp_path_factory.mktemp("cli"))


def test_cli_commands_skip_scipy_signal(after_cli):
    assert not after_cli["scipy.signal"]


def test_cli_commands_skip_concurrent_futures(after_cli):
    # montecarlo runs one 2^18-sample chunk per angle, so it starts no thread
    assert not after_cli["concurrent.futures"]


def test_bandpass_kernel_loads_scipy_signal(tmp_path):
    code = (
        "import numpy as np\n"
        "from phaseff import BandpassKernel, NetworkParams, apply_kernel\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
        "k = BandpassKernel(center_hz=1000.0, bandwidth_hz=100.0, gain=1.0)\n"
        "apply_kernel(k, np.zeros(64), p, 8192.0)\n"
    )
    assert _loaded(code, tmp_path)["scipy.signal"]
