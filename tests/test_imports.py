"""Import-path guard: numpy loads only when an array path runs, so not for
`import phaseff` nor for the optimize, snr and spectrum subcommands, nor for
a sweep of up to cli._SCALAR_SWEEP_MAX points, which evaluate their formulas
on Python floats with math, nor for the library's scalar formulas, nor
for a montecarlo run too short for the analysis plan, refused on load;
neither scipy nor scipy.signal loads at all: a bandpass kernel loads only
scipy's compiled filter module, by file, concurrent.futures loads only
when a Monte Carlo run spans several chunks, and `import phaseff` loads no
threading.  dataclasses (which loads inspect) loads only for a caller of its
functions: phaseff's records are built on algebra.Record, which those
functions still accept.  csv loads only for fit, which reads a trace with
it; CSV output is written by hand.

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
GOLDEN = os.path.join(ROOT, "tests", "golden")
LAZY = (
    "numpy", "scipy", "scipy.signal", "concurrent.futures", "dataclasses", "inspect", "csv",
)


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


def test_import_phaseff_skips_numpy(after_import):
    assert not after_import["numpy"]


def test_import_phaseff_skips_scipy_signal(after_import):
    assert not after_import["scipy.signal"]


def test_import_phaseff_skips_scipy(after_import):
    assert not after_import["scipy"]


def test_import_phaseff_skips_concurrent_futures(after_import):
    assert not after_import["concurrent.futures"]


def test_import_phaseff_skips_threading(tmp_path):
    # without site, whose .pth files may import threading themselves; the
    # bandpass kernel imports it only when its step is built
    code = "import sys, phaseff\nprint('threading' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_phaseff_skips_dataclasses_and_inspect(after_import):
    assert not after_import["dataclasses"] and not after_import["inspect"]


def test_import_phaseff_skips_csv(after_import):
    assert not after_import["csv"]


def test_asdict_of_an_snr_report_gives_its_fields(tmp_path):
    # the call perfbench/workloads.py makes to check an snr op
    code = (
        "from dataclasses import asdict\n"
        "from phaseff import NetworkParams, SnrSettings, report_snr\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2, eta_det2=0.8)\n"
        "report = report_snr(SnrSettings(12.0, 4.0, 20.0, 6.0), p)\n"
        "fields = ['snr_detected_in', 'snr_inferred_in', 'snr_detected_out',\n"
        "          'snr_inferred_out', 't_s']\n"
        "assert asdict(report) == {name: getattr(report, name) for name in fields}\n"
        "assert list(asdict(report)) == fields\n"
    )
    assert _loaded(code, tmp_path)["dataclasses"]


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


def test_bandpass_kernel_skips_scipy_signal(tmp_path):
    # the kernel loads scipy's compiled filter module by file: neither
    # scipy's nor scipy.signal's __init__ runs
    code = (
        "import numpy as np\n"
        "from phaseff import BandpassKernel, NetworkParams, apply_kernel\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
        "k = BandpassKernel(center_hz=1000.0, bandwidth_hz=100.0, gain=1.0)\n"
        "apply_kernel(k, np.zeros(64), p, 8192.0)\n"
    )
    loaded = _loaded(code, tmp_path)
    assert not loaded["scipy"] and not loaded["scipy.signal"]


# a bandpass run that must fail on scipy's compiled filter module, naming it
BANDPASS_REFUSED = (
    "from phaseff import BandpassKernel, NetworkParams, apply_kernel\n"
    "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
    "try:\n"
    "    apply_kernel(BandpassKernel(1000.0, 100.0, 1.0), np.zeros(64), p, 8192.0)\n"
    "except ImportError as exc:\n"
    "    assert str(exc).startswith({start!r}), exc\n"
    "else:\n"
    "    raise AssertionError('the bandpass kernel ran')\n"
)


def test_bandpass_kernel_refuses_a_scipy_without_the_filter_module(tmp_path):
    # find_spec("scipy") names an empty directory: no signal/_sigtools file
    (tmp_path / "scipy").mkdir()
    code = (
        "import importlib.util\n"
        "from importlib.machinery import ModuleSpec\n"
        "import numpy as np\n"
        "scipy = ModuleSpec('scipy', None, is_package=True)\n"
        f"scipy.submodule_search_locations = [{str(tmp_path / 'scipy')!r}]\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, package=None: (\n"
        "    scipy if name == 'scipy' else find_spec(name, package)\n"
        ")\n"
        + BANDPASS_REFUSED.format(
            start="the bandpass kernel needs scipy's compiled scipy.signal._sigtools: not found"
        )
    )
    assert not _loaded(code, tmp_path)["scipy"]


def test_bandpass_kernel_refuses_a_filter_module_without_the_function(tmp_path):
    # the extension loader builds an empty module in place of _sigtools;
    # _sigtools initializes when it is created, so stubbing exec_module
    # alone would leave its functions in place
    code = (
        "import sys, types\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "import numpy as np\n"  # numpy's own extensions load before the stub
        "ExtensionFileLoader.create_module = lambda self, spec: types.ModuleType(spec.name)\n"
        + BANDPASS_REFUSED.format(
            start="the bandpass kernel needs scipy.signal._sigtools._linear_filter: "
        )
        + "assert 'scipy.signal._sigtools' not in sys.modules\n"
    )
    assert not _loaded(code, tmp_path)["scipy"]


def test_run_too_short_is_refused_before_numpy_loads(tmp_path):
    # 16,384 samples: the config load refuses a run the analysis plan
    # (64 segments of at least 1,024 samples) cannot cut
    with open(EXAMPLE) as handle:
        config = json.load(handle)
    config["simulation"]["duration"] = 2**14 / config["simulation"]["sample_rate"]
    (tmp_path / "short.json").write_text(json.dumps(config))
    code = (
        "import contextlib, io\n"
        "from phaseff.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    assert main(['montecarlo', '--config', 'short.json']) == 1\n"
        "assert err.getvalue().startswith('error: simulation: run too short: 16384 '), err\n"
    )
    assert not _loaded(code, tmp_path)["numpy"]


@pytest.mark.parametrize("signal_first", [False, True])
def test_bandpass_kernel_shares_scipy_signal_filter(tmp_path, signal_first):
    # whichever of a bandpass run and `from scipy import signal` comes first,
    # scipy.signal gets its _sigtools module and the kernel runs its filter
    kernel_run = (
        "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
        "apply_kernel(BandpassKernel(1000.0, 100.0, 1.0), np.zeros(64), p, 8192.0)\n"
    )
    signal_import = "from scipy import signal\n"
    code = (
        "import numpy as np\n"
        "from phaseff import BandpassKernel, NetworkParams, apply_kernel, montecarlo\n"
        + (signal_import + kernel_run if signal_first else kernel_run + signal_import)
        + "assert montecarlo._linear_filter() is signal._sigtools._linear_filter\n"
    )
    assert _loaded(code, tmp_path)["scipy.signal"]


# the scalar subcommands, each rendered to its golden files: optimize and snr
# in both formats, spectrum with both formulas, detected and at --phi 0.7,
# and the golden sweeps
SCALAR_OUTPUTS = {
    **{
        f"{command}.{fmt}": [command, "--config", EXAMPLE, "--format", fmt]
        for command in ("optimize", "snr")
        for fmt in ("json", "csv")
    },
    **{
        f"spectrum_{name}{suffix}.json": ["spectrum", "--config", EXAMPLE, *flags, *formula]
        for name, flags in (("detected", ["--detected"]), ("phi0.7", ["--phi", "0.7"]))
        for suffix, formula in (("", []), ("_coefficient", ["--formula", "coefficient"]))
    },
    "sweep.csv": ["sweep", "--config", EXAMPLE],
    "sweep_coefficient.csv": ["sweep", "--config", EXAMPLE, "--formula", "coefficient"],
    "sweep_97.csv": ["sweep", "--config", EXAMPLE, "--points", "97"],
    "sweep_97_coefficient.csv": [
        "sweep", "--config", EXAMPLE, "--points", "97", "--formula", "coefficient",
    ],
    "sweep_97.json": ["sweep", "--config", EXAMPLE, "--points", "97", "--format", "json"],
}


@pytest.fixture(scope="module")
def scalar_run(tmp_path_factory):
    """The scalar subcommands' stdout, written in a fresh interpreter into
    files named after their golden files, and the modules loaded at exit."""
    cwd = tmp_path_factory.mktemp("scalar")
    code = "import contextlib\nfrom phaseff.cli import main\n" + "".join(
        f"with open({name!r}, 'w') as out, contextlib.redirect_stdout(out):\n"
        f"    assert main({argv!r}) == 0\n"
        for name, argv in SCALAR_OUTPUTS.items()
    )
    return _loaded(code, cwd), cwd


@pytest.mark.parametrize("name", sorted(SCALAR_OUTPUTS))
def test_scalar_commands_match_golden_files(scalar_run, name):
    _, cwd = scalar_run
    with open(os.path.join(GOLDEN, name), "rb") as golden:
        assert (cwd / name).read_bytes() == golden.read()


def test_scalar_commands_skip_numpy(scalar_run):
    loaded, _ = scalar_run
    assert not loaded["numpy"]


def test_scalar_commands_skip_dataclasses_and_inspect(scalar_run):
    loaded, _ = scalar_run
    assert not loaded["dataclasses"] and not loaded["inspect"]


def test_scalar_commands_skip_csv(scalar_run):
    loaded, _ = scalar_run
    assert not loaded["csv"]


def test_refused_report_value_loads_no_numpy(tmp_path):
    code = (
        "from phaseff.cli import emit\n"
        "try:\n"
        "    emit({'ok': 1.0, 'bad': None}, 'report.json', 'json')\n"
        "except TypeError as exc:\n"
        "    assert str(exc) == 'cannot serialize value of type NoneType', exc\n"
        "else:\n"
        "    raise AssertionError('None was serialized')\n"
    )
    assert not _loaded(code, tmp_path)["numpy"]


def test_fit_loads_csv(tmp_path):
    trace = os.path.join(GOLDEN, "sweep.csv")
    code = (
        "import contextlib, io\n"
        "from phaseff.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['fit', {trace!r}, '--config', {EXAMPLE!r}, '--detected']) == 0\n"
    )
    assert _loaded(code, tmp_path)["csv"]


def test_scalar_formulas_skip_numpy(tmp_path):
    # the library's scalar formulas, a complex gain and v_phase_in > 1 included
    code = (
        "from phaseff import (NetworkParams, detected_variance, phase_variance,\n"
        "    signal_power_gain, spectrum_closed_form, spectrum_from_modes, transfer_ratio)\n"
        "p = NetworkParams(0.2, 0.94, 0.91, 2.5 - 1.25j, v_phase_in=7.2, eta_det2=0.8)\n"
        "assert phase_variance(p) > 0.0 and transfer_ratio(p) > 0.0\n"
        "assert signal_power_gain(p) > 0.0\n"
        "for formula in (spectrum_closed_form, spectrum_from_modes):\n"
        "    for phi in (0.0, 0.7, 1.5707963267948966):\n"
        "        assert detected_variance(formula(p, phi), p.eta_det2) > 0.0\n"
    )
    assert not _loaded(code, tmp_path)["numpy"]


def test_long_sweep_loads_numpy(tmp_path):
    code = (
        "from phaseff.cli import _SCALAR_SWEEP_MAX, main\n"
        f"argv = ['sweep', '--config', {EXAMPLE!r}, '--out', 'long.csv']\n"
        "assert main(argv + ['--points', str(_SCALAR_SWEEP_MAX + 1)]) == 0\n"
    )
    assert _loaded(code, tmp_path)["numpy"]


def test_threads_racing_to_load_numpy_all_get_it(tmp_path):
    # eight threads make phaseff's first numpy read at once, switching often
    code = (
        "import sys, threading\n"
        "from phaseff import NetworkParams, spectrum_from_modes\n"
        "sys.setswitchinterval(1e-6)\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2)\n"
        "start, results = threading.Barrier(8, timeout=60), []\n"
        "def work():\n"
        "    start.wait()\n"
        "    results.append(spectrum_from_modes(p, [0.0, 1.0]).tolist())\n"
        "threads = [threading.Thread(target=work) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert len(results) == 8 and all(r == results[0] for r in results), results\n"
    )
    assert _loaded(code, tmp_path)["numpy"]
