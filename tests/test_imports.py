"""Module-load pins: the one table of them, LOADS.

numpy loads only when an array path runs, so not for `import phaseff` nor
for the optimize, snr and spectrum subcommands, nor for a sweep of up to
cli._SCALAR_SWEEP_MAX points, which evaluate their formulas on Python floats
with math, nor for the library's scalar formulas, nor for a refused run
(tests/test_cli.py's REFUSALS checks that) or a refused trial.  Neither
scipy nor scipy.signal loads at all: a bandpass kernel loads only scipy's
compiled filter module, by file.  concurrent.futures, and threading with it,
loads only when a Monte Carlo run spans several chunks on more than one
usable CPU.
dataclasses (which loads inspect) loads only for a caller of its functions:
phaseff's records are built on algebra.Record, which those functions still
accept.  csv loads only for fit, which reads a trace with it; CSV output is
written by hand.

Each row runs once, in a fresh interpreter, since the test process itself
has long since imported everything; its code holds its own asserts, so a
failed one fails the row's every case.  The subcommand runs it names are
entries of the one table of byte pins, tests/test_golden.py's CASES.  Two
rows, scratch-given-back and scratch-given-back-flat-first, also bound the
resident memory that two Monte Carlo runs leave behind; they read
/proc/self/status, so their cases skip where there is none.
"""

import functools
import json
import os

import pytest

from test_golden import CASES, CONFIG, GOLDEN, OUT, run_python

LAZY = (
    "numpy", "scipy", "scipy.signal", "concurrent.futures", "dataclasses", "inspect", "csv",
    "threading",
)
# print which LAZY modules are in sys.modules, on stdout's last line
PROBE = f"\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {LAZY!r}}}))\n"


def _main_runs(names) -> str:
    """Code that runs main on the named golden entries, stdout discarded and
    an --out file written to the working directory under the entry's name."""
    return "import contextlib, io\nfrom phaseff.cli import main\n" + "".join(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({[name if arg == OUT else arg for arg in CASES[name]]!r}) == 0\n"
        for name in names
    )


README_COMMANDS = [
    "optimize.json", "spectrum_detected.json", "sweep.csv", "fit.json", "snr.json",
    "montecarlo_seed12.json",
]
SCALAR_COMMANDS = [name for name, argv in CASES.items()
                   if argv[0] in ("optimize", "snr", "spectrum", "sweep")]

# a one-chunk bandpass realization: 65,536 samples at 8,192 Hz
BANDPASS = (
    "from phaseff import BandpassKernel, NetworkParams, SimConfig, montecarlo, simulate_streams\n"
    "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
    "kernel = BandpassKernel(center_hz=1000.0, bandwidth_hz=100.0, gain=1.0)\n"
    "run = lambda: simulate_streams(SimConfig(p, 8192.0, 8.0, kernel=kernel))\n"
)


def bandpass_refused(start: str) -> str:
    """A bandpass run that must fail on scipy's compiled filter module,
    with an error that starts with `start`."""
    return BANDPASS + (
        "try:\n    run()\nexcept ImportError as exc:\n"
        f"    assert str(exc).startswith({start!r}), exc\n"
        "else:\n    raise AssertionError('the bandpass kernel ran')\n"
    )


# A bandpass run and a flat oracle_compare of 2^21 samples on two worker
# threads, in either order, after numpy.random, numpy.fft and the filter have
# loaded: every array of a realization and a periodogram is mapped and
# unmapped as it is dropped, so the process keeps at most RSS_KEPT_MB of
# resident memory, the rows and blocks that each chunk and FFT block maps on
# its worker thread among them.  With those from np.empty, in the threads'
# allocator arenas, it kept 15.5-19.0 MB.  With only them mapped, flat first
# could keep 37 MB: the flat run's freed series raised the allocator's mmap
# threshold, so the bandpass streams came from the heap, and stayed there
# whenever a live block lay above them.
RSS_KEPT_MB = 10.0
RUNS = {
    "bandpass": "simulate_streams(SimConfig(p, 2.0**21, 1.0, kernel=kernel, seed=3))\n",
    "flat": "oracle_compare(SimConfig(p, 2.0**21, 1.0, seed=3), [1.0])\n",
}


def scratch_given_back(order) -> str:
    """The runs named in `order`, from RUNS, and the check of what they kept."""
    return (
        "import numpy.fft, numpy.random\n"
        "from phaseff import BandpassKernel, NetworkParams, SimConfig, montecarlo\n"
        "from phaseff import oracle_compare, simulate_streams\n"
        "montecarlo._usable_cpus = lambda: 2\n"
        "montecarlo._linear_filter()\n"
        "def rss_mb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status\n"
        "                    if line.startswith('VmRSS:')) / 1024\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=0.9, eta_d1=0.8, gain=2.0)\n"
        "kernel = BandpassKernel(center_hz=5000.0, bandwidth_hz=500.0, gain=2.0)\n"
        "before = rss_mb()\n"
        + "".join(RUNS[run] for run in order)
        + "kept = rss_mb() - before\n"
        f"assert kept <= {RSS_KEPT_MB}, f'the runs kept {{kept:.1f}} MB'\n"
    )


# whichever of a bandpass run and `from scipy import signal` comes first,
# scipy.signal gets its _sigtools module and the kernel runs its filter
SIGNAL_IMPORT = "from scipy import signal\n"
SHARED_FILTER = "assert montecarlo._linear_filter() is signal._sigtools._linear_filter\n"

# The one table of module loads: (case id, interpreter flags, code, the LAZY
# modules it must load, those it must not).
LOADS = [
    ("import-phaseff", [], "import phaseff\n", (),
     ("numpy", "scipy", "scipy.signal", "concurrent.futures", "dataclasses", "inspect", "csv")),
    # without site, whose .pth files may import threading themselves
    ("import-phaseff-without-site", ["-S"], "import phaseff\n", (), ("threading",)),
    # the call perfbench/workloads.py makes to check an snr op
    ("asdict-of-an-snr-report", [], (
        "from dataclasses import asdict\n"
        "from phaseff import NetworkParams, SnrSettings, report_snr\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=0.94, eta_d1=0.91, gain=3.2, eta_det2=0.8)\n"
        "report = report_snr(SnrSettings(12.0, 4.0, 20.0, 6.0), p)\n"
        "fields = ['snr_detected_in', 'snr_inferred_in', 'snr_detected_out',\n"
        "          'snr_inferred_out', 't_s']\n"
        "assert asdict(report) == {name: getattr(report, name) for name in fields}\n"
        "assert list(asdict(report)) == fields\n"
    ), ("dataclasses",), ()),
    # montecarlo runs one 2^18-sample chunk per angle, so it starts no thread
    ("readme-commands", [], _main_runs(README_COMMANDS), (),
     ("scipy.signal", "concurrent.futures")),
    # the kernel loads scipy's compiled filter module by file: neither
    # scipy's nor scipy.signal's __init__ runs
    ("bandpass-run", [], BANDPASS + "run()\n", (),
     ("scipy", "scipy.signal", "concurrent.futures")),
    # find_spec("scipy") names an empty directory: no signal/_sigtools file
    ("bandpass-without-the-filter-module", [], (
        "import importlib.util, os\n"
        "from importlib.machinery import ModuleSpec\n"
        "os.mkdir('scipy')\n"
        "scipy = ModuleSpec('scipy', None, is_package=True)\n"
        "scipy.submodule_search_locations = [os.path.abspath('scipy')]\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, package=None: (\n"
        "    scipy if name == 'scipy' else find_spec(name, package)\n"
        ")\n"
        + bandpass_refused(
            "the bandpass kernel needs scipy's compiled scipy.signal._sigtools: not found"
        )
    ), (), ("scipy",)),
    # the extension loader builds an empty module in place of _sigtools;
    # _sigtools initializes when it is created, so stubbing exec_module
    # alone would leave its functions in place
    ("bandpass-without-the-filter-function", [], (
        "import sys, types\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "import numpy, phaseff\n"  # their own extensions load before the stub
        "ExtensionFileLoader.create_module = lambda self, spec: types.ModuleType(spec.name)\n"
        + bandpass_refused("the bandpass kernel needs scipy.signal._sigtools._linear_filter: ")
        + "assert 'scipy.signal._sigtools' not in sys.modules\n"
    ), (), ("scipy",)),
    ("bandpass-then-signal", [], BANDPASS + "run()\n" + SIGNAL_IMPORT + SHARED_FILTER,
     ("scipy.signal",), ()),
    ("signal-then-bandpass", [], BANDPASS + SIGNAL_IMPORT + "run()\n" + SHARED_FILTER,
     ("scipy.signal",), ()),
    # the golden entries of optimize, snr, spectrum and sweep
    ("scalar-commands", [], _main_runs(SCALAR_COMMANDS), (),
     ("numpy", "dataclasses", "inspect", "csv")),
    ("refused-report-value", [], (
        "from phaseff.cli import emit\n"
        "try:\n"
        "    emit({'ok': 1.0, 'bad': None}, 'report.json', 'json')\n"
        "except TypeError as exc:\n"
        "    assert str(exc) == 'cannot serialize value of type NoneType', exc\n"
        "else:\n"
        "    raise AssertionError('None was serialized')\n"
    ), (), ("numpy",)),
    # a bad trial is refused before the streams' numpy arrays exist
    ("refused-trial", [], (
        "from phaseff import NetworkParams, SimConfig, simulate_streams\n"
        "p = NetworkParams(epsilon=0.2, eta_h1=1.0, eta_d1=1.0, gain=1.0)\n"
        "try:\n"
        "    simulate_streams(SimConfig(p, 65536.0, 1.0), trial=-1)\n"
        "except ValueError as exc:\n"
        "    assert str(exc).startswith('trial must be an integer'), exc\n"
        "else:\n"
        "    raise AssertionError('trial -1 ran')\n"
    ), (), ("numpy",)),
    ("fit", [], (
        "import contextlib, io\n"
        "from phaseff.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['fit', {str(GOLDEN / 'sweep.csv')!r}, '--config', {CONFIG!r},"
        " '--detected']) == 0\n"
    ), ("csv",), ()),
    # the library's scalar formulas, a complex gain and v_phase_in > 1 included
    ("scalar-formulas", [], (
        "from phaseff import (NetworkParams, detected_variance, phase_variance,\n"
        "    signal_power_gain, spectrum_closed_form, spectrum_from_modes, transfer_ratio)\n"
        "p = NetworkParams(0.2, 0.94, 0.91, 2.5 - 1.25j, v_phase_in=7.2, eta_det2=0.8)\n"
        "assert phase_variance(p) > 0.0 and transfer_ratio(p) > 0.0\n"
        "assert signal_power_gain(p) > 0.0\n"
        "for formula in (spectrum_closed_form, spectrum_from_modes):\n"
        "    for phi in (0.0, 0.7, 1.5707963267948966):\n"
        "        assert detected_variance(formula(p, phi), p.eta_det2) > 0.0\n"
    ), (), ("numpy",)),
    ("long-sweep", [], (
        "from phaseff.cli import _SCALAR_SWEEP_MAX, main\n"
        f"argv = ['sweep', '--config', {CONFIG!r}, '--out', 'long.csv']\n"
        "assert main(argv + ['--points', str(_SCALAR_SWEEP_MAX + 1)]) == 0\n"
    ), ("numpy",), ()),
    # eight threads make phaseff's first numpy read at once, switching often
    ("threads-racing", [], (
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
    ), ("numpy",), ()),
    *((name, [], scratch_given_back(order), ("concurrent.futures", "threading"),
       ("scipy", "scipy.signal"))
      for name, order in (("scratch-given-back", ("bandpass", "flat")),
                          ("scratch-given-back-flat-first", ("flat", "bandpass")))),
]
CHECKS = [(row[0], module, must) for row in LOADS
          for must, modules in ((True, row[3]), (False, row[4])) for module in modules]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """loaded(name): which LAZY modules are in sys.modules once the row's
    code has run in a fresh interpreter with src first on the path and a
    fresh working directory; each row runs once, on its first case."""
    rows = {name: (flags, code) for name, flags, code, _, _ in LOADS}

    @functools.cache
    def run(name: str) -> dict:
        flags, code = rows[name]
        stdout = run_python([*flags, "-c", code + PROBE], tmp_path_factory.mktemp(name))
        return json.loads(stdout.splitlines()[-1])

    return run


@pytest.mark.parametrize(
    "name, module, must", CHECKS,
    ids=[f"{name}-{'loads' if must else 'skips'}-{module}" for name, module, must in CHECKS],
)
def test_module_load(loaded, name, module, must):
    if name.startswith("scratch-given-back") and not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the resident set from")
    assert loaded(name)[module] is must, f"{module} {'not ' if must else ''}loaded"
