"""phaseff benchmark: one command for every end-to-end or per-layer metric.

    python3 perfbench/run.py --workload cli_workflow|fit_batch|mc_long \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the code measured is the checkout's `src`.
With --trace 0 it sets the workload up SETUPS times, each in a fresh worker
process; the last worker then runs the timed loop, and the end-to-end
metrics are printed.  With --trace 1 it prints the per-layer metrics of one
traced worker.  Human-readable lines come first; the last stdout line is the
JSON result.  The run context, every op and (traced) the span file path are
saved under .perfbench/results/.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import inputs as gen

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# op_tail_s: the highest percentile with at least 10 ops beyond it at the op
# counts one run-length gives today (also stated in BENCHMARK.json).
TAIL_PERCENTILE = {"cli_workflow": 55, "fit_batch": 55, "mc_long": 70}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _cache_bytes() -> dict:
    """L2 and L3 sizes: lscpu's totals over all instances, else the size of
    one instance from /sys."""
    try:
        lscpu = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, timeout=10)
        out = lscpu.stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    sizes = {}
    for level in (2, 3):
        m = re.search(rf"^L{level} cache:\s*(\d+)", out, re.M)
        if m:
            sizes[f"l{level}_bytes"] = int(m.group(1))
            continue
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size") as f:
                m = re.fullmatch(r"(\d+)K", f.read().strip())
        except OSError:
            m = None
        sizes[f"l{level}_bytes"] = int(m.group(1)) * 1024 if m else None
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_context(root: str, workload: str, seed: int, data: dict) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        "python": platform.python_version(),
        **versions,
        "commit": _commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "input_sha256": gen.digest(data),
    }


def input_size(workload: str, data: dict, l3_bytes: int | None) -> dict:
    """The workload's stated input size, recorded next to its numbers."""
    if workload == "cli_workflow":
        return {
            "points_per_trace": gen.TRACE_POINTS,
            "samples_per_realization": int(gen.CLI_SAMPLE_RATE * gen.CLI_DURATION),
            "configs": len(data["configs"]),
        }
    if workload == "fit_batch":
        return {
            "points_per_trace": gen.TRACE_POINTS,
            "formulas_per_op": 2,
            "operating_points": len(data["points"]),
            "noise_level": data["noise_level"],
        }
    n = int(round(data["sample_rate"] * data["duration"]))
    return {
        "samples_per_realization": n,
        # the seven white-noise rows drawn per realization, float64
        "noise_draw_bytes": 7 * 8 * n,
        "l3_bytes": l3_bytes,
    }


def _worker(args, mode: str, workdir: str, results: str, root: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", workdir,
        "--results", results,
        "--t0",
    ]
    # Bytecode caching on, as for an installed package; it lands in setup.
    # Workers and the ops they start inherit this environment.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd + [repr(t0)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and every op it started
        proc.communicate()
        raise RuntimeError(f"worker ({mode}) did not finish within {RUN_BUDGET_S} s of the start")
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(workload: str, setups: list[float], run: dict) -> dict:
    ops = run["ops"]
    wall = [op["wall_s"] for op in ops]
    failed = sum(op["error"] is not None for op in ops)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / run["elapsed_s"],
        "op_p50_s": statistics.median(wall),
        "op_tail_s": float(np.percentile(wall, TAIL_PERCENTILE[workload])),
        "op_cpu_p50_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_share": (len(ops) - failed) / len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _fail("--seconds must be > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "phaseff", "__init__.py")):
        return _fail(f"no phaseff source at {os.path.join(root, 'src')}; run from a checkout root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        data = gen.generate(args.workload, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    context = run_context(root, args.workload, args.seed, data)
    base = os.path.join(root, ".perfbench")
    results = os.path.join(base, "results")
    workdir = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(workdir)
    try:
        workers = [
            _worker(args, "setup", workdir, results, root, deadline)
            for _ in range(0 if args.trace else SETUPS - 1)
        ]
        run = _worker(args, "trace" if args.trace else "run", workdir, results, root, deadline)
        workers.append(run)
        if args.trace:
            values = run["layers"]
            ops = run["ops"] + run["traced_ops"]
        else:
            values = end_to_end(args.workload, [w["setup_s"] for w in workers], run)
            ops = run["ops"]
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(w["input_digest"] != context["input_sha256"] for w in workers):
        return _fail("worker generated different inputs from the same seed")
    missing = sorted(set(units) - set(values))
    if missing:
        return _fail(f"run produced no value for {missing}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed = sum(op["error"] is not None for op in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    size = input_size(args.workload, data, context["l3_bytes"])
    if not args.trace and context["l3_bytes"]:
        size["peak_rss_over_l3"] = values["peak_rss_mb"] * 2**20 / context["l3_bytes"]
    record = {
        "context": context,
        "input_size": size,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "trace": args.trace,
        "workers": workers,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)

    print("context " + json.dumps({**context, "input_size": record["input_size"]}))
    for op in ops:
        if op["error"] is not None:
            print(f"FAILED op {op['i']} ({op['kind']}): {op['error']}")
    print(f"{args.workload}: {len(ops)} ops, op_tail_s at p{TAIL_PERCENTILE[args.workload]}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
