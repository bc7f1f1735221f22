"""One fresh benchmark process: set a workload up, then run it.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|run|trace --t0 T --workdir DIR --results DIR

Run from the checkout root; phaseff is imported from its `src`.  `--t0` is
the parent's time.perf_counter() just before it started this process (the
clock is system-wide on Linux), so the reported setup time covers
interpreter start, `import phaseff`, input generation and one untimed
warm-up op of each kind.  The last stdout line is one JSON object.

`setup` stops there.  `run` then times a closed loop of ops for S seconds,
one client: each op starts when the previous one returns.  `trace` runs the same loop untraced, then
again with a span around every public call, then calls the layers' stage
functions directly (the probe), and derives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
_NULL = contextlib.nullcontext()


def no_span(name: str, calls: int = 1):
    return _NULL


class Tracer:
    """Spans kept in memory: name, start, end, parent index, op id, and the
    number of calls a span covers (cheap calls are timed in batches)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        record = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "calls": calls,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter() - self._t0
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def per_call(self, name: str) -> list[float]:
        return [
            (s["end"] - s["start"]) / s["calls"] for s in self.spans if s["name"] == name
        ]


def peak_rss_mb(status: str | None = None) -> float:
    """VmHWM, the peak RSS of this process image since its exec (unlike
    ru_maxrss, which keeps the parent's size from before the exec)."""
    if status is None:
        try:
            with open("/proc/self/status") as handle:
                status = handle.read()
        except OSError:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
    return int(m.group(1)) / 1024.0


def timed_phase(w, seconds: float, span, tracer: Tracer | None = None) -> dict:
    """Closed loop for `seconds`; outputs are checked after the clock stops."""
    ops, results = [], []
    i = w.first_op
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = i
        kind = w.kind(i)
        error = result = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with span(f"op.{kind}"):
                result = w.run(i, span)
        except Exception as exc:  # an op that raises counts as failed
            error = f"raised {exc!r}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        op = {"i": i, "kind": kind, "wall_s": wall, "cpu_s": cpu, "error": error}
        if w.ops_in_children and result is not None:
            op["cpu_s"] += result["cpu_s"]
            op["maxrss_mb"] = result["maxrss_kb"] / 1024.0
        ops.append(op)
        results.append(result)
        i += 1
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    for op, result in zip(ops, results):
        if op["error"] is None:
            try:
                op["error"] = w.check(op["i"], result)
            except Exception as exc:
                op["error"] = f"check raised {exc!r}"
    return {"elapsed_s": elapsed, "ops": ops, "results": results}


def _repeat(span, name: str, fn, calls: int, reps: int = 7) -> None:
    for _ in range(reps):
        with span(name, calls):
            for _ in range(calls):
                fn()


def _cumulative_s(importtime: str, package: str) -> float:
    """Cumulative -X importtime of a package.  A package whose own line is
    missing (scipy loads subpackages lazily) is the sum of its shallowest
    submodule lines."""
    entries = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m and (m.group(3) == package or m.group(3).startswith(package + ".")):
            entries.append((len(m.group(2)), int(m.group(1))))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def import_probe(reps: int = 3) -> dict:
    """`import phaseff` in fresh interpreters under -X importtime."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import phaseff\nprint(open('/proc/self/status').read())"
    total, scipy_signal, rss = [], [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import phaseff failed: {proc.stderr[-300:]}")
        total.append(_cumulative_s(proc.stderr, "phaseff"))
        scipy_signal.append(_cumulative_s(proc.stderr, "scipy.signal"))
        rss.append(peak_rss_mb(proc.stdout))
    return {
        "init.import_s": statistics.median(total),
        "init.import_scipy_signal_s": statistics.median(scipy_signal),
        "init.import_rss_mb": statistics.median(rss),
    }


def probe(tracer: Tracer, seed: int, workdir: str) -> dict:
    """Call each layer's public functions directly on the seed's inputs.

    Covers the stages that ops reach only through another public function
    (oracle_compare's stages, fit_gain's spectrum formulas) and the layers a
    workload does not reach, so every traced run reports every layer.
    """
    import numpy as np

    import inputs as gen
    import phaseff
    import workloads

    tracer.op = "probe"
    span = tracer.span
    found: dict = {"fits": [], "rows": []}

    # cli: the README commands replayed in-process, then the file helpers.
    cli = workloads.CliWorkflow(gen.cli_inputs(seed), workdir, SRC)
    for _ in range(3):
        for i in range(len(gen.CLI_COMMANDS)):
            with span(f"cli.main.{cli.kind(i)}"), contextlib.redirect_stdout(io.StringIO()):
                code = phaseff.cli.main(cli.argv(i))
            if code != 0:
                raise RuntimeError(f"cli.main {cli.argv(i)} exited {code}")
    config_path = cli.paths[0]
    p = phaseff.load_config(config_path).network
    trace = phaseff.run_sweep(p, gen.TRACE_POINTS, "paper", detected=True)
    csv_path = os.path.join(workdir, "probe_trace.csv")
    _repeat(span, "cli.load_config", lambda: phaseff.load_config(config_path), 20)
    _repeat(span, "cli.emit", lambda: phaseff.emit(trace, csv_path, "csv"), 20)
    _repeat(span, "cli.load_trace_csv", lambda: phaseff.load_trace_csv(csv_path, True), 20)

    # cli fit and sweep, through one fit_batch op.
    fit = workloads.FitBatch(gen.fit_inputs(seed), workdir, SRC)
    found["fits"].append(fit.run(0, span))

    # network and algebra on one operating point and the 361-point grid.
    p = phaseff.NetworkParams(**fit.points[0]["network"])
    grid = np.linspace(0.0, 2.0 * math.pi, gen.TRACE_POINTS)
    phi = math.pi / 4.0
    expansion = phaseff.output_expansion(p, phi)
    sources = phaseff.SourceVariances.vacuum(input_phase=p.v_phase_in)
    _repeat(span, "network.spectrum_from_modes", lambda: phaseff.spectrum_from_modes(p, grid), 2)
    _repeat(span, "network.spectrum_closed_form", lambda: phaseff.spectrum_closed_form(p, grid), 200)
    _repeat(span, "network.output_expansion", lambda: phaseff.output_expansion(p, phi), 500)
    _repeat(span, "network.phase_variance", lambda: phaseff.phase_variance(p), 2000)
    _repeat(span, "network.transfer_ratio", lambda: phaseff.transfer_ratio(p), 2000)
    _repeat(span, "algebra.variance_of", lambda: phaseff.variance_of(expansion, sources), 2000)

    # montecarlo: the stages of one flat realization, both kernels on one
    # photocurrent-sized series, one op of each kind, and the allocation peak.
    mc = workloads.McLong(gen.mc_inputs(seed), workdir, SRC)
    flat_i, band_i = mc.warmup_ops
    flat_cfg, band_cfg = mc.config(flat_i), mc.config(band_i)
    with span("montecarlo.simulate_streams.flat"):
        streams = phaseff.simulate_streams(flat_cfg)
    series = streams.at_angle(mc.ops[flat_i]["phi"])
    del streams
    with span("montecarlo.estimate_psd"):
        estimate = phaseff.estimate_psd(series, mc.sample_rate)
    del series
    with span("montecarlo.band_average"):
        phaseff.band_average(estimate)
    photocurrent = np.random.default_rng([seed, 4]).standard_normal(mc.n_samples)
    with span("montecarlo.apply_kernel.flat"):
        phaseff.apply_kernel(flat_cfg.kernel, photocurrent, flat_cfg.params, mc.sample_rate)
    with span("montecarlo.apply_kernel.bandpass"):
        phaseff.apply_kernel(band_cfg.kernel, photocurrent, band_cfg.params, mc.sample_rate)
    del photocurrent
    mc.run(band_i, span)
    found["rows"].append(mc.run(flat_i, span))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        phaseff.oracle_compare(flat_cfg, [mc.ops[flat_i]["phi"]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    found["peak_alloc_bytes_per_sample"] = peak / mc.n_samples
    found["n_samples"] = mc.n_samples
    tracer.op = None
    return found


def layer_metrics(workload: str, tracer: Tracer, plain: dict, traced: dict, found: dict) -> dict:
    metrics = import_probe()
    for name in sorted({s["name"] for s in tracer.spans}):
        if not name.startswith("op."):
            metrics[f"{name}_s"] = statistics.median(tracer.per_call(name))
    fits, rows = list(found["fits"]), list(found["rows"])
    for op, result in zip(traced["ops"], traced["results"]):
        if result is None:
            continue
        if workload == "fit_batch":
            fits.append(result)
        elif workload == "mc_long" and op["kind"] == "flat":
            rows.append(result)
    metrics["cli.fit_gain.iterations"] = statistics.median(
        fit.iterations for by_formula in fits for fit in by_formula.values()
    )
    metrics["montecarlo.samples_per_s"] = found["n_samples"] / statistics.median(
        tracer.per_call("montecarlo.oracle_compare")
    )
    metrics["montecarlo.peak_alloc_bytes_per_sample"] = found["peak_alloc_bytes_per_sample"]
    metrics["montecarlo.rows_within_3sigma_share"] = sum(
        row.within_tolerance for row in rows
    ) / len(rows)
    p50_plain = statistics.median(op["wall_s"] for op in plain["ops"])
    p50_traced = statistics.median(op["wall_s"] for op in traced["ops"])
    metrics["trace.overhead_share"] = (p50_traced - p50_plain) / p50_plain
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--results", required=True)
    args = parser.parse_args(argv)

    launcher = None
    if args.workload == "cli_workflow":
        launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
    try:
        out = measure(args, launcher)
    finally:
        if launcher is not None:
            launcher.stdin.close()
            launcher.wait()
    print(json.dumps(out))
    return 0


def measure(args, launcher) -> dict:
    sys.path.insert(0, SRC)
    import inputs as gen
    import phaseff
    import workloads

    origin = os.path.dirname(os.path.abspath(phaseff.__file__))
    if origin != os.path.join(SRC, "phaseff"):
        raise RuntimeError(f"phaseff imported from {origin}, not from {SRC}")
    data = gen.generate(args.workload, args.seed)
    w = workloads.WORKLOAD_CLASSES[args.workload](data, args.workdir, SRC, launcher)
    for i in w.warmup_ops:
        w.run(i, no_span)
    setup_s = time.perf_counter() - args.t0
    out = {"setup_s": setup_s, "input_digest": gen.digest(data)}
    if args.mode == "setup":
        return out
    plain = timed_phase(w, args.seconds, no_span)
    out["elapsed_s"] = plain["elapsed_s"]
    out["ops"] = plain["ops"]
    if w.ops_in_children:
        out["peak_rss_mb"] = max(op.get("maxrss_mb", 0.0) for op in plain["ops"])
    else:
        out["peak_rss_mb"] = peak_rss_mb()
    if args.mode == "trace":
        tracer = Tracer()
        traced = timed_phase(w, args.seconds, tracer.span, tracer)
        found = probe(tracer, args.seed, args.workdir)
        out["traced_ops"] = traced["ops"]
        out["layers"] = layer_metrics(args.workload, tracer, plain, traced, found)
        spans_path = os.path.join(args.results, f"{args.workload}-seed{args.seed}-spans.json")
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
    return out


if __name__ == "__main__":
    sys.exit(main())
