"""The logmonoid benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cone-resolve --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --table

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes one untraced and one traced pass over the same
inputs and reports the per-layer metrics.  The last line of stdout is the
result object; the lines before it give the environment, the tail
percentile, the output digests and any failures.  See NOTES.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, import_times, per_layer_metrics
from workloads import (ROOT, WORKLOADS, Exhausted, clear_multiplicity_cache, digest,
                       import_package, program_env)

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
# The host is shared and the speed at which it runs Python drifts by tens of
# percent within a second and over minutes, for the program and for any
# fixed loop alike.  A fixed pure-Python loop (the speed probe) runs between
# operations, outside their timing, after every PROBE_EVERY_S of operation
# time; each operation's time is scaled by REFERENCE_PROBE_S / (median of the
# probes taken within PROBE_WINDOW_S of it, in operation time), so that it
# reads as on a host that runs the probe in REFERENCE_PROBE_S.  The raw
# wall-clock figures are on the ``run`` line.
PROBE_ITERS = 5_000
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.5
REFERENCE_PROBE_S = 0.001
# Set-up is mostly process start and imports, whose speed on this host moves
# apart from that of the loop above; it is scaled by a probe of the same
# kind of work, a fresh interpreter importing numpy, taken between set-ups.
START_PROBE = [sys.executable, "-c", "import numpy"]
REFERENCE_START_S = 0.2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--table", action="store_true",
                   help="print the per-layer to end-to-end table and exit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.table and args.workload is None:
        p.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# environment and reporting


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    src = sorted((ROOT / "src" / "logmonoid").glob("*.py"))
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu": cpu, "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": digest(p.read_bytes() for p in src), "seed": seed,
            "timing": ("user-space wall clock (time.perf_counter), scaled by the speed"
                       " probes taken around each operation; no machine-level tracing")}


def tail(latencies):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it (the maximum when there are fewer than eleven)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0) if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def probe():
    """Seconds taken by the speed probe: a fixed loop of small-integer
    arithmetic, then a list of tuples built and sorted (allocation and
    comparisons).  Either half alone follows some of the package's work less
    well on this kind of host."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    pairs = [(i * 7919 % 1000, i) for i in range(PROBE_ITERS // 3)]
    pairs.sort()
    return time.perf_counter() - start


class Pass:
    """The timings of one pass: raw wall seconds, raw per-operation seconds,
    and the speed probes taken between operations as (operations done
    before it, seconds)."""

    def __init__(self, wall, latencies, probes):
        self.wall, self.latencies = wall, latencies
        self.probes = [seconds for _, seconds in probes]
        done = [0.0]
        for lat in latencies:
            done.append(done[-1] + lat)
        at = [(done[n], seconds) for n, seconds in probes]
        # the last probe before an operation was taken less than
        # PROBE_EVERY_S of operation time before it, so no window is empty
        self.scaled_latencies = [
            lat * REFERENCE_PROBE_S / statistics.median(
                seconds for t, seconds in at
                if abs(t - (start + lat / 2)) <= PROBE_WINDOW_S + lat / 2)
            for start, lat in zip(done, latencies)]
        self.scaled_wall = self.wall * sum(self.scaled_latencies) / sum(latencies)


def run_ops(wl, ops, tracer=None):
    """Runs the operations back to back, with a speed probe before the first,
    after the last, and between two whenever PROBE_EVERY_S of operation time
    has passed since the last probe; returns (Pass, [(op, output or None,
    error or None)]).  The wall time of
    the pass leaves the probes out."""
    latencies, records, probes = [], [], [(0, probe())]
    since_probe = probe_s = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            out = wl.run(op) if tracer is None else \
                tracer.op_span(i, op.kind, lambda: wl.run(op))
            err = None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        done = time.perf_counter()
        latencies.append(done - t)
        records.append((op, out, err))
        since_probe += done - t
        if since_probe >= PROBE_EVERY_S or i == len(ops) - 1:
            probes.append((i + 1, probe()))
            since_probe = 0.0
            probe_s += time.perf_counter() - done
    return Pass(time.perf_counter() - start - probe_s, latencies, probes), records


def pass_digest(wl, records):
    """Hash of the canonical form of every output of a pass, in order."""
    return digest(wl.canon(op, out) if out is not None else "error"
                  for op, out, _ in records)


def check_all(wl, records):
    """(every failure message, number of failed operations)."""
    failures, failed = [], 0
    for op, out, err in records:
        fails = [err] if err else wl.check(op, out)
        failures += fails
        failed += bool(fails)
    return failures, failed


def start_probe():
    """Seconds taken by the start-up probe (START_PROBE)."""
    start = time.perf_counter()
    subprocess.run(START_PROBE, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def setup_seconds(args):
    """Median wall time, over fresh processes, from process start to the end
    of import, input generation and warm-up: (scaled by the mean of the
    start-up probes taken just before and just after each process, raw,
    median start-up probe)."""
    times, scaled, probes = [], [], [start_probe()]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up run failed")
        probes.append(start_probe())
        times.append(elapsed)
        scaled.append(elapsed * REFERENCE_START_S / ((probes[-2] + probes[-1]) / 2))
    return statistics.median(scaled), statistics.median(times), statistics.median(probes)


def measure(wl, args):
    """Untraced: the workload's ``max_passes`` whole passes, fewer if the
    next would end past --seconds or the workload runs out of fresh inputs.
    A fixed pass count keeps the work of a run, and so the rank of the tail
    sample, the same from run to run; with at most 8 passes the costliest
    operation of a pass occurs at most 8 times, and the tail (10 samples
    beyond it) does not land on it.  The timings are scaled by the speed
    probes taken around each operation."""
    wall, passes, records, pass_digests = 0.0, [], [], []
    k = 0
    while True:
        try:
            ops = wl.pass_ops(k)
        except Exhausted:
            break
        timing, recs = run_ops(wl, ops)
        wall += timing.wall
        passes.append(timing)
        records += recs
        pass_digests.append(pass_digest(wl, recs))
        k += 1
        if k >= wl.max_passes or wall + wall / k / 2 >= args.seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.subprocess_ops
                               else resource.RUSAGE_SELF)
    failures, failed = check_all(wl, records)
    latencies = [lat for p in passes for lat in p.scaled_latencies]
    raw_latencies = [lat for p in passes for lat in p.latencies]
    value, pct, n = tail(latencies)
    setup, raw_setup, start_probe_s = setup_seconds(args)
    attempted = len(records)
    metrics = {
        "ops_per_s": (attempted / sum(p.scaled_wall for p in passes), "ops/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (value * 1000, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MiB"),
        "setup_s": (setup, "s"),
    }
    raw = {"ops_per_s": attempted / wall,
           "latency_p50_ms": statistics.median(raw_latencies) * 1000,
           "latency_tail_ms": tail(raw_latencies)[0] * 1000, "setup_s": raw_setup}
    info = {"passes": k, "timed_s": round(wall, 3),
            "pass_ops_per_s": [round(len(p.latencies) / p.scaled_wall, 3) for p in passes],
            "pass_probe_ms": [round(statistics.median(p.probes) * 1000, 4) for p in passes],
            "setup_start_probe_ms": round(start_probe_s * 1000, 2),
            "raw_wall_clock": {name: round(v, 4) for name, v in raw.items()},
            "latency_tail": f"p{pct:.1f} of {n} samples",
            "repeated_inputs": getattr(wl, "repeats", 0), "pass_digests": pass_digests}
    return metrics, info, attempted, failed, failures


def measure_traced(wl, args):
    """Traced: one untraced and one traced pass over the same inputs, each
    from an empty multiplicity cache."""
    if wl.subprocess_ops:
        wl.inprocess()
    ops = wl.pass_ops(0)
    cc = import_package()[0]
    clear_multiplicity_cache(cc)
    plain_timing, plain = run_ops(wl, ops)
    tracer = Tracer()
    tracer.install()
    clear_multiplicity_cache(cc)
    traced_timing, traced = run_ops(wl, ops, tracer)
    records = plain + traced
    failures, failed = check_all(wl, records)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced_timing.scaled_wall / plain_timing.scaled_wall - 1
    values["cli.import_ms"], values["cli.import_numpy_ms"] = import_times(program_env(), ROOT)
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}
    info = {"ops_per_pass": len(ops), "spans": len(tracer.spans), "span_file": str(spans),
            "not_found": tracer.missing,
            "pass_digests": [pass_digest(wl, recs) for recs in (plain, traced)]}
    return metrics, info, len(records), failed, failures


def print_table():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    rows = json.loads((HERE / "layer_map.json").read_text())
    print("| per-layer metric | should move | on workload | predicted flat on |")
    print("| --- | --- | --- | --- |")
    for row in rows:
        for name in row["per_layer"] + row["moves"]:
            if name not in units:
                raise SystemExit(f"{name} is not a metric of BENCHMARK.json")
        layer = ", ".join(f"`{n}` ({units[n]})" for n in row["per_layer"])
        moves = ", ".join(f"`{n}`" for n in row["moves"])
        print(f"| {layer} | {moves} | {row['on']} | {row['flat_on']} |")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.table:
        return print_table()
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    wl.warmup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    env = environment(args.seed)
    if args.trace:
        metrics, info, attempted, failed, failures = measure_traced(wl, args)
    else:
        metrics, info, attempted, failed, failures = measure(wl, args)
    print("env " + json.dumps(env))
    print("run " + json.dumps(dict(workload=args.workload, trace=args.trace, **info)))
    for f in failures[:20]:
        print("FAIL " + f)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, run=info), indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
