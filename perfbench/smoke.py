"""Smoke test of the benchmark itself: a few operations per workload.

    python3 perfbench/smoke.py

For every workload it makes one short untraced run and one traced run on
the same seed, and checks that every metric named in BENCHMARK.json appears
with its unit, that no operation failed, and that the output digest of the
first pass is the same in both runs.  It also checks that the per-layer
names in BENCHMARK.json are the ones the tracer reports, and that the
per-layer to end-to-end table prints.  Exits non-zero on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import per_layer_metrics  # noqa: E402


def run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line[4:] for line in lines if line.startswith("run ")))
    return json.loads(lines[-1]), info


def check(cond, msg):
    if not cond:
        raise SystemExit(f"smoke: {msg}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced_names = [(name, unit) for name, unit, _ in per_layer_metrics()]
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == traced_names,
          "BENCHMARK.json per_layer differs from the tracer's metrics")
    table = subprocess.run([sys.executable, str(HERE / "run.py"), "--table"], cwd=ROOT,
                           capture_output=True, text=True)
    check(table.returncode == 0 and table.stdout.count("\n") > 3, "--table failed")
    for wl in bench["workloads"]:
        name = wl["name"]
        digests = []
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, info = run("--workload", name, "--seed", "7", "--seconds", "1",
                               "--trace", str(trace))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace {trace}: {result['failed']} failed operations")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      f"{name} trace {trace}: metric {metric['name']} missing or "
                      f"not in {metric['unit']}")
            check(len(result["metrics"]) == len(wanted),
                  f"{name} trace {trace}: unexpected metrics")
            digests += info["pass_digests"][:2 if trace else 1]
        check(result["metrics"]["trace.overhead_frac"]["value"] > -0.5,
              f"{name}: implausible tracing overhead")
        check(len(set(digests)) == 1, f"{name}: output digests differ {digests}")
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
