"""End-to-end and per-layer benchmark of the hopfact CLI.

    python3 perfbench/run.py --workload verify_range --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload verify_range --seed 3 --seconds 35 --trace 1 --out r.json
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from its
``src`` directory.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json: mean pass wall time, the median import time of
``hopfact.cli`` over fresh interpreters, and the workload process's peak
RSS.  ``--trace 1`` reports the per-layer metrics from a traced run.  The
last line of stdout is the machine-readable result; the ``record`` line
before it holds every measurement with the environment it was taken in.
``--smoke`` runs each workload at a tiny size, in both modes, and checks
that the printed metric names are those BENCHMARK.json declares.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
SETUP_PROBE = ("import time; start = time.perf_counter(); import hopfact.cli; "
               "print(time.perf_counter() - start)")
RUN_LIMIT_S = 170


def program_env() -> dict:
    """The checkout's sources first on the path, and OpenBLAS kept to the
    calling thread so that the program runs as one single-threaded process."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
                OPENBLAS_NUM_THREADS="1")


def measure_setup(env) -> list:
    """Import time of hopfact.cli in fresh interpreters; the first probe
    only warms the file cache and byte-code and is dropped."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_worker(args, env, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: workload {args.workload} did not finish in {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(samples):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it
    (nearest rank), as (percentile, value); None with fewer than 20 samples."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return rev.stdout.strip() or None


def measure(args, declared) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = program_env()
    setup = measure_setup(env) if not args.trace else None
    worker = run_worker(args, env, deadline - time.monotonic())
    walls = worker["walls"]
    if args.trace:
        values = worker["trace"]
    else:
        # The host's speed switches between two levels in phases longer than
        # a pass; the mean of the passes moves smoothly with the share of
        # slow time, where the median jumps between the levels.
        values = {"wall_s": statistics.mean(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": worker["peak_rss_mb"]}
    wall_tail = tail(walls)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "git_revision": git_revision(), "python": worker["python"],
        "numpy": worker["numpy"], "backend": worker["backend"], "cpu_count": os.cpu_count(),
        "input_size": worker["job"]["input_size"], "config": worker["job"]["config"],
        "argv": worker["job"]["argv"], "exit_code": worker["exit_code"],
        "stderr": worker["stderr"], "gate": worker["gate"],
        "untraced_functions": worker.get("untraced_functions"),
        "attempted": worker["attempted"], "failed": worker["failed"],
        "fail_frac": worker["failed"] / worker["attempted"],
        "wall_s_samples": walls, "wall_s_median": statistics.median(walls),
        "setup_s_samples": setup,
        "wall_s_tail": None if wall_tail is None else
            {"percentile": wall_tail[0], "value": wall_tail[1], "samples": len(walls)},
        "metrics": values,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return record, {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                    "failed": worker["failed"], "metrics": metrics}


def smoke(bench) -> int:
    """Every workload at smoke scale in both modes; the printed metric names
    must be exactly those BENCHMARK.json declares, and the outputs correct."""
    problems = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload["name"], "--seed", "0", "--seconds", "0", "--trace",
                   str(trace), "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_LIMIT_S)
            label = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in bench[key]}
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            if printed != declared:
                problems.append(f"{label}: printed metrics differ from BENCHMARK.json "
                                f"{sorted(set(printed) ^ set(declared))}")
            if not line["correct"]:
                problems.append(f"{label}: {line['failed']} of {line['attempted']} checks failed")
            print(f"smoke {label}: {len(printed)} metrics, "
                  f"{line['attempted'] - line['failed']}/{line['attempted']} checks ok")
    for problem in problems:
        print(f"smoke FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the record, with the result, to this file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "hopfact" / "__init__.py").is_file():
        print(f"error: no hopfact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    declared = bench["per_layer" if args.trace else "end_to_end"]
    record, line = measure(args, declared)
    for name, metric in line["metrics"].items():
        print(f"{name:<52} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_frac':<52} {record['fail_frac']:.6g} "
          f"({line['failed']} of {line['attempted']} output checks)")
    print("record " + json.dumps(record))
    if args.out:
        Path(args.out).write_text(json.dumps({**record, "result": line}, indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
