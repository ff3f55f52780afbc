"""One workload in one fresh interpreter: timed passes through hopfact.cli.main.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``,
so that this process's peak RSS and import cost belong to the workload
alone.  The first pass warms up and its output is checked by the gates;
every later pass must reproduce it exactly.  Prints one JSON object.

    python3 perfbench/worker.py --workload verify_deep --seed 1 --seconds 20 --trace 0
"""

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import sys
import time

import numpy as np

import gates
import workloads
from spans import Tracer

TARGETS = (
    "cli.main", "cli.cmd_enumerate", "cli.cmd_verify", "cli._enumerate_rows", "cli._emit",
    "serialize.spec_from_config",
    "effectiveness.find_witness", "effectiveness.is_effective",
    "oracle.run_full_verification", "oracle.numeric_kernel_scan",
    "oracle.kernel_scan_agrees", "oracle.verify_group_law",
    "oracle.verify_well_definedness", "oracle.verify_transitivity",
    "oracle.verify_power_branch", "oracle.verify_dimtwo",
    "action.act", "action.evaluate_formula", "action.solve_transport",
    "hopf.orbit_distance",
    "cmatrix.random_unitary", "cmatrix.su_decompose",
)
SPEC_LATENCY = "oracle.run_full_verification"
MIN_PASSES = 3


def count_scan(counters, args, kwargs, result):
    """Cells the kernel scan visits (|r|*m*n per spec) and pairs it returns."""
    spec = args[0] if args else kwargs["spec"]
    counters["cells"] = counters.get("cells", 0) + abs(spec.r) * spec.params.m * spec.params.n
    counters["hits"] = counters.get("hits", 0) + len(result)


def run_pass(cli, argv, config_text):
    """One CLI invocation with the config on stdin; returns (exit, seconds, out, err)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(config_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash of the program under test is a result
                code = f"crash: {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, seconds, out.getvalue(), err.getvalue()


def compare_scan_backends(config):
    """Compiled and pure-Python scans on the same inputs, when both exist."""
    try:
        from hopfact import _scan_core, _scan_py
    except ImportError:
        return None
    from hopfact import oracle, serialize
    mismatches = 0
    specs = workloads.grid(config["ranges"])
    for n, m, kind, p, q, r in specs:
        spec = serialize.spec_from_config({"n": n, "m": m, "kind": kind, "p": p,
                                           "q": q, "r": r, "d": config["d"]})
        z = oracle.sample_points(spec.params, 10, config["seed"] + 6)
        w = np.ascontiguousarray((spec.C @ (spec.C_inv @ z.T)).T)
        job = (spec.kind.eps, n, m, p, q, r, complex(spec.params.d), w,
               np.ascontiguousarray(z), 1e-9)
        mismatches += int(_scan_core.scan_lattice(*job) != _scan_py.scan_lattice(*job))
    return len(specs), mismatches


def timed_passes(cli, argv, config_text, seconds, tracer):
    """A warm-up pass, then passes until ``seconds`` have gone by since it
    started and at least MIN_PASSES ran (of each kind, when tracing: the
    passes alternate untraced and traced).  Returns the warm-up's exit code,
    output and stderr, and per pass its time, whether its exit code or
    output differed from the warm-up's, and, when traced, its span summary."""
    start = time.perf_counter()
    code, _, output, stderr = run_pass(cli, argv, config_text)
    passes = []
    while True:
        untraced = sum("spans" not in p for p in passes)
        traced = len(passes) - untraced
        if (untraced >= MIN_PASSES and (tracer is None or traced >= MIN_PASSES)
                and time.perf_counter() - start >= seconds):
            return code, output, stderr, passes
        trace_this = tracer is not None and traced < untraced
        if trace_this:
            tracer.install()
        try:
            pass_code, pass_seconds, pass_output, _ = run_pass(cli, argv, config_text)
        finally:
            if trace_this:
                tracer.uninstall()
        record = {"seconds": pass_seconds,
                  "mismatch": int(pass_code != code or pass_output != output)}
        if trace_this:
            record["spans"] = tracer.pass_summary(durations_of=(SPEC_LATENCY,))
        passes.append(record)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()

    import hopfact
    import hopfact.cli as cli

    job = workloads.make(args.workload, args.seed, args.scale)
    config, argv = job["config"], job["argv"]
    tracer = Tracer(TARGETS, hooks={"oracle.numeric_kernel_scan": count_scan}) \
        if args.trace else None

    code, output, stderr, passes = timed_passes(cli, argv, json.dumps(config),
                                                args.seconds, tracer)
    walls = [p["seconds"] for p in passes if "spans" not in p]
    traced = [p for p in passes if "spans" in p]
    mismatched = sum(p["mismatch"] for p in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if argv[0] == "enumerate":
        attempted, failed, gate = gates.enumerate_gate(code, output, config, args.seed)
    else:
        attempted, failed, gate = gates.verify_gate(code, output, config)
    attempted += len(passes)
    failed += mismatched
    gate["passes_reproducing_first_output"] = len(passes) - mismatched
    if args.workload == "verify_range":
        compared = compare_scan_backends(config)
        gate["scan_backends_compared"] = compared is not None
        if compared is not None:
            attempted += compared[0]
            failed += compared[1]

    result = {
        "backend": getattr(hopfact, "BACKEND_NAME", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "exit_code": code,
        "stderr": stderr[-2000:],
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "gate": gate,
        "job": job,
    }
    if tracer is not None:
        result["trace"] = layer_metrics(traced, walls)
        ratios = gate.get("ratios", {})
        for check in gates.RESIDUAL_CHECKS:
            result["trace"][f"oracle.{check}.max_residual_over_tol"] = ratios.get(check, 0.0)
        result["untraced_functions"] = tracer.missing
    print(json.dumps(result))


def layer_metrics(traced, walls):
    """Per-function calls, self time and share of the traced pass, from the
    median over traced passes; the overhead is traced minus untraced wall."""
    summaries = [p["spans"] for p in traced]
    traced_walls = [p["seconds"] for p in traced]
    traced_wall = statistics.median(traced_walls)
    metrics = {"trace.wall_s": traced_wall,
               "trace.overhead_s": traced_wall - statistics.median(walls)}
    for target in TARGETS:
        metrics[f"{target}.calls"] = summaries[-1]["calls"][target]
        metrics[f"{target}.self_s"] = statistics.median(s["self_s"][target] for s in summaries)
        metrics[f"{target}.incl_s"] = statistics.median(s["incl_s"][target] for s in summaries)
        metrics[f"{target}.self_pct"] = statistics.median(
            100.0 * s["self_s"][target] / w for s, w in zip(summaries, traced_walls))
    counters = summaries[-1]["counters"]
    cells, hits = counters.get("cells", 0), counters.get("hits", 0)
    metrics["oracle.numeric_kernel_scan.cells"] = cells
    metrics["oracle.numeric_kernel_scan.hits"] = hits
    metrics["oracle.numeric_kernel_scan.hit_ratio"] = hits / cells if cells else 0.0
    latencies = [d for s in summaries for d in s["durations"][SPEC_LATENCY]]
    for pct in (50, 90):
        metrics[f"{SPEC_LATENCY}.p{pct}_ms"] = (
            1e3 * float(np.percentile(latencies, pct)) if latencies else 0.0)
    return metrics


if __name__ == "__main__":
    main()
