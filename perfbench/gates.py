"""Correctness gates for the CLI outputs the benchmark times.

Each gate returns ``(attempted, failed, extra)``: the number of output
checks it made, how many of them failed, and per-workload details.  The
enumerate gate's reference is a brute-force search written here from the
action formula, so that it stays independent of ``hopfact.effectiveness``.
"""

import csv
import io
import json
import random

from workloads import grid

CSV_HEADER = ["n", "m", "kind", "p", "q", "r", "effective", "witness_ell", "witness_K"]

# Tolerances run_full_verification applies to each check; the report
# itself only carries the default one.
CHECK_TOL = {"power_branch": 1e-12, "dimtwo": 1e-10}
RESIDUAL_CHECKS = ("group_law", "well_definedness", "transitivity", "power_branch", "dimtwo")


def brute_witness(n: int, m: int, kind: str, p: int, q: int, r: int):
    """Lexicographically smallest (ell, K) of a nontrivial kernel scalar.

    The scalar A = e^{i*phi} id, phi = 2*pi*(ell/(n*r) + k/n), splits as
    t = 2*pi*ell/(n*r) and B = e^{i(phi - t)} id, so it maps z to
    e^{i*sigma*t} d^ell e^{i*eps*(phi - t)} z with sigma = eps + (p + q/m)*n.
    That is the deck element d^ell e^{2*pi*i*K/m} iff
    sigma*ell/(n*r) + eps*k/n - K/m is an integer, and A != id iff
    ell/(n*r) + k/n is not.  Both conditions are periodic in ell with
    period |m*n*r|, so searching one period is complete.  Returns None when
    the action is effective.
    """
    eps = 1 if kind == "type1" else -1
    a = eps * m + n * (p * m + q)      # sigma * m
    period = abs(m * n * r)
    for ell in range(period):
        for K in range(m):
            for k in range(n):
                if (a * ell + eps * k * m * r - K * n * r) % period == 0 \
                        and (ell + k * r) % abs(n * r) != 0:
                    return ell, K
    return None


def enumerate_gate(exit_code, text: str, config: dict, seed: int, samples: int = 150):
    """Exit code, row count, sort order and a seeded sample of verdicts and
    witnesses."""
    expected = grid(config["ranges"])
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    rows = list(reader)
    keys = []
    try:
        for row in rows:
            n, m, kind, p, q, r, effective, ell, K = row
            if effective == "false":
                int(ell), int(K)
            elif (effective, ell, K) != ("true", "", ""):
                raise ValueError(f"malformed row {row!r}")
            keys.append((int(n), int(m), kind, int(p), int(q), int(r)))
    except ValueError:
        keys = None
    samples = min(samples, len(expected))
    failures = {"exit_code": int(exit_code != 0),
                "header": int(header != CSV_HEADER),
                "row_count": int(len(rows) != len(expected)),
                "rows_sorted_and_well_formed": int(keys != expected),
                "sampled_verdicts": samples}
    if keys == expected:
        pick = random.Random(f"sample:{seed}").sample(range(len(rows)), samples)
        failures["sampled_verdicts"] = 0
        for i in pick:
            row = rows[i]
            got = None if row[6] == "true" else (int(row[7]), int(row[8]))
            failures["sampled_verdicts"] += int(got != brute_witness(*keys[i]))
    return len(failures) - 1 + samples, sum(failures.values()), \
        {"exit_code": exit_code, "rows": len(rows), "failures": failures}


def expected_checks(n: int, kind: str, trials: int) -> dict:
    """Check names and trial counts that run_full_verification reports."""
    checks = {"group_law": trials, "well_definedness": max(trials // 4, 1),
              "transitivity": trials, "power_branch": max(trials // 10, 1)}
    if n == 2 and kind == "type2":
        checks["dimtwo"] = trials // 2 or 1
    checks["kernel_scan_agreement"] = 10
    return checks


def verify_gate(exit_code, text: str, config: dict):
    """Exit code, report shape, trial counts, every pass flag, kernel agreement."""
    trials = config["trials"]
    specs = grid(config["ranges"])
    wanted = [expected_checks(n, kind, trials) for n, _, kind, _, _, _ in specs]
    attempted = sum(len(w) for w in wanted)
    ratios = {}
    reports = None
    if exit_code in (0, 3):
        try:
            reports = json.loads(text)
        except ValueError:
            pass
        if isinstance(reports, dict):
            reports = [reports]
    if not isinstance(reports, list):
        return attempted, attempted, {"exit_code": exit_code, "ratios": ratios}
    failed = max(len(reports) - len(specs), 0)
    for i, (spec, want) in enumerate(zip(specs, wanted)):
        report = reports[i] if i < len(reports) else None
        got = report.get("spec") if isinstance(report, dict) else None
        if not isinstance(got, dict) or got.get("d") != config["d"] or tuple(
                got.get(key) for key in ("n", "m", "kind", "p", "q", "r")) != spec:
            failed += len(want)
            continue
        seen = {check.get("name"): check for check in report.get("checks", [])}
        for name, count in want.items():
            check = seen.pop(name, None)
            ok = (check is not None and check.get("trials") == count
                  and check.get("pass") is True)
            failed += int(not ok)
            tol = CHECK_TOL.get(name, report.get("tol"))
            if ok and name in RESIDUAL_CHECKS and isinstance(tol, float):
                ratio = float(check["max_residual"]) / tol
                ratios[name] = max(ratios.get(name, 0.0), ratio)
        failed += len(seen)
    if exit_code != 0 and failed == 0:
        failed = 1
    return attempted, min(failed, attempted), {"exit_code": exit_code, "ratios": ratios}
