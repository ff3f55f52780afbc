"""Acceptance suite over the desk-scale grid.

Each test prints one PASS line with the measured evidence; criteria with a
stated runtime budget assert the elapsed time as well.  The kernel-scan
criterion runs on the documented reduced grid (|p|, |q|, |r| <= 2, single
d = 4) by default; set HOPFACT_FULL_GRID=1 to run it on all 84,672 specs
of the full grid as well, which takes about 55 s on a 2-vCPU VM (budget:
600 s).
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from hopfact.action import ActionKind, ActionSpec, match_example_to_type1
from hopfact.effectiveness import find_witness, is_effective, is_effective_corollary
from hopfact.hopf import HopfParams
from hopfact.oracle import (
    kernel_scan_agrees,
    verify_dimtwo,
    verify_group_law,
    verify_power_branch,
    verify_transitivity,
    verify_well_definedness,
)

import _witness_reference as reference
from _grid import (
    D_LIST,
    REDUCED_D,
    REDUCED_P,
    REDUCED_Q,
    REDUCED_R,
    arithmetic_tuples,
    fixed_C,
    grid_specs,
    reduced_grid_specs,
)


def sampled_effective_specs(count=20, seed=2026):
    """Deterministic sample from the effective subset of G."""
    effective = [t for t in arithmetic_tuples()
                 if find_witness(t[2], t[0], t[1], *t[3:]) is None]
    rng = np.random.Generator(np.random.Philox(seed))
    picks = rng.choice(len(effective), size=count, replace=False)
    specs = []
    for idx, pick in enumerate(picks):
        n, m, kind, p, q, r = effective[pick]
        d = D_LIST[idx % len(D_LIST)]
        c = np.eye(n, dtype=np.complex128) if idx % 2 == 0 else fixed_C(n)
        specs.append(ActionSpec(kind, p, q, r, c, HopfParams(d=d, n=n, m=m)))
    return specs


def test_criterion_1_coprimality():
    start = time.time()
    checked = 0
    for n, m, kind, p, q, r in arithmetic_tuples():
        if math.gcd(n, m) <= 1:
            continue
        assert find_witness(kind, n, m, p, q, r) is not None, \
            f"(n={n}, m={m}, kind={kind}, p={p}, q={q}, r={r}) wrongly effective"
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\n[criterion 1] coprimality: {checked} non-coprime specs all "
          f"non-effective in {elapsed:.2f}s -- PASS")


def test_criterion_2_corollary_agreement():
    start = time.time()
    checked = 0
    for n, m, kind, p, q, r in arithmetic_tuples(m_list=(1,)):
        full = find_witness(kind, n, m, p, q, r) is None
        # q/m merges into p's role when m = 1: the corollary sees p + q and
        # the verdict only depends on that sum
        assert full == is_effective_corollary(n, p + q, r, kind)
        assert full == reference.is_effective_corollary(n, p + q, r, kind)
        assert full == (find_witness(kind, n, 1, p + q, 0, r) is None)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\n[criterion 2] corollary agreement on {checked} m=1 specs in "
          f"{elapsed:.2f}s -- PASS")


def _run_kernel_agreement(specs, budget, label):
    start = time.time()
    count = 0
    for spec in specs:
        assert kernel_scan_agrees(spec, z_samples=10, tol=1e-9, seed=count), \
            f"exact/numeric kernel disagreement for {spec.kind} p={spec.p} " \
            f"q={spec.q} r={spec.r} n={spec.params.n} m={spec.params.m} " \
            f"d={spec.params.d}"
        count += 1
    elapsed = time.time() - start
    assert elapsed < budget
    print(f"\n[criterion 3] exact/oracle kernel agreement on {count} specs "
          f"({label}) in {elapsed:.1f}s -- PASS")


def test_criterion_3_kernel_agreement_reduced_grid():
    _run_kernel_agreement(reduced_grid_specs(), 60.0, "reduced grid")


@pytest.mark.skipif(not os.environ.get("HOPFACT_FULL_GRID"),
                    reason="the full grid takes about 55 s; set HOPFACT_FULL_GRID=1")
def test_criterion_3_kernel_agreement_full_grid():
    _run_kernel_agreement(grid_specs(), 600.0, "full grid")


def test_criterion_4_group_law_and_well_definedness():
    worst = 0.0
    for i, spec in enumerate(sampled_effective_specs()):
        gl = verify_group_law(spec, trials=200, seed=100 + i, tol=1e-8)
        wd = verify_well_definedness(spec, trials=200, seed=200 + i, tol=1e-8)
        assert gl.passed and wd.passed
        worst = max(worst, gl.max_residual, wd.max_residual)
    print(f"\n[criterion 4] group law + well-definedness, 20 specs x 200 "
          f"trials, max residual {worst:.2e} < 1e-8 -- PASS")


def test_criterion_5_transitivity():
    worst = worst_scaled = 0.0
    for i, spec in enumerate(sampled_effective_specs()):
        tr = verify_transitivity(spec, trials=200, seed=300 + i, tol=1e-8)
        scaled = verify_transitivity(spec, trials=50, seed=400 + i, tol=1e-7,
                                     log10_scale=3)
        assert tr.passed and scaled.passed
        worst = max(worst, tr.max_residual)
        worst_scaled = max(worst_scaled, scaled.max_residual)
    print(f"\n[criterion 5] transitivity, 20 specs x 200 pairs, max residual "
          f"{worst:.2e} < 1e-8 (ill-scaled {worst_scaled:.2e} < 1e-7) -- PASS")


def test_criterion_6_reference_action_embedding():
    for d, n in itertools.product((4, -2, 1 + 2j), (2, 3)):
        params = HopfParams(d=d, n=n, m=1)
        # raises if any of the 100 sampled residuals exceeds 1e-9
        spec = match_example_to_type1(params, samples=100, tol=1e-9)
        assert is_effective(spec).effective
    print("\n[criterion 6] reference action matches Type1 (p=q=0, r=1, C=id) "
          "at 1e-9 over 100 samples for all (d, n); matched specs effective "
          "-- PASS")


def test_criterion_7_power_branch_identity():
    specs = sampled_effective_specs(count=10, seed=7)
    worst = 0.0
    for i, spec in enumerate(specs):
        check = verify_power_branch(spec, trials=10, seed=500 + i, tol=1e-12)
        assert check.passed
        worst = max(worst, check.max_residual)
    print(f"\n[criterion 7] power-branch identity on 10 specs, L in "
          f"{{-2..2}}, max residual {worst:.2e} < 1e-12 -- PASS")


def test_criterion_8_dimtwo_identity():
    rng = np.random.Generator(np.random.Philox(8))
    pool = [t for t in arithmetic_tuples(n_list=(2,))
            if t[2] is ActionKind.TYPE2]
    picks = rng.choice(len(pool), size=10, replace=False)
    worst = 0.0
    for i, pick in enumerate(picks):
        n, m, kind, p, q, r = pool[pick]
        d = D_LIST[i % len(D_LIST)]
        c = np.eye(2, dtype=np.complex128) if i % 2 == 0 else fixed_C(2)
        spec = ActionSpec(kind, p, q, r, c, HopfParams(d=d, n=2, m=m))
        check = verify_dimtwo(spec, trials=100, seed=600 + i, tol=1e-10)
        assert check.passed
        worst = max(worst, check.max_residual)
    print(f"\n[criterion 8] n=2 conjugation identity on 10 Type2 specs x 100 "
          f"samples, max residual {worst:.2e} < 1e-10 -- PASS")


def test_criterion_9_period_bound():
    start = time.time()
    checked = 0
    for n, m, kind, p, q, r in arithmetic_tuples():
        modulus = abs(r) * m
        base = find_witness(kind, n, m, p, q, r)
        wide = reference.find_witness(kind, n, m, p, q, r,
                                      ell_range=range(-modulus, 2 * modulus))
        assert base == wide, (n, m, kind, p, q, r)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[criterion 9] period bound: closed-form witness equals the "
          f"threefold ell-window search on {checked} specs in {elapsed:.1f}s "
          f"-- PASS")
