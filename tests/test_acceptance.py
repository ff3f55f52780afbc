"""Acceptance suite over the desk-scale grid.

Each test prints one PASS line with the measured evidence; criteria with a
stated runtime budget assert the elapsed time as well.  The checks take a
SpecStack: a criterion on single specs runs each as its one-row stack
``SpecStack.of([spec])``, and criterion 10 runs every check of the suite
(``oracle.run_suite``) on all 84,672 specs of grid G, one stack per n and
d, in about 11 s on a 2-vCPU VM (budget: 60 s), the kernel agreement
included.  The per-spec kernel-scan criterion runs one spec at a time on
the documented reduced grid (|p|, |q|, |r| <= 2, single d = 4).
"""

import itertools
import math
import time

import numpy as np

from hopfact.action import ActionKind, ActionSpec, SpecStack
from hopfact.effectiveness import find_witness, is_effective, is_effective_corollary
from hopfact.hopf import HopfParams
from hopfact.oracle import (
    kernel_scan_agrees,
    run_suite,
    verify_dimtwo,
    verify_group_law,
    verify_power_branch,
    verify_transitivity,
    verify_well_definedness,
)

import _witness_reference as reference
from _example_reference import match_example_to_type1
from _grid import (
    D_LIST,
    KINDS,
    M_LIST,
    N_LIST,
    P_RANGE,
    Q_RANGE,
    R_RANGE,
    arithmetic_tuples,
    fixed_C,
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


def test_criterion_3_kernel_agreement_reduced_grid():
    start = time.time()
    count = 0
    for spec in reduced_grid_specs():
        assert kernel_scan_agrees(SpecStack.of([spec]), seed=count) == [True], \
            f"exact/numeric kernel disagreement for {spec.kind} p={spec.p} " \
            f"q={spec.q} r={spec.r} n={spec.params.n} m={spec.params.m} " \
            f"d={spec.params.d}"
        count += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[criterion 3] exact/oracle kernel agreement on {count} specs "
          f"(reduced grid) in {elapsed:.1f}s -- PASS")


def test_criterion_4_group_law_and_well_definedness():
    worst = 0.0
    for i, spec in enumerate(sampled_effective_specs()):
        stack = SpecStack.of([spec])
        gl = verify_group_law(stack, trials=200, seed=100 + i, tol=1e-8)
        wd = verify_well_definedness(stack, trials=200, seed=200 + i, tol=1e-8)
        assert gl.passed[0] and wd.passed[0]
        worst = max(worst, gl.residual[0], wd.residual[0])
    print(f"\n[criterion 4] group law + well-definedness, 20 specs x 200 "
          f"trials, max residual {worst:.2e} < 1e-8 -- PASS")


def test_criterion_5_transitivity():
    worst = worst_scaled = 0.0
    for i, spec in enumerate(sampled_effective_specs()):
        stack = SpecStack.of([spec])
        tr = verify_transitivity(stack, trials=200, seed=300 + i, tol=1e-8)
        scaled = verify_transitivity(stack, trials=50, seed=400 + i, tol=1e-7,
                                     log10_scale=3)
        assert tr.passed[0] and scaled.passed[0]
        worst = max(worst, tr.residual[0])
        worst_scaled = max(worst_scaled, scaled.residual[0])
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
        check = verify_power_branch(SpecStack.of([spec]), trials=10, seed=500 + i, tol=1e-12)
        assert check.passed[0]
        worst = max(worst, check.residual[0])
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
        check = verify_dimtwo(SpecStack.of([spec]), trials=100, seed=600 + i, tol=1e-10)
        assert check.passed[0]
        worst = max(worst, check.residual[0])
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


# the tol at which run_suite runs each sample check, at its default tol of 1e-8
SUITE_TOLS = {"group_law": 1e-8, "well_definedness": 1e-8, "transitivity": 1e-8,
              "power_branch": 1e-12, "dimtwo": 1e-10}


def test_criterion_10_every_check_on_grid_g():
    # one stack per (n, d), from grid G's columns with both Cs: 12 stacks of
    # 7,056 specs, 84,672 in all, each through every check at 8 trials
    start = time.time()
    worst = {}
    specs = 0
    for n, d in itertools.product(N_LIST, D_LIST):
        cs = (np.eye(n, dtype=np.complex128), fixed_C(n))
        m, kind, p, q, r, c = zip(*itertools.product(M_LIST, KINDS, P_RANGE, Q_RANGE,
                                                     R_RANGE, cs))
        stack = SpecStack.of_columns(HopfParams(d=d, n=n, m=1), kind, p, q, r, m, c)
        for checked, at in run_suite(stack, trials=8, seed=7):
            assert checked.passed.all(), (checked.name, n, d)
            worst[checked.name] = max(worst.get(checked.name, 0.0), checked.residual.max())
        specs += len(stack)
    elapsed = time.time() - start
    assert specs == 84_672
    assert elapsed < 60.0
    ratios = ", ".join(f"{name} {worst[name] / tol:.1e}" for name, tol in SUITE_TOLS.items())
    print(f"\n[criterion 10] every check on the {specs} specs of grid G, 8 trials, "
          f"worst residual/tol: {ratios}; kernel agreement on all, in {elapsed:.1f}s -- PASS")
