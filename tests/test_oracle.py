import collections
import itertools
import json
import math
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import _oracle_reference
import hopfact.action
import hopfact.oracle
from _grid import fixed_C, grid_specs
from _scan_reference import scan_lattice
from hopfact.action import ActionKind, ActionSpec, Rows, SpecStack, d_pow, evaluate_formula
from hopfact.cmatrix import random_unitary, su_decompose
from hopfact.effectiveness import _congruence_coefficient, is_effective
from hopfact.hopf import HopfParams
from hopfact.report import report_texts
from hopfact.oracle import (
    MAX_PROBE_ORDER,
    _prime_powers,
    kernel_scan_agrees,
    run_suite,
    sample_points,
    verify_group_law,
    verify_power_branch,
    verify_transitivity,
    verify_well_definedness,
)


def make_spec(kind, n, m, p, q, r, d=4):
    return ActionSpec(kind, p, q, r, np.eye(n), HopfParams(d=d, n=n, m=m))


def demo_spec():
    return make_spec(ActionKind.TYPE1, 2, 1, 0, 0, 1)


def alone(spec):
    """The one-row stack of ``spec``."""
    return SpecStack.of([spec])


def probe(spec, seed=0):
    """The kernel probe's hits on ``spec`` alone."""
    return hopfact.oracle._probe(alone(spec), seed)[0]


def report_of(spec, trials, seed, tol=1e-8):
    """The report that ``hopfact verify`` prints for ``spec``, parsed."""
    stack = alone(spec)
    return json.loads(report_texts(stack, seed, tol, run_suite(stack, trials, seed, tol))[0])


def test_scan_effective_spec_only_identity():
    # and at large |r|, where the probes' powers of d span hundreds of
    # decades: an earlier scan reported scalars outside the kernel as hits
    # on these specs (j = 536, 537 and 1737 at r = 600, d = 0.5), through
    # distances whose squares underflowed to 0
    for spec in [demo_spec()] + [make_spec(ActionKind.TYPE1, 3, 7, 0, 0, r, d=d)
                                 for r, d in [(600, 0.5), (-2000, 2), (2000, 0.5)]]:
        assert is_effective(spec).effective
        assert probe(spec) == [0], spec
        assert kernel_scan_agrees(alone(spec)) == [True], spec


def test_scan_finds_known_kernel():
    # N = 6: the probes are j = 0, 3 and 2, and the scalars of order 3 act
    # trivially; the exact witness (ell, k) = (1, 1) is j_w = 1 + 1*3 = 4
    spec = make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3)
    assert probe(spec) == [0, 2]
    verdict = is_effective(spec)
    assert (verdict.witness.ell + verdict.kernel_element.k * 3) % 6 == 4
    assert kernel_scan_agrees(alone(spec)) == [True]


@pytest.mark.parametrize("kind,n,m,p,q,r", [
    (ActionKind.TYPE1, 2, 1, 0, 0, 1),
    (ActionKind.TYPE2, 3, 2, 1, -1, 2),
    (ActionKind.TYPE1, 2, 3, -2, 2, -3),
])
def test_identity_always_present(kind, n, m, p, q, r):
    assert 0 in probe(make_spec(kind, n, m, p, q, r))


def test_scan_deterministic():
    spec = make_spec(ActionKind.TYPE2, 3, 2, 1, 2, -2, d=1 + 2j)
    assert probe(spec, seed=5) == probe(spec, seed=5)


def test_prime_powers_by_brute_force():
    # the divisors q > 1 of N that have exactly one prime factor
    primes = [f for f in range(2, 2000) if all(f % e for e in range(2, f))]
    for N in range(1, 2000):
        expected = [q for q in range(2, N + 1)
                    if N % q == 0 and sum(q % f == 0 for f in primes) == 1]
        assert sorted(_prime_powers(N)) == expected, N


def reference_hits(spec, seed):
    """The j of every scalar e^{2*pi*i*j/N} * id, N = n*|r|, that acts
    trivially, from the loop scan of all lattice cells (ell, k)."""
    p = spec.params
    z = sample_points(p.n, seed, range(10))
    rows = SpecStack.of([spec]).rows
    w = (rows.C[0] @ (rows.C_inv[0] @ z.T)).T
    pairs = scan_lattice(spec.kind.eps, p.n, p.m, spec.p, spec.q, spec.r, p.d, w, z, 1e-9)
    sign, N = (1 if spec.r > 0 else -1), p.n * abs(spec.r)
    return sorted({(sign * ell + k * abs(spec.r)) % N for ell, k in pairs})


def assert_probe_matches_reference(spec, seed):
    """The probe's hits are the reference's hits among the probed j, and the
    reference's hits are exactly the multiples of gcd(N, probe hits)."""
    N = spec.params.n * abs(spec.r)
    hits = probe(spec, seed)
    expected = reference_hits(spec, seed)
    probed = {N // q % N for q in [1] + _prime_powers(N)}
    assert hits == [j for j in expected if j in probed]
    assert expected == list(range(0, N, math.gcd(N, *hits)))
    assert len(expected) == is_effective(spec).kernel_order
    return expected


def test_backends_agree():
    # the probe against the loop reference: m = 6 with r < 0, a complex d
    # and a non-identity C, and a spec with a kernel of order 10 in N = 320
    for kind, n, m, p, q, r, d, C in [
        (ActionKind.TYPE1, 2, 1, 1, 0, 3, 4, None),
        (ActionKind.TYPE2, 3, 2, -1, 2, -2, 1 + 2j, fixed_C(3)),
        (ActionKind.TYPE1, 4, 3, 2, -3, 2, 0.5, None),
        (ActionKind.TYPE2, 2, 5, 0, 1, -3, -2, fixed_C(2)),
        (ActionKind.TYPE1, 3, 6, 1, -1, -4, 0.5 + 0.3j, fixed_C(3)),
        (ActionKind.TYPE2, 5, 6, 0, 1, -1, -1 + 0.5j, fixed_C(5)),
        (ActionKind.TYPE1, 2, 2, 2, 0, 160, 4, None),
    ]:
        spec = ActionSpec(kind, p, q, r, np.eye(n) if C is None else C,
                          HopfParams(d=d, n=n, m=m))
        expected = assert_probe_matches_reference(spec, 9)
    assert expected == list(range(0, 320, 32))


def test_probe_matches_reference_on_grid_sample():
    # every 400th spec of grid G: all d, both C, every n, m and kind
    specs = list(grid_specs(step=400))
    assert len(specs) == 212
    for i, spec in enumerate(specs):
        assert_probe_matches_reference(spec, i)


@pytest.mark.parametrize("chunk_bytes", [None, 4096])
def test_stacked_probe_equals_each_spec_alone(monkeypatch, chunk_bytes):
    # q = 0, so sigma = eps + n*p does not read m: the specs of m = 1, 2, 3
    # and 6 share their rows.  The rows have unequal probe counts (N = 2,
    # 14, 16, 24, 32 and 60 have 1, 2, 4, 4, 5 and 4 prime-power divisors),
    # and 58 of the 96 specs act with a kernel.  At 4096 bytes a chunk holds
    # a row or two.
    if chunk_bytes is not None:
        monkeypatch.setattr(hopfact.oracle, "_CHUNK_BYTES", chunk_bytes)
    specs = [make_spec(kind, 2, m, p, 0, r) for kind in ActionKind for p in (0, 1)
             for m in (1, 2, 3, 6) for r in (1, 7, 8, 12, -16, 30)]
    stack = SpecStack.of(specs)
    assert (len(stack), len(stack.rows)) == (96, 24)
    assert sum(not is_effective(spec).effective for spec in specs) == 58
    stacked = hopfact.oracle._probe(stack, 11)
    assert stacked == [probe(spec, 11) for spec in specs]
    assert kernel_scan_agrees(stack, seed=11) == [True] * len(specs)


def test_probe_misses_when_only_later_samples_leave_the_orbit(monkeypatch):
    # a fault that keeps sample 0's image and moves every other sample's
    # off its orbit (times 1.1, which no deck element of d = 4 is): sample 0
    # alone hits on j = 0 and 2, so only the second pass, which acts
    # samples 1 to 9, can find the misses
    spec = make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3)
    assert probe(spec) == [0, 2]
    z0 = sample_points(2, 0, range(1))[0]
    evaluate, moved = hopfact.oracle.evaluate_formula, []

    def faulty(rows, t, B, vec, branch=0):
        images = evaluate(rows, t, B, vec, branch)
        later = (vec != z0).any(axis=-1)
        moved.append(bool(later.any()))
        return np.where(later[..., None], 1.1 * images, images)

    monkeypatch.setattr(hopfact.oracle, "evaluate_formula", faulty)
    assert probe(spec) == []
    assert moved == [False, True]
    assert kernel_scan_agrees(alone(spec)) == [False]


def test_scan_of_large_r_at_once():
    # O(log N) probes: N = 400,000 = 2^7 * 5^5 has 12 prime-power divisors
    spec = make_spec(ActionKind.TYPE1, 2, 7, 1, 0, 200_000)
    start = time.perf_counter()
    hits = probe(spec)
    assert time.perf_counter() - start < 0.5
    assert 0 in hits


def test_scan_rejects_an_order_beyond_the_probe_bound():
    # the bound is on n*|r|*m: a scalar outside the kernel is at least
    # 2*pi/(n*|r|*m) from mu_m, and that must stay well above the tol 1e-9
    assert 10 * 1e-9 * MAX_PROBE_ORDER <= 2 * math.pi
    r = MAX_PROBE_ORDER // 14
    probe(make_spec(ActionKind.TYPE1, 2, 7, 0, 0, r))
    with pytest.raises(ValueError, match=re.escape(f"n*|r|*m = {14 * (r + 1)} exceeds "
                                                   f"MAX_PROBE_ORDER = {MAX_PROBE_ORDER}")):
        probe(make_spec(ActionKind.TYPE1, 2, 7, 0, 0, r + 1))
    # inside the bound at m = 60,000,001 a scalar 2*pi/540,000,009 from mu_m
    # is still told apart from the kernel
    assert probe(make_spec(ActionKind.TYPE1, 3, 60_000_001, 0, 0, 3)) == [0]


def test_scan_runs_through_the_action(monkeypatch):
    # the scan forms no power of d itself: a d_pow gone bad reaches it, and
    # the exact verdict no longer agrees with it
    spec = make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3)
    assert kernel_scan_agrees(alone(spec)) == [True]
    monkeypatch.setattr(hopfact.action, "d_pow", lambda d, mu, branch=0: np.full_like(mu, np.nan))
    assert probe(spec) == []
    assert kernel_scan_agrees(alone(spec)) == [False]


def test_scan_agreement_including_witness():
    for spec in [demo_spec(),
                 make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3),
                 make_spec(ActionKind.TYPE2, 3, 4, 2, 1, -2, d=0.5),
                 make_spec(ActionKind.TYPE2, 2, 2, 0, 0, 2)]:
        assert kernel_scan_agrees(alone(spec)) == [True]


def test_scan_agreement_needs_the_exact_kernel_order(monkeypatch):
    # N = 6 and h = 3: a probe that also found j = 3 would make the whole of
    # mu_6 act trivially, a kernel too large for the exact order, although
    # it still holds the witness j_w = 4
    spec = make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3)
    assert is_effective(spec).kernel_order == 3
    monkeypatch.setattr(hopfact.oracle, "_probe", lambda *args: [[0, 2, 3]])
    assert kernel_scan_agrees(alone(spec)) == [False]
    monkeypatch.setattr(hopfact.oracle, "_probe", lambda *args: [[0, 2]])
    assert kernel_scan_agrees(alone(spec)) == [True]


def test_verification_suite_passes_on_demo():
    report = report_of(demo_spec(), trials=50, seed=3)
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"group_law", "well_definedness", "transitivity",
            "power_branch", "kernel_scan_agreement"} <= names


def test_verification_suite_type2_with_dimtwo():
    spec = make_spec(ActionKind.TYPE2, 2, 3, 1, 0, 1, d=1 + 2j)
    report = report_of(spec, trials=40, seed=4)
    assert report["all_passed"] is True
    assert "dimtwo" in {c["name"] for c in report["checks"]}


def test_transitivity_ill_scaled_pairs():
    spec = make_spec(ActionKind.TYPE1, 3, 2, 1, 0, 2, d=1 + 2j)
    check = verify_transitivity(alone(spec), trials=50, seed=6, tol=1e-7, log10_scale=3)
    assert check.passed.tolist() == [True]


def test_reports_deterministic():
    a, b = (verify_group_law(alone(demo_spec()), trials=30, seed=11) for _ in range(2))
    assert (a.name, a.trials, a.passed.tolist()) == (b.name, b.trials, b.passed.tolist())
    assert a.residual.tobytes() == b.residual.tobytes()


def test_corrupted_power_branch_detected(monkeypatch):
    # a d_pow that ignores the requested branch breaks the branch-shift
    # identity; the power check must notice
    real_d_pow = d_pow

    def wrong_branch(d, mu, branch=0):
        return real_d_pow(d, mu, branch=0)

    monkeypatch.setattr(hopfact.action, "d_pow", wrong_branch)
    spec = make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 2, d=1 + 2j)
    check = verify_power_branch(alone(spec), trials=5, seed=8)
    assert check.passed.tolist() == [False]


def test_power_branch_in_one_call_equals_per_branch_calls():
    # the check evaluates each row once a branch L = -2..2 in one call, with
    # an array branch on the row axis; each image keeps the bits of its own
    # call with that row's sigma shifted and a scalar branch, and L = 0 is
    # the standard evaluation
    specs = shared_specs()[3:9]
    stack = SpecStack.of(specs)
    rows = stack.rows
    p = stack.params
    ue = su_decompose(random_unitary(p.n, 3, trials=range(6)))
    z = sample_points(p.n, 4, range(6))
    shift = {L: np.array([(_congruence_coefficient(s.kind, p.n, s.params.m, s.p, s.q)
                           - L * p.n * s.r * s.params.m) / s.params.m
                          for s in (specs[i] for i in stack.first)]) for L in range(-2, 3)}
    five = Rows(p, np.stack([shift[L] for L in range(-2, 3)], axis=1).ravel(),
                *(np.repeat(field, 5, axis=0) for field in (rows.nr, rows.conj, rows.C, rows.C_inv)))
    images = evaluate_formula(five, ue.t[None], ue.su_part[None], z[None],
                              branch=np.tile(np.arange(-2, 3), len(rows)))
    images = images.reshape(len(rows), 5, 6, p.n)
    for k, L in enumerate(range(-2, 3)):
        alone = evaluate_formula(replace(rows, sigma=shift[L]), ue.t[None], ue.su_part[None],
                                 z[None], branch=L)
        assert images[:, k].tobytes() == alone.tobytes(), L
    standard = evaluate_formula(rows, ue.t[None], ue.su_part[None], z[None])
    assert images[:, 2].tobytes() == standard.tobytes()


def test_report_serialization():
    d = report_of(demo_spec(), trials=10, seed=1)
    assert d["all_passed"] is True
    assert {"name", "trials", "max_residual", "pass"} == set(d["checks"][0])


def test_well_definedness_and_group_law_pass_type2():
    spec = make_spec(ActionKind.TYPE2, 3, 1, 0, 0, 1, d=-2)
    assert verify_group_law(alone(spec), trials=60, seed=2).passed.tolist() == [True]
    assert verify_well_definedness(alone(spec), trials=20, seed=2).passed.tolist() == [True]


@pytest.mark.parametrize("chunk_bytes,perturbed", [(None, False), (4096, False),
                                                   (4096, True)])
@pytest.mark.parametrize("kind,n,m,p,q,r,d,C", [
    (ActionKind.TYPE2, 2, 3, 1, 0, 2, 1 + 2j, fixed_C(2)),
    (ActionKind.TYPE1, 3, 4, -1, 2, -3, 0.5, fixed_C(3)),
    (ActionKind.TYPE2, 4, 2, 2, -1, 1, -2, None),
])
def test_checks_match_loop_reference(monkeypatch, chunk_bytes, perturbed,
                                     kind, n, m, p, q, r, d, C):
    # the batched checks against the per-trial loops they replaced: same
    # verdicts, residuals equal up to summation order.  At the default
    # chunk size well_definedness on n = 3, m = 4 spans two chunks of 30
    # trials; at 4096 bytes every check spans several, remainders included.
    # Exact residuals are rounding noise; a power with an extra phase
    # e^{0.001*i*mu^2} breaks the group law, well-definedness and transport
    # with residuals near 1e-3 that differ from trial to trial and stay far
    # below the orbit distance's ceiling, so matching them pins every trial
    # to its own points and seeds.
    if chunk_bytes is not None:
        monkeypatch.setattr(hopfact.oracle, "_CHUNK_BYTES", chunk_bytes)
    if perturbed:
        def bent_power(d, mu, branch=0):
            return d_pow(d, mu, branch=branch) * np.exp(0.001j * np.square(mu))

        monkeypatch.setattr(hopfact.action, "d_pow", bent_power)
    spec = ActionSpec(kind, p, q, r, np.eye(n) if C is None else C,
                      HopfParams(d=d, n=n, m=m))
    runs = [("verify_group_law", 40, 7, {}),
            ("verify_well_definedness", 40, 8, {}),
            ("verify_transitivity", 40, 9, {}),
            ("verify_transitivity", 30, 10, {"tol": 1e-7, "log10_scale": 3}),
            ("verify_power_branch", 20, 11, {})]
    if n == 2 and kind is ActionKind.TYPE2:
        runs.append(("verify_dimtwo", 40, 12, {}))
    for name, trials, seed, kwargs in runs:
        got = getattr(hopfact.oracle, name)(alone(spec), trials, seed, **kwargs)
        want = getattr(_oracle_reference, name)(spec, trials, seed, **kwargs)
        assert (got.name, got.trials, got.passed.tolist()) == (want.name, want.trials,
                                                               [want.passed])
        assert want.passed == (not perturbed or name in ("verify_power_branch",
                                                        "verify_dimtwo")), name
        assert abs(got.residual[0] - want.max_residual) <= 1e-13, name


def test_non_finite_residual_fails_with_no_value():
    # r = 48 with d = 0.5: the 2*pi*ell re-splittings need |d|^(n*r*ell)
    # far beyond a float, so the shifted images are infinite
    spec = make_spec(ActionKind.TYPE1, 6, 1, 0, 0, 48, d=0.5)
    check = verify_well_definedness(alone(spec), trials=3, seed=2)
    assert math.isnan(check.residual[0]) and check.passed.tolist() == [False]
    # and the report writes it as null: the suite's well-definedness check
    # is this one, at trials // 4 and seed + 2
    report = report_of(spec, trials=12, seed=0)
    assert report["checks"][1] == {"name": "well_definedness", "trials": 3,
                                   "max_residual": None, "pass": False}


# n 2..4, both kinds, non-identity C, m up to 7 and complex d, in runs of
# specs with equal (d, n): one of them comes back after others, the runs mix
# the kinds, and the last two each span m = 1, 2, 3 and 7 on one stack.
# Specs whose sigma = eps + n*(p + q/m) agrees share a formula row across m:
# (q, m) = (1, 3) and (2, 6) in the run at 0.5 + 0.3j, and q = 0 at
# m = 1, 2, 3 and 7 in the run at -0.7 + 0.4j, both kinds with C = fixed_C
SHARED_SPECS = [
    (ActionKind.TYPE2, 2, 3, 1, 0, 2, 1 + 2j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 3, -1, 2, 3, 1 + 2j, None),
    (ActionKind.TYPE2, 2, 3, 0, 1, -1, 1 + 2j, None),
    (ActionKind.TYPE1, 3, 6, 0, 1, -2, 0.5 + 0.3j, fixed_C(3)),
    (ActionKind.TYPE1, 3, 3, 0, 1, -2, 0.5 + 0.3j, fixed_C(3)),
    (ActionKind.TYPE2, 3, 6, 1, -1, 1, 0.5 + 0.3j, None),
    (ActionKind.TYPE1, 3, 6, 0, 2, -2, 0.5 + 0.3j, fixed_C(3)),
    (ActionKind.TYPE2, 3, 3, 1, 1, 2, 0.5 + 0.3j, fixed_C(3)),
    (ActionKind.TYPE2, 3, 6, 1, 2, 2, 0.5 + 0.3j, fixed_C(3)),
    (ActionKind.TYPE2, 4, 2, 2, -1, 1, -2, None),
    (ActionKind.TYPE1, 4, 2, 1, -1, -3, -2, fixed_C(4)),
    (ActionKind.TYPE1, 2, 3, 2, -2, 1, 1 + 2j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 5, -1, 2, 3, 4, fixed_C(2)),
    (ActionKind.TYPE2, 3, 1, 0, 0, 1, 0.5, None),
    (ActionKind.TYPE2, 2, 1, 1, 0, 2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 2, 0, 1, -3, -0.7 + 0.4j, None),
    (ActionKind.TYPE2, 2, 3, -1, 2, 1, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE2, 2, 7, 2, -3, -2, -0.7 + 0.4j, None),
    (ActionKind.TYPE1, 2, 7, 1, 5, 3, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 1, 1, 0, -2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE2, 2, 2, 1, 0, 2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 3, 1, 0, -2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 7, 1, 0, -2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE2, 2, 7, 1, 0, 2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE1, 2, 2, 1, 0, -2, -0.7 + 0.4j, fixed_C(2)),
    (ActionKind.TYPE1, 3, 7, 0, 3, 2, 2 - 1j, fixed_C(3)),
    (ActionKind.TYPE2, 3, 1, 1, 0, -1, 2 - 1j, fixed_C(3)),
    (ActionKind.TYPE1, 3, 3, -1, 1, 3, 2 - 1j, None),
    (ActionKind.TYPE2, 3, 2, 0, -1, 2, 2 - 1j, fixed_C(3)),
]


def stacked_reports(specs, trials, seed, tol=1e-8):
    """The parsed report of each spec, each run of specs with equal (d, n)
    going through run_suite as one stack, as verify takes a grid."""
    reports = []
    for _, run in itertools.groupby(specs, key=lambda spec: (spec.params.d, spec.params.n)):
        stack = SpecStack.of(run)
        texts = report_texts(stack, seed, tol, run_suite(stack, trials, seed, tol))
        reports += map(json.loads, texts)
    return reports


def shared_specs():
    return [ActionSpec(kind, p, q, r, np.eye(n) if C is None else C, HopfParams(d=d, n=n, m=m))
            for kind, n, m, p, q, r, d, C in SHARED_SPECS]


@pytest.mark.parametrize("chunk_bytes", [None, 4096, 1 << 15])
def test_shared_draws_equal_single_runs(monkeypatch, chunk_bytes):
    # the specs of a run go through each check as one stack, whatever their
    # m; at the default chunk size a chunk holds every spec of a run, at
    # 2^15 bytes two specs of 40 trials or one spec of part of them, and at
    # 4096 bytes one spec of a few trials
    if chunk_bytes is not None:
        monkeypatch.setattr(hopfact.oracle, "_CHUNK_BYTES", chunk_bytes)
    specs = shared_specs()
    stacks = [SpecStack.of(run) for _, run in itertools.groupby(
        specs, key=lambda spec: (spec.params.d, spec.params.n))]
    assert [len(stack) - len(stack.rows) for stack in stacks] == [0, 2, 0, 0, 0, 0, 5, 0]
    single = [report_of(spec, trials=40, seed=17) for spec in specs]
    stacked = stacked_reports(specs, trials=40, seed=17)
    assert stacked == single
    assert all(report["all_passed"] is True for report in single)
    # and the loop reference, up to summation order
    for spec, report in zip(specs, stacked):
        want = [_oracle_reference.verify_group_law(spec, 40, 18),
                _oracle_reference.verify_well_definedness(spec, 10, 19),
                _oracle_reference.verify_transitivity(spec, 40, 20),
                _oracle_reference.verify_power_branch(spec, 4, 21, 1e-12)]
        if spec.params.n == 2 and spec.kind is ActionKind.TYPE2:
            want.append(_oracle_reference.verify_dimtwo(spec, 20, 22, 1e-10))
        assert len(report["checks"]) == len(want) + 1
        for got, ref in zip(report["checks"], want):
            assert (got["name"], got["trials"], got["pass"]) == (ref.name, ref.trials, ref.passed)
            assert abs(got["max_residual"] - ref.max_residual) <= 1e-13, got["name"]


@pytest.mark.parametrize("chunk_bytes", [None, 4096])
def test_each_run_draws_once(monkeypatch, chunk_bytes):
    # every run of specs with equal (d, n) draws each trial's unitaries and
    # points once, whatever the chunking, however many specs and however
    # many m among them
    calls, points = [], []

    def counted(n, seed, trials):
        calls.append((seed, trials))
        return random_unitary(n, seed, trials=trials)

    def counted_points(n, seed, trials, log10_scale=0.0):
        points.append((seed, trials))
        return sample_points(n, seed, trials, log10_scale)

    monkeypatch.setattr(hopfact.oracle, "random_unitary", counted)
    monkeypatch.setattr(hopfact.oracle, "sample_points", counted_points)
    if chunk_bytes is not None:
        monkeypatch.setattr(hopfact.oracle, "_CHUNK_BYTES", chunk_bytes)
    specs = shared_specs()
    stacked_reports(specs, trials=40, seed=17)
    runs = [list(run) for _, run in itertools.groupby(
        specs, key=lambda spec: (spec.params.d, spec.params.n))]
    assert len(runs) == 8
    assert [sorted({s.params.m for s in run}) for run in runs[-2:]] == [[1, 2, 3, 7]] * 2
    # each run reads, of the unitary stream of each check seed, the draws
    # 0..k-1 once: group law (seed 18) 2 * 40 draws, well-definedness (19)
    # 40 // 4, power branch (21) 40 // 10 and dimtwo (22) 40 // 2; and of
    # the point stream one draw a trial, two for transitivity (20), and the
    # kernel probe's (23) 10
    dimtwo = [any(s.params.n == 2 and s.kind is ActionKind.TYPE2 for s in run) for run in runs]
    drawn = collections.Counter((seed, i) for seed, trials in calls for i in trials)
    drawn_points = collections.Counter((seed, i) for seed, trials in points for i in trials)
    want, want_points = collections.Counter(), collections.Counter()
    for d in dimtwo:
        for seed, count in [(18, 2 * 40), (19, 40 // 4), (21, 40 // 10), (22, 40 // 2 * d)]:
            want.update((seed, i) for i in range(count))
        for seed, count in [(18, 40), (19, 40 // 4), (20, 2 * 40), (21, 40 // 10),
                            (22, 40 // 2 * d), (23, 10)]:
            want_points.update((seed, i) for i in range(count))
    assert drawn == want
    assert drawn_points == want_points
    # at the default chunk size, each check draws in one call a stream and
    # run: 3 unitary calls and 5 point calls, and one more each for dimtwo
    if chunk_bytes is None:
        assert len(calls) == sum(3 + d for d in dimtwo)
        assert len(points) == sum(5 + d for d in dimtwo)


def test_no_two_checks_of_a_suite_read_one_stream(monkeypatch):
    # every Philox stream a suite run keys, by its key, and the check that
    # keyed it: each key belongs to one check.  A check may key a stream in
    # every chunk, so the chunks are made small
    monkeypatch.setattr(hopfact.oracle, "_CHUNK_BYTES", 4096)
    owners = {}
    running = [None]

    class Recorded(np.random.Philox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            owners.setdefault(tuple(self.state["state"]["key"].tolist()), set()).add(running[0])

    def labelled(name, check):
        def run(*args, **kwargs):
            running[0] = name
            try:
                return check(*args, **kwargs)
            finally:
                running[0] = None
        return run

    monkeypatch.setattr(np.random, "Philox", Recorded)
    for name in ("verify_group_law", "verify_well_definedness", "verify_transitivity",
                 "verify_power_branch", "verify_dimtwo", "kernel_scan_agrees"):
        monkeypatch.setattr(hopfact.oracle, name, labelled(name, getattr(hopfact.oracle, name)))
    stack = SpecStack.of([make_spec(ActionKind.TYPE2, 2, 3, 1, 0, 2, d=1 + 2j),
                          make_spec(ActionKind.TYPE1, 2, 3, 0, 1, -1, d=1 + 2j)])
    for seed in (0, 4, 17):
        owners.clear()
        checks = run_suite(stack, trials=12, seed=seed)
        assert [checked.name for checked, _ in checks] == [
            "group_law", "well_definedness", "transitivity", "power_branch", "dimtwo",
            "kernel_scan_agreement"]
        # a unitary and a point stream for each check but transitivity and
        # the kernel probe, which draw points only
        assert set().union(*owners.values()) == {
            "verify_group_law", "verify_well_definedness", "verify_transitivity",
            "verify_power_branch", "verify_dimtwo", "kernel_scan_agrees"}
        assert len(owners) == 10
        assert {key: names for key, names in owners.items() if len(names) > 1} == {}


def test_memory_of_a_large_run_is_bounded():
    # 360 specs on one manifold at 40 trials: unchunked, the group law's
    # orbit distances alone would take 360 * 40 * 3 * 4 complex values
    # (2.8 MB); chunked, the traced peak of the checks and the reports'
    # text (300 KB) stays near a few chunks and the stack of C and C^{-1}
    # (184 KB): 5.9 chunks
    params = HopfParams(d=0.5 + 0.3j, n=4, m=6)
    specs = [ActionSpec(kind, p, q, r, fixed_C(4) if p % 2 else np.eye(4), params)
             for kind in ActionKind for p in range(-2, 3) for q in range(6)
             for r in (-3, -2, -1, 1, 2, 3)]
    assert len(specs) == 360
    tracemalloc.start()
    try:
        stack = SpecStack.of(specs)
        checks = run_suite(stack, trials=40, seed=3)
        texts = report_texts(stack, 3, 1e-8, checks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(checked.passed.all() for checked, _ in checks)
    assert all(text.endswith('"all_passed": true\n}') for text in texts)
    assert peak < 8 * hopfact.oracle._CHUNK_BYTES
