"""Independent floating-point verification layer.

Every exact-arithmetic verdict has a second, formula-level confirmation
here: the scalar unitaries of prime-power order that can lie in the kernel
are applied through the action itself, which finds the whole subgroup of
trivially acting scalars, and the group-action axioms, well-definedness
under re-splitting, transitivity, and the two remark identities are checked
on seeded random samples.  Residuals are orbit distances, i.e. scale-free
distances in the quotient.

The random inputs depend on n, the trial counts and the seeds, never on the
rest of the spec.  So every check, and the kernel probe, takes a
:class:`~hopfact.action.SpecStack` of specs that share d and n, whatever
their m, as well as a single spec: it draws a chunk of trials, splits its
unitaries as e^{it} B, and then evaluates all the specs of the stack on
them in numpy passes, with the specs on a leading axis before the trial
axes; each spec's m reaches the orbit distances on that axis.  Trial i
keeps the sample points and the Philox-seeded unitaries it would have
alone, in any chunk and beside any other specs.  ``run_verifications``
runs the suite on one stack for each run of consecutive specs with equal
(d, n), so each draw is made once for the run by construction; nothing is
kept from one call to the next.
"""

import math
from dataclasses import dataclass, field, replace
from functools import wraps
from itertools import groupby
from typing import Optional

import numpy as np

from .action import (ActionKind, ActionSpec, SpecStack, _apply, _transport, evaluate_formula,
                     type2_as_type1)
from .cmatrix import TWO_PI, UnitaryElement, _rng, random_unitary, su_decompose
from .effectiveness import is_effective
from .hopf import HopfParams, orbit_distance


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; ``max_residual`` is None when some trial's
    residual was NaN or infinite, and such a check never passes."""

    name: str
    trials: int
    max_residual: Optional[float]
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "trials": self.trials,
                "max_residual": self.max_residual, "pass": self.passed}


@dataclass
class VerificationReport:
    spec_summary: dict
    seed: int
    tol: float
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"spec": self.spec_summary, "seed": self.seed, "tol": self.tol,
                "checks": [c.to_dict() for c in self.checks],
                "all_passed": self.all_passed}


# Checks run in chunks of (spec, trial) pairs so that the largest complex
# temporary of one chunk stays near this many bytes; 256 KB runs faster than
# 1 MB and adds almost nothing to peak memory.  Per pair that temporary is an
# orbit distance's 3 shells x n coordinates (for each of the 5n re-splittings
# of a well-definedness trial, or of the kernel probe's 10 samples), or an
# n x n matrix.  A chunk takes as many trials as fit, and then
# as many specs as fit beside them; each chunk of trials is drawn once and
# serves every spec of the stack.
_CHUNK_BYTES = 1 << 18


def _chunk(values_per_item: int) -> int:
    """Items per chunk when each item's largest temporary holds this many
    complex values."""
    return max(1, _CHUNK_BYTES // (16 * values_per_item))


def sample_points(params: HopfParams, count: int, seed: int,
                  log10_scale: float = 0.0) -> np.ndarray:
    """Deterministic nonzero sample vectors, optionally spread in norm, as a
    (count, n) array."""
    rng = _rng(seed)
    v = rng.standard_normal((count, params.n)) + 1j * rng.standard_normal((count, params.n))
    if log10_scale:
        v = v * 10.0 ** rng.uniform(-log10_scale, log10_scale, size=(count, 1))
    return v


def _shared_split(a: np.ndarray) -> UnitaryElement:
    """The e^{it} B splitting of unitaries (T, n, n) that every spec of a
    stack shares: t (1, T) and B (1, T, n, n), with a spec axis of size 1."""
    ue = su_decompose(a)
    return UnitaryElement(ue.t[None], ue.su_part[None])


def _one_or_many(check):
    """Let ``check``, which gives one result for each spec of a SpecStack,
    take a single ActionSpec too and give that spec's result."""
    @wraps(check)
    def run(spec, *args, **kwargs):
        if isinstance(spec, SpecStack):
            return check(spec, *args, **kwargs)
        return check(SpecStack.of([spec]), *args, **kwargs)[0]
    return run


# The largest n*|r|*m the kernel probe tells apart at the tol of 1e-9 that
# verify uses.  A probe scalar outside the kernel turns the samples by an
# angle at least 2*pi/(n*|r|*m) away from mu_m, and the probe counts it as
# trivial below its tol; the bound 2*pi/(10*tol) keeps that angle 10 times
# the tol.  At 1e-9 it also caps the trial divisions that factor n*|r| at
# about 25,000.
MAX_PROBE_ORDER = int(TWO_PI / (10 * 1e-9))


def _scan_order(spec: ActionSpec, tol: float = 1e-9) -> int:
    """N = n*|r|, the order of the scalars the kernel scan probes at ``tol``."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    N, bound = spec.params.n * abs(spec.r), TWO_PI / (10 * tol)
    # an int against a float compares exactly, and against inf for a tiny tol
    if N * spec.params.m > bound:
        name = "MAX_PROBE_ORDER" if tol == 1e-9 else f"2*pi/(10*tol) at tol = {tol!r}"
        raise ValueError(f"n*|r|*m = {N * spec.params.m} exceeds {name} = {int(bound)}, "
                         f"beyond which the kernel probe cannot tell a scalar outside the "
                         f"kernel from one in it")
    return N


def _prime_powers(N: int) -> list:
    """Every prime power q > 1 that divides N, found by trial division."""
    powers, p = [], 2
    while N > 1:
        if p * p > N:
            p = N                       # no factor up to sqrt(N): N is prime
        q = p
        while N % p == 0:
            powers.append(q)
            N //= p
            q *= p
        p += 1
    return powers


def _probe(specs: SpecStack, z_samples: int, tol: float, seed: int) -> list:
    """The hits of :func:`numeric_kernel_scan` for each spec of the stack.
    The (spec, probe) rows go through the action in chunks."""
    if z_samples < 1:
        raise ValueError("z_samples must be >= 1")
    p = specs.params
    orders = [_scan_order(spec, tol) for spec in specs.specs]
    probes = [[0] + [N // q for q in _prime_powers(N)] for N in orders]
    counts = [len(js) for js in probes]
    spec_of, N = np.repeat(np.arange(len(specs)), counts), np.repeat(orders, counts)
    j = np.concatenate(probes)
    z = sample_points(p, z_samples, seed)
    hit = np.empty(len(j), dtype=bool)
    step = _chunk(z_samples * p.n * max(3, p.n))
    # a power of d beyond the float range gives an inf or NaN distance,
    # which is never below tol, so numpy's warnings about it are noise
    with np.errstate(all="ignore"):
        for lo in range(0, len(j), step):
            rows = slice(lo, lo + step)
            scalars = np.exp(2j * math.pi * j[rows] / N[rows])[:, None, None, None] * np.eye(p.n)
            stack = specs[spec_of[rows]]
            images = _apply(stack, scalars, z)
            hit[rows] = (orbit_distance(images, z, p, stack.m[:, None]) < tol).all(axis=1)
    hits = [[] for _ in probes]
    for i, found in zip(spec_of[hit].tolist(), j[hit].tolist()):
        hits[i].append(found)
    return [sorted(h) for h in hits]


def numeric_kernel_scan(spec: ActionSpec, z_samples: int = 10, tol: float = 1e-9,
                        seed: int = 0) -> list:
    """The j, among 0 and N/q for each prime power q | N (N = n*|r|), whose
    scalar e^{2*pi*i*j/N} * id acts trivially: every sample's image lies
    within ``tol`` orbit distance of it.  Those scalars form a subgroup mu_h
    (Cauchy: it is nontrivial iff it has an element of prime order), and
    N/q is a hit iff q | h, so these O(log N) probes, acted through the
    action, find h.  Returns the hits in sorted order."""
    _scan_order(spec, tol)     # before the stack takes n*r, which may be past the floats
    return _probe(SpecStack.of([spec]), z_samples, tol, seed)[0]


def _agrees(spec: ActionSpec, hits: list) -> bool:
    """:func:`kernel_scan_agrees` for one spec, given its probe hits."""
    verdict = is_effective(spec)
    if 0 not in hits:
        return False
    r = spec.r
    N = spec.params.n * abs(r)
    s = math.gcd(N, *hits)
    if N // s != verdict.kernel_order:
        return False
    if verdict.effective:
        return True
    j_w = ((1 if r > 0 else -1) * verdict.witness.ell + verdict.kernel_element.k * abs(r)) % N
    return j_w != 0 and j_w % s == 0


@_one_or_many
def kernel_scan_agrees(specs: SpecStack, z_samples: int = 10, tol: float = 1e-9,
                       seed: int = 0) -> list:
    """Exact verdict vs numeric scan: the identity acts trivially, and the
    trivially acting scalars, the j divisible by s = gcd(N, hits), are
    N/s = h of them, h the exact kernel order, and hold the exact witness
    unless the action is effective."""
    return [_agrees(spec, hits)
            for spec, hits in zip(specs.specs, _probe(specs, z_samples, tol, seed))]


def _run_check(name: str, specs: SpecStack, trials: int, tol: float, values: int,
               draw, residuals) -> list:
    """The check ``name`` on each spec of the stack.  ``draw(lo, hi)`` makes
    the random inputs of trials lo..hi-1, with a spec axis of size 1, and
    ``residuals(part, *inputs)`` gives their (specs, trials) residuals for
    the specs at the slice ``part``.  Each chunk of trials is drawn once and
    run through chunks of specs; a chunk's largest temporary holds
    ``values`` complex numbers a (spec, trial) pair.  Overflow and invalid
    arithmetic are let through as inf and NaN, and any non-finite residual
    fails its spec's check."""
    pairs = _chunk(values)
    trial_step = min(trials, pairs)
    spec_step = max(1, pairs // trial_step)
    worst = np.full(len(specs), -np.inf)
    finite = np.ones(len(specs), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, trials, trial_step):
            inputs = draw(lo, min(lo + trial_step, trials))
            for first in range(0, len(specs), spec_step):
                part = slice(first, first + spec_step)
                res = residuals(part, *inputs)
                finite[part] &= np.isfinite(res).all(axis=1)
                worst[part] = np.maximum(worst[part], res.max(axis=1))
    return [CheckResult(name, trials, float(w), float(w) < tol) if ok
            else CheckResult(name, trials, None, False) for w, ok in zip(worst, finite)]


@_one_or_many
def verify_group_law(specs: SpecStack, trials: int = 200, seed: int = 1,
                     tol: float = 1e-8) -> list:
    """act(A1*A2, z) against act(A1, act(A2, z))."""
    p = specs.params
    z = sample_points(p, trials, seed)
    first = seed * 1_000_003

    def draw(lo, hi):
        a1 = random_unitary(p.n, range(first + 2 * lo, first + 2 * hi, 2))
        a2 = random_unitary(p.n, range(first + 2 * lo + 1, first + 2 * hi, 2))
        return _shared_split(a1), _shared_split(a2), _shared_split(a1 @ a2), z[None, lo:hi]

    def residuals(part, a1, a2, a12, zc):
        stack = specs[part]
        lhs = evaluate_formula(stack, a12.t, a12.su_part, zc)
        rhs = evaluate_formula(stack, a1.t, a1.su_part,
                               evaluate_formula(stack, a2.t, a2.su_part, zc))
        return orbit_distance(lhs, rhs, p, stack.m[:, None])

    return _run_check("group_law", specs, trials, tol, p.n * max(3, p.n),
                      draw, residuals)


@_one_or_many
def verify_well_definedness(specs: SpecStack, trials: int = 50, seed: int = 2,
                            tol: float = 1e-8) -> list:
    """Re-split A = e^{i(t + 2*pi*k/n + 2*pi*ell)} (e^{-2*pi*i*k/n} B) for
    all k and ell in {-2, ..., 2} and compare the raw formula outputs in
    the quotient."""
    p = specs.params
    n = p.n
    z = sample_points(p, trials, seed)
    k = np.arange(n)
    ell = np.arange(-2, 3)

    def draw(lo, hi):
        ue = su_decompose(random_unitary(n, range(seed * 999_983 + lo, seed * 999_983 + hi)))
        t2 = ue.t[:, None, None] + TWO_PI * k[:, None] / n + TWO_PI * ell   # (T, n, 5)
        b2 = (np.exp(-2j * math.pi * k / n)[:, None, None, None]
              * ue.su_part[:, None, None])                                  # (T, n, 1, n, n)
        return ue.t[None], ue.su_part[None], t2[None], b2[None], z[None, lo:hi]

    def residuals(part, t, b, t2, b2, zc):
        stack = specs[part]
        base = evaluate_formula(stack, t, b, zc)                            # (S, T, n)
        shifted = evaluate_formula(stack, t2, b2, zc[:, :, None, None])     # (S, T, n, 5, n)
        return orbit_distance(shifted, base[:, :, None, None], p,
                              stack.m[:, None, None, None]).max(axis=(2, 3))

    return _run_check("well_definedness", specs, trials, tol, 5 * n * n * max(3, n),
                      draw, residuals)


@_one_or_many
def verify_transitivity(specs: SpecStack, trials: int = 200, seed: int = 3,
                        tol: float = 1e-8, log10_scale: float = 0.0) -> list:
    """solve_transport round trip: act(A, z) must land on w."""
    p = specs.params
    zs = sample_points(p, trials, seed)
    ws = sample_points(p, trials, seed + 1, log10_scale=log10_scale)

    def draw(lo, hi):
        return zs[None, lo:hi], ws[None, lo:hi]

    def residuals(part, zc, wc):
        stack = specs[part]
        return orbit_distance(_apply(stack, _transport(stack, zc, wc), zc), wc, p,
                              stack.m[:, None])

    return _run_check("transitivity", specs, trials, tol, p.n * max(3, p.n),
                      draw, residuals)


@_one_or_many
def verify_power_branch(specs: SpecStack, trials: int = 20, seed: int = 4,
                        tol: float = 1e-12) -> list:
    """Alternative d^mu branches: evaluating with an extra e^{2*pi*i*mu*L}
    factor and p shifted to p - L*r reproduces the standard evaluation
    exactly, as raw vectors."""
    p = specs.params
    z = sample_points(p, trials, seed)
    # of the fields the formula reads, p moves only sigma: p - L*r takes L*n*r
    # off it, that is (A - L*n*r*m)/m with A = sigma*m, and int / int rounds
    # that rational correctly, as float() of it would
    exact = [(s.sigma_m, p.n * s.r * s.params.m, s.params.m) for s in specs.specs]
    shifted = {L: replace(specs, sigma=np.array([(a - L * nrm) / m for a, nrm, m in exact]))
               for L in range(-2, 3)}

    def draw(lo, hi):
        return _shared_split(random_unitary(p.n, range(seed * 7_919 + lo, seed * 7_919 + hi))), \
            z[None, lo:hi]

    def residuals(part, ue, zc):
        base = evaluate_formula(specs[part], ue.t, ue.su_part, zc)
        alt = np.stack([evaluate_formula(s[part], ue.t, ue.su_part, zc, branch=L)
                        for L, s in shifted.items()])
        return np.linalg.norm(alt - base, axis=-1).max(axis=0) / np.linalg.norm(base, axis=-1)

    return _run_check("power_branch", specs, trials, tol, 5 * p.n * p.n, draw, residuals)


@_one_or_many
def verify_dimtwo(specs: SpecStack, trials: int = 100, seed: int = 5,
                  tol: float = 1e-10) -> list:
    """n = 2 only: a Type2 action equals its inner-conjugation Type1 form
    as raw vectors."""
    if specs.params.n != 2 or not specs.conj.all():
        raise ValueError("dimtwo identity applies to Type2 actions with n = 2")
    twins = SpecStack.of(type2_as_type1(s) for s in specs.specs)
    z = sample_points(specs.params, trials, seed)

    def draw(lo, hi):
        return _shared_split(random_unitary(2, range(seed * 104_729 + lo, seed * 104_729 + hi))), \
            z[None, lo:hi]

    def residuals(part, ue, zc):
        lhs = evaluate_formula(specs[part], ue.t, ue.su_part, zc)
        rhs = evaluate_formula(twins[part], ue.t, ue.su_part, zc)
        return np.linalg.norm(lhs - rhs, axis=-1) / np.linalg.norm(lhs, axis=-1)

    return _run_check("dimtwo", specs, trials, tol, 4, draw, residuals)


def run_verifications(specs, trials: int = 200, seed: int = 0,
                      tol: float = 1e-8) -> list:
    """The complete oracle suite for each spec, in order.  Every n*|r|*m is
    checked against the kernel probe's bound before anything is drawn; then
    each run of consecutive specs with equal d and n, whatever their m,
    goes through every check as one stack."""
    specs = list(specs)
    for spec in specs:
        _scan_order(spec)
    reports = []
    for _, run in groupby(specs, key=lambda spec: (spec.params.d, spec.params.n)):
        stack = SpecStack.of(run)
        columns = zip(verify_group_law(stack, trials, seed + 1, tol),
                      verify_well_definedness(stack, max(trials // 4, 1), seed + 2, tol),
                      verify_transitivity(stack, trials, seed + 3, tol),
                      verify_power_branch(stack, max(trials // 10, 1), seed + 4, 1e-12))
        dimtwo = iter([])
        if stack.params.n == 2 and stack.conj.any():
            dimtwo = iter(verify_dimtwo(stack[np.flatnonzero(stack.conj)], trials // 2 or 1,
                                        seed + 5, 1e-10))
        agrees = kernel_scan_agrees(stack, z_samples=10, tol=1e-9, seed=seed + 6)
        for spec, checks, agree in zip(stack.specs, columns, agrees):
            p = spec.params
            report = VerificationReport(
                spec_summary={"kind": spec.kind.value, "p": spec.p, "q": spec.q,
                              "r": spec.r, "n": p.n, "m": p.m,
                              "d": [p.d.real, p.d.imag]},
                seed=seed, tol=tol, checks=list(checks))
            if p.n == 2 and spec.kind is ActionKind.TYPE2:
                report.checks.append(next(dimtwo))
            report.checks.append(CheckResult("kernel_scan_agreement", 10,
                                             0.0 if agree else 1.0, agree))
            reports.append(report)
    return reports


def run_full_verification(spec: ActionSpec, trials: int = 200, seed: int = 0,
                          tol: float = 1e-8) -> VerificationReport:
    """The complete oracle suite for one action spec."""
    return run_verifications([spec], trials, seed, tol)[0]
