"""Independent floating-point verification layer.

Every exact-arithmetic verdict has a second, formula-level confirmation
here: the scalar unitaries of prime-power order that can lie in the kernel
are applied through the action itself, which finds the whole subgroup of
trivially acting scalars, and the group-action axioms, well-definedness
under re-splitting, transitivity, and the two remark identities are checked
on seeded random samples.  Residuals are orbit distances, i.e. scale-free
distances in the quotient.

Each check runs its trials as numpy batches, a chunk of trials at a time,
with the trial index on the leading axis of every array; trial i keeps the
sample points and the Philox-seeded unitaries it would have alone.

The random inputs depend on n, the trial counts and the seeds, never on the
rest of the spec.  ``run_verifications`` runs the suite over many specs and
draws each chunk of trials once for each run of specs of one n: the sample
points and the e^{it} B splittings of the seeded unitaries and of the group
law's products are kept, as read-only arrays, in small caches that hold the
draws of one n and are emptied when the call returns.  Outside such a run
every call draws afresh.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .action import (ActionKind, ActionSpec, _apply, _replace, _transport, evaluate_formula,
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


# Check trials are processed in chunks so that the largest complex
# temporary of one chunk stays near this many bytes; 256 KB runs faster
# than 1 MB and adds almost nothing to peak memory.  Per trial that
# temporary is an orbit distance's 3 shells x m rotations x n coordinates
# (for each of the 5n re-splittings of a well-definedness trial), or an
# n x n matrix.
_CHUNK_BYTES = 1 << 18


def _chunk(values_per_item: int) -> int:
    """Items per chunk when each item's largest temporary holds this many
    complex values."""
    return max(1, _CHUNK_BYTES // (16 * values_per_item))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Each cache below keeps at most this many entries.  A point array is cached
# only up to _CHUNK_BYTES, and every check sizes its chunks by at least n*n
# complex values per trial, so one split of a chunk (its B stack and its t)
# takes at most 9/8 * _CHUNK_BYTES (for n <= 128, where one n x n matrix
# fits in _CHUNK_BYTES).  A group-law entry holds three splits.  The caches
# together thus hold at most 8 * (1 + 9/8 + 27/8) = 44 times _CHUNK_BYTES
# (11 MB); the bound is reached only by checks of hundreds of trials or
# more, whose chunks are full.  Eight entries hold the draws of one spec of
# the benchmark workloads: seven point arrays and up to five chunks of
# splits.  A check with more chunks than that simply redraws.
_SHARED_ENTRIES = 8


@functools.lru_cache(maxsize=_SHARED_ENTRIES)
def _points(n: int, count: int, seed: int, log10_scale: float) -> np.ndarray:
    """The draw behind :func:`sample_points`."""
    rng = _rng(seed)
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    if log10_scale:
        v = v * 10.0 ** rng.uniform(-log10_scale, log10_scale, size=(count, 1))
    return _read_only(v)


def _frozen_split(a: np.ndarray) -> UnitaryElement:
    ue = su_decompose(a)
    return UnitaryElement(_read_only(ue.t), _read_only(ue.su_part))


@functools.lru_cache(maxsize=_SHARED_ENTRIES)
def _split(n: int, seeds: range) -> UnitaryElement:
    """The e^{it} B splitting of the unitaries of ``seeds``."""
    return _frozen_split(random_unitary(n, seeds))


@functools.lru_cache(maxsize=_SHARED_ENTRIES)
def _group_law_splits(n: int, seeds1: range, seeds2: range) -> tuple:
    """The e^{it} B splittings of the unitaries A1 of ``seeds1``, A2 of
    ``seeds2`` and their products A1 A2, taken pairwise."""
    a1, a2 = random_unitary(n, seeds1), random_unitary(n, seeds2)
    return _frozen_split(a1), _frozen_split(a2), _frozen_split(a1 @ a2)


_CACHES = (_points, _split, _group_law_splits)
# True while run_verifications runs: only then do the caches serve draws, so
# that a check called on its own keeps no state from one call to the next.
_in_run = False


def _draw(cache, *key):
    """``cache(*key)`` during a run, a fresh draw outside one."""
    return cache(*key) if _in_run else cache.__wrapped__(*key)


def sample_points(params: HopfParams, count: int, seed: int,
                  log10_scale: float = 0.0) -> np.ndarray:
    """Deterministic nonzero sample vectors, optionally spread in norm, as a
    read-only (count, n) array."""
    if 16 * count * params.n > _CHUNK_BYTES:
        return _points.__wrapped__(params.n, count, seed, log10_scale)
    return _draw(_points, params.n, count, seed, log10_scale)


# The largest n*|r| the kernel scan factors, by at most 10^6 trial divisions
# (0.05 s); the sample checks stop passing long before, as phases lose bits.
MAX_SCAN_ORDER = 10**12


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


def numeric_kernel_scan(spec: ActionSpec, z_samples: int = 10, tol: float = 1e-9,
                        seed: int = 0) -> list:
    """The j, among 0 and N/q for each prime power q | N (N = n*|r|), whose
    scalar e^{2*pi*i*j/N} * id acts trivially: every sample's image lies
    within ``tol`` orbit distance of it.  Those scalars form a subgroup mu_h
    (Cauchy: it is nontrivial iff it has an element of prime order), and
    N/q is a hit iff q | h, so these O(log N) probes, acted through the
    action in one pass, find h.  Returns the hits in sorted order."""
    if z_samples < 1:
        raise ValueError("z_samples must be >= 1")
    p = spec.params
    N = p.n * abs(spec.r)
    if N > MAX_SCAN_ORDER:
        raise ValueError(f"n*|r| = {N} exceeds {MAX_SCAN_ORDER}, the most the kernel scan factors")
    z = sample_points(p, z_samples, seed)
    j = np.array([0] + [N // q for q in _prime_powers(N)])
    scalars = np.exp(2j * math.pi * j / N)[:, None, None, None] * np.eye(p.n)
    # a power of d beyond the float range gives an inf or NaN distance,
    # which is never below tol, so numpy's warnings about it are noise
    with np.errstate(all="ignore"):
        hit = (orbit_distance(_apply(spec, scalars, z), z, p) < tol).all(axis=1)
    return sorted(j[hit].tolist())


def kernel_scan_agrees(spec: ActionSpec, z_samples: int = 10, tol: float = 1e-9,
                       seed: int = 0) -> bool:
    """Exact verdict vs numeric scan: the identity acts trivially, and the
    trivially acting scalars, the j divisible by s = gcd(N, hits), are the
    identity alone if the action is effective and else hold the witness."""
    verdict = is_effective(spec)
    hits = numeric_kernel_scan(spec, z_samples=z_samples, tol=tol, seed=seed)
    if 0 not in hits:
        return False
    r = spec.r
    N = spec.params.n * abs(r)
    s = math.gcd(N, *hits)
    if verdict.effective:
        return s == N
    j_w = ((1 if r > 0 else -1) * verdict.witness.ell + verdict.kernel_element.k * abs(r)) % N
    return j_w != 0 and j_w % s == 0


def _run_check(name: str, trials: int, chunk: int, tol: float, residuals) -> CheckResult:
    """Evaluate ``residuals(lo, hi)``, the residuals of trials lo..hi-1, over
    chunks of ``chunk`` trials.  Overflow and invalid arithmetic are let
    through as inf and NaN, and any non-finite residual fails the check."""
    with np.errstate(all="ignore"):
        res = np.concatenate([residuals(lo, min(lo + chunk, trials))
                              for lo in range(0, trials, chunk)])
    if not np.isfinite(res).all():
        return CheckResult(name, trials, None, False)
    worst = float(res.max())
    return CheckResult(name, trials, worst, worst < tol)


def verify_group_law(spec: ActionSpec, trials: int = 200, seed: int = 1,
                     tol: float = 1e-8) -> CheckResult:
    """act(A1*A2, z) against act(A1, act(A2, z))."""
    p = spec.params
    z = sample_points(p, trials, seed)
    first = seed * 1_000_003

    def residuals(lo, hi):
        a1, a2, a12 = _draw(_group_law_splits, p.n, range(first + 2 * lo, first + 2 * hi, 2),
                            range(first + 2 * lo + 1, first + 2 * hi, 2))
        lhs = evaluate_formula(spec, a12.t, a12.su_part, z[lo:hi])
        rhs = evaluate_formula(spec, a1.t, a1.su_part,
                               evaluate_formula(spec, a2.t, a2.su_part, z[lo:hi]))
        return orbit_distance(lhs, rhs, p)

    return _run_check("group_law", trials, _chunk(p.n * max(3 * p.m, p.n)), tol, residuals)


def verify_well_definedness(spec: ActionSpec, trials: int = 50, seed: int = 2,
                            tol: float = 1e-8) -> CheckResult:
    """Re-split A = e^{i(t + 2*pi*k/n + 2*pi*ell)} (e^{-2*pi*i*k/n} B) for
    all k and ell in {-2, ..., 2} and compare the raw formula outputs in
    the quotient."""
    p = spec.params
    n = p.n
    z = sample_points(p, trials, seed)
    k = np.arange(n)
    ell = np.arange(-2, 3)

    def residuals(lo, hi):
        ue = _draw(_split, n, range(seed * 999_983 + lo, seed * 999_983 + hi))
        base = evaluate_formula(spec, ue.t, ue.su_part, z[lo:hi])           # (T, n)
        t2 = ue.t[:, None, None] + TWO_PI * k[:, None] / n + TWO_PI * ell   # (T, n, 5)
        b2 = (np.exp(-2j * math.pi * k / n)[:, None, None, None]
              * ue.su_part[:, None, None])                                  # (T, n, 1, n, n)
        shifted = evaluate_formula(spec, t2, b2, z[lo:hi, None, None])      # (T, n, 5, n)
        return orbit_distance(shifted, base[:, None, None], p).max(axis=(1, 2))

    return _run_check("well_definedness", trials, _chunk(5 * n * n * max(3 * p.m, n)),
                      tol, residuals)


def verify_transitivity(spec: ActionSpec, trials: int = 200, seed: int = 3,
                        tol: float = 1e-8, log10_scale: float = 0.0) -> CheckResult:
    """solve_transport round trip: act(A, z) must land on w."""
    p = spec.params
    zs = sample_points(p, trials, seed)
    ws = sample_points(p, trials, seed + 1, log10_scale=log10_scale)

    def residuals(lo, hi):
        a = _transport(spec, zs[lo:hi], ws[lo:hi])
        return orbit_distance(_apply(spec, a, zs[lo:hi]), ws[lo:hi], p)

    return _run_check("transitivity", trials, _chunk(p.n * max(3 * p.m, p.n)), tol, residuals)


def verify_power_branch(spec: ActionSpec, trials: int = 20, seed: int = 4,
                        tol: float = 1e-12) -> CheckResult:
    """Alternative d^mu branches: evaluating with an extra e^{2*pi*i*mu*L}
    factor and p shifted to p - L*r reproduces the standard evaluation
    exactly, as raw vectors."""
    p = spec.params
    z = sample_points(p, trials, seed)
    shifted = {L: _replace(spec, p=spec.p - L * spec.r) for L in range(-2, 3)}

    def residuals(lo, hi):
        ue = _draw(_split, p.n, range(seed * 7_919 + lo, seed * 7_919 + hi))
        base = evaluate_formula(spec, ue.t, ue.su_part, z[lo:hi])
        alt = np.stack([evaluate_formula(s, ue.t, ue.su_part, z[lo:hi], branch=L)
                        for L, s in shifted.items()])
        return np.linalg.norm(alt - base, axis=-1).max(axis=0) / np.linalg.norm(base, axis=-1)

    return _run_check("power_branch", trials, _chunk(5 * p.n * p.n), tol, residuals)


def verify_dimtwo(spec: ActionSpec, trials: int = 100, seed: int = 5,
                  tol: float = 1e-10) -> CheckResult:
    """n = 2 only: a Type2 action equals its inner-conjugation Type1 form
    as raw vectors."""
    if spec.params.n != 2 or spec.kind is not ActionKind.TYPE2:
        raise ValueError("dimtwo identity applies to Type2 actions with n = 2")
    twin = type2_as_type1(spec)
    z = sample_points(spec.params, trials, seed)

    def residuals(lo, hi):
        ue = _draw(_split, 2, range(seed * 104_729 + lo, seed * 104_729 + hi))
        lhs = evaluate_formula(spec, ue.t, ue.su_part, z[lo:hi])
        rhs = evaluate_formula(twin, ue.t, ue.su_part, z[lo:hi])
        return np.linalg.norm(lhs - rhs, axis=-1) / np.linalg.norm(lhs, axis=-1)

    return _run_check("dimtwo", trials, _chunk(4), tol, residuals)


def run_full_verification(spec: ActionSpec, trials: int = 200, seed: int = 0,
                          tol: float = 1e-8) -> VerificationReport:
    """The complete oracle suite for one action spec."""
    p = spec.params
    report = VerificationReport(
        spec_summary={"kind": spec.kind.value, "p": spec.p, "q": spec.q,
                      "r": spec.r, "n": p.n, "m": p.m,
                      "d": [p.d.real, p.d.imag]},
        seed=seed, tol=tol)
    # first, so that an n*|r| the scan rejects stops the suite at once
    agrees = kernel_scan_agrees(spec, z_samples=10, tol=1e-9, seed=seed + 6)
    report.checks.append(verify_group_law(spec, trials, seed + 1, tol))
    report.checks.append(verify_well_definedness(spec, max(trials // 4, 1), seed + 2, tol))
    report.checks.append(verify_transitivity(spec, trials, seed + 3, tol))
    report.checks.append(verify_power_branch(spec, max(trials // 10, 1), seed + 4, 1e-12))
    if p.n == 2 and spec.kind is ActionKind.TYPE2:
        report.checks.append(verify_dimtwo(spec, trials // 2 or 1, seed + 5, 1e-10))
    report.checks.append(CheckResult("kernel_scan_agreement", 10,
                                     0.0 if agrees else 1.0, agrees))
    return report


def _empty_caches() -> None:
    for cache in _CACHES:
        cache.cache_clear()


def run_verifications(specs, trials: int = 200, seed: int = 0,
                      tol: float = 1e-8) -> list:
    """``run_full_verification`` of each spec, in order, with the draws that
    consecutive specs of one n have in common made once.  No draw is of use
    to another n, so the caches are emptied whenever n changes, and on
    exit: a run holds the draws of one n at a time, and none outlives it."""
    global _in_run
    reports, n = [], None
    _in_run = True
    try:
        for spec in specs:
            if spec.params.n != n:
                _empty_caches()
                n = spec.params.n
            reports.append(run_full_verification(spec, trials, seed, tol))
        return reports
    finally:
        _in_run = False
        _empty_caches()
