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
their m.  It draws a chunk of trials, splits its unitaries as e^{it} B,
and then evaluates the stack's distinct formula rows on them in numpy
passes, with the rows on a leading axis before the trial axes: specs that
differ only in m, or in m, p and q with one sigma, share a row and each
formula, ``_transport`` and ``_apply`` evaluation.  Only the orbit
distances read m, so only they gather the rows' images to the specs by
``SpecStack.row``, each spec's m on their first axis; ``power_branch`` and
``dimtwo`` compute one residual a row, which each spec of the row takes.
The kernel probe acts each row once, with its probes on one axis.  A
check's seed keys its two counter-based streams of ``hopfact.cmatrix``,
of unitaries and of sample points: trial i reads the draws at index i of
each (2i and 2i + 1 for the group law's A1 and A2 and the transport's z
and w), one call a stream and chunk, so any trial is replayed from (check
seed, index) alone, in any chunk and beside any other specs.

Every check, and the kernel agreement, takes a stack only: a check gives
a :class:`Checked`, arrays with one entry a spec, and
``kernel_scan_agrees`` a list of verdicts; one spec is the stack
``SpecStack.of([spec])``.  ``run_suite`` runs every check on one stack,
so each draw is made once for the stack by construction, and
``hopfact.report`` writes its reports.  Nothing is kept from one call to
the next.
"""

import math
from dataclasses import replace
from itertools import compress, groupby
from typing import NamedTuple, Optional

import numpy as np

from .action import (ActionKind, Rows, SpecStack, SU2_CONJUGATOR, _apply, _transport,
                     evaluate_formula)
from .cmatrix import TWO_PI, UnitaryElement, _split, random_unitary, sample_points
from .effectiveness import _congruence_coefficient, find_witnesses, line_class
from .hopf import orbit_distance


class Checked(NamedTuple):
    """One check's outcome on each spec of a stack: the worst residual, NaN
    where some trial's residual was NaN or infinite, and whether it passed."""

    name: str
    trials: int
    residual: np.ndarray
    passed: np.ndarray


# Checks run in chunks of (spec, trial) pairs so that the largest complex
# temporary of one chunk stays near this many bytes; 256 KB runs faster than
# 1 MB and adds almost nothing to peak memory.  Per pair that temporary holds
# at most max(3, n) x n values: an n x n matrix, or the few n-coordinate
# arrays of an orbit distance (for each of the 5n re-splittings of a
# well-definedness trial, or of the kernel probe's 10 samples).  A chunk
# takes as many trials as fit, and then as many rows as fit beside them with
# every spec that uses them; each chunk of trials is drawn once and serves
# every spec of the stack.
_CHUNK_BYTES = 1 << 18


def _chunk(values_per_item: int) -> int:
    """Items per chunk when each item's largest temporary holds this many
    complex values."""
    return max(1, _CHUNK_BYTES // (16 * values_per_item))


def _distance(part, x, y) -> np.ndarray:
    """The orbit distance between x and y for each spec of ``part``: x and y
    have a leading axis over the part's rows, or of size 1 for all of them,
    and each spec takes its row's entries and its own m."""
    x, y = (v if len(v) == 1 else v[part.row] for v in (x, y))
    lead = max(x.ndim, y.ndim) - 1
    return orbit_distance(x, y, part.rows.params, part.m.reshape((-1,) + (1,) * (lead - 1)))


# The kernel probe's tol and its number of sample points.
PROBE_TOL = 1e-9
PROBE_SAMPLES = 10

# The largest n*|r|*m the kernel probe tells apart at its tol.  A probe
# scalar outside the kernel turns the samples by an angle at least
# 2*pi/(n*|r|*m) away from mu_m, and the probe counts it as trivial below
# its tol; the bound 2*pi/(10*tol) keeps that angle 10 times the tol.  It
# also caps the trial divisions that factor n*|r| at about 25,000.
MAX_PROBE_ORDER = int(TWO_PI / (10 * PROBE_TOL))


def _scan_order(n: int, r: int, m: int) -> int:
    """N = n*|r|, the order of the scalars the kernel probe acts with on
    M_d^n/Z_m."""
    N = n * abs(r)
    if N * m > MAX_PROBE_ORDER:
        raise ValueError(f"n*|r|*m = {N * m} exceeds MAX_PROBE_ORDER = {MAX_PROBE_ORDER}, "
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


def _probe(specs: SpecStack, seed: int) -> list:
    """For each spec of the stack, the j, among 0 and N/q for each prime
    power q | N (N = n*|r|), whose scalar e^{2*pi*i*j/N} * id acts
    trivially: every sample's image lies within ``PROBE_TOL`` orbit
    distance of it, in sorted order.  Those scalars form a subgroup mu_h
    (Cauchy: it is nontrivial iff it has an element of prime order), and
    N/q is a hit iff q | h, so these O(log N) probes, acted through the
    action, find h.

    The probes of a row depend only on its N; each row's list is padded
    with j = 0 to the longest, so the probes are a (rows, P) rectangle,
    split once.  Each chunk of rows is acted on with its P probes on one
    axis, and each spec of a row measures the images at its own m.  A
    padded j = 0 repeats the identity probe, so a spec's hits are the
    distinct j of its row that hit."""
    p = specs.params
    for r, m in dict.fromkeys(zip(specs.r, specs.m)):     # in order, each once
        _scan_order(p.n, r, m)
    orders = [p.n * abs(specs.r[i]) for i in specs.first]
    probes = {N: [0] + [N // q for q in _prime_powers(N)] for N in set(orders)}
    width = max(map(len, probes.values()))
    j = np.array([probes[N] + [0] * (width - len(probes[N])) for N in orders])
    split = _split(np.exp(2j * math.pi * j / np.array(orders)[:, None])[..., None, None]
                   * np.eye(p.n))
    z = sample_points(p.n, seed, range(PROBE_SAMPLES))
    hits = [None] * len(specs)
    step = max(1, _chunk(PROBE_SAMPLES * p.n * max(3, p.n)) // (width * specs.width))
    # a power of d beyond the float range gives an inf or NaN distance,
    # which is never below tol, so numpy's warnings about it are noise
    with np.errstate(all="ignore"):
        for part in specs.parts(step):
            rows_at = part.rows_at
            images = evaluate_formula(part.rows, split.t[rows_at][..., None],
                                      split.su_part[rows_at][:, :, None], z)
            hit = (_distance(part, images, z[None, None]) < PROBE_TOL).all(axis=-1)
            for s, js, ok in zip(part.at.tolist(), j[rows_at][part.row].tolist(),
                                 hit.tolist()):
                hits[s] = sorted(set(compress(js, ok)))
    return hits


def _exact_kernels(specs: SpecStack) -> list:
    """For each spec, N = n*|r|, the exact kernel order h = gcd(A, N) and
    the j of the witness's scalar e^{2*pi*i*j/N} * id, None when the action
    is effective.  Each run of specs on one grid line (kind, m, p, q) is a
    block of one line class for ``find_witnesses``, and only the entries of
    its witnesses (i, ell, K) are rewritten; the witness's k is that of
    ``effectiveness.kernel_witness_element``, which the witness makes exact."""
    n = specs.params.n
    kernels = []
    for (kind, m, p, q), line in groupby(zip(specs.kind, specs.m, specs.p, specs.q, specs.r),
                                         key=lambda spec: spec[:4]):
        rs = [spec[4] for spec in line]
        a = _congruence_coefficient(kind, n, m, p, q)
        run = [(n * abs(r), 1, None) for r in rs]
        for i, ell, K in find_witnesses(n, m, [line_class(kind, n, m, p, q)], rs)[0]:
            r, N = rs[i], run[i][0]
            k = -kind.eps * ((ell * a - n * K * r) // (r * m)) % n
            run[i] = (N, math.gcd(a, N), ((1 if r > 0 else -1) * ell + k * abs(r)) % N)
        kernels += run
    return kernels


def _agrees(hits: list, N: int, h: int, j_witness: Optional[int]) -> bool:
    """:func:`kernel_scan_agrees` for one spec, given its probe hits and its
    exact kernel."""
    if 0 not in hits:
        return False
    s = math.gcd(N, *hits)
    if N // s != h:
        return False
    return j_witness is None or (j_witness != 0 and j_witness % s == 0)


def kernel_scan_agrees(specs: SpecStack, seed: int = 0) -> list:
    """Exact verdict vs numeric scan: the identity acts trivially, and the
    trivially acting scalars, the j divisible by s = gcd(N, hits), are
    N/s = h of them, h the exact kernel order, and hold the exact witness
    unless the action is effective."""
    return [_agrees(hits, *kernel) for hits, kernel in
            zip(_probe(specs, seed), _exact_kernels(specs))]


def _run_check(name: str, specs: SpecStack, trials: int, tol: float, values: int,
               draw, residuals) -> Checked:
    """The check ``name`` on each spec of the stack.  ``draw(at)`` makes
    the random inputs of the trials in range ``at``, with a row axis of
    size 1, and ``residuals(part, *inputs)`` their residuals (specs, trials)
    for a :class:`~hopfact.action.Part` of the stack, in ``part.at`` order.
    Each chunk of trials is drawn once and run through the parts; a part's
    largest temporary holds ``values`` complex numbers a (spec, trial) pair.
    Overflow and invalid arithmetic are let through as inf and NaN, and any
    non-finite residual fails its spec's check."""
    pairs = _chunk(values)
    trial_step = min(trials, pairs)
    parts = specs.parts(max(1, pairs // trial_step // specs.width))
    worst = np.full(len(specs), -np.inf)
    finite = np.ones(len(specs), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, trials, trial_step):
            inputs = draw(range(lo, min(lo + trial_step, trials)))
            for part in parts:
                res = residuals(part, *inputs)
                finite[part.at] &= np.isfinite(res).all(axis=1)
                worst[part.at] = np.maximum(worst[part.at], res.max(axis=1))
    residual = np.where(finite, worst, np.nan)
    return Checked(name, trials, residual, residual < tol)


def verify_group_law(specs: SpecStack, trials: int = 200, seed: int = 1,
                     tol: float = 1e-8) -> Checked:
    """act(A1*A2, z) against act(A1, act(A2, z))."""
    p = specs.params

    def draw(at):
        # trial i's A1 and A2 are draws 2i and 2i + 1 of the check's stream
        a = random_unitary(p.n, seed, range(2 * at.start, 2 * at.stop))
        a1, a2 = a[0::2], a[1::2]
        ue = _split(np.stack([a1, a2, a1 @ a2]))
        return (*(UnitaryElement(t[None], b[None]) for t, b in zip(ue.t, ue.su_part)),
                sample_points(p.n, seed, at)[None])

    def residuals(part, a1, a2, a12, zc):
        rows = part.rows
        lhs = evaluate_formula(rows, a12.t, a12.su_part, zc)
        rhs = evaluate_formula(rows, a1.t, a1.su_part,
                               evaluate_formula(rows, a2.t, a2.su_part, zc))
        return _distance(part, lhs, rhs)

    return _run_check("group_law", specs, trials, tol, p.n * max(3, p.n), draw, residuals)


def verify_well_definedness(specs: SpecStack, trials: int = 50, seed: int = 2,
                            tol: float = 1e-8) -> Checked:
    """Re-split A = e^{i(t + 2*pi*k/n + 2*pi*ell)} (e^{-2*pi*i*k/n} B) for
    all k and ell in {-2, ..., 2} and compare the raw formula outputs in
    the quotient."""
    p = specs.params
    n = p.n
    k = np.arange(n)
    ell = np.arange(-2, 3)

    def draw(at):
        ue = _split(random_unitary(n, seed, at))
        t2 = ue.t[:, None, None] + TWO_PI * k[:, None] / n + TWO_PI * ell   # (T, n, 5)
        b2 = (np.exp(-2j * math.pi * k / n)[:, None, None, None]
              * ue.su_part[:, None, None])                                  # (T, n, 1, n, n)
        return ue.t[None], ue.su_part[None], t2[None], b2[None], sample_points(n, seed, at)[None]

    def residuals(part, t, b, t2, b2, zc):
        base = evaluate_formula(part.rows, t, b, zc)                        # (R, T, n)
        shifted = evaluate_formula(part.rows, t2, b2, zc[:, :, None, None])  # (R, T, n, 5, n)
        return _distance(part, shifted, base[:, :, None, None]).max(axis=(2, 3))

    return _run_check("well_definedness", specs, trials, tol, 5 * n * n * max(3, n),
                      draw, residuals)


def verify_transitivity(specs: SpecStack, trials: int = 200, seed: int = 3,
                        tol: float = 1e-8, log10_scale: float = 0.0) -> Checked:
    """solve_transport round trip: act(A, z) must land on w.  A nonzero
    ``log10_scale`` spreads each z and w in norm by 10**e, e uniform in
    [-log10_scale, log10_scale]."""
    p = specs.params

    def draw(at):
        # trial i's z and w are draws 2i and 2i + 1 of the check's points
        zw = sample_points(p.n, seed, range(2 * at.start, 2 * at.stop), log10_scale)
        return zw[None, 0::2], zw[None, 1::2]

    def residuals(part, zc, wc):
        rows = part.rows
        return _distance(part, _apply(rows, _transport(rows, zc, wc), zc), wc)

    return _run_check("transitivity", specs, trials, tol, p.n * max(3, p.n), draw, residuals)


def verify_power_branch(specs: SpecStack, trials: int = 20, seed: int = 4,
                        tol: float = 1e-12) -> Checked:
    """Alternative d^mu branches: evaluating with an extra e^{2*pi*i*mu*L}
    factor and p shifted to p - L*r reproduces the standard evaluation
    exactly, as raw vectors.  One residual a row, which each spec of the
    row takes: m is never read."""
    p = specs.params
    # of the fields the formula reads, p moves only sigma: p - L*r takes L*n*r
    # off it, that is (A - L*n*r*m)/m with A = sigma*m, and int / int rounds
    # that rational correctly, as float() of it would; at L = 0 it is the
    # row's own sigma, so that branch is the standard evaluation
    exact = [(_congruence_coefficient(specs.kind[i], p.n, specs.m[i], specs.p[i], specs.q[i]),
              p.n * specs.r[i] * specs.m[i], specs.m[i]) for i in specs.first]
    branches = np.arange(-2, 3)
    sigma = np.array([[(a - L * nrm) / m for L in branches.tolist()] for a, nrm, m in exact])

    def draw(at):
        return _split(random_unitary(p.n, seed, at)[None]), sample_points(p.n, seed, at)[None]

    def residuals(part, ue, zc):
        # each row five times, once a branch, in one evaluation
        rows = part.rows
        five = Rows(p, sigma[part.rows_at].ravel(), *(np.repeat(field, 5, axis=0) for field in
                                                       (rows.nr, rows.conj, rows.C, rows.C_inv)))
        images = evaluate_formula(five, ue.t, ue.su_part, zc, branch=np.tile(branches, len(rows)))
        images = images.reshape(len(rows), 5, *images.shape[1:])
        base = images[:, 2]
        res = np.linalg.norm(images - base[:, None], axis=-1).max(axis=1) / \
            np.linalg.norm(base, axis=-1)
        return res[part.row]

    return _run_check("power_branch", specs, trials, tol, 5 * p.n * p.n, draw, residuals)


def verify_dimtwo(specs: SpecStack, trials: int = 100, seed: int = 5,
                  tol: float = 1e-10) -> Checked:
    """n = 2 only: a Type2 action equals its inner-conjugation Type1 form
    as raw vectors.  One residual a row, which each spec of the row takes:
    m is never read."""
    rows = specs.rows
    if specs.params.n != 2 or not rows.conj.all():
        raise ValueError("dimtwo identity applies to Type2 actions with n = 2")
    # each row's Type1 twin: at n = 2, p - 1 and eps from -1 to +1 leave
    # sigma as it is, and C @ J and J^T @ C^{-1} are exact
    twins = replace(rows, conj=np.zeros_like(rows.conj), C=rows.C @ SU2_CONJUGATOR,
                    C_inv=SU2_CONJUGATOR.T @ rows.C_inv)

    def draw(at):
        return _split(random_unitary(2, seed, at)[None]), sample_points(2, seed, at)[None]

    def residuals(part, ue, zc):
        lhs = evaluate_formula(part.rows, ue.t, ue.su_part, zc)
        rhs = evaluate_formula(twins[part.rows_at], ue.t, ue.su_part, zc)
        return (np.linalg.norm(lhs - rhs, axis=-1) / np.linalg.norm(lhs, axis=-1))[part.row]

    return _run_check("dimtwo", specs, trials, tol, 4, draw, residuals)


def run_suite(stack: SpecStack, trials: int = 200, seed: int = 0, tol: float = 1e-8) -> list:
    """Every check of the suite on the stack, in report order, each as its
    :class:`Checked` and the positions of the specs it covers: all of them,
    None, but for dimtwo, which covers the Type2 specs of n = 2.  The
    kernel agreement comes last, with the residual 0.0 where it holds and
    1.0 where it does not."""
    checks = [(verify_group_law(stack, trials, seed + 1, tol), None),
              (verify_well_definedness(stack, max(trials // 4, 1), seed + 2, tol), None),
              (verify_transitivity(stack, trials, seed + 3, tol), None),
              (verify_power_branch(stack, max(trials // 10, 1), seed + 4, 1e-12), None)]
    conj = [kind is ActionKind.TYPE2 for kind in stack.kind]
    if stack.params.n == 2 and any(conj):
        at = np.flatnonzero(conj)
        checks.append((verify_dimtwo(stack.take(at), trials // 2 or 1, seed + 5, 1e-10), at))
    agrees = np.array(kernel_scan_agrees(stack, seed + 6))
    checks.append((Checked("kernel_scan_agreement", PROBE_SAMPLES, np.where(agrees, 0.0, 1.0),
                           agrees), None))
    return checks
