"""Loop reference for the oracle's sample checks.

The per-trial loops that ``oracle.verify_*`` replaced with batches over
trials, one trial and one point at a time through the single-point entry
points; the batched checks must report the same verdicts and residuals
equal up to summation order.  Each unitary and each sample point is drawn
alone, from its address (check seed, index) in the check's streams, so
matching the batched checks also checks that a trial replays from that
address.  Kept for reading, not for speed.
"""

import math
from typing import NamedTuple

import numpy as np

from hopfact.action import (
    SU2_CONJUGATOR,
    ActionKind,
    ActionSpec,
    SpecStack,
    act,
    evaluate_formula,
    solve_transport,
)
from hopfact.cmatrix import TWO_PI, random_unitary, su_decompose
from hopfact.hopf import OrbitPoint, orbit_distance
from hopfact.oracle import sample_points


class Reference(NamedTuple):
    """One check's outcome on one spec."""

    name: str
    trials: int
    max_residual: float
    passed: bool


def draw(n: int, seed: int, index: int) -> np.ndarray:
    """Draw ``index`` of the unitary stream of the check seed ``seed``."""
    return random_unitary(n, seed, trials=range(index, index + 1))[0]


def point(p, seed: int, index: int, log10_scale: float = 0.0) -> OrbitPoint:
    """Draw ``index`` of the point stream of the check seed ``seed``."""
    return OrbitPoint(p, sample_points(p.n, seed, range(index, index + 1), log10_scale)[0])


def formula(spec: ActionSpec, t, B: np.ndarray, vec: np.ndarray, branch=0) -> np.ndarray:
    """The raw formula of one spec on one (t, B, vec): its stack's one row."""
    return evaluate_formula(SpecStack.of([spec]).rows, t, B, vec, branch)[0]


def verify_group_law(spec: ActionSpec, trials: int = 200, seed: int = 1,
                     tol: float = 1e-8) -> Reference:
    """act(A1*A2, z) against act(A1, act(A2, z))."""
    p = spec.params
    worst = 0.0
    for i in range(trials):
        a1 = draw(p.n, seed, 2 * i)
        a2 = draw(p.n, seed, 2 * i + 1)
        pt = point(p, seed, i)
        lhs = act(spec, a1 @ a2, pt)
        rhs = act(spec, a1, act(spec, a2, pt))
        worst = max(worst, orbit_distance(lhs.rep, rhs.rep, p))
    return Reference("group_law", trials, worst, worst < tol)


def verify_well_definedness(spec: ActionSpec, trials: int = 50, seed: int = 2,
                            tol: float = 1e-8) -> Reference:
    """Re-split A = e^{i(t + 2*pi*k/n + 2*pi*ell)} (e^{-2*pi*i*k/n} B) for
    all k and ell in {-2, ..., 2} and compare the raw formula outputs in
    the quotient."""
    p = spec.params
    worst = 0.0
    for i in range(trials):
        a = draw(p.n, seed, i)
        pt = point(p, seed, i)
        base = act(spec, a, pt)
        ue = su_decompose(a)
        for k in range(p.n):
            for ell in range(-2, 3):
                t2 = ue.t + TWO_PI * k / p.n + TWO_PI * ell
                b2 = np.exp(-2j * math.pi * k / p.n) * ue.su_part
                shifted = formula(spec, t2, b2, pt.rep)
                worst = max(worst, orbit_distance(shifted, base.rep, p))
    return Reference("well_definedness", trials, worst, worst < tol)


def verify_transitivity(spec: ActionSpec, trials: int = 200, seed: int = 3,
                        tol: float = 1e-8, log10_scale: float = 0.0) -> Reference:
    """solve_transport round trip: act(A, z) must land on w."""
    p = spec.params
    worst = 0.0
    for i in range(trials):
        z = point(p, seed, 2 * i, log10_scale)
        w = point(p, seed, 2 * i + 1, log10_scale)
        a = solve_transport(spec, z, w)
        worst = max(worst, orbit_distance(act(spec, a, z).rep, w.rep, p))
    return Reference("transitivity", trials, worst, worst < tol)


def verify_power_branch(spec: ActionSpec, trials: int = 20, seed: int = 4,
                        tol: float = 1e-12) -> Reference:
    """Alternative d^mu branches: evaluating with an extra e^{2*pi*i*mu*L}
    factor and p shifted to p - L*r reproduces the standard evaluation
    exactly, as raw vectors."""
    p = spec.params
    worst = 0.0
    for i in range(trials):
        a = draw(p.n, seed, i)
        z = point(p, seed, i).rep
        ue = su_decompose(a)
        base = formula(spec, ue.t, ue.su_part, z)
        scale = float(np.linalg.norm(base))
        for L in range(-2, 3):
            shifted_spec = ActionSpec(spec.kind, spec.p - L * spec.r, spec.q,
                                      spec.r, spec.C, spec.params)
            alt = formula(shifted_spec, ue.t, ue.su_part, z, branch=L)
            worst = max(worst, float(np.linalg.norm(alt - base)) / scale)
    return Reference("power_branch", trials, worst, worst < tol)


def type2_as_type1(spec: ActionSpec) -> ActionSpec:
    """For n = 2, the Type1 action that coincides with a Type2 action.

    Conjugation is inner on SU_2, so C is replaced by C @ SU2_CONJUGATOR;
    matching the scalar phase exponents (eps flips from -1 to +1) shifts
    p to p - 1.  The two raw formulas then agree vector for vector.
    """
    if spec.params.n != 2:
        raise ValueError("the conjugation identity is specific to n = 2")
    if spec.kind is not ActionKind.TYPE2:
        raise ValueError("expected a Type2 action")
    # the conjugator's entries are 0 and +-1, so C @ J is exact
    return ActionSpec(ActionKind.TYPE1, spec.p - 1, spec.q, spec.r, spec.C @ SU2_CONJUGATOR,
                      spec.params)


def verify_dimtwo(spec: ActionSpec, trials: int = 100, seed: int = 5,
                  tol: float = 1e-10) -> Reference:
    """n = 2 only: a Type2 action equals its inner-conjugation Type1 form
    as raw vectors."""
    if spec.params.n != 2 or spec.kind is not ActionKind.TYPE2:
        raise ValueError("dimtwo identity applies to Type2 actions with n = 2")
    p = spec.params
    twin = type2_as_type1(spec)
    worst = 0.0
    for i in range(trials):
        a = draw(2, seed, i)
        pt = point(p, seed, i)
        lhs = act(spec, a, pt)
        rhs = act(twin, a, pt)
        scale = float(np.linalg.norm(lhs.rep))
        worst = max(worst, float(np.linalg.norm(lhs.rep - rhs.rep)) / scale)
    return Reference("dimtwo", trials, worst, worst < tol)
