"""The paper's reference action on M_d^n and its place in the classification.

With lambda the principal solution of e^{2*pi*(lambda - i)/n} = d, the
reference action sends A = e^{it} B to [z] -> [e^{lambda*t} B z] on M_d^n
(m = 1).  It is the Type1 action with p = q = 0, r = 1 and C = id, which
acceptance criterion 6 checks through ``act`` and ``orbit_distance``.
"""

import cmath
import math

import numpy as np

from hopfact.action import ActionKind, ActionSpec, act
from hopfact.cmatrix import (TWO_PI, as_cmatrix, principal_arg, random_unitary, sample_points,
                             su_decompose)
from hopfact.hopf import HopfParams, OrbitPoint, orbit_distance


def example_lambda(params: HopfParams) -> complex:
    """Principal solution of e^{2*pi*(lambda - i)/n} = d."""
    d = params.d
    return 1j + params.n * (math.log(abs(d)) + 1j * principal_arg(d)) / TWO_PI


def example_action(params: HopfParams, A: np.ndarray, z: OrbitPoint) -> OrbitPoint:
    """The reference action A[z] = [e^{lambda*t} B z] on M_d^n (m = 1)."""
    if z.params != params:
        raise ValueError("point and action live on different quotient manifolds")
    A = as_cmatrix(A)
    if A.shape[0] != params.n:
        raise ValueError(f"A has dimension {A.shape[0]}, manifold has n = {params.n}")
    ue = su_decompose(A)
    lam = example_lambda(params)
    return OrbitPoint(params, cmath.exp(lam * ue.t) * (ue.su_part @ z.rep))


def match_example_to_type1(params: HopfParams, samples: int = 20, seed: int = 20260824,
                           tol: float = 1e-9) -> ActionSpec:
    """Express the reference action in the classified form.

    With the principal lambda branch the reference action is the Type1
    action with p = q = 0, r = 1 and C = id; the identification is
    re-verified numerically on sampled (A, z) pairs before the spec is
    returned.
    """
    if params.m != 1:
        raise ValueError("the reference action is defined on M_d^n (m = 1)")
    n = params.n
    spec = ActionSpec(ActionKind.TYPE1, p=0, q=0, r=1,
                      C=np.eye(n, dtype=np.complex128), params=params)
    draws = range(samples)
    for A, v in zip(random_unitary(n, seed, draws), sample_points(n, seed, draws)):
        z = OrbitPoint(params, v)
        if not orbit_distance(act(spec, A, z).rep, example_action(params, A, z).rep,
                              params) <= tol:
            raise AssertionError("reference action failed to match its Type1 form")
    return spec
