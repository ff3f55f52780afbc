"""Desk-scale parameter grid shared by the acceptance tests.

Grid G: n in {2,3,4}, m in {1..6}, both kinds, p,q in {-3..3},
r in {-3..3}\\{0}, d in {4, 0.5, -2, 1+2i}, C in {identity, one fixed
random well-conditioned matrix per n}.

The reduced grid (documented fast variant) restricts to |p|,|q|,|r| <= 2
and the single d = 4.
"""

import itertools

import numpy as np

from hopfact import ActionSpec, HopfParams
from hopfact.action import ActionKind

N_LIST = (2, 3, 4)
M_LIST = (1, 2, 3, 4, 5, 6)
KINDS = (ActionKind.TYPE1, ActionKind.TYPE2)
P_RANGE = tuple(range(-3, 4))
Q_RANGE = tuple(range(-3, 4))
R_RANGE = tuple(r for r in range(-3, 4) if r != 0)
D_LIST = (4 + 0j, 0.5 + 0j, -2 + 0j, 1 + 2j)


def fixed_C(n: int) -> np.ndarray:
    """One deterministic well-conditioned non-identity matrix per n."""
    rng = np.random.Generator(np.random.Philox(515 + n))
    perturbation = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = np.eye(n, dtype=np.complex128) + 0.3 * perturbation
    assert np.linalg.cond(c) < 1e3
    return c


def arithmetic_tuples(p_range=P_RANGE, q_range=Q_RANGE, r_range=R_RANGE,
                      n_list=N_LIST, m_list=M_LIST):
    """(n, m, kind, p, q, r) tuples; the d- and C-free part of G."""
    return itertools.product(n_list, m_list, KINDS, p_range, q_range, r_range)


def grid_specs(p_range=P_RANGE, q_range=Q_RANGE, r_range=R_RANGE,
               d_list=D_LIST, n_list=N_LIST, m_list=M_LIST, step=1):
    """Full ActionSpec stream over the requested sub-grid, or every
    ``step``-th spec of it; the specs skipped are never built."""
    cs = {n: (np.eye(n, dtype=np.complex128), fixed_C(n)) for n in n_list}
    cells = itertools.product(arithmetic_tuples(p_range, q_range, r_range, n_list, m_list),
                              d_list, (0, 1))
    for (n, m, kind, p, q, r), d, c in itertools.islice(cells, 0, None, step):
        yield ActionSpec(kind, p, q, r, cs[n][c], HopfParams(d=d, n=n, m=m))


REDUCED_P = tuple(range(-2, 3))
REDUCED_Q = tuple(range(-2, 3))
REDUCED_R = (-2, -1, 1, 2)
REDUCED_D = (4 + 0j,)


def reduced_grid_specs():
    return grid_specs(p_range=REDUCED_P, q_range=REDUCED_Q, r_range=REDUCED_R,
                      d_list=REDUCED_D)
