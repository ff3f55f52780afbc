"""The two classified action families of U_n on M_d^n/Z_m.

An action is parametrized by a kind (whether the special-unitary part acts
directly or through complex conjugation), integers p, q, r with r != 0, an
invertible matrix C, and the manifold parameters.  Writing a unitary A as
e^{it} B with B special unitary, the action sends a representative z to

    e^{i*sigma*t} * d^{n*r*t/(2*pi)} * C B' C^{-1} z,

where sigma = eps + (p + q/m)*n, eps = +1 or -1 per kind, and B' is B or
its conjugate.  The orbit class of the result does not depend on the
branch of the e^{it} B splitting; that is a tested property rather than an
assumption.

An :class:`ActionSpec` is that exact data, validated once.  The floats the
formula reads (sigma, n*r, C and C^{-1}) exist only in :class:`Rows`, which
``SpecStack.of_columns`` makes: the formula fields of specs that share d
and n, on a row axis, the first of the leading axes that ``d_pow``,
``evaluate_formula`` and the transport solver broadcast over (arrays of t,
stacks of B and of vectors).  A :class:`SpecStack` holds such specs as
integer columns and gives each distinct formula row once: specs that differ
only in m, or in m, p and q with one sigma, share a row.  ``act`` and
``solve_transport`` evaluate the one row of their spec.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cmatrix import TWO_PI, as_cmatrix, su_decompose
from .effectiveness import ActionKind, _congruence_coefficient
from .hopf import HopfParams, OrbitPoint


# For n = 2 conjugation B -> conj(B) is inner: conj(B) = J B J^{-1} with
# this special-unitary J, which turns any Type2 action into a Type1 action
# with C replaced by C @ SU2_CONJUGATOR.
SU2_CONJUGATOR = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)


@dataclass(frozen=True)
class ActionSpec:
    """Full parametrization of one action, exact and validated once: r is
    nonzero and C a finite, well-conditioned n x n matrix, held read-only.
    Two specs are equal when their fields are and their Cs have equal bytes."""

    kind: ActionKind
    p: int
    q: int
    r: int
    C: np.ndarray
    params: HopfParams

    def __post_init__(self):
        if self.r == 0:
            raise ValueError("r must be nonzero")
        C = as_cmatrix(self.C).copy()
        if C.shape[0] != self.params.n:
            raise ValueError(f"C has dimension {C.shape[0]}, manifold has n = {self.params.n}")
        if not np.isfinite(C).all():
            raise ValueError("C must be finite")
        if np.linalg.cond(C) >= 1e8:
            raise ValueError("C is too ill-conditioned to be treated as invertible")
        C += 0.0            # -0.0 -> 0.0, so equal specs have equal bytes
        C.flags.writeable = False
        object.__setattr__(self, "C", C)

    def _key(self) -> tuple:
        return self.kind, self.p, self.q, self.r, self.params, self.C.shape, self.C.tobytes()

    # by C's shape and bytes: the generated methods would compare the C
    # arrays elementwise, whose truth value is ambiguous, and hash an array
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Rows:
    """The fields the action formula reads, stacked on a leading axis, one
    entry a formula row.  Passed where one spec goes, that axis is the first
    leading axis of the broadcast inputs: an input that every row shares has
    size 1 there, or fewer leading axes.  ``identity`` is read from C, so
    rows made with another C (``dataclasses.replace``) read their own."""

    params: HopfParams
    sigma: np.ndarray       # (R,) sigma as a float
    nr: np.ndarray          # (R,) n*r as floats
    conj: np.ndarray        # (R,) True where B enters as its conjugate
    C: np.ndarray           # (R, n, n) the spec's C times a power of two
    C_inv: np.ndarray       # (R, n, n) its inverse

    def __len__(self) -> int:
        return len(self.sigma)

    @cached_property
    def identity(self) -> bool:
        """Whether every row's C is the identity, so that the products by C
        and C^{-1} may be skipped: I*v is v for a finite v.  A C of the
        form 2^k * I is the identity here, ``_unit_scaled`` having scaled
        it."""
        return bool((self.C == np.eye(self.params.n)).all())

    def __getitem__(self, index) -> "Rows":
        """The rows at ``index``, a slice or an array of positions."""
        return Rows(self.params, self.sigma[index], self.nr[index], self.conj[index],
                    self.C[index], self.C_inv[index])


class Part(NamedTuple):
    """Some rows of a :class:`SpecStack` and the specs that use them, in
    the order of their rows."""

    at: np.ndarray          # the positions of the specs in the stack
    rows_at: slice          # the positions of the rows in the stack
    rows: Rows
    row: np.ndarray         # each spec's row in ``rows``
    m: np.ndarray           # each spec's m, as a float


@dataclass(frozen=True)
class SpecStack:
    """Specs that share d and n, as columns: each spec's kind, p, q, r and m,
    integers all.  The formula reads the kind, sigma = A/m, r and C, and m
    only through A/m; m itself enters only through the deck group, that is
    the orbit distance.  So specs with equal kind, A/m as a reduced fraction,
    r and C share a formula row, whose sigma floats and power-branch shifts
    (A - L*n*r*m)/m are then bit-equal too.  ``rows`` holds each distinct
    row once, in order of first use, ``first`` the first spec of each, and
    ``row`` the row of each spec: spec i uses row ``row[i]``.  ``params`` is
    the first spec's."""

    params: HopfParams
    kind: tuple
    p: tuple
    q: tuple
    r: tuple
    m: tuple
    rows: Rows
    first: list
    row: np.ndarray

    @classmethod
    def of(cls, specs) -> "SpecStack":
        specs = tuple(specs)
        params = specs[0].params
        if any(s.params.d != params.d or s.params.n != params.n for s in specs):
            raise ValueError("stacked specs must share d and n")
        return cls.of_columns(params, [s.kind for s in specs], [s.p for s in specs],
                              [s.q for s in specs], [s.r for s in specs],
                              [s.params.m for s in specs], [s.C for s in specs])

    @classmethod
    def of_columns(cls, params: HopfParams, kind, p, q, r, m, C) -> "SpecStack":
        """The specs on the d and n of ``params`` whose fields are the
        columns kind, p, q, r and m, with the complex128 matrices of the
        sequence C, one entry a spec.  Nothing is validated again: r must be
        nonzero, m positive and C finite and well conditioned.  The distinct
        Cs are scaled by ``_unit_scaled`` and inverted in one call."""
        n = params.n
        keys, row, first, sigma, matrices = {}, [], [], [], {}
        for i, (kind_i, p_i, q_i, r_i, m_i, c) in enumerate(zip(kind, p, q, r, m, C)):
            a = _congruence_coefficient(kind_i, n, m_i, p_i, q_i)
            g = math.gcd(a, m_i)
            at = matrices.setdefault(c.tobytes(), len(matrices))
            index = keys.setdefault((kind_i, a // g, m_i // g, r_i, at), len(first))
            if index == len(first):
                first.append(i)
                sigma.append(_as_float(a, m_i, "sigma = A/m"))
            row.append(index)
        # the distinct Cs, rebuilt from their bytes, and each row's among them
        scaled = _unit_scaled(np.frombuffer(b"".join(matrices), np.complex128).reshape(-1, n, n))
        which = [key[-1] for key in keys]
        nr = [_as_float(n * r[i], 1, "n*r") for i in first]
        rows = Rows(params, np.array(sigma), np.array(nr),
                    np.array([kind[i] is ActionKind.TYPE2 for i in first]),
                    scaled[which], np.linalg.inv(scaled)[which])
        return cls(params, tuple(kind), tuple(p), tuple(q), tuple(r), tuple(m), rows, first,
                   np.array(row))

    def __len__(self) -> int:
        return len(self.m)

    @property
    def width(self) -> int:
        """The most specs that share one row."""
        return int(np.bincount(self.row).max())

    def take(self, at) -> "SpecStack":
        """The stack of the specs at the positions ``at``, in that order."""
        at = list(at)
        columns = [tuple(column[i] for i in at)
                   for column in (self.kind, self.p, self.q, self.r, self.m)]
        used, first, row = np.unique(self.row[at], return_index=True, return_inverse=True)
        return SpecStack(self.params, *columns, self.rows[used], first.tolist(), row)

    def parts(self, step: int) -> list:
        """The stack as :class:`Part` s of ``step`` rows each."""
        deck_m = np.array(self.m, dtype=np.float64)
        count = len(self.rows)
        order = np.argsort(self.row, kind="stable")
        edges = np.searchsorted(self.row[order], [*range(0, count, step), count])
        return [Part(at, slice(lo, lo + step), self.rows[lo:lo + step], self.row[at] - lo,
                     deck_m[at])
                for lo, at in zip(range(0, count, step), np.split(order, edges[1:-1]))]


def _as_float(a: int, b: int, name: str) -> float:
    """a / b, correctly rounded, or a ValueError naming it where it is past the floats."""
    try:
        return a / b
    except OverflowError:
        raise ValueError(f"{name} is past the floats: its modulus must be below 2**1024, "
                         "about 1.8e308") from None


def _unit_scaled(c: np.ndarray) -> np.ndarray:
    """Each matrix of the stack c (k, n, n) times the power of two that puts
    the largest real or imaginary part of its entries in [1, 2), exactly
    (but for entries below 2^-1022 of that part).  C and lambda*C define one
    action, so C^{-1} z stays within the floats whatever the scale of C."""
    parts = c.view(np.float64)
    _, e = np.frexp(np.abs(parts).max(axis=(-2, -1)))
    return np.ldexp(parts, 1 - e[:, None, None]).view(np.complex128)


def _fields(rows: Rows, ndim: int) -> tuple:
    """sigma, n*r, conj, C and C^{-1} of the rows, shaped to broadcast against
    ``ndim`` leading axes, the row axis the first of them."""
    lead = (len(rows),) + (1,) * (ndim - 1)
    return (rows.sigma.reshape(lead), rows.nr.reshape(lead), rows.conj.reshape(lead),
            rows.C.reshape(lead + rows.C.shape[1:]), rows.C_inv.reshape(lead + rows.C.shape[1:]))


def d_pow(d: complex, mu, branch=0):
    """Real power d^mu on the branch |d|^mu * e^{i*mu*(arg d + 2*pi*branch)}.

    The default branch uses the ordinary argument in [0, 2*pi).  Any other
    admissible power function differs by the integer ``branch``, which may
    be an array that broadcasts against ``mu``.  ``mu`` may be an array; a
    power too large for a float is infinite or NaN, not an error.
    """
    d = complex(d)
    if d == 0:
        raise ValueError("d must be nonzero")
    # arg d in Python floats: atan2, then principal_arg's shifts.  math.atan2
    # is cmath.phase bit for bit, but returns 0 where the argument underflows
    # (d = 2 + 5e-324j), which cmath.phase raises as an OverflowError
    arg = math.atan2(d.imag, d.real)
    arg = arg + TWO_PI if arg < 0.0 else arg
    theta = (arg - TWO_PI if arg >= TWO_PI else arg) + TWO_PI * np.asarray(branch)
    mu = np.asarray(mu, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return (abs(d) ** mu * np.exp(1j * mu * theta))[()]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for matrices a (..., n, n) and vectors v (..., n), broadcast."""
    return (a @ v[..., None])[..., 0]


def _scalar_factor(spec: Rows, t: np.ndarray, branch=0, ndim: int = None):
    """The scalar e^{i*sigma*t} * d^{n*r*t/(2*pi)}, t broadcast against
    ``ndim`` (default t's) leading axes; an array ``branch`` has one entry a
    row.  d_pow is looked up at call time, so a substituted power function
    reaches every use of the action."""
    ndim = t.ndim if ndim is None else ndim
    sigma, nr = _fields(spec, ndim)[:2]
    if np.ndim(branch):
        branch = np.reshape(branch, np.shape(sigma))
    return np.exp(1j * sigma * t) * d_pow(spec.params.d, nr * t / TWO_PI, branch)


def evaluate_formula(spec: Rows, t, B: np.ndarray, vec: np.ndarray,
                     branch=0) -> np.ndarray:
    """Raw action formula for one explicit (t, B) representation of A.

    Exposed separately from :func:`act` so that well-definedness and
    power-branch identities can be probed with non-canonical splittings.
    t (...), B (..., n, n) and vec (..., n) broadcast over leading axes,
    the first of them the row axis, and ``branch`` may be an array with
    one entry a row.  Rows whose C is the identity skip its two products.
    """
    t = np.asarray(t, dtype=np.float64)
    ndim = max(t.ndim, np.ndim(B) - 2, np.ndim(vec) - 1)
    _, _, conj, C, C_inv = _fields(spec, ndim)
    Bp = np.where(conj[..., None, None], np.conj(B), B)
    scalar = _scalar_factor(spec, t, branch, ndim)
    if spec.identity:
        return scalar[..., None] * _matvec(Bp, vec)
    return scalar[..., None] * _matvec(C, _matvec(Bp, _matvec(C_inv, vec)))


def _apply(spec: Rows, A: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The action of the unitaries A (..., n, n) on the vectors vec (..., n)."""
    ue = su_decompose(A)
    return evaluate_formula(spec, ue.t, ue.su_part, vec)


def act(spec: ActionSpec, A: np.ndarray, z: OrbitPoint) -> OrbitPoint:
    """Apply the unitary A to the point z under the given action.

    Returns a raw representative; compose with canonicalize for a
    fundamental-domain form.
    """
    if z.params != spec.params:
        raise ValueError("point and action live on different quotient manifolds")
    A = as_cmatrix(A)
    if A.shape[0] != spec.params.n:
        raise ValueError(f"A has dimension {A.shape[0]}, manifold has n = {spec.params.n}")
    return OrbitPoint(spec.params, _apply(SpecStack.of([spec]).rows, A, z.rep)[0])


def _plane_rotation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The special unitaries B (..., n, n) with B x = y, for ||x|| = ||y||:
    the SU(2) turn of the plane of x and y that fixes its complement.  With
    u = x/||x||, v = y/||x||, a = <u, v>, w the unit vector along v - a*u,
    orthogonalised twice against u, and b = <w, v>, B = I + V (R - I) V^H
    for V = [u w] and R = [[a, -conj(b)], [b, conj(a)]] in SU(2), so
    det B = 1.  Where y is parallel to x up to rounding, v - a*u is noise,
    which the second pass cuts by more than half (Kahan's test); w is then
    e_j - conj(u_j)*u at the least |u_j|."""
    n = x.shape[-1]
    norm = np.linalg.norm(x, axis=-1)[..., None]
    u, v = x / norm, y / norm
    a = np.einsum("...i,...i->...", u.conj(), v)[..., None]
    first = v - a * u
    w = first - np.einsum("...i,...i->...", u.conj(), first)[..., None] * u
    noise = ~(np.linalg.norm(w, axis=-1) > 0.5 * np.linalg.norm(first, axis=-1))
    if noise.any():
        j = np.argmin(np.abs(u), axis=-1)[..., None]
        axis = (np.arange(n) == j) - np.take_along_axis(u, j, -1).conj() * u
        w = np.where(noise[..., None], axis, w)
    w /= np.linalg.norm(w, axis=-1)[..., None]
    b = np.einsum("...i,...i->...", w.conj(), v)[..., None]
    # the columns of V (R - I) are (a - 1) u + b w and (conj(a) - 1) w - conj(b) u
    B = np.einsum("...i,...j->...ij", (a - 1) * u + b * w, u.conj()) + np.eye(n)
    B += np.einsum("...i,...j->...ij", (a.conj() - 1) * w - b.conj() * u, w.conj())
    return B


def _transport(spec: Rows, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unitaries (..., n, n) carrying the vectors z to w (..., n); see
    :func:`solve_transport`; rows whose C is the identity skip C^{-1}."""
    ndim = max(z.ndim, w.ndim) - 1
    _, nr, conj, _, C_inv = _fields(spec, ndim)
    u, v = (z, w) if spec.identity else (_matvec(C_inv, z), _matvec(C_inv, w))
    t = TWO_PI * np.log(np.linalg.norm(v, axis=-1) / np.linalg.norm(u, axis=-1)) / (
        nr * math.log(abs(spec.params.d))
    )
    target = v / _scalar_factor(spec, t)[..., None]
    # a conjugated kind needs conj(B) u = target, i.e. B conj(u) = conj(target)
    x = np.where(conj[..., None], np.conj(u), u)
    y = np.where(conj[..., None], np.conj(target), target)
    return np.exp(1j * t)[..., None, None] * _plane_rotation(x, y)


def solve_transport(spec: ActionSpec, z: OrbitPoint, w: OrbitPoint) -> np.ndarray:
    """A unitary A carrying z to w under the action (transitivity witness).

    The modulus equation |d|^{n*r*t/(2*pi)} = ||C^{-1}w|| / ||C^{-1}z|| fixes
    t (r != 0 makes it solvable); the special-unitary factor is the SU(2)
    turn of the plane of x = C^{-1}z and the target, which fixes the plane's
    complement (n >= 2 makes that plane exist).
    """
    p = spec.params
    if z.params != p or w.params != p:
        raise ValueError("points and action live on different quotient manifolds")
    return _transport(SpecStack.of([spec]).rows, z.rep, w.rep)[0]
