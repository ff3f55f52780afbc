import math

import numpy as np
import pytest

from hopfact.action import ActionKind, ActionSpec
from hopfact.cmatrix import (
    _philox_keys,
    as_cmatrix,
    principal_arg,
    random_unitary,
    su_decompose,
    unitarity_residual,
)
from hopfact.hopf import HopfParams


def _c_inv(c):
    """The inverse of C that an action stores, the program's one matrix inverse."""
    c = as_cmatrix(c)
    params = HopfParams(d=4, n=c.shape[0], m=1)
    return ActionSpec(ActionKind.TYPE1, 0, 0, 1, c, params).C_inv


def test_matmul_identity():
    m = as_cmatrix([[1, 2j], [3, 4]])
    assert np.allclose(as_cmatrix(np.eye(2)) @ m, m)


def test_matmul_diag_i_squared():
    d = as_cmatrix(np.diag([1j, 1j]))
    assert np.allclose(d @ d, np.diag([-1, -1]))


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        as_cmatrix(np.eye(2)) @ as_cmatrix(np.eye(3))


@pytest.mark.parametrize("seed", range(10))
def test_matmul_unitary_product_is_unitary(seed):
    u = random_unitary(3, seed)
    v = random_unitary(3, 1000 + seed)
    assert unitarity_residual(u @ v) < 1e-12


def test_inverse_identity():
    assert np.allclose(_c_inv(np.eye(3)), np.eye(3))


def test_inverse_diagonal():
    assert np.allclose(_c_inv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


@pytest.mark.parametrize("seed", range(10))
def test_inverse_residual(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    c = np.eye(4) + 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.max(np.abs(c @ _c_inv(c) - np.eye(4))) < 1e-10


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        _c_inv(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_det_identity():
    assert np.linalg.det(np.eye(3)) == pytest.approx(1.0)


def test_det_diag_i():
    assert np.linalg.det(np.diag([1j, 1j])) == pytest.approx(-1.0)


def test_det_singular_is_zero():
    assert np.linalg.det(np.zeros((2, 2))) == 0


@pytest.mark.parametrize("seed", range(10))
def test_det_of_su_is_one(seed):
    b = su_decompose(random_unitary(3, seed)).su_part
    assert abs(np.linalg.det(b) - 1.0) < 1e-12


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(2, 42), random_unitary(2, 42))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_random_unitary_seed_stack_is_bitwise_per_seed(n):
    seeds = list(range(150)) + [10**20 + 7, 2**64 + 1]
    stack = random_unitary(n, seeds)
    assert stack.shape == (len(seeds), n, n)
    for s, u in zip(seeds, stack):
        assert u.tobytes() == random_unitary(n, s).tobytes()


def test_random_unitary_pins_its_philox_stream():
    # trials are replayed from their seeds, so the matrix of a seed is fixed
    u = random_unitary(3, 7)
    assert u[0, 1] == pytest.approx(0.3840492826488002 - 0.6274767856464746j, abs=1e-12)
    assert u[2, 0] == pytest.approx(0.3860086889011959 + 0.17148718198615376j, abs=1e-12)
    assert u[1, 2] == pytest.approx(-0.566710950609994 + 0.3795255108405644j, abs=1e-12)
    v = random_unitary(2, [10**20 + 7])[0]
    assert v[0, 0] == pytest.approx(-0.7363777543634991 - 0.2302599117044959j, abs=1e-12)
    assert v[1, 0] == pytest.approx(0.5703371129071939 - 0.2818576832039437j, abs=1e-12)


EDGE_SEEDS = [2**32 - 1, 2**32 + 1, 2**64 - 1, 2**64 + 1, 2**128 - 1, 2**128, 3**200]


@pytest.mark.parametrize("seeds", [range(5000), EDGE_SEEDS, [2**63, 2**63 + 5, 1]])
def test_philox_keys_equal_seed_sequence(seeds):
    # the batch hash must give the key Philox(s) takes from its SeedSequence;
    # this also catches any change of that hash in numpy
    keys = _philox_keys(seeds)
    assert keys.shape == (len(seeds), 2)
    for s, key in zip(seeds, keys):
        expected = np.random.SeedSequence(s).generate_state(2, np.uint64)
        assert key.tolist() == expected.tolist(), s


@pytest.mark.parametrize("n", [1, 3])
def test_random_unitary_batch_across_2_to_the_128_is_bitwise_per_seed(n):
    seeds = [5, 2**128, 2**64 + 1, 3**200, 2**128 - 1, 0, 2**40]
    stack = random_unitary(n, seeds)
    for s, u in zip(seeds, stack):
        assert u.tobytes() == random_unitary(n, s).tobytes()


@pytest.mark.parametrize("seed", [-1, [3, -2], [2**70, -1]])
def test_random_unitary_rejects_negative_seeds(seed):
    with pytest.raises(ValueError, match="non-negative"):
        random_unitary(2, seed)


def test_random_unitary_is_unitary():
    assert unitarity_residual(random_unitary(3, 7)) < 1e-12


def test_random_unitary_seeds_differ():
    differing = 0
    for s in range(100):
        a = random_unitary(2, 2 * s)
        b = random_unitary(2, 2 * s + 1)
        if np.max(np.abs(a - b)) > 1e-6:
            differing += 1
    assert differing == 100


@pytest.mark.parametrize("n,seed", [(2, 3), (2, 9), (4, 11)])
def test_random_su_properties(n, seed):
    b = su_decompose(random_unitary(n, seed)).su_part
    assert abs(np.linalg.det(b) - 1.0) < 1e-12
    assert unitarity_residual(b) < 1e-12


def test_su_decompose_identity():
    ue = su_decompose(np.eye(3))
    assert ue.t == 0.0
    assert np.allclose(ue.su_part, np.eye(3))


def test_su_decompose_diag_ii():
    # det = -1, Arg = pi, so t = pi/2 and B = id
    ue = su_decompose(np.diag([1j, 1j]))
    assert ue.t == pytest.approx(math.pi / 2)
    assert np.allclose(ue.su_part, np.eye(2), atol=1e-14)


def test_su_decompose_diag_plus_minus():
    ue = su_decompose(np.diag([1.0, -1.0]))
    assert ue.t == pytest.approx(math.pi / 2)
    assert np.allclose(ue.su_part, np.diag([-1j, 1j]), atol=1e-14)
    assert abs(np.linalg.det(ue.su_part) - 1.0) < 1e-12
    assert np.allclose(np.exp(1j * ue.t) * ue.su_part, np.diag([1.0, -1.0]))


def test_su_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        su_decompose(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("seed", range(20))
def test_su_decompose_recombines(seed):
    a = random_unitary(3, seed)
    ue = su_decompose(a)
    assert 0.0 <= ue.t < 2 * math.pi / 3
    assert np.max(np.abs(np.exp(1j * ue.t) * ue.su_part - a)) < 1e-12
    assert abs(np.linalg.det(ue.su_part) - 1.0) < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_su_decompose_central_shift_stability(k):
    # multiplying by an n-th root of unity preserves det, hence t
    n = 4
    a = random_unitary(n, 123)
    shifted = np.exp(2j * math.pi * k / n) * a
    ue = su_decompose(a)
    ue2 = su_decompose(shifted)
    assert ue2.t == pytest.approx(ue.t, abs=1e-12)
    assert np.max(np.abs(ue2.su_part - np.exp(2j * math.pi * k / n) * ue.su_part)) < 1e-12


def test_conj_involution():
    m = random_unitary(3, 5)
    assert np.array_equal(np.conj(np.conj(m)), m)


def test_principal_arg_range():
    for z in [1, -1, 1j, -1j, -2 + 0.1j, 3 - 4j]:
        a = principal_arg(z)
        assert 0.0 <= a < 2 * math.pi
