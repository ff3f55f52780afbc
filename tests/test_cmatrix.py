import math

import numpy as np
import pytest

from hopfact.action import ActionKind, ActionSpec, SpecStack
from hopfact.cmatrix import (
    _gaussians,
    _orthonormalize,
    _stream,
    as_cmatrix,
    principal_arg,
    random_unitary,
    sample_points,
    su_decompose,
    unitarity_residual,
)
from hopfact.hopf import HopfParams


def _c_inv(c):
    """The inverse of C from an action's formula row, the program's one
    matrix inverse.  The row holds C * 2^-e and its inverse, so C^{-1} is
    that inverse times 2^-e, the ratio of any nonzero real or imaginary
    part."""
    c = as_cmatrix(c)
    params = HopfParams(d=4, n=c.shape[0], m=1)
    rows = SpecStack.of([ActionSpec(ActionKind.TYPE1, 0, 0, 1, c, params)]).rows
    parts, scaled = c.view(np.float64).ravel(), rows.C[0].view(np.float64).ravel()
    at = np.flatnonzero(parts)[0]
    return rows.C_inv[0] * (scaled[at] / parts[at])


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_random_unitary_seed_stack_is_bitwise_per_seed(n):
    # a chunk [lo, hi) of a check's stream equals each of its trials drawn
    # alone, bit for bit, in chunks of 1, of 7 and all at once
    lo, hi = 3, 60
    chunk = random_unitary(n, 11, trials=range(lo, hi))
    assert chunk.shape == (hi - lo, n, n)
    for size in (1, 7, hi - lo):
        parts = [random_unitary(n, 11, trials=range(at, min(at + size, hi)))
                 for at in range(lo, hi, size)]
        assert np.concatenate(parts).tobytes() == chunk.tobytes()
    assert random_unitary(n, 11).tobytes() == random_unitary(n, 11, trials=range(1))[0].tobytes()


def test_random_unitary_pins_its_philox_stream():
    # trials are replayed from (check seed, index), so the words each one
    # reads are fixed: the raw words pin the key and the counter exactly.
    # The entries go through numpy's float64 log and tan, whose last bit
    # may depend on the CPU, hence the tolerance
    assert _stream(7, 0).random_raw(6).tolist() == [
        892338168548979717, 15170909771414443098, 1728185364418901974,
        1909119065848922519, 7862383318114072877, 1498835851804617308]
    bits = _stream(7, 0)
    bits.advance(5)             # 5 counter steps of 4 words: trial 1 of n = 3 (W = 20)
    words = bits.random_raw(4)
    assert words.tolist() == [12655867699524042484, 98185570645675457,
                              17131540420115231611, 5249249381371067672]
    assert _stream(2**200 + 3, 0).random_raw(2).tolist() == [16335762614722751198,
                                                             489761711303479239]
    # trial 1 of n = 3 starts at word 20: its first four moduli are those
    # four words', by Box-Muller
    moduli = np.abs(_gaussians((3, 3), 7, 0, range(1, 2)).ravel()[:4])
    assert moduli == pytest.approx(np.sqrt(-np.log(1.0 - (words >> np.uint64(11)) * 2.0**-53)),
                                   rel=1e-14)
    u = random_unitary(3, 7)
    assert u[0, 1] == pytest.approx(0.5782786563986366 + 0.7474645322191109j, abs=1e-12)
    assert u[2, 0] == pytest.approx(0.8359046820188974 - 0.4412710169290115j, abs=1e-12)
    assert u[1, 2] == pytest.approx(-0.8887958663446066 + 0.19746740856047468j, abs=1e-12)
    v = random_unitary(2, 10**20 + 7, trials=range(4, 5))[0]
    assert v[0, 0] == pytest.approx(0.057187442272204465 + 0.9179086690453259j, abs=1e-12)
    assert v[1, 0] == pytest.approx(-0.38003223965668537 - 0.09873585245150532j, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_random_unitary_batch_across_2_to_the_128_is_bitwise_per_seed(n):
    # any non-negative seed keys a stream, however many words it has
    for seed in [5, 2**128, 2**64 + 1, 3**200, 2**128 - 1, 0, 2**40]:
        chunk = random_unitary(n, seed, trials=range(2, 9))
        for i, u in enumerate(chunk):
            assert u.tobytes() == random_unitary(n, seed, trials=range(2 + i, 3 + i))[0].tobytes()
        assert unitarity_residual(chunk).max() < 1e-12


@pytest.mark.parametrize("seed", [-1, [3, -2], [2**70, -1]])
def test_random_unitary_rejects_negative_seeds(seed):
    # a draw's address is (check seed, index), and neither may be negative
    seed, index = (seed, 0) if isinstance(seed, int) else seed
    with pytest.raises(ValueError, match="non-negative"):
        random_unitary(2, seed, trials=range(index, index + 1))


def test_unitary_streams_share_no_key_with_point_streams():
    # the unitaries of a check seed s come from child 0 of SeedSequence(s),
    # its sample points from child 1.  A child's entropy is the seed's
    # words, zero-padded to four, then the child's index, so no two
    # (seed, child) pairs share it, even where the seeds' words differ only
    # in a last 0 or 1 word
    def key(bits):
        return tuple(bits.state["state"]["key"].tolist())

    seeds = list(range(2000)) + [2**32 + s for s in range(50)] + [2**128 + s for s in range(50)]
    points = {key(_stream(s, 1)) for s in seeds}
    unitaries = {key(_stream(s, 0)) for s in seeds}
    assert len(points) == len(unitaries) == len(seeds)
    assert not points & unitaries


def test_sample_points_pin_their_philox_stream():
    # child 1 of SeedSequence(7); a point of n = 3 reads 8 words (W = 8),
    # so draw 2 starts at word 16
    assert _stream(7, 1).random_raw(4).tolist() == [
        5072785436057791280, 16434814378201582345, 4915419271048200674, 5240045332451757033]
    z = sample_points(3, 7, range(2, 3))[0]
    assert z == pytest.approx([0.7311965947595164 + 0.5083201628587128j,
                               0.6350049167595758 - 0.4155070741919355j,
                               0.09147504100196317 - 0.15487629005085427j], abs=1e-12)


@pytest.mark.parametrize("log10_scale", [0.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sample_points_depend_only_on_seed_and_index(n, log10_scale):
    # a chunk [lo, hi) of a check's points equals each of its draws made
    # alone, bit for bit, in chunks of 1, of 7 and all at once; and the
    # first k draws of T are the k draws of a call for k
    lo, hi = 3, 60
    chunk = sample_points(n, 11, range(lo, hi), log10_scale)
    assert chunk.shape == (hi - lo, n)
    for size in (1, 7, hi - lo):
        parts = [sample_points(n, 11, range(at, min(at + size, hi)), log10_scale)
                 for at in range(lo, hi, size)]
        assert np.concatenate(parts).tobytes() == chunk.tobytes()
    whole = sample_points(n, 11, range(40), log10_scale)
    for k in (1, 3, 17):
        assert sample_points(n, 11, range(k), log10_scale).tobytes() == whole[:k].tobytes()


@pytest.mark.parametrize("n", [1, 3])
def test_sample_points_batch_across_2_to_the_128_is_bitwise_per_seed(n):
    # any non-negative seed keys a point stream, however many words it has
    for seed in [5, 2**128, 2**64 + 1, 3**200, 2**128 - 1, 0, 2**40]:
        chunk = sample_points(n, seed, range(2, 9))
        for i, z in enumerate(chunk):
            assert z.tobytes() == sample_points(n, seed, range(2 + i, 3 + i))[0].tobytes()
        assert np.isfinite(chunk).all() and (np.abs(chunk) > 0).all()


@pytest.mark.parametrize("seed", [-1, [3, -2], [2**70, -1]])
def test_sample_points_reject_negative_addresses(seed):
    seed, index = (seed, 0) if isinstance(seed, int) else seed
    with pytest.raises(ValueError, match="non-negative"):
        sample_points(2, seed, range(index, index + 1))


def test_sample_points_moments_and_spread():
    # coordinates are standard complex Gaussians, E|z_j|^2 = 1 and
    # E|z_j|^4 = 2; over 40,000 values the standard errors are 0.005 and
    # 0.022.  A log10_scale s multiplies each draw's Gaussians by 10**e,
    # e uniform in [-s, s]: mean 0 and variance s^2/3, standard errors
    # 0.012 and 0.013 for s = 3 over 20,000 draws; the bounds are 5 of them
    z = sample_points(2, 31, range(20_000))
    power = np.abs(z) ** 2
    assert abs(power.mean() - 1.0) < 5 * 0.005
    assert abs(np.mean(power ** 2) - 2.0) < 5 * 0.022
    scaled = sample_points(2, 31, range(20_000), log10_scale=3)
    factor = scaled / _gaussians((3,), 31, 1, range(20_000))[:, :2]
    assert np.abs(factor.imag).max() <= 1e-15 * np.abs(factor).max()
    e = np.log10(factor.real)
    assert np.abs(e[:, 0] - e[:, 1]).max() < 1e-14 and np.abs(e).max() <= 3.0 + 1e-14
    assert abs(e[:, 0].mean()) < 5 * 0.012
    assert abs(e[:, 0].var() - 3.0) < 5 * 0.013


@pytest.mark.parametrize("n", [2, 3, 5])
def test_random_unitary_haar_moments(n):
    # for Haar U in U(n), E|tr U|^2 = 1 and, for n >= 2, E|tr U|^4 = 2
    # (Diaconis and Shahshahani, J. Appl. Probab. 31A, 1994).  Over N = 20,000
    # draws the standard error of the first mean is sqrt(E|tr U|^4 - 1) /
    # sqrt(N) = 0.0071, and of the second sqrt(E|tr U|^8 - 4) / sqrt(N), with
    # E|tr U|^8 <= 4! = 24, at most 0.032; the bounds are 5 standard errors
    u = random_unitary(n, 20_000 + n, trials=range(20_000))
    power = np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2
    assert abs(power.mean() - 1.0) < 5 * 0.0071
    assert abs(np.mean(power ** 2) - 2.0) < 5 * 0.032


@pytest.mark.parametrize("n", range(2, 13))
def test_gram_schmidt_equals_phase_fixed_qr(n):
    # the Q of Gram-Schmidt is the Q of LAPACK's QR with R's diagonal made
    # positive.  Both are backward stable, so they differ by about
    # cond(G) * 2**-52 in a matrix, the most the rounding of G leaves Q
    # determined to: at most 1e-13 on Gaussian G and on G whose last column
    # is nearly its first (cond up to a few 1e3), and a few cond(G) * 2**-52
    # when the columns are nearly dependent (cond up to about 1e7).  Q stays
    # unitary to rounding level there too, by the second pass
    rng = np.random.Generator(np.random.Philox(n))
    g = rng.standard_normal((100, n, n)) + 1j * rng.standard_normal((100, n, n))
    for eps in (None, 1e-1, 1e-5):
        h = g.copy()
        if eps is not None:
            h[..., -1] = h[..., 0] + eps * h[..., -1]
        q, r = np.linalg.qr(h)
        phases = np.diagonal(r, axis1=-2, axis2=-1)
        want = q * (phases / np.abs(phases))[..., None, :]
        got = _orthonormalize(h)
        error = np.abs(got - want).max(axis=(-2, -1))
        if eps == 1e-5:
            assert (error <= 4 * np.linalg.cond(h) * 2.0**-52).all()
        else:
            assert error.max() <= 1e-13
        assert unitarity_residual(got).max() < 1e-14


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
