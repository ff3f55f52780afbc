import math

import numpy as np
import pytest

from _canonical_reference import rotation_index
from _orbit_reference import closed_form_distance
from _orbit_reference import orbit_distance as search_distance
from hopfact.cmatrix import TWO_PI, principal_arg
from hopfact.hopf import HopfParams, OrbitPoint, canonicalize, orbit_distance


def pt(params, *coords):
    return OrbitPoint(params, np.array(coords, dtype=complex))


def test_params_reject_unit_modulus():
    with pytest.raises(ValueError):
        HopfParams(d=1j, n=2, m=1)


def test_params_reject_zero_d():
    with pytest.raises(ValueError):
        HopfParams(d=0, n=2, m=1)


def test_params_reject_small_n():
    with pytest.raises(ValueError):
        HopfParams(d=2, n=1, m=1)


def test_orbit_point_rejects_zero_vector():
    with pytest.raises(ValueError):
        OrbitPoint(HopfParams(d=2, n=2, m=1), np.zeros(2, dtype=complex))


def test_deck_generator_equivalence():
    p = HopfParams(d=3 + 1j, n=2, m=1)
    z = pt(p, 1.0, 2.0 - 1j)
    w = OrbitPoint(p, p.d * z.rep)
    assert orbit_distance(w.rep, z.rep, p) <= 1e-9


def test_rotation_generator_equivalence():
    p = HopfParams(d=2, n=2, m=3)
    z = pt(p, 1.0, 0.5j)
    w = OrbitPoint(p, np.exp(2j * math.pi / 3) * z.rep)
    assert orbit_distance(w.rep, z.rep, p) <= 1e-9


def test_modulus_mismatch_not_equal():
    p = HopfParams(d=3, n=2, m=1)
    assert orbit_distance(pt(p, 2.0, 0.0).rep, pt(p, 1.0, 0.0).rep, p) > 1e-9


def test_deck_equal_reflexive_symmetric():
    p = HopfParams(d=1 + 2j, n=3, m=4)
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(20):
        z = OrbitPoint(p, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        w = OrbitPoint(p, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert orbit_distance(z.rep, z.rep, p) <= 1e-9
        zw, wz = orbit_distance(w.rep, z.rep, p), orbit_distance(z.rep, w.rep, p)
        assert (zw <= 1e-9) == (wz <= 1e-9)


def test_canonicalize_scaling_example():
    p = HopfParams(d=2, n=2, m=1)
    z = pt(p, 8.0, 0.0)
    c = canonicalize(z)
    assert np.allclose(c.rep, [1.0, 0.0])


def test_canonicalize_rotation_example():
    # m = 4: rotating (i, 0) by i^3 brings the leading argument to 0
    p = HopfParams(d=2, n=2, m=4)
    c = canonicalize(pt(p, 1j, 0.0))
    assert np.allclose(c.rep, [1.0, 0.0], atol=1e-12)


def test_canonicalize_idempotent():
    p = HopfParams(d=1 + 2j, n=3, m=5)
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(20):
        z = OrbitPoint(p, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        c1 = canonicalize(z)
        c2 = canonicalize(c1)
        assert np.max(np.abs(c1.rep - c2.rep)) < 1e-10


def test_canonicalize_modulus_exponent_in_unit_interval():
    p = HopfParams(d=0.5, n=2, m=2)
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(50):
        z = OrbitPoint(p, 10.0 ** rng.uniform(-4, 4) *
                       (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        c = canonicalize(z)
        s = math.log(np.linalg.norm(c.rep)) / math.log(abs(p.d))
        assert 0.0 <= s < 1.0


@pytest.mark.parametrize("ell,K", [(-3, 0), (-1, 1), (0, 2), (2, 0), (3, 2)])
def test_canonicalize_deck_invariant(ell, K):
    p = HopfParams(d=4, n=2, m=3)
    rng = np.random.Generator(np.random.Philox(40 + ell * 7 + K))
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = OrbitPoint(p, v)
        g = p.d ** ell * np.exp(2j * math.pi * K / p.m)
        moved = OrbitPoint(p, g * v)
        c1, c2 = canonicalize(z), canonicalize(moved)
        assert np.max(np.abs(c1.rep - c2.rep)) / np.linalg.norm(c1.rep) < 1e-10


def test_canonical_rotation_matches_the_loop():
    # the leading coordinate at the angles k*2*pi/m and their float
    # neighbours, where the float key ties or nearly does, and at seeded
    # uniform angles; d = 2 and a second coordinate of modulus 0.5 leave
    # the point unscaled, so only the rotation is compared with the loop
    # over all m rotations
    rng = np.random.Generator(np.random.Philox(5))
    checked = 0
    for m in range(1, 61):
        p = HopfParams(d=2, n=2, m=m)
        edges = TWO_PI * np.arange(m) / m
        angles = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 7.0),
                                 rng.uniform(0.0, TWO_PI, 100)])
        for a in angles.tolist():
            v = np.array([np.exp(1j * a), 0.5])
            K = rotation_index(principal_arg(v[0]), m)
            c = canonicalize(OrbitPoint(p, v))
            assert np.allclose(c.rep, v * np.exp(2j * math.pi * K / m), rtol=0, atol=1e-12), (a, m)
        checked += len(angles)
    assert checked > 10_000


def test_canonicalize_huge_m_at_once():
    # the rotation is found without a loop over the m rotations
    p = HopfParams(d=2, n=2, m=10**12)
    c = canonicalize(pt(p, np.exp(2j * math.pi * 0.3), 0.5))
    assert abs(c.rep[0]) == pytest.approx(1.0)
    assert principal_arg(c.rep[0]) < TWO_PI / p.m * 2


def test_deck_equal_canonical_representative():
    p = HopfParams(d=-2, n=2, m=3)
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(20):
        z = OrbitPoint(p, rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert orbit_distance(canonicalize(z).rep, z.rep, p) <= 1e-9


def test_orbit_distance_zero_on_deck_translates():
    p = HopfParams(d=1 + 2j, n=2, m=2)
    v = np.array([1.0, 2.0 - 1j])
    g = p.d ** 2 * np.exp(1j * math.pi)
    assert orbit_distance(g * v, v, p) < 1e-12


def test_orbit_distance_broadcasts_over_stacks():
    p = HopfParams(d=0.5, n=3, m=4)
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
    y = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    stacked = orbit_distance(x, y, p)
    assert stacked.shape == (5, 2)
    for i in range(5):
        for j in range(2):
            assert stacked[i, j] == orbit_distance(x[i, j], y[j], p)


@pytest.mark.parametrize("d", [4, 0.5, 0.3 + 0.1j])
@pytest.mark.parametrize("scale_x,scale_y", [(1.0, 0.0), (0.0, 1.0), (math.inf, 1.0),
                                             (1.0, math.nan)])
def test_orbit_distance_degenerate_norm_is_nan(d, scale_x, scale_y):
    # no deck candidate is meaningful, so no tolerance may accept the pair
    p = HopfParams(d=d, n=2, m=3)
    v = np.array([1.0, 2.0 - 1j])
    with np.errstate(all="ignore"):
        assert math.isnan(orbit_distance(scale_x * v, scale_y * v, p))


def assert_equals_search(got, want):
    """Bit for bit, or NaN where the search is NaN.  The one exception is a
    near tie of rotations: where the nearest shell scales y by about
    |d|^-1 = 1e-12, every rotation gives a distance within 1e-11 of 1, the
    rotations differ there by less than the rounding, and the search keeps
    the least rounding, so the two may differ by a few ulps."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    tie = np.abs(want - 1.0) < 1e-11
    assert (same | tie).all(), (got[~(same | tie)], want[~(same | tie)])
    np.testing.assert_array_max_ulp(got[tie], want[tie], maxulp=4)


def assert_same_bits(got, want):
    """Equal bit for bit, NaN where the other is NaN, and of one shape."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (got[~same], want[~same])


def orbit_pairs(rng, params, count):
    """``count`` pairs (x, y) on one orbit up to a relative noise of 0, 1e-12
    or 1e-6, and ``count`` unrelated pairs."""
    n, m = params.n, params.m
    y = rng.standard_normal((2, count, n)) + 1j * rng.standard_normal((2, count, n))
    ell = rng.integers(-3, 4, (count, 1))
    K = rng.integers(0, m, (count, 1))
    noise = rng.choice([0.0, 1e-12, 1e-6], (count, 1)) * rng.standard_normal((count, n))
    near = params.d ** ell * np.exp(2j * math.pi * K / m) * y[0] * (1 + noise)
    return np.concatenate([near, rng.standard_normal((count, n))
                           + 1j * rng.standard_normal((count, n))]), np.concatenate(y)


@pytest.mark.parametrize("d", [0.5, 2, 1.1, 1 + 2j, 0.3 + 0.8j, 1e12])
def test_orbit_distance_equals_the_search(d):
    # the closed-form rotation of each shell against all m rotations
    rng = np.random.Generator(np.random.Philox(17))
    for m in range(1, 61):
        p = HopfParams(d=d, n=2 + m % 3, m=m)
        x, y = orbit_pairs(rng, p, 50)
        got = orbit_distance(x, y, p)
        assert_equals_search(got, search_distance(x, y, p))
        assert_same_bits(got, closed_form_distance(x, y, p))


def test_orbit_distance_equals_the_search_on_stacks():
    rng = np.random.Generator(np.random.Philox(18))
    p = HopfParams(d=0.3 + 0.8j, n=3, m=7)
    x, y = orbit_pairs(rng, p, 60)
    x, y = x.reshape(4, 3, 10, 3), y[:10]
    got = orbit_distance(x, y, p)
    assert got.shape == (4, 3, 10)
    assert_equals_search(got, search_distance(x, y, p))
    assert_equals_search(orbit_distance(x[0, 0, 0], y[0], p), search_distance(x[0, 0, 0], y[0], p))


@pytest.mark.parametrize("d", [2, 0.5, 1 + 2j, 1e12])
@pytest.mark.parametrize("scale_x,scale_y", [(1e150, 1e150), (1e-150, 1e-150),
                                             (1e150, 1e-150), (1e-150, 1e150)])
def test_orbit_distance_equals_the_search_at_extreme_norms(d, scale_x, scale_y):
    # d = 1e12 takes some pairs past the float range, where both are NaN
    rng = np.random.Generator(np.random.Philox(19))
    for m in (1, 3, 8):
        p = HopfParams(d=d, n=3, m=m)
        x, y = orbit_pairs(rng, p, 20)
        x, y = scale_x * x, scale_y * y
        with np.errstate(all="ignore"):
            got, want = orbit_distance(x, y, p), search_distance(x, y, p)
            closed = closed_form_distance(x, y, p)
        assert_equals_search(got, want)
        assert_same_bits(got, closed)
        assert np.isfinite(want).any()


@pytest.mark.parametrize("m", [1, 3, 60])
def test_orbit_distance_degenerate_norm_stays_nan(m):
    p = HopfParams(d=0.3 + 0.1j, n=2, m=m)
    v = np.array([1.0, 2.0 - 1j])
    with np.errstate(all="ignore"):
        x = np.array([v, 0 * v, math.inf * v, v, v])
        y = np.array([0 * v, v, v, math.nan * v, math.inf * v])
        got, want = orbit_distance(x, y, p), search_distance(x, y, p)
        closed = closed_form_distance(x, y, p)
    assert np.isnan(want).all()
    assert_equals_search(got, want)
    assert_same_bits(got, closed)


@pytest.mark.parametrize("m", [1, 3, 60])
@pytest.mark.parametrize("n", [*range(2, 13), 16, 129, 257])
def test_orbit_distance_is_the_closed_form_bit_for_bit(n, m):
    # the per-coordinate sums against np.linalg.norm over the (..., 3, n)
    # broadcast, on both sides of numpy's switch to 8 accumulators at n = 8
    # and past its pairwise split of more than 128 terms:
    # one pair, a stack against a broadcast y with an m for each spec, and
    # the extreme norm scales, where d = 1e12 takes some pairs to NaN
    rng = np.random.Generator(np.random.Philox(20 + n))
    for d in (0.5, 1 + 2j, 1e12):
        p = HopfParams(d=d, n=n, m=m)
        x, y = orbit_pairs(rng, p, 12)
        assert_same_bits(orbit_distance(x[0], y[0], p), closed_form_distance(x[0], y[0], p))
        spec_m = np.array([m, 1, 2 * m, 7])[:, None]
        stack = x.reshape(4, 6, n)
        assert_same_bits(orbit_distance(stack, y[:6], p, spec_m),
                         closed_form_distance(stack, y[:6], p, spec_m))
        for scale_x, scale_y in [(1e150, 1e150), (1e-150, 1e-150), (1e150, 1e-150),
                                 (1e-150, 1e150)]:
            with np.errstate(all="ignore"):
                got = orbit_distance(scale_x * x, scale_y * y, p)
                want = closed_form_distance(scale_x * x, scale_y * y, p)
            assert_same_bits(got, want)
