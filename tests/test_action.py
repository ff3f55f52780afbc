import cmath
import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from _example_reference import example_action, example_lambda, match_example_to_type1
from _oracle_reference import type2_as_type1
from hopfact.action import (
    SU2_CONJUGATOR,
    ActionKind,
    ActionSpec,
    SpecStack,
    _apply,
    _plane_rotation,
    _transport,
    act,
    d_pow,
    evaluate_formula,
    solve_transport,
)
from hopfact.cmatrix import principal_arg, random_unitary, su_decompose, unitarity_residual
from hopfact.hopf import HopfParams, OrbitPoint, orbit_distance

TWO_PI = 2 * math.pi


def demo_spec():
    params = HopfParams(d=4, n=2, m=1)
    return ActionSpec(ActionKind.TYPE1, 0, 0, 1, np.eye(2), params)


def rand_point(params, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return OrbitPoint(params, rng.standard_normal(params.n)
                      + 1j * rng.standard_normal(params.n))


class TestDPow:
    def test_positive_real_base(self):
        assert d_pow(2, 0.5) == pytest.approx(math.sqrt(2))

    def test_negative_base_forced_branch(self):
        # arg(-2) = pi, so (-2)^0.5 = sqrt(2) * e^{i pi/2} = i sqrt(2)
        assert d_pow(-2, 0.5) == pytest.approx(1j * math.sqrt(2))

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            d_pow(0, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_integer_exponents_match_repeated_multiplication(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        d = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) or 1.5
        for k in range(-3, 4):
            assert abs(d_pow(d, k) - d ** k) < 1e-12 * abs(d) ** k + 1e-12

    @pytest.mark.parametrize("d", [-1, 1 - 0j, complex(-1, -0.0), 1e-300j, 1 + 2j])
    def test_argument_is_principal_arg_bit_for_bit(self, d):
        # d_pow takes arg d with cmath.phase and principal_arg's shifts in
        # Python floats; the powers keep their bits, signed zeros included
        mu = np.array([0.0, 1.0, 0.5, -1.25, 3.0, 60.0])
        for branch in (0, -2, np.array([1, 0, -1, 2, -2, 0])):
            with np.errstate(over="ignore"):        # (1e-300)^-1.25 is inf
                want = abs(d) ** mu * np.exp(1j * mu * (principal_arg(d) + TWO_PI * branch))
            assert d_pow(d, mu, branch).tobytes() == want.tobytes()


class TestActionSpec:
    def test_rejects_zero_r(self):
        with pytest.raises(ValueError):
            ActionSpec(ActionKind.TYPE1, 0, 0, 0, np.eye(2), HopfParams(d=4, n=2, m=1))

    def test_rejects_ill_conditioned_C(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        with pytest.raises(ValueError):
            ActionSpec(ActionKind.TYPE1, 0, 0, 1, c, HopfParams(d=4, n=2, m=1))

    def test_rejects_non_finite_C(self):
        with pytest.raises(ValueError, match="C must be finite"):
            ActionSpec(ActionKind.TYPE1, 0, 0, 1, np.diag([1.0, np.nan]),
                       HopfParams(d=4, n=2, m=1))

    def test_sigma_exact_rational(self):
        spec = ActionSpec(ActionKind.TYPE2, 1, 2, 1, np.eye(3),
                          HopfParams(d=2, n=3, m=4))
        # -1 + (1 + 2/4)*3 = 7/2, the float the formula reads
        assert SpecStack.of([spec]).rows.sigma[0] == 3.5

    def test_fields_cannot_be_assigned(self):
        # C is validated once, so neither a field nor C's entries may change
        c = np.eye(2)
        spec = ActionSpec(ActionKind.TYPE1, 0, 0, 1, c, HopfParams(d=4, n=2, m=1))
        for name, value in [("C", np.zeros((2, 2))), ("r", 0), ("p", 1)]:
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        with pytest.raises(ValueError):
            spec.C[0, 0] = 0
        c[0, 0] = 0         # the caller's matrix stays its own
        assert spec.C[0, 0] == 1

    def test_equality_and_hash(self):
        # by kind, p, q, r, params and C's shape and bytes; the generated
        # methods raised on the truth value of an array and on hashing it
        params = HopfParams(d=4, n=2, m=1)
        spec = ActionSpec(ActionKind.TYPE1, 0, 0, 1, np.eye(2), params)
        twin = ActionSpec(ActionKind.TYPE1, 0, 0, 1, [[1, 0], [0, 1]], HopfParams(4, 2, 1))
        assert spec == twin and not spec != twin and hash(spec) == hash(twin)
        # a signed zero in C, real or imaginary, defines the same action
        signed = ActionSpec(ActionKind.TYPE1, 0, 0, 1, [[1, -0.0], [complex(0, -0.0), 1]], params)
        assert signed == spec and hash(signed) == hash(spec)
        others = [ActionSpec(ActionKind.TYPE1, 0, 0, 1, np.diag([1, 1j]), params),
                  ActionSpec(ActionKind.TYPE1, 0, 0, 1, 2 * np.eye(2), params),
                  ActionSpec(ActionKind.TYPE2, 0, 0, 1, np.eye(2), params),
                  ActionSpec(ActionKind.TYPE1, 0, 0, 2, np.eye(2), params),
                  ActionSpec(ActionKind.TYPE1, 0, 0, 1, np.eye(2), HopfParams(4, 2, 3))]
        for other in others:
            assert spec != other and not spec == other
        assert spec != (ActionKind.TYPE1, 0, 0, 1)
        assert len({spec, twin, signed, *others, *others}) == 1 + len(others)
        # copies hold C arrays of their own
        for copied in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert copied.C is not spec.C and copied == spec

    @pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600, 2.0**-1000, 3.0, 0.75])
    def test_row_holds_C_at_unit_scale(self, scale):
        # a row holds C times a power of two, with the largest real or
        # imaginary part of its entries in [1, 2); that part of c is 1, so
        # the row of 2^k * c is c, bit for bit
        rng = np.random.Generator(np.random.Philox(5))
        c = np.eye(3) + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        c = c / np.abs(c.view(np.float64)).max()
        spec = ActionSpec(ActionKind.TYPE1, 0, 0, 1, scale * c, HopfParams(d=4, n=3, m=1))
        row = SpecStack.of([spec]).rows.C[0]
        assert np.array_equal(spec.C, scale * c)
        assert 1 <= np.abs(row.view(np.float64)).max() < 2
        if math.frexp(scale)[0] == 0.5:
            assert row.tobytes() == c.tobytes()


class TestAct:
    def test_identity_fixes_points(self):
        spec = demo_spec()
        z = rand_point(spec.params, 1)
        assert orbit_distance(z.rep, act(spec, np.eye(2), z).rep, spec.params) <= 1e-9

    def test_hand_evaluated_scalar_case(self):
        spec = demo_spec()
        z = rand_point(spec.params, 2)
        out = act(spec, np.diag([1j, 1j]), z)
        assert np.max(np.abs(out.rep - 2j * z.rep)) < 1e-12

    def test_group_law_modulo_deck_hand_case(self):
        spec = demo_spec()
        z = rand_point(spec.params, 3)
        a = np.diag([1j, 1j])
        twice = act(spec, a, act(spec, a, z))
        assert np.max(np.abs(twice.rep - (-4) * z.rep)) < 1e-11
        direct = act(spec, -np.eye(2), z)
        assert np.max(np.abs(direct.rep - (-1) * z.rep)) < 1e-12
        assert orbit_distance(direct.rep, twice.rep, spec.params) <= 1e-9

    def test_rejects_dimension_mismatch(self):
        spec = demo_spec()
        with pytest.raises(ValueError):
            act(spec, np.eye(3), rand_point(spec.params, 4))

    def test_rejects_non_unitary(self):
        spec = demo_spec()
        with pytest.raises(ValueError):
            act(spec, 2 * np.eye(2), rand_point(spec.params, 5))

    @pytest.mark.parametrize("kind,n,m", [(ActionKind.TYPE1, 2, 1),
                                          (ActionKind.TYPE2, 3, 2),
                                          (ActionKind.TYPE1, 3, 4)])
    def test_group_law_random(self, kind, n, m):
        params = HopfParams(d=1 + 2j, n=n, m=m)
        spec = ActionSpec(kind, 1, -1, 2, np.eye(n), params)
        for i in range(25):
            a1 = random_unitary(n, 10 + 2 * i)
            a2 = random_unitary(n, 11 + 2 * i)
            z = rand_point(params, 600 + i)
            lhs = act(spec, a1 @ a2, z)
            rhs = act(spec, a1, act(spec, a2, z))
            assert orbit_distance(lhs.rep, rhs.rep, params) < 1e-8


class TestOneRow:
    @pytest.mark.parametrize("kind", [ActionKind.TYPE1, ActionKind.TYPE2])
    def test_act_and_transport_are_their_rows(self, kind):
        # act and solve_transport evaluate their spec's one-row stack, bit for bit
        params = HopfParams(d=0.5 + 0.3j, n=3, m=4)
        rng = np.random.Generator(np.random.Philox(17))
        c = 5 * np.eye(3) + rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        spec = ActionSpec(kind, 1, -1, 2, c, params)
        rows = SpecStack.of([spec]).rows
        for i in range(5):
            a = random_unitary(3, 40 + i)
            z, w = rand_point(params, 80 + i), rand_point(params, 90 + i)
            assert act(spec, a, z).rep.tobytes() == _apply(rows, a, z.rep)[0].tobytes()
            assert (solve_transport(spec, z, w).tobytes()
                    == _transport(rows, z.rep, w.rep)[0].tobytes())


class TestWellDefinedness:
    def test_branch_shifts_stay_in_orbit(self):
        params = HopfParams(d=0.5, n=3, m=2)
        spec = ActionSpec(ActionKind.TYPE2, -1, 2, -2, np.eye(3), params)
        for i in range(10):
            a = random_unitary(3, 50 + i)
            z = rand_point(params, 700 + i)
            base = act(spec, a, z)
            ue = su_decompose(a)
            for k in range(3):
                for ell in range(-2, 3):
                    t2 = ue.t + TWO_PI * k / 3 + TWO_PI * ell
                    b2 = cmath.exp(-2j * math.pi * k / 3) * ue.su_part
                    shifted = evaluate_formula(SpecStack.of([spec]).rows, t2, b2, z.rep)[0]
                    assert orbit_distance(shifted, base.rep, params) < 1e-8


class TestExampleAction:
    def test_su_element_acts_linearly(self):
        params = HopfParams(d=4, n=2, m=1)
        b = su_decompose(random_unitary(2, 8)).su_part
        z = rand_point(params, 9)
        out = example_action(params, b, z)
        assert np.max(np.abs(out.rep - b @ z.rep)) < 1e-12

    def test_lambda_definition(self):
        for d in (4, -2, 1 + 2j):
            params = HopfParams(d=d, n=3, m=1)
            lam = example_lambda(params)
            assert cmath.exp(TWO_PI * (lam - 1j) / 3) == pytest.approx(complex(d))

    def test_t_shift_gives_deck_factor(self):
        # shifting t by 2*pi multiplies the raw output by d^n
        params = HopfParams(d=4, n=2, m=1)
        a = random_unitary(2, 13)
        z = rand_point(params, 14)
        ue = su_decompose(a)
        lam = example_lambda(params)
        raw = cmath.exp(lam * ue.t) * (ue.su_part @ z.rep)
        shifted = cmath.exp(lam * (ue.t + TWO_PI)) * (ue.su_part @ z.rep)
        assert np.max(np.abs(shifted - params.d ** params.n * raw)) < 1e-9
        assert orbit_distance(shifted, raw, params) <= 1e-9


class TestMatchExample:
    @pytest.mark.parametrize("d,n", [(4, 2), (-2, 3), (1 + 2j, 2)])
    def test_match_and_verify(self, d, n):
        params = HopfParams(d=d, n=n, m=1)
        spec = match_example_to_type1(params, samples=50)
        assert (spec.kind, spec.p, spec.q, spec.r) == (ActionKind.TYPE1, 0, 0, 1)
        assert np.allclose(spec.C, np.eye(n))

    def test_matched_spec_is_effective(self):
        from hopfact.effectiveness import is_effective
        params = HopfParams(d=4, n=2, m=1)
        spec = match_example_to_type1(params)
        assert is_effective(spec).effective

    def test_rejects_quotient(self):
        with pytest.raises(ValueError):
            match_example_to_type1(HopfParams(d=4, n=2, m=3))


class TestSolveTransport:
    def specs(self):
        out = []
        for kind in (ActionKind.TYPE1, ActionKind.TYPE2):
            for d, n, m, r in [(4, 2, 1, 1), (0.5, 3, 2, -2), (1 + 2j, 4, 3, 3)]:
                params = HopfParams(d=d, n=n, m=m)
                rng = np.random.Generator(np.random.Philox(99 + n))
                c = np.eye(n) + 0.2 * (rng.standard_normal((n, n))
                                       + 1j * rng.standard_normal((n, n)))
                out.append(ActionSpec(kind, 1, 0, r, c, params))
        return out

    def test_fixed_point(self):
        # x = y: the plane of x and y is a line, and a second direction is
        # found with no warning
        for spec in [demo_spec(), *self.specs()]:
            z = rand_point(spec.params, 21)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                a = solve_transport(spec, z, z)
            assert unitarity_residual(a) <= 1e-13
            assert orbit_distance(act(spec, a, z).rep, z.rep, spec.params) <= 1e-13

    def test_deck_translate_target(self):
        spec = demo_spec()
        z = rand_point(spec.params, 22)
        w = OrbitPoint(spec.params, spec.params.d * z.rep)
        a = solve_transport(spec, z, w)
        assert orbit_distance(w.rep, act(spec, a, z).rep, spec.params) <= 1e-8

    def test_random_pairs(self):
        for spec in self.specs():
            for i in range(20):
                z = rand_point(spec.params, 3000 + i)
                w = rand_point(spec.params, 4000 + i)
                a = solve_transport(spec, z, w)
                assert unitarity_residual(a) < 1e-10
                assert abs(np.linalg.det(a * cmath.exp(-1j * su_decompose(a).t)) - 1) < 1e-9
                assert orbit_distance(act(spec, a, z).rep, w.rep, spec.params) < 1e-8

    def test_mapping_determinant_in_closed_form(self):
        # B = I + V (R - I) V^H with V orthonormal and R in SU(2), so det B = 1
        rng = np.random.Generator(np.random.Philox(31))
        for n in range(2, 9):
            x = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
            y = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
            y *= (np.linalg.norm(x, axis=-1) / np.linalg.norm(y, axis=-1))[:, None]
            b = _plane_rotation(x, y)
            assert np.abs(np.linalg.det(b) - 1).max() <= 1e-13
            assert np.abs((b @ x[..., None])[..., 0] - y).max() < 1e-13
            assert unitarity_residual(b).max() < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_degenerate_rotations(self, n):
        # y = e^{i phi} x + delta * noise, parallel to x up to rounding or
        # exactly, and x with a zero coordinate: w = v - a*u is then noise,
        # and B must still be unitary, of determinant 1 and carry x to y
        rng = np.random.Generator(np.random.Philox(40 + n))

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for zero in (False, True):
            x = gauss(30, n)
            if zero:
                x[:, 0] = 0
            phase = np.exp(1j * rng.uniform(0, TWO_PI, (30, 1)))
            ys = [phase * x + delta * gauss(30, n) for delta in (0, 1e-18, 1e-16, 1e-12, 1e-8)]
            for y in ys + [gauss(30, n)]:
                y *= (np.linalg.norm(x, axis=-1) / np.linalg.norm(y, axis=-1))[:, None]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    b = _plane_rotation(x, y)
                moved = np.linalg.norm((b @ x[..., None])[..., 0] - y, axis=-1)
                for residual in (unitarity_residual(b), np.abs(np.linalg.det(b) - 1),
                                 moved / np.linalg.norm(x, axis=-1)):
                    assert not np.isnan(residual).any()
                    assert residual.max() <= 1e-13

    @pytest.mark.parametrize("kind", [ActionKind.TYPE1, ActionKind.TYPE2])
    def test_transport_for_n_up_to_8(self, kind):
        for n in range(2, 9):
            params = HopfParams(d=0.5 + 0.3j, n=n, m=n + 1)
            rng = np.random.Generator(np.random.Philox(70 + n))
            c = np.eye(n) + 0.2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            spec = ActionSpec(kind, 1, 1, -2, c, params)
            for i in range(5):
                z, w = rand_point(params, 5000 + i), rand_point(params, 6000 + i)
                a = solve_transport(spec, z, w)
                assert unitarity_residual(a) < 1e-12
                assert orbit_distance(act(spec, a, z).rep, w.rep, params) < 1e-10


class TestPowerBranchIdentity:
    @pytest.mark.parametrize("kind", [ActionKind.TYPE1, ActionKind.TYPE2])
    def test_branch_shift_matches_p_shift(self, kind):
        params = HopfParams(d=1 + 2j, n=3, m=2)
        spec = ActionSpec(kind, 1, -2, 2, np.eye(3), params)
        for i in range(5):
            a = random_unitary(3, 800 + i)
            ue = su_decompose(a)
            z = rand_point(params, 900 + i)
            base = evaluate_formula(SpecStack.of([spec]).rows, ue.t, ue.su_part, z.rep)[0]
            for L in range(-2, 3):
                shifted = ActionSpec(kind, spec.p - L * spec.r, spec.q, spec.r,
                                     spec.C, params)
                alt = evaluate_formula(SpecStack.of([shifted]).rows, ue.t, ue.su_part, z.rep,
                                       branch=L)[0]
                assert np.max(np.abs(alt - base)) / np.linalg.norm(base) < 1e-12


class TestDimTwoIdentity:
    def test_conjugator_realizes_conjugation(self):
        for seed in range(10):
            b = su_decompose(random_unitary(2, seed)).su_part
            w = SU2_CONJUGATOR
            assert np.max(np.abs(w @ b @ np.linalg.inv(w) - np.conj(b))) < 1e-12

    def test_type2_equals_shifted_type1(self):
        params = HopfParams(d=-2, n=2, m=3)
        spec = ActionSpec(ActionKind.TYPE2, 2, 1, -1, np.eye(2), params)
        twin = type2_as_type1(spec)
        assert twin.p == spec.p - 1
        for i in range(20):
            a = random_unitary(2, 300 + i)
            z = rand_point(params, 400 + i)
            lhs = act(spec, a, z)
            rhs = act(twin, a, z)
            assert np.max(np.abs(lhs.rep - rhs.rep)) / np.linalg.norm(lhs.rep) < 1e-10

    def test_rejects_higher_dimension(self):
        params = HopfParams(d=4, n=3, m=1)
        spec = ActionSpec(ActionKind.TYPE2, 0, 0, 1, np.eye(3), params)
        with pytest.raises(ValueError):
            type2_as_type1(spec)
