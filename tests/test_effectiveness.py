import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from hopfact.action import ActionKind, ActionSpec, act
from hopfact.effectiveness import (
    EffectivenessVerdict,
    KernelElement,
    KernelWitness,
    find_witness,
    find_witnesses,
    is_effective,
    is_effective_corollary,
    kernel_witness_element,
    line_class,
)
from hopfact.hopf import HopfParams, OrbitPoint, orbit_distance

import _witness_reference as reference
from _grid import KINDS, M_LIST, N_LIST, P_RANGE, Q_RANGE, R_RANGE, arithmetic_tuples


def make_spec(kind, n, m, p, q, r, d=4):
    return ActionSpec(kind, p, q, r, np.eye(n), HopfParams(d=d, n=n, m=m))


def test_r_one_always_effective():
    for kind in ActionKind:
        for p, q, n, m in itertools.product(range(-3, 4), range(-3, 4), [2, 3], [1, 3]):
            if math.gcd(n, m) != 1:
                continue
            for r in (1, -1):
                assert is_effective(make_spec(kind, n, m, p, q, r)).effective


def test_known_non_effective_witness():
    v = is_effective(make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3))
    assert not v.effective
    assert (v.witness.ell, v.witness.K) == (1, 0)


def test_shared_factor_never_effective():
    for kind in ActionKind:
        for p, q, r in itertools.product(range(-2, 3), range(-2, 3), [-2, 1, 3]):
            v = is_effective(make_spec(kind, 2, 2, p, q, r))
            assert not v.effective
    # the specific hand-checked witness
    v = is_effective(make_spec(ActionKind.TYPE1, 2, 2, 0, 0, 1))
    assert (v.witness.ell, v.witness.K) == (0, 1)


class TestCorollary:
    def test_example_not_effective(self):
        assert is_effective_corollary(2, 1, 3, ActionKind.TYPE1) is False

    def test_r_one_trivially_effective(self):
        for n, p, kind in itertools.product([2, 3, 5], range(-3, 4), ActionKind):
            assert is_effective_corollary(n, p, 1, kind)

    def test_p_zero_effective(self):
        assert is_effective_corollary(2, 0, 5, ActionKind.TYPE1)

    def test_rejects_zero_r(self):
        with pytest.raises(ValueError):
            is_effective_corollary(2, 0, 0, ActionKind.TYPE1)

    def test_agreement_with_full_decision_when_m_is_one(self):
        # q/m merges into p when m = 1: the full decision with (p, q)
        # matches the corollary evaluated at p + q
        for kind, n, p, q, r in itertools.product(
                ActionKind, [2, 3], range(-2, 3), range(-2, 3), [-3, -1, 2, 3]):
            full = is_effective(make_spec(kind, n, 1, p, q, r)).effective
            assert full == is_effective_corollary(n, p + q, r, kind)
            merged = is_effective(make_spec(kind, n, 1, p + q, 0, r)).effective
            assert full == merged

    def test_matches_reference_search(self):
        for kind, n, p, r in itertools.product(
                ActionKind, [2, 3, 4, 6], range(-6, 7), range(-30, 31)):
            if r == 0:
                continue
            assert is_effective_corollary(n, p, r, kind) == \
                reference.is_effective_corollary(n, p, r, kind), (kind, n, p, r)


class TestKernelWitnessElement:
    def test_hand_case_type1(self):
        spec = make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3)
        el = kernel_witness_element(spec, 1, 0)
        assert el.t == pytest.approx(math.pi / 3)
        assert el.k == 1
        assert el.scalar == pytest.approx(np.exp(4j * math.pi / 3))

    def test_hand_case_shared_factor(self):
        spec = make_spec(ActionKind.TYPE1, 2, 2, 0, 0, 1)
        el = kernel_witness_element(spec, 0, 1)
        assert el.t == 0.0
        assert el.k == 1
        assert el.scalar == pytest.approx(-1.0)

    def test_invalid_pair_rejected(self):
        # sigma = 1, r = 3: ell = 1 makes the k-formula equal -1/3
        spec = make_spec(ActionKind.TYPE1, 2, 1, 0, 0, 3)
        with pytest.raises(ValueError):
            kernel_witness_element(spec, 1, 0)

    @staticmethod
    def assert_k_matches_fractions(spec, ell, K):
        """k of the pair (ell, K) against -eps*((ell/r)*sigma - n*K/m) mod n
        in exact rationals; where that is not an integer, the pair must be
        rejected.  Returns whether it is one."""
        n, m, eps = spec.params.n, spec.params.m, spec.kind.eps
        sigma = eps + (spec.p + Fraction(spec.q, m)) * n
        kf = -eps * (Fraction(ell, spec.r) * sigma - Fraction(n * K, m))
        if kf.denominator != 1:
            with pytest.raises(ValueError, match="violates the kernel congruence"):
                kernel_witness_element(spec, ell, K)
            return False
        assert kernel_witness_element(spec, ell, K).k == int(kf) % n, (spec, ell, K)
        return True

    def test_k_from_integers_equals_fractions_on_grid(self):
        # the witness of every spec of grid G that has one, and the pairs
        # (1, 0) and (1, 1), which often violate the congruence
        integral = violating = 0
        for n, m, kind, p, q, r in arithmetic_tuples():
            spec = make_spec(kind, n, m, p, q, r)
            witness = find_witness(kind, n, m, p, q, r)
            if witness is not None:
                assert self.assert_k_matches_fractions(spec, witness.ell, witness.K)
            for K in (0, 1):
                if self.assert_k_matches_fractions(spec, 1, K):
                    integral += 1
                else:
                    violating += 1
        assert integral > 1000 and violating > 1000

    def test_k_from_integers_equals_fractions_at_large_r(self):
        # |r| up to 10^30, and r a multiple of A = sigma*m half the time, so
        # that h = gcd(r, A) > 1 and the witness has ell > 0
        rng = random.Random(2024)
        found = 0
        for _ in range(400):
            kind = rng.choice(list(ActionKind))
            n, m = rng.randint(2, 9), rng.randint(1, 12)
            p, q = rng.randint(-50, 50), rng.randint(-50, 50)
            r = rng.choice([-1, 1]) * rng.randint(1, 10**30)
            if rng.random() < 0.5:
                r *= n * (p * m + q) + kind.eps * m or 1
            witness = find_witness(kind, n, m, p, q, r)
            if witness is not None:
                found += 1
                spec = make_spec(kind, n, m, p, q, r)
                assert self.assert_k_matches_fractions(spec, witness.ell, witness.K)
                # ell + 1 satisfies (a) only if |r|*m divides A; it must raise otherwise
                self.assert_k_matches_fractions(spec, witness.ell + 1, witness.K)
        assert found > 150

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_witness_elements_act_trivially(self, kind):
        rng_specs = [(2, 1, 1, 0, 3), (2, 2, 0, 0, 1), (3, 2, 1, 1, -3),
                     (4, 3, -2, 2, 2), (2, 4, 0, -1, -2)]
        rng = np.random.Generator(np.random.Philox(5))
        for n, m, p, q, r in rng_specs:
            for d in (4, 0.5, 1 + 2j):
                spec = make_spec(kind, n, m, p, q, r, d=d)
                v = is_effective(spec)
                if v.effective:
                    continue
                a = v.kernel_element.scalar * np.eye(n)
                for _ in range(10):
                    z = OrbitPoint(spec.params,
                                   rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    moved = act(spec, a, z)
                    assert orbit_distance(moved.rep, z.rep, spec.params) < 1e-9


def test_period_bound_extension_never_changes_verdict():
    for kind, n, m, p, q, r in itertools.product(
            ActionKind, [2, 3], [1, 2, 3], range(-2, 3), range(-2, 3), [-3, -1, 2]):
        modulus = abs(r) * m
        base = find_witness(kind, n, m, p, q, r)
        wide = reference.find_witness(kind, n, m, p, q, r,
                                      ell_range=range(-3 * modulus, 3 * modulus))
        assert base == wide, (kind, n, m, p, q, r)


def test_closed_form_equals_reference_search_on_grid():
    checked = witnesses = 0
    for n, m, kind, p, q, r in arithmetic_tuples():
        closed = find_witness(kind, n, m, p, q, r)
        assert closed == reference.find_witness(kind, n, m, p, q, r), \
            (n, m, kind, p, q, r)
        checked += 1
        witnesses += closed is not None
    # grid G holds both verdicts in quantity, so equality is not vacuous
    assert checked == 10584 and 0 < witnesses < checked


def pair(w):
    """A witness record as the pair (ell, K), None where effective."""
    return None if w is None else (w.ell, w.K)


def dense(found, rs):
    """A class's witnesses (i, ell, K) from find_witnesses as the pair
    (ell, K) of each r of ``rs``, None where effective; the i must rise."""
    indices = [i for i, _, _ in found]
    assert indices == sorted(set(indices)) and all(0 <= i < len(rs) for i in indices)
    line = [None] * len(rs)
    for i, ell, K in found:
        line[i] = (ell, K)
    return line


@pytest.mark.parametrize("rs", [R_RANGE, (-3, -2, -1), (2,)], ids=["G", "negative", "one"])
def test_find_witnesses_equals_find_witness_on_grid_lines(rs):
    # one call per (n, m) block of grid G, with g = gcd(n, m) > 1 and = 1:
    # each line reads its class's witnesses, which must be find_witness's
    # and the search reference's for every r
    shared = coprime = 0
    lines = list(itertools.product(KINDS, P_RANGE, Q_RANGE))
    for n, m in itertools.product(N_LIST, M_LIST):
        classes = list(dict.fromkeys(line_class(kind, n, m, p, q) for kind, p, q in lines))
        block = find_witnesses(n, m, classes, rs)
        assert len(block) == len(classes)
        for kind, p, q in lines:
            line = dense(block[classes.index(line_class(kind, n, m, p, q))], rs)
            assert line == [pair(find_witness(kind, n, m, p, q, r)) for r in rs], \
                (kind, n, m, p, q)
            assert line == [pair(reference.find_witness(kind, n, m, p, q, r)) for r in rs], \
                (kind, n, m, p, q)
        if math.gcd(n, m) > 1:
            shared += 1
            assert classes == [None]
            assert dense(block[0], rs) == [(0, m // math.gcd(n, m))] * len(rs)
        else:
            coprime += 1
    assert shared and coprime


def test_lines_of_one_class_share_their_witnesses():
    # on grid G, two lines of one (n, m) with equal line_class have equal
    # witnesses, the list of r being whole, negative or one r
    classes = {}
    for n, m, kind, p, q in itertools.product(N_LIST, M_LIST, KINDS, P_RANGE, Q_RANGE):
        for rs in (R_RANGE, (-3, -2, -1), (2,)):
            key = (n, m, line_class(kind, n, m, p, q), rs)
            line = [pair(find_witness(kind, n, m, p, q, r)) for r in rs]
            assert classes.setdefault(key, line) == line, (kind, n, m, p, q, rs)
        assert (line_class(kind, n, m, p, q) is None) == (math.gcd(n, m) > 1)
    # equal A across kinds: n = 2, m = 1, type1 with s = p*m + q and type2
    # with s + 1; and one class for each (n, m) with gcd(n, m) > 1
    assert line_class(ActionKind.TYPE1, 2, 1, 1, 0) == line_class(ActionKind.TYPE2, 2, 1, 2, 0)
    lines = len(N_LIST) * len(M_LIST) * len(KINDS) * len(P_RANGE) * len(Q_RANGE)
    assert len(classes) < 3 * lines


class TestRecords:
    """The witness records are immutable values, as frozen dataclasses were."""

    RECORDS = [KernelWitness(1, 2), KernelElement(t=0.5, k=1, scalar=1j),
               EffectivenessVerdict(effective=False, witness=KernelWitness(0, 1),
                                    kernel_element=KernelElement(0.0, 1, -1 + 0j),
                                    kernel_order=2)]

    def test_equality_and_hash(self):
        w = KernelWitness(1, 2)
        assert w == KernelWitness(1, 2) and w != KernelWitness(2, 1)
        assert hash(w) == hash(KernelWitness(1, 2))
        assert len({w, KernelWitness(1, 2), KernelWitness(0, 2)}) == 2
        # equal only to a record of its own class
        assert w != (1, 2) and KernelElement(1, 2, 0j) != KernelWitness(1, 2)
        assert EffectivenessVerdict(True) == EffectivenessVerdict(effective=True)
        assert EffectivenessVerdict(True) != EffectivenessVerdict(True, kernel_order=2)

    def test_repr_and_defaults(self):
        assert repr(KernelWitness(1, 2)) == "KernelWitness(ell=1, K=2)"
        assert repr(KernelElement(t=0.5, k=1, scalar=1j)) == \
            "KernelElement(t=0.5, k=1, scalar=1j)"
        verdict = EffectivenessVerdict(effective=True)
        assert (verdict.witness, verdict.kernel_element, verdict.kernel_order) == \
            (None, None, 1)
        assert repr(verdict) == ("EffectivenessVerdict(effective=True, witness=None, "
                                 "kernel_element=None, kernel_order=1)")

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_immutable(self, record):
        for name in type(record).__slots__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_copies_are_equal(self, record):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record


def satisfies_congruences(kind, n, m, p, q, r, w):
    """(a) and (b) of the module docstring for the pair (ell, K) = w."""
    ell, K = w
    modulus = abs(r) * m
    return ((ell * (n * (p * m + q) + kind.eps * m) - n * K * r) % modulus == 0
            and (ell * (p * m + q) - K * r) % modulus != 0)


@pytest.mark.parametrize("kind", list(ActionKind))
@pytest.mark.parametrize("n,m", [(3, 10**400), (2, 10**400), (7, 1), (5, 2**61 - 1)],
                         ids=["3-1e400", "2-1e400", "7-1", "5-M61"])
def test_find_witnesses_with_wide_integers(kind, n, m):
    # |r| near 10^40 and m = 10^400, beyond any search, on four lines of one
    # block: each witness is the one find_witness gives alone and satisfies
    # the congruences, and each effective r has gcd(r, A) = 1 on a line
    # with gcd(n, m) = 1
    big = 10**40
    rs = [big, -big, big + 1, -(big + 3), 3 * big // 2, 2**133, -(2**133 - 1)]
    lines = [(1, 0), (-(10**39), 7), (0, -(10**41)), (2, 1)]
    block = find_witnesses(n, m, [line_class(kind, n, m, p, q) for p, q in lines], rs)
    verdicts = set()
    for (p, q), found in zip(lines, block):
        line = dense(found, rs)
        assert line == [pair(find_witness(kind, n, m, p, q, r)) for r in rs]
        acoef = n * (p * m + q) + kind.eps * m
        for r, w in zip(rs, line):
            if w is None:
                assert math.gcd(n, m) == math.gcd(r, acoef) == 1, (p, q, r)
            else:
                assert satisfies_congruences(kind, n, m, p, q, r, w), (p, q, r, w)
            verdicts.add("effective" if w is None else "ell > 0" if w[0] else "ell = 0")
    # the lines with g = 1 hold both verdicts, so the checks are not vacuous
    assert verdicts == ({"ell = 0"} if math.gcd(n, m) > 1 else {"effective", "ell > 0"})


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_find_witnesses_rejects_zero_r(n, m):
    classes = [line_class(ActionKind.TYPE1, n, m, 0, 0)]
    for rs in ([0], [1, 0, 2], (-1, 0)):
        with pytest.raises(ValueError, match="r must be nonzero"):
            find_witnesses(n, m, classes, rs)
        with pytest.raises(ValueError, match="r must be nonzero"):
            find_witnesses(n, m, [], rs)
    with pytest.raises(ValueError, match="r must be nonzero"):
        find_witness(ActionKind.TYPE1, n, m, 0, 0, 0)
    assert find_witnesses(n, m, classes, []) == [[]]
    assert find_witnesses(n, m, [], [1, 2]) == []


def test_kernel_order_is_one_exactly_when_effective():
    # h = gcd(A, n*|r|) on grid G divides N = n*|r|, and the witness's scalar
    # e^{2*pi*i*j_w/N} is among the multiples of N/h; test_oracle checks h
    # against the loop scan of all N scalars
    orders = set()
    for n, m, kind, p, q, r in arithmetic_tuples():
        verdict = is_effective(make_spec(kind, n, m, p, q, r))
        h, N = verdict.kernel_order, n * abs(r)
        assert (h == 1) == verdict.effective, (n, m, kind, p, q, r)
        assert N % h == 0
        if not verdict.effective:
            sign = 1 if r > 0 else -1
            j_w = (sign * verdict.witness.ell + verdict.kernel_element.k * abs(r)) % N
            assert j_w % (N // h) == 0 and j_w != 0
        orders.add(h)
    # N = n*|r| is at most 12 on grid G; no kernel there has order 5, 7, 10 or 11
    assert orders == {1, 2, 3, 4, 6, 8, 9, 12}


def test_coprimality_necessary():
    for kind, n, m in itertools.product(ActionKind, [2, 3, 4], range(1, 7)):
        if math.gcd(n, m) <= 1:
            continue
        for p, q, r in itertools.product([-1, 0, 2], [-2, 0, 1], [-2, 1, 3]):
            assert find_witness(kind, n, m, p, q, r) is not None


def test_verdict_serialization_schema():
    v = is_effective(make_spec(ActionKind.TYPE1, 2, 1, 1, 0, 3))
    d = v.to_dict()
    assert set(d) == {"effective", "witness", "kernel_element", "kernel_order"}
    assert d["witness"] == {"ell": 1, "K": 0}
    assert d["kernel_element"]["k"] == 1
    assert d["kernel_order"] == v.kernel_order == 3
    ve = is_effective(make_spec(ActionKind.TYPE1, 2, 1, 0, 0, 1)).to_dict()
    assert ve == {"effective": True, "witness": None, "kernel_element": None,
                  "kernel_order": 1}
