"""Tower-field pairing against the flat-Fq12 reference oracle.

The oracle (``_pairing_reference``) is the affine py_ecc-style pairing
with a naive ``** FINAL_EXPONENT``; everything here pins the fast pairing
to it bit for bit.  Reference pairings take ~1 s each, so the seeded
cases are computed once per module.
"""

import random
import sys

import pytest

from _pairing_reference import FINAL_EXPONENT, reference_pairing
from repro.curve.bn254 import (
    B2,
    CURVE_ORDER,
    add,
    double,
    g1_generator,
    g2_generator,
    is_on_curve,
    multiply,
    neg,
)
from repro.curve.pairing import (
    ATE_NAF,
    BN_U,
    FQ12_ONE,
    U_NAF,
    _B3_RE,
    _B3_IM,
    _FROB1,
    _FROB2,
    _FROB3,
    _add_step,
    _cyclotomic_square,
    _double_step,
    _mul_by_line,
    final_exponentiation,
    fq12_conjugate,
    fq12_frobenius,
    fq12_inv,
    fq12_mul,
    fq12_square,
    miller_loop_raw,
    pairing,
    pairing_product_is_one,
    tower_to_flat,
)
from repro.field.extension import Fq2, Fq12, P

G1 = g1_generator()
G2 = g2_generator()
PAIRING_MODULE = sys.modules["repro.curve.pairing"]


def flat_to_tower(x):
    """Flat ``Fq[w]/(w^12 - 18w^6 + 82)`` -> tower tuple: the coefficients
    of ``w^k`` and ``w^(k+6)`` give the Fq2 slot carrying ``w^k`` as
    ``re = c_k + 9 c_(k+6)``, ``im = c_(k+6)``."""
    c = x.coeffs
    out = []
    for k in (0, 2, 4, 1, 3, 5):
        out += [(c[k] + 9 * c[k + 6]) % P, c[k + 6]]
    return tuple(out)


def _rand_fq12(rng):
    return Fq12([rng.randrange(P) for _ in range(12)])


def _rand_g1(rng):
    return multiply(G1, rng.randrange(1, CURVE_ORDER))


def _rand_g2(rng):
    return multiply(G2, rng.randrange(1, CURVE_ORDER))


def _fq2_sqrt(a):
    """A square root in Fq2 via the norm (p = 3 mod 4), or None."""
    a0, a1 = a.coeffs
    norm = (a0 * a0 + a1 * a1) % P
    n = pow(norm, (P + 1) // 4, P)
    if n * n % P != norm:
        return None
    for cand in (n, -n % P):
        half = (a0 + cand) * pow(2, -1, P) % P
        x0 = pow(half, (P + 1) // 4, P)
        if x0 * x0 % P != half or x0 == 0:
            continue
        root = Fq2([x0, a1 * pow(2 * x0, -1, P)])
        if root * root == a:
            return root
    return None


def _twist_point_outside_torsion(seed):
    """An on-twist point from a seeded x: y^2 = x^3 + b'.  The twist has
    cofactor 2p - r, so such a point is outside the r-torsion."""
    rng = random.Random(seed)
    while True:
        x = Fq2([rng.randrange(P), rng.randrange(P)])
        y = _fq2_sqrt(x * x * x + B2)
        if y is not None:
            return (x, y)


def _to_projective(q, z):
    """Affine twist point -> homogeneous (X, Y, Z) tuple with Z = z."""
    x, y = q
    return tuple((x * z).coeffs + (y * z).coeffs + z.coeffs)


def _to_affine(t):
    x, y, z = Fq2(t[0:2]), Fq2(t[2:4]), Fq2(t[4:6])
    return (x / z, y / z)


@pytest.fixture(scope="module")
def seeded_pairs():
    rng = random.Random(20261017)
    return [(_rand_g1(rng), _rand_g2(rng)) for _ in range(5)]


class TestTowerArithmetic:
    def test_flat_round_trip(self):
        rng = random.Random(1)
        for _ in range(10):
            x = _rand_fq12(rng)
            assert tower_to_flat(flat_to_tower(x)) == x
        assert tower_to_flat(FQ12_ONE) == Fq12.one()

    def test_ops_match_flat(self):
        rng = random.Random(2)
        for _ in range(5):
            x, y = _rand_fq12(rng), _rand_fq12(rng)
            tx, ty = flat_to_tower(x), flat_to_tower(y)
            assert tower_to_flat(fq12_mul(tx, ty)) == x * y
            assert tower_to_flat(fq12_square(tx)) == x * x
            assert tower_to_flat(fq12_inv(tx)) == x.inv()

    def test_frobenius_matches_flat_power(self):
        x = _rand_fq12(random.Random(3))
        tx = flat_to_tower(x)
        for power in (1, 2, 3):
            assert tower_to_flat(fq12_frobenius(tx, power)) == x ** (P ** power)
        assert tower_to_flat(fq12_conjugate(tx)) == x ** (P ** 6)

    def test_frobenius_constants(self):
        xi = Fq2([9, 1])
        for table, n in ((_FROB1, 1), (_FROB2, 2), (_FROB3, 3)):
            gamma = xi ** ((P ** n - 1) // 6)
            assert [Fq2(c) for c in table] == [gamma ** k for k in range(1, 6)]
        assert Fq2([_B3_RE, _B3_IM]) == B2 * 3

    def test_line_multiply_matches_dense(self):
        rng = random.Random(4)
        f = flat_to_tower(_rand_fq12(rng))
        line = tuple(rng.randrange(P) for _ in range(6))
        c0, c3, c4 = line[0:2], line[2:4], line[4:6]
        # c0 + c3 w + c4 w^3: slots A0, B0, B1
        dense = c0 + (0,) * 4 + c3 + c4 + (0, 0)
        assert _mul_by_line(f, line) == fq12_mul(f, dense)

    def test_cyclotomic_square(self):
        rng = random.Random(5)
        for _ in range(3):
            x = flat_to_tower(_rand_fq12(rng))
            # x^((p^6 - 1)(p^2 + 1)) lies in the cyclotomic subgroup
            c = fq12_mul(fq12_conjugate(x), fq12_inv(x))
            c = fq12_mul(fq12_frobenius(c, 2), c)
            assert _cyclotomic_square(c) == fq12_square(c)


class TestLoopParameters:
    def test_naf_reconstructs(self):
        for digits, n in ((ATE_NAF, 6 * BN_U + 2), (U_NAF, BN_U)):
            assert sum(d << i for i, d in enumerate(digits)) == n
            assert set(digits) <= {-1, 0, 1}
            assert all(
                not (a and b) for a, b in zip(digits, digits[1:])
            ), "adjacent nonzero digits"
        assert 6 * BN_U + 2 == 29793968203157093288

    def test_hard_part_decomposition(self):
        u = BN_U
        assert P == 36 * u**4 + 36 * u**3 + 24 * u**2 + 6 * u + 1
        assert CURVE_ORDER == 36 * u**4 + 36 * u**3 + 18 * u**2 + 6 * u + 1
        l3 = 1
        l2 = 6 * u**2 + 1
        l1 = -36 * u**3 - 18 * u**2 - 12 * u + 1
        l0 = -36 * u**3 - 30 * u**2 - 18 * u - 2
        lam = (P**4 - P**2 + 1) // CURVE_ORDER
        assert (P**4 - P**2 + 1) % CURVE_ORDER == 0
        assert l0 + l1 * P + l2 * P**2 + l3 * P**3 == lam
        assert (P**6 - 1) * (P**2 + 1) * lam == FINAL_EXPONENT


class TestProjectiveSteps:
    def test_double_step_point(self):
        rng = random.Random(6)
        q = _rand_g2(rng)
        z = Fq2([rng.randrange(1, P), rng.randrange(P)])
        t, _ = _double_step(_to_projective(q, z), *G1)
        assert _to_affine(t) == double(q)

    def test_add_step_point(self):
        rng = random.Random(7)
        q, r = _rand_g2(rng), _rand_g2(rng)
        z = Fq2([rng.randrange(1, P), rng.randrange(P)])
        t, _ = _add_step(
            _to_projective(q, z), *r[0].coeffs, *r[1].coeffs, *G1
        )
        assert _to_affine(t) == add(q, r)

    def test_degenerate_point_gives_zero_line(self):
        _, line = _double_step((0,) * 6, *G1)
        assert line == (0,) * 6
        assert _mul_by_line(FQ12_ONE, line) == (0,) * 12


class TestFinalExponentiation:
    def test_matches_naive_power(self):
        rng = random.Random(8)
        for _ in range(2):
            x = _rand_fq12(rng)
            assert tower_to_flat(final_exponentiation(flat_to_tower(x))) == (
                x ** FINAL_EXPONENT
            )

    def test_zero_maps_to_zero(self):
        assert final_exponentiation((0,) * 12) == (0,) * 12


class TestAgainstReference:
    def test_pairing_equals_reference(self, seeded_pairs):
        for p, q in seeded_pairs:
            assert pairing(q, p) == reference_pairing(q, p)

    def test_generator_pairing_equals_reference(self):
        assert pairing(G2, G1) == reference_pairing(G2, G1)

    def test_multi_miller_product(self, seeded_pairs):
        prod = Fq12.one()
        for p, q in seeded_pairs[:4]:
            prod = prod * pairing(q, p)
        joint = tower_to_flat(final_exponentiation(miller_loop_raw(seeded_pairs[:4])))
        assert joint == prod

    def test_identity_pairs_contribute_one(self, seeded_pairs):
        p, q = seeded_pairs[0]
        assert miller_loop_raw([(None, q), (p, None)]) == FQ12_ONE
        assert miller_loop_raw([(p, q), (None, q)]) == miller_loop_raw([(p, q)])


class TestMalformedInputs:
    def test_off_twist_q_rejected(self):
        x, y = G2
        with pytest.raises(ValueError):
            pairing((x, y + Fq2([1, 0])), G1)

    def test_point_outside_torsion_is_rejected_not_raised(self):
        q = _twist_point_outside_torsion(611953)
        assert is_on_curve(q, B2)
        assert pairing_product_is_one([(G1, q)]) is False
        assert pairing_product_is_one([(neg(G1), G2), (G1, q)]) is False
        assert isinstance(pairing(q, G1), Fq12)

    def test_zero_miller_value_is_false(self, monkeypatch):
        monkeypatch.setattr(
            PAIRING_MODULE, "miller_loop_raw", lambda pairs, prepared=(): (0,) * 12
        )
        assert pairing_product_is_one([(G1, G2)]) is False
