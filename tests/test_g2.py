"""G2 on int tuples against the old ``ExtElem`` oracle.

* ``multiply`` on a G2 point equals the wNAF-over-``Fq2``-objects
  reference (``_g2_reference``) on edge and random scalars;
* the G2 MSMs — generic Pippenger, ``FixedBaseMSM`` and a proving key's
  pi_B query before and after it promotes to a table — equal the naive
  per-point sum, including ``None`` bases, zero scalars, prefixes, bucket
  doublings and cancelling pairs;
* a seeded Groth16 keypair and proof are byte-identical to the ones the
  per-point pi_B loop and per-point setup produced (pinned digests), for
  both the zkVC circuit and the vanilla baseline;
* a pool worker's warm-up builds the key's G2 table too.
"""

import hashlib
import random

import pytest
from _g2_reference import reference_g2_msm, reference_g2_multiply

from repro import serialize
from repro.core.backends import Groth16Backend
from repro.curve import g2 as g2_ops
from repro.curve.bn254 import (
    B2,
    CURVE_ORDER,
    G2_OPS,
    add,
    batch_affine_reduce,
    batch_affine_weighted_bucket_sums,
    g2_generator,
    is_on_curve,
    multiply,
    neg,
)
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable
from repro.curve.msm import msm
from repro.field.extension import Fq2
from repro.gadgets.matmul import MatmulCircuit
from repro.groth16 import prove, setup, verify
from repro.groth16.prove import fixed_base_msm

G2 = g2_generator()
_rng = random.Random(0x62)
_POOL = [multiply(G2, _rng.randrange(1, CURVE_ORDER)) for _ in range(6)]

EDGE_SCALARS = [0, 1, 2, 3, 7, 8, 15, 16, CURVE_ORDER - 1, CURVE_ORDER,
                CURVE_ORDER + 5, 2 * CURVE_ORDER]
# Matmul wires are int8 values; negatives reach the prover as r - |v|.
INT8_WIRES = [-1, -2, -37, -127, -128, 127]


def _rand_scalars(n, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(254) for _ in range(n)]


class TestFq2Helpers:
    def test_match_fq2_class(self):
        rng = random.Random(1)
        for _ in range(20):
            a, b, c, d = (rng.randrange(g2_ops.P) for _ in range(4))
            x, y = Fq2([a, b]), Fq2([c, d])
            assert g2_ops._f2_mul(a, b, c, d) == (x * y).coeffs
            assert g2_ops._f2_sqr(a, b) == (x * x).coeffs
            assert g2_ops._f2_inv(a, b) == x.inv().coeffs

    def test_conversions_roundtrip(self):
        assert g2_ops.from_ints(g2_ops.to_ints(G2)) == G2
        assert g2_ops.to_ints(None) is None and g2_ops.from_ints(None) is None
        assert g2_ops.from_ints(g2_ops.neg(g2_ops.to_ints(G2))) == neg(G2)


class TestG2Multiply:
    @pytest.mark.parametrize("point", [G2, _POOL[0]])
    def test_edge_scalars_match_reference(self, point):
        for sc in EDGE_SCALARS:
            assert multiply(point, sc) == reference_g2_multiply(point, sc)

    def test_negative_int8_wires_match_reference(self):
        for v in INT8_WIRES:
            assert multiply(_POOL[1], v) == reference_g2_multiply(_POOL[1], v)
            assert multiply(_POOL[1], v % CURVE_ORDER) == multiply(_POOL[1], v)

    def test_random_scalars_match_reference(self):
        for sc in _rand_scalars(6, 0xA11CE):
            got = multiply(_POOL[2], sc)
            assert got == reference_g2_multiply(_POOL[2], sc)
            assert is_on_curve(got, B2)

    def test_order_and_negation(self):
        assert multiply(G2, CURVE_ORDER) is None
        assert multiply(G2, CURVE_ORDER - 1) == neg(G2)
        assert multiply(None, 5) is None

    def test_table_mul_matches_reference(self):
        tab = FixedBaseTable(G2)
        for sc in EDGE_SCALARS + INT8_WIRES + _rand_scalars(4, 5):
            assert tab.mul(sc) == reference_g2_multiply(G2, sc)


class TestG2BatchAffine:
    def test_reduce_doubles_and_cancels(self):
        p, q = (g2_ops.to_ints(pt) for pt in _POOL[:2])
        groups = [[p, p], [p, g2_ops.neg(p)], [p, g2_ops.neg(p), q], [],
                  [None, q], [p, q, p, q, p]]
        want = [multiply(_POOL[0], 2), None, _POOL[1], None, _POOL[1],
                add(multiply(_POOL[0], 3), multiply(_POOL[1], 2))]
        got = batch_affine_reduce(groups)
        assert [g2_ops.from_ints(pt) for pt in got] == want

    def test_weighted_bucket_sums(self):
        p, q = (g2_ops.to_ints(pt) for pt in _POOL[:2])
        got = batch_affine_weighted_bucket_sums([[p, None, q], [None, None, None]])
        want = add(_POOL[0], multiply(_POOL[1], 3))
        assert [g2_ops.from_ints(pt) for pt in got] == [want, None]

    def test_jacobian_ops_match_affine(self):
        p, q = (g2_ops.to_ints(pt) for pt in _POOL[:2])
        jp, jq = G2_OPS.to_jac(p), G2_OPS.to_jac(q)
        dbl = G2_OPS.jac_double(jp)
        assert g2_ops.from_ints(G2_OPS.to_affine(dbl)) == add(_POOL[0], _POOL[0])
        s = G2_OPS.jac_add(dbl, jq)
        assert G2_OPS.to_affine(G2_OPS.jac_add_affine(dbl, q)) == G2_OPS.to_affine(s)
        assert G2_OPS.to_affine(G2_OPS.jac_add(jp, G2_OPS.to_jac(g2_ops.neg(p)))) is None
        assert G2_OPS.to_affine(G2_OPS.jac_add_affine(jp, p)) == G2_OPS.to_affine(dbl)
        assert G2_OPS.normalize_batch([dbl, G2_OPS.jac_infinity, s]) == [
            G2_OPS.to_affine(dbl), None, G2_OPS.to_affine(s)]


def _msm_cases():
    """(points, scalars) pairs covering the MSM edge cases."""
    p, q, r = _POOL[:3]
    rand = _rand_scalars(24, 0xB0B)
    pts24 = [_POOL[i % len(_POOL)] for i in range(24)]
    return [
        ([p, None, q, None], [5, 7, 0, 9]),                  # None bases
        ([p, q, r], [0, CURVE_ORDER, 2 * CURVE_ORDER]),      # all zero mod r
        ([p, q, r], [0, 3, CURVE_ORDER + 4]),                # some zero
        ([p, p, p, q], [4, 4, 4, 1]),                        # bucket doubling
        ([p, neg(p), q], [6, 6, 2]),                         # P + (-P) in a bucket
        ([p], [CURVE_ORDER - 1]),                            # single point
        (pts24, rand),                                       # batch-affine path
        (pts24, [v % CURVE_ORDER for v in INT8_WIRES] * 4),  # int8 wires
        ([p] * 20 + [neg(p)] * 20, [9] * 40),                # full cancellation
    ]


class TestG2Msm:
    @pytest.mark.parametrize("case", range(len(_msm_cases())))
    def test_generic_msm_matches_naive(self, case):
        pts, scs = _msm_cases()[case]
        assert msm(pts, scs) == reference_g2_msm(pts, scs)

    @pytest.mark.parametrize("window", [None, 5, 8])
    @pytest.mark.parametrize("case", range(len(_msm_cases())))
    def test_fixed_base_msm_matches_naive(self, case, window):
        pts, scs = _msm_cases()[case]
        assert FixedBaseMSM(pts, window=window).msm(scs) == reference_g2_msm(pts, scs)

    def test_prefix_and_extend(self):
        pts = _POOL[:4]
        scs = _rand_scalars(6, 0xC0C)
        fb = FixedBaseMSM(pts)
        fb.extend(_POOL[4:6])
        assert fb.msm(scs) == reference_g2_msm(_POOL[:6], scs)
        assert fb.msm(scs[:2]) == reference_g2_msm(pts[:2], scs[:2])
        with pytest.raises(ValueError):
            fb.msm([1] * 7)

    def test_msm_many(self):
        fb = FixedBaseMSM(_POOL)
        rows = [_rand_scalars(6, seed) for seed in range(3)] + [[0] * 6]
        assert fb.msm_many(rows) == [reference_g2_msm(_POOL, r) for r in rows]

    def test_cache_promotes_on_reuse(self):
        """A key's pi_B query runs the generic MSM on its first proof and
        its table from the second on."""
        _, inst = _seeded_circuit("crpc_psq", 2, 2, 2)
        pk = setup(inst, rng=_det_rng(5)).pk
        pts = pk.blinded_queries()[1]
        sides = [pk.query_msms()[1] for _ in range(3)]
        assert sides[0] is pts
        assert isinstance(sides[1], FixedBaseMSM) and sides[2] is sides[1]
        for seed, side in enumerate(sides):
            scs = _rand_scalars(len(pts), seed)
            assert fixed_base_msm("groth16-b2", side, scs) == reference_g2_msm(
                pts, scs
            )
        # A prefix of the scalars, through the table.
        scs = _rand_scalars(3, 9)
        assert sides[2].msm(scs) == reference_g2_msm(pts[:3], scs)

    def test_table_cost_charges_g2_at_its_size(self):
        """A G2 base stores as many shifts as a G1 one, each of twice the
        coordinates."""
        g1_table, g2_table = FixedBaseMSM([(1, 2)]), FixedBaseMSM(_POOL[:1])
        assert len(g2_table.shifted[0]) == len(g1_table.shifted[0])
        assert len(g2_table.shifted[0][0]) == 2 * len(g1_table.shifted[0][0])


def _det_rng(seed):
    r = random.Random(seed)
    return lambda: r.getrandbits(256)


# sha256 of the seeded keypair and proof bytes, taken from the per-point
# implementation (G2 pi_B as one multiply per wire, setup as one multiply
# per CRS element) these paths replace.
PINNED = {
    ("crpc_psq", 3, 4, 2): (
        "7fa66d4fccdd0bc79101ba95f8cacc95e1e2174cb27d625c085e2e8c1b66e382",
        "180da8eda198d198bde82310a8bc4c1655ff45eb69f8eae839578f1f6ca1c93f",
    ),
    ("vanilla", 3, 4, 2): (
        "931ff5347224f0b2e834c5a1cbab79737d5da73bf94011aac6c9ad00cc3d1b46",
        "6e42f193e832f04fc54cc7ead47b44ac789a00e7a9ee75ebc2d553350a65f3e1",
    ),
}


def _seeded_circuit(strategy, a, n, b):
    mc = MatmulCircuit(a, n, b, strategy)
    rng = random.Random(99)
    x = [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)]
    w = [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)]
    mc.assign(x, w)
    return mc, mc.cs.specialize(mc.packing_point())


class TestGroth16ByteIdentity:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_keypair_and_proofs_match_per_point_bytes(self, key):
        kp_digest, pf_digest = PINNED[key]
        mc, inst = _seeded_circuit(*key)
        kp = setup(inst, rng=_det_rng(7))
        assert hashlib.sha256(
            serialize.groth16_keypair_to_bytes(kp)
        ).hexdigest() == kp_digest

        assignment = mc.cs.assignment()
        # Generic MSM, table build, warm table: all the same bytes.
        proofs = [prove(kp.pk, inst, assignment, rng=_det_rng(11))
                  for _ in range(3)]
        for pf in proofs:
            assert hashlib.sha256(pf.to_bytes()).hexdigest() == pf_digest

        # pi_B recomputed with the old per-point ExtElem loop.
        draw = _det_rng(11)
        draw()
        s = draw() % CURVE_ORDER
        pi_b = add(add(kp.pk.beta_g2, reference_g2_msm(kp.pk.b_g2_query, assignment)),
                   reference_g2_multiply(kp.pk.delta_g2, s))
        assert proofs[0].b == pi_b
        assert verify(kp.vk, mc.cs.public_inputs(), proofs[0])

    def test_setup_g2_elements_match_reference(self):
        _, inst = _seeded_circuit("crpc_psq", 2, 2, 2)
        kp = setup(inst, rng=_det_rng(3))
        draw = _det_rng(3)
        tau, alpha, beta, gamma, delta = (draw() % CURVE_ORDER for _ in range(5))
        assert kp.pk.beta_g2 == reference_g2_multiply(G2, beta)
        assert kp.pk.delta_g2 == reference_g2_multiply(G2, delta)
        assert kp.vk.gamma_g2 == reference_g2_multiply(G2, gamma)


class TestPrewarm:
    def test_warm_builds_g2_table(self):
        backend = Groth16Backend()
        circuit = MatmulCircuit(2, 2, 2, "crpc_psq")
        artifacts = backend.setup(circuit, rng=_det_rng(5))
        backend.warm(artifacts)
        pk = artifacts.keypair.pk
        table = pk.tables()[1]
        # The query with beta2 and delta2 appended, memoised per key.
        assert len(table) == len(pk.blinded_queries()[1])
        assert len(table) == len(pk.b_g2_query) + 2
        # The key's first proof already runs on it.
        assert pk.query_msms()[1] is table
