"""Equivalence property tests for the prover hot paths.

Every fast path introduced by the hot-path overhaul is cross-checked here
against the corresponding naive implementation:

* fixed-base window tables  == generic ``multiply`` / naive point sums,
* batch-affine Pippenger    == naive ``g1_sum``-of-multiples MSM,
* fast sumcheck kernels     == the generic ``combine``-callback prover
  (byte-identical proofs, including edge sizes n=2 and degree=1).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.bn254 import (
    CURVE_ORDER,
    add,
    batch_affine_pairwise_add,
    batch_affine_reduce,
    batch_affine_sum,
    g1_generator,
    g1_sum,
    multiply,
    neg,
)
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable
from repro.curve.msm import _msm_jacobian, msm, signed_digits
from repro.field.prime_field import BN254_FR_MODULUS
from repro.gadgets.matmul import MatmulCircuit
from repro.groth16 import setup
from repro.spartan.sumcheck import (
    SumcheckProof,
    sumcheck_prove,
    sumcheck_prove_reference,
    sumcheck_verify,
)
from repro.spartan.transcript import Transcript

R = BN254_FR_MODULUS
G1 = g1_generator()

scalars = st.integers(min_value=0, max_value=CURVE_ORDER - 1)
elems = st.integers(min_value=0, max_value=R - 1)

_rng = random.Random(0xD15C0)
_POOL = [multiply(G1, _rng.randrange(1, CURVE_ORDER)) for _ in range(24)]


def _points(n):
    return [_POOL[i % len(_POOL)] for i in range(n)]


def _naive_msm(points, scs):
    """The definitionally-correct MSM: g1_sum of individual multiplies."""
    acc = None
    for pt, sc in zip(points, scs):
        acc = add(acc, multiply(pt, sc))
    return acc


class TestBatchAffine:
    def test_reduce_matches_sequential_sums(self):
        groups = [
            [],
            [_POOL[0]],
            _POOL[:2],
            _POOL[:7],
            [_POOL[3]] * 5,  # repeated point forces the doubling branch
        ]
        expect = [None] + [
            _naive_msm(g, [1] * len(g)) for g in groups[1:]
        ]
        assert batch_affine_reduce(groups) == expect

    def test_reduce_cancellation(self):
        p = _POOL[0]
        assert batch_affine_reduce([[p, neg(p)]]) == [None]
        assert batch_affine_reduce([[p, neg(p)] * 4]) == [None]
        assert batch_affine_reduce([[p, neg(p), p]]) == [p]

    def test_pairwise_add(self):
        p, q = _POOL[0], _POOL[1]
        got = batch_affine_pairwise_add(
            [p, None, p, neg(p), None], [q, q, p, p, None]
        )
        assert got == [add(p, q), q, multiply(p, 2), None, None]

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_batch_sum_matches_g1_sum(self, n):
        pts = _points(n)
        assert batch_affine_sum(pts) == _naive_msm(pts, [1] * n)

    def test_g1_sum_large_path_matches_small_path(self):
        # n = 40 goes through batch-affine, n < 16 through the Jacobian loop.
        pts = _points(40)
        expect = _naive_msm(pts, [1] * 40)
        assert g1_sum(pts) == expect
        assert g1_sum(pts + [None, None]) == expect


class TestSignedDigits:
    @given(scalars, st.integers(min_value=2, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_recoding_roundtrip(self, sc, c):
        num_windows = (CURVE_ORDER.bit_length() + c) // c + 1
        digits = signed_digits(sc, c, num_windows)
        half = 1 << (c - 1)
        assert all(-half < d <= half for d in digits)
        assert sum(d << (i * c) for i, d in enumerate(digits)) == sc


class TestMsmEquivalence:
    @given(st.lists(scalars, min_size=1, max_size=40))
    @settings(max_examples=15, deadline=None)
    def test_msm_matches_naive(self, scs):
        pts = _points(len(scs))
        assert msm(pts, scs) == _naive_msm(pts, scs)

    def test_msm_matches_jacobian_reference(self):
        rng = random.Random(7)
        pts = _points(50)
        scs = [rng.randrange(CURVE_ORDER) for _ in range(50)]
        assert msm(pts, scs) == _msm_jacobian(pts, scs)

    def test_msm_equal_scalars_and_duplicates(self):
        # Every point lands in the same bucket: worst case for the batched
        # scheduler (exercises the doubling branch heavily).
        pts = [_POOL[0]] * 33
        assert msm(pts, [5] * 33) == multiply(_POOL[0], 5 * 33)

    def test_msm_skips_none_and_zero(self):
        pts = [_POOL[0], None, _POOL[1]] * 8
        scs = [3, 9, 0] * 8
        assert msm(pts, scs) == multiply(_POOL[0], 24)


class TestFixedBase:
    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_table_mul_matches_multiply(self, sc):
        tab = FixedBaseTable(_POOL[2])
        assert tab.mul(sc) == multiply(_POOL[2], sc)

    def test_table_mul_edges(self):
        tab = FixedBaseTable(_POOL[2])
        for sc in (0, 1, 2, CURVE_ORDER - 1, CURVE_ORDER, CURVE_ORDER + 5):
            assert tab.mul(sc) == multiply(_POOL[2], sc)
        assert FixedBaseTable(None).mul(7) is None

    @given(st.lists(scalars, min_size=1, max_size=24))
    @settings(max_examples=15, deadline=None)
    def test_fixed_base_msm_matches_multiply(self, scs):
        fb = FixedBaseMSM(_POOL[: len(scs)])
        assert fb.msm(scs) == _naive_msm(_POOL, scs)

    def test_fixed_base_extend_and_prefix(self):
        fb = FixedBaseMSM(_POOL[:4])
        fb.extend(_POOL[4:10])
        rng = random.Random(11)
        scs = [rng.randrange(CURVE_ORDER) for _ in range(10)]
        assert fb.msm(scs) == _naive_msm(_POOL[:10], scs)
        assert fb.msm(scs[:3]) == _naive_msm(_POOL[:3], scs[:3])
        with pytest.raises(ValueError):
            fb.msm([1] * 11)

    def test_fixed_base_msm_many(self):
        fb = FixedBaseMSM(_POOL[:8])
        rng = random.Random(12)
        rows = [
            [rng.randrange(CURVE_ORDER) for _ in range(8)] for _ in range(5)
        ]
        rows.append([0] * 8)  # all-zero row -> infinity
        got = fb.msm_many(rows)
        assert got == [_naive_msm(_POOL[:8], r) for r in rows]

    def test_cache_promotes_on_reuse(self):
        """A proving key's query MSMs run on the plain base lists at its
        first proof and on tables it keeps from the second on."""
        circuit = MatmulCircuit(2, 3, 2, "crpc_psq")
        instance = circuit.cs.specialize(circuit.packing_point())
        rng = random.Random(13)
        pk = setup(instance, rng=lambda: rng.getrandbits(256)).pk
        first, second, third = (pk.query_msms() for _ in range(3))
        vectors = (*pk.blinded_queries(), pk.k_query, pk.h_query)
        assert all(a is b for a, b in zip(first, vectors))
        assert all(isinstance(t, FixedBaseMSM) for t in second)
        assert all(a is b for a, b in zip(second, third))
        # The G1 queries; the G2 one (index 1) is in tests/test_g2.py.
        for i in (0, 2, 3, 4):
            bases, table = first[i], second[i]
            scs = [rng.randrange(CURVE_ORDER) for _ in bases]
            assert table.msm(scs) == _naive_msm(bases, scs)


def _product_combine(vals):
    acc = 1
    for v in vals:
        acc = acc * v % R
    return acc


class TestSumcheckFastEquivalence:
    @given(st.lists(elems, min_size=2, max_size=2))
    @settings(max_examples=10, deadline=None)
    def test_generic_fast_matches_reference_n2_deg1(self, table):
        # Edge case from the issue: n=2 (single round) and degree=1.
        claim = sum(table) % R
        p1, r1, f1 = sumcheck_prove(
            [list(table)], _product_combine, 1, claim, Transcript(), b"t"
        )
        p2, r2, f2 = sumcheck_prove_reference(
            [list(table)], _product_combine, 1, claim, Transcript(), b"t"
        )
        assert p1.round_polys == p2.round_polys
        assert (r1, f1) == (r2, f2)

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize(
        "kernel,ntables,degree",
        [("prod2", 2, 2), ("prod3", 3, 3), ("eq_abc", 4, 3)],
    )
    def test_kernels_match_reference(self, n, kernel, ntables, degree):
        rng = random.Random(hash((n, kernel)) & 0xFFFF)
        tabs = [[rng.randrange(R) for _ in range(n)] for _ in range(ntables)]
        if kernel == "eq_abc":
            combine = lambda v: v[0] * ((v[1] * v[2] - v[3]) % R) % R  # noqa: E731
        else:
            combine = _product_combine
        claim = sum(
            combine([t[i] for t in tabs]) for i in range(n)
        ) % R
        p1, r1, f1 = sumcheck_prove(
            [list(t) for t in tabs], combine, degree, claim, Transcript(),
            b"t", kernel=kernel,
        )
        p2, r2, f2 = sumcheck_prove_reference(
            [list(t) for t in tabs], combine, degree, claim, Transcript(), b"t"
        )
        assert p1.round_polys == p2.round_polys
        assert (r1, f1) == (r2, f2)
        ok, final, _ = sumcheck_verify(
            p1, degree, claim, max(1, n.bit_length() - 1), Transcript(), b"t"
        )
        assert ok
        assert final == combine(f1)

    @given(st.lists(elems, min_size=8, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_generic_fast_matches_reference_deg3(self, table):
        rng = random.Random(21)
        tabs = [list(table)] + [
            [rng.randrange(R) for _ in range(8)] for _ in range(2)
        ]
        claim = sum(
            _product_combine([t[i] for t in tabs]) for i in range(8)
        ) % R
        p1, _, _ = sumcheck_prove(
            [list(t) for t in tabs], _product_combine, 3, claim,
            Transcript(), b"t",
        )
        p2, _, _ = sumcheck_prove_reference(
            [list(t) for t in tabs], _product_combine, 3, claim,
            Transcript(), b"t",
        )
        assert p1.round_polys == p2.round_polys

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            sumcheck_prove(
                [[1, 2]], _product_combine, 1, 3, Transcript(), b"t",
                kernel="prod2",
            )
        with pytest.raises(ValueError):
            sumcheck_prove(
                [[1, 2], [3, 4]], _product_combine, 2, 11, Transcript(),
                b"t", kernel="nope",
            )

    def test_prover_does_not_mutate_caller_tables(self):
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        sumcheck_prove(
            [a, b], _product_combine, 2, 0, Transcript(), b"t",
            kernel="prod2",
        )
        assert a == [1, 2, 3, 4] and b == [5, 6, 7, 8]


class TestSumcheckVerifierHardening:
    def test_degree_zero_proof_rejected_not_error(self):
        ok, final, r = sumcheck_verify(
            SumcheckProof(round_polys=[[5]]), 0, 5, 1, Transcript(), b"t"
        )
        assert not ok

    def test_truncated_and_overlong_proofs_fail_fast(self):
        a = [1, 2, 3, 4, 5, 6, 7, 8]
        b = [8, 7, 6, 5, 4, 3, 2, 1]
        claim = sum(x * y for x, y in zip(a, b)) % R
        pf, _, _ = sumcheck_prove(
            [list(a), list(b)], _product_combine, 2, claim, Transcript(),
            b"t", kernel="prod2",
        )
        truncated = SumcheckProof(round_polys=pf.round_polys[:2])
        ok, _, r = sumcheck_verify(truncated, 2, claim, 3, Transcript(), b"t")
        assert not ok
        assert r == []  # failed before absorbing any rounds
        overlong = SumcheckProof(round_polys=pf.round_polys + [[0, 0, 0]])
        ok, _, _ = sumcheck_verify(overlong, 2, claim, 3, Transcript(), b"t")
        assert not ok
