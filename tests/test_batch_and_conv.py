"""Groth16 batch verification and the convolution circuits."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.groth16 as g16
from repro.field.prime_field import BN254_FR_MODULUS
from repro.gadgets.convolution import (
    CONV_STRATEGIES,
    Conv1dCircuit,
    conv1d_reference,
)
from repro.curve.bn254 import add, g1_generator, multiply
from repro.groth16.batch import batch_verify, combined_statement
from repro.groth16.verify import prepare_inputs
from repro.r1cs import LC, ConstraintSystem

R = BN254_FR_MODULUS


def square_circuit(x: int):
    cs = ConstraintSystem()
    xw = cs.alloc_public("x", x)
    yw = cs.alloc_public("y", x * x)
    cs.enforce(LC.from_wire(xw), LC.from_wire(xw), LC.from_wire(yw))
    return cs


@pytest.fixture(scope="module")
def batch_setup():
    rng = random.Random(9)
    cs0 = square_circuit(3)
    inst = cs0.specialize(1)
    kp = g16.setup(inst, rng=lambda: rng.getrandbits(256))
    proofs, statements = [], []
    for x in (3, 5, 11):
        cs = square_circuit(x)
        proofs.append(g16.prove(kp.pk, inst, cs.assignment()))
        statements.append(cs.public_inputs())
    return kp, inst, statements, proofs


class TestBatchVerify:
    def test_accepts_valid_batch(self, batch_setup):
        kp, _, statements, proofs = batch_setup
        assert batch_verify(kp.vk, statements, proofs)

    def test_rejects_one_bad_statement(self, batch_setup):
        kp, _, statements, proofs = batch_setup
        bad = [list(s) for s in statements]
        bad[1][1] = (bad[1][1] + 1) % R
        assert not batch_verify(kp.vk, bad, proofs)

    def test_rejects_one_mangled_proof(self, batch_setup):
        from repro.curve.bn254 import multiply
        from repro.groth16.keys import Proof

        kp, _, statements, proofs = batch_setup
        mangled = list(proofs)
        p = mangled[2]
        mangled[2] = Proof(a=multiply(p.a, 2), b=p.b, c=p.c)
        assert not batch_verify(kp.vk, statements, mangled)

    def test_empty_batch(self, batch_setup):
        kp, *_ = batch_setup
        assert batch_verify(kp.vk, [], [])

    def test_length_mismatch(self, batch_setup):
        kp, _, statements, proofs = batch_setup
        with pytest.raises(ValueError):
            batch_verify(kp.vk, statements[:1], proofs)

    def test_swapped_statements_rejected(self, batch_setup):
        kp, _, statements, proofs = batch_setup
        assert not batch_verify(
            kp.vk, [statements[1], statements[0], statements[2]], proofs
        )

    def test_wrong_statement_length_raises(self, batch_setup):
        kp, _, statements, proofs = batch_setup
        short = [statements[0], statements[1][:1], statements[2]]
        with pytest.raises(ValueError):
            batch_verify(kp.vk, short, proofs)


def _fold_prepare_inputs(ic, public):
    """The per-point statement fold ``IC_0 + sum x_i IC_{i+1}``."""
    acc = ic[0]
    for coeff, point in zip(public, ic[1:]):
        if coeff:
            acc = add(acc, multiply(point, coeff))
    return acc


class TestStatementMSM:
    """``prepare_inputs`` and the batch's combined statement are single
    MSMs over ``vk.ic``; both must equal the per-point fold they replaced.
    20 IC points put the MSM on its batch-affine path."""

    @pytest.fixture(scope="class")
    def vk(self):
        rng = random.Random(31)
        ic = [multiply(g1_generator(), rng.randrange(1, R)) for _ in range(21)]
        ic[3] = None
        return SimpleNamespace(ic=ic)

    def test_prepare_inputs_matches_fold(self, vk):
        rng = random.Random(32)
        public = [rng.randrange(R) for _ in range(20)]
        public[5] = 0
        public[6] = -7
        assert prepare_inputs(vk, public) == _fold_prepare_inputs(vk.ic, public)

    def test_prepare_inputs_length_checked(self, vk):
        with pytest.raises(ValueError):
            prepare_inputs(vk, [1] * 19)

    def test_combined_statement_matches_per_proof_fold(self, vk):
        rng = random.Random(33)
        statements = [[rng.randrange(R) for _ in range(20)] for _ in range(3)]
        coeffs = [rng.getrandbits(127) | 1 for _ in statements]
        folded = None
        for r_k, public in zip(coeffs, statements):
            folded = add(folded, multiply(_fold_prepare_inputs(vk.ic, public), r_k))
        assert combined_statement(vk, statements, coeffs) == folded


@pytest.mark.parametrize("strategy", CONV_STRATEGIES)
class TestConv1d:
    def test_satisfied(self, strategy):
        rng = random.Random(1)
        x = [rng.randrange(-20, 20) for _ in range(6)]
        w = [rng.randrange(-20, 20) for _ in range(3)]
        circ = Conv1dCircuit(6, 3, strategy)
        y = circ.assign(x, w)
        z = circ.packing_point()
        assert circ.cs.is_satisfied(z), circ.cs.first_unsatisfied(z)
        ref = conv1d_reference(x, w)
        assert y == [v % R for v in ref]

    def test_tamper_rejected(self, strategy):
        rng = random.Random(2)
        x = [rng.randrange(50) for _ in range(5)]
        w = [rng.randrange(50) for _ in range(4)]
        circ = Conv1dCircuit(5, 4, strategy)
        y = circ.assign(x, w)
        circ.cs.set_value(circ.y_wires[3], (y[3] + 1) % R)
        assert not circ.cs.is_satisfied(circ.packing_point())

    def test_single_element(self, strategy):
        circ = Conv1dCircuit(1, 1, strategy)
        y = circ.assign([7], [6])
        assert y == [42]
        assert circ.cs.is_satisfied(circ.packing_point())

    def test_length_validation(self, strategy):
        circ = Conv1dCircuit(3, 2, strategy)
        with pytest.raises(ValueError):
            circ.assign([1, 2], [3, 4])


class TestConvEncodingComparison:
    def test_packed_is_one_constraint(self):
        """vCNN's headline: a whole convolution = 1 polynomial mult."""
        vanilla = Conv1dCircuit(16, 8, "vanilla")
        packed = Conv1dCircuit(16, 8, "packed")
        assert len(packed.cs.constraints) == 1
        assert len(vanilla.cs.constraints) == 16 * 8 + (16 + 8 - 1)

    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=8),
        st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    )
    @settings(max_examples=10)
    def test_encodings_agree(self, x, w):
        a = Conv1dCircuit(len(x), len(w), "vanilla")
        b = Conv1dCircuit(len(x), len(w), "packed")
        assert a.assign(x, w) == b.assign(x, w)
        assert a.cs.is_satisfied(a.packing_point())
        assert b.cs.is_satisfied(b.packing_point())

    def test_packed_conv_proves_with_spartan(self):
        from repro.spartan import Transcript, prove, verify

        circ = Conv1dCircuit(8, 4, "packed")
        x = list(range(1, 9))
        w = [2, -1, 3, 1]
        circ.assign(x, w)
        z = circ.packing_point()
        inst = circ.cs.specialize(z)
        proof = prove(inst, circ.cs.assignment(), Transcript(b"conv"))
        assert verify(
            inst, circ.cs.public_inputs(), proof, Transcript(b"conv")
        )

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            Conv1dCircuit(4, 2, "fft")

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Conv1dCircuit(0, 2, "packed")
