"""Groth16 end-to-end: completeness, soundness probes, zero-knowledge
randomisation.  Setup is expensive in pure Python, so one keypair is shared
per circuit via module fixtures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.field.ntt import next_power_of_two
from repro.field.prime_field import BN254_FR_MODULUS
from repro.groth16 import prove, setup, verify
from repro.groth16.prove import _compute_h, _compute_h_reference
from repro.r1cs import LC, ConstraintSystem

R = BN254_FR_MODULUS


def make_circuit(x1=3, x2=4, w=5):
    """y = (x1 + w)(x2 + w) from the paper's Fig. 2, plus a cube chain."""
    cs = ConstraintSystem()
    a = cs.alloc_public("x1", x1)
    b = cs.alloc_public("x2", x2)
    y = cs.alloc_public("y", (x1 + w) * (x2 + w))
    ww = cs.alloc("w", w)
    cs.enforce(
        LC.from_wire(a) + LC.from_wire(ww),
        LC.from_wire(b) + LC.from_wire(ww),
        LC.from_wire(y),
    )
    w2 = cs.mul(LC.from_wire(ww), LC.from_wire(ww), "w2")
    cs.mul(LC.from_wire(w2), LC.from_wire(ww), "w3")
    return cs


@pytest.fixture(scope="module")
def circuit():
    return make_circuit()


@pytest.fixture(scope="module")
def instance(circuit):
    return circuit.specialize(1)


@pytest.fixture(scope="module")
def keypair(instance):
    rng = random.Random(42)
    return setup(instance, rng=lambda: rng.getrandbits(256))


@pytest.fixture(scope="module")
def proof(keypair, instance, circuit):
    return prove(keypair.pk, instance, circuit.assignment())


class TestCompleteness:
    def test_honest_proof_verifies(self, keypair, proof, circuit):
        assert verify(keypair.vk, circuit.public_inputs(), proof)

    def test_different_witness_same_statement(self, keypair, instance):
        # y = 72 also from (x1,x2,w)=(3,4,5); re-prove and verify.
        cs = make_circuit()
        pf = prove(keypair.pk, instance, cs.assignment())
        assert verify(keypair.vk, cs.public_inputs(), pf)

    def test_proof_size_constant(self, proof):
        assert proof.size_bytes() == 256


class TestSoundnessProbes:
    def test_wrong_public_input_rejected(self, keypair, proof):
        assert not verify(keypair.vk, [3, 4, 71], proof)

    def test_swapped_inputs_rejected(self, keypair, proof):
        assert not verify(keypair.vk, [4, 3, 73], proof)

    def test_mangled_proof_a_rejected(self, keypair, proof, circuit):
        from repro.curve.bn254 import multiply
        from repro.groth16.keys import Proof

        bad = Proof(a=multiply(proof.a, 2), b=proof.b, c=proof.c)
        assert not verify(keypair.vk, circuit.public_inputs(), bad)

    def test_mangled_proof_c_rejected(self, keypair, proof, circuit):
        from repro.curve.bn254 import multiply
        from repro.groth16.keys import Proof

        bad = Proof(a=proof.a, b=proof.b, c=multiply(proof.c, 3))
        assert not verify(keypair.vk, circuit.public_inputs(), bad)

    def test_wrong_input_count_rejected(self, keypair, proof):
        with pytest.raises(ValueError):
            verify(keypair.vk, [3, 4], proof)

    def test_unsatisfying_assignment_breaks_h(self, instance, circuit):
        bad = circuit.assignment()
        bad[3] = (bad[3] + 1) % R  # corrupt the witness
        # The quotient is no longer a polynomial: high coefficients of the
        # "would-be" h spill beyond deg N-2, so proving with it fails
        # verification.
        h = _compute_h(instance, circuit.assignment(), 4)
        assert len(h) <= 3


class TestZeroKnowledge:
    def test_proofs_are_randomised(self, keypair, instance, circuit):
        """Two proofs of the same statement+witness must differ (r, s
        blinding), yet both verify."""
        pf1 = prove(keypair.pk, instance, circuit.assignment())
        pf2 = prove(keypair.pk, instance, circuit.assignment())
        assert pf1.a != pf2.a
        assert pf1.c != pf2.c
        assert verify(keypair.vk, circuit.public_inputs(), pf1)
        assert verify(keypair.vk, circuit.public_inputs(), pf2)


class TestKeys:
    def test_pk_sizes_positive(self, keypair):
        assert keypair.pk.size_bytes() > 0
        assert keypair.vk.size_bytes() > 0

    def test_ic_matches_publics(self, keypair, circuit):
        assert len(keypair.vk.ic) == circuit.num_public

    def test_assignment_length_checked(self, keypair, instance):
        with pytest.raises(ValueError):
            prove(keypair.pk, instance, [1, 2, 3])


def _mul_chain_circuit(rng, depth):
    """A satisfied circuit with ``depth + 1`` multiplication constraints."""
    cs = ConstraintSystem()
    x = cs.alloc_public("x", rng.randrange(1, R))
    cur = cs.mul(LC.from_wire(x), LC.from_wire(x), "sq")
    for i in range(depth):
        cur = cs.mul(LC.from_wire(cur), LC.from_wire(x), f"m{i}")
    return cs


def _det_rng(seed=0x5EED):
    r = random.Random(seed)
    return lambda: r.getrandbits(256)


class TestQuotientEquivalence:
    """The planned same-size-coset quotient pipeline must compute the exact
    polynomial the seed doubled-domain reference computes."""

    @given(st.integers(min_value=0, max_value=40), st.integers())
    @settings(max_examples=10, deadline=None)
    def test_compute_h_matches_reference(self, depth, seed):
        rng = random.Random(seed)
        cs = _mul_chain_circuit(rng, depth)
        inst = cs.specialize(1)
        domain = next_power_of_two(inst.num_constraints)
        assignment = cs.assignment()
        assert _compute_h(inst, assignment, domain) == _compute_h_reference(
            inst, assignment, domain
        )

    def test_reference_on_module_circuit(self, instance, circuit):
        assert _compute_h(instance, circuit.assignment(), 4) == (
            _compute_h_reference(instance, circuit.assignment(), 4)
        )

    def test_context_rebuilds_after_plan_cache_clear(self, instance, circuit):
        from repro.field.ntt import clear_ntt_plan_cache, get_plan
        from repro.groth16.prove import _quotient_context

        expected = _compute_h(instance, circuit.assignment(), 4)
        ctx_before = _quotient_context(4)
        clear_ntt_plan_cache()
        # The context must follow the fresh plan, not pin the stale one.
        ctx_after = _quotient_context(4)
        assert ctx_after is not ctx_before
        assert ctx_after.plan is get_plan(4)
        assert _compute_h(instance, circuit.assignment(), 4) == expected


class TestPlannedQuotientProofBytes:
    def test_byte_identical_fresh_and_rehydrated(
        self, keypair, instance, circuit, monkeypatch
    ):
        """With a fixed blinding rng, proofs must be byte-identical whether
        h comes from the planned pipeline or the seed reference, and
        whether the key is the original or a serialisation round trip."""
        import importlib

        # ``repro.groth16.prove`` the attribute is the re-exported function;
        # fetch the real module to patch its _compute_h global.
        prove_mod = importlib.import_module("repro.groth16.prove")

        assignment = circuit.assignment()
        pf_fast = prove(keypair.pk, instance, assignment, rng=_det_rng())
        monkeypatch.setattr(
            prove_mod, "_compute_h", prove_mod._compute_h_reference
        )
        pf_ref = prove(keypair.pk, instance, assignment, rng=_det_rng())
        monkeypatch.undo()

        kp2 = serialize.groth16_keypair_from_bytes(
            serialize.groth16_keypair_to_bytes(keypair)
        )
        pf_re = prove(kp2.pk, instance, assignment, rng=_det_rng())

        assert pf_fast.to_bytes() == pf_ref.to_bytes()
        assert pf_fast.to_bytes() == pf_re.to_bytes()
        assert verify(keypair.vk, circuit.public_inputs(), pf_fast)


class TestPackedCircuitGroth16:
    def test_packed_circuit_proves(self):
        """A circuit with Z-packed coefficients, specialised at its public
        packing point, goes through Groth16 unchanged."""
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 3)
        y = cs.alloc_public("y")
        z = 1000
        cs.set_value(y, (3 + 3 * z) * 3 % R)
        cs.enforce(
            LC.from_wire(x) + LC.from_wire(x, z_deg=1),
            LC.from_wire(x),
            LC.from_wire(y),
        )
        inst = cs.specialize(z)
        rng = random.Random(7)
        kp = setup(inst, rng=lambda: rng.getrandbits(256))
        pf = prove(kp.pk, inst, cs.assignment())
        assert verify(kp.vk, cs.public_inputs(), pf)
        assert not verify(kp.vk, [3, 1], pf)
