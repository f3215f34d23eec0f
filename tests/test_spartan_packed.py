"""Spartan served from the per-circuit packed CSR.

* The column table ``m`` and the verifier's ``<m, wcol>`` from the packed
  constraint system equal the per-entry loops over a specialised
  instance (kept here as the oracle), on CRPC+PSQ, PSQ-only and vanilla
  circuits, at z = 0, 1 and a random point, under both field engines —
  including a wire whose two Z-degrees cancel at z (``specialize`` drops
  it, the packed terms keep it at coefficient 0).
* ``verify`` on a packed instance accepts the honest proof and rejects
  every tampered field and wrong public inputs.
* Seeded proofs at a fixed z hash to the pins of the specialise-per-
  request prover, on the packed and on the specialised instance.
* ``ConstraintSystem.packed`` is cached and rebuilt after the system grows.
* eq tables built on the vector engine equal the Python loop.
"""

import copy
import hashlib
import random
import types

import pytest

from repro.field import vector
from repro.field.prime_field import BN254_FR_MODULUS, inv_mod
from repro.gadgets.matmul import MatmulCircuit
from repro.poly.multilinear import eq_evals
from repro.r1cs import LC, ConstraintSystem, derive_z
from repro.r1cs.packed import PackedInstance
from repro.serialize import spartan_proof_to_bytes
from repro.spartan import Transcript, commitment, prove, snark, verify

R = BN254_FR_MODULUS

ENGINES = [
    "scalar",
    pytest.param(
        "vector",
        marks=pytest.mark.skipif(
            not vector.available_impls(), reason="no vector engine available"
        ),
    ),
]

# sha256 of seeded proofs from the specialise-per-request prover.
PINS = {
    "crpc_psq": "85003d200fb539b574a404b12e0422e1e49ad0520652e127820061089b5f3738",
    "vanilla": "b75105da088a19cb332d2361186f4b62edee38a427dd52f852b9df5abd5b455f",
}


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """The field engine; on the vector engine the matvec floor is lowered
    so the small test circuits run the packed limb kernels too."""
    state = dict(vector._state)
    vector.set_backend(request.param)
    monkeypatch.setattr(vector, "MATVEC_MIN_TERMS", 1)
    yield request.param
    vector._state.clear()
    vector._state.update(state)


def _matrices(rng, a, n, b):
    x = [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)]
    w = [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)]
    return x, w


def _assigned(strategy, shape=(2, 4, 2), z=None, seed=5):
    circuit = MatmulCircuit(*shape, strategy)
    z = derive_z(strategy.encode()) if z is None else z
    circuit.assign(*_matrices(random.Random(seed), *shape), z)
    return circuit, z


def _cancelling_cs(z):
    """One constraint whose A side holds wire ``x`` at Z^1 and Z^2 with
    coefficients that cancel at ``z``: ``(c Z + d Z^2) x + y = y``."""
    cs = ConstraintSystem()
    x = cs.alloc_public("x", 3)
    y = cs.alloc("y", 11)
    c = 7
    d = -c * inv_mod(z, R) % R
    cs.enforce(LC([(x, c, 1), (x, d, 2), (y, 1, 0)]), LC.constant(1), LC.from_wire(y))
    cs.enforce(LC.from_wire(x), LC.from_wire(x), LC.constant(9))
    return cs


# -- the pre-packing loops, kept as the oracle ----------------------------------


def _oracle_m_table(inst, r_abc, eq_rx):
    _, half, full = snark._shape(inst)
    npub = inst.num_public
    table = [0] * full
    for which, rmul in zip("ABC", r_abc):
        for q, wire, coeff in inst.entries(which):
            col = wire if wire < npub else half + (wire - npub)
            table[col] = (table[col] + rmul * eq_rx[q] % R * coeff) % R
    return table


def _oracle_m_eval(inst, r_abc, eq_rx, ry):
    _, half, _ = snark._shape(inst)
    npub = inst.num_public
    eq_rest = eq_evals(ry[1:])
    m_eval = 0
    for which, rmul in zip("ABC", r_abc):
        acc = 0
        for q, wire, coeff in inst.entries(which):
            col = wire if wire < npub else half + (wire - npub)
            if col < half:
                weight = (1 - ry[0]) % R * eq_rest[col] % R
            else:
                weight = ry[0] * eq_rest[col - half] % R
            acc = (acc + coeff * eq_rx[q] % R * weight) % R
        m_eval = (m_eval + rmul * acc) % R
    return m_eval


def _packed_m(inst, r_abc, eq_rx, ry):
    _, half, _ = snark._shape(inst)
    npub = inst.num_public
    m_wires = inst.transpose_matvec(r_abc, eq_rx)
    table = m_wires[:npub] + [0] * (half - npub) + m_wires[npub:]
    table += [0] * (2 * half - len(table))
    pub = [1] + [(7 * i + 3) % R for i in range(inst.num_public - 1)]
    m_eval, pub_eval = snark._column_evals(inst, r_abc, eq_rx, ry, pub)
    assert pub_eval == sum(p * e for p, e in zip(pub, eq_evals(ry[1:]))) % R
    return table, m_eval


def _challenges(inst, seed):
    rng = random.Random(seed)
    cons_padded, _, full = snark._shape(inst)
    rx = [rng.randrange(R) for _ in range(cons_padded.bit_length() - 1)]
    ry = [rng.randrange(R) for _ in range(full.bit_length() - 1)]
    return [rng.randrange(R) for _ in range(3)], eq_evals(rx), ry


class TestPackedMatchesSpecialize:
    @pytest.mark.parametrize("strategy", ["crpc_psq", "vanilla_psq", "vanilla"])
    @pytest.mark.parametrize("z", [0, 1, "random"])
    def test_m_table_and_m_eval(self, engine, strategy, z):
        z = derive_z(b"packed-z") if z == "random" else z
        cs = MatmulCircuit(2, 4, 3, strategy).cs
        packed, spec = cs.packed().at(z), cs.specialize(z)
        assert isinstance(packed, PackedInstance)
        r_abc, eq_rx, ry = _challenges(spec, seed=z % 1000)
        table, m_eval = _packed_m(packed, r_abc, eq_rx, ry)
        assert table == _oracle_m_table(spec, r_abc, eq_rx)
        assert m_eval == _oracle_m_eval(spec, r_abc, eq_rx, ry)

    @pytest.mark.parametrize("strategy", ["crpc_psq", "vanilla_psq", "vanilla"])
    def test_matvec_and_satisfaction(self, engine, strategy):
        circuit, z = _assigned(strategy)
        assignment = circuit.cs.assignment()
        packed, spec = circuit.cs.packed().at(z), circuit.cs.specialize(z)
        for which in "ABC":
            assert packed.matvec(which, assignment) == spec.matvec(which, assignment)
        assert packed.is_satisfied(assignment)
        bad = list(assignment)
        bad[-1] += 1
        assert not packed.is_satisfied(bad)

    def test_spartan_crpc_shape(self, engine):
        """The e2e circuit, whose eq(ry[1:]) table has 2^11 entries."""
        z = derive_z(b"crpc-shape")
        cs = MatmulCircuit(16, 32, 16, "crpc_psq").cs
        packed, spec = cs.packed().at(z), cs.specialize(z)
        r_abc, eq_rx, ry = _challenges(spec, seed=11)
        table, m_eval = _packed_m(packed, r_abc, eq_rx, ry)
        assert table == _oracle_m_table(spec, r_abc, eq_rx)
        assert m_eval == _oracle_m_eval(spec, r_abc, eq_rx, ry)

    def test_cancelling_degrees_kept_at_zero(self, engine):
        z = derive_z(b"cancel")
        cs = _cancelling_cs(z)
        spec, packed = cs.specialize(z), cs.packed().at(z)
        x = 1
        assert x not in [w for w, _ in spec.a_rows[0]]
        a_row = packed.a_rows[0]
        assert [w for w, _ in a_row].count(x) == 2
        assert sum(c for w, c in a_row if w == x) % R == 0
        r_abc, eq_rx, ry = _challenges(spec, seed=3)
        table, m_eval = _packed_m(packed, r_abc, eq_rx, ry)
        assert table == _oracle_m_table(spec, r_abc, eq_rx)
        assert m_eval == _oracle_m_eval(spec, r_abc, eq_rx, ry)
        assignment = cs.assignment()
        assert packed.matvec("A", assignment) == spec.matvec("A", assignment)
        assert packed.is_satisfied(assignment)
        pf = prove(packed, assignment, Transcript(b"cancel"))
        assert verify(spec, cs.public_inputs(), pf, Transcript(b"cancel"))

    def test_engine_switch_after_flattening(self, monkeypatch):
        """Each engine gets its own flattening of a packed instance, so an
        instance first used on the vector engine still answers on the
        scalar path."""
        if not vector.available_impls():
            pytest.skip("no vector engine available")
        monkeypatch.setattr(vector, "MATVEC_MIN_TERMS", 1)
        circuit, z = _assigned("crpc_psq")
        assignment = circuit.cs.assignment()
        packed = circuit.cs.packed().at(z)
        state = dict(vector._state)
        try:
            vector.set_backend("vector")
            fast = packed.matvec("A", assignment)
            assert packed.flat("A").vec_kernel() is not None
            vector.set_backend("scalar")
            assert packed.flat("A").vec_kernel() is None
            assert packed.flat("A").coeffs is not None
            assert packed.matvec("A", assignment) == fast
        finally:
            vector._state.clear()
            vector._state.update(state)
        assert fast == circuit.cs.specialize(z).matvec("A", assignment)

    def test_matvec_floor(self):
        """A packed system below ``MATVEC_MIN_TERMS`` terms runs on Python
        ints under the vector engine, as a specialised one does; a larger
        one runs its transposed stack on the C kernel."""
        if not vector.available_impls():
            pytest.skip("no vector engine available")
        state = dict(vector._state)
        try:
            vector.set_backend("vector")
            for shape, kernel in (((2, 3, 2), False), ((8, 16, 8), True)):
                z = derive_z(b"floor")
                cs = MatmulCircuit(*shape, "crpc_psq").cs
                packed, spec = cs.packed().at(z), cs.specialize(z)
                terms = len(cs.packed().wires)
                assert (terms >= vector.MATVEC_MIN_TERMS) == kernel
                assert (packed.flat("T").vec_kernel() is not None) == kernel
                r_abc, eq_rx, ry = _challenges(spec, seed=7)
                table, m_eval = _packed_m(packed, r_abc, eq_rx, ry)
                assert table == _oracle_m_table(spec, r_abc, eq_rx)
                assert m_eval == _oracle_m_eval(spec, r_abc, eq_rx, ry)
        finally:
            vector._state.clear()
            vector._state.update(state)


# -- verify accept / reject -----------------------------------------------------


def _tampered(pf):
    cases = {}

    def case(name, edit):
        bad = copy.deepcopy(pf)
        edit(bad)
        cases[name] = bad

    case("va", lambda p: setattr(p, "va", (p.va + 1) % R))
    case("vb", lambda p: setattr(p, "vb", (p.vb + 1) % R))
    case("vc", lambda p: setattr(p, "vc", (p.vc + 1) % R))
    case("sc1-round0", lambda p: p.sumcheck1.round_polys[0].__setitem__(0, 5))
    case("sc1-last", lambda p: p.sumcheck1.round_polys[-1].__setitem__(2, 5))
    case("sc2-round0", lambda p: p.sumcheck2.round_polys[0].__setitem__(1, 5))
    case("sc2-last", lambda p: p.sumcheck2.round_polys[-1].__setitem__(2, 5))
    case("opening-value", lambda p: setattr(p.opening, "value", (p.opening.value + 1) % R))
    case("opening-t", lambda p: p.opening.t.__setitem__(0, (p.opening.t[0] + 1) % R))
    return cases


@pytest.fixture(scope="module")
def crpc_proof():
    circuit, z = _assigned("crpc_psq", shape=(2, 4, 2))
    inst = circuit.cs.packed().at(z)
    pf = prove(inst, circuit.cs.assignment(), Transcript(b"matrix"))
    return circuit, z, pf


class TestVerifyMatrix:
    def test_honest_accepts_on_both_instances(self, crpc_proof):
        circuit, z, pf = crpc_proof
        public = circuit.cs.public_inputs()
        for inst in (circuit.cs.packed().at(z), circuit.cs.specialize(z)):
            assert verify(inst, public, pf, Transcript(b"matrix"))

    @pytest.mark.parametrize(
        "field",
        ["va", "vb", "vc", "sc1-round0", "sc1-last", "sc2-round0", "sc2-last",
         "opening-value", "opening-t"],
    )
    def test_tampered_field_rejected(self, crpc_proof, field):
        circuit, z, pf = crpc_proof
        bad = _tampered(pf)[field]
        inst = circuit.cs.packed().at(z)
        assert not verify(inst, circuit.cs.public_inputs(), bad, Transcript(b"matrix"))

    def test_wrong_public_inputs_rejected(self, crpc_proof):
        circuit, z, pf = crpc_proof
        inst = circuit.cs.packed().at(z)
        public = circuit.cs.public_inputs()
        bumped = [(public[0] + 1) % R, *public[1:]]
        assert not verify(inst, bumped, pf, Transcript(b"matrix"))
        assert not verify(inst, public[:-1], pf, Transcript(b"matrix"))

    def test_other_packing_point_rejected(self, crpc_proof):
        circuit, z, pf = crpc_proof
        inst = circuit.cs.packed().at(z + 1)
        assert not verify(inst, circuit.cs.public_inputs(), pf, Transcript(b"matrix"))


# -- byte identity --------------------------------------------------------------


def _seeded_digest(monkeypatch, strategy, packed):
    shape = (4, 8, 4)
    circuit = MatmulCircuit(*shape, strategy)
    rng = random.Random(2024)
    a, n, b = shape
    x = [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)]
    w = [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)]
    z = derive_z(b"spartan-pin")
    circuit.assign(x, w, z)
    blind = random.Random(7)
    monkeypatch.setattr(
        commitment, "secrets",
        types.SimpleNamespace(randbelow=lambda m: blind.randrange(m)),
    )
    inst = circuit.cs.packed().at(z) if packed else circuit.cs.specialize(z)
    pf = prove(inst, circuit.cs.assignment(), Transcript(b"pin"))
    assert verify(inst, circuit.cs.public_inputs(), pf, Transcript(b"pin"))
    return hashlib.sha256(spartan_proof_to_bytes(pf)).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", sorted(PINS))
    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "specialized"])
    def test_seeded_proof_matches_pin(self, engine, monkeypatch, strategy, packed):
        assert _seeded_digest(monkeypatch, strategy, packed) == PINS[strategy]


# -- the per-circuit cache ------------------------------------------------------


class TestPackedCache:
    def test_cached_per_constraint_system(self):
        cs = MatmulCircuit(2, 4, 2, "crpc_psq").cs
        assert cs.packed() is cs.packed()

    def test_constraint_added_after_first_use_rebuilds(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 3)
        y = cs.alloc("y", 9)
        cs.enforce(LC.from_wire(x), LC.from_wire(x), LC.from_wire(y))
        first = cs.packed()
        assert first.num_constraints == 1
        w = cs.alloc("w", 27)
        cs.enforce(LC.from_wire(y), LC.from_wire(x), LC.from_wire(w, z_deg=1))
        second = cs.packed()
        assert second is not first
        assert (second.num_constraints, second.num_wires) == (2, 4)
        z = derive_z(b"grown")
        assignment = cs.assignment()
        for which in "ABC":
            assert second.at(z).matvec(which, assignment) == cs.specialize(z).matvec(
                which, assignment
            )
        assert cs.packed() is second

    def test_wire_added_after_first_use_rebuilds(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 2)
        cs.enforce(LC.from_wire(x), LC.from_wire(x), LC.constant(4))
        first = cs.packed()
        cs.alloc("w", 1)
        assert cs.packed() is not first
        assert cs.packed().num_wires == 3


# -- eq tables ------------------------------------------------------------------


class TestEqTables:
    @pytest.mark.parametrize("num_vars", [8, 9, 11])
    def test_vector_table_matches_python(self, num_vars):
        if not vector.available_impls():
            pytest.skip("no vector engine available")
        rng = random.Random(num_vars)
        point = [rng.randrange(R) for _ in range(num_vars)]
        point[0], point[-1] = R + 3, -5  # unreduced inputs
        state = dict(vector._state)
        try:
            vector.set_backend("scalar")
            want = eq_evals(point)
            vector.set_backend("vector")
            assert eq_evals(point) == want
        finally:
            vector._state.clear()
            vector._state.update(state)
        assert len(want) == 1 << num_vars
        assert sum(want) % R == 1
