"""Constraint-system builder, linear combinations, and specialisation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.prime_field import BN254_FR_MODULUS
from repro.r1cs import LC, ConstraintSystem, derive_z
from repro.r1cs.system import FlatR1CS, R1CSInstance

R = BN254_FR_MODULUS
elems = st.integers(min_value=0, max_value=R - 1)


def _random_instance(rng, num_constraints, num_wires, max_terms=4):
    def rows():
        return [
            [
                (rng.randrange(num_wires), rng.randrange(R))
                for _ in range(rng.randrange(max_terms + 1))
            ]
            for _ in range(num_constraints)
        ]

    return R1CSInstance(
        num_wires=num_wires,
        num_public=1,
        a_rows=rows(),
        b_rows=rows(),
        c_rows=rows(),
    )


class TestLinearCombination:
    def test_merges_duplicate_terms(self):
        lc = LC([(1, 2, 0), (1, 3, 0)])
        assert len(lc) == 1
        assert lc.terms[0].coeff == 5

    def test_cancellation_removes_term(self):
        lc = LC([(1, 2, 0), (1, R - 2, 0)])
        assert len(lc) == 0
        assert not lc

    def test_distinct_z_degrees_kept(self):
        lc = LC([(1, 2, 0), (1, 2, 1)])
        assert len(lc) == 2
        assert lc.max_z_degree == 1

    @given(elems, elems, elems)
    def test_evaluate(self, a, b, z):
        lc = LC([(1, a, 0), (2, b, 2)])
        assignment = [1, 5, 7]
        expected = (a * 5 + b * pow(z, 2, R) * 7) % R
        assert lc.evaluate(assignment, z) == expected

    def test_add_sub_scale(self):
        x = LC.from_wire(1)
        y = LC.from_wire(2)
        combo = (x + y).scale(3) - x
        assignment = [1, 10, 20]
        assert combo.evaluate(assignment) == (3 * 30 - 10) % R

    def test_shift_z(self):
        lc = LC([(1, 1, 0)]).shift_z(3)
        assert lc.terms[0].z_deg == 3

    def test_specialize_merges_wires(self):
        lc = LC([(1, 1, 0), (1, 1, 1)])
        z = 10
        spec = lc.specialize(z)
        assert spec == [(1, 11)]

    def test_constant(self):
        lc = LC.constant(42)
        assert lc.evaluate([1]) == 42

    def test_wires_listing(self):
        lc = LC([(3, 1, 0), (1, 1, 0), (3, 1, 2)])
        assert lc.wires() == [1, 3]

    def test_repr_truncates(self):
        lc = LC([(i, 1, 0) for i in range(10)])
        assert "..." in repr(lc)


def _per_term_specialize(lc, z):
    """``LinearCombination.specialize`` as it was: one ``pow`` per term."""
    merged = {}
    for wire, coeff, z_deg in lc.terms:
        c = coeff * pow(z, z_deg, R) % R if z_deg else coeff
        new = (merged.get(wire, 0) + c) % R
        if new:
            merged[wire] = new
        else:
            merged.pop(wire, None)
    return sorted(merged.items())


class TestSpecializeZPowerTable:
    """``ConstraintSystem.specialize`` shares one z-power table across the
    system; its rows must equal the one-``pow``-per-term rows."""

    @pytest.mark.parametrize("strategy", ["crpc_psq", "vanilla_psq", "vanilla"])
    @pytest.mark.parametrize("z", [0, 1, "random"])
    def test_rows_identical(self, strategy, z):
        from repro.gadgets.matmul import MatmulCircuit

        z = derive_z(b"zpow") if z == "random" else z
        cs = MatmulCircuit(2, 4, 3, strategy).cs
        inst = cs.specialize(z)
        for rows, side in ((inst.a_rows, "a"), (inst.b_rows, "b"), (inst.c_rows, "c")):
            assert rows == [
                _per_term_specialize(getattr(con, side), z) for con in cs.constraints
            ]

    @pytest.mark.parametrize("z", [0, 1, 5])
    def test_zero_coefficients_dropped(self, z):
        # Wire 1 carries 2 Z - 10, which cancels at z = 5; at z = 0 only
        # the Z^0 terms survive.
        lc = LC([(1, 2, 1), (1, -10, 0), (2, 3, 2), (3, 1, 0)])
        cs = ConstraintSystem()
        for i in range(3):
            cs.alloc_public(f"w{i}", 1)
        cs.enforce(lc, LC.constant(1), lc)
        inst = cs.specialize(z)
        assert inst.a_rows[0] == _per_term_specialize(lc, z)
        assert all(c for _, c in inst.a_rows[0])
        assert lc.specialize(z) == inst.a_rows[0]
        if z == 5:
            assert [w for w, _ in inst.a_rows[0]] == [2, 3]
        if z == 0:
            assert inst.a_rows[0] == [(1, R - 10), (3, 1)]


class TestConstraintSystem:
    def test_simple_satisfaction(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 3)
        y = cs.alloc("y", 9)
        cs.enforce(LC.from_wire(x), LC.from_wire(x), LC.from_wire(y))
        assert cs.is_satisfied()
        cs.set_value(y, 10)
        assert not cs.is_satisfied()

    def test_public_after_witness_rejected(self):
        cs = ConstraintSystem()
        cs.alloc("w", 1)
        with pytest.raises(ValueError):
            cs.alloc_public("x", 1)

    def test_unset_wire_raises(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x")
        cs.enforce(LC.from_wire(x), LC.constant(1), LC.from_wire(x))
        with pytest.raises(ValueError):
            cs.is_satisfied()

    def test_mul_helper(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 4)
        p = cs.mul(LC.from_wire(x), LC.from_wire(x), "x2")
        assert cs.value(p) == 16
        assert cs.is_satisfied()

    def test_enforce_equal(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 5)
        y = cs.alloc("y", 5)
        cs.enforce_equal(LC.from_wire(x), LC.from_wire(y))
        assert cs.is_satisfied()
        cs.set_value(y, 6)
        assert not cs.is_satisfied()
        assert cs.first_unsatisfied() is not None

    def test_packed_satisfaction_needs_consistent_z(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 2)
        y = cs.alloc("y")
        # x * (z*x) == y  ->  y must be z * 4
        z = 1000
        cs.set_value(y, z * 4)
        cs.enforce(
            LC.from_wire(x), LC.from_wire(x, z_deg=1), LC.from_wire(y)
        )
        assert cs.is_packed
        assert cs.is_satisfied(z)
        assert not cs.is_satisfied(z + 1)

    def test_stats(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 2)
        y = cs.alloc("y", 4)
        cs.enforce(
            LC.from_wire(x) + LC.from_wire(y),
            LC.from_wire(x),
            LC.from_wire(y, z_deg=2),
        )
        st_ = cs.stats()
        assert st_.num_constraints == 1
        assert st_.num_wires == 3
        assert st_.num_public == 2
        assert st_.a_terms == 2
        assert st_.b_terms == 1
        assert st_.c_terms == 1
        assert st_.a_wires == 2
        assert st_.max_z_degree == 2

    def test_public_inputs_slice(self):
        cs = ConstraintSystem()
        cs.alloc_public("a", 10)
        cs.alloc_public("b", 20)
        cs.alloc("w", 30)
        assert cs.public_inputs() == [10, 20]
        assert cs.assignment() == [1, 10, 20, 30]

    def test_specialize_concrete_instance(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 3)
        y = cs.alloc("y")
        z = 100
        cs.set_value(y, 3 * pow(z, 2, R) * 3 % R)
        cs.enforce(
            LC.from_wire(x, z_deg=2),
            LC.from_wire(x),
            LC.from_wire(y),
        )
        inst = cs.specialize(z)
        assert inst.num_constraints == 1
        assert inst.is_satisfied(cs.assignment())
        bad = cs.assignment()
        bad[y] = 1
        assert not inst.is_satisfied(bad)

    def test_instance_counts(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 2)
        w = cs.alloc("w", 4)
        cs.enforce(LC.from_wire(x), LC.from_wire(x), LC.from_wire(w))
        inst = cs.specialize(1)
        assert inst.num_public == 2
        assert inst.num_witness == 1
        assert inst.nonzeros() == 3
        assert inst.matvec("A", [1, 2, 4]) == [2]

    def test_instance_entry_iteration(self):
        cs = ConstraintSystem()
        x = cs.alloc_public("x", 2)
        cs.enforce(LC.from_wire(x), LC.constant(1), LC.from_wire(x))
        inst = cs.specialize(1)
        assert list(inst.entries("A")) == [(0, 1, 1)]
        assert list(inst.entries("B")) == [(0, 0, 1)]

    def test_assignment_length_checked(self):
        cs = ConstraintSystem()
        cs.alloc_public("x", 1)
        inst = cs.specialize(1)
        with pytest.raises(ValueError):
            inst.is_satisfied([1])


class TestFlatR1CS:
    """The CSR-flattened kernels must agree with the tuple-unpacking
    reference on random instances — sizes up to 2^12 nonzeros."""

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(),
    )
    @settings(max_examples=20, deadline=None)
    def test_matvec_matches_naive(self, log_n, seed):
        rng = random.Random(seed)
        n = 1 << log_n
        inst = _random_instance(rng, n, max(2, n))
        assignment = [rng.randrange(R) for _ in range(inst.num_wires)]
        for which in "ABC":
            assert inst.matvec(which, assignment) == inst.naive_matvec(
                which, assignment
            )

    @given(st.integers())
    @settings(max_examples=15, deadline=None)
    def test_eval_products_matches_rows(self, seed):
        rng = random.Random(seed)
        inst = _random_instance(rng, 16, 8)
        assignment = [rng.randrange(R) for _ in range(inst.num_wires)]
        expected = [
            (
                inst._row_dot(ra, assignment),
                inst._row_dot(rb, assignment),
                inst._row_dot(rc, assignment),
            )
            for ra, rb, rc in zip(inst.a_rows, inst.b_rows, inst.c_rows)
        ]
        assert list(inst.eval_products(assignment)) == expected

    def test_flat_layout(self):
        flat = FlatR1CS([[(0, 2), (3, 5)], [], [(1, R + 7)]])
        assert flat.num_rows == 3
        assert flat.row_ptr == [0, 2, 2, 3]
        assert flat.wires == [0, 3, 1]
        assert flat.coeffs == [2, 5, 7]  # reduced at build time
        assert flat.matvec([1, 2, 3, 4]) == [22, 0, 14]

    def test_flat_cache_reused(self):
        rng = random.Random(3)
        inst = _random_instance(rng, 4, 4)
        assert inst.flat("A") is inst.flat("A")
        assert inst.flat("A") is not inst.flat("B")

    def test_invalidate_flat_cache_after_mutation(self):
        inst = R1CSInstance(
            num_wires=2,
            num_public=1,
            a_rows=[[(1, 1)]],
            b_rows=[[(1, 1)]],
            c_rows=[[(1, 1)]],
        )
        assert inst.matvec("A", [1, 5]) == [5]
        inst.a_rows[0].append((0, 2))
        inst.invalidate_flat_cache()
        assert inst.matvec("A", [1, 5]) == [7]

    def test_is_satisfied_via_flat_kernels(self):
        # x * x = w  with x = 2, w = 4.
        inst = R1CSInstance(
            num_wires=3,
            num_public=2,
            a_rows=[[(1, 1)]],
            b_rows=[[(1, 1)]],
            c_rows=[[(2, 1)]],
        )
        assert inst.is_satisfied([1, 2, 4])
        assert not inst.is_satisfied([1, 2, 5])

    def test_negative_coefficients_match(self):
        inst = R1CSInstance(
            num_wires=2,
            num_public=1,
            a_rows=[[(0, -3), (1, R - 1)]],
            b_rows=[[(1, 1)]],
            c_rows=[[]],
        )
        assignment = [1, 5]
        assert inst.matvec("A", assignment) == inst.naive_matvec(
            "A", assignment
        )


class TestDeriveZ:
    def test_deterministic(self):
        assert derive_z(b"abc") == derive_z(b"abc")

    def test_seed_sensitivity(self):
        assert derive_z(b"abc") != derive_z(b"abd")

    def test_in_field(self):
        assert 0 <= derive_z(b"anything") < R
