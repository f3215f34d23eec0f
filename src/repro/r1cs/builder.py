"""Constraint-system builder: the circuit-construction API.

Usage pattern (mirrors bellman/libsnark's ``ConstraintSystem``)::

    cs = ConstraintSystem()
    x = cs.alloc_public("x", 3)
    y = cs.alloc("y", 9)
    cs.enforce(LC.from_wire(x), LC.from_wire(x), LC.from_wire(y))
    assert cs.is_satisfied()

Wire 0 is the constant ``1``.  Public wires (statement) come first so the
Groth16 IC query and Spartan's input handling can slice the assignment as
``[1, public..., witness...]``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..field.prime_field import BN254_FR_MODULUS
from .lincomb import LC, LinearCombination, z_powers

R = BN254_FR_MODULUS


@dataclass
class Constraint:
    a: LinearCombination
    b: LinearCombination
    c: LinearCombination
    label: str = ""


@dataclass
class CircuitStats:
    """Accounting used to reproduce the paper's constraint/wire claims."""

    num_constraints: int = 0
    num_wires: int = 0
    num_public: int = 0
    a_terms: int = 0  # "left wires" in the paper's Fig. 5 language
    b_terms: int = 0
    c_terms: int = 0
    a_wires: int = 0  # distinct wires appearing on the A side
    b_wires: int = 0
    c_wires: int = 0
    max_z_degree: int = 0

    @property
    def total_terms(self) -> int:
        return self.a_terms + self.b_terms + self.c_terms


class ConstraintSystem:
    """Mutable builder for (possibly Z-packed) R1CS instances."""

    def __init__(self) -> None:
        self.wire_names: List[str] = ["~one"]
        self.values: List[Optional[int]] = [1]
        self.num_public = 1  # wire 0 (constant one) is public by convention
        self.constraints: List[Constraint] = []
        self._public_frozen = False
        self._packed: Optional["PackedR1CS"] = None

    # -- wires -----------------------------------------------------------------
    def alloc_public(self, name: str, value: Optional[int] = None) -> int:
        """Allocate a statement wire.  All public wires must be allocated
        before the first witness wire."""
        if self._public_frozen:
            raise ValueError(
                "public wires must be allocated before witness wires"
            )
        idx = len(self.wire_names)
        self.wire_names.append(name)
        self.values.append(None if value is None else value % R)
        self.num_public += 1
        return idx

    def alloc(self, name: str, value: Optional[int] = None) -> int:
        """Allocate a witness (private) wire."""
        self._public_frozen = True
        idx = len(self.wire_names)
        self.wire_names.append(name)
        self.values.append(None if value is None else value % R)
        return idx

    def set_value(self, wire: int, value: int) -> None:
        self.values[wire] = value % R

    def value(self, wire: int) -> int:
        v = self.values[wire]
        if v is None:
            raise ValueError(f"wire {wire} ({self.wire_names[wire]}) unset")
        return v

    @property
    def num_wires(self) -> int:
        return len(self.wire_names)

    # -- constraints -------------------------------------------------------------
    def enforce(
        self,
        a: LinearCombination,
        b: LinearCombination,
        c: LinearCombination,
        label: str = "",
    ) -> None:
        self.constraints.append(Constraint(a, b, c, label))

    def enforce_equal(
        self, left: LinearCombination, right: LinearCombination, label: str = ""
    ) -> None:
        """left == right, encoded as (left - right) * 1 = 0."""
        self.enforce(left - right, LC.constant(1), LC([]), label)

    def mul(
        self,
        a: LinearCombination,
        b: LinearCombination,
        name: str = "prod",
        z: int = 1,
    ) -> int:
        """Allocate a wire holding a*b (evaluated at packing point ``z`` if
        the combinations are packed) and constrain it."""
        value = None
        try:
            value = (
                a.evaluate(self._assignment(), z)
                * b.evaluate(self._assignment(), z)
                % R
            )
        except ValueError:
            pass
        wire = self.alloc(name, value)
        self.enforce(a, b, LC.from_wire(wire), label=name)
        return wire

    def _assignment(self) -> List[int]:
        out = []
        for i, v in enumerate(self.values):
            if v is None:
                raise ValueError(
                    f"wire {i} ({self.wire_names[i]}) has no value"
                )
            out.append(v)
        return out

    def assignment(self) -> List[int]:
        """The full assignment vector [1, public..., witness...]."""
        return self._assignment()

    def public_inputs(self) -> List[int]:
        """Statement values, excluding the constant-one wire."""
        return self._assignment()[1:self.num_public]

    # -- satisfaction -------------------------------------------------------------
    @property
    def is_packed(self) -> bool:
        return any(
            t.z_deg
            for con in self.constraints
            for lc in (con.a, con.b, con.c)
            for t in lc.terms
        )

    def max_z_degree(self) -> int:
        return max(
            (
                lc.max_z_degree
                for con in self.constraints
                for lc in (con.a, con.b, con.c)
            ),
            default=0,
        )

    def is_satisfied(self, z: Optional[int] = None) -> bool:
        """Check every constraint.  For packed systems a concrete ``z`` is
        required (tests typically derive one pseudo-randomly)."""
        if z is None:
            z = derive_z(b"satisfaction-check") if self.is_packed else 1
        assignment = self._assignment()
        for con in self.constraints:
            lhs = (
                con.a.evaluate(assignment, z)
                * con.b.evaluate(assignment, z)
                % R
            )
            if lhs != con.c.evaluate(assignment, z):
                return False
        return True

    def first_unsatisfied(self, z: Optional[int] = None) -> Optional[str]:
        """Debugging aid: label/index of the first failing constraint."""
        if z is None:
            z = derive_z(b"satisfaction-check") if self.is_packed else 1
        assignment = self._assignment()
        for i, con in enumerate(self.constraints):
            lhs = (
                con.a.evaluate(assignment, z)
                * con.b.evaluate(assignment, z)
                % R
            )
            if lhs != con.c.evaluate(assignment, z):
                return f"#{i} {con.label}"
        return None

    # -- reporting / lowering --------------------------------------------------
    def stats(self) -> CircuitStats:
        s = CircuitStats(
            num_constraints=len(self.constraints),
            num_wires=self.num_wires,
            num_public=self.num_public,
            max_z_degree=self.max_z_degree(),
        )
        a_w, b_w, c_w = set(), set(), set()
        for con in self.constraints:
            s.a_terms += len(con.a)
            s.b_terms += len(con.b)
            s.c_terms += len(con.c)
            a_w.update(t.wire for t in con.a.terms)
            b_w.update(t.wire for t in con.b.terms)
            c_w.update(t.wire for t in con.c.terms)
        s.a_wires, s.b_wires, s.c_wires = len(a_w), len(b_w), len(c_w)
        return s

    def specialize(self, z: int) -> "R1CSInstance":
        """The concrete instance at packing point ``z``, duplicate wires
        merged (Groth16 setup; Spartan serves from :meth:`packed`)."""
        from .system import R1CSInstance

        zpow = z_powers(z, self.max_z_degree())
        rows_a, rows_b, rows_c = [], [], []
        for con in self.constraints:
            rows_a.append(con.a.specialize(z, zpow))
            rows_b.append(con.b.specialize(z, zpow))
            rows_c.append(con.c.specialize(z, zpow))
        return R1CSInstance(
            num_wires=self.num_wires,
            num_public=self.num_public,
            a_rows=rows_a,
            b_rows=rows_b,
            c_rows=rows_c,
        )

    def packed(self) -> "PackedR1CS":
        """Every term of the system laid out once as CSR
        (:class:`~repro.r1cs.packed.PackedR1CS`), cached here and rebuilt
        when constraints or wires were added since the last call."""
        from .packed import PackedR1CS

        packed = self._packed
        if packed is None or (
            packed.num_constraints,
            packed.num_wires,
            packed.num_public,
        ) != (len(self.constraints), self.num_wires, self.num_public):
            packed = self._packed = PackedR1CS(
                self.constraints, self.num_wires, self.num_public
            )
        return packed


def derive_z(seed: bytes) -> int:
    """Deterministic Fiat–Shamir-style packing challenge from a seed."""
    digest = hashlib.sha256(b"zkvc-packing-point" + seed).digest()
    return int.from_bytes(digest, "big") % R
