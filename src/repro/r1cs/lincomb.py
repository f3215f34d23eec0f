"""Linear combinations over R1CS wires, with optional CRPC packing degrees.

A term is ``(wire, coeff, z_deg)`` meaning ``coeff * Z^z_deg * value(wire)``.
Vanilla R1CS uses ``z_deg == 0`` everywhere; zkVC's CRPC circuits pack matrix
rows/columns into polynomials of the indeterminate ``Z``, which the backend
later specialises to a secret (Groth16 setup) or Fiat–Shamir challenge
(Spartan).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..field.prime_field import BN254_FR_MODULUS

R = BN254_FR_MODULUS


def z_powers(z: int, max_deg: int, one: int = 1) -> List[int]:
    """``[z^0, z^1, ..., z^max_deg]`` mod R, each times ``one`` (pass
    ``2**256 mod R`` for Montgomery form)."""
    z %= R
    out = [one]
    for _ in range(max_deg):
        out.append(out[-1] * z % R)
    return out


class Term(NamedTuple):
    wire: int
    coeff: int
    z_deg: int


class LinearCombination:
    """A sum of packed terms; immutable once built into a constraint."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[int, int, int]] = ()):
        merged: Dict[Tuple[int, int], int] = {}
        for wire, coeff, z_deg in terms:
            coeff %= R
            if coeff == 0:
                continue
            key = (wire, z_deg)
            new = (merged.get(key, 0) + coeff) % R
            if new:
                merged[key] = new
            else:
                merged.pop(key, None)
        self.terms = tuple(
            Term(w, c, d) for (w, d), c in sorted(merged.items())
        )

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_wire(cls, wire: int, coeff: int = 1, z_deg: int = 0):
        return cls([(wire, coeff, z_deg)])

    @classmethod
    def constant(cls, value: int):
        """Constant via the fixed wire 0 (which always carries 1)."""
        return cls([(0, value, 0)])

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        return LinearCombination(list(self.terms) + list(other.terms))

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return LinearCombination(
            list(self.terms) + [(t.wire, -t.coeff % R, t.z_deg) for t in other.terms]
        )

    def scale(self, factor: int) -> "LinearCombination":
        factor %= R
        return LinearCombination(
            [(t.wire, t.coeff * factor % R, t.z_deg) for t in self.terms]
        )

    def shift_z(self, delta: int) -> "LinearCombination":
        """Multiply the whole combination by ``Z^delta``."""
        return LinearCombination(
            [(t.wire, t.coeff, t.z_deg + delta) for t in self.terms]
        )

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, assignment: Sequence[int], z: int = 1) -> int:
        acc = 0
        for wire, coeff, z_deg in self.terms:
            v = coeff * assignment[wire]
            if z_deg:
                v *= pow(z, z_deg, R)
            acc += v
        return acc % R

    def specialize(
        self, z: int, zpow: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, int]]:
        """Collapse ``Z`` to a concrete field value, merging duplicate wires.

        ``zpow`` is :func:`z_powers` of ``z`` up to at least this
        combination's degree (a constraint system shares one table across
        its rows); it is built here when not given.  Returns
        ``[(wire, coeff), ...]`` sorted by wire.
        """
        if zpow is None:
            zpow = z_powers(z, self.max_z_degree)
        merged: Dict[int, int] = {}
        for wire, coeff, z_deg in self.terms:
            c = coeff * zpow[z_deg] % R if z_deg else coeff
            new = (merged.get(wire, 0) + c) % R
            if new:
                merged[wire] = new
            else:
                merged.pop(wire, None)
        return sorted(merged.items())

    @property
    def max_z_degree(self) -> int:
        return max((t.z_deg for t in self.terms), default=0)

    def wires(self) -> List[int]:
        return sorted({t.wire for t in self.terms})

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        parts = []
        for wire, coeff, z_deg in self.terms[:6]:
            z = f"*Z^{z_deg}" if z_deg else ""
            parts.append(f"{coeff}*w{wire}{z}")
        if len(self.terms) > 6:
            parts.append("...")
        return "LC(" + " + ".join(parts) + ")"


LC = LinearCombination
