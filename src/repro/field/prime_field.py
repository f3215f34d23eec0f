"""Prime-field arithmetic for the BN254 curve.

Two fields matter for this library:

* ``Fq`` — the base field of the BN254 curve (coordinates of curve points).
* ``Fr`` — the scalar field of BN254, which is also the field every R1CS
  witness and polynomial lives in.

Field elements are represented as plain Python integers in ``[0, p)``; the
class layer is a thin ergonomic wrapper.  Hot paths (NTT, MSM, sumcheck) work
on raw integers through the module-level helpers to avoid per-op object
allocation.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

# BN254 (alt_bn128) parameters.
BN254_FQ_MODULUS = (
    21888242871839275222246405745257275088696311157297823662689037894645226208583
)
BN254_FR_MODULUS = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)

# 2-adicity of Fr: r - 1 = 2**28 * odd, which is what makes radix-2 NTT work.
BN254_FR_TWO_ADICITY = 28
# A fixed generator of Fr's multiplicative group (5 is the canonical choice).
BN254_FR_GENERATOR = 5


def inv_mod(a: int, p: int) -> int:
    """Modular inverse of ``a`` mod prime ``p``.

    Raises ``ZeroDivisionError`` for ``a == 0`` — callers treat that as a
    genuine arithmetic error, never as recoverable control flow.
    """
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in prime field")
    return pow(a, -1, p)


def batch_inv_mod(values: Sequence[int], p: int) -> List[int]:
    """Montgomery batch inversion: n inversions for the price of one.

    Zero entries are not allowed (the trick breaks down); callers filter
    or special-case zeros first.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        v %= p
        if v == 0:
            raise ZeroDivisionError("batch inverse of 0 in prime field")
        prefix[i] = acc
        acc = acc * v % p
    inv_acc = inv_mod(acc, p)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] * inv_acc % p
        inv_acc = inv_acc * (values[i] % p) % p
    return out


def sqrt_mod(a: int, p: int) -> int:
    """Square root mod prime ``p`` via Tonelli–Shanks.

    Returns one root ``x`` with ``x*x == a (mod p)``; raises ``ValueError``
    if ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("not a quadratic residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # General Tonelli–Shanks.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class PrimeField:
    """A prime field ``GF(p)``; instances act as element factories, e.g.
    ``Fr(3) + Fr(4)``."""

    __slots__ = ("modulus", "name")

    def __init__(self, modulus: int, name: str = "Fp"):
        self.modulus = modulus
        self.name = name

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def from_signed(self, value: int) -> "FieldElement":
        """Map a signed integer into the field (negative -> p - |v|)."""
        return FieldElement(value % self.modulus, self)

    def to_signed(self, element: "FieldElement") -> int:
        """Interpret an element as a signed integer in (-p/2, p/2]."""
        v = element.value
        return v - self.modulus if v > self.modulus // 2 else v

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"{self.name}(p={self.modulus})"


class FieldElement:
    """An element of a :class:`PrimeField`, supporting natural operators."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value
        self.field = field

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field.modulus != self.field.modulus:
                raise ValueError("mixing elements of different fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + v) % self.field.modulus, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - v) % self.field.modulus, self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((v - self.value) % self.field.modulus, self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * v % self.field.modulus, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.modulus, self.field)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.value * inv_mod(v, self.field.modulus) % self.field.modulus,
            self.field,
        )

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(
            v * inv_mod(self.value, self.field.modulus) % self.field.modulus,
            self.field,
        )

    def __pow__(self, exponent: int):
        return FieldElement(
            pow(self.value, exponent, self.field.modulus), self.field
        )

    def inv(self) -> "FieldElement":
        return FieldElement(inv_mod(self.value, self.field.modulus), self.field)

    def sqrt(self) -> "FieldElement":
        return FieldElement(
            sqrt_mod(self.value, self.field.modulus), self.field
        )

    # -- comparison / hashing ------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return (
                self.value == other.value
                and self.field.modulus == other.field.modulus
            )
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.modulus))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.field.name}({self.value})"


# Shared field singletons.
Fq = PrimeField(BN254_FQ_MODULUS, "Fq")
Fr = PrimeField(BN254_FR_MODULUS, "Fr")


def fr_root_of_unity(order: int) -> int:
    """A primitive ``order``-th root of unity in Fr (order must be a power of
    two dividing ``2**28``)."""
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of two")
    log = order.bit_length() - 1
    if log > BN254_FR_TWO_ADICITY:
        raise ValueError(
            f"Fr only supports radix-2 domains up to 2**{BN254_FR_TWO_ADICITY}"
        )
    p = BN254_FR_MODULUS
    # generator**((p-1)/order) has multiplicative order exactly `order`.
    return pow(BN254_FR_GENERATOR, (p - 1) >> log, p)


def dot_mod(a: Iterable[int], b: Iterable[int], p: int) -> int:
    """Inner product of two raw-int vectors mod ``p``."""
    return sum(x * y for x, y in zip(a, b)) % p
