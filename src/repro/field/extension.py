"""Extension fields Fq2 and Fq12 for the BN254 pairing.

Representation follows the classic py_ecc layout: an element of
``Fq[x]/(m(x))`` is a coefficient tuple, with the reduction polynomial given
by its non-leading coefficients.

* ``Fq2  = Fq[u]  / (u^2 + 1)``
* ``Fq12 = Fq[w]  / (w^12 - 18 w^6 + 82)``

These classes are the public face of the pairing's target group: G2
points carry ``Fq2`` coordinates and :func:`repro.curve.pairing.pairing`
returns a flat ``Fq12``.  The pairing itself does its arithmetic on plain
int tuples in the ``Fq2 -> Fq6 -> Fq12`` tower (same ``w``, since
``w^6 = 9 + u``) and converts to this flat basis only at the end.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .prime_field import BN254_FQ_MODULUS

P = BN254_FQ_MODULUS

# Reduction polynomials: element of the list is the coefficient of x^i in
# m(x) - x^deg (i.e. x^deg = -sum(coeffs[i] * x^i)).
FQ2_MODULUS_COEFFS = (1, 0)  # u^2 = -1
FQ12_MODULUS_COEFFS = (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0)  # w^12 = 18w^6 - 82


class ExtElem:
    """Element of ``Fq[x]/m(x)``; immutable tuple of int coefficients."""

    __slots__ = ("coeffs",)
    degree = 0
    modulus_coeffs: Tuple[int, ...] = ()

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) != self.degree:
            raise ValueError(
                f"{type(self).__name__} needs {self.degree} coefficients, "
                f"got {len(coeffs)}"
            )
        self.coeffs = tuple(c % P for c in coeffs)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls) -> "ExtElem":
        return cls([0] * cls.degree)

    @classmethod
    def one(cls) -> "ExtElem":
        return cls([1] + [0] * (cls.degree - 1))

    @classmethod
    def from_int(cls, value: int) -> "ExtElem":
        return cls([value] + [0] * (cls.degree - 1))

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(
            [(a + b) % P for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        other = self._coerce(other)
        return type(self)(
            [(a - b) % P for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return type(self)([-c % P for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)([c * other % P for c in self.coeffs])
        other = self._coerce(other)
        deg = self.degree
        # Schoolbook product then reduce by the sparse modulus polynomial.
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        mod = self.modulus_coeffs
        for top in range(2 * deg - 2, deg - 1, -1):
            c = prod[top] % P
            if c == 0:
                prod[top] = 0
                continue
            prod[top] = 0
            base = top - deg
            for j, m in enumerate(mod):
                if m:
                    prod[base + j] -= c * m
        return type(self)([c % P for c in prod[:deg]])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = type(self).one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inv(self):
        """Inverse via the extended Euclidean algorithm on polynomials."""
        deg = self.degree
        lm, hm = [1] + [0] * deg, [0] * (deg + 1)
        low = list(self.coeffs) + [0]
        high = list(self.modulus_coeffs) + [1]
        while _poly_degree(low) > 0 or low[0] != 0:
            if _poly_degree(low) == 0:
                break
            r = _poly_div(high, low)
            nm, new = hm[:], high[:]
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    nm[i + j] = (nm[i + j] - lm[i] * r[j]) % P
                    new[i + j] = (new[i + j] - low[i] * r[j]) % P
            lm, low, hm, high = nm, new, lm, low
        if all(c == 0 for c in low):
            raise ZeroDivisionError("inverse of zero extension element")
        c0_inv = pow(low[0], P - 2, P)
        return type(self)([c * c0_inv % P for c in lm[:deg]])

    def __truediv__(self, other):
        if isinstance(other, int):
            return self * pow(other, P - 2, P)
        other = self._coerce(other)
        return self * other.inv()

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).from_int(other)
        if type(other) is not type(self):
            raise TypeError(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        return other

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = type(self).from_int(other)
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.coeffs}"


def _poly_degree(poly: Sequence[int]) -> int:
    d = len(poly) - 1
    while d > 0 and poly[d] == 0:
        d -= 1
    return d


def _poly_div(numerator: Sequence[int], denominator: Sequence[int]):
    """Polynomial floor division over Fq (helper for the Euclidean inverse)."""
    num = list(numerator)
    deg_n, deg_d = _poly_degree(num), _poly_degree(denominator)
    out = [0] * len(num)
    lead_inv = pow(denominator[deg_d], P - 2, P)
    for shift in range(deg_n - deg_d, -1, -1):
        factor = num[deg_d + shift] * lead_inv % P
        out[shift] = (out[shift] + factor) % P
        for i in range(deg_d + 1):
            num[shift + i] = (num[shift + i] - factor * denominator[i]) % P
    return out


class Fq2(ExtElem):
    """Quadratic extension ``Fq[u]/(u^2+1)``."""

    degree = 2
    modulus_coeffs = FQ2_MODULUS_COEFFS

    def conjugate(self) -> "Fq2":
        return Fq2([self.coeffs[0], -self.coeffs[1] % P])

    def inv(self) -> "Fq2":
        # (a + b*u)^-1 = (a - b*u) / (a^2 + b^2) since u^2 = -1.
        a, b = self.coeffs
        norm = (a * a + b * b) % P
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Fq2 element")
        n_inv = pow(norm, P - 2, P)
        return Fq2([a * n_inv % P, -b * n_inv % P])

    def __mul__(self, other):
        if isinstance(other, int):
            return Fq2([c * other % P for c in self.coeffs])
        if type(other) is not Fq2:
            raise TypeError("cannot mix Fq2 with other extension elements")
        a, b = self.coeffs
        c, d = other.coeffs
        # (a + bu)(c + du) = (ac - bd) + (ad + bc)u
        return Fq2([(a * c - b * d) % P, (a * d + b * c) % P])

    __rmul__ = __mul__


class Fq12(ExtElem):
    """Degree-12 extension ``Fq[w]/(w^12 - 18w^6 + 82)``."""

    degree = 12
    modulus_coeffs = FQ12_MODULUS_COEFFS
