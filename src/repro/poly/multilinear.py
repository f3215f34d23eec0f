"""Multilinear extensions over the boolean hypercube.

The Spartan-style SNARK and the zkCNN baseline both work with the multilinear
extension (MLE) of a vector ``v`` of length ``2^m``:

    v~(x_1..x_m) = sum_{b in {0,1}^m} v[b] * prod_i eq(x_i, b_i)

Evaluations are stored dense as raw ints mod Fr.  Index convention: bit 0 of
the index is the *last* variable, i.e. ``evals[i]`` is the value at the
big-endian bit string of ``i`` — matching how sumcheck binds variables from
x_1 down to x_m.
"""

from __future__ import annotations

from typing import List, Sequence

from ..field import vector as _vector
from ..field.prime_field import BN254_FR_MODULUS

R = BN254_FR_MODULUS


class MultilinearPoly:
    """Dense multilinear polynomial in ``num_vars`` variables."""

    __slots__ = ("evals", "num_vars")

    def __init__(self, evals: Sequence[int]):
        n = len(evals)
        if n == 0 or n & (n - 1):
            raise ValueError("evaluation table length must be a power of two")
        self.evals = [e % R for e in evals]
        self.num_vars = n.bit_length() - 1

    @classmethod
    def from_vector(cls, vec: Sequence[int], num_vars: int) -> "MultilinearPoly":
        """Zero-pad ``vec`` to length ``2^num_vars``."""
        size = 1 << num_vars
        if len(vec) > size:
            raise ValueError("vector longer than 2^num_vars")
        return cls(list(vec) + [0] * (size - len(vec)))

    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate at an arbitrary field point, O(2^m)."""
        if len(point) != self.num_vars:
            raise ValueError("point arity mismatch")
        table = self.evals
        for r in point:
            r %= R
            half = len(table) // 2
            table = [
                (table[i] + r * (table[half + i] - table[i])) % R
                for i in range(half)
            ]
        return table[0]

    def bind_first_var(self, r: int) -> "MultilinearPoly":
        """Fix x_1 = r, producing an MLE in one fewer variable."""
        r %= R
        half = len(self.evals) // 2
        lo, hi = self.evals[:half], self.evals[half:]
        return MultilinearPoly(
            [(a + r * (b - a)) % R for a, b in zip(lo, hi)]
        )

    def __len__(self) -> int:
        return len(self.evals)

    def __repr__(self) -> str:
        return f"MultilinearPoly(num_vars={self.num_vars})"


def eq_evals(point: Sequence[int]) -> List[int]:
    """Table of ``eq(point, b)`` for all boolean ``b`` — O(2^m).

    ``eq(x, b) = prod_i (x_i b_i + (1-x_i)(1-b_i))`` is the multilinear
    indicator; Spartan multiplies the R1CS identity by it so the sumcheck
    pins down every row rather than only the sum.  Tables of
    ``2**vector.EQ_MIN_VARS`` entries and more are built on the vector
    engine; the loop in :func:`_eq_table` is the oracle.
    """
    if len(point) >= _vector.EQ_MIN_VARS and _vector.active_impl() is not None:
        return _vector.from_limbs(eq_evals_limbs(point))
    return _eq_table(point)


def _eq_table(point: Sequence[int]) -> List[int]:
    table = [1]
    for r in point:
        r %= R
        nr = (1 - r) % R
        table = [v * x % R for v in table for x in (nr, r)]
    return table


def eq_evals_limbs(point: Sequence[int], one: int = 1):
    """:func:`eq_evals` times ``one`` as limbs (pass ``vector.R256`` for
    Montgomery form): each variable splits every entry ``t`` into ``t (1 -
    r)`` and ``t r``, interleaved (``r`` is the low bit).  Below
    ``vector.EQ_MIN_VARS`` variables the Python table converted once is
    the faster build."""
    if len(point) < _vector.EQ_MIN_VARS:
        return _vector.to_limbs([v * one % R for v in _eq_table(point)])
    np = _vector.np
    table = _vector.to_limbs([one % R])
    for r in point:
        high = _vector.vec_mul_scalar(table, r)
        nxt = np.empty((2 * len(table), 4), dtype=np.uint64)
        nxt[0::2] = _vector.vec_sub(table, high)
        nxt[1::2] = high
        table = nxt
    return table


def eq_eval(x: Sequence[int], y: Sequence[int]) -> int:
    """eq(x, y) for two field points of equal arity."""
    if len(x) != len(y):
        raise ValueError("arity mismatch")
    acc = 1
    for a, b in zip(x, y):
        a %= R
        b %= R
        acc = acc * ((a * b + (1 - a) * (1 - b)) % R) % R
    return acc


def index_bits(index: int, num_vars: int) -> List[int]:
    """Big-endian bit list of ``index`` (matches the eval-table convention)."""
    return [(index >> (num_vars - 1 - i)) & 1 for i in range(num_vars)]
