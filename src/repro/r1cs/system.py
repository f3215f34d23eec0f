"""Concrete (specialised) R1CS instances.

After the CRPC packing indeterminate has been collapsed to a field value,
an instance is three sparse matrices A, B, C with the satisfaction relation
``(A z) o (B z) = (C z)`` for the assignment vector
``z = [1, public..., witness...]``.

The evaluation kernels (``matvec``, ``eval_products``, ``is_satisfied``)
run over a lazily built, cached :class:`FlatR1CS` — a CSR-style flattening
of each matrix into parallel wire-index/coefficient arrays with row
pointers — so the per-row inner product is a single ``sum(map(mul, ...))``
over list slices instead of a generator unpacking ``(wire, coeff)`` tuples
term by term.  The tuple-unpacking reference is retained as
``naive_matvec`` / ``_row_dot`` for the equivalence tests and benchmarks.
The sparse rows are treated as immutable once a kernel has run; a caller
that mutates ``a_rows``/``b_rows``/``c_rows`` afterwards must call
``invalidate_flat_cache()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from ..field import vector as _vector
from ..field.prime_field import BN254_FR_MODULUS

R = BN254_FR_MODULUS

SparseRow = List[Tuple[int, int]]  # [(wire, coeff)]


class FlatR1CS:
    """CSR-style flattening of one sparse matrix.

    ``wires``/``coeffs`` hold every entry of every row back to back;
    ``row_ptr[q] : row_ptr[q+1]`` delimits row ``q``.  Coefficients are
    reduced into ``[0, R)`` at build time so the matvec inner loop never
    re-reduces them.
    """

    __slots__ = ("wires", "coeffs", "row_ptr", "_vec")

    def __init__(self, rows: Sequence[SparseRow]):
        wires: List[int] = []
        coeffs: List[int] = []
        row_ptr = [0]
        for row in rows:
            for wire, coeff in row:
                wires.append(wire)
                coeffs.append(coeff % R)
            row_ptr.append(len(wires))
        self.wires = wires
        self.coeffs = coeffs
        self.row_ptr = row_ptr
        self._vec = None

    @classmethod
    def from_csr(cls, wires, row_ptr, coeffs, kernel=None) -> "FlatR1CS":
        """A flattening over ready CSR lists: canonical ``coeffs``, or
        ``None`` with a vector-engine ``kernel`` that holds them (such a
        flattening serves the vector engine only)."""
        flat = cls.__new__(cls)
        flat.wires, flat.row_ptr = wires, row_ptr
        flat.coeffs, flat._vec = coeffs, kernel
        return flat

    @property
    def num_rows(self) -> int:
        return len(self.row_ptr) - 1

    def vec_kernel(self):
        """CSR kernel for the vector engine, or ``None`` when the scalar
        backend is active or a matrix without a ready kernel is below the
        profitability floor.  Dropping the :class:`FlatR1CS`
        (``invalidate_flat_cache``) drops the kernel."""
        if _vector.active_impl() is None:
            return None
        if self._vec is None:
            if len(self.wires) < _vector.MATVEC_MIN_TERMS:
                return None
            self._vec = _vector.CSRKernel(
                self.wires,
                _vector.prepare_multipliers(self.coeffs),
                self.row_ptr,
            )
        return self._vec

    def matvec_limbs(self, z_limbs):
        """Limb-domain matvec over a pre-converted ``(num_wires, 4)``
        assignment, or ``None`` when no vector kernel is engaged — lets the
        Groth16 quotient convert the assignment once for all three
        matrices and stay in limb space."""
        kern = self.vec_kernel()
        if kern is None:
            return None
        return kern.matvec_limbs(z_limbs)

    def matvec(self, assignment: Sequence[int]) -> List[int]:
        """Dense matrix-vector product, one reduction per row."""
        kern = self.vec_kernel()
        if kern is not None:
            return _vector.from_limbs(
                kern.matvec_limbs(_vector.to_limbs(assignment))
            )
        lookup = assignment.__getitem__
        wires = self.wires
        coeffs = self.coeffs
        out: List[int] = []
        append = out.append
        start = 0
        for end in self.row_ptr[1:]:
            append(
                sum(map(mul, coeffs[start:end], map(lookup, wires[start:end])))
                % R
            )
            start = end
        return out


@dataclass
class R1CSInstance:
    num_wires: int
    num_public: int  # includes the constant-one wire
    a_rows: List[SparseRow]
    b_rows: List[SparseRow]
    c_rows: List[SparseRow]

    @property
    def num_constraints(self) -> int:
        return len(self.a_rows)

    @property
    def num_witness(self) -> int:
        return self.num_wires - self.num_public

    def nonzeros(self) -> int:
        return sum(
            len(r) for rows in (self.a_rows, self.b_rows, self.c_rows) for r in rows
        )

    # -- evaluation ---------------------------------------------------------
    @staticmethod
    def _row_dot(row: SparseRow, assignment: Sequence[int]) -> int:
        return sum(c * assignment[w] for w, c in row) % R

    def _rows(self, which: str) -> List[SparseRow]:
        if which == "T":
            return self._stacked_columns()
        return {"A": self.a_rows, "B": self.b_rows, "C": self.c_rows}[which]

    def _stacked_columns(self) -> List[SparseRow]:
        """``[A; B; C]`` transposed: row ``w`` lists ``(k * m + q, coeff)``
        for every entry of row ``q`` of matrix ``k`` on wire ``w``."""
        cols: List[SparseRow] = [[] for _ in range(self.num_wires)]
        m = self.num_constraints
        for k, rows in enumerate((self.a_rows, self.b_rows, self.c_rows)):
            for q, row in enumerate(rows):
                for wire, coeff in row:
                    cols[wire].append((k * m + q, coeff))
        return cols

    def flat(self, which: str) -> FlatR1CS:
        """The cached CSR flattening of matrix ``which`` (built lazily;
        ``"T"`` is the transposed stack of :meth:`transpose_matvec`).

        The sparse rows are snapshotted at first use; a caller that
        mutates ``a_rows``/``b_rows``/``c_rows`` afterwards must call
        :meth:`invalidate_flat_cache` or the kernels keep answering for
        the old matrices.
        """
        cache: Dict[str, FlatR1CS] = self.__dict__.setdefault("_flat_cache", {})
        flat = cache.get(which)
        if flat is None:
            flat = cache[which] = FlatR1CS(self._rows(which))
        return flat

    def invalidate_flat_cache(self) -> None:
        """Drop the CSR snapshots after mutating the sparse rows."""
        self.__dict__.pop("_flat_cache", None)

    def _vec_products(self, assignment: Sequence[int]):
        """``(Az, Bz, Cz)`` limb arrays when every matrix has an engaged
        vector kernel (one assignment conversion for all three), else
        ``None``."""
        kernels = [self.flat(w).vec_kernel() for w in ("A", "B", "C")]
        if not all(k is not None for k in kernels):
            return None
        z = _vector.to_limbs(assignment)
        return tuple(k.matvec_limbs(z) for k in kernels)

    def eval_products(self, assignment: Sequence[int]):
        """Yield (Az_q, Bz_q, Cz_q) per constraint."""
        prods = self._vec_products(assignment)
        if prods is not None:
            az, bz, cz = (_vector.from_limbs(p) for p in prods)
            yield from zip(az, bz, cz)
            return
        yield from zip(
            self.flat("A").matvec(assignment),
            self.flat("B").matvec(assignment),
            self.flat("C").matvec(assignment),
        )

    def is_satisfied(self, assignment: Sequence[int]) -> bool:
        if len(assignment) != self.num_wires:
            raise ValueError("assignment length mismatch")
        prods = self._vec_products(assignment)
        if prods is not None:
            # Entirely in limb space: Az o Bz and Cz are both canonical,
            # so satisfaction is plain array equality.
            az, bz, cz = prods
            return bool(
                _vector.np.array_equal(_vector.vec_mul(az, bz), cz)
            )
        return all(a * b % R == c for a, b, c in self.eval_products(assignment))

    def matvec(self, which: str, assignment: Sequence[int]) -> List[int]:
        """Dense ``A z`` / ``B z`` / ``C z`` vector (used by the Groth16
        quotient and Spartan)."""
        return self.flat(which).matvec(assignment)

    def matvec_limbs(self, which: str, z_limbs) -> Optional[object]:
        """Limb-domain matvec against a pre-converted assignment, or
        ``None`` when the vector kernel is not engaged for that matrix."""
        return self.flat(which).matvec_limbs(z_limbs)

    def _stacked(self, scales: Sequence[int], vec: Sequence[int]) -> List[int]:
        m = self.num_constraints
        return [s * v % R for s in scales for v in vec[:m]]

    def transpose_matvec(
        self, scales: Sequence[int], vec: Sequence[int]
    ) -> List[int]:
        """``sA Aᵀ v + sB Bᵀ v + sC Cᵀ v`` per wire, for ``scales =
        (sA, sB, sC)`` and ``v = vec[:num_constraints]``: one CSR matvec
        of the transposed stack ``[A; B; C]`` against ``[sA v | sB v |
        sC v]`` (Spartan's column table)."""
        return self.flat("T").matvec(self._stacked(scales, vec))

    def transpose_matvec_limbs(
        self, scales: Sequence[int], vec: Sequence[int]
    ) -> Optional[object]:
        """:meth:`transpose_matvec` as limbs, or ``None`` when the vector
        kernel is not engaged."""
        kern = self.flat("T").vec_kernel()
        if kern is None:
            return None
        return kern.matvec_limbs(_vector.to_limbs(self._stacked(scales, vec)))

    def naive_matvec(self, which: str, assignment: Sequence[int]) -> List[int]:
        """Tuple-unpacking reference matvec, kept for equivalence tests and
        the benchmark baseline."""
        return [self._row_dot(row, assignment) for row in self._rows(which)]

    def entries(self, which: str):
        """Iterate sparse entries as (row, col, coeff)."""
        for q, row in enumerate(self._rows(which)):
            for wire, coeff in row:
                yield q, wire, coeff
