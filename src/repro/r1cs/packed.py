"""The packed constraint system: every term of A, B, C with its Z-degree.

A CRPC circuit's constraints are polynomials in the packing indeterminate
``Z``; each request collapses ``Z`` at its own packing point.  Instead of
re-specialising the whole constraint system per request
(:meth:`ConstraintSystem.specialize` merges duplicate wires term by term),
:class:`PackedR1CS` lays every term out once per circuit as one flat CSR
over the stacked rows ``[A; B; C]``::

    term k = (matrix, row, wire, coeff, z_deg)

with the coefficients also stored once as Montgomery limbs for the vector
engine.  A request computes only ``z^0 .. z^maxdeg`` and takes every
coefficient at ``z`` in one ``vec_mul`` of the stored coefficients
against ``zpow[z_deg]`` (a Python-int loop on the scalar engine, or for
a system of fewer than ``vector.MATVEC_MIN_TERMS`` terms).
Duplicate wires stay unmerged: ``matvec`` and the matrix MLEs are linear,
so a wire's terms add up to the merged coefficient.

The transposed view — row ``w`` lists every term on wire ``w`` with its
stacked row ``matrix * m + row`` — is built at the same time, so
``Aᵀ·wA + Bᵀ·wB + Cᵀ·wC`` (Spartan's column table) is one CSR matvec
(:meth:`R1CSInstance.transpose_matvec`).

:meth:`PackedR1CS.at` returns a :class:`PackedInstance`, an
:class:`~repro.r1cs.system.R1CSInstance` served from this structure.
"""

from __future__ import annotations

from typing import Dict, List

from ..field import vector as _vector
from ..field.prime_field import BN254_FR_MODULUS
from .lincomb import z_powers
from .system import FlatR1CS, R1CSInstance

R = BN254_FR_MODULUS

_MATRICES = "ABC"


class PackedR1CS:
    """Every term of a (possibly Z-packed) constraint system, laid out
    once as CSR.  Built by :meth:`ConstraintSystem.packed`, which caches
    it on the constraint system and rebuilds it when constraints or wires
    were added since."""

    def __init__(self, constraints, num_wires: int, num_public: int):
        self.num_wires = num_wires
        self.num_public = num_public
        wires: List[int] = []
        coeffs: List[int] = []
        degs: List[int] = []
        stacked_row: List[int] = []
        row_ptr = [0]
        for which in ("a", "b", "c"):
            for con in constraints:
                for wire, coeff, z_deg in getattr(con, which).terms:
                    wires.append(wire)
                    coeffs.append(coeff)
                    degs.append(z_deg)
                    stacked_row.append(len(row_ptr) - 1)
                row_ptr.append(len(wires))
        self.num_constraints = len(constraints)
        self.wires = wires
        self.coeffs = coeffs
        self.degs = degs
        self.row_ptr = row_ptr
        self.max_deg = max(degs, default=0)
        # Transposed view: terms bucketed by wire, each with its stacked row.
        by_wire: List[List[int]] = [[] for _ in range(num_wires)]
        for k, wire in enumerate(wires):
            by_wire[wire].append(k)
        self.col_perm = [k for bucket in by_wire for k in bucket]
        self.col_rows = [stacked_row[k] for k in self.col_perm]
        self.col_ptr = [0]
        for bucket in by_wire:
            self.col_ptr.append(self.col_ptr[-1] + len(bucket))
        self._arrays = None

    def arrays(self) -> Dict[str, object]:
        """Index arrays and Montgomery-form coefficients for the vector
        engine, built on first use."""
        if self._arrays is None:
            np = _vector.np
            i64 = lambda v: np.asarray(v, dtype=np.int64)  # noqa: E731
            self._arrays = {
                "wires": i64(self.wires),
                "row_ptr": i64(self.row_ptr),
                "degs": i64(self.degs),
                "col_perm": i64(self.col_perm),
                "col_rows": i64(self.col_rows),
                "col_ptr": i64(self.col_ptr),
                "coeffs": _vector.prepare_multipliers(self.coeffs),
            }
        return self._arrays

    def at(self, z: int) -> "PackedInstance":
        """This constraint system as an ``R1CSInstance`` at packing point
        ``z``."""
        return PackedInstance(self, z)

    # -- coefficients at z ------------------------------------------------------
    def coeffs_at(self, z: int) -> List[int]:
        """Every term's coefficient times ``z^z_deg``, in CSR order."""
        zpow = z_powers(z, self.max_deg)
        return [
            c * zpow[d] % R if d else c for c, d in zip(self.coeffs, self.degs)
        ]

    def prepared_at(self, z: int):
        """:meth:`coeffs_at` as Montgomery-form limbs (what the CSR kernel
        multiplies by): one ``vec_mul`` of the stored coefficients against
        the gathered ``zpow[z_deg]``, both in Montgomery form."""
        arr = self.arrays()
        zpow = _vector.to_limbs(z_powers(z, self.max_deg, _vector.R256))
        return _vector.vec_mul_prepared(zpow[arr["degs"]], arr["coeffs"])

    def flat_at(self, which: str, coeffs) -> FlatR1CS:
        """Matrix ``which`` (``"A"``/``"B"``/``"C"``, or ``"T"`` for the
        transposed stack) over coefficients from :meth:`coeffs_at` (a list)
        or :meth:`prepared_at` (limbs)."""
        limbs = not isinstance(coeffs, list)
        if which == "T":
            wires, row_ptr = self.col_rows, self.col_ptr
            if limbs:
                arr = self.arrays()
                kernel = _vector.CSRKernel(
                    arr["col_rows"], coeffs[arr["col_perm"]], arr["col_ptr"]
                )
                return FlatR1CS.from_csr(wires, row_ptr, None, kernel)
            return FlatR1CS.from_csr(
                wires, row_ptr, [coeffs[k] for k in self.col_perm]
            )
        m = self.num_constraints
        first = _MATRICES.index(which) * m
        start, end = self.row_ptr[first], self.row_ptr[first + m]
        wires = self.wires[start:end]
        row_ptr = [p - start for p in self.row_ptr[first:first + m + 1]]
        if limbs:
            arr = self.arrays()
            kernel = _vector.CSRKernel(
                arr["wires"][start:end],
                coeffs[start:end],
                arr["row_ptr"][first:first + m + 1] - start,
            )
            return FlatR1CS.from_csr(wires, row_ptr, None, kernel)
        return FlatR1CS.from_csr(wires, row_ptr, coeffs[start:end])


class PackedInstance(R1CSInstance):
    """A :class:`PackedR1CS` at one packing point ``z``.

    Every kernel of :class:`R1CSInstance` works on it; its CSR
    flattenings come from the packed terms with their coefficients at
    ``z``, computed and cached per engine on first use (limbs on the
    vector engine above the matvec floor, Python ints otherwise).  The
    sparse rows are
    only materialised — unmerged — if a caller asks for them.
    """

    def __init__(self, packed: PackedR1CS, z: int):
        self.packed = packed
        self.z = z % R
        self.num_wires = packed.num_wires
        self.num_public = packed.num_public
        self._coeffs: Dict[bool, object] = {}

    @property
    def num_constraints(self) -> int:
        return self.packed.num_constraints

    def flat(self, which: str) -> FlatR1CS:
        # A system below the matvec floor serves Python-int coefficients,
        # as a specialised one would (FlatR1CS applies the floor per matrix).
        vec = (
            _vector.active_impl() is not None
            and len(self.packed.wires) >= _vector.MATVEC_MIN_TERMS
        )
        cache: Dict = self.__dict__.setdefault("_flat_cache", {})
        flat = cache.get((which, vec))
        if flat is None:
            coeffs = self._coeffs.get(vec)
            if coeffs is None:
                at = self.packed.prepared_at if vec else self.packed.coeffs_at
                coeffs = self._coeffs[vec] = at(self.z)
            flat = cache[which, vec] = self.packed.flat_at(which, coeffs)
        return flat

    def _rows(self, which: str):
        """Matrix ``which`` as unmerged sparse rows, from the canonical
        coefficients at ``z`` whichever engine is active."""
        coeffs = self._coeffs.get(False)
        if coeffs is None:
            coeffs = self._coeffs[False] = self.packed.coeffs_at(self.z)
        flat = self.packed.flat_at(which, coeffs)
        wires, coeffs, ptr = flat.wires, flat.coeffs, flat.row_ptr
        return [
            list(zip(wires[s:e], coeffs[s:e])) for s, e in zip(ptr, ptr[1:])
        ]

    a_rows = property(lambda self: self._rows("A"))
    b_rows = property(lambda self: self._rows("B"))
    c_rows = property(lambda self: self._rows("C"))

