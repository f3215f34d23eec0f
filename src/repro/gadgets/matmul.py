"""Matrix-multiplication circuit strategies.

This module is the heart of the reproduction: it builds R1CS circuits for
``Y[a,b] = X[a,n] @ W[n,b]`` under six encodings.

======================  =====================================================
strategy                encoding
======================  =====================================================
``vanilla``             one constraint per scalar product plus one long-
                        addition row per output (the paper's Fig. 4a / 5a)
``vanilla_psq``         PSQ only: per-product constraints fold the running
                        prefix sum into the C side, removing the long
                        additions and the separate product wires (Fig. 5b)
``crpc``                CRPC only: one packed polynomial-multiplication
                        constraint per inner index k (Fig. 4b) with explicit
                        per-(k,i,j) product wires and long-addition rows
``crpc_psq``            zkVC: CRPC packing + scalar prefix-sum accumulators;
                        n constraints, O(n^2) wires, A side holds only X
``vcnn``                vCNN's convolution packing applied to matmul: one
                        polynomial product per output with 2n-2 dummy-term
                        wires (the paper's "another possible transformation")
``zen``                 ZEN-style stranded encoding: two scalar products per
                        field multiplication via base-B limb packing
======================  =====================================================

The packing indeterminate ``Z`` appears symbolically in the constraints and
is specialised by the backend (Groth16 bakes the circuit's Fiat–Shamir point
into the CRS at setup; Spartan derives it in-protocol).
"""

from __future__ import annotations

import hashlib
from operator import mul
from typing import List, Optional, Sequence

from ..field import vector as _vector
from ..field.prime_field import BN254_FR_MODULUS
from ..r1cs.builder import ConstraintSystem, derive_z
from ..r1cs.lincomb import LC, z_powers

R = BN254_FR_MODULUS

STRATEGIES = ("vanilla", "vanilla_psq", "crpc", "crpc_psq", "vcnn", "zen")

# Limb base for the ZEN stranded encoding: large enough that 16-bit-ish
# quantised products never overflow a limb.
ZEN_BASE = 1 << 64


def _as_rows(mat, rows: int, cols: int) -> List[List[int]]:
    out = [[int(mat[i][j]) % R for j in range(cols)] for i in range(rows)]
    return out


_HALF_R = R // 2
_INT64_LIMIT = 1 << 63


def _signed(rows: List[List[int]]) -> List[List[int]]:
    """Reduced entries folded back into ``(-R/2, R/2]``."""
    return [[v - R if v > _HALF_R else v for v in row] for row in rows]


def _max_abs(rows: List[List[int]]) -> int:
    return max((max(map(abs, row), default=0) for row in rows), default=0)


class MatmulCircuit:
    """A matmul constraint system plus the bookkeeping to assign witnesses.

    Build once per shape/strategy, then :meth:`assign` per concrete input.
    ``Y`` entries are public (the statement); ``X`` and ``W`` are witness
    wires (the server's activations and proprietary weights).
    """

    def __init__(self, a: int, n: int, b: int, strategy: str = "crpc_psq"):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if min(a, n, b) < 1:
            raise ValueError("matrix dimensions must be positive")
        self.a, self.n, self.b = a, n, b
        self.strategy = strategy
        self.cs = ConstraintSystem()

        # Statement: the claimed outputs.
        self.y_wires = [
            [self.cs.alloc_public(f"y[{i}][{j}]") for j in range(b)]
            for i in range(a)
        ]
        # Witness: inputs and weights.
        self.x_wires = [
            [self.cs.alloc(f"x[{i}][{k}]") for k in range(n)]
            for i in range(a)
        ]
        self.w_wires = [
            [self.cs.alloc(f"w[{k}][{j}]") for j in range(b)]
            for k in range(n)
        ]

        builder = getattr(self, f"_build_{strategy}")
        builder()

    # -- public API -------------------------------------------------------------
    def circuit_id(self) -> bytes:
        """Stable identifier used to derive the public packing point."""
        desc = f"matmul/{self.strategy}/{self.a}x{self.n}x{self.b}"
        return hashlib.sha256(desc.encode()).digest()

    def packing_point(self, extra: bytes = b"") -> int:
        return derive_z(self.circuit_id() + extra)

    def product(self, x_mat, w_mat) -> List[List[int]]:
        """The O(a*n*b) product ``Y = X @ W`` as field values.

        Callers that need Y *before* assigning witnesses (the Spartan
        commit-then-prove flow derives the packing point from it) compute
        it here once and pass it back to :meth:`assign` so the work is not
        repeated.
        """
        return self._product_rows(
            _as_rows(x_mat, self.a, self.n), _as_rows(w_mat, self.n, self.b)
        )

    def _product_rows(self, x, w) -> List[List[int]]:
        """``x @ w`` over reduced rows: exact int64 numpy lanes when the
        entries fold to signed values small enough that no sum of ``n``
        products can overflow (``n * max|x| * max|w| < 2**63``), else the
        Python loop of :meth:`_product_rows_py`, which stays the oracle."""
        if _vector.HAVE_NUMPY:
            xs, ws = _signed(x), _signed(w)
            bound = self.n * _max_abs(xs) * _max_abs(ws)
            if bound < _INT64_LIMIT:
                np = _vector.np
                prod = np.array(xs, dtype=np.int64) @ np.array(ws, dtype=np.int64)
                return [[v % R for v in row] for row in prod.tolist()]
        return self._product_rows_py(x, w)

    def _product_rows_py(self, x, w) -> List[List[int]]:
        a, n, b = self.a, self.n, self.b
        return [
            [sum(x[i][k] * w[k][j] for k in range(n)) % R for j in range(b)]
            for i in range(a)
        ]

    def assign(
        self,
        x_mat,
        w_mat,
        z: Optional[int] = None,
        y: Optional[List[List[int]]] = None,
    ) -> List[List[int]]:
        """Fill every wire value from concrete matrices.

        Returns the product ``Y`` as field values.  ``z`` is required for
        packed strategies whose accumulator wires depend on the packing
        point; defaults to :meth:`packing_point`.  ``y`` may carry a
        precomputed :meth:`product` result; a wrong value only yields an
        unsatisfiable assignment (the constraints still bind Y to X @ W).
        """
        if z is None:
            z = self.packing_point()
        a, n, b = self.a, self.n, self.b
        x = _as_rows(x_mat, a, n)
        w = _as_rows(w_mat, n, b)
        if y is None:
            y = self._product_rows(x, w)
        cs = self.cs
        for i in range(a):
            for k in range(n):
                cs.set_value(self.x_wires[i][k], x[i][k])
        for k in range(n):
            for j in range(b):
                cs.set_value(self.w_wires[k][j], w[k][j])
        for i in range(a):
            for j in range(b):
                cs.set_value(self.y_wires[i][j], y[i][j])
        filler = getattr(self, f"_fill_{self.strategy}", None)
        if filler is not None:
            filler(x, w, y, z)
        return y

    # -- vanilla -----------------------------------------------------------------
    def _build_vanilla(self) -> None:
        cs = self.cs
        a, n, b = self.a, self.n, self.b
        self._prod_wires = [
            [
                [cs.alloc(f"p[{i}][{j}][{k}]") for k in range(n)]
                for j in range(b)
            ]
            for i in range(a)
        ]
        for i in range(a):
            for j in range(b):
                for k in range(n):
                    cs.enforce(
                        LC.from_wire(self.x_wires[i][k]),
                        LC.from_wire(self.w_wires[k][j]),
                        LC.from_wire(self._prod_wires[i][j][k]),
                        label=f"prod[{i}][{j}][{k}]",
                    )
                # Long addition: heavyweight A-side row (Fig. 5a).
                total = LC(
                    [(self._prod_wires[i][j][k], 1, 0) for k in range(n)]
                )
                cs.enforce(
                    total,
                    LC.constant(1),
                    LC.from_wire(self.y_wires[i][j]),
                    label=f"sum[{i}][{j}]",
                )

    def _fill_vanilla(self, x, w, y, z) -> None:
        for i in range(self.a):
            for j in range(self.b):
                for k in range(self.n):
                    self.cs.set_value(
                        self._prod_wires[i][j][k], x[i][k] * w[k][j] % R
                    )

    # -- vanilla + PSQ -------------------------------------------------------------
    def _build_vanilla_psq(self) -> None:
        cs = self.cs
        a, n, b = self.a, self.n, self.b
        # Prefix-sum wires replace product wires; the last prefix IS y_ij.
        self._prefix_wires = [
            [
                [cs.alloc(f"s[{i}][{j}][{k}]") for k in range(n - 1)]
                for j in range(b)
            ]
            for i in range(a)
        ]
        for i in range(a):
            for j in range(b):
                prev: Optional[int] = None
                for k in range(n):
                    cur = (
                        self.y_wires[i][j]
                        if k == n - 1
                        else self._prefix_wires[i][j][k]
                    )
                    c = LC.from_wire(cur)
                    if prev is not None:
                        c = c - LC.from_wire(prev)
                    cs.enforce(
                        LC.from_wire(self.x_wires[i][k]),
                        LC.from_wire(self.w_wires[k][j]),
                        c,
                        label=f"psq[{i}][{j}][{k}]",
                    )
                    prev = cur

    def _fill_vanilla_psq(self, x, w, y, z) -> None:
        for i in range(self.a):
            for j in range(self.b):
                acc = 0
                for k in range(self.n - 1):
                    acc = (acc + x[i][k] * w[k][j]) % R
                    self.cs.set_value(self._prefix_wires[i][j][k], acc)

    # -- CRPC (packed, explicit products) ------------------------------------------
    def _x_packed(self, k: int) -> LC:
        """sum_i Z^{i*b} x_ik — a column of X as a polynomial in Z."""
        return LC(
            [(self.x_wires[i][k], 1, i * self.b) for i in range(self.a)]
        )

    def _w_packed(self, k: int) -> LC:
        """sum_j Z^j w_kj — a row of W as a polynomial in Z."""
        return LC([(self.w_wires[k][j], 1, j) for j in range(self.b)])

    def _y_packed(self) -> LC:
        return LC(
            [
                (self.y_wires[i][j], 1, i * self.b + j)
                for i in range(self.a)
                for j in range(self.b)
            ]
        )

    def _build_crpc(self) -> None:
        cs = self.cs
        a, n, b = self.a, self.n, self.b
        # Packed product constraint per k, with per-(k,i,j) product wires —
        # CRPC reduces constraints but keeps O(abn) variables (Table II's
        # "CRPC only" row); PSQ removes them.
        self._prod_wires = [
            [[cs.alloc(f"p[{k}][{i}][{j}]") for j in range(b)] for i in range(a)]
            for k in range(n)
        ]
        for k in range(n):
            packed_products = LC(
                [
                    (self._prod_wires[k][i][j], 1, i * b + j)
                    for i in range(a)
                    for j in range(b)
                ]
            )
            cs.enforce(
                self._x_packed(k),
                self._w_packed(k),
                packed_products,
                label=f"crpc[{k}]",
            )
        # Long-addition rows reconstruct each output from its products.
        for i in range(a):
            for j in range(b):
                total = LC(
                    [(self._prod_wires[k][i][j], 1, 0) for k in range(n)]
                )
                cs.enforce(
                    total,
                    LC.constant(1),
                    LC.from_wire(self.y_wires[i][j]),
                    label=f"crpc-sum[{i}][{j}]",
                )

    def _fill_crpc(self, x, w, y, z) -> None:
        for k in range(self.n):
            for i in range(self.a):
                for j in range(self.b):
                    self.cs.set_value(
                        self._prod_wires[k][i][j], x[i][k] * w[k][j] % R
                    )

    # -- CRPC + PSQ: the zkVC circuit ------------------------------------------------
    def _build_crpc_psq(self) -> None:
        cs = self.cs
        n = self.n
        # Scalar prefix accumulators over the packed per-k products; the
        # final accumulator is the packed Y statement itself.
        self._acc_wires = [cs.alloc(f"acc[{k}]") for k in range(n - 1)]
        for k in range(n):
            if k == n - 1:
                c = self._y_packed()
            else:
                c = LC.from_wire(self._acc_wires[k])
            if k > 0:
                c = c - LC.from_wire(self._acc_wires[k - 1])
            cs.enforce(
                self._x_packed(k),
                self._w_packed(k),
                c,
                label=f"crpc-psq[{k}]",
            )

    def _fill_crpc_psq(self, x, w, y, z) -> None:
        a, n, b = self.a, self.n, self.b
        # The packing weights z^(i*b) of X's column and z^j of W's row.
        x_pows = z_powers(pow(z, b, R), a - 1)
        w_pows = z_powers(z, b - 1)
        acc = 0
        for k in range(n - 1):
            xk = sum(map(mul, x_pows, (x[i][k] for i in range(a)))) % R
            wk = sum(map(mul, w_pows, w[k])) % R
            acc = (acc + xk * wk) % R
            self.cs.set_value(self._acc_wires[k], acc)

    # -- vCNN-style packing with dummy terms --------------------------------------
    def _build_vcnn(self) -> None:
        cs = self.cs
        a, n, b = self.a, self.n, self.b
        # Per output: X_i(Z) * W_j(Z) where deg aligns the wanted dot product
        # at Z^{n-1}; every other coefficient is a dummy wire.
        self._dummy_wires = [
            [
                [cs.alloc(f"d[{i}][{j}][{deg}]") for deg in range(2 * n - 2)]
                for j in range(b)
            ]
            for i in range(a)
        ]
        for i in range(a):
            for j in range(b):
                xi = LC([(self.x_wires[i][k], 1, k) for k in range(n)])
                wj = LC(
                    [(self.w_wires[k][j], 1, n - 1 - k) for k in range(n)]
                )
                terms = []
                for deg in range(2 * n - 1):
                    if deg == n - 1:
                        terms.append((self.y_wires[i][j], 1, deg))
                    else:
                        d = deg if deg < n - 1 else deg - 1
                        terms.append(
                            (self._dummy_wires[i][j][d], 1, deg)
                        )
                cs.enforce(xi, wj, LC(terms), label=f"vcnn[{i}][{j}]")

    def _fill_vcnn(self, x, w, y, z) -> None:
        a, n, b = self.a, self.n, self.b
        for i in range(a):
            for j in range(b):
                # Coefficient of Z^deg in X_i(Z) * W_j(Z).
                coeffs = [0] * (2 * n - 1)
                for k1 in range(n):
                    for k2 in range(n):
                        coeffs[k1 + n - 1 - k2] = (
                            coeffs[k1 + n - 1 - k2] + x[i][k1] * w[k2][j]
                        ) % R
                for deg in range(2 * n - 1):
                    if deg == n - 1:
                        continue
                    d = deg if deg < n - 1 else deg - 1
                    self.cs.set_value(
                        self._dummy_wires[i][j][d], coeffs[deg]
                    )

    # -- ZEN-style stranded encoding ------------------------------------------------
    def _build_zen(self) -> None:
        cs = self.cs
        a, n, b = self.a, self.n, self.b
        base = ZEN_BASE
        pairs = n // 2
        self._zen_ps = [
            [[cs.alloc(f"ps[{i}][{j}][{p}]") for p in range(pairs)] for j in range(b)]
            for i in range(a)
        ]
        self._zen_hi = [
            [[cs.alloc(f"hi[{i}][{j}][{p}]") for p in range(pairs)] for j in range(b)]
            for i in range(a)
        ]
        self._zen_lo = [
            [[cs.alloc(f"lo[{i}][{j}][{p}]") for p in range(pairs)] for j in range(b)]
            for i in range(a)
        ]
        self._zen_tail = (
            [
                [[cs.alloc(f"tp[{i}][{j}]")] for j in range(b)]
                for i in range(a)
            ]
            if n % 2
            else None
        )
        for i in range(a):
            for j in range(b):
                for p in range(pairs):
                    k = 2 * p
                    # (B*x_k + x_{k+1}) * (w_k + B*w_{k+1})
                    #   = B^2*(x_k w_{k+1}) + B*(x_k w_k + x_{k+1} w_{k+1})
                    #     + x_{k+1} w_k
                    left = LC(
                        [
                            (self.x_wires[i][k], base, 0),
                            (self.x_wires[i][k + 1], 1, 0),
                        ]
                    )
                    right = LC(
                        [
                            (self.w_wires[k][j], 1, 0),
                            (self.w_wires[k + 1][j], base, 0),
                        ]
                    )
                    out = LC(
                        [
                            (self._zen_hi[i][j][p], base * base % R, 0),
                            (self._zen_ps[i][j][p], base, 0),
                            (self._zen_lo[i][j][p], 1, 0),
                        ]
                    )
                    cs.enforce(left, right, out, label=f"zen[{i}][{j}][{p}]")
                terms = [(self._zen_ps[i][j][p], 1, 0) for p in range(pairs)]
                if self._zen_tail is not None:
                    tail = self._zen_tail[i][j][0]
                    cs.enforce(
                        LC.from_wire(self.x_wires[i][n - 1]),
                        LC.from_wire(self.w_wires[n - 1][j]),
                        LC.from_wire(tail),
                        label=f"zen-tail[{i}][{j}]",
                    )
                    terms.append((tail, 1, 0))
                cs.enforce(
                    LC(terms),
                    LC.constant(1),
                    LC.from_wire(self.y_wires[i][j]),
                    label=f"zen-sum[{i}][{j}]",
                )

    def _fill_zen(self, x, w, y, z) -> None:
        a, n, b = self.a, self.n, self.b
        pairs = n // 2
        for i in range(a):
            for j in range(b):
                for p in range(pairs):
                    k = 2 * p
                    self.cs.set_value(
                        self._zen_hi[i][j][p], x[i][k] * w[k + 1][j] % R
                    )
                    self.cs.set_value(
                        self._zen_ps[i][j][p],
                        (x[i][k] * w[k][j] + x[i][k + 1] * w[k + 1][j]) % R,
                    )
                    self.cs.set_value(
                        self._zen_lo[i][j][p], x[i][k + 1] * w[k][j] % R
                    )
                if self._zen_tail is not None:
                    self.cs.set_value(
                        self._zen_tail[i][j][0],
                        x[i][n - 1] * w[n - 1][j] % R,
                    )


def build_matmul_circuit(
    a: int, n: int, b: int, strategy: str = "crpc_psq"
) -> MatmulCircuit:
    """Convenience constructor matching the paper's Y = X @ W orientation."""
    return MatmulCircuit(a, n, b, strategy)
