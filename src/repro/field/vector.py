"""Vectorized Fr arithmetic: arrays of field elements at C speed.

The scalar hot paths (NTT butterflies, CSR matvec terms, sumcheck combines)
pay one Python big-int modmul per element.  This module moves whole vectors
of Fr elements through each operation at once:

* **Limb layout** — at every API boundary a vector of ``n`` elements is an
  ``(n, 4)`` little-endian ``uint64`` numpy array of canonical values
  (``< p``); ``to_limbs``/``from_limbs`` convert to and from Python ints.
* **Kernels** — :mod:`repro.field._native` JIT-compiles 4x64 CIOS
  Montgomery kernels with the system C compiler and this module routes
  through them (fixed multipliers are pre-scaled by ``2**256 mod p``, so
  data operands never leave canonical form).

Backend selection: ``REPRO_FIELD_BACKEND`` picks ``scalar`` (pure Python
big ints, always available), ``vector`` (this module), or ``auto`` (the
default).  ``vector`` and ``auto`` need numpy and a working C compiler; a
host missing either runs the scalar backend.  Every kernel here has a
scalar twin that remains the equivalence oracle, and both backends emit
identical canonical integers — proofs are byte-identical across backends.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from .prime_field import BN254_FR_MODULUS as P
from .prime_field import inv_mod
from . import _native

try:  # numpy is optional: without it the vector backend simply disappears
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the scalar CI job
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "available_impls",
    "get_backend",
    "active_impl",
    "set_backend",
    "to_limbs",
    "from_limbs",
    "vec_add",
    "vec_sub",
    "vec_mul",
    "vec_mul_scalar",
    "vec_sum",
    "batch_inv",
    "to_mont",
    "from_mont",
    "SumcheckTables",
    "prepare_multipliers",
    "vec_mul_prepared",
    "NTTKernel",
    "CSRKernel",
    "NTT_MIN",
    "MATVEC_MIN_TERMS",
    "SUMCHECK_MIN_HALF",
    "EQ_MIN_VARS",
]

R256 = pow(2, 256, P)
RINV = inv_mod(R256, P)

# Profitability floors (elements / nonzero terms / eq-table variables):
# below these the Python<->array conversion overhead beats the kernel win.
# An eq table costs ~50 us of call overhead per variable on the vector
# engine; with the conversion back to ints it breaks even at 8 variables
# (~0.52 vs ~0.56 ms) and wins from 9 (~0.67 vs ~1.08 ms).  As limbs it
# breaks even at 7 (178 vs 169 us for the Python table plus one
# ``to_limbs``) and wins from 8 (197 vs 329 us).  A sumcheck pays ~20 us
# per round in its C call and the conversion of int tables; it breaks even
# with the scalar loops at 32 rows (prod2 over int tables 152 vs 144 us,
# eq_abc 225 vs 299 us) and loses below (16 rows: 121 vs 85 us), so
# tables of fewer than ``2 * SUMCHECK_MIN_HALF`` rows stay scalar (PERF.md
# "Fused sumcheck rounds").
NTT_MIN = 32
MATVEC_MIN_TERMS = 64
SUMCHECK_MIN_HALF = 16
EQ_MIN_VARS = 8


# --------------------------------------------------------------------------
# backend selection
# --------------------------------------------------------------------------

_state: dict = {"resolved": False, "impl": None}


def available_impls() -> Tuple[str, ...]:
    """``("native",)`` when numpy imports and the C kernels load, else
    ``()``."""
    return ("native",) if HAVE_NUMPY and _native.load() is not None else ()


def _resolve() -> None:
    mode = os.environ.get("REPRO_FIELD_BACKEND", "auto").strip().lower()
    if mode not in ("auto", "scalar", "vector", ""):
        raise ValueError(
            f"REPRO_FIELD_BACKEND={mode!r}: expected auto, scalar, or vector"
        )
    _set_resolved(mode or "auto")


def _set_resolved(mode: str) -> None:
    # ``vector`` requested but impossible degrades to scalar rather than
    # failing — the scalar oracle is always correct.
    impls = available_impls() if mode != "scalar" else ()
    _state.update(resolved=True, impl=impls[0] if impls else None)


def get_backend() -> str:
    """``"scalar"`` or ``"vector"`` (resolved lazily from the env)."""
    return "scalar" if active_impl() is None else "vector"


def active_impl() -> Optional[str]:
    """``"native"`` when the vector backend is active, else ``None``.
    Call sites treat this as the master gate."""
    if not _state["resolved"]:
        _resolve()
    return _state["impl"]


def set_backend(mode: Optional[str]) -> None:
    """Force the backend at runtime (tests, benchmarks).

    ``mode`` is ``"scalar"``, ``"vector"``, ``"auto"``, or ``None`` to
    re-resolve from ``REPRO_FIELD_BACKEND``.
    """
    if mode is None:
        _state["resolved"] = False
        return
    mode = mode.strip().lower()
    if mode not in ("auto", "scalar", "vector"):
        raise ValueError(f"unknown backend {mode!r}")
    _set_resolved(mode)


# --------------------------------------------------------------------------
# conversions
# --------------------------------------------------------------------------

def to_limbs(vals: Sequence[int]) -> "np.ndarray":
    """Python ints -> ``(n, 4)`` canonical little-endian uint64 limbs.

    Accepts unreduced inputs (negative or ``>= p``); they are reduced on
    the way in so every downstream kernel sees canonical values.
    """
    norm = [v if 0 <= v < P else v % P for v in vals]
    buf = b"".join(v.to_bytes(32, "little") for v in norm)
    return (
        np.frombuffer(buf, dtype="<u8").reshape(len(norm), 4).copy()
    )


def from_limbs(arr: "np.ndarray") -> List[int]:
    """``(n, 4)`` canonical limbs -> list of Python ints."""
    buf = np.ascontiguousarray(arr, dtype="<u8").tobytes()
    fb = int.from_bytes
    return [fb(buf[o : o + 32], "little") for o in range(0, len(buf), 32)]


# --------------------------------------------------------------------------
# elementwise ops
# --------------------------------------------------------------------------

def _c(a: "np.ndarray") -> "np.ndarray":
    """C-contiguous view/copy — the ctypes kernels walk raw memory."""
    return np.ascontiguousarray(a, dtype=np.uint64)


def _lanes(kernel: str, a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Run the ``(a, b, r, n)`` C kernel ``kernel`` over the rows of ``a``."""
    nat = _native.load()
    a, b = _c(a), _c(b)
    r = np.empty(a.shape, dtype=np.uint64)
    getattr(nat, kernel)(nat.uptr(a), nat.uptr(b), nat.uptr(r), a.shape[0])
    return r


def vec_add(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ``(a + b) mod p`` over canonical limb arrays."""
    return _lanes("vec_add", a, b)


def vec_sub(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ``(a - b) mod p``."""
    return _lanes("vec_sub", a, b)


def prepare_multipliers(ws: Sequence[int]) -> "np.ndarray":
    """Precondition fixed multipliers for :func:`vec_mul_prepared`
    (Montgomery form limbs)."""
    return to_limbs([w % P * R256 % P for w in ws])


def vec_mul_prepared(a: "np.ndarray", prep: "np.ndarray") -> "np.ndarray":
    """Elementwise ``a * w`` against multipliers from
    :func:`prepare_multipliers`."""
    return _lanes("vec_mul", a, prep)


def vec_mul(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ``(a * b) mod p`` over canonical limb arrays, in one C
    pass (the Montgomery product, then one multiply by ``R^2``)."""
    return _lanes("vec_mul_canon", a, b)


def vec_mul_scalar(a: "np.ndarray", s: int) -> "np.ndarray":
    """Elementwise ``a * s mod p`` for one Python-int multiplier."""
    return _lanes("vec_mul_scalar", a, to_limbs([s % P * R256 % P]))


def vec_sum(a: "np.ndarray") -> int:
    """``sum(a) mod p`` — exact, via 32-bit half-limb column sums."""
    m32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    lo = (a & m32).sum(axis=0, dtype=np.uint64)
    hi = (a >> s32).sum(axis=0, dtype=np.uint64)
    total = 0
    for i in range(3, -1, -1):
        total = (total << 64) + (int(hi[i]) << 32) + int(lo[i])
    return total % P


def to_mont(a: "np.ndarray") -> "np.ndarray":
    """Canonical limbs (any shape ending in 4) -> Montgomery form
    (``x * 2**256 mod p``), as a new array."""
    nat = _native.load()
    a = _c(a)
    r = np.empty(a.shape, dtype=np.uint64)
    nat.to_mont(nat.uptr(a), nat.uptr(r), a.size // 4)
    return r


def from_mont(a: "np.ndarray") -> List[int]:
    """Montgomery-form limbs -> list of canonical Python ints."""
    return [v * RINV % P for v in from_limbs(a.reshape(-1, 4))]


class SumcheckTables:
    """The tables of one sumcheck on the fused C round kernel.

    ``tables`` (one kernel's worth: 2 for ``prod2``, 3 for ``prod3``, 4
    for ``eq_abc``) are sequences of ints or ``(n, 4)`` Montgomery-form
    limb arrays (:func:`to_mont`).  They are copied once into one
    ``(k, n, 4)`` Montgomery-form array, which every :meth:`round` binds
    in place; only a round's three sums come back as ints."""

    KINDS = {"prod2": 0, "prod3": 1, "eq_abc": 2}

    def __init__(self, kernel: str, tables):
        self.nat = nat = _native.load()
        self.kind = self.KINDS[kernel]
        if len(tables) != self.kind + 2:
            raise ValueError(f"kernel {kernel!r} takes {self.kind + 2} tables")
        self.n = len(tables[0])
        tabs = np.empty((len(tables), self.n, 4), dtype=np.uint64)
        for dst, t in zip(tabs, tables):
            dst[:] = t if isinstance(t, np.ndarray) else to_mont(to_limbs(t))
        self.tabs = tabs
        self._r = np.empty(4, dtype=np.uint64)
        self._out = np.empty((3, 4), dtype=np.uint64)
        self._ptrs = tuple(map(nat.uptr, (tabs, self._r, self._out)))

    def _call(self, r: Optional[int]) -> None:
        tabs, rp, out = self._ptrs
        if r is not None:
            self._r[:] = np.frombuffer(
                (r % P * R256 % P).to_bytes(32, "little"), dtype="<u8"
            )
        if self.nat.sumcheck_round(
            self.kind, tabs, self.tabs.shape[0], self.tabs.shape[1], self.n,
            None if r is None else rp, out,
        ):
            raise ValueError("the sumcheck round kernel rejected its tables")
        if r is not None:
            self.n //= 2

    def round(self, r: Optional[int] = None) -> Tuple[int, int, int]:
        """Bind ``r`` (the previous round's challenge, if any) in place,
        then return the new round's sums at ``t = 0, 2, 3`` (``t = 3`` is
        0 for ``prod2``)."""
        self._call(r)
        e0, e2, e3 = from_limbs(self._out)
        return e0, e2, e3

    def bind(self, r: int) -> None:
        """Bind the last round's challenge."""
        self._call(r)

    def finals(self) -> List[int]:
        """Row 0 of every table, canonical: the final values once all
        variables are bound."""
        return from_mont(self.tabs[:, 0])


def batch_inv(a: "np.ndarray") -> "np.ndarray":
    """Batched inversion via a product tree: 1 scalar inversion plus
    ``O(n)`` vector multiplies.  Raises ``ZeroDivisionError`` on zero
    lanes, matching :func:`repro.field.prime_field.batch_inv_mod`."""
    n = a.shape[0]
    if n == 0:
        return a.copy()
    if not a.any(axis=1).all():
        raise ZeroDivisionError("batch inverse of 0 in prime field")
    levels = []
    cur = a
    while cur.shape[0] > 1:
        m = cur.shape[0] // 2
        left, right = cur[: 2 * m : 2], cur[1 : 2 * m : 2]
        nxt = vec_mul(left, right)
        if cur.shape[0] & 1:
            nxt = np.concatenate([nxt, cur[-1:]])
        levels.append(cur)
        cur = nxt
    root_inv = inv_mod(from_limbs(cur)[0], P)
    inv = to_limbs([root_inv])
    for cur in reversed(levels):
        m = cur.shape[0] // 2
        left, right = cur[: 2 * m : 2], cur[1 : 2 * m : 2]
        pair_inv = inv[:m]
        out = np.empty_like(cur)
        out[: 2 * m : 2] = vec_mul(pair_inv, right)
        out[1 : 2 * m : 2] = vec_mul(pair_inv, left)
        if cur.shape[0] & 1:
            out[-1:] = inv[m : m + 1]
        inv = out
    return inv


# --------------------------------------------------------------------------
# NTT and CSR matvec kernels (plan orchestration lives in field.ntt and
# r1cs.system, which build these only while the vector backend is active)
# --------------------------------------------------------------------------

class NTTKernel:
    """Stage-concatenated Montgomery twiddles + the C butterfly sweep."""

    def __init__(self, stages: Sequence[Tuple[int, int, Sequence[int]]]):
        cat: List[int] = []
        for _length, _half, tw in stages:
            cat.extend(w * R256 % P for w in tw)
        self.n = stages[-1][0] if stages else 1
        self.tw = to_limbs(cat)
        self.nat = _native.load()

    def run_limbs(self, x: "np.ndarray") -> "np.ndarray":
        """Transform bit-rev-loaded ``(n, 4)`` limbs (in place when already
        contiguous; the transformed array is always the return value)."""
        nat = self.nat
        x = _c(x)
        nat.ntt(nat.uptr(x), x.shape[0], nat.uptr(self.tw))
        return x


class CSRKernel:
    """One CSR matrix with Montgomery-form coefficients + the C matvec.

    ``prepared`` holds the coefficients as :func:`prepare_multipliers`
    limbs (or as a ``vec_mul_prepared`` product of two such arrays)."""

    def __init__(self, wires, prepared: "np.ndarray", row_ptr):
        self.wires = np.asarray(wires, dtype=np.int64)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.coeffs = _c(prepared)
        self.rows = len(row_ptr) - 1
        self.nat = _native.load()

    def matvec_limbs(self, z: "np.ndarray") -> "np.ndarray":
        nat = self.nat
        z = _c(z)
        out = np.empty((self.rows, 4), dtype=np.uint64)
        nat.csr_matvec(
            nat.iptr(self.wires),
            nat.uptr(self.coeffs),
            nat.iptr(self.row_ptr),
            self.rows,
            nat.uptr(z),
            nat.uptr(out),
        )
        return out
