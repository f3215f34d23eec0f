"""Pedersen / Hyrax-style multilinear polynomial commitment.

* Generators come from try-and-increment hash-to-curve, so no party knows
  their discrete logs (nothing-up-my-sleeve; this is what makes the scheme
  binding without a trusted setup).
* A vector of length ``2^m`` is laid out as a ``2^m1 x 2^m2`` matrix
  (``m1 = ceil(m/2)``); each row gets a blinded Pedersen commitment
  ``b_i * H + <row_i, G>``.
* The commitments run on one process-wide fixed-base table over
  ``[H, G_0, G_1, ...]`` (:func:`pedersen_table`): the whole matrix is
  one batched :meth:`~repro.curve.fixed_base.FixedBaseMSM.msm_many` over
  its rows.  Witness entries are mostly small signed integers; the MSM
  folds them into ``(-r/2, r/2]``, so a negative one costs the digits of
  its magnitude, not of a 254-bit residue.  The table stores its shifted
  bases every 2 bits, so each call runs the window its scalars want: a
  matrix of small entries a small window with few buckets to aggregate,
  uniform 254-bit rows w=8.
* The row blinders are full-width, so they do not ride that window: H
  has its own dense w=8 table (:func:`blinder_table`, 32 windows of 128
  points), and each blinder's ~32 lookups join its row's weight-1 bucket
  in the same batch-affine reduction as the witness digits.  The window
  estimate sees the witness alone.  The verifier's single-row
  :func:`pedersen_commit` keeps H as base 0 of the Pedersen table and
  never builds the blinder table.
* Opening at a point ``r = (r1 || r2)`` uses the bilinear structure
  ``v~(r) = L(r1)^T M R(r2)``: the prover reveals ``t = M^T L`` and the
  combined blinder, the verifier checks ``commit(t) == sum_i L_i * C_i``
  homomorphically and evaluates ``<t, R(r2)>`` itself.

Proof size and verifier work are ``O(sqrt n)`` — the same profile as the
Hyrax commitment the Spartan paper builds on.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..curve.bn254 import AffinePoint, CURVE_ORDER, eq, is_on_curve
from ..curve.fixed_base import FixedBaseMSM, FixedBaseTable
from ..curve.msm import msm
from ..field.extension import P as FQ_MODULUS
from ..field import vector as _vector
from ..field.prime_field import sqrt_mod
from ..poly.multilinear import eq_evals

R = CURVE_ORDER


def hash_to_g1(label: bytes) -> AffinePoint:
    """Try-and-increment hash-to-curve (generator with unknown dlog)."""
    counter = 0
    while True:
        h = hashlib.sha256(label + b":" + str(counter).encode()).digest()
        x = int.from_bytes(h, "big") % FQ_MODULUS
        rhs = (x * x * x + 3) % FQ_MODULUS
        try:
            y = sqrt_mod(rhs, FQ_MODULUS)
        except ValueError:
            counter += 1
            continue
        # Normalise the root choice so the generator is deterministic.
        if y > FQ_MODULUS - y:
            y = FQ_MODULUS - y
        point = (x, y)
        assert is_on_curve(point, 3)
        return point


_GENERATOR_CACHE: List[AffinePoint] = []
_BLINDER_GEN: Optional[AffinePoint] = None

# One fixed-base table over ``[H, G_0, G_1, ...]``, grown in lockstep with
# the generator cache: the blinder generator is base 0, so a blinded
# commitment is a single MSM over ``[blinder] + values``.  Shifts are
# stored every 2 bits, so each call runs the window its scalars want
# (PERF.md "Hyrax commit"): a folded int8 witness matrix commits at w=4,
# uniform 254-bit rows at w=8.
_PEDERSEN_STEP = 2
_PEDERSEN_TABLE: Optional[FixedBaseMSM] = None
_PEDERSEN_LOCK = threading.Lock()

# The dense signed-digit table of H a commit takes its blinders' points
# from: 4,096 affine points at w=8, built by a prover's first commit (or
# its warm-up), never by a verifier (PERF.md "Hyrax commit").
_BLINDER_WINDOW = 8
_BLINDER_TABLE: Optional[FixedBaseTable] = None


def pedersen_generators(count: int) -> List[AffinePoint]:
    """Deterministic independent generators G_0..G_{count-1} (cached)."""
    while len(_GENERATOR_CACHE) < count:
        idx = len(_GENERATOR_CACHE)
        _GENERATOR_CACHE.append(hash_to_g1(b"zkvc-pedersen-gen-%d" % idx))
    return _GENERATOR_CACHE[:count]


def blinder_generator() -> AffinePoint:
    global _BLINDER_GEN
    if _BLINDER_GEN is None:
        _BLINDER_GEN = hash_to_g1(b"zkvc-pedersen-blinder")
    return _BLINDER_GEN


def pedersen_table(count: int) -> FixedBaseMSM:
    """The shared fixed-base table over ``[H, G_0, G_1, ...]``, grown to
    cover at least ``G_0..G_{count-1}``."""
    global _PEDERSEN_TABLE
    with _PEDERSEN_LOCK:
        if _PEDERSEN_TABLE is None:
            _PEDERSEN_TABLE = FixedBaseMSM(
                [blinder_generator()], window=_PEDERSEN_STEP
            )
        have = len(_PEDERSEN_TABLE) - 1
        if have < count:
            _PEDERSEN_TABLE.extend(pedersen_generators(count)[have:])
        return _PEDERSEN_TABLE


def blinder_table() -> FixedBaseTable:
    """The shared dense table of the blinder generator H (built once)."""
    global _BLINDER_TABLE
    with _PEDERSEN_LOCK:
        if _BLINDER_TABLE is None:
            _BLINDER_TABLE = FixedBaseTable(
                blinder_generator(), window=_BLINDER_WINDOW
            )
        return _BLINDER_TABLE


def _is_canonical_generators(
    generators: Sequence[AffinePoint], count: int
) -> bool:
    """True iff ``generators[:count]`` are exactly the cached canonical
    generators (identity comparison — identical objects imply equal points,
    so the fixed-base fast path below is sound)."""
    if count > len(_GENERATOR_CACHE) or count > len(generators):
        return False
    cache = _GENERATOR_CACHE
    return all(generators[i] is cache[i] for i in range(count))


def pedersen_commit(
    values: Sequence[int], blinder: int, generators: Sequence[AffinePoint]
) -> AffinePoint:
    """``blinder * H + sum_i values[i] * generators[i]``."""
    n = len(values)
    scalars = [blinder, *values]
    if _is_canonical_generators(generators, n):
        return pedersen_table(n).msm(scalars)
    return msm([blinder_generator(), *generators[:n]], scalars)


def hyrax_shape(num_vars: int) -> Tuple[int, int]:
    """``(row_vars, col_vars)`` of the matrix a ``2^num_vars`` vector is
    committed as: ``2^ceil(m/2)`` rows of ``2^floor(m/2)`` columns."""
    row_vars = (num_vars + 1) // 2
    return row_vars, num_vars - row_vars


@dataclass
class HyraxCommitment:
    """Row commitments of the matrix layout, plus shape metadata."""

    row_commits: List[AffinePoint]
    num_vars: int
    row_vars: int  # m1
    col_vars: int  # m2

    def size_bytes(self) -> int:
        return 64 * len(self.row_commits)


@dataclass
class HyraxOpening:
    """Evaluation proof: the L-combined row and its combined blinder."""

    t: List[int]
    blinder: int
    value: int

    def size_bytes(self) -> int:
        return 32 * (len(self.t) + 2)


class HyraxProver:
    """Holds the committed vector and its blinders for later openings.

    ``limbs``, if the caller has them, are ``vec`` as canonical ``(n, 4)``
    limbs; on the vector engine :meth:`open` combines the rows from them
    (else from one conversion of its own)."""

    def __init__(self, vec: Sequence[int], num_vars: int,
                 rng: Optional[Callable[[], int]] = None, limbs=None):
        if rng is None:
            rng = lambda: secrets.randbelow(R)  # noqa: E731
        size = 1 << num_vars
        if len(vec) > size:
            raise ValueError("vector longer than 2^num_vars")
        self.num_vars = num_vars
        self.row_vars, self.col_vars = hyrax_shape(num_vars)
        self.values = [v % R for v in vec] + [0] * (size - len(vec))
        ncols = 1 << self.col_vars
        self.rows = [
            self.values[i * ncols:(i + 1) * ncols]
            for i in range(1 << self.row_vars)
        ]
        self.blinders = [rng() % R for _ in self.rows]
        self._len = len(vec)
        self._limbs = limbs

    def _combine_rows(self, weights: Sequence[int]) -> List[int]:
        """``t = sum_i weights[i] * row_i``: on the vector engine one CSR
        matvec whose row ``j`` takes column ``j`` of the rows that hold the
        vector (the zero padding rows add nothing), with every weight in
        Montgomery form."""
        ncols = 1 << self.col_vars
        if _vector.active_impl() is None:
            t = [0] * ncols
            for weight, row in zip(weights, self.rows):
                if weight == 0:
                    continue
                for j, v in enumerate(row):
                    t[j] = (t[j] + weight * v) % R
            return t
        np = _vector.np
        live = -(-self._len // ncols)
        vals = self._limbs
        if vals is None:
            vals = self._limbs = _vector.to_limbs(self.values[:self._len])
        z = np.zeros((live * ncols, 4), dtype=np.uint64)
        z[: self._len] = vals
        wires = np.arange(live * ncols).reshape(live, ncols).T
        coeffs = _vector.prepare_multipliers(weights[:live])
        kern = _vector.CSRKernel(
            wires.ravel(),
            coeffs[np.tile(np.arange(live), ncols)],
            np.arange(0, live * ncols + 1, live),
        )
        return _vector.from_limbs(kern.matvec_limbs(z))

    def commit(self) -> HyraxCommitment:
        # All rows share the canonical generators, so the whole matrix
        # commits through the one Pedersen table in one batched pass: each
        # row is the MSM of ``[0] + row`` over ``[H, G_0, ...]`` plus its
        # blinder's digits in H's table, and every bucket insertion across
        # all rows shares batched inversions.
        table = pedersen_table(1 << self.col_vars)
        commits = table.msm_many(
            [[0, *row] for row in self.rows],
            blinding=(blinder_table(), self.blinders),
        )
        return HyraxCommitment(
            row_commits=commits,
            num_vars=self.num_vars,
            row_vars=self.row_vars,
            col_vars=self.col_vars,
        )

    def open(self, point: Sequence[int]) -> HyraxOpening:
        """Open the multilinear evaluation at ``point`` (length num_vars)."""
        if len(point) != self.num_vars:
            raise ValueError("point arity mismatch")
        left = eq_evals(point[: self.row_vars])
        right = eq_evals(point[self.row_vars:])
        t = self._combine_rows(left)
        blinder = sum(
            w * b for w, b in zip(left, self.blinders)
        ) % R
        value = sum(tv * rv for tv, rv in zip(t, right)) % R
        return HyraxOpening(t=t, blinder=blinder, value=value)


def hyrax_verify(
    commitment: HyraxCommitment,
    point: Sequence[int],
    opening: HyraxOpening,
) -> bool:
    """Check an opening against the row commitments.

    A commitment or opening whose shape disagrees with its own header (or
    with ``point``) is rejected, not raised on.
    """
    row_vars, col_vars = commitment.row_vars, commitment.col_vars
    if (
        row_vars < 0
        or col_vars < 0
        or row_vars + col_vars != commitment.num_vars
        or len(point) != commitment.num_vars
        or len(commitment.row_commits) != 1 << row_vars
        or len(opening.t) != 1 << col_vars
    ):
        return False
    left = eq_evals(point[:row_vars])
    right = eq_evals(point[row_vars:])
    gens = pedersen_generators(1 << col_vars)
    expected = msm(commitment.row_commits, left)
    actual = pedersen_commit(opening.t, opening.blinder, gens)
    if not eq(expected, actual):
        return False
    value = sum(tv * rv for tv, rv in zip(opening.t, right)) % R
    return value == opening.value % R
