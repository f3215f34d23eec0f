"""Fixed-base scalar multiplication: precomputed window tables over G1/G2.

The prover's hottest MSMs run over *fixed* generator vectors — the Pedersen
generators behind every Hyrax row commitment, and the Groth16 proving-key
queries (G1 and G2), which are reused across proofs.  Precomputing shifted
multiples of each base turns those MSMs into pure table lookups:

* :class:`FixedBaseTable` — a dense signed-digit table for one heavily
  reused point (the G1 and G2 generators in the trusted setup, the Hyrax
  blinder generator).  A scalar mul becomes ``~254/w`` mixed additions
  with **no doublings**; a caller can instead hand the table and its
  scalars to ``FixedBaseMSM.msm_many`` (``blinding``), whose reduction
  then takes one stored point per digit into each row's weight-1 bucket.
* :class:`FixedBaseMSM` — per base point, the shifted copies
  ``2^(i*step) * P_j``.  An MSM then scatters signed digits into shared
  bucket spaces (the window shift is baked into the point, so digits from
  every window can share buckets) and reduces them with batch-affine
  additions — no per-window passes.  Scalars are folded into
  ``(-r/2, r/2]`` first, so a small negative one costs a digit or two,
  like its magnitude.  Each call picks its window from the scalars it is
  given: a multiple of the stored step (every few stored shifts), or a
  divisor of it (a few bucket spaces, combined with doublings).

This module keeps no tables of its own: their owners hold them.  A Groth16
proving key holds its five query tables, built by its second proof
(:meth:`~repro.groth16.keys.ProvingKey.tables`), and they are freed with
the key; the Hyrax prover grows one process-wide Pedersen table
(:func:`~repro.spartan.commitment.pedersen_table`).

Two engines run the tables, and :func:`repro.field.vector.active_impl`
picks one per call, the same rule as for the field kernels:

* **C**, for G1 while the vector engine is active: a table is one array
  of Montgomery-form Fq limbs, built by the kernels of
  :mod:`repro.field._native` from the batch-normalised shifts, and a call
  is one C call (:func:`repro.curve.msm._g1_msm`, the glue this module
  shares with the variable-base ``msm``) that recodes the folded scalars,
  fills the buckets straight from the table, reduces them as trees with
  one batched inversion per round, aggregates them and returns only the
  affine row sums as ints (PERF.md "Native G1 fixed-base MSM");
* **Python**, for G2, for the scalar engine and on hosts without a C
  compiler: the group ops of :class:`~repro.curve.bn254.GroupOps` on
  int tuples, the oracle the C engine is tested against.  G2 bases are
  converted to int tuples once, when a table is built, and results
  convert back.

A table holds one representation at a time; a call that finds the other
engine active converts it first.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..field import vector as _vector
from ..field.prime_field import BN254_FQ_MODULUS as _FQ
from .bn254 import (
    AffinePoint,
    CURVE_ORDER,
    _group_of_any,
    batch_affine_reduce,
    batch_affine_weighted_bucket_sums,
    group_of,
)
from .msm import (
    _check,
    _g1_kernels,
    _g1_limbs,
    _g1_msm,
    fold_scalar,
    signed_digits,
)

_SCALAR_BITS = CURVE_ORDER.bit_length()

# Stored step of a :class:`FixedBaseMSM` built without one (the Groth16
# query tables, G1 and G2): 33 shifts per base, and calls run w = 2, 4 or 8
# (PERF.md "Groth16 query tables").
_DEFAULT_STEP = 8

# Signed-digit window of a :class:`FixedBaseTable`: 51 windows of 16
# points, fewer than the 64 x 15 of an unsigned w=4 table, for ~51
# additions per mul instead of ~60 (PERF.md "Groth16 blinding terms").
_TABLE_WINDOW = 5

# A table stored at step ``s`` can run any divisor of ``s`` and any
# multiple of ``s`` up to this bound, the largest window any table here
# runs and the largest one measured.
_MAX_CALL_WINDOW = 8

# Cost of aggregating one bucket, in bucket insertions, in the estimate
# that picks a call's window (PERF.md "Hyrax commit").  ``msm_many`` sums
# every row's buckets in one lockstep batch-affine sweep; ``msm`` sums one
# row's with Jacobian additions and so weighs more per bucket.
_AGG_WEIGHT_MANY = 1
_AGG_WEIGHT_ONE = 1.5


def _candidate_windows(step: int) -> Tuple[int, ...]:
    """Windows a table stored at ``step`` runs: every divisor of the step
    from 2 up (``step // w`` bucket spaces over the stored shifts), and
    every multiple of it up to :data:`_MAX_CALL_WINDOW` (every
    ``(w // step)``-th stored shift)."""
    divisors = tuple(w for w in range(2, step) if step % w == 0)
    return divisors + tuple(
        range(step, max(step, _MAX_CALL_WINDOW) + 1, step)
    )


def _spaces(step: int, w: int) -> int:
    """Bucket spaces of window ``w`` on a table stored at ``step``."""
    return max(1, step // w)


def _num_windows(window: int) -> int:
    """Signed-digit windows covering a reduced scalar plus its carry."""
    return (_SCALAR_BITS + window) // window + 1


def _window_costs(
    windows: Sequence[int],
    step: int,
    folded_rows: Sequence[Sequence[int]],
    shifted: Sequence[Optional[list]],
    weight: float,
) -> Dict[int, float]:
    """Estimated cost of an MSM call at each candidate window.

    ``sum_j ceil((bits_j + 1) / w)`` bucket insertions over the call's
    non-zero folded scalars whose base is present (``shifted[j]`` not
    ``None``), plus ``weight * rows * spaces * 2^w`` for aggregating each
    row's ``2^(w-1)`` buckets in each of its bucket spaces.  The scalars
    enter through one bit-length histogram.
    """
    hist = [0] * (_SCALAR_BITS + 1)
    for row in folded_rows:
        for sc, base in zip(row, shifted):
            if sc and base is not None:
                hist[abs(sc).bit_length()] += 1
    sizes = [(bits, count) for bits, count in enumerate(hist) if count]
    rows = len(folded_rows)
    return {
        w: sum(count * ((bits + w) // w) for bits, count in sizes)
        + weight * rows * _spaces(step, w) * (1 << w)
        for w in windows
    }


# 2^-256 mod q: Montgomery-form limbs back to canonical coordinates.
_MONT_INV = pow(2, -256, _FQ)


def _g1_points(limbs) -> List[tuple]:
    """Montgomery-form limbs ``(..., 2, 4)`` -> affine int tuples."""
    vals = [v * _MONT_INV % _FQ for v in _vector.from_limbs(limbs.reshape(-1, 4))]
    return list(zip(vals[0::2], vals[1::2]))


def _g1_shift_limbs(nat, points: Sequence[tuple], shifts: int, step: int):
    """``(n, shifts, 2, 4)`` limbs of ``2^(i*step) * P`` for every point."""
    np = _vector.np
    out = np.empty((len(points), shifts, 2, 4), dtype=np.uint64)
    bases = _g1_limbs(nat, points)
    _check(nat.g1_shifts(
        nat.uptr(bases), len(points), shifts, step, nat.uptr(out)
    ))
    return out


def _row_index(rows: Sequence, start: int = 0):
    """Limb-array row of each entry: ``start``, ``start + 1``, ... for the
    present ones in order, ``-1`` for a ``None``."""
    idx, k = [], start
    for row in rows:
        idx.append(-1 if row is None else k)
        k += row is not None
    return _vector.np.array(idx, dtype=_vector.np.int64)


def _table_windows(window: int) -> int:
    """Signed-digit windows of a folded scalar (at most 253 bits) plus its
    carry."""
    return (_SCALAR_BITS - 1 + window) // window


class FixedBaseTable:
    """Dense signed-digit table for one reused point.

    Window ``i`` stores ``d * 2^(i*w) * P`` for every digit ``d`` in
    ``1..2^(w-1)``.  ``lookups`` folds its scalar into ``(-r/2, r/2]``,
    recodes it into signed digits and returns one stored point per
    non-zero digit, negated for a negative one; ``mul`` adds them up —
    nothing else.  Storage is ``ceil(254/w) * 2^(w-1)`` affine points: 816
    at the default w=5, 4,096 at w=8.

    A G1 table built while the vector engine is active holds ``tables`` as
    one ``(windows, 2^(w-1), 2, 4)`` array of Montgomery-form limbs, built
    by the C kernels, and ``mul`` runs in C; every other table holds
    affine tuples.
    """

    def __init__(self, point: AffinePoint, window: int = _TABLE_WINDOW):
        self.point = point
        self.window = window
        self.num_windows = _table_windows(window)
        self.tables = []
        if point is None:
            return
        self.ops = ops = group_of(point)
        half = 1 << (window - 1)
        nat = _g1_kernels(ops)
        if nat is not None:
            bases = _g1_shift_limbs(nat, [point], self.num_windows, window)
            tables = _vector.np.empty(
                (self.num_windows, half, 2, 4), dtype=_vector.np.uint64
            )
            _check(nat.g1_multiples(
                nat.uptr(bases), self.num_windows, half, nat.uptr(tables)
            ))
            self.tables = tables
            return
        double = ops.jac_double
        # The window bases 2^(i*w) * P from one doubling chain, then digit
        # d of every window at once: one batch-affine round per digit.
        base = ops.to_jac(ops.decode(point))
        jacs = [base]
        for _ in range(self.num_windows - 1):
            for _ in range(window):
                base = double(base)
            jacs.append(base)
        bases = ops.normalize_batch(jacs)
        columns = [bases]
        for _d in range(half - 1):
            columns.append(ops.pairwise_add(columns[-1], bases))
        self.tables = [list(row) for row in zip(*columns)]

    def _limbs(self, nat):
        """The table as limbs for the C kernel (a tuple table built under
        the Python engine converts once, replacing its tuples)."""
        if isinstance(self.tables, list):
            flat = _g1_limbs(nat, [pt for row in self.tables for pt in row])
            self.tables = flat.reshape(self.num_windows, -1, 2, 4)
        return self.tables

    def lookups(self, scalar: int) -> List[tuple]:
        """The stored points that sum to ``scalar * P``: one per non-zero
        signed digit of the folded scalar, negated for a negative digit,
        as decoded affine tuples of the table's group."""
        scalar = fold_scalar(scalar)
        if scalar == 0 or self.point is None:
            return []
        tables = self.tables
        digits = [
            (i, d) for i, d in enumerate(
                signed_digits(scalar, self.window, self.num_windows)
            ) if d
        ]
        points = [tables[i][abs(d) - 1] for i, d in digits]
        if not isinstance(tables, list):
            points = _g1_points(_vector.np.array(points))
        neg = self.ops.neg
        return [pt if d > 0 else neg(pt) for pt, (_, d) in zip(points, digits)]

    def mul(self, scalar: int) -> AffinePoint:
        """``scalar * P`` via table lookups (matches ``multiply``)."""
        nat = None if self.point is None else _g1_kernels(self.ops)
        if nat is not None:
            # No bases, only the dense digits in the weight-1 bucket.
            return _g1_msm(nat, None, 2, [[]], 2, (self, [scalar]))[0]
        points = self.lookups(scalar)
        if not points:
            return None
        ops = self.ops
        add_affine = ops.jac_add_affine
        acc = ops.jac_infinity
        for pt in points:
            acc = add_affine(acc, pt)
        return ops.encode(ops.to_affine(acc))


class FixedBaseMSM:
    """Fixed-base MSM over a vector of bases with shared signed-digit
    buckets.

    Per base only the shifted copies ``2^(i*step) * P_j`` are stored (33
    points at the default step 8), built with a doubling chain and one
    batched normalisation.  Because each window's shift lives in the
    precomputed point, the digits of *every* window land in one bucket
    space of ``2^(w-1)`` signed buckets; at ``w = step`` the whole MSM is
    ``n * 254/w`` batch-affine bucket insertions plus a single aggregation
    sweep.

    ``window`` is the stored step (default 8).  Each call runs the
    candidate window (``self.windows``) that :func:`_window_costs`
    estimates cheapest for its scalars:

    * a multiple ``w`` of the step takes every ``(w // step)``-th stored
      shift, still one bucket space;
    * a divisor ``w`` of the step uses ``k = step // w`` bucket spaces:
      digit ``i`` takes stored shift ``i // k`` into space ``i % k``, and
      the spaces combine high to low with ``w`` doublings between them
      (Brickell–Gordon–McCurley–Wilson).  Small scalars then pay small
      windows' few buckets without a finer table.

    The window schedules the sum; it never changes it.

    A G1 table runs each call in one call of the C kernel while the vector
    engine is active (:func:`_g1_msm`): its rows are then one
    ``(bases, shifts, 2, 4)`` array of Montgomery-form limbs plus a row
    index per base (``-1`` for an absent one), and ``shifted`` lists views
    into that array.  Under the Python engine ``shifted`` holds affine
    tuples.  A table converts when a call finds the other engine active,
    and :meth:`extend` replaces the array instead of growing it in place,
    so a call running in C (which releases the GIL) keeps the array it
    started with.
    """

    def __init__(
        self, points: Sequence[AffinePoint] = (), window: Optional[int] = None
    ):
        self.ops = _group_of_any(points)
        self.step = _DEFAULT_STEP if window is None else window
        self.windows = _candidate_windows(self.step)
        self.num_windows = _num_windows(self.step)
        self.shifted: list = []
        self._tab = None  # (limbs, idx) while the rows are limbs
        self._lock = threading.Lock()
        if points:
            self.extend(points)

    def __len__(self) -> int:
        return len(self.shifted)

    def _set_tab(self, limbs, idx) -> None:
        self._tab = (limbs, idx)
        self.shifted = [None if i < 0 else limbs[i] for i in idx.tolist()]

    def _convert(self, nat) -> None:
        """Bring the rows into the form of the engine ``nat`` says is
        active (the caller holds the lock)."""
        if (nat is not None) == (self._tab is not None):
            return
        if nat is None:
            limbs, idx = self._tab
            flat = _g1_points(limbs)
            nw = self.num_windows
            self.shifted = [
                None if i < 0 else flat[i * nw:(i + 1) * nw]
                for i in idx.tolist()
            ]
            self._tab = None
            return
        rows = [row for row in self.shifted if row is not None]
        limbs = _g1_limbs(nat, [pt for row in rows for pt in row])
        self._set_tab(
            limbs.reshape(len(rows), self.num_windows, 2, 4),
            _row_index(self.shifted),
        )

    def _engine(self):
        """``(kernels, (limbs, idx))`` when this call runs in C, else
        ``(None, None)``, with the rows in that engine's form."""
        nat = _g1_kernels(self.ops)
        tab = self._tab
        if (nat is not None) != (tab is not None):
            with self._lock:
                self._convert(nat)
                tab = self._tab
        return nat, tab

    def extend(self, points: Sequence[AffinePoint]) -> None:
        """Append precomputed rows for ``points``."""
        nat = _g1_kernels(self.ops)
        with self._lock:
            self._convert(nat)
            if nat is not None:
                np = _vector.np
                live = [pt for pt in points if pt is not None]
                limbs, idx = self._tab
                self._set_tab(
                    np.concatenate([limbs, _g1_shift_limbs(
                        nat, live, self.num_windows, self.step
                    )]),
                    np.concatenate([idx, _row_index(points, len(limbs))]),
                )
                return
            self._extend_tuples(points)

    def _extend_tuples(self, points: Sequence[AffinePoint]) -> None:
        ops = self.ops
        double = ops.jac_double
        jacs: List[tuple] = []
        for pt in points:
            if pt is None:
                continue
            cur = ops.to_jac(ops.decode(pt))
            for i in range(self.num_windows):
                jacs.append(cur)
                if i + 1 < self.num_windows:
                    for _ in range(self.step):
                        cur = double(cur)
        flat = ops.normalize_batch(jacs)
        offset = 0
        for pt in points:
            if pt is None:
                self.shifted.append(None)
            else:
                self.shifted.append(flat[offset:offset + self.num_windows])
                offset += self.num_windows

    def _fold(self, scalar_rows: Sequence[Sequence[int]]) -> List[List[int]]:
        """Every row's scalars folded into ``(-r/2, r/2]``, once per call."""
        n = len(self.shifted)
        folded = []
        for row in scalar_rows:
            if len(row) > n:
                raise ValueError("more scalars than precomputed bases")
            folded.append([fold_scalar(sc) for sc in row])
        return folded

    def _window_for(self, folded_rows: List[List[int]], weight: float) -> int:
        """The call's window: the table's only one, or the candidate with
        the lowest estimated cost."""
        if len(self.windows) == 1:
            return self.windows[0]
        costs = _window_costs(
            self.windows, self.step, folded_rows, self.shifted, weight
        )
        return min(costs, key=costs.__getitem__)

    def _shifts(self, w: int, width: int) -> List[Optional[List[tuple]]]:
        """The first ``width`` bases' shifts at a window ``w`` that is a
        multiple of the step: digit ``i`` of a scalar is ``row[i]`` of its
        base's list."""
        k = w // self.step
        if k == 1:
            return self.shifted
        return [
            None if row is None else row[::k] for row in self.shifted[:width]
        ]

    def _fill_groups(
        self,
        groups: List[List[tuple]],
        folded: Sequence[int],
        base: int,
        w: int,
        shifts: List[Optional[List[tuple]]],
    ) -> None:
        nw, neg = _num_windows(w), self.ops.neg
        for j, sc in enumerate(folded):
            row = shifts[j]
            if sc == 0 or row is None:
                continue
            for i, d in enumerate(signed_digits(sc, w, nw)):
                if d > 0:
                    groups[base + d - 1].append(row[i])
                elif d:
                    groups[base - d - 1].append(neg(row[i]))

    def _fill_spaces(
        self,
        groups: List[List[tuple]],
        folded: Sequence[int],
        slots: Sequence[Tuple[int, int]],
        w: int,
    ) -> None:
        """:meth:`_fill_groups` for a window dividing the step: digit ``i``
        goes to ``slots[i]``, its stored shift and the bucket offset of its
        space."""
        nw, neg, shifted = _num_windows(w), self.ops.neg, self.shifted
        for j, sc in enumerate(folded):
            row = shifted[j]
            if sc == 0 or row is None:
                continue
            for (t, off), d in zip(slots, signed_digits(sc, w, nw)):
                if d > 0:
                    groups[off + d].append(row[t])
                elif d:
                    groups[off - d].append(neg(row[t]))

    def _buckets(
        self,
        folded_rows: List[List[int]],
        w: int,
        extra: Optional[Sequence[Sequence[tuple]]] = None,
    ) -> Tuple[List[AffinePoint], int]:
        """Every row's reduced buckets at window ``w``, and the number of
        bucket spaces per row: space ``sp`` of row ``r`` is the
        ``2^(w-1)`` buckets from ``(r * spaces + sp) * 2^(w-1)``.
        ``extra[r]`` joins row ``r``'s digit-1 bucket of space 0, the one
        bucket of weight 1."""
        half = 1 << (w - 1)
        spaces = _spaces(self.step, w)
        width = spaces * half
        groups: List[List[tuple]] = [[] for _ in range(len(folded_rows) * width)]
        if spaces == 1:
            shifts = self._shifts(w, max(map(len, folded_rows), default=0))
            for r, row in enumerate(folded_rows):
                self._fill_groups(groups, row, r * half, w, shifts)
        else:
            for r, row in enumerate(folded_rows):
                # Offsets are one below the bucket of digit 1.
                slots = [
                    (i // spaces, r * width + (i % spaces) * half - 1)
                    for i in range(_num_windows(w))
                ]
                self._fill_spaces(groups, row, slots, w)
        for r, points in enumerate(extra or ()):
            groups[r * width].extend(points)
        return batch_affine_reduce(groups), spaces

    def msm(self, scalars: Sequence[int]) -> AffinePoint:
        """``sum_j scalars[j] * P_j`` (scalars may be a prefix)."""
        folded = self._fold([scalars])
        w = self._window_for(folded, _AGG_WEIGHT_ONE)
        nat, tab = self._engine()
        if nat is not None:
            return _g1_msm(nat, tab, self.step, folded, w)[0]
        half = 1 << (w - 1)
        buckets, spaces = self._buckets(folded, w)
        ops = self.ops
        infinity, double, add, add_affine = (
            ops.jac_infinity, ops.jac_double, ops.jac_add, ops.jac_add_affine
        )
        total = infinity
        for sp in range(spaces - 1, -1, -1):
            if total != infinity:
                for _ in range(w):
                    total = double(total)
            running = infinity
            for b in reversed(buckets[sp * half:(sp + 1) * half]):
                if b is not None:
                    running = add_affine(running, b)
                if running != infinity:
                    total = add(total, running)
        return ops.encode(ops.to_affine(total))

    def msm_many(
        self,
        scalar_rows: Sequence[Sequence[int]],
        blinding: Optional[Tuple[FixedBaseTable, Sequence[int]]] = None,
    ) -> List[AffinePoint]:
        """Many MSMs over the same bases — every row's buckets (each of its
        bucket spaces) reduce in one batch-affine call and aggregate in one
        sweep, so the inversion cost is shared across the whole matrix
        (this is the Hyrax row-commitment hot path).  One window serves
        the whole matrix.

        ``blinding = (table, scalars)``, if given, adds ``scalars[r]``
        times the point of the dense :class:`FixedBaseTable` ``table`` to
        row ``r``: the points of its digits (:meth:`FixedBaseTable.lookups`)
        join the row's weight-1 bucket, so they share the reduction's
        inversions and stay out of the window estimate."""
        if blinding is not None and len(blinding[1]) != len(scalar_rows):
            raise ValueError("one blinding scalar per row")
        folded = self._fold(scalar_rows)
        w = self._window_for(folded, _AGG_WEIGHT_MANY)
        nat, tab = self._engine()
        if nat is not None:
            return _g1_msm(nat, tab, self.step, folded, w, blinding)
        extra = None
        if blinding is not None:
            table, scalars = blinding
            extra = [table.lookups(b) for b in scalars]
        half = 1 << (w - 1)
        buckets, spaces = self._buckets(folded, w, extra)
        sums = batch_affine_weighted_bucket_sums(
            [buckets[i * half:(i + 1) * half]
             for i in range(len(folded) * spaces)]
        )
        ops = self.ops
        if spaces == 1:
            return [ops.encode(pt) for pt in sums]
        double, add_affine = ops.jac_double, ops.jac_add_affine
        totals = []
        for r in range(len(folded)):
            total = ops.jac_infinity
            for pt in reversed(sums[r * spaces:(r + 1) * spaces]):
                if total != ops.jac_infinity:
                    for _ in range(w):
                        total = double(total)
                if pt is not None:
                    total = add_affine(total, pt)
            totals.append(total)
        return [ops.encode(pt) for pt in ops.normalize_batch(totals)]
