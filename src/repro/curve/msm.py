"""Multi-scalar multiplication (Straus and Pippenger) over BN254 G1/G2.

MSM dominates Groth16's prover cost, so it gets a real algorithm rather than
a naive loop.  Two variants live here:

* Straus interleaving (``_msm_straus``) for inputs under 16 points: each
  point gets a small table of its first multiples and all scalars share
  one doubling chain, and
* a signed-digit (wNAF) Pippenger with batch-affine bucket accumulation
  (``_msm_batch_affine``).  Signed digits halve the bucket count (the
  negation of an affine point is free), and every bucket addition within a
  round shares a single field inversion via Montgomery's trick, so the
  per-point cost drops from ~16 Jacobian multiplications to ~9
  affine-equivalent multiplications.

With ``n`` points and window size ``c`` the cost is roughly
``(254/c) * n`` batched affine additions plus ``(254/c) * 2^c`` Jacobian
additions for the bucket aggregation, instead of ``254 * n / 2`` doublings
and additions for naive double-and-add per point.

Scalars are folded into ``(-r/2, r/2]`` first (:func:`fold_scalar`): a
small negative wire value such as an int8 ``-3`` arrives as the 254-bit
residue ``r - 3``, and folded it recodes to one digit instead of ~254/c.
Only the windows the largest folded scalar reaches are processed.

Both groups share the code: the group comes from the points (see
:class:`~repro.curve.bn254.GroupOps`).  G2 points are converted to int
tuples once on the way in and the result back on the way out.

While the vector engine is active (:func:`repro.field.vector.active_impl`)
a G1 ``msm`` skips both: its live points become one array of
Montgomery-form Fq limbs and the whole MSM is one call of the C kernel
``g1_fixed_msm`` of :mod:`repro.field._native` (:func:`_g1_variable_msm`),
plain variable-base Pippenger whose buckets reduce as trees sharing one
batched inversion per round, the approach of the ZPrize 2022 MSM entries
and gnark-crypto (PERF.md "Native G1 variable-base MSM").  G2, the scalar
engine and hosts without a C compiler run the Python paths above, which
stay the oracle.  The G1 glue of that kernel lives here too
(:func:`_g1_msm`); :mod:`repro.curve.fixed_base` runs its tables through
it.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import List, Optional, Sequence

from ..field import _native
from ..field import vector as _vector
from .bn254 import (
    G1_OPS,
    AffinePoint,
    CURVE_ORDER,
    batch_affine_reduce,
    batch_affine_weighted_bucket_sums,
    group_of,
)

_HALF_ORDER = CURVE_ORDER // 2

# Below this count Straus interleaving wins (no batch scheduling to set up).
_BATCH_AFFINE_MSM_THRESHOLD = 16

# Signed-digit window of the Straus path: digits in ``[-15, 16]``, a
# 16-point table per input point.
_STRAUS_WINDOW = 5


def _window_size(n: int) -> int:
    if n < 4:
        return 2
    if n < 32:
        return 4
    if n < 256:
        return 6
    if n < 4096:
        return 8
    return 12


def _signed_window_size(n: int) -> int:
    """Window size for the batch-affine path.

    Bucket aggregation costs ``2^(c-1)`` lockstep batched rounds per MSM,
    which weighs more per op than the batched per-point additions — the
    optimum (measured on CPython) sits well below the classic ``log2 n``
    rule.
    """
    if n < 128:
        return 5
    if n < 512:
        return 6
    if n < 2048:
        return 7
    if n < 8192:
        return 8
    if n < 32768:
        return 9
    return 10


def signed_digits(scalar: int, c: int, num_windows: int) -> List[int]:
    """Base-``2^c`` signed-digit recoding with digits in ``[-2^(c-1)+1,
    2^(c-1)]``, least significant first.

    A negative scalar recodes ``|scalar|`` and negates every digit, so a
    field element folded into ``(-r/2, r/2]`` costs as many digits as its
    magnitude.  The list stops at the top non-zero digit; ``num_windows``
    bounds its length and must cover ``|scalar|.bit_length() + 1`` bits so
    the final carry is absorbed.
    """
    if scalar < 0:
        return [-d for d in signed_digits(-scalar, c, num_windows)]
    count = (scalar.bit_length() + c) // c  # room for the final carry
    if count > num_windows:
        raise ValueError("num_windows too small for scalar")
    mask = (1 << c) - 1
    half = 1 << (c - 1)
    digits = [0] * count
    carry = 0
    for i in range(count):
        d = ((scalar >> (i * c)) & mask) + carry
        if d > half:
            d -= 1 << c
            carry = 1
        else:
            carry = 0
        digits[i] = d
    if digits and not digits[-1]:
        digits.pop()  # the carry window was not needed
    return digits


def fold_scalar(scalar: int) -> int:
    """The representative of ``scalar`` mod r in ``(-r/2, r/2]``.

    Quantised wires are small signed integers, so ``-v`` arrives as the
    ~254-bit residue ``r - v``; folded back, it recodes to as few digits as
    ``v`` (the negation is free on an affine point).
    """
    scalar %= CURVE_ORDER
    return scalar - CURVE_ORDER if scalar > _HALF_ORDER else scalar


# A bucket-tree round of the C kernel with fewer pairs than this leaves
# its buckets to the Jacobian aggregation: the round's one batched
# inversion (~350 multiplies) must be shared by enough affine additions
# (6 multiplies each, against 11 for a mixed Jacobian one).
_MIN_BATCH_PAIRS = 64


def _g1_kernels(ops):
    """The compiled kernels when an MSM over group ``ops`` runs in C: G1
    while the vector engine is active.  Everything else runs the Python
    group ops, which stay the oracle."""
    if ops is G1_OPS and _vector.active_impl() is not None:
        return _native.load()
    return None


def _check(rc: int) -> None:
    if rc == -1:
        raise MemoryError("G1 kernel out of memory")
    if rc:
        raise ValueError("window out of range or digits beyond the table")


def _g1_limbs(nat, points: Sequence[tuple]):
    """Affine G1 int tuples -> ``(n, 2, 4)`` Montgomery-form limbs."""
    np = _vector.np
    buf = b"".join(
        x.to_bytes(32, "little") + y.to_bytes(32, "little") for x, y in points
    )
    arr = np.frombuffer(buf, dtype="<u8").reshape(len(points), 2, 4).copy()
    nat.fq_to_mont(nat.uptr(arr), nat.uptr(arr), 2 * len(points))
    return arr


def _scalar_limbs(folded: Sequence[int]):
    """Folded scalars -> ``(n, 4)`` magnitude limbs and one sign byte each."""
    np = _vector.np
    mag = b"".join(abs(v).to_bytes(32, "little") for v in folded)
    return (
        np.frombuffer(mag, dtype="<u8").reshape(len(folded), 4),
        np.frombuffer(bytes(v < 0 for v in folded), dtype=np.uint8),
    )


def _g1_msm(nat, tab, step, folded_rows, w, blinding=None) -> List[AffinePoint]:
    """Every row's sum in one call of the C kernel: ``tab`` is a table's
    ``(limbs, idx)`` (``None`` for no bases) with ``limbs`` of shape
    ``(n, shifts, 2, 4)`` holding ``2^(i*step)`` times each base,
    ``folded_rows`` its folded scalar rows at window ``w``; ``blinding =
    (table, scalars)`` adds ``scalars[r]`` times a dense
    :class:`~repro.curve.fixed_base.FixedBaseTable`'s point to row ``r``.
    Only the affine row sums come back as ints."""
    np = _vector.np
    rows = len(folded_rows)
    cols = max(map(len, folded_rows), default=0)
    mag, neg = _scalar_limbs([
        v for row in folded_rows for v in chain(row, repeat(0, cols - len(row)))
    ])
    limbs, idx = tab if tab is not None else (None, np.empty(0, np.int64))
    if cols > len(idx):
        raise ValueError("more scalars than precomputed bases")
    dense = dmag = dneg = None
    dw = dwin = 0
    if blinding is not None:
        table, scalars = blinding
        dense = table._limbs(nat)
        dmag, dneg = _scalar_limbs([fold_scalar(b) for b in scalars])
        dw, dwin = table.window, table.num_windows
    out = np.empty((rows, 2, 4), dtype=np.uint64)
    inf = np.empty(rows, dtype=np.uint8)
    u, b = nat.uptr, nat.bptr
    _check(nat.g1_fixed_msm(
        None if limbs is None else u(limbs), nat.iptr(idx),
        0 if limbs is None else limbs.shape[1], step,
        u(mag), b(neg), rows, cols, w,
        None if dense is None else u(dense), dw, dwin,
        None if dmag is None else u(dmag), None if dneg is None else b(dneg),
        _MIN_BATCH_PAIRS, u(out), b(inf),
    ))
    coords = _vector.from_limbs(out.reshape(-1, 4))
    return [
        None if inf[r] else (coords[2 * r], coords[2 * r + 1])
        for r in range(rows)
    ]


def _native_window(n: int) -> int:
    """Window of a C variable-base MSM over ``n`` live points, from a
    measured sweep (PERF.md "Native G1 variable-base MSM").  C additions
    are cheap next to the Python ones :func:`_signed_window_size` prices,
    so small inputs want fewer buckets."""
    if n < 4:
        return 2
    if n < 16:
        return 3
    if n < 96:
        return 4
    if n < 256:
        return 5
    if n < 512:
        return 6
    if n < 2048:
        return 7
    return 8


def _g1_variable_msm(nat, pts: List[tuple], scs: List[int]) -> AffinePoint:
    """Plain variable-base Pippenger in one C call.

    The live points go in once as an ``(n, 1, 2, 4)`` limb table (one
    stored shift each) at stored step ``w * windows``: the kernel's
    window-divides-step mode then gives every window its own bucket space
    on the points themselves, and combines the spaces with ``w`` doublings
    each.  Only the affine sum comes back."""
    w = _native_window(len(pts))
    windows = (max(abs(sc) for sc in scs).bit_length() + w) // w
    limbs = _g1_limbs(nat, pts).reshape(len(pts), 1, 2, 4)
    idx = _vector.np.arange(len(pts), dtype=_vector.np.int64)
    return _g1_msm(nat, (limbs, idx), w * windows, [scs], w)[0]


def msm(points: Sequence[AffinePoint], scalars: Sequence[int]) -> AffinePoint:
    """``sum_i scalars[i] * points[i]`` over G1 or G2.

    ``None`` points and zero scalars are skipped.  Scalars are reduced mod
    the curve order and folded into ``(-r/2, r/2]`` (:func:`fold_scalar`).
    A G1 MSM runs in C while the vector engine is active
    (:func:`_g1_variable_msm`).
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    pts: List[tuple] = []
    scs: List[int] = []
    for pt, sc in zip(points, scalars):
        sc = fold_scalar(sc)
        if pt is None or sc == 0:
            continue
        pts.append(pt)
        scs.append(sc)
    if not pts:
        return None
    ops = group_of(pts[0])
    nat = _g1_kernels(ops)
    if nat is not None:
        return _g1_variable_msm(nat, pts, scs)
    decode = ops.decode
    pts = [decode(pt) for pt in pts]
    if len(pts) >= _BATCH_AFFINE_MSM_THRESHOLD:
        return ops.encode(_msm_batch_affine(pts, scs))
    if len(pts) > 1:
        return ops.encode(_msm_straus(pts, scs))
    # The unsigned single-point path takes the sign on the point instead.
    pt = ops.neg(pts[0]) if scs[0] < 0 else pts[0]
    return ops.encode(ops.to_affine(ops.jac_mul(ops.to_jac(pt), abs(scs[0]))))


def _msm_straus(pts: List[tuple], scs: List[int]) -> AffinePoint:
    """Straus interleaving over signed digits.

    Each point gets the affine multiples ``P, 2P, ..., 2^(c-1) P`` (built
    for all points together, one shared inversion per multiple), then a
    single left-to-right pass shares its ``c`` doublings per window
    across every scalar and adds each point's digit of that window as one
    mixed addition.  For a
    few points this beats bucket Pippenger, whose per-window aggregation
    outweighs the handful of additions it saves, and separate multiplies,
    which repeat the ~254 doublings per point (PERF.md "Groth16 blinding
    terms").
    """
    ops = group_of(pts[0])
    c = _STRAUS_WINDOW
    half = 1 << (c - 1)
    num_windows = (max(abs(sc) for sc in scs).bit_length() + c) // c
    double, add_affine, neg = ops.jac_double, ops.jac_add_affine, ops.neg
    # Multiple d of every point at once: one batch-affine round per d.
    columns = [pts]
    for _ in range(half - 1):
        columns.append(ops.pairwise_add(columns[-1], pts))
    tables = list(zip(*columns))
    digits = [signed_digits(sc, c, num_windows) for sc in scs]

    infinity = ops.jac_infinity
    result = infinity
    for w in range(num_windows - 1, -1, -1):
        if result != infinity:
            for _ in range(c):
                result = double(result)
        for table, ds in zip(tables, digits):
            if w < len(ds):
                d = ds[w]
                if d > 0:
                    result = add_affine(result, table[d - 1])
                elif d:
                    result = add_affine(result, neg(table[-d - 1]))
    return ops.to_affine(result)


def _msm_batch_affine(pts: List[tuple], scs: List[int]) -> AffinePoint:
    """Signed-digit Pippenger with batch-affine buckets.

    All windows' buckets are filled and reduced in one
    :func:`batch_affine_reduce` call, maximising the batch size each
    inversion is shared across; only the per-window aggregation and the
    window-combining doublings stay in Jacobian coordinates.  Scalars are
    folded (possibly negative), and only the windows the largest of them
    reaches are aggregated.
    """
    ops = group_of(pts[0])
    c = _signed_window_size(len(pts))
    half = 1 << (c - 1)
    num_windows = (max(abs(sc) for sc in scs).bit_length() + c) // c
    neg = ops.neg
    # groups[w * half + (|d| - 1)] collects points with digit d in window w.
    groups: List[List[tuple]] = [[] for _ in range(num_windows * half)]
    for pt, sc in zip(pts, scs):
        base = 0
        for d in signed_digits(sc, c, num_windows):
            if d > 0:
                groups[base + d - 1].append(pt)
            elif d < 0:
                groups[base - d - 1].append(neg(pt))
            base += half
    buckets = batch_affine_reduce(groups)
    window_sums = batch_affine_weighted_bucket_sums(
        [buckets[w * half:(w + 1) * half] for w in range(num_windows)]
    )

    infinity, double, add_affine = (
        ops.jac_infinity, ops.jac_double, ops.jac_add_affine
    )
    result = infinity
    for w in range(num_windows - 1, -1, -1):
        if result != infinity:
            for _ in range(c):
                result = double(result)
        if window_sums[w] is not None:
            result = add_affine(result, window_sums[w])
    return ops.to_affine(result)


def _msm_jacobian(pts: List[tuple], scs: List[int]) -> AffinePoint:
    """Classic unsigned-window Pippenger in Jacobian coordinates.

    The equivalence-test and benchmark reference (``naive_ops_per_sec``)
    for small MSMs; ``msm`` runs :func:`_msm_straus` instead, faster at
    every size below 16 (PERF.md "Groth16 blinding terms").  Scalars must
    be non-negative: callers put a folded scalar's sign on its point.
    """
    ops = group_of(pts[0])
    c = _window_size(len(pts))
    num_windows = (max(scs).bit_length() + c - 1) // c
    mask = (1 << c) - 1
    infinity, double, add = ops.jac_infinity, ops.jac_double, ops.jac_add
    jacs = [ops.to_jac(pt) for pt in pts]

    result = infinity
    for w in range(num_windows - 1, -1, -1):
        if result != infinity:
            for _ in range(c):
                result = double(result)
        buckets: List[Optional[tuple]] = [None] * (1 << c)
        shift = w * c
        for jac, sc in zip(jacs, scs):
            digit = (sc >> shift) & mask
            if digit:
                cur = buckets[digit]
                buckets[digit] = jac if cur is None else add(cur, jac)
        running: Optional[tuple] = None
        window_sum: Optional[tuple] = None
        for digit in range(len(buckets) - 1, 0, -1):
            b = buckets[digit]
            if b is not None:
                running = b if running is None else add(running, b)
            if running is not None:
                window_sum = (
                    running if window_sum is None else add(window_sum, running)
                )
        if window_sum is not None:
            result = add(result, window_sum)
    return ops.to_affine(result)
