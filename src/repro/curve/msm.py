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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .bn254 import (
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


def msm(points: Sequence[AffinePoint], scalars: Sequence[int]) -> AffinePoint:
    """``sum_i scalars[i] * points[i]`` over G1 or G2.

    ``None`` points and zero scalars are skipped.  Scalars are reduced mod
    the curve order and folded into ``(-r/2, r/2]`` (:func:`fold_scalar`).
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
