"""BN254 (alt_bn128) elliptic-curve arithmetic.

* ``G1``: points over Fq on ``y^2 = x^3 + 3``, affine tuples plus a Jacobian
  fast path for scalar multiplication.
* ``G2``: points over Fq2 on the sextic twist ``y^2 = x^3 + 3/(9+u)``;
  the fast paths run on int tuples in :mod:`repro.curve.g2`.

Points are represented as ``(x, y)`` tuples of field values with ``None``
standing for the point at infinity — the same convention py_ecc uses, which
keeps the pairing code generic over the coordinate field.

:class:`GroupOps` bundles the int-tuple operations of one group, so the
batch-affine reductions here and the MSMs in :mod:`repro.curve.msm` and
:mod:`repro.curve.fixed_base` are written once for both groups.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..field.extension import Fq2, Fq12, P
from ..field.prime_field import BN254_FR_MODULUS, batch_inv_mod, inv_mod
from . import g2 as _g2

# Group order (prime) — scalars live mod this.
CURVE_ORDER = BN254_FR_MODULUS

B1 = 3
# b for the twist: 3 / (9 + u) in Fq2.
B2 = Fq2([3, 0]) / Fq2([9, 1])

G1_GENERATOR: Tuple[int, int] = (1, 2)
G2_GENERATOR: Tuple[Fq2, Fq2] = (
    Fq2([
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ]),
    Fq2([
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ]),
)

AffinePoint = Optional[Tuple[object, object]]


# --------------------------------------------------------------------------
# Generic affine arithmetic (works for Fq ints, Fq2 and Fq12 coordinates).
# --------------------------------------------------------------------------

def is_on_curve(point: AffinePoint, b) -> bool:
    """Check the short-Weierstrass equation for a point (None = infinity)."""
    if point is None:
        return True
    x, y = point
    if isinstance(x, int):
        return (y * y - x * x * x - b) % P == 0
    return y * y - x * x * x == b


def _field_inv(v):
    if isinstance(v, int):
        return inv_mod(v, P)
    return v.inv()


def double(point: AffinePoint) -> AffinePoint:
    if point is None:
        return None
    x, y = point
    if isinstance(x, int):
        if y == 0:
            return None
        slope = 3 * x * x % P * inv_mod(2 * y % P, P) % P
        nx = (slope * slope - 2 * x) % P
        ny = (slope * (x - nx) - y) % P
        return (nx, ny)
    if y.is_zero():
        return None
    slope = (x * x * 3) / (y * 2)
    nx = slope * slope - x * 2
    ny = slope * (x - nx) - y
    return (nx, ny)


def add(p1: AffinePoint, p2: AffinePoint) -> AffinePoint:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if isinstance(x1, int):
        if x1 == x2:
            if (y1 + y2) % P == 0:
                return None
            return double(p1)
        slope = (y2 - y1) % P * inv_mod((x2 - x1) % P, P) % P
        nx = (slope * slope - x1 - x2) % P
        ny = (slope * (x1 - nx) - y1) % P
        return (nx, ny)
    if x1 == x2:
        if (y1 + y2).is_zero():
            return None
        return double(p1)
    slope = (y2 - y1) / (x2 - x1)
    nx = slope * slope - x1 - x2
    ny = slope * (x1 - nx) - y1
    return (nx, ny)


def neg(point: AffinePoint) -> AffinePoint:
    if point is None:
        return None
    x, y = point
    if isinstance(x, int):
        return (x, -y % P)
    return (x, -y)


def multiply(point: AffinePoint, scalar: int) -> AffinePoint:
    """Scalar multiplication in Jacobian coordinates (no inversions inside
    the loop); a G2 point runs on int tuples and converts back."""
    scalar %= CURVE_ORDER
    if point is None or scalar == 0:
        return None
    ops = group_of(point)
    return ops.encode(
        ops.to_affine(ops.jac_mul(ops.to_jac(ops.decode(point)), scalar))
    )


def eq(p1: AffinePoint, p2: AffinePoint) -> bool:
    return p1 == p2


# --------------------------------------------------------------------------
# Jacobian coordinates for G1 (x, y, z) with X = x/z^2, Y = y/z^3.
# --------------------------------------------------------------------------

JacPoint = Tuple[int, int, int]
JAC_INFINITY: JacPoint = (1, 1, 0)


def _affine_to_jac(point: AffinePoint) -> JacPoint:
    if point is None:
        return JAC_INFINITY
    return (point[0], point[1], 1)


def _jac_to_affine(point: JacPoint) -> AffinePoint:
    x, y, z = point
    if z == 0:
        return None
    z_inv = inv_mod(z, P)
    z2 = z_inv * z_inv % P
    return (x * z2 % P, y * z2 % P * z_inv % P)


def _jac_double(pt: JacPoint) -> JacPoint:
    x, y, z = pt
    if z == 0 or y == 0:
        return JAC_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jac_add(p1: JacPoint, p2: JacPoint) -> JacPoint:
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 % P * z2z2 % P
    s2 = y2 * z1 % P * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return JAC_INFINITY
        return _jac_double(p1)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h % P * z1 % P * z2 % P
    return (nx, ny, nz)


def _jac_add_affine(p1: JacPoint, p2: Tuple[int, int]) -> JacPoint:
    """Mixed addition: Jacobian + affine (z2 = 1), saving ~4 field muls."""
    if p1[2] == 0:
        return (p2[0], p2[1], 1)
    x1, y1, z1 = p1
    x2, y2 = p2
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 % P * z1z1 % P
    if x1 == u2:
        if y1 != s2:
            return JAC_INFINITY
        return _jac_double(p1)
    h = (u2 - x1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - y1) % P
    v = x1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * y1 * j) % P
    nz = 2 * h * z1 % P
    return (nx, ny, nz)


def _jac_normalize_batch(points: Sequence[JacPoint]) -> List[AffinePoint]:
    """Convert many Jacobian points to affine with one shared inversion
    (Montgomery's trick); infinities come back as ``None``."""
    zs = [pt[2] for pt in points if pt[2] != 0]
    invs = iter(batch_inv_mod(zs, P))
    out: List[AffinePoint] = []
    for x, y, z in points:
        if z == 0:
            out.append(None)
            continue
        z_inv = next(invs)
        z2 = z_inv * z_inv % P
        out.append((x * z2 % P, y * z2 % P * z_inv % P))
    return out


def _jac_mul(pt: JacPoint, scalar: int) -> JacPoint:
    """Left-to-right 4-bit windowed scalar multiplication."""
    if scalar == 0 or pt[2] == 0:
        return JAC_INFINITY
    window = 4
    table = [JAC_INFINITY, pt]
    for _ in range(2, 1 << window):
        table.append(_jac_add(table[-1], pt))
    result = JAC_INFINITY
    nibbles = []
    while scalar:
        nibbles.append(scalar & ((1 << window) - 1))
        scalar >>= window
    for digit in reversed(nibbles):
        for _ in range(window):
            result = _jac_double(result)
        if digit:
            result = _jac_add(result, table[digit])
    return result


def _g1_pairwise_add(
    lhs: Sequence[AffinePoint], rhs: Sequence[AffinePoint]
) -> List[AffinePoint]:
    """Elementwise ``lhs[i] + rhs[i]`` over G1 sharing one inversion across
    all the independent additions.  Infinities pass through (their
    placeholder denominator 1 keeps the two passes aligned) and
    ``P + (-P)`` gives ``None``."""
    dens: List[int] = []
    for p1, p2 in zip(lhs, rhs):
        if p1 is None or p2 is None:
            dens.append(1)
        elif p1[0] != p2[0]:
            dens.append(p2[0] - p1[0])
        else:
            # Doubling needs 2y; a cancelling pair gets a placeholder.
            dens.append(2 * p1[1] if (p1[1] + p2[1]) % P else 1)
    out: List[AffinePoint] = []
    for p1, p2, inv in zip(lhs, rhs, batch_inv_mod(dens, P)):
        if p1 is None:
            out.append(p2)
            continue
        if p2 is None:
            out.append(p1)
            continue
        x1, y1 = p1
        x2, y2 = p2
        if x1 != x2:
            slope = (y2 - y1) * inv % P
        elif (y1 + y2) % P:
            slope = 3 * x1 * x1 % P * inv % P
        else:
            out.append(None)
            continue
        nx = (slope * slope - x1 - x2) % P
        out.append((nx, (slope * (x1 - nx) - y1) % P))
    return out


def _g1_neg(point: Tuple[int, int]) -> Tuple[int, int]:
    return (point[0], -point[1] % P)


def _identity(point):
    return point


class GroupOps(NamedTuple):
    """What the MSM layer needs from one group, on int tuples.

    Affine points are ``(x, y)`` in G1 and ``(x0, x1, y0, y1)`` in G2, with
    ``None`` for infinity; ``decode``/``encode`` convert from and to the
    public point type (the identity for G1, ``(Fq2, Fq2)`` for G2);
    ``coords`` is the number of ints in an affine point.
    """

    jac_infinity: tuple
    to_jac: Callable
    to_affine: Callable
    jac_double: Callable
    jac_add: Callable
    jac_add_affine: Callable
    jac_mul: Callable
    normalize_batch: Callable
    pairwise_add: Callable
    neg: Callable
    decode: Callable
    encode: Callable
    coords: int


G1_OPS = GroupOps(
    JAC_INFINITY, _affine_to_jac, _jac_to_affine, _jac_double, _jac_add,
    _jac_add_affine, _jac_mul, _jac_normalize_batch, _g1_pairwise_add,
    _g1_neg, _identity, _identity, 2,
)
G2_OPS = GroupOps(
    _g2.JAC_INFINITY, _g2.affine_to_jac, _g2.jac_to_affine, _g2.jac_double,
    _g2.jac_add, _g2.jac_add_affine, _g2.jac_mul, _g2.jac_normalize_batch,
    _g2.batch_affine_pairwise_add, _g2.neg, _g2.to_ints, _g2.from_ints, 4,
)


def group_of(point) -> GroupOps:
    """The group of a (non-infinity) point: G1 points are ``(x, y)`` ints,
    G2 points ``(Fq2, Fq2)`` or, inside the MSM layer, 4 ints."""
    if len(point) == 2 and isinstance(point[0], int):
        return G1_OPS
    return G2_OPS


def _group_of_any(points) -> GroupOps:
    for pt in points:
        if pt is not None:
            return group_of(pt)
    return G1_OPS


def batch_affine_pairwise_add(
    lhs: Sequence[AffinePoint], rhs: Sequence[AffinePoint]
) -> List[AffinePoint]:
    """Elementwise ``lhs[i] + rhs[i]`` (int-tuple points of either group)
    sharing one field inversion across all the independent additions."""
    return _group_of_any(chain(lhs, rhs)).pairwise_add(lhs, rhs)


def batch_affine_reduce(
    groups: Sequence[Sequence[AffinePoint]],
) -> List[AffinePoint]:
    """Sum each group of affine points using batched-inversion affine adds.

    An affine addition costs one field inversion plus ~6 multiplications;
    Montgomery's trick shares a single inversion across every independent
    addition in a round.  Each group is reduced as a binary tree, so all
    groups finish in ``O(log max_group)`` rounds and the per-addition cost
    approaches ~9 multiplications — versus ~16 for a Jacobian addition
    (plus the final normalisation inversions a Jacobian accumulator needs).
    """
    queues: List[List[AffinePoint]] = [
        [pt for pt in grp if pt is not None] for grp in groups
    ]
    add_pairs = _group_of_any(q[0] for q in queues if q).pairwise_add
    active = [qi for qi, q in enumerate(queues) if len(q) >= 2]
    while active:
        qis: List[int] = []
        lhs: List[AffinePoint] = []
        rhs: List[AffinePoint] = []
        for qi in active:
            pts = queues[qi]
            n = len(pts)
            qis += [qi] * (n >> 1)
            lhs += pts[0:n - 1:2]
            rhs += pts[1:n:2]
            queues[qi] = [pts[-1]] if n & 1 else []
        for qi, pt in zip(qis, add_pairs(lhs, rhs)):
            if pt is not None:  # None: the pair cancelled to infinity
                queues[qi].append(pt)
        active = [qi for qi in active if len(queues[qi]) >= 2]
    return [q[0] if q else None for q in queues]


def batch_affine_weighted_bucket_sums(
    bucket_sets: Sequence[Sequence[AffinePoint]],
) -> List[AffinePoint]:
    """For each bucket array compute ``sum_d (d+1) * buckets[d]`` — the
    Pippenger window aggregation — running every array's suffix-sum sweep in
    lockstep so each step's additions share a single batched inversion."""
    if not bucket_sets:
        return []
    add_pairs = _group_of_any(pt for bs in bucket_sets for pt in bs).pairwise_add
    width = len(bucket_sets)
    length = len(bucket_sets[0])
    running: List[AffinePoint] = [None] * width
    totals: List[AffinePoint] = [None] * width
    for d in range(length - 1, -1, -1):
        running = add_pairs(running, [bs[d] for bs in bucket_sets])
        totals = add_pairs(totals, running)
    return totals


def batch_affine_sum(points: Sequence[AffinePoint]) -> AffinePoint:
    """Sum one list of affine points via :func:`batch_affine_reduce`."""
    return batch_affine_reduce([points])[0]


# --------------------------------------------------------------------------
# Twist: embed G2 (Fq2 coordinates) into Fq12 for the Miller loop.
# --------------------------------------------------------------------------

def twist(point: Optional[Tuple[Fq2, Fq2]]) -> AffinePoint:
    """Map a G2 point to the curve over Fq12 (py_ecc's untwisting map)."""
    if point is None:
        return None
    x, y = point
    # Coefficients as polynomials in w: (a + b*u) -> (a - 9b) + b*w^6-ish
    # representation: first re-express over Fq[w^6].
    xc = [(x.coeffs[0] - 9 * x.coeffs[1]) % P, x.coeffs[1]]
    yc = [(y.coeffs[0] - 9 * y.coeffs[1]) % P, y.coeffs[1]]
    nx = Fq12([xc[0], 0, 0, 0, 0, 0, xc[1], 0, 0, 0, 0, 0])
    ny = Fq12([yc[0], 0, 0, 0, 0, 0, yc[1], 0, 0, 0, 0, 0])
    w = Fq12([0, 1] + [0] * 10)
    return (nx * w ** 2, ny * w ** 3)


# --------------------------------------------------------------------------
# Convenience wrappers used throughout the SNARK code.
# --------------------------------------------------------------------------

def g1_generator() -> AffinePoint:
    return G1_GENERATOR


def g2_generator() -> Tuple[Fq2, Fq2]:
    return G2_GENERATOR


def g1_mul(point: AffinePoint, scalar: int) -> AffinePoint:
    return multiply(point, scalar)


def g2_mul(point, scalar: int):
    return multiply(point, scalar)


def g1_add(p1: AffinePoint, p2: AffinePoint) -> AffinePoint:
    return add(p1, p2)


def g1_neg(point: AffinePoint) -> AffinePoint:
    return neg(point)


# Below this count the Jacobian loop beats batch-affine's scheduling
# overhead; above it the shared-inversion tree reduction wins.
_BATCH_AFFINE_SUM_THRESHOLD = 16


def g1_sum(points: Sequence[AffinePoint]) -> AffinePoint:
    """Sum many G1 points.

    Small inputs use straightforward Jacobian accumulation; larger ones go
    through the batch-affine tree reduction, which shares one field
    inversion across every independent addition in a round.
    """
    live = [pt for pt in points if pt is not None]
    if len(live) >= _BATCH_AFFINE_SUM_THRESHOLD:
        return batch_affine_sum(live)
    acc = JAC_INFINITY
    for pt in live:
        acc = _jac_add_affine(acc, pt)
    return _jac_to_affine(acc)


def point_to_bytes(point: AffinePoint) -> bytes:
    """Serialize a point for transcripts / proof-size accounting."""
    if point is None:
        return b"\x00" * 64
    x, y = point
    if isinstance(x, int):
        return x.to_bytes(32, "big") + y.to_bytes(32, "big")
    out = b""
    for coord in (x, y):
        for c in coord.coeffs:
            out += c.to_bytes(32, "big")
    return out
