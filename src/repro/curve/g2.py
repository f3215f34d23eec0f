"""BN254 G2 arithmetic on plain int tuples.

Public G2 points are ``(Fq2, Fq2)`` pairs (see :mod:`repro.curve.bn254`);
the hot paths — scalar multiplication, MSM buckets, fixed-base tables —
work on ints instead, where an Fq2 value ``a + b u`` is the pair
``(a, b)``:

* an affine point is ``(x0, x1, y0, y1)``, with ``None`` for infinity;
* a Jacobian point is ``(x0, x1, y0, y1, z0, z1)`` with ``X = x/z^2``,
  ``Y = y/z^3``; ``z = 0`` is infinity.

:func:`to_ints` and :func:`from_ints` convert at the boundary.  The Fq2
product and inverse here are the ones the pairing's tower arithmetic
uses.  Batched affine additions invert their Fq2 denominators through the
norm map, ``1/(a + b u) = (a - b u)/(a^2 + b^2)``, so one Fp batch
inversion (Montgomery's trick) serves a whole round.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..field.extension import Fq2, P
from ..field.prime_field import batch_inv_mod

G2Affine = Optional[Tuple[int, int, int, int]]
G2Jac = Tuple[int, int, int, int, int, int]

JAC_INFINITY: G2Jac = (1, 0, 1, 0, 0, 0)


# --------------------------------------------------------------------------
# Fq2 on int pairs.  Inputs may be unreduced; outputs are reduced.
# --------------------------------------------------------------------------

def _f2_mul(a, b, c, d) -> Tuple[int, int]:
    """(a + bu)(c + du), reduced."""
    t0 = a * c
    t1 = b * d
    return (t0 - t1) % P, ((a + b) * (c + d) - t0 - t1) % P


def _f2_sqr(a, b) -> Tuple[int, int]:
    """(a + bu)^2, reduced."""
    return (a + b) * (a - b) % P, 2 * a * b % P


def _f2_inv(a, b) -> Tuple[int, int]:
    n = pow((a * a + b * b) % P, -1, P)
    return a * n % P, -b * n % P


# --------------------------------------------------------------------------
# Boundary conversions.
# --------------------------------------------------------------------------

def to_ints(point) -> G2Affine:
    """``(Fq2, Fq2)`` -> ``(x0, x1, y0, y1)``; ``None`` stays ``None``."""
    if point is None:
        return None
    x, y = point
    return x.coeffs + y.coeffs


def from_ints(point: G2Affine):
    """``(x0, x1, y0, y1)`` -> ``(Fq2, Fq2)``; ``None`` stays ``None``."""
    if point is None:
        return None
    x0, x1, y0, y1 = point
    return (Fq2((x0, x1)), Fq2((y0, y1)))


def neg(point: G2Affine) -> G2Affine:
    x0, x1, y0, y1 = point
    return (x0, x1, -y0 % P, -y1 % P)


# --------------------------------------------------------------------------
# Jacobian arithmetic (the G1 formulas of bn254.py, over Fq2).
# --------------------------------------------------------------------------

def affine_to_jac(point: G2Affine) -> G2Jac:
    if point is None:
        return JAC_INFINITY
    return point + (1, 0)


def jac_to_affine(pt: G2Jac) -> G2Affine:
    return jac_normalize_batch([pt])[0]


def jac_double(pt: G2Jac) -> G2Jac:
    x0, x1, y0, y1, z0, z1 = pt
    if not (z0 or z1) or not (y0 or y1):
        return JAC_INFINITY
    ys0, ys1 = _f2_sqr(y0, y1)
    s0, s1 = _f2_mul(x0, x1, 4 * ys0, 4 * ys1)
    m0, m1 = _f2_sqr(x0, x1)
    m0, m1 = 3 * m0, 3 * m1
    nx0, nx1 = _f2_sqr(m0, m1)
    nx0, nx1 = (nx0 - 2 * s0) % P, (nx1 - 2 * s1) % P
    t0, t1 = _f2_mul(m0, m1, s0 - nx0, s1 - nx1)
    y40, y41 = _f2_sqr(ys0, ys1)
    nz0, nz1 = _f2_mul(y0, y1, 2 * z0, 2 * z1)
    return (nx0, nx1, (t0 - 8 * y40) % P, (t1 - 8 * y41) % P, nz0, nz1)


def jac_add(p1: G2Jac, p2: G2Jac) -> G2Jac:
    if not (p1[4] or p1[5]):
        return p2
    if not (p2[4] or p2[5]):
        return p1
    x10, x11, y10, y11, z10, z11 = p1
    x20, x21, y20, y21, z20, z21 = p2
    a0, a1 = _f2_sqr(z10, z11)
    b0, b1 = _f2_sqr(z20, z21)
    u1 = _f2_mul(x10, x11, b0, b1)
    u2 = _f2_mul(x20, x21, a0, a1)
    s1 = _f2_mul(*_f2_mul(y10, y11, z20, z21), b0, b1)
    s2 = _f2_mul(*_f2_mul(y20, y21, z10, z11), a0, a1)
    if u1 == u2:
        if s1 != s2:
            return JAC_INFINITY
        return jac_double(p1)
    h0, h1 = u2[0] - u1[0], u2[1] - u1[1]
    i0, i1 = _f2_sqr(2 * h0, 2 * h1)
    j0, j1 = _f2_mul(h0, h1, i0, i1)
    r0, r1 = 2 * (s2[0] - s1[0]), 2 * (s2[1] - s1[1])
    v0, v1 = _f2_mul(u1[0], u1[1], i0, i1)
    nx0, nx1 = _f2_sqr(r0, r1)
    nx0, nx1 = (nx0 - j0 - 2 * v0) % P, (nx1 - j1 - 2 * v1) % P
    t0, t1 = _f2_mul(r0, r1, v0 - nx0, v1 - nx1)
    w0, w1 = _f2_mul(s1[0], s1[1], 2 * j0, 2 * j1)
    nz0, nz1 = _f2_mul(*_f2_mul(z10, z11, z20, z21), 2 * h0, 2 * h1)
    return (nx0, nx1, (t0 - w0) % P, (t1 - w1) % P, nz0, nz1)


def jac_add_affine(p1: G2Jac, p2: Tuple[int, int, int, int]) -> G2Jac:
    """Mixed addition: Jacobian + affine (z2 = 1)."""
    if not (p1[4] or p1[5]):
        return p2 + (1, 0)
    x10, x11, y10, y11, z10, z11 = p1
    x20, x21, y20, y21 = p2
    a0, a1 = _f2_sqr(z10, z11)
    u2 = _f2_mul(x20, x21, a0, a1)
    s2 = _f2_mul(*_f2_mul(y20, y21, z10, z11), a0, a1)
    if u2 == (x10, x11):
        if s2 != (y10, y11):
            return JAC_INFINITY
        return jac_double(p1)
    h0, h1 = u2[0] - x10, u2[1] - x11
    i0, i1 = _f2_sqr(2 * h0, 2 * h1)
    j0, j1 = _f2_mul(h0, h1, i0, i1)
    r0, r1 = 2 * (s2[0] - y10), 2 * (s2[1] - y11)
    v0, v1 = _f2_mul(x10, x11, i0, i1)
    nx0, nx1 = _f2_sqr(r0, r1)
    nx0, nx1 = (nx0 - j0 - 2 * v0) % P, (nx1 - j1 - 2 * v1) % P
    t0, t1 = _f2_mul(r0, r1, v0 - nx0, v1 - nx1)
    w0, w1 = _f2_mul(y10, y11, 2 * j0, 2 * j1)
    nz0, nz1 = _f2_mul(z10, z11, 2 * h0, 2 * h1)
    return (nx0, nx1, (t0 - w0) % P, (t1 - w1) % P, nz0, nz1)


def jac_normalize_batch(points: Sequence[G2Jac]) -> List[G2Affine]:
    """Many Jacobian points to affine with one shared Fp inversion of the
    ``z`` norms; infinities come back as ``None``."""
    norms = [z0 * z0 + z1 * z1 for *_, z0, z1 in points if z0 or z1]
    invs = iter(batch_inv_mod(norms, P))
    out: List[G2Affine] = []
    for x0, x1, y0, y1, z0, z1 in points:
        if not (z0 or z1):
            out.append(None)
            continue
        n = next(invs)
        zi0, zi1 = z0 * n % P, -z1 * n % P
        z20, z21 = _f2_sqr(zi0, zi1)
        z30, z31 = _f2_mul(z20, z21, zi0, zi1)
        out.append(_f2_mul(x0, x1, z20, z21) + _f2_mul(y0, y1, z30, z31))
    return out


def _wnaf_digits(scalar: int, w: int) -> List[int]:
    """Width-``w`` NAF: odd digits in ``(-2^(w-1), 2^(w-1))`` separated by
    at least ``w - 1`` zeros, so only ``~254/w`` additions are needed."""
    digits: List[int] = []
    half = 1 << (w - 1)
    full = 1 << w
    while scalar:
        if scalar & 1:
            d = scalar & (full - 1)
            if d >= half:
                d -= full
            scalar -= d
        else:
            d = 0
        digits.append(d)
        scalar >>= 1
    return digits


def jac_mul(pt: G2Jac, scalar: int) -> G2Jac:
    """Width-4 wNAF scalar multiplication: one doubling per bit plus
    ~254/5 mixed additions of the odd multiples ``P, 3P, 5P, 7P`` (made
    affine with one shared inversion), whose negatives cost nothing."""
    if scalar == 0 or not (pt[4] or pt[5]):
        return JAC_INFINITY
    dbl = jac_double(pt)
    odd = [pt]
    for _ in range(3):
        odd.append(jac_add(odd[-1], dbl))
    odd = jac_normalize_batch(odd)
    odd_neg = [neg(q) for q in odd]
    result = JAC_INFINITY
    for d in reversed(_wnaf_digits(scalar, 4)):
        result = jac_double(result)
        if d > 0:
            result = jac_add_affine(result, odd[d >> 1])
        elif d < 0:
            result = jac_add_affine(result, odd_neg[(-d) >> 1])
    return result


# --------------------------------------------------------------------------
# Batched affine addition.
# --------------------------------------------------------------------------

def batch_affine_pairwise_add(
    lhs: Sequence[G2Affine], rhs: Sequence[G2Affine]
) -> List[G2Affine]:
    """Elementwise ``lhs[i] + rhs[i]``.  Each chord or tangent slope needs
    ``1/den`` in Fq2; the norms ``den0^2 + den1^2`` of all of them share
    one Fp batch inversion.  Infinities pass through (their placeholder
    denominator 1 keeps the two passes aligned) and ``P + (-P)`` gives
    ``None``."""
    dens: List[Tuple[int, int]] = []
    for p1, p2 in zip(lhs, rhs):
        if p1 is None or p2 is None:
            dens.append((1, 0))
        elif p1[0] != p2[0] or p1[1] != p2[1]:
            dens.append((p2[0] - p1[0], p2[1] - p1[1]))
        elif (p1[2] + p2[2]) % P or (p1[3] + p2[3]) % P:
            dens.append((2 * p1[2], 2 * p1[3]))  # doubling: 2y
        else:
            dens.append((1, 0))  # cancelling pair
    invs = batch_inv_mod([d0 * d0 + d1 * d1 for d0, d1 in dens], P)
    out: List[G2Affine] = []
    for p1, p2, (d0, d1), inv in zip(lhs, rhs, dens, invs):
        if p1 is None:
            out.append(p2)
            continue
        if p2 is None:
            out.append(p1)
            continue
        x10, x11, y10, y11 = p1
        x20, x21, y20, y21 = p2
        if x10 != x20 or x11 != x21:
            n0, n1 = y20 - y10, y21 - y11
        elif (y10 + y20) % P or (y11 + y21) % P:
            n0, n1 = _f2_sqr(x10, x11)
            n0, n1 = 3 * n0, 3 * n1
        else:
            out.append(None)
            continue
        l0, l1 = _f2_mul(n0, n1, d0 * inv % P, -d1 * inv % P)
        nx0, nx1 = _f2_sqr(l0, l1)
        nx0, nx1 = (nx0 - x10 - x20) % P, (nx1 - x11 - x21) % P
        t0, t1 = _f2_mul(l0, l1, x10 - nx0, x11 - nx1)
        out.append((nx0, nx1, (t0 - y10) % P, (t1 - y11) % P))
    return out
