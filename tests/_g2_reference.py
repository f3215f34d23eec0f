"""Reference G2 scalar multiplication on BN254 — a test oracle only.

This is the G2 path the library shipped before G2 moved onto int tuples
(:mod:`repro.curve.g2`): width-4 wNAF over Jacobian points whose
coordinates are generic :class:`~repro.field.extension.Fq2` objects, and
the per-point ``multiply`` loop the Groth16 prover used for pi_B.  It is
slow and kept only to pin the fast path's output.
"""

from __future__ import annotations

from repro.curve.bn254 import CURVE_ORDER, add


def _ext_jac_double(pt):
    x, y, z = pt
    if z is None or y.is_zero():
        return (x, y, None)
    ysq = y * y
    s = x * ysq * 4
    m = x * x * 3
    nx = m * m - s * 2
    ny = m * (s - nx) - ysq * ysq * 8
    nz = y * z * 2
    return (nx, ny, nz)


def _ext_jac_add(p1, p2):
    if p1[2] is None:
        return p2
    if p2[2] is None:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1
    z2z2 = z2 * z2
    u1 = x1 * z2z2
    u2 = x2 * z1z1
    s1 = y1 * z2 * z2z2
    s2 = y2 * z1 * z1z1
    if u1 == u2:
        if s1 != s2:
            return (x1, y1, None)
        return _ext_jac_double(p1)
    h = u2 - u1
    i = (h * 2) * (h * 2)
    j = h * i
    r = (s2 - s1) * 2
    v = u1 * i
    nx = r * r - j - v * 2
    ny = r * (v - nx) - s1 * j * 2
    nz = z1 * z2 * h * 2
    return (nx, ny, nz)


def _wnaf_digits(scalar: int, w: int):
    digits = []
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


def _ext_jac_mul(point, scalar: int):
    one = type(point[0]).one()
    if scalar == 0:
        return (one, one, None)
    w = 4
    base = (point[0], point[1], one)
    dbl = _ext_jac_double(base)
    odd = [base]
    for _ in range((1 << (w - 2)) - 1):
        odd.append(_ext_jac_add(odd[-1], dbl))
    result = (one, one, None)
    for d in reversed(_wnaf_digits(scalar, w)):
        result = _ext_jac_double(result)
        if d > 0:
            result = _ext_jac_add(result, odd[d >> 1])
        elif d < 0:
            x, y, z = odd[(-d) >> 1]
            result = _ext_jac_add(result, (x, -y, z))
    return result


def _ext_jac_to_affine(pt):
    x, y, z = pt
    if z is None:
        return None
    z_inv = z.inv()
    z2 = z_inv * z_inv
    return (x * z2, y * z2 * z_inv)


def reference_g2_multiply(point, scalar: int):
    """``scalar * point`` for a ``(Fq2, Fq2)`` point, the old way."""
    scalar %= CURVE_ORDER
    if point is None or scalar == 0:
        return None
    return _ext_jac_to_affine(_ext_jac_mul(point, scalar))


def reference_g2_msm(points, scalars):
    """The old per-point pi_B loop: one multiply per live base, summed."""
    acc = None
    for point, value in zip(points, scalars):
        if point is not None and value % CURVE_ORDER:
            acc = add(acc, reference_g2_multiply(point, value))
    return acc
