"""Reference optimal-ate pairing on BN254 — a test oracle only.

This is the py_ecc-style algorithm the library shipped before the tower
pairing in :mod:`repro.curve.pairing`: affine line functions over the flat
``Fq12``, the G2 point untwisted into ``E(Fq12)``, a binary Miller loop
over ``6u+2`` and a naive ``f ** FINAL_EXPONENT``.  It is slow (one Fq12
inversion per line) and kept only to pin the fast pairing's output.
"""

from __future__ import annotations

from repro.curve.bn254 import CURVE_ORDER, add, double, is_on_curve, twist
from repro.field.extension import Fq12, P

ATE_LOOP_COUNT = 29793968203157093288
LOG_ATE_LOOP_COUNT = 63

FINAL_EXPONENT = (P ** 12 - 1) // CURVE_ORDER


def _linefunc(p1, p2, t):
    """Evaluate the line through p1,p2 at point t (all over Fq12)."""
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        slope = (y2 - y1) / (x2 - x1)
        return slope * (xt - x1) - (yt - y1)
    if y1 == y2:
        slope = (x1 * x1 * 3) / (y1 * 2)
        return slope * (xt - x1) - (yt - y1)
    return xt - x1


def _cast_g1_to_fq12(point):
    if point is None:
        return None
    x, y = point
    return (Fq12.from_int(x), Fq12.from_int(y))


def reference_miller_loop(q, p) -> Fq12:
    """Miller loop over the twisted Q (Fq12 coords) and embedded P, without
    the final exponentiation."""
    if q is None or p is None:
        return Fq12.one()
    r = q
    f = Fq12.one()
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _linefunc(r, r, p)
        r = double(r)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _linefunc(r, q, p)
            r = add(r, q)
    q1 = (q[0] ** P, q[1] ** P)
    nq2 = (q1[0] ** P, -(q1[1] ** P))
    f = f * _linefunc(r, q1, p)
    r = add(r, q1)
    f = f * _linefunc(r, nq2, p)
    return f


def reference_pairing(q2, p1) -> Fq12:
    """e(P, Q) for P in G1 (Fq coords) and Q in G2 (Fq2 coords)."""
    if p1 is None or q2 is None:
        return Fq12.one()
    if not is_on_curve(p1, 3):
        raise ValueError("P is not on G1")
    return reference_miller_loop(twist(q2), _cast_g1_to_fq12(p1)) ** FINAL_EXPONENT
