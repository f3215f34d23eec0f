"""Optimal-ate pairing on BN254, inversion-free.

Tower
    The Miller loop and the final exponentiation run in the tower
    ``Fq2 = Fq[u]/(u^2+1)``, ``Fq6 = Fq2[v]/(v^3-xi)`` with ``xi = 9+u``,
    ``Fq12 = Fq6[w]/(w^2-v)``.  An element is a flat tuple of 12 ints: the
    Fq2 coefficients of ``A = a0 + a1 v + a2 v^2`` then of ``B`` for
    ``A + B w``, each Fq2 value as ``(re, im)``.  Since ``w^6 = xi``, this
    ``w`` is the ``w`` of the public flat :class:`~repro.field.extension.Fq12`
    (``u = w^6 - 9``), so :func:`tower_to_flat` is a fixed coefficient
    shuffle and :func:`pairing` returns the same GT element as the classic
    py_ecc-style algorithm.

Miller loop
    G2 points stay on the D-type twist ``y^2 = x^3 + 3/xi`` in homogeneous
    projective Fq2 coordinates.  The doubling and mixed-addition steps of
    Aranha et al., "Faster explicit formulas for computing pairings over
    ordinary curves" (2011), emit sparse lines ``c0 + c3 w + c4 w^3``
    (``c0`` carries ``yP``, ``c3`` carries ``xP``) that
    :func:`_mul_by_line` absorbs at 13 Fq2 multiplications.  The loop walks
    the NAF of ``6u+2`` and is a multi-Miller loop: all pairs of a product
    share one Fq12 squaring per digit.  Factors in Fq6 (line scalings,
    vertical lines of the NAF's negative digits) are dropped; the final
    exponentiation sends them to 1.

Fixed arguments
    The twist steps never look at ``P``: only ``c0`` and ``c3`` of each
    line carry ``yP`` and ``xP``.  :func:`prepare_g2` runs the steps once
    for a fixed ``Q`` at ``P = (1, 1)`` and keeps the lines; the loop then
    scales them by the actual ``P`` and absorbs them exactly as it would
    the live lines, so the Miller value is unchanged bit for bit.  The
    Groth16 verifier prepares the three G2 points of its verifying key.

Final exponentiation
    ``(p^12-1)/r = (p^6-1)(p^2+1) * lambda`` with
    ``lambda = (p^4-p^2+1)/r = l0 + l1 p + l2 p^2 + l3 p^3`` and, for the
    BN parameter ``u``, ``l3 = 1``, ``l2 = 6u^2+1``,
    ``l1 = -36u^3-18u^2-12u+1``, ``l0 = -36u^3-30u^2-18u-2`` (Scott et al.,
    "On the final exponentiation for calculating pairings on ordinary
    elliptic curves", 2009).  The easy part costs one inversion and a
    Frobenius; the hard part is three exponentiations by ``u`` with
    Granger-Scott cyclotomic squarings, where inversion is conjugation.
    The exponent is exact, so results equal ``f ** ((p^12-1)/r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ..field.extension import Fq2, Fq12, P
from .bn254 import B2, AffinePoint, is_on_curve
from .g2 import _f2_inv, _f2_mul

#: the BN254 curve parameter ``u``
BN_U = 4965661367192848881

Fq12Tower = Tuple[int, ...]


def _naf(n: int) -> Tuple[int, ...]:
    """Non-adjacent form of ``n``, least significant digit first."""
    digits = []
    while n:
        digit = 2 - (n & 3) if n & 1 else 0
        digits.append(digit)
        n = (n - digit) >> 1
    return tuple(digits)


#: NAF digits of the optimal-ate loop count ``6u+2`` / of ``u``,
#: least significant first
ATE_NAF = _naf(6 * BN_U + 2)
U_NAF = _naf(BN_U)

_INV2 = (P + 1) // 2
# 3 * b' for the twist b' = 3/xi, as (re, im)
_B3_RE, _B3_IM = (3 * c % P for c in B2.coeffs)

# Frobenius constants xi^(k (p^n - 1) / 6) for k = 1..5, as (re, im).
_FROB1 = (
    (8376118865763821496583973867626364092589906065868298776909617916018768340080,
     16469823323077808223889137241176536799009286646108169935659301613961712198316),
    (21575463638280843010398324269430826099269044274347216827212613867836435027261,
     10307601595873709700152284273816112264069230130616436755625194854815875713954),
    (2821565182194536844548159561693502659359617185244120367078079554186484126554,
     3505843767911556378687030309984248845540243509899259641013678093033130930403),
    (2581911344467009335267311115468803099551665605076196740867805258568234346338,
     19937756971775647987995932169929341994314640652964949448313374472400716661030),
    (685108087231508774477564247770172212460312782337200605669322048753928464687,
     8447204650696766136447902020341177575205426561248465145919723016860428151883),
)
_FROB2 = (
    (21888242871839275220042445260109153167277707414472061641714758635765020556617, 0),
    (21888242871839275220042445260109153167277707414472061641714758635765020556616, 0),
    (21888242871839275222246405745257275088696311157297823662689037894645226208582, 0),
    (2203960485148121921418603742825762020974279258880205651966, 0),
    (2203960485148121921418603742825762020974279258880205651967, 0),
)
_FROB3 = (
    (11697423496358154304825782922584725312912383441159505038794027105778954184319,
     303847389135065887422783454877609941456349188919719272345083954437860409601),
    (3772000881919853776433695186713858239009073593817195771773381919316419345261,
     2236595495967245188281701248203181795121068902605861227855261137820944008926),
    (19066677689644738377698246183563772429336693972053703295610958340458742082029,
     18382399103927718843559375435273026243156067647398564021675359801612095278180),
    (5324479202449903542726783395506214481928257762400643279780343368557297135718,
     16208900380737693084919495127334387981393726419856888799917914180988844123039),
    (8941241848238582420466759817324047081148088512956452953208002715982955420483,
     10338197737521362862238855242243140895517409139741313354160881284257516364953),
)

#: power of ``w`` carried by each Fq2 slot of a tower element (A0 A1 A2 B0 B1 B2)
_SLOT_W_POWER = (0, 2, 4, 1, 3, 5)

FQ12_ONE: Fq12Tower = (1,) + (0,) * 11


# --------------------------------------------------------------------------
# Fq6 helpers (Fq2 ones from g2.py).  Inputs may be unreduced; Fq6
# outputs are reduced.
# --------------------------------------------------------------------------

def _fq6_mul(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """Karatsuba product in Fq6 (6 Fq2 multiplications)."""
    m0 = a0 * b0
    m1 = a1 * b1
    t0r = m0 - m1
    t0i = (a0 + a1) * (b0 + b1) - m0 - m1
    m0 = a2 * b2
    m1 = a3 * b3
    t1r = m0 - m1
    t1i = (a2 + a3) * (b2 + b3) - m0 - m1
    m0 = a4 * b4
    m1 = a5 * b5
    t2r = m0 - m1
    t2i = (a4 + a5) * (b4 + b5) - m0 - m1
    # c0 = t0 + xi * ((x1 + x2)(y1 + y2) - t1 - t2)
    xr, xi, yr, yi = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    m0 = xr * yr
    m1 = xi * yi
    sr = m0 - m1 - t1r - t2r
    si = (xr + xi) * (yr + yi) - m0 - m1 - t1i - t2i
    c0r = t0r + 9 * sr - si
    c0i = t0i + sr + 9 * si
    # c1 = (x0 + x1)(y0 + y1) - t0 - t1 + xi * t2
    xr, xi, yr, yi = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    m0 = xr * yr
    m1 = xi * yi
    c1r = m0 - m1 - t0r - t1r + 9 * t2r - t2i
    c1i = (xr + xi) * (yr + yi) - m0 - m1 - t0i - t1i + t2r + 9 * t2i
    # c2 = (x0 + x2)(y0 + y2) - t0 - t2 + t1
    xr, xi, yr, yi = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    m0 = xr * yr
    m1 = xi * yi
    c2r = m0 - m1 - t0r - t2r + t1r
    c2i = (xr + xi) * (yr + yi) - m0 - m1 - t0i - t2i + t1i
    return c0r % P, c0i % P, c1r % P, c1i % P, c2r % P, c2i % P


def _fq6_mul_by_01(a0, a1, a2, a3, a4, a5, dr, di, er, ei):
    """``x * (d + e v)`` in Fq6 (5 Fq2 multiplications), unreduced."""
    m0 = a0 * dr
    m1 = a1 * di
    t0r = m0 - m1
    t0i = (a0 + a1) * (dr + di) - m0 - m1
    m0 = a2 * er
    m1 = a3 * ei
    t1r = m0 - m1
    t1i = (a2 + a3) * (er + ei) - m0 - m1
    # x2 * e, folded into c0 through xi
    m0 = a4 * er
    m1 = a5 * ei
    sr = m0 - m1
    si = (a4 + a5) * (er + ei) - m0 - m1
    # c1 = (x0 + x1)(d + e) - t0 - t1
    xr, xi, yr, yi = a0 + a2, a1 + a3, dr + er, di + ei
    m0 = xr * yr
    m1 = xi * yi
    c1r = m0 - m1 - t0r - t1r
    c1i = (xr + xi) * (yr + yi) - m0 - m1 - t0i - t1i
    # c2 = t1 + x2 * d
    m0 = a4 * dr
    m1 = a5 * di
    c2r = t1r + m0 - m1
    c2i = t1i + (a4 + a5) * (dr + di) - m0 - m1
    return t0r + 9 * sr - si, t0i + sr + 9 * si, c1r, c1i, c2r, c2i


def _fq6_inv(a0, a1, a2, a3, a4, a5):
    # t0 = x0^2 - xi x1 x2, t1 = xi x2^2 - x0 x1, t2 = x1^2 - x0 x2
    sr, si = _f2_mul(a2, a3, a4, a5)
    t0r, t0i = _f2_mul(a0, a1, a0, a1)
    t0r, t0i = t0r - 9 * sr + si, t0i - sr - 9 * si
    sr, si = _f2_mul(a4, a5, a4, a5)
    t1r, t1i = _f2_mul(a0, a1, a2, a3)
    t1r, t1i = 9 * sr - si - t1r, sr + 9 * si - t1i
    t2r, t2i = _f2_mul(a2, a3, a2, a3)
    sr, si = _f2_mul(a0, a1, a4, a5)
    t2r, t2i = t2r - sr, t2i - si
    # den = x0 t0 + xi (x2 t1 + x1 t2)
    sr, si = _f2_mul(a4, a5, t1r, t1i)
    ur, ui = _f2_mul(a2, a3, t2r, t2i)
    sr, si = sr + ur, si + ui
    dr, di = _f2_mul(a0, a1, t0r, t0i)
    nr, ni = _f2_inv(dr + 9 * sr - si, di + sr + 9 * si)
    return (
        _f2_mul(t0r, t0i, nr, ni)
        + _f2_mul(t1r, t1i, nr, ni)
        + _f2_mul(t2r, t2i, nr, ni)
    )


# --------------------------------------------------------------------------
# Fq12 tower arithmetic.
# --------------------------------------------------------------------------

def fq12_mul(x: Fq12Tower, y: Fq12Tower) -> Fq12Tower:
    """Karatsuba product over Fq6: ``(A + Bw)(C + Dw)``."""
    a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 = x
    c0, c1, c2, c3, c4, c5, d0, d1, d2, d3, d4, d5 = y
    g0, g1, g2, g3, g4, g5 = _fq6_mul(a0, a1, a2, a3, a4, a5, c0, c1, c2, c3, c4, c5)
    h0, h1, h2, h3, h4, h5 = _fq6_mul(b0, b1, b2, b3, b4, b5, d0, d1, d2, d3, d4, d5)
    s0, s1, s2, s3, s4, s5 = _fq6_mul(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        c0 + d0, c1 + d1, c2 + d2, c3 + d3, c4 + d4, c5 + d5,
    )
    # A C + v B D, (A + B)(C + D) - A C - B D
    return (
        (g0 + 9 * h4 - h5) % P, (g1 + h4 + 9 * h5) % P,
        (g2 + h0) % P, (g3 + h1) % P, (g4 + h2) % P, (g5 + h3) % P,
        (s0 - g0 - h0) % P, (s1 - g1 - h1) % P, (s2 - g2 - h2) % P,
        (s3 - g3 - h3) % P, (s4 - g4 - h4) % P, (s5 - g5 - h5) % P,
    )


def fq12_square(x: Fq12Tower) -> Fq12Tower:
    """Complex squaring: ``(A + Bw)^2 = (A+B)(A+vB) - AB - vAB + 2AB w``."""
    a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 = x
    t0, t1, t2, t3, t4, t5 = _fq6_mul(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    s0, s1, s2, s3, s4, s5 = _fq6_mul(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        a0 + 9 * b4 - b5, a1 + b4 + 9 * b5, a2 + b0, a3 + b1, a4 + b2, a5 + b3,
    )
    return (
        (s0 - t0 - 9 * t4 + t5) % P, (s1 - t1 - t4 - 9 * t5) % P,
        (s2 - t2 - t0) % P, (s3 - t3 - t1) % P,
        (s4 - t4 - t2) % P, (s5 - t5 - t3) % P,
        2 * t0 % P, 2 * t1 % P, 2 * t2 % P, 2 * t3 % P, 2 * t4 % P, 2 * t5 % P,
    )


def fq12_conjugate(x: Fq12Tower) -> Fq12Tower:
    """``A + Bw -> A - Bw``: the p^6-power Frobenius, and the inverse of a
    unitary (cyclotomic-subgroup) element."""
    return x[:6] + tuple(-c % P for c in x[6:])


def fq12_inv(x: Fq12Tower) -> Fq12Tower:
    """``(A + Bw)^-1 = (A - Bw) / (A^2 - v B^2)``: one Fq inversion."""
    a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 = x
    g0, g1, g2, g3, g4, g5 = _fq6_mul(a0, a1, a2, a3, a4, a5, a0, a1, a2, a3, a4, a5)
    h0, h1, h2, h3, h4, h5 = _fq6_mul(b0, b1, b2, b3, b4, b5, b0, b1, b2, b3, b4, b5)
    n = _fq6_inv(
        g0 - 9 * h4 + h5, g1 - h4 - 9 * h5, g2 - h0, g3 - h1, g4 - h2, g5 - h3
    )
    return _fq6_mul(a0, a1, a2, a3, a4, a5, *n) + _fq6_mul(
        -b0, -b1, -b2, -b3, -b4, -b5, *n
    )


def fq12_frobenius(x: Fq12Tower, power: int) -> Fq12Tower:
    """``x^(p^power)`` for ``power`` in 1..3: conjugate every Fq2
    coefficient (odd powers) and scale the slot carrying ``w^k`` by
    ``xi^(k (p^power - 1) / 6)``."""
    table = (_FROB1, _FROB2, _FROB3)[power - 1]
    out = [x[0], x[1] if power == 2 else -x[1] % P]
    for slot in range(1, 6):
        re, im = x[2 * slot], x[2 * slot + 1]
        if power != 2:
            im = -im
        out.extend(_f2_mul(re, im, *table[_SLOT_W_POWER[slot] - 1]))
    return tuple(out)


def _mul_by_line(f: Fq12Tower, line: Tuple[int, ...]) -> Fq12Tower:
    """``f * (c0 + c3 w + c4 w^3)``, i.e. ``(A + Bw)(c0 + (c3 + c4 v) w)``."""
    a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 = f
    c0r, c0i, c3r, c3i, c4r, c4i = line
    # A * c0
    m0 = a0 * c0r
    m1 = a1 * c0i
    g0 = m0 - m1
    g1 = (a0 + a1) * (c0r + c0i) - m0 - m1
    m0 = a2 * c0r
    m1 = a3 * c0i
    g2 = m0 - m1
    g3 = (a2 + a3) * (c0r + c0i) - m0 - m1
    m0 = a4 * c0r
    m1 = a5 * c0i
    g4 = m0 - m1
    g5 = (a4 + a5) * (c0r + c0i) - m0 - m1
    h0, h1, h2, h3, h4, h5 = _fq6_mul_by_01(b0, b1, b2, b3, b4, b5, c3r, c3i, c4r, c4i)
    s0, s1, s2, s3, s4, s5 = _fq6_mul_by_01(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        c0r + c3r, c0i + c3i, c4r, c4i,
    )
    return (
        (g0 + 9 * h4 - h5) % P, (g1 + h4 + 9 * h5) % P,
        (g2 + h0) % P, (g3 + h1) % P, (g4 + h2) % P, (g5 + h3) % P,
        (s0 - g0 - h0) % P, (s1 - g1 - h1) % P, (s2 - g2 - h2) % P,
        (s3 - g3 - h3) % P, (s4 - g4 - h4) % P, (s5 - g5 - h5) % P,
    )


def _cyclotomic_square(x: Fq12Tower) -> Fq12Tower:
    """Granger-Scott squaring, valid on the cyclotomic subgroup only.

    Viewing Fq12 over ``Fq4 = Fq2[s]/(s^2 - xi)`` with ``s = w^3``, the
    element is ``(z0 + z1 s) + (z2 + z3 s) w + (z4 + z5 s) w^2`` and the
    square needs three Fq4 squarings (six Fq2 multiplications).
    """
    z0r, z0i, z4r, z4i, z3r, z3i, z2r, z2i, z1r, z1i, z5r, z5i = x
    out = []
    for (ar, ai, br, bi) in ((z0r, z0i, z1r, z1i), (z2r, z2i, z3r, z3i), (z4r, z4i, z5r, z5i)):
        # (a + b s)^2 = (a^2 + xi b^2) + 2ab s
        m0 = ar * br
        m1 = ai * bi
        tr = m0 - m1
        ti = (ar + ai) * (br + bi) - m0 - m1
        xr = ar + br
        xi = ai + bi
        yr = 9 * br - bi + ar
        yi = br + 9 * bi + ai
        m0 = xr * yr
        m1 = xi * yi
        out.append((
            (m0 - m1 - tr - 9 * tr + ti) % P,
            ((xr + xi) * (yr + yi) - m0 - m1 - ti - tr - 9 * ti) % P,
            2 * tr % P,
            2 * ti % P,
        ))
    (t0r, t0i, t1r, t1i), (t2r, t2i, t3r, t3i), (t4r, t4i, t5r, t5i) = out
    # xi * t5
    t5r, t5i = 9 * t5r - t5i, t5r + 9 * t5i
    return (
        (3 * t0r - 2 * z0r) % P, (3 * t0i - 2 * z0i) % P,
        (3 * t2r - 2 * z4r) % P, (3 * t2i - 2 * z4i) % P,
        (3 * t4r - 2 * z3r) % P, (3 * t4i - 2 * z3i) % P,
        (3 * t5r + 2 * z2r) % P, (3 * t5i + 2 * z2i) % P,
        (3 * t1r + 2 * z1r) % P, (3 * t1i + 2 * z1i) % P,
        (3 * t3r + 2 * z5r) % P, (3 * t3i + 2 * z5i) % P,
    )


def _cyclotomic_exp_u(x: Fq12Tower) -> Fq12Tower:
    """``x^u`` on the cyclotomic subgroup, over the NAF of ``u``."""
    x_inv = fq12_conjugate(x)
    acc = x
    for digit in reversed(U_NAF[:-1]):
        acc = _cyclotomic_square(acc)
        if digit > 0:
            acc = fq12_mul(acc, x)
        elif digit < 0:
            acc = fq12_mul(acc, x_inv)
    return acc


def final_exponentiation(f: Fq12Tower) -> Fq12Tower:
    """``f^((p^12 - 1) / r)``, exactly (zero maps to zero)."""
    if not any(f):
        return f
    # Easy part: f^((p^6 - 1)(p^2 + 1)) lands in the cyclotomic subgroup.
    f = fq12_mul(fq12_conjugate(f), fq12_inv(f))
    f = fq12_mul(fq12_frobenius(f, 2), f)
    # Hard part: f^(l0 + l1 p + l2 p^2 + l3 p^3).
    sqr, mul, conj = _cyclotomic_square, fq12_mul, fq12_conjugate
    a = _cyclotomic_exp_u(f)      # f^u
    b = _cyclotomic_exp_u(a)      # f^(u^2)
    c = _cyclotomic_exp_u(b)      # f^(u^3)
    a6 = sqr(mul(sqr(a), a))
    a12 = sqr(a6)
    b6 = sqr(mul(sqr(b), b))
    b12 = sqr(b6)
    b18 = mul(b12, b6)
    c9 = mul(sqr(sqr(sqr(c))), c)
    c36 = sqr(sqr(c9))
    t = mul(mul(c36, b18), a12)                              # f^(36u^3 + 18u^2 + 12u)
    y0 = conj(mul(mul(mul(t, b12), a6), sqr(f)))             # f^l0
    y1 = mul(conj(t), f)                                     # f^l1
    y2 = mul(b6, f)                                          # f^l2
    return mul(
        mul(y0, fq12_frobenius(y1, 1)),
        mul(fq12_frobenius(y2, 2), fq12_frobenius(f, 3)),
    )


# --------------------------------------------------------------------------
# Miller loop: projective steps on the twist, sparse lines.
# --------------------------------------------------------------------------

def _double_step(t, xp: int, yp: int):
    """``T -> 2T`` and the tangent line at ``T`` evaluated at ``P``."""
    x0, x1, y0, y1, z0, z1 = t
    m0 = x0 * y0
    m1 = x1 * y1
    ar = (m0 - m1) * _INV2 % P                                  # A = XY/2
    ai = ((x0 + x1) * (y0 + y1) - m0 - m1) * _INV2 % P
    br = (y0 + y1) * (y0 - y1) % P                              # B = Y^2
    bi = 2 * y0 * y1 % P
    cr = (z0 + z1) * (z0 - z1) % P                              # C = Z^2
    ci = 2 * z0 * z1 % P
    er = (_B3_RE * cr - _B3_IM * ci) % P                        # E = 3b'C
    ei = (_B3_RE * ci + _B3_IM * cr) % P
    fr = 3 * er                                                 # F = 3E
    fi = 3 * ei
    gr = (br + fr) * _INV2 % P                                  # G = (B+F)/2
    gi = (bi + fi) * _INV2 % P
    m0 = y0 * z0
    m1 = y1 * z1
    hr = 2 * (m0 - m1) % P                                      # H = 2YZ
    hi = 2 * ((y0 + y1) * (z0 + z1) - m0 - m1) % P
    dr = br - fr
    di = bi - fi
    m0 = ar * dr
    m1 = ai * di
    nx = ((m0 - m1) % P, ((ar + ai) * (dr + di) - m0 - m1) % P)  # X3 = A(B-F)
    ny = (
        ((gr + gi) * (gr - gi) - 3 * (er + ei) * (er - ei)) % P,  # Y3 = G^2 - 3E^2
        (2 * gr * gi - 6 * er * ei) % P,
    )
    m0 = br * hr
    m1 = bi * hi
    nz = ((m0 - m1) % P, ((br + bi) * (hr + hi) - m0 - m1) % P)  # Z3 = BH
    line = (
        -hr * yp % P, -hi * yp % P,                             # -H yP
        3 * (x0 + x1) * (x0 - x1) * xp % P, 6 * x0 * x1 * xp % P,  # 3X^2 xP
        (er - br) % P, (ei - bi) % P,                           # E - B
    )
    return nx + ny + nz, line


def _add_step(t, qx0: int, qx1: int, qy0: int, qy1: int, xp: int, yp: int):
    """``T -> T + Q`` (Q affine) and the line through them evaluated at ``P``."""
    x0, x1, y0, y1, z0, z1 = t
    m0 = qy0 * z0
    m1 = qy1 * z1
    thr = (y0 - m0 + m1) % P                                    # theta = Y - y2 Z
    thi = (y1 - (qy0 + qy1) * (z0 + z1) + m0 + m1) % P
    m0 = qx0 * z0
    m1 = qx1 * z1
    lr = (x0 - m0 + m1) % P                                     # lambda = X - x2 Z
    li = (x1 - (qx0 + qx1) * (z0 + z1) + m0 + m1) % P
    cr = (thr + thi) * (thr - thi) % P                          # C = theta^2
    ci = 2 * thr * thi % P
    dr = (lr + li) * (lr - li) % P                              # D = lambda^2
    di = 2 * lr * li % P
    er, ei = _f2_mul(lr, li, dr, di)                            # E = lambda^3
    fr, fi = _f2_mul(z0, z1, cr, ci)                            # F = Z C
    gr, gi = _f2_mul(x0, x1, dr, di)                            # G = X D
    hr = er + fr - 2 * gr                                       # H = E + F - 2G
    hi = ei + fi - 2 * gi
    nx = _f2_mul(lr, li, hr, hi)                                # X3 = lambda H
    ur, ui = _f2_mul(thr, thi, gr - hr, gi - hi)                # Y3 = theta(G-H) - Y E
    vr, vi = _f2_mul(y0, y1, er, ei)
    nz = _f2_mul(z0, z1, er, ei)                                # Z3 = Z E
    jr, ji = _f2_mul(thr, thi, qx0, qx1)                        # theta x2 - lambda y2
    kr, ki = _f2_mul(lr, li, qy0, qy1)
    line = (
        lr * yp % P, li * yp % P,
        -thr * xp % P, -thi * xp % P,
        (jr - kr) % P, (ji - ki) % P,
    )
    return nx + ((ur - vr) % P, (ui - vi) % P) + nz, line


#: NAF digits the Miller loop walks, most significant first (the top
#: digit, 1, is the starting point ``T = Q``)
_LOOP_DIGITS = tuple(reversed(ATE_NAF[:-1]))

Line = Tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class PreparedG2:
    """The Miller-loop lines of a fixed G2 point ``Q``, from
    :func:`prepare_g2`: one tuple per loop step (the doubling line, then
    the addition line on a nonzero NAF digit; the last step holds the two
    correction lines), each evaluated at ``P = (1, 1)``, so ``c0`` still
    lacks its factor ``yP`` and ``c3`` its factor ``xP``."""

    steps: Tuple[Tuple[Line, ...], ...]


def _line_steps(qx0: int, qx1: int, qy0: int, qy1: int, xp: int, yp: int):
    """Yield the lines of the pair ``(P, Q)``, one tuple per loop step, in
    the order :class:`PreparedG2` stores them."""
    t = (qx0, qx1, qy0, qy1, 1, 0)
    nqy0, nqy1 = -qy0 % P, -qy1 % P
    for digit in _LOOP_DIGITS:
        t, dbl = _double_step(t, xp, yp)
        if digit:
            sy0, sy1 = (qy0, qy1) if digit > 0 else (nqy0, nqy1)
            t, add = _add_step(t, qx0, qx1, sy0, sy1, xp, yp)
            yield dbl, add
        else:
            yield (dbl,)
    # Correction lines: + pi(Q), then - pi^2(Q), both Frobenius images
    # computed on the twist.
    (g2r, g2i), (g3r, g3i) = _FROB1[1], _FROB1[2]
    gamma = _FROB2[1][0]
    q1x = _f2_mul(qx0, -qx1, g2r, g2i)
    q1y = _f2_mul(qy0, -qy1, g3r, g3i)
    t, first = _add_step(t, *q1x, *q1y, xp, yp)
    _, second = _add_step(t, qx0 * gamma % P, qx1 * gamma % P, qy0, qy1, xp, yp)
    yield first, second


def prepare_g2(q2: Optional[Tuple[Fq2, Fq2]]) -> Optional[PreparedG2]:
    """Precompute the Miller-loop lines of a fixed G2 point (Costello and
    Stebila, "Fixed argument pairings", 2010).

    The projective steps on the twist do not depend on ``P``; only the
    ``c0`` and ``c3`` coefficients of each line carry ``yP`` and ``xP``.
    Running the steps at ``P = (1, 1)`` leaves those factors for
    :func:`miller_loop_raw` to apply, so a prepared pair gives the same
    Miller value, bit for bit, as the live pair.  The point at infinity
    prepares to ``None`` and, like a live one, contributes 1.
    """
    if q2 is None:
        return None
    qx0, qx1 = q2[0].coeffs
    qy0, qy1 = q2[1].coeffs
    return PreparedG2(tuple(_line_steps(qx0, qx1, qy0, qy1, 1, 1)))


def miller_loop_raw(
    pairs: Iterable[Tuple[AffinePoint, Optional[Tuple[Fq2, Fq2]]]],
    prepared: Iterable[Tuple[AffinePoint, Optional[PreparedG2]]] = (),
) -> Fq12Tower:
    """Product of the optimal-ate Miller functions ``f_{6u+2,Q}(P)`` (with
    the two Frobenius correction lines) over ``(P, Q)`` pairs, *without*
    the final exponentiation, as a tower element.

    ``prepared`` holds ``(P, prepare_g2(Q))`` pairs: their lines come from
    the table, scaled by ``P``'s coordinates, and add no G2 arithmetic.
    Pairs with a point at infinity contribute 1.  One Fq12 squaring per
    NAF digit is shared by every pair.
    """
    live = [
        _line_steps(*q2[0].coeffs, *q2[1].coeffs, p1[0], p1[1])
        for p1, q2 in pairs
        if p1 is not None and q2 is not None
    ]
    fixed = [
        (p1[0], p1[1], q2.steps)
        for p1, q2 in prepared
        if p1 is not None and q2 is not None
    ]
    f = FQ12_ONE
    if not live and not fixed:
        return f
    for k in range(len(_LOOP_DIGITS) + 1):
        if k < len(_LOOP_DIGITS):
            f = fq12_square(f)
        for steps in live:
            for line in next(steps):
                f = _mul_by_line(f, line)
        for xp, yp, steps in fixed:
            for c0r, c0i, c3r, c3i, c4r, c4i in steps[k]:
                f = _mul_by_line(
                    f,
                    (c0r * yp % P, c0i * yp % P, c3r * xp % P, c3i * xp % P, c4r, c4i),
                )
    return f


# --------------------------------------------------------------------------
# Conversions and the public entry points.
# --------------------------------------------------------------------------

def tower_to_flat(x: Fq12Tower) -> Fq12:
    """Tower element -> the public flat ``Fq[w]/(w^12 - 18w^6 + 82)``."""
    flat = [0] * 12
    for slot, k in enumerate(_SLOT_W_POWER):
        re, im = x[2 * slot], x[2 * slot + 1]
        # re + im u = (re - 9 im) + im w^6
        flat[k] = re - 9 * im
        flat[k + 6] = im
    return Fq12(flat)


def pairing(q2: Optional[Tuple[Fq2, Fq2]], p1: AffinePoint) -> Fq12:
    """e(P, Q) for P in G1 (Fq coords) and Q in G2 (Fq2 coords)."""
    if p1 is None or q2 is None:
        return Fq12.one()
    if not is_on_curve(p1, 3):
        raise ValueError("P is not on G1")
    if not is_on_curve(q2, B2):
        raise ValueError("Q is not on the G2 twist")
    return tower_to_flat(final_exponentiation(miller_loop_raw([(p1, q2)])))


def pairing_product_is_one(
    pairs: Sequence[Tuple[AffinePoint, object]],
    prepared: Sequence[Tuple[AffinePoint, Optional[PreparedG2]]] = (),
    expected: Fq12Tower = FQ12_ONE,
) -> bool:
    """Check ``prod e(Pi, Qi) == expected`` — the Groth16 verification
    shape, with ``expected`` a GT element in tower form (default 1).

    Each element of ``pairs`` is ``(g1_point, g2_point)`` and each of
    ``prepared`` is ``(g1_point, prepare_g2(g2_point))``; all pairs share
    one multi-Miller loop and one final exponentiation.  A degenerate
    (zero) Miller value, which only malformed points produce, is ``False``
    whatever ``expected`` is.
    """
    f = final_exponentiation(miller_loop_raw(pairs, prepared))
    return any(f) and f == expected
