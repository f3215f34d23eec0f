"""Runtime-compiled C kernels behind the vector field engine.

The vector backend (:mod:`repro.field.vector`) runs its hottest kernels —
4x64 Montgomery multiply, modular add/sub, the radix-2 NTT butterfly
sweep, the CSR matvec and the fused sumcheck round — through a tiny
shared library compiled here at first use.  Nothing is ever installed:
the source below is compiled with whatever ``cc``/``gcc``/``clang`` is
on PATH into
``$TMPDIR/repro-fr-native-<digest>-u<uid>/fr.so`` and loaded via
:mod:`ctypes`.  Any failure (no compiler, sandboxed tempdir, broken
toolchain) makes :func:`load` return ``None`` and the field engine runs
the scalar backend; correctness never depends on this module.

Layout contract shared with :mod:`vector`: field elements travel as
``(n, 4)`` little-endian ``uint64`` limb arrays, canonical (``< p``) unless
stated otherwise; multipliers that feed ``mont_mul`` are pre-scaled by
``2**256 mod p`` (Montgomery form) so data operands never leave canonical
form.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Optional

# BN254 Fr.
_P = 21888242871839275222246405745257275088548364400416034343698204186575808495617

_SOURCE = r"""
/* BN254 Fr 4x64 Montgomery kernels (little-endian limbs). */
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

static const uint64_t P[4] = {
    0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
    0xb85045b68181585dULL, 0x30644e72e131a029ULL,
};
static const uint64_t N0INV = 0xc2e1f593efffffffULL; /* -p^-1 mod 2^64 */
static const uint64_t P_R2[4] = {                   /* 2^512 mod p */
    0x1bb8e645ae216da7ULL, 0x53fe3ab1e35c59e3ULL,
    0x8c49833d53bb8085ULL, 0x0216d0b17f4e44a5ULL,
};

/* Arithmetic mod any 4-limb m < 2^254 (Fr here, Fq below); inlined with
 * a constant modulus, so each field gets its own straight-line code.  The
 * limb loops unroll by pragma: the library builds at -O2, since -O3 spent
 * ~20 s allocating registers across the inlined G1 formulas, for no gain
 * there and 2-5% on the Fr kernels (PERF.md "Native G1 fixed-base MSM"). */
static inline int geq_m(const uint64_t a[4], const uint64_t m[4]) {
    #pragma GCC unroll 4
    for (int i = 3; i >= 0; i--) {
        if (a[i] > m[i]) return 1;
        if (a[i] < m[i]) return 0;
    }
    return 1;
}

static inline void sub_m(uint64_t a[4], const uint64_t m[4]) {
    u128 brw = 0;
    #pragma GCC unroll 4
    for (int i = 0; i < 4; i++) {
        u128 d = (u128)a[i] - m[i] - (uint64_t)brw;
        a[i] = (uint64_t)d;
        brw = (d >> 64) & 1;
    }
}

static inline void addmod_m(const uint64_t a[4], const uint64_t b[4],
                            uint64_t r[4], const uint64_t m[4]) {
    u128 c = 0;
    #pragma GCC unroll 4
    for (int i = 0; i < 4; i++) {
        c += (u128)a[i] + b[i];
        r[i] = (uint64_t)c;
        c >>= 64;
    }
    /* a, b < m < 2^254: the sum cannot carry out of 4 limbs. */
    if (geq_m(r, m)) sub_m(r, m);
}

static inline void submod_m(const uint64_t a[4], const uint64_t b[4],
                            uint64_t r[4], const uint64_t m[4]) {
    u128 brw = 0;
    #pragma GCC unroll 4
    for (int i = 0; i < 4; i++) {
        u128 d = (u128)a[i] - b[i] - (uint64_t)brw;
        r[i] = (uint64_t)d;
        brw = (d >> 64) & 1;
    }
    if (brw) {
        u128 c = 0;
        #pragma GCC unroll 4
        for (int i = 0; i < 4; i++) {
            c += (u128)r[i] + m[i];
            r[i] = (uint64_t)c;
            c >>= 64;
        }
    }
}

/* CIOS Montgomery multiply: r = a*b*2^-256 mod m, canonical output; r may
 * alias a or b. */
static inline void mont_mul_m(const uint64_t a[4], const uint64_t b[4],
                              uint64_t r[4], const uint64_t m[4],
                              uint64_t n0) {
    uint64_t t[5] = {0, 0, 0, 0, 0};
    #pragma GCC unroll 4
    for (int i = 0; i < 4; i++) {
        u128 c = 0;
        #pragma GCC unroll 4
        for (int j = 0; j < 4; j++) {
            c += (u128)t[j] + (u128)a[i] * b[j];
            t[j] = (uint64_t)c;
            c >>= 64;
        }
        uint64_t hi = t[4] + (uint64_t)c;
        uint64_t q = t[0] * n0;
        c = (u128)t[0] + (u128)q * m[0];
        c >>= 64;
        #pragma GCC unroll 4
        for (int j = 1; j < 4; j++) {
            c += (u128)t[j] + (u128)q * m[j];
            t[j - 1] = (uint64_t)c;
            c >>= 64;
        }
        c += hi;
        t[3] = (uint64_t)c;
        t[4] = (uint64_t)(c >> 64);
    }
    if (t[4] || geq_m(t, m)) sub_m(t, m);
    r[0] = t[0]; r[1] = t[1]; r[2] = t[2]; r[3] = t[3];
}

static const uint64_t ONE[4] = {1, 0, 0, 0};
static const uint64_t ZERO[4] = {0, 0, 0, 0};

static inline void cp4(uint64_t *d, const uint64_t *s) {
    d[0] = s[0]; d[1] = s[1]; d[2] = s[2]; d[3] = s[3];
}

static inline int eq4(const uint64_t *a, const uint64_t *b) {
    return a[0] == b[0] && a[1] == b[1] && a[2] == b[2] && a[3] == b[3];
}

static inline int is_zero4(const uint64_t *a) {
    return !(a[0] | a[1] | a[2] | a[3]);
}

#define addmod(a, b, r) addmod_m(a, b, r, P)
#define submod(a, b, r) submod_m(a, b, r, P)
#define mont_mul(a, b, r) mont_mul_m(a, b, r, P, N0INV)

/* r[i] = a[i]*b[i] mod p with b in Montgomery form. */
void fr_vec_mul(const uint64_t *a, const uint64_t *b, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++)
        mont_mul(a + 4 * i, b + 4 * i, r + 4 * i);
}

/* r[i] = a[i]*b[i] mod p, both canonical: the Montgomery product, then
 * one multiply by R^2 on the register result. */
void fr_vec_mul_canon(const uint64_t *a, const uint64_t *b, uint64_t *r,
                      size_t n) {
    uint64_t t[4];
    for (size_t i = 0; i < n; i++) {
        mont_mul(a + 4 * i, b + 4 * i, t);
        mont_mul(t, P_R2, r + 4 * i);
    }
}

/* r[i] = a[i]*b mod p with the single multiplier b in Montgomery form. */
void fr_vec_mul_scalar(const uint64_t *a, const uint64_t b[4], uint64_t *r,
                       size_t n) {
    for (size_t i = 0; i < n; i++)
        mont_mul(a + 4 * i, b, r + 4 * i);
}

void fr_vec_add(const uint64_t *a, const uint64_t *b, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++)
        addmod(a + 4 * i, b + 4 * i, r + 4 * i);
}

void fr_vec_sub(const uint64_t *a, const uint64_t *b, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++)
        submod(a + 4 * i, b + 4 * i, r + 4 * i);
}

/* In-place radix-2 NTT over bit-rev-loaded data.  tw holds the
 * stage-concatenated Montgomery-form twiddles (the stage with `half`
 * butterflies contributes `half` entries), matching NTTPlan stage order. */
void fr_ntt(uint64_t *a, size_t n, const uint64_t *tw) {
    uint64_t t[4], u[4];
    for (size_t len = 2; len <= n; len <<= 1) {
        size_t half = len >> 1;
        for (size_t i = 0; i < n; i += len) {
            for (size_t k = 0; k < half; k++) {
                uint64_t *lo = a + 4 * (i + k);
                uint64_t *hi = a + 4 * (i + k + half);
                mont_mul(hi, tw + 4 * k, t);
                u[0] = lo[0]; u[1] = lo[1]; u[2] = lo[2]; u[3] = lo[3];
                addmod(u, t, lo);
                submod(u, t, hi);
            }
        }
        tw += 4 * half;
    }
}

/* CSR matvec: out[q] = sum over row q of coeffs[j]*z[wires[j]] mod p,
 * coefficients in Montgomery form; out is canonical for a canonical z and
 * in Montgomery form for a Montgomery-form z. */
void fr_csr_matvec(const int64_t *wires, const uint64_t *coeffs,
                   const int64_t *row_ptr, size_t rows, const uint64_t *z,
                   uint64_t *out) {
    uint64_t t[4], acc[4];
    for (size_t q = 0; q < rows; q++) {
        acc[0] = acc[1] = acc[2] = acc[3] = 0;
        for (int64_t j = row_ptr[q]; j < row_ptr[q + 1]; j++) {
            mont_mul(z + 4 * wires[j], coeffs + 4 * j, t);
            addmod(acc, t, acc);
        }
        uint64_t *o = out + 4 * q;
        o[0] = acc[0]; o[1] = acc[1]; o[2] = acc[2]; o[3] = acc[3];
    }
}

/* r[i] = a[i] * 2^256 mod p (into Montgomery form); r may alias a. */
void fr_to_mont(const uint64_t *a, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++) mont_mul(a + 4 * i, P_R2, r + 4 * i);
}

/* ---- sumcheck rounds --------------------------------------------------------
 * The tables of one sumcheck live in Montgomery form, table j at
 * tabs + 4*stride*j with its first n rows live.  A round's summand at one
 * point, from one value per table (Montgomery in, Montgomery out): kind 0
 * is a*b, kind 1 a*b*c, kind 2 e*(a*b - c); kind k takes k + 2 tables. */
enum { SC_PROD2 = 0, SC_PROD3 = 1, SC_EQ_ABC = 2 };

static inline void sc_combine(int kind, uint64_t v[4][4], uint64_t r[4]) {
    uint64_t t[4];
    if (kind == SC_PROD2) {
        mont_mul(v[0], v[1], r);
    } else if (kind == SC_PROD3) {
        mont_mul(v[0], v[1], t);
        mont_mul(t, v[2], r);
    } else {
        mont_mul(v[1], v[2], t);
        submod(t, v[3], t);
        mont_mul(v[0], t, r);
    }
}

/* Row i of one table <- row i + r (row i+m - row i). */
static inline void sc_bind(uint64_t *t, size_t i, size_t m,
                           const uint64_t r[4]) {
    uint64_t d[4];
    submod(t + 4 * (i + m), t + 4 * i, d);
    mont_mul(d, r, d);
    addmod(t + 4 * i, d, t + 4 * i);
}

/* acc (5 limbs) += v, unreduced: a round's sums reduce once, at the end. */
static inline void sc_acc(uint64_t acc[5], const uint64_t v[4]) {
    u128 c = 0;
    #pragma GCC unroll 4
    for (int i = 0; i < 4; i++) {
        c += (u128)acc[i] + v[i];
        acc[i] = (uint64_t)c;
        c >>= 64;
    }
    acc[4] += (uint64_t)c;
}

/* A table's value on the line through rows lo and hi is lo at t = 0,
 * hi + (hi - lo) at t = 2 and hi + 2 (hi - lo) at t = 3.  Without a bind
 * (the first round), a pair that is zero in every table adds nothing and
 * is skipped: padded tables hold long zero runs. */
static inline void sc_round(int kind, uint64_t *tabs, size_t stride,
                            size_t n, const uint64_t *rp, uint64_t acc[3][5]) {
    size_t k = (size_t)kind + 2, m = rp ? n / 2 : n, h = m / 2;
    uint64_t lo[4][4], v2[4][4], v3[4][4], d[4], s[4], r[4];
    if (rp) cp4(r, rp);
    for (size_t i = 0; i < h; i++) {
        if (!rp) {
            int zero = 1;
            for (size_t j = 0; j < k && zero; j++) {
                const uint64_t *t = tabs + 4 * stride * j;
                zero = is_zero4(t + 4 * i) && is_zero4(t + 4 * (i + h));
            }
            if (zero) continue;
        }
        for (size_t j = 0; j < k; j++) {
            uint64_t *t = tabs + 4 * stride * j;
            if (rp) { sc_bind(t, i, m, r); sc_bind(t, i + h, m, r); }
            cp4(lo[j], t + 4 * i);
            submod(t + 4 * (i + h), lo[j], d);
            addmod(t + 4 * (i + h), d, v2[j]);
            if (kind != SC_PROD2) addmod(v2[j], d, v3[j]);
        }
        sc_combine(kind, lo, s); sc_acc(acc[0], s);
        sc_combine(kind, v2, s); sc_acc(acc[1], s);
        if (kind != SC_PROD2) { sc_combine(kind, v3, s); sc_acc(acc[2], s); }
    }
    /* An odd bound length leaves a last row no pair reaches; bind it too,
     * since after the last round that single row is the final value. */
    if (rp && (m & 1))
        for (size_t j = 0; j < k; j++)
            sc_bind(tabs + 4 * stride * j, m - 1, m, r);
}

/* One sumcheck round in one pass over the tables.  With r (Montgomery
 * form) non-NULL it first binds the previous round's challenge in place,
 * halving n (an odd n drops its last row, as the scalar prover does).
 * Then, over the pairs (row i, row i + n/2) of the live rows, it writes
 * the round's sums at t = 0, 2 and 3 to out (12 limbs, canonical; t = 3
 * reads 0 for kind 0).  Returns -2 for an unknown kind or a table count
 * that does not match it. */
int fr_sumcheck_round(int kind, uint64_t *tabs, size_t k, size_t stride,
                      size_t n, const uint64_t *r, uint64_t *out) {
    uint64_t acc[3][5];
    if (kind < SC_PROD2 || kind > SC_EQ_ABC || k != (size_t)kind + 2)
        return -2;
    memset(acc, 0, sizeof acc);
    /* Constant kinds: each loop is compiled for its own summand. */
    if (kind == SC_PROD2) sc_round(SC_PROD2, tabs, stride, n, r, acc);
    else if (kind == SC_PROD3) sc_round(SC_PROD3, tabs, stride, n, r, acc);
    else sc_round(SC_EQ_ABC, tabs, stride, n, r, acc);
    /* acc = lo + hi 2^256 holds (sum) 2^256, so sum = lo 2^-256 + hi. */
    for (int e = 0; e < 3; e++) {
        uint64_t hi[4] = {acc[e][4], 0, 0, 0};
        mont_mul(acc[e], ONE, out + 4 * e);
        addmod(out + 4 * e, hi, out + 4 * e);
    }
    return 0;
}

/* ---- BN254 Fq and G1 ------------------------------------------------------
 * Fq elements are in Montgomery form (x * 2^256 mod q); an affine point is
 * 8 limbs, x then y; a Jacobian point has z = 0 at infinity.  Points of a
 * table are never infinity: G1 has prime order, so no shift or small
 * multiple of a point other than O is O. */

static const uint64_t Q[4] = {
    0x3c208c16d87cfd47ULL, 0x97816a916871ca8dULL,
    0xb85045b68181585dULL, 0x30644e72e131a029ULL,
};
static const uint64_t QN0 = 0x87d20782e4866389ULL; /* -q^-1 mod 2^64 */
static const uint64_t Q_R2[4] = {                  /* 2^512 mod q */
    0xf32cfc5b538afa89ULL, 0xb5e71911d44501fbULL,
    0x47ab1eff0a417ff6ULL, 0x06d89f71cab8351fULL,
};
static const uint64_t Q_ONE[4] = {                 /* 1, Montgomery form */
    0xd35d438dc58f0d9dULL, 0x0a78eb28f5c70b3dULL,
    0x666ea36f7879462cULL, 0x0e0a77c19a07df2fULL,
};

#define fq_add(a, b, r) addmod_m(a, b, r, Q)
#define fq_sub(a, b, r) submod_m(a, b, r, Q)
#define fq_mul(a, b, r) mont_mul_m(a, b, r, Q, QN0)

/* a^(q-2) = a^-1 for a != 0 (Fermat). */
static void fq_inv(const uint64_t a[4], uint64_t r[4]) {
    uint64_t e[4] = {Q[0] - 2, Q[1], Q[2], Q[3]}, acc[4];
    cp4(acc, Q_ONE);
    for (int i = 253; i >= 0; i--) {
        fq_mul(acc, acc, acc);
        if ((e[i >> 6] >> (i & 63)) & 1) fq_mul(acc, a, acc);
    }
    cp4(r, acc);
}

/* v[i] <- v[i]^-1 for n non-zero elements, one inversion in all
 * (Montgomery's trick); pre holds 4n limbs of scratch. */
static void fq_batch_inv(uint64_t *v, size_t n, uint64_t *pre) {
    uint64_t acc[4], inv[4], t[4];
    if (!n) return;
    cp4(acc, Q_ONE);
    for (size_t i = 0; i < n; i++) {
        cp4(pre + 4 * i, acc);
        fq_mul(acc, v + 4 * i, acc);
    }
    fq_inv(acc, inv);
    for (size_t i = n; i-- > 0;) {
        fq_mul(inv, pre + 4 * i, t);
        fq_mul(inv, v + 4 * i, inv);
        cp4(v + 4 * i, t);
    }
}

/* r[i] = a[i] * 2^256 mod q (into Montgomery form); r may alias a. */
void fq_to_mont(const uint64_t *a, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++) fq_mul(a + 4 * i, Q_R2, r + 4 * i);
}

typedef struct { uint64_t x[4], y[4], z[4]; } jac;

static inline void jac_double(jac *p) {
    uint64_t ysq[4], s[4], m[4], t[4];
    if (is_zero4(p->z) || is_zero4(p->y)) { memset(p->z, 0, 32); return; }
    fq_mul(p->y, p->y, ysq);
    fq_mul(p->x, ysq, s);
    fq_add(s, s, s); fq_add(s, s, s);              /* s = 4 x y^2 */
    fq_mul(p->x, p->x, m);
    fq_add(m, m, t); fq_add(t, m, m);              /* m = 3 x^2 */
    fq_mul(p->y, p->z, p->z);
    fq_add(p->z, p->z, p->z);                      /* z = 2 y z */
    fq_mul(m, m, t);
    fq_sub(t, s, t); fq_sub(t, s, p->x);           /* x = m^2 - 2s */
    fq_mul(ysq, ysq, ysq);
    fq_add(ysq, ysq, ysq); fq_add(ysq, ysq, ysq);
    fq_add(ysq, ysq, ysq);                         /* 8 y^4 */
    fq_sub(s, p->x, t);
    fq_mul(m, t, t);
    fq_sub(t, ysq, p->y);                          /* y = m(s - x) - 8y^4 */
}

/* p += (x2, y2), affine and never infinity. */
static inline void jac_add_affine(jac *p, const uint64_t *x2,
                                  const uint64_t *y2) {
    uint64_t z1z1[4], u2[4], s2[4], h[4], i4[4], j[4], r[4], v[4], t[4];
    if (is_zero4(p->z)) {
        cp4(p->x, x2); cp4(p->y, y2); cp4(p->z, Q_ONE);
        return;
    }
    fq_mul(p->z, p->z, z1z1);
    fq_mul(x2, z1z1, u2);
    fq_mul(y2, p->z, s2);
    fq_mul(s2, z1z1, s2);
    if (eq4(p->x, u2)) {
        if (eq4(p->y, s2)) jac_double(p);
        else memset(p->z, 0, 32);
        return;
    }
    fq_sub(u2, p->x, h);
    fq_mul(h, h, i4);
    fq_add(i4, i4, i4); fq_add(i4, i4, i4);        /* 4 h^2 */
    fq_mul(h, i4, j);
    fq_sub(s2, p->y, r);
    fq_add(r, r, r);
    fq_mul(p->x, i4, v);
    fq_mul(r, r, t);
    fq_sub(t, j, t); fq_sub(t, v, t); fq_sub(t, v, p->x);
    fq_sub(v, p->x, v);
    fq_mul(r, v, v);
    fq_mul(p->y, j, t);
    fq_add(t, t, t);
    fq_sub(v, t, p->y);
    fq_mul(h, p->z, p->z);
    fq_add(p->z, p->z, p->z);
}

/* p += q, both Jacobian. */
static inline void jac_add(jac *p, const jac *q) {
    uint64_t z1z1[4], z2z2[4], u1[4], u2[4], s1[4], s2[4];
    uint64_t h[4], i4[4], j[4], r[4], v[4], t[4];
    if (is_zero4(q->z)) return;
    if (is_zero4(p->z)) { *p = *q; return; }
    fq_mul(p->z, p->z, z1z1);
    fq_mul(q->z, q->z, z2z2);
    fq_mul(p->x, z2z2, u1);
    fq_mul(q->x, z1z1, u2);
    fq_mul(p->y, q->z, s1);
    fq_mul(s1, z2z2, s1);
    fq_mul(q->y, p->z, s2);
    fq_mul(s2, z1z1, s2);
    if (eq4(u1, u2)) {
        if (eq4(s1, s2)) jac_double(p);
        else memset(p->z, 0, 32);
        return;
    }
    fq_sub(u2, u1, h);
    fq_mul(h, h, i4);
    fq_add(i4, i4, i4); fq_add(i4, i4, i4);
    fq_mul(h, i4, j);
    fq_sub(s2, s1, r);
    fq_add(r, r, r);
    fq_mul(u1, i4, v);
    fq_mul(r, r, t);
    fq_sub(t, j, t); fq_sub(t, v, t); fq_sub(t, v, p->x);
    fq_sub(v, p->x, v);
    fq_mul(r, v, v);
    fq_mul(s1, j, t);
    fq_add(t, t, t);
    fq_sub(v, t, p->y);
    fq_mul(h, p->z, t);
    fq_mul(t, q->z, t);
    fq_add(t, t, p->z);
}

/* n Jacobian points to affine (8 limbs each, Montgomery form, or
 * canonical with `canon`) with one inversion; inf[i] marks infinity (its
 * limbs are zeroed) and may be NULL when none can occur.  -1: no memory. */
static int normalize(const jac *pts, size_t n, uint64_t *out, uint8_t *inf,
                     int canon) {
    uint64_t *zs = malloc(8 * n * sizeof(uint64_t) + 1), *pre = zs + 4 * n;
    uint64_t zi2[4], zi3[4];
    size_t live = 0;
    if (!zs) return -1;
    for (size_t i = 0; i < n; i++)
        if (!is_zero4(pts[i].z)) cp4(zs + 4 * live++, pts[i].z);
    fq_batch_inv(zs, live, pre);
    live = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t *o = out + 8 * i;
        if (inf) inf[i] = is_zero4(pts[i].z);
        if (is_zero4(pts[i].z)) { memset(o, 0, 64); continue; }
        const uint64_t *zi = zs + 4 * live++;
        fq_mul(zi, zi, zi2);
        fq_mul(zi2, zi, zi3);
        fq_mul(pts[i].x, zi2, o);
        fq_mul(pts[i].y, zi3, o + 4);
        if (canon) { fq_mul(o, ONE, o); fq_mul(o + 4, ONE, o + 4); }
    }
    free(zs);
    return 0;
}

/* out[j][i] = 2^(i*step) * bases[j] for i < shifts (one doubling chain per
 * base and one shared normalisation). */
int g1_shifts(const uint64_t *bases, size_t n, size_t shifts, size_t step,
              uint64_t *out) {
    jac *acc = malloc(n * shifts * sizeof(jac) + 1);
    if (!acc) return -1;
    for (size_t j = 0; j < n; j++) {
        jac cur;
        cp4(cur.x, bases + 8 * j); cp4(cur.y, bases + 8 * j + 4);
        cp4(cur.z, Q_ONE);
        for (size_t i = 0; i < shifts; i++) {
            if (i) for (size_t k = 0; k < step; k++) jac_double(&cur);
            acc[j * shifts + i] = cur;
        }
    }
    int rc = normalize(acc, n * shifts, out, NULL, 0);
    free(acc);
    return rc;
}

/* out[j][d-1] = d * bases[j] for d = 1..count. */
int g1_multiples(const uint64_t *bases, size_t n, size_t count,
                 uint64_t *out) {
    jac *acc = malloc(n * count * sizeof(jac) + 1);
    if (!acc) return -1;
    for (size_t j = 0; j < n; j++) {
        jac cur;
        memset(cur.z, 0, 32);
        for (size_t d = 0; d < count; d++) {
            jac_add_affine(&cur, bases + 8 * j, bases + 8 * j + 4);
            acc[j * count + d] = cur;
        }
    }
    int rc = normalize(acc, n * count, out, NULL, 0);
    free(acc);
    return rc;
}

/* Signed base-2^w digits of a 256-bit magnitude, least significant first,
 * in [-2^(w-1)+1, 2^(w-1)]; stops at the top non-zero digit like
 * repro.curve.msm.signed_digits.  Returns the digit count. */
static size_t recode(const uint64_t mag[4], size_t w, int32_t *digits) {
    int top = 3;
    while (top >= 0 && !mag[top]) top--;
    if (top < 0) return 0;
    size_t bits = 64 * (size_t)top + 64 - (size_t)__builtin_clzll(mag[top]);
    size_t count = (bits + w) / w, used = 0;
    int64_t half = (int64_t)1 << (w - 1), carry = 0;
    for (size_t i = 0; i < count; i++) {
        size_t pos = i * w, limb = pos >> 6, off = pos & 63;
        uint64_t v = 0;
        if (limb < 4) {
            v = mag[limb] >> off;
            if (off + w > 64 && limb < 3) v |= mag[limb + 1] << (64 - off);
        }
        int64_t d = (int64_t)(v & (((uint64_t)1 << w) - 1)) + carry;
        carry = d > half;
        if (carry) d -= (int64_t)1 << w;
        digits[i] = (int32_t)d;
        if (d) used = i + 1;
    }
    return used;
}

/* Fixed-base MSM rows over a table of shifted bases, in one call.
 *
 * tab holds `shifts` affine shifts 2^(i*step) * P per present base; base j
 * is tab row idx[j], or absent when idx[j] < 0.  Row r's scalars are
 * mag[r][j] (magnitudes of folded scalars, 4 limbs) negated where
 * neg[r][j].  Window w is a multiple of step (one bucket space; digit i
 * takes shift i*w/step) or a divisor of it (step/w spaces; digit i takes
 * shift i/spaces into space i%spaces, the spaces combined with w
 * doublings).  Row r also adds dmag[r] (sign dneg[r]) times the point of
 * the dense table `dense`, whose window i stores d * 2^(i*dw) * H for
 * d = 1..2^(dw-1): each of its digits is one stored point, dropped into
 * the row's weight-1 bucket.  Pass dense = NULL for none.
 *
 * Buckets reduce as trees, every pair of a round sharing one batched
 * inversion, while a round has at least min_batch pairs; what is left
 * joins the Jacobian bucket aggregation.  out[r] is the affine row sum,
 * canonical, inf[r] set at infinity.  Returns 0, -1 when out of memory,
 * -2 for a window out of range or a digit beyond the table. */
int g1_fixed_msm(const uint64_t *tab, const int64_t *idx, size_t shifts,
                 size_t step, const uint64_t *mag, const uint8_t *neg,
                 size_t rows, size_t cols, size_t w,
                 const uint64_t *dense, size_t dw, size_t dwin,
                 const uint64_t *dmag, const uint8_t *dneg,
                 size_t min_batch, uint64_t *out, uint8_t *inf) {
    int32_t digits[260];
    if (w < 1 || w > 24 || !step || (dense && (dw < 1 || dw > 24))) return -2;
    size_t spaces = w < step ? step / w : 1, stride = w < step ? 1 : w / step;
    size_t half = (size_t)1 << (w - 1), dhalf = dense ? (size_t)1 << (dw - 1) : 0;
    size_t width = spaces * half, nb = rows * width;
    int rc = -1;
    size_t *cnt = calloc(2 * nb + 1, sizeof(size_t)), *start = cnt + nb;
    uint64_t *buf = NULL, *den = NULL;
    jac *tot = NULL;
    if (!cnt) return -1;

    /* Pass 1 counts every bucket's points; pass 2 gathers them, negated
     * where the digit's sign says so. */
    for (int pass = 0; pass < 2; pass++) {
        for (size_t r = 0; r < rows; r++) {
            size_t base = r * width;
            for (size_t j = 0; j < cols; j++) {
                const uint64_t *m = mag + 4 * (r * cols + j);
                if (idx[j] < 0) continue;
                size_t nd = recode(m, w, digits);
                for (size_t i = 0; i < nd; i++) {
                    int32_t d = digits[i];
                    if (!d) continue;
                    size_t t = spaces > 1 ? i / spaces : i * stride;
                    size_t b = base + (spaces > 1 ? (i % spaces) * half : 0)
                               + (size_t)(d < 0 ? -d : d) - 1;
                    if (t >= shifts) { rc = -2; goto done; }
                    if (!pass) { cnt[b]++; continue; }
                    uint64_t *o = buf + 8 * start[b]++;
                    const uint64_t *pt = tab + 8 * ((size_t)idx[j] * shifts + t);
                    memcpy(o, pt, 64);
                    if ((d < 0) != (neg[r * cols + j] != 0))
                        fq_sub(ZERO, pt + 4, o + 4);
                }
            }
            if (!dense) continue;
            size_t nd = recode(dmag + 4 * r, dw, digits);
            for (size_t i = 0; i < nd; i++) {
                int32_t d = digits[i];
                if (!d) continue;
                if (i >= dwin) { rc = -2; goto done; }
                if (!pass) { cnt[base]++; continue; }
                uint64_t *o = buf + 8 * start[base]++;
                const uint64_t *pt =
                    dense + 8 * (i * dhalf + (size_t)(d < 0 ? -d : d) - 1);
                memcpy(o, pt, 64);
                if ((d < 0) != (dneg[r] != 0)) fq_sub(ZERO, pt + 4, o + 4);
            }
        }
        size_t total = 0;
        for (size_t b = 0; b < nb; b++) {
            if (pass) start[b] -= cnt[b];
            else { start[b] = total; total += cnt[b]; }
        }
        if (!pass) {
            buf = malloc(8 * total * sizeof(uint64_t) + 1);
            den = malloc(4 * total * sizeof(uint64_t) + 1);
            if (!buf || !den) goto done;
        }
    }

    /* Tree rounds: pair 2i and 2i+1 of every bucket; the sums (cancelled
     * pairs dropped) and an odd last point move to the bucket's front. */
    for (;;) {
        size_t pairs = 0, nden = 0;
        for (size_t b = 0; b < nb; b++) pairs += cnt[b] / 2;
        if (!pairs || pairs < min_batch) break;
        for (size_t b = 0; b < nb; b++) {
            const uint64_t *p = buf + 8 * start[b];
            for (size_t i = 0; i + 1 < cnt[b]; i += 2, p += 16) {
                if (!eq4(p, p + 8)) fq_sub(p + 8, p, den + 4 * nden++);
                else if (eq4(p + 4, p + 12)) fq_add(p + 4, p + 4, den + 4 * nden++);
            }
        }
        fq_batch_inv(den, nden, den + 4 * nden);
        nden = 0;
        for (size_t b = 0; b < nb; b++) {
            uint64_t *p = buf + 8 * start[b], lam[4], t[4], x3[4], y3[4];
            size_t c = cnt[b], k = 0;
            for (size_t i = 0; i + 1 < c; i += 2) {
                const uint64_t *p1 = p + 8 * i, *p2 = p1 + 8;
                if (!eq4(p1, p2)) {
                    fq_sub(p2 + 4, p1 + 4, t);
                } else if (eq4(p1 + 4, p2 + 4)) {
                    fq_mul(p1, p1, t);
                    fq_add(t, t, lam); fq_add(lam, t, t);   /* 3 x^2 */
                } else {
                    continue;                               /* P + (-P) */
                }
                fq_mul(t, den + 4 * nden++, lam);
                fq_mul(lam, lam, x3);
                fq_sub(x3, p1, x3); fq_sub(x3, p2, x3);
                fq_sub(p1, x3, t);
                fq_mul(lam, t, y3);
                fq_sub(y3, p1 + 4, y3);
                cp4(p + 8 * k, x3); cp4(p + 8 * k + 4, y3);
                k++;
            }
            if (c & 1) { memmove(p + 8 * k, p + 8 * (c - 1), 64); k++; }
            cnt[b] = k;
        }
    }

    /* Aggregation: row total = sum over spaces (high first, w doublings
     * apart) of sum_d d * bucket_d, as running sums from the top bucket. */
    tot = malloc(rows * sizeof(jac) + 1);
    if (!tot) goto done;
    for (size_t r = 0; r < rows; r++) {
        jac total, running;
        memset(total.z, 0, 32);
        for (size_t sp = spaces; sp-- > 0;) {
            if (!is_zero4(total.z))
                for (size_t k = 0; k < w; k++) jac_double(&total);
            memset(running.z, 0, 32);
            for (size_t d = half; d-- > 0;) {
                size_t b = r * width + sp * half + d;
                const uint64_t *p = buf + 8 * start[b];
                for (size_t e = 0; e < cnt[b]; e++, p += 8)
                    jac_add_affine(&running, p, p + 4);
                jac_add(&total, &running);
            }
        }
        tot[r] = total;
    }
    rc = normalize(tot, rows, out, inf, 1);
done:
    free(tot);
    free(den);
    free(buf);
    free(cnt);
    return rc;
}
"""


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> str:
    # Key by source hash (rebuild on kernel changes) and uid (shared /tmp).
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(
        tempfile.gettempdir(), f"repro-fr-native-{digest}-u{uid}"
    )


def _build(lib_path: str) -> Optional["NativeFr"]:
    """Compile the kernels, load and self-test them, then publish the
    library at ``lib_path``; ``None`` on any failure."""
    cc = _compiler()
    if cc is None:
        return None
    build_dir = os.path.dirname(lib_path)
    os.makedirs(build_dir, exist_ok=True)
    # Per-process file names: a concurrent builder never compiles a
    # half-written source, and only a library that passed the self-test
    # replaces the shared one.
    stem = os.path.join(build_dir, f"fr-{os.getpid()}")
    src_path, tmp_path = stem + ".c", stem + ".so.tmp"
    try:
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp_path, src_path],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return None
        native = _open(tmp_path)
        if native is not None:
            os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
        return native
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for path in (src_path, tmp_path):
            try:
                os.unlink(path)
            except OSError:
                pass


class NativeFr:
    """ctypes facade over the compiled kernels.

    All array arguments are C-contiguous numpy arrays; the wrappers only
    attach pointer types, no copying happens here.
    """

    def __init__(self, lib: ctypes.CDLL):
        u64p = ctypes.POINTER(ctypes.c_uint64)
        i64p = ctypes.POINTER(ctypes.c_int64)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        size = ctypes.c_size_t
        self._u64p = u64p
        self._i64p = i64p
        self._u8p = u8p
        for name, argtypes, restype in (
            ("fr_vec_mul", (u64p, u64p, u64p, size), None),
            ("fr_vec_mul_canon", (u64p, u64p, u64p, size), None),
            ("fr_vec_mul_scalar", (u64p, u64p, u64p, size), None),
            ("fr_vec_add", (u64p, u64p, u64p, size), None),
            ("fr_vec_sub", (u64p, u64p, u64p, size), None),
            ("fr_ntt", (u64p, size, u64p), None),
            ("fr_csr_matvec", (i64p, u64p, i64p, size, u64p, u64p), None),
            ("fr_to_mont", (u64p, u64p, size), None),
            (
                "fr_sumcheck_round",
                (ctypes.c_int, u64p, size, size, size, u64p, u64p),
                ctypes.c_int,
            ),
            ("fq_to_mont", (u64p, u64p, size), None),
            ("g1_shifts", (u64p, size, size, size, u64p), ctypes.c_int),
            ("g1_multiples", (u64p, size, size, u64p), ctypes.c_int),
            (
                "g1_fixed_msm",
                (u64p, i64p, size, size, u64p, u8p, size, size, size,
                 u64p, size, size, u64p, u8p, size, u64p, u8p),
                ctypes.c_int,
            ),
        ):
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
            setattr(self, name[3:] if name.startswith("fr_") else name, fn)

    def uptr(self, arr):
        return arr.ctypes.data_as(self._u64p)

    def iptr(self, arr):
        return arr.ctypes.data_as(self._i64p)

    def bptr(self, arr):
        return arr.ctypes.data_as(self._u8p)


def _limbs(vals):
    """Python ints -> ``(n, 4)`` little-endian uint64 limbs."""
    import numpy as np

    buf = b"".join(v.to_bytes(32, "little") for v in vals)
    return np.frombuffer(buf, dtype="<u8").reshape(len(vals), 4).copy()


def _ints(arr):
    buf = arr.tobytes()
    return [int.from_bytes(buf[o:o + 32], "little")
            for o in range(0, len(buf), 32)]


def _self_test(native: "NativeFr") -> bool:
    """Fr multiplies and a small G1 fixed-base MSM through the compiled
    kernels against Python big ints — a toolchain that miscompiles the
    carries is rejected, not trusted."""
    return _fr_self_test(native) and _g1_self_test(native)


def _fr_self_test(native: "NativeFr") -> bool:
    import numpy as np

    a = 0x1234567890ABCDEF_FEDCBA0987654321_0123456789ABCDEF_0102030405 % _P
    b = (_P - 12345) % _P
    arr_a = _limbs([a])
    out = np.zeros((2, 4), dtype=np.uint64)
    native.vec_mul(
        native.uptr(arr_a),
        native.uptr(_limbs([b * pow(2, 256, _P) % _P])),
        native.uptr(out),
        1,
    )
    native.vec_mul_canon(
        native.uptr(arr_a), native.uptr(_limbs([b])),
        native.uptr(out[1:]), 1,
    )
    return _ints(out) == [a * b % _P] * 2 and _sumcheck_self_test(native)


def _sumcheck_self_test(native: "NativeFr") -> bool:
    """Two ``eq_abc`` rounds over four 4-row tables (the second binding
    the first's challenge in place) against Python big ints."""
    import numpy as np

    r256 = pow(2, 256, _P)
    rows = [[_P - 1, 3, 0, 7], [5, _P - 2, 11, 1], [2, 9, _P - 7, 4],
            [8, 0, 6, _P - 3]]
    tabs = _limbs([v for t in rows for v in t]).reshape(4, 4, 4)
    native.to_mont(native.uptr(tabs), native.uptr(tabs), 16)
    r, out = 0x1F2E3D4C5B6A7988 % _P, np.empty((3, 4), dtype=np.uint64)

    def sums(tables):
        half = len(tables[0]) // 2
        evals = []
        for t in (0, 2, 3):
            v = [[lo + t * (hi - lo) for lo, hi in zip(tb[:half], tb[half:])]
                 for tb in tables]
            evals.append(sum(e * (a * b - c) for e, a, b, c in zip(*v)) % _P)
        return evals

    bound = [[(lo + r * (hi - lo)) % _P for lo, hi in zip(t[:2], t[2:])]
             for t in rows]
    rm = _limbs([r * r256 % _P])
    for n, rp, want in ((4, None, sums(rows)), (4, rm, sums(bound))):
        rc = native.sumcheck_round(
            2, native.uptr(tabs), 4, 4, n,
            None if rp is None else native.uptr(rp), native.uptr(out),
        )
        if rc or _ints(out) != want:
            return False
    return True


# BN254 Fq, the coordinate field of G1.
_Q = 21888242871839275222246405745257275088696311157297823662689037894645226208583


def _affine_add(p1, p2):
    """Affine G1 addition over Python ints (``None`` is infinity): the
    self-test's oracle."""
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % _Q == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, _Q)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, _Q)
    x3 = (lam * lam - x1 - x2) % _Q
    return x3, (lam * (x1 - x3) - y1) % _Q


def _g1_self_test(native: "NativeFr") -> bool:
    """Rows ``[1, 1] + 5H``, ``[3, -3]`` and ``[2, 0] - H`` over the bases
    ``[G, G]`` (H = G on a w=2 dense table): a doubling pair, cancelling
    pairs and a negated blinder, through the batch-affine tree and through
    the Jacobian aggregation alone.  Then the variable-base form: rows
    ``[27, -3]``, ``[1, 1]`` and ``[5, -5]`` over one stored shift of
    ``[G, G]`` at step ``w * 3``, three bucket spaces of w=2 (27 recodes
    to the digits -1, -1, 2)."""
    import numpy as np

    u, g = native.uptr, (1, 2)

    def times(k):
        acc = None
        for _ in range(k):
            acc = _affine_add(acc, g)
        return acc

    def mont(points):
        arr = _limbs([c for pt in points for c in pt]).reshape(-1, 8)
        native.fq_to_mont(u(arr), u(arr), 2 * len(points))
        return arr

    tab = np.empty((2, 3, 8), dtype=np.uint64)
    win = np.empty((2, 8), dtype=np.uint64)
    dense = np.empty((2, 2, 8), dtype=np.uint64)
    if (
        native.g1_shifts(u(mont([g, g])), 2, 3, 2, u(tab))
        or native.g1_shifts(u(mont([g])), 1, 2, 2, u(win))
        or native.g1_multiples(u(win), 2, 2, u(dense))
    ):
        return False
    idx = np.array([0, 1], dtype=np.int64)
    mag = _limbs([1, 1, 3, 3, 2, 0])
    neg = np.array([0, 0, 0, 1, 0, 0], dtype=np.uint8)
    dmag = _limbs([5, 0, 1])
    dneg = np.array([0, 0, 1], dtype=np.uint8)
    one = mont([g, g])
    vmag = _limbs([27, 3, 1, 1, 5, 5])
    vneg = np.array([0, 1, 0, 0, 0, 1], dtype=np.uint8)

    def rows(min_batch, tb, shifts, step, m, ng, blind):
        out = np.empty((3, 8), dtype=np.uint64)
        inf = np.empty(3, dtype=np.uint8)
        rc = native.g1_fixed_msm(
            u(tb), native.iptr(idx), shifts, step, u(m), native.bptr(ng),
            3, 2, 2, *blind, min_batch, u(out), native.bptr(inf),
        )
        coords = _ints(out)
        return rc == 0 and [
            None if inf[r] else (coords[2 * r], coords[2 * r + 1])
            for r in range(3)
        ]

    blinded = (u(dense), 2, 2, u(dmag), native.bptr(dneg))
    for min_batch in (1, 64):
        if rows(min_batch, tab, 3, 2, mag, neg, blinded) != [times(7), None, g]:
            return False
        if rows(min_batch, one, 1, 6, vmag, vneg, (None, 0, 0, None, None)) != [
            times(24), times(2), None
        ]:
            return False
    return True


def _open(lib_path: str) -> Optional["NativeFr"]:
    """The library at ``lib_path`` if it loads, has every kernel and passes
    the self-test, else ``None``."""
    try:
        native = NativeFr(ctypes.CDLL(lib_path))
    except (OSError, AttributeError):
        return None
    return native if _self_test(native) else None


_LOADED: Optional[NativeFr] = None
_TRIED = False
_LOCK = threading.Lock()


def load() -> Optional[NativeFr]:
    """The compiled kernels, or ``None`` when unavailable.

    The first call does the work (cache lookup, compile, self-test); later
    calls return the memoized result.  A cached library that fails to load
    or to self-test (say, one compiled from a truncated source) is
    rebuilt once.
    """
    global _LOADED, _TRIED
    if _TRIED:
        return _LOADED
    with _LOCK:
        if not _TRIED:
            _LOADED = _load_uncached()
            _TRIED = True
    return _LOADED


def _load_uncached() -> Optional[NativeFr]:
    if sys.platform == "win32":  # no known-good default toolchain contract
        return None
    if sys.byteorder != "little":  # C kernels assume LE limb memory
        return None
    try:
        lib_path = os.path.join(_cache_dir(), "fr.so")
        if os.path.exists(lib_path):
            native = _open(lib_path)
            if native is not None:
                return native
        return _build(lib_path)  # replaces a bad cached library
    except Exception:
        return None


def reset_for_tests() -> None:
    """Forget the memoized load so the next call looks again."""
    global _LOADED, _TRIED
    _LOADED = None
    _TRIED = False
