"""Groth16 prover.

Cost profile (what the zkVC paper optimises):

* three MSMs over the wires appearing on the A side, B side, and in the
  witness (the paper's "left wires" are exactly the A-side MSM),
* the quotient polynomial ``h = (A*B - C)/t`` via coset NTTs over the
  constraint domain, plus an MSM of size ``domain - 1``.

CRPC shrinks the domain from ``a*b*n`` to ``n``; PSQ empties the A side of
everything except the actual matrix entries.

The zero-knowledge blinding by the random ``r`` and ``s`` adds the
points ``alpha1``, ``beta1``, ``delta1`` (G1) and ``beta2``, ``delta2``
(G2), fixed per proving key.  They are extra bases of the query vectors
(:meth:`~repro.groth16.keys.ProvingKey.blinded_queries`), so the blinding
rides the fixed-base MSMs::

    pi_A  = MSM([A  | alpha1 | delta1], [z | 1 | r])
    pi_B  = MSM([B2 | beta2  | delta2], [z | 1 | s])
    pi_B1 = MSM([B1 | beta1],           [z | 1])
    pi_C  = K + H + msm([pi_A, pi_B1], [s, r])

the last a 2-point Straus MSM with shared doublings.  Expanded, ``pi_C``
is ``K + H + s*alpha1 + r*beta1 + rs*delta1 + s*A_acc + r*B1_acc``, the
same point as the textbook ``K + H + s*pi_A + r*(pi_B1 + s*delta1) -
rs*delta1``, so the proof bytes are those of that form.  No blinding term
needs a scalar multiplication of its own.

The quotient runs on a *same-size* coset: ``deg h <= N - 2``, so ``N``
evaluations anywhere off the domain determine it, and on the coset
``g * <omega_N>`` the vanishing polynomial is the constant ``t(g*w^i) =
g^N - 1``.  That needs 7 transforms of size ``N`` (3 inverse, 3 coset
forward, 1 coset inverse, batched through one cached plan) versus the
doubled-domain reference pipeline (retained as
:func:`_compute_h_reference`), which pays 3 size-``N`` plus 4
size-``2N`` transforms and a per-point alternating ``t``-inverse.  Both
compute the *same polynomial*, so proof bytes are identical.
"""

from __future__ import annotations

import secrets
from typing import Callable, Dict, List, Optional, Sequence

# ``multiply`` is unused here but stays importable: the e2e benchmark's
# tracer (benchmarks/e2e/trace.py) patches it to count generic
# multiplications in a proof, which must be zero.
from ..curve.bn254 import CURVE_ORDER, AffinePoint, add, multiply  # noqa: F401
from ..curve.fixed_base import FixedBaseMSM
from ..curve.msm import msm
from ..field import vector as _vector
from ..field.ntt import (
    NTTPlan,
    get_plan,
    naive_evaluate_on_coset,
    naive_interpolate_from_coset,
    naive_ntt,
)
from ..field.prime_field import inv_mod
from ..r1cs.system import R1CSInstance
from .keys import Proof, ProvingKey

R = CURVE_ORDER

# Coset generator for the quotient computation; any non-domain element works.
COSET_GENERATOR = 7



class _QuotientContext:
    """Everything ``_compute_h`` needs that depends only on the domain size:
    the shared transform plan (with its coset ladders pre-warmed) and the
    constant coset ``t``-inverse.  Cached per domain size — every proving
    key with the same domain shares one context, however it was (re)built.
    """

    __slots__ = ("plan", "t_inv")

    def __init__(self, domain_size: int):
        self.plan: NTTPlan = get_plan(domain_size)
        g = COSET_GENERATOR
        # t(g*w^i) = g^N * (w^N)^i - 1 = g^N - 1: constant on the coset.
        self.t_inv = inv_mod(pow(g, domain_size, R) - 1, R)
        self.plan.coset_ladder(g)


_QUOTIENT_CONTEXTS: Dict[int, _QuotientContext] = {}


def _quotient_context(domain_size: int) -> _QuotientContext:
    ctx = _QUOTIENT_CONTEXTS.get(domain_size)
    # The plan identity check keeps the context honest across
    # ``clear_ntt_plan_cache()``: a cleared plan cache would otherwise
    # leave the context pinning a stale plan while ``get_plan`` hands out
    # a fresh one.
    if ctx is None or ctx.plan is not get_plan(domain_size):
        ctx = _QuotientContext(domain_size)
        _QUOTIENT_CONTEXTS[domain_size] = ctx
    return ctx


def _compute_h(
    instance: R1CSInstance, assignment: Sequence[int], domain_size: int
) -> List[int]:
    """Coefficients of ``h(X) = (A(X)B(X) - C(X)) / t(X)``."""
    ctx = _quotient_context(domain_size)
    plan = ctx.plan
    state = plan.vec_state()
    if state is not None:
        return _compute_h_limbs(instance, assignment, domain_size, ctx, state)
    az = instance.matvec("A", assignment)
    bz = instance.matvec("B", assignment)
    cz = instance.matvec("C", assignment)
    pad = domain_size - len(az)
    if pad:
        az += [0] * pad
        bz += [0] * pad
        cz += [0] * pad

    g = COSET_GENERATOR
    a_coeffs, b_coeffs, c_coeffs = plan.ntt_many((az, bz, cz), inverse=True)
    a_ev, b_ev, c_ev = plan.coset_ntt_many((a_coeffs, b_coeffs, c_coeffs), g)

    t_inv = ctx.t_inv
    h_ev = [
        (a * b - c) * t_inv % R for a, b, c in zip(a_ev, b_ev, c_ev)
    ]
    h_coeffs = plan.coset_intt(h_ev, g)
    # deg h <= N - 2; the top coefficient must be zero for a satisfied
    # instance.
    del h_coeffs[domain_size - 1:]
    return h_coeffs


def _compute_h_limbs(
    instance: R1CSInstance,
    assignment: Sequence[int],
    domain_size: int,
    ctx: _QuotientContext,
    state: dict,
) -> List[int]:
    """The quotient chain under the vector engine: one assignment
    conversion in, one coefficient conversion out, and everything between
    (matvecs, 7 transforms, pointwise combine) in limb space.  Same
    polynomial, hence identical proof bytes."""
    np = _vector.np
    plan = ctx.plan
    g = COSET_GENERATOR
    z = _vector.to_limbs(assignment)
    prods = []
    for which in ("A", "B", "C"):
        mz = instance.matvec_limbs(which, z)
        if mz is None:  # matrix below the kernel floor: scalar matvec
            mz = _vector.to_limbs(instance.matvec(which, assignment))
        if mz.shape[0] != domain_size:
            padded = np.zeros((domain_size, 4), dtype=np.uint64)
            padded[: mz.shape[0]] = mz
            mz = padded
        coeffs = plan.ntt_limbs(mz, inverse=True, state=state)
        prods.append(plan.coset_ntt_limbs(coeffs, g, state=state))
    a_ev, b_ev, c_ev = prods
    h_ev = _vector.vec_mul_scalar(
        _vector.vec_sub(_vector.vec_mul(a_ev, b_ev), c_ev), ctx.t_inv
    )
    h_coeffs = _vector.from_limbs(plan.coset_intt_limbs(h_ev, g, state=state))
    del h_coeffs[domain_size - 1:]
    return h_coeffs


def _compute_h_reference(
    instance: R1CSInstance, assignment: Sequence[int], domain_size: int
) -> List[int]:
    """The seed quotient pipeline over the doubled domain, kept verbatim
    (naive transforms, materialised coset shifts, per-call inversions,
    tuple-unpacking matvecs) as the equivalence-test and benchmark
    reference for :func:`_compute_h`."""
    az = instance.naive_matvec("A", assignment)
    bz = instance.naive_matvec("B", assignment)
    cz = instance.naive_matvec("C", assignment)
    pad = domain_size - len(az)
    az += [0] * pad
    bz += [0] * pad
    cz += [0] * pad

    a_coeffs = naive_ntt(az, inverse=True)
    b_coeffs = naive_ntt(bz, inverse=True)
    c_coeffs = naive_ntt(cz, inverse=True)

    # Evaluate on a coset of the double-size domain so deg(A*B) fits.
    big = 2 * domain_size
    g = COSET_GENERATOR
    a_ev = naive_evaluate_on_coset(a_coeffs, big, g)
    b_ev = naive_evaluate_on_coset(b_coeffs, big, g)
    c_ev = naive_evaluate_on_coset(c_coeffs, big, g)

    # t(g*omega^i) = g^N * omega^(iN) - 1 where omega is the big-domain root;
    # omega^N = -1 for the double domain, so t alternates between g^N-1 and
    # -g^N-1.
    gn = pow(g, domain_size, R)
    t0_inv = inv_mod(gn - 1, R)
    t1_inv = inv_mod(-gn - 1, R)
    h_ev = [
        (a * b - c) % R * (t0_inv if i % 2 == 0 else t1_inv) % R
        for i, (a, b, c) in enumerate(zip(a_ev, b_ev, c_ev))
    ]
    h_coeffs = naive_interpolate_from_coset(h_ev, g)
    # deg h <= N - 2; anything above must be zero for a satisfied instance.
    return h_coeffs[: domain_size - 1]


# Every query MSM is one call of this function, named after its query:
# the e2e benchmark's tracer (benchmarks/e2e/trace.py) wraps it by name and
# reads the span name from its first positional argument and the point
# count from the length of its third.
def fixed_base_msm(name: str, bases, scalars: Sequence[int]) -> AffinePoint:
    """``sum_j scalars[j] * P_j`` over a query's :class:`FixedBaseMSM`, or
    over its plain base list with the generic ``msm``
    (:meth:`~repro.groth16.keys.ProvingKey.query_msms`)."""
    if isinstance(bases, FixedBaseMSM):
        return bases.msm(scalars)
    return msm(bases, scalars)


def prove(
    pk: ProvingKey,
    instance: R1CSInstance,
    assignment: Sequence[int],
    rng: Optional[Callable[[], int]] = None,
) -> Proof:
    """Produce a Groth16 proof for ``assignment`` satisfying ``instance``."""
    if rng is None:
        rng = lambda: secrets.randbelow(R)  # noqa: E731
    if len(assignment) != instance.num_wires:
        raise ValueError("assignment length mismatch")
    if len(assignment) != len(pk.a_query):
        # The blinding scalars follow the wires: a shorter assignment
        # would put them on wire bases.
        raise ValueError("assignment does not match the proving key")

    r = rng() % R
    s = rng() % R

    # The query bases are fixed per proving key, so the key holds a
    # fixed-base table for each of the five query MSMs (four in G1, one in
    # G2), built by its second proof: every later proof runs them with no
    # doublings at all.
    a_side, b2_side, b1_side, k_side, h_side = pk.query_msms()
    wires = list(assignment)

    # pi_A = alpha + sum c_i u_i(tau) + r*delta
    pi_a = fixed_base_msm("groth16-a", a_side, wires + [1, r])
    # pi_B (G2) = beta + sum c_i v_i(tau) + s*delta
    pi_b = fixed_base_msm("groth16-b2", b2_side, wires + [1, s])
    # pi_B1 = beta + sum c_i v_i(tau), pi_B in G1 without its s*delta.
    pi_b1 = fixed_base_msm("groth16-b1", b1_side, wires + [1])

    k_acc = fixed_base_msm("groth16-k", k_side, wires[pk.num_public:])
    h_coeffs = _compute_h(instance, assignment, pk.domain_size)
    h_acc = fixed_base_msm("groth16-h", h_side, h_coeffs)

    # pi_C = K + H + s*pi_A + r*pi_B1 (module docstring).
    pi_c = add(add(k_acc, h_acc), msm([pi_a, pi_b1], [s, r]))
    return Proof(a=pi_a, b=pi_b, c=pi_c)
