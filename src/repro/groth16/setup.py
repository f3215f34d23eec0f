"""Groth16 trusted setup.

Operates on a *specialised* :class:`~repro.r1cs.system.R1CSInstance` — for
zkVC's CRPC circuits the packing indeterminate ``Z`` has already been
collapsed to the circuit's public Fiat–Shamir point before setup runs (see
:mod:`repro.core.api`), so from here on everything is textbook Groth16.
"""

from __future__ import annotations

import secrets
from typing import Callable, Optional

from ..curve.bn254 import CURVE_ORDER, g1_generator, g2_generator
from ..curve.fixed_base import FixedBaseTable
from ..field.prime_field import inv_mod
from ..qap.qap import evaluate_qap_at
from ..r1cs.system import R1CSInstance
from .keys import Groth16Keypair, ProvingKey, VerifyingKey

R = CURVE_ORDER


def _rand_scalar(rng: Callable[[], int]) -> int:
    while True:
        v = rng() % R
        if v:
            return v


def setup(
    instance: R1CSInstance,
    rng: Optional[Callable[[], int]] = None,
) -> Groth16Keypair:
    """Run the trusted setup for a concrete R1CS instance.

    ``rng`` is a zero-argument callable returning random ints; defaults to a
    cryptographically secure source.  Tests inject a seeded generator for
    reproducibility.
    """
    if rng is None:
        rng = lambda: secrets.randbelow(R)  # noqa: E731

    tau = _rand_scalar(rng)
    alpha = _rand_scalar(rng)
    beta = _rand_scalar(rng)
    gamma = _rand_scalar(rng)
    delta = _rand_scalar(rng)

    qap = evaluate_qap_at(instance, tau)

    # Every CRS element is a multiple of one of the two generators, so
    # each gets one dense fixed-base table: a scalar mul is then ~64 mixed
    # additions and no doublings.
    g1 = FixedBaseTable(g1_generator()).mul
    g2 = FixedBaseTable(g2_generator()).mul
    gamma_inv = inv_mod(gamma, R)
    delta_inv = inv_mod(delta, R)

    a_query = [g1(u) if u else None for u in qap.u]
    b_g1_query = [g1(v) if v else None for v in qap.v]
    b_g2_query = [g2(v) if v else None for v in qap.v]

    ic = []
    for i in range(instance.num_public):
        val = (beta * qap.u[i] + alpha * qap.v[i] + qap.w[i]) % R
        ic.append(g1(val * gamma_inv % R))

    k_query = []
    for i in range(instance.num_public, instance.num_wires):
        val = (beta * qap.u[i] + alpha * qap.v[i] + qap.w[i]) % R
        k_query.append(g1(val * delta_inv % R) if val else None)

    # [tau^i * t(tau) / delta]_1 for i = 0..N-2 (deg h <= N-2).
    h_query = []
    base = qap.t_at_tau * delta_inv % R
    power = 1
    for _ in range(qap.domain_size - 1):
        h_query.append(g1(base * power % R))
        power = power * tau % R

    pk = ProvingKey(
        alpha_g1=g1(alpha),
        beta_g1=g1(beta),
        beta_g2=g2(beta),
        delta_g1=g1(delta),
        delta_g2=g2(delta),
        a_query=a_query,
        b_g1_query=b_g1_query,
        b_g2_query=b_g2_query,
        k_query=k_query,
        h_query=h_query,
        num_public=instance.num_public,
        domain_size=qap.domain_size,
    )
    vk = VerifyingKey(
        alpha_g1=pk.alpha_g1,
        beta_g2=pk.beta_g2,
        gamma_g2=g2(gamma),
        delta_g2=pk.delta_g2,
        ic=ic,
    )
    return Groth16Keypair(pk=pk, vk=vk)
