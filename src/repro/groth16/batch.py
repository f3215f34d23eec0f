"""Batch verification of Groth16 proofs.

Verifying k proofs naively costs 4k Miller loops.  With the standard
small-exponent batching trick, the k pairing equations are combined with
random coefficients r_i into one product check, costing one multi-Miller
loop over k+3 pairs and a single final exponentiation:

    prod_i e(-A_i, B_i)^{r_i} * e(alpha, beta)^{sum r_i}
         * e(sum r_i L_i, gamma) * e(sum r_i C_i, delta)  ==  1

Sound because a proof failing its own equation survives the batch only if
the random r_i hit a specific linear relation (probability ~ 2^-128).
All proofs must share the same verifying key.  Its ``beta``, ``gamma``
and ``delta`` enter as prepared pairs (:func:`.verify.prepare_verifying_key`),
so only the k pairs ``(-r_i A_i, B_i)`` run G2 arithmetic in the loop.
"""

from __future__ import annotations

import secrets
from typing import Callable, Optional, Sequence

from ..curve.msm import msm
from ..curve.pairing import pairing_product_is_one
from .keys import Proof, VerifyingKey
from .verify import prepare_inputs, prepare_verifying_key


def batch_verify(
    vk: VerifyingKey,
    statements: Sequence[Sequence[int]],
    proofs: Sequence[Proof],
    rng: Optional[Callable[[], int]] = None,
) -> bool:
    """Verify many proofs against one verifying key in a single check."""
    if len(statements) != len(proofs):
        raise ValueError("statements and proofs must pair up")
    if not proofs:
        return True
    if rng is None:
        rng = lambda: secrets.randbits(127) | 1  # noqa: E731

    coeffs = [rng() for _ in proofs]
    # One-point MSMs, not ``multiply``: under the vector engine each is one
    # C call, and ``msm`` negates by folding ``-r_i`` into its scalar.
    pairs = [(msm([proof.a], [-r_i]), proof.b) for r_i, proof in zip(coeffs, proofs)]
    pvk = prepare_verifying_key(vk)
    prepared = [
        (msm([vk.alpha_g1], [sum(coeffs)]), pvk.beta_g2),
        (combined_statement(vk, statements, coeffs), pvk.gamma_g2),
        (msm([proof.c for proof in proofs], coeffs), pvk.delta_g2),
    ]
    return pairing_product_is_one(pairs, prepared=prepared)


def combined_statement(
    vk: VerifyingKey, statements: Sequence[Sequence[int]], coeffs: Sequence[int]
):
    """``sum_k r_k L(x_k)`` as a single MSM over ``vk.ic``: the weight of
    ``IC_0`` is ``sum r_k`` and that of ``IC_{i+1}`` is ``sum_k r_k x_ki``."""
    weights = [0] * (len(vk.ic) - 1)
    for r_k, public in zip(coeffs, statements):
        if len(public) != len(weights):
            raise ValueError(
                f"expected {len(weights)} public inputs, got {len(public)}"
            )
        for i, x in enumerate(public):
            weights[i] += r_k * x
    return prepare_inputs(vk, weights, sum(coeffs))
