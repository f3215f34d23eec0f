"""Groth16 verifier: one MSM over the public inputs + a 4-pairing check.

The check is ``e(A, B) = e(alpha, beta) * e(L(x), gamma) * e(C, delta)``
computed as a single product of Miller loops sharing one final
exponentiation.
"""

from __future__ import annotations

from typing import Sequence

from ..curve.bn254 import neg
from ..curve.msm import msm
from ..curve.pairing import pairing_product_is_one
from .keys import Proof, VerifyingKey


def prepare_inputs(
    vk: VerifyingKey, public_inputs: Sequence[int], ic0_weight: int = 1
):
    """Compute the statement accumulator ``L(x) = IC_0 + sum x_i IC_{i+1}``
    as one MSM over ``vk.ic``.

    ``ic0_weight`` scales ``IC_0``: a batch of statements combined with
    coefficients ``r_k`` is ``(sum r_k) IC_0 + sum_i (sum_k r_k x_ki) IC_{i+1}``.
    """
    if len(public_inputs) != len(vk.ic) - 1:
        raise ValueError(
            f"expected {len(vk.ic) - 1} public inputs, got {len(public_inputs)}"
        )
    return msm(vk.ic, [ic0_weight, *public_inputs])


def verify(vk: VerifyingKey, public_inputs: Sequence[int], proof: Proof) -> bool:
    """True iff the proof verifies against the statement."""
    lx = prepare_inputs(vk, public_inputs)
    return pairing_product_is_one(
        [
            (neg(proof.a), proof.b),
            (vk.alpha_g1, vk.beta_g2),
            (lx, vk.gamma_g2),
            (proof.c, vk.delta_g2),
        ]
    )
