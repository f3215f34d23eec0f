"""Groth16 verifier: one MSM over the public inputs + a pairing check.

The check is ``e(A, B) = e(alpha, beta) * e(L(x), gamma) * e(C, delta)``.
Three of its G2 arguments and the whole factor ``e(alpha, beta)`` are
fixed by the verifying key, so :func:`prepare_verifying_key` computes
them once per key: the Miller-loop lines of ``beta``, ``gamma`` and
``delta`` (:func:`~repro.curve.pairing.prepare_g2`) and
``e(alpha, beta)^-1``.  :func:`verify` then runs one multi-Miller loop
over the live pair ``(-A, B)`` and the prepared pairs ``(L(x), gamma)``
and ``(C, delta)``, and compares its final exponentiation with
``e(alpha, beta)^-1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..curve.bn254 import neg
from ..curve.msm import msm
from ..curve.pairing import (
    Fq12Tower,
    PreparedG2,
    final_exponentiation,
    fq12_conjugate,
    miller_loop_raw,
    pairing_product_is_one,
    prepare_g2,
)
from .keys import Proof, VerifyingKey

#: verifying keys whose prepared form the process keeps (about 0.15 MB
#: each); least recently used first out
PREPARED_KEY_CACHE_SIZE = 16


@dataclass(frozen=True)
class PreparedVerifyingKey:
    """The per-key part of the Groth16 check, computed once per key."""

    beta_g2: Optional[PreparedG2]
    gamma_g2: Optional[PreparedG2]
    delta_g2: Optional[PreparedG2]
    #: ``e(alpha, beta)^-1`` in tower form
    alpha_beta_inv: Fq12Tower


@functools.lru_cache(maxsize=PREPARED_KEY_CACHE_SIZE)
def _prepared_key(alpha_g1, beta_g2, gamma_g2, delta_g2) -> PreparedVerifyingKey:
    beta = prepare_g2(beta_g2)
    # e(alpha, beta) is unitary, so its inverse is its conjugate.  A
    # malformed key can make it zero; the check then rejects every proof.
    alpha_beta = final_exponentiation(miller_loop_raw((), [(alpha_g1, beta)]))
    return PreparedVerifyingKey(
        beta, prepare_g2(gamma_g2), prepare_g2(delta_g2), fq12_conjugate(alpha_beta)
    )


def prepare_verifying_key(vk: VerifyingKey) -> PreparedVerifyingKey:
    """The prepared form of ``vk``, from a process-wide cache keyed on
    the exact coordinates of ``alpha``, ``beta``, ``gamma`` and
    ``delta``: a key rebuilt from bytes finds the entry of the original."""
    return _prepared_key(vk.alpha_g1, vk.beta_g2, vk.gamma_g2, vk.delta_g2)


def clear_prepared_key_cache() -> None:
    """Forget every prepared verifying key."""
    _prepared_key.cache_clear()


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
    pvk = prepare_verifying_key(vk)
    return pairing_product_is_one(
        [(neg(proof.a), proof.b)],
        prepared=[(lx, pvk.gamma_g2), (proof.c, pvk.delta_g2)],
        expected=pvk.alpha_beta_inv,
    )
