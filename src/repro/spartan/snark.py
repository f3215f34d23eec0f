"""Spartan-style transparent zk-SNARK for R1CS (no trusted setup).

Protocol (Setty, CRYPTO'20), as reproduced here:

1. The prover commits to the witness MLE with the Hyrax-style Pedersen
   commitment.
2. Sumcheck #1 proves ``sum_x eq(tau, x) * (Az~(x) Bz~(x) - Cz~(x)) = 0``,
   pinning the R1CS identity at a random row point ``rx``.
3. Sumcheck #2 proves the three matrix-vector evaluations at ``rx`` against
   a random linear combination over columns, ending at a column point ``ry``.
4. The verifier evaluates the matrix MLEs itself as ``<m, wcol>``, with
   the same transposed-CSR column table ``m`` the prover runs sumcheck #2
   on (we omit Spartan's SPARK matrix commitments — the matrices are
   public here), and gets ``w~`` from the commitment opening.

Everything is made non-interactive with the Fiat–Shamir transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Sequence, Tuple

from ..field import vector
from ..field.ntt import next_power_of_two
from ..field.prime_field import BN254_FR_MODULUS
from ..poly.multilinear import eq_eval, eq_evals, eq_evals_limbs
from ..r1cs.system import R1CSInstance
from .commitment import (
    HyraxCommitment,
    HyraxOpening,
    HyraxProver,
    blinder_table,
    hyrax_shape,
    hyrax_verify,
    pedersen_table,
)
from .sumcheck import SumcheckProof, sumcheck_prove, sumcheck_verify
from .transcript import Transcript

R = BN254_FR_MODULUS


@dataclass
class SpartanProof:
    witness_commitment: HyraxCommitment
    sumcheck1: SumcheckProof
    va: int
    vb: int
    vc: int
    sumcheck2: SumcheckProof
    opening: HyraxOpening

    def size_bytes(self) -> int:
        return (
            self.witness_commitment.size_bytes()
            + self.sumcheck1.size_bytes()
            + 3 * 32
            + self.sumcheck2.size_bytes()
            + self.opening.size_bytes()
        )


def _half(num_public: int, num_witness: int) -> int:
    """Padded length of each half of the z-vector (public | witness)."""
    return max(2, next_power_of_two(max(num_public, num_witness)))


def _shape(instance: R1CSInstance):
    cons_padded = max(2, next_power_of_two(instance.num_constraints))
    half = _half(instance.num_public, instance.num_witness)
    full = 2 * half
    return cons_padded, half, full


def warm(num_public: int, num_witness: int) -> None:
    """Build the Pedersen table rows and the blinder table :func:`prove`
    commits a witness with, for an instance with these wire counts
    (idempotent)."""
    half = _half(num_public, num_witness)
    _, col_vars = hyrax_shape(half.bit_length() - 1)
    pedersen_table(1 << col_vars)
    blinder_table()


def _column_evals(
    instance: R1CSInstance,
    r_abc: Sequence[int],
    eq_rx: Sequence[int],
    ry: Sequence[int],
    pub: Sequence[int],
) -> Tuple[int, int]:
    """``(<m, wcol>, <pub, eq(ry[1:])>)`` with ``wcol = [(1 - ry0)
    eq(ry[1:]) | ry0 eq(ry[1:])]``: public wires on the first leg of the
    padded layout, the witness on the second.  On the vector engine ``m``
    and the eq table stay in limbs."""
    npub, nw = instance.num_public, instance.num_witness
    m = instance.transpose_matvec_limbs(r_abc, eq_rx)
    if m is None:
        eq, m = eq_evals(ry[1:]), instance.transpose_matvec(r_abc, eq_rx)
        dot = lambda a, b: sum(map(mul, a, b))  # noqa: E731
    else:
        eq, pub = eq_evals_limbs(ry[1:]), vector.to_limbs(pub)
        dot = lambda a, b: vector.vec_sum(vector.vec_mul(a, b))  # noqa: E731
    m_eval = (1 - ry[0]) * dot(m[:npub], eq[:npub])
    m_eval += ry[0] * dot(m[npub:], eq[:nw])
    return m_eval % R, dot(pub, eq[:npub]) % R


def _engaged(instance: R1CSInstance) -> bool:
    """True when the vector engine's CSR kernels serve A, B, C and the
    transposed stack, so the prover can stay in limbs throughout."""
    return all(instance.flat(w).vec_kernel() is not None for w in "ABCT")


def _padded(v, rows: int):
    """Limb rows ``v`` zero-padded to ``rows`` rows."""
    out = vector.np.zeros((rows, 4), dtype=vector.np.uint64)
    out[: len(v)] = v
    return out


def _split(v, npub: int, half: int):
    """The padded column layout ``[v[:npub], 0... | v[npub:], 0...]`` of
    limb rows ``v``, each leg ``half`` rows."""
    out = vector.np.zeros((2 * half, 4), dtype=vector.np.uint64)
    out[:npub] = v[:npub]
    out[half:half + len(v) - npub] = v[npub:]
    return out


def prove(
    instance: R1CSInstance,
    assignment: Sequence[int],
    transcript: Transcript,
) -> SpartanProof:
    """Prove ``instance`` satisfied by ``assignment``.

    When the vector engine serves every matrix, the assignment becomes
    limbs once: canonical for the witness commitment's opening, Montgomery
    form for everything the sumchecks read.  The CSR kernels keep a
    Montgomery-form input in Montgomery form, so Az, Bz, Cz, the column
    table and the padded z-table stay there until the sumchecks hand
    back their final values; no int list is built in between."""
    if len(assignment) != instance.num_wires:
        raise ValueError("assignment length mismatch")
    cons_padded, half, full = _shape(instance)
    cons_vars = cons_padded.bit_length() - 1
    col_vars = full.bit_length() - 1
    npub = instance.num_public
    limbs = vector.to_limbs(assignment) if _engaged(instance) else None

    # 1. Commit to the witness MLE.
    witness = [v % R for v in assignment[npub:]]
    hyrax = HyraxProver(
        witness, col_vars - 1, limbs=None if limbs is None else limbs[npub:]
    )
    commitment = hyrax.commit()
    transcript.append_points(b"witness-commit", commitment.row_commits)

    # 2. Sumcheck #1 over the constraint rows.
    tau = transcript.challenge_scalars(b"tau", cons_vars)
    if limbs is None:
        pad = [0] * (cons_padded - instance.num_constraints)
        tables1 = [eq_evals(tau)] + [
            instance.matvec(w, assignment) + pad for w in "ABC"
        ]
    else:
        zm = vector.to_mont(limbs)
        tables1 = [eq_evals_limbs(tau, vector.R256)] + [
            _padded(instance.matvec_limbs(w, zm), cons_padded) for w in "ABC"
        ]

    def combine1(vals: Sequence[int]) -> int:
        e, a, b, c = vals
        return e * ((a * b - c) % R) % R

    sc1, rx, finals1 = sumcheck_prove(
        tables1, combine1, 3, 0, transcript, b"sc1",
        kernel="eq_abc",
    )
    va, vb, vc = finals1[1], finals1[2], finals1[3]
    transcript.append_scalars(b"vabc", [va, vb, vc])

    # 3. Sumcheck #2 over the columns.
    r_abc = transcript.challenge_scalars(b"rabc", 3)
    claim2 = (r_abc[0] * va + r_abc[1] * vb + r_abc[2] * vc) % R

    # Padded z-vector layout: [1, public..., 0 pad | witness..., 0 pad].
    if limbs is None:
        pads = [0] * (half - npub), [0] * (half - len(witness))
        m_wires = instance.transpose_matvec(r_abc, eq_evals(rx))
        m_table = m_wires[:npub] + pads[0] + m_wires[npub:] + pads[1]
        z_table = [v % R for v in assignment[:npub]] + pads[0] + witness + pads[1]
    else:
        # Montgomery-form scales give a Montgomery-form column table.
        m_wires = instance.transpose_matvec_limbs(
            [s * vector.R256 % R for s in r_abc], eq_evals(rx)
        )
        m_table, z_table = _split(m_wires, npub, half), _split(zm, npub, half)

    def combine2(vals: Sequence[int]) -> int:
        return vals[0] * vals[1] % R

    sc2, ry, _finals2 = sumcheck_prove(
        [m_table, z_table], combine2, 2, claim2, transcript, b"sc2",
        kernel="prod2",
    )

    # 4. Open the witness MLE at ry[1:].
    opening = hyrax.open(ry[1:])
    transcript.append_scalars(b"opening", opening.t + [opening.value])

    return SpartanProof(
        witness_commitment=commitment,
        sumcheck1=sc1,
        va=va,
        vb=vb,
        vc=vc,
        sumcheck2=sc2,
        opening=opening,
    )


def verify(
    instance: R1CSInstance,
    public_inputs: Sequence[int],
    proof: SpartanProof,
    transcript: Transcript,
) -> bool:
    cons_padded, _, full = _shape(instance)
    cons_vars = cons_padded.bit_length() - 1
    col_vars = full.bit_length() - 1
    npub = instance.num_public
    if len(public_inputs) != npub - 1:
        return False

    transcript.append_points(
        b"witness-commit", proof.witness_commitment.row_commits
    )
    tau = transcript.challenge_scalars(b"tau", cons_vars)

    ok1, final1, rx = sumcheck_verify(
        proof.sumcheck1, 3, 0, cons_vars, transcript, b"sc1"
    )
    if not ok1:
        return False
    eq_tau_rx = eq_eval(tau, rx)
    if final1 != eq_tau_rx * ((proof.va * proof.vb - proof.vc) % R) % R:
        return False
    transcript.append_scalars(b"vabc", [proof.va, proof.vb, proof.vc])

    r_abc = transcript.challenge_scalars(b"rabc", 3)
    claim2 = (
        r_abc[0] * proof.va + r_abc[1] * proof.vb + r_abc[2] * proof.vc
    ) % R
    ok2, final2, ry = sumcheck_verify(
        proof.sumcheck2, 2, claim2, col_vars, transcript, b"sc2"
    )
    if not ok2:
        return False

    # Oracle evaluations the verifier does itself.
    m_eval, pub_eval = _column_evals(
        instance, r_abc, eq_evals(rx), ry, [1, *public_inputs]
    )
    if not hyrax_verify(proof.witness_commitment, ry[1:], proof.opening):
        return False
    transcript.append_scalars(
        b"opening", proof.opening.t + [proof.opening.value]
    )
    z_eval = ((1 - ry[0]) * pub_eval + ry[0] * proof.opening.value) % R

    return final2 == m_eval * z_eval % R
