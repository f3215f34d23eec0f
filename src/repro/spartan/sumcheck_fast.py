"""Linear-time sumcheck prover kernels.

The generic prover in :mod:`sumcheck` calls a Python ``combine`` callback
``(degree + 1) * n/2`` times per round and rebuilds every table on every
bind.  This module removes all three costs:

* **in-place binding** — tables are bound to the round challenge in place
  and truncated, so no round allocates fresh tables;
* **the round-claim shortcut** — every round polynomial satisfies
  ``s(0) + s(1) = claim``, so ``evals[1] = claim - evals[0]`` replaces one
  full combine sweep per round (the proof bytes are unchanged: an honest
  prover's ``s(1)`` already equals ``claim - s(0)``);
* **no-callback kernels** — the product-of-2 (Spartan phase 2, zkCNN) and
  ``eq * (a*b - c)`` (Spartan phase 1) combines that dominate the prover
  run as tight integer loops with one modular reduction per accumulator
  per round instead of one per term.

On the vector engine a selected kernel goes further: the tables enter
Montgomery form once and every round — bind the previous challenge, sum
the new round at ``t = 0, 2, 3`` — is one C pass
(:class:`repro.field.vector.SumcheckTables`, the linear-time prover of
Thaler, CRYPTO 2013).  Only the round's values come back to Python, for
the transcript and the next claim.

The public ``sumcheck_prove`` here is re-exported through ``sumcheck.py``,
so every caller picks it up transparently; ``sumcheck.py`` keeps the naive
reference implementation for equivalence tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from ..field import vector as _vector
from ..field.prime_field import BN254_FR_MODULUS, batch_inv_mod
from .transcript import Transcript

R = BN254_FR_MODULUS

Combine = Callable[[Sequence[int]], int]


@dataclass
class SumcheckProof:
    """Round polynomials as evaluation lists at t = 0..degree."""

    round_polys: List[List[int]] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 32 * sum(len(p) for p in self.round_polys)


@lru_cache(maxsize=32)
def _lagrange_denominator_invs(deg: int) -> Tuple[int, ...]:
    """Inverses of ``prod_{j != i} (i - j)`` for the fixed nodes 0..deg,
    all computed with a single batched inversion and cached per degree."""
    dens = []
    for i in range(deg + 1):
        den = 1
        for j in range(deg + 1):
            if j != i:
                den = den * ((i - j) % R) % R
        dens.append(den)
    return tuple(batch_inv_mod(dens, R))


def _interpolate_eval(evals: Sequence[int], x: int) -> int:
    """Evaluate the poly interpolating ``(i, evals[i])`` at ``x``.

    Lagrange over the fixed nodes 0..deg: the denominators never change, so
    their inverses come from a per-degree LRU (built with one batched
    inversion); the numerators are prefix/suffix products of ``(x - j)`` —
    no per-call inversions at all.
    """
    deg = len(evals) - 1
    x %= R
    if x <= deg:
        return evals[x] % R
    den_invs = _lagrange_denominator_invs(deg)
    # prefix[i] = prod_{j < i} (x - j), suffix[i] = prod_{j > i} (x - j).
    prefix = [1] * (deg + 1)
    for i in range(deg):
        prefix[i + 1] = prefix[i] * (x - i) % R
    suffix = [1] * (deg + 1)
    for i in range(deg, 0, -1):
        suffix[i - 1] = suffix[i] * (x - i) % R
    acc = 0
    for yi, pre, suf, dinv in zip(evals, prefix, suffix, den_invs):
        acc += yi * pre % R * suf % R * dinv
    return acc % R


def _bind_tables(tables: List[List[int]], half: int, r: int) -> None:
    """Bind the first free variable to ``r`` in place and truncate."""
    for t in tables:
        for i in range(half):
            lo = t[i]
            t[i] = (lo + r * (t[half + i] - lo)) % R
        del t[half:]


def _round_generic(
    tables: List[List[int]],
    half: int,
    claim: int,
    combine: Combine,
    degree: int,
) -> List[int]:
    evals = [0] * (degree + 1)
    for idx in range(half):
        los = [t[idx] for t in tables]
        diffs = [(h - l) % R for l, h in zip(los, (t[half + idx] for t in tables))]
        vals = los
        evals[0] += combine(vals)
        for t in range(1, degree + 1):
            vals = [(v + d) % R for v, d in zip(vals, diffs)]
            if t >= 2:
                evals[t] += combine(vals)
    evals[0] %= R
    if degree >= 1:
        evals[1] = (claim - evals[0]) % R
    for t in range(2, degree + 1):
        evals[t] %= R
    return evals


def _round_prod2(
    tables: List[List[int]], half: int, claim: int
) -> List[int]:
    """Degree-2 product of two tables: ``g = A * B``."""
    a, b = tables
    e0 = 0
    e2 = 0
    for i in range(half):
        al = a[i]
        bl = b[i]
        ah = a[half + i]
        bh = b[half + i]
        e0 += al * bl
        e2 += (2 * ah - al) * (2 * bh - bl)
    return [e0 % R, (claim - e0) % R, e2 % R]


def _round_prod3(
    tables: List[List[int]], half: int, claim: int
) -> List[int]:
    """Degree-3 product of three tables: ``g = A * B * C``."""
    a, b, c = tables
    e0 = 0
    e2 = 0
    e3 = 0
    for i in range(half):
        al, bl, cl = a[i], b[i], c[i]
        ah, bh, ch = a[half + i], b[half + i], c[half + i]
        e0 += al * bl % R * cl
        e2 += (2 * ah - al) * (2 * bh - bl) % R * (2 * ch - cl)
        e3 += (3 * ah - 2 * al) * (3 * bh - 2 * bl) % R * (3 * ch - 2 * cl)
    return [e0 % R, (claim - e0) % R, e2 % R, e3 % R]


def _round_eq_abc(
    tables: List[List[int]], half: int, claim: int
) -> List[int]:
    """Degree-3 Spartan phase-1 combine: ``g = E * (A*B - C)``."""
    e, a, b, c = tables
    e0 = 0
    e2 = 0
    e3 = 0
    for i in range(half):
        el, al, bl, cl = e[i], a[i], b[i], c[i]
        eh, ah, bh, ch = e[half + i], a[half + i], b[half + i], c[half + i]
        e0 += el * (al * bl - cl)
        e2 += (2 * eh - el) * ((2 * ah - al) * (2 * bh - bl) - (2 * ch - cl))
        e3 += (3 * eh - 2 * el) * (
            (3 * ah - 2 * al) * (3 * bh - 2 * bl) - (3 * ch - 2 * cl)
        )
    return [e0 % R, (claim - e0) % R, e2 % R, e3 % R]


# kernel name -> (round function, expected table count, expected degree)
_KERNELS = {
    "prod2": (_round_prod2, 2, 2),
    "prod3": (_round_prod3, 3, 3),
    "eq_abc": (_round_eq_abc, 4, 3),
}


def _prove_native(tables, kernel, degree, claim, transcript, label):
    """The kernel-selected prover on the vector engine: the tables enter
    Montgomery form once and every round is one C call that binds the
    previous challenge and sums the new round.  Only the round's few
    values cross back into Python for the transcript."""
    tabs = _vector.SumcheckTables(kernel, tables)
    proof = SumcheckProof()
    r_point: List[int] = []
    current_claim = claim % R
    r = None
    for _rnd in range(len(tables[0]).bit_length() - 1):
        e0, e2, e3 = tabs.round(r)
        evals = [e0, (current_claim - e0) % R, e2, e3][: degree + 1]
        proof.round_polys.append(evals)
        transcript.append_scalars(label + b"/round", evals)
        r = transcript.challenge_scalar(label + b"/challenge")
        r_point.append(r)
        current_claim = _interpolate_eval(evals, r)
    tabs.bind(r)
    return proof, r_point, tabs.finals()


def _int_table(t) -> List[int]:
    """A fresh list-of-ints copy of one table."""
    if _vector.HAVE_NUMPY and isinstance(t, _vector.np.ndarray):
        return _vector.from_mont(t)
    return list(t)


def sumcheck_prove(
    tables,
    combine: Combine,
    degree: int,
    claim: int,
    transcript: Transcript,
    label: bytes = b"sumcheck",
    kernel: Optional[str] = None,
) -> Tuple[SumcheckProof, List[int], List[int]]:
    """Run the prover side (fast path).

    ``tables`` are equal-length power-of-two evaluation tables, each a
    sequence of ints or an ``(n, 4)`` Montgomery-form limb array
    (``vector.to_mont``, as the Spartan prover builds them); ``combine``
    maps one value
    per table to the summand; ``degree`` bounds the per-round degree in
    the bound variable.  ``kernel`` selects a specialized no-callback
    round kernel (``"prod2"``, ``"prod3"``, ``"eq_abc"``) whose combine
    the caller guarantees matches; it must agree with ``tables`` and
    ``degree`` or a ``ValueError`` is raised.  On the vector engine a
    selected kernel runs every round in C (tables of at least
    ``2 * vector.SUMCHECK_MIN_HALF`` rows); the scalar loops above are
    the ``REPRO_FIELD_BACKEND=scalar`` path and the oracle.  Both emit
    the same round evaluations, so the proof bytes do not depend on the
    engine.

    Unlike the reference prover (which never reads it), ``claim`` is
    load-bearing here: the round-claim shortcut derives ``s(1)`` from it,
    so it **must** equal the true sum of ``combine`` over the tables.  A
    placeholder claim silently yields a proof the verifier rejects.

    Produces byte-identical proofs to the naive reference prover for honest
    claims, and returns (proof, challenge point r, final bound values per
    table).
    """
    size = len(tables[0])
    if any(len(t) != size for t in tables):
        raise ValueError("tables must have equal length")
    round_fn = None
    if kernel is not None:
        try:
            round_fn, want_tables, want_degree = _KERNELS[kernel]
        except KeyError:
            raise ValueError(f"unknown sumcheck kernel {kernel!r}")
        if len(tables) != want_tables or degree != want_degree:
            raise ValueError(
                f"kernel {kernel!r} expects {want_tables} tables of "
                f"degree {want_degree}"
            )
        if (
            _vector.active_impl() is not None
            and size // 2 >= _vector.SUMCHECK_MIN_HALF
        ):
            return _prove_native(
                tables, kernel, degree, claim, transcript, label
            )
    num_rounds = size.bit_length() - 1
    tables = [_int_table(t) for t in tables]  # rounds bind in place
    proof = SumcheckProof()
    r_point: List[int] = []
    current_claim = claim % R

    for _rnd in range(num_rounds):
        half = len(tables[0]) // 2
        if round_fn is not None:
            evals = round_fn(tables, half, current_claim)
        else:
            evals = _round_generic(tables, half, current_claim, combine, degree)
        proof.round_polys.append(evals)
        transcript.append_scalars(label + b"/round", evals)
        r = transcript.challenge_scalar(label + b"/challenge")
        r_point.append(r)
        _bind_tables(tables, half, r)
        current_claim = _interpolate_eval(evals, r)

    finals = [t[0] for t in tables]
    return proof, r_point, finals
