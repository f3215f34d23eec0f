"""Key and proof containers for the Groth16 backend."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..curve.bn254 import AffinePoint, point_to_bytes


@dataclass
class ProvingKey:
    """CRS elements the prover needs.

    For zkVC's packed circuits the CRPC indeterminate ``zeta`` is part of the
    toxic waste: the wire evaluations baked into these elements already
    include the ``zeta^d`` monomial factors, so proving is *identical* to
    vanilla Groth16 (the packing is free at proof time).
    """

    alpha_g1: AffinePoint
    beta_g1: AffinePoint
    beta_g2: object
    delta_g1: AffinePoint
    delta_g2: object
    # Per-wire queries (length == num_wires); entries are None when the wire
    # polynomial evaluates to zero (wire absent from that side).
    a_query: List[AffinePoint]
    b_g1_query: List[AffinePoint]
    b_g2_query: List[object]
    # Witness-only combined query [(beta*u_i + alpha*v_i + w_i)/delta]_1,
    # indexed from the first witness wire.
    k_query: List[AffinePoint]
    # Powers-of-tau-times-t(tau)/delta for the quotient polynomial.
    h_query: List[AffinePoint]
    num_public: int = 1
    domain_size: int = 0

    def size_bytes(self) -> int:
        count_g1 = (
            3
            + sum(p is not None for p in self.a_query)
            + sum(p is not None for p in self.b_g1_query)
            + sum(p is not None for p in self.k_query)
            + len(self.h_query)
        )
        count_g2 = 2 + sum(p is not None for p in self.b_g2_query)
        return count_g1 * 64 + count_g2 * 128

    def fingerprint(self) -> bytes:
        """Stable 16-byte digest of the key material.

        Unlike ``id(pk)``, the fingerprint survives serialisation round
        trips — a proving key rehydrated from the KeyStore in a pool
        worker fingerprints identically to the original — so it is the
        right cache label for the fixed-base window tables.  Hashing
        every query point would cost more than a small MSM, so the digest
        covers the shape counts, the per-key random CRS elements
        (``alpha``/``beta``/``delta``, unique per trusted setup), and the
        first/last two points of each G1 query.  The fixed-base cache
        additionally content-checks every base vector it holds a table
        for, and the blinding points (``alpha1``, ``beta1``, ``delta1``,
        ``beta2``, ``delta2``) are bases of those vectors
        (:meth:`blinded_queries`), so a fingerprint collision can never
        produce a wrong proof.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            h = hashlib.sha256(b"groth16-pk-fingerprint-v1")
            for count in (
                self.num_public,
                self.domain_size,
                len(self.a_query),
                len(self.b_g1_query),
                len(self.k_query),
                len(self.h_query),
            ):
                h.update(count.to_bytes(8, "big"))
            for pt in (self.alpha_g1, self.beta_g1, self.delta_g1):
                h.update(point_to_bytes(pt))
            for query in (self.a_query, self.b_g1_query, self.k_query, self.h_query):
                for pt in query[:2]:
                    h.update(point_to_bytes(pt))
                for pt in query[-2:]:
                    h.update(point_to_bytes(pt))
            fp = h.digest()[:16]
            self._fingerprint = fp
        return fp

    def blinded_queries(self) -> Tuple[list, list, list]:
        """The A, B (G2) and B (G1) queries with the points their blinding
        terms multiply appended: ``[A | alpha1 | delta1]``,
        ``[B2 | beta2 | delta2]`` and ``[B1 | beta1]``.  The prover runs
        its MSMs over these, taking the ``1 | r``, ``1 | s`` and ``1``
        scalars after the wires.  Built once per key, like
        :meth:`fingerprint`, so the fixed-base cache sees the same lists
        on every proof.
        """
        queries = getattr(self, "_blinded_queries", None)
        if queries is None:
            queries = (
                [*self.a_query, self.alpha_g1, self.delta_g1],
                [*self.b_g2_query, self.beta_g2, self.delta_g2],
                [*self.b_g1_query, self.beta_g1],
            )
            self._blinded_queries = queries
        return queries


@dataclass
class VerifyingKey:
    alpha_g1: AffinePoint
    beta_g2: object
    gamma_g2: object
    delta_g2: object
    # IC elements for [1, public inputs...]
    ic: List[AffinePoint] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 64 * (1 + len(self.ic)) + 3 * 128


@dataclass
class Proof:
    a: AffinePoint
    b: object  # G2
    c: AffinePoint

    def to_bytes(self) -> bytes:
        return (
            point_to_bytes(self.a)
            + point_to_bytes(self.b)
            + point_to_bytes(self.c)
        )

    def size_bytes(self) -> int:
        return len(self.to_bytes())


@dataclass
class Groth16Keypair:
    pk: ProvingKey
    vk: VerifyingKey
