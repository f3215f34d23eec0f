"""Key and proof containers for the Groth16 backend."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..curve.bn254 import AffinePoint, point_to_bytes
from ..curve.fixed_base import FixedBaseMSM


@dataclass
class ProvingKey:
    """CRS elements the prover needs.

    For zkVC's packed circuits the CRPC indeterminate ``zeta`` is part of the
    toxic waste: the wire evaluations baked into these elements already
    include the ``zeta^d`` monomial factors, so proving is *identical* to
    vanilla Groth16 (the packing is free at proof time).

    From its second proof on, the key also holds the fixed-base tables of
    the prover's five query MSMs (:meth:`tables`).
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

    def blinded_queries(self) -> Tuple[list, list, list]:
        """The A, B (G2) and B (G1) queries with the points their blinding
        terms multiply appended: ``[A | alpha1 | delta1]``,
        ``[B2 | beta2 | delta2]`` and ``[B1 | beta1]``.  The prover runs
        its MSMs over these, taking the ``1 | r``, ``1 | s`` and ``1``
        scalars after the wires.  Built once per key.
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

    def query_msms(self) -> tuple:
        """The bases of the prover's five MSMs, in proof order: the
        blinded A, B (G2) and B (G1) queries, then K and H.

        The prover calls this once per proof.  The first call returns the
        plain base lists, so a key proved once runs the generic ``msm``
        and never pays the precompute; the second builds the key's
        :meth:`tables`, and every later call returns them.
        """
        if getattr(self, "_tables", None) is None and not getattr(
            self, "_proved", False
        ):
            self._proved = True
            return (*self.blinded_queries(), self.k_query, self.h_query)
        return self.tables()

    def tables(self) -> Tuple[FixedBaseMSM, ...]:
        """One :class:`FixedBaseMSM` per base list of :meth:`query_msms`,
        built on the first call.  They are attributes of this key, so
        they are freed with it."""
        tables = getattr(self, "_tables", None)
        if tables is None:
            tables = tuple(
                FixedBaseMSM(bases)
                for bases in (*self.blinded_queries(), self.k_query, self.h_query)
            )
            self._tables = tables
        return tables


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
