"""Groth16 blinding points as appended query bases, and the Straus
small MSM.

* ``msm`` over 1..15 live points (the Straus path) equals the per-point
  ``multiply`` sum in G1 and G2, with ``None`` points, zero scalars,
  folded negatives, ``r - 1``, duplicated points and ``P`` with ``-P``;
* a dense :class:`FixedBaseTable` (the trusted setup's generator tables)
  equals ``multiply`` at every window;
* a key's first proof (generic MSMs), its second (table build) and a
  proof after ``Groth16Backend.warm`` match sha256 digests pinned from
  the prover that multiplied the blinding points on tables of their own,
  and ``pi_C`` equals the textbook formula;
* no proof makes a generic ``multiply`` call, and ``warm`` builds exactly
  the five query tables a proof uses;
* seven keys proved in rotation build five tables each, all at their
  second proof, and a dropped key's tables are freed with it;
* the default randomness of the trusted setup, the Groth16 prover and
  the Hyrax blinders is uniform below r (``secrets.randbelow``).
"""

import gc
import hashlib
import importlib
import random
import secrets
import weakref

import pytest

from repro.core.backends import Groth16Backend
from repro.curve.bn254 import (
    CURVE_ORDER,
    add,
    g1_generator,
    g2_generator,
    multiply,
    neg,
)
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable
from repro.curve.msm import msm
from repro.gadgets.matmul import MatmulCircuit
from repro.groth16 import prove, setup, verify
from repro.spartan.commitment import HyraxProver, hyrax_verify

# The package attributes ``repro.groth16.prove`` and ``repro.curve.msm``
# are functions; these are the modules.
prove_mod = importlib.import_module("repro.groth16.prove")
msm_mod = importlib.import_module("repro.curve.msm")

R = CURVE_ORDER
_rng = random.Random(0xB11D)
POOLS = {
    "g1": [multiply(g1_generator(), _rng.randrange(1, R)) for _ in range(6)],
    "g2": [multiply(g2_generator(), _rng.randrange(1, R)) for _ in range(6)],
}
_S = _rng.randrange(R)


def _naive(points, scalars):
    acc = None
    for pt, sc in zip(points, scalars):
        acc = add(acc, multiply(pt, sc))
    return acc


def _edge_case(pool, n):
    """The first ``n`` of a 15-entry pattern: a ``None`` point, a zero
    scalar, ``r - 1``, folded negatives, a duplicated point and two
    cancelling ``P``/``-P`` pairs."""
    p = pool
    points = [p[0], None, p[1], p[0], neg(p[1]), p[2], p[3], p[2],
              p[4], neg(p[4]), p[5], p[0], p[3], p[5], p[1]]
    scalars = [_S, 9, R - 1, 0, R - 5, R // 2 + 1, -3, _S * 7 % R,
               1, 1, R // 2, 127, R - _S, 2, 3 * _S % R]
    return points[:n], scalars[:n]


def _uniform_case(pool, n):
    rng = random.Random(n)
    return (
        [pool[i % len(pool)] for i in range(n)],
        [rng.randrange(R) for _ in range(n)],
    )


@pytest.mark.parametrize("group", ["g1", "g2"])
@pytest.mark.parametrize("n", range(1, 16))
class TestStrausMsm:
    def test_edges_match_naive(self, group, n):
        pts, scs = _edge_case(POOLS[group], n)
        assert msm(pts, scs) == _naive(pts, scs)

    def test_uniform_match_naive(self, group, n):
        pts, scs = _uniform_case(POOLS[group], n)
        assert msm(pts, scs) == _naive(pts, scs)


def test_small_msm_takes_straus_path(monkeypatch):
    """The Python dispatch, the one a G1 ``msm`` takes without the C
    kernel (the scalar engine)."""
    calls = []
    real = msm_mod._msm_straus
    monkeypatch.setattr(
        msm_mod, "_msm_straus", lambda p, s: calls.append(len(p)) or real(p, s)
    )
    monkeypatch.setattr(msm_mod, "_g1_kernels", lambda ops: None)
    pool = POOLS["g1"]
    for n in (1, 2, 15, 16):
        pts, scs = _uniform_case(pool, n)
        assert msm(pts, scs) == _naive(pts, scs)
    # One point keeps the single multiply, 16 goes batch-affine.
    assert calls == [2, 15]


@pytest.mark.parametrize("group", ["g1", "g2"])
class TestDenseTable:
    def test_every_window_matches_multiply(self, group):
        pt = POOLS[group][0]
        scalars = [0, 1, 2, 16, 17, -1, R - 1, R // 2, R // 2 + 1, R + 5, _S]
        for window in (3, 4, 5, 6):
            tab = FixedBaseTable(pt, window=window)
            assert [tab.mul(k) for k in scalars] == [
                multiply(pt, k) for k in scalars
            ]


# -- Groth16 -------------------------------------------------------------------


def _det_rng(seed):
    r = random.Random(seed)
    return lambda: r.getrandbits(256)


def _artifacts(seed, shape=(2, 3, 2), strategy="crpc_psq"):
    circuit = MatmulCircuit(*shape, strategy)
    rng = random.Random(99)
    a, n, b = shape
    circuit.assign(
        [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)],
        [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)],
    )
    return circuit, Groth16Backend().setup(circuit, rng=_det_rng(seed))


# sha256 of seeded proofs (setup seed 7, prover seed 11, shape 2x3x2),
# taken from the prover that multiplied the blinding points on dense
# per-key tables of their own.
PINNED_PROOFS = {
    "crpc_psq": "42c4b0677e68d4c6bdb0e221b77d4cca08fa7990cd8d12fc3c2f6be105d32c1b",
    "vanilla": "53e3114cb3781845848298ba95b5e11a5f2dce9817cdc01799fab05a7ed2e6be",
}


@pytest.fixture(scope="module")
def crpc():
    return _artifacts(7)


@pytest.fixture
def table_builds(monkeypatch):
    """``(bases, weakref to the table)`` of every :class:`FixedBaseMSM`
    built while the test runs."""
    builds = []
    real = FixedBaseMSM.__init__

    def spy(self, points=(), window=None):
        builds.append((points, weakref.ref(self)))
        real(self, points, window)

    monkeypatch.setattr(FixedBaseMSM, "__init__", spy)
    return builds


@pytest.fixture
def multiply_calls(monkeypatch):
    calls = []
    real = prove_mod.multiply

    def spy(point, scalar):
        calls.append(point)
        return real(point, scalar)

    monkeypatch.setattr(prove_mod, "multiply", spy)
    return calls


def _prove(circuit, artifacts, seed=11):
    pk = artifacts.keypair.pk
    return prove(
        pk, artifacts.instance, circuit.cs.assignment(), rng=_det_rng(seed)
    )


def _textbook_pi_c(pk, instance, assignment, seed):
    """``pi_C = K + H + s*pi_A + r*pi_B1 - rs*delta1`` from generic MSMs
    and multiplies, with ``pi_B1 = beta1 + B1_acc + s*delta1``."""
    draw = _det_rng(seed)
    r, s = draw() % R, draw() % R
    a_acc = msm(pk.a_query, assignment)
    b1_acc = msm(pk.b_g1_query, assignment)
    k_acc = msm(pk.k_query, list(assignment[pk.num_public:]))
    h = prove_mod._compute_h(instance, assignment, pk.domain_size)
    h_acc = msm(pk.h_query, h)
    pi_a = add(add(pk.alpha_g1, a_acc), multiply(pk.delta_g1, r))
    pi_b1 = add(add(pk.beta_g1, b1_acc), multiply(pk.delta_g1, s))
    pi_c = add(k_acc, h_acc)
    pi_c = add(pi_c, multiply(pi_a, s))
    pi_c = add(pi_c, multiply(pi_b1, r))
    return add(pi_c, neg(multiply(pk.delta_g1, r * s % R)))


def _query_vectors(pk):
    """The five base lists a proof runs its MSMs over, in proof order."""
    return [*pk.blinded_queries(), pk.k_query, pk.h_query]


class TestBlindingByteIdentity:
    @pytest.mark.parametrize("strategy", sorted(PINNED_PROOFS))
    def test_proofs_match_pinned_bytes(self, strategy, table_builds):
        circuit, artifacts = _artifacts(7, strategy=strategy)
        # The generic MSMs, then the table build.
        proofs = [_prove(circuit, artifacts) for _ in range(2)]
        assert len(table_builds) == 5
        # A fresh copy of the same key, warmed before its first proof.
        circuit, artifacts = _artifacts(7, strategy=strategy)
        Groth16Backend().warm(artifacts, circuit)
        proofs.append(_prove(circuit, artifacts))
        assert len(table_builds) == 10
        for pf in proofs:
            assert hashlib.sha256(pf.to_bytes()).hexdigest() == (
                PINNED_PROOFS[strategy]
            )
        assert verify(
            artifacts.keypair.vk, circuit.cs.public_inputs(), proofs[0]
        )

    def test_generic_promoted_and_warmed_proofs_agree(self):
        circuit, artifacts = _artifacts(7)
        # Generic, table build, tables.
        proofs = [_prove(circuit, artifacts) for _ in range(3)]
        circuit, artifacts = _artifacts(7)
        Groth16Backend().warm(artifacts, circuit)
        proofs.append(_prove(circuit, artifacts))
        blobs = {pf.to_bytes() for pf in proofs}
        assert len(blobs) == 1
        assert verify(
            artifacts.keypair.vk, circuit.cs.public_inputs(), proofs[0]
        )

    def test_pi_c_equals_old_formula(self, crpc):
        circuit, artifacts = crpc
        pk = artifacts.keypair.pk
        assignment = circuit.cs.assignment()
        for seed in (11, 12):
            pf = _prove(circuit, artifacts, seed)
            assert pf.c == _textbook_pi_c(
                pk, artifacts.instance, assignment, seed
            )


class TestBlindingTables:
    def test_warm_removes_every_generic_multiply(
        self, table_builds, multiply_calls
    ):
        circuit, artifacts = _artifacts(7)
        pk = artifacts.keypair.pk
        Groth16Backend().warm(artifacts, circuit)
        # Exactly the five query tables, over the lists a proof passes.
        bases = [points for points, _ in table_builds]
        assert len(bases) == 5
        assert all(
            got is want for got, want in zip(bases, _query_vectors(pk))
        )
        assert bases[0][-2:] == [pk.alpha_g1, pk.delta_g1]
        _prove(circuit, artifacts)
        assert multiply_calls == []
        assert len(table_builds) == 5

    def test_second_proof_runs_on_tables(self, table_builds, multiply_calls):
        circuit, artifacts = _artifacts(7)
        _prove(circuit, artifacts)
        # The blinding points ride the generic MSMs: no multiply, no table.
        assert multiply_calls == []
        assert table_builds == []
        _prove(circuit, artifacts)
        _prove(circuit, artifacts)
        assert multiply_calls == []
        assert len(table_builds) == 5
        tables = artifacts.keypair.pk.query_msms()
        assert [ref() for _, ref in table_builds] == list(tables)

    def test_seven_keys_rotating_build_each_table_once(self, table_builds):
        """More keys than the six a bounded cache once held: each builds
        its five tables at its second proof and never again."""
        keys = [_artifacts(30 + i) for i in range(7)]
        builds = {}
        for rnd in range(3):
            for i, (circuit, artifacts) in enumerate(keys):
                before = len(table_builds)
                pf = _prove(circuit, artifacts)
                assert verify(
                    artifacts.keypair.vk, circuit.cs.public_inputs(), pf
                )
                if len(table_builds) > before:
                    builds[i, rnd] = [p for p, _ in table_builds[before:]]
        assert sorted(builds) == [(i, 1) for i in range(7)]
        for i, (_, artifacts) in enumerate(keys):
            want = _query_vectors(artifacts.keypair.pk)
            assert len(builds[i, 1]) == 5
            assert all(got is w for got, w in zip(builds[i, 1], want))

    def test_dropped_key_frees_its_tables(self, table_builds):
        circuit, artifacts = _artifacts(40)
        Groth16Backend().warm(artifacts, circuit)
        pf = _prove(circuit, artifacts)
        assert verify(artifacts.keypair.vk, circuit.cs.public_inputs(), pf)
        refs = [ref for _, ref in table_builds]
        assert len(refs) == 5 and all(ref() is not None for ref in refs)
        del artifacts, pf
        gc.collect()
        assert all(ref() is None for ref in refs)


def test_default_randomness_is_uniform_below_r(monkeypatch):
    """``randbits(256) % r`` makes residues below ``2^256 mod r`` 6/5 as
    likely as the rest; every default draw is ``randbelow(r)`` instead:
    the toxic waste, r and s, and the Hyrax row blinders."""
    draws = []
    real = secrets.randbelow

    def below(n):
        draws.append(n)
        return real(n)

    def biased(_bits):
        raise AssertionError("a default draw reduced randbits mod r")

    monkeypatch.setattr(secrets, "randbits", biased)
    monkeypatch.setattr(secrets, "randbelow", below)
    circuit = MatmulCircuit(2, 3, 2, "crpc_psq")
    rng = random.Random(5)
    circuit.assign(
        [[rng.randint(-128, 127) for _ in range(3)] for _ in range(2)],
        [[rng.randint(-128, 127) for _ in range(2)] for _ in range(3)],
    )
    instance = circuit.cs.specialize(circuit.packing_point())
    keypair = setup(instance)
    pf = prove(keypair.pk, instance, circuit.cs.assignment())
    assert verify(keypair.vk, circuit.cs.public_inputs(), pf)
    assert draws == [R] * 7  # five setup scalars, then r and s
    hyrax = HyraxProver(list(range(16)), 4)
    point = [3, 5, 7, 11]
    assert hyrax_verify(hyrax.commit(), point, hyrax.open(point))
    assert draws == [R] * 11  # and a blinder per row
