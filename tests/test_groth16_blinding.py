"""Groth16 blinding terms on per-key tables, and the Straus small MSM.

* ``msm`` over 1..15 live points (the Straus path) equals the per-point
  ``multiply`` sum in G1 and G2, with ``None`` points, zero scalars,
  folded negatives, ``r - 1``, duplicated points and ``P`` with ``-P``;
* a dense :class:`FixedBaseTable` equals ``multiply`` at every window,
  and the cache charges it its real size;
* a first-sighting (generic) proof, promoted-table proofs and a warmed
  proof are byte-identical, and equal the old ``pi_C`` formula;
* after ``Groth16Backend.warm``, and from a key's second proof on, the
  prover makes no generic ``multiply`` call;
* two keys whose fingerprints collide still prove correctly, and six
  keys rotating keep every table resident.
"""

import importlib
import random

import pytest

import repro.curve.fixed_base as fixed_base
from repro.core.backends import Groth16Backend
from repro.curve.bn254 import (
    CURVE_ORDER,
    add,
    g1_generator,
    g2_generator,
    multiply,
    neg,
)
from repro.curve.fixed_base import (
    _FIXED_BASE_CACHE,
    FixedBaseTable,
    clear_fixed_base_cache,
    fixed_base_table,
    table_cost,
)
from repro.curve.msm import msm
from repro.gadgets.matmul import MatmulCircuit
from repro.groth16 import prove, verify
from repro.groth16.prove import BLINDING_LABELS

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

QUERY_LABELS = ("groth16-a", "groth16-b2", "groth16-b1", "groth16-k", "groth16-h")
LABELS_PER_KEY = len(QUERY_LABELS) + len(BLINDING_LABELS)


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
    calls = []
    real = msm_mod._msm_straus
    monkeypatch.setattr(
        msm_mod, "_msm_straus", lambda p, s: calls.append(len(p)) or real(p, s)
    )
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

    def test_cost_is_real_size(self, group):
        pt = POOLS[group][0]
        tab = FixedBaseTable(pt)
        ints = sum(len(row) for row in tab.tables) * len(tab.tables[0][0])
        unit = table_cost([g1_generator()])  # one G1 base of FixedBaseMSM
        assert unit == 1
        assert table_cost([pt], dense=True) == -(-ints // 66)


def test_eviction_budget_charges_dense_tables(monkeypatch):
    """Three dense G1 tables (25 units each) do not fit a 60-unit budget:
    the least recently used one goes."""
    monkeypatch.setattr(fixed_base, "_CACHE_TABLE_POINT_LIMIT", 60)
    clear_fixed_base_cache()
    try:
        for i, pt in enumerate(POOLS["g1"][:3]):
            fixed_base.prewarm_fixed_base(("dense", i), (pt,), dense=True)
        assert sorted(_FIXED_BASE_CACHE) == [("dense", 1), ("dense", 2)]
    finally:
        clear_fixed_base_cache()


def test_dense_and_msm_entries_never_share_a_table():
    """A label first used for a one-point MSM and then for a dense table
    (or back) resets instead of handing out the wrong table type."""
    pt = POOLS["g1"][0]
    clear_fixed_base_cache()
    try:
        for _ in range(2):
            fixed_base.fixed_base_msm("shared", [pt], [3])
        assert fixed_base_table("shared", pt) is None  # reset: first sighting
        assert isinstance(fixed_base_table("shared", pt), FixedBaseTable)
        assert fixed_base.fixed_base_msm("shared", [pt], [3]) == multiply(pt, 3)
    finally:
        clear_fixed_base_cache()


# -- Groth16 -------------------------------------------------------------------


def _det_rng(seed):
    r = random.Random(seed)
    return lambda: r.getrandbits(256)


def _artifacts(seed, shape=(2, 3, 2)):
    circuit = MatmulCircuit(*shape, "crpc_psq")
    rng = random.Random(99)
    a, n, b = shape
    circuit.assign(
        [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)],
        [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)],
    )
    return circuit, Groth16Backend().setup(circuit, rng=_det_rng(seed))


@pytest.fixture(scope="module")
def crpc():
    return _artifacts(7)


@pytest.fixture
def fresh_cache():
    clear_fixed_base_cache()
    yield
    clear_fixed_base_cache()


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


def _old_pi_c(pk, instance, assignment, seed):
    """``pi_C`` the way it was computed before the regrouping."""
    draw = _det_rng(seed)
    r, s = draw() % R, draw() % R
    fp = pk.fingerprint()
    a_acc = fixed_base.fixed_base_msm(("groth16-a", fp), pk.a_query, assignment)
    b1_acc = fixed_base.fixed_base_msm(
        ("groth16-b1", fp), pk.b_g1_query, assignment
    )
    k_acc = fixed_base.fixed_base_msm(
        ("groth16-k", fp), pk.k_query, list(assignment[pk.num_public:])
    )
    h = prove_mod._compute_h(instance, assignment, pk.domain_size)
    h_acc = fixed_base.fixed_base_msm(("groth16-h", fp), pk.h_query, h)
    pi_a = add(add(pk.alpha_g1, a_acc), multiply(pk.delta_g1, r))
    pi_b1 = add(add(pk.beta_g1, b1_acc), multiply(pk.delta_g1, s))
    pi_c = add(k_acc, h_acc)
    pi_c = add(pi_c, multiply(pi_a, s))
    pi_c = add(pi_c, multiply(pi_b1, r))
    return add(pi_c, neg(multiply(pk.delta_g1, r * s % R)))


class TestBlindingByteIdentity:
    def test_generic_promoted_and_warmed_proofs_agree(self, crpc, fresh_cache):
        circuit, artifacts = crpc
        # First sighting (generic), promotion, promoted tables.
        proofs = [_prove(circuit, artifacts) for _ in range(3)]
        clear_fixed_base_cache()
        Groth16Backend().warm(artifacts, circuit)
        proofs.append(_prove(circuit, artifacts))
        blobs = {pf.to_bytes() for pf in proofs}
        assert len(blobs) == 1
        assert verify(
            artifacts.keypair.vk, circuit.cs.public_inputs(), proofs[0]
        )

    def test_pi_c_equals_old_formula(self, crpc, fresh_cache):
        circuit, artifacts = crpc
        pk = artifacts.keypair.pk
        assignment = circuit.cs.assignment()
        for seed in (11, 12):
            pf = _prove(circuit, artifacts, seed)
            assert pf.c == _old_pi_c(pk, artifacts.instance, assignment, seed)


class TestBlindingTables:
    def test_warm_removes_every_generic_multiply(
        self, crpc, fresh_cache, multiply_calls
    ):
        circuit, artifacts = crpc
        Groth16Backend().warm(artifacts, circuit)
        fp = artifacts.keypair.pk.fingerprint()
        for label in BLINDING_LABELS.values():
            assert isinstance(
                _FIXED_BASE_CACHE[(label, fp)].table, FixedBaseTable
            )
        _prove(circuit, artifacts)
        assert multiply_calls == []

    def test_second_proof_runs_on_tables(
        self, crpc, fresh_cache, multiply_calls
    ):
        circuit, artifacts = crpc
        pk = artifacts.keypair.pk
        _prove(circuit, artifacts)
        # r*delta1, rs*delta1, s*alpha1, r*beta1 and s*delta2.
        assert sorted(map(repr, multiply_calls)) == sorted(map(repr, [
            pk.delta_g1, pk.delta_g1, pk.alpha_g1, pk.beta_g1, pk.delta_g2,
        ]))
        del multiply_calls[:]
        _prove(circuit, artifacts)
        _prove(circuit, artifacts)
        assert multiply_calls == []

    def test_fingerprint_collision_never_gives_a_wrong_proof(self, fresh_cache):
        """Two keys forced onto one fingerprint share every cache label;
        the content check must keep either key's tables from serving the
        other, past promotion and back."""
        circuit, first = _artifacts(21)
        _, second = _artifacts(22)
        second.keypair.pk._fingerprint = first.keypair.pk.fingerprint()
        assert second.keypair.pk.delta_g2 != first.keypair.pk.delta_g2
        public = circuit.cs.public_inputs()
        for artifacts in [first, first, second, second, first, second] * 2:
            pf = _prove(circuit, artifacts)
            assert verify(artifacts.keypair.vk, public, pf)

    def test_six_keys_rotating_keep_every_table(self, fresh_cache):
        keys = [_artifacts(30 + i) for i in range(6)]
        for circuit, artifacts in keys:
            for _ in range(2):  # the second proof promotes every label
                _prove(circuit, artifacts)
        assert len(_FIXED_BASE_CACHE) == 6 * LABELS_PER_KEY
        tables = {lbl: e.table for lbl, e in _FIXED_BASE_CACHE.items()}
        assert all(t is not None for t in tables.values())
        for _ in range(2):
            for circuit, artifacts in keys:
                pf = _prove(circuit, artifacts)
                assert verify(
                    artifacts.keypair.vk, circuit.cs.public_inputs(), pf
                )
        assert {lbl: e.table for lbl, e in _FIXED_BASE_CACHE.items()} == tables
        assert all(
            _FIXED_BASE_CACHE[lbl].table is t for lbl, t in tables.items()
        )
