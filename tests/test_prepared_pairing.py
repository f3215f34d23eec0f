"""Prepared G2 lines and the prepared Groth16 verifying key.

* ``miller_loop_raw`` with ``Q`` prepared equals the all-live Miller value
  bit for bit, for infinity on either side, the NAF's negative digits and
  a degenerate ``Q`` whose loop runs into a zero line;
* the cached ``e(alpha, beta)^-1`` is the conjugate of ``e(alpha, beta)``;
* prepared ``verify`` / ``batch_verify`` give the verdicts of the old
  all-live 4-pair / (k+3)-pair checks on a seeded mutation corpus;
* the prepared key is cached by content: a verifier rebuilt from bytes
  reuses it, keys differing in one G2 point do not share it, and
  concurrent first verifies agree.
"""

import dataclasses
import importlib
import random
import sys
import threading

import pytest

from repro.core import CircuitRegistry, KeyStore, MatmulProver, MatmulVerifier
from repro.core.backends import Groth16Backend
from repro.curve import bn254
from repro.curve.bn254 import CURVE_ORDER, g1_generator, g2_generator, multiply, neg
from repro.curve.msm import msm
from repro.curve.pairing import (
    FQ12_ONE,
    _LOOP_DIGITS,
    _line_steps,
    final_exponentiation,
    fq12_conjugate,
    miller_loop_raw,
    pairing_product_is_one,
    prepare_g2,
)
from repro.field import vector
from repro.field.extension import Fq2, P
from repro.gadgets.matmul import MatmulCircuit
from repro.groth16 import (
    batch_verify,
    clear_prepared_key_cache,
    prepare_verifying_key,
    prove,
    verify,
)
from repro.groth16.batch import combined_statement
from repro.groth16.keys import Proof, VerifyingKey
from repro.groth16.verify import PREPARED_KEY_CACHE_SIZE, prepare_inputs

PAIRING_MODULE = sys.modules["repro.curve.pairing"]
verify_mod = importlib.import_module("repro.groth16.verify")
R = CURVE_ORDER
G1, G2 = g1_generator(), g2_generator()


def _seeded_pairs(seed, n):
    rng = random.Random(seed)
    return [
        (multiply(G1, rng.randrange(1, R)), multiply(G2, rng.randrange(1, R)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def pairs():
    return _seeded_pairs(0x9E9, 4)


@pytest.fixture
def fresh_keys():
    clear_prepared_key_cache()
    yield
    clear_prepared_key_cache()


# -- Miller loop ------------------------------------------------------------


class TestPreparedMillerLoop:
    def test_each_pair_matches_live(self, pairs):
        for p, q in pairs:
            assert miller_loop_raw([], [(p, prepare_g2(q))]) == miller_loop_raw(
                [(p, q)]
            )

    def test_mixed_product_matches_all_live(self, pairs):
        live = miller_loop_raw(pairs)
        for split in range(len(pairs) + 1):
            prepared = [(p, prepare_g2(q)) for p, q in pairs[split:]]
            assert miller_loop_raw(pairs[:split], prepared) == live

    def test_infinity_contributes_one(self, pairs):
        p, q = pairs[0]
        assert prepare_g2(None) is None
        assert miller_loop_raw([], [(None, prepare_g2(q)), (p, None)]) == FQ12_ONE
        assert miller_loop_raw([(p, q)], [(None, prepare_g2(q))]) == (
            miller_loop_raw([(p, q)])
        )

    def test_scaled_lines_equal_live_lines_per_step(self, pairs):
        """Every step, negative NAF digits included, absorbs the live
        lines once ``c0`` is scaled by ``yP`` and ``c3`` by ``xP``."""
        assert any(d < 0 for d in _LOOP_DIGITS)
        (xp, yp), q = pairs[1]
        coords = (*q[0].coeffs, *q[1].coeffs)
        steps = prepare_g2(q).steps
        live = list(_line_steps(*coords, xp, yp))
        assert len(steps) == len(live) == len(_LOOP_DIGITS) + 1
        for digit, fixed, moving in zip(_LOOP_DIGITS + (None,), steps, live):
            assert len(fixed) == (2 if digit != 0 else 1)
            assert [
                (c0r * yp % P, c0i * yp % P, c3r * xp % P, c3i * xp % P, c4r, c4i)
                for c0r, c0i, c3r, c3i, c4r, c4i in fixed
            ] == list(moving)

    def test_zero_line_degenerate_q(self, pairs):
        """``Q = (0, 0)`` (off the twist) drives ``T`` to ``(0 : 0 : 0)``
        by the first addition step; every later line is zero and so is
        the Miller value, on either path."""
        zero_q = (Fq2([0, 0]), Fq2([0, 0]))
        first_add = next(k for k, d in enumerate(_LOOP_DIGITS) if d)
        steps = prepare_g2(zero_q).steps
        assert all(line == (0,) * 6 for step in steps[first_add + 1:] for line in step)
        p, q = pairs[0]
        live = miller_loop_raw([(p, q), (p, zero_q)])
        assert live == (0,) * 12
        assert miller_loop_raw([(p, q)], [(p, prepare_g2(zero_q))]) == live
        assert not pairing_product_is_one(
            [(p, q)], prepared=[(p, prepare_g2(zero_q))], expected=(0,) * 12
        )

    def test_expected_target(self, pairs):
        (p, q), (p2, q2) = pairs[:2]
        e = final_exponentiation(miller_loop_raw([(p, q)]))
        inv = fq12_conjugate(e)
        assert pairing_product_is_one([], prepared=[(p, prepare_g2(q))], expected=e)
        assert pairing_product_is_one([(p, q)], prepared=[], expected=e)
        assert pairing_product_is_one([(neg(p), q)], expected=inv)
        assert not pairing_product_is_one([(p2, q2)], expected=e)


# -- Groth16 ----------------------------------------------------------------


SHAPE = (2, 3, 2)
TAU, ALPHA, BETA, GAMMA, DELTA = 11, 22, 33, 44, 55


def _scripted_rng(*values):
    """A setup rng drawing ``tau, alpha, beta, gamma, delta`` in order."""
    it = iter(values)
    return lambda: next(it)


def _det_rng(seed):
    r = random.Random(seed)
    return lambda: r.getrandbits(256)


def _circuit(seed):
    rng = random.Random(seed)
    a, n, b = SHAPE
    circuit = MatmulCircuit(a, n, b, "crpc_psq")
    circuit.assign(
        [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)],
        [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)],
    )
    return circuit


def _setup(circuit, gamma=GAMMA, delta=DELTA):
    return Groth16Backend().setup(
        circuit, rng=_scripted_rng(TAU, ALPHA, BETA, gamma, delta)
    )


def _prove(circuit, artifacts, seed):
    return prove(
        artifacts.keypair.pk,
        artifacts.instance,
        circuit.cs.assignment(),
        rng=_det_rng(seed),
    )


@pytest.fixture(scope="module")
def groth():
    """One key, three statements and their proofs, plus keys that differ
    from it only in ``gamma`` or only in ``delta``, with a proof each."""
    circuits = [_circuit(s) for s in (1, 2, 3)]
    main = _setup(circuits[0])
    statements, proofs = [], []
    for k, circuit in enumerate(circuits):
        statements.append(circuit.cs.public_inputs())
        proofs.append(_prove(circuit, main, 100 + k))
    others = {}
    for name, kw in (("gamma", {"gamma": GAMMA + 1}), ("delta", {"delta": DELTA + 1})):
        arts = _setup(circuits[0], **kw)
        others[name] = (arts.keypair.vk, _prove(circuits[0], arts, 200))
    return main.keypair.vk, statements, proofs, others


def _live_verify(vk, public, proof):
    """The all-live 4-pair check, as it was before keys were prepared."""
    lx = prepare_inputs(vk, public)
    f = miller_loop_raw([
        (neg(proof.a), proof.b),
        (vk.alpha_g1, vk.beta_g2),
        (lx, vk.gamma_g2),
        (proof.c, vk.delta_g2),
    ])
    return final_exponentiation(f) == FQ12_ONE


def _live_batch(vk, statements, proofs, coeffs):
    """The all-live (k+3)-pair batch check."""
    pairs = [(neg(multiply(pf.a, r)), pf.b) for r, pf in zip(coeffs, proofs)]
    pairs += [
        (multiply(vk.alpha_g1, sum(coeffs)), vk.beta_g2),
        (combined_statement(vk, statements, coeffs), vk.gamma_g2),
        (msm([pf.c for pf in proofs], coeffs), vk.delta_g2),
    ]
    return final_exponentiation(miller_loop_raw(pairs)) == FQ12_ONE


def _bump_y(public):
    return [public[0] + 1, *public[1:]]


def _single_corpus(groth):
    """``(name, vk, public, proof, verdict)``: one honest case and the
    seeded mutations."""
    vk, statements, proofs, others = groth
    public, pf = statements[0], proofs[0]
    vk_g, pf_g = others["gamma"]
    vk_d, pf_d = others["delta"]
    swap_g = dataclasses.replace(vk, gamma_g2=vk_g.gamma_g2)
    swap_d = dataclasses.replace(vk, delta_g2=vk_d.delta_g2)
    return [
        ("honest", vk, public, pf, True),
        ("y+1", vk, _bump_y(public), pf, False),
        ("a<->c", vk, public, Proof(a=pf.c, b=pf.b, c=pf.a), False),
        ("c-from-other", vk, public, dataclasses.replace(pf, c=proofs[1].c), False),
        ("gamma-from-other-setup", swap_g, public, pf, False),
        ("delta-from-other-setup", swap_d, public, pf, False),
        ("gamma-key-honest", vk_g, public, pf_g, True),
        ("delta-key-honest", vk_d, public, pf_d, True),
        # gamma cancels against the IC points it divides, so a key from a
        # setup that differs only in gamma is equivalent
        ("gamma-key-main-proof", vk_g, public, pf, True),
        ("delta-key-main-proof", vk_d, public, pf, False),
    ]


class TestVerdictEquivalence:
    def test_single_corpus(self, groth, fresh_keys):
        for name, vk, public, pf, verdict in _single_corpus(groth):
            assert _live_verify(vk, public, pf) is verdict, name
            assert verify(vk, public, pf) is verdict, name

    def test_batch_corpus(self, groth, fresh_keys):
        vk, statements, proofs, _ = groth
        bad_y = [statements[0], _bump_y(statements[1]), statements[2]]
        bad_c = [proofs[0], dataclasses.replace(proofs[1], c=proofs[2].c), proofs[2]]
        corpus = [
            ("honest", statements, proofs, True),
            ("one-bad-y", bad_y, proofs, False),
            ("one-bad-c", statements, bad_c, False),
        ]
        for name, sts, pfs, verdict in corpus:
            coeffs = [random.Random(name).getrandbits(127) | 1 for _ in pfs]
            rng = iter(coeffs).__next__
            assert _live_batch(vk, sts, pfs, coeffs) is verdict, name
            assert batch_verify(vk, sts, pfs, rng=rng) is verdict, name

    def test_batch_verify_runs_no_multiply(self, groth, fresh_keys, monkeypatch):
        """Under the native engine every product of ``batch_verify`` is a
        one-point C ``msm``: no Python ``multiply`` runs."""
        if not vector.available_impls():
            pytest.skip("no vector engine available")
        vk, statements, proofs, _ = groth
        real = bn254.multiply
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name.startswith("repro") and getattr(mod, "multiply", None) is real:
                monkeypatch.setattr(mod, "multiply", spy)
        state = dict(vector._state)
        try:
            vector.set_backend("vector")
            assert batch_verify(vk, statements, proofs) is True
            bad = [statements[0], _bump_y(statements[1]), statements[2]]
            assert batch_verify(vk, bad, proofs) is False
        finally:
            vector._state.clear()
            vector._state.update(state)
        assert calls == []

    def test_cached_alpha_beta_inverse(self, groth, fresh_keys):
        vk = groth[0]
        e = final_exponentiation(miller_loop_raw([(vk.alpha_g1, vk.beta_g2)]))
        assert prepare_verifying_key(vk).alpha_beta_inv == fq12_conjugate(e)

    def test_zero_alpha_beta_rejects(self, groth, fresh_keys):
        """A key whose ``e(alpha, beta)`` degenerates to zero (``beta``
        off the twist) rejects every proof, as the all-live check does."""
        vk, statements, proofs, _ = groth
        bad = dataclasses.replace(vk, beta_g2=(Fq2([0, 0]), Fq2([0, 0])))
        assert prepare_verifying_key(bad).alpha_beta_inv == (0,) * 12
        assert not _live_verify(bad, statements[0], proofs[0])
        assert not verify(bad, statements[0], proofs[0])


# -- the prepared-key cache -------------------------------------------------


@pytest.fixture(scope="module")
def served():
    registry = CircuitRegistry()
    prover = MatmulProver(
        *SHAPE, backend="groth16", registry=registry,
        keystore=KeyStore(registry=registry),
    )
    rng = random.Random(5)
    a, n, b = SHAPE
    x = [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)]
    w = [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)]
    return prover.export_verifier(), prover.prove(x, w).to_bytes()


class TestPreparedKeyCache:
    def test_rebuilt_verifier_reuses_prepared_key(
        self, served, fresh_keys, monkeypatch
    ):
        artifact, blob = served
        doubles, preps = [], []
        real_double, real_prep = PAIRING_MODULE._double_step, verify_mod.prepare_g2
        monkeypatch.setattr(
            PAIRING_MODULE, "_double_step",
            lambda *a: doubles.append(1) or real_double(*a),
        )
        monkeypatch.setattr(
            verify_mod, "prepare_g2", lambda q: preps.append(q) or real_prep(q)
        )
        steps = len(_LOOP_DIGITS)
        # Cold: beta, gamma and delta are prepared, then pi_B runs live.
        assert MatmulVerifier.from_bytes(artifact).verify_bytes(blob)
        assert (len(doubles), len(preps)) == (4 * steps, 3)
        for _ in range(2):
            del doubles[:]
            assert MatmulVerifier.from_bytes(artifact).verify_bytes(blob)
            assert len(doubles) == steps
        assert len(preps) == 3
        first = MatmulVerifier.from_bytes(artifact).vk
        second = MatmulVerifier.from_bytes(artifact).vk
        assert first is not second
        assert prepare_verifying_key(first) is prepare_verifying_key(second)

    def test_keys_differing_in_one_g2_point_get_own_entries(
        self, groth, fresh_keys
    ):
        """Keys that share ``alpha`` and ``beta`` but not ``gamma`` or
        ``delta`` each get their own entry and their own verdicts.  The
        setup with another gamma is equivalent to the main one (gamma
        cancels against its IC points); the main key with only gamma
        swapped accepts nothing; the delta keys reject each other's
        proofs."""
        vk, statements, proofs, others = groth
        (vk_g, pf_g), (vk_d, pf_d) = others["gamma"], others["delta"]
        swap_g = dataclasses.replace(vk, gamma_g2=vk_g.gamma_g2)
        assert vk_d == dataclasses.replace(vk, delta_g2=vk_d.delta_g2)
        public = statements[0]
        pfs = (proofs[0], pf_g, pf_d)
        verdicts = [
            (vk, (True, True, False)),
            (vk_g, (True, True, False)),
            (swap_g, (False, False, False)),
            (vk_d, (False, False, True)),
        ]
        for _ in range(2):  # cold, then warm
            for key, expected in verdicts:
                assert tuple(verify(key, public, pf) for pf in pfs) == expected
        # vk_g and swap_g differ only in their IC points, which the
        # prepared key does not hold: they share one entry.
        assert prepare_verifying_key(vk_g) is prepare_verifying_key(swap_g)
        assert len({id(prepare_verifying_key(k)) for k, _ in verdicts}) == 3
        assert verify_mod._prepared_key.cache_info().currsize == 3

    def test_concurrent_first_verifies(self, groth, fresh_keys):
        vk, statements, proofs, _ = groth
        cases = [
            (statements[0], proofs[0], True),
            (_bump_y(statements[0]), proofs[0], False),
        ]
        barrier = threading.Barrier(8)
        results = [None] * 8

        def run(i):
            public, pf, _ = cases[i % 2]
            barrier.wait(timeout=30)
            results[i] = verify(vk, public, pf)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == [cases[i % 2][2] for i in range(8)]

    def test_cache_is_bounded(self, fresh_keys):
        rng = random.Random(0xCAC4E)
        beta, gamma, delta = (multiply(G2, rng.randrange(1, R)) for _ in range(3))
        keys = [
            VerifyingKey(multiply(G1, rng.randrange(1, R)), beta, gamma, delta)
            for _ in range(PREPARED_KEY_CACHE_SIZE + 1)
        ]
        first = prepare_verifying_key(keys[0])
        for vk in keys[1:]:
            prepare_verifying_key(vk)
        info = verify_mod._prepared_key.cache_info()
        assert info.currsize == PREPARED_KEY_CACHE_SIZE
        assert prepare_verifying_key(keys[0]) is not first  # evicted
