"""Prover hot-path microbenchmarks -> BENCH_prover.json.

Times the dominant prover kernels on this machine:

* **MSM** over G1 for sizes 2^8..2^14 — the generic ``msm`` (one C call
  under the vector engine, batch-affine Pippenger on the Python group
  ops otherwise) and a warm fixed-base table, plus (at small sizes) the
  Python Jacobian Pippenger for reference — and at 2 and 8 points, the
  small-input ``msm`` against that Jacobian Pippenger; and at the
  ``hyrax_verify`` shape (``"64-hyrax_verify"``: 64 distinct points,
  full-width scalars), the active engine against the Python group ops
  (the last three timed in quick runs too);
* **field** for sizes 2^8..2^12 — the scalar big-int loops versus the
  vector engine (``repro.field.vector``) on the same inputs: elementwise
  mulmod/addmod, batched inversion, ``ntt_many``, and the FlatR1CS CSR
  matvec;
* **sumcheck** proving for table sizes 2^10..2^16 — the specialized
  ``prod2`` kernel on int tables (on the vector engine: their conversion
  plus the fused C rounds) and the naive reference prover; with the
  vector engine active, ``"<n>-native_fused"`` times the fused C rounds
  alone, on Montgomery-form limb tables as the Spartan prover hands
  them over, against the scalar ``prod2`` loops;
* **Hyrax commit** at 2^10 / 2^12 on uniform 254-bit scalars — the
  batched fixed-base path versus per-row generic MSMs — and at 2048
  int8-shaped scalars (``"2048-int8"``: half of them negative, dense),
  on the real witness of the ``spartan_crpc`` workload's 16x32x16 matmul
  (``"2048-spartan_crpc"``: 32 int8 rows, one full-width row, 31 rows of
  padding that carry only their blinder), plus one ``pedersen_commit``
  of a blinder and 32 uniform values (``"32-opening"``: the verifier's
  Hyrax opening check, a single-row MSM); all three timed in quick runs
  too;
* **NTT** for sizes 2^8..2^14 — the planned (cached-twiddle) transform and
  the batched ``ntt_many`` path versus the naive serial-twiddle loop;
* **Groth16 quotient** (``_compute_h``) for domain sizes 2^8..2^10 — the
  same-size-coset planned pipeline over flat R1CS kernels versus the seed
  doubled-domain reference;
* **pairing** keyed by pair count — one full pairing (``"1"``, with the
  final exponentiation alone as ``final_exp_ops_per_sec``), the all-live
  4-pair product check (``"4"``), and the check Groth16 verification
  runs on a prepared key (``"groth16-prepared"``: 1 live and 2 prepared
  pairs against a GT target, with the one-time preparation of a key as
  ``prepare_key_ops_per_sec``); all timed in quick runs;
* **g2_msm** for 16/32/64 bases on uniform scalars — the generic
  Pippenger MSM and a warm fixed-base table over G2;
* **groth16_blind** — one dense ``FixedBaseTable`` ``mul`` in G1
  (``"1-g1-table"``) and in G2 (``"1-g2-table"``), the trusted setup's
  generator tables, each against a generic ``multiply``, and the Groth16
  prover's 2-point ``msm`` of ``pi_C`` (``"2-msm"``) against two
  multiplies;
* **groth16_query** — a warm step-8 query table on the ``groth16_crpc``
  A-side shape (88 bases, 56 of them absent, 32 int8 scalars and one
  appended full-width blinding scalar) in G1 (``"88-g1"``) and G2
  (``"88-g2"``), MSMs/sec, each against the generic ``msm``; and on the
  ``groth16_vanilla`` H shape (``"255-g1-h"``: 255 full-width scalars,
  w=8), the C kernel against the Python group ops on the same bases;
  quick runs time all three;
* **spartan_mle** — the Spartan verifier's matrix-MLE step on the
  ``spartan_crpc`` circuit (``"16x32x16"``: CRPC+PSQ), evaluations/sec
  from a packing point and the challenges ``r_abc, rx, ry``: the packed
  path (instance from the per-circuit packed CSR, one transposed CSR
  matvec, ``<m, wcol>``) against ``specialize`` plus the per-entry loop
  it replaced; timed in quick runs.

Every entry records ops/sec (points/sec for MSM, table-elements/sec for
sumcheck, vector-elements/sec for commits), so future PRs have a perf
trajectory to regress against: run

    PYTHONPATH=src python benchmarks/bench_prover_hotpaths.py

then `python benchmarks/check_regression.py` to compare against the
committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.curve.bn254 import (  # noqa: E402
    CURVE_ORDER,
    g1_generator,
    g2_generator,
    multiply,
)
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable  # noqa: E402
from repro.curve.msm import _msm_jacobian, msm  # noqa: E402
from repro.curve.pairing import (  # noqa: E402
    final_exponentiation,
    miller_loop_raw,
    pairing,
    pairing_product_is_one,
)
from repro.field import vector  # noqa: E402
from repro.field.ntt import naive_ntt, ntt, ntt_many  # noqa: E402
from repro.field.prime_field import BN254_FR_MODULUS, batch_inv_mod  # noqa: E402
from repro.groth16.keys import VerifyingKey  # noqa: E402
from repro.groth16.prove import _compute_h, _compute_h_reference  # noqa: E402
from repro.groth16.verify import (  # noqa: E402
    clear_prepared_key_cache,
    prepare_verifying_key,
)
from repro.gadgets.matmul import MatmulCircuit  # noqa: E402
from repro.r1cs.system import R1CSInstance  # noqa: E402
from repro.spartan.commitment import (  # noqa: E402
    HyraxProver,
    blinder_table,
    pedersen_commit,
    pedersen_generators,
    pedersen_table,
)
from repro.poly.multilinear import eq_evals  # noqa: E402
from repro.r1cs.builder import derive_z  # noqa: E402
from repro.spartan.snark import _column_evals, _half, _shape  # noqa: E402
from repro.spartan.sumcheck import (  # noqa: E402
    sumcheck_prove,
    sumcheck_prove_reference,
)
from repro.spartan.transcript import Transcript  # noqa: E402

R = BN254_FR_MODULUS

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_prover.json")

MSM_SIZES = [1 << k for k in range(8, 15)]       # 2^8 .. 2^14
STRAUS_SIZES = [2, 8]                             # the small-input path
# A small MSM or one scalar mul takes milliseconds: best of this many.
SMALL_KERNEL_REPEATS = 20
FIELD_SIZES = [1 << k for k in range(8, 13)]      # 2^8 .. 2^12
SUMCHECK_SIZES = [1 << k for k in range(10, 17)]  # 2^10 .. 2^16
HYRAX_SIZES = [1 << 10, 1 << 12]
# The matmul whose real witness the ``"2048-spartan_crpc"`` entry commits:
# the spartan_crpc workload's 16x32x16 CRPC+PSQ circuit, a 64x32 matrix.
HYRAX_CRPC_SHAPE = (16, 32, 16)
HYRAX_INT8_SIZE = 1 << 11  # a dense int8 vector the size of that matrix
HYRAX_OPENING_SIZE = 32  # the opening row t of that matrix
# A single-row commit takes ~10 ms: time the best of this many per repeat.
HYRAX_OPENING_REPEATS = 20
# The spartan_crpc workload's circuit, whose matrix MLEs the
# ``spartan_mle`` entry evaluates.
SPARTAN_MLE_SHAPE = (16, 32, 16)
# The verifier's hyrax_verify MSM: the 64 row commitments of that matrix
# against full-width eq weights.
HYRAX_VERIFY_POINTS = 64
NTT_SIZES = [1 << k for k in range(8, 15)]        # 2^8 .. 2^14
QUOTIENT_SIZES = [1 << 8, 1 << 9, 1 << 10]        # Groth16 domain sizes
G2_MSM_SIZES = [16, 32, 64]                      # Groth16 B-query sizes
NTT_BATCH = 4  # vectors per ntt_many call (mirrors the quotient pipeline)
# Above this size the pre-PR-style Jacobian reference gets too slow to time
# on every run; the fast paths still cover the full range.
NAIVE_MSM_LIMIT = 1 << 12
NAIVE_HYRAX_LIMIT = 1 << 12
NAIVE_NTT_LIMIT = 1 << 13


def _timed(fn: Callable[[], object], min_repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(min_repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rand_points(n: int, rng: random.Random) -> List[object]:
    # A small pool of distinct points cycled to length n keeps setup cheap;
    # bucket behaviour only depends on the scalars, which stay random.
    g = g1_generator()
    pool = [multiply(g, rng.randrange(1, CURVE_ORDER)) for _ in range(64)]
    return [pool[i % len(pool)] for i in range(n)]


def bench_msm(sizes=MSM_SIZES, repeats: int = 1) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xBEEF)
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        pts = _rand_points(n, rng)
        scs = [rng.randrange(CURVE_ORDER) for _ in range(n)]
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(lambda: msm(pts, scs), repeats)
        fb = FixedBaseMSM(pts)
        entry["fixed_base_ops_per_sec"] = n / _timed(
            lambda: fb.msm(scs), repeats
        )
        if n <= NAIVE_MSM_LIMIT:
            entry["naive_ops_per_sec"] = n / _timed(
                lambda: _msm_jacobian(pts, scs), repeats
            )
        out[str(n)] = entry
    return out


def bench_msm_small(
    sizes=STRAUS_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    """Points/sec of ``msm`` below 16 points (one C call under the vector
    engine, the Straus path on the Python group ops), against the
    Jacobian Pippenger."""
    rng = random.Random(0x57A)
    n_runs = SMALL_KERNEL_REPEATS * repeats
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        pts = _rand_points(n, rng)
        scs = [rng.randrange(CURVE_ORDER) for _ in range(n)]
        out[str(n)] = {
            "fast_ops_per_sec": n / _timed(lambda: msm(pts, scs), n_runs),
            "naive_ops_per_sec": n / _timed(
                lambda: _msm_jacobian(pts, scs), n_runs
            ),
        }
    return out


def bench_msm_hyrax_verify(repeats: int = 1) -> Dict[str, Dict[str, float]]:
    """Points/sec of ``msm`` at the ``hyrax_verify`` shape on the active
    engine (the C kernel under the vector engine), against the same call
    on the Python group ops."""
    rng = random.Random(0x4E7)
    n = HYRAX_VERIFY_POINTS
    n_runs = SMALL_KERNEL_REPEATS * repeats
    pts = _rand_points(n, rng)
    scs = [rng.randrange(CURVE_ORDER) for _ in range(n)]
    fast = _timed(lambda: msm(pts, scs), n_runs)
    vector.set_backend("scalar")
    try:
        naive = _timed(lambda: msm(pts, scs), n_runs)
    finally:
        vector.set_backend(None)  # back to the env-resolved backend
    return {
        f"{n}-hyrax_verify": {
            "fast_ops_per_sec": n / fast,
            "naive_ops_per_sec": n / naive,
        }
    }


def bench_sumcheck(
    sizes=SUMCHECK_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xFEED)
    combine = lambda v: v[0] * v[1] % R  # noqa: E731
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        a = [rng.randrange(R) for _ in range(n)]
        b = [rng.randrange(R) for _ in range(n)]
        claim = sum(x * y for x, y in zip(a, b)) % R
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(
            lambda: sumcheck_prove(
                [list(a), list(b)], combine, 2, claim, Transcript(), b"b",
                kernel="prod2",
            ),
            repeats,
        )
        entry["naive_ops_per_sec"] = n / _timed(
            lambda: sumcheck_prove_reference(
                [list(a), list(b)], combine, 2, claim, Transcript(), b"b"
            ),
            repeats,
        )
        out[str(n)] = entry
        if vector.active_impl() is None:
            continue
        mont = [vector.to_mont(vector.to_limbs(t)) for t in (a, b)]
        fused = _timed(
            lambda: sumcheck_prove(
                mont, combine, 2, claim, Transcript(), b"b",
                kernel="prod2",
            ),
            repeats,
        )
        vector.set_backend("scalar")
        try:
            loops = _timed(
                lambda: sumcheck_prove(
                    [list(a), list(b)], combine, 2, claim, Transcript(),
                    b"b", kernel="prod2",
                ),
                repeats,
            )
        finally:
            vector.set_backend(None)  # back to the env-resolved backend
        out[f"{n}-native_fused"] = {
            "fast_ops_per_sec": n / fused,
            "naive_ops_per_sec": n / loops,
        }
    return out


def _naive_hyrax_commit(prover: HyraxProver) -> None:
    """The pre-PR commit path: one Jacobian Pippenger MSM per row plus a
    double-and-add scalar mult for the blinder."""
    from repro.curve.bn254 import add
    from repro.spartan.commitment import blinder_generator, pedersen_generators

    gens = pedersen_generators(len(prover.rows[0]))
    for row, blind in zip(prover.rows, prover.blinders):
        acc = _msm_jacobian(list(gens[: len(row)]), list(row))
        if blind:
            acc = add(acc, multiply(blinder_generator(), blind))


def _int8_vector(rng: random.Random, n: int) -> List[int]:
    """int8 entries with exactly half of them negative, like the e2e
    benchmark's quantised matrices."""
    negative = set(rng.sample(range(n), n // 2))
    return [
        -rng.randint(1, 128) if i in negative else rng.randint(0, 127)
        for i in range(n)
    ]


def _crpc_witness() -> tuple:
    """``(vector, num_vars)`` of the witness a Spartan proof of the
    :data:`HYRAX_CRPC_SHAPE` CRPC+PSQ matmul commits, on int8 inputs (half
    negative): 64 rows of 32, of which 32 int8 rows, one row of
    full-width packed accumulators and 31 rows of zero padding."""
    a, n, b = HYRAX_CRPC_SHAPE
    rng = random.Random(0x5C7C)
    flat = _int8_vector(rng, a * n + n * b)
    x = [flat[i * n:(i + 1) * n] for i in range(a)]
    w = [flat[a * n + k * b:a * n + (k + 1) * b] for k in range(n)]
    circuit = MatmulCircuit(a, n, b, "crpc_psq")
    z = circuit.packing_point()
    circuit.assign(x, w, z)
    instance = circuit.cs.specialize(z)
    half = _half(instance.num_public, instance.num_witness)
    witness = circuit.cs.assignment()[instance.num_public:]
    return witness, half.bit_length() - 1


def bench_hyrax(
    sizes=HYRAX_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xC0FFEE)

    def commit_rate(vec, num_vars=None):
        if num_vars is None:
            num_vars = len(vec).bit_length() - 1
        prover = HyraxProver(vec, num_vars, rng=lambda: rng.randrange(R))
        pedersen_table(1 << prover.col_vars)  # warm the shared tables
        blinder_table()
        return prover, (1 << num_vars) / _timed(
            lambda: prover.commit(), repeats
        )

    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        prover, rate = commit_rate([rng.randrange(R) for _ in range(n)])
        entry: Dict[str, float] = {"fast_ops_per_sec": rate}
        if n <= NAIVE_HYRAX_LIMIT:
            entry["naive_ops_per_sec"] = n / _timed(
                lambda: _naive_hyrax_commit(prover), repeats
            )
        out[str(n)] = entry
    # Own seed: the same vector whether or not the quick subset ran.
    _, rate = commit_rate(_int8_vector(random.Random(0x1D8), HYRAX_INT8_SIZE))
    out[f"{HYRAX_INT8_SIZE}-int8"] = {"fast_ops_per_sec": rate}
    vec, num_vars = _crpc_witness()
    _, rate = commit_rate(vec, num_vars)
    out[f"{1 << num_vars}-spartan_crpc"] = {"fast_ops_per_sec": rate}
    # The verifier's opening check: one row of uniform values and a blinder.
    opening_rng = random.Random(0x0BE1)
    values = [opening_rng.randrange(R) for _ in range(HYRAX_OPENING_SIZE)]
    blinder = opening_rng.randrange(R)
    gens = pedersen_generators(HYRAX_OPENING_SIZE)
    pedersen_table(HYRAX_OPENING_SIZE)
    seconds = _timed(
        lambda: pedersen_commit(values, blinder, gens),
        HYRAX_OPENING_REPEATS * repeats,
    )
    out[f"{HYRAX_OPENING_SIZE}-opening"] = {
        "fast_ops_per_sec": HYRAX_OPENING_SIZE / seconds
    }
    return out


def bench_ntt(sizes=NTT_SIZES, repeats: int = 1) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xD0FF)
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        vec = [rng.randrange(R) for _ in range(n)]
        rows = [
            [rng.randrange(R) for _ in range(n)] for _ in range(NTT_BATCH)
        ]
        ntt(vec)  # plan + stage build is a one-time cost; time the warm path
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(lambda: ntt(vec), repeats)
        entry["batched_ops_per_sec"] = (NTT_BATCH * n) / _timed(
            lambda: ntt_many(rows), repeats
        )
        if n <= NAIVE_NTT_LIMIT:
            entry["naive_ops_per_sec"] = n / _timed(
                lambda: naive_ntt(vec), repeats
            )
        out[str(n)] = entry
    return out


def bench_field(
    sizes=FIELD_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    """Scalar vs vector field engine on equal inputs.

    Elementwise metrics (``mulmod``/``addmod``/``batch_inv``) time the
    kernels over pre-converted limb arrays — the amortised regime every
    integrated call site (quotient chain, sumcheck rounds) actually runs
    in.  ``ntt_many`` and ``matvec`` are list-in/list-out under each
    backend, i.e. they pay the vector engine's conversions;
    ``vector_matvec_limbs`` shows the conversion-free matvec rate.  When
    no vector engine is available only the scalar metrics are recorded.
    """
    rng = random.Random(0xF1E1D)
    out: Dict[str, Dict[str, float]] = {}
    have_vec = bool(vector.available_impls())
    for n in sizes:
        a = [rng.randrange(R) for _ in range(n)]
        b = [rng.randrange(1, R) for _ in range(n)]
        rows = [
            [rng.randrange(R) for _ in range(n)] for _ in range(NTT_BATCH)
        ]
        csr_rows = [
            [(rng.randrange(n), rng.randrange(1, R)) for _ in range(6)]
            for _ in range(n)
        ]
        entry: Dict[str, float] = {}
        # Loop the elementwise ops so every timing sample covers >= ~32k
        # element-ops: a single small-n kernel call runs in tens of
        # microseconds, where timer jitter swamps the 25% regression gate.
        iters = max(1, (1 << 15) // n)

        def _loop(fn):
            def run():
                for _ in range(iters):
                    fn()
            return run

        try:
            vector.set_backend("scalar")
            from repro.r1cs.system import FlatR1CS

            flat = FlatR1CS(csr_rows)
            nnz = len(flat.wires)
            entry["scalar_mulmod_ops_per_sec"] = (iters * n) / _timed(
                _loop(lambda: [x * y % R for x, y in zip(a, b)]), repeats
            )
            entry["scalar_addmod_ops_per_sec"] = (iters * n) / _timed(
                _loop(lambda: [(x + y) % R for x, y in zip(a, b)]), repeats
            )
            entry["scalar_batch_inv_ops_per_sec"] = (iters * n) / _timed(
                _loop(lambda: batch_inv_mod(b, R)), repeats
            )
            entry["scalar_ntt_many_ops_per_sec"] = (NTT_BATCH * n) / _timed(
                lambda: ntt_many(rows), repeats
            )
            entry["scalar_matvec_ops_per_sec"] = (iters * nnz) / _timed(
                _loop(lambda: flat.matvec(a)), repeats
            )
            if have_vec:
                vector.set_backend("vector")
                al, bl = vector.to_limbs(a), vector.to_limbs(b)
                entry["vector_mulmod_ops_per_sec"] = (iters * n) / _timed(
                    _loop(lambda: vector.vec_mul(al, bl)), repeats
                )
                entry["vector_addmod_ops_per_sec"] = (iters * n) / _timed(
                    _loop(lambda: vector.vec_add(al, bl)), repeats
                )
                entry["vector_batch_inv_ops_per_sec"] = (iters * n) / _timed(
                    _loop(lambda: vector.batch_inv(bl)), repeats
                )
                ntt_many(rows)  # warm the plan's vector kernels
                entry["vector_ntt_many_ops_per_sec"] = (
                    NTT_BATCH * n
                ) / _timed(lambda: ntt_many(rows), repeats)
                flat.matvec(a)  # warm the CSR kernel
                entry["vector_matvec_ops_per_sec"] = (iters * nnz) / _timed(
                    _loop(lambda: flat.matvec(a)), repeats
                )
                kern = flat.vec_kernel()
                if kern is not None:
                    entry["vector_matvec_limbs_ops_per_sec"] = (
                        iters * nnz
                    ) / _timed(_loop(lambda: kern.matvec_limbs(al)), repeats)
        finally:
            vector.set_backend(None)  # back to the env-resolved backend
        out[str(n)] = entry
    return out


def _quotient_fixture(domain_size: int, terms_per_row: int = 3):
    """A synthetic R1CS instance filling the whole domain (satisfaction is
    irrelevant for timing the quotient transforms)."""
    rng = random.Random(0xABCD ^ domain_size)
    num_wires = domain_size

    def rows():
        return [
            [
                (rng.randrange(num_wires), rng.randrange(1, R))
                for _ in range(terms_per_row)
            ]
            for _ in range(domain_size)
        ]

    instance = R1CSInstance(
        num_wires=num_wires,
        num_public=1,
        a_rows=rows(),
        b_rows=rows(),
        c_rows=rows(),
    )
    assignment = [rng.randrange(R) for _ in range(num_wires)]
    return instance, assignment


def bench_quotient(
    sizes=QUOTIENT_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        instance, assignment = _quotient_fixture(n)
        _compute_h(instance, assignment, n)  # warm plan/context/flat caches
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(
            lambda: _compute_h(instance, assignment, n), repeats
        )
        entry["naive_ops_per_sec"] = n / _timed(
            lambda: _compute_h_reference(instance, assignment, n), repeats
        )
        out[str(n)] = entry
    return out


def bench_pairing(repeats: int = 1) -> Dict[str, Dict[str, float]]:
    """Pairings/sec keyed by the number of pairs in the product."""
    rng = random.Random(0xE12)
    pairs = [
        (
            multiply(g1_generator(), rng.randrange(1, CURVE_ORDER)),
            multiply(g2_generator(), rng.randrange(1, CURVE_ORDER)),
        )
        for _ in range(4)
    ]
    p, q = pairs[0]
    f = miller_loop_raw(pairs[:1])
    # A verifying key over the same points: gamma and delta are prepared
    # ahead, and pairs[3] stands in for (alpha, beta).
    vk = VerifyingKey(pairs[3][0], pairs[3][1], pairs[1][1], pairs[2][1])
    pvk = prepare_verifying_key(vk)
    prepared = [(pairs[1][0], pvk.gamma_g2), (pairs[2][0], pvk.delta_g2)]

    def prepare_key():
        clear_prepared_key_cache()
        return prepare_verifying_key(vk)

    # One call is ~10 ms: best of at least 5 keeps the number stable.
    n = max(5, repeats)
    return {
        "1": {
            "fast_ops_per_sec": 1 / _timed(lambda: pairing(q, p), n),
            "final_exp_ops_per_sec": 1 / _timed(lambda: final_exponentiation(f), n),
        },
        "4": {"fast_ops_per_sec": 1 / _timed(lambda: pairing_product_is_one(pairs), n)},
        "groth16-prepared": {
            "fast_ops_per_sec": 1 / _timed(
                lambda: pairing_product_is_one(
                    pairs[:1], prepared=prepared, expected=pvk.alpha_beta_inv
                ),
                n,
            ),
            "prepare_key_ops_per_sec": 1 / _timed(prepare_key, n),
        },
    }


def bench_g2_msm(
    sizes=G2_MSM_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    """G2 MSM points/sec on uniform scalars: the generic Pippenger and a
    warm fixed-base table over distinct random bases (``groth16_query``
    times the Groth16 pi_B shape)."""
    rng = random.Random(0x62)
    g2 = FixedBaseTable(g2_generator())
    # One MSM is tens of milliseconds: best of at least 3.
    n_runs = max(3, repeats)
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        pts = [g2.mul(rng.randrange(1, CURVE_ORDER)) for _ in range(n)]
        scs = [rng.randrange(CURVE_ORDER) for _ in range(n)]
        fb = FixedBaseMSM(pts)
        out[str(n)] = {
            "fast_ops_per_sec": n / _timed(lambda: msm(pts, scs), n_runs),
            "fixed_base_ops_per_sec": n / _timed(lambda: fb.msm(scs), n_runs),
        }
    return out


def bench_groth16_blind(repeats: int = 1) -> Dict[str, Dict[str, float]]:
    """Scalar muls/sec on a dense ``FixedBaseTable`` (G1, G2; the trusted
    setup multiplies every CRS element on one) and points/sec of the
    prover's 2-point ``pi_C`` MSM, each against generic ``multiply``
    calls."""
    rng = random.Random(0xB11D)
    n_runs = SMALL_KERNEL_REPEATS * repeats
    out: Dict[str, Dict[str, float]] = {}
    for group, gen in (("g1", g1_generator()), ("g2", g2_generator())):
        pt = multiply(gen, rng.randrange(1, CURVE_ORDER))
        table = FixedBaseTable(pt)
        k = rng.randrange(CURVE_ORDER)
        out[f"1-{group}-table"] = {
            "fast_ops_per_sec": 1 / _timed(lambda: table.mul(k), n_runs),
            "naive_ops_per_sec": 1 / _timed(lambda: multiply(pt, k), n_runs),
        }
    pts = _rand_points(2, rng)
    scs = [rng.randrange(CURVE_ORDER) for _ in range(2)]
    out["2-msm"] = {
        "fast_ops_per_sec": 2 / _timed(lambda: msm(pts, scs), n_runs),
        "naive_ops_per_sec": 2 / _timed(
            lambda: [multiply(p, k) for p, k in zip(pts, scs)], n_runs
        ),
    }
    return out


def bench_groth16_query(repeats: int = 1) -> Dict[str, Dict[str, float]]:
    """MSMs/sec of a warm step-8 Groth16 query table on the
    ``groth16_crpc`` A-side shape: 88 bases of which 56 are absent, 32
    int8 wires (half negative) and one full-width blinding scalar, the
    ``r`` on the appended ``delta1``.  The generic ``msm`` on the same
    inputs is the reference.  ``"255-g1-h"`` times the ``groth16_vanilla``
    H query shape against the Python group ops."""
    rng = random.Random(0x9E1)
    n_runs = SMALL_KERNEL_REPEATS * repeats
    live = set(rng.sample(range(87), 32))
    scs = [rng.randint(-128, 127) % R if i in live else 0 for i in range(87)]
    scs.append(rng.randrange(CURVE_ORDER))
    out: Dict[str, Dict[str, float]] = {}
    for group, gen in (("g1", g1_generator()), ("g2", g2_generator())):
        table = FixedBaseTable(gen)
        pts = [
            table.mul(rng.randrange(1, CURVE_ORDER))
            if i in live or i == 87 else None
            for i in range(88)
        ]
        fb = FixedBaseMSM(pts)
        out[f"88-{group}"] = {
            "fast_ops_per_sec": 1 / _timed(lambda: fb.msm(scs), n_runs),
            "naive_ops_per_sec": 1 / _timed(lambda: msm(pts, scs), n_runs),
        }
    # The groth16_vanilla H query: 255 full-width scalars on a step-8 G1
    # table (the call runs w=8), on the active engine (the C kernel)
    # against the Python group ops on a table over the same bases.
    table = FixedBaseTable(g1_generator())
    pts = [table.mul(rng.randrange(1, CURVE_ORDER)) for _ in range(255)]
    scs = [rng.randrange(CURVE_ORDER) for _ in range(255)]
    fb = FixedBaseMSM(pts)
    fast = _timed(lambda: fb.msm(scs), n_runs)
    vector.set_backend("scalar")
    try:
        py = FixedBaseMSM(pts)
        naive = _timed(lambda: py.msm(scs), n_runs)
    finally:
        vector.set_backend(None)  # back to the env-resolved backend
    out["255-g1-h"] = {
        "fast_ops_per_sec": 1 / fast,
        "naive_ops_per_sec": 1 / naive,
    }
    return out


def _naive_m_eval(cs, z, r_abc, rx, ry) -> int:
    """The verifier's matrix-MLE step before the packed CSR: specialise
    the system at ``z``, then one pass per nonzero entry."""
    instance = cs.specialize(z)
    _, half, _ = _shape(instance)
    npub = instance.num_public
    eq_rx, eq_rest = eq_evals(rx), eq_evals(ry[1:])
    m_eval = 0
    for which, rmul in zip("ABC", r_abc):
        acc = 0
        for q, wire, coeff in instance.entries(which):
            col = wire if wire < npub else half + (wire - npub)
            if col < half:
                weight = (1 - ry[0]) % R * eq_rest[col] % R
            else:
                weight = ry[0] * eq_rest[col - half] % R
            acc = (acc + coeff * eq_rx[q] % R * weight) % R
        m_eval = (m_eval + rmul * acc) % R
    return m_eval


def bench_spartan_mle(repeats: int = 1) -> Dict[str, Dict[str, float]]:
    """Evaluations/sec of the Spartan verifier's matrix-MLE step at the
    ``spartan_crpc`` shape: the packed path against ``specialize`` plus
    the per-entry loop, eq tables included on both sides."""
    a, n, b = SPARTAN_MLE_SHAPE
    cs = MatmulCircuit(a, n, b, "crpc_psq").cs
    rng = random.Random(0x3A1E)
    z = derive_z(b"spartan-mle")
    cons_padded, _, full = _shape(cs.packed().at(z))
    r_abc = [rng.randrange(R) for _ in range(3)]
    rx = [rng.randrange(R) for _ in range(cons_padded.bit_length() - 1)]
    ry = [rng.randrange(R) for _ in range(full.bit_length() - 1)]

    def fast() -> int:
        m_eval, _ = _column_evals(cs.packed().at(z), r_abc, eq_evals(rx), ry, [1])
        return m_eval

    if fast() != _naive_m_eval(cs, z, r_abc, rx, ry):
        raise AssertionError("packed matrix MLE disagrees with the loop")
    n_runs = SMALL_KERNEL_REPEATS * repeats
    return {
        f"{a}x{n}x{b}": {
            "fast_ops_per_sec": 1 / _timed(fast, n_runs),
            "naive_ops_per_sec": 1 / _timed(
                lambda: _naive_m_eval(cs, z, r_abc, rx, ry), n_runs
            ),
        }
    }


def merge_baseline(path: str, results: Dict[str, object]) -> Dict[str, object]:
    """Merge ``results`` into the shared baseline file per *entry*: other
    scripts' sections survive untouched, and a --quick run updates only
    the sizes it re-timed instead of dropping the full-size rows."""
    merged: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    for section, entries in results.items():
        existing = merged.get(section)
        if isinstance(entries, dict) and isinstance(existing, dict):
            existing.update(entries)
        else:
            merged[section] = entries
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return merged


def _host_meta(quick: bool) -> Dict[str, object]:
    """Host facts a comparison needs: ``cpu_count`` lets the regression
    gate demote worker-fleet deltas to warnings across differing core
    counts; the backend/impl fields say which field engine produced the
    fast-path numbers."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover
        numpy_version = None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "field_backend": vector.get_backend(),
        "field_impl": vector.active_impl(),
        "quick": quick,
    }


def run_benchmarks(repeats: int = 1, quick: bool = False) -> Dict[str, object]:
    msm_sizes = MSM_SIZES[:4] if quick else MSM_SIZES
    field_sizes = FIELD_SIZES[:3] if quick else FIELD_SIZES
    sc_sizes = SUMCHECK_SIZES[:4] if quick else SUMCHECK_SIZES
    hyrax_sizes = HYRAX_SIZES[:1] if quick else HYRAX_SIZES
    ntt_sizes = NTT_SIZES[:4] if quick else NTT_SIZES
    quotient_sizes = QUOTIENT_SIZES[:1] if quick else QUOTIENT_SIZES
    return {
        "meta": _host_meta(quick),
        "msm": {
            **bench_msm(msm_sizes, repeats),
            **bench_msm_small(repeats=repeats),
            **bench_msm_hyrax_verify(repeats),
        },
        "field": bench_field(field_sizes, repeats),
        "sumcheck": bench_sumcheck(sc_sizes, repeats),
        "hyrax_commit": bench_hyrax(hyrax_sizes, repeats),
        "ntt": bench_ntt(ntt_sizes, repeats),
        "groth16_quotient": bench_quotient(quotient_sizes, repeats),
        "pairing": bench_pairing(repeats),
        "g2_msm": bench_g2_msm(repeats=repeats),
        "groth16_blind": bench_groth16_blind(repeats),
        "groth16_query": bench_groth16_query(repeats),
        "spartan_mle": bench_spartan_mle(repeats),
    }


def _size_order(key: str):
    """Sort entry keys by their leading size (``"2048-int8"`` after
    ``"2048"``); keys without one (``"groth16-prepared"``) go last."""
    size, _, variant = key.partition("-")
    if not size.isdigit():
        return float("inf"), key
    return int(size), variant


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument(
        "--quick", action="store_true",
        help="small sizes only (for CI / regression checks)",
    )
    args = ap.parse_args(argv)
    results = run_benchmarks(repeats=args.repeats, quick=args.quick)
    merge_baseline(args.out, results)
    for section in (
        "msm", "field", "sumcheck", "hyrax_commit", "ntt", "groth16_quotient",
        "pairing", "g2_msm", "groth16_blind", "groth16_query", "spartan_mle",
    ):
        print(f"[{section}]")
        for size, entry in sorted(
            results[section].items(), key=lambda kv: _size_order(kv[0])
        ):
            parts = [f"{k}={v:,.0f}" for k, v in sorted(entry.items())]
            speed = ""
            if "naive_ops_per_sec" in entry:
                speed = (
                    f"  ({entry['fast_ops_per_sec'] / entry['naive_ops_per_sec']:.2f}x"
                    " vs naive)"
                )
            print(f"  n={size:>6}: {' '.join(parts)}{speed}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
