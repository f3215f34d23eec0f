"""Signed-scalar folding and the one-table blinded Hyrax commitment.

* ``signed_digits`` round-trips negative scalars (digits of ``|s|``,
  negated) and stops at the top non-zero digit;
* ``msm``, ``FixedBaseMSM.msm``/``msm_many`` (w=None, 5, 8) and the
  Groth16 prover's ``fixed_base_msm`` (on plain bases and on a table)
  equal the naive per-point sum on G1 and G2 for the scalars folding into ``(-r/2, r/2]`` treats specially:
  0, 1, ``r//2``, ``r//2 + 1``, ``r - 1``, int8 negatives, all-negative
  rows, and ``s`` with ``r - s`` on a duplicated base;
* ``FixedBaseTable.mul`` equals ``multiply`` on G1 and G2 at the
  folding edges, and the w=8 blinder table's ``lookups`` sum to
  ``multiply(H, b)``;
* Hyrax row commitments are byte-identical to the implementations they
  replace (sha256 pinned from them, including the ``spartan_crpc``
  witness shape), a zero row with a zero blinder commits to infinity,
  and ``pedersen_commit`` equals its definition;
* ``hyrax_verify`` rejects mis-shaped commitments and openings with
  ``False`` instead of raising, and never grows the generator table;
* ``SpartanBackend.warm`` prebuilds the tables a proof needs,
  idempotently, without changing a commitment, so the proof builds
  nothing; eight threads committing from a cold start build one blinder
  table and get the pinned digests;
* a table stored at step 2 gives the naive sum at every window a call may
  run (2, 4, 6, 8), and its chooser picks w=8 for uniform rows and a
  smaller window for an int8 witness matrix (w=4 for the padded
  ``spartan_crpc`` commit, whose estimate never sees the blinders),
  while a table with a single candidate window never evaluates the
  estimate;
* a table stored at step 8 (the Groth16 query tables, G1 and G2) gives the
  naive sum at its divisor windows 2 and 4 (several bucket spaces) and
  at 8, and its chooser skips scalars whose base is absent;
* ``FixedBaseMSM.msm`` rejects more scalars than bases and leaves the
  table as it was.
"""

import hashlib
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import pytest
from _g2_reference import reference_g2_msm
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.curve.fixed_base as fixed_base
import repro.spartan.commitment as commitment
from repro.core import MatmulProver, MatmulVerifier
from repro.core.backends import SpartanBackend
from repro.curve.bn254 import (
    CURVE_ORDER,
    add,
    g1_generator,
    g2_generator,
    multiply,
    point_to_bytes,
)
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable
from repro.curve.msm import fold_scalar, msm, signed_digits
from repro.gadgets.matmul import MatmulCircuit
from repro.groth16.prove import fixed_base_msm
from repro.spartan.commitment import (
    HyraxCommitment,
    HyraxOpening,
    HyraxProver,
    blinder_generator,
    blinder_table,
    hyrax_verify,
    pedersen_commit,
    pedersen_generators,
    pedersen_table,
)

R = CURVE_ORDER
EDGES = [0, 1, R // 2, R // 2 + 1, R - 1]
INT8_NEGATIVES = [-1, -2, -37, -127, -128]

_rng = random.Random(0x5160)
_G1_POOL = [multiply(g1_generator(), _rng.randrange(1, R)) for _ in range(12)]
_G2_POOL = [multiply(g2_generator(), _rng.randrange(1, R)) for _ in range(4)]
_S = _rng.randrange(R)


def _naive_g1(points, scalars):
    acc = None
    for pt, sc in zip(points, scalars):
        acc = add(acc, multiply(pt, sc))
    return acc


NAIVE = {"g1": _naive_g1, "g2": reference_g2_msm}
POOLS = {"g1": _G1_POOL, "g2": _G2_POOL}


def _cases(pool):
    """(points, scalars) pairs; 20-point cases take the batch-affine MSM
    path, shorter ones the Jacobian and single-point paths."""
    pts20 = [pool[i % len(pool)] for i in range(20)]
    s = _S
    mixed = EDGES + INT8_NEGATIVES + [5, 127, R - 5, s] + [0] * 6
    return [
        (pts20, mixed),                                     # every edge
        (pts20, [v % R for v in INT8_NEGATIVES] * 4),       # all-negative row
        (pts20, [-v for v in range(1, 21)]),                # negative ints
        (pool[:3], [R // 2, R // 2 + 1, R - 1]),            # Jacobian path
        ([pool[0]], [R - 1]),                               # single point
        ([pool[0], pool[0]], [s, R - s]),                   # cancels
        (pts20[:10] * 2, [s, 3] * 5 + [R - s, R - 3] * 5),  # cancels, batched
    ]


_CASE_IDS = range(len(_cases(_G1_POOL)))


class TestSignedDigits:
    @given(
        st.integers(min_value=-(R // 2), max_value=R // 2),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_negative_roundtrip(self, sc, c):
        num_windows = (R.bit_length() + c) // c + 1
        digits = signed_digits(sc, c, num_windows)
        half = 1 << (c - 1)
        assert all(-half <= d <= half for d in digits)
        assert sum(d << (i * c) for i, d in enumerate(digits)) == sc
        assert digits == [-d for d in signed_digits(-sc, c, num_windows)]
        assert not digits or digits[-1] != 0  # stops at the top digit

    def test_small_magnitudes_cost_one_digit(self):
        for v in INT8_NEGATIVES + [1, 127, 128]:
            assert signed_digits(fold_scalar(v % R), 8, 34) == [v]
        assert signed_digits(0, 8, 34) == []

    def test_fold_scalar(self):
        assert [fold_scalar(v) for v in EDGES] == [
            0, 1, R // 2, R // 2 + 1 - R, -1
        ]
        assert fold_scalar(-3) == -3 and fold_scalar(R + 4) == 4

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            signed_digits(-(1 << 20), 4, 5)


@pytest.mark.parametrize("group", ["g1", "g2"])
@pytest.mark.parametrize("case", _CASE_IDS)
class TestFoldedMsmEquivalence:
    def test_generic_msm(self, group, case):
        pts, scs = _cases(POOLS[group])[case]
        assert msm(pts, scs) == NAIVE[group](pts, scs)

    def test_fixed_base_msm_and_many(self, group, case):
        pts, scs = _cases(POOLS[group])[case]
        want = NAIVE[group](pts, scs)
        for window in (None, 5, 8):
            fb = FixedBaseMSM(pts, window=window)
            assert fb.msm(scs) == want
            assert fb.msm_many([scs, [0] * len(scs), scs]) == [want, None, want]

    def test_cached_fixed_base_msm(self, group, case):
        pts, scs = _cases(POOLS[group])[case]
        want = NAIVE[group](pts, scs)
        # A key's first proof (plain bases), then its table.
        for bases in (pts, FixedBaseMSM(pts)):
            assert fixed_base_msm("fold", bases, scs) == want


TABLE_EDGES = [0, 1, R // 2, R // 2 + 1, R - 1, -1, 1 << 253]
TABLE_EDGE_IDS = ["0", "1", "r/2", "r/2+1", "r-1", "-1", "2^253"]
_GENERATOR_TABLES = {}


def _generator_table(group):
    if group not in _GENERATOR_TABLES:
        gen = {"g1": g1_generator, "g2": g2_generator}[group]()
        _GENERATOR_TABLES[group] = gen, FixedBaseTable(gen)
    return _GENERATOR_TABLES[group]


class TestFixedBaseTableLookups:
    """``mul`` is the sum of ``lookups``, one digit walk for both."""

    @pytest.mark.parametrize("group", ["g1", "g2"])
    @pytest.mark.parametrize("scalar", TABLE_EDGES, ids=TABLE_EDGE_IDS)
    def test_mul_matches_multiply(self, group, scalar):
        gen, table = _generator_table(group)
        assert table.mul(scalar) == multiply(gen, scalar)

    @pytest.mark.parametrize(
        "scalar", TABLE_EDGES + [_S], ids=TABLE_EDGE_IDS + ["s"]
    )
    def test_blinder_lookups_sum_to_multiply(self, scalar):
        table = blinder_table()
        assert table.window == 8 and len(table.tables) == 32
        assert all(len(row) == 128 for row in table.tables)
        points = table.lookups(scalar)
        assert len(points) <= 32
        assert reduce(add, points, None) == multiply(
            blinder_generator(), scalar
        )


def _row_digest(com):
    return hashlib.sha256(
        b"".join(point_to_bytes(p) for p in com.row_commits)
    ).hexdigest()


def _int8_vector(rng, n):
    negative = set(rng.sample(range(n), n // 2))
    return [
        -rng.randint(1, 128) if i in negative else rng.randint(0, 127)
        for i in range(n)
    ]


def _crpc_witness_vector(rng):
    """The shape of the ``spartan_crpc`` witness commit, 64 rows of 32:
    32 int8 rows (half negative), one row of 31 full-width scalars and a
    zero, then 31 all-zero padding rows that carry only their blinder."""
    full = [rng.randrange(R) for _ in range(31)] + [0]
    return _int8_vector(rng, 32 * 32) + full + [0] * (31 * 32)


def _seeded_prover(kind):
    """A seeded HyraxProver: over 2^8 entries, a zero-padded int8 vector
    (half negative) or a uniform random one; over 2^11, the
    ``spartan_crpc`` witness shape."""
    if kind == "int8":
        rng = random.Random(0x1D8)
        vec = _int8_vector(rng, 200)
    elif kind == "spartan_crpc":
        rng = random.Random(0xC4C2)
        vec = _crpc_witness_vector(rng)
        return HyraxProver(vec, 11, rng=lambda: rng.randrange(R))
    else:
        rng = random.Random(0x2A4D)
        vec = [rng.randrange(R) for _ in range(256)]
    return HyraxProver(vec, 8, rng=lambda: rng.randrange(R))


# sha256 of the row commitments: ``int8`` and ``random`` taken from the
# implementation with a separate generator table, a dense blinder table and
# a final pairwise add; ``spartan_crpc`` from the one-table implementation
# that committed each blinder as scalar 0 of its row.
HYRAX_PINS = {
    "int8": "c1b952d983aa1a98ae4089a4361612021cc6f710545696305a061945112aac21",
    "random": "e6c3e4bffb74dd28074eba539ba627c3283d3aebbe51600bf5f88cf23da6fda2",
    "spartan_crpc": (
        "4f371a4e3443da5c963a50b813cb4fec3cb075a228b58e19269cf94f7e725797"
    ),
}


class TestHyraxByteIdentity:
    @pytest.mark.parametrize("kind", sorted(HYRAX_PINS))
    def test_row_commits_match_pinned(self, kind):
        assert _row_digest(_seeded_prover(kind).commit()) == HYRAX_PINS[kind]

    def test_zero_row_with_zero_blinder_commits_to_infinity(self):
        vec = [0] * 8 + [5, -3] * 4 + [0] * 48
        blinders = iter([0, 0, 7, R - 1, 0, 3, _S, 1])
        hp = HyraxProver(vec, 6, rng=lambda: next(blinders))
        gens = pedersen_generators(8)
        assert hp.commit().row_commits == [None] + [
            pedersen_commit(row, b, gens)
            for row, b in zip(hp.rows[1:], hp.blinders[1:])
        ]

    @pytest.mark.parametrize("blinder", [0, 1, R - 1])
    def test_pedersen_commit_matches_definition(self, blinder):
        values = [3, -7, 0, R - 1, 127, -128, 1 << 200, 5]
        gens = pedersen_generators(len(values))
        want = add(msm(gens, values), multiply(blinder_generator(), blinder))
        assert pedersen_commit(values, blinder, gens) == want
        # Non-canonical generators take the generic MSM, same definition.
        assert pedersen_commit(values, blinder, list(_G1_POOL[:8])) == add(
            msm(_G1_POOL[:8], values), multiply(blinder_generator(), blinder)
        )


def _opened(num_vars=4):
    hp = HyraxProver(list(range(1 << num_vars)), num_vars)
    point = [3, 5, 7, 11][:num_vars]
    return hp.commit(), point, hp.open(point)


class TestHyraxShapeRejection:
    def test_honest_opening_verifies(self):
        assert hyrax_verify(*_opened())

    def test_row_count_mismatch(self):
        com, point, opening = _opened()
        for rows in (com.row_commits[:-1], com.row_commits + [None]):
            bad = HyraxCommitment(rows, com.num_vars, com.row_vars, com.col_vars)
            assert hyrax_verify(bad, point, opening) is False

    def test_opening_length_mismatch_does_not_grow_table(self):
        com, point, opening = _opened()
        size = len(pedersen_table(0))
        for t in (opening.t[:-1], opening.t + [0], opening.t + [0] * 300):
            bad = HyraxOpening(t, opening.blinder, opening.value)
            assert hyrax_verify(com, point, bad) is False
        assert len(pedersen_table(0)) == size

    def test_split_disagrees_with_num_vars(self):
        com, point, opening = _opened()
        for row_vars, col_vars in ((3, 2), (1, 2), (-1, 5)):
            bad = HyraxCommitment(com.row_commits, com.num_vars, row_vars, col_vars)
            assert hyrax_verify(bad, point, opening) is False

    def test_in_memory_bundle_verifies_false(self):
        prover = MatmulProver(2, 2, 2, backend="spartan")
        rng = random.Random(4)
        mats = [[[rng.randint(-128, 127) for _ in range(2)] for _ in range(2)]
                for _ in range(2)]
        bundle = prover.prove(*mats)
        verifier = MatmulVerifier.from_bytes(prover.export_verifier())
        assert verifier.verify(bundle)
        # The opening's t enters the transcript only after hyrax_verify, so
        # a mis-sized t reaches it with every earlier check passing.
        t = bundle.proof.opening.t
        for bad in (t + [0], t[:-1]):
            bundle.proof.opening.t = bad
            assert verifier.verify(bundle) is False


def _cold_tables(monkeypatch):
    monkeypatch.setattr(commitment, "_PEDERSEN_TABLE", None)
    monkeypatch.setattr(commitment, "_BLINDER_TABLE", None)


def _count_builds(monkeypatch):
    """Count blinder-table builds and Pedersen-table extensions."""
    builds = []
    for cls, name in ((FixedBaseTable, "__init__"), (FixedBaseMSM, "extend")):
        real = getattr(cls, name)

        def spy(self, *args, _real=real, _name=name, **kwargs):
            builds.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    return builds


class TestSpartanWarm:
    def test_warm_is_idempotent_and_covers_a_proof(self, monkeypatch):
        _cold_tables(monkeypatch)
        before = _row_digest(_seeded_prover("int8").commit())
        _cold_tables(monkeypatch)
        backend = SpartanBackend()
        circuit = MatmulCircuit(4, 8, 4, "crpc_psq")
        backend.warm(None, circuit)
        table = commitment._PEDERSEN_TABLE
        blinders = commitment._BLINDER_TABLE
        assert blinders is not None and blinders.window == 8
        size = len(table)
        backend.warm(None, circuit)
        assert commitment._PEDERSEN_TABLE is table and len(table) == size
        assert commitment._BLINDER_TABLE is blinders
        builds = _count_builds(monkeypatch)
        rng = random.Random(8)
        x = [[rng.randint(-128, 127) for _ in range(8)] for _ in range(4)]
        w = [[rng.randint(-128, 127) for _ in range(4)] for _ in range(8)]
        backend.prove(circuit, None, x, w)
        assert builds == []  # the proof found every table it needed
        assert len(table) == size
        assert _row_digest(_seeded_prover("int8").commit()) == before

    def test_concurrent_cold_commits_match_pins(self, monkeypatch):
        _cold_tables(monkeypatch)
        builds = _count_builds(monkeypatch)
        kinds = ["int8", "spartan_crpc"] * 4
        provers = [_seeded_prover(kind) for kind in kinds]
        barrier = threading.Barrier(len(provers), timeout=60)

        def commit(prover):
            barrier.wait()
            return _row_digest(prover.commit())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the lazy table builds
        try:
            with ThreadPoolExecutor(max_workers=len(provers)) as pool:
                futures = [pool.submit(commit, p) for p in provers]
                digests = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert digests == [HYRAX_PINS[kind] for kind in kinds]
        assert builds.count("__init__") == 1  # one blinder table


def _window_cases():
    """The folding edge cases plus the rows a Hyrax commit pads with."""
    pts20 = [_G1_POOL[i % len(_G1_POOL)] for i in range(20)]
    return _cases(_G1_POOL) + [
        (pts20, [0] * 20),                                  # all-zero row
        (pts20, [_S] + [0] * 19),                           # blinder only
        (pts20, [R - 1, -128 % R, 7, 0, R // 2 + 1]),       # prefix of bases
    ]


_STEPPED_TABLES = {}


def _stepped_table(case):
    """A step-2 table over the case's bases, built once per case."""
    if case not in _STEPPED_TABLES:
        pts, _ = _window_cases()[case]
        _STEPPED_TABLES[case] = FixedBaseMSM(pts, window=2)
    return _STEPPED_TABLES[case]


@pytest.mark.parametrize("case", range(len(_window_cases())))
class TestWindowPerCall:
    """Step-2 tables: every window a call may choose gives the same sum."""

    @pytest.mark.parametrize("w", [2, 4, 6, 8])
    def test_forced_window_matches_naive(self, case, w, monkeypatch):
        chosen = []

        def forced(self, folded, weight):
            chosen.append(w)
            return w

        monkeypatch.setattr(FixedBaseMSM, "_window_for", forced)
        pts, scs = _window_cases()[case]
        table = _stepped_table(case)
        want = _naive_g1(pts, scs)
        assert table.msm(scs) == want
        assert table.msm_many([scs, [0] * len(scs), scs]) == [want, None, want]
        assert chosen == [w, w]

    def test_chosen_window_matches_naive(self, case):
        pts, scs = _window_cases()[case]
        table = _stepped_table(case)
        want = _naive_g1(pts, scs)
        assert table.msm(scs) == want
        assert table.msm_many([scs, scs[:1]]) == [
            want, _naive_g1(pts[:1], scs[:1])
        ]


def _step8_cases(pool):
    """Edge cases on a step-8 table: absent bases, the folding edges, an
    int8 row with the Groth16 blinding scalars ``1 | r`` appended, an
    all-zero row and prefixes of the bases."""
    pts = [pool[i % len(pool)] for i in range(16)]
    pts[2] = pts[9] = None
    rng = random.Random(0x58)
    int8 = [rng.randint(-128, 127) % R for _ in range(14)]
    return [
        (pts, EDGES + INT8_NEGATIVES + [5, 127, R - 5, _S, 0, 9]),
        (pts, int8 + [1, _S]),
        (pts, [0] * 16),
        (pts, [R - 1, -128 % R, 7, 0, R // 2 + 1]),          # prefix
        (pts, [_S] * 3),                                      # prefix, wide
        (pts[:6], [-v % R for v in (1, 2, 37, 127, 128, 3)]),
    ]


_STEP8 = {}


def _step8(group, case):
    """(table, points, scalars, naive sum) per case, built once."""
    key = (group, case)
    if key not in _STEP8:
        pts, scs = _step8_cases(POOLS[group])[case]
        table = FixedBaseMSM(pts)
        assert table.step == 8 and table.windows == (2, 4, 8)
        _STEP8[key] = table, pts, scs, NAIVE[group](pts[:len(scs)], scs)
    return _STEP8[key]


@pytest.mark.parametrize("group", ["g1", "g2"])
@pytest.mark.parametrize("case", range(len(_step8_cases(_G1_POOL))))
class TestStep8Windows:
    """The Groth16 query tables run w = 2 and 4 on their step-8 shifts
    (8/w bucket spaces combined with doublings): every window gives the
    naive sum, through ``msm`` and ``msm_many``."""

    @pytest.mark.parametrize("w", [2, 4, 8])
    def test_forced_window_matches_naive(self, group, case, w, monkeypatch):
        chosen = []

        def forced(self, folded, weight):
            chosen.append(w)
            return w

        monkeypatch.setattr(FixedBaseMSM, "_window_for", forced)
        table, pts, scs, want = _step8(group, case)
        assert table.msm(scs) == want
        first = NAIVE[group](pts[:1], scs[:1])
        assert table.msm_many([scs, [0] * len(scs), scs[:1], scs]) == [
            want, None, first, want
        ]
        assert chosen == [w, w]

    def test_chosen_window_matches_naive(self, group, case):
        table, _, scs, want = _step8(group, case)
        assert table.msm(scs) == want
        assert table.msm_many([scs]) == [want]


def test_window_costs_skip_absent_bases_and_count_spaces():
    """On the ``groth16_crpc`` A-side shape (88 bases, 56 absent; 32 int8
    wires with ``1 | r`` appended on live bases) a scalar whose base is
    ``None`` costs no insertion, each of a divisor window's ``8 // w``
    bucket spaces costs its own aggregation, and the chooser picks w=4."""
    rng = random.Random(0xABC)
    pts = [_G1_POOL[i % 12] if i % 11 < 4 else None for i in range(88)]
    live = [rng.randint(-128, 127) for _ in range(30)] + [1, _S]
    it = iter(live)
    scalars = [next(it) if pt is not None else rng.randrange(R) for pt in pts]
    table = FixedBaseMSM(pts)
    weight = fixed_base._AGG_WEIGHT_ONE
    folded = table._fold([scalars])
    insertions = {
        w: sum((abs(fold_scalar(v)).bit_length() + w) // w for v in live if v)
        for w in (2, 4, 8)
    }
    assert fixed_base._window_costs(
        table.windows, 8, folded, table.shifted, weight
    ) == {w: insertions[w] + weight * (8 // w) * (1 << w) for w in (2, 4, 8)}
    assert table._window_for(folded, weight) == 4


def test_candidate_windows():
    pts = _G1_POOL[:2]
    assert FixedBaseMSM(pts, window=2).windows == (2, 4, 6, 8)
    assert FixedBaseMSM(pts, window=3).windows == (3, 6)
    assert FixedBaseMSM(pts, window=5).windows == (5,)
    # Divisors of the step run too, on step // w bucket spaces.
    assert FixedBaseMSM(pts, window=8).windows == (2, 4, 8)
    assert FixedBaseMSM(pts, window=10).windows == (2, 5, 10)
    assert FixedBaseMSM(pts).windows == (2, 4, 8)  # the default step 8
    assert FixedBaseMSM(_G2_POOL).windows == (2, 4, 8)


def _uniform_rows(nrows, ncols):
    """``nrows`` rows of a blinder and ``ncols`` uniform values."""
    rng = random.Random(0x57E9 + nrows * ncols)
    return [[rng.randrange(R) for _ in range(ncols + 1)] for _ in range(nrows)]


def _crpc_witness_rows():
    """The shape of the spartan_crpc witness commit: 64 rows of a blinder
    and 32 entries, half of them zero, about one in sixty a full-width
    field element and the rest int8 (half negative)."""
    rng = random.Random(0xC4C)
    rows = []
    for _ in range(64):
        row = [rng.randrange(R)]
        for _ in range(32):
            x = rng.random()
            if x < 0.5:
                row.append(0)
            elif x < 0.515:
                row.append(rng.randrange(R))
            else:
                row.append(rng.randint(-128, 127) % R)
        rows.append(row)
    return rows


# PERF.md "Hyrax commit": the window the verifier's opening row (a blinder
# and 32 uniform values) was measured to commit fastest at.
OPENING_WINDOW = 8


class TestWindowChooser:
    """The estimate picks windows by scalar sizes; no clock involved."""

    def _pick(self, rows, weight):
        table = pedersen_table(64)
        assert table.windows == (2, 4, 6, 8)
        return table._window_for(table._fold(rows), weight)

    @pytest.mark.parametrize("nrows,ncols", [(32, 32), (64, 64)])
    def test_uniform_matrix_selects_8(self, nrows, ncols):
        rows = _uniform_rows(nrows, ncols)
        assert self._pick(rows, fixed_base._AGG_WEIGHT_MANY) == 8

    def test_int8_witness_selects_smaller(self):
        rows = _crpc_witness_rows()
        assert self._pick(rows, fixed_base._AGG_WEIGHT_MANY) < 8

    def test_padded_witness_selects_4(self, monkeypatch):
        chosen, seen = [], []
        real_for, real_costs = FixedBaseMSM._window_for, fixed_base._window_costs

        def window_for(self, folded, weight):
            chosen.append(real_for(self, folded, weight))
            return chosen[-1]

        def costs(windows, step, folded_rows, shifted, weight):
            seen.append(folded_rows)
            return real_costs(windows, step, folded_rows, shifted, weight)

        monkeypatch.setattr(FixedBaseMSM, "_window_for", window_for)
        monkeypatch.setattr(fixed_base, "_window_costs", costs)
        prover = _seeded_prover("spartan_crpc")
        prover.commit()
        assert chosen == [4]
        # The estimate sees the witness alone: column 0 (H) is empty.
        (rows,) = seen
        assert all(row[0] == 0 for row in rows)
        table = pedersen_table(32)
        assert real_costs(
            table.windows, 2, rows, table.shifted, 1
        ) == real_costs(
            table.windows, 2, [[fold_scalar(v) for v in row]
                               for row in prover.rows],
            table.shifted[1:], 1,
        )

    def test_opening_row_selects_measured_window(self):
        (row,) = _uniform_rows(1, 32)
        assert self._pick([row], fixed_base._AGG_WEIGHT_ONE) == OPENING_WINDOW

    def test_single_window_table_skips_estimate(self, monkeypatch):
        calls = []
        real = fixed_base._window_costs

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fixed_base, "_window_costs", spy)
        rows = [[3, R - 1, 0, 5], [R // 2, -7 % R, 1, 0]]
        for table in (FixedBaseMSM(_G1_POOL[:4], window=5),
                      FixedBaseMSM(_G1_POOL[:4], window=7)):
            table.msm(rows[0])
            table.msm_many(rows)
        assert calls == []
        # Steps 2 and 8 (the G1 and G2 default) have several windows.
        for stepped in (FixedBaseMSM(_G1_POOL[:4], window=2),
                        FixedBaseMSM(_G1_POOL[:4]),
                        FixedBaseMSM(_G2_POOL)):
            stepped.msm(rows[0])
            stepped.msm_many(rows)
        assert len(calls) == 6


class TestFixedBaseMsmRejection:
    def test_rejected_call_leaves_cache_unchanged(self):
        """More scalars than bases raise, and the table's precomputed
        rows stay as they were."""
        for group, pool in POOLS.items():
            pts = pool[:2]
            table = FixedBaseMSM(pts)
            rows = list(table.shifted)
            with pytest.raises(ValueError):
                table.msm([1, 2, 3])
            assert len(table.shifted) == len(rows)
            assert all(a is b for a, b in zip(table.shifted, rows))
            assert table.msm([1, 2]) == NAIVE[group](pts, [1, 2])
