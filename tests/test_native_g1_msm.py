"""The C G1 MSM kernel against the Python group ops.

While the vector engine is active a G1 ``FixedBaseMSM`` or
``FixedBaseTable`` holds Montgomery-form limbs and runs every call in one
C call; under the scalar engine the same classes run the Python group
ops, the oracle.  Every case here compares three things: the C table, a
table over the same bases driven by the Python engine, and the sum of
``multiply`` terms.

* ``msm`` and ``msm_many`` (with and without a dense blinder table, and
  a blinder of 0) on step-2 and step-8 tables at every candidate window,
  so both the strided windows (one bucket space) and the divisor windows
  (several spaces) run;
* ``None`` bases, empty and one-point buckets, all-zero rows, the folding
  edges 0, 1, r//2, r//2+1, r-1 and int8 negatives, scalar prefixes;
* ``s`` and ``r - s`` on duplicated bases, so buckets and the final sum
  cancel to infinity, and ``P + P`` in one bucket;
* each case through the kernel's batch-affine bucket tree (a round runs
  from one pair up) and through its Jacobian aggregation alone;
* a table switching engines between calls, a C table holding no tuples,
  and a Pedersen-style table extended by one thread while another
  commits: the limb array is replaced, never resized under a running
  call;
* the variable-base ``msm`` (one C call on a one-shift table, a bucket
  space per window) on 1 to 1024 points at every window its rule picks,
  against the scalar-engine ``msm`` and the ``multiply`` sum: ``None``
  points, zero scalars, scalars at or above r, folded negatives, ``P +
  P``, ``P - P`` and an all-cancelling input; G2 and the scalar engine
  stay on the Python paths.
"""

import importlib
import random
import sys
import threading
from functools import lru_cache

import pytest

from repro.curve import fixed_base
from repro.curve.bn254 import (
    CURVE_ORDER,
    add,
    g1_generator,
    g2_generator,
    multiply,
    neg,
)
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable
from repro.field import vector

# The package attribute ``repro.curve.msm`` is the function.
msm_mod = importlib.import_module("repro.curve.msm")
msm = msm_mod.msm

pytestmark = pytest.mark.skipif(
    vector.active_impl() is None, reason="no native field engine"
)

R = CURVE_ORDER
EDGES = [0, 1, R // 2, R // 2 + 1, R - 1]
INT8_NEGATIVES = [-1, -2, -37, -127, -128]

_rng = random.Random(0x61C)
_POOL = [multiply(g1_generator(), _rng.randrange(1, R)) for _ in range(8)]
_H = multiply(g1_generator(), _rng.randrange(1, R))
_S = _rng.randrange(R)


@pytest.fixture(autouse=True)
def _restore_backend():
    state = dict(vector._state)
    yield
    vector._state.clear()
    vector._state.update(state)


@pytest.fixture(params=[1, msm_mod._MIN_BATCH_PAIRS], ids=["tree", "jacobian"])
def min_batch(request, monkeypatch):
    """Run the bucket tree from one pair up, or (on these small cases)
    leave every bucket to the Jacobian aggregation."""
    monkeypatch.setattr(msm_mod, "_MIN_BATCH_PAIRS", request.param)
    return request.param


def _naive(points, scalars):
    acc = None
    for pt, sc in zip(points, scalars):
        if pt is not None:
            acc = add(acc, multiply(pt, sc))
    return acc


def _bases():
    pts = [_POOL[i % len(_POOL)] for i in range(16)]
    pts[3] = pts[11] = None
    return pts


CASES = {
    "edges": (_bases(), EDGES + INT8_NEGATIVES + [5, 127, _S, 0, 9, R - 5]),
    "all-zero": (_bases(), [0] * 16),
    "one-point": (_bases(), [0] * 5 + [7] + [0] * 10),
    "absent-only": (_bases(), [0, 0, 0, _S] + [0] * 7 + [R - 1]),
    "prefix": (_bases(), [R - 1, -128 % R, 7]),
    "cancel": ([_POOL[0]] * 16, [_S, R - _S] * 8),
    "cancel-small": ([_POOL[1]] * 4, [3, R - 3, 1, R - 1]),
    "double": ([_POOL[2]] * 16, [1] * 16),
    "double-wide": ([_POOL[2]] * 2, [_S, _S]),
}
STEPS = {2: (2, 4, 6, 8), 8: (2, 4, 8)}
WINDOW_PARAMS = [(step, w) for step, ws in STEPS.items() for w in ws]


def _python(fn):
    """``fn()`` under the Python group ops (the scalar engine)."""
    state = dict(vector._state)
    vector.set_backend("scalar")
    try:
        return fn()
    finally:
        vector._state.clear()
        vector._state.update(state)


@lru_cache(maxsize=None)
def _tables(case, step):
    """(C table, Python table) over the case's bases, built once."""
    pts = CASES[case][0]
    return FixedBaseMSM(pts, window=step), _python(
        lambda: FixedBaseMSM(pts, window=step)
    )


@lru_cache(maxsize=None)
def _dense(window):
    return FixedBaseTable(_H, window), _python(lambda: FixedBaseTable(_H, window))


@lru_cache(maxsize=None)
def _want(case, prefix=None):
    pts, scs = CASES[case]
    return _naive(pts, scs[:prefix])


def _force(monkeypatch, w):
    monkeypatch.setattr(FixedBaseMSM, "_window_for", lambda self, f, wt: w)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("step,w", WINDOW_PARAMS)
def test_msm_matches_python_and_naive(case, step, w, min_batch, monkeypatch):
    _force(monkeypatch, w)
    c_table, py_table = _tables(case, step)
    scs = CASES[case][1]
    want = _want(case)
    assert c_table.msm(scs) == want
    rows = [scs, [0] * len(scs), scs[:1]]
    expect = [want, None, _want(case, 1)]
    assert c_table.msm_many(rows) == expect
    assert _python(lambda: py_table.msm_many(rows)) == expect
    assert c_table._tab is not None and py_table._tab is None


BLINDERS = [0, 1, _S, R - 1, R // 2 + 1, -5 % R]


@pytest.mark.parametrize("case", ["edges", "cancel", "all-zero", "double"])
@pytest.mark.parametrize("step,w", [(2, 2), (2, 8), (8, 4), (8, 8)])
def test_blinded_rows_match_python_and_naive(case, step, w, min_batch,
                                             monkeypatch):
    _force(monkeypatch, w)
    c_table, py_table = _tables(case, step)
    c_dense, py_dense = _dense(8)
    scs = CASES[case][1]
    rows = [scs, [0] * len(scs), scs[:2], scs, [0], scs]
    expect = [
        add(_naive(CASES[case][0], row), multiply(_H, b))
        for row, b in zip(rows, BLINDERS)
    ]
    assert c_table.msm_many(rows, blinding=(c_dense, BLINDERS)) == expect
    assert _python(
        lambda: py_table.msm_many(rows, blinding=(py_dense, BLINDERS))
    ) == expect


def test_blinder_cancels_its_row():
    """A row whose blinder term cancels the row sum commits to infinity."""
    c_table, _ = _tables("prefix", 2)
    dense, _ = _dense(8)
    assert c_table.msm_many(
        [[0, 5]], blinding=(dense, [0])
    ) == [multiply(_POOL[1], 5)]
    table = FixedBaseMSM([_H])
    assert table.msm_many([[_S]], blinding=(dense, [R - _S])) == [None]


@pytest.mark.parametrize("window", [2, 5, 8])
def test_dense_table_mul_and_lookups(window, min_batch):
    c_dense, py_dense = _dense(window)
    half = 1 << (window - 1)
    assert c_dense.tables.shape == (c_dense.num_windows, half, 2, 4)
    for k in EDGES + INT8_NEGATIVES + [_S, 1 << 253]:
        want = multiply(_H, k)
        assert c_dense.mul(k) == want
        assert _python(lambda: py_dense.mul(k)) == want
        points = c_dense.lookups(k)
        assert points == _python(lambda: py_dense.lookups(k))
        acc = None
        for pt in points:
            acc = add(acc, pt)
        assert acc == want


def test_c_tables_hold_no_tuples():
    c_table, _ = _tables("edges", 8)
    limbs, idx = c_table._tab
    assert limbs.shape == (14, c_table.num_windows, 2, 4)
    assert idx.tolist() == [
        -1 if pt is None else i - (i > 3) - (i > 11)
        for i, pt in enumerate(CASES["edges"][0])
    ]
    assert [row is None for row in c_table.shifted] == [
        pt is None for pt in CASES["edges"][0]
    ]
    assert all(row.base is limbs for row in c_table.shifted if row is not None)
    c_dense, _ = _dense(8)
    assert not isinstance(c_dense.tables, list)


def test_table_follows_the_engine_between_calls():
    pts, scs = CASES["edges"]
    want = _want("edges")
    table = FixedBaseMSM(pts, window=2)
    assert table._tab is not None
    assert _python(lambda: table.msm(scs)) == want
    assert table._tab is None and isinstance(table.shifted[0], list)
    table.extend([_POOL[5]])
    assert table.msm(scs + [7]) == add(want, multiply(_POOL[5], 7))
    assert table._tab is not None and len(table) == 17
    # A dense table built under the Python engine converts once for C.
    py_dense = _python(lambda: FixedBaseTable(_H, 5))
    blinded = FixedBaseMSM([_POOL[0]]).msm_many(
        [[2]], blinding=(py_dense, [_S])
    )
    assert blinded == [add(multiply(_POOL[0], 2), multiply(_H, _S))]


def test_extend_while_committing_replaces_the_array(monkeypatch):
    """One thread commits over the first bases while another extends the
    table: every commit is right, and the array a call started with is
    never resized (the kernel runs without the GIL)."""
    gens = [multiply(g1_generator(), _rng.randrange(1, R)) for _ in range(24)]
    table = FixedBaseMSM(gens[:4], window=2)
    dense, _ = _dense(8)
    rng = random.Random(0xE47)
    rows = [[rng.randint(-128, 127) % R for _ in range(4)] for _ in range(8)]
    rows[0] = [rng.randrange(R) for _ in range(4)]
    blinders = [rng.randrange(R) for _ in rows]
    expect = [
        add(_naive(gens, row), multiply(_H, b))
        for row, b in zip(rows, blinders)
    ]
    first = table._tab[0]
    first_shape, first_bytes = first.shape, first.tobytes()
    seen, errors = [], []
    stop = threading.Event()

    def commit():
        try:
            while not stop.is_set():
                seen.append(
                    table.msm_many(rows, blinding=(dense, blinders)) == expect
                )
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker = threading.Thread(target=commit)
    try:
        worker.start()
        for pt in gens[4:]:
            table.extend([pt])
        while not seen and worker.is_alive():
            stop.wait(0.01)
    finally:
        stop.set()
        worker.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert errors == [] and seen and all(seen)
    assert len(table) == 24 and table._tab[0] is not first
    assert first.shape == first_shape and first.tobytes() == first_bytes
    assert table.msm(rows[0] + [0] * 19 + [5]) == add(
        _naive(gens, rows[0]), multiply(gens[23], 5)
    )


# --- variable-base msm ------------------------------------------------------

RULE_WINDOWS = sorted({msm_mod._native_window(n) for n in range(1, 1 << 13)})
SIZES = [1, 2, 15, 16, 17, 64, 1024]


@pytest.fixture
def native_calls(monkeypatch):
    """Count the ``msm`` calls that run in C."""
    calls = []
    real = msm_mod._g1_variable_msm

    def spy(nat, pts, scs):
        calls.append(len(pts))
        return real(nat, pts, scs)

    monkeypatch.setattr(msm_mod, "_g1_variable_msm", spy)
    return calls


def _force_native_window(monkeypatch, w):
    monkeypatch.setattr(msm_mod, "_native_window", lambda n: w)


@lru_cache(maxsize=None)
def _variable_case(n):
    """``n`` distinct points, full-width scalars and both oracles."""
    rng = random.Random(n)
    pts, acc = [], _H
    for i in range(n):
        acc = add(acc, _POOL[i % len(_POOL)])
        pts.append(acc)
    scs = [rng.randrange(R) for _ in range(n)]
    return pts, scs, _naive(pts, scs), _python(lambda: msm(pts, scs))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("w", RULE_WINDOWS)
def test_variable_msm_matches_python_and_naive(n, w, monkeypatch,
                                               native_calls):
    _force_native_window(monkeypatch, w)
    pts, scs, want, python = _variable_case(n)
    assert python == want
    assert msm(pts, scs) == want
    assert native_calls == [n]


def test_window_rule_covers_every_size():
    assert RULE_WINDOWS == list(range(2, 9))
    picks = [msm_mod._native_window(n) for n in range(1, 1 << 13)]
    assert picks == sorted(picks)
    assert [msm_mod._native_window(n) for n in (2, 17, 64, 128)] == [
        2, 4, 4, 5
    ]


EDGE_SCALARS = (
    EDGES + INT8_NEGATIVES + [-5, R, R + 5, 2 * R - 1, 3 * R + 7, _S, 0, 1 << 253]
)


@pytest.mark.parametrize("w", RULE_WINDOWS)
def test_variable_msm_edge_scalars_and_none_points(w, min_batch, monkeypatch,
                                                   native_calls):
    _force_native_window(monkeypatch, w)
    pts = [_POOL[i % len(_POOL)] for i in range(len(EDGE_SCALARS))]
    pts[2] = pts[9] = None
    want = _naive(pts, EDGE_SCALARS)
    assert msm(pts, EDGE_SCALARS) == want
    assert _python(lambda: msm(pts, EDGE_SCALARS)) == want
    # Folded negatives alone: a digit or two each.
    small = [v % R for v in INT8_NEGATIVES]
    assert msm(_POOL[:5], small) == _naive(_POOL[:5], small)
    live = sum(pt is not None and sc % R != 0
               for pt, sc in zip(pts, EDGE_SCALARS))
    assert native_calls == [live, 5]


@pytest.mark.parametrize("w", RULE_WINDOWS)
def test_variable_msm_doubles_and_cancels(w, min_batch, monkeypatch,
                                          native_calls):
    _force_native_window(monkeypatch, w)
    p, q = _POOL[0], _POOL[1]
    assert msm([p, p], [_S, _S]) == multiply(p, 2 * _S)
    assert msm([p, neg(p)], [_S, _S]) is None
    assert msm([p, p], [_S, R - _S]) is None
    assert msm([p, neg(p), q], [_S, 3, 7]) == add(
        multiply(p, _S - 3), multiply(q, 7)
    )
    cancel = [p, q] * 8
    scs = [_S, R - 9, R - _S, 9] * 4
    assert msm(cancel, scs) is None
    assert _python(lambda: msm(cancel, scs)) is None
    assert native_calls == [2, 2, 2, 3, 16]


def test_empty_and_all_zero_inputs_stay_out_of_c(native_calls):
    assert msm([], []) is None
    assert msm([None, None], [3, 4]) is None
    assert msm(_POOL[:3], [0, R, 2 * R]) is None
    assert native_calls == []


def test_g2_takes_the_python_path(native_calls):
    g2 = g2_generator()
    pts = [multiply(g2, k) for k in (2, 3, 5)]
    scs = [_S, R - 4, 11]
    assert msm(pts, scs) == _naive(pts, scs)
    assert msm(pts[:1] * 20, [_S] * 20) == multiply(pts[0], 20 * _S)
    assert native_calls == []


def test_msm_follows_the_engine_between_calls(native_calls):
    pts, scs, want, _ = _variable_case(17)
    assert msm(pts, scs) == want
    assert _python(lambda: msm(pts, scs)) == want
    assert native_calls == [17]
    assert msm(pts, scs) == want
    assert native_calls == [17, 17]
