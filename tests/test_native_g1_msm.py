"""The C G1 fixed-base MSM kernel against the Python group ops.

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
  call.
"""

import random
import sys
import threading
from functools import lru_cache

import pytest

from repro.curve import fixed_base
from repro.curve.bn254 import CURVE_ORDER, add, g1_generator, multiply
from repro.curve.fixed_base import FixedBaseMSM, FixedBaseTable
from repro.field import vector

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


@pytest.fixture(params=[1, fixed_base._MIN_BATCH_PAIRS], ids=["tree", "jacobian"])
def min_batch(request, monkeypatch):
    """Run the bucket tree from one pair up, or (on these small cases)
    leave every bucket to the Jacobian aggregation."""
    monkeypatch.setattr(fixed_base, "_MIN_BATCH_PAIRS", request.param)
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
