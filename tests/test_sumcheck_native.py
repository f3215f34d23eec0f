"""Fused C sumcheck rounds (`vector.SumcheckTables`) against the oracle.

Every kernel (`prod2`, `prod3`, `eq_abc`) runs every round in the C
kernel (the profitability floor lowered to 1) and must emit the round
polynomials, challenges and final values of `sumcheck_prove_reference`,
at sizes 2 to 2^13, on tables with all-zero, unreduced and negative
entries, for claims of 0 and p-1.  Montgomery-form limb tables must
prove exactly what int tables prove.

The Spartan-side gates live elsewhere and run under both engines:
`HYRAX_PINS` (test_signed_msm.py), the packed pins (test_spartan_packed.py)
and `TestProofByteIdentity` (test_vector_field.py).
"""

import random

import pytest

from repro.field import _native, vector
from repro.field.prime_field import BN254_FR_MODULUS, inv_mod
from repro.gadgets.matmul import MatmulCircuit, _as_rows
from repro.spartan.sumcheck import sumcheck_prove, sumcheck_prove_reference
from repro.spartan.transcript import Transcript

R = BN254_FR_MODULUS

needs_native = pytest.mark.skipif(
    not vector.available_impls(), reason="no vector engine available"
)

# kernel -> (table count, degree, combine)
KERNELS = {
    "prod2": (2, 2, lambda v: v[0] * v[1] % R),
    "prod3": (3, 3, lambda v: v[0] * v[1] % R * v[2] % R),
    "eq_abc": (4, 3, lambda v: v[0] * ((v[1] * v[2] - v[3]) % R) % R),
}

ADVERSARIAL = [0, 1, R - 1, R, R + 7, 2 * R + 3, -1, -R, -(R + 5), 1 << 255]


@pytest.fixture
def native(monkeypatch):
    """The vector engine with no sumcheck floor: every round runs in C."""
    state = dict(vector._state)
    vector.set_backend("vector")
    monkeypatch.setattr(vector, "SUMCHECK_MIN_HALF", 1)
    yield
    vector._state.clear()
    vector._state.update(state)


def _tables(rng, kernel, n, fill):
    k = KERNELS[kernel][0]
    if fill == "zero":
        return [[0] * n for _ in range(k)]
    tables = [[rng.randrange(R) for _ in range(n)] for _ in range(k)]
    if fill == "adversarial":
        for t in tables:
            for i in rng.sample(range(n), min(n, len(ADVERSARIAL))):
                t[i] = rng.choice(ADVERSARIAL)
    return tables


def _true_sum(kernel, tables):
    combine = KERNELS[kernel][2]
    return sum(combine([v % R for v in vals]) for vals in zip(*tables)) % R


def _hit_claim(kernel, tables, claim):
    """Shift one entry of the last table so the true sum is ``claim`` (the
    entry keeps its unreduced or negative form, off by a multiple of R)."""
    delta = (claim - _true_sum(kernel, tables)) % R
    for i in reversed(range(len(tables[0]))):
        row = [t[i] % R for t in tables]
        if kernel == "prod2":
            coeff = row[0]
        elif kernel == "prod3":
            coeff = row[0] * row[1] % R
        else:
            coeff = -row[0] % R
        if coeff:
            tables[-1][i] += delta * inv_mod(coeff, R) % R - R
            break
    assert _true_sum(kernel, tables) == claim


def _reference(kernel, tables):
    _, degree, combine = KERNELS[kernel]
    return sumcheck_prove_reference(
        [list(t) for t in tables], combine, degree, 0, Transcript(), b"t"
    )


def _fast(kernel, tables, claim, **kw):
    _, degree, combine = KERNELS[kernel]
    return sumcheck_prove(
        tables, combine, degree, claim, Transcript(), b"t", kernel=kernel, **kw
    )


def _assert_same(got, want):
    assert got[0].round_polys == want[0].round_polys
    assert got[1] == want[1]
    assert got[2] == [v % R for v in want[2]]


@needs_native
@pytest.mark.usefixtures("native")
class TestRoundKernelVsReference:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("log_n", range(1, 14))
    def test_random_tables(self, kernel, log_n):
        rng = random.Random(log_n * 31 + len(kernel))
        tables = _tables(rng, kernel, 1 << log_n, "random")
        _assert_same(
            _fast(kernel, tables, _true_sum(kernel, tables)),
            _reference(kernel, tables),
        )

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("n", [2, 4, 64, 1024])
    def test_all_zero_tables(self, kernel, n):
        tables = _tables(None, kernel, n, "zero")
        got = _fast(kernel, tables, 0)
        _assert_same(got, _reference(kernel, tables))
        assert all(p == [0] * len(p) for p in got[0].round_polys)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("n", [2, 8, 32, 256])
    @pytest.mark.parametrize("claim", [0, R - 1])
    def test_unreduced_negative_entries_at_edge_claims(self, kernel, n, claim):
        rng = random.Random(n + claim % 7)
        tables = _tables(rng, kernel, n, "adversarial")
        _hit_claim(kernel, tables, claim)
        got = _fast(kernel, tables, claim)
        _assert_same(got, _reference(kernel, tables))
        first = got[0].round_polys[0]
        assert (first[0] + first[1]) % R == claim

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_sparse_padded_tables(self, kernel):
        """Zero runs like Spartan's padded z-table: the first round skips
        the pairs that are zero in every table."""
        rng = random.Random(3)
        tables = _tables(rng, kernel, 512, "random")
        for t in tables:
            t[37:256] = [0] * 219
            t[256 + 101:] = [0] * (256 - 101)
        _assert_same(
            _fast(kernel, tables, _true_sum(kernel, tables)),
            _reference(kernel, tables),
        )

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_limb_tables_prove_the_same(self, kernel):
        rng = random.Random(11)
        tables = _tables(rng, kernel, 128, "adversarial")
        claim = _true_sum(kernel, tables)
        want = _fast(kernel, tables, claim)
        mont = [vector.to_mont(vector.to_limbs(t)) for t in tables]
        _assert_same(_fast(kernel, mont, claim), want)
        # The caller's arrays are read, never bound in place.
        assert [vector.from_mont(t) for t in mont] == [
            [v % R for v in t] for t in tables
        ]

    def test_montgomery_limbs_on_the_scalar_path(self, monkeypatch):
        """Below the floor, Montgomery limb tables convert back to ints."""
        monkeypatch.setattr(vector, "SUMCHECK_MIN_HALF", 1 << 20)
        rng = random.Random(2)
        tables = _tables(rng, "eq_abc", 16, "random")
        mont = [vector.to_mont(vector.to_limbs(t)) for t in tables]
        _assert_same(
            _fast("eq_abc", mont, _true_sum("eq_abc", tables)),
            _reference("eq_abc", tables),
        )

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("n", [3, 5, 6, 7, 100])
    def test_scalar_loops_give_the_same_proof(self, kernel, n, monkeypatch):
        """Any size, odd ones included (the round-claim shortcut then
        parts from the reference, which sums the rows a round drops)."""
        rng = random.Random(n)
        tables = _tables(rng, kernel, n, "adversarial")
        claim = rng.randrange(R)
        got = _fast(kernel, tables, claim)
        monkeypatch.setattr(vector, "SUMCHECK_MIN_HALF", 1 << 20)
        _assert_same(got, _fast(kernel, tables, claim))


@needs_native
class TestSumcheckTables:
    def test_rejects_a_table_count_the_kernel_does_not_take(self):
        with pytest.raises(ValueError):
            vector.SumcheckTables("eq_abc", [[1, 2], [3, 4]])

    def test_kernel_rejects_a_mismatched_count(self):
        nat = _native.load()
        tabs = vector.to_limbs([1, 2, 3, 4]).reshape(2, 2, 4)
        out = vector.np.empty((3, 4), dtype=vector.np.uint64)
        for kind, k in ((2, 2), (1, 2), (3, 2), (-1, 2)):
            assert nat.sumcheck_round(
                kind, nat.uptr(tabs), k, 2, 2, None, nat.uptr(out)
            ) == -2

    def test_self_test_covers_the_round_kernel(self):
        nat = _native.load()
        assert _native._sumcheck_self_test(nat)


class TestInt64Product:
    """``MatmulCircuit._product_rows`` takes exact int64 lanes only while
    ``n * max|x| * max|w| < 2**63``; the Python loop is the oracle."""

    def _check(self, circuit, x_mat, w_mat, monkeypatch):
        a, n, b = circuit.a, circuit.n, circuit.b
        x, w = _as_rows(x_mat, a, n), _as_rows(w_mat, n, b)
        py = MatmulCircuit._product_rows_py
        want = py(circuit, x, w)
        calls = []
        monkeypatch.setattr(
            circuit, "_product_rows_py",
            lambda *args: calls.append(1) or py(circuit, *args),
        )
        assert circuit._product_rows(x, w) == want
        return bool(calls)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 8, 4), (16, 32, 16)])
    def test_int8_matches_the_loop(self, shape, monkeypatch):
        rng = random.Random(sum(shape))
        a, n, b = shape
        x = [[rng.randint(-128, 127) for _ in range(n)] for _ in range(a)]
        w = [[rng.randint(-128, 127) for _ in range(b)] for _ in range(n)]
        took_loop = self._check(MatmulCircuit(a, n, b), x, w, monkeypatch)
        assert took_loop == (not vector.HAVE_NUMPY)

    @pytest.mark.skipif(not vector.HAVE_NUMPY, reason="numpy not installed")
    def test_exactness_boundary(self, monkeypatch):
        """With n = 2 and |w| <= 1, max|x| = 2**62 - 1 keeps every sum
        below 2**63 (int64 lanes, including the most negative sums); one
        more crosses the bound and must take the Python loop."""
        circuit = MatmulCircuit(2, 2, 2)
        top = (1 << 62) - 1
        w = [[1, -1], [1, -1]]
        for x, loop in (
            ([[top, top], [-top, -top]], False),
            ([[top, -top], [top + 1, 5]], True),
            ([[-(top + 1), 0], [0, 0]], True),
        ):
            assert self._check(circuit, x, w, monkeypatch) == loop

    def test_field_elements_beyond_int64_take_the_loop(self, monkeypatch):
        circuit = MatmulCircuit(2, 3, 2)
        x = [[R - 1, R // 2, 1 << 100], [R // 2 + 1, 0, -(1 << 70)]]
        w = [[3, R - 5], [1 << 80, 7], [-2, 2]]
        assert self._check(circuit, x, w, monkeypatch)
