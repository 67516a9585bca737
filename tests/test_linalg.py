import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import amalgam.linalg
from amalgam.linalg import CSR, GRAM_LIMIT, frobenius, restricted_sigma_max
from conftest import csr_matrix, dense

RTOL = 1e-12


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _tall(rng, n):
    return _complex(rng, 2 * n + 3, n)


def _wide(rng, n):
    return _complex(rng, max(n // 4, 1), n)


def _rank_one(rng, n):
    return _complex(rng, n + 5, 1) @ _complex(rng, 1, n)


def _identity(rng, n):
    return np.eye(n, dtype=complex)


def _zero(rng, n):
    return np.zeros((n + 2, n), dtype=complex)


SHAPES = [_tall, _wide, _rank_one, _identity, _zero]
# 0 and 1 columns, a block on the exact Gram path and one on the Lanczos path
WIDTHS = [0, 1, 12, 3 * GRAM_LIMIT]


def _svd_top(x) -> float:
    s = np.linalg.svd(dense(x), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _check_certified(x, sigma, v):
    ref = _svd_top(x)
    assert abs(sigma - ref) <= RTOL * ref
    assert sigma == np.linalg.norm(x @ v)
    if x.shape[1]:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@pytest.mark.parametrize("storage", [np.asarray, csr_matrix])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__.strip("_"))
def test_sigma_max_matches_svd_and_repeats_bit_for_bit(shape, width, storage):
    x = storage(shape(np.random.default_rng(width), width))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, v = restricted_sigma_max(x, seed=11)
        again, v_again = restricted_sigma_max(x, seed=11)
    _check_certified(x, sigma, v)
    assert sigma == again
    assert np.array_equal(v, v_again)


def _real(rng, rows, cols):
    return rng.standard_normal((rows, cols))


@pytest.mark.parametrize("entries", [_complex, _real], ids=["complex", "real"])
def test_unconverged_solve_warns_and_stays_certified(monkeypatch, entries):
    # no restart allowed: the solve stops after its first Krylov basis
    monkeypatch.setattr(amalgam.linalg, "LANCZOS_RESTARTS_PER_DIM", 0)
    n = 3 * GRAM_LIMIT
    x = entries(np.random.default_rng(3), 2 * n + 3, n)
    with pytest.warns(RuntimeWarning, match=r"\d+x192 operator did not converge after "
                      r"0 restarts \(relative Ritz residual [0-9.e+-]+\)"):
        sigma, v = restricted_sigma_max(x)
    assert sigma == np.linalg.norm(x @ v)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert sigma <= _svd_top(x) * (1 + RTOL)


# real operators, as float64 and as complex with a zero imaginary part, run
# Lanczos on n real coordinates; complex ones on 2n
LANCZOS_CASES = {
    "float64": (_real, 1),
    "zero-imaginary": (lambda rng, rows, cols: _real(rng, rows, cols).astype(complex), 1),
    "complex": (_complex, 2),
}


@pytest.mark.parametrize("storage", [np.asarray, csr_matrix])
@pytest.mark.parametrize("case", LANCZOS_CASES)
def test_lanczos_runs_real_operators_in_real_arithmetic(monkeypatch, case, storage):
    entries, factor = LANCZOS_CASES[case]
    n = 3 * GRAM_LIMIT
    x = storage(entries(np.random.default_rng(4), 2 * n + 3, n))  # dense: one component
    sizes, images = [], []
    real_lanczos = amalgam.linalg._thick_restart_lanczos

    def spy(gram, start, rng):
        sizes.append(start.size)

        def recorded(u):
            image = gram(u)
            images.append(image.dtype)
            return image

        return real_lanczos(recorded, start, rng)

    monkeypatch.setattr(amalgam.linalg, "_thick_restart_lanczos", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, v = restricted_sigma_max(x, seed=5)
        again, v_again = restricted_sigma_max(x, seed=5)
    assert sizes == [factor * n, factor * n]
    assert images and set(images) == {np.dtype(float)}
    assert v.dtype == complex
    _check_certified(x, sigma, v)
    assert sigma == again
    assert np.array_equal(v, v_again)


@pytest.mark.parametrize("storage", [np.asarray, csr_matrix])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__.strip("_"))
def test_frobenius_is_an_upper_bound(shape, storage):
    rng = np.random.default_rng(9)
    for width in WIDTHS:
        x = storage(shape(rng, width))
        value = frobenius(x)
        assert abs(value - np.linalg.norm(dense(x))) <= RTOL * value
        assert value >= _svd_top(x) * (1 - RTOL)
        if shape is _rank_one and width:  # one singular value: they agree
            assert abs(value - _svd_top(x)) <= RTOL * value


def test_frobenius_sums_duplicate_entries():
    # the entry (0, 1) given twice is stored once: 3 + 4 = 7, not
    # sqrt(3^2 + 4^2) = 5; a sum of 0 is not stored
    x = CSR.from_coo([0, 0, 1, 1, 1], [1, 1, 0, 1, 1], np.array([3.0, 4.0, 1j, 2.0, -2.0]),
                     (2, 2))
    assert x.nnz == 2 and np.array_equal(x.data, [7.0, 1j])
    assert frobenius(x) == np.linalg.norm(dense(x)) == np.sqrt(50.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 160),
    cols=st.integers(1, 160),
    density=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_property(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    x = sparse.random(rows, cols, density=density, format="csr", rng=rng,
                      dtype=complex)
    x.data = rng.standard_normal(x.nnz) + 1j * rng.standard_normal(x.nnz)
    x = csr_matrix(x)
    sigma, v = restricted_sigma_max(x, seed=seed)
    _check_certified(x, sigma, v)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, GRAM_LIMIT), st.booleans()),
        min_size=1, max_size=10,
    ),
    zero_cols=st.integers(0, 5),
    tie=st.booleans(),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_direct_sum_property(blocks, zero_cols, tie, wide, seed):
    # a direct sum of dense (so connected) blocks, purely imaginary ones among
    # them, with zero columns, an exact copy of one block and, when ``wide``,
    # one block too wide for the exact solve; then rows and columns shuffled
    rng = np.random.default_rng(seed)
    parts = [1j * rng.standard_normal((rows, cols)) if imaginary
             else _complex(rng, rows, cols) for rows, cols, imaginary in blocks]
    if tie:
        parts.append(parts[0])
    if wide:
        parts.append(_complex(rng, 3, GRAM_LIMIT + 1))
    parts.append(np.zeros((0, zero_cols)))
    x = sparse.block_diag(parts, format="csr")
    x = csr_matrix(x[rng.permutation(x.shape[0])][:, rng.permutation(x.shape[1])])
    lanczos = mock.patch.object(amalgam.linalg, "_lanczos_witness",
                                wraps=amalgam.linalg._lanczos_witness)
    with lanczos as spy, warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, v = restricted_sigma_max(x, seed=seed)
        again, v_again = restricted_sigma_max(x, seed=seed)
    assert spy.called == wide  # only a component wider than GRAM_LIMIT needs it
    _check_certified(x, sigma, v)
    assert sigma == again
    assert np.array_equal(v, v_again)


def test_split_tie_goes_to_the_first_component():
    # 40 copies of one integer block, whose Gram blocks are equal bit for bit;
    # copy j holds columns j and j + 40, and the rows are shuffled
    copies = 40
    block = np.array([[1, 2j], [0, 1], [3, 0]])
    x = sparse.block_diag([block] * copies, format="csr")
    cols = np.arange(2 * copies).reshape(copies, 2).T.ravel()
    x = csr_matrix(x[np.random.default_rng(2).permutation(x.shape[0])][:, cols])
    sigma, v = restricted_sigma_max(x)
    _check_certified(x, sigma, v)
    assert np.array_equal(np.flatnonzero(v), [0, copies])


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("wide", [False, True], ids=["gram", "lanczos"])
def test_empty_rows_leave_the_solve_unchanged(wide, real):
    # an operator of width > GRAM_LIMIT with empty rows woven between the rows
    # of ``packed`` solves to the witness of ``packed``, bit for bit. Its value
    # is ||x v|| on the caller's matrix, which is left as it was; the zeros of
    # x v regroup the norm's sum, so it may differ from the value on
    # ``packed`` in the last bits
    rng = np.random.default_rng(11)
    draw = rng.standard_normal if real else (lambda shape: _complex(rng, *shape))
    parts = [draw((3, 5)) for _ in range(20)]  # 100 columns in components of 5
    if wide:
        parts.append(draw((4, GRAM_LIMIT + 1)))
    packed = csr_matrix(sparse.block_diag(parts, format="csr"))
    m, n = packed.shape
    counts = np.zeros(3 * m, dtype=packed.indptr.dtype)
    counts[np.sort(rng.choice(3 * m, m, replace=False))] = np.diff(packed.indptr)
    x = CSR(packed.data.copy(), packed.indices.copy(), np.concatenate([[0], np.cumsum(counts)]),
            (3 * m, n))
    before = [a.copy() for a in (x.data, x.indices, x.indptr)]
    lanczos = mock.patch.object(amalgam.linalg, "_lanczos_witness",
                                wraps=amalgam.linalg._lanczos_witness)
    with lanczos as spy:
        sigma, v = restricted_sigma_max(x, seed=3)
    assert spy.called == wide
    assert spy.call_args is None or spy.call_args.args[0].shape == (m, n)
    packed_sigma, packed_v = restricted_sigma_max(packed, seed=3)
    assert np.array_equal(v, packed_v)
    assert sigma == np.linalg.norm(x @ v)
    assert abs(sigma - packed_sigma) <= 4 * np.finfo(float).eps * packed_sigma
    for was, now in zip(before, (x.data, x.indices, x.indptr)):
        assert np.array_equal(was, now)
    rows = amalgam.linalg._nonempty_rows(x)
    assert np.shares_memory(rows.data, x.data)
    assert np.shares_memory(rows.indices, x.indices)
    assert np.array_equal(rows.indptr, packed.indptr)


# ---------------------------------------------------------------------------
# the CSR type against scipy.sparse, entry for entry
# ---------------------------------------------------------------------------


def _draw(rng, rows, cols, density, is_complex):
    """A dense operand with empty rows and columns woven in."""
    a = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
    if is_complex:
        a = a + 1j * rng.standard_normal((rows, cols)) * (a != 0)
    a[rng.random(rows) < 0.3] = 0.0
    a[:, rng.random(cols) < 0.3] = 0.0
    return a


def _same(got, want):
    """got (a CSR) holds scipy's canonical arrays of want."""
    want = want.tocsr()
    want.sum_duplicates()
    want.eliminate_zeros()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=150, deadline=None)
@given(
    dims=st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    density=st.floats(0.0, 1.0),
    kinds=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_csr_matches_scipy_bit_for_bit(dims, density, kinds, seed):
    # products, sums, adjoints and blocks of operands of any mix of real and
    # complex entries; scipy forms each complex product in the four-multiply
    # form and each sum in stored order, and so does CSR
    rng = np.random.default_rng(seed)
    m, k, n = dims
    a, b, c = (_draw(rng, *shape, density, is_complex)
               for shape, is_complex in zip([(m, k), (k, n), (m, k)], kinds))
    x, y, z = csr_matrix(a), csr_matrix(b), csr_matrix(c)
    xs, ys, zs = (sparse.csr_matrix(d) for d in (a, b, c))
    _same(x @ y, xs @ ys)
    _same(x + z, xs + zs)
    _same(x - z, xs - zs)
    _same(amalgam.linalg.adjoint(x), xs.conj().T)
    _same(x.conj(), xs.conj())
    _same(2.5j * x, 2.5j * xs)
    for v in (_draw(rng, k, 1, 1.0, kinds[1])[:, 0], _draw(rng, k, 3, 1.0, kinds[1])):
        got, want = x @ v, xs @ v
        assert got.dtype == want.dtype and np.array_equal(got, want)
    r0, r1 = sorted(rng.integers(0, m + 1, 2))
    c0, c1 = sorted(rng.integers(0, k + 1, 2))
    _same(x[r0:r1, c0:c1], xs[r0:r1, c0:c1])
    _same(x[:, c0:], xs[:, c0:])
    # the COO build with positions given twice; small integers add exactly
    # in any order, so scipy's order of duplicates does not matter
    count = int(rng.integers(0, 3 * (m * k + 1)))
    rows, cols = rng.integers(0, max(m, 1), count), rng.integers(0, max(k, 1), count)
    values = rng.integers(-3, 4, count) + (1j * rng.integers(-3, 4, count) if kinds[0] else 0)
    if m and k:
        _same(CSR.from_coo(rows, cols, values, (m, k)),
              sparse.coo_matrix((values, (rows, cols)), shape=(m, k)))


# ---------------------------------------------------------------------------
# component labels against scipy's csgraph, which the package does not import
# ---------------------------------------------------------------------------


def _csgraph_components(x):
    from scipy.sparse.csgraph import connected_components

    m, n = x.shape
    indptr = np.concatenate([np.zeros(n, dtype=x.indptr.dtype), x.indptr])
    graph = sparse.csr_matrix((np.ones(x.indices.size, dtype=bool), x.indices, indptr),
                              shape=(n + m, n + m))
    _, labels = connected_components(graph, directed=False)
    _, first, labels = np.unique(labels[:n], return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    return None if np.bincount(labels).max() > GRAM_LIMIT else labels


def _check_labels(x):
    got, want = amalgam.linalg._column_components(x), _csgraph_components(x)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
    return got


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 120),
    cols=st.integers(1, 300),
    density=st.floats(0.0, 0.05),
    empty_rows=st.integers(0, 20),
    empty_cols=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_components_match_csgraph(rows, cols, density, empty_rows, empty_cols, seed):
    # sparse random patterns, with empty rows and empty columns woven in
    rng = np.random.default_rng(seed)
    x = sparse.random(rows, cols, density=density, format="lil", rng=rng)
    x[rng.choice(rows, min(empty_rows, rows), replace=False)] = 0
    x[:, rng.choice(cols, min(empty_cols, cols), replace=False)] = 0
    _check_labels(x.tocsr())


def _paths(count, width, rng):
    # ``count`` paths of ``width`` columns each, row k joining two neighbours,
    # with the columns and rows permuted
    starts = np.arange(count)[:, None] * width + np.arange(width - 1)
    left = starts.ravel()
    cols = np.column_stack([left, left + 1]).ravel()
    indptr = np.arange(0, cols.size + 1, 2)
    x = sparse.csr_matrix((np.ones(cols.size), cols, indptr), shape=(left.size, count * width))
    return x[rng.permutation(x.shape[0])][:, rng.permutation(x.shape[1])]


@settings(max_examples=10, deadline=None)
@given(count=st.integers(1, 6), width=st.sampled_from([GRAM_LIMIT, GRAM_LIMIT + 1]),
       seed=st.integers(0, 2**32 - 1))
def test_column_components_none_exactly_above_the_gram_limit(count, width, seed):
    labels = _check_labels(_paths(count, width, np.random.default_rng(seed)))
    assert (labels is None) == (width > GRAM_LIMIT)


def test_column_components_on_many_permuted_paths():
    # 512,000 columns whose labels are far from their first columns
    x = _paths(8000, GRAM_LIMIT, np.random.default_rng(8))
    labels = _check_labels(x)
    assert np.array_equal(np.bincount(labels), np.full(8000, GRAM_LIMIT))


# ---------------------------------------------------------------------------
# Lanczos against closed forms and the SVD
# ---------------------------------------------------------------------------


def _lanczos_sigma(x, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = amalgam.linalg._lanczos_witness(csr_matrix(x), seed)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    return float(np.linalg.norm(x @ v))


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)], ids=["real", "complex"])
def test_lanczos_on_the_bidiagonal_reaches_its_closed_form(phase):
    # ones on the diagonal and the superdiagonal of a 999 x 1000 matrix; its
    # norm 2 cos(pi / 2000) has a relative spectral gap of about 3e-6
    n = 1000
    x = phase * sparse.diags([np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    exact = 2 * np.cos(np.pi / (2 * n))
    assert abs(_lanczos_sigma(x) - exact) <= RTOL * exact


@pytest.mark.parametrize("entries", [_complex, _real], ids=["complex", "real"])
@pytest.mark.parametrize("cols", [1, 2, 7, 10, 20, 21])
def test_lanczos_on_small_operators_matches_svd(entries, cols):
    # dimensions at and below the 20-vector basis, where it spans the space
    x = entries(np.random.default_rng(cols), 3 * cols, cols)
    ref = _svd_top(x)
    assert abs(_lanczos_sigma(x, seed=cols) - ref) <= RTOL * ref


@pytest.mark.parametrize("scale", [1.0, 1j], ids=["real", "complex"])
def test_lanczos_on_the_identity_stops_at_its_invariant_space(scale):
    # the start vector is an eigenvector: the first step leaves nothing to add
    assert abs(_lanczos_sigma(scale * sparse.identity(100, format="csr")) - 1.0) <= 1e-15


def test_solver_runs_import_no_scipy_solver_modules(tmp_path):
    # all 11 presets, whose solves label components and run Lanczos, in a
    # fresh process that counts those calls; scipy is the tests' oracle and
    # the package loads no part of it
    script = """
import json, sys
import amalgam.cli, amalgam.linalg as la
calls = {"_column_components": 0, "_lanczos_witness": 0}
for name in calls:
    def counted(*args, _name=name, _f=getattr(la, name)):
        calls[_name] += 1
        return _f(*args)
    setattr(la, name, counted)
codes = [amalgam.cli.main(["run", name, "--out", sys.argv[1]]) for name in amalgam.cli.PRESETS]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "calls": calls, "loaded": loaded}))
"""
    src = Path(amalgam.linalg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * 11
    assert report["calls"]["_column_components"] and report["calls"]["_lanczos_witness"]
    assert report["loaded"] == []
