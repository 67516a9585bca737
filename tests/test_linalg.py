import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import amalgam.linalg
from amalgam.linalg import GRAM_LIMIT, frobenius, restricted_sigma_max

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
    dense = x.toarray() if sparse.issparse(x) else x
    s = np.linalg.svd(dense, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _check_certified(x, sigma, v):
    ref = _svd_top(x)
    assert abs(sigma - ref) <= RTOL * ref
    assert sigma == np.linalg.norm(x @ v)
    if x.shape[1]:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@pytest.mark.parametrize("storage", [np.asarray, sparse.csr_matrix])
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
    real_eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigsh",
        lambda *args, **kwargs: real_eigsh(*args, **{**kwargs, "maxiter": 1}),
    )
    n = 3 * GRAM_LIMIT
    x = entries(np.random.default_rng(3), 2 * n + 3, n)
    with pytest.warns(RuntimeWarning, match=r"\d+x192 operator did not converge"):
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


@pytest.mark.parametrize("storage", [np.asarray, sparse.csr_matrix])
@pytest.mark.parametrize("case", LANCZOS_CASES)
def test_lanczos_runs_real_operators_in_real_arithmetic(monkeypatch, case, storage):
    entries, factor = LANCZOS_CASES[case]
    n = 3 * GRAM_LIMIT
    x = storage(entries(np.random.default_rng(4), 2 * n + 3, n))  # dense: one component
    sizes = []
    real_eigsh = scipy.sparse.linalg.eigsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_eigsh(a, *args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("eigs ran")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, v = restricted_sigma_max(x, seed=5)
        again, v_again = restricted_sigma_max(x, seed=5)
    assert sizes == [factor * n, factor * n]
    assert v.dtype == complex
    _check_certified(x, sigma, v)
    assert sigma == again
    assert np.array_equal(v, v_again)


@pytest.mark.parametrize("storage", [np.asarray, sparse.csr_matrix])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__.strip("_"))
def test_frobenius_is_an_upper_bound(shape, storage):
    rng = np.random.default_rng(9)
    for width in WIDTHS:
        x = storage(shape(rng, width))
        dense = x.toarray() if sparse.issparse(x) else x
        value = frobenius(x)
        assert abs(value - np.linalg.norm(dense)) <= RTOL * value
        assert value >= _svd_top(x) * (1 - RTOL)
        if shape is _rank_one and width:  # one singular value: they agree
            assert abs(value - _svd_top(x)) <= RTOL * value


def test_frobenius_sums_duplicate_entries():
    # row 0 stores the entry (0, 1) twice: 3 + 4 = 7, not sqrt(3^2 + 4^2) = 5
    x = sparse.csr_matrix((np.array([3.0, 4.0, 1j]), np.array([1, 1, 0]),
                           np.array([0, 2, 3])), shape=(2, 2))
    assert not x.has_canonical_format
    assert frobenius(x) == np.linalg.norm(x.toarray()) == np.sqrt(50.0)
    assert frobenius(x.tocoo()) == np.sqrt(50.0)
    assert x.nnz == 3  # the caller's matrix is left as it was


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
    x = x[rng.permutation(x.shape[0])][:, rng.permutation(x.shape[1])]
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
    x = x[np.random.default_rng(2).permutation(x.shape[0])][:, cols]
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
    packed = sparse.block_diag(parts, format="csr")
    m, n = packed.shape
    counts = np.zeros(3 * m, dtype=packed.indptr.dtype)
    counts[np.sort(rng.choice(3 * m, m, replace=False))] = np.diff(packed.indptr)
    x = sparse.csr_matrix((packed.data.copy(), packed.indices.copy(),
                           np.concatenate([[0], np.cumsum(counts)])), shape=(3 * m, n))
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
