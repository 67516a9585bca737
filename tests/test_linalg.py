import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from amalgam.linalg import GRAM_LIMIT, operator_norm, restricted_sigma_max

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


def test_unconverged_solve_warns_and_stays_certified(monkeypatch):
    real_eigs = scipy.sparse.linalg.eigs
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigs",
        lambda *args, **kwargs: real_eigs(*args, **{**kwargs, "maxiter": 1}),
    )
    x = _tall(np.random.default_rng(3), 3 * GRAM_LIMIT)
    with pytest.warns(RuntimeWarning, match=r"\d+x192 operator did not converge"):
        sigma, v = restricted_sigma_max(x)
    assert sigma == np.linalg.norm(x @ v)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert sigma <= _svd_top(x) * (1 + RTOL)


@pytest.mark.parametrize("storage", [np.asarray, sparse.csr_matrix])
def test_operator_norm_matches_svd(storage):
    rng = np.random.default_rng(9)
    for x in (_tall(rng, 3 * GRAM_LIMIT), _wide(rng, 3 * GRAM_LIMIT),
              np.zeros((0, 4))):
        x = storage(x)
        ref = _svd_top(x)
        assert abs(operator_norm(x) - ref) <= RTOL * ref
    # small matrices take the exact SVD, sparse ones included
    for width in (12, GRAM_LIMIT + 1, 3 * GRAM_LIMIT):
        small = storage(_tall(rng, width))
        assert operator_norm(small) == _svd_top(small)


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
