import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import amalgam as am
from amalgam.errors import TruncationError
from amalgam.linalg import CSR, DEFAULT_SEED, restricted_sigma_max


@pytest.fixture(scope="session")
def two_point():
    return am.function_algebra_with_state(2)


@pytest.fixture(scope="session")
def m2_trace():
    return am.scalars_in_matn(2)


@pytest.fixture(scope="session")
def m2_diag():
    return am.diagonal_in_matn(2)


@pytest.fixture(scope="session")
def ctx_two2(two_point):
    """B = C, two two-point factors, truncated at level 4."""
    return am.build_fock(am.scalar_base(), {1: two_point, 2: two_point}, 4)


@pytest.fixture(scope="session")
def ctx_two3(two_point):
    """B = C, three two-point factors, truncated at level 5."""
    return am.build_fock(
        am.scalar_base(), {0: two_point, 1: two_point, 2: two_point}, 5
    )


@pytest.fixture(scope="session")
def ctx_m2diag(m2_diag):
    """Matrix factors over their diagonal: degenerate tensor Grams."""
    return am.build_fock(am.diagonal_base(2), {1: m2_diag, 2: m2_diag}, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_centered(spec, owner, rng):
    """A pseudo-random centered letter in the given algebra copy."""
    while True:
        coords = rng.standard_normal(spec.algebra.dim) + 1j * rng.standard_normal(
            spec.algebra.dim
        )
        letter = am.center(spec, coords, owner=owner)
        if spec.algebra.norm(letter.coords) > 1e-6:
            return letter


def sign_letter(owner):
    """The unit-norm centered symmetry diag(1, -1) of the two-point algebra."""
    spec = am.function_algebra_with_state(2)
    coords = spec.algebra.expand(np.diag([1.0, -1.0]))
    return am.CenteredElement(owner, np.asarray(coords, dtype=complex))


def cyclic(ctx, k):
    """The relabelling that moves each factor index k places along ctx.order,
    cyclically."""
    n = len(ctx.order)
    return {i: ctx.order[(p + k) % n] for p, i in enumerate(ctx.order)}


def pulled_back(ctx, y, mapping):
    """Y[perm][:, perm] for the coordinate map perm of a relabelling: the
    operator of the word whose relabelled copy has operator y, when the
    relabelling is a symmetry of the context."""
    perm = ctx.permutation(mapping)
    return csr_matrix(to_scipy(y)[perm][:, perm])


# scipy.sparse is the tests' oracle and converter; the package does not use it


def csr_matrix(a) -> CSR:
    """A dense array or a scipy.sparse matrix as a canonical ``CSR``."""
    m = sparse.csr_matrix(a)
    m.sum_duplicates()
    m.eliminate_zeros()
    return CSR(m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64), m.shape)


def to_scipy(x) -> sparse.csr_matrix:
    """A ``CSR``, or the matrix of a FockOperator, as a scipy.sparse CSR."""
    x = getattr(x, "matrix", x)
    return sparse.csr_matrix((x.data, x.indices, x.indptr), shape=x.shape)


def dense(x) -> np.ndarray:
    """A ``CSR``, a FockOperator, a scipy.sparse matrix or an array, dense."""
    x = getattr(x, "matrix", x)
    if isinstance(x, CSR):
        x = to_scipy(x)
    return x.toarray() if sparse.issparse(x) else np.asarray(x)


def assert_same_csr(a, b):
    """The same canonical CSR arrays: equal bit for bit."""
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def spectral_norm(x) -> float:
    """Exact operator norm by a dense SVD, an oracle for norm values; residual
    checks use the Frobenius upper bound instead."""
    d = dense(x)
    return float(np.linalg.svd(d, compute_uv=False)[0]) if d.size else 0.0


def block_lower(ctx, x, spread, m, r, seed=DEFAULT_SEED) -> float:
    """Largest singular value of P_r x P_m on the exact domain of level m, by
    the package's solver on that one block: the reference for the direct sum
    of blocks that ``words.worst_block_lower`` solves at once."""
    if m + spread > ctx.max_level:
        raise TruncationError("block outside the exact domain")
    start, end = ctx.level_range(m)
    rs, re = ctx.level_range(r)
    sigma, _ = restricted_sigma_max(x.matrix[rs:re, start:end], seed=seed)
    return float(sigma)


def load_bench_tracer():
    """The benchmark's tracer module, loaded from bench/tracer.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer
