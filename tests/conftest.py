import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import amalgam as am


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
    return y.matrix[perm][:, perm]


def assert_same_csr(a, b):
    """The same CSR arrays after sorting the indices: equal bit for bit."""
    a, b = a.sorted_indices(), b.sorted_indices()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def spectral_norm(x) -> float:
    """Exact operator norm by a dense SVD, an oracle for norm values; residual
    checks use the Frobenius upper bound instead."""
    matrix = getattr(x, "matrix", x)
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
    return float(np.linalg.svd(dense, compute_uv=False)[0]) if dense.size else 0.0


def load_bench_tracer():
    """The benchmark's tracer module, loaded from bench/tracer.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer
