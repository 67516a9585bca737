import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import amalgam as am
from amalgam.errors import TruncationError
from amalgam.fock import FockOperator
from amalgam.linalg import (CSR, DEFAULT_SEED, gram_quotient, hermitian_part,
                            restricted_sigma_max)
from amalgam.words import _chain, _check_letters, _ladder_factors


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


@pytest.fixture(scope="session")
def ctx_m3diag():
    """M_3 over its diagonal D_3, three copies truncated at level 3: a
    nontrivial B whose interior tensor products drop rank at every level."""
    return am.build_fock(am.diagonal_base(3), dict.fromkeys(range(3), am.diagonal_in_matn(3)), 3)


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


def block_decomposition(ctx, w, m, r) -> FockOperator:
    """P_r w P_m written with creation, diagonal and annihilation factors only:
    the chain of level difference m + n - r times P_m, and zero for r outside
    [|m - n|, m + n], where n is the word length. Requires m + n <= M so
    truncation cannot alter either side. The one-block reference for the
    residuals of ``words.ladder_identity_residuals``.
    """
    n = w.length
    if m + n > ctx.max_level:
        raise TruncationError(
            f"m + n = {m + n} exceeds the truncation level {ctx.max_level}; "
            "the identity is not exact there"
        )
    if not (0 <= m <= ctx.max_level and 0 <= r <= ctx.max_level):
        raise TruncationError("block levels outside the context")
    _check_letters(ctx, w)
    if not abs(m - n) <= r <= m + n:
        return ctx.zero()
    chain = _chain(_ladder_factors(ctx, [w]), m + n - r)
    return FockOperator(ctx, chain) @ ctx.level_projection(m)


def product_space_rank(ctx, seq) -> int:
    """Rank of the Gram of a summand in product-space coordinates
    E_{i_1}deg (x) ... (x) E_{i_m}deg (x) C^nb (B (x) C^nb at level 0), folded
    slot by slot from the left: a reference for the ranks of the quotients,
    which ``fock`` builds each on the quotient of the rest instead."""
    base = ctx.base
    if not seq:  # coords of b_j* b_k
        r = np.tensordot(base.adj, base.mult, axes=(0, 0))
    else:
        r = ctx.factors[seq[0]].bip_e
        for i in seq[1:]:
            f = ctx.factors[i]
            # kmat[s, t, d, c]: coordinate d of <e_s, b_c e_t>_B
            kmat = np.einsum("sud,cut->stdc", f.bip_e, f.left_b)
            r = np.einsum("stdc,pqc->psqtd", kmat, r)
            p = r.shape[0] * r.shape[1]
            r = r.reshape(p, p, base.dim)
    g = np.einsum("pqd,dtu->ptqu", r, base.basis)
    p = r.shape[0] * base.ambient_dim
    return gram_quotient(hermitian_part(g.reshape(p, p)))[0].shape[1]


def load_bench_tracer():
    """The benchmark's tracer module, loaded from bench/tracer.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer
