from functools import partial

import numpy as np
import pytest

import amalgam as am
from amalgam.cli import FACTOR_CONFIGS
from amalgam.errors import StructureError
from amalgam.gns import ModuleVector, build_gns, inner_product, module_norm
from amalgam.linalg import rank_from_spectrum


def a11_expectation():
    E = np.eye(2)
    a = am.star_algebra(
        [np.outer(E[i], E[j]) for i in range(2) for j in range(2)]
    )
    b = am.star_algebra([np.eye(2)])
    return am.AlgebraWithExpectation(a, b, np.array([[1.0, 0, 0, 0]], dtype=complex))


def complex_state():
    """M_2 over the scalars with the state tr(rho a), where rho has complex
    off-diagonal entries: the scalar Gram and the carrier are complex."""
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    spec = am.scalars_in_matn(2)
    exp = np.array([[np.trace(rho @ m) for m in spec.algebra.basis]])
    return am.AlgebraWithExpectation(spec.algebra, spec.subalgebra, exp)


def skew_basis():
    """M_2 over its diagonal in the basis (E11, E22, X, E12): E12* = X - E12,
    so neither adjoints nor products permute the basis."""
    E = np.eye(2)
    x, e12 = np.outer(E[0], E[1]) + np.outer(E[1], E[0]), np.outer(E[0], E[1])
    a = am.star_algebra([np.diag(E[0]), np.diag(E[1]), x, e12])
    b = am.diagonal_base(2)
    return am.AlgebraWithExpectation(a, b, np.eye(2, 4, dtype=complex))


@pytest.mark.parametrize("make", [
    partial(am.function_algebra_with_state, 2), partial(am.diagonal_in_matn, 2),
    a11_expectation, complex_state, skew_basis,
], ids=["two_point", "m2_diag", "a11", "complex_state", "skew_basis"])
def test_actions_and_inner_products_of_hats_are_products(make, rng):
    # oracles from ambient matrix products: left_action(a) hat(x) = hat(a x)
    # and <hat x, hat y> = phi(x* y)
    spec = make()
    mod, alg = build_gns(spec), spec.algebra
    for _ in range(10):
        a, x, y = (rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
                   for _ in range(3))
        ma, mx, my = alg.matrix(a), alg.matrix(x), alg.matrix(y)
        np.testing.assert_allclose(mod.left_action(a) @ mod.hat(x),
                                   mod.hat(alg.expand(ma @ mx)), atol=1e-10)
        hx, hy = ModuleVector(mod, mod.hat(x)), ModuleVector(mod, mod.hat(y))
        np.testing.assert_allclose(inner_product(mod, hx, hy),
                                   spec.apply(alg.expand(mx.conj().T @ my)), atol=1e-10)


def test_faithful_trace_has_no_separation(m2_trace):
    mod = build_gns(m2_trace)
    assert mod.carrier_dim == 4
    assert mod.e_dim == 3


def test_two_point_carrier_dimension(two_point):
    # Oracle: the scalarized Gram of the basis {p_1, p_2} under the uniform
    # state is diag(1/2, 1/2), computed by hand. Rank 2, so no separation,
    # and E_deg is one-dimensional.
    oracle = np.diag([0.5, 0.5])
    mod = build_gns(two_point)
    np.testing.assert_allclose(mod.scalar_gram, oracle, atol=1e-12)
    assert mod.carrier_dim == rank_from_spectrum(np.linalg.eigvalsh(oracle)) == 2
    assert mod.e_dim == 1


def test_a11_expectation_separates():
    # Oracle: Gram in the basis (e11, e12, e21, e22) is diag(1, 0, 1, 0);
    # each entry is (x* y)_{11}, worked out by hand.
    oracle = np.diag([1.0, 0.0, 1.0, 0.0])
    mod = build_gns(a11_expectation())
    np.testing.assert_allclose(mod.scalar_gram, oracle, atol=1e-12)
    assert mod.carrier_dim == 2


def test_hat_kernel_matches_gram_nullspace():
    mod = build_gns(a11_expectation())
    evals = np.linalg.eigvalsh(mod.scalar_gram)
    null_dim = mod.spec.algebra.dim - rank_from_spectrum(np.clip(evals, 0, None))
    svals = np.linalg.svd(mod.hat_matrix, compute_uv=False)
    assert mod.spec.algebra.dim - rank_from_spectrum(svals) == null_dim


def test_hat_preserves_inner_product(m2_trace, rng):
    mod = build_gns(m2_trace)
    spec = m2_trace
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = inner_product(mod, ModuleVector(mod, mod.hat(x)), ModuleVector(mod, mod.hat(y)))
        mx, my = spec.algebra.matrix(x), spec.algebra.matrix(y)
        rhs = spec.apply(spec.algebra.expand(mx.conj().T @ my))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_unit_splitting_formula(m2_diag, rng):
    # H(hat a) = hat(a - phi(a)) for random a.
    mod = build_gns(m2_diag)
    h = mod.e_basis @ mod.e_basis.conj().T
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        centered = am.center(m2_diag, a).coords
        np.testing.assert_allclose(h @ mod.hat(a), mod.hat(centered), atol=1e-10)


def test_split_projections_are_orthogonal(two_point, m2_diag, m2_trace):
    for spec in (two_point, m2_diag, m2_trace):
        mod = build_gns(spec)
        p_b = mod.b_summand @ mod.b_summand.conj().T
        h = mod.e_basis @ mod.e_basis.conj().T
        np.testing.assert_allclose(p_b + h, np.eye(mod.carrier_dim), atol=1e-12)
        np.testing.assert_allclose(h @ h, h, atol=1e-12)
        np.testing.assert_allclose(h.conj().T, h, atol=1e-12)


def test_unit_hat_is_killed_by_h(m2_trace):
    mod = build_gns(m2_trace)
    h = mod.e_basis @ mod.e_basis.conj().T
    assert np.linalg.norm(h @ mod.hat(m2_trace.algebra.unit_coords)) < 1e-12


def test_split_on_diagonal_expectation(m2_diag):
    mod = build_gns(m2_diag)
    h = mod.e_basis @ mod.e_basis.conj().T
    e12 = m2_diag.algebra.expand(np.outer(np.eye(2)[0], np.eye(2)[1]))
    e11 = m2_diag.algebra.expand(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(h @ mod.hat(e12), mod.hat(e12), atol=1e-12)
    assert np.linalg.norm(h @ mod.hat(e11)) < 1e-12


def test_inner_product_values(m2_trace):
    mod = build_gns(m2_trace)
    one = ModuleVector(mod, mod.hat(m2_trace.algebra.unit_coords))
    np.testing.assert_allclose(
        inner_product(mod, one, one), m2_trace.subalgebra.unit_coords, atol=1e-12
    )
    e12 = m2_trace.algebra.expand(np.outer(np.eye(2)[0], np.eye(2)[1]))
    x = ModuleVector(mod, mod.hat(e12))
    np.testing.assert_allclose(inner_product(mod, x, x), [0.5], atol=1e-12)


def test_gram_is_hermitian(m2_diag, rng):
    mod = build_gns(m2_diag)
    for _ in range(10):
        x = ModuleVector(mod, rng.standard_normal(mod.carrier_dim))
        y = ModuleVector(mod, rng.standard_normal(mod.carrier_dim))
        lhs = mod.spec.subalgebra.matrix(inner_product(mod, x, y))
        rhs = mod.spec.subalgebra.matrix(inner_product(mod, y, x))
        np.testing.assert_allclose(lhs.conj().T, rhs, atol=1e-10)


def test_module_norm_positive(two_point):
    mod = build_gns(two_point)
    v = ModuleVector(mod, np.ones(mod.carrier_dim))
    sq = inner_product(mod, v, v)
    evals = np.linalg.eigvalsh(mod.spec.subalgebra.matrix(sq))
    assert evals.min() >= -1e-12
    assert module_norm(mod, v) > 0


@pytest.mark.parametrize("make", [*(f for _, f, _ in FACTOR_CONFIGS.values()),
                                  partial(am.diagonal_in_matn, 3)],
                         ids=[*FACTOR_CONFIGS, "m3-diag"])
def test_left_b_is_the_slot_action_of_the_inclusion(make):
    spec = make()
    mod = build_gns(spec)
    assert mod.left_b.shape == (spec.subalgebra.dim, mod.e_dim, mod.e_dim)
    for j in range(spec.subalgebra.dim):
        assert np.abs(mod.left_b[j] - mod.rho_slot(spec.inclusion[:, j])).max() <= 1e-14


def test_mismatched_modules_rejected(two_point, m2_trace):
    mod1, mod2 = build_gns(two_point), build_gns(m2_trace)
    with pytest.raises(StructureError):
        inner_product(mod1, ModuleVector(mod1, np.ones(2)), ModuleVector(mod2, np.ones(4)))

