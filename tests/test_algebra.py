import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam as am
from amalgam.algebra import algebra_from_json
from amalgam.errors import ConfigError, StructureError

E = np.eye(2)


def unit(i, j):
    return np.outer(E[i], E[j])


def a11_expectation():
    """phi(a) = a_11 times the identity, onto the scalars inside M_2."""
    a = am.star_algebra([unit(i, j) for i in range(2) for j in range(2)])
    b = am.star_algebra([np.eye(2)])
    exp = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)
    return am.AlgebraWithExpectation(a, b, exp)


def test_trace_preset_validates(m2_trace):
    report = am.validate_expectation(m2_trace)
    assert report.passed
    for check in report.checks:
        assert check.residual < 1e-12


def test_diagonal_preset_validates(m2_diag):
    assert am.validate_expectation(m2_diag).passed


def test_two_point_preset_validates(two_point):
    assert am.validate_expectation(two_point).passed


def test_a11_expectation_validates():
    # bimodule and idempotence hold, and nondegeneracy finds witnesses:
    # for a = e22 the element x = e21 gives phi(x* a* a x) = 1.
    report = am.validate_expectation(a11_expectation())
    assert report["bimodule"].passed
    assert report["idempotence"].passed
    assert report["nondegeneracy"].passed


def test_trace_applied_to_matrix(m2_trace):
    mat = np.array([[1, 2], [3, 4]], dtype=complex)
    out = m2_trace.apply(m2_trace.algebra.expand(mat))
    np.testing.assert_allclose(out, [2.5])


def test_diagonal_expectation_deletes_entries(m2_diag):
    mat = m2_diag.apply_matrix(np.array([[1, 2], [3, 4]], dtype=complex))
    np.testing.assert_allclose(mat, np.diag([1.0, 4.0]))


def test_expectation_fixes_unit(m2_trace):
    out = m2_trace.apply(m2_trace.algebra.unit_coords)
    np.testing.assert_allclose(out, m2_trace.subalgebra.unit_coords)


def test_center_of_subalgebra_element_is_zero(m2_diag):
    coords = m2_diag.sub_to_full(np.array([2.0, -1.0]))
    c = am.center(m2_diag, coords)
    assert m2_diag.algebra.norm(c.coords) < 1e-12


def test_center_fixes_offdiagonal(m2_diag):
    c = am.center(m2_diag, unit(0, 1))
    np.testing.assert_allclose(m2_diag.algebra.matrix(c.coords), unit(0, 1))


def test_center_subtracts_trace(m2_trace):
    c = am.center(m2_trace, np.array([[1, 2], [3, 4]], dtype=complex))
    np.testing.assert_allclose(
        m2_trace.algebra.matrix(c.coords), np.array([[-1.5, 2], [3, 1.5]])
    )


def test_center_plus_expectation_recovers(m2_trace, rng):
    coords = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = am.center(m2_trace, coords)
    back = c.coords + m2_trace.sub_to_full(m2_trace.apply(coords))
    np.testing.assert_allclose(back, coords)


def test_expectation_is_contractive(m2_trace, m2_diag, rng):
    for spec in (m2_trace, m2_diag):
        for _ in range(50):
            coords = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert spec.subalgebra.norm(spec.apply(coords)) <= spec.algebra.norm(
                coords
            ) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    re=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    im=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_adjoint_compatibility_property(re, im):
    spec = am.scalars_in_matn(2)
    coords = np.array(re) + 1j * np.array(im)
    lhs = spec.apply(spec.algebra.adjoint_coords(coords))
    rhs = spec.subalgebra.adjoint_coords(spec.apply(coords))
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_outside_span_rejected(m2_diag):
    fns = am.function_algebra_with_state(2)
    with pytest.raises(StructureError):
        fns.algebra.expand(unit(0, 1))


def test_ambient_mismatch_rejected():
    a = am.star_algebra([unit(i, j) for i in range(2) for j in range(2)])
    b = am.star_algebra([np.eye(3)])
    with pytest.raises(ConfigError):
        am.AlgebraWithExpectation(a, b, np.ones((1, 4)))


def test_subalgebra_outside_span_rejected():
    a = am.star_algebra([np.diag(E[i]) for i in range(2)])
    b = am.star_algebra([unit(0, 1) + unit(1, 0), np.eye(2)])
    with pytest.raises(StructureError):
        am.AlgebraWithExpectation(a, b, np.ones((2, 2)))


def test_dependent_basis_rejected():
    with pytest.raises(StructureError):
        am.star_algebra([np.eye(2), 2.0 * np.eye(2)])


def test_not_closed_under_product_rejected():
    # self-adjoint span of {1, Z, X}: the product XZ falls outside
    x = unit(0, 1) + unit(1, 0)
    z = np.diag([1.0, -1.0])
    with pytest.raises(StructureError):
        am.star_algebra([np.eye(2), z, x])


def test_json_round_trip(m2_diag):
    # M_2 over its diagonal written out by hand: matrices as row-major lists
    # of [re, im] pairs, loaded into the same spec as the preset
    def pairs(mat):
        return [[float(z), 0.0] for z in np.ravel(mat)]

    obj = {
        "ambient_dim": 2,
        "algebra_basis": [pairs(unit(i, j)) for i in range(2) for j in range(2)],
        "subalgebra_basis": [pairs(unit(0, 0)), pairs(unit(1, 1))],
        "expectation_matrix": pairs([[1, 0, 0, 0], [0, 0, 0, 1]]),
    }
    spec = algebra_from_json(obj)
    assert am.validate_expectation(spec).passed
    np.testing.assert_allclose(spec.algebra.basis, m2_diag.algebra.basis)
    np.testing.assert_allclose(spec.subalgebra.basis, m2_diag.subalgebra.basis)
    np.testing.assert_allclose(spec.expectation, m2_diag.expectation)


def test_json_preset_loading():
    spec = algebra_from_json({"preset": "scalars_in_matn", "n": 3})
    assert spec.algebra.dim == 9
    with pytest.raises(ConfigError):
        algebra_from_json({"preset": "nope"})


def test_json_missing_field_pointer():
    with pytest.raises(ConfigError):
        algebra_from_json({"ambient_dim": 2})
