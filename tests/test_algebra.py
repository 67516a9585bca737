import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam as am
from amalgam.cli import ALGEBRA_PRESETS, validate_config
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


def test_expansion_of_an_exact_basis_is_exact():
    # the pseudo-inverse alone reads the unit of [I_2] as 0.9999999999999997;
    # one refinement step against the basis makes it exact
    b = am.star_algebra([np.eye(2)])
    assert b.unit_coords[0] == 1.0 and b.adj[0, 0] == 1.0
    checks = {c.name: c.residual for c in am.validate_expectation(am.scalars_in_matn(2)).checks}
    assert checks["unit_preservation"] == checks["adjoint_compatibility"] == 0.0


def test_nearly_dependent_basis_stays_in_its_span():
    # a basis whose Gram is ill-conditioned (about 1e8) still holds its own
    # products and the identity
    alg = am.star_algebra([np.eye(2), np.diag([1.0, 1.0 + 1e-4])])
    np.testing.assert_allclose(alg.unit_coords, [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(alg.expand(np.diag([1.0, 2.0])), [1 - 1e4, 1e4], rtol=1e-6)


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
    with pytest.raises(StructureError, match="not closed under products"):
        am.star_algebra([np.eye(2), z, x])


def test_not_closed_under_adjoints_rejected():
    # the upper triangular matrices are closed under products, but E12* = E21
    # falls outside
    with pytest.raises(StructureError, match="not closed under adjoints"):
        am.star_algebra([np.eye(2), unit(0, 0), unit(0, 1)])


def _shipped_algebras():
    specs = {
        "scalars2": am.scalars_in_matn(2),
        "scalars3": am.scalars_in_matn(3),
        "diagonal2": am.diagonal_in_matn(2),
        "diagonal3": am.diagonal_in_matn(3),
        "points2": am.function_algebra_with_state(2),
        "points3": am.function_algebra_with_state(3, [0.2, 0.3, 0.5]),
    }
    algebras = {"scalar_base": am.scalar_base(), "diagonal_base2": am.diagonal_base(2)}
    for name, spec in specs.items():
        algebras[f"{name}-A"] = spec.algebra
        algebras[f"{name}-B"] = spec.subalgebra
    return algebras


SHIPPED_ALGEBRAS = _shipped_algebras()


def expanded_tables(alg):
    """The structure constants, one expand per product and per adjoint."""
    mult = np.array([[alg.expand(x @ y) for y in alg.basis] for x in alg.basis])
    adj = np.stack([alg.expand(x.conj().T) for x in alg.basis], axis=1)
    return mult, adj


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
def test_tables_are_the_expanded_products(name):
    alg = SHIPPED_ALGEBRAS[name]
    mult, adj = expanded_tables(alg)
    assert np.array_equal(alg.mult, mult)
    assert np.array_equal(alg.adj, adj)


@pytest.mark.parametrize("basis, j, k, product, adjoint", [
    # Pauli: XY = iZ, and Y* = Y
    ([np.eye(2), unit(0, 1) + unit(1, 0), -1j * unit(0, 1) + 1j * unit(1, 0),
      np.diag([1.0, -1.0])], 1, 2, [0, 0, 0, 1j], [0, 0, 1, 0]),
    # {1, E11, X, E12}: E11 E12 = E12, and E12* = X - E12
    ([np.eye(2), unit(0, 0), unit(0, 1) + unit(1, 0), unit(0, 1)],
     1, 3, [0, 0, 0, 1], [0, 0, 1, -1]),
], ids=["pauli", "triangular"])
def test_tables_of_a_basis_closed_only_as_a_span(basis, j, k, product, adjoint):
    # products and adjoints of basis elements are combinations of several
    alg = am.star_algebra(basis)
    mult, adj = expanded_tables(alg)
    assert np.linalg.norm(alg.mult - mult) <= 1e-12 * np.linalg.norm(mult)
    assert np.linalg.norm(alg.adj - adj) <= 1e-12 * np.linalg.norm(adj)
    np.testing.assert_allclose(alg.mult[j, k], product, atol=1e-12)
    np.testing.assert_allclose(alg.adj[:, k], adjoint, atol=1e-12)


def _load_algebras(*algebras):
    """The algebras of a validate-algebra config, as the CLI loads them."""
    config = {"kind": "validate-algebra", "parameters": {"algebras": list(algebras)}}
    return validate_config(config)["parameters"]["algebras"]


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
    spec, = _load_algebras(obj)
    assert am.validate_expectation(spec).passed
    np.testing.assert_allclose(spec.algebra.basis, m2_diag.algebra.basis)
    np.testing.assert_allclose(spec.subalgebra.basis, m2_diag.subalgebra.basis)
    np.testing.assert_allclose(spec.expectation, m2_diag.expectation)


def test_json_preset_loading():
    spec, = _load_algebras({"preset": "scalars_in_matn", "n": 3})
    assert spec.algebra.dim == 9
    with pytest.raises(ConfigError) as err:
        _load_algebras({"preset": "nope"})
    assert err.value.pointer == "/parameters/algebras/0/preset"
    assert set(ALGEBRA_PRESETS) == {"scalars_in_matn", "diagonal_in_matn",
                                    "function_algebra_with_state"}


def test_json_missing_field_pointer():
    with pytest.raises(ConfigError, match="missing field 'algebra_basis'") as err:
        _load_algebras({"ambient_dim": 2})
    assert err.value.pointer == "/parameters/algebras/0/algebra_basis"


@pytest.mark.parametrize("value", [2.7, "2", True, 0])
def test_json_ambient_dim_must_be_a_positive_integer(value):
    identity = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    obj = {"ambient_dim": value, "algebra_basis": [identity],
           "subalgebra_basis": [identity], "expectation_matrix": [[1.0, 0.0]]}
    with pytest.raises(ConfigError, match="an integer >= 1") as err:
        _load_algebras(obj)
    assert err.value.pointer == "/parameters/algebras/0/ambient_dim"
