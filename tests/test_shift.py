import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam as am
import amalgam.shift
import amalgam.words
from amalgam.errors import StructureError
from amalgam.shift import (
    CesaroResult,
    DecayPoint,
    Mixture,
    ShiftExperiment,
    average_family,
    build_shift_context,
    cesaro_expectation,
    decay_curve,
    shift_relabel_check,
    shift_word,
)
from amalgam.fock import build_fock
from amalgam.words import (
    Word,
    family_operator,
    haagerup_upper,
    letter_norms,
    norm_lower,
    word_operator,
)
from conftest import random_centered, sign_letter, spectral_norm

TWO_POINT = am.function_algebra_with_state(2)
BASE = am.scalar_base()


def test_shift_translates_indices():
    w = Word((sign_letter(0), sign_letter(1)))
    assert shift_word(w, 0).indices == (0, 1)
    assert shift_word(w, 3).indices == (3, 4)
    assert shift_word(shift_word(w, 5), -5).indices == w.indices
    np.testing.assert_allclose(
        shift_word(w, 5).letters[0].coords, w.letters[0].coords
    )


def test_average_family_is_orbit():
    w = Word((sign_letter(0),))
    fam = average_family(w, 3)
    assert [v.indices for v in fam.words] == [(0,), (1,), (2,)]
    assert fam.separation_clash() is None
    assert len(average_family(w, 1).words) == 1
    with pytest.raises(StructureError):
        average_family(w, 0)


def test_orbit_upper_bound_matches_decay_formula():
    # haagerup upper of the n-orbit divided by n is (2p+1) n^(-1/2) prod |a|
    w = Word((sign_letter(0), sign_letter(1)))
    n = 9
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 11), 2)
    fam = average_family(w, n)
    got = haagerup_upper(fam, ctx) / n
    assert abs(got - (2 * 2 + 1) / np.sqrt(n)) < 1e-12


def test_experiment_window_covers_all_shifts():
    exp = ShiftExperiment(Word((sign_letter(0), sign_letter(1))), n_max=4, max_level=2)
    assert exp.window == tuple(range(0, 5))
    with pytest.raises(StructureError):
        ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=0)


def test_decay_curve_p1():
    exp = ShiftExperiment(Word((sign_letter(0),)), n_max=6, max_level=2)
    curve = decay_curve(exp, TWO_POINT, BASE)
    bounds = [p.decay_bound for p in curve.points]
    assert bounds == sorted(bounds, reverse=True)
    for pt in curve.points:
        assert abs(pt.decay_bound - 3.0 / np.sqrt(pt.n)) < 1e-12
        assert pt.lower <= pt.decay_bound * (1 + 1e-12)
        assert abs(pt.ell2_vacuum - 1.0 / np.sqrt(pt.n)) < 1e-12
        assert pt.ell2_vacuum <= pt.lower + 1e-12


def test_decay_bound_p1_n4_is_three_halves():
    exp = ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=2)
    curve = decay_curve(exp, TWO_POINT, BASE)
    assert abs(curve.points[-1].decay_bound - 1.5) < 1e-12


def test_decay_lower_never_exceeds_kesten_value():
    # sign letters are free self-adjoint symmetries, so the averaged operator
    # has true norm 2 sqrt(n-1)/n for n >= 2; certified lower bounds must stay
    # below it at every truncation
    for max_level in (2, 3):
        exp = ShiftExperiment(Word((sign_letter(0),)), n_max=8, max_level=max_level)
        curve = decay_curve(exp, TWO_POINT, BASE)
        for pt in curve.points:
            true_norm = 1.0 if pt.n == 1 else 2.0 * np.sqrt(pt.n - 1) / pt.n
            assert pt.lower <= true_norm + 1e-9


def test_decay_curve_lower_monotone_in_truncation():
    exp2 = ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=2)
    exp3 = ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=3)
    c2 = decay_curve(exp2, TWO_POINT, BASE)
    c3 = decay_curve(exp3, TWO_POINT, BASE)
    for p2, p3 in zip(c2.points, c3.points):
        assert p3.lower >= p2.lower - 1e-10


def reference_decay_points(exp, factor, base, seed):
    """Each point from the n-term family operator built afresh."""
    ctx = build_shift_context(factor, base, exp.window, exp.max_level)
    p = exp.prototype.length
    points = []
    for n in range(1, exp.n_max + 1):
        op = (1.0 / n) * family_operator(ctx, average_family(exp.prototype, n))
        bound = (2 * p + 1) * math.prod(letter_norms(ctx, exp.prototype)) / np.sqrt(n)
        points.append(DecayPoint(n, norm_lower(ctx, op, p, seed=seed).lower,
                                 norm_lower(ctx, op, ctx.max_level, seed=seed).lower,
                                 float(bound)))
    return tuple(points)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decay_curve_equals_fresh_family_operators(two_point, m2_diag, seed):
    # the running sum adds the same word operators in the same order as
    # family_operator, so every point is equal, not close
    rng = np.random.default_rng(seed)
    for factor, base in ((two_point, BASE), (m2_diag, am.diagonal_base(2))):
        p = int(rng.integers(1, 3))
        proto = Word(tuple(random_centered(factor, i, rng) for i in range(p)))
        exp = ShiftExperiment(proto, n_max=int(rng.integers(2, 6)), max_level=2)
        curve = decay_curve(exp, factor, base, seed=seed)
        assert curve.points == reference_decay_points(exp, factor, base, seed)


def test_decay_curve_builds_one_word_operator_per_n(monkeypatch):
    calls = []
    real = amalgam.words.word_operator

    def counting(ctx, w):
        calls.append(w.indices)
        return real(ctx, w)

    for module in (amalgam.shift, amalgam.words):
        monkeypatch.setattr(module, "word_operator", counting)
    exp = ShiftExperiment(Word((sign_letter(0), sign_letter(1))), n_max=5, max_level=2)
    decay_curve(exp, TWO_POINT, BASE)
    assert calls == [(k, k + 1) for k in range(5)]


def test_vacuum_value_is_analytic_for_unit_letters():
    # the averaged operator applied to the vacuum has ell2 norm exactly
    # 1/sqrt(n): n orthonormal one-tensor images with coefficient 1/n
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 8), 2)
    w = Word((sign_letter(0),))
    for n in (2, 4, 8):
        fam = average_family(w, n)
        op = (1.0 / n) * family_operator(ctx, fam)
        assert abs(norm_lower(ctx, op, ctx.max_level).lower - 1.0 / np.sqrt(n)) < 1e-12


def test_shift_equivariance_at_matrix_level():
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 4), 3)
    rng = np.random.default_rng(3)
    w = Word(
        (random_centered(TWO_POINT, 0, rng), random_centered(TWO_POINT, 1, rng))
    )
    assert shift_relabel_check(ctx, w) < 1e-12


@pytest.mark.parametrize("weights, far", [([0.2, 0.3, 0.5], False),
                                         ([0.6, 0.1, 0.3], True)])
def test_shift_residual_bounds_the_norm_of_its_difference(weights, far):
    # (1, 6, -4) is centered under both states; where the copy at index 1
    # carries another state, the shift is no symmetry and the relabelled
    # difference is far from zero
    first = am.function_algebra_with_state(3, weights=[0.2, 0.3, 0.5])
    factors = {0: first, 1: am.function_algebra_with_state(3, weights=weights), 2: first}
    ctx = build_fock(BASE, factors, 3)
    f = np.array([1.0, 6.0, -4.0], dtype=complex)
    w = Word((am.CenteredElement(0, f), am.CenteredElement(1, f)))
    src, dst = [], []
    for s in ctx.summands():
        if all(i + 1 in factors for i in s.seq):
            t = ctx.summand(tuple(i + 1 for i in s.seq))
            src += range(s.offset, s.offset + s.rank)
            dst += range(t.offset, t.offset + t.rank)
    op = word_operator(ctx, w).matrix.toarray()
    ops = word_operator(ctx, shift_word(w, 1)).matrix.toarray()
    diff = op[np.ix_(src, src)] - ops[np.ix_(dst, dst)]
    resid = shift_relabel_check(ctx, w)
    assert resid == pytest.approx(np.linalg.norm(diff), rel=1e-12, abs=1e-15)
    assert resid >= spectral_norm(diff)
    assert (resid > 0.1) is far


def test_cesaro_on_subalgebra_is_exact():
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 6), 2)
    b = np.array([0.7 - 0.2j])
    for n in (1, 3, 7):
        res = cesaro_expectation(ctx, Mixture(b, ()), n)
        np.testing.assert_allclose(res.expectation, b)
        assert res.residual < 1e-12


def test_cesaro_word_decays():
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 17), 2)
    w = Word((sign_letter(0),))
    mix = Mixture(None, ((1.0, w),))
    res4 = cesaro_expectation(ctx, mix, 4)
    res16 = cesaro_expectation(ctx, mix, 16)
    assert np.linalg.norm(res4.expectation) < 1e-12
    assert abs(res4.term_upper[0] / res16.term_upper[0] - 2.0) < 1e-12
    assert res4.term_lower[0] <= res4.term_upper[0] * (1 + 1e-12)


def test_cesaro_mixture_returns_b_component():
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 6), 2)
    b = np.array([1.5 + 0.5j])
    mix = Mixture(b, ((0.5, Word((sign_letter(0),))),))
    res = cesaro_expectation(ctx, mix, 4)
    np.testing.assert_allclose(res.expectation, b)
    assert isinstance(res, CesaroResult)
    assert res.term_upper[0] == pytest.approx(0.5 * 3.0 / 2.0)


def test_lambda_of_b_is_shift_invariant():
    # the B-part of the average stays constant in n because every copy of B
    # acts through the same operator
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 4), 2)
    b_lift = TWO_POINT.sub_to_full(np.array([2.0]))
    ops = [ctx.represent(i, b_lift) for i in range(3)]
    for op in ops[1:]:
        assert (op - ops[0]).frobenius() < 1e-12
