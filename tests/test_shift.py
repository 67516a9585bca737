import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam as am
import amalgam.shift
import amalgam.words
from amalgam.errors import CapacityError, StructureError
from amalgam.linalg import DEFAULT_SEED, frobenius
from amalgam.shift import (
    DecayPoint,
    Mixture,
    ShiftExperiment,
    build_shift_context,
    decay_curve,
    shift_word,
)
from amalgam.fock import build_fock
from amalgam.words import (
    Word,
    WordFamily,
    family_operator,
    haagerup_upper,
    letter_norms,
    norm_lower,
    word_operator,
)
from conftest import (
    assert_same_csr,
    cyclic,
    pulled_back,
    random_centered,
    sign_letter,
    spectral_norm,
)

TWO_POINT = am.function_algebra_with_state(2)
BASE = am.scalar_base()


def orbit(w, n):
    """The first n shifted copies of w, as a family summed with coefficient one."""
    return WordFamily(tuple(shift_word(w, k) for k in range(n)))


def unit_curve(exp, factor=TWO_POINT, base=BASE, seed=DEFAULT_SEED):
    """The decay curve of the prototype alone, on the experiment's window."""
    ctx = build_shift_context(factor, base, exp.window, exp.max_level)
    return decay_curve(ctx, Mixture(None, ((1.0, exp.prototype),)), exp.n_max, seed=seed)


def test_shift_translates_indices():
    w = Word((sign_letter(0), sign_letter(1)))
    assert shift_word(w, 0).indices == (0, 1)
    assert shift_word(w, 3).indices == (3, 4)
    assert shift_word(shift_word(w, 5), -5).indices == w.indices
    np.testing.assert_allclose(
        shift_word(w, 5).letters[0].coords, w.letters[0].coords
    )


def test_average_family_is_orbit(monkeypatch):
    # the words a curve averages are the shifted copies of the prototype, a
    # separated family; a curve needs at least one term
    built = []
    real = amalgam.words.word_operator
    monkeypatch.setattr(amalgam.shift, "word_operator",
                        lambda ctx, w: built.append(w) or real(ctx, w))
    w = Word((sign_letter(0),))
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 3), 2)
    decay_curve(ctx, Mixture(None, ((1.0, w),)), 3)
    assert [v.indices for v in built] == [(0,), (1,), (2,)]
    assert WordFamily(tuple(built)).separation_clash() is None
    assert len(decay_curve(ctx, Mixture(None, ((1.0, w),)), 1)) == 1
    with pytest.raises(StructureError):
        decay_curve(ctx, Mixture(None, ((1.0, w),)), 0)


def test_orbit_upper_bound_matches_decay_formula():
    # haagerup upper of the n-orbit divided by n is (2p+1) n^(-1/2) prod |a|
    w = Word((sign_letter(0), sign_letter(1)))
    n = 9
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 11), 2)
    got = haagerup_upper(orbit(w, n), ctx) / n
    assert abs(got - (2 * 2 + 1) / np.sqrt(n)) < 1e-12
    [*_, point] = decay_curve(ctx, Mixture(None, ((1.0, w),)), n)
    assert abs(point.decay_bound - got) < 1e-12


def test_experiment_window_covers_all_shifts():
    exp = ShiftExperiment(Word((sign_letter(0), sign_letter(1))), n_max=4, max_level=2)
    assert exp.window == tuple(range(0, 5))
    with pytest.raises(StructureError):
        ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=0)


def test_shift_context_refusal_names_the_window():
    with pytest.raises(CapacityError, match=r"shrink the window \(6 indices\) or the "
                                            r"truncation level 3"):
        build_shift_context(TWO_POINT, BASE, range(0, 6), 3, max_dim=100)


def test_decay_curve_p1():
    exp = ShiftExperiment(Word((sign_letter(0),)), n_max=6, max_level=2)
    curve = unit_curve(exp)
    bounds = [p.decay_bound for p in curve]
    assert bounds == sorted(bounds, reverse=True)
    for pt in curve:
        assert abs(pt.decay_bound - 3.0 / np.sqrt(pt.n)) < 1e-12
        assert pt.lower <= pt.decay_bound * (1 + 1e-12)
        assert abs(pt.ell2_vacuum - 1.0 / np.sqrt(pt.n)) < 1e-12
        assert pt.ell2_vacuum <= pt.lower + 1e-12
        assert pt.residual < 1e-12


def test_decay_bound_p1_n4_is_three_halves():
    exp = ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=2)
    assert abs(unit_curve(exp)[-1].decay_bound - 1.5) < 1e-12


def test_decay_lower_never_exceeds_kesten_value():
    # sign letters are free self-adjoint symmetries, so the averaged operator
    # has true norm 2 sqrt(n-1)/n for n >= 2; certified lower bounds must stay
    # below it at every truncation
    for max_level in (2, 3):
        exp = ShiftExperiment(Word((sign_letter(0),)), n_max=8, max_level=max_level)
        for pt in unit_curve(exp):
            true_norm = 1.0 if pt.n == 1 else 2.0 * np.sqrt(pt.n - 1) / pt.n
            assert pt.lower <= true_norm + 1e-9


def test_decay_curve_lower_monotone_in_truncation():
    exp2 = ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=2)
    exp3 = ShiftExperiment(Word((sign_letter(0),)), n_max=4, max_level=3)
    for p2, p3 in zip(unit_curve(exp2), unit_curve(exp3)):
        assert p3.lower >= p2.lower - 1e-10


def reference_decay_points(exp, factor, base, seed):
    """Each point from the n-term family operator built afresh."""
    ctx = build_shift_context(factor, base, exp.window, exp.max_level)
    p = exp.prototype.length
    points = []
    for n in range(1, exp.n_max + 1):
        op = (1.0 / n) * family_operator(ctx, orbit(exp.prototype, n))
        bound = (2 * p + 1) * math.prod(letter_norms(ctx, exp.prototype)) / np.sqrt(n)
        drift = base.matrix(ctx.vacuum_expectation(op))
        points.append(DecayPoint(n, norm_lower(ctx, op, p, seed=seed).lower,
                                 norm_lower(ctx, op, ctx.max_level, seed=seed).lower,
                                 float(bound), frobenius(drift)))
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
        curve = unit_curve(exp, factor, base, seed=seed)
        assert curve == reference_decay_points(exp, factor, base, seed)


@pytest.mark.parametrize("p", [1, 2])
def test_cesaro_term_equals_decay_point(two_point, m2_diag, p):
    # B is fixed by the shift, so avg_n x - E_B(x) is the word term's average
    # alone: the curve of b + w has the operator of the curve of w, and its
    # lowers and envelope are equal, not close
    rng = np.random.default_rng(p)
    for factor, base in ((two_point, BASE), (m2_diag, am.diagonal_base(2))):
        proto = Word(tuple(random_centered(factor, i, rng) for i in range(p)))
        exp = ShiftExperiment(proto, n_max=5, max_level=2)
        ctx = build_shift_context(factor, base, exp.window, exp.max_level)
        b = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
        mixed = decay_curve(ctx, Mixture(b, ((1.0, proto),)), exp.n_max, seed=3)
        for pt, ref in zip(mixed, unit_curve(exp, factor, base, seed=3), strict=True):
            assert (pt.n, pt.lower, pt.ell2_vacuum, pt.decay_bound) == (
                ref.n, ref.lower, ref.ell2_vacuum, ref.decay_bound)
            assert pt.residual < 1e-12


def test_decay_curve_builds_one_word_operator_per_n(monkeypatch):
    calls = []
    real = amalgam.words.word_operator

    def counting(ctx, w):
        calls.append(w.indices)
        return real(ctx, w)

    for module in (amalgam.shift, amalgam.words):
        monkeypatch.setattr(module, "word_operator", counting)
    # a two-word mixture: one running orbit sum each, advanced once per n
    mix = Mixture(None, ((1.0, Word((sign_letter(0), sign_letter(1)))),
                         (-0.5j, Word((sign_letter(3),)))))
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 8), 2)
    assert len(decay_curve(ctx, mix, 5)) == 5
    assert calls == [w for k in range(5) for w in ((k, k + 1), (k + 3,))]


def test_vacuum_value_is_analytic_for_unit_letters():
    # the averaged operator applied to the vacuum has ell2 norm exactly
    # 1/sqrt(n): n orthonormal one-tensor images with coefficient 1/n
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 8), 2)
    w = Word((sign_letter(0),))
    for n in (2, 4, 8):
        op = (1.0 / n) * family_operator(ctx, orbit(w, n))
        assert abs(norm_lower(ctx, op, ctx.max_level).lower - 1.0 / np.sqrt(n)) < 1e-12


@pytest.mark.parametrize("name", ["two-point", "m2-diag", "m3-diag"])
def test_shift_equivariance_at_matrix_level(name, request):
    # on a window of copies of one factor, shifting a word by k is the cyclic
    # relabelling by k, array for array, while the shifted word stays inside
    rng = np.random.default_rng(3)
    if name == "two-point":
        ctx = build_shift_context(TWO_POINT, BASE, range(0, 6), 4)
    elif name == "m2-diag":
        ctx = build_shift_context(am.diagonal_in_matn(2), am.diagonal_base(2), range(0, 4), 3)
    else:
        ctx = request.getfixturevalue("ctx_m3diag")
    for p in (1, 2, 3):
        spec = ctx.factors[0].spec
        w = Word(tuple(random_centered(spec, j % 2, rng) for j in range(p)))
        for k in range(1, len(ctx.order) - max(w.indices)):
            y = word_operator(ctx, shift_word(w, k))
            assert_same_csr(pulled_back(ctx, y, cyclic(ctx, k)), word_operator(ctx, w).matrix)


@pytest.mark.parametrize("weights, far", [([0.2, 0.3, 0.5], False),
                                         ([0.6, 0.1, 0.3], True)])
def test_shift_residual_bounds_the_norm_of_its_difference(weights, far):
    # (1, 6, -4) is centered under both states; where the copy at index 1
    # carries another state, the cyclic relabelling is no symmetry and the
    # relabelled difference is far from zero
    first = am.function_algebra_with_state(3, weights=[0.2, 0.3, 0.5])
    factors = {0: first, 1: am.function_algebra_with_state(3, weights=weights), 2: first}
    ctx = build_fock(BASE, factors, 3)
    f = np.array([1.0, 6.0, -4.0], dtype=complex)
    w = Word((am.CenteredElement(0, f), am.CenteredElement(1, f)))
    y = word_operator(ctx, shift_word(w, 1))
    diff = pulled_back(ctx, y, cyclic(ctx, 1)) - word_operator(ctx, w).matrix
    resid = frobenius(diff)
    assert resid >= spectral_norm(diff)
    assert (resid > 0.1) is far


def test_cesaro_on_subalgebra_is_exact():
    # an element of B is its own average: nothing is left to decay
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 6), 2)
    for pt in decay_curve(ctx, Mixture(np.array([0.7 - 0.2j]), ()), 7):
        assert pt.residual < 1e-12
        assert pt.lower == pt.ell2_vacuum == pt.decay_bound == 0.0


def test_cesaro_word_decays():
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 17), 2)
    w = Word((sign_letter(0),))
    curve = decay_curve(ctx, Mixture(None, ((1.0, w),)), 16)
    at4, at16 = curve[3], curve[15]
    assert at4.residual < 1e-12  # E_B of the word's average is 0
    assert abs(at4.decay_bound / at16.decay_bound - 2.0) < 1e-12
    assert at4.lower <= at4.decay_bound * (1 + 1e-12)


def test_cesaro_mixture_returns_b_component():
    # E_B(avg_n x) = b at every n; the envelope scales with |c|
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 6), 2)
    b = np.array([1.5 + 0.5j])
    mix = Mixture(b, ((0.5, Word((sign_letter(0),))),))
    curve = decay_curve(ctx, mix, 4)
    assert all(pt.residual < 1e-12 for pt in curve)
    assert curve[3].decay_bound == pytest.approx(0.5 * 3.0 / 2.0)


def test_decay_curve_over_a_nontrivial_base(m2_diag):
    # relative ergodicity over B = D_2: b != 0 and words of lengths 1 and 2
    # on M_2 factors; E_B(avg_n x) = E_B(x) holds exactly, and each lower
    # stays below the envelope sum_j |c_j| (2p_j+1) prod ||a|| / sqrt(n)
    rng = np.random.default_rng(11)
    base = am.diagonal_base(2)
    ctx = build_shift_context(m2_diag, base, range(0, 9), 3)
    words = [Word((random_centered(m2_diag, 0, rng),)),
             Word((random_centered(m2_diag, 0, rng), random_centered(m2_diag, 1, rng)))]
    b = np.array([0.8 - 0.3j, -1.1 + 0.4j])
    mix = Mixture(b, ((0.7, words[0]), (-1.2 + 0.5j, words[1])))
    envelope = sum(abs(c) * (2 * w.length + 1) * math.prod(letter_norms(ctx, w))
                   for c, w in mix.terms)
    curve = decay_curve(ctx, mix, 8)
    assert [pt.n for pt in curve] == list(range(1, 9))
    for pt in curve:
        assert pt.residual <= 1e-12
        assert pt.decay_bound == pytest.approx(envelope / math.sqrt(pt.n), rel=1e-14)
        assert 0.0 < pt.lower <= pt.decay_bound * (1 + 1e-12)
        assert pt.ell2_vacuum <= pt.lower * (1 + 1e-12)


def test_lambda_of_b_is_shift_invariant():
    # the B-part of the average stays constant in n because every copy of B
    # acts through the same operator
    ctx = build_shift_context(TWO_POINT, BASE, range(0, 4), 2)
    b_lift = TWO_POINT.sub_to_full(np.array([2.0]))
    ops = [ctx.represent(i, b_lift) for i in range(3)]
    for op in ops[1:]:
        assert (op - ops[0]).frobenius() < 1e-12
