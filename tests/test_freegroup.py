import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.cli import main
from amalgam.errors import CapacityError, ConfigError, StructureError
from amalgam.freegroup import (
    IDENTITY,
    GroupFunction,
    ReducedWord,
    ball_size,
    build_ball,
    convolution_operator,
    haagerup_check,
    largest_feasible_radius,
    parse_word,
    rd_norm,
    reduce_word,
    shift_average,
    shift_window_size,
    word_length,
)
from amalgam.linalg import restricted_sigma_max
from conftest import dense, load_bench_tracer

letters_strategy = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from([1, -1])), max_size=12
)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduce_cancels_inverse_pair():
    assert reduce_word([(0, 1), (0, -1)]) == IDENTITY


def test_reduce_keeps_reduced_words():
    w = reduce_word([(0, 1), (1, 1)])
    assert w.letters == ((0, 1), (1, 1))


def test_reduce_inner_cancellation():
    w = reduce_word([(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w.letters == ((0, 1), (0, 1))
    assert word_length(w) == 2


@settings(max_examples=100, deadline=None)
@given(letters=letters_strategy)
def test_reduce_involutive_inverse(letters):
    w = reduce_word(letters)
    assert (w * w.inverse()) == IDENTITY
    assert (w.inverse() * w) == IDENTITY


@settings(max_examples=60, deadline=None)
@given(a=letters_strategy, b=letters_strategy, c=letters_strategy)
def test_multiplication_associative(a, b, c):
    wa, wb, wc = reduce_word(a), reduce_word(b), reduce_word(c)
    assert (wa * wb) * wc == wa * (wb * wc)


def test_word_lengths():
    assert word_length(IDENTITY) == 0
    assert word_length(parse_word("g0")) == 1
    assert word_length(parse_word("g0 g1^-1 g0")) == 3


def test_parse_word_syntax():
    assert parse_word("g0 g0^-1") == IDENTITY
    assert parse_word("g2^2").letters == ((2, 1), (2, 1))
    assert parse_word("g-1 g3^-1").letters == ((-1, 1), (3, -1))
    with pytest.raises(ConfigError):
        parse_word("x7")


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


def reference_ball(window, radius):
    """The ball as reduced words, breadth-first: generator ascending, +1
    before -1. Written independently of build_ball's rank arithmetic."""
    alphabet = [ReducedWord(((g, e),)) for g in sorted(set(window)) for e in (1, -1)]
    words, frontier = [IDENTITY], [IDENTITY]
    for _ in range(radius):
        frontier = [w * a for w in frontier for a in alphabet
                    if word_length(w * a) > word_length(w)]
        words += frontier
    return words


def naive_convolution(f, basis):
    """Dense matrix of left convolution by f, coefficient by coefficient,
    over the reference ball."""
    words = reference_ball(basis.window, basis.radius)
    index = {w: i for i, w in enumerate(words)}
    p = max(f.support_lengths(), default=0)
    dom = sum(word_length(w) <= basis.radius - p for w in words)
    oracle = np.zeros((len(words), dom), dtype=complex)
    for col in range(dom):
        g = words[col]
        for h, c in f.terms.items():
            oracle[index[h * g], col] += c
    return oracle


def test_ball_counts_match_growth_formula():
    assert len(build_ball([0, 1], 3)) == 1 + 4 + 4 * 3 + 4 * 9
    for window, radius in [([0, 1], 3), ([4], 5), ([], 3), ([-1, 0, 2], 2)]:
        b = build_ball(window, radius)
        per_length = Counter(word_length(w) for w in reference_ball(window, radius))
        assert np.diff(b.offset).tolist() == [per_length[L] for L in range(radius + 1)]
        assert len(b) == ball_size(len(window), radius)


def test_ball_enumeration_deterministic():
    b1 = build_ball([0, 1, 5], 2)
    b2 = build_ball([5, 1, 0, 5], 2)
    assert b1.window == b2.window == (0, 1, 5)
    assert b1.offset.tolist() == b2.offset.tolist()
    for w in reference_ball([0, 1, 5], 2):
        m1, _, _ = convolution_operator(GroupFunction.delta(w, 1 - 2j), b1)
        m2, _, _ = convolution_operator(GroupFunction.delta(w, 1 - 2j), b2)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(m1, part), getattr(m2, part))


@st.composite
def windows_and_functions(draw):
    """A window with gaps or negative indices, a radius 0..4 and a function
    of mixed lengths over the window, its letters of either sign."""
    window = draw(st.lists(st.integers(-4, 5), max_size=3, unique=True))
    radius = draw(st.integers(0, 4 if len(window) < 3 else 3))
    letter = st.tuples(st.sampled_from(window or [0]), st.sampled_from([1, -1]))
    words = st.lists(letter, max_size=radius if window else 0)
    coeff = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(words.map(reduce_word), coeff, min_size=1, max_size=4))
    return window, radius, GroupFunction(terms)


@settings(max_examples=60, deadline=None)
@given(case=windows_and_functions())
def test_array_ball_matches_reference(case):
    window, radius, f = case
    basis = build_ball(window, radius)
    mat, _, _ = convolution_operator(f, basis)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    assert np.all(np.diff(rows * mat.shape[1] + mat.indices) > 0)  # canonical
    np.testing.assert_array_equal(dense(mat), naive_convolution(f, basis))
    # every word of positive length is a * w with w shorter, so the letters'
    # translations pin the whole index order to the reference ball
    for g in window if radius else []:
        for e in (1, -1):
            delta = GroupFunction.delta(ReducedWord(((g, e),)))
            mat, _, _ = convolution_operator(delta, basis)
            np.testing.assert_array_equal(dense(mat), naive_convolution(delta, basis))


def test_ball_capacity():
    with pytest.raises(CapacityError):
        build_ball(range(16), 8)
    assert largest_feasible_radius(range(16), 8, 200000) == 3
    assert largest_feasible_radius([0], 8, 200000) == 8


def test_largest_feasible_radius_matches_downward_search():
    def downward(window, radius, cap):
        r = radius
        while r > 0 and ball_size(len(window), r) > cap:
            r -= 1
        return r

    for window in ([], [0], [0, 3], [-2, 0, 1]):
        for radius in range(1, 13):
            for cap in (0, 1, 2, 3, 5, 17, 100, 1000, 10**4, 10**5, 10**6):
                assert (largest_feasible_radius(window, radius, cap)
                        == downward(window, radius, cap)), (window, radius, cap)


def test_largest_feasible_radius_is_bounded_by_the_answer():
    # a downward search from R = 10**6 would sum 10**6 big integers per step
    assert largest_feasible_radius([0, 1], 10**6, 200000) == 10
    assert largest_feasible_radius([0], 10**6, 200000) == 99999
    assert largest_feasible_radius([], 10**6, 200000) == 10**6


# ---------------------------------------------------------------------------
# convolution operators
# ---------------------------------------------------------------------------


def test_delta_e_embeds_isometrically():
    basis = build_ball([0, 1], 4)
    mat, dom_radius, dom = convolution_operator(GroupFunction.delta(IDENTITY), basis)
    assert dom_radius == 4 and dom == len(basis)
    sigma, _ = restricted_sigma_max(mat)
    assert abs(sigma - 1.0) < 1e-12


def test_generator_translation_is_isometric():
    basis = build_ball([0, 1], 4)
    mat, dom_radius, dom = convolution_operator(
        GroupFunction.delta(parse_word("g0")), basis
    )
    assert dom_radius == 3
    sigma, _ = restricted_sigma_max(mat)
    assert abs(sigma - 1.0) < 1e-12
    np.testing.assert_allclose(
        dense(mat.conj().T @ mat).real, np.eye(dom), atol=1e-12
    )


def test_sum_of_generators_lower_bound():
    # f = sum of four distinct generators: delta_e maps to an orthonormal
    # quadruple, so the certified bound is at least ||f||_2 = 2
    f = GroupFunction()
    for k in range(4):
        f = f + GroupFunction.delta(parse_word(f"g{k}"))
    basis = build_ball(range(4), 6)
    mat, _, _ = convolution_operator(f, basis)
    sigma, _ = restricted_sigma_max(mat)
    assert sigma >= 2.0 - 1e-12
    assert sigma <= (1 + 1) * 2.0 + 1e-12


def test_convolution_matches_naive_oracle():
    # independent oracle: assemble the dense matrix by looping over the whole
    # reference ball and convolving coefficient by coefficient
    basis = build_ball([0, 1], 3)
    f = GroupFunction(
        {parse_word("g0 g1"): 1.0, parse_word("g1 g0^-1"): -0.5j}
    )
    mat, dom_radius, dom = convolution_operator(f, basis)
    oracle = naive_convolution(f, basis)
    assert oracle.shape == (len(basis), dom)
    np.testing.assert_allclose(dense(mat), oracle)
    s1, _ = restricted_sigma_max(mat)
    s2 = np.linalg.svd(oracle, compute_uv=False)[0]
    assert abs(s1 - s2) < 1e-12


def test_tracer_counts_ball_words_and_convolution_entries():
    # the benchmark's per-layer counters read len(ball) and the stored entries
    tracer = load_bench_tracer()
    counts = Counter()
    f = shift_average(parse_word("g0"), 4)
    basis = build_ball(f.touched_generators(), 5)
    tracer._count_ball(counts, basis, ())
    assert counts["freegroup.ball_words"] == ball_size(4, 5)
    result = convolution_operator(f, basis)
    tracer._count_convolution(counts, result, (f, basis))
    assert counts["freegroup.conv_nnz"] == result[2] * len(f.terms)


def test_ball_and_operator_memory_peak():
    # the ball is an offset table; a list of its 156,865 words took 22.2 MB
    f = shift_average(parse_word("g0"), 4)
    tracemalloc.start()
    try:
        basis = build_ball(f.touched_generators(), 6)
        mat, _, _ = convolution_operator(f, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 156865 and mat.nnz == 4 * 22409
    assert peak < 12 * 2**20


def test_support_outside_window_rejected():
    basis = build_ball([0, 1], 3)
    with pytest.raises(StructureError):
        convolution_operator(GroupFunction.delta(parse_word("g7")), basis)


# ---------------------------------------------------------------------------
# Haagerup checks
# ---------------------------------------------------------------------------


def test_haagerup_check_single_word():
    rep = haagerup_check(GroupFunction.delta(parse_word("g0 g1")), 5)
    assert rep.length == 2
    assert abs(rep.upper - 3.0) < 1e-12
    assert abs(rep.lower - 1.0) < 1e-10
    assert rep.ell2 == 1.0


def test_haagerup_check_on_the_identity_needs_no_radius():
    # a ball over no generators is {e}: the check solves one 1 x 1 operator at
    # any radius, and reports the requested radius as the effective one
    tracemalloc.start()
    try:
        rep = haagerup_check(GroupFunction.delta(IDENTITY, 2.0), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.length, rep.radius, rep.effective_radius) == (0, 10**6, 10**6)
    assert rep.lower == rep.ell2 == rep.upper == 2.0
    assert peak < 2**20  # a radius-R offset table took 30.5 MB at R = 10**6


def test_group_haagerup_on_a_word_reducing_to_the_identity(tmp_path):
    config = tmp_path / "identity.json"
    config.write_text('{"kind": "group-haagerup", "output": "identity",'
                      ' "parameters": {"word": "g0 g0^-1", "R": 1000000}}')
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "identity.csv").read_bytes() == (
        b"name,status,lower,upper,residual\nhaagerup.e.R1000000,pass,1.0,1.0,\n")


def test_haagerup_check_rejects_inhomogeneous():
    f = GroupFunction.delta(IDENTITY) + GroupFunction.delta(parse_word("g0"))
    with pytest.raises(StructureError):
        haagerup_check(f, 4)


def test_shift_average_values():
    f = shift_average(parse_word("g0"), 4)
    assert len(f.terms) == 4
    assert abs(f.ell2() - 0.5) < 1e-12
    rep = haagerup_check(f, 6)
    assert abs(rep.upper - 1.0) < 1e-12
    assert rep.ell2 - 1e-12 <= rep.lower <= rep.upper + 1e-12


@pytest.mark.parametrize("word", ["g0", "g0 g1", "g2 g0^-1 g2", "g5 g2 g9 g2^-1"])
def test_shift_window_size_counts_the_touched_generators(word):
    h = parse_word(word)
    for n in (1, 2, 3, 4, 7, 20):
        assert shift_window_size(h, n) == len(shift_average(h, n).touched_generators())


def test_shift_average_p2_bounds():
    rep = haagerup_check(shift_average(parse_word("g0 g1"), 9), 5, max_ball=60000)
    assert abs(rep.upper - 1.0) < 1e-12
    assert rep.lower >= 1.0 / 3.0 - 1e-12


def test_identity_average_rejected():
    # the shifted copies of e coincide: the shift fixes it
    with pytest.raises(StructureError, match="identity is fixed by the shift"):
        shift_average(IDENTITY, 4)


def test_shift_average_is_its_terms_built_one_by_one():
    h, n = parse_word("g0 g1"), 20000
    f = shift_average(h, n)
    expected = {}
    for k in range(n):
        expected[h.shifted(k)] = complex(1.0 / n)
    assert list(f.terms.items()) == list(expected.items())


def test_lower_bounds_nondecreasing_in_radius():
    word = parse_word("g0")
    lowers = []
    for radius in (2, 3, 4, 5):
        rep = haagerup_check(shift_average(word, 3), radius)
        lowers.append(rep.lower)
    for a, b in zip(lowers, lowers[1:]):
        assert b >= a - 1e-12


def test_certified_lower_never_exceeds_kesten_value():
    # the true norm of the averaged generators is 2 sqrt(n-1)/n; any certified
    # lower bound that crossed it would expose a broken restriction argument
    for n in (4, 9):
        rep = haagerup_check(shift_average(parse_word("g0"), n), 8)
        assert rep.lower <= 2.0 * np.sqrt(n - 1) / n + 1e-9


def test_capacity_reduces_effective_radius():
    rep = haagerup_check(shift_average(parse_word("g0"), 9), 8, max_ball=10000)
    assert rep.effective_radius < 8
    assert rep.radius == 8
    assert rep.ell2 - 1e-12 <= rep.lower <= rep.upper + 1e-12


# ---------------------------------------------------------------------------
# rapid-decay norms
# ---------------------------------------------------------------------------


def test_rd_norm_values():
    assert rd_norm(GroupFunction.delta(IDENTITY), 3.0) == 1.0
    w = parse_word("g0 g1 g0")
    assert abs(rd_norm(GroupFunction.delta(w), 2.0) - 16.0) < 1e-12
    avg = shift_average(parse_word("g0 g1"), 4)
    assert abs(rd_norm(avg, 2.0) - 9.0 / 2.0) < 1e-12
    assert abs(rd_norm(avg, 0.0) - avg.ell2()) < 1e-15

