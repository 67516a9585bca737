from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam as am
import amalgam.linalg
import amalgam.words
from amalgam.cli import run_config
from amalgam.errors import HypothesisError, StructureError, TruncationError
from amalgam.fock import build_fock
from amalgam.linalg import GRAM_LIMIT
from amalgam.words import (
    Word,
    WordFamily,
    family_operator,
    haagerup_upper,
    ladder_identity_residuals,
    letter_norms,
    norm_lower,
    random_separated_family,
    word_operator,
    worst_block_lower,
)
from conftest import (block_decomposition, block_lower, dense, random_centered, sign_letter,
                      spectral_norm)


def random_word(ctx, n, rng):
    order = list(ctx.order)
    idx = [order[int(rng.integers(len(order)))]]
    while len(idx) < n:
        nxt = order[int(rng.integers(len(order)))]
        if nxt != idx[-1]:
            idx.append(nxt)
    return Word(tuple(random_centered(ctx.factors[i].spec, i, rng) for i in idx))


def adjoint_word(ctx, w):
    letters = []
    for a in reversed(w.letters):
        spec = ctx.factors[a.owner].spec
        letters.append(am.CenteredElement(a.owner, spec.algebra.adjoint_coords(a.coords)))
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def test_word_requires_alternation(ctx_two2, rng):
    a = random_centered(ctx_two2.factors[1].spec, 1, rng)
    with pytest.raises(StructureError):
        Word((a, a))


def test_word_requires_centered_letters(ctx_two2):
    spec = ctx_two2.factors[1].spec
    not_centered = am.CenteredElement(1, np.asarray(spec.algebra.unit_coords))
    with pytest.raises(StructureError):
        word_operator(ctx_two2, Word((not_centered,)))


def test_every_entry_point_checks_letters(ctx_two2):
    spec = ctx_two2.factors[1].spec
    w = Word((am.CenteredElement(1, np.asarray(spec.algebra.unit_coords)),))
    with pytest.raises(StructureError):
        block_decomposition(ctx_two2, w, 0, 1)
    with pytest.raises(StructureError):
        ladder_identity_residuals(ctx_two2, [w])


def test_ladder_identity_checks_letters_once(ctx_two3, rng, monkeypatch):
    calls = []
    real = amalgam.words._check_letters

    def counting(ctx, w):
        calls.append(w)
        return real(ctx, w)

    monkeypatch.setattr(amalgam.words, "_check_letters", counting)
    w = random_word(ctx_two3, 2, rng)
    assert ladder_identity_residuals(ctx_two3, [w])[0][1] < 1e-8
    assert calls == [w]


def test_single_letter_word_is_lambda(ctx_two2, rng):
    a = random_centered(ctx_two2.factors[1].spec, 1, rng)
    got = word_operator(ctx_two2, Word((a,)))
    want = ctx_two2.represent(1, a.coords)
    assert (got - want).frobenius() < 1e-12


def test_adjoint_word_is_conjugate_transpose(ctx_m2diag, rng):
    w = random_word(ctx_m2diag, 3, rng)
    lhs = word_operator(ctx_m2diag, adjoint_word(ctx_m2diag, w))
    rhs = word_operator(ctx_m2diag, w).H
    assert (lhs - rhs).frobenius() < 1e-10


def test_words_have_zero_expectation(ctx_two3, rng):
    # freeness through the matrix compression, cross-validated against the
    # single creation chain surviving in the ladder at m = 0
    for n in (1, 2, 3):
        w = random_word(ctx_two3, n, rng)
        out = ctx_two3.vacuum_expectation(word_operator(ctx_two3, w))
        assert np.linalg.norm(out) < 1e-10
        p0 = ctx_two3.level_projection(0)
        pn = ctx_two3.level_projection(n)
        chain = block_decomposition(ctx_two3, w, 0, n)
        direct = word_operator(ctx_two3, w) @ p0
        assert (direct - chain).frobenius() < 1e-10
        assert (direct - pn @ direct).frobenius() < 1e-10


# ---------------------------------------------------------------------------
# ladder blocks
# ---------------------------------------------------------------------------


def test_far_blocks_vanish(ctx_two2, rng):
    w = random_word(ctx_two2, 2, rng)
    assert block_decomposition(ctx_two2, w, 0, 3).frobenius() == 0.0  # r > m + n
    assert block_decomposition(ctx_two2, w, 0, 1).frobenius() == 0.0  # r < |m - n|
    direct = (
        ctx_two2.level_projection(4)
        @ word_operator(ctx_two2, w)
        @ ctx_two2.level_projection(1)
    )
    assert direct.frobenius() < 1e-10


def test_single_letter_three_term_identity(ctx_two2, rng):
    # a P_m = P_{m+1} psi P_m + P_m rho P_m + P_{m-1} psi* P_m
    a = random_centered(ctx_two2.factors[1].spec, 1, rng)
    w = Word((a,))
    [residuals] = ladder_identity_residuals(ctx_two2, [w])
    for m in (1, 2, 3):
        assert residuals[m] < 1e-10


def test_two_letter_case_three_block(ctx_two2, rng):
    # n=2, m=1, r=2: one creation then one first-slot absorption
    w = random_word(ctx_two2, 2, rng)
    got = block_decomposition(ctx_two2, w, 1, 2)
    direct = (
        ctx_two2.level_projection(2)
        @ word_operator(ctx_two2, w)
        @ ctx_two2.level_projection(1)
    )
    assert (got - direct).frobenius() < 1e-10


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_two3", "ctx_m2diag"])
def test_every_block_matches_direct_product(fixture, rng, request):
    ctx = request.getfixturevalue(fixture)
    for _ in range(4):
        n = int(rng.integers(1, 4))
        w = random_word(ctx, n, rng)
        scale = np.prod(letter_norms(ctx, w))
        op = word_operator(ctx, w)
        for m in range(0, ctx.max_level - n + 1):
            for r in range(0, ctx.max_level + 1):
                got = block_decomposition(ctx, w, m, r)
                direct = (
                    ctx.level_projection(r) @ op @ ctx.level_projection(m)
                )
                assert (got - direct).frobenius() < 1e-8 * scale


def test_ladder_identity_random_words(ctx_two3, rng):
    for _ in range(6):
        n = int(rng.integers(1, 5))
        w = random_word(ctx_two3, n, rng)
        scale = np.prod(letter_norms(ctx_two3, w))
        for resid in ladder_identity_residuals(ctx_two3, [w])[0]:
            assert resid < 1e-8 * scale


def test_ladder_identity_on_separated_module(rng):
    # factors whose expectation has a null space: letters can have vanishing
    # hats while still acting through the first slot
    E = np.eye(2)
    a_alg = am.star_algebra([np.outer(E[i], E[j]) for i in range(2) for j in range(2)])
    b_alg = am.star_algebra([np.eye(2)])
    spec = am.AlgebraWithExpectation(
        a_alg, b_alg, np.array([[1.0, 0, 0, 0]], dtype=complex)
    )
    ctx = build_fock(am.scalar_base(), {0: spec, 1: spec}, 4)
    for _ in range(4):
        n = int(rng.integers(1, 4))
        w = random_word(ctx, n, rng)
        scale = np.prod(letter_norms(ctx, w))
        for resid in ladder_identity_residuals(ctx, [w])[0]:
            assert resid < 1e-8 * scale


def test_ladder_identity_nonuniform_state(rng):
    skewed = am.function_algebra_with_state(2, weights=[0.75, 0.25])
    ctx = build_fock(am.scalar_base(), {0: skewed, 1: skewed, 2: skewed}, 4)
    for _ in range(4):
        n = int(rng.integers(1, 4))
        w = random_word(ctx, n, rng)
        scale = np.prod(letter_norms(ctx, w))
        for resid in ladder_identity_residuals(ctx, [w])[0]:
            assert resid < 1e-8 * scale


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ladder_residual_bounds_the_norm_of_its_difference(ctx_two3, ctx_m2diag, seed):
    # the residual is the Frobenius norm of w P_m minus the sum of its blocks,
    # so it bounds the operator norm of that difference from above; on a
    # difference of rank one the two agree up to the rounding of the SVD
    rng = np.random.default_rng(seed)
    for ctx in (ctx_two3, ctx_m2diag):
        n = int(rng.integers(1, 4))
        w = random_word(ctx, n, rng)
        [residuals] = ladder_identity_residuals(ctx, [w])
        for m in range(ctx.max_level - n + 1):
            total = ctx.zero()
            for r in range(ctx.max_level + 1):
                total = total + block_decomposition(ctx, w, m, r)
            diff = (word_operator(ctx, w) @ ctx.level_projection(m) - total).matrix
            resid = residuals[m]
            assert resid == pytest.approx(np.linalg.norm(dense(diff)), rel=1e-12, abs=0)
            assert resid >= spectral_norm(diff) * (1 - 1e-12)


def reference_ladder_residual(ctx, w, m):
    """The ladder residual as the sum of every block from the public API, the
    zero ones included, against the directly built word operator."""
    total = ctx.zero()
    for r in range(ctx.max_level + 1):
        total = total + block_decomposition(ctx, w, m, r)
    return (word_operator(ctx, w) @ ctx.level_projection(m) - total).frobenius()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ladder_residuals_equal_the_sum_of_blocks(ctx_two3, ctx_m2diag, seed):
    # the per-word residuals reuse each letter's factors and skip the zero
    # blocks; the arithmetic is unchanged, so the values are equal, not close
    rng = np.random.default_rng(seed)
    for ctx in (ctx_two3, ctx_m2diag):
        n = int(rng.integers(1, 5))
        w = random_word(ctx, n, rng)
        want = [reference_ladder_residual(ctx, w, m)
                for m in range(ctx.max_level - n + 1)]
        assert ladder_identity_residuals(ctx, [w]) == [want]


def mixed_words(ctx, rng):
    """Words of lengths 1 to 3 with random owners, in no order of length. Two
    of length 2 differ only in their first letter: exactly centered in one,
    with a B-part of 1e-11, still inside CENTERING_TOL, in the other, so only
    one of them has a left_b part at position 0."""
    i, j = ctx.order[0], ctx.order[1]
    exact = [random_centered(ctx.factors[k].spec, k, rng) for k in (i, j)]
    while ctx.letter_parts(i, exact[0].coords).left_b is not None:
        exact[0] = random_centered(ctx.factors[i].spec, i, rng)
    unit = np.asarray(ctx.factors[i].spec.algebra.unit_coords)
    offset = am.CenteredElement(i, exact[0].coords + 1e-11 * unit)
    assert ctx.letter_parts(i, offset.coords).left_b is not None
    return [random_word(ctx, 3, rng), Word(tuple(exact)), random_word(ctx, 1, rng),
            Word((offset, exact[1])), random_word(ctx, 2, rng), random_word(ctx, 3, rng),
            random_word(ctx, 1, rng)]


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag"])
def test_batched_ladder_residuals_equal_one_word_calls(fixture, rng, request):
    # a batch forms each word's entries by the same products in the same order
    # as that word alone, so the residuals are equal, not close
    ctx = request.getfixturevalue(fixture)
    words = mixed_words(ctx, rng)
    alone = [ladder_identity_residuals(ctx, [w])[0] for w in words]
    assert ladder_identity_residuals(ctx, words) == alone
    assert ladder_identity_residuals(ctx, words[::-1]) == alone[::-1]
    assert [len(r) for r in alone] == [ctx.max_level - w.length + 1 for w in words]
    for w, residuals in zip(words, alone):
        assert max(residuals) < 1e-8 * np.prod(letter_norms(ctx, w))
    assert ladder_identity_residuals(ctx, []) == []


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag"])
def test_over_long_word_refused_before_any_product(fixture, rng, request, monkeypatch):
    ctx = request.getfixturevalue(fixture)
    words = mixed_words(ctx, rng)
    words.insert(3, random_word(ctx, ctx.max_level + 1, rng))
    monkeypatch.setattr(amalgam.words, "_ladder_factors", mock.Mock())
    with pytest.raises(TruncationError):
        ladder_identity_residuals(ctx, words)
    amalgam.words._ladder_factors.assert_not_called()


def test_batches_of_one_word_give_the_residuals_of_one_batch(ctx_m2diag, rng, monkeypatch):
    # max_dim // total_dim words share a direct sum; below two, each word
    # is its own batch
    words = mixed_words(ctx_m2diag, rng)
    wide = ladder_identity_residuals(ctx_m2diag, words)
    batches = []
    real = amalgam.words._ladder_residuals

    def counting(ctx, batch):
        batches.append(len(batch))
        return real(ctx, batch)

    monkeypatch.setattr(amalgam.words, "_ladder_residuals", counting)
    monkeypatch.setattr(ctx_m2diag, "max_dim", 2 * ctx_m2diag.total_dim - 1)
    assert ladder_identity_residuals(ctx_m2diag, words) == wide
    assert batches == [1] * len(words)
    monkeypatch.setattr(ctx_m2diag, "max_dim", 2 * ctx_m2diag.total_dim)
    batches.clear()
    assert ladder_identity_residuals(ctx_m2diag, words) == wide
    assert max(batches) == 2


def test_truncation_guard(ctx_two2, rng):
    w = random_word(ctx_two2, 3, rng)
    with pytest.raises(TruncationError):
        block_decomposition(ctx_two2, w, ctx_two2.max_level, 1)
    with pytest.raises(TruncationError):
        ladder_identity_residuals(ctx_two2, [random_word(ctx_two2, 5, rng)])


# ---------------------------------------------------------------------------
# families and the separated-family bound
# ---------------------------------------------------------------------------


def test_family_operator_linear(ctx_two2, rng):
    w = random_word(ctx_two2, 2, rng)
    single = family_operator(ctx_two2, WordFamily((w,)))
    assert (single - word_operator(ctx_two2, w)).frobenius() < 1e-12
    empty = family_operator(ctx_two2, WordFamily(()))
    assert empty.frobenius() == 0.0


def test_family_rejects_mixed_lengths(ctx_two2, rng):
    with pytest.raises(StructureError):
        WordFamily((random_word(ctx_two2, 1, rng), random_word(ctx_two2, 2, rng)))


def test_haagerup_upper_values(ctx_two2, ctx_two3):
    w = Word((sign_letter(1),))
    assert abs(haagerup_upper(WordFamily((w,)), ctx_two2) - 3.0) < 1e-12

    spec = ctx_two2.factors[1].spec
    a2 = am.CenteredElement(1, 2.0 * np.asarray(sign_letter(1).coords))
    a3 = am.CenteredElement(2, 3.0 * np.asarray(sign_letter(2).coords))
    fam = WordFamily((Word((a2, a3)),))
    assert abs(haagerup_upper(fam, ctx_two2) - 30.0) < 1e-12

    orbit = WordFamily(tuple(Word((sign_letter(i),)) for i in range(3)))
    assert abs(haagerup_upper(orbit, ctx_two3) - 3.0 * np.sqrt(3)) < 1e-12


def test_haagerup_upper_rejects_clash(ctx_two2, rng):
    w1 = Word((random_centered(ctx_two2.factors[1].spec, 1, rng),))
    w2 = Word((random_centered(ctx_two2.factors[1].spec, 1, rng),))
    fam = WordFamily((w1, w2))
    with pytest.raises(HypothesisError):
        haagerup_upper(fam, ctx_two2)


def test_separated_families_respect_upper_bound(ctx_two3, rng):
    for trial in range(6):
        n = int(rng.integers(1, 3))
        firsts = list(rng.permutation([0, 1, 2]))
        words = []
        for f in firsts:
            idx = [int(f)]
            while len(idx) < n:
                nxt = int(rng.integers(3))
                if nxt != idx[-1]:
                    idx.append(nxt)
            words.append(
                Word(tuple(random_centered(ctx_two3.factors[i].spec, i, rng) for i in idx))
            )
        fam = WordFamily(tuple(words), f"fam{trial}")
        if fam.separation_clash() is not None:
            continue
        lower = norm_lower(ctx_two3, family_operator(ctx_two3, fam), n).lower
        assert lower <= haagerup_upper(fam, ctx_two3) * (1 + 1e-12)


def test_separated_families_over_diagonal_base(ctx_m2diag, rng):
    # the (2n+1) gamma bound with a genuinely noncommutative B
    for trial in range(4):
        n = int(rng.integers(1, 3))
        firsts = [1, 2]
        words = []
        for f in firsts:
            idx = [f]
            while len(idx) < n:
                nxt = 1 + (idx[-1] % 2)
                idx.append(nxt)
            words.append(
                Word(tuple(random_centered(ctx_m2diag.factors[i].spec, i, rng)
                           for i in idx))
            )
        fam = WordFamily(tuple(words), f"diag{trial}")
        assert fam.separation_clash() is None
        upper = haagerup_upper(fam, ctx_m2diag)
        op = family_operator(ctx_m2diag, fam)
        assert norm_lower(ctx_m2diag, op, n).lower <= upper * (1 + 1e-12)
        gamma = upper / (2 * n + 1)
        for m in range(0, ctx_m2diag.max_level - n + 1):
            for r in range(abs(m - n), min(m + n, ctx_m2diag.max_level) + 1):
                assert block_lower(ctx_m2diag, op, n, m, r) <= gamma * (1 + 1e-12)


def test_block_bound(ctx_two3, rng):
    # squared block norms stay below gamma^2 on exact domains
    words = [
        Word((random_centered(ctx_two3.factors[i].spec, i, rng),)) for i in range(3)
    ]
    fam = WordFamily(tuple(words))
    gamma = haagerup_upper(fam, ctx_two3) / 3.0
    op = family_operator(ctx_two3, fam)
    n = 1
    for m in range(0, ctx_two3.max_level - n + 1):
        for r in range(abs(m - n), min(m + n, ctx_two3.max_level) + 1):
            assert block_lower(ctx_two3, op, n, m, r) <= gamma * (1 + 1e-12)


def test_mixed_support_annihilation(ctx_two2, rng):
    # psi(hat(a*))* psi(hat(b)) = 0 when the letters live in distinct factors
    a = random_centered(ctx_two2.factors[1].spec, 1, rng)
    b = random_centered(ctx_two2.factors[2].spec, 2, rng)
    fa = ctx_two2.factors[1]
    fb = ctx_two2.factors[2]
    ya = fa.e_basis @ fa.hat_split(fa.spec.algebra.adjoint_coords(a.coords))[0]
    yb = fb.e_basis @ fb.hat_split(b.coords)[0]
    from amalgam.gns import ModuleVector

    psi_a = ctx_two2.creation(1, ModuleVector(fa, ya))
    psi_b = ctx_two2.creation(2, ModuleVector(fb, yb))
    assert (psi_a.H @ psi_b).frobenius() < 1e-12


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------


def test_identity_norm_lower(ctx_two2):
    rep = norm_lower(ctx_two2, ctx_two2.identity(), 0)
    assert abs(rep.lower - 1.0) < 1e-12


def test_unitary_letter_norm_lower(ctx_two2):
    # diag(1, -1) is a centered symmetry; its letter operator has norm one
    u = sign_letter(1)
    lam = ctx_two2.represent(1, u.coords)
    rep = norm_lower(ctx_two2, lam, 1)
    assert rep.lower <= 1.0 + 1e-12
    assert abs(rep.lower - 1.0) < 1e-10


def test_norm_lower_monotone_in_truncation(two_point, rng):
    base = am.scalar_base()
    words = None
    lowers = []
    for max_level in (2, 3, 4, 5):
        ctx = build_fock(base, {0: two_point, 1: two_point, 2: two_point}, max_level)
        if words is None:
            r = np.random.default_rng(17)
            words = [
                Word((random_centered(two_point, 0, r), random_centered(two_point, 1, r))),
                Word((random_centered(two_point, 1, r), random_centered(two_point, 2, r))),
            ]
        fam = WordFamily(tuple(words))
        lowers.append(norm_lower(ctx, family_operator(ctx, fam), fam.length).lower)
    for a, b in zip(lowers, lowers[1:]):
        assert b >= a - 1e-10


def test_norm_lower_rejects_large_spread(ctx_two2):
    with pytest.raises(TruncationError):
        norm_lower(ctx_two2, ctx_two2.identity(), ctx_two2.max_level + 1)


# six two-point factors, and four matrix factors over a noncommutative B with
# two-dimensional E-parts; at M=4 the blocks of one-letter families reach 150
# and 72 columns
ORACLE_CONTEXTS = {
    "two-point-6": (am.scalar_base, partial(am.function_algebra_with_state, 2), 6,
                    [(1, 1), (1, 3), (1, 6), (2, 2), (2, 6), (3, 4)]),
    "m2-diag": (partial(am.diagonal_base, 2), partial(am.diagonal_in_matn, 2), 4,
                [(1, 1), (1, 4), (2, 2), (2, 4)]),
}


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_block_and_norm_lowers_match_dense_svd(name):
    base, spec, factors, shapes = ORACLE_CONTEXTS[name]
    ctx = build_fock(base(), {i: spec() for i in range(factors)}, 4)
    rng = np.random.default_rng(29)
    widest = 0
    for n, k in shapes:
        fam = random_separated_family(ctx, n, k, rng, f"n{n}k{k}")
        op = family_operator(ctx, fam)
        full = dense(op)
        worst = 0.0
        ref = spectral_norm(full[:, : ctx.prefix_dim(ctx.max_level - n)])
        assert abs(norm_lower(ctx, op, n).lower - ref) <= 1e-12 * ref
        for m in range(ctx.max_level - n + 1):
            start, end = ctx.level_range(m)
            widest = max(widest, end - start)
            for r in range(abs(m - n), m + n + 1):
                rs, re = ctx.level_range(r)
                ref = spectral_norm(full[rs:re, start:end])
                assert abs(block_lower(ctx, op, n, m, r) - ref) <= 1e-12 * ref
                worst = max(worst, ref)
        assert abs(worst_block_lower(ctx, op, n) - worst) <= 1e-12 * worst
    assert widest > GRAM_LIMIT


def _worst_of_every_block(ctx, op, n, seed):
    return max(block_lower(ctx, op, n, m, r, seed=seed)
               for m in range(ctx.max_level - n + 1)
               for r in range(ctx.max_level + 1))


@settings(max_examples=25, deadline=None)
@given(two3=st.booleans(), n=st.integers(1, 3), k=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_worst_block_is_the_largest_block(ctx_two3, ctx_m2diag, two3, n, k, seed):
    ctx = ctx_two3 if two3 else ctx_m2diag
    fam = random_separated_family(ctx, n, k, np.random.default_rng(seed), "fam")
    op = family_operator(ctx, fam)
    worst = _worst_of_every_block(ctx, op, n, seed)
    assert abs(worst_block_lower(ctx, op, n, seed=seed) - worst) <= 1e-12 * worst


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag"])
def test_worst_block_lanczos_fallback(fixture, request):
    # with GRAM_LIMIT at 1 every component of two or more columns, in the
    # direct sum and in the single blocks alike, goes to Lanczos
    ctx = request.getfixturevalue(fixture)
    fam = random_separated_family(ctx, 2, 2, np.random.default_rng(5), "fam")
    op = family_operator(ctx, fam)
    lanczos = mock.patch.object(amalgam.linalg, "_lanczos_witness",
                                wraps=amalgam.linalg._lanczos_witness)
    with mock.patch.object(amalgam.linalg, "GRAM_LIMIT", 1), lanczos as spy:
        worst = _worst_of_every_block(ctx, op, 2, 7)
        spy.reset_mock()
        value = worst_block_lower(ctx, op, 2, seed=7)
        assert spy.call_count == 1
    assert abs(value - worst) <= 1e-12 * worst


def test_worst_block_of_zero_and_of_large_spread(ctx_two3):
    assert worst_block_lower(ctx_two3, ctx_two3.zero(), 1) == 0.0
    with pytest.raises(TruncationError):
        worst_block_lower(ctx_two3, ctx_two3.identity(), ctx_two3.max_level + 1)


def test_sweep_solves_twice_per_family(tmp_path):
    # one norm solve and one direct-sum block solve per family
    config = {"kind": "haagerup-sweep", "seed": 3,
              "parameters": {"config": "two-point-3", "M": 4, "families": 5}}
    spy = mock.patch.object(amalgam.words, "restricted_sigma_max",
                            wraps=amalgam.words.restricted_sigma_max)
    with spy as solver:
        assert run_config(config, out_dir=tmp_path) == 0
    assert solver.call_count == 2 * 5


def test_norm_report_metadata(ctx_two2, rng):
    w = random_word(ctx_two2, 2, rng)
    op = family_operator(ctx_two2, WordFamily((w,)))
    rep = norm_lower(ctx_two2, op, w.length)
    # the witness is a unit vector on the exact domain, and it attains lower
    assert rep.witness.shape == (ctx_two2.prefix_dim(ctx_two2.max_level - 2),)
    assert np.linalg.norm(rep.witness) == pytest.approx(1.0, rel=1e-12)
    assert rep.lower == np.linalg.norm(op.matrix[:, :rep.witness.size] @ rep.witness)
    assert rep.witness_label != ""
    assert rep.seconds >= 0.0


@pytest.mark.parametrize("factors", [2, 3])
def test_sampled_families_alternate_and_separate(two_point, factors):
    # on two factors the parity of n fixes whether a word ends where it
    # starts; a sampler that ignores this never finishes
    ctx = build_fock(am.scalar_base(), dict.fromkeys(range(factors), two_point), 1)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for n in range(1, 6):
            for k in range(1, factors + 1):
                fam = random_separated_family(ctx, n, k, rng, "fam")
                assert len(fam.words) == k
                for w in fam.words:
                    assert w.length == n
                    assert all(a != b for a, b in zip(w.indices, w.indices[1:]))
                assert len({w.indices[0] for w in fam.words}) == k
                assert len({w.indices[-1] for w in fam.words}) == k
