import itertools
import sys
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest

import amalgam as am
from amalgam.cli import _factor_context
from amalgam.errors import CapacityError, ConfigError, StructureError
from amalgam.fock import DEFAULT_MAX_DIM, FockContext, build_fock
from amalgam.gns import ModuleVector, inner_product, module_norm
from amalgam.linalg import adjoint, as_complex
from amalgam.shift import shift_relabel_check
from amalgam.words import Word
from conftest import load_bench_tracer, random_centered, spectral_norm


def lambda_direct(ctx, i, a_coords):
    """Letter representation built directly from the defining case split.

    Independent of the production path (which assembles creation, diagonal
    and annihilation parts): this one applies, per summand, the action on the
    unit (B-part plus hat-part) and the two tensor cases, prepend versus
    first-slot absorption.
    """
    base = ctx.base
    fi = ctx.factors[i]
    spec = fi.spec
    nb, db = base.nb, base.db
    a_coords = np.asarray(a_coords, dtype=complex)
    a_mat = spec.algebra.matrix(a_coords)
    blocks = []
    for src in ctx.summands():
        seq = src.seq
        if not seq:
            phi_mat = np.zeros((db, db), dtype=complex)
            e_mat = np.zeros((fi.e_dim, db), dtype=complex)
            for j in range(db):
                bj = spec.algebra.matrix(spec.sub_to_full(np.eye(db)[j]))
                prod = spec.algebra.expand(a_mat @ bj)
                phi_mat[:, j] = spec.apply(prod)
                centered = prod - spec.sub_to_full(spec.apply(prod))
                e_mat[:, j], _ = fi.hat_split(centered)
            blocks.append(((src, src), np.kron(phi_mat, np.eye(nb))))
            if ctx.max_level >= 1:
                tgt = ctx.summand((i,))
                blocks.append(((tgt, src), np.kron(e_mat, np.eye(nb))))
        elif seq[0] != i:
            centered = a_coords - spec.sub_to_full(spec.apply(a_coords))
            h, _ = fi.hat_split(centered)
            if len(seq) < ctx.max_level:
                tgt = ctx.summand((i,) + seq)
                blocks.append(
                    ((tgt, src), np.kron(h.reshape(-1, 1), np.eye(src.prod_dim)))
                )
            f1 = ctx.factors[seq[0]]
            lb = np.tensordot(spec.apply(a_coords), f1.left_b, axes=(0, 0))
            rest = src.prod_dim // f1.e_dim
            blocks.append(((src, src), np.kron(lb, np.eye(rest))))
        else:
            rho = fi.rho_slot(a_coords)
            rest = src.prod_dim // fi.e_dim
            blocks.append(((src, src), np.kron(rho, np.eye(rest))))
            hat_astar = fi.mod.hat(spec.algebra.adjoint_coords(a_coords))
            ann = np.empty((db, fi.e_dim), dtype=complex)
            for j1 in range(fi.e_dim):
                ann[:, j1] = np.einsum(
                    "u,v,uvd->d",
                    np.conj(hat_astar),
                    fi.e_basis[:, j1],
                    fi.mod.bip_full,
                )
            if len(seq) == 1:
                tgt = ctx.summand(())
                blocks.append(((tgt, src), np.kron(ann, np.eye(nb))))
            else:
                f2 = ctx.factors[seq[1]]
                tgt = ctx.summand(seq[1:])
                rest2 = src.prod_dim // (fi.e_dim * f2.e_dim)
                c = np.zeros((f2.e_dim, fi.e_dim * f2.e_dim), dtype=complex)
                for j1 in range(fi.e_dim):
                    lb = np.tensordot(ann[:, j1], f2.left_b, axes=(0, 0))
                    c[:, j1 * f2.e_dim:(j1 + 1) * f2.e_dim] = lb
                blocks.append(((tgt, src), np.kron(c, np.eye(rest2))))
    out = np.zeros((ctx.total_dim, ctx.total_dim), dtype=complex)
    for (tgt, src), t in blocks:
        blk = tgt.cmap @ t @ src.w
        out[tgt.offset:tgt.offset + tgt.rank,
            src.offset:src.offset + src.rank] += blk
    return out


def alternating(indices, m):
    return [seq for seq in itertools.product(indices, repeat=m)
            if all(seq[j] != seq[j + 1] for j in range(m - 1))]


def alternating_count(indices, m):
    return len(alternating(indices, m))


# ---------------------------------------------------------------------------
# dimensions and layout
# ---------------------------------------------------------------------------


def test_two_factor_dimensions(two_point):
    base = am.scalar_base()
    assert build_fock(base, {1: two_point, 2: two_point}, 0).total_dim == 1
    assert build_fock(base, {1: two_point, 2: two_point}, 2).total_dim == 5
    assert build_fock(base, {1: two_point, 2: two_point}, 3).total_dim == 7


def test_level_dims_match_alternating_count(ctx_two3):
    # E_deg is one-dimensional per factor, so each level's dimension is the
    # number of alternating sequences (independent enumeration oracle).
    for entry in ctx_two3.summary()["levels"]:
        m = entry["level"]
        expected = 1 if m == 0 else alternating_count((0, 1, 2), m)
        assert entry["dim"] == expected


def test_degenerate_grams_are_quotiented(ctx_m2diag):
    # Every length-m level of the matrix/diagonal pair collapses from
    # 2 * 2^m product labels to 4 honest dimensions (paths of matrix units).
    for entry in ctx_m2diag.summary()["levels"]:
        m = entry["level"]
        if m == 0:
            assert entry["dim"] == 2
        else:
            assert entry["dim"] == 4
            for s in entry["summands"]:
                assert s["product_dim"] == 2 ** (m + 1)


def _count_gram_eighs(monkeypatch, ctx, max_level):
    """Number of eigh calls made by building the quotients of a context with
    the factor data of ctx truncated at max_level."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g.shape) or eigh(g))
    big = FockContext(ctx.base, ctx.factors, max_level, DEFAULT_MAX_DIM)
    monkeypatch.undo()
    return big, len(calls)


@pytest.mark.parametrize("config", ["two-point-3", "m2-diag"])
def test_one_gram_per_level(config, monkeypatch):
    # every factor of a uniform context shares one spec, so one Gram quotient
    # serves every summand of a level; m2-diag's Grams drop rank
    factors = _factor_context(config, 0, DEFAULT_MAX_DIM)
    ctx, eighs = _count_gram_eighs(monkeypatch, factors, 4)
    assert eighs == 5
    listed = [[tuple(s["sequence"]) for s in level["summands"]]
              for level in ctx.summary()["levels"]]
    assert listed == [alternating(ctx.order, m) for m in range(5)]
    assert [s.seq for s in ctx.summands()] == [seq for level in listed for seq in level]


@pytest.mark.parametrize("name", ["different", "equal"])
def test_mixed_specs(name, rng, monkeypatch):
    # two different factors; three factors, two of them equal but distinct objects
    uniform = am.function_algebra_with_state(2)
    if name == "different":
        factors = {0: uniform, 1: am.function_algebra_with_state(2, weights=[0.9, 0.1])}
    else:
        factors = {0: uniform, 1: am.function_algebra_with_state(2), 2: uniform}
    max_level = 4
    ctx = build_fock(am.scalar_base(), factors, max_level)
    # one quotient per distinct sequence of spec objects in each level
    spec_seqs = {tuple(id(factors[i]) for i in seq)
                 for m in range(max_level + 1) for seq in alternating(ctx.order, m)}
    assert _count_gram_eighs(monkeypatch, ctx, max_level)[1] == len(spec_seqs)
    for entry in ctx.summary()["levels"]:
        assert entry["dim"] == alternating_count(ctx.order, entry["level"])
    for i in ctx.order:
        a = random_centered(factors[i], i, rng)
        got = ctx.represent(i, a.coords).matrix.toarray()
        assert np.linalg.norm(got - lambda_direct(ctx, i, a.coords), 2) < 1e-10
    if name == "equal":  # the shift maps each factor to an equal one
        w = Word((random_centered(uniform, 0, rng), random_centered(uniform, 1, rng)))
        assert shift_relabel_check(ctx, w) < 1e-12


def test_summand_lookup_refuses_non_summands(ctx_two2):
    for seq in [(1, 1), (3,), (1, 2, 1, 2, 1)]:
        with pytest.raises(ConfigError):
            ctx_two2.summand(seq)
    assert ctx_two2.summand([2, 1]).seq == (2, 1)


def test_tracer_counts_every_summand(ctx_two3):
    # the benchmark's per-layer counter reads len(ctx.summands())
    tracer = load_bench_tracer()
    counts = Counter()
    tracer._count_context(counts, ctx_two3, ())
    levels = range(ctx_two3.max_level + 1)
    assert counts["fock.summands"] == sum(alternating_count(ctx_two3.order, m)
                                          for m in levels)
    assert counts["fock.total_dim"] == ctx_two3.total_dim


def test_capacity_cap():
    two = am.function_algebra_with_state(2)
    with pytest.raises(CapacityError) as err:
        build_fock(am.scalar_base(), {i: two for i in range(4)}, 6, max_dim=50)
    assert err.value.required is not None and err.value.required > 50


def test_single_factor_rejected(two_point):
    with pytest.raises(ConfigError):
        build_fock(am.scalar_base(), {0: two_point}, 2)


def test_mismatched_base_rejected(two_point, m2_diag):
    with pytest.raises(ConfigError):
        build_fock(am.diagonal_base(2), {0: two_point, 1: two_point}, 2)
    with pytest.raises(ConfigError):
        build_fock(am.scalar_base(), {0: two_point, 1: m2_diag}, 2)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_level_projections_resolve_identity(ctx_two2):
    total = ctx_two2.zero()
    for m in range(ctx_two2.max_level + 1):
        total = total + ctx_two2.level_projection(m)
    assert (total - ctx_two2.identity()).frobenius() < 1e-12


def test_level_projections_are_orthogonal(ctx_two2):
    p1 = ctx_two2.level_projection(1)
    p2 = ctx_two2.level_projection(2)
    assert (p1 @ p2).frobenius() < 1e-12
    assert (p1 @ p1 - p1).frobenius() < 1e-12


def test_level_two_rank(two_point):
    ctx = build_fock(am.scalar_base(), {1: two_point, 2: two_point}, 2)
    p2 = ctx.level_projection(2)
    assert round(np.trace(np.real(p2.matrix.toarray()))) == 2


def test_level_out_of_range(ctx_two2):
    with pytest.raises(ConfigError):
        ctx_two2.level_projection(ctx_two2.max_level + 1)


def test_first_slot_projections_partition(ctx_two2):
    q1 = ctx_two2.first_slot_projection(1)
    q2 = ctx_two2.first_slot_projection(2)
    p0 = ctx_two2.level_projection(0)
    assert (q1 + q2 - (ctx_two2.identity() - p0)).frobenius() < 1e-12
    assert (q1 @ p0).frobenius() < 1e-12


def test_projections_commute(ctx_m2diag):
    for k in (1, 2):
        q = ctx_m2diag.first_slot_projection(k)
        for m in range(ctx_m2diag.max_level + 1):
            p = ctx_m2diag.level_projection(m)
            assert (q @ p - p @ q).frobenius() < 1e-12


def test_unknown_first_index(ctx_two2):
    with pytest.raises(ConfigError):
        ctx_two2.first_slot_projection(99)


# ---------------------------------------------------------------------------
# creation operators
# ---------------------------------------------------------------------------


def _module_vector(ctx, k, rng):
    fk = ctx.factors[k]
    coords = fk.mod.e_basis @ (
        rng.standard_normal(fk.e_dim) + 1j * rng.standard_normal(fk.e_dim)
    )
    return ModuleVector(fk.mod, coords)


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_m2diag"])
def test_psi_star_psi_identity(fixture, rng, request):
    ctx = request.getfixturevalue(fixture)
    k = 1
    y = _module_vector(ctx, k, rng)
    psi = ctx.creation(k, y)
    q = ctx.first_slot_projection(k)
    below = ctx.level_projection_up_to(ctx.max_level - 1)
    rhs = ctx.left_b_action(inner_product(ctx.factors[k].mod, y, y)) @ (
        ctx.identity() - q
    )
    assert ((psi.H @ psi - rhs) @ below).frobenius() < 1e-9


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_m2diag"])
def test_psi_norm_equals_module_norm(fixture, rng, request):
    ctx = request.getfixturevalue(fixture)
    y = _module_vector(ctx, 2, rng)
    assert abs(spectral_norm(ctx.creation(2, y)) - module_norm(ctx.factors[2].mod, y)) < 1e-9


def test_psi_is_offdiagonal_in_first_slot(ctx_m2diag, rng):
    k = 1
    y = _module_vector(ctx_m2diag, k, rng)
    psi = ctx_m2diag.creation(k, y)
    q = ctx_m2diag.first_slot_projection(k)
    sandwich = q @ psi @ (ctx_m2diag.identity() - q)
    assert (psi - sandwich).frobenius() < 1e-12


def test_psi_star_kills_level_zero(ctx_two2, rng):
    y = _module_vector(ctx_two2, 1, rng)
    assert (ctx_two2.creation(1, y).H @ ctx_two2.level_projection(0)).frobenius() < 1e-12


def test_psi_truncates_at_top(ctx_two2, rng):
    # a top-level tensor led by the other factor maps to zero
    y = _module_vector(ctx_two2, 1, rng)
    psi = ctx_two2.creation(1, y)
    top = ctx_two2.level_projection(ctx_two2.max_level)
    q2 = ctx_two2.first_slot_projection(2)
    assert (psi @ top @ q2).frobenius() < 1e-12


def test_creation_rejects_unit_component(ctx_two2):
    fk = ctx_two2.factors[1]
    hat_one = fk.mod.hat(fk.spec.algebra.unit_coords)
    with pytest.raises(StructureError):
        ctx_two2.creation(1, ModuleVector(fk.mod, hat_one))


# ---------------------------------------------------------------------------
# diagonal action
# ---------------------------------------------------------------------------


def test_rho_unit_is_first_slot_projection(ctx_m2diag):
    fk = ctx_m2diag.factors[1]
    rho = ctx_m2diag.diagonal_action(1, fk.spec.algebra.unit_coords)
    assert (rho - ctx_m2diag.first_slot_projection(1)).frobenius() < 1e-12


def test_rho_is_contractive(ctx_m2diag, rng):
    fk = ctx_m2diag.factors[1]
    for _ in range(10):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = ctx_m2diag.diagonal_action(1, a)
        assert spectral_norm(rho) <= fk.spec.algebra.norm(a) + 1e-10


def test_rho_is_compressed_by_q(ctx_m2diag, rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = ctx_m2diag.diagonal_action(1, a)
    q = ctx_m2diag.first_slot_projection(1)
    assert (rho - q @ rho @ q).frobenius() < 1e-12


# ---------------------------------------------------------------------------
# letter representation
# ---------------------------------------------------------------------------


def test_lambda_unit_is_identity(ctx_two2, ctx_m2diag):
    for ctx in (ctx_two2, ctx_m2diag):
        unit = ctx.factors[1].spec.algebra.unit_coords
        assert (ctx.represent(1, unit) - ctx.identity()).frobenius() < 1e-12


def test_lambda_of_b_is_index_independent(ctx_m2diag, rng):
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lifted = {i: ctx_m2diag.factors[i].spec.sub_to_full(b) for i in (1, 2)}
    lam1 = ctx_m2diag.represent(1, lifted[1])
    lam2 = ctx_m2diag.represent(2, lifted[2])
    assert (lam1 - lam2).frobenius() < 1e-10


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_two3", "ctx_m2diag"])
def test_lambda_matches_direct_formula(fixture, rng, request):
    # dual route: production assembly vs the defining two-case action
    ctx = request.getfixturevalue(fixture)
    for i in ctx.order[:2]:
        spec = ctx.factors[i].spec
        for _ in range(3):
            a = rng.standard_normal(spec.algebra.dim) + 1j * rng.standard_normal(
                spec.algebra.dim
            )
            got = ctx.represent(i, a).matrix.toarray()
            want = lambda_direct(ctx, i, a)
            assert np.linalg.norm(got - want, 2) < 1e-10


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag"])
def test_represent_is_the_sum_of_letter_parts(fixture, rng, request):
    # one letter split: represent adds the parts creation, diagonal,
    # annihilation, B-part in that order, so the CSR arrays agree exactly;
    # the unit and a raw letter have a B-part, a centered letter may have none
    ctx = request.getfixturevalue(fixture)
    branches = set()
    for i in ctx.order:
        spec = ctx.factors[i].spec
        raw = rng.standard_normal(spec.algebra.dim) + 1j * rng.standard_normal(
            spec.algebra.dim)
        letters = [spec.algebra.unit_coords, raw]
        letters += [random_centered(spec, i, rng).coords for _ in range(3)]
        for a in letters:
            parts = ctx.letter_parts(i, a)
            has_b = np.linalg.norm(spec.apply(as_complex(a))) > 0.0
            assert (parts.left_b is not None) == has_b
            branches.add(has_b)
            want = parts.creation + parts.diagonal + parts.annihilation
            if has_b:
                want = want + parts.left_b
            got = ctx.represent(i, a).matrix
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(want.matrix, name))
    assert branches == {True, False}


def test_lambda_is_multiplicative_below_truncation(ctx_m2diag, rng):
    spec = ctx_m2diag.factors[1].spec
    below = ctx_m2diag.level_projection_up_to(ctx_m2diag.max_level - 2)
    for _ in range(5):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ab = spec.algebra.expand(spec.algebra.matrix(a) @ spec.algebra.matrix(b))
        lhs = ctx_m2diag.represent(1, a) @ ctx_m2diag.represent(1, b)
        rhs = ctx_m2diag.represent(1, ab)
        scale = spec.algebra.norm(a) * spec.algebra.norm(b)
        assert ((lhs - rhs) @ below).frobenius() < 1e-8 * scale


def test_lambda_star_representation(ctx_m2diag, rng):
    spec = ctx_m2diag.factors[1].spec
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = ctx_m2diag.represent(1, a).H
    rhs = ctx_m2diag.represent(1, spec.algebra.adjoint_coords(a))
    assert (lhs - rhs).frobenius() < 1e-10


def test_lambda_shifts_levels_by_at_most_one(ctx_two3, rng):
    a = random_centered(ctx_two3.factors[0].spec, 0, rng)
    lam = ctx_two3.represent(0, a.coords)
    for r in range(ctx_two3.max_level + 1):
        for m in range(ctx_two3.max_level + 1):
            if abs(r - m) > 1:
                blk = ctx_two3.level_projection(r) @ lam @ ctx_two3.level_projection(m)
                assert blk.frobenius() < 1e-9


def test_centered_lambda_on_vacuum_is_creation(ctx_two2, rng):
    a = random_centered(ctx_two2.factors[1].spec, 1, rng)
    lam = ctx_two2.represent(1, a.coords)
    p0 = ctx_two2.level_projection(0)
    p1 = ctx_two2.level_projection(1)
    fk = ctx_two2.factors[1]
    hat_e, _ = fk.hat_split(a.coords)
    psi = ctx_two2.creation(1, ModuleVector(fk.mod, fk.e_basis @ hat_e))
    assert (lam @ p0 - p1 @ psi @ p0).frobenius() < 1e-10


# ---------------------------------------------------------------------------
# vacuum expectation
# ---------------------------------------------------------------------------


def test_vacuum_expectation_of_identity(ctx_m2diag):
    out = ctx_m2diag.vacuum_expectation(ctx_m2diag.identity())
    np.testing.assert_allclose(out, ctx_m2diag.base.alg.unit_coords, atol=1e-12)


def test_vacuum_expectation_recovers_phi(ctx_m2diag, rng):
    spec = ctx_m2diag.factors[1].spec
    for _ in range(10):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = ctx_m2diag.vacuum_expectation(ctx_m2diag.represent(1, a))
        np.testing.assert_allclose(got, spec.apply(a), atol=1e-10)


def test_vacuum_isometry(ctx_m2diag):
    v = ctx_m2diag.vacuum_isometry()
    np.testing.assert_allclose(
        v.conj().T @ v, np.eye(ctx_m2diag.base.nb), atol=1e-12
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def a11_expectation():
    E = np.eye(2)
    a = am.star_algebra([np.outer(E[i], E[j]) for i in range(2) for j in range(2)])
    b = am.star_algebra([np.eye(2)])
    return am.AlgebraWithExpectation(a, b, np.array([[1.0, 0, 0, 0]], dtype=complex))


@pytest.fixture(scope="module")
def ctx_a11():
    """Factors whose module genuinely separates (null vectors in the Gram)."""
    spec = a11_expectation()
    return build_fock(am.scalar_base(), {0: spec, 1: spec}, 4)


def test_separated_factor_dimensions(ctx_a11):
    # carrier 2, E_deg 1 per factor, so the level dims match the B = C count
    for entry in ctx_a11.summary()["levels"]:
        m = entry["level"]
        assert entry["dim"] == (1 if m == 0 else alternating_count((0, 1), m))


def test_separated_factor_lambda_oracle(ctx_a11, rng):
    for i in (0, 1):
        spec = ctx_a11.factors[i].spec
        for _ in range(4):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            got = ctx_a11.represent(i, a).matrix.toarray()
            want = lambda_direct(ctx_a11, i, a)
            assert np.linalg.norm(np.asarray(got) - want, 2) < 1e-10


def test_separated_factor_unit_identities(ctx_a11):
    spec = ctx_a11.factors[0].spec
    assert (ctx_a11.represent(0, spec.algebra.unit_coords) - ctx_a11.identity()).frobenius() < 1e-12
    q = ctx_a11.first_slot_projection(0)
    assert (ctx_a11.diagonal_action(0, spec.algebra.unit_coords) - q).frobenius() < 1e-12


def test_nonuniform_weights_context(rng):
    skewed = am.function_algebra_with_state(2, weights=[0.9, 0.1])
    assert am.validate_expectation(skewed).passed
    ctx = build_fock(am.scalar_base(), {0: skewed, 1: skewed}, 4)
    a = random_centered(skewed, 0, rng)
    got = ctx.represent(0, a.coords).matrix.toarray()
    want = lambda_direct(ctx, 0, a.coords)
    assert np.linalg.norm(np.asarray(got) - want, 2) < 1e-10
    out = ctx.vacuum_expectation(ctx.represent(0, a.coords))
    assert np.linalg.norm(out) < 1e-10


def test_embedded_vector_norm_matches_module_norm(ctx_m2diag, rng):
    # the module norm ||x||_E equals the Hilbert norm of the best embedding
    # of x at level one, i.e. the largest singular value of its isometry block
    fk = ctx_m2diag.factors[1]
    y = _module_vector(ctx_m2diag, 1, rng)
    s1 = ctx_m2diag.summand((1,))
    e_coords = fk.e_basis.conj().T @ y.coords
    embed = s1.cmap @ np.kron(e_coords.reshape(-1, 1), np.eye(ctx_m2diag.base.nb))
    sigma = np.linalg.svd(embed, compute_uv=False)[0]
    assert abs(sigma - module_norm(fk.mod, y)) < 1e-10


def test_adjoint_is_conjugate_transpose(ctx_m2diag, rng):
    y = _module_vector(ctx_m2diag, 2, rng)
    psi = ctx_m2diag.creation(2, y)
    np.testing.assert_allclose(
        psi.H.matrix.toarray(), psi.matrix.toarray().conj().T, atol=0
    )


def test_summary_reports_total_dim(ctx_two2):
    summary = ctx_two2.summary()
    assert summary["total_dim"] == ctx_two2.total_dim


def test_concurrent_operator_construction(two_point, rng):
    from concurrent.futures import ThreadPoolExecutor

    ctx = build_fock(am.scalar_base(), {i: two_point for i in range(3)}, 4)
    letters = [
        random_centered(two_point, i % 3, np.random.default_rng(j))
        for j, i in enumerate(range(12))
    ]
    serial = [ctx.represent(a.owner, a.coords).matrix.toarray() for a in letters]
    fresh = build_fock(am.scalar_base(), {i: two_point for i in range(3)}, 4)
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(
            pool.map(lambda a: fresh.represent(a.owner, a.coords).matrix.toarray(), letters)
        )
    for s, p in zip(serial, parallel):
        np.testing.assert_allclose(s, p, atol=0)
    # letter parts built by many threads, switching often, on a context with
    # no cached templates yet equal the serial parts bit for bit
    serial_parts = [ctx.letter_parts(a.owner, a.coords) for a in letters]
    fresh = build_fock(am.scalar_base(), {i: two_point for i in range(3)}, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel_parts = list(pool.map(lambda a: fresh.letter_parts(a.owner, a.coords),
                                           letters))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial_parts, parallel_parts):
        for w, g in zip(want, got):
            assert (w is None) == (g is None)
            if w is not None:
                assert_same_csr(g.matrix, w.matrix)


def test_nested_structure_build_does_not_deadlock(two_point):
    # the annihilation template is built from the creation template: one
    # cached entry asks for another while the cache lock is held
    import threading

    ctx = build_fock(am.scalar_base(), {i: two_point for i in range(3)}, 4)
    done = []
    worker = threading.Thread(target=lambda: done.append(ctx._annihilation_template(1)),
                              daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert done, "building the annihilation template first did not finish"
    y = np.array([0.6 - 0.8j])
    assert_same_csr(ctx._fold(ctx._annihilation_template(1), y.conj()).matrix,
                    adjoint(ctx.creation(1, y).matrix))


# ---------------------------------------------------------------------------
# letter templates
# ---------------------------------------------------------------------------


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_canonical(m):
    """Strictly increasing column indices in every row and no stored zero."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    assert np.all(np.diff(rows * m.shape[1] + m.indices) > 0)
    assert np.all(m.data != 0)


def left_fold(ctx, terms):
    """sum of coeff * matrix over the nonzero coefficients, left to right."""
    return reduce(add, [c * m for c, m in terms if c != 0.0], ctx.zero().matrix)


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_two3", "ctx_m2diag", "ctx_a11"])
def test_letter_templates(fixture, rng, request):
    # the one-pass fold over a template equals the sparse left fold of the
    # scaled terms entry for entry, in canonical CSR: the solver splits an
    # operator by its sparsity pattern, so a stray stored zero would matter
    ctx = request.getfixturevalue(fixture)
    db = ctx.base.db
    units_b = [ctx.left_b_action(np.eye(db)[j]).matrix for j in range(db)]
    for i in ctx.order:
        fk = ctx.factors[i]
        spec, e = fk.spec, fk.e_dim
        units_e = [ctx.creation(i, np.eye(e)[s]).matrix for s in range(e)]
        diag = ctx._diagonal_template(i)
        units_rho = [ctx._fold(diag, np.eye(e * e)[j]).matrix for j in range(e * e)]
        raw = rng.standard_normal(spec.algebra.dim) + 1j * rng.standard_normal(
            spec.algebra.dim)
        letters = [random_centered(spec, i, rng).coords for _ in range(3)] + [raw]
        for a in letters:
            parts = ctx.letter_parts(i, a)
            b_part = spec.apply(a)
            assert (parts.left_b is not None) == (np.linalg.norm(b_part) > 0.0)
            assert a is not raw or parts.left_b is not None
            for part in parts:
                if part is not None:
                    assert_canonical(part.matrix)
            a0 = a - spec.sub_to_full(b_part)
            g, _ = fk.hat_split(spec.algebra.adjoint_coords(a0))
            assert_same_csr(parts.annihilation.matrix, adjoint(ctx.creation(i, g).matrix))
            slot = fk.rho_slot(a0).reshape(-1)
            assert_same_csr(parts.diagonal.matrix, left_fold(ctx, zip(slot, units_rho)))
            if parts.left_b is not None:
                assert_same_csr(parts.left_b.matrix, left_fold(ctx, zip(b_part, units_b)))
            y = rng.standard_normal(e) + 1j * rng.standard_normal(e)
            if e > 1:
                y[0] = 0.0  # a zero coefficient contributes no term
            got = ctx.creation(i, y).matrix
            assert_canonical(got)
            assert_same_csr(got, left_fold(ctx, zip(y, units_e)))


def test_sparse_storage_kicks_in(two_point):
    # every operator is CSR, whatever the dimension of the context
    ctx = build_fock(am.scalar_base(), {0: two_point, 1: two_point}, 3)
    import scipy.sparse as sp

    assert isinstance(ctx.identity().matrix, sp.csr_matrix)
    lam = ctx.represent(0, np.array([1.0, -1.0]))
    assert isinstance(lam.matrix, sp.csr_matrix)
    assert isinstance((lam @ lam - ctx.identity()).matrix, sp.csr_matrix)
    below = ctx.level_projection_up_to(ctx.max_level - 2)
    assert ((lam @ lam - ctx.identity()) @ below).frobenius() < 1e-12
