import itertools
import sys
from collections import Counter
from functools import partial, reduce
from operator import add

import numpy as np
import pytest

import amalgam as am
from amalgam.cli import FACTOR_CONFIGS, _factor_context
from amalgam.errors import CapacityError, ConfigError, StructureError
from amalgam.fock import DEFAULT_MAX_DIM, FockContext, build_fock
from amalgam.gns import ModuleVector, inner_product, module_norm
from amalgam.linalg import CSR, adjoint, as_complex, frobenius
from amalgam.shift import shift_word
from amalgam.words import Word, norm_lower, word_operator
from conftest import (cyclic, dense, load_bench_tracer, product_space_rank, pulled_back,
                      random_centered, spectral_norm)


def lambda_direct(ctx, i, a_coords):
    """Letter representation built directly from the defining case split.

    Independent of the production path (which folds creation, diagonal,
    annihilation and left-B templates): this one applies, per summand, the
    action on the unit (B-part plus hat-part) and the two tensor cases,
    prepend versus first-slot absorption. A summand of level m >= 1 has the
    width (e_s, coordinate of the summand of the rest), level 0 the width
    (b_j, u): prepending maps a source quotient straight into the target
    width, and annihilation lands in the summand of the rest through B's left
    action on it.
    """
    base = ctx.base
    fi = ctx.factors[i]
    spec = fi.spec
    nb, db = base.ambient_dim, base.dim
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
            blocks.append(((src, src), src.cmap @ np.kron(phi_mat, np.eye(nb)) @ src.w))
            if ctx.max_level >= 1:
                # (a b_j)deg (x) (1 (x) u), with 1 (x) u in level-0 coordinates
                ones = src.cmap @ np.kron(base.unit_coords.reshape(-1, 1), np.eye(nb))
                tgt = ctx.summand((i,))
                blocks.append(((tgt, src), tgt.cmap @ np.kron(e_mat, ones) @ src.w))
        elif seq[0] != i:
            centered = a_coords - spec.sub_to_full(spec.apply(a_coords))
            h, _ = fi.hat_split(centered)
            if len(seq) < ctx.max_level:
                tgt = ctx.summand((i,) + seq)
                blocks.append(
                    ((tgt, src), tgt.cmap @ np.kron(h.reshape(-1, 1), np.eye(src.rank)))
                )
            f1 = ctx.factors[seq[0]]
            lb = np.tensordot(spec.apply(a_coords), f1.left_b, axes=(0, 0))
            rest = len(src.w) // f1.e_dim
            blocks.append(((src, src), src.cmap @ np.kron(lb, np.eye(rest)) @ src.w))
        else:
            rho = fi.rho_slot(a_coords)
            rest = len(src.w) // fi.e_dim
            blocks.append(((src, src), src.cmap @ np.kron(rho, np.eye(rest)) @ src.w))
            hat_astar = fi.hat(spec.algebra.adjoint_coords(a_coords))
            ann = np.empty((db, fi.e_dim), dtype=complex)
            for j1 in range(fi.e_dim):
                ann[:, j1] = np.einsum(
                    "u,v,uvd->d",
                    np.conj(hat_astar),
                    fi.e_basis[:, j1],
                    fi.bip_full,
                )
            # e_t (x) h -> <hat a*, e_t>_B h, h in the summand of the rest
            tgt = ctx.summand(seq[1:])
            lands = np.einsum("dt,dab->atb", ann, tgt.left).reshape(tgt.rank, -1)
            blocks.append(((tgt, src), lands @ src.w))
    out = np.zeros((ctx.total_dim, ctx.total_dim), dtype=complex)
    for (tgt, src), blk in blocks:
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


def _mixed_factors(name):
    """Two different factors; or three factors, two of them equal but distinct
    objects."""
    uniform = am.function_algebra_with_state(2)
    if name == "different":
        return {0: uniform, 1: am.function_algebra_with_state(2, weights=[0.9, 0.1])}
    return {0: uniform, 1: am.function_algebra_with_state(2), 2: uniform}


def _skew_base_context(max_level):
    """M_2 over D_2, with B in the basis (1, v), v = p + i(1 - p), where
    v* = (1 - i) 1 + i v: B's adjoint table is not symmetric."""
    p = np.diag([1.0, 0.0])
    base = am.star_algebra([np.eye(2), p + 1j * (np.eye(2) - p)])
    m2 = am.diagonal_in_matn(2).algebra
    diag_part = np.stack([base.expand(np.diag(np.diag(m))) for m in m2.basis], axis=1)
    spec = am.AlgebraWithExpectation(m2, base, diag_part)
    return build_fock(base, {1: spec, 2: spec}, max_level)


@pytest.mark.parametrize("name", ["different", "equal"])
def test_mixed_specs(name, rng, monkeypatch):
    factors = _mixed_factors(name)
    uniform = factors[0]
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
        got = dense(ctx.represent(i, a.coords))
        assert np.linalg.norm(got - lambda_direct(ctx, i, a.coords), 2) < 1e-10
    if name == "equal":  # the cyclic relabelling maps each factor to an equal one
        w = Word((random_centered(uniform, 0, rng), random_centered(uniform, 1, rng)))
        y = word_operator(ctx, shift_word(w, 1))
        assert frobenius(pulled_back(ctx, y, cyclic(ctx, 1)) - word_operator(ctx, w).matrix) < 1e-12


@pytest.mark.parametrize("name", [*FACTOR_CONFIGS, "m3-diag", "mixed-different",
                                  "mixed-equal", "skew-base"])
def test_quotient_ranks_equal_the_product_space_ranks(name, request):
    # each quotient is built on the quotient of the rest of its sequence; the
    # reference folds the whole product space. M_3/D_3 stops at level 3: its
    # level-4 product-space Gram is 3,888 wide
    if name == "m3-diag":
        ctx = request.getfixturevalue("ctx_m3diag")
    elif name == "skew-base":
        ctx = _skew_base_context(4)
    elif name.startswith("mixed-"):
        ctx = build_fock(am.scalar_base(), _mixed_factors(name.removeprefix("mixed-")), 4)
    else:
        ctx = _factor_context(name, 4, DEFAULT_MAX_DIM)
    want = {}  # one product-space Gram per sequence of factor data
    for s in ctx.summands():
        key = tuple(id(ctx.factors[i]) for i in s.seq)
        if key not in want:
            want[key] = product_space_rank(ctx, s.seq)
        assert s.rank == want[key], s.seq


def test_summand_lookup_refuses_non_summands(ctx_two2):
    for seq in [(1, 1), (3,), (1, 2, 1, 2, 1)]:
        with pytest.raises(ConfigError):
            ctx_two2.summand(seq)
    assert ctx_two2.summand([2, 1]).seq == (2, 1)


@pytest.mark.parametrize("config", ["two-point-3", "two-point-6", "m2-diag"])
def test_rows_number_each_level_in_listing_order(config):
    ctx = _factor_context(config, 4, DEFAULT_MAX_DIM)
    for lev in ctx._levels:
        np.testing.assert_array_equal(ctx._rows(lev.pos), np.arange(len(lev.pos)))


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m3diag"])
def test_permutation_refuses_a_map_that_is_no_bijection(fixture, request):
    ctx = request.getfixturevalue(fixture)
    assert np.array_equal(ctx.permutation(cyclic(ctx, 0)), np.arange(ctx.total_dim))
    for mapping in [{0: 1, 1: 1, 2: 2}, {0: 1, 1: 0}, {0: 1, 1: 2, 2: 3},
                    {0: 1, 1: 2, 2: 0, 3: 3}]:
        with pytest.raises(ConfigError, match="not a bijection"):
            ctx.permutation(mapping)


def test_permutation_refuses_a_map_that_changes_a_rank():
    # E_deg has dimension 1 in the two-point factor and 2 in the three-point one
    ctx = build_fock(am.scalar_base(), {0: am.function_algebra_with_state(2),
                                        1: am.function_algebra_with_state(3)}, 2)
    with pytest.raises(StructureError, match="changes the rank of a summand"):
        ctx.permutation({0: 1, 1: 0})


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


def _m3diag_context(copies, max_level, **kw):
    return build_fock(am.diagonal_base(3), dict.fromkeys(range(copies), am.diagonal_in_matn(3)),
                      max_level, **kw)


@pytest.mark.parametrize("config", ["two-point-3", "m2-diag", "m3-diag"])
def test_capacity_refusal_is_exact(config):
    # a context builds exactly when its dimension fits the cap
    if config == "m3-diag":
        build = partial(_m3diag_context, 4, 4)
    else:
        build = partial(_factor_context, config, 6)
    total = build(max_dim=10**6).total_dim
    assert build(max_dim=total).total_dim == total
    with pytest.raises(CapacityError) as err:
        build(max_dim=total - 1)
    assert err.value.required == total


def test_capacity_refusal_before_listing_or_forming():
    # m2-diag at M=6: levels 0..5 hold 22 dimensions, and level 6 has two
    # summands of rank 2. A cap of 23 refuses level 6 from its sequence count
    # alone, at least one dimension each, before they are listed
    with pytest.raises(CapacityError) as err:
        _factor_context("m2-diag", 6, 23)
    assert err.value.required == 24
    # M_3/D_3 on two copies: levels 0..3 hold 87 dimensions; level 4's Gram
    # is 6 * 24 = 144 wide, and a cap of 100 refuses it before it is formed
    with pytest.raises(CapacityError, match="144 wide") as err:
        _m3diag_context(2, 4, max_dim=100)
    assert err.value.required == 144
    assert _m3diag_context(2, 4, max_dim=183).total_dim == 183


def test_single_factor_rejected(two_point):
    with pytest.raises(ConfigError):
        build_fock(am.scalar_base(), {0: two_point}, 2)


def test_mismatched_base_rejected(two_point, m2_diag):
    with pytest.raises(ConfigError):
        build_fock(am.diagonal_base(2), {0: two_point, 1: two_point}, 2)
    with pytest.raises(ConfigError):
        build_fock(am.scalar_base(), {0: two_point, 1: m2_diag}, 2)


_P = np.diag([1.0, 0.0])


@pytest.mark.parametrize("sub_basis, message", [
    ([np.eye(2)], "subalgebra dimension 1 != base dimension 2"),
    ([np.eye(2), _P], "subalgebra unit differs from the base"),
    ([1j * _P, np.eye(2) - 1j * _P], "subalgebra adjoints differ from the base"),
    ([2 * _P, np.eye(2) - 2 * _P], "subalgebra products differ from the base"),
], ids=["dimension", "unit", "adjoints", "products"])
def test_factor_subalgebra_must_match_the_base(sub_basis, message):
    # each basis spans the diagonal of M_2, but reads it in other coordinates
    # than diagonal_base(2) does
    m2 = am.star_algebra([np.outer(np.eye(2)[i], np.eye(2)[j])
                          for i in range(2) for j in range(2)])
    sub = am.star_algebra(sub_basis)
    spec = am.AlgebraWithExpectation(m2, sub, np.zeros((sub.dim, 4)))
    with pytest.raises(ConfigError, match=f"factor 0: {message}"):
        build_fock(am.diagonal_base(2), {0: spec, 1: spec}, 1)


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
    assert round(np.trace(np.real(dense(p2)))) == 2


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


@pytest.mark.parametrize("method", ["represent", "letter_parts", "creation", "diagonal_action",
                                    "first_slot_projection", "e_coords"])
def test_an_index_that_is_not_a_factor_is_refused(ctx_two2, method):
    args = {"creation": [[1.0]], "e_coords": [[1.0]], "first_slot_projection": []}
    with pytest.raises(ConfigError, match="index 9 is not a factor of this context"):
        getattr(ctx_two2, method)(9, *args.get(method, [[1.0, -1.0]]))


def test_one_spec_object_is_one_module(two_point):
    other = am.function_algebra_with_state(2)
    ctx = build_fock(am.scalar_base(), {0: two_point, 1: two_point, 2: other}, 1)
    assert ctx.factors[0] is ctx.factors[1]
    assert ctx.factors[2] is not ctx.factors[0]
    assert ctx.factors[0].spec is two_point and ctx.factors[2].spec is other


# ---------------------------------------------------------------------------
# creation operators
# ---------------------------------------------------------------------------


def _module_vector(ctx, k, rng):
    fk = ctx.factors[k]
    coords = fk.e_basis @ (
        rng.standard_normal(fk.e_dim) + 1j * rng.standard_normal(fk.e_dim)
    )
    return ModuleVector(fk, coords)


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_m2diag"])
def test_psi_star_psi_identity(fixture, rng, request):
    ctx = request.getfixturevalue(fixture)
    k = 1
    y = _module_vector(ctx, k, rng)
    psi = ctx.creation(k, y)
    q = ctx.first_slot_projection(k)
    below = ctx.level_projection_up_to(ctx.max_level - 1)
    rhs = ctx.left_b_action(inner_product(ctx.factors[k], y, y)) @ (
        ctx.identity() - q
    )
    assert ((psi.H @ psi - rhs) @ below).frobenius() < 1e-9


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_m2diag"])
def test_psi_norm_equals_module_norm(fixture, rng, request):
    ctx = request.getfixturevalue(fixture)
    y = _module_vector(ctx, 2, rng)
    assert abs(spectral_norm(ctx.creation(2, y)) - module_norm(ctx.factors[2], y)) < 1e-9


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
    hat_one = fk.hat(fk.spec.algebra.unit_coords)
    with pytest.raises(StructureError):
        ctx_two2.creation(1, ModuleVector(fk, hat_one))


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


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_two3", "ctx_m2diag", "ctx_m3diag"])
def test_lambda_matches_direct_formula(fixture, rng, request):
    # dual route: production assembly vs the defining two-case action
    ctx = request.getfixturevalue(fixture)
    for i in ctx.order[:2]:
        spec = ctx.factors[i].spec
        for _ in range(3):
            a = rng.standard_normal(spec.algebra.dim) + 1j * rng.standard_normal(
                spec.algebra.dim
            )
            got = dense(ctx.represent(i, a))
            want = lambda_direct(ctx, i, a)
            assert np.linalg.norm(got - want, 2) < 1e-10


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag"])
def test_represent_of_the_zero_letter_is_zero(fixture, request):
    # every part of the zero letter folds to no entries, so there is nothing
    # to add on the letter pattern
    ctx = request.getfixturevalue(fixture)
    for i in ctx.order:
        got = ctx.represent(i, np.zeros(ctx.factors[i].spec.algebra.dim)).matrix
        assert got.shape == ctx.zero().matrix.shape
        assert_same_csr(got, ctx.zero().matrix)


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
    psi = ctx_two2.creation(1, ModuleVector(fk, fk.e_basis @ hat_e))
    assert (lam @ p0 - p1 @ psi @ p0).frobenius() < 1e-10


# ---------------------------------------------------------------------------
# vacuum expectation
# ---------------------------------------------------------------------------


def test_vacuum_expectation_of_identity(ctx_m2diag):
    out = ctx_m2diag.vacuum_expectation(ctx_m2diag.identity())
    np.testing.assert_allclose(out, ctx_m2diag.base.unit_coords, atol=1e-12)


def test_vacuum_expectation_recovers_phi(ctx_m2diag, rng):
    spec = ctx_m2diag.factors[1].spec
    for _ in range(10):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = ctx_m2diag.vacuum_expectation(ctx_m2diag.represent(1, a))
        np.testing.assert_allclose(got, spec.apply(a), atol=1e-10)


def test_context_over_a_base_basis_that_is_not_self_adjoint(ctx_m2diag, rng):
    # M_2 over B = D_2 in a basis whose adjoint table is not symmetric is
    # m2-diag in other coordinates of B, so the levels keep their dimensions
    ctx = _skew_base_context(ctx_m2diag.max_level)
    base, spec = ctx.base, ctx.factors[1].spec
    np.testing.assert_allclose(base.adj, [[1, 1 - 1j], [0, 1j]], atol=1e-12)
    assert [lev["dim"] for lev in ctx.summary()["levels"]] == [
        lev["dim"] for lev in ctx_m2diag.summary()["levels"]]
    np.testing.assert_allclose(ctx.vacuum_expectation(ctx.identity()), base.unit_coords,
                               atol=1e-12)
    for _ in range(10):  # freeness: E_B(a1 a2) = E_B(a1) E_B(a2)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = ctx.vacuum_expectation(ctx.represent(1, a) @ ctx.represent(2, a))
        e = base.matrix(spec.apply(a))
        np.testing.assert_allclose(got, base.expand(e @ e), atol=1e-10)


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
            got = dense(ctx_a11.represent(i, a))
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
    got = dense(ctx.represent(0, a.coords))
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
    embed = s1.cmap @ np.kron(e_coords.reshape(-1, 1), np.eye(ctx_m2diag.base.ambient_dim))
    sigma = np.linalg.svd(embed, compute_uv=False)[0]
    assert abs(sigma - module_norm(fk, y)) < 1e-10


def test_adjoint_is_conjugate_transpose(ctx_m2diag, rng):
    y = _module_vector(ctx_m2diag, 2, rng)
    psi = ctx_m2diag.creation(2, y)
    np.testing.assert_allclose(
        dense(psi.H), dense(psi).conj().T, atol=0
    )


def test_m3diag_values_at_four_copies():
    # M_3 over D_3, 4 copies at M=4 (6,219 dimensions). The values are those
    # of commit dd9f3f2, which built every Gram in product-space coordinates
    # (25 s and 1.1 GB for this context), for these same seeded letters,
    # printed with repr
    spec = am.diagonal_in_matn(3)
    ctx = _m3diag_context(4, 4)
    assert ctx.total_dim == 6219
    seeded = np.random.default_rng(3)
    w = Word(tuple(random_centered(spec, i, seeded) for i in (0, 1, 2)))
    a = seeded.standard_normal(spec.algebra.dim) + 1j * seeded.standard_normal(spec.algebra.dim)
    x = word_operator(ctx, w)
    assert norm_lower(ctx, x, w.length).lower == pytest.approx(10.706756806705265, rel=1e-12)
    np.testing.assert_allclose(
        ctx.vacuum_expectation(ctx.represent(3, a)),
        [-0.2148289111268558 + 0.7572210447581504j, 0.690124770162812 + 1.156401048432157j,
         -0.9640996635412404 - 0.6092161379498706j], rtol=1e-12)
    np.testing.assert_allclose(ctx.vacuum_expectation(x.H @ x),
                               [14.945041661044282, 85.10975157213612, 33.54668135389027],
                               rtol=1e-12)
    # one level more: 37,323 dimensions, out of reach of the product space
    assert _m3diag_context(4, 5, max_dim=37323).total_dim == 37323


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag", "ctx_m3diag"])
def test_labels_follow_the_chain_of_representatives(fixture, request):
    # a label names one component per E-deg slot, then B's, and the slot of
    # C^nb; over matrix units each coordinate of a summand is its own path
    ctx = request.getfixturevalue(fixture)
    for s in ctx.summands():
        labels = [ctx.label_of_coordinate(s.offset + c) for c in range(s.rank)]
        assert len(set(labels)) == s.rank
        dims = [ctx.factors[i].e_dim for i in s.seq] + [ctx.base.dim]
        for label in labels:
            assert (label.level, label.indices) == (len(s.seq), s.seq)
            assert len(label.components) == len(dims)
            assert all(0 <= c < d for c, d in zip(label.components, dims))
            assert 0 <= label.b_slot < ctx.base.ambient_dim


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
    serial = [dense(ctx.represent(a.owner, a.coords)) for a in letters]
    fresh = build_fock(am.scalar_base(), {i: two_point for i in range(3)}, 4)
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(
            pool.map(lambda a: dense(fresh.represent(a.owner, a.coords)), letters)
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
def test_level_of_agrees_with_level_range(fixture, request):
    ctx = request.getfixturevalue(fixture)
    want = []
    for m in range(ctx.max_level + 1):
        start, end = ctx.level_range(m)
        want += [m] * (end - start)
    assert len(want) == ctx.total_dim
    assert ctx.level_of(np.arange(ctx.total_dim)).tolist() == want
    assert [int(ctx.level_of(i)) for i in range(ctx.total_dim)] == want


@pytest.mark.parametrize("fixture", ["ctx_two2", "ctx_two3", "ctx_m2diag", "ctx_a11"])
def test_letter_templates(fixture, rng, request):
    # the one-pass fold over a template equals the sparse left fold of the
    # scaled terms entry for entry, in canonical CSR: the solver splits an
    # operator by its sparsity pattern, so a stray stored zero would matter
    ctx = request.getfixturevalue(fixture)
    db = ctx.base.dim
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
            # the fold on the union of the templates is the sum of the parts
            assert_same_csr(ctx.represent(i, a).matrix, parts.total().matrix)
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


@pytest.mark.parametrize("fixture", ["ctx_two3", "ctx_m2diag", "ctx_m3diag"])
def test_letter_union_holds_each_template_at_its_slots(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for k in ctx.order:
        indptr, indices, slots = ctx._letter(k)
        union = CSR(np.ones(len(indices)), indices, indptr, (ctx.total_dim,) * 2)
        assert_canonical(union)
        covered = np.zeros(union.nnz, dtype=bool)
        for t, at in zip((ctx._creation_template(k), ctx._diagonal_template(k),
                          ctx._annihilation_template(k), ctx._leftb_template()), slots):
            np.testing.assert_array_equal(union.rows[at], t.pattern.rows)
            np.testing.assert_array_equal(indices[at], t.pattern.indices)
            covered[at] = True
        assert covered.all()  # and nothing else


def test_sparse_storage_kicks_in(two_point):
    # every operator is a canonical CSR, whatever the dimension of the context
    ctx = build_fock(am.scalar_base(), {0: two_point, 1: two_point}, 3)
    assert isinstance(ctx.identity().matrix, CSR)
    lam = ctx.represent(0, np.array([1.0, -1.0]))
    assert isinstance(lam.matrix, CSR)
    assert isinstance((lam @ lam - ctx.identity()).matrix, CSR)
    for op in (ctx.identity(), lam, lam @ lam - ctx.identity()):
        assert_canonical(op.matrix)
    below = ctx.level_projection_up_to(ctx.max_level - 2)
    assert ((lam @ lam - ctx.identity()) @ below).frobenius() < 1e-12
