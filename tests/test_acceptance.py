"""Acceptance suite: every inequality as a certified-lower vs upper comparison.

Each test prints one line; running with ``pytest -s tests/test_acceptance.py``
shows the full scoreboard.
"""

import time

import numpy as np
import pytest

import amalgam as am
from amalgam.cli import _factor_context, run_config
from amalgam.freegroup import parse_word, shift_average_group
from amalgam.gns import ModuleVector, inner_product, module_norm
from amalgam.shift import (
    Mixture,
    ShiftExperiment,
    build_shift_context,
    cesaro_expectation,
    decay_curve,
)
from amalgam.words import (
    block_lower,
    family_operator,
    haagerup_upper,
    ladder_identity_residuals,
    letter_norms,
    norm_lower,
    random_separated_family,
    random_word,
)
from conftest import sign_letter, spectral_norm

SEED = 0xC0FFEE


def _report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}  ({elapsed:.1f}s)")


# -- criterion 1: the word-block ladder identity ----------------------------


def test_criterion_1_ladder_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    total = 0
    worst = 0.0
    for config, count in (("two-point-2", 34), ("two-point-3", 33), ("m2-diag", 33)):
        ctx = _factor_context(config, 6, max_dim=20000)
        for _ in range(count):
            n = int(rng.integers(1, 5))
            w = random_word(ctx, n, rng)
            scale = float(np.prod(letter_norms(ctx, w)))
            [residuals] = ladder_identity_residuals(ctx, [w])
            assert len(residuals) == 6 - n + 1  # one per level m = 0..M-n
            for resid in residuals:
                assert resid < 1e-8 * scale
                worst = max(worst, resid / scale)
            total += 1
    elapsed = time.perf_counter() - t0
    assert total == 100
    assert elapsed < 60.0
    _report(1, f"100 words, worst scaled residual {worst:.2e}", elapsed)


# -- criteria 2 and 3: separated families at M = 6 ---------------------------


@pytest.fixture(scope="module")
def family_sweep():
    t0 = time.perf_counter()
    ctx = _factor_context("two-point-6", 6, max_dim=30000)
    rng = np.random.default_rng(SEED)
    families = []
    for j in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        families.append(random_separated_family(ctx, n, k, rng, f"fam{j}"))
    # the composition of haagerup-sweep: one operator per family, reused below
    checks = []
    for fam in families:
        upper = haagerup_upper(fam, ctx)
        op = family_operator(ctx, fam)
        checks.append((op, norm_lower(ctx, op, fam.length, seed=SEED).lower, upper))
    elapsed = time.perf_counter() - t0
    return ctx, families, checks, elapsed


def test_criterion_2_separated_family_bound(family_sweep):
    ctx, families, checks, elapsed = family_sweep
    ratios = []
    for _, lower, upper in checks:
        assert lower <= upper * (1 + 1e-12)
        ratios.append(lower / upper)
    assert len(checks) == 50
    assert elapsed < 120.0
    _report(
        2,
        f"50 families, lower/upper ratios in [{min(ratios):.3f}, {max(ratios):.3f}]",
        elapsed,
    )


def test_criterion_3_block_bounds(family_sweep):
    ctx, families, checks, _ = family_sweep
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for fam, (op, _, upper) in zip(families, checks):
        n = fam.length
        gamma = upper / (2 * n + 1)
        for m in range(0, ctx.max_level - n + 1):
            for r in range(abs(m - n), min(m + n, ctx.max_level) + 1):
                sigma = block_lower(ctx, op, n, m, r, seed=SEED)
                if sigma ** 2 > gamma ** 2 * (1 + 1e-12):
                    violations += 1
                worst = max(worst, sigma / gamma if gamma > 0 else 0.0)
    assert violations == 0
    _report(
        3,
        f"all block norms within gamma, worst sigma/gamma {worst:.3f}",
        time.perf_counter() - t0,
    )


# -- criterion 4: free-shift decay ------------------------------------------


def test_criterion_4_shift_decay():
    t0 = time.perf_counter()
    two_point = am.function_algebra_with_state(2)
    base = am.scalar_base()
    for p in (1, 2):
        proto = am.Word(tuple(sign_letter(i) for i in range(p)))
        exp = ShiftExperiment(proto, n_max=16, max_level=2)
        curve = decay_curve(exp, two_point, base, seed=SEED)
        for pt in curve.points:
            assert pt.lower <= (2 * p + 1) / np.sqrt(pt.n) * (1 + 1e-12)
            if p == 1:
                assert abs(pt.ell2_vacuum - 1.0 / np.sqrt(pt.n)) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(4, "p in {1,2}, n up to 16, all below (2p+1)/sqrt(n)", elapsed)


# -- criterion 5: free group shift averages ----------------------------------


def test_criterion_5_group_shift_sandwich():
    t0 = time.perf_counter()
    g0 = parse_word("g0")
    for n in (1, 4, 9, 16):
        rep = shift_average_group(g0, n, 8, seed=SEED)
        ell2 = 1.0 / np.sqrt(n)
        assert abs(rep.ell2 - ell2) < 1e-12
        assert rep.lower >= ell2 * (1 - 1e-12)
        assert rep.lower <= 2.0 / np.sqrt(n) * (1 + 1e-12)
        assert abs(rep.upper - 2.0 / np.sqrt(n)) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, "n in {1,4,9,16}: certified lower inside [1/sqrt(n), 2/sqrt(n)]", elapsed)


# -- criterion 6: operator-calculus unit identities ---------------------------


def test_criterion_6_unit_identities(ctx_two2, ctx_m2diag):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for ctx in (ctx_two2, ctx_m2diag):
        k = ctx.order[0]
        fk = ctx.factors[k]
        y = ModuleVector(
            fk.mod,
            fk.e_basis @ (rng.standard_normal(fk.e_dim) + 1j * rng.standard_normal(fk.e_dim)),
        )
        psi = ctx.creation(k, y)
        q = ctx.first_slot_projection(k)
        ident = ctx.identity()
        below = ctx.level_projection_up_to(ctx.max_level - 1)

        rhs = ctx.left_b_action(inner_product(fk.mod, y, y)) @ (ident - q)
        assert ((psi.H @ psi - rhs) @ below).frobenius() < 1e-9
        assert abs(spectral_norm(psi) - module_norm(fk.mod, y)) < 1e-9
        assert (ctx.diagonal_action(k, fk.spec.algebra.unit_coords) - q).frobenius() < 1e-9
        assert (ctx.represent(k, fk.spec.algebra.unit_coords) - ident).frobenius() < 1e-9
        for m in range(ctx.max_level + 1):
            p = ctx.level_projection(m)
            assert (q @ p - p @ q).frobenius() < 1e-9
        assert (psi.H @ ctx.level_projection(0)).frobenius() < 1e-9
    _report(6, "six unit identities on both contexts at 1e-9", time.perf_counter() - t0)


# -- criterion 7: Cesaro expectation sanity -----------------------------------


def test_criterion_7_cesaro():
    t0 = time.perf_counter()
    two_point = am.function_algebra_with_state(2)
    ctx = build_shift_context(
        two_point, am.scalar_base(), range(0, 16), 2
    )
    b = np.array([0.3 + 0.8j])
    for n in (1, 2, 5, 9, 16):
        res = cesaro_expectation(ctx, Mixture(b, ()), n)
        np.testing.assert_allclose(res.expectation, b, atol=0)
        assert res.residual < 1e-12
    word = am.Word((sign_letter(0),))
    mix = Mixture(None, ((1.0, word),))
    res4 = cesaro_expectation(ctx, mix, 4)
    res16 = cesaro_expectation(ctx, mix, 16)
    assert abs(res4.term_upper[0] / res16.term_upper[0] - 2.0) < 1e-12
    _report(7, "B fixed exactly; word envelope halves from n to 4n", time.perf_counter() - t0)


# -- criterion 8: determinism --------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = [
        {
            "kind": "ergodic-decay",
            "parameters": {"p": 1, "n_max": 8, "M": 2},
            "output": "decay",
        },
        {
            "kind": "lemma-check",
            "parameters": {"config": "two-point-2", "M": 5, "words": 10, "n_max": 3},
            "output": "lemma",
        },
        {
            "kind": "group-shift",
            "parameters": {"word": "g0", "ns": [1, 4], "R": 5},
            "output": "gshift",
        },
    ]
    for config in configs:
        run_config(config, out_dir=tmp_path / "a")
        run_config(config, out_dir=tmp_path / "b")
        name = config["output"] + ".csv"
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    _report(8, "three suites byte-identical across repeated runs", time.perf_counter() - t0)
