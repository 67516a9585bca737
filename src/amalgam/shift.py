"""Free-shift averages on word data and their decay bounds.

The free shift moves every factor index up by one and fixes B pointwise.
Averaging a centered word over n shifts produces a separated family of words
of the same length, so the (2p+1) gamma bound applies and decays like
n^(-1/2). Only the finite window of indices actually touched by an experiment
is instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraWithExpectation, CenteredElement, MatrixStarAlgebra
from .errors import CapacityError, StructureError
from .fock import DEFAULT_MAX_DIM, FockContext, build_fock
from .linalg import DEFAULT_SEED, frobenius
from .words import (
    Word,
    WordFamily,
    family_operator,
    letter_norms,
    norm_lower,
    word_operator,
)


def shift_word(w: Word, k: int) -> Word:
    """Move every letter index up by k; the letters themselves are unchanged."""
    return Word(tuple(CenteredElement(a.owner + k, a.coords) for a in w.letters))


def average_family(w: Word, n: int, family_id: str = "shift-orbit") -> WordFamily:
    """The family of the first n shifted copies of w.

    Index translation is injective, so distinct copies automatically satisfy
    the distinct-first/last-index hypothesis; this is asserted.
    """
    if n < 1:
        raise StructureError("an average needs at least one term")
    fam = WordFamily(tuple(shift_word(w, k) for k in range(n)), family_id)
    assert fam.separation_clash() is None
    return fam


@dataclass(frozen=True)
class ShiftExperiment:
    """A decay experiment: prototype word, average lengths, and truncation."""

    prototype: Word
    n_max: int
    max_level: int

    def __post_init__(self):
        if self.max_level < self.prototype.length:
            raise StructureError(
                "the truncation level must be at least the word length"
            )
        if self.n_max < 1:
            raise StructureError("n_max must be positive")

    @property
    def window(self) -> tuple[int, ...]:
        """All indices touched by the shifted copies of the prototype."""
        idx = self.prototype.indices
        lo, hi = min(idx), max(idx)
        return tuple(range(lo, hi + self.n_max))


@dataclass(frozen=True)
class DecayPoint:
    n: int
    lower: float
    ell2_vacuum: float
    decay_bound: float


@dataclass(frozen=True)
class DecayCurve:
    experiment: ShiftExperiment
    points: tuple[DecayPoint, ...]


def build_shift_context(
    factor: AlgebraWithExpectation,
    base: MatrixStarAlgebra,
    window,
    max_level: int,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FockContext:
    """One Fock context whose factors are copies of the same algebra pair."""
    factors = {i: factor for i in window}
    return build_fock(base, factors, max_level, max_dim=max_dim)


def decay_curve(
    exp: ShiftExperiment,
    factor: AlgebraWithExpectation,
    base: MatrixStarAlgebra,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
    seed: int = DEFAULT_SEED,
) -> DecayCurve:
    """Certified lower bounds and the (2p+1) n^(-1/2) upper bound per n.

    The family of n shifts is the family of n - 1 shifts plus one word, so
    its operator is kept as a running sum, left-folded in the order of
    ``family_operator``: one word operator per n.
    """
    try:
        ctx = build_shift_context(
            factor, base, exp.window, exp.max_level, max_dim=max_dim
        )
    except CapacityError as exc:
        raise CapacityError(
            f"{exc}; shrink the window ({len(exp.window)} indices) or the "
            f"truncation level {exp.max_level}",
            required=exc.required,
        ) from exc
    p = exp.prototype.length
    norms_prod = 1.0
    for nrm in letter_norms(ctx, exp.prototype):
        norms_prod *= nrm
    points = []
    total = None
    for n in range(1, exp.n_max + 1):
        word = word_operator(ctx, shift_word(exp.prototype, n - 1))
        total = word if total is None else total + word
        op = (1.0 / n) * total
        rep = norm_lower(ctx, op, p, seed=seed)
        bound = (2 * p + 1) * norms_prod / np.sqrt(n)
        points.append(
            DecayPoint(
                n=n,
                lower=rep.lower,
                ell2_vacuum=norm_lower(ctx, op, ctx.max_level, seed=seed).lower,
                decay_bound=float(bound),
            )
        )
    return DecayCurve(exp, tuple(points))


@dataclass(frozen=True)
class Mixture:
    """A linear combination of an element of B and finitely many words."""

    b_coords: np.ndarray | None
    terms: tuple[tuple[complex, Word], ...]


@dataclass(frozen=True)
class CesaroResult:
    """The B-component of an n-average plus per-term decay envelopes."""

    expectation: np.ndarray  # B-coordinates
    n: int
    term_upper: tuple[float, ...]
    term_lower: tuple[float, ...]
    residual: float  # distance of the numerical B-component from the exact one


def cesaro_expectation(
    ctx: FockContext,
    a: Mixture,
    n: int,
    *,
    seed: int = DEFAULT_SEED,
) -> CesaroResult:
    """B-component of the n-average of a, averaged term by term.

    Elements of B are fixed by the shift, so their contribution is returned
    exactly; each word term contributes a decaying envelope recorded in the
    result instead of a limit claim.
    """
    db = ctx.base.db
    exact = np.zeros(db, dtype=complex)
    if a.b_coords is not None:
        exact = exact + np.asarray(a.b_coords, dtype=complex)
    uppers, lowers = [], []
    numeric = exact.copy()
    for coeff, w in a.terms:
        fam = average_family(w, n)
        op = (coeff / n) * family_operator(ctx, fam)
        numeric = numeric + ctx.vacuum_expectation(op)
        prod = abs(coeff)
        for nrm in letter_norms(ctx, w):
            prod *= nrm
        uppers.append((2 * w.length + 1) * prod / float(np.sqrt(n)))
        rep = norm_lower(ctx, op, w.length, seed=seed)
        lowers.append(rep.lower)
    residual = float(ctx.base.alg.norm(numeric - exact))
    return CesaroResult(
        expectation=exact,
        n=n,
        term_upper=tuple(uppers),
        term_lower=tuple(lowers),
        residual=residual,
    )


def shift_relabel_check(ctx: FockContext, w: Word) -> float:
    """Residual of shift equivariance at the matrix level.

    Compares the operator of the shifted word with the operator of the word
    itself under the relabeling that moves every index sequence up by one,
    over all summands where both are defined. The residual is the Frobenius
    norm of the difference, an upper bound for the operator norm of each of
    its summand blocks.
    """
    ws = shift_word(w, 1)
    if any(i not in ctx.factors for i in ws.indices):
        raise StructureError("shifted word leaves the context window")
    op = word_operator(ctx, w).matrix
    ops = word_operator(ctx, ws).matrix
    pairs = [(s, ctx.summand(tuple(i + 1 for i in s.seq))) for s in ctx.summands()
             if all(i + 1 in ctx.factors for i in s.seq)]
    if any(s.rank != t.rank for s, t in pairs):
        raise StructureError("the shift changes the rank of a summand")
    coords = [np.concatenate([np.arange(s.offset, s.offset + s.rank) for s in side])
              for side in zip(*pairs)]
    return frobenius(op[coords[0]][:, coords[0]] - ops[coords[1]][:, coords[1]])
