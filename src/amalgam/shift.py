"""Free-shift averages on word data and their decay bounds.

The free shift moves every factor index up by one and fixes B pointwise.
Averaging a centered word over n shifts produces a separated family of words
of the same length, so the (2p+1) gamma bound applies and decays like
n^(-1/2); the averages of x = b + sum_j c_j w_j therefore tend to E_B(x) = b.
Only the finite window of indices actually touched by an experiment is
instantiated. On it the shift of a word by k is a cyclic relabelling of
identical factors, and ``FockContext.permutation`` carries it to the Fock
coordinates exactly: the operator of the shifted word is the permuted
operator of the word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from .algebra import AlgebraWithExpectation, CenteredElement, MatrixStarAlgebra
from .errors import CapacityError, StructureError
from .fock import DEFAULT_MAX_DIM, FockContext, build_fock
from .linalg import DEFAULT_SEED, frobenius
from .words import Word, letter_norms, norm_lower, word_operator


def shift_word(w: Word, k: int) -> Word:
    """Move every letter index up by k; the letters themselves are unchanged."""
    return Word(tuple(CenteredElement(a.owner + k, a.coords) for a in w.letters))


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
class Mixture:
    """A linear combination of an element of B and finitely many words."""

    b_coords: np.ndarray | None
    terms: tuple[tuple[complex, Word], ...]


@dataclass(frozen=True)
class DecayPoint:
    """One average length n of a mixture x = b + sum_j c_j w_j: the certified
    lowers of ``||avg_n x - E_B(x)||`` on the exact domain and on level zero,
    the envelope ``sum_j |c_j| (2p_j+1) prod ||a|| / sqrt(n)`` above them, and
    the Frobenius residual of the exact identity ``E_B(avg_n x) = E_B(x)``."""

    n: int
    lower: float
    ell2_vacuum: float
    decay_bound: float
    residual: float


def build_shift_context(
    factor: AlgebraWithExpectation,
    base: MatrixStarAlgebra,
    window,
    max_level: int,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FockContext:
    """One Fock context whose factors are copies of the same algebra pair."""
    factors = dict.fromkeys(window, factor)
    try:
        return build_fock(base, factors, max_level, max_dim=max_dim)
    except CapacityError as exc:
        raise CapacityError(
            f"{exc}; shrink the window ({len(factors)} indices) or the "
            f"truncation level {max_level}",
            required=exc.required,
        ) from exc


def _orbit_sums(ctx: FockContext, w: Word, n: int):
    """Running sums of the operators of w's shifted copies: the k-th, for
    k = 1..n, is the sum over the first k copies, left-folded as in
    ``family_operator``, and costs one word operator more than the one before."""
    return accumulate(word_operator(ctx, shift_word(w, k)) for k in range(n))


def _decay_scale(ctx: FockContext, w: Word) -> float:
    """(2p+1) times the letter-norm product of w: its decay bound times sqrt(n)."""
    return (2 * w.length + 1) * math.prod(letter_norms(ctx, w))


def decay_curve(
    ctx: FockContext,
    x: Mixture,
    n_max: int,
    *,
    seed: int = DEFAULT_SEED,
) -> tuple[DecayPoint, ...]:
    """The decay point of every n <= n_max, from one running orbit sum per
    word: a curve over k words costs k n_max word operators.

    The shift fixes B pointwise and E_B kills every centered word, so
    ``avg_n x - E_B(x)`` is the average of the word terms alone, and the
    certified lowers are taken on it. ``E_B(avg_n x)`` is read off the
    vacuum, with b acting through its Fock representation.
    """
    if n_max < 1:
        raise StructureError("an average needs at least one term")
    fixed = 0.0  # E_B(b) - b: the part of E_B(avg_n x) - E_B(x) that n leaves alone
    if x.b_coords is not None:
        fixed = ctx.vacuum_expectation(ctx.left_b_action(x.b_coords)) - x.b_coords
    spread = max((w.length for _, w in x.terms), default=0)
    envelope = sum(abs(c) * _decay_scale(ctx, w) for c, w in x.terms)
    sums = [_orbit_sums(ctx, w, n_max) for _, w in x.terms]
    points = []
    for n in range(1, n_max + 1):
        parts = [(c / n) * next(s) for (c, _), s in zip(x.terms, sums)]
        op = reduce(add, parts) if parts else ctx.zero()
        drift = fixed + ctx.vacuum_expectation(op)
        points.append(
            DecayPoint(
                n=n,
                lower=norm_lower(ctx, op, spread, seed=seed).lower,
                ell2_vacuum=norm_lower(ctx, op, ctx.max_level, seed=seed).lower,
                decay_bound=envelope / math.sqrt(n),
                residual=frobenius(ctx.base.matrix(drift)),
            )
        )
    return tuple(points)

