"""Words of centered letters and norm estimates for their linear combinations.

A word is an alternating product of centered letters; its operator is the
matrix product of the letter representations. The block decomposition writes
each compression P_r w P_m as a chain of creation, diagonal and annihilation
factors taken from the letters' parts (``FockContext.letter_parts``); a chain
depends only on the level difference m + n - r. The separated-family bound
gives the (2n+1) gamma upper estimate, and certified lower bounds come from
restricting an operator to the prefix of levels on which truncation cannot
alter its action. The ladder identity is checked on direct sums of one
module copy per word, each built by ``CSR.from_coo`` from shifted entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import reduce
from operator import matmul

import numpy as np

from .algebra import AlgebraWithExpectation, CenteredElement, center
from .errors import HypothesisError, StructureError, TruncationError
from .fock import FockContext, FockOperator, LetterParts
from .linalg import CSR, DEFAULT_SEED, csr_sum, frobenius, restricted_sigma_max

CENTERING_TOL = 1e-9  # times max(||a||, 1) >= 1, so ||a|| matters only above it


@dataclass(frozen=True)
class Word:
    """An alternating sequence of centered letters."""

    letters: tuple[CenteredElement, ...]

    def __post_init__(self):
        if len(self.letters) < 1:
            raise StructureError("a word needs at least one letter")
        idx = self.indices
        for j in range(len(idx) - 1):
            if idx[j] == idx[j + 1]:
                raise StructureError(
                    f"letters {j} and {j + 1} share the factor index {idx[j]}"
                )

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(a.owner for a in self.letters)

    @property
    def length(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class WordFamily:
    """A finite family of words of a common length, summed with coefficient one."""

    words: tuple[Word, ...]
    family_id: str = "family"

    def __post_init__(self):
        lengths = {w.length for w in self.words}
        if len(lengths) > 1:
            raise StructureError(f"mixed word lengths {sorted(lengths)} in one family")

    @property
    def length(self) -> int:
        return self.words[0].length if self.words else 0

    def separation_clash(self):
        """First pair violating the distinct-first/last-index hypothesis, if any."""
        for a in range(len(self.words)):
            for b in range(a + 1, len(self.words)):
                ka, kb = self.words[a].indices, self.words[b].indices
                if ka == kb:
                    return a, b
                if ka[0] == kb[0] or ka[-1] == kb[-1]:
                    return a, b
        return None


@dataclass(frozen=True)
class NormReport:
    """A certified lower bound ``lower = ||x v||`` with its unit witness v on
    the exact domain, the Fock label of v's largest coordinate, and the
    seconds the solve took."""

    lower: float
    witness_label: str = ""
    witness: np.ndarray | None = field(default=None, repr=False, compare=False)
    seconds: float = 0.0


def is_centered(spec: AlgebraWithExpectation, coords) -> bool:
    """Whether E(a) vanishes, to CENTERING_TOL times max(||a||, 1)."""
    resid = spec.subalgebra.norm(spec.apply(coords))
    return resid <= CENTERING_TOL or resid <= CENTERING_TOL * spec.algebra.norm(coords)


def _check_letters(ctx: FockContext, w: Word):
    for a in w.letters:
        if a.owner not in ctx.factors:
            raise StructureError(f"letter index {a.owner} outside the context window")
        if not is_centered(ctx.factors[a.owner].spec, a.coords):
            raise StructureError(f"letter with owner {a.owner} is not centered")


def word_operator(ctx: FockContext, w: Word) -> FockOperator:
    """Matrix product of the letter representations, leftmost letter first."""
    _check_letters(ctx, w)
    return reduce(matmul, (ctx.represent(a.owner, a.coords) for a in w.letters))


def family_operator(ctx: FockContext, fam: WordFamily) -> FockOperator:
    """The sum of the word operators, left-folded in the family's order."""
    if not fam.words:
        return ctx.zero()
    return FockOperator(ctx, csr_sum([word_operator(ctx, w).matrix for w in fam.words]))


def letter_norms(ctx: FockContext, w: Word) -> list[float]:
    return [ctx.factors[a.owner].spec.algebra.norm(a.coords) for a in w.letters]


def _direct_sum(blocks, dim: int) -> CSR | None:
    """Block-diagonal CSR of the dim x dim blocks, None for an empty block, or
    None when every block is: the COO build of their entries, shifted along
    the diagonal. A canonical CSR is unique, so each block keeps its stored
    order, and a product or sum on the direct sum forms every block's
    entries in the same order as on the block alone."""
    shifted = [(b.matrix.rows + k * dim, b.matrix.indices + k * dim, b.matrix.data)
               for k, b in enumerate(blocks) if b is not None]
    if not shifted:
        return None
    rows, cols, values = (np.concatenate(a) for a in zip(*shifted))
    return CSR.from_coo(rows, cols, values, (len(blocks) * dim,) * 2)


def _ladder_factors(ctx: FockContext, words: list[Word]):
    """The parts of each letter, split once, as ``LetterParts`` whose fields
    hold the direct sum over the words (all of one length n) of their k-th
    letter's part, one module copy per word, and the left-folded creation
    prefixes up[k] = psi(a_0) ... psi(a_{k-1}) (up[0] is None)."""
    split = [[ctx.letter_parts(a.owner, a.coords) for a in w.letters] for w in words]
    parts = [LetterParts(*(_direct_sum(blocks, ctx.total_dim) for blocks in zip(*column)))
             for column in zip(*split)]
    up = [None, parts[0].creation]
    for p in parts[1:]:
        up.append(up[-1] @ p.creation)
    return parts, up


def _chain(factors, d: int) -> CSR:
    """The chain of level difference d, which maps level m to level m + n - d.

    With s = ceil(d / 2), it is the creation prefix of the first n - s letters
    followed by the annihilators of the last s; for odd d the first of those
    acts by its first-slot diagonal instead. On level m it is the block
    P_{m+n-d} w P_m for 0 <= d <= 2 min(m, n). For larger d it has no entries
    there: its last m annihilators reach level 0, which the next factor kills.
    """
    parts, up = factors
    n = len(parts)
    s = (d + 1) // 2  # letters after the creation prefix
    tail = [p.annihilation for p in parts[n - s:]]
    if d % 2:
        tail[0] = parts[n - s].diagonal
    return reduce(matmul, ([up[n - s]] if s < n else []) + tail)


def ladder_identity_residuals(ctx: FockContext, words: list[Word]) -> list[list[float]]:
    """For each word w, in input order, the residuals of w P_m against the sum
    of all its blocks for m = 0..M-n, each the Frobenius norm of the
    difference: an upper bound for its operator norm.

    Every word's length and letters are checked before any product is built.
    The words are then grouped by length, and each group is taken in batches
    of at most max(1, max_dim // total_dim) words: a batch is one direct sum
    with a module copy per word, no larger than one context may be. On it,
    the difference D = w - sum_d chain_d over d = 0..2 min(M-n, n) is built
    once, from each letter's parts. The level-m columns of a word's diagonal
    block of D are those of w P_m minus the sum of its blocks, entry for
    entry: the chains reach disjoint levels, and those of d > 2 min(m, n)
    have no entries there. A block forms its entries by the same products in
    the same order as a batch of that word alone, so the residuals do not
    depend on the batch.
    """
    for w in words:
        if w.length > ctx.max_level:
            raise TruncationError(
                f"word length {w.length} exceeds the truncation level {ctx.max_level}")
    for w in words:
        _check_letters(ctx, w)  # once here, not once per block
    by_length: dict[int, list[int]] = {}
    for j, w in enumerate(words):
        by_length.setdefault(w.length, []).append(j)
    cap = max(1, ctx.max_dim // ctx.total_dim)
    out: list[list[float]] = [[] for _ in words]
    for group in by_length.values():
        for b in range(0, len(group), cap):
            batch = group[b:b + cap]
            for j, residuals in zip(batch, _ladder_residuals(ctx, [words[j] for j in batch])):
                out[j] = residuals
    return out


def _ladder_residuals(ctx: FockContext, words: list[Word]) -> list[list[float]]:
    """The residuals of one batch of words of a common length.

    Residual (k, m) is the Frobenius norm of the level-m columns of word k's
    diagonal block of the difference. The difference is canonical, so the
    entries of each such block come in row-major order, the order in which
    ``frobenius`` reads that block as a sparse slice, and the value is the
    same.
    """
    n, top, dim = words[0].length, ctx.max_level - words[0].length, ctx.total_dim
    factors = _ladder_factors(ctx, words)
    word = reduce(matmul, (p.total() for p in factors[0]))
    chains = csr_sum([_chain(factors, d) for d in range(2 * min(top, n) + 1)])
    delta = word - chains
    copy, col = np.divmod(delta.indices, dim)  # the word and column of each entry
    level = ctx.level_of(col)
    exact = level <= top
    key = (copy * (top + 1) + level)[exact]
    entries = delta.data[exact][np.argsort(key, kind="stable")]
    cuts = np.cumsum(np.bincount(key, minlength=len(words) * (top + 1)))[:-1]
    residuals = [frobenius(block) for block in np.split(entries, cuts)]
    return [residuals[k * (top + 1):(k + 1) * (top + 1)] for k in range(len(words))]


def haagerup_upper(fam: WordFamily, ctx: FockContext) -> float:
    """(2n+1) gamma with gamma^2 the sum over the family of squared letter-norm
    products. Requires the distinct-first/last-index hypothesis."""
    clash = fam.separation_clash()
    if clash is not None:
        a, b = clash
        raise HypothesisError(
            f"words {fam.words[a].indices} and {fam.words[b].indices} clash on "
            "their first or last index"
        )
    gamma_sq = 0.0
    for w in fam.words:
        gamma_sq += math.prod(nrm * nrm for nrm in letter_norms(ctx, w))
    return (2 * fam.length + 1) * float(np.sqrt(gamma_sq))


def _exact_domain(ctx: FockContext, x: FockOperator, spread: int) -> CSR:
    """The columns of x on levels 0..M-spread, where a level spread of
    ``spread`` cannot reach the truncation boundary."""
    if spread > ctx.max_level:
        raise TruncationError(
            f"level spread {spread} exceeds the truncation level {ctx.max_level}"
        )
    return x.matrix[:, :ctx.prefix_dim(ctx.max_level - spread)]


def norm_lower(
    ctx: FockContext,
    x: FockOperator,
    spread: int,
    seed: int = DEFAULT_SEED,
) -> NormReport:
    """Certified lower bound for the untruncated operator norm.

    Restricts x to the prefix of levels 0..M-spread, where a level spread of
    ``spread`` cannot reach the truncation boundary, and takes the largest
    singular value of that exact restriction. The upper bound to compare it
    with is the caller's, for example ``haagerup_upper`` of a family.
    """
    t0 = time.perf_counter()
    sigma, witness = restricted_sigma_max(_exact_domain(ctx, x, spread), seed=seed)
    label = ""
    if witness.size:
        label = str(ctx.label_of_coordinate(int(np.argmax(np.abs(witness)))))
    return NormReport(
        lower=float(sigma),
        witness_label=label,
        witness=witness,
        seconds=time.perf_counter() - t0,
    )


def worst_block_lower(
    ctx: FockContext,
    x: FockOperator,
    spread: int,
    seed: int = DEFAULT_SEED,
) -> float:
    """Largest singular value of the blocks P_r x P_m, m = 0..M-spread, in one
    solve: that of their direct sum.

    Entry (i, j) of x on the exact domain, with i in level r and j in level
    m, moves to row (m, i) and column (r, j) of the direct sum Y; empty rows
    and columns are dropped in order. The blocks of Y touch disjoint rows
    and columns, so ``||Y||`` is the largest block norm, and the solver's
    ``||Y v||`` is a certified lower for it.
    """
    restricted = _exact_domain(ctx, x, spread)
    i, j = restricted.rows, restricted.indices
    m, r = ctx.level_of(j), ctx.level_of(i)
    rows, i = np.unique(m * x.matrix.shape[0] + i, return_inverse=True)
    cols, j = np.unique(r * restricted.shape[1] + j, return_inverse=True)
    blocks = CSR.from_coo(i, j, restricted.data, (rows.size, cols.size))
    sigma, _ = restricted_sigma_max(blocks, seed=seed)
    return float(sigma)


def _random_letter(ctx: FockContext, i: int, rng) -> CenteredElement:
    spec = ctx.factors[i].spec
    dim = spec.algebra.dim
    while True:
        coords = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        letter = center(spec, coords, owner=i)
        if spec.algebra.norm(letter.coords) > 1e-6:
            return letter


def random_word(ctx: FockContext, n: int, rng) -> Word:
    """A word of n random centered letters on the context's factors."""
    order = list(ctx.order)
    idx = [order[rng.integers(len(order))]]
    while len(idx) < n:
        nxt = order[rng.integers(len(order))]
        if nxt != idx[-1]:
            idx.append(nxt)
    return Word(tuple(_random_letter(ctx, i, rng) for i in idx))


def random_separated_family(ctx: FockContext, n: int, k: int, rng,
                            family_id: str) -> WordFamily:
    """k words of length n with distinct first and distinct last indices."""
    order = [int(i) for i in ctx.order]
    firsts = [order[j] for j in rng.permutation(len(order))[:k]]
    if n == 1:
        words = [Word((_random_letter(ctx, f, rng),)) for f in firsts]
        return WordFamily(tuple(words), family_id)
    # redraw the lasts until each pair (first, last) admits an alternating
    # word of length n: on two factors it ends where it starts exactly when
    # n is odd, on more only length 2 forbids first == last
    two = len(order) == 2
    while True:
        lasts = [order[j] for j in rng.permutation(len(order))[:k]]
        if all((f == l) == (n % 2 == 1) if two else n > 2 or f != l
               for f, l in zip(firsts, lasts)):
            break
    words = []
    for f, l in zip(firsts, lasts):
        idx = [f]
        while len(idx) < n - 1:
            nxt = order[int(rng.integers(len(order)))]
            if nxt != idx[-1] and (n - len(idx) > 2 or nxt != l):
                idx.append(nxt)
        idx.append(l)
        words.append(Word(tuple(_random_letter(ctx, i, rng) for i in idx)))
    return WordFamily(tuple(words), family_id)

