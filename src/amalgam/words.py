"""Words of centered letters and norm estimates for their linear combinations.

A word is an alternating product of centered letters; its operator is the
matrix product of the letter representations. The block decomposition writes
each compression P_r w P_m as an explicit product of creation, diagonal and
annihilation factors, the separated-family bound gives the (2n+1) gamma upper
estimate, and certified lower bounds come from restricting an operator to the
prefix of levels on which truncation cannot alter its action.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import CenteredElement
from .errors import HypothesisError, StructureError, TruncationError
from .fock import FockContext, FockOperator
from .linalg import DEFAULT_SEED, restricted_sigma_max

CENTERING_TOL = 1e-9


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
    """Certified lower bound paired with the corresponding upper estimate."""

    family_id: str
    length: int
    size: int
    max_level: int
    lower: float
    upper: float
    witness_label: str = ""
    witness: np.ndarray | None = field(default=None, repr=False, compare=False)
    seconds: float = 0.0

    @property
    def ratio(self) -> float:
        return self.lower / self.upper if self.upper > 0 else float("nan")


def _check_letters(ctx: FockContext, w: Word):
    for a in w.letters:
        if a.owner not in ctx.factors:
            raise StructureError(f"letter index {a.owner} outside the context window")
        fk = ctx.factors[a.owner]
        resid = fk.spec.subalgebra.norm(fk.spec.apply(a.coords))
        if resid > CENTERING_TOL * max(fk.spec.algebra.norm(a.coords), 1.0):
            raise StructureError(f"letter with owner {a.owner} is not centered")


def word_operator(ctx: FockContext, w: Word) -> FockOperator:
    """Matrix product of the letter representations, leftmost letter first."""
    _check_letters(ctx, w)
    op = ctx.represent(w.letters[0].owner, w.letters[0].coords)
    for a in w.letters[1:]:
        op = op @ ctx.represent(a.owner, a.coords)
    return FockOperator(ctx, op.matrix, "word")


def family_operator(ctx: FockContext, fam: WordFamily) -> FockOperator:
    if not fam.words:
        return ctx.zero()
    op = word_operator(ctx, fam.words[0])
    for w in fam.words[1:]:
        op = op + word_operator(ctx, w)
    return FockOperator(ctx, op.matrix, "family")


def letter_norms(ctx: FockContext, w: Word) -> list[float]:
    return [ctx.factors[a.owner].spec.algebra.norm(a.coords) for a in w.letters]


def _hat(ctx: FockContext, a: CenteredElement) -> np.ndarray:
    fk = ctx.factors[a.owner]
    e, resid = fk.hat_split(a.coords)
    if resid > CENTERING_TOL * max(np.linalg.norm(e), 1.0):
        raise StructureError("hat of a centered letter leaks into the B-summand")
    return e


def _hat_dag(ctx: FockContext, a: CenteredElement) -> np.ndarray:
    fk = ctx.factors[a.owner]
    adj = fk.spec.algebra.adjoint_coords(a.coords)
    e, _ = fk.hat_split(adj)
    return e


def block_decomposition(ctx: FockContext, w: Word, m: int, r: int) -> FockOperator:
    """P_r w P_m written with creation, diagonal and annihilation factors only.

    The level difference fixes the split: with n the word length, r outside
    [|m - n|, m + n] gives zero; r = m + n - 2s gives a creation chain of
    length n - s followed by s annihilators; r = m + n - 2s + 1 inserts one
    first-slot diagonal factor between the chains. Requires m + n <= M so
    truncation cannot alter either side.
    """
    n = w.length
    if m + n > ctx.max_level:
        raise TruncationError(
            f"m + n = {m + n} exceeds the truncation level {ctx.max_level}; "
            "the identity is not exact there"
        )
    if not (0 <= m <= ctx.max_level and 0 <= r <= ctx.max_level):
        raise TruncationError("block levels outside the context")
    _check_letters(ctx, w)
    if r > m + n or r < abs(m - n):
        return ctx.zero()
    p_m = ctx.level_projection(m)
    diff = (m + n) - r
    if diff % 2 == 0:
        s = diff // 2
        if not (0 <= s <= min(m, n)):
            return ctx.zero()
        ops = [ctx.creation(w.letters[j].owner, _hat(ctx, w.letters[j]))
               for j in range(n - s)]
        ops += [ctx.creation(w.letters[j].owner, _hat_dag(ctx, w.letters[j])).H
                for j in range(n - s, n)]
    else:
        s = (diff + 1) // 2
        if not (1 <= s <= min(m, n)):
            return ctx.zero()
        ops = [ctx.creation(w.letters[j].owner, _hat(ctx, w.letters[j]))
               for j in range(n - s)]
        mid = w.letters[n - s]
        ops.append(ctx.diagonal_action(mid.owner, mid.coords))
        ops += [ctx.creation(w.letters[j].owner, _hat_dag(ctx, w.letters[j])).H
                for j in range(n - s + 1, n)]
    out = ops[0]
    for op in ops[1:]:
        out = out @ op
    return FockOperator(ctx, (out @ p_m).matrix, f"block[{r},{m}]")


def ladder_identity_residual(ctx: FockContext, w: Word, m: int) -> float:
    """Operator-norm residual of w P_m against the sum of all its blocks."""
    n = w.length
    if m + n > ctx.max_level:
        raise TruncationError(
            f"m + n = {m + n} exceeds the truncation level {ctx.max_level}"
        )
    total = ctx.zero()
    for r in range(0, ctx.max_level + 1):
        total = total + block_decomposition(ctx, w, m, r)
    direct = word_operator(ctx, w) @ ctx.level_projection(m)
    return (direct - total).norm()


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
    n = fam.length
    gamma_sq = 0.0
    for w in fam.words:
        prod = 1.0
        for nrm in letter_norms(ctx, w):
            prod *= nrm * nrm
        gamma_sq += prod
    return (2 * n + 1) * float(np.sqrt(gamma_sq))


def norm_lower(
    ctx: FockContext,
    x: FockOperator,
    spread: int,
    upper: float = float("inf"),
    family_id: str = "op",
    size: int = 1,
    seed: int = DEFAULT_SEED,
) -> NormReport:
    """Certified lower bound for the untruncated operator norm.

    Restricts x to the prefix of levels 0..M-spread, where a level spread of
    ``spread`` cannot reach the truncation boundary, and takes the largest
    singular value of that exact restriction.
    """
    if spread > ctx.max_level:
        raise TruncationError(
            f"level spread {spread} exceeds the truncation level {ctx.max_level}"
        )
    t0 = time.perf_counter()
    dom = ctx.prefix_dim(ctx.max_level - spread)
    restricted = x.matrix[:, :dom]
    sigma, witness = restricted_sigma_max(restricted, seed=seed)
    label = ""
    if witness.size:
        label = str(ctx.label_of_coordinate(int(np.argmax(np.abs(witness)))))
    return NormReport(
        family_id=family_id,
        length=spread,
        size=size,
        max_level=ctx.max_level,
        lower=float(sigma),
        upper=float(upper),
        witness_label=label,
        witness=witness,
        seconds=time.perf_counter() - t0,
    )


def family_report(
    ctx: FockContext, fam: WordFamily, seed: int = DEFAULT_SEED
) -> NormReport:
    """Certified lower bound against the separated-family upper bound."""
    op = family_operator(ctx, fam)
    upper = haagerup_upper(fam, ctx)
    return norm_lower(
        ctx,
        op,
        fam.length,
        upper=upper,
        family_id=fam.family_id,
        size=len(fam.words),
        seed=seed,
    )


def block_lower(
    ctx: FockContext,
    x: FockOperator,
    spread: int,
    m: int,
    r: int,
    seed: int = DEFAULT_SEED,
) -> float:
    """Largest singular value of P_r x P_m on the exact domain of level m."""
    if m + spread > ctx.max_level:
        raise TruncationError("block outside the exact domain")
    start, end = ctx.level_range(m)
    rs, re = ctx.level_range(r)
    restricted = x.matrix[rs:re, start:end]
    sigma, _ = restricted_sigma_max(restricted, seed=seed)
    return float(sigma)


def family_to_json(fam: WordFamily) -> dict:
    """Word-family spec: letters by algebra-basis coordinates."""
    return {
        "id": fam.family_id,
        "words": [
            {
                "indices": [int(i) for i in w.indices],
                "letters": [
                    [[float(z.real), float(z.imag)] for z in a.coords]
                    for a in w.letters
                ],
            }
            for w in fam.words
        ],
    }


def family_from_json(obj) -> WordFamily:
    """Load a WordFamily; centering is validated when operators are built."""
    words = []
    for spec in obj["words"]:
        letters = []
        for owner, pairs in zip(spec["indices"], spec["letters"]):
            coords = np.array([complex(re, im) for re, im in pairs])
            letters.append(CenteredElement(int(owner), coords))
        words.append(Word(tuple(letters)))
    return WordFamily(tuple(words), obj.get("id", "family"))
