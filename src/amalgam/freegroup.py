"""Reduced words, Cayley balls and convolution operators for free groups.

Generators are indexed by integers; only the finite window touched by an
experiment is instantiated. The left regular representation is truncated to a
ball of reduced words: convolution from the sub-ball of radius R - p into the
full ball is exact, so its largest singular value is a certified lower bound
for the true operator norm.

Words enter as `ReducedWord` tuples of (generator, exponent) letters. A ball
lists no words: it is its offset table. Letter (g, e) of the window has code
a = 2 pos(g) + (e == -1), so its inverse is a ^ 1, and the words of a length
are ordered lexicographically in the codes: breadth-first, generator
ascending, +1 before -1. A word's rank among those of its length is its
mixed-radix code in radix (2d, 2d - 1, ..., 2d - 1), where each later digit
skips the inverse of the letter before it, and its ball index is that rank
plus the number of shorter words. Convolution carries every domain word as
its (length, rank) and applies each term's letters to all of them at once by
integer arithmetic on the ranks.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, StructureError
from .linalg import CSR, DEFAULT_SEED, restricted_sigma_max

DEFAULT_MAX_BALL = 200000

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)


@dataclass(frozen=True)
class ReducedWord:
    letters: tuple[Letter, ...]

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return reduce_word(self.letters + other.letters)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def shifted(self, k: int) -> "ReducedWord":
        return ReducedWord(tuple((g + k, e) for g, e in self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(f"g{g}" if e == 1 else f"g{g}^-1" for g, e in self.letters)


IDENTITY = ReducedWord(())


def reduce_word(letters) -> ReducedWord:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs."""
    out: list[Letter] = []
    for g, e in letters:
        if e not in (1, -1):
            raise StructureError(f"exponent {e} is not +1 or -1")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return ReducedWord(tuple(out))


def word_length(w: ReducedWord) -> int:
    return len(w.letters)


_TOKEN = _re.compile(r"^g(-?\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> ReducedWord:
    """Parse the literal syntax 'g0 g1^-1 g0' into a reduced word."""
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ConfigError(f"cannot parse word token {token!r}")
        g = int(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        sign = 1 if power >= 0 else -1
        letters.extend([(g, sign)] * abs(power))
    return reduce_word(letters)


class GroupFunction:
    """A finitely supported function on reduced words."""

    def __init__(self, terms: dict[ReducedWord, complex] | None = None):
        self.terms: dict[ReducedWord, complex] = {}
        for w, c in (terms or {}).items():
            if c != 0:
                self.terms[w] = self.terms.get(w, 0.0) + complex(c)

    @staticmethod
    def delta(w: ReducedWord, coeff: complex = 1.0) -> "GroupFunction":
        return GroupFunction({w: coeff})

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return GroupFunction(out)

    def ell2(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.terms.values())))

    def support_lengths(self) -> set[int]:
        return {word_length(w) for w in self.terms}

    def touched_generators(self) -> tuple[int, ...]:
        gens = {g for w in self.terms for g, _ in w.letters}
        return tuple(sorted(gens))


def rd_norm(f: GroupFunction, s: float) -> float:
    """Length-weighted ell2 norm (sum |f(g)|^2 (1 + |g|)^(2s))^(1/2)."""
    total = 0.0
    for w, c in f.terms.items():
        total += abs(c) ** 2 * (1.0 + word_length(w)) ** (2 * s)
    return float(np.sqrt(total))


def _level_sizes(num_generators: int, radius: int) -> list[int]:
    """Number of reduced words of each length 0..radius over d generators."""
    a = 2 * num_generators
    return [1] + [a * (a - 1) ** (ell - 1) for ell in range(1, radius + 1)]


def ball_size(num_generators: int, radius: int) -> int:
    """Number of reduced words of length at most radius over d generators:
    the sum of the level sizes, in closed form, so that a long radius costs
    one power."""
    a = 2 * num_generators
    if a <= 2:
        return 1 + a * radius
    return 1 + a * ((a - 1) ** radius - 1) // (a - 2)


def no_ball_fits(num_generators: int, p: int, max_ball: int) -> CapacityError:
    """The refusal of a function of length p whose ball does not fit."""
    return CapacityError(f"no ball of radius >= {p} over {num_generators} generators "
                         f"fits under the cap {max_ball}")


@dataclass(frozen=True)
class BallBasis:
    """The reduced words of length <= radius, as their offset table: the words
    of length L have ball indices offset[L]:offset[L + 1], in rank order."""

    radius: int
    window: tuple[int, ...]
    offset: np.ndarray  # (radius + 2,)

    def __len__(self) -> int:
        return int(self.offset[-1])


def build_ball(window, radius: int, max_size: int = DEFAULT_MAX_BALL) -> BallBasis:
    """The ball over the sorted window, its level sizes from the growth formula."""
    window = tuple(sorted(set(window)))
    sizes = _level_sizes(len(window), radius)
    expected = sum(sizes)
    if expected > max_size:
        raise CapacityError(
            f"ball of radius {radius} over {len(window)} generators has "
            f"{expected} words, above the cap {max_size}",
            required=expected,
        )
    return BallBasis(radius=radius, window=window, offset=np.cumsum([0] + sizes))


def largest_feasible_radius(window, radius: int, max_size: int) -> int:
    """Largest r <= radius whose ball over the window fits under the cap, or 0.

    The search runs upward, adding one level at a time, so its cost is
    bounded by the answer rather than by the requested radius."""
    a = 2 * len(set(window))
    if a == 0:  # the ball is {e} at every radius
        return radius if max_size >= 1 else 0
    r, size, level = 0, 1, a
    while r < radius and size + level <= max_size:
        r, size, level = r + 1, size + level, level * (a - 1)
    return r


def convolution_operator(f: GroupFunction, basis: BallBasis):
    """CSR matrix of left convolution by f from the sub-ball of radius R - p.

    Left translation cannot push the sub-ball outside the full ball, so the
    matrix action is exact on its domain and every singular value is attained
    by the true operator. Returns (matrix, domain_radius, domain_size).
    """
    p = max(f.support_lengths(), default=0)
    if p > basis.radius:
        raise StructureError(
            f"support length {p} exceeds the ball radius {basis.radius}"
        )
    for g in f.touched_generators():
        if g not in basis.window:
            raise StructureError(f"generator g{g} outside the ball window")
    dom_radius = basis.radius - p
    size = int(basis.offset[dom_radius + 1])
    # every domain word as (length, rank among the words of its length)
    dom_length = np.repeat(np.arange(dom_radius + 1), np.diff(basis.offset[:dom_radius + 2]))
    dom_rank = np.arange(size) - basis.offset[dom_length]
    power = (2 * len(basis.window) - 1) ** np.arange(basis.radius + 1)
    pos = {g: i for i, g in enumerate(basis.window)}
    rows = []
    for h in f.terms:  # h * w for every domain word w, one letter of h at a time
        length, rank = dom_length, dom_rank
        for g, e in reversed(h.letters):
            a = 2 * pos[g] + (e == -1)
            top = power[np.maximum(length - 1, 0)]  # the weight of the first digit
            head, rest = np.divmod(rank, top)  # head: the first letter's code
            cancel = (length > 0) & (head == a ^ 1)
            # prepend: a leads, and the old first letter becomes a digit
            # that skips a's inverse (the empty word has head = rest = 0)
            grow = a * power[length] + (head - (head > a ^ 1)) * top + rest
            # cancel: the second letter leads again, its code restored from
            # the digit that skipped the inverse of the first letter
            low = power[np.maximum(length - 2, 0)]
            back = rest + ((rest // low >= head ^ 1) & (length > 1)) * low
            rank = np.where(cancel, back, grow)
            length = np.where(cancel, length - 1, length + 1)
        rows.append(basis.offset[length] + rank)
    # left translation is injective: column j holds one row per term of f.
    # Term by term, the rows of the domain words mostly ascend, and the CSR
    # build sorts such runs fast
    vals = np.repeat(np.array(list(f.terms.values()), dtype=complex), size)
    cols = np.tile(np.arange(size), len(rows))
    mat = CSR.from_coo(np.array(rows, dtype=np.int64).ravel(), cols, vals, (len(basis), size))
    return mat, dom_radius, size


@dataclass(frozen=True)
class GroupNormReport:
    label: str
    length: int
    radius: int
    effective_radius: int
    lower: float
    ell2: float
    upper: float


def haagerup_check(
    f: GroupFunction,
    radius: int,
    *,
    max_ball: int = DEFAULT_MAX_BALL,
    label: str = "f",
    seed: int = DEFAULT_SEED,
) -> GroupNormReport:
    """Certified lower bound against the (p+1) ell2 bound for homogeneous f.

    If the requested ball exceeds the capacity cap, the radius is lowered to
    the largest feasible one; the certified bound stays rigorous because it
    only restricts the domain further.
    """
    lengths = f.support_lengths()
    if len(lengths) != 1:
        raise StructureError(
            f"support must be length-homogeneous, got lengths {sorted(lengths)}"
        )
    p = lengths.pop()
    window = f.touched_generators()
    eff = largest_feasible_radius(window, radius, max_ball)
    if eff < p:
        raise no_ball_fits(len(window), p, max_ball)
    # a ball over no generators is {e} at every radius, so radius p = 0 holds it
    basis = build_ball(window, eff if window else p, max_ball)
    mat, _, _ = convolution_operator(f, basis)
    sigma, _ = restricted_sigma_max(mat, seed=seed)
    return GroupNormReport(label=label, length=p, radius=radius, effective_radius=eff,
                           lower=float(sigma), ell2=f.ell2(), upper=(p + 1) * f.ell2())


def shift_window_size(h: ReducedWord, n: int) -> int:
    """Number of generators the first n shifts of h touch: the size of the
    union of [g, g + n) over the generators g of h."""
    gens = sorted({g for g, _ in h.letters})
    # each interval adds what it covers before the next one starts
    return sum(min(b - a, n) for a, b in zip(gens, gens[1:])) + (n if gens else 0)


def shift_average(h: ReducedWord, n: int) -> GroupFunction:
    """(1/n) sum of the first n index-shifted copies of delta_h, in one pass:
    the copies of h != e are n distinct words."""
    if n < 1:
        raise StructureError("an average needs at least one term")
    if not h.letters:
        raise StructureError("the identity is fixed by the shift; no decay to probe")
    return GroupFunction({h.shifted(k): 1.0 / n for k in range(n)})
