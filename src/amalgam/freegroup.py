"""Reduced words, Cayley balls and convolution operators for free groups.

Generators are indexed by integers; only the finite window touched by an
experiment is instantiated. The left regular representation is truncated to a
ball of reduced words: convolution from the sub-ball of radius R - p into the
full ball is exact, so its largest singular value is a certified lower bound
for the true operator norm.

Words enter as `ReducedWord` tuples of (generator, exponent) letters. A ball
stores them as int arrays, one per length: letter (g, e) of the window has
code a = 2 pos(g) + (e == -1), so its inverse is a ^ 1, and the words of a
length are listed breadth-first, generator ascending, +1 before -1, which is
lexicographic in the codes. A word's rank among those of its length is then
its mixed-radix code in radix (2d, 2d - 1, ..., 2d - 1), where each later
digit skips the inverse of the letter before it, and its ball index is that
rank plus the number of shorter words. Convolution applies each term's
letters to all domain words at once and looks their products up by index.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CapacityError, ConfigError, StructureError
from .linalg import DEFAULT_SEED, restricted_sigma_max

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


def ball_size(num_generators: int, radius: int) -> int:
    """Number of reduced words of length at most radius over d generators."""
    a = 2 * num_generators
    return 1 + sum(a * (a - 1) ** (ell - 1) for ell in range(1, radius + 1))


@dataclass(frozen=True)
class BallBasis:
    """The reduced words of length <= radius: levels[L] holds those of length L."""

    radius: int
    window: tuple[int, ...]
    levels: tuple[np.ndarray, ...]
    offset: np.ndarray  # (radius + 2,) levels[L] spans offset[L]:offset[L + 1]

    def __len__(self) -> int:
        return int(self.offset[-1])


def _ball_index(basis: BallBasis, words: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Ball indices of right-aligned words: row i holds words[i, start[i]:]."""
    cols = np.arange(basis.radius)
    prev = np.roll(words, 1, axis=1) ^ 1  # the inverse of the letter before
    digit = np.where(cols == start[:, None], words, words - (words > prev))
    weight = (2 * len(basis.window) - 1) ** (basis.radius - 1 - cols)
    code = np.where(cols >= start[:, None], digit, 0) @ weight
    return basis.offset[basis.radius - start] + code


def build_ball(window, radius: int, max_size: int = DEFAULT_MAX_BALL) -> BallBasis:
    """Breadth-first enumeration: generator index ascending, +1 before -1."""
    window = tuple(sorted(set(window)))
    expected = ball_size(len(window), radius)
    if expected > max_size:
        raise CapacityError(
            f"ball of radius {radius} over {len(window)} generators has "
            f"{expected} words, above the cap {max_size}",
            required=expected,
        )
    alphabet = np.arange(2 * len(window))
    levels = [np.zeros((1, 0), dtype=int)]
    for _ in range(radius):
        rows = np.repeat(levels[-1], len(alphabet), axis=0)
        last = np.tile(alphabet, len(levels[-1]))
        # a letter may not follow its inverse; the empty word has no last letter
        keep = (rows[:, -1:] ^ 1 != last[:, None]).all(axis=1)
        levels.append(np.column_stack([rows, last])[keep])
    offset = np.cumsum([0] + [len(words) for words in levels])
    if offset[-1] != expected:
        raise StructureError(
            f"ball enumeration produced {offset[-1]} words, expected {expected}"
        )
    return BallBasis(radius=radius, window=window, levels=tuple(levels), offset=offset)


def largest_feasible_radius(window, radius: int, max_size: int) -> int:
    """Largest r <= radius whose ball over the window fits under the cap."""
    d = len(set(window))
    r = radius
    while r > 0 and ball_size(d, r) > max_size:
        r -= 1
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
    dom_radius, width = basis.radius - p, basis.radius
    levels = basis.levels[:dom_radius + 1]
    size = int(basis.offset[dom_radius + 1])
    # the domain words right-aligned in rows as wide as the ball radius:
    # row i holds its word in dom[i, start[i]:]
    dom = np.concatenate([np.pad(w, ((0, 0), (width - w.shape[1], 0))) for w in levels])
    start = np.concatenate([np.full(len(w), width - w.shape[1]) for w in levels])
    pos = {g: i for i, g in enumerate(basis.window)}
    every, rows = np.arange(size), []
    for h in f.terms:  # h * w for every domain word w, one letter of h at a time
        words, first = dom.copy(), start.copy()
        for g, e in reversed(h.letters):
            a = 2 * pos[g] + (e == -1)
            lead = words[every, np.minimum(first, width - 1)]
            cancel = (first < width) & (lead == a ^ 1)
            first = np.where(cancel, first + 1, first - 1)
            words[~cancel, first[~cancel]] = a
        rows.append(_ball_index(basis, words, first))
    vals = np.repeat(np.array(list(f.terms.values()), dtype=complex), size)
    mat = sparse.csr_matrix(
        (vals, (np.concatenate(rows or [every[:0]]), np.tile(every, len(rows)))),
        shape=(len(basis), size),
    )
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
        raise CapacityError(
            f"no ball of radius >= {p} over {len(window)} generators fits "
            f"under the cap {max_ball}"
        )
    basis = build_ball(window, eff, max_ball)
    mat, _, _ = convolution_operator(f, basis)
    sigma, _ = restricted_sigma_max(mat, seed=seed)
    return GroupNormReport(label=label, length=p, radius=radius, effective_radius=eff,
                           lower=float(sigma), ell2=f.ell2(), upper=(p + 1) * f.ell2())


def shift_average(h: ReducedWord, n: int) -> GroupFunction:
    """(1/n) sum of the first n index-shifted copies of delta_h."""
    if n < 1:
        raise StructureError("an average needs at least one term")
    out = GroupFunction()
    for k in range(n):
        out = out + GroupFunction.delta(h.shifted(k), 1.0 / n)
    return out


def shift_average_group(
    h: ReducedWord,
    n: int,
    radius: int,
    *,
    max_ball: int = DEFAULT_MAX_BALL,
    seed: int = DEFAULT_SEED,
) -> GroupNormReport:
    """Decay-curve entry for the shift average of a single group element."""
    if not h.letters:
        raise StructureError("the identity is fixed by the shift; no decay to probe")
    f = shift_average(h, n)
    return haagerup_check(
        f, radius, max_ball=max_ball, label=f"avg({h})[n={n}]", seed=seed
    )
