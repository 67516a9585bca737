"""Truncated amalgamated Fock module realized as a finite Hilbert space.

The module is the direct sum, over alternating index sequences (i_1,...,i_m)
with m up to a truncation level, of internal tensor products
E_{i_1}deg (x)_B ... (x)_B E_{i_m}deg, plus a copy of B at level zero. It is
turned into an honest Hilbert space by tensoring with the identity
representation of B on its own ambient matrix space C^nb. The base algebra B
enters through its multiplication table only: the level-zero Gram, the left
B-action, and the check that each factor's subalgebra has B's unit and table.

Each level is built on the one below: the summand of (i_1, ..., i_m) is
E_{i_1}deg (x)_B H for the summand H of (i_2, ..., i_m), and level zero is
B (x)_B C^nb. The Gram <xi (x) h, xi' (x) h'> = <h, pi(<xi, xi'>_B) h'>
(Lance, Hilbert C*-Modules, LMS Lecture Note Series 210, 1995, ch. 4) reads
only the first factor's B-valued Gram and B's left action pi on H's quotient,
and ``gram_quotient`` separates it as it does each factor's GNS module. One
quotient serves each pair (spec of the first factor, quotient of the rest),
so one a level when all factors share a spec. The layout is kept per level:
the sequences as an integer array in lexicographic order, the quotient of
each, and its offset. ``summand`` and the relabelling map ``permutation``
share one mixed-radix row formula, and the vacuum is read from level zero,
the first block of coordinates.

Operators are ``linalg.CSR`` matrices: level and first-slot projections,
creation (prepend a vector of E_k deg), first-slot diagonal actions, and the
letter representation of each factor algebra, whose parts are left folds of
their coefficients over templates: the operators of the basis coefficients
(e_s, e_s e_t*, b_j), whose blocks are slices and contractions of the
quotients' cmap, w and left, placed at every pair of summands by array
arithmetic. A letter adds its four parts by the kernel of ``CSR.from_coo``
on the union of their templates, so it sorts nothing: the union is one
``CSR.from_coo`` of the template patterns, cached per factor, and each
template's places in it are ``searchsorted`` on row-major keys. Each factor
is its ``GnsModule``, whose ``bip_e`` and ``left_b`` are the Gram and left
B-action the levels read.
Any term that would raise above the truncation level maps to zero;
identities involving creation at the top level therefore hold only below it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraWithExpectation, MatrixStarAlgebra
from .errors import CapacityError, ConfigError, StructureError
from .gns import STRUCT_TOL, GnsModule, ModuleVector, build_gns
from .linalg import CSR, _summed, as_complex, adjoint, frobenius, gram_quotient, hermitian_part

DEFAULT_MAX_DIM = 20000


@dataclass(frozen=True)
class FockBasisLabel:
    """Product-basis label: level, index sequence, one component id per slot
    (the E-deg slots, then B), and the slot of the representation space of B."""

    level: int
    indices: tuple[int, ...]
    components: tuple[int, ...]
    b_slot: int

    def __str__(self) -> str:
        if self.level == 0:
            return f"B[{self.components[0]}]:{self.b_slot}"
        seq = ",".join(map(str, self.indices))
        comp = ",".join(map(str, self.components))
        return f"({seq})[{comp}]:{self.b_slot}"


@dataclass(frozen=True)
class FockOperator:
    """A matrix on a FockContext; ``matrix`` is always a ``linalg.CSR``."""

    context: "FockContext"
    matrix: CSR

    @property
    def H(self) -> "FockOperator":
        return FockOperator(self.context, adjoint(self.matrix))

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._same(other)
        return FockOperator(self.context, self.matrix @ other.matrix)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._same(other)
        return FockOperator(self.context, self.matrix + other.matrix)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._same(other)
        return FockOperator(self.context, self.matrix - other.matrix)

    def __rmul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.context, scalar * self.matrix)

    def frobenius(self) -> float:
        """Frobenius norm: an upper bound for the operator norm, not the norm."""
        return frobenius(self.matrix)

    def _same(self, other: "FockOperator"):
        if other.context is not self.context:
            raise StructureError("operators live on different Fock contexts")


def _check_same_subalgebra(base: MatrixStarAlgebra, spec: AlgebraWithExpectation, idx):
    """The factor's subalgebra must match the base B through the basis-aligned
    map: the same unit and the same structure constants."""
    b = spec.subalgebra
    if b.dim != base.dim:
        raise ConfigError(
            f"factor {idx}: subalgebra dimension {b.dim} != base dimension {base.dim}"
        )
    if np.linalg.norm(b.unit_coords - base.unit_coords) > STRUCT_TOL:
        raise ConfigError(f"factor {idx}: subalgebra unit differs from the base")
    # the first basis element j whose adjoint, or a product b_j b_k, differs
    bad_adj = np.linalg.norm(b.adj - base.adj, axis=0) > STRUCT_TOL
    bad = bad_adj | (np.linalg.norm(b.mult - base.mult, axis=2) > STRUCT_TOL).any(axis=1)
    if bad.any():
        what = "adjoints" if bad_adj[np.argmax(bad)] else "products"
        raise ConfigError(f"factor {idx}: subalgebra {what} differ from the base")


class _Template(NamedTuple):
    """Structure operators theta_j on the canonical CSR pattern of the union of
    their entries: coef[j] holds theta_j's entries there, 0 where it has none."""

    pattern: CSR  # its data 1, 2, ... record where each given entry went
    coef: np.ndarray  # (terms, nnz)

    @staticmethod
    def from_coo(rows, cols, coef, n: int) -> "_Template":
        """Entries coef[:, i] at (rows[i], cols[i]), no position twice."""
        pattern = CSR.from_coo(rows, cols, np.arange(1, len(rows) + 1), (n, n))
        return _Template(pattern, coef[:, pattern.data - 1])

    def adjoint(self) -> "_Template":  # of the adjoints theta_j*
        p = self.pattern
        return _Template.from_coo(p.indices, p.rows, self.coef.conj(), p.shape[0])


class _Letter(NamedTuple):
    """A factor's letter templates (creation, diagonal, annihilation, left
    B) on the canonical CSR pattern of the union of their patterns:
    slots[p][i] is where entry i of template p sits in it."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: tuple[np.ndarray, ...]


class LetterParts(NamedTuple):
    """The terms of one letter's representation: creation psi(hat a0),
    first-slot diagonal rho(a0), annihilation psi(hat a0*)*, and the left
    action of the B-part phi(a), None when phi(a) is exactly 0."""

    creation: FockOperator
    diagonal: FockOperator
    annihilation: FockOperator
    left_b: FockOperator | None = None

    def total(self) -> FockOperator:
        """The letter representation, summed in this order."""
        op = self.creation + self.diagonal + self.annihilation
        return op if self.left_b is None else op + self.left_b


class Summand(NamedTuple):
    """One summand: its index sequence, the global offset and rank of its
    quotient, orthonormal representatives w (width, rank), the coordinate map
    cmap (rank, width) and B's left action, left[d] (rank, rank) for b_d. The
    width is X (x) H's for the interior tensor product X (x)_B H (Lance, ch.
    4), H's coordinate fastest: (b_j, u) of B (x) C^nb at level 0, else
    (e_s, coordinate of the quotient of the rest)."""

    seq: tuple[int, ...]
    offset: int
    rank: int
    w: np.ndarray
    cmap: np.ndarray
    left: np.ndarray


@dataclass
class _Level:
    pos: np.ndarray  # (n, m) positions in ctx.order, one sequence a row, lexicographic
    quot: np.ndarray  # (n,) the quotient of each sequence
    offset: np.ndarray  # (n + 1,) sequence j spans offset[j]:offset[j + 1] globally
    quotients: list[Summand]  # per (first spec, rest quotient), for its first sequence


class FockContext:
    """Immutable realization of the truncated Fock module. Build via build_fock."""

    def __init__(self, base: MatrixStarAlgebra, factors: dict[int, GnsModule],
                 max_level: int, max_dim: int):
        self.base = base
        self.factors = factors
        self.order = tuple(sorted(factors))
        self.max_level = max_level
        self.max_dim = max_dim
        self._pos = {i: p for p, i in enumerate(self.order)}
        self._struct_cache: dict = {}
        self._struct_lock = threading.RLock()  # a builder may ask for another entry
        self._levels = self._build_levels()
        self.total_dim = int(self._levels[-1].offset[-1])

    # -- construction -------------------------------------------------------

    def _quotient(self, seq, bip, left_x, left_h) -> Summand:
        """The quotient of X (x)_B H, where X has the B-valued Gram bip
        (x, x, db) and left B-action left_x (db, x, x), and B acts on H by
        left_h (db, h, h) in orthonormal coordinates."""
        width = bip.shape[0] * left_h.shape[1]
        self._refuse_above_cap(width, f"a level-{len(seq)} Gram is {width} wide")
        gram = np.einsum("std,dab->satb", bip, left_h).reshape(width, width)
        w, cmap = gram_quotient(hermitian_part(gram))
        rank = w.shape[1]
        # left[d] = cmap kron(left_x[d], I_h) w: left_x[d] on the first index of w
        acted = np.tensordot(left_x, w.reshape(len(bip), width // len(bip) * rank),
                             axes=(2, 0))
        left = cmap @ acted.reshape(len(left_x), width, rank)
        return Summand(seq, 0, rank, w, cmap, left)

    def _refuse_above_cap(self, required: int, what: str):
        if required > self.max_dim:
            raise CapacityError(f"{what}, above the cap {self.max_dim}", required=required)

    def _build_levels(self) -> list[_Level]:
        base, data = self.base, [self.factors[i] for i in self.order]
        # spec[p]: the first position with the module of p; summands whose
        # sequences agree in spec slot by slot share one quotient
        spec = np.array([[d is f for d in data].index(True) for f in data])
        # level 0 is B (x)_B C^nb: <b_j, b_k>_B = b_j* b_k, B acts on C^nb as
        # itself and on B by left multiplication
        q0 = self._quotient((), np.tensordot(base.adj, base.mult, axes=(0, 0)),
                            base.mult.transpose(0, 2, 1), base.basis)  # rank <= width <= cap
        pos = np.zeros((1, 0), dtype=np.int64)
        levels = [_Level(pos, np.zeros(1, dtype=np.int64), np.array([0, q0.rank]), [q0])]
        for m in range(1, self.max_level + 1):
            below, start = levels[-1], int(levels[-1].offset[-1])
            # each summand has rank >= 1, so a level whose sequences outnumber
            # the room left is refused before they are listed
            least = start + len(pos) * (len(self.order) - (m > 1))
            self._refuse_above_cap(least, f"levels 0..{m} have at least {least} dimensions")
            # prepend each index to the sequences it does not lead
            rests = [np.flatnonzero(~self._led_by(pos, p)) for p in range(len(self.order))]
            # a sequence's spec row sorts as (spec of its first index,
            # quotient of the rest), and quotients are numbered in spec-row
            # order, so the key orders like the rows
            nq = len(below.quotients)
            key = np.concatenate([spec[p] * nq + below.quot[rest]
                                  for p, rest in enumerate(rests)])
            pos = np.concatenate([np.column_stack([np.full(len(rest), p), pos[rest]])
                                  for p, rest in enumerate(rests)])
            keys, first, quot = np.unique(key, return_index=True, return_inverse=True)
            quotients = [self._quotient(tuple(self.order[p] for p in pos[j]), data[k // nq].bip_e,
                                        data[k // nq].left_b, below.quotients[k % nq].left)
                         for k, j in zip(keys, first)]
            ranks = np.array([q.rank for q in quotients])[quot]
            offset = start + np.concatenate([[0], np.cumsum(ranks)])
            dim = int(offset[-1])
            self._refuse_above_cap(dim, f"levels 0..{m} have {dim} dimensions")
            levels.append(_Level(pos, quot, offset, quotients))
        return levels

    @staticmethod
    def _led_by(pos: np.ndarray, p: int) -> np.ndarray:
        """Mask of the sequences (rows of pos) whose first index has position p."""
        return pos[:, 0] == p if pos.shape[1] else np.zeros(len(pos), dtype=bool)

    def _rows(self, pos: np.ndarray) -> np.ndarray:
        """The row in its level of each sequence of positions (a row of pos):
        its digits in the mixed radix (k, k-1, ..., k-1), where a later digit
        counts the positions other than the one before it."""
        digits = pos.copy()
        digits[:, 1:] -= pos[:, 1:] > pos[:, :-1]
        return digits @ (len(self.order) - 1) ** np.arange(pos.shape[1])[::-1]

    def _summand(self, m: int, j: int) -> Summand:
        lev = self._levels[m]
        return lev.quotients[lev.quot[j]]._replace(
            seq=tuple(self.order[p] for p in lev.pos[j]), offset=int(lev.offset[j]))

    # -- layout --------------------------------------------------------------

    def level_range(self, m: int) -> tuple[int, int]:
        """Global coordinate range [start, end) of level m."""
        if m < 0 or m > self.max_level:
            raise ConfigError(f"level {m} outside 0..{self.max_level}")
        return int(self._levels[m].offset[0]), int(self._levels[m].offset[-1])

    def level_of(self, coords):
        """The level of each global coordinate in coords (an int or an array)."""
        ends = [lev.offset[-1] for lev in self._levels]
        return np.searchsorted(ends, coords, side="right")

    def prefix_dim(self, m: int) -> int:
        """Number of coordinates in levels 0..m."""
        if m < 0:
            return 0
        return int(self._levels[min(m, self.max_level)].offset[-1])

    def summand(self, seq) -> Summand:
        """The summand of an alternating index sequence of length <= max_level."""
        seq = tuple(seq)
        if (len(seq) > self.max_level or any(i not in self._pos for i in seq)
                or any(a == b for a, b in zip(seq, seq[1:]))):
            raise ConfigError(f"{seq} is not a summand of this context")
        pos = np.array([[self._pos[i] for i in seq]], dtype=np.int64)
        return self._summand(len(seq), int(self._rows(pos)[0]))

    def permutation(self, mapping) -> np.ndarray:
        """The coordinate map perm of a relabelling of the factors, mapping a
        bijection of ``order``: each summand goes to the summand of its
        relabelled sequence, coordinate for coordinate. Where the relabelling
        matches equal factors, the operator Y of a relabelled word and the
        operator X of the word satisfy ``Y[perm][:, perm] == X``."""
        if sorted(mapping) != list(self.order) or sorted(mapping.values()) != list(self.order):
            raise ConfigError(f"{dict(mapping)} is not a bijection of the factor "
                              f"indices {list(self.order)}")
        image = np.array([self._pos[mapping[i]] for i in self.order])
        perm = []
        for lev in self._levels:
            rows, ranks = self._rows(image[lev.pos]), np.diff(lev.offset)
            if (ranks[rows] != ranks).any():
                raise StructureError("the shift changes the rank of a summand")
            perm.append(np.arange(lev.offset[0], lev.offset[-1])
                        + np.repeat(lev.offset[rows] - lev.offset[:-1], ranks))
        return np.concatenate(perm)

    def summands(self) -> tuple[Summand, ...]:
        return tuple(self._summand(m, j) for m, lev in enumerate(self._levels)
                     for j in range(len(lev.pos)))

    def label_of_coordinate(self, idx: int) -> FockBasisLabel:
        """Dominant product label for a global quotient coordinate: down the
        chain of representatives, the largest (first slot, coordinate of the
        rest) entry of each level's representative, ending in level 0's
        (b_j, u)."""
        if not 0 <= idx < self.total_dim:
            raise ConfigError(f"coordinate {idx} out of range")
        m = int(self.level_of(idx))
        s = self._summand(m, int(np.searchsorted(self._levels[m].offset, idx, "right")) - 1)
        coord, comps = idx - s.offset, []
        for t in range(m + 1):
            w = self.summand(s.seq[t:]).w
            rest = self.summand(s.seq[t + 1:]).rank if t < m else self.base.ambient_dim
            comp, coord = np.unravel_index(int(np.argmax(np.abs(w[:, coord]))),
                                           (len(w) // rest, rest))
            comps.append(int(comp))
        return FockBasisLabel(m, s.seq, tuple(comps), int(coord))

    def summary(self) -> dict:
        """Dimensions per level and summand; a summand's ``product_dim`` is
        that of its product space E_{i_1}deg (x) ... (x) E_{i_m}deg (x) C^nb,
        B (x) C^nb at level 0, of which its quotient keeps ``rank``."""
        levels, nb = [], self.base.ambient_dim
        for m, lev in enumerate(self._levels):
            entries = [{"sequence": list(s.seq), "product_dim": nb * math.prod(
                            [self.factors[i].e_dim for i in s.seq] or [self.base.dim]),
                        "rank": s.rank}
                       for s in (self._summand(m, j) for j in range(len(lev.pos)))]
            levels.append({"level": m, "dim": sum(e["rank"] for e in entries),
                           "summands": entries})
        return {
            "total_dim": self.total_dim,
            "max_level": self.max_level,
            "factor_indices": list(self.order),
            "levels": levels,
        }

    # -- operator assembly ---------------------------------------------------

    def _template(self, parts, terms: int, blocks) -> _Template:
        """Template of parts (target level, target rows, source level, source
        rows) with the given number of terms: blocks(tq, sq) stacks the
        (terms, tq.rank, sq.rank) blocks from source quotient sq to target
        quotient tq. The blocks are computed once per source quotient, which
        fixes the target one, and placed at every summand pair (tgt_rows[j],
        src_rows[j]) that uses it; positions where every term is 0 are not stored."""
        empty = np.zeros(0, dtype=np.int64)
        coo = [(np.zeros((terms, 0), dtype=complex), empty, empty)]
        for tgt, tgt_rows, src, src_rows in parts:
            for q in np.flatnonzero(np.bincount(src.quot[src_rows])):
                sel = src.quot[src_rows] == q
                blk = blocks(tgt.quotients[tgt.quot[tgt_rows[sel][0]]], src.quotients[q])
                r, c = np.nonzero((np.abs(blk) > 0.0).any(axis=0))
                coo.append((np.tile(blk[:, r, c], np.count_nonzero(sel)),
                            (tgt.offset[tgt_rows[sel]][:, None] + r).reshape(-1),
                            (src.offset[src_rows[sel]][:, None] + c).reshape(-1)))
        vals, rows, cols = (np.concatenate(x, axis=-1) for x in zip(*coo))
        return _Template.from_coo(rows, cols, vals, self.total_dim)

    def _diag_operator(self, mask: np.ndarray, key: str) -> FockOperator:
        """Diagonal operator with the given diagonal, built once per key."""
        return self._structure(("diag", key), lambda: FockOperator(
            self, CSR.diagonal(mask.astype(complex))))

    def _structure(self, key, builder):
        cached = self._struct_cache.get(key)
        if cached is not None:
            return cached
        with self._struct_lock:
            if key not in self._struct_cache:
                self._struct_cache[key] = builder()
            return self._struct_cache[key]

    def _creation_template(self, k: int) -> _Template:
        """Creation operators of the E-deg basis vectors e_s of factor k, s < e."""

        def build():
            e, pk = self._factor(k).e_dim, self._pos[k]
            # a level lists the index at position p prepended to each sequence
            # of the level below not led by p, in order, for p = 0, 1, ...
            parts = [(tgt, np.flatnonzero(self._led_by(tgt.pos, pk)),
                      src, np.flatnonzero(~self._led_by(src.pos, pk)))
                     for src, tgt in zip(self._levels, self._levels[1:])]
            # the target quotient's rest is the source one: e_s (x) h sits at
            # the coordinates (s, h) of its width
            return self._template(parts, e, lambda tq, sq: tq.cmap.reshape(
                tq.rank, e, sq.rank).transpose(1, 0, 2))

        return self._structure(("creation", k), build)

    def _annihilation_template(self, k: int) -> _Template:
        """Adjoints of the creation operators of factor k, term for term."""
        return self._structure(("annihilation", k), lambda: self._creation_template(k).adjoint())

    def _first_slot_template(self, led, terms: int, blocks) -> _Template:
        """Block-diagonal on the summands led(pos) selects."""
        return self._template([(lev, rows, lev, rows) for lev in self._levels
                               for rows in [np.flatnonzero(led(lev.pos))]], terms, blocks)

    def _diagonal_template(self, k: int) -> _Template:
        """First-slot matrix units e_s e_t* on summands led by factor k, s-major:
        cmap's columns of slot s times w's rows of slot t."""
        e = self._factor(k).e_dim

        def units(_, q: Summand) -> np.ndarray:
            cmap3 = q.cmap.reshape(q.rank, e, -1).transpose(1, 0, 2)[:, None]
            return (cmap3 @ q.w.reshape(e, -1, q.rank)).reshape(e * e, q.rank, q.rank)

        return self._structure(("diagonal", k), lambda: self._first_slot_template(
            lambda pos: self._led_by(pos, self._pos[k]), e * e, units))

    def _leftb_template(self) -> _Template:
        """Left actions of the basis elements b_j of B on every summand."""
        return self._structure(("leftb",), lambda: self._first_slot_template(
            lambda pos: np.ones(len(pos), dtype=bool), self.base.dim, lambda _, q: q.left))

    def _letter(self, k: int) -> "_Letter":
        """Factor k's letter templates on the union of their patterns."""

        def build():
            templates = (self._creation_template(k), self._diagonal_template(k),
                         self._annihilation_template(k), self._leftb_template())
            n = self.total_dim
            rows, cols = (np.concatenate(a) for a in zip(*(
                (t.pattern.rows, t.pattern.indices) for t in templates)))
            union = CSR.from_coo(rows, cols, np.ones(cols.size), (n, n))
            # a canonical CSR lists its entries in increasing row-major keys
            keys = [p.rows * n + p.indices for p in (union, *(t.pattern for t in templates))]
            return _Letter(union.indptr, union.indices,
                           tuple(np.searchsorted(keys[0], key) for key in keys[1:]))

        return self._structure(("letter", k), build)

    @staticmethod
    def _folded(template: _Template, coeffs) -> np.ndarray | None:
        """sum_j coeffs[j] theta_j on the template's pattern, left-folded over
        the nonzero coeffs; None when every coeff is 0."""
        terms = [(c, t) for c, t in zip(coeffs, template.coef) if c != 0.0]
        if not terms:
            return None
        data = terms[0][1] * terms[0][0]
        for c, t in terms[1:]:
            data = data + t * c
        return data

    def _fold(self, template: _Template, coeffs) -> FockOperator:
        """sum_j coeffs[j] theta_j in canonical CSR with exact zeros dropped:
        entry for entry a sum of sparse matrices."""
        data = self._folded(template, coeffs)
        if data is None:
            return self.zero()
        p = template.pattern
        return FockOperator(self, CSR(data, p.indices, p.indptr, p.shape).pruned())

    # -- public operators ----------------------------------------------------

    def level_projection(self, m: int) -> FockOperator:
        start, end = self.level_range(m)
        mask = np.zeros(self.total_dim)
        mask[start:end] = 1.0
        return self._diag_operator(mask, f"P{m}")

    def level_projection_up_to(self, m: int) -> FockOperator:
        mask = np.zeros(self.total_dim)
        mask[: self.prefix_dim(m)] = 1.0
        return self._diag_operator(mask, f"P<={m}")

    def _factor(self, k: int) -> GnsModule:
        if k not in self.factors:
            raise ConfigError(f"index {k} is not a factor of this context")
        return self.factors[k]

    def first_slot_projection(self, k: int) -> FockOperator:
        self._factor(k)
        mask = np.concatenate([
            np.repeat(self._led_by(lev.pos, self._pos[k]), np.diff(lev.offset))
            for lev in self._levels
        ])
        return self._diag_operator(mask.astype(float), f"Q{k}")

    def identity(self) -> FockOperator:
        return self._diag_operator(np.ones(self.total_dim), "1")

    def zero(self) -> FockOperator:
        return self._diag_operator(np.zeros(self.total_dim), "0")

    def e_coords(self, k: int, y) -> np.ndarray:
        """E-deg coordinates of y in factor k; rejects vectors leaning into B."""
        fk = self._factor(k)
        if isinstance(y, ModuleVector):
            if y.module is not fk:
                raise StructureError("vector belongs to a different module")
            carrier = y.coords
        else:
            carrier = as_complex(y)
            if carrier.shape == (fk.e_dim,):
                return carrier
        e_part = fk.e_basis.conj().T @ carrier
        b_norm = np.linalg.norm(fk.b_summand.conj().T @ carrier)
        if b_norm > STRUCT_TOL * max(np.linalg.norm(carrier), 1.0):
            raise StructureError("creation vector has a component in the B-summand")
        return e_part

    def creation(self, k: int, y) -> FockOperator:
        """The operator prepending y in E_k deg; kills tensors already led by k."""
        return self._fold(self._creation_template(k), self.e_coords(k, y))

    def diagonal_action(self, k: int, a_coords) -> FockOperator:
        """First-slot action x1 -> H_k(a x1) on tensors led by k, zero elsewhere."""
        fk = self._factor(k)
        if np.ndim(a_coords) != 1 or len(a_coords) != fk.spec.algebra.dim:
            raise StructureError(f"expected coordinates in the factor-{k} algebra")
        slot = fk.rho_slot(as_complex(a_coords))
        return self._fold(self._diagonal_template(k), slot.reshape(-1))

    def left_b_action(self, b_coords) -> FockOperator:
        return self._fold(self._leftb_template(), as_complex(b_coords))

    def _letter_terms(self, i: int, a_coords) -> list[tuple[_Template, np.ndarray]]:
        """The templates and fold coefficients of the letter parts of a in the
        i-th factor, in ``LetterParts`` order; left B only when phi(a) != 0.

        Decomposes a = phi(a) + a0: the centered part a0 acts by creation of
        hat(a0), first-slot diagonal action and annihilation by hat(a0*); the
        B-part phi(a) acts by left multiplication everywhere.
        """
        fi = self._factor(i)
        a_coords = as_complex(a_coords)
        b_part = fi.spec.apply(a_coords)
        a0 = a_coords - fi.spec.sub_to_full(b_part)
        h_up, resid_up = fi.hat_split(a0)
        g, resid_dn = fi.hat_split(fi.spec.algebra.adjoint_coords(a0))
        resid = max(resid_up, resid_dn)  # tolerance STRUCT_TOL max(||a||, 1) >= STRUCT_TOL
        if resid > STRUCT_TOL and resid > STRUCT_TOL * fi.spec.algebra.norm(a_coords):
            raise StructureError("centered part of the letter leaks into the B-summand")
        terms = [(self._creation_template(i), h_up),
                 (self._diagonal_template(i), fi.rho_slot(a0).reshape(-1)),
                 (self._annihilation_template(i), g.conj())]
        if np.linalg.norm(b_part) > 0.0:
            terms.append((self._leftb_template(), b_part))
        return terms

    def letter_parts(self, i: int, a_coords) -> LetterParts:
        """The terms of the letter representation of a in the i-th factor."""
        return LetterParts(*(self._fold(t, c) for t, c in self._letter_terms(i, a_coords)))

    def represent(self, i: int, a_coords) -> FockOperator:
        """The letter representation of a in the i-th factor: the sum of its
        ``letter_parts``, in their order, value for value. Each part is folded
        on its own template, and each entry of the union of the templates adds
        the parts' values to 0 in that order, by the kernel of
        ``CSR.from_coo``; the sort is the cached one of the union."""
        letter = self._letter(i)
        parts = [(values, place) for (template, coeffs), place
                 in zip(self._letter_terms(i, a_coords), letter.slots)
                 if (values := self._folded(template, coeffs)) is not None]
        if not parts:
            return self.zero()
        values, places = (np.concatenate(a) for a in zip(*parts))
        total = _summed(places, values, len(letter.indices))
        shape = (self.total_dim,) * 2
        return FockOperator(self, CSR(total, letter.indices, letter.indptr, shape).pruned())

    def vacuum_expectation(self, x: FockOperator) -> np.ndarray:
        """B-coordinates of the compression of x to the unit at level zero;
        level zero is the first block of coordinates, and only it enters."""
        s0, base = self._levels[0].quotients[0], self.base
        # column u: the coordinates of 1 (x) u in B (x)_B C^nb
        u = np.tensordot(s0.cmap.reshape(s0.rank, base.dim, base.ambient_dim),
                         base.unit_coords, axes=(1, 0))
        f = u.conj().T @ (x.matrix[:s0.rank, :s0.rank] @ u)
        return base.expand(np.asarray(f))


def build_fock(
    base: MatrixStarAlgebra,
    factors: dict[int, AlgebraWithExpectation],
    max_level: int,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FockContext:
    """Assemble the truncated Fock context for the given factor family.

    ``base`` is the algebra B in its own ambient matrices. Every factor must
    carry a subalgebra matching the base through the basis-aligned
    identification; factors given one spec object share one GNS module.
    """
    if len(factors) < 2:
        raise ConfigError("an amalgamated free product needs at least two factors")
    if max_level < 0:
        raise ConfigError("the truncation level must be nonnegative")
    by_spec: dict[int, GnsModule] = {}  # built once per spec object
    for idx in sorted(factors):
        if id(factors[idx]) not in by_spec:
            _check_same_subalgebra(base, factors[idx], idx)
            by_spec[id(factors[idx])] = build_gns(factors[idx])
    return FockContext(base, {idx: by_spec[id(spec)] for idx, spec in factors.items()},
                       max_level, max_dim)

