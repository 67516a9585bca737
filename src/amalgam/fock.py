"""Truncated amalgamated Fock module realized as a finite Hilbert space.

The module is the direct sum, over alternating index sequences (i_1,...,i_m)
with m up to a truncation level, of internal tensor products
E_{i_1}deg (x)_B ... (x)_B E_{i_m}deg, plus a copy of B at level zero. It is
turned into an honest Hilbert space by tensoring with the identity
representation of B on its own ambient matrix space. Tensor-level Gram
degeneracies are quotiented with the package-wide rank cutoff.

The layout is kept per level: the level's sequences as an integer array in
lexicographic order, one Gram quotient per distinct sequence of factor specs
(one per level when all factors share a spec), and the offset of each summand.
Operators are sparse CSR matrices: level projections, first-slot projections,
creation operators (prepend a vector of E_k deg), first-slot diagonal actions,
and the letter representation of each factor algebra. The letter parts are
left folds of their coefficients over letter templates, built once per factor
in one pass: the operators of the basis coefficients (e_s, e_s e_t*, b_j) on
the union of their CSR patterns, each block computed once per level and pair
of quotients and placed at every pair of summands by array arithmetic;
annihilation folds over the creation template's adjoint. Any term that would
raise above the truncation level maps to zero; identities involving creation
at the top level therefore hold only below it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .algebra import AlgebraWithExpectation, MatrixStarAlgebra
from .errors import CapacityError, ConfigError, StructureError
from .gns import GnsModule, ModuleVector, build_gns
from .linalg import (
    as_complex,
    adjoint,
    frobenius,
    hermitian_part,
    rank_from_spectrum,
)

DEFAULT_MAX_DIM = 20000
STRUCT_TOL = 1e-9


@dataclass(frozen=True)
class FockBasisLabel:
    """Product-basis label: level, index sequence, one component id per slot,
    and the slot of the representation space of B."""

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
    """A matrix on a FockContext; ``matrix`` is always a ``scipy.sparse.csr_matrix``."""

    context: "FockContext"
    matrix: sparse.csr_matrix

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

    def __neg__(self) -> "FockOperator":
        return (-1.0) * self

    def frobenius(self) -> float:
        """Frobenius norm: an upper bound for the operator norm, not the norm."""
        return frobenius(self.matrix)

    def _same(self, other: "FockOperator"):
        if other.context is not self.context:
            raise StructureError("operators live on different Fock contexts")


@dataclass
class _BaseData:
    alg: MatrixStarAlgebra
    mult: np.ndarray  # (db, db, db): coords of b_j b_k
    bip: np.ndarray  # (db, db, db): coords of b_j* b_k
    adj: np.ndarray  # (db, db): coords of b_j* in column j
    sig: np.ndarray  # (db, nb, nb)

    @property
    def nb(self) -> int:
        return self.alg.ambient_dim

    @property
    def db(self) -> int:
        return self.alg.dim


def _base_data(alg: MatrixStarAlgebra) -> _BaseData:
    db = alg.dim
    mult = np.empty((db, db, db), dtype=complex)
    bip = np.empty((db, db, db), dtype=complex)
    adj = np.empty((db, db), dtype=complex)
    for j in range(db):
        adj[:, j] = alg.expand(alg.basis[j].conj().T)
        for k in range(db):
            mult[j, k] = alg.expand(alg.basis[j] @ alg.basis[k])
            bip[j, k] = alg.expand(alg.basis[j].conj().T @ alg.basis[k])
    return _BaseData(alg, mult, bip, adj, alg.basis.copy())


@dataclass
class _FactorData:
    spec: AlgebraWithExpectation
    mod: GnsModule
    e_basis: np.ndarray  # (d, e)
    bip_e: np.ndarray  # (e, e, db)
    left_b: np.ndarray  # (db, e, e)
    right_b: np.ndarray  # (db, e, e)
    kmat: np.ndarray  # (e, e, db, db)

    @property
    def e_dim(self) -> int:
        return self.e_basis.shape[1]

    def hat_split(self, a_coords) -> tuple[np.ndarray, float]:
        """E-deg coordinates of hat(a) plus the norm of its B-summand part."""
        h = self.mod.hat(a_coords)
        e_part = self.e_basis.conj().T @ h
        b_norm = float(np.linalg.norm(self.mod.b_summand.conj().T @ h))
        return e_part, b_norm

    def rho_slot(self, a_coords) -> np.ndarray:
        """First-slot action x -> H(a x) compressed to the E-deg basis."""
        return self.e_basis.conj().T @ self.mod.left_action(a_coords) @ self.e_basis


def _factor_data(spec: AlgebraWithExpectation, base: _BaseData) -> _FactorData:
    mod = build_gns(spec)
    e_basis = mod.e_basis
    e = e_basis.shape[1]
    db = base.db
    bip_e = np.einsum("us,vt,uvd->std", e_basis.conj(), e_basis, mod.bip_full)
    left_b = np.empty((db, e, e), dtype=complex)
    right_b = np.empty((db, e, e), dtype=complex)
    for j in range(db):
        full = spec.sub_to_full(np.eye(db)[j])
        act = mod.left_action(full)
        left_b[j] = e_basis.conj().T @ act @ e_basis
        off = np.linalg.norm(mod.b_summand.conj().T @ act @ e_basis, 2)
        if off > STRUCT_TOL * max(np.linalg.norm(act, 2), 1.0):
            raise StructureError(
                "left B-action does not preserve the unit splitting"
            )
        right_b[j] = e_basis.conj().T @ mod.right_action(np.eye(db)[j]) @ e_basis
    kmat = np.einsum("sud,cut->stdc", bip_e, left_b)
    return _FactorData(spec, mod, e_basis, bip_e, left_b, right_b, kmat)


def _check_same_subalgebra(base: _BaseData, spec: AlgebraWithExpectation, idx):
    """The factor's subalgebra must match the base B through the basis-aligned map."""
    b = spec.subalgebra
    if b.dim != base.db:
        raise ConfigError(
            f"factor {idx}: subalgebra dimension {b.dim} != base dimension {base.db}"
        )
    tol = 1e-9
    if np.linalg.norm(b.unit_coords - base.alg.unit_coords) > tol:
        raise ConfigError(f"factor {idx}: subalgebra unit differs from the base")
    for j in range(base.db):
        if np.linalg.norm(b.expand(b.basis[j].conj().T) - base.adj[:, j]) > tol:
            raise ConfigError(f"factor {idx}: subalgebra adjoints differ from the base")
        for k in range(base.db):
            got = b.expand(b.basis[j] @ b.basis[k])
            if np.linalg.norm(got - base.mult[j, k]) > tol:
                raise ConfigError(
                    f"factor {idx}: subalgebra products differ from the base"
                )


class _Template(NamedTuple):
    """Structure operators theta_j on the canonical CSR pattern of the union of
    their entries: coef[j] holds theta_j's entries there, 0 where it has none."""

    indptr: np.ndarray
    indices: np.ndarray
    coef: np.ndarray  # (terms, nnz)

    @staticmethod
    def from_coo(rows, cols, coef, n: int) -> "_Template":
        """Entries coef[:, i] at (rows[i], cols[i]), no position twice; scipy's
        CSR of the data 1, 2, ... records where each went."""
        order = sparse.csr_matrix((np.arange(1, len(rows) + 1), (rows, cols)), shape=(n, n))
        return _Template(order.indptr, order.indices, coef[:, order.data - 1])

    def adjoint(self) -> "_Template":  # of the adjoints theta_j*
        n = len(self.indptr) - 1
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        return _Template.from_coo(self.indices, rows, self.coef.conj(), n)


class LetterParts(NamedTuple):
    """The terms of one letter's representation: creation psi(hat a0),
    first-slot diagonal rho(a0), annihilation psi(hat a0*)*, and the left
    action of the B-part phi(a), None when phi(a) is exactly 0."""

    creation: FockOperator
    diagonal: FockOperator
    annihilation: FockOperator
    left_b: FockOperator | None

    def total(self) -> FockOperator:
        """The letter representation, summed in this order."""
        op = self.creation + self.diagonal + self.annihilation
        return op if self.left_b is None else op + self.left_b


class Summand(NamedTuple):
    """One summand of the module: its index sequence, the global offset and
    rank of its quotient, its product dimension, orthonormal representatives
    w (prod_dim, rank) and the coordinate map cmap (rank, prod_dim)."""

    seq: tuple[int, ...]
    offset: int
    rank: int
    prod_dim: int
    w: np.ndarray
    cmap: np.ndarray


@dataclass
class _Level:
    pos: np.ndarray  # (n, m) positions in ctx.order, one sequence a row, lexicographic
    quot: np.ndarray  # (n,) the quotient of each sequence
    offset: np.ndarray  # (n + 1,) sequence j spans offset[j]:offset[j + 1] globally
    quotients: list[Summand]  # per spec sequence, for its first sequence, offset 0


class FockContext:
    """Immutable realization of the truncated Fock module. Build via build_fock."""

    def __init__(self, base: _BaseData, factors: dict[int, _FactorData],
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

    def _seq_gram(self, seq) -> np.ndarray:
        base = self.base
        if not seq:
            r = base.bip
        else:
            r = self.factors[seq[0]].bip_e
            for i in seq[1:]:
                k = self.factors[i].kmat
                r = np.einsum("stdc,pqc->psqtd", k, r)
                p = r.shape[0] * r.shape[1]
                r = r.reshape(p, p, base.db)
        g = np.einsum("pqd,dtu->ptqu", r, base.sig)
        p = r.shape[0] * base.nb
        return hermitian_part(g.reshape(p, p))

    def _quotient(self, seq) -> Summand:
        g = self._seq_gram(seq)
        evals, evecs = np.linalg.eigh(g)
        ordering = np.argsort(evals)[::-1]
        evals, evecs = evals[ordering], evecs[:, ordering]
        evals = np.clip(evals, 0.0, None)
        rank = rank_from_spectrum(evals)
        w = evecs[:, :rank] / np.sqrt(evals[:rank]) if rank else evecs[:, :0]
        return Summand(seq, 0, rank, len(g), w, w.conj().T @ g)

    def _build_levels(self) -> list[_Level]:
        nb, data = self.base.nb, [self.factors[i] for i in self.order]
        e = np.array([f.e_dim for f in data], dtype=object)
        # spec[p]: the first position with the factor data of p; summands whose
        # sequences agree in spec slot by slot share one Gram
        spec = np.array([[d is f for d in data].index(True) for f in data])
        # led[p]: product dims summed over the level's sequences led by p,
        # so that a level is refused before its sequences are listed
        estimate, led = self.base.db * nb, e
        pos, levels = np.zeros((1, 0), dtype=np.int64), []
        for m in range(self.max_level + 1):
            if m:
                estimate += nb * led.sum()
                led = e * (led.sum() - led)
            if estimate > self.max_dim:
                raise CapacityError(
                    f"Fock dimension estimate {estimate} exceeds the cap "
                    f"{self.max_dim} at level {m}",
                    required=estimate,
                )
            if m:  # prepend each index to the sequences it does not lead
                pos = np.concatenate([
                    np.column_stack([np.full(len(rest), p), rest])
                    for p in range(len(self.order))
                    for rest in [pos[~self._led_by(pos, p)]]
                ])
            _, first, quot = np.unique(spec[pos], axis=0, return_index=True,
                                       return_inverse=True)
            quot = quot.reshape(-1)
            quotients = [self._quotient(tuple(self.order[p] for p in pos[j]))
                         for j in first]
            start = levels[-1].offset[-1] if levels else 0
            ranks = np.array([q.rank for q in quotients])[quot]
            offset = start + np.concatenate([[0], np.cumsum(ranks)])
            levels.append(_Level(pos, quot, offset, quotients))
        return levels

    @staticmethod
    def _led_by(pos: np.ndarray, p: int) -> np.ndarray:
        """Mask of the sequences (rows of pos) whose first index has position p."""
        return pos[:, 0] == p if pos.shape[1] else np.zeros(len(pos), dtype=bool)

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
        # its row in the level: its digits in the mixed radix (k, k-1, ..., k-1),
        # where a later digit counts the positions other than the one before it
        pos = [self._pos[i] for i in seq]
        row = pos[0] if pos else 0
        for prev, p in zip(pos, pos[1:]):
            row = row * (len(self.order) - 1) + p - (p > prev)
        return self._summand(len(seq), row)

    def summands(self) -> tuple[Summand, ...]:
        return tuple(self._summand(m, j) for m, lev in enumerate(self._levels)
                     for j in range(len(lev.pos)))

    def label_of_coordinate(self, idx: int) -> FockBasisLabel:
        """Dominant product label for a global quotient coordinate."""
        if not 0 <= idx < self.total_dim:
            raise ConfigError(f"coordinate {idx} out of range")
        m = next(m for m, lev in enumerate(self._levels) if idx < lev.offset[-1])
        s = self._summand(m, int(np.searchsorted(self._levels[m].offset, idx, "right")) - 1)
        dims = [self.factors[i].e_dim for i in s.seq] if s.seq else [self.base.db]
        rep = np.abs(s.w[:, idx - s.offset])
        *comps, b_slot = np.unravel_index(int(np.argmax(rep)), dims + [self.base.nb])
        return FockBasisLabel(m, s.seq, tuple(map(int, comps)), int(b_slot))

    def summary(self) -> dict:
        levels = []
        for m, lev in enumerate(self._levels):
            entries = [
                {"sequence": list(s.seq), "product_dim": s.prod_dim, "rank": s.rank}
                for s in (self._summand(m, j) for j in range(len(lev.pos)))
            ]
            levels.append({"level": m, "dim": sum(e["rank"] for e in entries),
                           "summands": entries})
        return {
            "total_dim": self.total_dim,
            "max_level": self.max_level,
            "factor_indices": list(self.order),
            "levels": levels,
        }

    # -- operator assembly ---------------------------------------------------

    def _template(self, parts, slots) -> _Template:
        """Template of parts (target level, target rows, source level, source
        rows): term j acts on the first tensor slot of source quotient sq by
        slots(sq)[j]. The blocks are computed once per source quotient, which
        fixes the target one, and placed at every summand pair (tgt_rows[j],
        src_rows[j]) that uses it; positions where every term is 0 are not stored."""
        terms, empty = len(slots(self._levels[0].quotients[0])), np.zeros(0, dtype=np.int64)
        coo = [(np.zeros((terms, 0), dtype=complex), empty, empty)]
        for tgt, tgt_rows, src, src_rows in parts:
            for q in np.unique(src.quot[src_rows]):
                sel = src.quot[src_rows] == q
                tq, sq = tgt.quotients[tgt.quot[tgt_rows[sel][0]]], src.quotients[q]
                blk = np.stack([tq.cmap @ np.kron(a, np.eye(sq.prod_dim // a.shape[1])) @ sq.w
                                for a in slots(sq)])
                r, c = np.nonzero((np.abs(blk) > 0.0).any(axis=0))
                coo.append((np.tile(blk[:, r, c], np.count_nonzero(sel)),
                            (tgt.offset[tgt_rows[sel]][:, None] + r).reshape(-1),
                            (src.offset[src_rows[sel]][:, None] + c).reshape(-1)))
        vals, rows, cols = (np.concatenate(x, axis=-1) for x in zip(*coo))
        return _Template.from_coo(rows, cols, vals, self.total_dim)

    def _diag_operator(self, mask: np.ndarray, key: str) -> FockOperator:
        """Diagonal operator with the given diagonal, built once per key."""
        return self._structure(("diag", key), lambda: FockOperator(
            self, sparse.diags(mask.astype(complex), format="csr")
        ))

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
            fk, pk = self.factors[k], self._pos[k]
            e_cols = np.eye(fk.e_dim, dtype=complex)[:, :, None]
            ymats = fk.right_b.transpose(2, 1, 0)  # ymats[s][:, j] = right_b[j] e_s
            # a level lists the index at position p prepended to each sequence
            # of the level below not led by p, in order, for p = 0, 1, ...
            parts = [(tgt, np.flatnonzero(self._led_by(tgt.pos, pk)),
                      src, np.flatnonzero(~self._led_by(src.pos, pk)))
                     for src, tgt in zip(self._levels, self._levels[1:])]
            return self._template(parts, lambda sq: e_cols if sq.seq else ymats)

        return self._structure(("creation", k), build)

    def _annihilation_template(self, k: int) -> _Template:
        """Adjoints of the creation operators of factor k, term for term."""
        return self._structure(("annihilation", k), lambda: self._creation_template(k).adjoint())

    def _first_slot_template(self, led, slots) -> _Template:
        """Block-diagonal on the summands led(pos) selects; level 0's first slot is B."""
        return self._template([(lev, rows, lev, rows) for lev in self._levels
                               for rows in [np.flatnonzero(led(lev.pos))]], slots)

    def _diagonal_template(self, k: int) -> _Template:
        """First-slot matrix units e_s e_t* on summands led by factor k, s-major."""
        e = self.factors[k].e_dim
        return self._structure(("diagonal", k), lambda: self._first_slot_template(
            lambda pos: self._led_by(pos, self._pos[k]),
            lambda q: np.eye(e * e, dtype=complex).reshape(e * e, e, e)))

    def _leftb_template(self) -> _Template:
        """Left actions of the basis elements b_j of B on every summand."""
        lmats = self.base.mult.transpose(0, 2, 1)  # lmats[j][k', k] = coords of b_j b_k
        return self._structure(("leftb",), lambda: self._first_slot_template(
            lambda pos: np.ones(len(pos), dtype=bool),
            lambda q: self.factors[q.seq[0]].left_b if q.seq else lmats))

    def _fold(self, template: _Template, coeffs) -> FockOperator:
        """sum_j coeffs[j] theta_j in canonical CSR, left-folded over the nonzero
        coeffs with exact zeros dropped: entry for entry a sum of sparse matrices."""
        terms = [(c, t) for c, t in zip(coeffs, template.coef) if c != 0.0]
        if not terms:
            return self.zero()
        data = terms[0][1] * terms[0][0]
        for c, t in terms[1:]:
            data = data + t * c
        matrix = sparse.csr_matrix((data, template.indices, template.indptr),
                                   shape=(self.total_dim,) * 2, copy=True)
        if not data.all():
            matrix.eliminate_zeros()
        return FockOperator(self, matrix)

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

    def first_slot_projection(self, k: int) -> FockOperator:
        if k not in self.factors:
            raise ConfigError(f"index {k} is not a factor of this context")
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
        fk = self.factors[k]
        if isinstance(y, ModuleVector):
            if y.module is not fk.mod:
                raise StructureError("vector belongs to a different module")
            carrier = y.coords
        else:
            carrier = as_complex(y)
            if carrier.shape == (fk.e_dim,):
                return carrier
        e_part = fk.e_basis.conj().T @ carrier
        b_norm = np.linalg.norm(fk.mod.b_summand.conj().T @ carrier)
        if b_norm > STRUCT_TOL * max(np.linalg.norm(carrier), 1.0):
            raise StructureError("creation vector has a component in the B-summand")
        return e_part

    def creation(self, k: int, y) -> FockOperator:
        """The operator prepending y in E_k deg; kills tensors already led by k."""
        return self._fold(self._creation_template(k), self.e_coords(k, y))

    def diagonal_action(self, k: int, a_coords) -> FockOperator:
        """First-slot action x1 -> H_k(a x1) on tensors led by k, zero elsewhere."""
        fk = self.factors[k]
        if np.ndim(a_coords) != 1 or len(a_coords) != fk.spec.algebra.dim:
            raise StructureError(f"expected coordinates in the factor-{k} algebra")
        slot = fk.rho_slot(as_complex(a_coords))
        return self._fold(self._diagonal_template(k), slot.reshape(-1))

    def left_b_action(self, b_coords) -> FockOperator:
        return self._fold(self._leftb_template(), as_complex(b_coords))

    def letter_parts(self, i: int, a_coords) -> LetterParts:
        """The terms of the letter representation of a in the i-th factor.

        Decomposes a = phi(a) + a0: the centered part a0 acts by creation of
        hat(a0), first-slot diagonal action and annihilation by hat(a0*); the
        B-part phi(a) acts by left multiplication everywhere.
        """
        fi = self.factors[i]
        a_coords = as_complex(a_coords)
        b_part = fi.spec.apply(a_coords)
        a0 = a_coords - fi.spec.sub_to_full(b_part)
        h_up, resid_up = fi.hat_split(a0)
        g, resid_dn = fi.hat_split(fi.spec.algebra.adjoint_coords(a0))
        resid = max(resid_up, resid_dn)  # tolerance STRUCT_TOL max(||a||, 1) >= STRUCT_TOL
        if resid > STRUCT_TOL and resid > STRUCT_TOL * fi.spec.algebra.norm(a_coords):
            raise StructureError("centered part of the letter leaks into the B-summand")
        left_b = self.left_b_action(b_part) if np.linalg.norm(b_part) > 0.0 else None
        return LetterParts(self.creation(i, h_up), self.diagonal_action(i, a0),
                           self._fold(self._annihilation_template(i), g.conj()), left_b)

    def represent(self, i: int, a_coords) -> FockOperator:
        """The letter representation of a in the i-th factor: the sum of its
        ``letter_parts``."""
        return self.letter_parts(i, a_coords).total()

    def vacuum_isometry(self) -> np.ndarray:
        """Columns embed the sigma-space through the unit of B at level zero."""
        nb = self.base.nb
        s0 = self.summand(())
        c = np.kron(self.base.alg.unit_coords.reshape(-1, 1), np.eye(nb))
        v = np.zeros((self.total_dim, nb), dtype=complex)
        v[s0.offset:s0.offset + s0.rank, :] = s0.cmap @ c
        return v

    def vacuum_expectation(self, x: FockOperator) -> np.ndarray:
        """B-coordinates of the compression of x to the unit at level zero."""
        v = self.vacuum_isometry()
        f = v.conj().T @ (x.matrix @ v)
        return self.base.alg.expand(np.asarray(f))


def build_fock(
    base,
    factors: dict[int, AlgebraWithExpectation],
    max_level: int,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FockContext:
    """Assemble the truncated Fock context for the given factor family.

    ``base`` is the algebra playing the role of B in its own ambient matrices
    (a MatrixStarAlgebra, or an AlgebraWithExpectation whose algebra is B).
    Every factor must carry a subalgebra matching the base through the
    basis-aligned identification.
    """
    if isinstance(base, AlgebraWithExpectation):
        base_alg = base.algebra
    else:
        base_alg = base
    if len(factors) < 2:
        raise ConfigError("an amalgamated free product needs at least two factors")
    if max_level < 0:
        raise ConfigError("the truncation level must be nonnegative")
    bd = _base_data(base_alg)
    by_spec: dict[int, _FactorData] = {}  # built once per spec object
    for idx in sorted(factors):
        if id(factors[idx]) not in by_spec:
            _check_same_subalgebra(bd, factors[idx], idx)
            by_spec[id(factors[idx])] = _factor_data(factors[idx], bd)
    fd = {idx: by_spec[id(spec)] for idx, spec in factors.items()}
    return FockContext(bd, fd, max_level, max_dim)

