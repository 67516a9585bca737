"""Truncated amalgamated Fock module realized as a finite Hilbert space.

The module is the direct sum, over alternating index sequences (i_1,...,i_m)
with m up to a truncation level, of internal tensor products
E_{i_1}deg (x)_B ... (x)_B E_{i_m}deg, plus a copy of B at level zero. It is
turned into an honest Hilbert space by tensoring with the identity
representation of B on its own ambient matrix space. Tensor-level Gram
degeneracies are quotiented with the package-wide rank cutoff.

Operators are realized as sparse CSR matrices: level projections, first-slot
projections, creation operators (prepend a vector of E_k deg), first-slot
diagonal actions, and the letter representation of each factor algebra.
Any term that would raise above the truncation level maps to zero; identities
involving creation at the top level therefore hold only below it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .algebra import AlgebraWithExpectation, MatrixStarAlgebra
from .errors import CapacityError, ConfigError, StructureError
from .gns import GnsModule, ModuleVector, build_gns
from .linalg import (
    as_complex,
    adjoint,
    hermitian_part,
    operator_norm,
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
    """A matrix on a FockContext, tagged by how it was built.

    ``matrix`` is always a ``scipy.sparse.csr_matrix``.
    """

    context: "FockContext"
    matrix: sparse.csr_matrix
    tag: str = "op"

    @property
    def H(self) -> "FockOperator":
        return FockOperator(self.context, adjoint(self.matrix), f"{self.tag}*")

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._same(other)
        return FockOperator(self.context, self.matrix @ other.matrix, "product")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._same(other)
        return FockOperator(self.context, self.matrix + other.matrix, "sum")

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._same(other)
        return FockOperator(self.context, self.matrix - other.matrix, "sum")

    def __rmul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.context, scalar * self.matrix, self.tag)

    def __neg__(self) -> "FockOperator":
        return (-1.0) * self

    def norm(self) -> float:
        return operator_norm(self.matrix)

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


@dataclass
class _Summand:
    sid: int
    seq: tuple[int, ...]
    prod_dim: int
    rank: int
    offset: int
    w: np.ndarray  # (prod_dim, rank), orthonormal representatives
    cmap: np.ndarray  # (rank, prod_dim), coordinates of a product vector


class FockContext:
    """Immutable realization of the truncated Fock module. Build via build_fock."""

    def __init__(self, base: _BaseData, factors: dict[int, _FactorData],
                 max_level: int, max_dim: int):
        self.base = base
        self.factors = factors
        self.order = tuple(sorted(factors))
        self.max_level = max_level
        self.max_dim = max_dim
        self._summands: list[_Summand] = []
        self._by_seq: dict[tuple[int, ...], _Summand] = {}
        self._level_end: list[int] = []
        self._struct_cache: dict = {}
        self._struct_lock = threading.Lock()
        self._build_summands()

    # -- construction -------------------------------------------------------

    def _sequences(self, m: int):
        if m == 0:
            yield ()
            return
        for seq in itertools.product(self.order, repeat=m):
            if all(seq[j] != seq[j + 1] for j in range(m - 1)):
                yield seq

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

    def _build_summands(self):
        estimate = 0
        seqs = []
        for m in range(self.max_level + 1):
            for seq in self._sequences(m):
                p = self.base.nb
                for i in seq:
                    p *= self.factors[i].e_dim
                if not seq:
                    p = self.base.db * self.base.nb
                estimate += p
                seqs.append((seq, p))
            if estimate > self.max_dim:
                raise CapacityError(
                    f"Fock dimension estimate {estimate} exceeds the cap "
                    f"{self.max_dim} at level {m}",
                    required=estimate,
                )
        offset = 0
        level_end = []
        current_level = 0
        for sid, (seq, p) in enumerate(seqs):
            while len(seq) > current_level:
                level_end.append(offset)
                current_level += 1
            g = self._seq_gram(seq)
            evals, evecs = np.linalg.eigh(g)
            ordering = np.argsort(evals)[::-1]
            evals, evecs = evals[ordering], evecs[:, ordering]
            evals = np.clip(evals, 0.0, None)
            rank = rank_from_spectrum(evals)
            w = evecs[:, :rank] / np.sqrt(evals[:rank]) if rank else evecs[:, :0]
            cmap = w.conj().T @ g
            s = _Summand(sid, seq, p, rank, offset, w, cmap)
            self._summands.append(s)
            self._by_seq[seq] = s
            offset += rank
        while len(level_end) <= self.max_level:
            level_end.append(offset)
        self.total_dim = offset
        self._level_end = level_end

    # -- layout --------------------------------------------------------------

    def level_range(self, m: int) -> tuple[int, int]:
        """Global coordinate range [start, end) of level m."""
        if m < 0 or m > self.max_level:
            raise ConfigError(f"level {m} outside 0..{self.max_level}")
        start = 0 if m == 0 else self._level_end[m - 1]
        return start, self._level_end[m]

    def prefix_dim(self, m: int) -> int:
        """Number of coordinates in levels 0..m."""
        if m < 0:
            return 0
        return self._level_end[min(m, self.max_level)]

    def summands(self):
        return tuple(self._summands)

    def labels(self, seq) -> list[FockBasisLabel]:
        s = self._by_seq[tuple(seq)]
        nb = self.base.nb
        if not s.seq:
            comps = [(j,) for j in range(self.base.db)]
        else:
            comps = list(
                itertools.product(*(range(self.factors[i].e_dim) for i in s.seq))
            )
        return [
            FockBasisLabel(len(s.seq), s.seq, c, t)
            for c in comps
            for t in range(nb)
        ]

    def label_of_coordinate(self, idx: int) -> FockBasisLabel:
        """Dominant product label for a global quotient coordinate."""
        for s in self._summands:
            if s.offset <= idx < s.offset + s.rank:
                rep = s.w[:, idx - s.offset]
                return self.labels(s.seq)[int(np.argmax(np.abs(rep)))]
        raise ConfigError(f"coordinate {idx} out of range")

    def summary(self) -> dict:
        levels = []
        for m in range(self.max_level + 1):
            entries = [
                {"sequence": list(s.seq), "product_dim": s.prod_dim, "rank": s.rank}
                for s in self._summands
                if len(s.seq) == m
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

    def _matrix_from_blocks(self, blocks) -> sparse.csr_matrix:
        n = self.total_dim
        rows, cols, vals = [], [], []
        for (tgt, src), blk in blocks:
            r, c = np.nonzero(np.abs(blk) > 0.0)
            rows.append(r + tgt.offset)
            cols.append(c + src.offset)
            vals.append(blk[r, c])
        if rows:
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            vals = np.concatenate(vals)
        return sparse.csr_matrix(
            (vals, (rows, cols)), shape=(n, n), dtype=complex
        )

    def _diag_operator(self, mask: np.ndarray, tag: str) -> FockOperator:
        """Diagonal operator with the given diagonal, built once per tag."""
        return self._structure(("diag", tag), lambda: FockOperator(
            self, sparse.diags(mask.astype(complex), format="csr"), tag
        ))

    def _structure(self, key, builder):
        cached = self._struct_cache.get(key)
        if cached is not None:
            return cached
        with self._struct_lock:
            if key not in self._struct_cache:
                self._struct_cache[key] = builder()
            return self._struct_cache[key]

    def _psi_structure(self, k: int, s: int):
        """Matrix of the creation operator of the s-th E-deg basis vector of factor k."""

        def build():
            fk = self.factors[k]
            nb = self.base.nb
            blocks = []
            e_col = np.zeros((fk.e_dim, 1), dtype=complex)
            e_col[s, 0] = 1.0
            ymat = np.stack(
                [fk.right_b[j] @ e_col[:, 0] for j in range(self.base.db)], axis=1
            )
            for src in self._summands:
                if not src.seq:
                    if self.max_level < 1:
                        continue
                    tgt = self._by_seq[(k,)]
                    t = np.kron(ymat, np.eye(nb))
                elif src.seq[0] != k and len(src.seq) < self.max_level:
                    tgt = self._by_seq[(k,) + src.seq]
                    t = np.kron(e_col, np.eye(src.prod_dim))
                else:
                    continue
                blocks.append(((tgt, src), tgt.cmap @ t @ src.w))
            return self._matrix_from_blocks(blocks)

        return self._structure(("psi", k, s), build)

    def _rho_structure(self, k: int, s: int, t: int):
        """First-slot matrix unit e_s e_t* on summands led by factor k."""

        def build():
            fk = self.factors[k]
            unit = np.zeros((fk.e_dim, fk.e_dim), dtype=complex)
            unit[s, t] = 1.0
            blocks = []
            for src in self._summands:
                if src.seq and src.seq[0] == k:
                    rest = src.prod_dim // fk.e_dim
                    tt = np.kron(unit, np.eye(rest))
                    blocks.append(((src, src), src.cmap @ tt @ src.w))
            return self._matrix_from_blocks(blocks)

        return self._structure(("rho", k, s, t), build)

    def _leftb_structure(self, j: int):
        """Left action of the j-th basis element of B on every summand."""

        def build():
            nb, db = self.base.nb, self.base.db
            lmat = self.base.mult[j].T  # lmat[k', k] = coords of b_j b_k
            blocks = []
            for src in self._summands:
                if not src.seq:
                    t = np.kron(lmat, np.eye(nb))
                else:
                    f1 = self.factors[src.seq[0]]
                    rest = src.prod_dim // f1.e_dim
                    t = np.kron(f1.left_b[j], np.eye(rest))
                blocks.append(((src, src), src.cmap @ t @ src.w))
            return self._matrix_from_blocks(blocks)

        return self._structure(("leftb", j), build)

    def _combine(self, parts, tag) -> FockOperator:
        terms = [coeff * mat for coeff, mat in parts if coeff != 0.0]
        if not terms:
            return FockOperator(self, self.zero().matrix, tag)
        return FockOperator(self, sum(terms[1:], terms[0]), tag)

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
        mask = np.zeros(self.total_dim)
        for s in self._summands:
            if s.seq and s.seq[0] == k:
                mask[s.offset:s.offset + s.rank] = 1.0
        return self._diag_operator(mask, f"Q{k}")

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
        ye = self.e_coords(k, y)
        parts = [(ye[s], self._psi_structure(k, s)) for s in range(len(ye))]
        return self._combine(parts, f"psi{k}")

    def diagonal_action(self, k: int, a_coords) -> FockOperator:
        """First-slot action x1 -> H_k(a x1) on tensors led by k, zero elsewhere."""
        fk = self.factors[k]
        if np.ndim(a_coords) != 1 or len(a_coords) != fk.spec.algebra.dim:
            raise StructureError(f"expected coordinates in the factor-{k} algebra")
        slot = fk.rho_slot(as_complex(a_coords))
        parts = [
            (slot[s, t], self._rho_structure(k, s, t))
            for s in range(fk.e_dim)
            for t in range(fk.e_dim)
        ]
        return self._combine(parts, f"rho{k}")

    def left_b_action(self, b_coords) -> FockOperator:
        parts = [
            (as_complex(b_coords)[j], self._leftb_structure(j))
            for j in range(self.base.db)
        ]
        return self._combine(parts, "leftB")

    def represent(self, i: int, a_coords) -> FockOperator:
        """The letter representation of a in the i-th factor.

        Decomposes a = phi(a) + centered part; the centered part acts as
        creation + first-slot diagonal + annihilation, the B-part acts by
        left multiplication everywhere.
        """
        fi = self.factors[i]
        a_coords = as_complex(a_coords)
        b_part = fi.spec.apply(a_coords)
        a0 = a_coords - fi.spec.sub_to_full(b_part)
        h_up, resid_up = fi.hat_split(a0)
        g, resid_dn = fi.hat_split(fi.spec.algebra.adjoint_coords(a0))
        if max(resid_up, resid_dn) > STRUCT_TOL * max(fi.spec.algebra.norm(a_coords), 1.0):
            raise StructureError("centered part of the letter leaks into the B-summand")
        op = self.creation(i, h_up) + self.diagonal_action(i, a0)
        op = op + self.creation(i, g).H
        if np.linalg.norm(b_part) > 0.0:
            op = op + self.left_b_action(b_part)
        return FockOperator(self, op.matrix, f"lambda{i}")

    def vacuum_isometry(self) -> np.ndarray:
        """Columns embed the sigma-space through the unit of B at level zero."""
        nb = self.base.nb
        s0 = self._by_seq[()]
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
    fd: dict[int, _FactorData] = {}
    for idx in sorted(factors):
        spec = factors[idx]
        _check_same_subalgebra(bd, spec, idx)
        fd[idx] = _factor_data(spec, bd)
    return FockContext(bd, fd, max_level, max_dim)


def operator_coo_rows(x: FockOperator) -> list[tuple[int, int, float, float]]:
    """Coordinate-list export (row, col, re, im) of an operator matrix."""
    coo = x.matrix.tocoo()
    return [
        (int(r), int(c), float(v.real), float(v.imag))
        for r, c, v in zip(coo.row, coo.col, coo.data)
    ]
