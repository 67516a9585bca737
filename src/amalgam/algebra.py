"""Finite-dimensional matrix *-algebras with a conditional expectation.

An algebra is given concretely: an ambient size ``n`` and a list of complex
``n x n`` matrices spanning a subspace closed under products and adjoints and
containing the identity. A conditional expectation onto a distinguished unital
subalgebra is a linear map written as a matrix in the chosen bases. Every
structural axiom is checked numerically at construction or on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StructureError
from .linalg import RANK_RTOL, as_complex, rank_from_spectrum

POSITIVITY_SAMPLES = 200
WITNESS_SAMPLES = 100


@dataclass(frozen=True)
class MatrixStarAlgebra:
    """A *-subalgebra of the n x n complex matrices, given by an ordered basis."""

    ambient_dim: int
    basis: np.ndarray  # (dim, n, n)
    unit_coords: np.ndarray  # (dim,)
    _pinv: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def matrix(self, coords) -> np.ndarray:
        """Ambient matrix of the element with the given basis coordinates."""
        return np.tensordot(as_complex(coords), self.basis, axes=(0, 0))

    def expand(self, mat, rtol: float = 1e-8) -> np.ndarray:
        """Coordinates of an ambient matrix in the basis; StructureError if outside the span."""
        mat = as_complex(mat)
        vec = mat.reshape(-1)
        coords = self._pinv @ vec
        scale = np.linalg.norm(vec)
        resid = np.linalg.norm(self._flat().T @ coords - vec)
        if resid > rtol * max(scale, 1.0):
            raise StructureError(
                f"matrix is outside the algebra span (residual {resid:.3e})"
            )
        return coords

    def in_span(self, mat, rtol: float = 1e-8) -> bool:
        try:
            self.expand(mat, rtol)
            return True
        except StructureError:
            return False

    def adjoint_coords(self, coords) -> np.ndarray:
        return self.expand(self.matrix(coords).conj().T)

    def norm(self, coords) -> float:
        """Operator norm of the element in its ambient representation."""
        m = self.matrix(coords)
        return float(np.linalg.norm(m, 2)) if m.size else 0.0

    def _flat(self) -> np.ndarray:
        return self.basis.reshape(self.dim, -1)


def star_algebra(basis_mats, rtol: float = 1e-9) -> MatrixStarAlgebra:
    """Build and validate a MatrixStarAlgebra from a list of ambient matrices.

    Checks linear independence of the basis, membership of the identity, and
    closure under products and adjoints.
    """
    basis = as_complex(np.stack([as_complex(m) for m in basis_mats]))
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise ConfigError("algebra basis must be a list of square matrices")
    dim, n, _ = basis.shape
    flat = basis.reshape(dim, -1)
    gram = flat.conj() @ flat.T
    svals = np.linalg.svd(gram, compute_uv=False)
    if rank_from_spectrum(svals) < dim:
        raise StructureError("algebra basis is linearly dependent")
    pinv = np.linalg.pinv(flat.T, rcond=RANK_RTOL)
    alg = MatrixStarAlgebra(n, basis, np.zeros(dim), pinv)
    try:
        unit = alg.expand(np.eye(n))
    except StructureError as exc:
        raise StructureError("identity matrix is not in the algebra span") from exc
    alg = MatrixStarAlgebra(n, basis, unit, pinv)
    scale = max(np.linalg.norm(basis[j], 2) for j in range(dim))
    for j in range(dim):
        if not alg.in_span(basis[j].conj().T, rtol * scale):
            raise StructureError("algebra span is not closed under adjoints")
        for k in range(dim):
            if not alg.in_span(basis[j] @ basis[k], rtol * scale * scale):
                raise StructureError("algebra span is not closed under products")
    return alg


@dataclass(frozen=True)
class AlgebraWithExpectation:
    """A pair B inside A with a conditional expectation A -> B.

    ``expectation`` is a (dim B, dim A) matrix acting on A-coordinates and
    producing B-coordinates.
    """

    algebra: MatrixStarAlgebra
    subalgebra: MatrixStarAlgebra
    expectation: np.ndarray
    inclusion: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        a, b = self.algebra, self.subalgebra
        if a.ambient_dim != b.ambient_dim:
            raise ConfigError(
                f"ambient dimension mismatch: A lives in M_{a.ambient_dim}, "
                f"B in M_{b.ambient_dim}"
            )
        e = as_complex(self.expectation)
        if e.shape != (b.dim, a.dim):
            raise ConfigError(
                f"expectation matrix has shape {e.shape}, expected {(b.dim, a.dim)}"
            )
        try:
            incl = np.stack([a.expand(b.basis[j]) for j in range(b.dim)], axis=1)
        except StructureError as exc:
            raise StructureError("subalgebra basis is not contained in A") from exc
        object.__setattr__(self, "expectation", e)
        object.__setattr__(self, "inclusion", incl)

    def apply(self, a_coords) -> np.ndarray:
        """phi(a) in B-coordinates."""
        return self.expectation @ as_complex(a_coords)

    def apply_matrix(self, mat) -> np.ndarray:
        """phi of an ambient matrix, returned as an ambient matrix of B."""
        return self.subalgebra.matrix(self.apply(self.algebra.expand(mat)))

    def sub_to_full(self, b_coords) -> np.ndarray:
        """A-coordinates of an element given in B-coordinates."""
        return self.inclusion @ as_complex(b_coords)


@dataclass(frozen=True)
class CenteredElement:
    """An element a of the algebra copy ``owner`` with phi(a) = 0."""

    owner: int
    coords: np.ndarray


def center(spec: AlgebraWithExpectation, a, owner: int = 0) -> CenteredElement:
    """a minus phi(a), packaged with its owner index."""
    coords = as_complex(a) if np.ndim(a) == 1 else spec.algebra.expand(a)
    return CenteredElement(owner, coords - spec.sub_to_full(spec.apply(coords)))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _random_coords(rng, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def validate_expectation(
    spec: AlgebraWithExpectation,
    tol: float = 1e-9,
    seed: int = 0xC0FFEE,
) -> ValidationReport:
    """Run all structural checks on a conditional expectation.

    Checks, with residuals in operator norm: unit preservation, idempotence
    onto B, the B-bimodule property on basis triples, positivity of
    phi(a* a) on sampled a, and the nondegeneracy condition (for every basis
    element a of A some x has phi(x* a* a x) != 0, searched over the basis
    and random elements).
    """
    a, b = spec.algebra, spec.subalgebra
    checks: list[Check] = []
    rng = np.random.default_rng(seed)

    unit_resid = b.norm(spec.apply(a.unit_coords) - b.unit_coords)
    checks.append(Check("unit_preservation", unit_resid <= tol, float(unit_resid)))

    # phi restricted to B is the identity, and phi composed with phi is phi.
    restrict = spec.expectation @ spec.inclusion
    rest_resid = float(np.linalg.norm(restrict - np.eye(b.dim), 2))
    idem = spec.expectation @ spec.inclusion @ spec.expectation
    idem_resid = float(np.linalg.norm(idem - spec.expectation, 2))
    resid = max(rest_resid, idem_resid)
    checks.append(Check("idempotence", resid <= tol, resid))

    bim_resid = 0.0
    for j in range(b.dim):
        bj = b.basis[j]
        for k in range(b.dim):
            bk = b.basis[k]
            for m in range(a.dim):
                am = a.basis[m]
                lhs = spec.apply_matrix(bj @ am @ bk)
                rhs = bj @ spec.apply_matrix(am) @ bk
                bim_resid = max(bim_resid, float(np.linalg.norm(lhs - rhs, 2)))
    checks.append(Check("bimodule", bim_resid <= tol, bim_resid))

    pos_floor = 0.0
    samples = [np.eye(a.dim)[j] for j in range(a.dim)]
    samples += [_random_coords(rng, a.dim) for _ in range(POSITIVITY_SAMPLES)]
    for coords in samples:
        m = a.matrix(coords)
        val = spec.apply_matrix(m.conj().T @ m)
        evals = np.linalg.eigvalsh(0.5 * (val + val.conj().T))
        scale = max(float(np.linalg.norm(m, 2)) ** 2, 1.0)
        pos_floor = max(pos_floor, float(-evals.min(initial=0.0)) / scale)
    checks.append(Check("positivity", pos_floor <= tol, pos_floor))

    missing = []
    witnesses_x = [np.eye(a.dim)[j] for j in range(a.dim)]
    witnesses_x += [_random_coords(rng, a.dim) for _ in range(WITNESS_SAMPLES)]
    for j in range(a.dim):
        am = a.basis[j]
        found = False
        for xc in witnesses_x:
            x = a.matrix(xc)
            val = spec.apply_matrix(x.conj().T @ am.conj().T @ am @ x)
            if np.linalg.norm(val, 2) > tol * max(np.linalg.norm(x, 2) ** 2, 1.0):
                found = True
                break
        if not found:
            missing.append(j)
    checks.append(
        Check(
            "nondegeneracy",
            not missing,
            float(len(missing)),
            "" if not missing else f"no witness for basis elements {missing}",
        )
    )

    adj_resid = 0.0
    for coords in samples[: a.dim + 50]:
        lhs = spec.apply(a.adjoint_coords(coords))
        rhs = b.adjoint_coords(spec.apply(coords))
        adj_resid = max(
            adj_resid,
            b.norm(lhs - rhs) / max(a.norm(coords), 1.0),
        )
    checks.append(Check("adjoint_compatibility", adj_resid <= tol, float(adj_resid)))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# JSON configuration and presets
# ---------------------------------------------------------------------------


def _mat_from_pairs(pairs, rows: int, cols: int) -> np.ndarray:
    data = as_complex([complex(re, im) for re, im in pairs])
    if data.size != rows * cols:
        raise ConfigError(f"expected {rows * cols} complex pairs, got {data.size}")
    return data.reshape(rows, cols)


def scalars_in_matn(n: int) -> AlgebraWithExpectation:
    """Full M_n over the scalars, with the normalized trace."""
    basis = [
        np.outer(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(n)
    ]
    a = star_algebra(basis)
    b = star_algebra([np.eye(n)])
    exp = np.array(
        [[np.trace(a.basis[k]).real / n for k in range(a.dim)]], dtype=complex
    )
    return AlgebraWithExpectation(a, b, exp)


def diagonal_in_matn(n: int) -> AlgebraWithExpectation:
    """Full M_n over its diagonal, expectation kills off-diagonal entries."""
    basis = [
        np.outer(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(n)
    ]
    a = star_algebra(basis)
    b = star_algebra([np.outer(np.eye(n)[i], np.eye(n)[i]) for i in range(n)])
    exp = np.zeros((n, n * n), dtype=complex)
    for i in range(n):
        exp[i, i * n + i] = 1.0
    return AlgebraWithExpectation(a, b, exp)


def function_algebra_with_state(
    points: int, weights=None
) -> AlgebraWithExpectation:
    """Functions on finitely many points (diagonal matrices) over the scalars.

    The expectation is the state f -> sum_i w_i f(i); weights default to the
    uniform distribution.
    """
    if weights is None:
        weights = np.full(points, 1.0 / points)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (points,):
        raise ConfigError("weights must have one entry per point")
    basis = [np.diag(np.eye(points)[i]) for i in range(points)]
    a = star_algebra(basis)
    b = star_algebra([np.eye(points)])
    exp = as_complex(weights).reshape(1, points)
    return AlgebraWithExpectation(a, b, exp)


def scalar_base() -> MatrixStarAlgebra:
    """The complex scalars as 1 x 1 matrices; the base algebra for B = C."""
    return star_algebra([np.eye(1)])


def diagonal_base(n: int) -> MatrixStarAlgebra:
    """Diagonal n x n matrices as their own base algebra."""
    return star_algebra([np.diag(np.eye(n)[i]) for i in range(n)])


PRESETS = {
    "scalars_in_matn": scalars_in_matn,
    "diagonal_in_matn": diagonal_in_matn,
    "function_algebra_with_state": function_algebra_with_state,
}


def algebra_from_json(obj) -> AlgebraWithExpectation:
    """Load an AlgebraWithExpectation from its JSON form or a named preset."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "preset" in obj:
        name = obj["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown algebra preset {name!r}", "/preset")
        params = {k: v for k, v in obj.items() if k != "preset"}
        return PRESETS[name](**params)
    try:
        n = int(obj["ambient_dim"])
        alg_mats = [_mat_from_pairs(p, n, n) for p in obj["algebra_basis"]]
        sub_mats = [_mat_from_pairs(p, n, n) for p in obj["subalgebra_basis"]]
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}", f"/{exc.args[0]}") from exc
    a = star_algebra(alg_mats)
    b = star_algebra(sub_mats)
    exp = _mat_from_pairs(obj["expectation_matrix"], b.dim, a.dim)
    return AlgebraWithExpectation(a, b, exp)

