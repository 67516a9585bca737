"""The right Hilbert B-module L^2(A, phi) obtained by separation.

The B-valued inner product is <x, y> = phi(x* y). Separation quotients A by
the null space of the scalar form obtained by composing with the faithful
state "normalized trace on the ambient matrices of B"; completion is vacuous
at finite dimension. The module splits as B (+) E_deg, where E_deg is the
orthogonal complement of the image of B under the hat map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraWithExpectation
from .errors import StructureError
from .linalg import as_complex, orthonormal_columns, rank_from_spectrum


@dataclass(frozen=True)
class GnsModule:
    """L^2(A, phi) with its hat map, B-valued Gram data and unit splitting.

    Carrier coordinates refer to an orthonormal basis (for the scalarized
    inner product) of the separated module. ``carrier_basis`` columns hold
    representatives of those basis vectors in A-coordinates.
    """

    source: AlgebraWithExpectation
    carrier_basis: np.ndarray  # (dim A, d)
    hat_matrix: np.ndarray  # (d, dim A)
    scalar_gram: np.ndarray  # (dim A, dim A), audit copy
    b_summand: np.ndarray  # (d, db) orthonormal basis of the image of B
    e_basis: np.ndarray  # (d, e) orthonormal basis of E_deg
    left_action_basis: np.ndarray = field(repr=False, default=None)  # (dim A, d, d)
    bip_full: np.ndarray = field(repr=False, default=None)  # (d, d, db)

    @property
    def carrier_dim(self) -> int:
        return self.carrier_basis.shape[1]

    @property
    def e_dim(self) -> int:
        return self.e_basis.shape[1]

    def hat(self, a_coords) -> np.ndarray:
        """Carrier coordinates of the image of a under the canonical map."""
        return self.hat_matrix @ as_complex(a_coords)

    def lift(self, carrier_coords) -> np.ndarray:
        """A-coordinates of a representative of a carrier vector."""
        return self.carrier_basis @ as_complex(carrier_coords)

    def left_action(self, a_coords) -> np.ndarray:
        """Matrix on the carrier of left multiplication by a."""
        return np.tensordot(as_complex(a_coords), self.left_action_basis, axes=(0, 0))

    def right_action(self, b_coords) -> np.ndarray:
        """Matrix on the carrier of the right action of b in B."""
        a = self.source
        full = a.sub_to_full(b_coords)
        mat = a.algebra.matrix(full)
        cols = []
        for j in range(self.carrier_dim):
            rep = a.algebra.matrix(self.lift(np.eye(self.carrier_dim)[j]))
            cols.append(self.hat(a.algebra.expand(rep @ mat)))
        return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ModuleVector:
    module: GnsModule
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", as_complex(self.coords))


def build_gns(spec: AlgebraWithExpectation) -> GnsModule:
    """Separate A with respect to <x, y> = phi(x* y) and assemble the module."""
    a = spec.algebra
    nb = spec.subalgebra.ambient_dim
    dim = a.dim

    # Scalar form: the normalized ambient trace of B applied to phi(x* y).
    gram = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            val = spec.apply_matrix(a.basis[j].conj().T @ a.basis[k])
            gram[j, k] = np.trace(val) / nb
    gram = 0.5 * (gram + gram.conj().T)

    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = rank_from_spectrum(np.clip(evals, 0.0, None))
    if rank == 0:
        raise StructureError("the expectation is degenerate: the module collapses")
    carrier = evecs[:, :rank] / np.sqrt(evals[:rank])
    hat_matrix = carrier.conj().T @ gram

    left = np.empty((dim, rank, rank), dtype=complex)
    for j in range(dim):
        for c in range(rank):
            rep = a.matrix(carrier[:, c])
            left[j, :, c] = hat_matrix @ a.expand(a.basis[j] @ rep)

    b_image = np.stack(
        [hat_matrix @ spec.sub_to_full(np.eye(spec.subalgebra.dim)[j])
         for j in range(spec.subalgebra.dim)],
        axis=1,
    )
    b_summand = orthonormal_columns(b_image)
    complement = np.eye(rank) - b_summand @ b_summand.conj().T
    e_basis = orthonormal_columns(complement)
    if b_summand.shape[1] + e_basis.shape[1] != rank:
        raise StructureError("unit splitting failed to span the carrier")

    db = spec.subalgebra.dim
    bip = np.empty((rank, rank, db), dtype=complex)
    for u in range(rank):
        mu = a.matrix(carrier[:, u])
        for v in range(rank):
            mv = a.matrix(carrier[:, v])
            bip[u, v] = spec.apply(a.expand(mu.conj().T @ mv))

    return GnsModule(
        source=spec,
        carrier_basis=carrier,
        hat_matrix=hat_matrix,
        scalar_gram=gram,
        b_summand=b_summand,
        e_basis=e_basis,
        left_action_basis=left,
        bip_full=bip,
    )


def inner_product(mod: GnsModule, x: ModuleVector, y: ModuleVector) -> np.ndarray:
    """B-valued inner product <x, y> = phi(x* y), in B-coordinates.

    Conjugate-linear in the first argument.
    """
    if x.module is not mod or y.module is not mod:
        raise StructureError("inner product requires vectors from the same module")
    return np.einsum("u,v,uvd->d", np.conj(x.coords), y.coords, mod.bip_full)


def module_norm(mod: GnsModule, x: ModuleVector) -> float:
    """||x||_E = || <x, x> ||_B, the ambient operator norm of the B-valued square."""
    sq = inner_product(mod, x, x)
    return float(np.sqrt(mod.source.subalgebra.norm(sq)))

