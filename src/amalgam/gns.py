"""The right Hilbert B-module L^2(A, phi) obtained by separation.

The B-valued inner product is <x, y> = phi(x* y). Separation quotients A by
the null space of the scalar form obtained by composing with the faithful
state "normalized trace on the ambient matrices of B"; completion is vacuous
at finite dimension. The module splits as B (+) E_deg, where E_deg is the
orthogonal complement of the image of B under the hat map. The Gram and every
action are contractions of the multiplication table of A with the carrier.
The module also keeps what a Fock module of interior tensor products of the
E_deg reads of it (Lance, Hilbert C*-Modules, ch. 4): E_deg's B-valued Gram
``bip_e`` and the left action ``left_b`` of B's basis on E_deg, which must
preserve the unit splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraWithExpectation
from .errors import StructureError
from .linalg import as_complex, gram_quotient, hermitian_part, orthonormal_columns

STRUCT_TOL = 1e-9


@dataclass(frozen=True)
class GnsModule:
    """L^2(A, phi) with its hat map, B-valued Gram data and unit splitting.

    Carrier coordinates refer to an orthonormal basis (for the scalarized
    inner product) of the separated module. ``carrier_basis`` columns hold
    representatives of those basis vectors in A-coordinates.
    """

    spec: AlgebraWithExpectation
    carrier_basis: np.ndarray  # (dim A, d)
    hat_matrix: np.ndarray  # (d, dim A)
    scalar_gram: np.ndarray  # (dim A, dim A), audit copy
    b_summand: np.ndarray  # (d, db) orthonormal basis of the image of B
    e_basis: np.ndarray  # (d, e) orthonormal basis of E_deg
    left_action_basis: np.ndarray = field(repr=False)  # (dim A, d, d)
    bip_full: np.ndarray = field(repr=False)  # (d, d, db)
    bip_e: np.ndarray = field(repr=False)  # (e, e, db): <e_s, e_t>_B
    left_b: np.ndarray = field(repr=False)  # (db, e, e): b_j on E_deg

    @property
    def carrier_dim(self) -> int:
        return self.carrier_basis.shape[1]

    @property
    def e_dim(self) -> int:
        return self.e_basis.shape[1]

    def hat(self, a_coords) -> np.ndarray:
        """Carrier coordinates of the image of a under the canonical map."""
        return self.hat_matrix @ as_complex(a_coords)

    def left_action(self, a_coords) -> np.ndarray:
        """Matrix on the carrier of left multiplication by a."""
        return np.tensordot(as_complex(a_coords), self.left_action_basis, axes=(0, 0))

    def hat_split(self, a_coords) -> tuple[np.ndarray, float]:
        """E-deg coordinates of hat(a) plus the norm of its B-summand part."""
        h = self.hat(a_coords)
        return self.e_basis.conj().T @ h, float(np.linalg.norm(self.b_summand.conj().T @ h))

    def rho_slot(self, a_coords) -> np.ndarray:
        """First-slot action x -> H(a x) compressed to the E-deg basis."""
        return self.e_basis.conj().T @ self.left_action(a_coords) @ self.e_basis


@dataclass(frozen=True)
class ModuleVector:
    module: GnsModule
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", as_complex(self.coords))


def build_gns(spec: AlgebraWithExpectation) -> GnsModule:
    """Separate A with respect to <x, y> = phi(x* y) and assemble the module."""
    a, b = spec.algebra, spec.subalgebra

    # phi(a_j* a_k) in B-coordinates, from the structure constants of A
    phi_bip = np.tensordot(a.adj, a.mult, axes=(0, 0)) @ spec.expectation.T
    # Scalar form: the normalized ambient trace of B applied to phi(x* y).
    gram = np.trace(np.tensordot(phi_bip, b.basis, axes=(2, 0)), axis1=2, axis2=3)
    gram = hermitian_part(gram / b.ambient_dim)

    carrier, hat_matrix = gram_quotient(gram)
    rank = carrier.shape[1]
    if rank == 0:
        raise StructureError("the expectation is degenerate: the module collapses")
    # column c of left[j] is hat(a_j x_c) for the representative x_c of c
    left = hat_matrix @ (a.mult.transpose(0, 2, 1) @ carrier)

    b_summand = orthonormal_columns(hat_matrix @ spec.inclusion)
    complement = np.eye(rank) - b_summand @ b_summand.conj().T
    e_basis = orthonormal_columns(complement)
    if b_summand.shape[1] + e_basis.shape[1] != rank:
        raise StructureError("unit splitting failed to span the carrier")

    bip = np.einsum("lu,mv,lmd->uvd", carrier.conj(), carrier, phi_bip)
    bip_e = np.einsum("us,vt,uvd->std", e_basis.conj(), e_basis, bip)
    # act[j] is the left action of b_j on the carrier; it must map E_deg into itself
    act = np.tensordot(spec.inclusion.T, left, axes=(1, 0))
    off = np.linalg.norm(b_summand.conj().T @ act @ e_basis, 2, axis=(1, 2))
    if (off > STRUCT_TOL * np.maximum(np.linalg.norm(act, 2, axis=(1, 2)), 1.0)).any():
        raise StructureError("left B-action does not preserve the unit splitting")

    return GnsModule(
        spec=spec,
        carrier_basis=carrier,
        hat_matrix=hat_matrix,
        scalar_gram=gram,
        b_summand=b_summand,
        e_basis=e_basis,
        left_action_basis=left,
        bip_full=bip,
        bip_e=bip_e,
        left_b=e_basis.conj().T @ act @ e_basis,
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
    return float(np.sqrt(mod.spec.subalgebra.norm(sq)))

