"""Shared numerical linear algebra helpers.

Conventions used across the package:

* rank decisions use a scale-invariant cutoff: a singular value (or
  eigenvalue of a PSD matrix) below ``RANK_RTOL`` times the largest one
  counts as zero;
* every certified top singular value comes from ``restricted_sigma_max``.
  It returns ``||X v||`` for an explicit unit vector ``v``, found by Lanczos
  (ARPACK) on ``X* X`` applied as an operator, or by the exact Gram
  eigenproblem for blocks of at most ``GRAM_LIMIT`` columns;
* every upper bound on an operator norm, and so every residual checked
  against a tolerance, is the Frobenius norm from ``frobenius``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse

RANK_RTOL = 1e-10
GRAM_LIMIT = 64
POWER_RTOL = 1e-12  # relative eigen-residual tolerance of the Lanczos solve
DEFAULT_SEED = 0xC0FFEE


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def adjoint(x):
    """Conjugate transpose for dense arrays and sparse matrices alike."""
    if sparse.issparse(x):
        return x.conj().T.tocsr()
    return np.conj(x.T)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def rank_from_spectrum(values: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Numerical rank of a nonnegative spectrum under the relative cutoff."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0
    top = values.max(initial=0.0)
    if top <= 0.0:
        return 0
    return int(np.sum(values > rtol * top))


def orthonormal_columns(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``m`` (deterministic, via SVD)."""
    m = as_complex(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : rank_from_spectrum(s, rtol)]


def frobenius(x) -> float:
    """Frobenius norm, an upper bound for the operator norm, in one pass over
    the stored entries. Sparse input is read as canonical CSR: a duplicated
    entry split in two stored parts would count for less than their sum."""
    if not sparse.issparse(x):
        return float(np.linalg.norm(np.ravel(x)))
    x = x.tocsr()
    if not x.has_canonical_format:
        x = x.copy()
        x.sum_duplicates()
    return float(np.linalg.norm(x.data))


def restricted_sigma_max(x, seed: int = DEFAULT_SEED) -> tuple[float, np.ndarray]:
    """Largest singular value of ``x`` as ``(||x v||, v)`` for a unit witness ``v``.

    The value is a certified lower bound for ``||x||`` whether or not the
    solve converged. Blocks of at most ``GRAM_LIMIT`` columns take the top
    eigenvector of the dense Gram ``x* x``; wider ones run Lanczos on
    ``x* x`` without forming it, from a start vector drawn from ``seed``.
    """
    n = x.shape[1]
    if n == 0:
        return 0.0, np.zeros(0, dtype=complex)
    xh = adjoint(x)
    if n <= GRAM_LIMIT:
        gram = xh @ x
        gram = gram.toarray() if sparse.issparse(gram) else gram
        evals, evecs = np.linalg.eigh(hermitian_part(gram))
        v = evecs[:, int(np.argmax(evals))]
    else:
        v = _lanczos_witness(x, xh, seed)
    return float(np.linalg.norm(x @ v)), v


def _lanczos_witness(x, xh, seed: int) -> np.ndarray:
    """Unit top Ritz vector of ``x* x`` by implicitly restarted Lanczos.

    ARPACK solves a complex Hermitian problem through ``eigs`` (``eigsh``
    forwards it there without its random generator), so ``eigs`` is called
    directly: the seeded generator then also draws every restart vector, and
    the result does not depend on the process or the thread.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    n = x.shape[1]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    nonzero = x.count_nonzero() if sparse.issparse(x) else np.count_nonzero(x)
    if not nonzero:  # ARPACK cannot start on the zero operator
        return v0
    gram = LinearOperator((n, n), matvec=lambda v: xh @ (x @ v), dtype=complex)
    try:
        _, vecs = eigs(gram, k=1, which="LR", v0=v0, tol=POWER_RTOL, rng=rng)
    except ArpackNoConvergence as exc:
        warnings.warn(
            f"Lanczos on a {x.shape[0]}x{n} operator did not converge ({exc}); "
            "the bound is ||X v|| for the best Ritz vector",
            RuntimeWarning,
            stacklevel=3,
        )
        vecs = np.column_stack([exc.eigenvectors, v0])
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        return vecs[:, int(np.argmax(np.linalg.norm(x @ vecs, axis=0)))]
    v = vecs[:, 0]
    return v / np.linalg.norm(v)
