"""Shared numerical linear algebra helpers.

Conventions used across the package:

* rank decisions use a scale-invariant cutoff: a singular value (or
  eigenvalue of a PSD matrix) below ``RANK_RTOL`` times the largest one
  counts as zero;
* every certified top singular value comes from ``restricted_sigma_max``.
  It returns ``||X v||`` for an explicit unit vector ``v``. A sparse ``X``
  is split into the connected components of its row/column graph, a direct
  sum whose norm is the largest of its summands' norms; when no component
  is wider than ``GRAM_LIMIT`` columns, ``v`` is the exact top eigenvector
  of the Gram block of the best one, from one batched eigenproblem per
  component size. Only an operator with a wider component goes to Lanczos
  on ``X* X`` applied as an operator, by one ARPACK driver, ``eigsh``, in
  real arithmetic: on n coordinates for a real ``X``, on the 2n of
  ``[Re v; Im v]`` for a complex one;
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
    """Hermitian part of a square matrix, or of each one in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


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
    solve converged. A block of at most ``GRAM_LIMIT`` columns is one
    component. A wider sparse block is split into the connected components
    of its bipartite row/column graph: columns in different components
    touch disjoint rows, so ``x* x`` is block diagonal over them and ``||x||``
    is the largest component norm. When every component has at most
    ``GRAM_LIMIT`` columns, their Gram blocks are solved exactly, by one
    batched ``eigh`` per component size, and ``v`` is the top eigenvector of
    the first component with the largest top eigenvalue, zero elsewhere.
    Any other block (dense, or with a wider component) runs Lanczos on
    ``x* x`` without forming it, from a start vector drawn from ``seed``.
    """
    n = x.shape[1]
    if n == 0:
        return 0.0, np.zeros(0, dtype=complex)
    if n <= GRAM_LIMIT:
        labels = np.zeros(n, dtype=np.intp)
    elif sparse.issparse(x):
        labels = _column_components(x)
    else:
        labels = None
    if labels is None:
        v = _lanczos_witness(x, seed)
    else:
        v = _gram_witness(x, labels)
    return float(np.linalg.norm(x @ v)), v


def _column_components(x) -> np.ndarray | None:
    """Component label of each column of sparse ``x``, numbered in the order
    of their first columns, or None if some component has more than
    ``GRAM_LIMIT`` columns.

    The graph has the n columns as its first nodes and the rows after them;
    its CSR is the pattern of ``x`` read with each row pointing at its
    columns, and ``directed=False`` follows every edge both ways.
    """
    from scipy.sparse.csgraph import connected_components

    x = x.tocsr()
    m, n = x.shape
    indptr = np.concatenate([np.zeros(n, dtype=x.indptr.dtype), x.indptr])
    graph = sparse.csr_matrix(
        (np.ones(x.indices.size, dtype=bool), x.indices, indptr), shape=(n + m, n + m)
    )
    _, labels = connected_components(graph, directed=False)
    _, first, labels = np.unique(labels[:n], return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    if np.bincount(labels).max() > GRAM_LIMIT:
        return None
    return labels


def _gram_witness(x, labels: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of ``x* x``, which is block diagonal over the
    column components ``labels``, each of at most ``GRAM_LIMIT`` columns."""
    n = x.shape[1]
    gram = sparse.coo_matrix(adjoint(x) @ x)
    rows, cols, vals = gram.row, gram.col, gram.data
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    place = np.empty(n, dtype=np.intp)  # index of each column in its component
    place[order] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = np.empty(sizes.size)
    slot = np.empty(sizes.size, dtype=np.intp)
    witnesses = {}  # component size -> top eigenvector of each such component
    for size in np.unique(sizes):
        members = np.flatnonzero(sizes == size)
        slot[members] = np.arange(members.size)
        stack = np.zeros((members.size, size, size), dtype=vals.dtype)
        here = sizes[labels[rows]] == size
        r, c = rows[here], cols[here]
        stack[slot[labels[r]], place[r], place[c]] = vals[here]
        evals, evecs = np.linalg.eigh(hermitian_part(stack))
        best = np.argmax(evals, axis=1)
        pick = np.arange(members.size)
        top[members] = evals[pick, best]
        witnesses[size] = evecs[pick, :, best]
    winner = int(np.argmax(top))  # the first component on a tie
    vec = witnesses[sizes[winner]][slot[winner]]
    v = np.zeros(n, dtype=vec.dtype)
    v[labels == winner] = vec
    return v


def _lanczos_witness(x, seed: int) -> np.ndarray:
    """Unit top Ritz vector of ``x* x`` by implicitly restarted Lanczos.

    One ARPACK driver, ``eigsh``, runs in real arithmetic. If ``x`` has no
    imaginary part it solves ``x^T x`` on the n real coordinates; otherwise
    it solves the real form of ``x* x``, which acts on ``[Re v; Im v]`` as
    ``x* x`` acts on v, on 2n coordinates. The start vector is the real part
    of a seeded complex draw, or its stacked parts; the seeded generator
    also draws every restart vector, so the result does not depend on the
    process or the thread. The Ritz vector is lifted back to complex
    coordinates.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = x.shape[1]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    values = x.data if sparse.issparse(x) else x
    if not np.count_nonzero(values):  # ARPACK cannot start on the zero operator
        return v0
    if not np.iscomplexobj(values) or not np.any(values.imag):
        xr = x.real.astype(float, copy=False)
        xt = xr.T.tocsr() if sparse.issparse(xr) else xr.T
        gram = LinearOperator((n, n), matvec=lambda u: xt @ (xr @ u), dtype=float)
        start = v0.real

        def lift(u):
            return u.astype(complex)
    else:
        xh = adjoint(x)

        def lift(u):
            return u[:n] + 1j * u[n:]

        def matvec(u):
            z = xh @ (x @ lift(np.ravel(u)))
            return np.concatenate([z.real, z.imag])

        gram = LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)
        start = np.concatenate([v0.real, v0.imag])
    try:
        _, vecs = eigsh(gram, k=1, which="LA", v0=start, tol=POWER_RTOL, rng=rng)
    except ArpackNoConvergence as exc:
        warnings.warn(
            f"Lanczos on a {x.shape[0]}x{n} operator did not converge ({exc}); "
            "the bound is ||X v|| for the best Ritz vector",
            RuntimeWarning,
            stacklevel=3,
        )
        vecs = np.column_stack([lift(exc.eigenvectors), v0])
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        return vecs[:, int(np.argmax(np.linalg.norm(x @ vecs, axis=0)))]
    v = lift(vecs[:, 0])
    return v / np.linalg.norm(v)
