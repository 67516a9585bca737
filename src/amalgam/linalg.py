"""Shared numerical linear algebra helpers.

Conventions used across the package:

* rank decisions use a scale-invariant cutoff: a singular value (or
  eigenvalue of a PSD matrix) below ``RANK_RTOL`` times the largest one
  counts as zero;
* every certified top singular value comes from ``restricted_sigma_max``.
  It returns ``||X v||``, on the caller's own ``X``, for an explicit unit
  vector ``v``. It solves on ``X`` as CSR, dense input too: ``X`` is split
  into the connected components of its row/column graph, a direct sum whose
  norm is the largest of its summands' norms. An ``X`` wider than
  ``GRAM_LIMIT`` columns is split and solved on its nonempty rows, which
  share their entries with ``X``; when no component
  is wider than ``GRAM_LIMIT`` columns, ``v`` is the exact top eigenvector
  of the Gram block of the best one, from one batched eigenproblem per
  component size. Only an operator with a wider component goes to
  thick-restart Lanczos on ``X* X`` applied as an operator, in real
  arithmetic: on n coordinates for a real ``X``, on the 2n of
  ``[Re v; Im v]`` for a complex one. The labelling and both solves need
  numpy only;
* sparse operators are ``CSR`` matrices, canonical by construction, whose
  kernels compute scipy.sparse's values entry for entry: every sum, product
  and transpose is built by ``CSR.from_coo``, which adds each entry's terms
  to 0 in the order given, and is the one routine that groups entries by
  position;
* every upper bound on an operator norm, and so every residual checked
  against a tolerance, is the Frobenius norm from ``frobenius``.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.random import default_rng

RANK_RTOL = 1e-10
GRAM_LIMIT = 64
POWER_RTOL = 1e-12  # relative eigen-residual tolerance of the Lanczos solve
LANCZOS_BASIS = 20  # Lanczos vectors per restart, ARPACK's default for one eigenpair
LANCZOS_KEEP = 10  # Ritz vectors kept on a restart
LANCZOS_RESTARTS_PER_DIM = 10  # restart budget per coordinate, ARPACK's default
DEFAULT_SEED = 0xC0FFEE


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def adjoint(x: "CSR") -> "CSR":
    """Conjugate transpose of a sparse matrix."""
    return x.conj().T


def _times(a: np.ndarray, b) -> np.ndarray:
    """a * b entrywise. A complex product is formed as
    ``(ar br - ai bi, ar bi + ai br)`` with a real operand promoted to
    complex, as scipy.sparse's kernels form it; numpy's own complex product
    may fuse a multiply and an add, and then differs in the last bit."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    a, b = a.astype(complex, copy=False), np.asarray(b).astype(complex, copy=False)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    np.multiply(a.real, b.real, out=out.real)
    out.real -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=out.imag)
    out.imag += a.imag * b.real
    return out


def _summed(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[i] = 0 plus the values of index i, added one at a time in the
    order given: the sums of scipy.sparse's row loops."""
    if not np.iscomplexobj(values):  # bincount gives ints when index is empty
        return np.bincount(index, values, n).astype(values.dtype, copy=False)
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(index, values.real, n)
    out.imag = np.bincount(index, values.imag, n)
    return out


def _groups(rows: np.ndarray, cols: np.ndarray, ncols: int):
    """The order of a stable sort of entries by (row, column), and a mask of
    the sorted entries that open a position: equal positions stay in the
    order given. The sort merges runs of sorted keys in linear time, so
    entries given run by run sort fast."""
    keys = rows * ncols + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return order, first


def csr_sum(matrices: list["CSR"]) -> "CSR":
    """The sum of the matrices, value for value the left fold of sparse
    merges: one COO build of their entries, in list order."""
    if len(matrices) == 1:
        return matrices[0]
    shape = matrices[0].shape
    if any(m.shape != shape for m in matrices):
        raise ValueError(f"shapes {[m.shape for m in matrices]} differ")
    rows, cols, values = (np.concatenate(a) for a in zip(*(
        (m.rows, m.indices, m.data) for m in matrices)))
    return CSR.from_coo(rows, cols, values, shape)


class CSR:
    """A sparse matrix in compressed sparse row form, canonical by
    construction: each row's columns are sorted, no position is stored
    twice and no stored value is 0.

    Its arithmetic is that of scipy.sparse's kernels on canonical operands,
    value for value: a complex product is formed by ``_times``, and a sum,
    product or transpose is one ``from_coo`` build of its terms, a sum's in
    operand order and a product's (Gustavson, ACM TOMS 4, 1978) in the order
    of its left factor's entries. The constructor takes canonical arrays as
    they are, neither copied nor checked; ``pruned`` drops stored zeros.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_rows")
    __array_ufunc__ = None  # numpy defers: ``2.0 * x`` calls ``x.__rmul__``

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows = None

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> "CSR":
        """The matrix with values[i] at (rows[i], cols[i]); the values of a
        position given more than once are added to 0 in the order given, and
        zero entries are dropped."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        order, first = _groups(rows, cols, shape[1])
        values = np.asarray(values)[order]
        if not first.all():
            values = _summed(np.cumsum(first) - 1, values, np.count_nonzero(first))
            order = order[first]
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        out = cls(values, cols, indptr, shape)
        out._rows = rows
        return out.pruned()

    @classmethod
    def from_dense(cls, a) -> "CSR":
        """The nonzero entries of a 2-D array."""
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def diagonal(cls, values: np.ndarray) -> "CSR":
        """The square matrix with the given diagonal."""
        i = np.arange(len(values))
        return cls.from_coo(i, i, values, (i.size, i.size))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def size(self) -> int:
        """The stored entries, as scipy.sparse counts them (``np.size`` reads it)."""
        return self.nnz

    @property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._rows

    def pruned(self) -> "CSR":
        """This matrix without its stored zeros."""
        if self.data.all():
            return self
        keep = self.data != 0
        indptr = np.concatenate([[0], np.cumsum(keep)])[self.indptr]
        return CSR(self.data[keep], self.indices[keep], indptr, self.shape)

    def conj(self) -> "CSR":
        return CSR(self.data.conj(), self.indices, self.indptr, self.shape)

    @property
    def T(self) -> "CSR":
        return CSR.from_coo(self.indices, self.rows, self.data, self.shape[::-1])

    def __getitem__(self, key) -> "CSR":
        """The block of a pair of row and column ranges, ``x[r0:r1, c0:c1]``."""
        rows, cols = key
        if not (isinstance(rows, slice) and isinstance(cols, slice)
                and rows.step in (None, 1) and cols.step in (None, 1)):
            raise TypeError("a CSR block takes a pair of ranges")
        r0, r1, _ = rows.indices(self.shape[0])
        c0, c1, _ = cols.indices(self.shape[1])
        r1, c1 = max(r0, r1), max(c0, c1)
        lo, hi = self.indptr[r0], self.indptr[r1]
        data, indices, indptr = self.data[lo:hi], self.indices[lo:hi], self.indptr[r0:r1 + 1] - lo
        if (c0, c1) != (0, self.shape[1]):
            keep = (indices >= c0) & (indices < c1)
            indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
            data, indices = data[keep], indices[keep] - c0
        return CSR(data, indices, indptr, (r1 - r0, c1 - c0))

    def __mul__(self, scalar) -> "CSR":
        if not np.isscalar(scalar):
            return NotImplemented
        return CSR(self.data * scalar, self.indices, self.indptr, self.shape).pruned()

    __rmul__ = __mul__

    def __neg__(self) -> "CSR":
        return CSR(-self.data, self.indices, self.indptr, self.shape)

    def __add__(self, other: "CSR") -> "CSR":
        return csr_sum([self, other]) if isinstance(other, CSR) else NotImplemented

    def __sub__(self, other: "CSR") -> "CSR":
        """``a + (-b)``: the same IEEE value as ``a - b``, entry for entry."""
        return self + -other if isinstance(other, CSR) else NotImplemented

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return self._matmat(other)
        other = np.asarray(other)
        if other.shape[0] != self.shape[1]:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not compose")
        if other.ndim == 1:
            return self._matvec(other)
        out = np.empty((self.shape[0], other.shape[1]),
                       dtype=np.result_type(self.data, other))
        for j in range(other.shape[1]):
            out[:, j] = self._matvec(other[:, j])
        return out

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return _summed(self.rows, _times(self.data, v[self.indices]), self.shape[0])

    def _matmat(self, other: "CSR") -> "CSR":
        """Every entry (i, k) of self meets row k of other, and the terms
        are built in that order."""
        if other.shape[0] != self.shape[1]:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not compose")
        counts = np.diff(other.indptr)[self.indices]
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            other.indptr[self.indices] - (ends - counts), counts)
        return CSR.from_coo(np.repeat(self.rows, counts), other.indices[pos],
                            _times(np.repeat(self.data, counts), other.data[pos]),
                            (self.shape[0], other.shape[1]))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each one in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def rank_from_spectrum(values: np.ndarray) -> int:
    """Numerical rank of a nonnegative spectrum under the relative cutoff."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0
    top = values.max(initial=0.0)
    if top <= 0.0:
        return 0
    return int(np.sum(values > RANK_RTOL * top))


def orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of ``m`` (deterministic, via SVD)."""
    m = as_complex(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : rank_from_spectrum(s)]


def gram_quotient(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quotient of a space by the null space of its PSD Gram matrix g:
    representatives w (n, rank) of an orthonormal basis, top eigenvalue
    first, with w* g w = 1, and the coordinate map w* g."""
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, evecs = np.clip(evals[order], 0.0, None), evecs[:, order]
    rank = rank_from_spectrum(evals)
    w = evecs[:, :rank] / np.sqrt(evals[:rank])
    return w, w.conj().T @ gram


def frobenius(x) -> float:
    """Frobenius norm, an upper bound for the operator norm, in one pass over
    the stored entries of a ``CSR`` or all entries of an array."""
    data = x.data if isinstance(x, CSR) else np.ravel(x)
    return float(np.linalg.norm(data))


def restricted_sigma_max(x, seed: int = DEFAULT_SEED) -> tuple[float, np.ndarray]:
    """Largest singular value of ``x`` as ``(||x v||, v)`` for a unit witness ``v``.

    The value is a certified lower bound for ``||x||`` whether or not the
    solve converged. The solve runs on ``x`` as CSR, dense or sparse, and
    ``||x v||`` is taken on ``x`` itself. A block of at most ``GRAM_LIMIT``
    columns is one component. A wider block is split into the connected
    components of its bipartite row/column graph: columns in different
    components touch disjoint rows, so ``x* x`` is block diagonal over them
    and ``||x||`` is the largest component norm. Empty rows, which touch no
    column, are dropped before the split. When every component has at
    most ``GRAM_LIMIT`` columns, their Gram blocks are solved exactly, by one
    batched ``eigh`` per component size, and ``v`` is the top eigenvector of
    the first component with the largest top eigenvalue, zero elsewhere. A
    block with a wider component runs thick-restart Lanczos on ``x* x``
    without forming it, from a start vector drawn from ``seed``; a solve
    that runs out of restarts says so in a ``RuntimeWarning``.
    """
    n = x.shape[1]
    if n == 0:
        return 0.0, np.zeros(0, dtype=complex)
    xs = x if isinstance(x, CSR) else CSR.from_dense(x)
    if n <= GRAM_LIMIT:
        labels = np.zeros(n, dtype=np.intp)
    else:
        xs = _nonempty_rows(xs)
        labels = _column_components(xs)
    v = _lanczos_witness(xs, seed) if labels is None else _gram_witness(xs, labels)
    return float(np.linalg.norm(x @ v)), v


def _nonempty_rows(x):
    """CSR ``x`` without its empty rows, sharing ``data`` and ``indices``.

    Only ``indptr`` is rebuilt, so every product with the result forms the
    same nonzero terms in the same order as with ``x``.
    """
    ends = np.flatnonzero(np.diff(x.indptr)) + 1  # end of each nonempty row
    indptr = x.indptr[np.concatenate([[0], ends])]
    return CSR(x.data, x.indices, indptr, (indptr.size - 1, x.shape[1]))


def _column_components(x) -> np.ndarray | None:
    """Component label of each column of CSR ``x``, numbered in the order
    of their first columns, or None if some component has more than
    ``GRAM_LIMIT`` columns.

    Every column of a row is joined to the row's first column. Each round
    hooks the larger root of every pair of joined trees under the smaller
    one, then points every column at its root by pointer jumping
    (Shiloach & Vishkin, J. Algorithms 3, 1982). A parent is never larger
    than its child, so a root is the least column of its tree, and the
    labels of the sorted roots follow the first columns. A tree is connected,
    so the labelling stops as soon as one has more than ``GRAM_LIMIT``
    columns.
    """
    n = x.shape[1]
    parent = np.arange(n)
    a = x.indices[np.repeat(x.indptr[:-1], np.diff(x.indptr))]  # first column of each row
    b = x.indices
    while True:
        a, b = parent[a], parent[b]  # every column points at its root
        joined = a != b
        if not joined.any():
            break
        a, b = a[joined], b[joined]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        if np.bincount(parent).max() > GRAM_LIMIT:
            return None
    return np.unique(parent, return_inverse=True)[1]


def _gram_witness(x, labels: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of ``x* x``, which is block diagonal over the
    column components ``labels``, each of at most ``GRAM_LIMIT`` columns."""
    n = x.shape[1]
    gram = x.conj().T @ x
    rows, cols, vals = gram.rows, gram.indices, gram.data
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    place = np.empty(n, dtype=np.intp)  # index of each column in its component
    place[order] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = np.empty(sizes.size)
    slot = np.empty(sizes.size, dtype=np.intp)
    witnesses = {}  # component size -> top eigenvector of each such component
    for size in np.flatnonzero(np.bincount(sizes)):
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
    """Unit top Ritz vector of ``x* x``, for CSR ``x``, by thick-restart
    Lanczos in real arithmetic.

    If ``x`` has no imaginary part the solve runs on ``x^T x`` on the n real
    coordinates; otherwise on the real form of ``x* x``, which acts on
    ``[Re v; Im v]`` as ``x* x`` acts on v, on 2n coordinates. The start
    vector is the real part of a seeded complex draw, or its stacked parts;
    the seeded generator also draws every vector that replaces an exhausted
    Krylov space, so the result does not depend on the process or the
    thread. The Ritz vector is lifted back to complex coordinates. A solve
    that runs out of restarts warns, and returns whichever of the Ritz vector
    and the complex draw has the larger ``||x v||``.
    """
    n = x.shape[1]
    rng = default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    if not np.count_nonzero(x.data):  # every vector is a witness of the zero operator
        return v0
    # gram applies x* x by two scatters over the stored entries, in stored
    # order: x @ w by rows, then x* @ y by columns, the order in which a
    # matrix-vector product with x* would add them
    m, rows, cols = x.shape[0], x.rows, x.indices
    if not np.iscomplexobj(x.data) or not np.any(x.data.imag):
        a = np.ascontiguousarray(x.data.real, dtype=float)

        def gram(u):
            return np.bincount(cols, a * np.bincount(rows, a * u[cols], m)[rows], n)

        start = v0.real

        def lift(u):
            return u.astype(complex)
    else:
        ar, ai = x.data.real.copy(), x.data.imag.copy()
        rows2, cols2 = np.concatenate([rows, rows + m]), np.concatenate([cols, cols + n])
        prod, tmp = np.empty((2, cols.size)), np.empty(cols.size)

        def lift(u):
            return u[:n] + 1j * u[n:]

        def gram(u):
            # y = x w, then x* y; real and imaginary parts are summed by one
            # scatter, real parts first, each in the four-multiply form
            w = lift(u)[cols]
            np.multiply(ar, w.real, out=prod[0])
            prod[0] -= np.multiply(ai, w.imag, out=tmp)
            np.multiply(ar, w.imag, out=prod[1])
            prod[1] += np.multiply(ai, w.real, out=tmp)
            y = np.bincount(rows2, prod.reshape(-1), 2 * m).reshape(2, m)[:, rows]
            np.multiply(ar, y[0], out=prod[0])  # x* y: conj(a) y
            prod[0] += np.multiply(ai, y[1], out=tmp)
            np.multiply(ar, y[1], out=prod[1])
            prod[1] -= np.multiply(ai, y[0], out=tmp)
            return np.bincount(cols2, prod.reshape(-1), 2 * n)

        start = np.concatenate([v0.real, v0.imag])
    u, restarts, residual = _thick_restart_lanczos(gram, start, rng)
    if residual > POWER_RTOL:
        warnings.warn(
            f"Lanczos on a {x.shape[0]}x{n} operator did not converge after "
            f"{restarts} restarts (relative Ritz residual {residual:.3g}); "
            "the bound is ||X v|| for the better of the Ritz vector and the "
            "start vector",
            RuntimeWarning,
            stacklevel=3,
        )
        vecs = np.column_stack([lift(u), v0])
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        return vecs[:, int(np.argmax(np.linalg.norm(x @ vecs, axis=0)))]
    v = lift(u)
    return v / np.linalg.norm(v)


def _thick_restart_lanczos(gram, start: np.ndarray, rng) -> tuple[np.ndarray, int, float]:
    """Top Ritz vector of the symmetric positive semidefinite map ``gram``
    on real vectors, as ``(u, restarts, relative Ritz residual)``.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000):
    a basis of ``LANCZOS_BASIS`` vectors, each orthogonalised against all
    before it in two passes. ``gram`` then acts on the basis as
    ``V T + beta v_next e_last^T``, and the Ritz pairs are the eigenpairs of
    the small symmetric ``T``. The solve stops when the top pair's residual,
    ``beta |last coordinate|``, is at most ``POWER_RTOL`` times its value.
    Otherwise it restarts from the top ``LANCZOS_KEEP`` Ritz vectors and
    ``v_next``, at most ``LANCZOS_RESTARTS_PER_DIM`` times the dimension,
    ARPACK's default. A vector that is numerically in the span of the basis
    (its norm falls by more than the refinement factor of ARPACK's
    ``dsaitr`` in the second pass) is replaced by a seeded draw orthogonal
    to it, with a zero coupling: the space is then invariant.
    """
    dim = start.size
    size = min(LANCZOS_BASIS, dim)
    keep = min(LANCZOS_KEEP, size - 1)
    budget = LANCZOS_RESTARTS_PER_DIM * dim
    basis = np.empty((size + 1, dim))
    basis[0] = start / np.linalg.norm(start)
    t = np.zeros((size, size))
    first, restarts = 0, 0
    while True:
        for j in range(first, size):
            w = gram(basis[j])
            h = basis[: j + 1] @ w
            w -= basis[: j + 1].T @ h
            once = np.linalg.norm(w)
            h2 = basis[: j + 1] @ w
            w -= basis[: j + 1].T @ h2
            t[j, j] = h[j] + h2[j]
            beta = np.linalg.norm(w)
            if beta <= 0.717 * once:  # numerically in the span: an invariant space
                beta = 0.0
                if j + 1 < size:
                    w = rng.standard_normal(dim)
                    for _ in range(2):
                        w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
                    w /= np.linalg.norm(w)
            else:
                w /= beta
            basis[j + 1] = w
            if j + 1 < size:
                t[j, j + 1] = t[j + 1, j] = beta
        theta, s = np.linalg.eigh(t)
        # the top Ritz pair's residual; a nonzero one means gram moved some
        # basis vector, so the top Ritz value of the semidefinite map is positive
        bound = beta * abs(s[-1, -1])
        residual = bound / theta[-1] if bound else 0.0
        if residual <= POWER_RTOL or restarts == budget:
            u = s[:, -1] @ basis[:size]
            return u / np.linalg.norm(u), restarts, residual
        restarts += 1
        tail = s[:, size - keep:]
        basis[:keep] = tail.T @ basis[:size]
        basis[keep] = basis[size]
        t[:] = 0.0
        t[:keep, :keep] = np.diag(theta[size - keep:])
        t[keep, :keep] = t[:keep, keep] = beta * tail[-1]
        first = keep
