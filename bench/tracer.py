"""Per-layer spans and counters for one traced workload execution.

The tracer wraps public functions and methods of the amalgam package from
outside it. A function is replaced in every amalgam module that binds it
(for example `family_operator` in `amalgam.words`, `amalgam.shift` and
`amalgam.cli`), so callers that imported it by name are traced too. A
target that no longer exists is skipped, and its metrics read 0.

A span's self time is its duration minus the time of the spans it encloses.
Work the tracer does itself (its bookkeeping and the counter hooks, such as
the witness test below) is charged to no span. It is added up separately
and reported as `trace.overhead_s`.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np
from scipy import sparse

# (module, attribute, span)
FUNCTIONS = [
    ("amalgam.cli", "run_config", "cli.run_config"),
    ("amalgam.fock", "build_fock", "fock.build_fock"),
    ("amalgam.gns", "build_gns", "gns.build_gns"),
    ("amalgam.linalg", "operator_norm", "linalg.operator_norm"),
    ("amalgam.linalg", "restricted_sigma_max", "linalg.restricted_sigma_max"),
    ("amalgam.linalg", "power_iteration_sigma", "linalg.power_iteration"),
    ("amalgam.words", "word_operator", "words.word_operator"),
    ("amalgam.words", "family_operator", "words.family_operator"),
    ("amalgam.words", "norm_lower", "words.norm_lower"),
    ("amalgam.words", "block_lower", "words.block_lower"),
    ("amalgam.words", "block_decomposition", "words.block_decomposition"),
    ("amalgam.words", "ladder_identity_residual", "words.ladder_identity_residual"),
    ("amalgam.shift", "decay_curve", "shift.decay_curve"),
    ("amalgam.shift", "build_shift_context", "shift.build_shift_context"),
    ("amalgam.shift", "vacuum_lower", "shift.vacuum_lower"),
    ("amalgam.freegroup", "build_ball", "freegroup.build_ball"),
    ("amalgam.freegroup", "convolution_operator", "freegroup.convolution_operator"),
]

# (module, class, method, span); __sub__ is the same sum as __add__
METHODS = [
    ("amalgam.fock", "FockContext", "creation", "fock.creation"),
    ("amalgam.fock", "FockContext", "diagonal_action", "fock.diagonal_action"),
    ("amalgam.fock", "FockContext", "left_b_action", "fock.left_b_action"),
    ("amalgam.fock", "FockContext", "represent", "fock.represent"),
    ("amalgam.fock", "FockOperator", "__matmul__", "fock.matmul"),
    ("amalgam.fock", "FockOperator", "__add__", "fock.add"),
    ("amalgam.fock", "FockOperator", "__sub__", "fock.add"),
    ("amalgam.fock", "FockOperator", "norm", "fock.norm"),
]

SPANS = list(dict.fromkeys(
    [span for *_, span in FUNCTIONS] + [span for *_, span in METHODS]
))

# Two tests of each witness v of restricted_sigma_max, with ||v|| = 1 and
# theta = ||X v||^2:
# - unconverged: the relative eigen-residual ||X*X v - theta v|| / theta is
#   above UNCONVERGED_RTOL. An exact Gram eigenvector reads about 1e-14.
#   Power iteration stops when sigma changes by less than POWER_RTOL = 1e-12
#   in a step. Where the spectral gap is small, its residual is then still
#   far above this, although the stopping rule held.
# - out of steps: one more step of power iteration from v would still move
#   sigma by more than the solver's own tolerance POWER_RTOL, i.e.
#   sqrt(||X*X v||) / ||X v|| - 1 > POWER_RTOL (about rho^2 / 4 for a
#   residual rho): the solve ran out of steps before its stopping rule held.
UNCONVERGED_RTOL = 1e-8

COUNTERS = {
    "fock.summands": "lower",  # quotient summands; one Gram eigh each today
    "fock.total_dim": "higher",
    "fock.family_op_nnz": "lower",  # stored entries of family operators
    "words.norm_lower_cols": "higher",  # exact-domain columns solved over
    "linalg.solve_unconverged": "lower",
    "linalg.solve_out_of_steps": "lower",
    "freegroup.ball_words": "higher",
    "freegroup.conv_nnz": "lower",  # stored entries of convolution matrices
}


def _stored(matrix) -> int:
    return int(matrix.nnz) if sparse.issparse(matrix) else int(np.size(matrix))


def witness_tests(x, v) -> tuple[float, float]:
    """Relative eigen-residual of v for X*X, and the change of sigma that one
    more power step from v makes."""
    v = np.asarray(v, dtype=complex)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0, 0.0
    v = v / nv
    xv = x @ v
    sigma = float(np.linalg.norm(xv))
    if sigma == 0.0:
        return 0.0, 0.0
    theta = sigma * sigma
    gram_v = x.conj().T @ xv
    residual = float(np.linalg.norm(gram_v - theta * v)) / theta
    return residual, math.sqrt(float(np.linalg.norm(gram_v))) / sigma - 1.0


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = Counter()
        self.counts = Counter()
        self.overhead_s = 0.0  # wrapper and hook time outside the wrapped calls
        self._open: list[float] = []  # time of enclosed spans, per open span

    def wrap(self, fn, span):
        def traced(*args, **kwargs):
            t_in = perf_counter()
            self._open.append(0.0)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                elapsed = perf_counter() - t0
                self.self_s[span] += elapsed - self._open.pop()
                self.calls[span] += 1
                hook = HOOKS.get(span)
                if returned and hook is not None:
                    hook(self.counts, result, args)
                own = perf_counter() - t_in - elapsed
                self.overhead_s += own
                if self._open:
                    self._open[-1] += elapsed + own
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "amalgam" or name.startswith("amalgam.")]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        for modname, clsname, attr, span in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            original = getattr(cls, attr, None)
            if original is not None:
                setattr(cls, attr, self.wrap(original, span))

    def metrics(self) -> dict[str, dict]:
        out = {}
        for span in SPANS:
            out[f"{span}_s"] = {"value": self.self_s[span], "unit": "s"}
            out[f"{span}_calls"] = {"value": self.calls[span], "unit": "count"}
        for name in COUNTERS:
            out[name] = {"value": self.counts[name], "unit": "count"}
        out["trace.overhead_s"] = {"value": self.overhead_s, "unit": "s"}
        return out


def _count_context(counts, ctx, args):
    counts["fock.summands"] += len(ctx.summands())
    counts["fock.total_dim"] += ctx.total_dim


def _count_family(counts, op, args):
    counts["fock.family_op_nnz"] += _stored(op.matrix)


def _count_domain(counts, report, args):
    if report.witness is not None:
        counts["words.norm_lower_cols"] += report.witness.size


def _count_unconverged(counts, result, args):
    _, witness = result[:2]
    if not witness.size:
        return
    residual, step_change = witness_tests(args[0], witness)
    counts["linalg.solve_unconverged"] += residual > UNCONVERGED_RTOL
    counts["linalg.solve_out_of_steps"] += (
        step_change > sys.modules["amalgam.linalg"].POWER_RTOL)


def _count_ball(counts, basis, args):
    counts["freegroup.ball_words"] += len(basis)


def _count_convolution(counts, result, args):
    counts["freegroup.conv_nnz"] += _stored(result[0])


HOOKS = {
    "fock.build_fock": _count_context,
    "words.family_operator": _count_family,
    "words.norm_lower": _count_domain,
    "linalg.restricted_sigma_max": _count_unconverged,
    "freegroup.build_ball": _count_ball,
    "freegroup.convolution_operator": _count_convolution,
}
