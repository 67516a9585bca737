"""Batch experiment runner.

One config file describes one suite: a kind, its parameters, and an output
basename. Each suite writes a deterministic CSV (same config and seed give
byte-identical bytes) plus a JSON summary with timings. The exit status
reflects exclusively the mathematical checks, never performance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import freegroup as fg
from .errors import AmalgamError, ConfigError, pointer_token
from .fock import DEFAULT_MAX_DIM, build_fock
from .gns import ModuleVector, inner_product, module_norm
from .linalg import DEFAULT_SEED, restricted_sigma_max
from .shift import ShiftExperiment, decay_curve
from .words import (
    Word,
    family_operator,
    haagerup_upper,
    ladder_identity_residuals,
    letter_norms,
    norm_lower,
    random_separated_family,
    random_word,
    word_from_json,
    worst_block_lower,
)

LEMMA_TOL = 1e-8
UNIT_TOL = 1e-9
EXACT_TOL = 1e-12


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return repr(float(x))  # plain digits for numpy floats too
    return str(x)


@dataclass
class Row:
    name: str
    passed: bool
    lower: float | None = None
    upper: float | None = None
    residual: float | None = None
    seconds: float = 0.0

    def summary(self) -> dict:
        return {"name": self.name, "status": "pass" if self.passed else "fail",
                "lower": self.lower, "upper": self.upper,
                "residual": self.residual, "seconds": self.seconds}

    def csv(self) -> str:
        row = self.summary()
        return ",".join([row["name"], row["status"]] + [
            _fmt(row[key]) for key in ("lower", "upper", "residual")])


# ---------------------------------------------------------------------------
# shared experiment material
# ---------------------------------------------------------------------------

_TWO_POINT = partial(alg.function_algebra_with_state, 2)
# name -> (base algebra, factor algebra, number of factors)
FACTOR_CONFIGS = {
    "two-point-2": (alg.scalar_base, _TWO_POINT, 2),
    "two-point-3": (alg.scalar_base, _TWO_POINT, 3),
    "two-point-6": (alg.scalar_base, _TWO_POINT, 6),
    "m2-diag": (partial(alg.diagonal_base, 2), partial(alg.diagonal_in_matn, 2), 2),
}


def _factor_context(name: str, max_level: int, max_dim: int):
    base, factor, count = FACTOR_CONFIGS[name]
    return build_fock(base(), dict.fromkeys(range(count), factor()),
                      max_level, max_dim=max_dim)


def _unit_prototype(p: int) -> Word:
    sym = alg.function_algebra_with_state(2).algebra.expand(np.diag([1.0, -1.0]))
    return Word(tuple(alg.CenteredElement(i, np.asarray(sym, dtype=complex))
                      for i in range(p)))


# ---------------------------------------------------------------------------
# config fields
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a field that must be given


def _accept(ok, what, cast=None):
    """A parser: it takes a JSON value and its pointer, and returns the value
    (cast if asked) when ok holds for it, else raises ConfigError there."""
    def parse(value, pointer):
        if not ok(value):
            raise ConfigError(f"expected {what}, got {value!r}", pointer)
        return value if cast is None else cast(value)
    return parse


# type(), not isinstance(): JSON true is an int to isinstance; 4.0 is no integer
_integer = _accept(lambda v: type(v) is int and v >= 1, "an integer >= 1")
_seed = _accept(lambda v: type(v) is int and v >= 0, "an integer >= 0")
_number = _accept(lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
                  "a finite number", float)  # s = 2 still names its rows s2.0
_text = _accept(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_file_name = _accept(lambda v: isinstance(v, str) and v != "" and "/" not in v
                     and os.sep not in v, "a file name without path separators")
_object = _accept(lambda v: isinstance(v, dict), "a JSON object")
_nonempty = _accept(lambda v: isinstance(v, list) and v != [], "a non-empty list")


def _one_of(names):
    return _accept(lambda v: isinstance(v, str) and v in names,
                   "one of " + ", ".join(names))


def _list_of(item):
    return lambda value, pointer: [item(v, f"{pointer}/{i}") for i, v
                                   in enumerate(_nonempty(value, pointer))]


def _loaded(loader, check=_object):
    """Run a nested JSON loader; what it raises points below the field."""
    def parse(value, pointer):
        value = check(value, pointer)
        try:
            return loader(value)
        except ConfigError as exc:
            raise ConfigError(exc.message, pointer + (exc.pointer or "")) from exc
        except KeyError as exc:
            raise ConfigError(f"missing field {exc}", f"{pointer}/{exc.args[0]}") from exc
        except (AmalgamError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc), pointer) from exc
    return parse


def _fields(obj, table, root):
    """obj checked against a field table, with every default filled in."""
    for key in obj:
        if key not in table:
            raise ConfigError(f"unknown field {key!r}", f"{root}/{pointer_token(key)}")
    for key, (_, default) in table.items():
        if key not in obj and default is REQUIRED:
            raise ConfigError(f"missing field {key!r}", f"{root}/{key}")
    return {key: parse(obj[key], f"{root}/{key}") if key in obj else default
            for key, (parse, default) in table.items()}


# ---------------------------------------------------------------------------
# suite kinds
# ---------------------------------------------------------------------------


def _kind_validate_algebra(params, seed, max_dim):
    rows = []
    for j, spec in enumerate(params["algebras"]):
        for check in alg.validate_expectation(spec, seed=seed).checks:
            rows.append(Row(f"alg{j}.{check.name}", check.passed,
                            residual=check.residual))
    return rows


def _kind_fock_report(params, seed, max_dim):
    ctx = _factor_context(params["config"], params["M"], max_dim)
    rng = np.random.default_rng(seed)
    rows = []
    for level in ctx.summary()["levels"]:
        rows.append(Row(f"dim.level{level['level']}", True, lower=float(level["dim"])))

    k = ctx.order[0]
    fk = ctx.factors[k]
    y_carrier = fk.mod.e_basis @ (
        rng.standard_normal(fk.e_dim) + 1j * rng.standard_normal(fk.e_dim)
    )
    y = ModuleVector(fk.mod, y_carrier)
    psi = ctx.creation(k, y)
    q_k = ctx.first_slot_projection(k)
    ident = ctx.identity()
    unit = fk.spec.algebra.unit_coords
    below_top = ctx.level_projection_up_to(ctx.max_level - 1)

    # residuals are Frobenius uppers; psi_norm is a certified lower's distance
    residuals = {
        "psi_star_psi": ((psi.H @ psi - ctx.left_b_action(inner_product(fk.mod, y, y))
                          @ (ident - q_k)) @ below_top).frobenius(),
        "psi_norm": abs(restricted_sigma_max(psi.matrix, seed)[0] - module_norm(fk.mod, y)),
        "psi_star_kills_vacuum": (psi.H @ ctx.level_projection(0)).frobenius(),
        "rho_unit": (ctx.diagonal_action(k, unit) - q_k).frobenius(),
        "lambda_unit": (ctx.represent(k, unit) - ident).frobenius(),
        "projections_commute": max(
            (q_k @ ctx.level_projection(m) - ctx.level_projection(m) @ q_k).frobenius()
            for m in range(ctx.max_level + 1)),
    }
    rows += [Row(name, resid <= UNIT_TOL, residual=resid)
             for name, resid in residuals.items()]
    context_json = json.dumps(ctx.summary(), indent=2) + "\n"
    return rows, {"context.json": context_json}


def _kind_lemma_check(params, seed, max_dim):
    ctx = _factor_context(params["config"], params["M"], max_dim)
    rng = np.random.default_rng(seed)
    words = [random_word(ctx, int(rng.integers(1, params["n_max"] + 1)), rng)
             for _ in range(params["words"])]
    # one row per word and level m, in word order; all words are checked in
    # one batch, whose time is split evenly over its rows, so the rows' seconds
    # sum to the batch's
    t0 = time.perf_counter()
    residuals = ladder_identity_residuals(ctx, words)
    seconds = (time.perf_counter() - t0) / sum(map(len, residuals))
    rows = []
    for j, (w, resids) in enumerate(zip(words, residuals)):
        upper = LEMMA_TOL * math.prod(letter_norms(ctx, w))
        rows += [Row(f"w{j}.n{w.length}.m{m}", resid <= upper, residual=resid,
                     upper=upper, seconds=seconds) for m, resid in enumerate(resids)]
    return rows


def _kind_haagerup_sweep(params, seed, max_dim):
    ctx = _factor_context(params["config"], params["M"], max_dim)
    rng = np.random.default_rng(seed)
    # the norm rows of all families, then their block rows; the two rows of a
    # family share its operator
    norm_rows, block_rows = [], []
    for j in range(params["families"]):
        n = int(rng.integers(1, params["n_max"] + 1))
        k = int(rng.integers(1, params["k_max"] + 1))
        fam = random_separated_family(ctx, n, k, rng, f"fam{j}")
        t0 = time.perf_counter()
        upper = haagerup_upper(fam, ctx)
        op = family_operator(ctx, fam)
        lower = norm_lower(ctx, op, n, seed=seed).lower
        norm_rows.append(Row(f"fam{j}.n{n}.k{len(fam.words)}",
                             lower <= upper * (1 + 1e-12), lower=lower, upper=upper,
                             seconds=time.perf_counter() - t0))
        t0 = time.perf_counter()
        gamma = upper / (2 * n + 1)
        worst = worst_block_lower(ctx, op, n, seed=seed)
        block_rows.append(Row(f"fam{j}.blocks", worst <= gamma * (1 + 1e-12),
                              lower=worst, upper=gamma,
                              seconds=time.perf_counter() - t0))
    return norm_rows + block_rows


def _curve_csv(points) -> str:
    lines = ["n,lower,ell2_vacuum,decay_bound,ratio"]
    for n, lower, ell2, bound in points:
        ratio = lower / bound if bound > 0 else float("nan")
        lines.append(",".join([str(n)] + [repr(float(v))
                                          for v in (lower, ell2, bound, ratio)]))
    return "\n".join(lines) + "\n"


def _kind_ergodic_decay(params, seed, max_dim):
    p, proto = params["p"], params["prototype"]
    exp = ShiftExperiment(_unit_prototype(p) if proto is None else proto,
                          n_max=params["n_max"], max_level=params["M"])
    curve = decay_curve(
        exp, _TWO_POINT(), alg.scalar_base(),
        max_dim=max_dim, seed=seed,
    )
    rows = []
    for pt in curve.points:
        rows.append(Row(f"decay.p{p}.n{pt.n}", pt.lower <= pt.decay_bound * (1 + 1e-12),
                        lower=pt.lower, upper=pt.decay_bound))
        if p == 1 and proto is None:  # the vacuum witness is exactly 1/sqrt(n)
            resid = abs(pt.ell2_vacuum - 1.0 / np.sqrt(pt.n))
            rows.append(Row(f"vacuum.p1.n{pt.n}", resid <= EXACT_TOL, residual=resid))
    return rows, {"curve.csv": _curve_csv(
        [(pt.n, pt.lower, pt.ell2_vacuum, pt.decay_bound) for pt in curve.points])}


def _kind_group_haagerup(params, seed, max_dim):
    word = params["word"]
    rep = fg.haagerup_check(
        fg.GroupFunction.delta(word), params["R"], max_ball=params["max_ball"],
        label=str(word), seed=seed,
    )
    ok = rep.ell2 * (1 - 1e-12) <= rep.lower <= rep.upper * (1 + 1e-12)
    return [Row(f"haagerup.{rep.label}.R{rep.effective_radius}", ok,
                lower=rep.lower, upper=rep.upper)]


def _kind_group_shift(params, seed, max_dim):
    rows = []
    points = []
    for n in params["ns"]:
        rep = fg.shift_average_group(params["word"], n, params["R"],
                                     max_ball=params["max_ball"], seed=seed)
        ok = rep.ell2 * (1 - 1e-12) <= rep.lower <= rep.upper * (1 + 1e-12)
        rows.append(Row(f"shift.n{n}.Reff{rep.effective_radius}", ok,
                        lower=rep.lower, upper=rep.upper))
        points.append((n, rep.lower, rep.ell2, rep.upper))
    return rows, {"curve.csv": _curve_csv(points)}


def _kind_rd_report(params, seed, max_dim):
    word, s = params["word"], params["s"]
    p = fg.word_length(word)
    rows = []
    for n in params["ns"]:
        avg = fg.shift_average(word, n)
        got = fg.rd_norm(avg, s)
        expect = (1.0 + p) ** s / np.sqrt(n)
        resid = abs(got - expect)
        rows.append(Row(f"rd.s{s}.n{n}", resid <= EXACT_TOL * max(expect, 1.0),
                        lower=got, upper=float(expect), residual=resid))
        resid0 = abs(fg.rd_norm(avg, 0.0) - avg.ell2())
        rows.append(Row(f"rd.s0.n{n}", resid0 <= EXACT_TOL, residual=resid0))
    return rows


# parameters that several kinds share
_CONFIG = (_one_of(FACTOR_CONFIGS), REQUIRED)
_M = _R = (_integer, REQUIRED)
_WORD = (_loaded(fg.parse_word, _text), REQUIRED)
_NS = (_list_of(_integer), REQUIRED)
_MAX_BALL = (_integer, fg.DEFAULT_MAX_BALL)

# kind -> (function, parameter table, the parameter whose level spread may
# not exceed the truncation level M); a table maps a parameter's name to
# (parser, default or REQUIRED)
KINDS = {
    "validate-algebra": (_kind_validate_algebra, {
        "algebras": (_list_of(_loaded(alg.algebra_from_json)), REQUIRED)}, None),
    "fock-report": (_kind_fock_report, {"config": _CONFIG, "M": _M}, None),
    "lemma-check": (_kind_lemma_check, {
        "config": _CONFIG, "M": _M, "words": (_integer, 20), "n_max": (_integer, 4),
    }, "n_max"),
    "haagerup-sweep": (_kind_haagerup_sweep, {
        "config": _CONFIG, "M": _M, "families": (_integer, 20),
        "n_max": (_integer, 3), "k_max": (_integer, 6)}, "n_max"),
    "ergodic-decay": (_kind_ergodic_decay, {
        "p": (_integer, REQUIRED), "M": _M, "n_max": (_integer, 16),
        "prototype": (_loaded(word_from_json), None)}, "p"),
    "group-haagerup": (_kind_group_haagerup,
                       {"word": _WORD, "R": _R, "max_ball": _MAX_BALL}, None),
    "group-shift": (_kind_group_shift,
                    {"word": _WORD, "ns": _NS, "R": _R, "max_ball": _MAX_BALL}, None),
    "rd-report": (_kind_rd_report,
                  {"word": _WORD, "s": (_number, REQUIRED), "ns": _NS}, None),
}

# the top-level fields of a config; `output` defaults to the kind's name
TOP = {
    "kind": (_one_of(KINDS), REQUIRED),
    "parameters": (_object, REQUIRED),
    "output": (_file_name, None),
    "seed": (_seed, DEFAULT_SEED),
    "max_dim": (_integer, DEFAULT_MAX_DIM),
}


PRESETS = {
    "validate-presets": {
        "description": "structural checks for the shipped expectation presets",
        "exercises": "conditional expectation axioms (unit, idempotence, "
                     "bimodule, positivity, nondegeneracy)",
        "config": {
            "kind": "validate-algebra",
            "parameters": {
                "algebras": [
                    {"preset": "scalars_in_matn", "n": 2},
                    {"preset": "diagonal_in_matn", "n": 2},
                    {"preset": "function_algebra_with_state", "points": 2},
                ]
            },
            "output": "validate_presets",
        },
    },
    "fock-report-two-point": {
        "description": "dimension table and operator-calculus unit identities",
        "exercises": "creation/diagonal operator identities and projection "
                     "commutation on the truncated module",
        "config": {
            "kind": "fock-report",
            "parameters": {"config": "two-point-2", "M": 4},
            "output": "fock_report",
        },
    },
    "two-point-two-factors": {
        "description": "word-block ladder identity, two two-point factors",
        "exercises": "exact decomposition of P_r w P_m into creation, "
                     "diagonal and annihilation chains",
        "config": {
            "kind": "lemma-check",
            "parameters": {"config": "two-point-2", "M": 6, "words": 34,
                           "n_max": 4},
            "output": "lemma_two_point_2",
        },
    },
    "two-point-three-factors": {
        "description": "word-block ladder identity, three two-point factors",
        "exercises": "exact decomposition of P_r w P_m into creation, "
                     "diagonal and annihilation chains",
        "config": {
            "kind": "lemma-check",
            "parameters": {"config": "two-point-3", "M": 6, "words": 33,
                           "n_max": 4},
            "output": "lemma_two_point_3",
        },
    },
    "m2-diagonal": {
        "description": "word-block ladder identity, matrix factors over diagonals",
        "exercises": "the same ladder identity where tensor Grams degenerate "
                     "and must be quotiented",
        "config": {
            "kind": "lemma-check",
            "parameters": {"config": "m2-diag", "M": 6, "words": 33,
                           "n_max": 4},
            "output": "lemma_m2_diag",
        },
    },
    "haagerup-sweep": {
        "description": "certified lower vs (2n+1)gamma for separated families",
        "exercises": "the generalized Haagerup bound and its per-block "
                     "squared estimates",
        "config": {
            "kind": "haagerup-sweep",
            "parameters": {"config": "two-point-6", "M": 6, "families": 50,
                           "n_max": 3, "k_max": 6},
            "output": "haagerup_sweep",
            "max_dim": 30000,
        },
    },
    "fshift-p1": {
        "description": "free-shift ergodic decay, single-letter prototype",
        "exercises": "decay of averaged shifts below (2p+1)/sqrt(n) with the "
                     "exact vacuum witness 1/sqrt(n)",
        "config": {
            "kind": "ergodic-decay",
            "parameters": {"p": 1, "n_max": 16, "M": 2},
            "output": "fshift_p1",
        },
    },
    "fshift-p2": {
        "description": "free-shift ergodic decay, two-letter prototype",
        "exercises": "decay of averaged shifts below (2p+1)/sqrt(n)",
        "config": {
            "kind": "ergodic-decay",
            "parameters": {"p": 2, "n_max": 16, "M": 2},
            "output": "fshift_p2",
        },
    },
    "group-haagerup": {
        "description": "free group: certified lower vs (p+1) ell2 bound",
        "exercises": "the classical Haagerup inequality on a Cayley ball",
        "config": {
            "kind": "group-haagerup",
            "parameters": {"word": "g0 g1", "R": 6},
            "output": "group_haagerup",
        },
    },
    "group-shift-g0": {
        "description": "free group: shift averages of a generator",
        "exercises": "the sandwich ell2 <= certified lower <= (p+1)/sqrt(n)",
        "config": {
            "kind": "group-shift",
            "parameters": {"word": "g0", "ns": [1, 4, 9, 16], "R": 8},
            "output": "group_shift_g0",
        },
    },
    "rd-report-basic": {
        "description": "length-weighted ell2 norms of shift averages",
        "exercises": "the rapid-decay norm value (1+p)^s / sqrt(n) and its "
                     "s=0 degeneration",
        "config": {
            "kind": "rd-report",
            "parameters": {"word": "g0 g1", "s": 2.0, "ns": [1, 4, 9, 16]},
            "output": "rd_report",
        },
    },
}


def load_config(source: str) -> dict:
    if source in PRESETS:
        return json.loads(json.dumps(PRESETS[source]["config"]))
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config {source!r} is neither a preset nor a file")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"cannot read config {source!r}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def validate_config(config) -> dict:
    """The config typed and with every default filled in, or ConfigError."""
    config = _fields(_object(config, ""), TOP, "")
    kind = config["kind"]
    _, table, spread = KINDS[kind]
    params = config["parameters"] = _fields(config["parameters"], table, "/parameters")
    config["output"] = config["output"] or kind.replace("-", "_")
    if spread is not None and params[spread] > params["M"]:
        raise ConfigError(f"{spread} = {params[spread]} exceeds the truncation "
                          f"level M = {params['M']}", f"/parameters/{spread}")
    if kind in ("group-shift", "rd-report") and not params["word"].letters:
        raise ConfigError("the identity has no distinct shifts", "/parameters/word")
    if "R" in params and params["R"] < fg.word_length(params["word"]):
        raise ConfigError(f"R = {params['R']} is below the word length", "/parameters/R")
    if kind == "rd-report":  # rd_norm weighs each term by (1 + p)^(2s)
        p, s = fg.word_length(params["word"]), params["s"]
        try:
            finite = math.isfinite((1.0 + p) ** (2 * s))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"s = {s} overflows the weight (1 + p)^(2s) of a word "
                              f"of length p = {p}", "/parameters/s")
    proto = params["prototype"] if kind == "ergodic-decay" else None
    if proto is not None:
        if proto.length != params["p"]:
            raise ConfigError(f"the prototype has {proto.length} letters, "
                              f"not p = {params['p']}", "/parameters/prototype")
        dim = _TWO_POINT().algebra.dim  # the factor of every decay run
        for i, letter in enumerate(proto.letters):
            if len(letter.coords) != dim:
                raise ConfigError(f"letter {i} has {len(letter.coords)} coordinates, "
                                  f"not {dim}", f"/parameters/prototype/letters/{i}")
    return config


def run_config(config: dict, *, out_dir: Path,
               seed: int | None = None, max_dim: int | None = None) -> int:
    config = validate_config(config)
    for key, value in (("seed", seed), ("max_dim", max_dim)):
        if value is not None:  # an override passes its field's own check
            config[key] = TOP[key][0](value, f"/{key}")
    try:  # before the run, which an unusable directory would waste
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {str(out_dir)!r}: "
                          f"{exc.strerror}") from exc
    kind, stem = config["kind"], config["output"]
    fn, _, _ = KINDS[kind]
    t0 = time.perf_counter()
    result = fn(config["parameters"], config["seed"], config["max_dim"])
    elapsed = time.perf_counter() - t0
    rows, extras = result if isinstance(result, tuple) else (result, {})

    csv_path = out_dir / f"{stem}.csv"
    lines = ["name,status,lower,upper,residual"]
    lines += [row.csv() for row in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for suffix, text in extras.items():
        (out_dir / f"{stem}_{suffix}").write_text(text, encoding="utf-8")

    status = all(row.passed for row in rows)
    summary = {
        "schema": 1,
        "kind": kind,
        "seed": config["seed"],
        "status": "pass" if status else "fail",
        "seconds": elapsed,
        "csv": csv_path.name,
        "checks": [row.summary() for row in rows],
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(f"{kind}: {len(rows)} checks, "
          f"{'all pass' if status else 'FAILURES'} ({elapsed:.1f}s)")
    print(f"wrote {csv_path}")
    return 0 if status else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="batch experiments on reduced amalgamated free products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file or preset name")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="checks run serially, so only 1 is accepted")
    p_run.add_argument("--out", type=Path, default=Path("."))
    p_run.add_argument("--max-dim", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    sub.add_parser("list-presets", help="show the preset catalog")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-presets":
            for name, entry in PRESETS.items():
                kind = entry["config"]["kind"]
                print(f"{name} [{kind}]")
                print(f"    {entry['description']}")
                print(f"    checks: {entry['exercises']}")
            return 0
        if args.command == "validate":
            validate_config(load_config(args.config))
            print("config ok")
            return 0
        if args.jobs != 1:
            raise ConfigError(f"--jobs: checks run serially, so only 1 is accepted; "
                              f"got {args.jobs}")
        config = load_config(args.config)
        return run_config(
            config,
            out_dir=args.out,
            seed=args.seed,
            max_dim=args.max_dim,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AmalgamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
