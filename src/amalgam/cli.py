"""Batch experiment runner.

One config file describes one suite: a kind, its parameters, and an output
basename. Each suite writes a deterministic CSV (same config and seed give
byte-identical bytes) plus a JSON summary with timings. The exit status
reflects exclusively the mathematical checks, never performance.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import freegroup as fg
from .errors import AmalgamError, ConfigError
from .fock import build_fock
from .gns import ModuleVector, inner_product
from .linalg import DEFAULT_SEED
from .shift import ShiftExperiment, decay_curve
from .words import (
    Word,
    WordFamily,
    block_lower,
    family_operator,
    haagerup_upper,
    ladder_identity_residual,
    letter_norms,
    norm_lower,
)

LEMMA_TOL = 1e-8
UNIT_TOL = 1e-9
EXACT_TOL = 1e-12
# parameters every kind reads with int(); validate_config checks them
INT_PARAMS = ("M", "words", "n_max", "families", "k_max", "p", "R", "max_ball")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return repr(float(x))  # plain digits for numpy floats too
    return str(x)


class Row:
    def __init__(self, name, passed, lower=None, upper=None, residual=None,
                 seconds=0.0):
        self.name = name
        self.passed = bool(passed)
        self.lower = lower
        self.upper = upper
        self.residual = residual
        self.seconds = seconds

    def csv(self) -> str:
        status = "pass" if self.passed else "fail"
        return ",".join(
            [self.name, status, _fmt(self.lower), _fmt(self.upper),
             _fmt(self.residual)]
        )

    def summary(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "lower": self.lower,
            "upper": self.upper,
            "residual": self.residual,
            "seconds": self.seconds,
        }


def _timed(fn):
    t0 = time.perf_counter()
    row = fn()
    row.seconds = time.perf_counter() - t0
    return row


# ---------------------------------------------------------------------------
# shared experiment material
# ---------------------------------------------------------------------------


def _factor_context(name: str, max_level: int, max_dim: int):
    two_pt = alg.function_algebra_with_state(2)
    if name == "two-point-2":
        return build_fock(alg.scalar_base(), {0: two_pt, 1: two_pt},
                          max_level, max_dim=max_dim)
    if name == "two-point-3":
        return build_fock(alg.scalar_base(), {i: two_pt for i in range(3)},
                          max_level, max_dim=max_dim)
    if name == "two-point-6":
        return build_fock(alg.scalar_base(), {i: two_pt for i in range(6)},
                          max_level, max_dim=max_dim)
    if name == "m2-diag":
        m2 = alg.diagonal_in_matn(2)
        return build_fock(alg.diagonal_base(2), {0: m2, 1: m2},
                          max_level, max_dim=max_dim)
    raise ConfigError(f"unknown factor config {name!r}", "/parameters/config")


def _random_letter(ctx, i, rng) -> alg.CenteredElement:
    spec = ctx.factors[i].spec
    while True:
        coords = rng.standard_normal(spec.algebra.dim) + 1j * rng.standard_normal(
            spec.algebra.dim
        )
        letter = alg.center(spec, coords, owner=i)
        if spec.algebra.norm(letter.coords) > 1e-6:
            return letter


def _random_word(ctx, n, rng) -> Word:
    order = list(ctx.order)
    idx = [order[rng.integers(len(order))]]
    while len(idx) < n:
        nxt = order[rng.integers(len(order))]
        if nxt != idx[-1]:
            idx.append(nxt)
    return Word(tuple(_random_letter(ctx, i, rng) for i in idx))


def _random_separated_family(ctx, n, k, rng, family_id) -> WordFamily:
    """k words of length n with distinct first and distinct last indices."""
    order = [int(i) for i in ctx.order]
    firsts = [order[j] for j in rng.permutation(len(order))[:k]]
    if n == 1:
        words = [Word((_random_letter(ctx, f, rng),)) for f in firsts]
        return WordFamily(tuple(words), family_id)
    # words of length 2 additionally need first != last inside each word
    while True:
        lasts = [order[j] for j in rng.permutation(len(order))[:k]]
        if n > 2 or all(f != l for f, l in zip(firsts, lasts)):
            break
    words = []
    for f, l in zip(firsts, lasts):
        idx = [f]
        while len(idx) < n - 1:
            nxt = order[int(rng.integers(len(order)))]
            if nxt != idx[-1] and (n - len(idx) > 2 or nxt != l):
                idx.append(nxt)
        idx.append(l)
        words.append(Word(tuple(_random_letter(ctx, i, rng) for i in idx)))
    return WordFamily(tuple(words), family_id)


def _unit_prototype(p: int) -> Word:
    two_pt = alg.function_algebra_with_state(2)
    sym = two_pt.algebra.expand(np.diag([1.0, -1.0]))
    letters = tuple(
        alg.CenteredElement(i, np.asarray(sym, dtype=complex)) for i in range(p)
    )
    return Word(letters)


# ---------------------------------------------------------------------------
# suite kinds
# ---------------------------------------------------------------------------


def _kind_validate_algebra(params, seed, max_dim, jobs):
    specs = params["algebras"]
    rows = []
    for j, spec_json in enumerate(specs):
        spec = alg.algebra_from_json(spec_json)
        report = alg.validate_expectation(spec, seed=seed)
        for check in report.checks:
            rows.append(
                Row(f"alg{j}.{check.name}", check.passed, residual=check.residual)
            )
    return rows


def _kind_fock_report(params, seed, max_dim, jobs):
    ctx = _factor_context(params["config"], int(params["M"]), max_dim)
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
    below_top = ctx.level_projection_up_to(ctx.max_level - 1)

    resid = ((psi.H @ psi - ctx.left_b_action(inner_product(fk.mod, y, y))
              @ (ident - q_k)) @ below_top).norm()
    rows.append(Row("psi_star_psi", resid <= UNIT_TOL, residual=resid))

    from .gns import module_norm

    resid = abs(psi.norm() - module_norm(fk.mod, y))
    rows.append(Row("psi_norm", resid <= UNIT_TOL, residual=resid))

    resid = (psi.H @ ctx.level_projection(0)).norm()
    rows.append(Row("psi_star_kills_vacuum", resid <= UNIT_TOL, residual=resid))

    resid = (ctx.diagonal_action(k, fk.spec.algebra.unit_coords) - q_k).norm()
    rows.append(Row("rho_unit", resid <= UNIT_TOL, residual=resid))

    resid = (ctx.represent(k, fk.spec.algebra.unit_coords) - ident).norm()
    rows.append(Row("lambda_unit", resid <= UNIT_TOL, residual=resid))

    resid = max(
        (q_k @ ctx.level_projection(m) - ctx.level_projection(m) @ q_k).norm()
        for m in range(ctx.max_level + 1)
    )
    rows.append(Row("projections_commute", resid <= UNIT_TOL, residual=resid))
    context_json = json.dumps(ctx.summary(), indent=2) + "\n"
    return rows, {"context.json": context_json}


def _kind_lemma_check(params, seed, max_dim, jobs):
    max_level = int(params["M"])
    ctx = _factor_context(params["config"], max_level, max_dim)
    rng = np.random.default_rng(seed)
    count = int(params.get("words", 20))
    n_max = int(params.get("n_max", 4))
    tasks = []
    for j in range(count):
        n = int(rng.integers(1, n_max + 1))
        w = _random_word(ctx, n, rng)
        scale = 1.0
        for nrm in letter_norms(ctx, w):
            scale *= nrm
        for m in range(0, max_level - n + 1):
            tasks.append((f"w{j}.n{n}.m{m}", w, m, scale))

    def check(task):
        name, w, m, scale = task
        resid = ladder_identity_residual(ctx, w, m)
        return Row(name, resid <= LEMMA_TOL * scale, residual=resid,
                   upper=LEMMA_TOL * scale)

    return _run_tasks(tasks, check, jobs)


def _kind_haagerup_sweep(params, seed, max_dim, jobs):
    max_level = int(params["M"])
    ctx = _factor_context(params["config"], max_level, max_dim)
    rng = np.random.default_rng(seed)
    count = int(params.get("families", 20))
    n_max = int(params.get("n_max", 3))
    k_max = int(params.get("k_max", 6))
    tasks = []
    for j in range(count):
        n = int(rng.integers(1, n_max + 1))
        k = int(rng.integers(1, k_max + 1))
        fam = _random_separated_family(ctx, n, k, rng, f"fam{j}")
        tasks.append((j, fam))

    def check(task):
        """The norm row and the block row of one family, on one operator."""
        j, fam = task
        n = fam.length
        t0 = time.perf_counter()
        upper = haagerup_upper(fam, ctx)
        op = family_operator(ctx, fam)
        lower = norm_lower(ctx, op, n, seed=seed).lower
        norm_row = Row(f"fam{j}.n{n}.k{len(fam.words)}",
                       lower <= upper * (1 + 1e-12), lower=lower, upper=upper,
                       seconds=time.perf_counter() - t0)
        t0 = time.perf_counter()
        gamma = upper / (2 * n + 1)
        worst = 0.0
        for m in range(0, ctx.max_level - n + 1):
            for r in range(abs(m - n), min(m + n, ctx.max_level) + 1):
                worst = max(worst, block_lower(ctx, op, n, m, r, seed=seed))
        block_row = Row(f"fam{j}.blocks", worst <= gamma * (1 + 1e-12),
                        lower=worst, upper=gamma,
                        seconds=time.perf_counter() - t0)
        return norm_row, block_row

    pairs = _run_tasks(tasks, check, jobs, timed=False)
    return [norm for norm, _ in pairs] + [block for _, block in pairs]


def _curve_csv(points) -> str:
    lines = ["n,lower,ell2_vacuum,decay_bound,ratio"]
    for n, lower, ell2, bound in points:
        ratio = lower / bound if bound > 0 else float("nan")
        lines.append(",".join([str(n)] + [repr(float(v))
                                          for v in (lower, ell2, bound, ratio)]))
    return "\n".join(lines) + "\n"


def _kind_ergodic_decay(params, seed, max_dim, jobs):
    if "prototype" in params:
        from .words import family_from_json

        proto = family_from_json({"words": [params["prototype"]]}).words[0]
        p = proto.length
    else:
        p = int(params["p"])
        proto = _unit_prototype(p)
    n_max = int(params.get("n_max", 16))
    max_level = int(params.get("M", max(2, p)))
    exp = ShiftExperiment(proto, n_max=n_max, max_level=max_level)
    curve = decay_curve(
        exp, alg.function_algebra_with_state(2), alg.scalar_base(),
        max_dim=max_dim, seed=seed,
    )
    rows = []
    for pt in curve.points:
        rows.append(
            Row(f"decay.p{p}.n{pt.n}", pt.lower <= pt.decay_bound * (1 + 1e-12),
                lower=pt.lower, upper=pt.decay_bound)
        )
        if p == 1 and "prototype" not in params:
            resid = abs(pt.ell2_vacuum - 1.0 / np.sqrt(pt.n))
            rows.append(
                Row(f"vacuum.p1.n{pt.n}", resid <= EXACT_TOL, residual=resid)
            )
    curve_csv = _curve_csv(
        [(pt.n, pt.lower, pt.ell2_vacuum, pt.decay_bound) for pt in curve.points]
    )
    return rows, {"curve.csv": curve_csv}


def _kind_group_haagerup(params, seed, max_dim, jobs):
    word = fg.parse_word(params["word"])
    radius = int(params["R"])
    max_ball = int(params.get("max_ball", fg.DEFAULT_MAX_BALL))
    rep = fg.haagerup_check(
        fg.GroupFunction.delta(word), radius, max_ball=max_ball,
        label=str(word), seed=seed,
    )
    ok = rep.ell2 * (1 - 1e-12) <= rep.lower <= rep.upper * (1 + 1e-12)
    return [Row(f"haagerup.{rep.label}.R{rep.effective_radius}", ok,
                lower=rep.lower, upper=rep.upper, residual=rep.ell2)]


def _kind_group_shift(params, seed, max_dim, jobs):
    word = fg.parse_word(params["word"])
    radius = int(params["R"])
    ns = [int(n) for n in params["ns"]]
    max_ball = int(params.get("max_ball", fg.DEFAULT_MAX_BALL))
    reports = _run_tasks(
        ns,
        lambda n: fg.shift_average_group(
            word, n, radius, max_ball=max_ball, seed=seed
        ),
        jobs,
        timed=False,
    )
    rows = []
    points = []
    for n, rep in zip(ns, reports):
        ok = rep.ell2 * (1 - 1e-12) <= rep.lower <= rep.upper * (1 + 1e-12)
        rows.append(Row(f"shift.n{n}.Reff{rep.effective_radius}", ok,
                        lower=rep.lower, upper=rep.upper, residual=rep.ell2))
        points.append((n, rep.lower, rep.ell2, rep.upper))
    return rows, {"curve.csv": _curve_csv(points)}


def _kind_rd_report(params, seed, max_dim, jobs):
    word = fg.parse_word(params["word"])
    s = float(params["s"])
    ns = [int(n) for n in params["ns"]]
    p = fg.word_length(word)
    rows = []
    for n in ns:
        avg = fg.shift_average(word, n)
        got = fg.rd_norm(avg, s)
        expect = (1.0 + p) ** s / np.sqrt(n)
        resid = abs(got - expect)
        rows.append(Row(f"rd.s{s}.n{n}", resid <= EXACT_TOL * max(expect, 1.0),
                        lower=got, upper=float(expect), residual=resid))
        resid0 = abs(fg.rd_norm(avg, 0.0) - avg.ell2())
        rows.append(Row(f"rd.s0.n{n}", resid0 <= EXACT_TOL, residual=resid0))
    return rows


def _run_tasks(tasks, fn, jobs, timed=True):
    call = (lambda t: _timed(lambda: fn(t))) if timed else fn
    if jobs <= 1:
        return [call(t) for t in tasks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(call, tasks))


KINDS = {
    "validate-algebra": (_kind_validate_algebra, ["algebras"]),
    "fock-report": (_kind_fock_report, ["config", "M"]),
    "lemma-check": (_kind_lemma_check, ["config", "M"]),
    "haagerup-sweep": (_kind_haagerup_sweep, ["config", "M"]),
    "ergodic-decay": (_kind_ergodic_decay, ["p", "M"]),
    "group-haagerup": (_kind_group_haagerup, ["word", "R"]),
    "group-shift": (_kind_group_shift, ["word", "ns", "R"]),
    "rd-report": (_kind_rd_report, ["word", "s", "ns"]),
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def validate_config(config: dict) -> None:
    kind = config.get("kind")
    if kind is None:
        raise ConfigError("missing experiment kind", "/kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}", "/kind")
    params = config.get("parameters")
    if params is None:
        raise ConfigError("missing parameters", "/parameters")
    _, required = KINDS[kind]
    for key in required:
        if key not in params:
            raise ConfigError(f"missing parameter {key!r}", f"/parameters/{key}")
    for key in INT_PARAMS:
        if key in params:
            _as_number(params[key], f"/parameters/{key}")
    if "ns" in params:
        if not isinstance(params["ns"], list):
            raise ConfigError(f"expected a list of integers, got {params['ns']!r}",
                              "/parameters/ns")
        for i, n in enumerate(params["ns"]):
            _as_number(n, f"/parameters/ns/{i}")
    if "s" in params:
        _as_number(params["s"], "/parameters/s", float)
    if "seed" in config:
        _as_number(config["seed"], "/seed")
    if _as_number(config.get("max_dim", 20000), "/max_dim") <= 0:
        raise ConfigError("max_dim must be positive", "/max_dim")


def _as_number(value, pointer: str, kind=int):
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {what}, got {value!r}", pointer) from None


def run_config(config: dict, *, out_dir: Path, jobs: int = 1,
               seed: int | None = None, max_dim: int | None = None) -> int:
    validate_config(config)
    kind = config["kind"]
    eff_seed = seed if seed is not None else int(config.get("seed", DEFAULT_SEED))
    eff_max_dim = max_dim if max_dim is not None else int(
        config.get("max_dim", 20000)
    )
    fn, _ = KINDS[kind]
    t0 = time.perf_counter()
    result = fn(config["parameters"], eff_seed, eff_max_dim, jobs)
    elapsed = time.perf_counter() - t0
    rows, extras = result if isinstance(result, tuple) else (result, {})

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = config.get("output", kind.replace("-", "_"))
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
        "seed": eff_seed,
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
    p_run.add_argument("--jobs", type=int, default=1)
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
        config = load_config(args.config)
        return run_config(
            config,
            out_dir=args.out,
            jobs=args.jobs,
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
