"""Benchmark entry point.

    python3 bench/run.py --workload sweep-group --seed 1 --seconds 57 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/`, and nothing needs building. Each execution of the workload runs in
a fresh worker process (bench/worker.py) with the BLAS thread count pinned.
Each execution times its set-up (import plus context builds) and then its
run phase. Executions repeat while the next one, if it takes as long as the
last, would end less than half its length past `--seconds`, so the run
takes `--seconds` give or take half an execution. Times are medians over
the executions.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of bench/tracer.py, from traced executions. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `attempted` and `failed`
count checks over all executions of the run.

Checks, per execution: every CSV check row; for curves with a closed-form
norm, the certified lower against the ceiling 2 sqrt(n-1)/n (1 at n=1)
and the floor 1/sqrt(n); and the digest of the CSV files against that of
the run's first execution. A config that exits nonzero fails all its checks.
A traced execution also checks that the contexts its set-up built have
the sizes its run counts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, configs, has_closed_form  # noqa: E402

BLAS_THREADS = 1
DEADLINE_S = 170  # a run stops starting executions after this
ORACLE_RTOL = 1e-12

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_total": "count",
    "cert_ratio_gmean": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def execute(mode: str, cfgs: list[dict], out: Path, timeout: float) -> dict | None:
    """One worker process; None if it failed or ran out of time."""
    spec = {"mode": mode, "configs": cfgs, "out": str(out), "src": str(ROOT / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"worker ({mode}) timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def kesten(n: int) -> float:
    """Norm of the average of n free unitaries: 2 sqrt(n-1)/n, 1 at n=1."""
    return 1.0 if n == 1 else 2.0 * math.sqrt(n - 1) / n


def read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def analyse(cfgs: list[dict], codes: list[int], out: Path) -> dict:
    """Checks, norm ratios and CSV digest of one execution's output."""
    checks = failed = 0
    ratios = []
    for cfg, code in zip(cfgs, codes):
        rows = read_csv(out / f"{cfg['output']}.csv")
        n_checks = len(rows)
        n_failed = sum(row["status"] != "pass" for row in rows)
        if has_closed_form(cfg):
            for point in read_csv(out / f"{cfg['output']}_curve.csv"):
                n, lower = int(point["n"]), float(point["lower"])
                ceiling = kesten(n)
                n_checks += 2
                n_failed += lower > ceiling * (1 + ORACLE_RTOL)
                n_failed += lower < (1 - ORACLE_RTOL) / math.sqrt(n)
                ratios.append(lower / ceiling)
        else:
            ratios += [float(row["lower"]) / float(row["upper"])
                       for row in rows if row["lower"] and row["upper"]]
        if code != 0:
            n_checks = n_failed = max(n_checks, 1)
        checks += n_checks
        failed += n_failed
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"checks": checks, "failed": failed, "ratios": ratios,
            "digest": digest.hexdigest()}


def geometric_mean(ratios: list[float]) -> float:
    """1 for no ratios (the empty product); 0 if any ratio is not positive."""
    if not ratios:
        return 1.0
    if min(ratios) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run the workload for `seconds` and return its result record.

    Executions repeat while the next one, if it takes as long as the last,
    would end less than half its length past `seconds`. Traced, the
    first execution is untraced and sets the digest the traced ones must
    match.
    """
    cfgs = configs(workload, size, seed)
    deadline = time.perf_counter() + DEADLINE_S
    scratch = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    done: dict[str, list[dict]] = {"run": [], "trace": []}
    first = None
    measured = 0.0  # wall time of the executions so far
    i = 0
    while True:
        mode = "trace" if trace and done["run"] else "run"
        out = scratch / f"exec{i}"
        t0 = time.perf_counter()
        res = execute(mode, cfgs, out, deadline - t0)
        last = time.perf_counter() - t0
        measured += last
        if res is None:
            attempted += 1
            failed += 1
        else:
            found = analyse(cfgs, res["exit_codes"], out)
            if first is None:
                first = found
            else:
                attempted += 1
                failed += found["digest"] != first["digest"]
            attempted += found["checks"]
            failed += found["failed"]
            if mode == "trace":
                # The contexts timed as set-up must be the ones the run builds.
                attempted += 1
                failed += any(res["layers"][name]["value"] != value
                              for name, value in res["sizes"].items())
            done[mode].append(res)
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        enough = measured + last / 2 > seconds and done["trace" if trace else "run"]
        if res is None or enough or time.perf_counter() >= deadline:
            break
    shutil.rmtree(scratch, ignore_errors=True)
    with contextlib.suppress(OSError):
        scratch.parent.rmdir()
    with_results = bool(done["trace" if trace else "run"])

    metrics = {}
    if with_results and trace:
        traces = done["trace"]
        for name, m in traces[0]["layers"].items():
            pick = statistics.median if m["unit"] == "s" else statistics.median_low
            value = pick(r["layers"][name]["value"] for r in traces)
            metrics[name] = {"value": value, "unit": m["unit"]}
    elif with_results:
        runs = done["run"]
        values = {
            "run_s": statistics.median(r["run_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "checks_total": first["checks"],
            "cert_ratio_gmean": geometric_mean(first["ratios"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {
        "correct": with_results and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": first["digest"] if first else None,
        "run_s_samples": [r["run_s"] for r in done["run"]],
        "setup_s_samples": [r["setup_s"] for r in done["run"]],
        "executions": {m: len(v) for m, v in done.items()},
        "configs": cfgs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "amalgam" / "__init__.py").is_file():
        print(f"error: no amalgam sources under {ROOT / 'src'}; run from the "
              "root of an amalgam-lab checkout", file=sys.stderr)
        return 2
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size)
    if not rec["metrics"]:
        print("error: no execution of the workload completed", file=sys.stderr)
        return 1
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"executions {rec['executions']} digest {rec['digest']}")
    print("run_s samples " + " ".join(f"{t:.3f}" for t in rec["run_s_samples"]))
    print("setup_s samples " + " ".join(f"{t:.3f}" for t in rec["setup_s_samples"]))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
