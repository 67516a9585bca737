"""Record a benchmark baseline in one command.

    python3 bench/baseline.py --seed 1 --seconds 25 --out bench/baseline.json

Runs every workload untraced and traced, printing every end-to-end metric
by name with its unit, then runs each CLI preset once. Writes the metrics,
the traced per-layer metrics, the preset table (wall seconds and exit code
of `python3 -m amalgam.cli run <preset>`, interpreter start included) and
the environment to `--out`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import run as bench
from workloads import WORKLOADS


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": bench.BLAS_THREADS,
    }


def preset_table() -> list[dict]:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from amalgam.cli import PRESETS

    out = bench.ROOT / ".bench_out" / "presets"
    rows = []
    for name in PRESETS:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "amalgam.cli", "run", name, "--out", str(out)],
            cwd=bench.ROOT, env=bench.worker_env(), capture_output=True,
        )
        rows.append({"preset": name, "wall_s": time.perf_counter() - t0,
                     "exit_code": proc.returncode})
        print(f"preset {name} {rows[-1]['wall_s']:.2f} s exit {proc.returncode}",
              flush=True)
    shutil.rmtree(out, ignore_errors=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", type=Path, default=bench.BENCH / "baseline.json")
    args = parser.parse_args()

    workloads = {}
    for name in WORKLOADS:
        plain = bench.measure(name, args.seed, args.seconds, False)
        traced = bench.measure(name, args.seed, args.seconds, True)
        for metric, m in plain["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}", flush=True)
        print(f"{name} correct {plain['correct'] and traced['correct']} "
              f"digest {plain['digest']}", flush=True)
        workloads[name] = {
            "configs": [{k: v for k, v in cfg.items() if k != "seed"}
                        for cfg in plain["configs"]],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "executions": plain["executions"],
            "digest": plain["digest"],
            "traced_digest_matches": traced["digest"] == plain["digest"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "workloads": workloads,
        "presets": preset_table(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
