"""Smoke test of the benchmark at tiny size.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
for one second each, and checks that every run is correct and reports
exactly the metrics BENCHMARK.json lists, each with its unit. Exits 1 and
names each problem otherwise. Takes about half a minute.
"""

from __future__ import annotations

import json
import sys

import run as bench


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            rec = bench.measure(workload, 1, 1, trace, "tiny")
            where = f"{workload} trace={int(trace)}"
            if not rec["correct"] or rec["failed"] or rec["attempted"] < 1:
                problems.append(f"{where}: correct={rec['correct']} "
                                f"attempted={rec['attempted']} failed={rec['failed']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in rec["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            print(f"{where}: {len(got)} metrics, attempted {rec['attempted']}",
                  flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
