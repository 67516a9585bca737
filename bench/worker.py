"""One execution of a workload, in a fresh process.

    python3 bench/worker.py '<json spec>'

The spec names the mode (`run` or `trace`), the configs, the output
directory and the source directory the package must come from. The worker
first times the set-up: importing the package plus building every context
the configs use through the public builders. It drops those contexts, then
drives the configs through `amalgam.cli.main(["run", ...])` and times that,
with the tracer installed in `trace` mode. The run builds its own contexts,
as a user's run would. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def build_contexts(am, cfg: dict) -> list:
    """Every context the run of `cfg` builds, built ahead of it.

    The Fock contexts come from the CLI's own helpers, so they are the ones
    the run builds. The Cayley balls repeat the radius choice of
    `freegroup.haagerup_check`; the traced run checks their sizes.
    """
    p = cfg["parameters"]
    max_dim = cfg.get("max_dim", 20000)
    cli = am.cli
    if cfg["kind"] in ("haagerup-sweep", "lemma-check"):
        return [cli._factor_context(p["config"], int(p["M"]), max_dim)]
    if cfg["kind"] == "ergodic-decay":
        exp = am.shift.ShiftExperiment(cli._unit_prototype(int(p["p"])),
                                       n_max=int(p["n_max"]), max_level=int(p["M"]))
        return [am.shift.build_shift_context(
            am.function_algebra_with_state(2), am.scalar_base(), exp.window,
            exp.max_level, max_dim=max_dim)]
    if cfg["kind"] == "group-shift":
        fg = am.freegroup
        word = fg.parse_word(p["word"])
        balls = []
        for n in p["ns"]:
            window = fg.shift_average(word, n).touched_generators()
            radius = fg.largest_feasible_radius(window, p["R"], fg.DEFAULT_MAX_BALL)
            balls.append(fg.build_ball(window, radius))
        return balls
    raise ValueError(f"no set-up for kind {cfg['kind']!r}")


def sizes(contexts: list) -> dict:
    """Total Fock dimension and Cayley-ball words, as the tracer counts them."""
    return {
        "fock.total_dim": sum(getattr(c, "total_dim", 0) for c in contexts),
        "freegroup.ball_words": sum(len(c) for c in contexts
                                    if not hasattr(c, "total_dim")),
    }


def run(am, spec: dict) -> dict:
    """Drive the configs through the CLI; time it and collect exit codes."""
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cfg in enumerate(spec["configs"]):
        path = out / f"config{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(path)
    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for path in paths:
            codes.append(am.cli.main(
                ["run", str(path), "--jobs", "1", "--out", str(out)]))
    result = {"run_s": time.perf_counter() - t0, "exit_codes": codes}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import amalgam
    import amalgam.cli
    import amalgam.freegroup
    import amalgam.shift

    src = Path(spec["src"]).resolve()
    if Path(amalgam.__file__).resolve().parent.parent != src:
        print(f"error: amalgam imported from {amalgam.__file__}, not {src}",
              file=sys.stderr)
        return 3
    contexts = [c for cfg in spec["configs"] for c in build_contexts(amalgam, cfg)]
    result = {"setup_s": time.perf_counter() - t0, "sizes": sizes(contexts)}
    del contexts
    gc.collect()
    result.update(run(amalgam, spec))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
