"""The benchmark workloads: CLI configs per workload and size.

Every workload is a list of `amalgam run` configs, made of two parts that
run one after the other in the same execution:
- `sweep-group`: the sweep (large sparse Fock context, structure assembly,
  certified solver) and then the group shift (Cayley balls, convolution,
  solver on ball matrices). The solver dominates here.
- `decay-ladder`: the decay curves (dense letter products on long shift
  windows, tiny solver domains) and then the ladder checks (the
  exact-identity path). Dense products dominate; the solver barely runs.
Two workloads, not one per part, so that each run can be long enough for
its median to settle on a shared host.

The benchmark seed is written into each config's `seed` field, so it
drives every random choice the CLI makes (word letters, family shapes,
solver start vectors).

Sizes. `full` is what the benchmark measures: one execution takes 5 to
10 s on a 2-core x86 box at one BLAS thread, so several fit in one timed
run. `tiny` finishes in about a second and only serves the smoke test.

The full counts are smaller than the CLI presets use, to fit the run length:
- sweep: 6 families of one word of length 1 (`n_max` 1, `k_max` 1). The
  CLI draws each family's word length and word count from the seed, and a
  length-2 family costs about three times as much as one of length 1 or 3,
  so with mixed draws the amount of work changed from seed to seed. With
  one-letter families the six factors are interchangeable; what the seed
  still changes is how many distinct factors the letters fall on (a
  factor's structure operators are built once, then reused), which moves
  the cost by a few percent. The costly parts remain: the
  23,437-dimensional context, cold structure assembly, and the certified
  solver on 4,687 and 3,750 columns (power iteration) and on 750-column
  blocks (Gram `eigh`). This part takes about 5 s.
- decay: `n_max` 20 and 16; the cost grows steeply with the window length.
- ladder: 24 words on two-point-3.
"""

from __future__ import annotations

PARTS = {
    "sweep": {
        "full": [
            {"kind": "haagerup-sweep",
             "parameters": {"config": "two-point-6", "M": 6, "families": 6,
                            "n_max": 1, "k_max": 1},
             "output": "sweep", "max_dim": 30000},
        ],
        "tiny": [
            {"kind": "haagerup-sweep",
             "parameters": {"config": "two-point-6", "M": 3, "families": 2,
                            "n_max": 1, "k_max": 6},
             "output": "sweep"},
        ],
    },
    "decay": {
        "full": [
            {"kind": "ergodic-decay", "parameters": {"p": 1, "n_max": 20, "M": 2},
             "output": "decay_p1"},
            {"kind": "ergodic-decay", "parameters": {"p": 2, "n_max": 16, "M": 2},
             "output": "decay_p2"},
        ],
        "tiny": [
            {"kind": "ergodic-decay", "parameters": {"p": 1, "n_max": 4, "M": 2},
             "output": "decay_p1"},
            {"kind": "ergodic-decay", "parameters": {"p": 2, "n_max": 3, "M": 2},
             "output": "decay_p2"},
        ],
    },
    "ladder": {
        "full": [
            {"kind": "lemma-check",
             "parameters": {"config": "two-point-3", "M": 6, "words": 24, "n_max": 4},
             "output": "ladder_two_point_3"},
            {"kind": "lemma-check",
             "parameters": {"config": "m2-diag", "M": 6, "words": 33, "n_max": 4},
             "output": "ladder_m2_diag"},
        ],
        "tiny": [
            {"kind": "lemma-check",
             "parameters": {"config": "two-point-3", "M": 4, "words": 3, "n_max": 3},
             "output": "ladder_two_point_3"},
            {"kind": "lemma-check",
             "parameters": {"config": "m2-diag", "M": 4, "words": 3, "n_max": 3},
             "output": "ladder_m2_diag"},
        ],
    },
    "group": {
        "full": [
            {"kind": "group-shift",
             "parameters": {"word": "g0", "ns": [1, 4, 9, 16], "R": 8},
             "output": "group_shift"},
        ],
        "tiny": [
            {"kind": "group-shift",
             "parameters": {"word": "g0", "ns": [1, 4], "R": 4},
             "output": "group_shift"},
        ],
    },
}

# Each workload runs its parts one after the other in the same execution.
WORKLOADS = {
    "sweep-group": ("sweep", "group"),
    "decay-ladder": ("decay", "ladder"),
}


def configs(workload: str, size: str, seed: int) -> list[dict]:
    """The workload's configs with the benchmark seed filled in."""
    return [dict(cfg, seed=seed)
            for part in WORKLOADS[workload] for cfg in PARTS[part][size]]


def has_closed_form(cfg: dict) -> bool:
    """Whether each curve point is the n-average of n free unitaries.

    Those are the p=1 decay curve (n free symmetries, Kesten 1959) and the
    shift average of one free generator (Akemann & Ostrand 1976); in both
    the norm of the sum is 2 sqrt(n - 1).
    """
    p = cfg["parameters"]
    if cfg["kind"] == "ergodic-decay":
        return p.get("p") == 1 and "prototype" not in p
    if cfg["kind"] == "group-shift":
        return len(p["word"].split()) == 1 and "^" not in p["word"]
    return False
