import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam.cli
import amalgam.fock
import amalgam.words
from amalgam.cli import KINDS, PRESETS, load_config, main, run_config, validate_config
from amalgam.errors import ConfigError
from amalgam.linalg import DEFAULT_SEED


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_validate_good_preset():
    for name in PRESETS:
        validate_config(load_config(name))


@pytest.mark.parametrize("name", PRESETS)
def test_every_preset_passes(tmp_path, name):
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    statuses = []
    for path in tmp_path.glob("*.csv"):  # a curve CSV has no status column
        with path.open(newline="") as fh:
            statuses += [row["status"] for row in csv.DictReader(fh) if "status" in row]
    assert statuses and set(statuses) == {"pass"}


def test_every_benchmark_config_validates():
    # a config the schema refused would turn benchmark runs into failures
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sizes = {size for part in workloads.PARTS.values() for size in part}
    assert sizes == {"full", "tiny"}
    for name in workloads.WORKLOADS:
        for size in sizes:
            for config in workloads.configs(name, size, 4242):
                validate_config(config)


def test_validate_fills_every_default():
    config = validate_config({"kind": "haagerup-sweep",
                              "parameters": {"config": "two-point-2", "M": 4}})
    assert config["parameters"] == {"config": "two-point-2", "M": 4,
                                    "families": 20, "n_max": 3, "k_max": 6}
    assert config["output"] == "haagerup_sweep"
    assert config["seed"] == DEFAULT_SEED
    assert config["max_dim"] == 20000


def test_validate_missing_parameter_pointer():
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "lemma-check", "parameters": {"config": "two-point-2"}})
    assert err.value.pointer == "/parameters/M"


def test_validate_unknown_kind():
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "nope", "parameters": {}})
    assert err.value.pointer == "/kind"


def test_group_haagerup_accepts_the_identity(tmp_path):
    # delta_e has norm 1 = (0 + 1) ||delta_e||_2, a check like any other
    config = {"kind": "group-haagerup", "parameters": {"word": "g0 g0^-1", "R": 2}}
    validate_config(config)
    assert run_config(config, out_dir=tmp_path) == 0


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "lemma-check", "parameters": {}}))
    assert main(["validate", str(bad)]) == 2
    assert "/parameters/" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, pointer",
    [
        ({"kind": "lemma-check", "parameters": {"config": "two-point-2", "M": "six"}},
         "/parameters/M"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1]},
          "max_dim": "big"},
         "/max_dim"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": ["four"]}},
         "/parameters/ns/0"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1, None]}},
         "/parameters/ns/1"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": 4}},
         "/parameters/ns"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": "two", "ns": [1]}},
         "/parameters/s"),
        ({"kind": "lemma-check",
          "parameters": {"config": "two-point-2", "M": 4, "words": "many"}},
         "/parameters/words"),
        ({"kind": "lemma-check",
          "parameters": {"config": "two-point-2", "M": 4, "n_max": [3]}},
         "/parameters/n_max"),
        ({"kind": "haagerup-sweep",
          "parameters": {"config": "two-point-2", "M": 4, "families": "few"}},
         "/parameters/families"),
        ({"kind": "haagerup-sweep",
          "parameters": {"config": "two-point-2", "M": 4, "k_max": "2.5"}},
         "/parameters/k_max"),
        ({"kind": "ergodic-decay", "parameters": {"p": "one", "M": 2}},
         "/parameters/p"),
        ({"kind": "group-shift", "parameters": {"word": "g0", "ns": [1], "R": "eight"}},
         "/parameters/R"),
        ({"kind": "group-haagerup",
          "parameters": {"word": "g0", "R": 4, "max_ball": "huge"}},
         "/parameters/max_ball"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1]},
          "seed": "lucky"},
         "/seed"),
        # integers are JSON integers >= 1: no truncation, no bools, no zeros
        ({"kind": "lemma-check", "parameters": {"config": "two-point-2", "M": 4.7}},
         "/parameters/M"),
        ({"kind": "lemma-check", "parameters": {"config": "two-point-2", "M": True}},
         "/parameters/M"),
        ({"kind": "lemma-check", "parameters": {"config": "two-point-2", "M": 4.0}},
         "/parameters/M"),
        ({"kind": "lemma-check", "parameters": {"config": "two-point-2", "M": 0}},
         "/parameters/M"),
        ({"kind": "lemma-check",
          "parameters": {"config": "two-point-2", "M": 4, "words": 0}},
         "/parameters/words"),
        ({"kind": "haagerup-sweep",
          "parameters": {"config": "two-point-2", "M": 4, "families": 0}},
         "/parameters/families"),
        ({"kind": "lemma-check",
          "parameters": {"config": "two-point-2", "M": 4, "n_max": 0}},
         "/parameters/n_max"),
        ({"kind": "haagerup-sweep",
          "parameters": {"config": "two-point-2", "M": 4, "k_max": 0}},
         "/parameters/k_max"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1]},
          "seed": -1},
         "/seed"),
        # lists are non-empty
        ({"kind": "group-shift", "parameters": {"word": "g0", "ns": [], "R": 4}},
         "/parameters/ns"),
        ({"kind": "validate-algebra", "parameters": {"algebras": []}},
         "/parameters/algebras"),
        ({"kind": "validate-algebra", "parameters": {"algebras": "x"}},
         "/parameters/algebras"),
        # unknown fields are refused, not ignored
        ({"kind": "lemma-check",
          "parameters": {"config": "two-point-2", "M": 4, "wrods": 2}},
         "/parameters/wrods"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1]},
          "sed": 3},
         "/sed"),
        # strings and numbers
        ({"kind": "group-haagerup", "parameters": {"word": 5, "R": 4}},
         "/parameters/word"),
        ({"kind": "group-haagerup", "parameters": {"word": "g0 x", "R": 4}},
         "/parameters/word"),
        ({"kind": "lemma-check", "parameters": {"config": "two-point-9", "M": 4}},
         "/parameters/config"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": "NaN", "ns": [1]}},
         "/parameters/s"),
        ({"kind": "rd-report",
          "parameters": {"word": "g0", "s": float("inf"), "ns": [1]}},
         "/parameters/s"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1]},
          "output": ""},
         "/output"),
        ([1], ""),
        # a level spread may not exceed the truncation level
        ({"kind": "haagerup-sweep",
          "parameters": {"config": "two-point-2", "M": 2, "n_max": 3}},
         "/parameters/n_max"),
        ({"kind": "lemma-check",
          "parameters": {"config": "two-point-2", "M": 3, "n_max": 4}},
         "/parameters/n_max"),
        ({"kind": "ergodic-decay", "parameters": {"p": 3, "M": 2}},
         "/parameters/p"),
        # nested loaders point below their field
        ({"kind": "ergodic-decay", "parameters": {"p": 1, "M": 2, "prototype": {}}},
         "/parameters/prototype/indices"),
        ({"kind": "ergodic-decay",
          "parameters": {"p": 2, "M": 2,
                         "prototype": {"indices": [0], "letters": [[[1, 0], [-1, 0]]]}}},
         "/parameters/prototype"),
        ({"kind": "validate-algebra", "parameters": {"algebras": [{"ambient_dim": 2}]}},
         "/parameters/algebras/0/algebra_basis"),
        ({"kind": "validate-algebra",
          "parameters": {"algebras": [{"preset": "diagonal_in_matn", "n": 2},
                                      {"preset": "nope"}]}},
         "/parameters/algebras/1/preset"),
        # decay letters live in the two-point factor; outputs are file names
        ({"kind": "ergodic-decay",
          "parameters": {"p": 1, "M": 2, "n_max": 2,
                         "prototype": {"indices": [0],
                                       "letters": [[[1, 0], [0, 0], [5, 0]]]}}},
         "/parameters/prototype/letters/0"),
        ({"kind": "rd-report", "parameters": {"word": "g0", "s": 1.0, "ns": [1]},
          "output": "no/such/dir/x"},
         "/output"),
        # shift averages need a word other than the identity, and a ball
        # radius of at least the word length
        ({"kind": "rd-report",
          "parameters": {"word": "g0 g0^-1", "s": 1.0, "ns": [1, 2]}},
         "/parameters/word"),
        ({"kind": "group-shift",
          "parameters": {"word": "g0 g0^-1", "ns": [1, 2], "R": 4}},
         "/parameters/word"),
        ({"kind": "group-haagerup", "parameters": {"word": "g0 g1 g2 g3", "R": 3}},
         "/parameters/R"),
        ({"kind": "group-shift", "parameters": {"word": "g1^2", "ns": [2], "R": 1}},
         "/parameters/R"),
        # a prototype has one integer index per letter and no other fields
        ({"kind": "ergodic-decay",
          "parameters": {"p": 1, "M": 2,
                         "prototype": {"indices": [0, 1], "letters": [[[1, 0], [-1, 0]]]}}},
         "/parameters/prototype/letters"),
        ({"kind": "ergodic-decay",
          "parameters": {"p": 1, "M": 2,
                         "prototype": {"indices": [0], "letters": [[[1, 0], [-1, 0]],
                                                                   [[1, 0], [-1, 0]]]}}},
         "/parameters/prototype/letters"),
        ({"kind": "ergodic-decay",
          "parameters": {"p": 1, "M": 2,
                         "prototype": {"indices": [0.7], "letters": [[[1, 0], [-1, 0]]]}}},
         "/parameters/prototype/indices/0"),
        ({"kind": "ergodic-decay",
          "parameters": {"p": 1, "M": 2,
                         "prototype": {"indices": [0], "letters": [[[1, 0], [-1, 0]]],
                                       "extra": 1}}},
         "/parameters/prototype/extra"),
    ],
)
def test_bad_integer_types_exit_2_with_pointer(tmp_path, capsys, config, pointer):
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.pointer == pointer
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert pointer in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, pointer",
                         [("--seed", "-1", "/seed"), ("--max-dim", "0", "/max_dim")])
def test_overrides_pass_the_field_checks(tmp_path, capsys, flag, value, pointer):
    assert main(["run", "rd-report-basic", "--out", str(tmp_path), flag, value]) == 2
    assert pointer in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1", "2"])
def test_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", "rd-report-basic", "--out", str(out), "--jobs", jobs]) == 2
    assert f"got {jobs}" in capsys.readouterr().err
    assert not out.exists()  # refused before anything ran


@pytest.mark.parametrize("command", ["run", "validate"])
def test_directory_config_exits_2(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path) in err
    assert "Traceback" not in err


def test_out_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    ran, real = [], amalgam.cli.fg.shift_average
    monkeypatch.setattr(amalgam.cli.fg, "shift_average",
                        lambda *args: ran.append(args) or real(*args))
    assert main(["run", "rd-report-basic", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err
    assert "Traceback" not in err
    assert ran == []  # refused before the kind ran
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("s", [600, 1e308])
def test_rd_report_overflowing_s_exits_2(tmp_path, capsys, s):
    # (1 + 1)^(2s) is no finite float; run used to die with OverflowError
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "rd-report",
                               "parameters": {"word": "g0", "s": s, "ns": [1]}}))
    for argv in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "/parameters/s" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("s", [-600, -1e308])
def test_rd_report_accepts_large_negative_s(tmp_path, s):
    # (1 + p)^(2s) underflows to 0, and every row still checks exactly
    config = {"kind": "rd-report", "parameters": {"word": "g0 g1", "s": s, "ns": [1, 4]}}
    assert run_config(config, out_dir=tmp_path) == 0


# one valid parameter set per kind, every level spread at its least, so that
# a value in one slot can only break that slot
BASES = {
    "validate-algebra": {"algebras": [{"preset": "diagonal_in_matn", "n": 2}]},
    "fock-report": {"config": "two-point-2", "M": 2},
    "lemma-check": {"config": "two-point-2", "M": 2, "n_max": 1},
    "haagerup-sweep": {"config": "two-point-2", "M": 2, "n_max": 1},
    "ergodic-decay": {"p": 1, "M": 2},
    "group-haagerup": {"word": "g0", "R": 2},
    "group-shift": {"word": "g0", "ns": [1], "R": 2},
    "rd-report": {"word": "g0", "s": 1.0, "ns": [1]},
}
SLOTS = [(kind, f"/parameters/{name}") for kind, (_, table, _) in KINDS.items()
         for name in table]
SLOTS += [("rd-report", f"/{name}") for name in ("output", "seed", "max_dim")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)


def test_bases_validate():
    assert set(BASES) == set(KINDS)
    for kind, params in BASES.items():
        validate_config({"kind": kind, "parameters": params})


@pytest.mark.parametrize("kind, pointer", SLOTS)
@settings(max_examples=40, deadline=None)
@given(value=JSON_VALUES)
def test_any_value_in_a_slot_validates_or_points_into_it(kind, pointer, value):
    config = {"kind": kind, "parameters": dict(BASES[kind])}
    *parent, name = pointer.split("/")[1:]
    (config["parameters"] if parent else config)[name] = value
    try:
        validate_config(config)
    except ConfigError as exc:
        assert exc.pointer == pointer or exc.pointer.startswith(pointer + "/")


@pytest.mark.parametrize("config, seed", [
    ({"config": "two-point-2", "M": 3, "n_max": 3, "k_max": 2}, 3),
    ({"config": "m2-diag", "M": 3, "n_max": 3, "k_max": 1}, 5),
])
def test_sweep_on_two_factors_finishes(tmp_path, config, seed):
    # odd-length words on two factors must end where they start
    config = {"kind": "haagerup-sweep", "parameters": config, "seed": seed}
    assert run_config(config, out_dir=tmp_path) == 0


def test_run_writes_csv_and_summary(tmp_path):
    config = {
        "kind": "lemma-check",
        "parameters": {"config": "two-point-2", "M": 4, "words": 3, "n_max": 2},
        "output": "mini",
    }
    code = run_config(config, out_dir=tmp_path)
    assert code == 0
    csv = (tmp_path / "mini.csv").read_text()
    assert csv.startswith("name,status,lower,upper,residual\n")
    summary = json.loads((tmp_path / "mini.json").read_text())
    assert summary["schema"] == 1
    assert summary["status"] == "pass"
    assert all(c["status"] == "pass" for c in summary["checks"])
    assert summary["csv"] == "mini.csv"


def test_runs_are_deterministic(tmp_path):
    config = {
        "kind": "ergodic-decay",
        "parameters": {"p": 1, "n_max": 5, "M": 2},
        "output": "decay",
    }
    run_config(config, out_dir=tmp_path / "a")
    run_config(config, out_dir=tmp_path / "b")
    assert (tmp_path / "a/decay.csv").read_bytes() == (
        tmp_path / "b/decay.csv"
    ).read_bytes()


def test_sweep_builds_each_family_operator_once(tmp_path, monkeypatch):
    calls = []
    real = amalgam.words.family_operator

    def counting(ctx, fam):
        calls.append(fam.family_id)
        return real(ctx, fam)

    for module in (amalgam.cli, amalgam.words):
        monkeypatch.setattr(module, "family_operator", counting)
    config = {
        "kind": "haagerup-sweep",
        "parameters": {"config": "two-point-3", "M": 3, "families": 3,
                       "n_max": 2, "k_max": 2},
        "output": "sweep",
    }
    assert run_config(config, out_dir=tmp_path) == 0
    assert sorted(calls) == ["fam0", "fam1", "fam2"]


def test_lemma_check_represents_each_letter_once(tmp_path, monkeypatch):
    # the ladder takes each letter's parts once and sums them itself; a call
    # to represent would split the letter a second time
    calls = {"letter_parts": [], "represent": []}
    for name in calls:
        real = getattr(amalgam.fock.FockContext, name)

        def counting(self, i, a_coords, real=real, name=name):
            calls[name].append(i)
            return real(self, i, a_coords)

        monkeypatch.setattr(amalgam.fock.FockContext, name, counting)
    config = {"kind": "lemma-check", "output": "lemma",
              "parameters": {"config": "two-point-3", "M": 5, "words": 4, "n_max": 3}}
    assert run_config(config, out_dir=tmp_path) == 0
    with (tmp_path / "lemma.csv").open(newline="") as fh:
        names = [row["name"].split(".") for row in csv.DictReader(fh)]
    # rows are named w<j>.n<length>.m<level>; every word has a row at m = 0
    lengths = {word: int(n[1:]) for word, n, _ in names}
    assert len(names) > len(lengths)  # words with several levels
    assert len(calls["letter_parts"]) == sum(lengths.values())
    assert calls["represent"] == []


def test_lemma_check_builds_one_direct_sum_per_word_length(tmp_path, monkeypatch):
    # all words are drawn first and checked in one call, whose batches are
    # the word lengths; the rows are those of one-word calls, in word order
    params = {"config": "two-point-3", "M": 5, "words": 8, "n_max": 3}
    ctx = amalgam.cli._factor_context(params["config"], params["M"],
                                      amalgam.fock.DEFAULT_MAX_DIM)
    rng = np.random.default_rng(DEFAULT_SEED)
    words = [amalgam.words.random_word(ctx, int(rng.integers(1, params["n_max"] + 1)), rng)
             for _ in range(params["words"])]
    want = []
    for j, w in enumerate(words):
        [residuals] = amalgam.words.ladder_identity_residuals(ctx, [w])
        upper = amalgam.cli.LEMMA_TOL * math.prod(amalgam.words.letter_norms(ctx, w))
        want += [amalgam.cli.Row(f"w{j}.n{w.length}.m{m}", resid <= upper,
                                 residual=resid, upper=upper).csv()
                 for m, resid in enumerate(residuals)]
    lengths = {w.length for w in words}
    assert 1 < len(lengths) < len(words)

    sums = []
    real = amalgam.words._ladder_factors

    def counting(ctx, batch):
        sums.append(batch)
        return real(ctx, batch)

    monkeypatch.setattr(amalgam.words, "_ladder_factors", counting)
    config = {"kind": "lemma-check", "output": "lemma", "parameters": params}
    assert run_config(config, out_dir=tmp_path) == 0
    assert len(sums) == len(lengths)
    assert sorted(batch[0].length for batch in sums) == sorted(lengths)
    lines = (tmp_path / "lemma.csv").read_text().splitlines()
    assert lines[1:] == want
    checks = json.loads((tmp_path / "lemma.json").read_text())["checks"]
    assert len({c["seconds"] for c in checks}) == 1  # the call's time, split evenly


@pytest.mark.parametrize("name", ["group-haagerup", "group-shift-g0"])
def test_group_rows_leave_the_residual_empty(tmp_path, name):
    # the ell2 floor is no residual of an identity; it stays in the status
    # check and in the curve's ell2 column
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    with (tmp_path / f"{PRESETS[name]['config']['output']}.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["residual"] == "" for row in rows)


def test_csv_numbers_parse_as_floats(tmp_path):
    assert main(["run", "fshift-p1", "--out", str(tmp_path)]) == 0
    with (tmp_path / "fshift_p1.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = [row[key] for row in rows for key in ("lower", "upper", "residual")]
    assert sum(bool(f) for f in fields) == 3 * 16  # lower, upper per n; residual
    for field in filter(None, fields):
        float(field)


def test_run_from_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "kind": "rd-report",
                "parameters": {"word": "g0 g1", "s": 1.0, "ns": [1, 4]},
                "output": "rd",
            }
        )
    )
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "rd.csv").exists()


def test_decay_kind_writes_curve_csv(tmp_path):
    config = {
        "kind": "ergodic-decay",
        "parameters": {"p": 1, "n_max": 4, "M": 2},
        "output": "d",
    }
    run_config(config, out_dir=tmp_path)
    curve = (tmp_path / "d_curve.csv").read_text().splitlines()
    assert curve[0] == "n,lower,ell2_vacuum,decay_bound,ratio"
    assert len(curve) == 5
    first = curve[1].split(",")
    assert first[0] == "1" and float(first[3]) == 3.0


def test_decay_kind_accepts_explicit_prototype(tmp_path):
    # the sign letter of the two-point algebra, spelled out by coordinates
    config = {
        "kind": "ergodic-decay",
        "parameters": {
            "prototype": {
                "indices": [0],
                "letters": [[[1.0, 0.0], [-1.0, 0.0]]],
            },
            "p": 1,
            "n_max": 3,
            "M": 2,
        },
        "output": "proto",
    }
    assert run_config(config, out_dir=tmp_path) == 0


def test_seed_override_changes_sampled_words(tmp_path):
    config = {
        "kind": "lemma-check",
        "parameters": {"config": "two-point-2", "M": 4, "words": 2, "n_max": 3},
        "output": "seeded",
    }
    run_config(config, out_dir=tmp_path / "a", seed=1)
    run_config(config, out_dir=tmp_path / "b", seed=2)
    a = (tmp_path / "a/seeded.csv").read_text()
    b = (tmp_path / "b/seeded.csv").read_text()
    assert a != b  # residual columns reflect different sampled words
