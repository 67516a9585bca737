import csv
import json

import pytest

import amalgam.cli
import amalgam.words
from amalgam.cli import PRESETS, load_config, main, run_config, validate_config
from amalgam.errors import ConfigError


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_validate_good_preset():
    for name in PRESETS:
        validate_config(load_config(name))


def test_validate_missing_parameter_pointer():
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "lemma-check", "parameters": {"config": "two-point-2"}})
    assert err.value.pointer == "/parameters/M"


def test_validate_unknown_kind():
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "nope", "parameters": {}})
    assert err.value.pointer == "/kind"


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


def test_jobs_flag_keeps_order(tmp_path):
    config = {
        "kind": "lemma-check",
        "parameters": {"config": "two-point-2", "M": 4, "words": 4, "n_max": 2},
        "output": "ordered",
    }
    run_config(config, out_dir=tmp_path / "a", jobs=1)
    run_config(config, out_dir=tmp_path / "b", jobs=4)
    assert (tmp_path / "a/ordered.csv").read_bytes() == (
        tmp_path / "b/ordered.csv"
    ).read_bytes()


def test_jobs_flag_keeps_sparse_sweep_bytes(tmp_path):
    # two-point-6 at M=5 is stored sparse; n=1 families solve on 937 columns
    config = {
        "kind": "haagerup-sweep",
        "parameters": {"config": "two-point-6", "M": 5, "families": 2,
                       "n_max": 1},
        "output": "sweep",
    }
    run_config(config, out_dir=tmp_path / "a", jobs=1)
    run_config(config, out_dir=tmp_path / "b", jobs=4)
    assert (tmp_path / "a/sweep.csv").read_bytes() == (
        tmp_path / "b/sweep.csv"
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
