import csv
import json

import pytest

from metagame.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_OK,
    load_config,
    normalize_config,
    run_command,
)


def _pd_config(tmp_path, **folk_overrides):
    folk = {
        "r": [-3.6, -0.4],
        "epsilon": 1.2,
        "gamma": 0.5,
        "delta": 0.995,
        "tail_tol": 1e-6,
        "overrides": {"probe_rate": 0.05, "block_length": 40},
    }
    folk.update(folk_overrides)
    doc = {
        "schema": 1,
        "game": {"name": "pd", "params": {"X": -2, "Y": -4, "Z": -5}},
        "population": {"scenario": "pd", "params": {"p": 0.9}},
        "meta_profiles": {
            "main": {"pure": [["C", "C"], ["D", "D"]]},
            "defect": {"pure": [["D", "D"], ["D", "D"]]},
        },
        "folk": folk,
        "adversary": {"llm": 1, "kind": "heavy"},
        "trials": 2,
        "seed": 7,
    }
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(doc))
    return path


def _results(out_dir):
    return json.loads((out_dir / "report.json").read_text())["results"]


def test_equilibrium_certifies_pd(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(
        ["equilibrium", "--config", str(cfg), "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    results = _results(out)
    assert results["averages"] == pytest.approx([-2.3, -0.4], abs=1e-12)
    assert max(abs(r) for r in results["regrets"]) <= 1e-9
    assert results["is_epsilon_equilibrium"] is True


def test_equilibrium_rejects_all_defect(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(
        [
            "equilibrium",
            "--config",
            str(cfg),
            "--profile",
            "defect",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == EXIT_CERTIFICATE
    assert _results(out)["is_epsilon_equilibrium"] is False


def test_eval_reports_totals_and_averages(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(["eval", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    results = _results(out)
    assert results["totals"] == pytest.approx([-4.14, -0.08], abs=1e-12)


def test_folk_plan_writes_params(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(["folk", "plan", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    params = json.loads((out / "params.json").read_text())
    assert params["block_length"] == 40
    assert params["overridden"] is True
    assert (out / "config.json").exists()


def test_folk_plan_rejects_non_ir_target(tmp_path):
    # mutual defection is a feasible vertex but sits on the punishment bound
    cfg = _pd_config(tmp_path, r=[-7.2, -0.8])
    out = tmp_path / "out"
    code = run_command(["folk", "plan", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_CERTIFICATE
    results = _results(out)
    assert results["planned"] is False
    assert any(m <= 0 for m in results["margins"])


def test_folk_run_produces_artifacts(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(
        ["folk", "run", "--config", str(cfg), "--out", str(out), "--quiet",
         "--trials", "2"]
    )
    assert code == EXIT_OK
    results = _results(out)
    assert results["ran"] is True
    assert results["honest_within_gamma"] is True
    assert results["adversary"]["within_epsilon"] is True
    assert (out / "runlog.jsonl").exists()
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["llm"] for row in rows} == {"0", "1"}
    assert all("discounted_utility" in row for row in rows)


def test_feasible_membership(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(["feasible", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    results = _results(out)
    assert results["feasible"] is True
    assert results["vertex_count"] == 16

    bad = _pd_config(tmp_path, r=[10.0, 10.0])
    code = run_command(["feasible", "--config", str(bad), "--out", str(out), "--quiet"])
    assert code == EXIT_CERTIFICATE
    results = _results(out)
    assert results["feasible"] is False
    assert "separating_direction" in results


def test_minmax_command(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(
        ["minmax", "--config", str(cfg), "--llm", "0", "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    results = _results(out)
    assert results["upper_bound"] <= -4.14 + 1e-9
    assert results["lower_bound"] <= results["upper_bound"] + 1e-12


def test_sweep_share_axis(tmp_path):
    cfg = _pd_config(tmp_path)
    out = tmp_path / "out"
    code = run_command(
        [
            "sweep",
            "--config",
            str(cfg),
            "--axis",
            "population.params.p",
            "--values",
            "0.6,0.75,0.9",
            "--run",
            "equilibrium",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert float(row["average_0"]) < float(row["average_1"])

    single = run_command(
        [
            "sweep",
            "--config",
            str(cfg),
            "--axis",
            "population.params.p",
            "--values",
            "0.9",
            "--run",
            "equilibrium",
            "--out",
            str(tmp_path / "single"),
            "--quiet",
        ]
    )
    assert single == EXIT_OK
    with open(tmp_path / "single" / "sweep.csv") as fh:
        (only,) = list(csv.DictReader(fh))
    assert float(only["average_0"]) == pytest.approx(-2.3, abs=1e-12)


def test_sweep_finite_population(tmp_path):
    doc = json.loads(_pd_config(tmp_path).read_text())
    doc["meta_profiles"]["mixed"] = {
        "llms": [
            [
                {
                    "probability": 1.0,
                    "instruction": [
                        [{"weights": {"C": 0.5, "D": 0.5}, "fraction": 1.0}],
                        [{"weights": {"C": 0.5, "D": 0.5}, "fraction": 1.0}],
                    ],
                }
            ]
        ]
        * 2
    }
    doc["finite"] = {"clients_per_role": 100, "periods": 10}
    doc["trials"] = 2
    cfg = tmp_path / "finite.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out_finite"
    code = run_command(
        [
            "sweep",
            "--config",
            str(cfg),
            "--axis",
            "finite.clients_per_role",
            "--values",
            "100,1600",
            "--run",
            "finite",
            "--profile",
            "mixed",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    small = sum(float(r["mean_gap"]) for r in rows if float(r["value"]) == 100) / 2
    large = sum(float(r["mean_gap"]) for r in rows if float(r["value"]) == 1600) / 2
    assert large < small


def test_config_round_trip_normalization(tmp_path):
    cfg = _pd_config(tmp_path)
    once = load_config(cfg)
    twice = normalize_config(json.loads(json.dumps(once)))
    assert once == twice


def test_bad_configs_exit_2(tmp_path):
    missing = tmp_path / "missing.json"
    assert run_command(["eval", "--config", str(missing), "--quiet"]) == EXIT_CONFIG

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_command(["eval", "--config", str(bad), "--quiet"]) == EXIT_CONFIG

    nogame = tmp_path / "nogame.json"
    nogame.write_text(json.dumps({"schema": 1, "population": {"shares": [[1.0]]}}))
    assert run_command(["eval", "--config", str(nogame), "--quiet"]) == EXIT_CONFIG

    cfg = _pd_config(tmp_path)
    assert (
        run_command(
            ["eval", "--config", str(cfg), "--profile", "nope", "--quiet"]
        )
        == EXIT_CONFIG
    )


def test_report_quick(tmp_path):
    out = tmp_path / "out"
    code = run_command(["report", "--quick", "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["pd"]["is_equilibrium"] is True
    assert results["heist"]["certifies_minus_0_5872"] is True
    assert results["bounded10"]["n_actions"] == 6


def test_output_root_env_var(tmp_path, monkeypatch):
    cfg = _pd_config(tmp_path)
    root = tmp_path / "env_root"
    monkeypatch.setenv("METAGAME_OUT", str(root))
    code = run_command(["eval", "--config", str(cfg), "--quiet"])
    assert code == EXIT_OK
    assert (root / "report.json").exists()


def _inline_game(**doc):
    return {"game": {"inline": doc}, "population": {"shares": [[1.0], [1.0]]}}


# (config field the error must name, change to the valid PD config)
MALFORMED_CONFIGS = {
    "folk.r missing": ("folk.r", lambda d: d["folk"].pop("r")),
    "adversary.llm missing": ("adversary.llm", lambda d: d["adversary"].pop("llm")),
    "finite.clients_per_role missing": (
        "finite.clients_per_role",
        lambda d: d.update(finite={"periods": 3}),
    ),
    "trials not a number": ("trials", lambda d: d.update(trials="x")),
    "budget null": ("budget", lambda d: d.update(budget=None)),
    "folk.r not numbers": ("folk.r", lambda d: d["folk"].update(r="ab")),
    "folk.delta not a number": ("folk.delta", lambda d: d["folk"].update(delta="x")),
    "meta_profiles a list": ("meta_profiles", lambda d: d.update(meta_profiles=[])),
    "game parameter not numeric": (
        "game",
        lambda d: d["game"]["params"].update(X="a"),
    ),
    "inline game without payoffs": (
        "game",
        lambda d: d.update(_inline_game(actions=[["C", "D"], ["C", "D"]])),
    ),
    "inline game without actions": (
        "game",
        lambda d: d.update(_inline_game(payoffs=[])),
    ),
    "adversary.llm past the last advisor": (
        "adversary.llm",
        lambda d: d["adversary"].update(llm=2),
    ),
    "adversary.llm negative": ("adversary.llm", lambda d: d["adversary"].update(llm=-1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_2(tmp_path, capsys, case):
    field, change = MALFORMED_CONFIGS[case]
    path = _pd_config(tmp_path)
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    code = run_command(
        ["folk", "run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert f"config field {field!r}" in capsys.readouterr().err
