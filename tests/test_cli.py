import collections
import contextlib
import copy
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metagame.cli
import metagame.sim
from metagame.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_INTERNAL,
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


def test_eval_stops_a_wide_mixed_bounded10_instruction_at_the_budget(tmp_path):
    """Ten roles, each instructed over six actions: one role's product has
    6 * 6^9 terms, past the default budget, so ``eval`` stops with the
    budget error before it builds any product."""
    wide = [[{"weights": {str(a): 1 / 6 for a in range(1, 7)}, "fraction": 1.0}]] * 10
    doc = {
        "schema": 1,
        "game": {"name": "bounded10", "params": {"n_actions": 40}},
        "population": {"scenario": "bounded10", "params": {}},
        "meta_profiles": {
            "main": {"llms": [[{"probability": 1.0, "instruction": wide}]] * 3}
        },
    }
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_command(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG
    assert "budget" in err.getvalue()


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


def test_folk_plan_with_no_block_length_for_its_epsilon_exits_2(tmp_path, capsys):
    cfg = _pd_config(tmp_path, epsilon=1e-300, overrides={})
    code = run_command(
        ["folk", "plan", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "no block length up to" in capsys.readouterr().err


def test_folk_run_produces_artifacts(tmp_path, monkeypatch):
    honest = []  # the honest runs' logs
    original = metagame.cli.run_repeated

    def recording(*args, **kwargs):
        honest.append(original(*args, **kwargs))
        return honest[-1]

    monkeypatch.setattr(metagame.cli, "run_repeated", recording)
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
    assert results["warnings"] == []
    # One line per run of the first honest log, after the header.
    lines = (out / "runlog.jsonl").read_text().splitlines()
    assert len(lines) == len(honest[0].runs) + 1
    assert sum(json.loads(line)["periods"] for line in lines[1:]) == results["horizon"]
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["llm"] for row in rows} == {"0", "1"}
    assert all("discounted_utility" in row for row in rows)


def test_folk_run_warns_when_no_review_block_completes(tmp_path):
    """The README PD config derives T = 262,144, and at delta 0.995 its
    horizon is 3,289 periods: no block is reviewed, so the gamma and epsilon
    checks pass without testing the protocol."""
    path = tmp_path / "readme.json"
    path.write_text(json.dumps({**MUTATED_BASES["readme-pd"], "trials": 2}))
    out = tmp_path / "out"
    code = run_command(["folk", "run", "--config", str(path), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    results = _results(out)
    assert results["horizon"] == 3289 and results["adversary"]["within_epsilon"] is True
    (warning,) = results["warnings"]
    assert "complete no review block" in warning and "262144" in warning
    assert (out / "runlog.jsonl").stat().st_size < 50_000


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


def test_zero_mass_advisor_averages_are_null(tmp_path):
    doc = json.loads(_pd_config(tmp_path).read_text())
    doc["population"] = {"shares": [[1.0, 0.0], [1.0, 0.0]]}
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    for command in (["eval"], ["equilibrium"]):
        out = tmp_path / command[0]
        code = run_command(command + ["--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        assert _results(out)["averages"][1] is None
    out = tmp_path / "sweep"
    code = run_command(
        ["sweep", "--config", str(cfg), "--axis", "seed", "--values", "0,1",
         "--run", "equilibrium", "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    rows = _results(out)["rows"]
    assert [row["average_1"] for row in rows] == [None, None]
    assert all(row["average_0"] == pytest.approx(-2.0) for row in rows)


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


def test_run_command_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    builds = []
    build = metagame.cli.build_parser
    monkeypatch.setattr(metagame.cli, "_PARSER", None)
    monkeypatch.setattr(
        metagame.cli, "build_parser", lambda: builds.append(1) or build()
    )
    cfg = str(_pd_config(tmp_path))
    for out in ("a", "b"):
        argv = ["eval", "--config", cfg, "--out", str(tmp_path / out), "--quiet"]
        assert run_command(argv) == EXIT_OK
        assert run_command(["eval", "--config", cfg, "--bogus"]) == EXIT_CONFIG
    assert run_command(["--version-of-nothing"]) == EXIT_CONFIG
    assert len(builds) == 1
    assert _results(tmp_path / "a") == _results(tmp_path / "b")


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
    "population.shares a number": (
        "population.shares",
        lambda d: d.update(population={"shares": 5}),
    ),
    "meta_profiles pure a number": (
        "meta_profiles.main.pure",
        lambda d: d["meta_profiles"]["main"].update(pure=5),
    ),
    "population.shares not numbers": (
        "population",
        lambda d: d.update(population={"shares": [["x"], ["y"]]}),
    ),
    "population.params.p not a number": (
        "population",
        lambda d: d["population"]["params"].update(p="x"),
    ),
    "population.params unknown key": (
        "population",
        lambda d: d["population"]["params"].update(bogus=1),
    ),
    "trials zero": ("trials", lambda d: d.update(trials=0)),
    "trials negative": ("trials", lambda d: d.update(trials=-1)),
    "trials not whole": ("trials", lambda d: d.update(trials=2.5)),
    "trials a boolean": ("trials", lambda d: d.update(trials=True)),
    "trials one with an adversary": ("trials", lambda d: d.update(trials=1)),
    "finite.periods zero": (
        "finite.periods",
        lambda d: d.update(finite={"clients_per_role": 10, "periods": 0}),
    ),
    "finite.periods negative": (
        "finite.periods",
        lambda d: d.update(finite={"clients_per_role": 10, "periods": -3}),
    ),
    "finite.periods not whole": (
        "finite.periods",
        lambda d: d.update(finite={"clients_per_role": 10, "periods": 2.5}),
    ),
    "budget zero": ("budget", lambda d: d.update(budget=0)),
    "budget negative": ("budget", lambda d: d.update(budget=-5)),
    "budget NaN": ("budget", lambda d: d.update(budget=float("nan"))),
    "folk.overrides.block_length not a number": (
        "folk.overrides.block_length",
        lambda d: d["folk"]["overrides"].update(block_length="x"),
    ),
    "folk.overrides.block_length not whole": (
        "folk.overrides.block_length",
        lambda d: d["folk"]["overrides"].update(block_length=40.5),
    ),
    "folk.overrides.block_length zero": (
        "folk.overrides.block_length",
        lambda d: d["folk"]["overrides"].update(block_length=0),
    ),
    "folk.overrides unknown key": (
        "folk.overrides.block_len",
        lambda d: d["folk"]["overrides"].update(block_len=40),
    ),
    "folk.overrides.probe_rate above 1": (
        "folk.overrides.probe_rate",
        lambda d: d["folk"]["overrides"].update(probe_rate=1.5),
    ),
    "folk.overrides.probe_rate negative": (
        "folk.overrides.probe_rate",
        lambda d: d["folk"]["overrides"].update(probe_rate=-0.1),
    ),
    "folk.overrides.punish_length negative": (
        "folk.overrides.punish_length",
        lambda d: d["folk"]["overrides"].update(punish_length=-1),
    ),
    "folk.overrides.punish_length not whole": (
        "folk.overrides.punish_length",
        lambda d: d["folk"]["overrides"].update(punish_length=2.5),
    ),
    "seed negative": ("seed", lambda d: d.update(seed=-1)),
    "seed not whole": ("seed", lambda d: d.update(seed=2.5)),
    "adversary.llm not whole": ("adversary.llm", lambda d: d["adversary"].update(llm=0.5)),
    "adversary.llm a boolean": ("adversary.llm", lambda d: d["adversary"].update(llm=True)),
    "adversary.budget not whole": (
        "adversary.budget",
        lambda d: d["adversary"].update(budget=2.5),
    ),
    "adversary.budget a boolean": (
        "adversary.budget",
        lambda d: d["adversary"].update(budget=True),
    ),
    "adversary.kind unknown": (
        "adversary.kind",
        lambda d: d["adversary"].update(kind="heavvy"),
    ),
    "finite.clients_per_role not whole": (
        "finite.clients_per_role",
        lambda d: d.update(finite={"clients_per_role": 2.5, "periods": 3}),
    ),
    "finite.clients_per_role a boolean": (
        "finite.clients_per_role",
        lambda d: d.update(finite={"clients_per_role": True, "periods": 3}),
    ),
    "folk.tail_tol NaN": ("folk.tail_tol", lambda d: d["folk"].update(tail_tol=float("nan"))),
    "folk.tail_tol zero": ("folk.tail_tol", lambda d: d["folk"].update(tail_tol=0)),
    "folk.r NaN": ("folk.r", lambda d: d["folk"].update(r=[float("nan"), -0.4])),
    "folk.r Infinity": ("folk.r", lambda d: d["folk"].update(r=[-3.6, float("inf")])),
    "population.shares NaN": (
        "population",
        lambda d: d.update(population={"shares": [[float("nan"), 1.0], [0.1, 0.9]]}),
    ),
    "population.params.p NaN": (
        "population",
        lambda d: d["population"]["params"].update(p=float("nan")),
    ),
    "inline game payoff NaN": (
        "game",
        lambda d: d.update(
            game={"inline": {"actions": [["C", "D"], ["C", "D"]], "payoffs": [
                {"profile": [a, b], "vector": [float("nan") if a == b == "C" else -4.0, -4.0]}
                for a in "CD" for b in "CD"
            ]}},
            population={"shares": [[0.9, 0.1], [0.1, 0.9]]},
        ),
    ),
    "folk.epsilon a boolean": ("folk.epsilon", lambda d: d["folk"].update(epsilon=True)),
    "folk.r booleans": ("folk.r", lambda d: d["folk"].update(r=[True, False])),
    "folk.r strings": ("folk.r", lambda d: d["folk"].update(r=["-3.6", "-0.4"])),
    "budget a string": ("budget", lambda d: d.update(budget="1e7")),
    "folk.delta a string": ("folk.delta", lambda d: d["folk"].update(delta="0.99")),
    "folk.overrides.probe_rate a string": (
        "folk.overrides.probe_rate",
        lambda d: d["folk"]["overrides"].update(probe_rate="0.1"),
    ),
    "schema a boolean": ("schema", lambda d: d.update(schema=True)),
    "game both name and inline": (
        "game",
        lambda d: d["game"].update(
            inline={"actions": [["C", "D"], ["C", "D"]], "payoffs": [
                {"profile": [a, b], "vector": [-1.0, -1.0]} for a in "CD" for b in "CD"
            ]}
        ),
    ),
    "population both shares and scenario": (
        "population",
        lambda d: d["population"].update(shares=[[0.9, 0.1], [0.1, 0.9]]),
    ),
    "meta_profiles both pure and named": (
        "meta_profiles.main",
        lambda d: d["meta_profiles"]["main"].update(named="heist_blame"),
    ),
    "meta_profiles pure rows as strings": (
        "meta_profiles.main.pure",
        lambda d: d["meta_profiles"]["main"].update(pure=["CC", "DD"]),
    ),
    "population.shares booleans": (
        "population",
        lambda d: d.update(population={"shares": [[True, False], [False, True]]}),
    ),
    "population.shares strings": (
        "population",
        lambda d: d.update(population={"shares": [["0.9", "0.1"], ["0.1", "0.9"]]}),
    ),
    "population.shares null entry": (
        "population",
        lambda d: d.update(population={"shares": [[None, 1.0], [0.1, 0.9]]}),
    ),
    "population.params.p a boolean": (
        "population",
        lambda d: d["population"]["params"].update(p=True),
    ),
    "population.params.p a string": (
        "population",
        lambda d: d["population"]["params"].update(p="0.9"),
    ),
    "budget too large for a float": ("budget", lambda d: d.update(budget=10**400)),
    "folk.delta too large for a float": (
        "folk.delta",
        lambda d: d["folk"].update(delta=10**400),
    ),
    "population.params.p too large for a float": (
        "population",
        lambda d: d["population"]["params"].update(p=10**400),
    ),
    "inline game payoff too large for a float": (
        "game",
        lambda d: d.update(_inline_game(actions=[["C"], ["C"]], payoffs=[
            {"profile": ["C", "C"], "vector": [10**400, 0]}
        ])),
    ),
    "inline procedural params a list": (
        "game",
        lambda d: d.update(_inline_game(
            actions=[["C"], ["C"]],
            payoffs={"procedural": "bounded_group_prize", "params": []},
        )),
    ),
    "inline bounded rule with another role count": (
        "game",
        lambda d: d.update(_inline_game(
            actions=[["C", "D"], ["C", "D"]],
            payoffs={"procedural": "bounded_group_prize",
                     "params": {"n_roles": 3, "group_size": 2}},
        )),
    ),
    "finite.clients_per_role at the sampler's ceiling": (
        "finite.clients_per_role",
        lambda d: d.update(finite={"clients_per_role": 10**9, "periods": 3}),
    ),
    "finite.clients_per_role beyond int64": (
        "finite.clients_per_role",
        lambda d: d.update(finite={"clients_per_role": 10**30, "periods": 3}),
    ),
    "folk.r at HiGHS's infinite_bound": (
        "folk.r",
        lambda d: d["folk"].update(r=[1e20, -0.4]),
    ),
    "game payoff beyond HiGHS's large_matrix_value": (
        "game",
        lambda d: d["game"]["params"].update(Z=-1e16),
    ),
    "game payoff far beyond HiGHS's large_matrix_value": (
        "game",
        lambda d: d["game"]["params"].update(Z=-1e19),
    ),
    "inline bounded rule prize a string": (
        "game",
        lambda d: d.update(_inline_game(
            actions=[["C", "D"], ["C", "D"]],
            payoffs={"procedural": "bounded_group_prize",
                     "params": {"n_roles": 2, "group_size": 2, "prize": "x"}},
        )),
    ),
}


@pytest.mark.parametrize(
    "population,entry",
    [
        ({"shares": [[True, False], [False, True]]}, "population.shares[0][0]"),
        ({"shares": [[0.9, 0.1], [0.1, "0.9"]]}, "population.shares[1][1]"),
        ({"scenario": "pd", "params": {"p": True}}, "population.params.p"),
    ],
)
def test_population_non_numbers_name_the_entry(tmp_path, capsys, population, entry):
    path = _pd_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["population"] = population
    path.write_text(json.dumps(doc))
    assert run_command(["eval", "--config", str(path), "--quiet"]) == EXIT_CONFIG
    assert f"{entry} must be a number" in capsys.readouterr().err


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


@pytest.mark.parametrize("llms", [5, [5, 5], [[{}], [{}]]])
def test_bad_profile_contents_exit_2(tmp_path, capsys, llms):
    path = _pd_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["meta_profiles"]["main"] = {"llms": llms}
    path.write_text(json.dumps(doc))
    code = run_command(["eval", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_CONFIG
    assert "config field 'meta_profiles.main'" in capsys.readouterr().err


_C = {"weights": {"C": 1.0}, "fraction": 1.0}
_D = {"weights": {"D": 1.0}, "fraction": 1.0}


def _both(*outcomes):
    """Both advisors draw from ``(probability, per-role split)`` outcomes, the
    split the same in both roles."""
    return {"llms": [[{"probability": p, "instruction": [split] * 2} for p, split in outcomes]] * 2}


BAD_PROFILES = {
    "one role per instruction": {"pure": [["C"], ["D"]]},
    "three roles per instruction": {"pure": [["C", "C", "C"], ["D", "D", "D"]]},
    "NaN strategy weight": _both(
        (1.0, [{"weights": {"C": 1.0, "D": float("nan")}, "fraction": 1.0}])
    ),
    "NaN instruction fraction": _both((1.0, [_C, {**_D, "fraction": float("nan")}])),
    "NaN outcome probability": _both((1.0, [_C]), (float("nan"), [_D])),
    "outcome probability too large for a float": _both((10**400, [_C])),
}


@pytest.mark.parametrize("case", sorted(BAD_PROFILES))
@pytest.mark.parametrize(
    "command",
    [
        ["eval"],
        ["equilibrium"],
        ["sweep", "--run", "finite", "--axis", "finite.periods", "--values", "3"],
    ],
    ids=["eval", "equilibrium", "sweep-finite"],
)
def test_bad_profile_exits_2_naming_it(tmp_path, capsys, case, command):
    path = _pd_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["meta_profiles"]["main"] = BAD_PROFILES[case]
    doc["finite"] = {"clients_per_role": 10, "periods": 3}
    path.write_text(json.dumps(doc))
    code = run_command(
        [*command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "config field 'meta_profiles.main'" in capsys.readouterr().err


def _count_runs(monkeypatch) -> list:
    """The seed of every ``run_repeated`` call, honest or deviating."""
    calls = []
    original = metagame.sim.run_repeated

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return original(*args, **kwargs)

    monkeypatch.setattr(metagame.cli, "run_repeated", counting)
    monkeypatch.setattr(metagame.sim, "run_repeated", counting)
    return calls


def test_folk_run_runs_each_honest_trial_once(tmp_path, monkeypatch):
    calls = _count_runs(monkeypatch)
    trials = 3
    code = run_command(
        ["folk", "run", "--config", str(_pd_config(tmp_path, delta=0.9)),
         "--out", str(tmp_path / "out"), "--quiet", "--trials", str(trials)]
    )
    assert code == EXIT_OK
    # One honest and one deviating run per trial, each seed used twice.
    assert len(calls) == 2 * trials
    assert sorted(calls) == sorted([(7, t) for t in range(trials)] * 2)


@pytest.mark.parametrize("values", ["abc", "0.5,", "1000,abc"])
def test_sweep_values_not_numbers_exit_2(tmp_path, capsys, values):
    code = run_command(
        ["sweep", "--config", str(_pd_config(tmp_path)), "--axis",
         "population.params.p", "--values", values, "--run", "equilibrium",
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_folk_run_trials_flag_below_one_exits_2(tmp_path, capsys, trials):
    code = run_command(
        ["folk", "run", "--config", str(_pd_config(tmp_path)), "--out",
         str(tmp_path / "out"), "--quiet", "--trials", trials]
    )
    assert code == EXIT_CONFIG
    assert "config field '--trials'" in capsys.readouterr().err


def test_folk_run_one_trial_with_an_adversary_exits_2_before_running(
    tmp_path, capsys, monkeypatch
):
    calls = _count_runs(monkeypatch)
    code = run_command(
        ["folk", "run", "--config", str(_pd_config(tmp_path)), "--out",
         str(tmp_path / "out"), "--quiet", "--trials", "1"]
    )
    assert code == EXIT_CONFIG
    assert "config field '--trials'" in capsys.readouterr().err
    assert calls == []
    # Without an adversary one trial runs.
    doc = json.loads(_pd_config(tmp_path, delta=0.9).read_text())
    del doc["adversary"]
    path = tmp_path / "honest.json"
    path.write_text(json.dumps({**doc, "trials": 1}))
    code = run_command(
        ["folk", "run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_OK and calls == [(7, 0)]


def _finite_config(tmp_path, **changes):
    doc = json.loads(_pd_config(tmp_path).read_text())
    finite = {"clients_per_role": 50, "periods": 3}
    doc.update({"finite": finite, "trials": 2, **changes})
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "changes, axis, values, field",
    [
        ({"trials": 0}, "finite.clients_per_role", "50", "trials"),
        ({}, "trials", "0", "trials"),
        ({}, "finite.periods", "2.5", "finite.periods"),
        ({}, "finite.periods", "0", "finite.periods"),
    ],
)
def test_finite_sweep_counts_below_one_exit_2(
    tmp_path, capsys, changes, axis, values, field
):
    config = _finite_config(tmp_path, **changes)
    code = run_command(
        ["sweep", "--config", str(config), "--axis", axis, "--values", values,
         "--run", "finite", "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert f"config field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["1000000000", "1e30"])
def test_finite_sweep_clients_at_the_sampler_ceiling_exit_2(tmp_path, capsys, values):
    # These exited 1: numpy's hypergeometric sampler takes fewer than 10**9.
    code = run_command(
        ["sweep", "--config", str(_finite_config(tmp_path)), "--axis",
         "finite.clients_per_role", "--values", values, "--run", "finite",
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "config field 'finite.clients_per_role'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--budget", "0"), ("--budget", "-5"), ("--budget", "nan"), ("--seed", "-1")],
)
def test_folk_run_flags_out_of_range_exit_2(tmp_path, capsys, flag, value):
    code = run_command(
        ["folk", "run", "--config", str(_pd_config(tmp_path)), "--out",
         str(tmp_path / "out"), "--quiet", flag, value]
    )
    assert code == EXIT_CONFIG
    assert f"config field {flag!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "run, name", [("equilibrium", "check_equilibrium"), ("eval", "llm_utility")]
)
def test_sweep_budget_flag_reaches_the_analysis(tmp_path, monkeypatch, run, name):
    budgets = []
    original = getattr(metagame.cli, name)

    def recording(*args, **kwargs):
        budgets.append(kwargs["budget"])
        return original(*args, **kwargs)

    monkeypatch.setattr(metagame.cli, name, recording)
    code = run_command(
        ["sweep", "--config", str(_pd_config(tmp_path)), "--axis",
         "population.params.p", "--values", "0.6,0.9", "--run", run,
         "--budget", "12345", "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_OK
    assert budgets == [12345.0, 12345.0]


def test_bad_adversary_kind_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(metagame.cli, "run_repeated", lambda *a, **k: calls.append(a))
    doc = json.loads(_pd_config(tmp_path).read_text())
    doc["adversary"]["kind"] = "bogus"
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc))
    code = run_command(
        ["folk", "run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "config field 'adversary.kind'" in capsys.readouterr().err
    assert calls == []


def _heist_config(tmp_path):
    doc = {
        "schema": 1,
        "game": {"name": "heist", "params": {}},
        "population": {"scenario": "heist", "params": {}},
        "seed": 0,
    }
    path = tmp_path / "heist.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("config, k", [(_pd_config, 2), (_heist_config, 3)])
def test_minmax_llm_out_of_range_exits_2(tmp_path, monkeypatch, capsys, config, k):
    calls = []
    monkeypatch.setattr(metagame.cli, "minmax", lambda *a, **kw: calls.append(a))
    path = config(tmp_path)
    for llm in (-1, k, k + 3):
        code = run_command(
            ["minmax", "--config", str(path), "--llm", str(llm),
             "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == EXIT_CONFIG
        assert f"config field '--llm': must lie in [0, {k})" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "command",
    [["equilibrium"], ["sweep", "--axis", "population.params.p", "--values", "0.9"]],
)
def test_epsilon_out_of_range_exits_2(tmp_path, capsys, command, value):
    # NaN and -1 used to read as "not an equilibrium" (exit 3), and inf
    # certified every profile.
    code = run_command(
        [*command, "--config", str(_pd_config(tmp_path)), "--epsilon", value,
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "config field '--epsilon'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, command",
    [(_heist_config, ["minmax", "--llm", "0"]), (_pd_config, ["eval"])],
)
def test_budget_too_small_exits_2(tmp_path, capsys, config, command):
    code = run_command(
        [*command, "--config", str(config(tmp_path)), "--budget", "1",
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: exact enumeration needs") and "budget is 1" in err


# The README PD config and the heist config of the benchmark's plan-heist.
MUTATED_BASES = {
    "readme-pd": {
        "schema": 1,
        "game": {"name": "pd", "params": {"X": -2, "Y": -4, "Z": -5}},
        "population": {"scenario": "pd", "params": {"p": 0.9}},
        "meta_profiles": {"main": {"pure": [["C", "C"], ["D", "D"]]}},
        "folk": {"r": [-3.6, -0.4], "epsilon": 1.2, "gamma": 0.5, "delta": 0.995},
        "adversary": {"llm": 1, "kind": "heavy"},
        "trials": 30,
        "seed": 42,
    },
    "heist": {
        "schema": 1,
        "game": {"name": "heist", "params": {}},
        "population": {"scenario": "heist", "params": {}},
        "meta_profiles": {"main": {"named": "heist_blame"}},
        "folk": {"r": [0.0, 0.0, 0.0]},
        "seed": 0,
    },
}


def test_warm_readme_pd_folk_run_makes_no_scalar_call(tmp_path, monkeypatch):
    """Runs read pure realizations and myopic replies off the payoff tensor:
    once warm, a README-PD ``folk run`` with its heavy adversary makes no
    ``llm_utility`` call from the simulator and no ``best_response`` call."""
    path = tmp_path / "readme-pd.json"
    path.write_text(json.dumps({**MUTATED_BASES["readme-pd"], "trials": 10, "seed": 7}))
    argv = ["folk", "run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    assert run_command(argv) == EXIT_OK
    calls = collections.Counter()
    targets = [(m, "best_response") for n, m in sys.modules.items() if n.startswith("metagame")]
    for module, name in [(sys.modules["metagame.sim"], "llm_utility"), *targets]:
        original = getattr(module, name, None)
        if original is not None:
            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    assert run_command(argv) == EXIT_OK
    assert calls == {}


def _field_paths(node, prefix=()):
    """The path of every object member and list entry below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


# Edge values first: integers too large for a float, NaN, infinities, wrong types.
_JSON_VALUES = st.recursive(
    st.sampled_from([10**400, -(10**400), float("nan"), float("inf"), -1, 0, True, None, ""])
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_config(draw, values=_JSON_VALUES):
    """A base config with one field dropped or replaced by one of ``values``."""
    doc = copy.deepcopy(MUTATED_BASES[draw(st.sampled_from(sorted(MUTATED_BASES)))])
    path = draw(st.sampled_from(list(_field_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.integers(0, 3)) == 0:
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(values)
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=_mutated_config())
def test_mutated_configs_never_exit_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_command(
                ["eval", "--config", str(path), "--out", str(Path(tmp) / "out"), "--quiet"]
            )
    assert code != EXIT_INTERNAL, err.getvalue()


# The values above or, as often, a magnitude beyond a HiGHS limit: 1e15
# (large_matrix_value) for a payoff, 1e20 (infinite_bound) for a target.
_LP_JSON_VALUES = st.sampled_from([1e16, -1e16, 1e20, -1e20, 1e300]) | _JSON_VALUES


@settings(max_examples=300, deadline=None)
@given(doc=_mutated_config(_LP_JSON_VALUES))
def test_mutated_configs_never_exit_1_in_folk_plan(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_command(
                ["folk", "plan", "--config", str(path), "--out", str(Path(tmp) / "out"),
                 "--quiet"]
            )
    assert code != EXIT_INTERNAL, err.getvalue()
