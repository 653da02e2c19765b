"""The start-up boundary: only commands that solve an LP load scipy.

``metagame.feasibility`` imports ``scipy.optimize`` on its first LP, so
``import metagame.cli`` and the commands that solve none (``eval``,
``equilibrium``, ``sweep --run eval|equilibrium|finite``, a config that exits
2) start without it.  The pytest process has loaded scipy already, so each
case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metagame
import metagame.sim

SRC = str(Path(metagame.__file__).resolve().parent.parent)

# Imports the package and the CLI, runs one command line (none for null),
# and prints the exit code and the scipy modules then loaded.
PROBE = """
import json, sys
import metagame, metagame.cli
argv = json.loads(sys.argv[1])
code = None if argv is None else metagame.cli.run_command(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

PD = {
    "schema": 1,
    "game": {"name": "pd", "params": {"X": -2, "Y": -4, "Z": -5}},
    "population": {"scenario": "pd", "params": {"p": 0.9}},
    "meta_profiles": {"main": {"pure": [["C", "C"], ["D", "D"]]}},
    "finite": {"clients_per_role": 50, "periods": 3},
    "trials": 1,
    "seed": 0,
}
# Both advisors tell every client to flip a fair C/D coin, held for enough
# periods that each finite run is drawn by sim._sample_run.
COIN = [[{"weights": {"C": 0.5, "D": 0.5}, "fraction": 1.0}]] * 2
PD_RUNS = {
    **PD,
    "meta_profiles": {"main": {"llms": [[{"probability": 1.0, "instruction": COIN}]] * 2}},
    "finite": {"clients_per_role": 50, "periods": 20},
}
HEIST = {
    "schema": 1,
    "game": {"name": "heist", "params": {}},
    "population": {"scenario": "heist", "params": {}},
    "seed": 0,
}


def _probe(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _command(tmp_path, doc, *args):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return [*args, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]


def _sweep(run, axis, values):
    return ["sweep", "--run", run, "--axis", axis, "--values", values]


@pytest.mark.parametrize(
    "doc, args, code",
    [
        (PD, ["eval"], 0),
        (PD, ["equilibrium"], 0),
        (PD, _sweep("eval", "population.params.p", "0.6,0.9"), 0),
        (PD, _sweep("equilibrium", "population.params.p", "0.6,0.9"), 0),
        (PD, _sweep("finite", "finite.clients_per_role", "50,100"), 0),
        (PD_RUNS, _sweep("finite", "finite.clients_per_role", "50,100"), 0),
        ({**PD, "trials": "x"}, ["eval"], 2),
    ],
    ids=[
        "eval", "equilibrium", "sweep-eval", "sweep-equilibrium", "sweep-finite",
        "sweep-finite-runs", "malformed",
    ],
)
def test_commands_without_an_lp_never_load_scipy(tmp_path, doc, args, code):
    if doc is PD_RUNS:
        assert doc["finite"]["periods"] >= metagame.sim.RUN_MIN
    assert _probe(_command(tmp_path, doc, *args)) == [code, []]


def test_importing_the_cli_loads_no_scipy():
    assert _probe(None) == [None, []]


def test_minmax_loads_scipy_on_its_first_lp(tmp_path):
    code, loaded = _probe(_command(tmp_path, HEIST, "minmax", "--llm", "0"))
    assert code == 0 and "scipy.optimize" in loaded
