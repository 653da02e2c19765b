"""The benchmark's workloads: generated configs, CLI command sequences and
the output check of every command.

A workload is a closed loop: one client runs its commands one after another
through ``metagame.cli.run_command`` and starts the next only when the
previous one has returned.  Everything here is a pure function of the
workload seed, which is written into every generated config.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BOUNDED_ACTIONS = 40  # 40**3 = 64,000 joint realizations per llm_utility pass
EQUILIBRIUM_ACTIONS = 6
EVAL_BUDGET = "1e8"
HEIST_MINMAX = -1.2018
HEIST_BLOCK = 65_536
PD_BLOCK = 262_144
FOLK_TRIALS = 10
FINITE_SIZES = (1_000, 10_000, 100_000)
FINITE_PERIODS = 100
FINITE_TRIALS = 3
SLOPE_RANGE = (-0.6, -0.4)
TOL = 1e-9

PD_GAME = {"name": "pd", "params": {"X": -2, "Y": -4, "Z": -5}}
PD_POPULATION = {"scenario": "pd", "params": {"p": 0.9}}
# Client-level randomization: every client of both roles flips a fair C/D coin.
HALF_HALF = [[{"weights": {"C": 0.5, "D": 0.5}, "fraction": 1.0}]] * 2


def make_configs(seed: int) -> dict[str, dict]:
    """Every config the workloads read, keyed by file stem."""

    def bounded(n_actions):
        return {
            "schema": 1,
            "game": {"name": "bounded10", "params": {"n_actions": n_actions}},
            "population": {"scenario": "bounded10", "params": {}},
            "meta_profiles": {"main": {"named": "bounded10_equilibrium"}},
            "seed": seed,
        }

    readme_pd = {
        "schema": 1,
        "game": PD_GAME,
        "population": PD_POPULATION,
        "meta_profiles": {"main": {"pure": [["C", "C"], ["D", "D"]]}},
        "folk": {"r": [-3.6, -0.4], "epsilon": 1.2, "gamma": 0.5, "delta": 0.995},
        "adversary": {"llm": 1, "kind": "heavy"},
        "trials": FOLK_TRIALS,
        "seed": seed,
    }
    return {
        "bounded10_eval": bounded(BOUNDED_ACTIONS),
        "bounded10_equilibrium": bounded(EQUILIBRIUM_ACTIONS),
        "heist": {
            "schema": 1,
            "game": {"name": "heist", "params": {}},
            "population": {"scenario": "heist", "params": {}},
            "meta_profiles": {"main": {"named": "heist_blame"}},
            "folk": {"r": [0.0, 0.0, 0.0]},
            "seed": seed,
        },
        "pd_readme": readme_pd,
        "pd_finite": {
            "schema": 1,
            "game": PD_GAME,
            "population": PD_POPULATION,
            "meta_profiles": {
                "main": {
                    "llms": [[{"probability": 1.0, "instruction": HALF_HALF}]] * 2
                }
            },
            "finite": {"clients_per_role": FINITE_SIZES[0], "periods": FINITE_PERIODS},
            "trials": FINITE_TRIALS,
            "seed": seed,
        },
    }


def write_configs(seed: int, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, doc in make_configs(seed).items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths[stem] = path
    return paths


# ---------------------------------------------------------------- checks
# Each check takes (report.json results, output directory) and returns a list
# of failure messages; an empty list means the output is correct.


def _close(value, expected, tol=TOL):
    return isinstance(value, (int, float)) and abs(value - expected) <= tol


def check_eval(res, out):
    n = BOUNDED_ACTIONS
    expected = (50 - 100 / n**2, 50 - 100 / n, 0.0)
    totals = res.get("totals") or []
    if len(totals) != 3 or not all(_close(t, e) for t, e in zip(totals, expected)):
        return [f"totals {totals} != {list(expected)} (tol {TOL})"]
    return []


def check_equilibrium(res, out):
    regrets = res.get("regrets") or [math.inf]
    errors = []
    if res.get("is_epsilon_equilibrium") is not True:
        errors.append("not certified as an epsilon-equilibrium")
    if max(regrets) > TOL:
        errors.append(f"max regret {max(regrets)} > {TOL}")
    return errors


def check_minmax(res, out):
    lower, upper = res.get("lower_bound"), res.get("upper_bound")
    if not isinstance(lower, float) or not isinstance(upper, float):
        return [f"bracket missing: {lower!r}, {upper!r}"]
    errors = []
    if not lower <= upper:
        errors.append(f"lower bound {lower} above upper bound {upper}")
    if not _close(upper, HEIST_MINMAX):
        errors.append(f"upper bound {upper} != {HEIST_MINMAX} (tol {TOL})")
    return errors


def check_feasible(res, out):
    if res.get("feasible") is not True:
        return ["target (0, 0, 0) reported infeasible"]
    if len(res.get("weights", [])) != 1:
        return [f"cycle support {len(res.get('weights', []))}, expected 1"]
    return []


def _check_plan(block_length):
    def check(res, out):
        errors = []
        if res.get("planned") is not True or res.get("violations") != []:
            errors.append(f"plan not clean: violations {res.get('violations')!r}")
        if res.get("block_length") != block_length:
            errors.append(f"block length {res.get('block_length')} != {block_length}")
        return errors

    return check


def check_folk_run(res, out):
    errors = []
    if res.get("honest_within_gamma") is not True:
        errors.append(f"honest gap {res.get('honest_worst_gap')} exceeds gamma")
    if (res.get("adversary") or {}).get("within_epsilon") is not True:
        errors.append(f"deviation gain not within epsilon: {res.get('adversary')}")
    if not (out / "runlog.jsonl").is_file() or not (out / "summary.csv").is_file():
        errors.append("runlog.jsonl or summary.csv missing")
    return errors


def finite_slope(out) -> float:
    """Log-log slope of the mean aggregate gap against N, from sweep.csv."""
    gaps: dict[float, list[float]] = {}
    with open(out / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            gaps.setdefault(float(row["value"]), []).append(float(row["mean_gap"]))
    sizes = sorted(gaps)
    means = [sum(gaps[n]) / len(gaps[n]) for n in sizes]
    return float(np.polyfit(np.log(sizes), np.log(means), 1)[0])


def check_finite(res, out):
    rows = res.get("rows") or []
    if len(rows) != len(FINITE_SIZES) * FINITE_TRIALS:
        return [f"{len(rows)} sweep rows, expected {len(FINITE_SIZES) * FINITE_TRIALS}"]
    slope = finite_slope(out)
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        return [f"gap slope {slope:.4f} outside [{lo}, {hi}]"]
    return []


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Op:
    """One CLI command: ``metagame <command...> --config <config> <extra...>``."""

    label: str
    command: tuple[str, ...]
    config: str
    check: Callable
    extra: tuple[str, ...] = ()

    def argv(self, configs: dict[str, Path], out: Path) -> list[str]:
        return [
            *self.command,
            "--config", str(configs[self.config]),
            "--out", str(out),
            "--quiet",
            *self.extra,
        ]


@dataclass(frozen=True)
class Workload:
    """A named command sequence; why each exists is in BENCHMARK.json and README.md."""

    name: str
    setup_config: str  # config that set-up loads and builds a game and profile from
    ops: tuple[Op, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-bounded10",
            "bounded10_eval",
            (
                Op("eval", ("eval",), "bounded10_eval", check_eval, ("--budget", EVAL_BUDGET)),
                Op(
                    "equilibrium",
                    ("equilibrium",),
                    "bounded10_equilibrium",
                    check_equilibrium,
                    ("--symmetry", "rotation"),
                ),
            ),
        ),
        Workload(
            "plan-heist",
            "heist",
            (
                *(
                    Op(f"minmax-{j}", ("minmax",), "heist", check_minmax, ("--llm", str(j)))
                    for j in range(3)
                ),
                Op("feasible", ("feasible",), "heist", check_feasible),
                Op("plan-heist", ("folk", "plan"), "heist", _check_plan(HEIST_BLOCK)),
                Op("plan-pd", ("folk", "plan"), "pd_readme", _check_plan(PD_BLOCK)),
            ),
        ),
        Workload(
            "folk-run-pd",
            "pd_readme",
            (Op("folk-run", ("folk", "run"), "pd_readme", check_folk_run),),
        ),
        Workload(
            "finite-pd",
            "pd_finite",
            (
                Op(
                    "sweep-finite",
                    ("sweep",),
                    "pd_finite",
                    check_finite,
                    (
                        "--run", "finite",
                        "--axis", "finite.clients_per_role",
                        "--values", ",".join(str(n) for n in FINITE_SIZES),
                    ),
                ),
            ),
        ),
    )
}
