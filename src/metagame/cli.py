"""Command-line interface: scenario configs in, reports and run logs out.

Subcommands: ``eval``, ``equilibrium``, ``minmax``, ``feasible``,
``folk plan``, ``folk run``, ``sweep``, ``report``.  Exit codes: 0 success
(and, for ``equilibrium``, certified); 2 config/validation problems,
including a term budget (``budget``, ``--budget``) too small for the exact
enumeration; 3 infeasible / not individually rational / not an
equilibrium; 1 internal errors.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceededError,
    InfeasibleTargetError,
    MetagameError,
    NotIndividuallyRationalError,
    SolverLimitError,
    ValidationError,
)
from .games import BaseGame
from .model import (
    DEFAULT_TERM_BUDGET,
    MetaProfile,
    Population,
    _payoff_tensor,
    llm_utility,
)
from .oneshot import check_equilibrium
from .feasibility import (
    _vertex_set,
    decompose_target,
    minmax,
    payoff_vertices,
)
from .protocol import _best_pure_punishment, derive_params, validate_params
from .scenarios import (
    bounded10_equilibrium_profile,
    heist_blame_profile,
    make_scenario,
    scenario_population,
)
from .sim import (
    ADVERSARY_KINDS,
    CLIENT_CEILING,
    FixedProfileStrategy,
    HonestStrategy,
    estimate_deviation_gain,
    finite_population_run,
    run_repeated,
    write_summary_csv,
)

OUTPUT_ENV = "METAGAME_OUT"
SCHEMA = 1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3


class ConfigError(ValidationError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")
        self.path = path


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def load_config(path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return normalize_config(doc)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not an object")
    return dict(value)


def _number(value) -> float:
    """``float(value)`` for a JSON number; ``true`` and ``"1"`` are none, nor
    is an integer too large for a float."""
    if isinstance(value, (bool, str)):
        raise TypeError("not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("too large for a float") from None


def _finite_numbers(value) -> list[float]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    out = [_number(v) for v in value]
    if not all(map(math.isfinite, out)):
        raise ValueError("not finite")
    return out


def _comma_separated_numbers(value: str) -> list[float]:
    """A command-line list such as ``0.6,0.9``: finite numbers."""
    return _finite_numbers([float(v) for v in value.split(",")])


def _rows(value) -> list[list]:
    """A list of lists; a string row such as ``"CD"`` is not one."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise TypeError("not a list of lists")
    return [list(row) for row in value]


def _variant(node: dict, path: str, keys: tuple[str, ...]) -> str | None:
    """The one of the alternative ``keys`` that ``node`` gives, or ``None``;
    two or more raise ``ConfigError`` naming ``path``."""
    given = [key for key in keys if key in node]
    _require(len(given) <= 1, path, f"gives {' and '.join(map(repr, given))}; give one")
    return given[0] if given else None


def _whole(least: int):
    """A converter to whole numbers of at least ``least``: ``3`` and ``3.0``
    pass as ``3``; ``2.5``, ``true`` and ``"3"`` do not."""

    def whole(value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is not int or value < least:
            raise ValueError(f"not a whole number >= {least}")
        return value

    whole.__name__ = f"a whole number >= {least}"
    return whole


_positive_int, _natural = _whole(1), _whole(0)


def _positive_number(value) -> float:
    """The number ``value`` when above 0 (``NaN`` is not)."""
    if not _number(value) > 0:
        raise ValueError("not above 0")
    return float(value)


def _finite_nonnegative_number(value) -> float:
    """The number ``value`` when it lies in [0, inf) (``NaN`` does not)."""
    if not 0 <= _number(value) < math.inf:
        raise ValueError("not in [0, inf)")
    return float(value)


def _probability(value):
    """The number ``value``, as given, when it lies in [0, 1]."""
    if not 0 <= _number(value) <= 1:
        raise ValueError("not in [0, 1]")
    return value


OVERRIDES = {
    "probe_rate": _probability,
    "block_length": _positive_int,
    "punish_length": _natural,
}


def _field(node: dict, path: str, kind, default=None):
    """``node[key]`` converted by ``kind``, where ``key`` is the last part of
    the dotted ``path``, or ``default`` when absent (``None``: required).
    Raises ``ConfigError`` naming the path."""
    key = path.rsplit(".", 1)[-1]
    if key not in node:
        _require(default is not None, path, "is required")
        return default
    try:
        return kind(node[key])
    except (TypeError, ValueError):
        what = kind.__name__.strip("_").replace("_", " ")
        raise ConfigError(path, f"must be {what}, got {node[key]!r}") from None


def _population_numbers(entries) -> None:
    """Raise ``ConfigError`` on field ``population``, naming the entry,
    unless every ``(name, value)`` of ``entries`` holds a :func:`_number`;
    the values stay as given."""
    for name, value in entries:
        try:
            _number(value)
        except (TypeError, ValueError):
            raise ConfigError("population", f"{name} must be a number, got {value!r}") from None


def _flag(value, name: str, kind, default):
    """A command-line option's ``value`` converted by ``kind`` as
    :func:`_field` does, or ``default`` when the option was not given."""
    return default if value is None else _field({name: value}, name, kind)


def normalize_config(doc: dict) -> dict:
    _require(isinstance(doc, dict), "$", "must be an object")
    out = {"schema": doc.get("schema", SCHEMA)}
    schema = _field(doc, "schema", _number, SCHEMA)
    _require(schema == SCHEMA, "schema", f"unsupported schema {out['schema']}")
    game = _field(doc, "game", _object)
    variant = _variant(game, "game", ("name", "inline"))
    _require(variant is not None, "game", "needs 'name' or 'inline'")
    if variant == "name":
        out["game"] = {"name": game["name"], "params": _field(game, "game.params", _object, {})}
    else:
        out["game"] = {"inline": game["inline"]}

    pop = _field(doc, "population", _object, {})
    variant = _variant(pop, "population", ("shares", "scenario"))
    if variant == "shares":
        shares = _field(pop, "population.shares", _rows)
        _population_numbers(
            (f"population.shares[{i}][{j}]", v)
            for i, row in enumerate(shares)
            for j, v in enumerate(row)
        )
        out["population"] = {"shares": shares}
    elif variant == "scenario":
        params = _field(pop, "population.params", _object, {})
        _population_numbers((f"population.params.{key}", v) for key, v in params.items())
        out["population"] = {"scenario": pop["scenario"], "params": params}
    elif "name" in out["game"]:
        out["population"] = {"scenario": out["game"]["name"], "params": {}}
    else:
        raise ConfigError("population", "is required for inline games")

    out["meta_profiles"] = {}
    for name, entry in _field(doc, "meta_profiles", _object, {}).items():
        path = f"meta_profiles.{name}"
        _require(isinstance(entry, dict), path, "must be an object")
        variant = _variant(entry, path, ("pure", "named", "llms"))
        _require(variant is not None, path, "needs 'pure', 'named', or 'llms'")
        value = _field(entry, f"{path}.pure", _rows) if variant == "pure" else entry[variant]
        out["meta_profiles"][name] = {variant: value}

    if doc.get("folk") is not None:
        folk = _field(doc, "folk", _object)
        norm = {
            "r": _field(folk, "folk.r", _finite_numbers),
            "epsilon": _field(folk, "folk.epsilon", _positive_number, 1.2),
            "gamma": _field(folk, "folk.gamma", _positive_number, 0.5),
            "delta": _field(folk, "folk.delta", _number, 0.995),
            "tail_tol": _field(folk, "folk.tail_tol", _positive_number, 1e-6),
        }
        _require(0 < norm["delta"] < 1, "folk.delta", "must lie in (0, 1)")
        if folk.get("overrides"):
            overrides = _field(folk, "folk.overrides", _object)
            for key in overrides:  # checked, but echoed as given
                path = f"folk.overrides.{key}"
                _require(key in OVERRIDES, path, f"is not one of {', '.join(OVERRIDES)}")
                _field(overrides, path, OVERRIDES[key])
            norm["overrides"] = overrides
        out["folk"] = norm

    if doc.get("adversary") is not None:
        adversary = _field(doc, "adversary", _object)
        out["adversary"] = {
            "llm": _field(adversary, "adversary.llm", _natural),
            "kind": adversary.get("kind", "greedy_myopic"),
        }
        kind = out["adversary"]["kind"]
        _require(kind in ADVERSARY_KINDS, "adversary.kind", f"must be one of {ADVERSARY_KINDS}")
        if adversary.get("budget") is not None:
            out["adversary"]["budget"] = _field(adversary, "adversary.budget", _natural)

    if doc.get("finite") is not None:
        finite = _field(doc, "finite", _object)
        out["finite"] = {
            "clients_per_role": _field(finite, "finite.clients_per_role", _positive_int),
            "periods": _field(finite, "finite.periods", _positive_int, 100),
        }
        _require(
            out["finite"]["clients_per_role"] < CLIENT_CEILING,
            "finite.clients_per_role",
            f"must be below {CLIENT_CEILING:,}, the finite sampler's limit",
        )

    out["trials"] = _field(doc, "trials", _positive_int, 30)
    out["seed"] = _field(doc, "seed", _natural, 0)
    out["budget"] = _field(doc, "budget", _positive_number, 1e7)
    return out


def build_game(cfg) -> BaseGame:
    game = cfg["game"]
    try:
        if "name" in game:
            return make_scenario(game["name"], **game["params"])
        return BaseGame.from_dict(game["inline"])
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ConfigError("game", f"cannot build the game: {exc!r}") from None


def build_population(cfg) -> Population:
    pop = cfg["population"]
    try:
        if "shares" in pop:
            return Population(tuple(tuple(r) for r in pop["shares"]))
        return scenario_population(pop["scenario"], **pop.get("params", {}))
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ConfigError(
            "population", f"cannot build the population: {exc!r}"
        ) from None


def build_profile(cfg, game, name) -> MetaProfile:
    """The named meta-profile, checked to instruct every role of ``game``."""
    path = f"meta_profiles.{name}"
    profiles = cfg.get("meta_profiles", {})
    _require(name in profiles, path, "is not defined")
    entry = profiles[name]
    if "named" in entry:
        named = entry["named"]
        if named == "heist_blame":
            profile = heist_blame_profile()
        elif named == "bounded10_equilibrium":
            profile = bounded10_equilibrium_profile(game)
        else:
            raise ConfigError(f"{path}.named", f"unknown profile {named!r}")
    else:
        try:
            if "pure" in entry:
                profile = MetaProfile.from_pure([tuple(p) for p in entry["pure"]])
            else:
                profile = MetaProfile.from_dict(entry["llms"])
        except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
            raise ConfigError(path, f"cannot build the profile: {exc!r}") from None
    roles = profile.actions[0].role_count
    _require(
        roles == game.role_count, path,
        f"instructions cover {roles} roles, the game has {game.role_count}",
    )
    return profile


def _config_digest(cfg) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


def _bundle(cfg, command, results) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": cfg,
        "results": results,
        "provenance": {
            "artifact_version": __version__,
            "seed": cfg.get("seed", 0),
            "config_digest": _config_digest(cfg),
        },
    }


def _out_dir(args) -> Path:
    root = args.out or os.environ.get(OUTPUT_ENV) or "metagame_out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(out_dir: Path, cfg, bundle, quiet: bool) -> None:
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    (out_dir / "report.json").write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(json.dumps(bundle["results"], indent=2, sort_keys=True))


def _budget(args, cfg) -> float:
    """``--budget`` when given, else the config's ``budget``."""
    return _flag(args.budget, "--budget", _positive_number, cfg["budget"])


def _epsilon(args) -> float:
    """``--epsilon``, the regret an equilibrium may leave; 1e-9 when not given."""
    return _flag(args.epsilon, "--epsilon", _finite_nonnegative_number, 1e-9)


def _load(args) -> tuple[dict, BaseGame, Population, float]:
    """The config, its game and population, and the term budget."""
    cfg = load_config(args.config)
    return cfg, build_game(cfg), build_population(cfg), _budget(args, cfg)


def _averages(pop, totals) -> list:
    """Each advisor's total divided by the mass it governs (``None`` for zero
    mass)."""
    return [
        u / pop.governed_mass(j) if pop.governed_mass(j) > 0 else None
        for j, u in enumerate(totals)
    ]


def cmd_eval(args) -> int:
    cfg, game, pop, budget = _load(args)
    profile = build_profile(cfg, game, args.profile)
    totals = llm_utility(game, pop, profile, budget=budget)
    averages = _averages(pop, totals)
    results = {"profile": args.profile, "totals": list(totals), "averages": averages}
    _emit(_out_dir(args), cfg, _bundle(cfg, "eval", results), args.quiet)
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    cfg, game, pop, budget = _load(args)
    epsilon = _epsilon(args)
    profile = build_profile(cfg, game, args.profile)
    report = check_equilibrium(
        game, pop, profile, epsilon=epsilon, budget=budget, symmetry=args.symmetry
    )
    averages = _averages(pop, report.utilities)
    results = {"profile": args.profile, "averages": averages, **report.to_dict()}
    _emit(_out_dir(args), cfg, _bundle(cfg, "equilibrium", results), args.quiet)
    return EXIT_OK if report.is_epsilon_equilibrium else EXIT_CERTIFICATE


def cmd_minmax(args) -> int:
    cfg, game, pop, budget = _load(args)
    k = pop.llm_count
    _require(0 <= args.llm < k, "--llm", f"must lie in [0, {k})")
    cert = minmax(game, pop, args.llm, seed=cfg["seed"], budget=budget)
    results = {
        "llm": cert.llm,
        "lower_bound": cert.lower_bound,
        "upper_bound": cert.upper_bound,
        "best_response": list(cert.best_response),
        "punishment": [None if a is None else a.to_dict() for a in cert.punishment],
    }
    _emit(_out_dir(args), cfg, _bundle(cfg, "minmax", results), args.quiet)
    return EXIT_OK


def cmd_feasible(args) -> int:
    cfg, game, pop, budget = _load(args)
    _require("folk" in cfg, "folk", "is required for feasibility checks")
    vertices = payoff_vertices(game, pop, budget=budget)
    results = {"vertex_count": len(vertices)}
    if args.dump_vertices:
        results["vertices"] = [
            {"profiles": [list(p) for p in v.profiles], "payoff": list(v.payoff)}
            for v in vertices.vertices
        ]
    target = cfg["folk"]["r"]
    try:
        cycle = decompose_target(vertices, target)
    except InfeasibleTargetError as exc:
        results.update(
            {
                "feasible": False,
                "target": list(target),
                "separating_direction": list(exc.direction),
                "gap": exc.gap,
            }
        )
        _emit(_out_dir(args), cfg, _bundle(cfg, "feasible", results), args.quiet)
        return EXIT_CERTIFICATE
    results.update(
        {
            "feasible": True,
            "target": list(target),
            "weights": list(cycle.weights),
            "support_payoffs": [list(p) for p in cycle.payoffs],
        }
    )
    _emit(_out_dir(args), cfg, _bundle(cfg, "feasible", results), args.quiet)
    return EXIT_OK


def _params_doc(params) -> dict:
    return {
        "target": list(params.target),
        "adjusted_target": list(params.adjusted_target),
        "slack": params.slack,
        "blend": params.blend,
        "probe_rate": params.probe_rate,
        "freq_threshold": params.freq_threshold,
        "block_length": params.block_length,
        "punish_length": params.punish_length,
        "punish_ratio": params.punish_ratio,
        "payoff_spread": params.payoff_spread,
        "payoff_cap": params.payoff_cap,
        "cycle_weights": list(params.cycle.weights),
        "segment_lengths": list(params.segment_lengths),
        "degenerate": params.degenerate,
        "overridden": params.overridden,
        "punishment_bounds": [c.upper_bound for c in params.certificates],
        "intended_aggregates": [t.to_dict() for t in params.intended_aggregates],
        "mass_ceilings": [
            [[list(row) for row in per_role] for per_role in per_reviewed]
            for per_reviewed in params.mass_ceilings
        ],
    }


def _derive_from_config(cfg, game, pop, budget):
    folk = cfg["folk"]
    return derive_params(
        game,
        pop,
        folk["r"],
        folk["epsilon"],
        folk["gamma"],
        overrides=folk.get("overrides"),
        budget=budget,
    )


def cmd_folk_plan(args) -> int:
    cfg, game, pop, budget = _load(args)
    _require("folk" in cfg, "folk", "is required")
    out_dir = _out_dir(args)
    try:
        params = _derive_from_config(cfg, game, pop, budget)
    except (InfeasibleTargetError, NotIndividuallyRationalError) as exc:
        results = {"planned": False, "reason": str(exc)}
        if isinstance(exc, NotIndividuallyRationalError):
            results["margins"] = list(exc.margins)
        if isinstance(exc, InfeasibleTargetError):
            results["separating_direction"] = list(exc.direction)
        _emit(out_dir, cfg, _bundle(cfg, "folk plan", results), args.quiet)
        return EXIT_CERTIFICATE
    doc = _params_doc(params)
    violations = validate_params(game, pop, params)
    results = {"planned": True, "violations": violations, **doc}
    (out_dir / "params.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _emit(out_dir, cfg, _bundle(cfg, "folk plan", results), args.quiet)
    return EXIT_OK


def cmd_folk_run(args) -> int:
    cfg, game, pop, budget = _load(args)
    _require("folk" in cfg, "folk", "is required")
    adversary = cfg.get("adversary")
    if adversary is not None:
        k = pop.llm_count
        _require(0 <= adversary["llm"] < k, "adversary.llm", f"must lie in [0, {k})")
    trials = _flag(args.trials, "--trials", _positive_int, cfg["trials"])
    if adversary is not None:
        # The deviation gain's half-width needs a sample variance.
        _require(
            trials >= 2,
            "trials" if args.trials is None else "--trials",
            "must be at least 2 with an adversary",
        )
    seed = _flag(args.seed, "--seed", _natural, cfg["seed"])
    out_dir = _out_dir(args)
    try:
        params = _derive_from_config(cfg, game, pop, budget)
    except (InfeasibleTargetError, NotIndividuallyRationalError) as exc:
        _emit(out_dir, cfg, _bundle(cfg, "folk run", {"ran": False, "reason": str(exc)}), args.quiet)
        return EXIT_CERTIFICATE
    folk = cfg["folk"]

    logs = []
    for trial in range(trials):
        strategies = [HonestStrategy() for _ in range(pop.llm_count)]
        logs.append(
            run_repeated(
                game,
                pop,
                params,
                strategies,
                delta=folk["delta"],
                tail_tol=folk["tail_tol"],
                seed=(seed, trial),
            )
        )
    honest_worst = [
        max(abs(log.discounted[j] - params.target[j]) for log in logs)
        for j in range(pop.llm_count)
    ]
    results = {
        "ran": True,
        "trials": trials,
        "horizon": logs[0].horizon,
        "honest_mean_discounted": [
            sum(log.discounted[j] for log in logs) / trials
            for j in range(pop.llm_count)
        ],
        "honest_worst_gap": honest_worst,
        "gamma": folk["gamma"],
        "honest_within_gamma": all(g <= folk["gamma"] for g in honest_worst),
        "warnings": [] if logs[0].block_stats else [
            f"the honest runs complete no review block: the horizon of "
            f"{logs[0].horizon} periods is shorter than the block length "
            f"{params.block_length}, so no review rule was applied and the "
            f"gamma and epsilon checks do not test the protocol"
        ],
    }
    if adversary is not None:
        mean, hw = estimate_deviation_gain(
            game,
            pop,
            params,
            adversary["llm"],
            adversary["kind"],
            logs,
            budget=adversary.get("budget"),
        )
        results["adversary"] = {
            **adversary,
            "mean_gain": mean,
            "half_width_99": hw,
            "epsilon": folk["epsilon"],
            "within_epsilon": mean <= folk["epsilon"] + hw,
        }
    logs[0].save_jsonl(out_dir / "runlog.jsonl")
    write_summary_csv(out_dir / "summary.csv", logs)
    (out_dir / "params.json").write_text(
        json.dumps(_params_doc(params), indent=2, sort_keys=True) + "\n"
    )
    _emit(out_dir, cfg, _bundle(cfg, "folk run", results), args.quiet)
    return EXIT_OK


def _set_path(cfg, dotted, value):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        _require(isinstance(node, dict) and part in node, dotted, "does not resolve")
        node = node[part]
    leaf = parts[-1]
    _require(isinstance(node, dict) and leaf in node, dotted, "does not resolve")
    old = node[leaf]
    _require(
        isinstance(old, (int, float)) and not isinstance(old, bool),
        dotted,
        "is not numeric",
    )
    if isinstance(old, int) and float(value).is_integer():
        node[leaf] = int(value)
    else:
        node[leaf] = float(value)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = _field({"--values": args.values}, "--values", _comma_separated_numbers)
    epsilon = _epsilon(args)
    out_dir = _out_dir(args)
    rows = []
    for value in values:
        point = copy.deepcopy(cfg)
        _set_path(point, args.axis, value)
        point = normalize_config(point)
        game = build_game(point)
        pop = build_population(point)
        budget = _budget(args, point)
        if args.run == "equilibrium":
            profile = build_profile(point, game, args.profile)
            rep = check_equilibrium(game, pop, profile, epsilon=epsilon, budget=budget)
            rows.append(
                {
                    "value": value,
                    "seed": point["seed"],
                    **{
                        f"average_{j}": a
                        for j, a in enumerate(_averages(pop, rep.utilities))
                    },
                    "max_regret": rep.max_regret,
                    "is_equilibrium": rep.is_epsilon_equilibrium,
                }
            )
        elif args.run == "eval":
            profile = build_profile(point, game, args.profile)
            totals = llm_utility(game, pop, profile, budget=budget)
            rows.append(
                {
                    "value": value,
                    "seed": point["seed"],
                    **{f"total_{j}": u for j, u in enumerate(totals)},
                }
            )
        elif args.run == "finite":
            _require("finite" in point, "finite", "section required for finite sweeps")
            profile = build_profile(point, game, args.profile)
            strategies = [
                FixedProfileStrategy(action) for action in profile.actions
            ]
            for trial in range(point["trials"]):
                _, rep = finite_population_run(
                    point["finite"]["clients_per_role"],
                    game,
                    pop,
                    strategies,
                    periods=point["finite"]["periods"],
                    seed=(point["seed"], trial),
                )
                rows.append(
                    {
                        "value": value,
                        "seed": trial,
                        "mean_gap": rep.mean_gap,
                        "max_gap": rep.max_gap,
                    }
                )
        else:
            raise ConfigError("sweep.run", f"unknown sweep target {args.run!r}")
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    results = {"axis": args.axis, "values": values, "rows": rows}
    _emit(out_dir, cfg, _bundle(cfg, "sweep", results), args.quiet)
    return EXIT_OK


def cmd_report(args) -> int:
    """Recompute the library's headline scenario numbers from scratch."""
    results = {}
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    ppop = scenario_population("pd")
    profile = MetaProfile.from_pure([("C", "C"), ("D", "D")])
    rep = check_equilibrium(pd, ppop, profile, epsilon=1e-9)
    results["pd"] = {
        "averages": _averages(ppop, rep.utilities),
        "max_regret": rep.max_regret,
        "is_equilibrium": rep.is_epsilon_equilibrium,
    }
    heist = make_scenario("heist")
    hpop = scenario_population("heist")
    U = _payoff_tensor(heist, hpop, DEFAULT_TERM_BUDGET)
    cert = _best_pure_punishment(heist, U, 0)
    vertices = _vertex_set(heist, U)
    cycle = decompose_target(vertices, (0.0, 0.0, 0.0))
    results["heist"] = {
        "punished_upper_bound": cert.upper_bound,
        "certifies_minus_0_5872": cert.upper_bound <= -0.5872 + 1e-9,
        "cycle_support": cycle.support_size,
        "cycle_weights": list(cycle.weights),
    }
    n_actions = 6 if args.quick else 100
    bgame = make_scenario("bounded10", n_actions=n_actions)
    bpop = scenario_population("bounded10")
    bprofile = bounded10_equilibrium_profile(bgame)
    totals = llm_utility(bgame, bpop, bprofile, budget=10**8)
    results["bounded10"] = {
        "n_actions": n_actions,
        "totals": list(totals),
        "averages": _averages(bpop, totals),
    }
    cfg = {"schema": SCHEMA, "report": "builtin-scenarios", "seed": 0}
    bundle = _bundle(cfg, "report", results)
    out_dir = _out_dir(args)
    (out_dir / "report.json").write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(json.dumps(results, indent=2, sort_keys=True))
    return EXIT_OK


def _add_common(parser, profile_default=None):
    parser.add_argument("--config", required=True, help="scenario config (JSON)")
    parser.add_argument("--out", default=None, help=f"output dir (default ${OUTPUT_ENV} or ./metagame_out)")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--budget", type=float, default=None, help="term budget override")
    if profile_default is not None:
        parser.add_argument("--profile", default=profile_default, help="meta-profile name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metagame")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a meta-profile's utilities")
    _add_common(p, profile_default="main")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("equilibrium", help="certify a meta-profile")
    _add_common(p, profile_default="main")
    p.add_argument("--epsilon", type=float, default=None, help="regret tolerance (default 1e-9)")
    p.add_argument("--symmetry", choices=["rotation"], default=None)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("minmax", help="punishment bracket for one advisor")
    _add_common(p)
    p.add_argument("--llm", type=int, required=True)
    p.set_defaults(func=cmd_minmax)

    p = sub.add_parser("feasible", help="vertex dump and target membership")
    _add_common(p)
    p.add_argument("--dump-vertices", action="store_true")
    p.set_defaults(func=cmd_feasible)

    folk = sub.add_parser("folk", help="repeated-game protocol").add_subparsers(
        dest="folk_command", required=True
    )
    p = folk.add_parser("plan", help="derive and audit protocol parameters")
    _add_common(p)
    p.set_defaults(func=cmd_folk_plan)
    p = folk.add_parser("run", help="simulate honest runs (and one adversary)")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_folk_run)

    p = sub.add_parser("sweep", help="re-run a command along one numeric axis")
    _add_common(p, profile_default="main")
    p.add_argument("--axis", required=True, help="dotted config path, e.g. population.params.p")
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--run", choices=["equilibrium", "eval", "finite"], default="equilibrium")
    p.add_argument("--epsilon", type=float, default=None, help="regret tolerance (default 1e-9)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="recompute headline scenario numbers")
    p.add_argument("--out", default=None)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--quick", action="store_true", help="use the 6-action variant")
    p.set_defaults(func=cmd_report)
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first command


def run_command(argv) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SolverLimitError as exc:
        # An LP matrix entry is a payoff.  A bound is a target entry or a
        # payoff, and a payoff that passed the matrix limit cannot reach the
        # bound limit, so a bound beyond it is a target entry.
        field = "game" if exc.option == "large_matrix_value" else "folk.r"
        print(f"error: {ConfigError(field, str(exc))}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValidationError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleTargetError, NotIndividuallyRationalError) as exc:
        print(f"certificate: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except MetagameError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
