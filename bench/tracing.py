"""Tracing and layer probes for the traced run.

The tracer wraps public functions of ``metagame``'s modules from outside the
package: each call becomes a span ``(name, start, end, parent, info)`` kept in
memory and written out when the run ends.  Functions called once per period
or per realization are not wrapped, because a wrapper there would cost more
than the work it measures; their per-call cost comes from the probes at the
end of this file, which time plain loops over recorded inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute, info hook).  A hook maps (args, kwargs, result) to a
# dict of counts stored with the span.


def _realizations(args, kwargs, result):
    from metagame.model import MetaProfile

    profile = args[2] if len(args) > 2 else kwargs["profile"]
    if isinstance(profile, MetaProfile):
        return {"realizations": math.prod(len(a.outcomes) for a in profile.actions)}
    return {"realizations": 1}


def _minmax_llm(args, kwargs, result):
    return {"llm": args[2] if len(args) > 2 else kwargs["j"]}


def _vertex_count(args, kwargs, result):
    return {"vertex_count": len(result)}


def _block_length(args, kwargs, result):
    return {"block_length": result.block_length}


def _horizon(args, kwargs, result):
    return {"horizon": result.horizon}


def _jsonl_size(args, kwargs, result):
    return {"bytes": len(result.encode()), "horizon": args[0].horizon}


def _finite_size(args, kwargs, result):
    periods = kwargs["periods"] if "periods" in kwargs else args[4]
    return {"clients_per_role": args[0], "periods": periods}


TRACED = (
    ("metagame.cli", "run_command", None),
    ("metagame.cli", "load_config", None),
    ("metagame.cli", "build_game", None),
    ("metagame.cli", "build_population", None),
    ("metagame.cli", "build_profile", None),
    ("metagame.model", "llm_utility", _realizations),
    ("metagame.model", "average_utility", None),
    ("metagame.oneshot", "check_equilibrium", None),
    ("metagame.oneshot", "best_response", None),
    ("metagame.feasibility", "payoff_vertices", _vertex_count),
    ("metagame.feasibility", "decompose_target", None),
    ("metagame.feasibility", "minmax", _minmax_llm),
    ("metagame.feasibility", "certificate_from_punishment", None),
    ("metagame.protocol", "derive_params", _block_length),
    ("metagame.protocol", "validate_params", None),
    ("metagame.sim", "run_repeated", _horizon),
    ("metagame.sim", "estimate_deviation_gain", None),
    ("metagame.sim", "finite_population_run", _finite_size),
    ("metagame.sim", "write_summary_csv", None),
    ("metagame.sim", "RunLog.to_jsonl", _jsonl_size),
    ("metagame.sim", "RunLog.save_jsonl", None),
)


class Tracer:
    """Records spans around the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, None])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if hook is not None:
                spans[idx][4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside ``metagame``."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "metagame"]
        for module_name, attr, hook in TRACED:
            name = f"{module_name.split('.')[1]}.{attr}"
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def named(spans, name):
    return [s for s in spans if s[0] == name]


def total_s(spans, name) -> float:
    return sum(s[2] - s[1] for s in named(spans, name))


def info_sum(spans, name, key) -> int:
    return sum(s[4][key] for s in named(spans, name))


def info_first(spans, name, key):
    found = named(spans, name)
    return found[0][4][key] if found else None


# ---------------------------------------------------------------- probes


def _per_call_us(fn, items, repeats=5) -> float:
    """Median over ``repeats`` of one timed loop over ``items``, per item."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(items) * 1e6


def _random_profiles(game, rng, count):
    return [
        tuple(acts[int(rng.integers(len(acts)))] for acts in game.actions)
        for _ in range(count)
    ]


def probe_payoffs(configs, seed) -> dict:
    from metagame import cli

    rng = np.random.default_rng([seed, 1])
    out = {}
    for metric, stem in (("games.payoff_rule_us", "bounded10_eval"), ("games.payoff_table_us", "heist")):
        game = cli.build_game(cli.load_config(configs[stem]))
        out[metric] = _per_call_us(game.payoff, _random_profiles(game, rng, 20_000))
    return out


def probe_mixed_realization(configs, seed) -> dict:
    """One heist realization in which the advisors disagree on a shared role,
    evaluated through the public single-realization entry of ``llm_utility``."""
    from metagame import cli
    from metagame.model import InstructionProfile, llm_utility

    cfg = cli.load_config(configs["heist"])
    game, pop = cli.build_game(cfg), cli.build_population(cfg)
    rng = np.random.default_rng([seed, 2])
    realizations = []
    while len(realizations) < 500:
        profiles = _random_profiles(game, rng, pop.llm_count)
        if len(set(profiles)) > 1:
            realizations.append(tuple(InstructionProfile.pure(p) for p in profiles))
    return {
        "model.mixed_realization_us": _per_call_us(
            lambda r: llm_utility(game, pop, r), realizations
        )
    }


def probe_protocol_replay(configs, seed) -> tuple[dict, list[str]]:
    """Record one honest PD stream at the README parameters, then replay it:
    ``honest_step`` and ``punishment_action`` from a re-seeded stream,
    ``aggregate_mass`` over the recorded instructions and
    ``observe_and_update`` over the recorded aggregates.  The replay must
    reproduce the recording exactly."""
    from metagame import cli
    from metagame.model import aggregate_mass
    from metagame.protocol import (
        derive_params,
        honest_step,
        initial_state,
        observe_and_update,
        punishment_action,
    )
    from metagame.sim import horizon_for

    cfg = cli.load_config(configs["pd_readme"])
    game, pop = cli.build_game(cfg), cli.build_population(cfg)
    folk = cfg["folk"]
    params = derive_params(game, pop, folk["r"], folk["epsilon"], folk["gamma"])
    horizon = horizon_for(folk["delta"], folk["tail_tol"], params.payoff_cap)
    k = pop.llm_count

    def act(state, rng):
        if state.mode == "punishment":
            return tuple(punishment_action(params, state, j) for j in range(k))
        return tuple(honest_step(params, state, j, rng)[0] for j in range(k))

    rng = np.random.default_rng([seed, 3])
    states, instructions, tables = [initial_state(params)], [], []
    for _ in range(horizon):
        instr = act(states[-1], rng)
        table = aggregate_mass(game, pop, instr)
        instructions.append(instr)
        tables.append(table)
        states.append(observe_and_update(params, states[-1], table)[0])

    errors = []
    rng = np.random.default_rng([seed, 3])
    if [act(s, rng) for s in states[:-1]] != instructions:
        errors.append("replayed honest steps differ from the recording")
    if [aggregate_mass(game, pop, i) for i in instructions] != tables:
        errors.append("replayed aggregates differ from the recording")
    replayed = [initial_state(params)]
    for table in tables:
        replayed.append(observe_and_update(params, replayed[-1], table)[0])
    if replayed != states:
        errors.append("replayed protocol states differ from the recording")

    rng = np.random.default_rng([seed, 3])
    review = [s for s in states[:-1] if s.mode == "review"]
    metrics = {
        "protocol.honest_step_us": _per_call_us(
            lambda s: [honest_step(params, s, j, rng) for j in range(k)], review
        )
        / k,
        "protocol.observe_and_update_us": _per_call_us(
            lambda st: observe_and_update(params, *st), list(zip(states[:-1], tables))
        ),
        "model.aggregate_mass_us": _per_call_us(
            lambda i: aggregate_mass(game, pop, i), instructions
        ),
    }
    return metrics, errors


def write_spans(path: Path, labelled: dict[str, list[list]]) -> int:
    """One JSON line per span: pass label, name, start, end, parent, info."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w") as fh:
        for label, spans in labelled.items():
            for name, start, end, parent, info in spans:
                fh.write(
                    json.dumps(
                        {"pass": label, "name": name, "start": start, "end": end,
                         "parent": parent, "info": info}
                    )
                    + "\n"
                )
                count += 1
    return count
